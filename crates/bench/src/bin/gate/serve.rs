//! `gate serve` — the multi-tenant simulation service (`vibe-serve`).
//!
//! Boots the HTTP front end on an ephemeral port, drives 8 jobs from 3
//! tenants over real sockets, and fails on any of:
//!
//! * **fingerprint mismatch** — a job preempted mid-run and resumed on a
//!   different `(nranks, threads)` geometry must produce a final solution
//!   fingerprint bitwise identical to the same problem run uninterrupted;
//! * **cache miss-on-hit** — resubmitting an identical problem
//!   configuration (any tenant, any geometry) must be served from the
//!   result cache with `cycles_executed == 0`;
//! * **unfair starvation** — across tenants submitting equal work, the
//!   max/min mean-turnaround ratio must stay ≤ 3×;
//! * **leaked thread** — after server + service shutdown, the process
//!   thread count must return to its pre-boot value.
//!
//! Every job is the scenario (default `JobConfig::default()` at 10 cycles)
//! with its own `refine_tol` and `nranks`, sliced 2 cycles at a time.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vibe_prof::json::{obj, parse, parse_lines, Json};
use vibe_serve::http::Server;
use vibe_serve::{JobConfig, JobState, Service, ServiceConfig};

use crate::Gate;

/// Cycles a job runs before the scheduler may switch to another.
const BUDGET: u64 = 2;
const WAIT: Duration = Duration::from_secs(600);

pub fn default_job() -> JobConfig {
    JobConfig {
        cycles: 10,
        ..JobConfig::default()
    }
}

/// One-request HTTP/1.1 client (Connection: close), chunked-aware.
fn http(port: u16, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("utf-8 response");
    let (head, payload) = text.split_once("\r\n\r\n").expect("header terminator");
    let code: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let body = if head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        let mut out = String::new();
        let mut rest = payload;
        loop {
            let (size_line, tail) = rest.split_once("\r\n").expect("chunk size");
            let size = usize::from_str_radix(size_line.trim(), 16).expect("hex chunk size");
            if size == 0 {
                break out;
            }
            out.push_str(&tail[..size]);
            rest = &tail[size + 2..];
        }
    } else {
        payload.to_string()
    };
    (code, body)
}

/// A request whose status must be `want`; the body when it is.
fn expect_http(
    gate: &mut Gate,
    port: u16,
    method: &str,
    path: &str,
    body: &str,
    want: u16,
) -> Option<String> {
    let (code, resp) = http(port, method, path, body);
    gate.check(code == want, || {
        format!("{method} {path}: status {code}, expected {want}: {resp}")
    })
    .then_some(resp)
}

/// Submits `base` at this job's tolerance and rank count: `(id, cached)`.
fn submit(
    gate: &mut Gate,
    port: u16,
    tenant: &str,
    base: &JobConfig,
    refine_tol: f64,
    nranks: usize,
) -> Option<(u64, bool)> {
    let config = JobConfig {
        refine_tol,
        nranks,
        ..base.clone()
    };
    let body = obj(vec![
        ("tenant", Json::Str(tenant.to_string())),
        ("config", config.to_json()),
    ])
    .render();
    let resp = expect_http(gate, port, "POST", "/jobs", &body, 201)?;
    let v = gate.ok(parse(&resp), "submit response")?;
    let id = gate.ok(
        v.get("id").and_then(Json::as_u64).ok_or(&resp),
        "no job id in",
    )?;
    Some((id, v.get("cached") == Some(&Json::Bool(true))))
}

fn count_own_threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(1, |d| d.count())
}

/// Names of all live threads, for the leak diagnostic.
fn thread_names() -> Vec<String> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok())
        .filter_map(|e| std::fs::read_to_string(e.path().join("comm")).ok())
        .map(|s| s.trim().to_string())
        .collect()
}

pub fn run(base: &JobConfig, gate: &mut Gate) {
    // The kernel-launch worker pool is a process-lifetime singleton (its
    // workers deliberately persist, like rayon's). Pre-warm it at the
    // widest thread count this gate's jobs use so the baseline includes
    // those threads and the leak check sees only service-owned ones.
    vibe_exec::pool::global().run(4, 2, &|_| {});
    let threads_before = count_own_threads();

    let service = Arc::new(Service::start(ServiceConfig {
        runners: 2,
        budget_cycles: BUDGET,
        tenant_weights: Vec::new(),
    }));
    let Some(server) = gate.ok(
        Server::start(Arc::clone(&service), 0),
        "bind ephemeral port",
    ) else {
        return;
    };
    let port = server.port();
    eprintln!(
        "gate serve: listening on 127.0.0.1:{port}, cycles={}, budget={BUDGET}",
        base.cycles
    );
    if session(base, port, &service, gate).is_some() {
        println!("8 jobs / 3 tenants: preempt/resume bitwise, cache exact, fair");
    }

    // Clean teardown leaks no threads.
    server.shutdown();
    drop(service);
    let deadline = Instant::now() + Duration::from_secs(10);
    while count_own_threads() > threads_before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let now = count_own_threads();
    gate.check(now <= threads_before, || {
        format!(
            "thread leak after shutdown: {now} > {threads_before} (live: {:?})",
            thread_names()
        )
    });
}

/// The multi-tenant session; `None` where a step failed that the rest
/// depends on.
fn session(base: &JobConfig, port: u16, service: &Service, gate: &mut Gate) -> Option<()> {
    let cycles = base.cycles;
    // 8 jobs from 3 tenants. Seven are submitted up-front (an 8-deep
    // concurrent backlog once the preempt target is counted); the last is
    // the cache probe submitted after its twin completes. By submission
    // order (the service's job ids):
    //
    //   alpha: 0 (the twin), 1 (the preempt/resume target), 4
    //   beta : 2, 5
    //   gamma: 3, 6, and 7 (duplicate of beta's job 2 problem)
    //
    // The target shares its *problem* with the twin but runs on a
    // different geometry and is preempted mid-flight — the twin's
    // uninterrupted fingerprint is the reference the resumed run must
    // reproduce. The two go first and back to back, so neither can find
    // the other's result in the cache: the twin cannot finish a run
    // between two consecutive requests.
    let tol = |i: u64| 0.2 + i as f64 * 0.005;
    let (twin, cached_twin) = submit(gate, port, "alpha", base, tol(0), 1)?;
    let (target, cached_target) = submit(gate, port, "alpha", base, tol(0), 2)?;
    gate.check(!cached_twin && !cached_target, || {
        "the preempt target or its twin was served from cache".to_string()
    })
    .then_some(())?;
    // `ids[..6]` are the six uniform jobs, `ids[6]` the target.
    let mut ids = vec![twin];
    for (i, tenant) in (1..6).zip(["beta", "gamma", "alpha"].into_iter().cycle()) {
        ids.push(submit(gate, port, tenant, base, tol(i), 1)?.0);
    }
    ids.push(target);

    // Preempt the target once it has advanced past its first slice but still
    // has most of its cycles ahead.
    let in_window = service.wait_for(target, WAIT, |v| {
        v.cycles_done >= BUDGET && v.state != JobState::Done
    });
    gate.ok(in_window, "waiting for preempt window")?;
    let on_target = |what: &str| format!("/jobs/{target}/{what}");
    expect_http(gate, port, "POST", &on_target("preempt"), "", 200)?;
    let parked = service.wait_for(target, WAIT, |v| v.state == JobState::Preempted);
    let parked = gate.ok(parked, "waiting for park")?.cycles_done;
    eprintln!("gate serve: job {target} parked at cycle {parked}/{cycles}");
    gate.check(parked > 0 && parked < cycles, || {
        format!("preemption did not land mid-run (cycle {parked}/{cycles})")
    })
    .then_some(())?;

    // Resume on a different shard/thread decomposition, then drain the
    // backlog.
    let geometry = r#"{"nranks":3,"threads":2}"#;
    expect_http(gate, port, "POST", &on_target("resume"), geometry, 200)?;
    let mut views = Vec::new();
    for &id in &ids {
        views.push(gate.ok(service.wait_done(id, WAIT), &format!("job {id}"))?);
    }
    let fingerprint = |v: &vibe_serve::JobView| v.result.map(|r| r.fingerprint);

    // Preempted+resumed fingerprint equals the uninterrupted twin's, bit
    // for bit, despite the geometry change.
    let (fp0, fp6) = (fingerprint(&views[0]), fingerprint(&views[6]));
    gate.check(fp0.is_some() && fp0 == fp6, || {
        format!("preempt/resume fingerprint mismatch: uninterrupted {fp0:x?} vs resumed {fp6:x?}")
    });
    gate.check(views[6].config.nranks == 3, || {
        "resume did not adopt the new geometry".to_string()
    });
    gate.fact(
        "resumed_fingerprint",
        Json::Str(format!("{:016x}", fp6.unwrap_or(0))),
    );

    // Identical problem resubmission (job 7, different tenant and
    // geometry than beta's first job) is served from cache with zero
    // recompute.
    let (id7, cached7) = submit(gate, port, "gamma", base, tol(1), 4)?;
    gate.check(cached7, || {
        "identical resubmission missed the result cache".to_string()
    });
    let v7 = gate.ok(service.wait_done(id7, WAIT), "cached job")?;
    gate.check(v7.cycles_executed == 0, || {
        format!("cache hit recomputed {} cycles", v7.cycles_executed)
    });
    let (fp1, fp7) = (fingerprint(&views[1]), fingerprint(&v7));
    gate.check(fp1.is_some() && fp1 == fp7, || {
        format!("cached fingerprint mismatch: {fp1:x?} vs {fp7:x?}")
    });

    // The HTTP metrics stream must parse.
    let jsonl = expect_http(gate, port, "GET", &on_target("metrics"), "", 200)?;
    let rows = gate
        .ok(parse_lines(&jsonl), "metrics JSONL")
        .map_or(0, |r| r.len());
    gate.check(rows as u64 == cycles, || {
        format!("expected {cycles} metric rows, got {rows}")
    });

    // Fairness. The six uniform jobs (0..5) carry equal work per tenant;
    // mean turnaround per tenant must stay within 3x.
    let mut per_tenant: BTreeMap<&str, (f64, u32)> = BTreeMap::new();
    for v in &views[..6] {
        let e = per_tenant.entry(v.tenant.as_str()).or_insert((0.0, 0));
        e.0 += v.turnaround.map_or(0.0, |t| t.as_secs_f64());
        e.1 += 1;
    }
    let means: Vec<f64> = per_tenant
        .values()
        .map(|(sum, n)| sum / f64::from(*n))
        .collect();
    let max = means.iter().copied().fold(0.0f64, f64::max);
    let min = means.iter().copied().fold(f64::INFINITY, f64::min);
    gate.check(min > 0.0 && max / min <= 3.0, || {
        format!(
            "tenant starvation: max/min mean turnaround {:.2}x > 3x",
            max / min
        )
    });

    // /stats sanity over the wire.
    let stats = expect_http(gate, port, "GET", "/stats", "", 200)?;
    let v = gate.ok(parse(&stats), "stats JSON")?;
    for (key, want) in [("submitted", 8), ("cache_hits", 1)] {
        gate.check(v.get(key).and_then(Json::as_u64) == Some(want), || {
            format!("expected {key} = {want} in stats: {stats}")
        });
    }
    Some(())
}
