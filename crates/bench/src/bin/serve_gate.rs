//! CI gate for the multi-tenant simulation service (`vibe-serve`).
//!
//! Boots the HTTP front end on an ephemeral port, drives a full
//! multi-tenant session over real sockets, and exits nonzero on any of:
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
//! Usage: `serve_gate [job-config-json]`: every job is the given
//! `JobConfig` JSON object (default: `JobConfig::default()` at 10 cycles)
//! with its own `refine_tol` and `nranks`; the slice budget is
//! `VIBE_SERVE_BUDGET` (default 2).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use vibe_serve::http::Server;
use vibe_serve::json::{obj, parse, parse_lines, Json};
use vibe_serve::{JobConfig, JobState, Service, ServiceConfig};

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

/// The submission body of `base` at this job's tolerance and rank count.
fn job_config_body(tenant: &str, base: &JobConfig, refine_tol: f64, nranks: usize) -> String {
    let config = JobConfig {
        refine_tol,
        nranks,
        ..base.clone()
    };
    obj(vec![
        ("tenant", Json::Str(tenant.to_string())),
        ("config", config.to_json()),
    ])
    .render()
}

fn submit(port: u16, body: &str) -> (u64, bool) {
    let (code, resp) = http(port, "POST", "/jobs", body);
    assert_eq!(code, 201, "submit failed: {resp}");
    let v = parse(&resp).expect("submit response JSON");
    (
        v.get("id").and_then(Json::as_u64).expect("job id"),
        v.get("cached") == Some(&Json::Bool(true)),
    )
}

fn fail(msg: &str) -> ! {
    eprintln!("serve gate: FAIL: {msg}");
    std::process::exit(1);
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

fn main() {
    let (scenario, _) = vibe_bench::scenario_args(JobConfig {
        cycles: 10,
        ..JobConfig::default()
    });
    let (base, cycles) = (&scenario, scenario.cycles);
    let budget: u64 = vibe_bench::env_or("VIBE_SERVE_BUDGET", 2);
    let wait = Duration::from_secs(600);
    // The kernel-launch worker pool is a process-lifetime singleton (its
    // workers deliberately persist, like rayon's). Pre-warm it at the
    // widest thread count this gate's jobs use so the baseline includes
    // those threads and the leak check sees only service-owned ones.
    vibe_exec::pool::global().run(4, 2, &|_| {});
    let threads_before = count_own_threads();

    let service = Arc::new(Service::start(ServiceConfig {
        runners: 2,
        budget_cycles: budget,
        tenant_weights: Vec::new(),
        ..ServiceConfig::default()
    }));
    let server = Server::start(Arc::clone(&service), 0).expect("bind ephemeral port");
    let port = server.port();
    eprintln!("serve gate: listening on 127.0.0.1:{port}, cycles={cycles}, budget={budget}");

    // 8 jobs from 3 tenants. Jobs 0..6 are submitted up-front (8-deep
    // concurrent backlog once the preempt target is counted); job 7 is
    // the cache probe submitted after its twin completes.
    //
    //   alpha: 0, 3, and 6 (the preempt/resume target)
    //   beta : 1, 4
    //   gamma: 2, 5, and 7 (duplicate of beta's job 1 problem)
    //
    // Job 6 shares its *problem* with job 0 but runs on a different
    // geometry and is preempted mid-flight — job 0's uninterrupted
    // fingerprint is the reference the resumed run must reproduce.
    let tol = |i: u64| 0.2 + i as f64 * 0.005;
    let (id0, _) = submit(port, &job_config_body("alpha", base, tol(0), 1));
    let (id1, _) = submit(port, &job_config_body("beta", base, tol(1), 1));
    let (id2, _) = submit(port, &job_config_body("gamma", base, tol(2), 1));
    let (id3, _) = submit(port, &job_config_body("alpha", base, tol(3), 1));
    let (id4, _) = submit(port, &job_config_body("beta", base, tol(4), 1));
    let (id5, _) = submit(port, &job_config_body("gamma", base, tol(5), 1));
    let (id6, cached6) = submit(port, &job_config_body("alpha", base, tol(0), 2));
    if cached6 {
        fail("preempt target was served from cache before its twin completed");
    }

    // Preempt job 6 once it has advanced past its first slice but still
    // has most of its cycles ahead.
    service
        .wait_for(id6, wait, |v| {
            v.cycles_done >= budget && v.state != JobState::Done
        })
        .unwrap_or_else(|e| fail(&format!("waiting for preempt window: {e}")));
    let (code, resp) = http(port, "POST", &format!("/jobs/{id6}/preempt"), "");
    if code != 200 {
        fail(&format!("preempt rejected ({code}): {resp}"));
    }
    let parked = service
        .wait_for(id6, wait, |v| v.state == JobState::Preempted)
        .unwrap_or_else(|e| fail(&format!("waiting for park: {e}")));
    eprintln!(
        "serve gate: job {id6} parked at cycle {}/{cycles}",
        parked.cycles_done
    );
    if parked.cycles_done == 0 || parked.cycles_done >= cycles {
        fail("preemption did not land mid-run");
    }

    // Resume on a different shard/thread decomposition.
    let (code, resp) = http(
        port,
        "POST",
        &format!("/jobs/{id6}/resume"),
        r#"{"nranks":3,"threads":2}"#,
    );
    if code != 200 {
        fail(&format!("resume rejected ({code}): {resp}"));
    }

    // Drain the backlog.
    let mut views = Vec::new();
    for id in [id0, id1, id2, id3, id4, id5, id6] {
        let v = service
            .wait_done(id, wait)
            .unwrap_or_else(|e| fail(&format!("job {id}: {e}")));
        views.push(v);
    }

    // Gate 1: preempted+resumed fingerprint equals the uninterrupted
    // twin's, bit for bit, despite the geometry change.
    let fp0 = views[0].result.expect("job 0 result").fingerprint;
    let fp6 = views[6].result.expect("job 6 result").fingerprint;
    if fp0 != fp6 {
        fail(&format!(
            "preempt/resume fingerprint mismatch: uninterrupted {fp0:016x} vs resumed {fp6:016x}"
        ));
    }
    if views[6].config.nranks != 3 {
        fail("resume did not adopt the new geometry");
    }
    eprintln!("serve gate: preempt/resume bitwise identical ({fp0:016x})");

    // Gate 2: identical problem resubmission (job 7, different tenant
    // and geometry) is served from cache with zero recompute.
    let (id7, cached7) = submit(port, &job_config_body("gamma", base, tol(1), 4));
    if !cached7 {
        fail("identical resubmission missed the result cache");
    }
    let v7 = service
        .wait_done(id7, wait)
        .unwrap_or_else(|e| fail(&format!("cached job: {e}")));
    if v7.cycles_executed != 0 {
        fail(&format!(
            "cache hit recomputed {} cycles",
            v7.cycles_executed
        ));
    }
    let fp1 = views[1].result.expect("job 1 result").fingerprint;
    let fp7 = v7.result.expect("job 7 result").fingerprint;
    if fp1 != fp7 {
        fail(&format!(
            "cached fingerprint mismatch: {fp1:016x} vs {fp7:016x}"
        ));
    }
    eprintln!("serve gate: cache hit served {fp7:016x} with zero recompute");

    // The HTTP artifacts must validate offline.
    let (code, jsonl) = http(port, "GET", &format!("/jobs/{id6}/metrics"), "");
    assert_eq!(code, 200);
    let rows = parse_lines(&jsonl)
        .unwrap_or_else(|e| fail(&format!("metrics JSONL invalid: {e}")))
        .len();
    if rows as u64 != cycles {
        fail(&format!("expected {cycles} metric rows, got {rows}"));
    }
    let (code, trace) = http(port, "GET", &format!("/jobs/{id6}/trace"), "");
    assert_eq!(code, 200);
    parse(&trace).unwrap_or_else(|e| fail(&format!("trace JSON invalid: {e}")));

    // Gate 3: fairness. The six uniform jobs (0..5) carry equal work per
    // tenant; mean turnaround per tenant must stay within 3x.
    let mut per_tenant: std::collections::BTreeMap<&str, (f64, u32)> = Default::default();
    for v in &views[..6] {
        let t = v.turnaround.expect("finished job has turnaround");
        let e = per_tenant.entry(match v.tenant.as_str() {
            "alpha" => "alpha",
            "beta" => "beta",
            _ => "gamma",
        });
        let e = e.or_insert((0.0, 0));
        e.0 += t.as_secs_f64();
        e.1 += 1;
    }
    let means: Vec<(String, f64)> = per_tenant
        .iter()
        .map(|(t, (sum, n))| (t.to_string(), sum / f64::from(*n)))
        .collect();
    let max = means.iter().map(|(_, m)| *m).fold(0.0f64, f64::max);
    let min = means.iter().map(|(_, m)| *m).fold(f64::INFINITY, f64::min);
    for (t, m) in &means {
        eprintln!("serve gate: tenant {t} mean turnaround {m:.3}s");
    }
    if min <= 0.0 || max / min > 3.0 {
        fail(&format!(
            "tenant starvation: max/min mean turnaround {:.2}x > 3x",
            max / min
        ));
    }

    // /stats sanity over the wire.
    let (code, stats) = http(port, "GET", "/stats", "");
    assert_eq!(code, 200);
    let v = parse(&stats).unwrap_or_else(|e| fail(&format!("stats JSON: {e}")));
    if v.get("submitted").and_then(Json::as_u64) != Some(8) {
        fail(&format!("expected 8 submitted jobs in stats: {stats}"));
    }
    if v.get("cache_hits").and_then(Json::as_u64) != Some(1) {
        fail(&format!("expected exactly 1 cache hit in stats: {stats}"));
    }

    // Gate 4: clean teardown leaks no threads.
    server.shutdown();
    drop(service);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let now = count_own_threads();
        if now <= threads_before {
            break;
        }
        if std::time::Instant::now() > deadline {
            fail(&format!(
                "thread leak after shutdown: {now} > {threads_before} (live: {:?})",
                thread_names()
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    println!(
        "serve gate: OK — 8 jobs / 3 tenants, preempt/resume bitwise, cache exact, fair, leak-free"
    );
}
