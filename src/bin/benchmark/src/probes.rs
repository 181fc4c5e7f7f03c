//! Per-layer probes of the traced run. Each probe is timed from here,
//! around public calls of one crate, on the workload's live end state (its
//! mesh, block slots and recorder); each repeats until it has covered
//! 50 ms and reports the median. A probe is a micro-benchmark of a layer
//! in isolation: it says what the layer costs per operation, and the
//! interaction list in README.md says which end-to-end metric that cost
//! should move on which workload.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vibe_amr::burgers::{hll_flux, hll_flux_lanes, reconstruct_weno5, reconstruct_weno5_lanes};
use vibe_amr::comm::{
    channel_fabric, BoundaryKey, BufferCache, CacheConfig, Communicator, SendMeta,
};
use vibe_amr::core::{read_snapshot, restore_driver, Driver, DynPackage};
use vibe_amr::exec::ExecCtx;
use vibe_amr::field::{compute_buffer_spec, pack, unpack, BufferMode, BufferSpec, F64Lanes};
use vibe_amr::ft::{FaultPlan, FaultPlanSpec, KillSpec};
use vibe_amr::hwmodel::{platform::evaluate, PlatformConfig};
use vibe_amr::mesh::refinement::RegridDecision;
use vibe_amr::mesh::{enforce_proper_nesting, AmrFlag, Mesh};
use vibe_amr::prof::{Recorder, StepFunction};
use vibe_amr::rt::{run_resilient, ResilienceOptions};
use vibe_amr::serve::http::Server;
use vibe_amr::serve::json::parse as parse_json;
use vibe_amr::serve::{JobConfig, Service};
use vibe_amr::sim::{simulate, SimConfig, SimWorkload};

use crate::problem::{Geometry, Problem};
use crate::spec::Metrics;
use crate::trace::Tracer;
use crate::util::{median, repeat_timed, time_s};
use crate::workloads::{direct_job_run, job_config, service_config, Checks, JOB_TOL};

const MS: f64 = 1e3;
const US: f64 = 1e6;
const NS: f64 = 1e9;

// ---------------------------------------------------------------------------
// mesh
// ---------------------------------------------------------------------------

pub fn mesh(m: &mut Metrics, p: &Problem, mesh: &Mesh, tr: &mut Tracer) {
    let nghost = mesh.params().nghost();
    let new_s = repeat_timed(tr, "probe.mesh.new", || {
        time_s(|| Mesh::new(p.mesh_params(nghost)))
    });
    m.set("mesh.new_ms", new_s * MS);

    // Refine every 20th refinable leaf (≈ 5%), then undo it.
    let max_level = mesh.tree().max_level();
    let flags: BTreeMap<_, _> = mesh
        .tree()
        .leaves()
        .filter(|l| l.level() < max_level)
        .step_by(20)
        .map(|l| (l, AmrFlag::Refine))
        .collect();
    let refine = enforce_proper_nesting(mesh.tree(), &flags);
    let undo = RegridDecision {
        refine: Vec::new(),
        derefine_parents: refine.refine.clone(),
    };
    let regrid_s = repeat_timed(tr, "probe.mesh.regrid", || {
        let mut scratch = mesh.clone();
        time_s(|| {
            scratch.regrid(&refine).expect("nesting-enforced refine");
            scratch.regrid(&undo).expect("exact inverse");
        })
    });
    m.set(
        "mesh.regrid_ms",
        if refine.is_empty() {
            0.0
        } else {
            regrid_s * MS
        },
    );

    let mut scratch = mesh.clone();
    let balance_s = repeat_timed(tr, "probe.mesh.load_balance", || {
        time_s(|| scratch.load_balance(2))
    });
    m.set("mesh.load_balance_us", balance_s * US);
    let neighbors: usize = (0..mesh.num_blocks())
        .map(|g| mesh.neighbors(g).len())
        .sum();
    m.set("mesh.neighbors_total", neighbors as f64);
}

// ---------------------------------------------------------------------------
// field
// ---------------------------------------------------------------------------

/// One block–neighbour buffer of the end-state mesh.
struct Pair {
    spec: BufferSpec,
    sender: usize,
}

/// Every (receiver, neighbour) buffer of the mesh, at most `cap` of them
/// (evenly strided) so a probe stays in the tens of milliseconds.
fn buffer_pairs(d: &Driver<DynPackage>, cap: usize) -> Vec<Pair> {
    let mesh = d.mesh();
    let shape = mesh.index_shape();
    let mut pairs = Vec::new();
    for gid in 0..mesh.num_blocks() {
        let r_loc = mesh.block(gid).loc();
        for nb in mesh.neighbors(gid) {
            let sender = mesh.gid_at(&nb.loc).expect("neighbour is a leaf");
            pairs.push(Pair {
                spec: compute_buffer_spec(&shape, &r_loc, &nb.loc, &nb.offset),
                sender,
            });
        }
    }
    let stride = pairs.len().div_ceil(cap).max(1);
    pairs.into_iter().step_by(stride).collect()
}

/// Index of the widest variable (the conserved state) in a block.
fn state_var(d: &Driver<DynPackage>) -> usize {
    let vars = d.slots()[0].data.vars();
    (0..vars.len())
        .max_by_key(|i| vars[*i].ncomp())
        .expect("a block has variables")
}

/// Buffer sizes (in `f64`s) of the workload's messages — the histogram
/// the comm probes replay. Returns the sizes and the total buffer count.
pub fn field(m: &mut Metrics, d: &Driver<DynPackage>, tr: &mut Tracer) -> (Vec<usize>, usize) {
    let mesh = d.mesh();
    let shape = mesh.index_shape();
    let total: usize = (0..mesh.num_blocks())
        .map(|g| mesh.neighbors(g).len())
        .sum();

    let spec_s = repeat_timed(tr, "probe.field.buffer_spec", || {
        time_s(|| {
            for gid in 0..mesh.num_blocks() {
                let r_loc = mesh.block(gid).loc();
                for nb in mesh.neighbors(gid) {
                    black_box(compute_buffer_spec(&shape, &r_loc, &nb.loc, &nb.offset));
                }
            }
        })
    });
    m.set("field.buffer_spec_ns", spec_s * NS / total.max(1) as f64);

    let pairs = buffer_pairs(d, 2048);
    let var = state_var(d);
    let array = |gid: usize| d.slots()[gid].data.vars()[var].data();
    let ncomp = array(0).ncomp();
    let mut scratch = array(0).clone();
    let mut bufs: Vec<Vec<f64>> = pairs.iter().map(|_| Vec::new()).collect();

    let modes: [(&str, &str, BufferMode); 4] = [
        ("field.pack_same_ns_per_cell", "pack", BufferMode::Copy),
        (
            "field.pack_restrict_ns_per_cell",
            "pack",
            BufferMode::RestrictFromFine,
        ),
        ("field.unpack_same_ns_per_cell", "unpack", BufferMode::Copy),
        (
            "field.unpack_prolong_ns_per_cell",
            "unpack",
            BufferMode::CoarseToFine,
        ),
    ];
    for (name, op, mode) in modes {
        let chosen: Vec<usize> = (0..pairs.len())
            .filter(|i| pairs[*i].spec.mode() == mode)
            .collect();
        let cells: usize = chosen
            .iter()
            .map(|i| pairs[*i].spec.buffer_len(ncomp))
            .sum();
        if cells == 0 {
            // A uniform mesh has no level boundaries to restrict or prolong.
            m.set(name, 0.0);
            continue;
        }
        let fill = |bufs: &mut Vec<Vec<f64>>| {
            for &i in &chosen {
                bufs[i].clear();
                pack(&pairs[i].spec, array(pairs[i].sender), &mut bufs[i]);
            }
        };
        let seconds = if op == "pack" {
            repeat_timed(tr, "probe.field.pack", || time_s(|| fill(&mut bufs)))
        } else {
            fill(&mut bufs);
            repeat_timed(tr, "probe.field.unpack", || {
                time_s(|| {
                    for &i in &chosen {
                        unpack(&pairs[i].spec, &bufs[i], &mut scratch);
                    }
                })
            })
        };
        m.set(name, seconds * NS / cells as f64);
    }
    m.set(
        "field.computed_bytes_per_cycle",
        d.total_field_bytes() as f64,
    );
    let sizes = pairs.iter().map(|p| p.spec.buffer_len(ncomp)).collect();
    (sizes, total)
}

// ---------------------------------------------------------------------------
// comm
// ---------------------------------------------------------------------------

/// Round trips (ping-pong) or collectives between two communicators on the
/// 2-rank channel fabric, one per thread; returns seconds per operation as
/// seen by rank 0.
fn two_rank<F>(tr: &mut Tracer, name: &'static str, rounds: usize, op: F) -> f64
where
    F: Fn(&mut Communicator, &mut Recorder, usize) + Sync,
{
    let span = tr.begin(name);
    let mut fabric = channel_fabric(2);
    let t1 = fabric.pop().expect("two endpoints");
    let t0 = fabric.pop().expect("two endpoints");
    let seconds = std::thread::scope(|scope| {
        let peer = scope.spawn(|| {
            let mut c = Communicator::with_transport(2, Box::new(t1));
            let mut rec = Recorder::new();
            for k in 0..rounds {
                op(&mut c, &mut rec, k);
            }
        });
        let mut c = Communicator::with_transport(2, Box::new(t0));
        let mut rec = Recorder::new();
        let t = Instant::now();
        for k in 0..rounds {
            op(&mut c, &mut rec, k);
        }
        let seconds = t.elapsed().as_secs_f64();
        peer.join().expect("peer rank thread");
        seconds
    });
    tr.end(span);
    seconds / rounds as f64
}

pub fn comm(m: &mut Metrics, sizes: &[usize], buffers: usize, blocks: usize, tr: &mut Tracer) {
    let sizes: Vec<usize> = if sizes.is_empty() {
        vec![64]
    } else {
        sizes.to_vec()
    };
    let batch = sizes.len().min(256);

    // The full mailbox protocol with both ends on one rank, allocating the
    // payload per message as the boundary exchange does.
    let mut next = 0usize;
    let loop_s = repeat_timed(tr, "probe.comm.loopback", || {
        let mut c = Communicator::new(1);
        let mut rec = Recorder::new();
        c.begin_cycle(0);
        time_s(|| {
            for k in 0..batch {
                let len = sizes[(next + k) % sizes.len()];
                let key = BoundaryKey::new(k, k, 0);
                c.start_receive(key);
                let meta = SendMeta {
                    src: 0,
                    dst: 0,
                    cells: len as u64,
                };
                c.send(
                    key,
                    vec![0.0; len],
                    meta,
                    StepFunction::SendBoundBufs,
                    &mut rec,
                );
                while !c.poll_ready(key, &mut rec) {}
                black_box(c.try_receive(key, &mut rec));
            }
            next += batch;
        })
    });
    m.set("comm.loopback_msg_ns", loop_s * NS / batch as f64);

    // Ping-pong over the channel transport: rank 0 sends and waits for the
    // echo; a round trip is two messages.
    let rounds = 2000;
    let sizes_ref = &sizes;
    let rtt_s = two_rank(tr, "probe.comm.channel", rounds, move |c, rec, k| {
        let len = sizes_ref[k % sizes_ref.len()];
        let (ping, pong) = (BoundaryKey::new(k, k, 0), BoundaryKey::new(k, k, 1));
        let me = c.rank();
        let (mine, theirs) = if me == 0 { (ping, pong) } else { (pong, ping) };
        c.start_receive(theirs);
        let send = |c: &mut Communicator, rec: &mut Recorder| {
            let meta = SendMeta {
                src: me,
                dst: 1 - me,
                cells: len as u64,
            };
            c.send(mine, vec![0.0; len], meta, StepFunction::SendBoundBufs, rec);
        };
        if me == 0 {
            send(c, rec);
        }
        while c.try_receive(theirs, rec).is_none() {
            std::hint::spin_loop();
        }
        if me == 1 {
            send(c, rec);
        }
        if k % 256 == 255 {
            c.take_events();
        }
    });
    m.set("comm.channel_msg_us", rtt_s * US / 2.0);

    let reduce_s = two_rank(tr, "probe.comm.allreduce", 2000, |c, rec, _| {
        let parts = c.all_reduce_data(
            StepFunction::EstimateTimeStep,
            1.0f64.to_le_bytes().to_vec(),
            8,
            rec,
        );
        black_box(parts);
    });
    m.set("comm.allreduce_us", reduce_s * US);
    let gather_s = two_rank(tr, "probe.comm.allgather", 2000, move |c, rec, _| {
        // One refinement flag byte per owned block.
        let parts = c.all_gather_data(
            StepFunction::UpdateMeshBlockTree,
            vec![0u8; blocks.div_ceil(2)],
            rec,
        );
        black_box(parts);
    });
    m.set("comm.allgather_us", gather_s * US);

    let keys: Vec<BoundaryKey> = (0..buffers)
        .map(|i| BoundaryKey::new(i, i + 1, 0))
        .collect();
    let cache_s = repeat_timed(tr, "probe.comm.cache_rebuild", || {
        let mut cache = BufferCache::new();
        let mut rec = Recorder::new();
        let keys = keys.clone();
        time_s(|| {
            cache.initialize(keys, &CacheConfig::default(), &mut rec);
            cache.rebuild(buffers as u64, buffers as u64 * 64, &mut rec);
        })
    });
    m.set("comm.cache_rebuild_us", cache_s * US);
}

// ---------------------------------------------------------------------------
// exec, burgers
// ---------------------------------------------------------------------------

pub fn exec(m: &mut Metrics, blocks: usize, tr: &mut Tracer) {
    let ctx = ExecCtx::new(2);
    let s = repeat_timed(tr, "probe.exec.dispatch", || {
        time_s(|| {
            ctx.for_each_index(blocks, |i| {
                black_box(i);
            })
        })
    });
    m.set("exec.dispatch_us", s * US);
}

const ROW: usize = 1024;
const COMPONENTS: usize = 7;
const LANES: usize = 4;

/// WENO5 + HLL over a 1024-face row of 7 components (3 velocities + 4
/// scalars), scalar and 4-lane — the inner loop of `CalculateFluxes`.
pub fn burgers(m: &mut Metrics, tr: &mut Tracer) {
    let q: Vec<Vec<f64>> = (0..COMPONENTS)
        .map(|c| {
            (0..ROW + 6)
                .map(|i| 0.3 + 0.5 * ((i as f64) * 0.013 * (c + 1) as f64).sin())
                .collect()
        })
        .collect();

    let scalar_s = repeat_timed(tr, "probe.burgers.flux_scalar", || {
        time_s(|| {
            let mut out = [0.0; COMPONENTS];
            let mut acc = 0.0;
            for i in 0..ROW {
                let mut l = [0.0; COMPONENTS];
                let mut r = [0.0; COMPONENTS];
                for c in 0..COMPONENTS {
                    let w: &[f64; 6] = q[c][i..i + 6].try_into().expect("six cells");
                    (l[c], r[c]) = reconstruct_weno5(w);
                }
                let (ul, ur) = ([l[0], l[1], l[2]], [r[0], r[1], r[2]]);
                hll_flux(&ul, &l[3..], &ur, &r[3..], 0, &mut out);
                acc += out[0];
            }
            black_box(acc)
        })
    });
    m.set(
        "burgers.flux_ns_per_face_scalar",
        scalar_s * NS / ROW as f64,
    );

    let lanes_s = repeat_timed(tr, "probe.burgers.flux_lanes", || {
        time_s(|| {
            let zero = F64Lanes::<LANES>::splat(0.0);
            let mut out = [zero; COMPONENTS];
            let mut acc = zero;
            for i in (0..ROW).step_by(LANES) {
                let mut l = [zero; COMPONENTS];
                let mut r = [zero; COMPONENTS];
                for c in 0..COMPONENTS {
                    let w: [F64Lanes<LANES>; 6] =
                        std::array::from_fn(|k| F64Lanes::load(&q[c][i + k..i + k + LANES]));
                    (l[c], r[c]) = reconstruct_weno5_lanes(&w);
                }
                let (ul, ur) = ([l[0], l[1], l[2]], [r[0], r[1], r[2]]);
                hll_flux_lanes(&ul, &l[3..], &ur, &r[3..], 0, &mut out);
                acc = acc + out[0];
            }
            black_box(acc)
        })
    });
    m.set("burgers.flux_ns_per_face_lanes", lanes_s * NS / ROW as f64);
}

// ---------------------------------------------------------------------------
// physics, core snapshots
// ---------------------------------------------------------------------------

/// Direct 1-rank runs of the `serve-mix` job shape, one per package.
/// Returns the burgers run's (seconds, fingerprint) for the serve and ft
/// probes to compare against.
pub fn physics(m: &mut Metrics, tr: &mut Tracer) -> (f64, u64) {
    let mut burgers = (0.0, 0);
    for name in ["advect", "burgers", "diffusion", "euler"] {
        let cfg = job_config(name, JOB_TOL);
        let s = tr.begin("probe.physics");
        let runs: Vec<(f64, u64, u64)> = (0..3).map(|_| direct_job_run(&cfg, tr)).collect();
        tr.end(s);
        let wall = median(&runs.iter().map(|r| r.0).collect::<Vec<_>>());
        m.set(
            &format!("physics.{name}_ns_per_zone"),
            wall * NS / runs[0].1.max(1) as f64,
        );
        if name == "burgers" {
            burgers = (wall, runs[0].2);
        }
    }
    burgers
}

pub fn snapshot(m: &mut Metrics, p: &Problem, d: &Driver<DynPackage>, tr: &mut Tracer) {
    let mut bytes = Vec::new();
    let encode_s = repeat_timed(tr, "probe.core.snapshot_encode", || {
        bytes.clear();
        time_s(|| {
            d.to_snapshot()
                .write_to(&mut bytes)
                .expect("write to memory")
        })
    });
    m.set("core.snapshot_encode_ms", encode_s * MS);
    m.set("core.snapshot_mib", bytes.len() as f64 / (1 << 20) as f64);
    let decode_s = repeat_timed(tr, "probe.core.snapshot_decode", || {
        time_s(|| read_snapshot(&mut bytes.as_slice()).expect("own snapshot decodes"))
    });
    m.set("core.snapshot_decode_ms", decode_s * MS);
    let snap = read_snapshot(&mut bytes.as_slice()).expect("own snapshot decodes");
    let params = p.driver_params(Geometry::plain(1, 1));
    let restore_s = repeat_timed(tr, "probe.core.restore", || {
        time_s(|| restore_driver(&snap, p.package(), params).expect("own snapshot restores"))
    });
    m.set("core.restore_ms", restore_s * MS);
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

fn http_get(port: u16, path: &str) -> std::io::Result<usize> {
    let mut stream = TcpStream::connect(("127.0.0.1", port))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    Ok(raw.len())
}

/// Probes of the service on an otherwise idle instance. `direct_s` is the
/// direct-driver time of the burgers job the overhead is measured against.
pub fn serve(m: &mut Metrics, direct_s: f64, checks: &mut Checks, tr: &mut Tracer) {
    let wait = Duration::from_secs(60);
    // Shared with the HTTP front end further down.
    let service = Arc::new(Service::start(service_config()));
    // Distinct tolerances make distinct cache keys.
    let fresh: Vec<JobConfig> = (0..16)
        .map(|i| job_config("advect", JOB_TOL * (1.2 + 0.01 * i as f64)))
        .collect();
    let span = tr.begin("probe.serve.submit");
    let mut submit_s = Vec::new();
    let mut ids = Vec::new();
    for cfg in &fresh {
        let mut out = None;
        submit_s.push(time_s(|| out = Some(service.submit("a", cfg.clone()))));
        ids.push(out.expect("submit ran"));
    }
    for id in ids {
        let done = id.and_then(|(id, _, _)| service.wait_done(id, wait).map(|_| ()));
        checks.op(done.is_ok(), || format!("serve probe job failed: {done:?}"));
    }
    tr.end(span);
    m.set("serve.submit_us", median(&submit_s) * US);

    let span = tr.begin("probe.serve.cache_hit");
    let hit_s: Vec<f64> = fresh
        .iter()
        .map(|cfg| {
            let mut cached = false;
            let s =
                time_s(|| cached = matches!(service.submit("b", cfg.clone()), Ok((_, _, true))));
            checks.op(cached, || {
                "serve probe resubmission missed the cache".into()
            });
            s
        })
        .collect();
    tr.end(span);
    m.set("serve.cache_hit_us", median(&hit_s) * US);

    // A lone job on the idle service against the same problem stepped
    // directly: what scheduling, slicing and checkpoints add.
    let span = tr.begin("probe.serve.job_overhead");
    let lone: Vec<f64> = (0..3)
        .map(|i| {
            let cfg = job_config("burgers", JOB_TOL * (1.3 + 0.01 * i as f64));
            time_s(|| {
                let done = service
                    .submit("c", cfg)
                    .and_then(|(id, _, _)| service.wait_done(id, wait).map(|_| ()));
                checks.op(done.is_ok(), || format!("lone job failed: {done:?}"));
            })
        })
        .collect();
    tr.end(span);
    m.set("serve.job_overhead_ms", (median(&lone) - direct_s) * MS);

    let body = job_config("euler", JOB_TOL).to_json().render();
    let parse_s = repeat_timed(tr, "probe.serve.config_parse", || {
        time_s(|| {
            let doc = parse_json(&body).expect("own rendering parses");
            JobConfig::from_json(&doc).expect("own rendering is a valid config")
        })
    });
    m.set("serve.config_parse_us", parse_s * US);

    // Loopback only; a sandbox without sockets reports 0 rather than
    // failing the run (the front end is off every measured path).
    let span = tr.begin("probe.serve.http");
    let http_ms = match Server::start(Arc::clone(&service), 0) {
        Err(_) => 0.0,
        Ok(server) => {
            let port = server.port();
            let rtts: Vec<f64> = (0..50)
                .filter_map(|_| {
                    let t = Instant::now();
                    http_get(port, "/stats")
                        .ok()
                        .map(|_| t.elapsed().as_secs_f64())
                })
                .collect();
            server.shutdown();
            median(&rtts) * MS
        }
    };
    tr.end(span);
    m.set("serve.http_roundtrip_ms", http_ms);
    drop(service);
}

// ---------------------------------------------------------------------------
// ft, hwmodel, sim
// ---------------------------------------------------------------------------

/// `want` is the fault-free fingerprint of the same burgers job.
pub fn ft(m: &mut Metrics, want: u64, checks: &mut Checks, tr: &mut Tracer) {
    let quiet = FaultPlan::new(FaultPlanSpec::default());
    let noisy = FaultPlan::new(FaultPlanSpec {
        seed: 7,
        drop_per_mille: 10,
        delay_per_mille: 20,
        duplicate_per_mille: 10,
        ..FaultPlanSpec::default()
    });
    let decide_s = repeat_timed(tr, "probe.ft.decide", || {
        time_s(|| {
            for uid in 1..=10_000u64 {
                black_box(quiet.decide(0, uid));
                black_box(noisy.decide(1, uid));
            }
        })
    });
    m.set("ft.decide_ns", decide_s * NS / 20_000.0);

    // Kill rank 1 entering cycle 3 of the 8-cycle burgers job; the
    // conductor must recover to the fault-free bits.
    let cfg = job_config("burgers", JOB_TOL);
    let p = Problem::of_job(&cfg);
    let plan = Arc::new(FaultPlan::new(FaultPlanSpec {
        kill: Some(KillSpec { rank: 1, cycle: 3 }),
        ..FaultPlanSpec::default()
    }));
    let opts = ResilienceOptions {
        fault_plan: Some(plan),
        ..ResilienceOptions::default()
    };
    let span = tr.begin("probe.ft.recover");
    let outcome = run_resilient(2, cfg.cycles, opts, move |snap, nranks| {
        let geo = Geometry::plain(nranks, 1);
        match snap {
            None => p.build_untraced(geo),
            Some(s) => restore_driver(s, p.package(), p.driver_params(geo))
                .expect("conductor's own checkpoint restores"),
        }
    });
    let recover_s = tr.end(span);
    m.set("ft.recover_ms", recover_s * MS);
    let got = outcome
        .as_ref()
        .map(|(run, rep)| (run.fingerprint, rep.recoveries));
    checks.op(matches!(got, Ok((fp, r)) if fp == want && r >= 1), || {
        format!("ft.recover: got {got:?}, want fingerprint {want:016x} after >= 1 recovery")
    });
}

/// Modeled-minus-measured share of `CalculateFluxes`, and the cost of one
/// model evaluation of the workload's own recorder.
pub fn hwmodel(
    m: &mut Metrics,
    p: &Problem,
    rec: &Recorder,
    measured_flux_share: f64,
    tr: &mut Tracer,
) {
    let cfg = PlatformConfig::cpu_only(1, p.block);
    let s = repeat_timed(tr, "probe.hwmodel.evaluate", || {
        time_s(|| evaluate(rec, &cfg))
    });
    m.set("hwmodel.evaluate_us", s * US);
    let rep = evaluate(rec, &cfg);
    let modeled = rep
        .per_function
        .iter()
        .find(|f| f.func == StepFunction::CalculateFluxes)
        .map_or(0.0, |f| f.total() / rep.total_s.max(f64::MIN_POSITIVE));
    m.set("hwmodel.flux_share_drift", modeled - measured_flux_share);
}

/// Replays a short recorded run of the burgers job shape (with its message
/// events) through the timeline simulator.
pub fn sim(m: &mut Metrics, tr: &mut Tracer) {
    let p = Problem::of_job(&job_config("burgers", JOB_TOL));
    let s = tr.begin("probe.sim.record");
    let pkg = p.package();
    let mesh = Mesh::new(p.mesh_params(pkg.nghost())).expect("constructible mesh");
    let params = vibe_amr::core::DriverParams {
        capture_comm_events: true,
        ..p.driver_params(Geometry::plain(1, 1))
    };
    let mut d = Driver::new(mesh, pkg, params);
    d.initialize_package();
    d.run_cycles(4);
    tr.end(s);
    let cfg = SimConfig::zero_overlap(1, p.block);
    let workload = SimWorkload::from_recorded(d.recorder(), d.comm_events(), &cfg);
    let mut events = 0usize;
    let sim_s = repeat_timed(tr, "probe.sim.simulate", || {
        time_s(|| {
            let (_, timeline) = simulate(&workload, &cfg).expect("consistent workload");
            events = timeline.spans.len();
        })
    });
    m.set("sim.simulate_ms", sim_s * MS);
    m.set("sim.events", events as f64);
}
