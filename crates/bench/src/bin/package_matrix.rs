//! CI gate for the physics-package registry: for EVERY registered
//! package, runs the gate scenario single-process and through `vibe-rt`
//! for each `(ranks, host_threads)` combination, and fails unless
//!
//! 1. every merged distributed fingerprint is bitwise identical to that
//!    package's single-process reference,
//! 2. no two packages share a fingerprint (each physics actually
//!    computes something different), and
//! 3. the probed roster exactly matches `standard_registry()` — a newly
//!    registered package cannot dodge the gate.
//!
//! Usage: `package_matrix`. Its burgers rows are the rank-parallel
//! fingerprint gate of the distributed runtime.

use std::collections::BTreeMap;

use vibe_bench::{format_table, run_workload, run_workload_distributed, WorkloadSpec};

/// The packages this gate probes; checked against the registry roster.
const PACKAGES: &[&str] = &["advect", "burgers", "diffusion", "euler"];
const RANKS: [usize; 4] = [1, 2, 4, 8];
const THREADS: [usize; 2] = [1, 8];

fn main() {
    let registered = vibe_physics::standard_registry().names();
    assert_eq!(
        registered, PACKAGES,
        "package_matrix roster out of date with standard_registry()"
    );

    let mut rows = Vec::new();
    let mut failures = 0usize;
    let mut references: BTreeMap<&str, u64> = BTreeMap::new();
    for &physics in PACKAGES {
        let base = WorkloadSpec {
            physics,
            mesh_cells: 16,
            block_cells: 8,
            levels: 2,
            cycles: 3,
            num_scalars: 1,
            ..WorkloadSpec::default()
        };
        let reference = run_workload(&base);
        eprintln!(
            "package gate: {physics} reference fingerprint {:016x} ({} final blocks)",
            reference.state_fingerprint, reference.final_blocks
        );
        references.insert(physics, reference.state_fingerprint);
        for nranks in RANKS {
            for host_threads in THREADS {
                let spec = WorkloadSpec {
                    nranks,
                    host_threads,
                    ..base
                };
                let run = run_workload_distributed(&spec);
                let ok = run.fingerprint == reference.state_fingerprint;
                failures += usize::from(!ok);
                rows.push(vec![
                    physics.to_string(),
                    nranks.to_string(),
                    host_threads.to_string(),
                    format!("{:.1}", run.elapsed_ns() as f64 / 1e6),
                    format!("{:016x}", run.fingerprint),
                    if ok { "ok" } else { "MISMATCH" }.to_string(),
                ]);
            }
        }
    }
    println!(
        "{}",
        format_table(
            &[
                "physics",
                "ranks",
                "threads",
                "wall(ms)",
                "fingerprint",
                "gate"
            ],
            &rows
        )
    );
    if failures > 0 {
        eprintln!("ERROR: {failures} package run(s) diverged from their single-process reference");
        std::process::exit(1);
    }
    let fps: Vec<(&&str, &u64)> = references.iter().collect();
    for (i, (name_a, fp_a)) in fps.iter().enumerate() {
        for (name_b, fp_b) in &fps[i + 1..] {
            if fp_a == fp_b {
                eprintln!("ERROR: packages {name_a} and {name_b} share fingerprint {fp_a:016x}");
                std::process::exit(1);
            }
        }
    }
    println!(
        "package matrix gate passed for {} packages x ranks {RANKS:?} x threads {THREADS:?}",
        PACKAGES.len()
    );
}
