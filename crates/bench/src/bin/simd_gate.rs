//! CI gate for the SIMD flux pipeline: runs the gate workload under every
//! flux backend (scalar oracle, W=4 and W=8 lane sweeps, and the Auto
//! dispatch) across host-thread counts and real rank shards, and fails
//! unless every state fingerprint is bitwise identical to the scalar
//! serial reference.
//!
//! Usage: `simd_gate`.

use vibe_bench::{format_table, run_workload, run_workload_distributed, WorkloadSpec};
use vibe_burgers::FluxBackend;

const THREADS: [usize; 2] = [1, 8];
const RANKS: [usize; 3] = [1, 2, 8];

fn backend_name(b: FluxBackend) -> &'static str {
    match b {
        FluxBackend::Scalar => "scalar",
        FluxBackend::Lanes4 => "lanes4",
        FluxBackend::Lanes8 => "lanes8",
        FluxBackend::Auto => "auto",
    }
}

fn main() {
    // Block 16 exercises both the full-bundle path and the short exterior
    // bands that fall back to the scalar tail.
    let base = WorkloadSpec {
        mesh_cells: 32,
        block_cells: 16,
        levels: 2,
        cycles: 3,
        num_scalars: 4,
        flux_backend: FluxBackend::Scalar,
        ..WorkloadSpec::default()
    };
    let reference = run_workload(&base);
    eprintln!(
        "simd gate: scalar-oracle fingerprint {:016x} ({} final blocks)",
        reference.state_fingerprint, reference.final_blocks
    );

    let backends = [
        FluxBackend::Scalar,
        FluxBackend::Lanes4,
        FluxBackend::Lanes8,
        FluxBackend::Auto,
    ];
    let mut rows = Vec::new();
    let mut failures = 0usize;
    for &backend in &backends {
        for host_threads in THREADS {
            let spec = WorkloadSpec {
                flux_backend: backend,
                host_threads,
                ..base
            };
            let run = run_workload(&spec);
            let ok = run.state_fingerprint == reference.state_fingerprint;
            failures += usize::from(!ok);
            rows.push(vec![
                backend_name(backend).to_string(),
                host_threads.to_string(),
                "1".to_string(),
                format!("{:016x}", run.state_fingerprint),
                if ok { "ok" } else { "MISMATCH" }.to_string(),
            ]);
        }
    }
    // Rank shards run the Auto backend — the default production path.
    for nranks in RANKS {
        let spec = WorkloadSpec {
            flux_backend: FluxBackend::Auto,
            nranks,
            ..base
        };
        let run = run_workload_distributed(&spec);
        let ok = run.fingerprint == reference.state_fingerprint;
        failures += usize::from(!ok);
        rows.push(vec![
            "auto".to_string(),
            "1".to_string(),
            nranks.to_string(),
            format!("{:016x}", run.fingerprint),
            if ok { "ok" } else { "MISMATCH" }.to_string(),
        ]);
    }
    println!(
        "{}",
        format_table(
            &["backend", "threads", "ranks", "fingerprint", "gate"],
            &rows
        )
    );
    if failures > 0 {
        eprintln!("ERROR: {failures} flux-backend run(s) diverged from the scalar oracle");
        std::process::exit(1);
    }
    println!(
        "simd fingerprint gate passed: backends {:?} x threads {THREADS:?}, ranks {RANKS:?}",
        backends.map(backend_name)
    );
}
