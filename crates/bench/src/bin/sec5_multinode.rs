//! §V — Multi-node discussion: two-node vs one-node scaling for CPU and
//! GPU platforms, and how block size / AMR depth penalties change across
//! nodes.
//!
//! Paper setup: 2 nodes × (96 SPR cores | 8 H100s), 1 rank/GPU and 1
//! rank/core. Scaled meshes (see DESIGN.md).
//!
//! The final section is *executed*, not modeled: the same workload run by
//! 1→8 real concurrent rank shards through the `vibe-rt` distributed
//! runtime, with the merged fingerprint checked against the single-process
//! run. Its wall time and speedup go to stderr, so stdout is byte-stable
//! (`scripts/results.sh --check`).

use vibe_bench::{format_table, paper_workload, run_workload, run_workload_distributed};
use vibe_hwmodel::platform::evaluate;
use vibe_hwmodel::PlatformConfig;
use vibe_serve::JobConfig;

fn fom(run: &vibe_bench::WorkloadResult, mut cfg: PlatformConfig, nodes: usize) -> f64 {
    cfg.nodes = nodes;
    evaluate(&run.recorder, &cfg).fom
}

/// Two cycles of the paper's workload on the given mesh at `nranks`
/// virtual ranks.
fn run(mesh: usize, block: usize, levels: usize, nranks: usize) -> vibe_bench::WorkloadResult {
    let cfg = JobConfig {
        mesh_cells: mesh,
        block_cells: block,
        levels,
        nranks,
        cycles: 2,
        ..paper_workload()
    };
    run_workload(&cfg, cfg.driver_params())
}

fn main() {
    println!("== §V: multi-node scaling (scaled meshes) ==\n");

    // Two-node speedups at Mesh=32 (paper 128), B=8 and B=16, L=3.
    let mut rows = Vec::new();
    let mut drops = Vec::new();
    for block in [8usize, 16, 32] {
        let mesh = if block == 32 { 64 } else { 32 };
        let cpu_run = run(mesh, block, 3, 96);
        let gpu_run = run(mesh, block, 3, 8);
        let cpu1 = fom(&cpu_run, PlatformConfig::cpu_only(96, block), 1);
        let cpu2 = fom(&cpu_run, PlatformConfig::cpu_only(96, block), 2);
        let gpu1 = fom(&gpu_run, PlatformConfig::gpu(8, 1, block), 1);
        let gpu2 = fom(&gpu_run, PlatformConfig::gpu(8, 1, block), 2);
        drops.push((block, mesh, cpu2, gpu2));
        rows.push(vec![
            format!("M{mesh}/B{block}/L3"),
            format!("{:.2}x", cpu2 / cpu1),
            format!("{:.2}x", gpu2 / gpu1),
        ]);
    }
    println!(
        "{}",
        format_table(&["Config", "CPU 2-node/1-node", "GPU 2-node/1-node"], &rows)
    );
    println!("Paper: CPU 1.63x vs GPU 1.51x at B8; CPU 1.85x vs GPU 0.95x at B16.\n");

    // Block-size drop across two nodes (B32 -> B8).
    let b8 = drops.iter().find(|d| d.0 == 8).unwrap();
    let b32 = drops.iter().find(|d| d.0 == 32).unwrap();
    println!("Two-node FOM drop from B32 to B8 (different scaled meshes noted):");
    println!(
        "  CPU {:.1}x [paper 5.88x], GPU {:.1}x [paper 90.8x]",
        b32.2 / b8.2,
        b32.3 / b8.3
    );

    // AMR-depth drop across two nodes: L1 vs L3 at B16.
    let mut depth = Vec::new();
    for levels in [1usize, 3] {
        let cpu_run = run(64, 16, levels, 96);
        let gpu_run = run(64, 16, levels, 8);
        depth.push((
            fom(&cpu_run, PlatformConfig::cpu_only(96, 16), 2),
            fom(&gpu_run, PlatformConfig::gpu(8, 1, 16), 2),
        ));
    }
    println!("\nTwo-node FOM drop from 1 to 3 AMR levels (Mesh=64, B=16):");
    println!(
        "  CPU {:.2}x [paper 1.22x], GPU {:.2}x [paper 3.92x]",
        depth[0].0 / depth[1].0,
        depth[0].1 / depth[1].1
    );
    println!("\nPaper shape: GPUs scale worse across nodes than CPUs, and the");
    println!("fine-block and deep-AMR penalties are far harsher for GPUs.");

    // Rank-parallel strong scaling: real concurrent shards over the
    // channel transport, one OS thread per rank, serial inside each shard.
    // Wall time is the slowest rank's time advancing its cycles.
    println!("\n== rank-parallel execution (vibe-rt) ==");
    let reference = run(32, 8, 3, 1);
    let mut rows = Vec::new();
    let mut base_wall = 0.0f64;
    let mut all_identical = true;
    for nranks in [1usize, 2, 4, 8] {
        let cfg = JobConfig {
            nranks,
            cycles: 2,
            ..paper_workload()
        };
        let run = run_workload_distributed(&cfg, cfg.driver_params());
        let wall_s = run.elapsed_ns() as f64 / 1e9;
        if nranks == 1 {
            base_wall = wall_s;
        }
        all_identical &= run.fingerprint == reference.state_fingerprint;
        eprintln!(
            "ranks={nranks}: wall {wall_s:.3} s, speedup {:.2}x",
            base_wall / wall_s
        );
        rows.push(vec![
            nranks.to_string(),
            format!("{:?}", run.rank_blocks),
            if run.fingerprint == reference.state_fingerprint {
                "match".to_string()
            } else {
                "DIVERGED".to_string()
            },
        ]);
    }
    println!(
        "{}",
        format_table(&["ranks", "blocks/rank", "fingerprint"], &rows)
    );
    if !all_identical {
        eprintln!("ERROR: a rank-parallel run diverged from the single-process solution");
        std::process::exit(1);
    }
    println!("All merged solutions bitwise-identical to the single-process run.");
}
