//! Scattered quantitative claims of §IV, checked against the functional
//! simulation and platform model at the scaled workload size.
//!
//! * §IV-A: mesh 64→128 grows communicated cells 5.9×, cell updates 4.5×
//!   (scaled here: 16→32);
//! * §IV-B: B32→B16 grows communicated cells 2.1×, shrinks updates 5.0×;
//! * §IV-C: kernel-time fraction falls 31.2% → 23.4% → 17.9% with levels;
//! * §IV-E: GPU-1R time is dominated by host serial time.

use vibe_bench::{paper_workload, run_workload, WorkloadResult};
use vibe_hwmodel::platform::evaluate;
use vibe_hwmodel::PlatformConfig;
use vibe_serve::JobConfig;

/// Two serial cycles of the paper's workload on the given mesh.
fn run(mesh_cells: usize, block_cells: usize, levels: usize) -> WorkloadResult {
    let cfg = JobConfig {
        mesh_cells,
        block_cells,
        levels,
        cycles: 2,
        ..paper_workload()
    };
    run_workload(&cfg, cfg.driver_params())
}

fn main() {
    println!("== §IV quantitative claims (scaled workloads) ==\n");

    // §IV-A: static scaling 16 -> 32 (paper 64 -> 128), B=8 scaled (paper 16).
    let small = run(16, 8, 3);
    let large = run(32, 8, 3);
    println!("§IV-A mesh-size doubling (16→32 here, 64→128 in the paper):");
    println!(
        "  communicated cells x{:.2} [5.9], cell updates x{:.2} [4.5]",
        large.cells_communicated() as f64 / small.cells_communicated() as f64,
        large.zone_cycles() as f64 / small.zone_cycles() as f64
    );
    let g_small = evaluate(&small.recorder, &PlatformConfig::gpu(1, 1, 8));
    let g_large = evaluate(&large.recorder, &PlatformConfig::gpu(1, 1, 8));
    println!(
        "  serial time x{:.2} [5.4], kernel time x{:.2} [2.8]\n",
        (g_large.serial_s + g_large.comm_s) / (g_small.serial_s + g_small.comm_s),
        g_large.kernel_s / g_small.kernel_s
    );

    // §IV-B: block size 32 -> 16 at mesh 64 (paper mesh 128).
    let b32 = run(64, 32, 3);
    let b16 = run(64, 16, 3);
    println!("§IV-B block shrink B32→B16 (Mesh=64 here, 128 in the paper):");
    println!(
        "  communicated cells x{:.2} [2.1], cell updates /{:.2} [5.0]",
        b16.cells_communicated() as f64 / b32.cells_communicated() as f64,
        b32.zone_cycles() as f64 / b16.zone_cycles() as f64
    );
    println!(
        "  comm-to-compute ratio x{:.2} [10.9]\n",
        (b16.cells_communicated() as f64 / b16.zone_cycles() as f64)
            / (b32.cells_communicated() as f64 / b32.zone_cycles() as f64)
    );

    // §IV-C: kernel fraction vs AMR levels on GPU-1R.
    print!("§IV-C GPU-1R kernel-time fraction by levels:");
    let mut fracs = Vec::new();
    for levels in [1usize, 2, 3] {
        let run = run(64, 16, levels);
        let rep = evaluate(&run.recorder, &PlatformConfig::gpu(1, 1, 16));
        fracs.push(rep.kernel_fraction() * 100.0);
        print!(" L{levels}={:.1}%", rep.kernel_fraction() * 100.0);
    }
    println!("  [31.2 / 23.4 / 17.9]");
    // At paper scale the fraction falls with depth; at our scaled base grid
    // (4^3 blocks) kernel and serial work grow nearly proportionally, so the
    // fraction stays roughly flat — see EXPERIMENTS.md.
    let _ = &fracs;

    // §IV-E: serial dominance at 1 rank.
    let run = run(32, 8, 3);
    let rep = evaluate(&run.recorder, &PlatformConfig::gpu(1, 1, 8));
    println!(
        "\n§IV-E GPU-1R split: total {:.2}s = serial {:.2}s + kernel {:.2}s",
        rep.total_s,
        rep.serial_s + rep.comm_s,
        rep.kernel_s
    );
    println!(
        "  serial share {:.1}%  [paper: 2659 of 2782 s = 95.6%]",
        (rep.serial_s + rep.comm_s) / rep.total_s * 100.0
    );
}
