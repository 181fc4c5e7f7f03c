//! Fig. 6 — Performance vs. #AMR Levels.
//!
//! Paper: mesh 128, B = 16, L ∈ {1, 2, 3}; scaled mesh 64 with the paper's
//! actual B = 16 (honest per-block kernel-to-serial balance).
//! Also reports the §IV-C quantities: GPU-1R total-time growth and the
//! falling kernel-time fraction with deeper hierarchies.

use vibe_bench::{format_table, paper_workload, run_workload, sci};
use vibe_hwmodel::platform::evaluate;
use vibe_hwmodel::PlatformConfig;
use vibe_serve::JobConfig;

fn main() {
    println!("== Fig. 6: FOM vs #AMR levels (Mesh=64 scaled, B=16) ==\n");
    let mut rows = Vec::new();
    let mut gpu1 = Vec::new();
    for levels in [1usize, 2, 3] {
        let run = |nranks: usize| {
            let cfg = JobConfig {
                mesh_cells: 64,
                block_cells: 16,
                levels,
                cycles: 2,
                nranks,
                ..paper_workload()
            };
            run_workload(&cfg, cfg.driver_params())
        };
        let (run1, run12, run96) = (run(1), run(12), run(96));

        let cpu = evaluate(&run96.recorder, &PlatformConfig::cpu_only(96, 16));
        let g1r1 = evaluate(&run1.recorder, &PlatformConfig::gpu(1, 1, 16));
        let g1b = evaluate(&run12.recorder, &PlatformConfig::gpu(1, 12, 16));

        gpu1.push((levels, g1r1.total_s, g1r1.kernel_fraction(), run1));
        rows.push(vec![
            levels.to_string(),
            gpu1.last().unwrap().3.final_blocks.to_string(),
            sci(cpu.fom),
            sci(g1r1.fom),
            sci(g1b.fom),
            format!("{:.1}%", g1r1.kernel_fraction() * 100.0),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "Levels",
                "Blocks",
                "CPU-96R FOM",
                "GPU1-1R FOM",
                "GPU1-12R FOM",
                "GPU1-1R kernel frac"
            ],
            &rows
        )
    );
    println!("\n§IV-C quantities (paper values in brackets):");
    println!(
        "  GPU-1R total time growth: L2/L1 = {:.2}x [2.1], L3/L1 = {:.2}x [6.0]",
        gpu1[1].1 / gpu1[0].1,
        gpu1[2].1 / gpu1[0].1
    );
    println!(
        "  kernel-time fraction: {:.1}% → {:.1}% → {:.1}%  [31.2 → 23.4 → 17.9]",
        gpu1[0].2 * 100.0,
        gpu1[1].2 * 100.0,
        gpu1[2].2 * 100.0
    );
    println!(
        "  communicated cells growth: L2/L1 = {:.2}x [1.4], L3/L1 = {:.2}x [2.7]",
        gpu1[1].3.cells_communicated() as f64 / gpu1[0].3.cells_communicated() as f64,
        gpu1[2].3.cells_communicated() as f64 / gpu1[0].3.cells_communicated() as f64
    );
    println!(
        "  cell updates growth: L2/L1 = {:.2}x [1.2], L3/L1 = {:.2}x [2.0]",
        gpu1[1].3.zone_cycles() as f64 / gpu1[0].3.zone_cycles() as f64,
        gpu1[2].3.zone_cycles() as f64 / gpu1[0].3.zone_cycles() as f64
    );
    println!("\nPaper shape: CPU flat with depth, GPU degrades markedly.");
}
