//! Fig. 1 — Effect of mesh block size on Parthenon performance.
//!
//! (a) Smaller mesh blocks reduce the number of processed cells;
//! (b) H100 FOM degrades with smaller blocks, matching or lagging a
//!     96-core Sapphire Rapids CPU;
//! (c) H100 utilization drops sharply with smaller mesh blocks.
//!
//! Scaled-down workload (see DESIGN.md): mesh 64³ instead of the paper's
//! 128³; block sizes 8/16/32 as in the paper.

use vibe_bench::{format_table, paper_workload, run_workload, sci};
use vibe_hwmodel::platform::evaluate;
use vibe_hwmodel::PlatformConfig;
use vibe_serve::JobConfig;

fn main() {
    println!("== Fig. 1: mesh block size motivation (scaled: Mesh=64, L=3) ==\n");
    let gpu_ranks = [1usize, 4, 12];
    let mut rows = Vec::new();
    for block in [32usize, 16, 8] {
        let run = |nranks: usize| {
            let cfg = JobConfig {
                mesh_cells: 64,
                block_cells: block,
                cycles: 2,
                nranks,
                ..paper_workload()
            };
            run_workload(&cfg, cfg.driver_params())
        };

        // CPU 96 ranks.
        let cpu_run = run(96);
        let cpu = evaluate(&cpu_run.recorder, &PlatformConfig::cpu_only(96, block));

        // GPU: best rank count among a small sweep.
        let mut best = None::<(usize, vibe_hwmodel::PlatformReport)>;
        for &r in &gpu_ranks {
            let rep = evaluate(&run(r).recorder, &PlatformConfig::gpu(1, r, block));
            if best.as_ref().is_none_or(|(_, b)| rep.fom > b.fom) {
                best = Some((r, rep));
            }
        }
        let (best_r, gpu) = best.expect("sweep non-empty");

        rows.push(vec![
            block.to_string(),
            cpu_run.zone_cycles().to_string(),
            sci(cpu.fom),
            format!("{} (R={best_r})", sci(gpu.fom)),
            format!("{:.1}%", gpu.gpu_utilization * 100.0),
            format!("{:.2}x", gpu.fom / cpu.fom),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "BlockSize",
                "cells (a)",
                "CPU-96 FOM (b)",
                "H100 BestR FOM (b)",
                "GPU util (c)",
                "GPU/CPU"
            ],
            &rows
        )
    );
    println!("Paper shape: (a) cells shrink ~2.9x from B32 to B16; (b) GPU lead");
    println!("collapses toward/below the CPU as blocks shrink; (c) GPU");
    println!("utilization drops sharply with smaller mesh blocks.");
}
