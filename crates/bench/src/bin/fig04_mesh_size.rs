//! Fig. 4 — Performance vs. Mesh Size (static scaling).
//!
//! Paper: mesh ∈ {64, 96, 128, 160, 192, 256}, B = 16, L = 3; platforms
//! CPU-96R and 1/4/8 GPUs with 1 rank and the best rank count.
//! Scaled: mesh ∈ {16, 24, 32, 48, 64} (¼ linear scale), B = 8 so the
//! blocks-per-dimension ratio of the paper is preserved.

use vibe_bench::{format_table, paper_workload, run_workload, sci};
use vibe_hwmodel::platform::evaluate;
use vibe_hwmodel::PlatformConfig;
use vibe_serve::JobConfig;

fn main() {
    println!("== Fig. 4: FOM vs mesh size (B=8 scaled, L=3) ==\n");
    let mut rows = Vec::new();
    for mesh in [16usize, 24, 32, 48, 64] {
        let run = |nranks: usize| {
            let cfg = JobConfig {
                mesh_cells: mesh,
                cycles: 2,
                nranks,
                ..paper_workload()
            };
            run_workload(&cfg, cfg.driver_params())
        };
        let (run1, run12, run96, run8) = (run(1), run(12), run(96), run(8));

        let cpu = evaluate(&run96.recorder, &PlatformConfig::cpu_only(96, 8));
        let g1r1 = evaluate(&run1.recorder, &PlatformConfig::gpu(1, 1, 8));
        let g1_best = evaluate(&run12.recorder, &PlatformConfig::gpu(1, 12, 8));
        let g4 = evaluate(&run8.recorder, &PlatformConfig::gpu(4, 2, 8));
        let g8 = evaluate(&run8.recorder, &PlatformConfig::gpu(8, 1, 8));

        rows.push(vec![
            mesh.to_string(),
            run12.final_blocks.to_string(),
            sci(cpu.fom),
            sci(g1r1.fom),
            sci(g1_best.fom),
            sci(g4.fom),
            sci(g8.fom),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "Mesh",
                "Blocks",
                "CPU-96R",
                "GPU1-1R",
                "GPU1-BestR",
                "GPU4",
                "GPU8"
            ],
            &rows
        )
    );
    println!("Paper shape: FOM degrades with larger meshes (serial portion grows");
    println!("faster than kernel work), GPUs more sensitive than the CPU; the");
    println!("96-rank CPU improves until enough blocks exist to fill all ranks.");
}
