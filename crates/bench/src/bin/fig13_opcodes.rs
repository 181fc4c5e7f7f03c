//! Fig. 13 — CPU instruction opcode distribution (Total / Serial / Kernel)
//! for block sizes 32 and 16.
//!
//! Paper: mesh 128, L = 3, 16 ranks, MICA/PIN traces; here synthesized by
//! the opcode model from the recorded workload. Scaled mesh 64.

use vibe_bench::{format_table, paper_workload, run_workload};
use vibe_hwmodel::{opcode_mix, OpcodeMix};
use vibe_serve::JobConfig;

fn row(label: &str, m: &OpcodeMix) -> Vec<String> {
    vec![
        label.to_string(),
        format!("{:.1}%", m.vector * 100.0),
        format!("{:.1}%", m.load * 100.0),
        format!("{:.1}%", m.store * 100.0),
        format!("{:.1}%", m.branch * 100.0),
        format!("{:.1}%", m.scalar_arith * 100.0),
        format!("{:.1}%", m.other * 100.0),
        format!("{:.2e}", m.total_instructions),
    ]
}

fn main() {
    println!("== Fig. 13: CPU opcode distribution (Mesh=64 scaled, L=3, 16R) ==\n");
    let headers = [
        "Mix", "Vector", "Load", "Store", "Branch", "ScalarAr", "Other", "Instr",
    ];
    for block in [32usize, 16] {
        let cfg = JobConfig {
            mesh_cells: 64,
            block_cells: block,
            nranks: 16,
            cycles: 2,
            ..paper_workload()
        };
        let run = run_workload(&cfg, cfg.driver_params());
        let (total, serial, kernel) = opcode_mix(run.recorder.totals(), block);
        println!("-- MeshBlockSize = {block} --");
        println!(
            "{}",
            format_table(
                &headers,
                &[
                    row("Total", &total),
                    row("Serial", &serial),
                    row("Kernel", &kernel),
                ]
            )
        );
        println!(
            "Kernel share of all instructions: {:.2}%\n",
            kernel.total_instructions / total.total_instructions * 100.0
        );
    }
    println!("Paper shape: vector opcodes dominate Total and Kernel; kernel");
    println!("instructions are >99% of the total; loads+stores are 39-41% of");
    println!("Serial; the kernel vector share falls from ~63% (B32) to ~52%");
    println!("(B16).");
}
