//! Fig. 12 — Per-function split between serial time and GPU-offloadable
//! kernel time across hardware configurations.
//!
//! Paper: mesh 128, B = 8, L = 3; scaled mesh 32. Seconds per function for
//! GPU-1R vs GPU-8R vs CPU-96R, serial vs kernel.

use vibe_bench::{format_table, paper_workload, run_workload};
use vibe_hwmodel::platform::evaluate;
use vibe_hwmodel::PlatformConfig;
use vibe_prof::StepFunction;
use vibe_serve::JobConfig;

fn main() {
    println!("== Fig. 12: per-function serial vs kernel seconds (Mesh=32, B=8, L=3) ==\n");
    let configs: Vec<(&str, usize, bool)> = vec![
        ("GPU-1R", 1, true),
        ("GPU-8R", 8, true),
        ("CPU-96R", 96, false),
    ];
    let mut reports = Vec::new();
    for (label, ranks, gpu) in &configs {
        let cfg = JobConfig {
            mesh_cells: 32,
            block_cells: 8,
            nranks: *ranks,
            cycles: 2,
            ..paper_workload()
        };
        let run = run_workload(&cfg, cfg.driver_params());
        let cfg = if *gpu {
            PlatformConfig::gpu(1, *ranks, 8)
        } else {
            PlatformConfig::cpu_only(*ranks, 8)
        };
        reports.push((label.to_string(), evaluate(&run.recorder, &cfg)));
    }

    let mut rows = Vec::new();
    for func in StepFunction::all() {
        let mut row = vec![func.name().to_string()];
        let mut any = false;
        for (_, rep) in &reports {
            let ft = rep
                .per_function
                .iter()
                .find(|f| f.func == *func)
                .expect("canonical order");
            if ft.total() > 1e-6 {
                any = true;
            }
            row.push(format!("{:.4}", ft.serial_s + ft.comm_s));
            row.push(format!("{:.4}", ft.kernel_s));
        }
        if any {
            rows.push(row);
        }
    }
    let mut headers = vec!["Function".to_string()];
    for (l, _) in &reports {
        headers.push(format!("{l} ser"));
        headers.push(format!("{l} krn"));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    println!("{}", format_table(&header_refs, &rows));
    println!("Paper shape: with a single rank, every function shows a large gap");
    println!("between serial and kernel time — CPU-resident work dominates.");
}
