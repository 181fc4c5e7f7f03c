//! Fig. 11 — Execution-time breakdown of key timestep-loop functions
//! across hardware configurations (normalized stacked bars in the paper).
//!
//! Paper: mesh 128, B = 8, L = 3; GPU-1/6/8R, CPU-16/48/96R. Scaled mesh 32.

use vibe_bench::{format_table, paper_workload, run_workload};
use vibe_hwmodel::platform::evaluate;
use vibe_hwmodel::PlatformConfig;
use vibe_prof::StepFunction;
use vibe_serve::JobConfig;

fn main() {
    println!("== Fig. 11: per-function time share (Mesh=32 scaled, B=8, L=3) ==\n");
    let configs: Vec<(&str, usize, bool)> = vec![
        ("GPU-1R", 1, true),
        ("GPU-6R", 6, true),
        ("GPU-8R", 8, true),
        ("CPU-16R", 16, false),
        ("CPU-48R", 48, false),
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
            let share = if rep.total_s > 0.0 {
                ft.total() / rep.total_s * 100.0
            } else {
                0.0
            };
            if share > 0.05 {
                any = true;
            }
            row.push(format!("{share:.1}%"));
        }
        if any {
            rows.push(row);
        }
    }
    let mut headers = vec!["Function".to_string()];
    headers.extend(reports.iter().map(|(l, _)| l.clone()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    println!("{}", format_table(&header_refs, &rows));

    let mut totals = vec!["Total (s)".to_string()];
    totals.extend(reports.iter().map(|(_, r)| format!("{:.2}", r.total_s)));
    println!("{}", format_table(&header_refs, &[totals]));
    println!("Paper shape: low-rank GPU runs are dominated by");
    println!("RedistributeAndRefineMeshBlocks, SendBoundBufs, and SetBounds;");
    println!("those shares fall steeply as ranks per GPU grow, while CPU runs");
    println!("are balanced with steady ReceiveBoundBufs/SendBoundBufs shares.");
}
