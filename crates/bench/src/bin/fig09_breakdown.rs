//! Fig. 9 — Execution-time breakdown into Kokkos kernels vs. the serial
//! portion across hardware configurations.
//!
//! Paper: mesh 128, B = 8, L = 3; GPU with 1/6/8/12 ranks and CPU with
//! 16/48/96 ranks. Scaled mesh 32. Two kernel-share estimates are
//! tabulated: the analytic platform model and the discrete-event timeline
//! simulation (GPU rows). The wall-clock-measured share of the
//! data-parallel functions in the functional run on this host goes to
//! stderr, so stdout is byte-stable (`scripts/results.sh --check`).

use std::collections::BTreeMap;

use vibe_bench::{format_table, paper_workload, run_workload};
use vibe_core::DriverParams;
use vibe_hwmodel::platform::evaluate;
use vibe_hwmodel::PlatformConfig;
use vibe_prof::{ProfLevel, StepFunction};
use vibe_serve::JobConfig;
use vibe_sim::{simulate, SimConfig, SimWorkload};

fn main() {
    println!("== Fig. 9: kernel vs serial breakdown (Mesh=32 scaled, B=8, L=3) ==\n");
    let mut rows = Vec::new();
    for (label, ranks, gpu) in [
        ("GPU-1R", 1usize, true),
        ("GPU-6R", 6, true),
        ("GPU-8R", 8, true),
        ("GPU-12R", 12, true),
        ("CPU-16R", 16, false),
        ("CPU-48R", 48, false),
        ("CPU-96R", 96, false),
    ] {
        let job = JobConfig {
            nranks: ranks,
            cycles: 2,
            ..paper_workload()
        };
        let params = DriverParams {
            prof_level: ProfLevel::Coarse,
            capture_comm_events: true,
            ..job.driver_params()
        };
        let run = run_workload(&job, params);
        let cfg = if gpu {
            PlatformConfig::gpu(1, ranks, 8)
        } else {
            PlatformConfig::cpu_only(ranks, 8)
        };
        let rep = evaluate(&run.recorder, &cfg);

        // Simulated kernel share (GPU rows): device-busy over wall from the
        // discrete-event timeline.
        let sim_share = if gpu {
            let scfg = SimConfig::zero_overlap(ranks, 8);
            let w = SimWorkload::from_recorded(&run.recorder, &run.comm_events, &scfg);
            let (sim, _) = simulate(&w, &scfg).expect("consistent workload");
            format!("{:.1}%", sim.device_utilization() * 100.0)
        } else {
            "-".to_string()
        };

        // CPU-measured share: wall-clock time of the functions the model
        // maps to device kernels, as actually measured in the functional
        // run on this host.
        let kernel_funcs: Vec<StepFunction> = rep
            .per_function
            .iter()
            .filter(|f| f.kernel_s > 0.0)
            .map(|f| f.func)
            .collect();
        let measured: BTreeMap<StepFunction, (u64, u64)> = run
            .recorder
            .wall()
            .with_cycles(|cycles| {
                let mut acc: BTreeMap<StepFunction, (u64, u64)> = BTreeMap::new();
                for c in cycles {
                    for (f, (ns, n)) in c.tree.by_step_function() {
                        let e = acc.entry(f).or_insert((0, 0));
                        e.0 += ns;
                        e.1 += n;
                    }
                }
                acc
            })
            .unwrap_or_default();
        let total_ns: u64 = measured.values().map(|v| v.0).sum();
        let kern_ns: u64 = measured
            .iter()
            .filter(|(f, _)| kernel_funcs.contains(f))
            .map(|(_, v)| v.0)
            .sum();
        eprintln!(
            "{label}: kernel share measured on this host {:.1}%",
            kern_ns as f64 / total_ns.max(1) as f64 * 100.0
        );

        rows.push(vec![
            label.to_string(),
            format!("{:.3}", rep.total_s),
            format!("{:.3}", rep.kernel_s),
            format!("{:.3}", rep.serial_s + rep.comm_s),
            format!("{:.1}%", rep.kernel_fraction() * 100.0),
            sim_share,
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "Config",
                "Total (s)",
                "Kernel (s)",
                "Serial (s)",
                "Kern% model",
                "Kern% sim",
            ],
            &rows
        )
    );
    println!("Paper shape: GPU with 1 rank spends almost everything outside the");
    println!("kernels (2659 of 2782 s in the paper's run); adding ranks per GPU");
    println!("shrinks the serial share dramatically. CPU runs are balanced.");
}
