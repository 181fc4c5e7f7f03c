//! Design-choice ablations from §VIII-A and §II-C, end-to-end: each toggle
//! changes the recorded workload, and the platform model quantifies the
//! serial/communication impact on a single-rank GPU configuration (where
//! serial costs matter most).

use vibe_bench::{format_table, paper_workload, run_workload};
use vibe_comm::CacheConfig;
use vibe_core::DriverParams;
use vibe_field::PackStrategy;
use vibe_hwmodel::platform::evaluate;
use vibe_hwmodel::PlatformConfig;
use vibe_prof::StepFunction;
use vibe_serve::JobConfig;

fn main() {
    println!("== Design-choice ablations (Mesh=32, B=8, L=3, GPU 1 rank) ==\n");
    // CFL 0.4, the driver default this table was first recorded at.
    let job = JobConfig {
        cycles: 2,
        cfl: 0.4,
        ..paper_workload()
    };
    let cfg = PlatformConfig::gpu(1, 1, 8);

    let mut rows = Vec::new();
    let cases: [(&str, PackStrategy, bool, bool); 4] = [
        (
            "baseline (Parthenon defaults)",
            PackStrategy::StringKeyed,
            true,
            true,
        ),
        (
            "integer-keyed lookups (§VIII-A)",
            PackStrategy::IntegerCached,
            true,
            true,
        ),
        (
            "no boundary-key sort+shuffle",
            PackStrategy::StringKeyed,
            false,
            true,
        ),
        (
            "no restrict-on-send (§II-C off)",
            PackStrategy::StringKeyed,
            true,
            false,
        ),
    ];
    for (label, pack, sort, restrict) in cases {
        let run = run_workload(
            &job,
            DriverParams {
                pack_strategy: pack,
                cache_config: CacheConfig {
                    sort_and_randomize: sort,
                },
                restrict_on_send: restrict,
                ..job.driver_params()
            },
        );
        let (rec, comm_cells) = (&run.recorder, run.cells_communicated());
        let rep = evaluate(rec, &cfg);
        let lookups: u64 = rec.totals().serial.values().map(|s| s.string_lookups).sum();
        let init_cache = rep
            .per_function
            .iter()
            .find(|f| f.func == StepFunction::InitializeBufferCache)
            .map(|f| f.total())
            .unwrap_or(0.0);
        rows.push(vec![
            label.to_string(),
            format!("{:.4}", rep.total_s),
            format!("{:.4}", rep.serial_s + rep.comm_s),
            format!("{lookups}"),
            format!("{:.4}", init_cache),
            comm_cells.to_string(),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "configuration",
                "total (s)",
                "serial (s)",
                "str lookups",
                "InitBufCache (s)",
                "comm cells"
            ],
            &rows
        )
    );
    println!("Expected: integer lookups remove all string-hash work; disabling");
    println!("the sort+shuffle removes the InitializeBufferCache sorting cost;");
    println!("disabling restrict-on-send inflates fine→coarse communication.");
}
