//! # vibe-bench
//!
//! The benchmark harness reproducing every figure and table of the paper's
//! evaluation. Each `src/bin/*` figure binary regenerates one artifact (see
//! DESIGN.md's experiment index) and `src/bin/gate` is the one pass/fail
//! harness; this library provides the shared workload runner and table
//! formatting. Nothing here reports a wall-clock number or reads the
//! environment: timing is the repository benchmark's job.
//!
//! The harness runs the *functional* AMR simulation at a laptop-feasible
//! scale (the paper's 96-core/8×H100 node is modeled, not executed — see
//! DESIGN.md), then evaluates the recorded workload against the H100/SPR
//! platform models.

use vibe_comm::CommEvent;
use vibe_core::{CycleSummary, Driver, DriverParams, Package};
use vibe_prof::Recorder;
use vibe_serve::JobConfig;

/// The paper's workload at laptop scale, the base every figure binary
/// varies: 3-D Burgers on Mesh 32 / B8 / L3 for 3 cycles on one rank and
/// one thread. 4 scalars keep the functional runs laptop-fast; workload
/// *ratios* (comm vs compute) are independent of the component count, and
/// the memory model uses the paper's num_scalar = 8 analytically.
pub fn paper_workload() -> JobConfig {
    JobConfig {
        physics: "burgers".to_string(),
        dim: 3,
        mesh_cells: 32,
        block_cells: 8,
        levels: 3,
        cycles: 3,
        num_scalars: 4,
        refine_tol: 0.1,
        deref_gap: 10,
        ..JobConfig::default()
    }
}

/// Output of one workload run.
#[derive(Debug)]
pub struct WorkloadResult {
    /// The recorded workload counters.
    pub recorder: Recorder,
    /// Blocks at the end of the run.
    pub final_blocks: usize,
    /// Live field bytes at the end of the run (Kokkos data allocation).
    pub field_bytes: u64,
    /// Per-cycle summaries.
    pub summaries: Vec<CycleSummary>,
    /// FNV-1a fingerprint of the full final state (see
    /// [`state_fingerprint`]).
    pub state_fingerprint: u64,
    /// The communicator's ordered event log (per-message post/send/
    /// completion order) — the per-rank streams `vibe-sim` replays. Empty
    /// unless the run's `DriverParams` set `capture_comm_events`.
    pub comm_events: Vec<CommEvent>,
}

/// FNV-1a over the raw f64 bits of every variable of every block, in gid
/// and registration order — a deterministic fingerprint of the full
/// simulation state, used to verify that thread count, profiling level,
/// and rank-parallel execution never change results. The algorithm lives
/// in [`vibe_core::fingerprint_slots`], shared with the `vibe-rt` shard
/// merge, so the driver and the distributed runtime hash the same way.
pub fn state_fingerprint<P: Package>(driver: &Driver<P>) -> u64 {
    vibe_core::fingerprint_slots(driver.slots())
}

/// Runs `cfg` with `cfg.nranks` *real* concurrent rank shards over the
/// channel transport (the `vibe-rt` runtime), each replica built under
/// `params`, and returns the merged run. The fingerprint in the result is
/// bitwise comparable with [`run_workload`]'s.
pub fn run_workload_distributed(cfg: &JobConfig, params: DriverParams) -> vibe_rt::RtRun {
    let job = cfg.clone();
    vibe_rt::run_distributed(cfg.nranks, cfg.cycles, move || job.replica(params, None))
}

impl WorkloadResult {
    /// Total interior-cell updates (zone-cycles) over the measured cycles.
    pub fn zone_cycles(&self) -> u64 {
        self.recorder.totals().cell_updates
    }

    /// Total communicated cells over the measured cycles.
    pub fn cells_communicated(&self) -> u64 {
        self.recorder
            .cycles()
            .iter()
            .map(|c| c.cells_communicated())
            .sum()
    }
}

/// Runs `cfg` functionally in one process (all `params.nranks` rank labels
/// played virtually) under `params` — `cfg.driver_params()`, or that with
/// observation or an ablation switched on — and returns the recorded
/// workload.
///
/// # Panics
///
/// Panics if the configuration is invalid (see [`JobConfig::replica`]).
pub fn run_workload(cfg: &JobConfig, params: DriverParams) -> WorkloadResult {
    let mut driver = cfg.replica(params, None);
    let summaries = driver.run_cycles(cfg.cycles);
    WorkloadResult {
        final_blocks: driver.mesh().num_blocks(),
        field_bytes: driver.total_field_bytes() as u64,
        summaries,
        state_fingerprint: state_fingerprint(&driver),
        comm_events: driver.comm_events().to_vec(),
        recorder: driver.into_recorder(),
    }
}

/// Formats a plain-text table with aligned columns.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (c, cell) in row.iter().enumerate().take(ncols) {
            widths[c] = widths[c].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (c, cell) in cells.iter().enumerate().take(ncols) {
            if c > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{:>width$}", cell, width = widths[c]));
        }
        out.push('\n');
    };
    line(
        &mut out,
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// Human-readable engineering notation (e.g. `1.23e6`).
pub fn sci(v: f64) -> String {
    format!("{v:.3e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_workload_runs_and_records() {
        let cfg = JobConfig {
            mesh_cells: 16,
            levels: 2,
            cycles: 2,
            num_scalars: 1,
            ..paper_workload()
        };
        let result = run_workload(&cfg, cfg.driver_params());
        assert_eq!(result.summaries.len(), 2);
        assert!(result.zone_cycles() > 0);
        assert!(result.cells_communicated() > 0);
        assert!(result.field_bytes > 0);
        assert!(result.final_blocks >= 8);
    }

    #[test]
    fn distributed_workload_matches_single_process_bitwise() {
        let cfg = JobConfig {
            mesh_cells: 16,
            levels: 2,
            cycles: 2,
            num_scalars: 1,
            nranks: 2,
            ..paper_workload()
        };
        let single = run_workload(&cfg, cfg.driver_params());
        let params = DriverParams {
            capture_comm_events: true,
            ..cfg.driver_params()
        };
        let distributed = run_workload_distributed(&cfg, params);
        assert_eq!(single.state_fingerprint, distributed.fingerprint);
        assert_eq!(distributed.nranks, 2);
        assert!(distributed.dependency_edges > 0);
    }

    #[test]
    fn table_formatting_aligns() {
        let t = format_table(
            &["A", "Banana"],
            &[
                vec!["1".into(), "2".into()],
                vec!["100".into(), "20000000".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("Banana"));
        assert!(lines[3].ends_with("20000000"));
    }
}
