//! # vibe-bench
//!
//! The benchmark harness reproducing every figure and table of the paper's
//! evaluation. Each `src/bin/*` binary regenerates one artifact (see
//! DESIGN.md's experiment index); this library provides the shared workload
//! runner and table formatting.
//!
//! The harness runs the *functional* AMR simulation at a laptop-feasible
//! scale (the paper's 96-core/8×H100 node is modeled, not executed — see
//! DESIGN.md), then evaluates the recorded workload against the H100/SPR
//! platform models.

use vibe_comm::CommEvent;
use vibe_core::{CycleSummary, Driver, DriverParams, Package};
use vibe_prof::json::{self, Json};
use vibe_prof::Recorder;
use vibe_serve::{ConfigError, JobConfig};

/// Environment knob `name` parsed as `T`, or `default` when it is unset:
/// how `scripts/ci.sh` shrinks a gate binary's problem to CI scale. A set
/// but malformed value is a typo to report, not to ignore.
pub fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    match std::env::var(name) {
        Ok(v) => v
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("bad {name}={v:?}")),
        Err(_) => default,
    }
}

/// Sets `entries` as top-level keys of the JSON object stored at `path`
/// and keeps every other key, so each binary owns its sections of a shared
/// BENCH document. A missing file starts from `{}`; a file that is not one
/// JSON object is an error, not something to overwrite.
pub fn update_bench_json(path: &str, entries: Vec<(&str, Json)>) -> std::io::Result<()> {
    use std::io::{Error, ErrorKind};
    let invalid = |why: String| Error::new(ErrorKind::InvalidData, format!("{path}: {why}"));
    let mut doc = match std::fs::read_to_string(path) {
        Ok(text) => json::parse(&text).map_err(invalid)?,
        Err(e) if e.kind() == ErrorKind::NotFound => json::obj(Vec::new()),
        Err(e) => return Err(e),
    };
    let Json::Obj(map) = &mut doc else {
        return Err(invalid("not a JSON object".to_string()));
    };
    map.extend(entries.into_iter().map(|(k, v)| (k.to_string(), v)));
    std::fs::write(path, doc.render() + "\n")
}

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

/// Splits the command line of a gate binary into its run description and
/// its other arguments. The description is the argument that is a JSON
/// object, read by [`JobConfig::from_json`] — the whole scenario, not an
/// overlay: absent fields take `JobConfig`'s defaults, an unknown field or
/// an out-of-range value exits nonzero. Without one the binary runs
/// `default`.
pub fn scenario_args(default: JobConfig) -> (JobConfig, Vec<String>) {
    let (specs, rest): (Vec<String>, Vec<String>) = std::env::args()
        .skip(1)
        .partition(|a| a.trim_start().starts_with('{'));
    let parsed = match specs.as_slice() {
        [] => return (default, rest),
        [text] => json::parse(text)
            .map_err(ConfigError::from)
            .and_then(|v| JobConfig::from_json(&v)),
        _ => Err("more than one run description".into()),
    };
    match parsed {
        Ok(cfg) => (cfg, rest),
        Err(e) => {
            eprintln!("bad run description: {e}");
            std::process::exit(2);
        }
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

    /// The cases the deleted text splicers special-cased by hand.
    #[test]
    fn bench_json_is_updated_by_key() {
        let dir = std::env::temp_dir().join(format!("vibe-bench-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH.json");
        let path = path.to_str().unwrap();
        let read = || json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let section = |gate: &str| json::obj(vec![("gate", Json::Str(gate.into()))]);

        // A missing file starts a fresh document.
        update_bench_json(path, vec![("resilience", section("pass"))]).unwrap();
        assert_eq!(read(), json::obj(vec![("resilience", section("pass"))]));
        // A document holding only the stale key: replaced, not doubled.
        update_bench_json(path, vec![("resilience", section("again"))]).unwrap();
        assert_eq!(read(), json::obj(vec![("resilience", section("again"))]));

        // Other keys survive in any layout, including a stale value that
        // spans several lines and a key that merely starts like ours.
        let layout = "{\n  \"config\": {\"mesh_cells\": 64},\n  \"resilience\":\n  {\n    \"gate\":\n    \"old\"\n  },\n  \"resilience_notes\": [1,\n 2]\n}\n";
        std::fs::write(path, layout).unwrap();
        let runs = Json::Arr(vec![Json::Num(1.0)]);
        let entries = vec![("resilience", section("pass")), ("runs", runs.clone())];
        update_bench_json(path, entries).unwrap();
        let want = json::obj(vec![
            ("config", json::obj(vec![("mesh_cells", Json::Num(64.0))])),
            ("resilience", section("pass")),
            (
                "resilience_notes",
                Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)]),
            ),
            ("runs", runs),
        ]);
        assert_eq!(read(), want);

        // Anything but one JSON object is refused and left untouched.
        for bad in ["[1]", "{\"a\":1,}", ""] {
            std::fs::write(path, bad).unwrap();
            assert!(update_bench_json(path, vec![("resilience", section("pass"))]).is_err());
            assert_eq!(std::fs::read_to_string(path).unwrap(), bad);
        }
        std::fs::remove_dir_all(&dir).unwrap();
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
