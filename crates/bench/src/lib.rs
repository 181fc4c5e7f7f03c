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

use vibe_burgers::{BurgersPackage, BurgersParams, FluxBackend};
use vibe_comm::CommEvent;
use vibe_core::{CycleSummary, Driver, DriverParams, DynPackage, Package, PackageSpec};
use vibe_field::PackStrategy;
use vibe_mesh::{Mesh, MeshParams};
use vibe_prof::json::{self, Json};
use vibe_prof::{ProfLevel, Recorder};

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

/// One functional-simulation configuration (the paper's workload axes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Physics package name, resolved against
    /// [`vibe_physics::standard_registry`] (`&'static` so the spec stays
    /// `Copy`; every registry name is a literal anyway).
    pub physics: &'static str,
    /// Cells per dimension of the base mesh (the paper's "Mesh Size").
    pub mesh_cells: usize,
    /// Cells per dimension of one block ("MeshBlockSize").
    pub block_cells: usize,
    /// AMR levels including the base grid ("#AMR Levels").
    pub levels: u32,
    /// Virtual MPI ranks for the decomposition.
    pub nranks: usize,
    /// Measured cycles (after AMR-adapted initialization).
    pub cycles: u64,
    /// Passive scalars (paper: 8).
    pub num_scalars: usize,
    /// Spatial dimensions (paper: 3).
    pub dim: usize,
    /// Refinement threshold on the first-derivative criterion.
    pub refine_tol: f64,
    /// Variable-lookup strategy.
    pub pack_strategy: PackStrategy,
    /// Host OS threads for per-block parallel stages (1 = exact serial
    /// path; results are bitwise identical at any value).
    pub host_threads: usize,
    /// Wall-clock instrumentation level (never affects results).
    pub prof_level: ProfLevel,
    /// Flux-sweep execution backend (never affects results; see
    /// `simd_gate`).
    pub flux_backend: FluxBackend,
    /// Emit causal task spans + wait probes for cross-rank attribution
    /// (observational only — never affects results; see `scaling_report`).
    pub capture_spans: bool,
    /// Load-balance on measured per-block costs instead of the modeled
    /// estimate (changes ownership only, never the solution).
    pub measured_costs: bool,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        Self {
            physics: "burgers",
            mesh_cells: 32,
            block_cells: 8,
            levels: 3,
            nranks: 1,
            cycles: 3,
            // 4 scalars keep the functional runs laptop-fast; workload
            // *ratios* (comm vs compute) are independent of the component
            // count, and the memory model uses the paper's num_scalar = 8
            // analytically.
            num_scalars: 4,
            dim: 3,
            refine_tol: 0.1,
            pack_strategy: PackStrategy::StringKeyed,
            host_threads: 1,
            prof_level: ProfLevel::Off,
            flux_backend: FluxBackend::default(),
            capture_spans: false,
            measured_costs: false,
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
    /// completion order) — the per-rank streams `vibe-sim` replays.
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

/// Builds the workload's replica driver for `spec` — the deterministic
/// construct-and-initialize sequence shared by [`run_workload`] (which
/// steps it single-process) and [`run_workload_distributed`] (where every
/// rank shard replays it independently).
pub fn build_workload_replica(spec: &WorkloadSpec) -> Driver<DynPackage> {
    let pkg: DynPackage = if spec.physics == "burgers" {
        // Constructed directly rather than through the registry factory so
        // the bench-only `flux_backend` knob survives; identical to the
        // registry's "burgers" package otherwise (and bitwise so, since
        // the backend never changes results).
        Box::new(BurgersPackage::new(BurgersParams {
            num_scalars: spec.num_scalars,
            refine_tol: spec.refine_tol,
            deref_tol: spec.refine_tol * 0.25,
            flux_backend: spec.flux_backend,
            ..BurgersParams::default()
        }))
    } else {
        vibe_physics::resolve(
            &PackageSpec::named(spec.physics)
                .with_num_scalars(spec.num_scalars)
                .with_tols(spec.refine_tol, spec.refine_tol * 0.25),
        )
        .expect("registered workload physics")
    };
    let mesh = Mesh::new(
        MeshParams::builder()
            .dim(spec.dim)
            .mesh_cells(spec.mesh_cells)
            .block_cells(spec.block_cells)
            .max_levels(spec.levels)
            .nghost(pkg.nghost())
            .build()
            .expect("valid workload mesh"),
    )
    .expect("constructible mesh");
    let mut driver = Driver::new(
        mesh,
        pkg,
        DriverParams {
            nranks: spec.nranks,
            cfl: 0.3,
            pack_strategy: spec.pack_strategy,
            host_threads: spec.host_threads,
            prof_level: spec.prof_level,
            capture_spans: spec.capture_spans,
            measured_costs: spec.measured_costs,
            ..DriverParams::default()
        },
    );
    driver.initialize_package();
    driver
}

/// Runs the Burgers benchmark for `spec` with `spec.nranks` *real*
/// concurrent rank shards over the channel transport (the `vibe-rt`
/// runtime), returning the merged run. The fingerprint in the result is
/// bitwise comparable with [`run_workload`]'s.
pub fn run_workload_distributed(spec: &WorkloadSpec) -> vibe_rt::RtRun {
    vibe_rt::run_distributed(spec.nranks, spec.cycles, || build_workload_replica(spec))
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

/// Runs the Burgers benchmark functionally for `spec`, returning the
/// recorded workload.
///
/// The initial condition is a deterministic set of Gaussian blobs whose
/// steepening fronts drive sustained refinement — the "ripples on water"
/// workload the paper describes.
///
/// # Panics
///
/// Panics if the spec's mesh is invalid (indivisible by the block size).
pub fn run_workload(spec: &WorkloadSpec) -> WorkloadResult {
    let mut driver = build_workload_replica(spec);
    let summaries = driver.run_cycles(spec.cycles);
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
        let spec = WorkloadSpec {
            mesh_cells: 16,
            block_cells: 8,
            levels: 2,
            cycles: 2,
            num_scalars: 1,
            ..WorkloadSpec::default()
        };
        let result = run_workload(&spec);
        assert_eq!(result.summaries.len(), 2);
        assert!(result.zone_cycles() > 0);
        assert!(result.cells_communicated() > 0);
        assert!(result.field_bytes > 0);
        assert!(result.final_blocks >= 8);
    }

    #[test]
    fn distributed_workload_matches_single_process_bitwise() {
        let spec = WorkloadSpec {
            mesh_cells: 16,
            block_cells: 8,
            levels: 2,
            cycles: 2,
            num_scalars: 1,
            nranks: 2,
            ..WorkloadSpec::default()
        };
        let single = run_workload(&spec);
        let distributed = run_workload_distributed(&spec);
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
