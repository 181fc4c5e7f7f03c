//! The names the benchmark emits — workloads, end-to-end metrics and
//! per-layer metrics with their units — and the check that they agree
//! with `BENCHMARK.json`, which fixes direction and bound.

use std::collections::BTreeSet;

use vibe_amr::serve::json::{parse, Json};

use crate::util::{json_num, json_str};

pub const WORKLOADS: [&str; 4] = ["b16-serial", "b8-deep-t2", "b16-r2", "serve-mix"];

/// (name, unit). An *operation* (`op`) is one timed cycle on the AMR
/// workloads and one cache-miss job on `serve-mix`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("fom_zc_per_s", "zc/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
];

/// (name, unit), grouped by layer (= crate). README.md says for each entry
/// whether it is a probe timed from this directory, an exact count, or a
/// number the program reports about itself, and which end-to-end metric it
/// should move on which workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mesh.new_ms", "ms"),
    ("mesh.regrid_ms", "ms"),
    ("mesh.load_balance_us", "us"),
    ("mesh.blocks", "count"),
    ("mesh.neighbors_total", "count"),
    ("field.pack_same_ns_per_cell", "ns/cell"),
    ("field.pack_restrict_ns_per_cell", "ns/cell"),
    ("field.unpack_same_ns_per_cell", "ns/cell"),
    ("field.unpack_prolong_ns_per_cell", "ns/cell"),
    ("field.buffer_spec_ns", "ns"),
    ("field.ghost_cells_per_cycle", "count"),
    ("field.computed_bytes_per_cycle", "B"),
    ("comm.loopback_msg_ns", "ns"),
    ("comm.channel_msg_us", "us"),
    ("comm.allreduce_us", "us"),
    ("comm.allgather_us", "us"),
    ("comm.cache_rebuild_us", "us"),
    ("comm.msgs_per_cycle", "count"),
    ("comm.bytes_per_cycle", "B"),
    ("exec.dispatch_us", "us"),
    ("exec.pool_utilization", "frac"),
    ("exec.load_imbalance", "ratio"),
    ("exec.thread_eff_t2", "frac"),
    ("burgers.flux_ns_per_face_scalar", "ns"),
    ("burgers.flux_ns_per_face_lanes", "ns"),
    ("burgers.faces_per_cycle", "count"),
    ("burgers.vector_share", "frac"),
    ("burgers.flux_ns_per_zone", "ns"),
    ("physics.advect_ns_per_zone", "ns"),
    ("physics.burgers_ns_per_zone", "ns"),
    ("physics.diffusion_ns_per_zone", "ns"),
    ("physics.euler_ns_per_zone", "ns"),
    ("core.initialize_ms", "ms"),
    ("core.first_cycle_ms", "ms"),
    ("core.cycle_ms_p50", "ms"),
    ("core.cycle_ms_max", "ms"),
    ("core.step.CalculateFluxes_frac", "frac"),
    ("core.step.FluxDivergence_frac", "frac"),
    ("core.step.FluxCorrection_frac", "frac"),
    ("core.step.SendBoundBufs_frac", "frac"),
    ("core.step.SetBounds_frac", "frac"),
    ("core.step.ReceiveBoundBufs_frac", "frac"),
    ("core.step.UpdateMeshBlockTree_frac", "frac"),
    ("core.step.RefinementTag_frac", "frac"),
    ("core.step.other_frac", "frac"),
    ("core.overlap_frac", "frac"),
    ("core.snapshot_encode_ms", "ms"),
    ("core.snapshot_decode_ms", "ms"),
    ("core.snapshot_mib", "MiB"),
    ("core.restore_ms", "ms"),
    ("rt.session_start_ms", "ms"),
    ("rt.checkpoint_ms", "ms"),
    ("rt.finish_ms", "ms"),
    ("rt.rank_wall_skew_frac", "frac"),
    ("rt.scaling_eff_r2", "frac"),
    ("rt.attr.compute_frac", "frac"),
    ("rt.attr.pack_serialization_frac", "frac"),
    ("rt.attr.late_sender_frac", "frac"),
    ("rt.attr.collective_imbalance_frac", "frac"),
    ("rt.attr.migration_stall_frac", "frac"),
    ("rt.attr.idle_frac", "frac"),
    ("serve.submit_us", "us"),
    ("serve.cache_hit_us", "us"),
    ("serve.job_overhead_ms", "ms"),
    ("serve.cache_hit_rate", "frac"),
    ("serve.slices_per_job", "count"),
    ("serve.fairness_ratio", "ratio"),
    ("serve.config_parse_us", "us"),
    ("serve.http_roundtrip_ms", "ms"),
    ("ft.decide_ns", "ns"),
    ("ft.recover_ms", "ms"),
    ("prof.traced_overhead_frac", "frac"),
    ("prof.export_ms", "ms"),
    ("prof.trace_mib", "MiB"),
    ("hwmodel.evaluate_us", "us"),
    ("hwmodel.flux_share_drift", "frac"),
    ("sim.simulate_ms", "ms"),
    ("sim.events", "count"),
    ("bench.calib_ms", "ms"),
    ("bench.calib_drift_frac", "frac"),
];

/// The metrics of one run: every name of the table must be set exactly
/// through [`Metrics::set`] before the result line is printed.
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Self {
            table,
            values: vec![None; table.len()],
        }
    }

    /// # Panics
    /// On a name that is not in the table — a typo in the harness.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the benchmark's table"));
        self.values[i] = Some(value);
    }

    pub fn missing(&self) -> Vec<&'static str> {
        self.table
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| v.is_none())
            .map(|((n, _), _)| *n)
            .collect()
    }

    pub fn non_finite(&self) -> Vec<&'static str> {
        self.table
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| v.is_some_and(|x| !x.is_finite()))
            .map(|((n, _), _)| *n)
            .collect()
    }

    pub fn rows(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.table
            .iter()
            .zip(&self.values)
            .filter_map(|((n, u), v)| v.map(|x| (*n, *u, x)))
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .rows()
            .map(|(n, u, v)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(n),
                    json_num(v),
                    json_str(u)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// One end-to-end metric as `BENCHMARK.json` fixes it.
#[derive(Debug, Clone)]
pub struct Gate {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// What the harness needs from `BENCHMARK.json`.
pub struct BenchmarkFile {
    pub gates: Vec<Gate>,
    pub run_seconds: f64,
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn named_list<'a>(doc: &'a Json, key: &str) -> Result<Vec<&'a Json>, String> {
    match doc.get(key) {
        Some(Json::Arr(items)) => Ok(items.iter().collect()),
        _ => Err(format!("BENCHMARK.json: `{key}` is not an array")),
    }
}

fn str_field<'a>(item: &'a Json, key: &str) -> Result<&'a str, String> {
    item.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("BENCHMARK.json: entry without a string `{key}`"))
}

/// Compares the file's (name, unit) pairs under `key` with `table`, both
/// ways.
fn same_names(doc: &Json, key: &str, table: &[(&str, &str)]) -> Result<(), String> {
    let mut seen = BTreeSet::new();
    for item in named_list(doc, key)? {
        let name = str_field(item, "name")?;
        if !valid_name(name) {
            return Err(format!("{key}: `{name}` is not a valid metric name"));
        }
        if !seen.insert(name.to_string()) {
            return Err(format!("{key}: `{name}` is listed twice"));
        }
        match table.iter().find(|(n, _)| *n == name) {
            None => {
                return Err(format!(
                    "{key}: `{name}` is in BENCHMARK.json but never emitted"
                ))
            }
            Some((_, unit)) if key != "workloads" && *unit != str_field(item, "unit")? => {
                return Err(format!(
                    "{key}: `{name}` is emitted in `{unit}`, not the file's unit"
                ))
            }
            Some(_) => {}
        }
    }
    for (name, _) in table {
        if !valid_name(name) {
            return Err(format!("{key}: emitted name `{name}` is not valid"));
        }
        if !seen.contains(*name) {
            return Err(format!(
                "{key}: `{name}` is emitted but not in BENCHMARK.json"
            ));
        }
    }
    Ok(())
}

/// Reads `BENCHMARK.json` from the current directory (the root of the
/// checkout) and checks that every name in it is emitted and vice versa,
/// with the same unit, unique and well-formed.
pub fn load_and_check() -> Result<BenchmarkFile, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the current directory: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let workloads: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (*w, "")).collect();
    same_names(&doc, "workloads", &workloads)?;
    same_names(&doc, "end_to_end", END_TO_END)?;
    same_names(&doc, "per_layer", PER_LAYER)?;
    let all: BTreeSet<&str> = WORKLOADS
        .iter()
        .copied()
        .chain(END_TO_END.iter().map(|(n, _)| *n))
        .chain(PER_LAYER.iter().map(|(n, _)| *n))
        .collect();
    if all.len() != WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len() {
        return Err("a name is used twice across workloads and metrics".into());
    }
    let mut gates = Vec::new();
    for item in named_list(&doc, "end_to_end")? {
        let better = str_field(item, "better")?;
        let bound = item
            .get("bound")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json: end_to_end entry without a numeric `bound`")?;
        gates.push(Gate {
            name: str_field(item, "name")?.to_string(),
            higher_is_better: better == "higher",
            bound,
        });
    }
    let run_seconds = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or("BENCHMARK.json: no numeric `run_seconds`")?;
    Ok(BenchmarkFile { gates, run_seconds })
}
