//! `benchmark all` — every workload in fresh child processes, untraced
//! repeats then one traced repeat each — and `benchmark compare`.
//!
//! A repeat is a child process (this binary re-executed in the driver's
//! one-run form) because a real run is a fresh process: allocator state
//! leaks between in-process repeats, and peak RSS is then per run.
//! Children run one after another; this machine has two cores and every
//! workload uses both or measures one.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use vibe_amr::serve::json::{parse, Json};

use crate::spec::{self, Gate, END_TO_END, PER_LAYER};
use crate::trace::perfetto_document;
use crate::util::{json_num, json_str, median, quartiles};

pub struct Plan {
    pub workloads: Vec<String>,
    pub repeats: usize,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub out: PathBuf,
}

/// The result line of one child run.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn child(plan: &Plan, workload: &str, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&plan.out);
    // Waits for the child and collects its output; stderr passes through.
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run child for {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "child for {workload} exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let doc = parse(line).map_err(|e| format!("child for {workload}: bad result line: {e}"))?;
    let mut metrics = BTreeMap::new();
    if let Some(Json::Obj(map)) = doc.get("metrics") {
        for (name, entry) in map {
            if let Some(v) = entry.get("value").and_then(Json::as_f64) {
                metrics.insert(name.clone(), v);
            }
        }
    }
    Ok(ChildRun {
        correct: doc.get("correct") == Some(&Json::Bool(true)),
        attempted: doc.get("attempted").and_then(Json::as_u64).unwrap_or(0),
        failed: doc.get("failed").and_then(Json::as_u64).unwrap_or(0),
        metrics,
    })
}

/// Runs the plan, prints every metric by name with its unit, writes
/// `results.json` and `trace.json` under `plan.out`. `Ok(false)` when any
/// operation failed or any run was incorrect.
pub fn run_all(plan: &Plan) -> Result<bool, String> {
    std::fs::create_dir_all(&plan.out)
        .map_err(|e| format!("cannot create {}: {e}", plan.out.display()))?;
    let mut all_ok = true;
    let mut sections = Vec::new();
    for w in &plan.workloads {
        println!(
            "== {w}: {} untraced repeat(s) of {} s{}",
            plan.repeats,
            plan.seconds,
            if plan.traced { ", then one traced" } else { "" }
        );
        let mut runs = Vec::new();
        for _ in 0..plan.repeats {
            runs.push(child(plan, w, false)?);
        }
        let (attempted, failed) = runs
            .iter()
            .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed));
        all_ok &= runs.iter().all(|r| r.correct);
        let mut e2e_json = Vec::new();
        for (name, unit) in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.get(*name).copied())
                .collect();
            let (q1, q3) = quartiles(&values);
            println!(
                "  {name:<16} median {:>14.6} {unit:<5} q1 {q1:>14.6} q3 {q3:>14.6} ({} runs)",
                median(&values),
                values.len()
            );
            e2e_json.push(format!(
                "{}: {{\"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"values\": [{}]}}",
                json_str(name),
                json_str(unit),
                json_num(median(&values)),
                json_num(q1),
                json_num(q3),
                values
                    .iter()
                    .map(|v| json_num(*v))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        println!(
            "  failed_frac      {failed} of {attempted} operations = {:.6}",
            failed as f64 / attempted.max(1) as f64
        );
        let mut layer_json = Vec::new();
        if plan.traced {
            let traced = child(plan, w, true)?;
            all_ok &= traced.correct;
            println!("  -- per layer (traced repeat) --");
            for (name, unit) in PER_LAYER {
                let v = traced.metrics.get(*name).copied().unwrap_or(f64::NAN);
                println!("  {name:<36} {v:>16.6} {unit}");
                layer_json.push(format!(
                    "{}: {{\"unit\": {}, \"value\": {}}}",
                    json_str(name),
                    json_str(unit),
                    json_num(v)
                ));
            }
        }
        sections.push(format!(
            "{}: {{\"attempted\": {attempted}, \"failed\": {failed}, \
             \"end_to_end\": {{{}}}, \"per_layer\": {{{}}}}}",
            json_str(w),
            e2e_json.join(", "),
            layer_json.join(", ")
        ));
    }
    let results = format!(
        "{{\"seed\": {}, \"repeats\": {}, \"seconds\": {}, \"workloads\": {{\n{}\n}}}}\n",
        plan.seed,
        plan.repeats,
        json_num(plan.seconds),
        sections.join(",\n")
    );
    let path = plan.out.join("results.json");
    std::fs::write(&path, results).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());

    if plan.traced {
        // Each traced child left `trace-<workload>.json`; their event
        // lines join into one document, one process track per workload.
        let mut lines = Vec::new();
        for w in &plan.workloads {
            let text = std::fs::read_to_string(plan.out.join(format!("trace-{w}.json")))
                .map_err(|e| format!("traced child of {w} left no trace: {e}"))?;
            lines.extend(
                text.lines()
                    .filter(|l| l.starts_with("{\"name\""))
                    .map(|l| l.trim_end_matches(',').to_string()),
            );
        }
        let path = plan.out.join("trace.json");
        std::fs::write(&path, perfetto_document(&lines))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(all_ok)
}

// ---------------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------------

/// The calibration loop reads ±5% from call to call on the reference
/// machine; a move beyond twice that is the machine.
const CALIB_TOLERANCE: f64 = 0.10;

struct Summary {
    median: f64,
    q1: f64,
    q3: f64,
}

impl Summary {
    fn spread(&self) -> f64 {
        (self.q3 - self.q1).abs() / self.median.abs().max(f64::MIN_POSITIVE)
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn summary(doc: &Json, workload: &str, metric: &str) -> Option<Summary> {
    let entry = doc
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    let num = |k: &str| entry.get(k).and_then(Json::as_f64);
    Some(Summary {
        median: num("median")?,
        q1: num("q1")?,
        q3: num("q3")?,
    })
}

fn layer_value(doc: &Json, workload: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get("per_layer")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

fn failed_frac(doc: &Json, workload: &str) -> f64 {
    let count = |k: &str| {
        doc.get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    count("failed") / count("attempted").max(1.0)
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(gate: &Gate, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    if gate.higher_is_better {
        -change
    } else {
        change
    }
}

/// One row per (workload, end-to-end metric): both medians and quartiles,
/// the relative difference, and `ok` / `worse` / `unresolved`. `Ok(false)`
/// on any `worse` row or any rise in `failed_frac`.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let file = spec::load_and_check()?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let Some(Json::Obj(workloads)) = a.get("workloads") else {
        return Err(format!("{a_path}: no `workloads` object"));
    };
    println!(
        "{:<12} {:<14} {:>14} {:>22} {:>14} {:>22} {:>9}  verdict",
        "workload", "metric", "a median", "a q1..q3", "b median", "b q1..q3", "worse by"
    );
    let mut pass = true;
    for w in workloads.keys() {
        // Machine drift between or inside the two sets of runs makes a
        // difference unreadable, whichever way it points.
        let calib = |doc: &Json, m: &str| layer_value(doc, w, m);
        let drifted = [&a, &b]
            .iter()
            .any(|d| calib(d, "bench.calib_drift_frac").is_some_and(|v| v > CALIB_TOLERANCE))
            || match (calib(&a, "bench.calib_ms"), calib(&b, "bench.calib_ms")) {
                (Some(x), Some(y)) => (x - y).abs() / x.max(f64::MIN_POSITIVE) > CALIB_TOLERANCE,
                _ => false,
            };
        for gate in &file.gates {
            let (Some(sa), Some(sb)) = (summary(&a, w, &gate.name), summary(&b, w, &gate.name))
            else {
                println!("{w:<12} {:<14} missing in one file", gate.name);
                pass = false;
                continue;
            };
            let by = worsening(gate, sa.median, sb.median);
            // A spread wider than the bound, or a drifting machine, makes
            // the difference unreadable whichever way it points.
            let verdict = if sa.spread().max(sb.spread()) > gate.bound {
                "unresolved (spread)"
            } else if drifted {
                "unresolved (drift)"
            } else if by > gate.bound {
                pass = false;
                "worse"
            } else {
                "ok"
            };
            println!(
                "{w:<12} {:<14} {:>14.6} {:>10.5}..{:<10.5} {:>14.6} {:>10.5}..{:<10.5} {:>+8.2}%  {verdict}",
                gate.name, sa.median, sa.q1, sa.q3, sb.median, sb.q1, sb.q3, by * 100.0
            );
        }
        let (fa, fb) = (failed_frac(&a, w), failed_frac(&b, w));
        let verdict = if fb > fa { "worse" } else { "ok" };
        pass &= fb <= fa;
        println!(
            "{w:<12} {:<14} {fa:>14.6} {:>22} {fb:>14.6} {:>22} {:>9}  {verdict}",
            "failed_frac", "", "", ""
        );
    }
    Ok(pass)
}
