//! The one gate binary: `gate <trace|ft|serve|sim|attribution>
//! [job-config-json] [out-dir]`.
//!
//! Each subcommand runs one self-checking scenario (see the module of that
//! name) described by one `JobConfig` JSON object — the whole scenario, not
//! an overlay: absent fields take `JobConfig`'s defaults, an unknown field
//! or an out-of-range value exits 2; without one the scenario's own default
//! runs. Artefacts (traces, JSONL) go to the out-dir, default
//! `target/gate/<name>`. Human tables go to stdout, progress to stderr, and
//! the last stdout line is the verdict, one JSON object
//! `{"checks","facts","failures","gate","pass"}`. Exit 0 on pass, 1 on a
//! failed check, 2 on bad arguments.

mod attribution;
mod ft;
mod serve;
mod sim;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use vibe_prof::json::{self, obj, Json};
use vibe_serve::{ConfigError, JobConfig};

/// What every scenario needs from its harness: where artefacts go, the
/// checks it made, the failures among them and the facts it reports.
pub struct Gate {
    name: String,
    out_dir: PathBuf,
    checks: u64,
    failures: Vec<String>,
    facts: Vec<(&'static str, Json)>,
}

impl Gate {
    fn new(name: String, out_dir: PathBuf) -> Self {
        Self {
            name,
            out_dir,
            checks: 0,
            failures: Vec::new(),
            facts: Vec::new(),
        }
    }

    /// Counts one check and, when it does not hold, records `message` and
    /// prints it to stderr. Returns `ok` so a scenario can stop where going
    /// on would be meaningless.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) -> bool {
        self.checks += 1;
        if !ok {
            let message = message();
            eprintln!("gate {}: FAIL: {message}", self.name);
            self.failures.push(message);
        }
        ok
    }

    /// [`Gate::check`] that a fallible step succeeded; the value on success.
    pub fn ok<T, E: std::fmt::Display>(&mut self, step: Result<T, E>, what: &str) -> Option<T> {
        let error = step.as_ref().err();
        self.check(error.is_none(), || {
            error.map_or_else(String::new, |e| format!("{what}: {e}"))
        });
        step.ok()
    }

    /// Records a fact of the run for the verdict line.
    pub fn fact(&mut self, key: &'static str, value: Json) {
        self.facts.push((key, value));
    }

    /// Writes the artefact `file` into the out-dir (a check like any
    /// other) and says where it went.
    pub fn write(&mut self, file: &str, contents: &str) {
        let path = self.out_dir.join(file);
        let written =
            std::fs::create_dir_all(&self.out_dir).and_then(|()| std::fs::write(&path, contents));
        if self.ok(written, file).is_some() {
            println!("wrote {}", path.display());
        }
    }

    /// The verdict: one compact JSON object.
    fn verdict(&self) -> Json {
        let failures = self.failures.iter().cloned().map(Json::Str).collect();
        obj(vec![
            ("gate", Json::Str(self.name.clone())),
            ("pass", Json::Bool(self.failures.is_empty())),
            ("checks", Json::Num(self.checks as f64)),
            ("failures", Json::Arr(failures)),
            ("facts", obj(self.facts.clone())),
        ])
    }
}

/// Parses `<name> [job-config-json] [out-dir]` and runs that scenario.
/// `Err` is a usage error: nothing ran.
fn run(mut args: impl Iterator<Item = String>) -> Result<Gate, String> {
    let name = args.next().ok_or("missing gate name")?;
    let (default, body): (JobConfig, fn(&JobConfig, &mut Gate)) = match name.as_str() {
        "trace" => (trace::default_job(), trace::run),
        "ft" => (ft::default_job(), ft::run),
        "serve" => (serve::default_job(), serve::run),
        "sim" => (sim::default_job(), sim::run),
        "attribution" => (attribution::default_job(), attribution::run),
        _ => return Err(format!("unknown gate {name:?}")),
    };
    let (specs, rest): (Vec<String>, Vec<String>) =
        args.partition(|a| a.trim_start().starts_with('{'));
    let job = match specs.as_slice() {
        [] => default,
        [text] => json::parse(text)
            .map_err(ConfigError::from)
            .and_then(|v| JobConfig::from_json(&v))
            .map_err(|e| format!("bad run description: {e}"))?,
        _ => return Err("more than one run description".to_string()),
    };
    let out_dir = match rest.as_slice() {
        [] => PathBuf::from("target/gate").join(&name),
        [dir] => PathBuf::from(dir),
        _ => return Err("more than one out-dir".to_string()),
    };
    let mut gate = Gate::new(name, out_dir);
    body(&job, &mut gate);
    Ok(gate)
}

/// Prints the verdict (or the usage error) and maps it to the exit code.
fn finish(outcome: Result<Gate, String>) -> u8 {
    match outcome {
        Ok(gate) => {
            println!("{}", gate.verdict().render());
            u8::from(!gate.failures.is_empty())
        }
        Err(usage) => {
            eprintln!("gate: {usage}");
            eprintln!("usage: gate <trace|ft|serve|sim|attribution> [job-config-json] [out-dir]");
            2
        }
    }
}

fn main() -> ExitCode {
    ExitCode::from(finish(run(std::env::args().skip(1))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_check_fails_the_verdict() {
        let mut gate = Gate::new("trace".to_string(), PathBuf::from("unused"));
        assert!(gate.check(true, || unreachable!("a passing check builds no message")));
        assert!(!gate.check(false, || "fingerprints differ".to_string()));
        assert_eq!(gate.ok(Err::<(), _>("disk full"), "write"), None);
        gate.fact("recoveries", Json::Num(6.0));

        let line = gate.verdict().render();
        let verdict = json::parse(&line).expect("the verdict line is one JSON value");
        assert_eq!(verdict.get("gate"), Some(&Json::Str("trace".into())));
        assert_eq!(verdict.get("pass"), Some(&Json::Bool(false)));
        assert_eq!(verdict.get("checks").and_then(Json::as_u64), Some(3));
        let failures = vec![
            Json::Str("fingerprints differ".into()),
            Json::Str("write: disk full".into()),
        ];
        assert_eq!(verdict.get("failures"), Some(&Json::Arr(failures)));
        assert!(line.contains(r#""facts":{"recoveries":6}"#), "{line}");
        assert_eq!(finish(Ok(gate)), 1);

        let clean = Gate::new("ft".to_string(), PathBuf::from("unused"));
        assert!(clean.verdict().render().contains(r#""pass":true"#));
        assert_eq!(finish(Ok(clean)), 0);
    }

    #[test]
    fn bad_arguments_exit_2_before_anything_runs() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        for bad in [
            args(&[]),
            args(&["nonesuch"]),
            args(&["trace", "{}", "{}"]),
            args(&["trace", r#"{"no_such_field":1}"#]),
            args(&["trace", "a-dir", "another-dir"]),
        ] {
            let outcome = run(bad.clone().into_iter());
            assert!(outcome.is_err(), "{bad:?} must be a usage error");
            assert_eq!(finish(outcome), 2);
        }
    }
}
