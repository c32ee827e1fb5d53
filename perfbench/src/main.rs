//! The repository benchmark: one process per workload run, printing
//! every end-to-end metric (or, with `--trace 1`, every per-layer
//! metric) as the last line of standard output.
//!
//! ```text
//! perfbench --workload run_year --seed 1 --seconds 10 --trace 0 \
//!     --gaia target/release/gaia --work target/perfbench-work --commit abc123
//! ```
//!
//! `perfbench/run.py` builds this binary and `gaia` and passes the last
//! three flags; see `perfbench/README.md` for the workloads and metrics.

mod batch;
mod host;
mod serve;
mod span;
mod stats;
mod sweep;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use stats::Tally;

/// End-to-end metrics, measured with tracing off, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("lockstep_rps", "1/s"),
];

/// Per-layer metrics, measured in a separate traced run. A workload
/// reports 0 for a layer it bypasses.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("carbon.synth_s", "s"),
    ("carbon.forecast_warm_s", "s"),
    ("workload.synth_s", "s"),
    ("core.decisions", "count"),
    ("core.policy_s", "s"),
    ("sim.engine_s", "s"),
    ("sim.output_s", "s"),
    ("sim.audit_s", "s"),
    ("sim.audit_checks", "count"),
    ("metrics.summary_s", "s"),
    ("sweep.cells", "count"),
    ("sweep.trace_gen_s", "s"),
    ("sweep.plan_s", "s"),
    ("sweep.event_loop_s", "s"),
    ("sweep.audit_s", "s"),
    ("sweep.trace_cache_hits", "count"),
    ("sweep.trace_cache_misses", "count"),
    ("sweep.store_s", "s"),
    ("sweep.worker_busy_frac", "frac"),
    ("serve.parse_us", "us"),
    ("serve.apply_us.submit", "us"),
    ("serve.apply_us.query", "us"),
    ("serve.apply_us.cancel", "us"),
    ("serve.apply_us.stats", "us"),
    ("serve.encode_us", "us"),
    ("serve.wire_us", "us"),
    ("serve.p99_ms", "ms"),
    ("serve.snapshot_encode_ms", "ms"),
    ("serve.snapshot_bytes", "bytes"),
    ("serve.persist_ms", "ms"),
    ("serve.gen_late_ms", "ms"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_frac", "frac"),
];

/// Largest share of the time the named layers are checked against that
/// they may leave unexplained, either way, before a traced run reports
/// itself incorrect. A sweep cell's work outside the profiler's phases
/// (queue and policy build, job submission, summary, the profiler's own
/// bookkeeping) is about 3.5–4.5% of the traced pass; the batch
/// runs' layers come within about 3.5% of the untraced runs beside
/// them, either way, and the serve replay's calls 1–3.5% short of the
/// untimed replay's wall for the same requests (the loop's glue).
pub const RECONCILE_TOLERANCE: f64 = 0.1;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `gaia` binary the serve workloads spawn.
    pub gaia: PathBuf,
    /// Scratch directory for artifacts, snapshots and spans.
    pub work: PathBuf,
    /// Source revision the binaries were built from.
    pub commit: String,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
            map.insert(flag.as_str(), value.as_str());
        }
        let mut take = |flag: &str| map.remove(flag).ok_or_else(|| format!("missing {flag}"));
        let parsed = Args {
            workload: take("--workload")?.to_owned(),
            seed: take("--seed")?
                .parse()
                .map_err(|_| "--seed must be a whole number".to_owned())?,
            seconds: take("--seconds")?
                .parse()
                .ok()
                .filter(|s: &f64| s.is_finite() && *s > 0.0)
                .ok_or("--seconds must be a positive number")?,
            trace: match take("--trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
            },
            gaia: PathBuf::from(take("--gaia")?),
            work: PathBuf::from(take("--work")?),
            commit: take("--commit")?.to_owned(),
        };
        if let Some(flag) = map.keys().next() {
            return Err(format!("unknown flag {flag}"));
        }
        Ok(parsed)
    }

    /// A file name in the work directory unique to this run.
    pub fn artifact(&self, stem: &str, ext: &str) -> PathBuf {
        self.work.join(format!(
            "{stem}-{}-seed{}-trace{}.{ext}",
            self.workload,
            self.seed,
            u8::from(self.trace)
        ))
    }
}

/// What a workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    /// Output checks that failed, by description.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a failed output check.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Writes a traced run's spans, one JSON line each, to the work directory.
pub fn write_spans(tracer: &span::Tracer, args: &Args) -> Result<(), String> {
    let path = args.artifact("spans", "jsonl");
    let file = std::fs::File::create(&path)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    tracer
        .write_jsonl(std::io::BufWriter::new(file))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let wanted = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in wanted {
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            // A layer the workload bypasses did no work.
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.problems.is_empty() && outcome.tally.failed == 0,
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    if let Err(error) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: cannot create {}: {error}", args.work.display());
        return ExitCode::FAILURE;
    }
    let outcome = match args.workload.as_str() {
        "run_year" => batch::run(&args),
        "sweep_audit" => sweep::run(&args),
        "serve_submit" => serve::run(&args, serve::Mix::SubmitOnly),
        "serve_mixed" => serve::run(&args, serve::Mix::Mixed),
        other => Err(format!(
            "unknown workload {other:?} (run_year | sweep_audit | serve_submit | serve_mixed)"
        )),
    };
    // The noise probe spins a core; run it after the workload so the
    // scheduler does not hold that against the timed set-up.
    let host = format!(
        "{{\"nproc\": {}, \"commit\": \"{}\", \"noise_floor_us\": {:?}}}",
        host::nproc(),
        args.commit,
        host::noise_floor_us()
    );
    println!("{{\"host\": {host}}}");
    let line = outcome.and_then(|outcome| {
        for problem in &outcome.problems {
            eprintln!("perfbench: check failed: {problem}");
        }
        result_line(&outcome, args.trace)
    });
    match line {
        Ok(line) => {
            let record = format!("{{\"host\": {host}, \"result\": {line}}}\n");
            if let Err(error) = std::fs::write(args.artifact("result", "json"), record) {
                eprintln!("perfbench: cannot record the result: {error}");
                return ExitCode::FAILURE;
            }
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaia_obs::json::{self, Value};

    /// The metric lists here are the ones `BENCHMARK.json` declares.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let spec = json::parse(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(Value::Arr(items)) = spec.get(key) else {
                panic!("{key} is not a list")
            };
            items
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Value::as_str).unwrap().to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome::default();
        for &(name, _) in END_TO_END {
            outcome.set(name, 1.5);
        }
        outcome.tally.record(true);
        let line = result_line(&outcome, false).unwrap();
        let value = json::parse(&line).unwrap();
        let Value::Obj(fields) = &value else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(value.get("correct").and_then(Value::as_bool), Some(true));
        // Traced output fills bypassed layers with zero work.
        let traced = json::parse(&result_line(&outcome, true).unwrap()).unwrap();
        let Some(Value::Obj(layers)) = traced.get("metrics") else {
            panic!("no metrics")
        };
        assert_eq!(layers.len(), PER_LAYER.len());
        // A missing end-to-end metric is a benchmark bug, not a zero.
        outcome.metrics.remove("p50_ms");
        assert!(result_line(&outcome, false).is_err());
        // A failed operation makes the run incorrect.
        outcome.set("p50_ms", 2.0);
        outcome.tally.record(false);
        let line = json::parse(&result_line(&outcome, false).unwrap()).unwrap();
        assert_eq!(line.get("correct").and_then(Value::as_bool), Some(false));
        assert_eq!(line.get("failed").and_then(Value::as_u64), Some(1));
    }
}
