//! The benchmark's metric registry and its machine-readable outputs:
//! the result line a run prints and the `BENCHMARK.json` manifest.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{is_valid_name, is_valid_unit};

/// Which direction of change is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: name, unit, direction and, for end-to-end metrics, the
/// share of the parent's median by which it may worsen.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Metrics a user of the system sees, printed by every untraced run.
pub const END_TO_END: &[Metric] = &[
    // Set-up gets the largest bound, so work moved into it shows.
    e2e("setup_s", "s", Lower, 0.25),
    e2e("regen_s", "s", Lower, 0.24),
    // Deterministic per seed: any change means the answer changed.
    e2e("t4_speedup", "ratio", Higher, 0.05),
    e2e("wire_qps", "req/s", Higher, 0.24),
    e2e("wire_p50_us", "us", Lower, 0.24),
    e2e("wire_p99_us", "us", Lower, 0.24),
    e2e("peak_rss_mb", "MiB", Lower, 0.20),
];

/// Metrics of single layers, printed by every traced run. Which
/// end-to-end metric each should move, and on which workload, is
/// tabulated in the benchmark's README.
pub const PER_LAYER: &[Metric] = &[
    layer("simnet.run_s", "s", Lower),
    layer("simnet.events", "count", Lower),
    layer("simnet.events_per_s", "1/s", Higher),
    layer("simnet.max_run_s", "s", Lower),
    layer("collectives.build_s", "s", Lower),
    layer("repro.summarize_s", "s", Lower),
    layer("repro.reps", "count", Lower),
    layer("campaign.cells_per_s", "1/s", Higher),
    layer("store.bytes", "bytes", Lower),
    layer("store.load_s", "s", Lower),
    layer("core.train_s.knn", "s", Lower),
    layer("core.train_s.gam", "s", Lower),
    layer("core.train_s.xgboost", "s", Lower),
    layer("core.evaluate_s", "s", Lower),
    layer("core.eval_skipped", "count", Lower),
    layer("artifact.bytes", "bytes", Lower),
    layer("artifact.decode_s", "s", Lower),
    layer("core.select_us", "us", Lower),
    layer("ml.select_batch_rows_per_s", "1/s", Higher),
    layer("serve.select_us", "us", Lower),
    layer("serve.hit_ratio", "ratio", Higher),
    layer("batch.query_us", "us", Lower),
    layer("net.overhead_us", "us", Lower),
    layer("net.requests", "count", Higher),
    layer("net.shed", "count", Lower),
    layer("net.errors", "count", Lower),
    layer("trace_overhead_pct", "%", Lower),
];

/// The benchmark's command, relative to the repository root; the
/// caller appends `--workload`, `--seed`, `--seconds` and `--trace`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// Directories that hold the benchmark.
pub const PATHS: &[&str] = &["perfbench"];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 50;

/// Metric values gathered by a run, with its operation accounting.
#[derive(Default)]
pub struct Outcome {
    pub values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The result line: the end-to-end metrics, or with `traced` the
    /// per-layer ones, each finite. A metric that is missing, unknown or
    /// not finite is a bug in the benchmark and fails the run.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let registry = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, m) in registry.iter().enumerate() {
            let v = self
                .values
                .get(m.name)
                .ok_or_else(|| format!("metric {} not measured", m.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is {v}", m.name));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        let known = |k: &str| END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == k);
        if let Some(extra) = self.values.keys().find(|k| !known(k)) {
            return Err(format!("metric {extra} is not in the registry"));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed
        ))
    }
}

/// Render `BENCHMARK.json` from the registry and the workload table.
pub fn manifest(workloads: &[(&str, &str)]) -> String {
    let list = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let rows = |metrics: &[Metric]| {
        metrics
            .iter()
            .map(|m| match m.bound {
                Some(b) => format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {b}}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                ),
                None => format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                ),
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let workloads = workloads
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        list(COMMAND),
        list(PATHS),
        rows(END_TO_END),
        rows(PER_LAYER),
    )
}

/// Registry invariants the manifest's consumers rely on.
pub fn check_registry(workloads: &[(&str, &str)]) -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    let names = workloads
        .iter()
        .map(|w| w.0)
        .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
    for name in names {
        if !is_valid_name(name) || !seen.insert(name) {
            return Err(format!("bad or repeated name {name:?}"));
        }
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        if !is_valid_unit(m.unit) {
            return Err(format!("bad unit {:?} of {}", m.unit, m.name));
        }
    }
    for (name, why) in workloads {
        if why.is_empty() || why.len() > 200 || why.contains(['\n', '"']) {
            return Err(format!(
                "workload {name}: the why must be one line of at most 200 characters"
            ));
        }
    }
    if !END_TO_END
        .iter()
        .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25))
    {
        return Err("every end-to-end bound must lie in (0, 0.25]".to_string());
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
    let largest = END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    match setup {
        Some(m) if m.unit == "s" && m.better == Lower && m.bound == Some(largest) => Ok(()),
        _ => Err("setup_s must be in seconds, lower-better, with the largest bound".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcp_obs::json::{parse, JsonValue};

    fn names(doc: &JsonValue, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(JsonValue::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|m| {
                m.get("name")
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
            })
            .collect()
    }

    #[test]
    fn committed_manifest_is_the_registry() {
        let committed = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let rendered = parse(&manifest(&crate::workload_table())).expect("manifest parses");
        assert_eq!(
            committed, rendered,
            "regenerate BENCHMARK.json with the manifest subcommand"
        );
        check_registry(&crate::workload_table()).unwrap();
    }

    fn full(registry: &[Metric]) -> Outcome {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        for (i, m) in registry.iter().enumerate() {
            o.set(m.name, 1.0 + i as f64 / 3.0);
        }
        o
    }

    #[test]
    fn every_manifest_metric_is_emitted_in_its_mode() {
        let committed = parse(include_str!("../../BENCHMARK.json")).unwrap();
        for (traced, key, registry) in [
            (false, "end_to_end", END_TO_END),
            (true, "per_layer", PER_LAYER),
        ] {
            let line = parse(&full(registry).result_line(traced).unwrap()).unwrap();
            let Some(JsonValue::Obj(emitted)) = line.get("metrics") else {
                panic!("no metrics")
            };
            let mut want = names(&committed, key);
            want.sort();
            assert_eq!(emitted.keys().cloned().collect::<Vec<_>>(), want);
            assert_eq!(line.get("correct"), Some(&JsonValue::Bool(true)));
            assert_eq!(
                line.get("attempted").and_then(JsonValue::as_f64),
                Some(10.0)
            );
        }
    }

    #[test]
    fn missing_unknown_or_non_finite_metrics_fail_the_run() {
        let mut o = full(END_TO_END);
        o.values.remove("wire_qps");
        assert!(o.result_line(false).is_err());
        let mut o = full(END_TO_END);
        o.set("wire_qps", f64::NAN);
        assert!(o.result_line(false).is_err());
        let mut o = full(END_TO_END);
        o.values.insert("bogus", 1.0);
        assert!(o.result_line(false).is_err());
        let mut o = full(END_TO_END);
        o.failures.push("x".into());
        assert!(o
            .result_line(false)
            .unwrap()
            .starts_with("{\"correct\": false"));
    }
}
