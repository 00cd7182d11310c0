//! What one run reports: the metrics of its mode, the operation counts
//! of each phase, and the output checks, printed as a readable table
//! followed by one JSON line.

use zeroer_obs::json::Obj;

/// End-to-end metrics, measured with tracing off, in the order the JSON
/// line lists them. Every workload reports every one of them. Latency
/// percentiles are printed in the table only: on a 2-core machine shared
/// with other tenants, the spread of the `serve-mix` latencies over ten
/// seeds reached 18 to 22 %, too close to any regression bound to gate
/// on, while the closed loops' throughputs spread 6 to 13 %.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("fit_s", "s"),
    ("ingest_rps", "1/s"),
    ("sat_rps", "1/s"),
    ("pair_f1", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run that every workload reports,
/// each with the end-to-end metric it should move and on which
/// workloads. Metrics of a layer only one workload runs (`refit.*` on
/// `dedup`, `serve.*` on `serve-mix`, `fit.legs_s` on `link`) and each
/// phase's `layer_sum_s`/`attributed` are printed in the table only.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("fit.derive_s", "s", "fit_s on all"),
    ("fit.block_s", "s", "fit_s on all"),
    ("fit.featurize_s", "s", "fit_s on all"),
    ("fit.em_s", "s", "fit_s on all"),
    ("fit.cluster_s", "s", "fit_s on all"),
    ("fit.other_s", "s", "fit_s on all"),
    ("fit.em_iters", "count", "fit_s on all"),
    ("fit.em_ms_per_iter", "ms", "fit_s on all"),
    ("fit.candidates", "count", "fit_s on all"),
    ("fit.block_recall", "ratio", "pair_f1 on all"),
    ("fit.pairs_per_true_pair", "ratio", "fit_s on all"),
    (
        "ingest.candidates_per_record",
        "count",
        "ingest_rps, sat_rps on all",
    ),
    ("ingest.match_share", "ratio", "pair_f1 on all"),
    ("ingest.derive_s", "s", "ingest_rps on all"),
    ("ingest.block_s", "s", "ingest_rps on all"),
    ("ingest.score_s", "s", "ingest_rps on all"),
    ("ingest.decide_s", "s", "ingest_rps on all"),
    ("ingest.other_s", "s", "ingest_rps on all"),
    (
        "score.featurize_ns_per_pair",
        "ns",
        "ingest_rps, sat_rps on all",
    ),
    (
        "score.posterior_ns_per_pair",
        "ns",
        "ingest_rps, sat_rps on all",
    ),
    ("serve.resolve_inproc_ms", "ms", "sat_rps on all"),
    (
        "trace.overhead",
        "ratio",
        "none; the traced run against the untraced",
    ),
];
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Everything one run found out.
pub struct Report {
    traced: bool,
    metrics: Vec<Metric>,
    phases: Vec<(String, u64, u64)>,
    checks: Vec<(String, bool)>,
    flags: Vec<String>,
}

impl Report {
    pub fn new(traced: bool) -> Self {
        Report {
            traced,
            metrics: Vec::new(),
            phases: Vec::new(),
            checks: Vec::new(),
            flags: Vec::new(),
        }
    }

    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Records a metric. Names in this run's mode list go to the JSON
    /// line too; every other name is printed only.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records one phase's operation counts.
    pub fn phase(&mut self, name: &str, attempted: u64, failed: u64) {
        self.phases.push((name.to_string(), attempted, failed));
    }

    /// Records an output check; a failed check fails the run.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.checks.push((what.to_string(), ok));
    }

    /// Records a warning that does not fail the run.
    pub fn flag(&mut self, what: String) {
        self.flags.push(what);
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|&(_, ok)| ok)
    }

    /// Prints the readable table and, as the last line, the JSON
    /// object with this mode's metrics.
    ///
    /// # Panics
    /// Panics when a run whose checks passed did not record a metric of
    /// this mode's list as a finite number — a bug in the workload.
    pub fn print(&self, workload: &str) {
        println!(
            "== {workload} ({}) ==",
            if self.traced { "traced" } else { "untraced" }
        );
        for m in &self.metrics {
            println!("metric {:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let (mut attempted, mut failed) = (0u64, 0u64);
        for (name, a, f) in &self.phases {
            println!(
                "phase  {name:<14} attempted {a:>7}  succeeded {:>7}  failed {f}",
                a - f
            );
            attempted += a;
            failed += f;
        }
        let share = failed as f64 / attempted.max(1) as f64;
        println!("metric {:<34} {:>16.6} ratio", "failed_share", share);
        for (what, ok) in &self.checks {
            println!("check  {what}: {}", if *ok { "ok" } else { "FAILED" });
        }
        for f in &self.flags {
            println!("flag   {f}");
        }

        if self.traced {
            for (name, _, moves) in PER_LAYER {
                println!("moves  {name:<34} -> {moves}");
            }
        }
        let list: Vec<(&str, &str)> = if self.traced {
            PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
        } else {
            END_TO_END.to_vec()
        };
        let mut metrics = Obj::new();
        for (name, unit) in list {
            let Some(m) = self.metrics.iter().find(|m| m.name == name) else {
                // A failed check can stop a workload before it measures
                // everything; then there is no result to print.
                assert!(!self.correct(), "{workload} did not measure {name}");
                println!("no result: {name} was not measured");
                return;
            };
            assert!(m.value.is_finite(), "{name} is not a finite number");
            assert_eq!(m.unit, unit, "{name} carries the wrong unit");
            let mut o = Obj::new();
            o.f64("value", m.value).str("unit", unit);
            metrics.raw(name, &o.finish());
        }
        let mut line = Obj::new();
        line.bool("correct", self.correct())
            .u64("attempted", attempted.max(1))
            .u64("failed", failed)
            .raw("metrics", &metrics.finish());
        println!("{}", line.finish());
    }
}

/// The `p`-th percentile (0–100) of ascending `sorted` samples, by
/// linear interpolation between the closest ranks.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Sorts `samples` ascending (NaN-free input) and returns them.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are never NaN"));
    samples
}

/// The median over windows of each window's `p`-th percentile. A stall
/// confined to one window moves it less than it moves the percentile of
/// all samples pooled.
pub fn windowed<'a>(windows: impl IntoIterator<Item = &'a [f64]>, p: f64) -> f64 {
    let each: Vec<f64> = windows
        .into_iter()
        .filter(|w| !w.is_empty())
        .map(|w| percentile(&sorted(w.to_vec()), p))
        .collect();
    median(&each)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 50.0)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Seconds elapsed since `t`.
pub fn secs(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
