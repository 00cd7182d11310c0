//! The measured loop of `dedup` and `link`: passes over the tail, each
//! resolving every tail record against the bootstrapped state on the
//! read path and then ingesting the tail one record at a time (a closed
//! loop with one caller). Passes repeat, each on a cold restore of the
//! bootstrap snapshot, until the run's seconds are used up. Each
//! latency percentile is the median over passes of the pass's
//! percentile.

use crate::report::{median, percentile, secs, sorted, windowed, Report};
use std::time::Instant;

/// What one pass over the tail measured.
#[derive(Default)]
pub struct Pass {
    /// Whether the pipeline recorded into its meters during the pass.
    pub traced: bool,
    pub resolve_ms: Vec<f64>,
    pub resolve_wall_s: f64,
    pub ingest_ms: Vec<f64>,
    pub ingest_wall_s: f64,
    /// Resolve replies whose posteriors were all finite.
    pub resolves_ok: usize,
    pub candidates: usize,
    pub matches: usize,
    /// Ingested records that matched at least one existing record.
    pub linked: usize,
    /// Final clusters over corpus ids, canonically sorted.
    pub clusters: Vec<Vec<usize>>,
    /// Σ of the pipeline's derive, block, score and decide meters, and
    /// of its whole-ingest meter, in seconds (traced passes only).
    pub meters: [f64; 5],
}

impl Pass {
    pub fn time_resolve<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.resolve_ms.push(secs(t) * 1e3);
        out
    }

    pub fn time_ingest<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.ingest_ms.push(secs(t) * 1e3);
        out
    }
}

/// Sorts each cluster and the cluster list, so two clusterings compare
/// with `==`.
pub fn canonical(mut clusters: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
    for c in &mut clusters {
        c.sort_unstable();
    }
    clusters.sort();
    clusters
}

/// Runs passes for at least `seconds`: the first on `pipeline`, each
/// later one on `restore(traced)`. A traced run alternates passes with
/// the meters on and off, starting on, and runs at least one of each,
/// so the two compare as the tracing overhead. `prefix` names the
/// pipeline's meters (`stream` or `link`).
pub fn run<P>(
    seconds: f64,
    traced: bool,
    prefix: &str,
    mut pipeline: P,
    restore: impl Fn(bool) -> P,
    pass: impl Fn(&mut P, &mut Pass),
) -> (Vec<Pass>, P) {
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let on = traced && passes.len().is_multiple_of(2);
        if !passes.is_empty() {
            pipeline = restore(on);
        }
        zeroer_obs::reset();
        let mut p = Pass {
            traced: on,
            ..Pass::default()
        };
        pass(&mut pipeline, &mut p);
        if on {
            let sum = |stage: &str| {
                zeroer_obs::histogram(&format!("{prefix}.{stage}.ns"))
                    .snapshot()
                    .sum as f64
                    / 1e9
            };
            p.meters = ["derive", "block", "score", "decide", "ingest"].map(sum);
        }
        passes.push(p);
        if passes.len() > usize::from(traced) && secs(start) >= seconds {
            return (passes, pipeline);
        }
    }
}

/// Reports the pooled latencies, the per-pass layer split, and the
/// checks every pass must pass.
pub fn report(rep: &mut Report, passes: &[Pass]) {
    let pooled = |f: fn(&Pass) -> &Vec<f64>| sorted(passes.iter().flat_map(f).copied().collect());
    let ingest = pooled(|p| &p.ingest_ms);
    let resolve = pooled(|p| &p.resolve_ms);
    let sum = |f: fn(&Pass) -> f64| passes.iter().map(f).sum::<f64>();
    let per_pass = |f: fn(&Pass) -> &[f64], q: f64| windowed(passes.iter().map(f), q);
    rep.metric("passes", passes.len() as f64, "count");
    rep.metric("ingest_p50_ms", per_pass(|p| &p.ingest_ms, 50.0), "ms");
    rep.metric("ingest_p99_ms", per_pass(|p| &p.ingest_ms, 99.0), "ms");
    rep.metric("ingest_p99_pooled_ms", percentile(&ingest, 99.0), "ms");
    rep.metric(
        "ingest_rps",
        ingest.len() as f64 / sum(|p| p.ingest_wall_s),
        "1/s",
    );
    rep.metric("resolve_p50_ms", per_pass(|p| &p.resolve_ms, 50.0), "ms");
    rep.metric("resolve_p99_ms", per_pass(|p| &p.resolve_ms, 99.0), "ms");
    rep.metric("resolve_p99_pooled_ms", percentile(&resolve, 99.0), "ms");
    rep.metric(
        "sat_rps",
        resolve.len() as f64 / sum(|p| p.resolve_wall_s),
        "1/s",
    );
    rep.phase("resolve", resolve.len() as u64, 0);
    rep.phase("ingest", ingest.len() as u64, 0);
    let resolves_ok: usize = passes.iter().map(|p| p.resolves_ok).sum();
    rep.check(
        "every resolve returned finite posteriors",
        resolves_ok == resolve.len(),
    );
    rep.check(
        "every pass (in-process and cold-restored) ends in the same clusters",
        passes.iter().all(|p| p.clusters == passes[0].clusters),
    );

    let first = &passes[0];
    let records = first.ingest_ms.len().max(1) as f64;
    rep.metric(
        "ingest.candidates_per_record",
        first.candidates as f64 / records,
        "count",
    );
    rep.metric(
        "ingest.match_share",
        first.matches as f64 / first.candidates.max(1) as f64,
        "ratio",
    );
    rep.metric(
        "serve.resolve_inproc_ms",
        resolve.iter().sum::<f64>() / resolve.len().max(1) as f64,
        "ms",
    );
    let (on, off): (Vec<&Pass>, Vec<&Pass>) = passes.iter().partition(|p| p.traced);
    if !on.is_empty() {
        let mean =
            |f: &dyn Fn(&Pass) -> f64| on.iter().map(|p| f(p)).sum::<f64>() / on.len() as f64;
        let stages = ["derive", "block", "score", "decide"];
        for (i, stage) in stages.iter().enumerate() {
            rep.metric(&format!("ingest.{stage}_s"), mean(&|p| p.meters[i]), "s");
        }
        let layers = mean(&|p| p.meters[..4].iter().sum::<f64>());
        let wall = mean(&|p| p.ingest_wall_s);
        rep.metric("ingest.layer_sum_s", layers, "s");
        rep.metric("ingest.wall_s", wall, "s");
        rep.metric("ingest.other_s", wall - layers, "s");
        rep.metric("ingest.attributed", layers / wall, "ratio");
        rep.metric("ingest.meter_total_s", mean(&|p| p.meters[4]), "s");
        let walls = |ps: &[&Pass]| {
            median(
                &ps.iter()
                    .map(|p| p.resolve_wall_s + p.ingest_wall_s)
                    .collect::<Vec<_>>(),
            )
        };
        rep.metric("trace.overhead", walls(&on) / walls(&off), "ratio");
    }
}
