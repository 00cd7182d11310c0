//! The traced fit: the public calls `StreamPipeline::bootstrap` (and
//! `refit`) and `LinkPipeline::bootstrap` make, made one at a time from
//! here and timed around each call, plus the two scoring kernels timed
//! on the fit's own candidates against the frozen snapshot.

use crate::report::{secs, Report};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::time::Instant;
use zeroer_blocking::{standard_candidates_derived, PairMode};
use zeroer_core::{
    GenerativeModel, LinkageModel, ModelSnapshot, ScoreBatch, SnapshotScorer,
    TransitivityCalibrator, UnionFind,
};
use zeroer_features::{BatchFeaturizer, DeriveConfig, PairFeaturizer};
use zeroer_stream::{build_linkage_legs, IndexConfig, StreamOptions};
use zeroer_tabular::Table;
use zeroer_textsim::derive::DerivedRecord;
use zeroer_textsim::intern::Interner;

/// Candidate pairs the scoring kernels are timed on, at most.
const SCORE_PAIRS: usize = 60_000;

/// The layer split of one fit, with the fit's output for the
/// bit-identity check against the pipeline's own report.
pub struct FitTrace {
    pub derive_s: f64,
    pub block_s: f64,
    pub featurize_s: f64,
    pub em_s: f64,
    pub cluster_s: f64,
    /// `build_linkage_legs` as one call (`link` only); derive, block and
    /// featurize are then read from the `batch.*` meters inside it.
    pub legs_s: Option<f64>,
    pub em_iters: usize,
    /// Candidate pairs across every leg the fit featurizes.
    pub candidates: usize,
    /// The pairs the fit labels (the cross leg on `link`) and their
    /// posteriors.
    pub pairs: Vec<(usize, usize)>,
    pub gammas: Vec<f64>,
    pub score: ScoreTrace,
}

/// Per-pair cost of the two scoring kernels.
pub struct ScoreTrace {
    pub featurize_ns_per_pair: f64,
    pub posterior_ns_per_pair: f64,
}

fn derive_config(opts: &StreamOptions) -> DeriveConfig {
    IndexConfig {
        attr: opts.blocking_attr,
        qgram: opts.qgram,
        max_bucket: opts.max_bucket,
        min_token_overlap: opts.min_token_overlap,
    }
    .derive_config()
}

/// Unions every pair whose posterior clears the threshold, as the
/// pipelines do when they apply the fit's decisions.
fn cluster(n: usize, pairs: impl Iterator<Item = (usize, usize)>) -> f64 {
    let t = Instant::now();
    let mut uf = UnionFind::new(n);
    for (a, b) in pairs {
        uf.union(a, b);
    }
    black_box(uf.num_sets());
    secs(t)
}

/// The dedup fit of `StreamPipeline::bootstrap` and `refit`, call by call.
pub fn dedup(table: &Table, opts: &StreamOptions) -> FitTrace {
    let t = Instant::now();
    let fz = PairFeaturizer::with_config(table, table, derive_config(opts));
    let derive_s = secs(t);
    let t = Instant::now();
    let cs = standard_candidates_derived(
        fz.left_derived(),
        None,
        PairMode::Dedup,
        opts.min_token_overlap,
        opts.max_bucket,
    );
    let block_s = secs(t);
    let t = Instant::now();
    let mut fs = fz.featurize(cs.pairs());
    fs.normalize();
    let featurize_s = secs(t);
    let t = Instant::now();
    let mut model = GenerativeModel::new(opts.config.clone(), fs.layout.clone());
    let calibrator = TransitivityCalibrator::new(cs.pairs());
    let summary = model.fit(&fs.matrix, Some(&calibrator));
    let em_s = secs(t);
    let pairs = cs.pairs().to_vec();
    let gammas = model.gammas().to_vec();
    let hot = pairs
        .iter()
        .zip(&gammas)
        .filter(|&(_, &g)| g > opts.threshold);
    let cluster_s = cluster(table.len(), hot.map(|(&p, _)| p));

    let ranges = fs.ranges.as_ref().expect("normalize() was called");
    let snapshot = ModelSnapshot::capture(&model, ranges, &fs.impute_means, &fs.names);
    let score = score_kernels(
        &BatchFeaturizer::new(fz.attr_types()),
        &snapshot.scorer().expect("a fresh fit freezes"),
        fz.interner(),
        (fz.left_derived(), fz.left_derived()),
        &pairs,
    );
    FitTrace {
        derive_s,
        block_s,
        featurize_s,
        em_s,
        cluster_s,
        legs_s: None,
        em_iters: summary.iterations,
        candidates: pairs.len(),
        pairs,
        gammas,
        score,
    }
}

/// The three-model linkage fit of `LinkPipeline::bootstrap`, call by
/// call. Resets the metric registry to read the `batch.*` meters.
pub fn link(left: &Table, right: &Table, opts: &StreamOptions) -> FitTrace {
    zeroer_obs::reset();
    let t = Instant::now();
    let prep = build_linkage_legs(
        left,
        right,
        &derive_config(opts),
        opts.min_token_overlap,
        opts.max_bucket,
    );
    let legs_s = secs(t);
    let meter_s = |name: &str| zeroer_obs::histogram(name).snapshot().sum as f64 / 1e9;
    let legs = prep
        .legs
        .expect("cross blocking finds candidates on the corpus");
    let t = Instant::now();
    let (out, fitted) = LinkageModel::new(opts.config.clone()).fit_models(
        &legs.cross.task,
        &legs.left.task,
        &legs.right.task,
    );
    let em_s = secs(t);
    let pairs = legs.cross.task.pairs.clone();
    let gammas = out.cross_gammas;
    let nl = left.len();
    let hot = pairs
        .iter()
        .zip(&gammas)
        .filter(|&(_, &g)| g > opts.threshold);
    let cluster_s = cluster(nl + right.len(), hot.map(|(&(l, r), _)| (l, nl + r)));

    let cross = &legs.cross;
    let snapshot = ModelSnapshot::capture(
        &fitted.cross,
        &cross.ranges,
        &cross.impute_means,
        &cross.names,
    );
    let fz = &prep.cross_fz;
    let score = score_kernels(
        &BatchFeaturizer::new(fz.attr_types()),
        &snapshot.scorer().expect("a fresh fit freezes"),
        fz.interner(),
        (fz.left_derived(), fz.right_derived()),
        &pairs,
    );
    FitTrace {
        derive_s: meter_s("batch.derive.ns"),
        block_s: meter_s("batch.block.ns"),
        featurize_s: meter_s("batch.featurize.ns"),
        em_s,
        cluster_s,
        legs_s: Some(legs_s),
        em_iters: out.summary.iterations,
        candidates: legs.candidates,
        pairs,
        gammas,
        score,
    }
}

/// Times `fill_columns` and `score_batch` (which runs
/// `prepare_columns`) on record-sized batches: each batch is one right
/// record against all its candidates, the shape ingest scores. Every
/// `k`-th record is taken so that at most [`SCORE_PAIRS`] pairs run.
fn score_kernels(
    featurizer: &BatchFeaturizer,
    scorer: &SnapshotScorer,
    interner: &Interner,
    (left, right): (&[DerivedRecord], &[DerivedRecord]),
    pairs: &[(usize, usize)],
) -> ScoreTrace {
    let mut by_right: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for &(l, r) in pairs {
        by_right.entry(r).or_default().push(l);
    }
    let stride = pairs.len().div_ceil(SCORE_PAIRS).max(1);
    let mut batch = ScoreBatch::new();
    let (mut featurize_s, mut posterior_s, mut n) = (0.0, 0.0, 0usize);
    for (r, ls) in by_right.iter().step_by(stride) {
        let t = Instant::now();
        featurizer.fill_columns(
            interner,
            ls.len(),
            |i| (&left[ls[i]], &right[*r]),
            batch.cols_mut(),
        );
        featurize_s += secs(t);
        let t = Instant::now();
        black_box(scorer.score_batch(&mut batch));
        posterior_s += secs(t);
        n += ls.len();
    }
    let per_pair = |s: f64| s * 1e9 / n.max(1) as f64;
    ScoreTrace {
        featurize_ns_per_pair: per_pair(featurize_s),
        posterior_ns_per_pair: per_pair(posterior_s),
    }
}

impl FitTrace {
    /// Whether this fit labelled exactly the pairs a pipeline reported,
    /// with bit-identical posteriors and the same EM iteration count.
    pub fn reproduces(&self, pairs: &[(usize, usize)], gammas: &[f64], em_iters: usize) -> bool {
        self.pairs == pairs
            && self.em_iters == em_iters
            && self.gammas.len() == gammas.len()
            && self
                .gammas
                .iter()
                .zip(gammas)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    fn layer_sum(&self) -> f64 {
        let prepare = self
            .legs_s
            .unwrap_or(self.derive_s + self.block_s + self.featurize_s);
        prepare + self.em_s + self.cluster_s
    }

    /// Reports the split under `phase` (`fit` or `refit`) against the
    /// pipeline call's wall time. `truth` holds the true pairs in the
    /// numbering of [`FitTrace::pairs`], when known.
    pub fn report(
        &self,
        rep: &mut Report,
        phase: &str,
        wall_s: f64,
        truth: Option<&[(usize, usize)]>,
    ) {
        let mut m = |name: &str, v: f64, unit| rep.metric(&format!("{phase}.{name}"), v, unit);
        m("derive_s", self.derive_s, "s");
        m("block_s", self.block_s, "s");
        m("featurize_s", self.featurize_s, "s");
        if let Some(legs) = self.legs_s {
            m("legs_s", legs, "s");
        }
        m("em_s", self.em_s, "s");
        m("cluster_s", self.cluster_s, "s");
        m("em_iters", self.em_iters as f64, "count");
        m(
            "em_ms_per_iter",
            self.em_s * 1e3 / self.em_iters.max(1) as f64,
            "ms",
        );
        m("candidates", self.candidates as f64, "count");
        if let Some(truth) = truth {
            let found: HashSet<&(usize, usize)> = self.pairs.iter().collect();
            let hits = truth.iter().filter(|p| found.contains(p)).count();
            m(
                "block_recall",
                hits as f64 / truth.len().max(1) as f64,
                "ratio",
            );
            m(
                "pairs_per_true_pair",
                self.pairs.len() as f64 / truth.len().max(1) as f64,
                "ratio",
            );
        }
        m("layer_sum_s", self.layer_sum(), "s");
        m("wall_s", wall_s, "s");
        m("other_s", wall_s - self.layer_sum(), "s");
        m("attributed", self.layer_sum() / wall_s, "ratio");
    }

    /// Reports the scoring kernels' per-pair cost.
    pub fn report_score(&self, rep: &mut Report) {
        rep.metric(
            "score.featurize_ns_per_pair",
            self.score.featurize_ns_per_pair,
            "ns",
        );
        rep.metric(
            "score.posterior_ns_per_pair",
            self.score.posterior_ns_per_pair,
            "ns",
        );
    }
}
