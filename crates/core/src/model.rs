//! The two-component generative model and its EM algorithm (Algorithm 1).
//!
//! ## The E-step kernel
//!
//! [`GenerativeModel::e_step`] runs on the batched kernels the streaming
//! scorer uses. The rows are cut into fixed chunks of 2,048 rows. Each
//! chunk is transposed into a reused column-major [`ColMatrix`], and
//! both class log-densities come from [`BlockGaussian::log_pdf_batch`],
//! one pass per covariance block. Scoped worker threads, as many as
//! `featurize` uses (`available_parallelism`, at most 8), each take a
//! contiguous run of chunks; with only one chunk the step runs inline.
//!
//! The result is bit-identical to the per-row scalar loop at any thread
//! count:
//!
//! - the batched density is bit-identical per row to
//!   [`BlockGaussian::log_pdf`];
//! - each row writes only its own `γ_i` and its own expected
//!   log-likelihood term `γ_i·lm + (1−γ_i)·lu`;
//! - the terms are added into the Eq. 4 total serially, in row order,
//!   after the workers join: the same additions in the same order as
//!   the scalar loop.

use crate::config::{FeatureDependence, Regularization, ZeroErConfig};
use crate::transitivity::TransitivityCalibrator;
use zeroer_linalg::block::{BlockDiag, GroupLayout};
use zeroer_linalg::gaussian::BlockGaussian;
use zeroer_linalg::stats::{
    correlation_to_covariance, covariance_to_correlation, l2_norm, weighted_covariance,
    weighted_mean, weighted_variances,
};
use zeroer_linalg::{ColMatrix, MahalanobisScratch, Matrix, VARIANCE_FLOOR};

/// Guard keeping the Bernoulli prior away from exactly 0/1 so log π stays
/// finite when one component momentarily empties out.
const PRIOR_FLOOR: f64 = 1e-9;

/// Rows per E-step chunk: the unit of work of one batched density pass
/// (see the module docs). Fixed, so the chunking never depends on the
/// thread count.
const E_STEP_CHUNK: usize = 2048;

/// The Eq. 3 posterior softmax: `γ = exp(lm) / (exp(lm) + exp(lu))`,
/// evaluated stably in the log domain, where `lm = log π_M + log p_M(x)`
/// and `lu = log π_U + log p_U(x)`.
///
/// This is the single softmax shared by live EM inference
/// ([`GenerativeModel::posterior`], [`GenerativeModel::e_step`]) and
/// frozen-snapshot scoring (`SnapshotScorer::score`), so the two paths
/// cannot drift apart numerically.
#[inline]
pub fn eq3_posterior(lm: f64, lu: f64) -> f64 {
    let max = lm.max(lu);
    (lm - max).exp() / ((lm - max).exp() + (lu - max).exp())
}

/// Outcome of a [`GenerativeModel::fit`] run.
#[derive(Debug, Clone)]
pub struct FitSummary {
    /// EM iterations executed.
    pub iterations: usize,
    /// Whether the likelihood converged before the iteration cap.
    pub converged: bool,
    /// Expected log-likelihood (Eq. 4) per iteration.
    pub ll_history: Vec<f64>,
}

impl FitSummary {
    /// Final expected log-likelihood.
    pub fn final_ll(&self) -> f64 {
        self.ll_history.last().copied().unwrap_or(f64::NEG_INFINITY)
    }
}

/// Fitted per-class parameters (Θ of §2.2).
#[derive(Debug, Clone)]
pub struct ClassParams {
    /// Mean vector µ_C.
    pub mean: Vec<f64>,
    /// Covariance Σ_C (block-diagonal per the configured dependence).
    pub cov: BlockDiag,
}

/// The ZeroER generative model: M- and U- block-Gaussians plus the match
/// prior π_M, trained by EM.
///
/// The model is deliberately *stateful* with exposed
/// [`GenerativeModel::m_step`] / [`GenerativeModel::e_step`] so the
/// record-linkage trainer (§5) can interleave steps of three models; plain
/// users call [`GenerativeModel::fit`].
pub struct GenerativeModel {
    config: ZeroErConfig,
    layout: GroupLayout,
    /// Posterior match probabilities γ_i.
    gammas: Vec<f64>,
    pi_m: f64,
    m: Option<ClassParams>,
    u: Option<ClassParams>,
    m_dist: Option<BlockGaussian>,
    u_dist: Option<BlockGaussian>,
    /// Correlation matrix estimated once from all data (§4).
    shared_corr: Option<Matrix>,
}

impl GenerativeModel {
    /// Creates an unfitted model. `layout` is the attribute grouping of
    /// the feature matrix; the configured [`FeatureDependence`] may
    /// coarsen or refine it (full → one block, independent → singletons).
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see
    /// [`ZeroErConfig::validate`]).
    pub fn new(config: ZeroErConfig, layout: GroupLayout) -> Self {
        config.validate();
        let layout = match config.feature_dependence {
            FeatureDependence::Full => GroupLayout::single_group(layout.dim()),
            FeatureDependence::Independent => GroupLayout::independent(layout.dim()),
            FeatureDependence::Grouped => layout,
        };
        Self {
            config,
            layout,
            gammas: Vec::new(),
            pi_m: 0.5,
            m: None,
            u: None,
            m_dist: None,
            u_dist: None,
            shared_corr: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ZeroErConfig {
        &self.config
    }

    /// The effective covariance layout.
    pub fn layout(&self) -> &GroupLayout {
        &self.layout
    }

    /// Posterior match probabilities γ (valid after init/fit).
    pub fn gammas(&self) -> &[f64] {
        &self.gammas
    }

    /// Mutable posteriors — exposed for the transitivity calibrator and
    /// the linkage trainer.
    pub fn gammas_mut(&mut self) -> &mut [f64] {
        &mut self.gammas
    }

    /// Match prior π_M.
    pub fn pi_m(&self) -> f64 {
        self.pi_m
    }

    /// Fitted M-distribution parameters (after at least one M-step).
    pub fn m_params(&self) -> Option<&ClassParams> {
        self.m.as_ref()
    }

    /// Fitted U-distribution parameters (after at least one M-step).
    pub fn u_params(&self) -> Option<&ClassParams> {
        self.u.as_ref()
    }

    /// Hard labels from the current posteriors (Eq. 5): `γ_i > 0.5`.
    pub fn labels(&self) -> Vec<bool> {
        self.gammas.iter().map(|&g| g > 0.5).collect()
    }

    /// §6 initialization: min-max normalize the feature-vector magnitudes
    /// and threshold at ε.
    pub fn initialize(&mut self, x: &Matrix) {
        assert_eq!(
            x.cols(),
            self.layout.dim(),
            "feature/layout dimensionality mismatch"
        );
        let norms: Vec<f64> = (0..x.rows()).map(|i| l2_norm(x.row(i))).collect();
        let lo = norms.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = norms.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let span = hi - lo;
        self.gammas = norms
            .iter()
            .map(|&nv| {
                let scaled = if span > 0.0 { (nv - lo) / span } else { 0.0 };
                if scaled > self.config.init_threshold {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        self.shared_corr = None;
    }

    /// The adaptive / Tikhonov regularization diagonal `K` (Eq. 13).
    fn regularization_diag(&self, mu_m: &[f64], mu_u: &[f64]) -> Vec<f64> {
        let d = mu_m.len();
        match self.config.regularization {
            Regularization::None => vec![0.0; d],
            Regularization::Tikhonov => vec![self.config.kappa; d],
            Regularization::Adaptive => mu_m
                .iter()
                .zip(mu_u)
                .map(|(&a, &b)| self.config.kappa * (a - b) * (a - b))
                .collect(),
        }
    }

    /// Builds the class covariance, honoring correlation sharing (§4).
    fn class_covariance(&mut self, x: &Matrix, weights: &[f64], mean: &[f64]) -> BlockDiag {
        if self.config.shared_correlation {
            // S_C = Λ_C R Λ_C with R estimated once from all data.
            if self.shared_corr.is_none() {
                let ones = vec![1.0; x.rows()];
                let all_mean = weighted_mean(x, &ones);
                let all_cov = weighted_covariance(x, &ones, &all_mean);
                self.shared_corr = Some(covariance_to_correlation(&all_cov));
            }
            let r = self.shared_corr.as_ref().expect("just populated");
            let var = weighted_variances(x, weights, mean);
            let sd: Vec<f64> = var.iter().map(|v| v.max(0.0).sqrt()).collect();
            let full = correlation_to_covariance(r, &sd);
            BlockDiag::from_dense(&full, &self.layout)
        } else {
            let full = weighted_covariance(x, weights, mean);
            BlockDiag::from_dense(&full, &self.layout)
        }
    }

    /// The M-step (Eq. 8 / 11 / 13 / 15): re-estimates π, µ_C, Σ_C from
    /// the current posteriors.
    ///
    /// # Panics
    /// Panics if called before [`GenerativeModel::initialize`].
    pub fn m_step(&mut self, x: &Matrix) {
        assert_eq!(
            self.gammas.len(),
            x.rows(),
            "model not initialized for this matrix"
        );
        let n = x.rows() as f64;
        let gm: Vec<f64> = self.gammas.clone();
        let gu: Vec<f64> = gm.iter().map(|g| 1.0 - g).collect();
        let nm: f64 = gm.iter().sum();

        self.pi_m = (nm / n).clamp(PRIOR_FLOOR, 1.0 - PRIOR_FLOOR);

        let mu_m = weighted_mean(x, &gm);
        let mu_u = weighted_mean(x, &gu);

        let mut cov_m = self.class_covariance(x, &gm, &mu_m);
        let mut cov_u = self.class_covariance(x, &gu, &mu_u);

        let k = self.regularization_diag(&mu_m, &mu_u);
        cov_m.add_diag(&k);
        cov_u.add_diag(&k);
        // Numerical floor keeps the unregularized ablation runnable when a
        // feature fully degenerates (§3.3's singularity pathology).
        let floor = vec![VARIANCE_FLOOR; self.layout.dim()];
        cov_m.add_diag(&floor);
        cov_u.add_diag(&floor);

        self.m_dist = Some(
            BlockGaussian::new(mu_m.clone(), &cov_m)
                .expect("floored covariance must be positive definite"),
        );
        self.u_dist = Some(
            BlockGaussian::new(mu_u.clone(), &cov_u)
                .expect("floored covariance must be positive definite"),
        );
        self.m = Some(ClassParams {
            mean: mu_m,
            cov: cov_m,
        });
        self.u = Some(ClassParams {
            mean: mu_u,
            cov: cov_u,
        });
    }

    /// The E-step (Eq. 3): recomputes posteriors in the log domain and
    /// returns the expected log-likelihood (Eq. 4).
    ///
    /// Runs chunked and in parallel on the batched density kernels; the
    /// result is bit-identical to a per-row [`BlockGaussian::log_pdf`]
    /// loop at any thread count (see the module docs).
    ///
    /// # Panics
    /// Panics if called before the first M-step, or if `x` has a
    /// different number of rows than the model has posteriors.
    pub fn e_step(&mut self, x: &Matrix) -> f64 {
        let threads = std::thread::available_parallelism()
            .map_or(1, |p| p.get())
            .min(8);
        self.e_step_on(x, threads)
    }

    /// [`GenerativeModel::e_step`] on at most `threads` workers.
    fn e_step_on(&mut self, x: &Matrix, threads: usize) -> f64 {
        let m_dist = self.m_dist.as_ref().expect("e_step before m_step");
        let u_dist = self.u_dist.as_ref().expect("e_step before m_step");
        assert_eq!(
            self.gammas.len(),
            x.rows(),
            "model not initialized for this matrix"
        );
        let kernel = EStepKernel {
            x,
            m_dist,
            u_dist,
            log_pi_m: self.pi_m.ln(),
            log_pi_u: (1.0 - self.pi_m).ln(),
        };
        let mut terms = vec![0.0f64; x.rows()];
        let chunks = x.rows().div_ceil(E_STEP_CHUNK);
        let threads = threads.min(chunks);
        if threads <= 1 {
            kernel.run(0, &mut self.gammas, &mut terms);
        } else {
            let rows_per_worker = chunks.div_ceil(threads) * E_STEP_CHUNK;
            let kernel = &kernel;
            std::thread::scope(|scope| {
                for (w, (gammas, terms)) in self
                    .gammas
                    .chunks_mut(rows_per_worker)
                    .zip(terms.chunks_mut(rows_per_worker))
                    .enumerate()
                {
                    scope.spawn(move || kernel.run(w * rows_per_worker, gammas, terms));
                }
            });
        }
        // Eq. 4, summed in row order whatever the thread count.
        let mut ll = 0.0;
        for t in terms {
            ll += t;
        }
        ll
    }

    /// Runs Algorithm 1: initialize → loop {M-step; E-step; transitivity
    /// calibration} → label.
    ///
    /// `calibrator` supplies the candidate-pair endpoints for the
    /// transitivity soft constraint; pass `None` to skip it (it is also
    /// skipped when `config.transitivity` is false).
    pub fn fit(&mut self, x: &Matrix, calibrator: Option<&TransitivityCalibrator>) -> FitSummary {
        self.initialize(x);
        self.run_em(x, calibrator)
    }

    /// EM main loop starting from the current posteriors (used by `fit`
    /// and by the linkage trainer after joint initialization).
    pub fn run_em(
        &mut self,
        x: &Matrix,
        calibrator: Option<&TransitivityCalibrator>,
    ) -> FitSummary {
        let n = x.rows().max(1) as f64;
        let mut ll_history = Vec::new();
        let mut converged = false;
        let max_iter = self.config.max_iterations;
        let mut recent = AveragingWindow::new(self.config.averaging_window, max_iter);

        let mut iterations = 0;
        for iter in 0..max_iter {
            iterations = iter + 1;
            self.m_step(x);
            let ll = self.e_step(x);
            if self.config.transitivity {
                if let Some(cal) = calibrator {
                    cal.calibrate(&mut self.gammas);
                }
            }
            ll_history.push(ll);
            recent.record(iter, &self.gammas);
            if iter > 0 {
                let prev = ll_history[iter - 1];
                if ((ll - prev).abs() / n) < self.config.tolerance {
                    converged = true;
                    break;
                }
            }
        }

        if !converged {
            recent.average_into(&mut self.gammas);
        }

        FitSummary {
            iterations,
            converged,
            ll_history,
        }
    }

    /// Observed-data log-likelihood `Σ_i log(π_M p_M(x_i) + π_U p_U(x_i))`.
    ///
    /// Unlike the expected complete-data likelihood (Eq. 4) returned by
    /// [`GenerativeModel::e_step`], this quantity is guaranteed
    /// non-decreasing under *exact* EM (no regularization, no correlation
    /// sharing) — used by tests and diagnostics.
    ///
    /// # Panics
    /// Panics if the model has no fitted parameters yet.
    pub fn observed_log_likelihood(&self, x: &Matrix) -> f64 {
        let m_dist = self.m_dist.as_ref().expect("model not fitted");
        let u_dist = self.u_dist.as_ref().expect("model not fitted");
        let log_pi_m = self.pi_m.ln();
        let log_pi_u = (1.0 - self.pi_m).ln();
        (0..x.rows())
            .map(|i| {
                let row = x.row(i);
                let lm = log_pi_m + m_dist.log_pdf(row);
                let lu = log_pi_u + u_dist.log_pdf(row);
                let max = lm.max(lu);
                max + ((lm - max).exp() + (lu - max).exp()).ln()
            })
            .sum()
    }

    /// Posterior match probability for a single new feature vector using
    /// the fitted parameters (inference on unseen pairs, Figure 4(c)).
    ///
    /// # Panics
    /// Panics if the model is unfitted.
    pub fn posterior(&self, row: &[f64]) -> f64 {
        let m_dist = self.m_dist.as_ref().expect("model not fitted");
        let u_dist = self.u_dist.as_ref().expect("model not fitted");
        let lm = self.pi_m.ln() + m_dist.log_pdf(row);
        let lu = (1.0 - self.pi_m).ln() + u_dist.log_pdf(row);
        eq3_posterior(lm, lu)
    }
}

/// One E-step's read-only inputs, shared by the chunk workers.
struct EStepKernel<'a> {
    x: &'a Matrix,
    m_dist: &'a BlockGaussian,
    u_dist: &'a BlockGaussian,
    log_pi_m: f64,
    log_pi_u: f64,
}

impl EStepKernel<'_> {
    /// Computes `γ_i` and the Eq. 4 term of rows `first..first + gammas.len()`,
    /// one [`E_STEP_CHUNK`] at a time through reused buffers.
    fn run(&self, first: usize, gammas: &mut [f64], terms: &mut [f64]) {
        let d = self.x.cols();
        let data = self.x.as_slice();
        let mut cols = ColMatrix::new();
        let mut maha = MahalanobisScratch::default();
        let (mut dens_m, mut dens_u) = (Vec::new(), Vec::new());
        for (c, (gammas, terms)) in gammas
            .chunks_mut(E_STEP_CHUNK)
            .zip(terms.chunks_mut(E_STEP_CHUNK))
            .enumerate()
        {
            let start = first + c * E_STEP_CHUNK;
            let rows = gammas.len();
            cols.reset(rows, d);
            for j in 0..d {
                for (r, v) in cols.col_mut(j).iter_mut().enumerate() {
                    *v = data[(start + r) * d + j];
                }
            }
            dens_m.resize(rows, 0.0);
            dens_u.resize(rows, 0.0);
            self.m_dist.log_pdf_batch(&cols, &mut maha, &mut dens_m);
            self.u_dist.log_pdf_batch(&cols, &mut maha, &mut dens_u);
            for (((g, t), &pm), &pu) in gammas.iter_mut().zip(terms).zip(&dens_m).zip(&dens_u) {
                let lm = self.log_pi_m + pm;
                let lu = self.log_pi_u + pu;
                let gm = eq3_posterior(lm, lu);
                *g = gm;
                *t = gm * lm + (1.0 - gm) * lu;
            }
        }
    }
}

/// The posteriors of the last `window` EM iterations, for §6's averaging
/// fallback when a run stops at the iteration cap.
///
/// Only iterations that can still fall inside the final window are kept
/// (`iter + window >= max_iterations`): a run that converges earlier
/// never reads them, so holding a copy of every iteration's posteriors
/// would only cost memory.
pub(crate) struct AveragingWindow {
    window: usize,
    max_iterations: usize,
    recent: Vec<Vec<f64>>,
}

impl AveragingWindow {
    pub(crate) fn new(window: usize, max_iterations: usize) -> Self {
        Self {
            window,
            max_iterations,
            recent: Vec::new(),
        }
    }

    /// Keeps a copy of iteration `iter`'s posteriors if it can be among
    /// the last `window` iterations of a run that hits the cap.
    pub(crate) fn record(&mut self, iter: usize, gammas: &[f64]) {
        if iter + self.window >= self.max_iterations {
            self.recent.push(gammas.to_vec());
        }
    }

    /// Overwrites `gammas` with the mean of the kept posteriors, when
    /// there are at least two of them.
    pub(crate) fn average_into(&self, gammas: &mut [f64]) {
        if self.recent.len() > 1 {
            let k = self.recent.len() as f64;
            for (i, g) in gammas.iter_mut().enumerate() {
                *g = self.recent.iter().map(|v| v[i]).sum::<f64>() / k;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Synthesizes an easy two-cluster dataset: matches near 0.9,
    /// unmatches near 0.1, with `d` features in the given groups.
    fn easy_data(
        n_match: usize,
        n_unmatch: usize,
        sizes: &[usize],
        seed: u64,
    ) -> (Matrix, Vec<bool>) {
        let d: usize = sizes.iter().sum();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity((n_match + n_unmatch) * d);
        let mut truth = Vec::new();
        for _ in 0..n_match {
            for _ in 0..d {
                data.push(0.9 + rng.gen_range(-0.08..0.08));
            }
            truth.push(true);
        }
        for _ in 0..n_unmatch {
            for _ in 0..d {
                data.push(0.1 + rng.gen_range(-0.08..0.08));
            }
            truth.push(false);
        }
        (Matrix::from_vec(n_match + n_unmatch, d, data), truth)
    }

    #[test]
    fn separable_clusters_are_recovered() {
        let (x, truth) = easy_data(20, 180, &[2, 3], 1);
        let mut m = GenerativeModel::new(ZeroErConfig::default(), GroupLayout::from_sizes(&[2, 3]));
        let summary = m.fit(&x, None);
        assert_eq!(m.labels(), truth);
        assert!(summary.iterations >= 1);
    }

    #[test]
    fn heavy_imbalance_is_handled() {
        // 5 matches vs 500 unmatches — the §4 regime.
        let (x, truth) = easy_data(5, 500, &[2, 2], 2);
        let mut m = GenerativeModel::new(ZeroErConfig::default(), GroupLayout::from_sizes(&[2, 2]));
        m.fit(&x, None);
        assert_eq!(m.labels(), truth);
        assert!(
            m.pi_m() < 0.05,
            "prior should reflect the imbalance, got {}",
            m.pi_m()
        );
    }

    #[test]
    fn gammas_stay_probabilities() {
        let (x, _) = easy_data(10, 90, &[3], 3);
        let mut m = GenerativeModel::new(ZeroErConfig::default(), GroupLayout::from_sizes(&[3]));
        m.fit(&x, None);
        assert!(m.gammas().iter().all(|g| (0.0..=1.0).contains(g)));
    }

    #[test]
    fn observed_likelihood_is_monotone_under_exact_em() {
        // The classical EM guarantee applies to the observed-data
        // likelihood when the M-step is the exact maximizer — i.e. no
        // regularization, no correlation sharing, no calibration.
        let (x, _) = easy_data(15, 85, &[4], 4);
        let cfg = ZeroErConfig {
            transitivity: false,
            shared_correlation: false,
            regularization: Regularization::None,
            feature_dependence: FeatureDependence::Full,
            ..Default::default()
        };
        let mut m = GenerativeModel::new(cfg, GroupLayout::from_sizes(&[4]));
        m.initialize(&x);
        let mut prev = f64::NEG_INFINITY;
        for _ in 0..30 {
            m.m_step(&x);
            let obs = m.observed_log_likelihood(&x);
            assert!(
                obs >= prev - 1e-6,
                "observed likelihood decreased: {prev} -> {obs}"
            );
            prev = obs;
            m.e_step(&x);
        }
    }

    #[test]
    fn all_ablation_variants_run() {
        let (x, _) = easy_data(10, 90, &[2, 2, 1], 5);
        let layout = GroupLayout::from_sizes(&[2, 2, 1]);
        for dep in [
            FeatureDependence::Full,
            FeatureDependence::Independent,
            FeatureDependence::Grouped,
        ] {
            for reg in [
                Regularization::None,
                Regularization::Tikhonov,
                Regularization::Adaptive,
            ] {
                let mut m = GenerativeModel::new(ZeroErConfig::ablation(dep, reg), layout.clone());
                let s = m.fit(&x, None);
                assert!(s.iterations >= 1, "{dep:?}/{reg:?} did not run");
                assert!(
                    m.gammas().iter().all(|g| g.is_finite()),
                    "{dep:?}/{reg:?} NaN gammas"
                );
            }
        }
    }

    #[test]
    fn effective_layout_respects_dependence_mode() {
        let layout = GroupLayout::from_sizes(&[2, 3]);
        let full = GenerativeModel::new(
            ZeroErConfig::ablation(FeatureDependence::Full, Regularization::Adaptive),
            layout.clone(),
        );
        assert_eq!(full.layout().num_groups(), 1);
        let ind = GenerativeModel::new(
            ZeroErConfig::ablation(FeatureDependence::Independent, Regularization::Adaptive),
            layout.clone(),
        );
        assert_eq!(ind.layout().num_groups(), 5);
        let grp = GenerativeModel::new(ZeroErConfig::default(), layout);
        assert_eq!(grp.layout().num_groups(), 2);
    }

    #[test]
    fn degenerate_feature_survives_with_adaptive_regularization() {
        // One feature is constant 1.0 for matches (the Figure 3 f1
        // pathology). Without regularization this is a singularity;
        // adaptive regularization must keep the fit finite and correct.
        let n_m = 10;
        let n_u = 90;
        let mut data = Vec::new();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..n_m {
            data.push(1.0); // degenerate feature
            data.push(0.9 + rng.gen_range(-0.05..0.05));
        }
        for _ in 0..n_u {
            data.push(rng.gen_range(0.0..0.5));
            data.push(0.1 + rng.gen_range(-0.05..0.05));
        }
        let x = Matrix::from_vec(n_m + n_u, 2, data);
        let mut m = GenerativeModel::new(ZeroErConfig::default(), GroupLayout::independent(2));
        m.fit(&x, None);
        let labels = m.labels();
        assert!(labels[..n_m].iter().all(|&l| l), "matches must be found");
        assert!(
            labels[n_m..].iter().all(|&l| !l),
            "unmatches must stay unmatched"
        );
    }

    #[test]
    fn posterior_inference_on_new_rows() {
        let (x, _) = easy_data(10, 90, &[2], 8);
        let mut m = GenerativeModel::new(ZeroErConfig::default(), GroupLayout::from_sizes(&[2]));
        m.fit(&x, None);
        assert!(m.posterior(&[0.92, 0.88]) > 0.5);
        assert!(m.posterior(&[0.05, 0.12]) < 0.5);
    }

    #[test]
    fn single_row_matrix_does_not_crash() {
        let x = Matrix::from_rows(&[&[0.9, 0.8]]);
        let mut m = GenerativeModel::new(ZeroErConfig::default(), GroupLayout::from_sizes(&[2]));
        let s = m.fit(&x, None);
        assert!(s.iterations >= 1);
        assert!(m.gammas()[0].is_finite());
    }

    #[test]
    fn chunked_e_step_is_bit_identical_to_scalar_rows() {
        // A ragged matrix: three full chunks plus a partial one.
        let n = 3 * E_STEP_CHUNK + 17;
        let (x, _) = easy_data(n / 10, n - n / 10, &[2, 3, 1], 11);
        assert_eq!(x.rows(), n);
        let mut m =
            GenerativeModel::new(ZeroErConfig::default(), GroupLayout::from_sizes(&[2, 3, 1]));
        m.initialize(&x);
        m.m_step(&x);

        // The reference: the per-row scalar loop.
        let (m_dist, u_dist) = (m.m_dist.clone().unwrap(), m.u_dist.clone().unwrap());
        let (log_pi_m, log_pi_u) = (m.pi_m.ln(), (1.0 - m.pi_m).ln());
        let mut want_gammas = vec![0.0; n];
        let mut want_ll = 0.0;
        for (i, g) in want_gammas.iter_mut().enumerate() {
            let lm = log_pi_m + m_dist.log_pdf(x.row(i));
            let lu = log_pi_u + u_dist.log_pdf(x.row(i));
            *g = eq3_posterior(lm, lu);
            want_ll += *g * lm + (1.0 - *g) * lu;
        }

        for threads in [1, 2, 3, 4, 8] {
            let ll = m.e_step_on(&x, threads);
            assert_eq!(ll.to_bits(), want_ll.to_bits(), "ll at {threads} threads");
            for (i, (g, w)) in m.gammas().iter().zip(&want_gammas).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "row {i} at {threads} threads");
            }
        }
        assert_eq!(m.e_step(&x).to_bits(), want_ll.to_bits());
    }

    #[test]
    fn capped_run_averages_the_same_posteriors_as_full_retention() {
        // Unstructured data, so EM is still moving at the cap.
        let mut rng = StdRng::seed_from_u64(12);
        let x = Matrix::from_vec(200, 4, (0..800).map(|_| rng.gen_range(0.0..1.0)).collect());
        for window in [3, 10] {
            let cfg = ZeroErConfig {
                tolerance: f64::MIN_POSITIVE,
                max_iterations: 6,
                averaging_window: window,
                transitivity: false,
                ..Default::default()
            };
            let layout = GroupLayout::from_sizes(&[2, 2]);
            let mut got = GenerativeModel::new(cfg.clone(), layout.clone());
            let summary = got.fit(&x, None);
            assert!(!summary.converged, "the run must stop at the cap");

            // The reference keeps every iteration's posteriors in a ring
            // of `window` entries.
            let mut want = GenerativeModel::new(cfg.clone(), layout);
            want.initialize(&x);
            let mut ring: Vec<Vec<f64>> = Vec::new();
            for _ in 0..cfg.max_iterations {
                want.m_step(&x);
                want.e_step(&x);
                if ring.len() == window {
                    ring.remove(0);
                }
                ring.push(want.gammas().to_vec());
            }
            let k = ring.len() as f64;
            for (i, g) in got.gammas().iter().enumerate() {
                let avg = ring.iter().map(|v| v[i]).sum::<f64>() / k;
                assert_eq!(g.to_bits(), avg.to_bits(), "window {window} row {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn dimension_mismatch_panics() {
        let x = Matrix::from_rows(&[&[0.9, 0.8, 0.7]]);
        let mut m = GenerativeModel::new(ZeroErConfig::default(), GroupLayout::from_sizes(&[2]));
        m.initialize(&x);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Random feature matrices with values in [0, 1] (the post-normalization
    /// domain the model is specified over).
    fn feature_matrix() -> impl Strategy<Value = Matrix> {
        (4usize..40).prop_flat_map(|n| {
            proptest::collection::vec(0.0f64..1.0, n * 4)
                .prop_map(move |v| Matrix::from_vec(n, 4, v))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn posteriors_are_probabilities_on_arbitrary_data(x in feature_matrix()) {
            let mut m = GenerativeModel::new(
                ZeroErConfig { transitivity: false, ..Default::default() },
                GroupLayout::from_sizes(&[2, 2]),
            );
            m.fit(&x, None);
            for &g in m.gammas() {
                prop_assert!(g.is_finite());
                prop_assert!((0.0..=1.0).contains(&g), "gamma out of range: {g}");
            }
            prop_assert!((0.0..=1.0).contains(&m.pi_m()));
        }

        #[test]
        fn fitting_is_deterministic(x in feature_matrix()) {
            let cfg = ZeroErConfig::default();
            let layout = GroupLayout::from_sizes(&[2, 2]);
            let mut a = GenerativeModel::new(cfg.clone(), layout.clone());
            let mut b = GenerativeModel::new(cfg, layout);
            a.fit(&x, None);
            b.fit(&x, None);
            prop_assert_eq!(a.gammas(), b.gammas());
        }

        #[test]
        fn covariances_stay_positive_definite(x in feature_matrix()) {
            let mut m = GenerativeModel::new(
                ZeroErConfig { transitivity: false, ..Default::default() },
                GroupLayout::from_sizes(&[2, 2]),
            );
            m.initialize(&x);
            for _ in 0..5 {
                m.m_step(&x);
                // Every fitted covariance must factor (PD after floor+reg).
                prop_assert!(m.m_params().unwrap().cov.factor().is_ok());
                prop_assert!(m.u_params().unwrap().cov.factor().is_ok());
                m.e_step(&x);
            }
        }

        #[test]
        fn posterior_inference_is_bounded(x in feature_matrix(), probe in proptest::collection::vec(0.0f64..1.0, 4)) {
            let mut m = GenerativeModel::new(
                ZeroErConfig { transitivity: false, ..Default::default() },
                GroupLayout::from_sizes(&[2, 2]),
            );
            m.fit(&x, None);
            let p = m.posterior(&probe);
            prop_assert!(p.is_finite() && (0.0..=1.0).contains(&p));
        }
    }
}
