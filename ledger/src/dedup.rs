//! `dedup`: bootstrap on the 3,500-row base, stream the 1,500-row tail
//! through `ingest` one record at a time, then `refit` over all 5,000
//! live records.

use crate::fit;
use crate::inputs::DedupInputs;
use crate::passes::{self, canonical, Pass};
use crate::report::{secs, Report};
use crate::{median_of, Args, FIT_REPS, SETUP_MIN_S, SETUP_REPS};
use std::time::Instant;
use zeroer_eval::clusters::{clusters_from_pairs, pairwise_cluster_f1};
use zeroer_stream::{StreamOptions, StreamPipeline};

/// Clusters of `p` over corpus row indices (the record ids).
pub fn corpus_clusters(p: &StreamPipeline) -> Vec<Vec<usize>> {
    let records = p.store().table().records();
    let ids = p.clusters().into_iter();
    canonical(
        ids.map(|c| c.iter().map(|&i| records[i].id as usize).collect())
            .collect(),
    )
}

fn pass(p: &mut StreamPipeline, tail: &[zeroer_tabular::Record], m: &mut Pass) {
    let t = Instant::now();
    let mut reads = p.pin_read_handle();
    for r in tail {
        let out = m.time_resolve(|| reads.resolve(r));
        m.resolves_ok += usize::from(out.matches.iter().all(|&(_, p)| p.is_finite()));
    }
    m.resolve_wall_s = secs(t);
    drop(reads);
    let t = Instant::now();
    for r in tail {
        let r = r.clone();
        let out = m.time_ingest(|| p.ingest(r));
        m.candidates += out.candidates;
        m.matches += out.matches.len();
        m.linked += usize::from(!out.is_new_entity());
    }
    m.ingest_wall_s = secs(t);
    m.clusters = corpus_clusters(p);
}

pub fn run(args: &Args, rep: &mut Report) {
    let traced = rep.traced();
    let (setup_s, inputs) = median_of(SETUP_REPS, SETUP_MIN_S, || {
        DedupInputs::new(args.corpus_seed, args.seed)
    });
    rep.metric("setup_s", setup_s, "s");
    let opts = StreamOptions {
        metrics: traced,
        ..StreamOptions::default()
    };

    let (fit_s, (pipeline, boot)) = median_of(FIT_REPS, 0.0, || {
        StreamPipeline::bootstrap(&inputs.base, opts.clone()).expect("the base yields candidates")
    });
    rep.metric("fit_s", fit_s, "s");
    rep.phase("fit", 1, 0);
    if traced {
        let trace = fit::dedup(&inputs.base, &opts);
        rep.check(
            "traced fit composition reproduces BootstrapReport (pairs, posteriors to the bit)",
            trace.reproduces(&boot.pairs, &boot.probabilities, boot.em_iterations),
        );
        let base_len = inputs.base.len();
        trace.report(
            rep,
            "fit",
            fit_s,
            Some(&inputs.truth_within(|i| i < base_len)),
        );
        trace.report_score(rep);
    }
    drop(boot);

    let snap = pipeline.snapshot();
    let restore = |on: bool| {
        let mut p =
            StreamPipeline::from_snapshot(&snap, opts.threshold).expect("snapshot restores");
        p.set_metrics(on);
        p.seed_base(&inputs.base).expect("the base replays");
        p
    };
    let (ps, mut pipeline) =
        passes::run(args.seconds, traced, "stream", pipeline, restore, |p, m| {
            pass(p, &inputs.tail, m)
        });
    passes::report(rep, &ps);

    let truth = clusters_from_pairs(&inputs.corpus.truth_pairs());
    let f1 = pairwise_cluster_f1(&ps[0].clusters, &truth).f1();
    rep.metric("pair_f1", f1, "ratio");
    rep.check("pair-F1 against exact truth exceeds 0.9", f1 > 0.9);

    // The refit re-derives the live records in store order; the traced
    // composition fits the same table first.
    let live = pipeline.store().table().clone();
    let t = Instant::now();
    let refit = pipeline.refit();
    let refit_s = secs(t);
    rep.phase("refit", 1, u64::from(refit.is_err()));
    let refit = match refit {
        Ok(r) => r,
        Err(e) => {
            return rep.check(
                &format!("refit over the live records succeeds ({e})"),
                false,
            )
        }
    };
    rep.metric("refit_s", refit_s, "s");
    if traced {
        let trace = fit::dedup(&live, &opts);
        rep.check(
            "traced refit composition matches RefreshReport (pairs, EM iterations)",
            trace.candidates == refit.pairs && trace.em_iters == refit.em_iterations,
        );
        trace.report(rep, "refit", refit_s, None);
    }
}
