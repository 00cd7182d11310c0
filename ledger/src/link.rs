//! `link`: the three-model linkage bootstrap on 1,750 + 1,750 base rows,
//! then both sides' tails streamed interleaved through side-tagged
//! `ingest`.

use crate::fit;
use crate::inputs::LinkInputs;
use crate::passes::{self, canonical, Pass};
use crate::report::{secs, Report};
use crate::{median_of, Args, FIT_REPS, SETUP_MIN_S, SETUP_REPS};
use std::collections::HashSet;
use std::time::Instant;
use zeroer_stream::{LinkPipeline, Side, StreamOptions};

/// Clusters of `p` over corpus ids: left rows keep their row index,
/// right rows are numbered after all `left_rows` left rows.
fn corpus_clusters(p: &LinkPipeline, left_rows: usize) -> Vec<Vec<usize>> {
    let records = p.store().table().records();
    let id = |i: usize| match p.side(i) {
        Side::Left => records[i].id as usize,
        Side::Right => left_rows + records[i].id as usize,
    };
    canonical(
        p.clusters()
            .into_iter()
            .map(|c| c.into_iter().map(id).collect())
            .collect(),
    )
}

/// Every (left, right) pair that shares a cluster.
fn cross_links(clusters: &[Vec<usize>], left_rows: usize) -> HashSet<(usize, usize)> {
    let mut links = HashSet::new();
    for c in clusters {
        for &a in c.iter().filter(|&&a| a < left_rows) {
            for &b in c.iter().filter(|&&b| b >= left_rows) {
                links.insert((a, b));
            }
        }
    }
    links
}

fn pass(p: &mut LinkPipeline, inputs: &LinkInputs, m: &mut Pass) {
    let t = Instant::now();
    let mut reads = p.pin_read_handle();
    for (side, r) in &inputs.tail {
        let out = m.time_resolve(|| reads.resolve(r, *side));
        m.resolves_ok += usize::from(out.matches.iter().all(|&(_, p)| p.is_finite()));
    }
    m.resolve_wall_s = secs(t);
    drop(reads);
    let t = Instant::now();
    for (side, r) in &inputs.tail {
        let r = r.clone();
        let out = m.time_ingest(|| p.ingest(r, *side));
        m.candidates += out.candidates;
        m.matches += out.matches.len();
        m.linked += usize::from(!out.is_new_entity());
    }
    m.ingest_wall_s = secs(t);
    m.clusters = corpus_clusters(p, inputs.corpus.left.len());
}

pub fn run(args: &Args, rep: &mut Report) {
    let traced = rep.traced();
    let (setup_s, inputs) = median_of(SETUP_REPS, SETUP_MIN_S, || {
        LinkInputs::new(args.corpus_seed, args.seed)
    });
    rep.metric("setup_s", setup_s, "s");
    let opts = StreamOptions {
        metrics: traced,
        ..StreamOptions::default()
    };
    let left_rows = inputs.corpus.left.len();
    let truth: HashSet<(usize, usize)> = inputs
        .corpus
        .matches
        .iter()
        .map(|&(l, r)| (l, left_rows + r))
        .collect();

    let (fit_s, (pipeline, boot)) = median_of(FIT_REPS, 0.0, || {
        LinkPipeline::bootstrap(&inputs.left, &inputs.right, opts.clone())
            .expect("the bases yield cross candidates")
    });
    rep.metric("fit_s", fit_s, "s");
    rep.phase("fit", 1, 0);
    if traced {
        let trace = fit::link(&inputs.left, &inputs.right, &opts);
        rep.check(
            "traced linkage composition reproduces LinkBootstrapReport (pairs, posteriors to the bit)",
            trace.reproduces(&boot.pairs, &boot.probabilities, boot.em_iterations),
        );
        let (nl, nr) = (inputs.left.len(), inputs.right.len());
        let base_truth: Vec<(usize, usize)> = inputs
            .corpus
            .matches
            .iter()
            .copied()
            .filter(|&(l, r)| l < nl && r < nr)
            .collect();
        trace.report(rep, "fit", fit_s, Some(&base_truth));
        trace.report_score(rep);
    }
    drop(boot);

    let snap = pipeline.snapshot();
    let restore = |on: bool| {
        let mut p = LinkPipeline::from_snapshot(&snap, opts.threshold).expect("snapshot restores");
        p.set_metrics(on);
        p.seed_base(&inputs.left, &inputs.right)
            .expect("the bases replay");
        p
    };
    let (ps, _) = passes::run(args.seconds, traced, "link", pipeline, restore, |p, m| {
        pass(p, &inputs, m)
    });
    passes::report(rep, &ps);

    let links = cross_links(&ps[0].clusters, left_rows);
    let tp = links.intersection(&truth).count() as f64;
    let (precision, recall) = (
        tp / links.len().max(1) as f64,
        tp / truth.len().max(1) as f64,
    );
    let f1 = 2.0 * precision * recall / (precision + recall).max(f64::MIN_POSITIVE);
    rep.metric("pair_f1", f1, "ratio");
    rep.metric("ingest.linked_records", ps[0].linked as f64, "count");
    rep.check("streamed records made cross links", ps[0].linked > 0);
    rep.check("pair-F1 against exact truth exceeds 0.9", f1 > 0.9);
}
