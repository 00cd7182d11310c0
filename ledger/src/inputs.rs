//! The workloads' inputs, made in-process by `zeroer-datagen` from two
//! seeds: the corpus seed picks the corpus (42 is the standard corpus),
//! the workload seed picks the arrival order and which tail records are
//! written or only resolved. The same seeds always give the same inputs.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use zeroer_datagen::{generate_dedup, generate_linkage, CorpusSpec, DedupCorpus, LinkageCorpus};
use zeroer_stream::Side;
use zeroer_tabular::{Record, Table};

/// Corpus scale: 5,000 dedup records, or 2,500 + 2,500 linkage rows.
pub const SCALE: f64 = 0.25;

/// Tail records `serve-mix` may write; the rest of the tail is held out
/// and only ever resolved.
pub const SERVE_WRITE_SLICE: usize = 600;

fn spec(corpus_seed: u64) -> CorpusSpec {
    CorpusSpec {
        scale: SCALE,
        seed: corpus_seed,
        ..CorpusSpec::default()
    }
}

/// The first 70 % of `t`'s rows (the bootstrap base) and the rest.
fn split(t: &Table) -> (Table, Vec<Record>) {
    let cut = t.len() * 7 / 10;
    let mut base = Table::new(t.name().to_string(), t.schema().clone());
    for r in &t.records()[..cut] {
        base.push(r.clone());
    }
    (base, t.records()[cut..].to_vec())
}

fn shuffled<T>(mut v: Vec<T>, seed: u64) -> Vec<T> {
    v.shuffle(&mut StdRng::seed_from_u64(seed));
    v
}

/// `dedup` (and `serve-mix`) inputs: the corpus, its 3,500-row base and
/// its 1,500-row tail in seeded arrival order. Record ids are corpus
/// row indices.
pub struct DedupInputs {
    pub corpus: DedupCorpus,
    pub base: Table,
    pub tail: Vec<Record>,
}

impl DedupInputs {
    pub fn new(corpus_seed: u64, seed: u64) -> Self {
        let corpus = generate_dedup(&spec(corpus_seed)).expect("the scale-0.25 spec is valid");
        let (base, tail) = split(&corpus.table);
        DedupInputs {
            tail: shuffled(tail, seed),
            corpus,
            base,
        }
    }

    /// True duplicate pairs (corpus row indices) whose records both
    /// satisfy `keep`.
    pub fn truth_within(&self, keep: impl Fn(usize) -> bool) -> Vec<(usize, usize)> {
        let mut truth = self.corpus.truth_pairs();
        truth.retain(|&(a, b)| keep(a) && keep(b));
        truth
    }
}

/// `serve-mix` inputs: the dedup inputs with the tail cut into the
/// records written over the wire and the held-out records only
/// resolved. The two never overlap.
pub struct ServeInputs {
    pub dedup: DedupInputs,
    pub writes: Vec<Record>,
    pub probes: Vec<Record>,
}

impl ServeInputs {
    pub fn new(corpus_seed: u64, seed: u64) -> Self {
        let dedup = DedupInputs::new(corpus_seed, seed);
        let (writes, probes) = dedup.tail.split_at(SERVE_WRITE_SLICE);
        ServeInputs {
            writes: writes.to_vec(),
            probes: probes.to_vec(),
            dedup,
        }
    }
}

/// `link` inputs: the linkage corpus, both sides' 70 % bases and both
/// sides' tails interleaved in seeded arrival order. Record ids are row
/// indices within their side.
pub struct LinkInputs {
    pub corpus: LinkageCorpus,
    pub left: Table,
    pub right: Table,
    pub tail: Vec<(Side, Record)>,
}

impl LinkInputs {
    pub fn new(corpus_seed: u64, seed: u64) -> Self {
        let corpus = generate_linkage(&spec(corpus_seed)).expect("the scale-0.25 spec is valid");
        let (left, left_tail) = split(&corpus.left);
        let (right, right_tail) = split(&corpus.right);
        let tail = left_tail
            .into_iter()
            .map(|r| (Side::Left, r))
            .chain(right_tail.into_iter().map(|r| (Side::Right, r)))
            .collect();
        LinkInputs {
            tail: shuffled(tail, seed),
            corpus,
            left,
            right,
        }
    }
}
