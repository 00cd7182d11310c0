//! The one streaming core under dedup and record linkage: [`Pipeline`],
//! generic over its side [`Topology`].
//!
//! Dedup ([`crate::StreamPipeline`] = `Pipeline<Dedup>`) is the one-side
//! case: every record probes and inserts the single blocking index in
//! one pass ([`ShardedIndex::insert_keys_live`], or
//! [`ShardedIndex::insert_batch_live`] for a parallel batch). Linkage
//! ([`crate::LinkPipeline`] = `Pipeline<Linkage>`) is the two-side case:
//! a record probes the *opposite* side's index read-only
//! ([`ShardedIndex::probe_live`]) and is inserted into its own side's
//! ([`ShardedIndex::insert_keys_at`]), so same-side records never become
//! candidates of one another. Everything else is written once here: the
//! single-record ingest step, the parallel derive → commit → block →
//! score → decide batch, retraction and compaction, tombstone
//! persistence and replay, stats, and read-view pinning. The topology
//! types ([`crate::pipeline::Dedup`], [`crate::link::Linkage`]) carry
//! only what differs: the fit recipe's provenance, the snapshot format,
//! and dedup's drift monitor.

use crate::drift::{DriftMonitor, DriftSample};
use crate::index::{CompactionDelta, IndexConfig, IndexStats};
use crate::link::Side;
use crate::meters::StageMeters;
use crate::pipeline::{
    CompactionReport, IngestOutcome, RetractionReport, StreamError, StreamOptions, StreamStats,
};
use crate::shard::{RecordKeys, ShardedIndex};
use crate::split::ReadView;
use crate::store::EntityStore;
use std::sync::Mutex;
use zeroer_core::{ModelSnapshot, ScoreBatch, SnapshotScorer};
use zeroer_features::BatchFeaturizer;
use zeroer_obs::{Histogram, Stopwatch};
use zeroer_tabular::{AttrType, Record, Schema, Table};
use zeroer_textsim::derive::{DerivedRecord, ScratchDerived, ScratchDeriver};
use zeroer_textsim::intern::{fnv1a_extend, Interner, Sym, FNV1A_BASIS};

pub(crate) mod sealed {
    /// Keeps [`super::Topology`] closed to the two workloads.
    pub trait Sealed {}
}

/// The side topology a [`Pipeline`] streams under, and the state only
/// that workload keeps. Sealed: [`crate::pipeline::Dedup`] and
/// [`crate::link::Linkage`] are the two implementations.
pub trait Topology: sealed::Sealed {
    /// Metric-name prefix of the pipeline's stage meters (see
    /// `crates/obs/README.md`).
    const PREFIX: &'static str;
    /// Blocking indexes: one shared by every record, or one per side.
    const INDEXES: usize;
    /// What error messages call the frozen scoring model.
    const MODEL: &'static str;

    /// The drift monitor every ingested record is folded into, if this
    /// workload keeps one.
    fn drift(&mut self) -> Option<&mut DriftMonitor> {
        None
    }
}

/// Incremental entity resolution on top of a frozen batch-fitted model:
/// ingest records, find candidates via incremental blocking indexes,
/// score them with snapshot inference (no EM), and maintain entity
/// clusters transitively in a union-find. Use it as
/// [`crate::StreamPipeline`] (dedup) or [`crate::LinkPipeline`]
/// (record linkage).
pub struct Pipeline<T: Topology> {
    pub(crate) opts: StreamOptions,
    /// Every record of every side, in one numbering, with one interner.
    pub(crate) store: EntityStore,
    /// `T::INDEXES` blocking indexes: the dedup index, or `[left, right]`.
    pub(crate) indexes: Vec<ShardedIndex>,
    /// Which side each stored record belongs to (linkage only; empty
    /// under dedup).
    pub(crate) sides: Vec<Side>,
    pub(crate) featurizer: BatchFeaturizer,
    pub(crate) scorer: SnapshotScorer,
    /// Reusable struct-of-arrays scoring buffers for the sequential
    /// scoring hot loop (parallel workers carry their own), keeping
    /// steady-state scoring allocation-free.
    batch: ScoreBatch,
    /// Candidate pairs generated so far (see [`StreamStats`]).
    candidates_seen: usize,
    /// The bootstrap match decisions, in decision order: applied at
    /// bootstrap, persisted in the snapshot, replayed by `seed`.
    pub(crate) base_matches: Vec<(usize, usize)>,
    /// Tombstones restored from a snapshot and not yet replayed: they
    /// name bootstrap-record indices and are applied by `seed`
    /// (retraction is refused until then — the indices would otherwise
    /// be ambiguous against freshly streamed records).
    pending_tombstones: Vec<usize>,
    /// Epoch restored from a snapshot, re-pinned after `seed`.
    pending_epoch: u64,
    /// Metric handles, resolved once at construction; `None` when
    /// [`StreamOptions::metrics`] is off, so the uninstrumented hot
    /// path pays a single branch per stage boundary.
    pub(crate) meters: Option<StageMeters>,
    /// How many times `refit` has swapped the scorer since construction
    /// (0 = still the bootstrap model).
    generation: u64,
    /// What only this topology keeps.
    pub(crate) topo: T,
}

/// The index slot a record of `side` probes for candidates: the one
/// dedup index, or the opposite side's.
pub(crate) fn probe_slot(side: Option<Side>) -> usize {
    match side {
        Some(Side::Left) => 1,
        _ => 0,
    }
}

/// The index slot holding a record of `side`'s own postings.
fn home_slot(side: Option<Side>) -> usize {
    match side {
        Some(Side::Right) => 1,
        _ => 0,
    }
}

/// One record's slot in the parallel scoring phase: its candidates
/// (from the dedup block phase, or probed by the scoring worker for
/// linkage), its above-threshold matches, and its drift-window sample
/// (`None` for zero-candidate records, on the scalar path, and when the
/// workload keeps no drift monitor).
#[derive(Default)]
struct Scored {
    candidates: Vec<usize>,
    matches: Vec<(usize, f64)>,
    sample: Option<DriftSample>,
}

/// A slice of per-record scoring slots handed to a scoring worker,
/// tagged with the batch offset of its first record.
type ScoreJob<'m> = (usize, &'m mut [Scored]);

/// Order-sensitive FNV-1a digest of a record sequence (ids + values),
/// used to pin persisted bootstrap decisions to the exact table they
/// were made on: replaying merge pairs onto different or reordered
/// records would silently produce wrong clusters.
pub(crate) fn records_digest(records: &[Record]) -> u64 {
    let mut h = FNV1A_BASIS;
    for r in records {
        h = fnv1a_extend(h, &r.id.to_le_bytes());
        for v in &r.values {
            h = match v.as_text() {
                Some(t) => fnv1a_extend(fnv1a_extend(h, &[0xff]), t.as_bytes()),
                None => fnv1a_extend(h, &[0xfe]),
            };
        }
    }
    h
}

/// Checks that `table` (labelled `label` in errors) is the bootstrap
/// table a snapshot recorded: `len` records whose digest is `digest`
/// (0 = unknown, as in snapshots older than the digest).
///
/// # Errors
/// Fails on a record-count or digest mismatch.
pub(crate) fn check_base(
    label: &str,
    table: &Table,
    len: usize,
    digest: u64,
) -> Result<(), StreamError> {
    if table.len() != len {
        return Err(StreamError(format!(
            "{label} table has {} records but the snapshot was bootstrapped on {len}",
            table.len()
        )));
    }
    if digest != 0 && records_digest(table.records()) != digest {
        return Err(StreamError(format!(
            "{label} table does not match the records the snapshot was bootstrapped on \
             (same length, different or reordered records); the persisted batch \
             decisions cannot be replayed onto it"
        )));
    }
    Ok(())
}

/// Scores `candidates` (cluster-state-independent: features depend only
/// on the two records) against the new record's derivation, returning the
/// `(candidate, posterior)` pairs above `threshold`, sorted by descending
/// posterior (stable, so ties keep ascending candidate order).
///
/// Orientation matters because a few of the similarity measures (e.g.
/// Monge-Elkan) are asymmetric. With `new_on_left = false`, rows are
/// `(candidate, new)` — the dedup `(older, newer)` convention mirroring
/// batch pairs `(i, j)` with `i < j`, which is also the linkage
/// orientation when the *new* record is right-side. `new_on_left = true`
/// flips to `(new, candidate)` for left-side linkage ingest, keeping
/// rows `(left, right)` as the cross model was fitted.
///
/// With `batched` on, the candidates are gathered into `batch`'s
/// column-major feature matrix (one similarity function filling one
/// column across every pair) and scored through the struct-of-arrays
/// kernels ([`zeroer_features::BatchFeaturizer::fill_columns`] →
/// [`SnapshotScorer::score_batch`]); otherwise each candidate is
/// featurized and scored row-at-a-time. Both paths run the exact same
/// float operations per pair in the exact same order, so posteriors are
/// bit-identical (`f64::to_bits`) between them — `tests/batched_parity.rs`
/// locks that in.
///
/// Every ingest and resolve path — sequential and parallel, dedup and
/// linkage — calls this single function on identical inputs, which is
/// what makes parallel ingest bit-identical to sequential ingest.
#[allow(clippy::too_many_arguments)]
pub(crate) fn score_candidates<'a, F>(
    featurizer: &BatchFeaturizer,
    scorer: &SnapshotScorer,
    interner: &Interner,
    threshold: f64,
    new_on_left: bool,
    candidates: &[usize],
    derived_of: F,
    new_derived: &'a DerivedRecord,
    batch: &mut ScoreBatch,
    batched: bool,
    batch_meter: Option<&'static Histogram>,
) -> Vec<(usize, f64)>
where
    F: Fn(usize) -> &'a DerivedRecord,
{
    let mut matches: Vec<(usize, f64)> = Vec::new();
    if batched {
        if let Some(h) = batch_meter {
            h.record(candidates.len() as u64);
        }
        if !candidates.is_empty() {
            featurizer.fill_columns(
                interner,
                candidates.len(),
                |i| {
                    let c = derived_of(candidates[i]);
                    if new_on_left {
                        (new_derived, c)
                    } else {
                        (c, new_derived)
                    }
                },
                batch.cols_mut(),
            );
            let scores = scorer.score_batch(batch);
            for (&c, &p) in candidates.iter().zip(scores) {
                if p > threshold {
                    matches.push((c, p));
                }
            }
        }
    } else {
        let row = featurizer.row();
        let buf = batch.row_scratch();
        for &c in candidates {
            if new_on_left {
                row.raw_row_into(interner, new_derived, derived_of(c), buf);
            } else {
                row.raw_row_into(interner, derived_of(c), new_derived, buf);
            }
            let p = scorer.score_raw(buf);
            if p > threshold {
                matches.push((c, p));
            }
        }
    }
    matches.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite posteriors"));
    matches
}

impl<T: Topology> Pipeline<T> {
    /// Wraps a freshly fitted bootstrap: indexes every stored record
    /// under its side, applies the bootstrap decisions `base_matches` to
    /// the cluster index, and records the bootstrap meters (`sw` started
    /// before the fit).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn bootstrapped(
        topo: T,
        opts: StreamOptions,
        mut store: EntityStore,
        sides: Vec<Side>,
        featurizer: BatchFeaturizer,
        scorer: SnapshotScorer,
        base_matches: Vec<(usize, usize)>,
        candidates: usize,
        sw: Stopwatch,
    ) -> Self {
        debug_assert_eq!(featurizer.dim(), scorer.snapshot().dim());
        let mut indexes = vec![ShardedIndex::new(opts.index_config()); T::INDEXES];
        for i in 0..store.len() {
            let keys = RecordKeys::from_derived(store.derived(i), store.interner());
            indexes[home_slot(sides.get(i).copied())].insert_keys_at(i, &keys);
        }
        for &(a, b) in &base_matches {
            store.merge(a, b);
        }
        let meters = StageMeters::from_flag(opts.metrics, T::PREFIX);
        if let Some(m) = meters {
            sw.total(m.bootstrap);
            m.records.add(store.len() as u64);
            m.candidates.add(candidates as u64);
            m.matches.add(base_matches.len() as u64);
        }
        Self {
            opts,
            store,
            indexes,
            sides,
            featurizer,
            scorer,
            batch: ScoreBatch::new(),
            candidates_seen: candidates,
            base_matches,
            pending_tombstones: Vec::new(),
            pending_epoch: 0,
            meters,
            generation: 0,
            topo,
        }
    }

    /// Rebuilds a scoring pipeline with an empty store from a snapshot's
    /// parts. Runtime knobs are not persisted: `threshold` is the
    /// caller's, every other option comes back at its default. The
    /// persisted `tombstones` and `epoch` wait for `seed`.
    ///
    /// # Errors
    /// Fails if the snapshot is internally inconsistent (feature layout
    /// vs. model dimensionality), or if it carries tombstones for
    /// streamed (non-persisted) records.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn restore(
        topo: T,
        schema: Schema,
        attr_types: &[AttrType],
        index: &IndexConfig,
        model: &ModelSnapshot,
        base_matches: &[(usize, usize)],
        bootstrap_len: usize,
        tombstones: &[usize],
        epoch: u64,
        threshold: f64,
    ) -> Result<Self, StreamError> {
        let featurizer = BatchFeaturizer::new(attr_types);
        if featurizer.dim() != model.dim() {
            return Err(StreamError(format!(
                "snapshot attr types imply {} features but the {} has {}",
                featurizer.dim(),
                T::MODEL,
                model.dim()
            )));
        }
        if let Some(&t) = tombstones.iter().find(|&&t| t >= bootstrap_len) {
            return Err(StreamError(format!(
                "snapshot tombstones record {t}, which lies beyond the {bootstrap_len} bootstrap \
                 records; streamed records are not persisted, so their retractions cannot \
                 be restored"
            )));
        }
        let opts = StreamOptions {
            blocking_attr: index.attr,
            min_token_overlap: index.min_token_overlap,
            qgram: index.qgram,
            max_bucket: index.max_bucket,
            threshold,
            ..StreamOptions::default()
        };
        Ok(Self {
            store: EntityStore::new(schema, index.derive_config()),
            indexes: vec![ShardedIndex::new(index.clone()); T::INDEXES],
            sides: Vec::new(),
            featurizer,
            scorer: model.scorer()?,
            batch: ScoreBatch::new(),
            candidates_seen: 0,
            base_matches: base_matches.to_vec(),
            pending_tombstones: tombstones.to_vec(),
            pending_epoch: epoch,
            meters: StageMeters::from_flag(opts.metrics, T::PREFIX),
            opts,
            generation: 0,
            topo,
        })
    }

    /// Refuses to seed a pipeline whose store already holds records.
    pub(crate) fn check_unseeded(&self) -> Result<(), StreamError> {
        if self.store.is_empty() {
            Ok(())
        } else {
            Err(StreamError(
                "seed_base requires an empty (just-restored) pipeline".into(),
            ))
        }
    }

    /// Seeds a just-restored pipeline with its bootstrap tables, in
    /// store order, each tagged with its side (`None` under dedup):
    /// replays the persisted batch decisions (never re-scoring), then
    /// the persisted retractions, then re-pins the persisted epoch so
    /// the restored state orders exactly like the saved one. Callers
    /// first check the store is empty and the tables match the
    /// snapshot's provenance.
    ///
    /// # Errors
    /// Fails if a persisted tombstone cannot be replayed.
    pub(crate) fn seed(&mut self, tables: &[(Option<Side>, &Table)]) -> Result<(), StreamError> {
        let sw = Stopwatch::new(self.meters.is_some());
        for &(side, table) in tables {
            for r in table.records() {
                let derived = self.store.derive(r);
                let keys = RecordKeys::from_derived(&derived, self.store.interner());
                self.push(r.clone(), derived, side, Some(&keys));
            }
        }
        for &(a, b) in &self.base_matches {
            self.store.merge(a, b);
        }
        // Persisted tombstones name bootstrap records only (`restore`
        // rejected anything beyond).
        for i in std::mem::take(&mut self.pending_tombstones) {
            self.retract_now(i)?;
        }
        let epoch = self.pending_epoch.max(self.store.epoch());
        self.store.set_epoch(epoch);
        if let Some(m) = self.meters {
            sw.total(m.seed);
            m.records.add(self.store.len() as u64);
        }
        Ok(())
    }

    /// The tombstones and epoch a snapshot persists. Un-replayed pending
    /// tombstones pass through verbatim (the store cannot have its own
    /// while they exist — retraction is refused until `seed` consumes
    /// them).
    pub(crate) fn persisted_tombstones(&self) -> (Vec<usize>, u64) {
        if self.pending_tombstones.is_empty() {
            let retracted = (0..self.store.len()).filter(|&i| self.store.is_retracted(i));
            (retracted.collect(), self.store.epoch())
        } else {
            (self.pending_tombstones.clone(), self.pending_epoch)
        }
    }

    /// The live (non-retracted) records with their store indices, in
    /// store order — what a refit is fitted on.
    pub(crate) fn live_records(&self) -> impl Iterator<Item = (usize, &Record)> {
        let store = &self.store;
        let records = store.table().records().iter().enumerate();
        records.filter(move |&(i, _)| !store.is_retracted(i))
    }

    /// Swaps in a refitted scorer — from here on every scoring call sees
    /// the new model — advances the generation, and records the refresh
    /// meters (`sw` started before the fit). Returns the new generation.
    pub(crate) fn swap_scorer(&mut self, scorer: SnapshotScorer, sw: Stopwatch) -> u64 {
        debug_assert_eq!(scorer.snapshot().dim(), self.featurizer.dim());
        self.scorer = scorer;
        self.generation += 1;
        if let Some(m) = self.meters {
            sw.total(m.refresh);
            m.refreshes.incr();
        }
        self.generation
    }

    /// Pins the read state as an immutable, epoch-tagged [`ReadView`]
    /// (version 0 — a publisher stamps the real sequence number): the
    /// store's resolve-side state, the blocking indexes, and the frozen
    /// featurizer/scorer pair. Shares rather than copies the bulk (see
    /// [`ReadView`]).
    pub(crate) fn view(&self) -> ReadView {
        let store = &self.store;
        ReadView {
            epoch: store.epoch(),
            version: 0,
            interner: store.interner().clone(),
            derive_config: store.derive_config(),
            arity: store.table().schema().arity(),
            derived: store.derived_shared().to_vec(),
            tombstones: store.tombstones().to_vec(),
            clusters: store.union_find().clone(),
            indexes: self.indexes.clone(),
            featurizer: self.featurizer.clone(),
            scorer: self.scorer.clone(),
            threshold: self.opts.threshold,
            batched: self.opts.batched_scoring,
            score_meter: self.meters.map(|m| m.score_batch_candidates),
        }
    }

    /// Records posted across every index — equal to the store length
    /// between ingest calls (each record lives in exactly one index).
    fn indexed(&self) -> usize {
        self.indexes.iter().map(ShardedIndex::len).sum()
    }

    /// Panics unless `record` matches the schema arity.
    fn check_arity(&self, record: &Record) {
        let arity = self.store.table().schema().arity();
        assert_eq!(
            record.values.len(),
            arity,
            "record arity {} does not match schema arity {}",
            record.values.len(),
            arity
        );
    }

    /// Stores a derived record under its side; given `keys`, also posts
    /// them into that side's own index (dedup ingest already inserted
    /// them while probing).
    fn push(
        &mut self,
        record: Record,
        derived: DerivedRecord,
        side: Option<Side>,
        keys: Option<&RecordKeys>,
    ) -> usize {
        let idx = self.store.push_derived(record, derived);
        if let Some(side) = side {
            self.sides.push(side);
        }
        if let Some(keys) = keys {
            self.indexes[home_slot(side)].insert_keys_at(idx, keys);
        }
        idx
    }

    /// Applies a stored record's match decisions: it joins the cluster
    /// of every above-threshold candidate, in descending-posterior order.
    fn decide(
        &mut self,
        idx: usize,
        candidates: usize,
        matches: Vec<(usize, f64)>,
    ) -> IngestOutcome {
        for &(c, _) in &matches {
            self.store.merge(idx, c);
        }
        IngestOutcome {
            index: idx,
            candidates,
            cluster: self.store.find(idx),
            matches,
        }
    }

    /// Ingests one record of `side` (`None` under dedup): one derivation
    /// pass → incremental blocking → frozen-model scoring of every
    /// candidate → entity assignment. Runs **zero** EM iterations.
    ///
    /// # Panics
    /// Panics if the record arity does not match the schema.
    pub(crate) fn ingest_one(&mut self, record: Record, side: Option<Side>) -> IngestOutcome {
        // Validate before touching any state: a panic must not leave the
        // index one record ahead of the store.
        self.check_arity(&record);
        let m = self.meters;
        let mut sw = Stopwatch::new(m.is_some());
        let derived = self.store.derive(&record);
        let keys = RecordKeys::from_derived(&derived, self.store.interner());
        if let Some(m) = m {
            sw.lap(m.derive);
        }
        // Dedup probes and inserts its one index in a single pass;
        // linkage probes the opposite side's index read-only and keeps
        // the keys for its own side's.
        let (candidates, keys) = match side {
            None => (
                self.indexes[0].insert_keys_live(keys, self.store.tombstones()),
                None,
            ),
            Some(_) => (
                self.indexes[probe_slot(side)].probe_live(&keys, self.store.tombstones()),
                Some(keys),
            ),
        };
        self.candidates_seen += candidates.len();
        if let Some(m) = m {
            sw.lap(m.block);
            m.candidates.add(candidates.len() as u64);
        }
        let idx = self.push(record, derived, side, keys.as_ref());
        debug_assert_eq!(self.indexed(), self.store.len());

        let store = &self.store;
        let matches = score_candidates(
            &self.featurizer,
            &self.scorer,
            store.interner(),
            self.opts.threshold,
            side == Some(Side::Left),
            &candidates,
            |c| store.derived(c),
            store.derived(idx),
            &mut self.batch,
            self.opts.batched_scoring,
            m.map(|m| m.score_batch_candidates),
        );
        if let Some(m) = m {
            sw.lap(m.score);
        }
        if let Some(drift) = self.topo.drift() {
            // The batch buffers hold this record's prepared columns and
            // posteriors only when the batched path actually ran
            // (non-empty candidate list); `from_batch` rejects the empty
            // case itself.
            let sample = if self.opts.batched_scoring {
                DriftSample::from_batch(&self.batch, candidates.len())
            } else {
                None
            };
            drift.fold(candidates.len(), matches.len(), sample.as_ref());
        }
        let outcome = self.decide(idx, candidates.len(), matches);
        if let Some(m) = m {
            sw.lap(m.decide);
            sw.total(m.ingest);
            m.records.incr();
            m.matches.add(outcome.matches.len() as u64);
        }
        outcome
    }

    /// Ingests a batch of `side` records in order across `threads`
    /// workers, producing outcomes **bit-identical** to ingesting them
    /// one at a time — later records can match earlier records of the
    /// same batch under dedup.
    ///
    /// This works because the frozen model makes streaming inference
    /// embarrassingly parallel: candidate generation depends only on
    /// previously inserted records, and candidate scoring is read-only
    /// against the snapshot. The writes are serialized: fresh tokens
    /// discovered by the workers' scratch interners are committed into
    /// the store interner in ingest order (reproducing the sequential
    /// symbol numbering exactly — see `zeroer_textsim::derive`), and a
    /// single writer applies the match decisions in ingest order as the
    /// final step — so both the interner and the union-find evolve
    /// through exactly the sequential sequence of states.
    ///
    /// # Panics
    /// Panics if any record's arity does not match the schema — checked
    /// up front, before any state is touched, at every thread count.
    pub(crate) fn ingest_records(
        &mut self,
        records: Vec<Record>,
        side: Option<Side>,
        threads: usize,
    ) -> Vec<IngestOutcome> {
        for r in &records {
            self.check_arity(r);
        }
        if threads <= 1 || records.len() < 2 {
            return records
                .into_iter()
                .map(|r| self.ingest_one(r, side))
                .collect();
        }
        let n = records.len();
        let m = self.meters;
        let mut sw = Stopwatch::new(m.is_some());
        let (derived, keys) = self.derive_batch(&records, threads);
        if let Some(m) = m {
            sw.lap(m.batch_derive);
        }

        let (mut slots, keys): (Vec<Scored>, Vec<RecordKeys>) = match side {
            // Dedup candidate generation, parallel over index shards.
            // The tombstone set is frozen for the whole batch
            // (retraction needs `&mut self`), so every worker filters
            // identically and candidate lists stay bit-identical at any
            // thread count.
            None => {
                let candidates =
                    self.indexes[0].insert_batch_live(keys, threads, self.store.tombstones());
                if let Some(m) = m {
                    sw.lap(m.batch_block);
                }
                let slots = candidates.into_iter().map(|candidates| Scored {
                    candidates,
                    ..Scored::default()
                });
                (slots.collect(), Vec::new())
            }
            // A linkage batch probes only the opposite side's index,
            // which no record of the batch writes to: the probe rides
            // the read-only scoring phase, and there are no intra-batch
            // matches.
            Some(_) => ((0..n).map(|_| Scored::default()).collect(), keys),
        };
        let samples = self.topo.drift().is_some();
        self.score_batch(&mut slots, &derived, &keys, side, threads, samples);
        let batch_candidates = slots.iter().map(|s| s.candidates.len()).sum::<usize>();
        self.candidates_seen += batch_candidates;
        if let Some(m) = m {
            sw.lap(m.batch_score);
            m.candidates.add(batch_candidates as u64);
            m.batch_candidates.record(batch_candidates as u64);
        }

        // Single writer: store records, post linkage keys into their own
        // side's index, and apply match decisions in ingest order — the
        // union-find passes through exactly the states sequential ingest
        // would produce, and drift samples fold in the same order.
        let mut keys = keys.into_iter();
        let mut outcomes = Vec::with_capacity(n);
        for ((record, rec_derived), slot) in records.into_iter().zip(derived).zip(slots) {
            if let Some(drift) = self.topo.drift() {
                drift.fold(
                    slot.candidates.len(),
                    slot.matches.len(),
                    slot.sample.as_ref(),
                );
            }
            let idx = self.push(record, rec_derived, side, keys.next().as_ref());
            outcomes.push(self.decide(idx, slot.candidates.len(), slot.matches));
        }
        debug_assert_eq!(self.indexed(), self.store.len());
        if let Some(m) = m {
            sw.lap(m.batch_decide);
            sw.total(m.batch);
            m.records.add(n as u64);
            m.matches
                .add(outcomes.iter().map(|o| o.matches.len() as u64).sum());
        }
        outcomes
    }

    /// Derives a batch on `threads` workers against a frozen snapshot of
    /// the store interner — unseen tokens parked in per-worker scratch
    /// tables — then, as the single writer in ingest order, interns each
    /// record's fresh tokens (reproducing the sequential symbol
    /// numbering) and rebinds its derivation onto global symbols.
    fn derive_batch(
        &mut self,
        records: &[Record],
        threads: usize,
    ) -> (Vec<DerivedRecord>, Vec<RecordKeys>) {
        let cfg = self.store.derive_config();
        let chunk = records.len().div_ceil(threads).max(1);
        let interner = self.store.interner();
        let mut chunks: Vec<Option<(Vec<ScratchDerived>, Vec<String>)>> =
            records.chunks(chunk).map(|_| None).collect();
        crossbeam::thread::scope(|scope| {
            for (rec_chunk, out) in records.chunks(chunk).zip(chunks.iter_mut()) {
                let cfg = &cfg;
                scope.spawn(move |_| {
                    let mut deriver = ScratchDeriver::new(interner, cfg.clone());
                    let derived: Vec<ScratchDerived> = rec_chunk
                        .iter()
                        .map(|r| deriver.derive(&r.values))
                        .collect();
                    *out = Some((derived, deriver.into_texts()));
                });
            }
        })
        .expect("derivation worker panicked");

        let mut derived = Vec::with_capacity(records.len());
        let mut keys = Vec::with_capacity(records.len());
        for (chunk_derived, texts) in chunks.into_iter().map(|c| c.expect("filled above")) {
            let mut map: Vec<Option<Sym>> = vec![None; texts.len()];
            for sd in chunk_derived {
                let rec = sd.commit(&texts, &mut map, self.store.interner_mut());
                keys.push(RecordKeys::from_derived(&rec, self.store.interner()));
                derived.push(rec);
            }
        }
        (derived, keys)
    }

    /// Scores every slot of a batch on `threads` workers pulling small
    /// chunks from a shared queue, so a record with many candidates
    /// cannot straggle a static partition. Read-only: the batch's
    /// records are not stored yet, so candidates at or past the store
    /// length name earlier records of the same batch. Linkage slots are
    /// probed here against the frozen opposite index (`keys`); dedup
    /// slots arrive with their candidates.
    fn score_batch(
        &self,
        slots: &mut [Scored],
        derived: &[DerivedRecord],
        keys: &[RecordKeys],
        side: Option<Side>,
        threads: usize,
        samples: bool,
    ) {
        let base = self.store.len();
        let store = &self.store;
        let featurizer = &self.featurizer;
        let scorer = &self.scorer;
        let threshold = self.opts.threshold;
        let batched = self.opts.batched_scoring;
        let probe = side.map(|_| &self.indexes[probe_slot(side)]);
        let new_on_left = side == Some(Side::Left);
        let score_meter = self.meters.map(|m| m.score_batch_candidates);
        // Queue-wait sampling measures lock acquisition only (the pop
        // itself is O(1)); a handle copy, not `self`, crosses into the
        // workers.
        let queue_wait = self.meters.map(|m| m.queue_wait);
        let chunk = slots.len().div_ceil(threads * 8).max(1);
        let queue: Mutex<Vec<ScoreJob<'_>>> = Mutex::new(
            slots
                .chunks_mut(chunk)
                .enumerate()
                .map(|(ci, ch)| (ci * chunk, ch))
                .collect(),
        );
        crossbeam::thread::scope(|scope| {
            for _ in 0..threads {
                let queue = &queue;
                scope.spawn(move |_| {
                    let mut batch = ScoreBatch::new();
                    loop {
                        let before = queue_wait.map(|h| (h, std::time::Instant::now()));
                        let mut q = queue.lock().expect("queue poisoned");
                        let waited = before.map(|(h, t)| (h, t.elapsed()));
                        let job = q.pop();
                        drop(q);
                        if let Some((h, d)) = waited {
                            h.record(d.as_nanos().min(u64::MAX as u128) as u64);
                        }
                        let Some((start, out)) = job else { break };
                        for (off, slot) in out.iter_mut().enumerate() {
                            let i = start + off;
                            if let Some(index) = probe {
                                slot.candidates = index.probe_live(&keys[i], store.tombstones());
                            }
                            slot.matches = score_candidates(
                                featurizer,
                                scorer,
                                store.interner(),
                                threshold,
                                new_on_left,
                                &slot.candidates,
                                |c| {
                                    if c < base {
                                        store.derived(c)
                                    } else {
                                        &derived[c - base]
                                    }
                                },
                                &derived[i],
                                &mut batch,
                                batched,
                                score_meter,
                            );
                            // Sample the worker's batch buffers now,
                            // while they still hold record `i`'s prepared
                            // columns and posteriors; the single writer
                            // folds the samples in ingest order, so the
                            // drift stream stays bit-identical to the
                            // sequential path.
                            if samples && batched {
                                slot.sample =
                                    DriftSample::from_batch(&batch, slot.candidates.len());
                            }
                        }
                    }
                });
            }
        })
        .expect("scoring worker panicked");
    }

    /// The shared retraction core: tombstone the record in the store
    /// (rebuilding its connected component from the decision log) and
    /// mark its postings dead in its own side's index. No watermark
    /// check — `seed` replays persisted tombstones through this without
    /// compacting.
    fn retract_now(&mut self, idx: usize) -> Result<RetractionReport, StreamError> {
        if idx >= self.store.len() {
            return Err(StreamError(format!(
                "unknown record index {idx} (store holds {} records)",
                self.store.len()
            )));
        }
        if self.store.is_retracted(idx) {
            return Err(StreamError(format!("record {idx} is already retracted")));
        }
        // Capture the keys before the store mutates: the derivation is
        // the only place the record's blocking keys live.
        let keys = RecordKeys::from_derived(self.store.derived(idx), self.store.interner());
        let out = self.store.retract(idx).map_err(StreamError)?;
        let home = home_slot(self.sides.get(idx).copied());
        let postings_tombstoned = self.indexes[home].retract_keys(idx, &keys);
        Ok(RetractionReport {
            epoch: out.epoch,
            component_size: out.component_size,
            postings_tombstoned,
            auto_compaction: None,
        })
    }

    /// Runs [`Pipeline::compact`] when the dead-posting fraction across
    /// every index has crossed the configured watermark.
    fn maybe_autocompact(&mut self) -> Option<CompactionReport> {
        let watermark = self.opts.compact_watermark?;
        let (mut postings, mut dead) = (0, 0);
        for index in &self.indexes {
            let (p, d) = index.posting_counts();
            postings += p;
            dead += d;
        }
        if dead > 0 && dead as f64 >= watermark * postings.max(1) as f64 {
            Some(self.compact())
        } else {
            None
        }
    }

    /// The entity store (every side's records, in one numbering:
    /// bootstrap records first — left before right under linkage — then
    /// streamed records in arrival order).
    pub fn store(&self) -> &EntityStore {
        &self.store
    }

    /// The options in effect. For pipelines restored from a snapshot,
    /// `config` is `ZeroErConfig::default()` — the fit-time
    /// configuration is consumed by the bootstrap EM run and is not
    /// stored in the snapshot (scoring depends only on the frozen
    /// parameters).
    pub fn options(&self) -> &StreamOptions {
        &self.opts
    }

    /// Enables or disables this pipeline's stage metrics (see
    /// [`StreamOptions::metrics`]; the prefix is `stream` for dedup and
    /// `link` for linkage). A runtime knob, not persisted in snapshots.
    /// Metrics are purely observational: on or off, every decision,
    /// cluster and snapshot is bit-identical.
    pub fn set_metrics(&mut self, on: bool) {
        self.opts.metrics = on;
        self.meters = StageMeters::from_flag(on, T::PREFIX);
    }

    /// Switches candidate scoring between the struct-of-arrays batched
    /// kernels and the row-at-a-time scalar loop (see
    /// [`StreamOptions::batched_scoring`]). A runtime knob, not
    /// persisted in snapshots. On or off, every posterior, decision,
    /// cluster and snapshot is bit-identical — the flag only trades the
    /// evaluation strategy.
    pub fn set_batched_scoring(&mut self, on: bool) {
        self.opts.batched_scoring = on;
    }

    /// Number of stored records (bootstrap records included,
    /// tombstoned slots too).
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether nothing has been stored.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The pipeline epoch: advances on every retraction and compaction.
    pub fn epoch(&self) -> u64 {
        self.store.epoch()
    }

    /// How many times `refit` has swapped the frozen model (0 = still
    /// serving the bootstrap model).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Derivation and blocking observability counters; index counters
    /// aggregate every side's index.
    pub fn stats(&self) -> StreamStats {
        let mut index = IndexStats::default();
        for ix in &self.indexes {
            let s = ix.stats();
            index.token.absorb(s.token);
            index.qgram.absorb(s.qgram);
        }
        StreamStats {
            interned_tokens: self.store.interner().len(),
            interned_bytes: self.store.interner().bytes(),
            index,
            candidate_pairs: self.candidates_seen,
            live_records: self.store.live_len(),
            retracted_records: self.store.retracted_count(),
            decision_log: self.store.decision_log_len(),
            epoch: self.store.epoch(),
        }
    }

    /// Current entity clusters (≥ 2 members) over the store numbering,
    /// in the same shape `dedup_table` reports. Retracted records never
    /// appear.
    pub fn clusters(&self) -> Vec<Vec<usize>> {
        self.store.clusters()
    }

    /// Retracts record `idx`: the record is tombstoned, its connected
    /// component's clusters are rebuilt from the match-decision log as
    /// if it had never been ingested, and its index postings are marked
    /// dead (candidates never see it again). If the dead-posting
    /// fraction then crosses [`StreamOptions::compact_watermark`], the
    /// pipeline compacts itself and reports it.
    ///
    /// Record indices are never reused: every other record keeps its
    /// index, and the slot stays allocated until compaction releases its
    /// heavy state.
    ///
    /// # Errors
    /// Fails on an out-of-range index, an already-retracted record, or a
    /// snapshot-restored pipeline whose persisted tombstones have not
    /// been replayed yet (call `seed_base` first).
    pub fn retract(&mut self, idx: usize) -> Result<RetractionReport, StreamError> {
        if !self.pending_tombstones.is_empty() {
            return Err(StreamError(
                "snapshot tombstones are pending; seed_base must replay the bootstrap \
                 records before new retractions"
                    .into(),
            ));
        }
        let m = self.meters;
        let sw = Stopwatch::new(m.is_some());
        let mut report = self.retract_now(idx)?;
        report.auto_compaction = self.maybe_autocompact();
        if let Some(c) = &report.auto_compaction {
            report.epoch = c.epoch;
        }
        if let Some(m) = m {
            // Includes any auto-compaction the watermark triggered
            // (which also times itself under `{p}.compact.ns`).
            sw.total(m.retract);
            m.retractions.incr();
        }
        Ok(report)
    }

    /// Compacts the pipeline in place: drops tombstoned postings from
    /// every index, frees emptied and cap-retired buckets, prunes dead
    /// decision-log edges, and releases retracted records' derivations.
    /// Advances the epoch.
    ///
    /// Dead postings and dead log edges were already invisible, so
    /// dropping them never changes behavior. The one semantic edge is
    /// cap-retired (`Dead`) bucket markers: compaction removes them, so
    /// a formerly hot blocking key becomes pairable again until its
    /// *live* population re-crosses the frequency cap — the state a
    /// fresh index over the surviving records would be in. See the
    /// retraction section of the `crate::index` module docs.
    pub fn compact(&mut self) -> CompactionReport {
        let m = self.meters;
        let sw = Stopwatch::new(m.is_some());
        let mut index = CompactionDelta::default();
        for ix in &mut self.indexes {
            index.absorb(ix.compact(self.store.tombstones()));
        }
        let store = self.store.compact();
        let report = CompactionReport {
            epoch: self.store.epoch(),
            index,
            store,
        };
        if let Some(m) = m {
            sw.total(m.compact);
            m.compactions.incr();
            m.reclaimed_bytes.add(report.bytes_reclaimed() as u64);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use crate::{LinkPipeline, Side, StreamOptions, StreamPipeline};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use zeroer_tabular::csv::read_table;
    use zeroer_tabular::{Record, Value};

    fn rec(id: u32, name: &str, city: &str) -> Record {
        Record::new(id, vec![name.into(), city.into()])
    }

    fn table(rows: &str) -> zeroer_tabular::Table {
        read_table("t", &format!("name,city\n{rows}")).expect("fixture parses")
    }

    #[test]
    fn records_digest_is_pinned() {
        // Snapshots persist this digest and `seed_base` compares against
        // it, so the value must never change.
        let records = vec![
            Record::new(7, vec!["Golden Dragon Palace".into(), Value::Int(42)]),
            Record::new(8, vec![Value::Null, Value::Float(3.5)]),
        ];
        assert_eq!(super::records_digest(&records), 0x79b0_c328_de39_51d3);
    }

    #[test]
    fn a_bad_batch_applies_nothing_at_any_thread_count() {
        let base = "Golden Dragon Palace,new york\nGolden Dragon Palce,new york\n\
                    Blue Sky Tavern,austin\nRustic Oak Kitchen,denver\n";
        let batch = || {
            vec![
                rec(100, "Golden Dragon Palace", "new york"),
                Record::new(101, vec!["only one value".into()]),
            ]
        };
        for threads in [1, 2] {
            let (mut p, _) =
                StreamPipeline::bootstrap(&table(base), StreamOptions::default()).unwrap();
            let (len, pairs) = (p.len(), p.stats().candidate_pairs);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                p.ingest_batch_parallel(batch(), threads)
            }));
            assert!(caught.is_err(), "threads={threads}: arity mismatch panics");
            assert_eq!(p.len(), len, "dedup threads={threads}");
            assert_eq!(p.stats().candidate_pairs, pairs, "dedup threads={threads}");

            let (mut p, _) =
                LinkPipeline::bootstrap(&table(base), &table(base), StreamOptions::default())
                    .unwrap();
            let (len, pairs) = (p.len(), p.stats().candidate_pairs);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                p.ingest_batch_parallel(batch(), Side::Right, threads)
            }));
            assert!(caught.is_err(), "threads={threads}: arity mismatch panics");
            assert_eq!(p.len(), len, "linkage threads={threads}");
            assert_eq!(
                p.stats().candidate_pairs,
                pairs,
                "linkage threads={threads}"
            );
        }
    }
}
