//! The explicit read/write split over [`StreamPipeline`].
//!
//! A long-running resolution service interleaves two very different
//! workloads over the same state: **resolve** queries ("which entity
//! would this record join?") that must answer concurrently and never
//! block, and **writes** (ingest/retract/compact) that must preserve the
//! single-writer decision order proven bit-identical in the batch-ingest
//! suites. This module splits [`StreamPipeline`] into those two halves:
//!
//! * **Read path** — [`ReadHandle`]: pins an immutable, epoch-tagged
//!   [`ReadView`] of the pipeline (store + index + frozen scorer) and
//!   answers [`ReadHandle::resolve`] through the same lock-free
//!   [`ShardedIndex::probe_live`] + `score_candidates` code the ingest
//!   path uses — identical candidates, identical posteriors (to
//!   `f64::to_bits`), but **no** locks shared with the writer and no
//!   mutation. Any number of handles resolve concurrently; each is
//!   pinned until it explicitly [`ReadHandle::refresh`]es, so a resolve
//!   can never observe a half-applied write.
//! * **Write path** — [`WriteHandle`] → admission queue → one writer
//!   thread. Writes are admitted in submission order, consecutive
//!   ingest requests are coalesced into one micro-batch, and the batch
//!   is applied through [`StreamPipeline::ingest_batch_parallel`] — the
//!   existing single-writer protocol — so outcomes are bit-identical to
//!   submitting the same records one at a time to a lone
//!   [`StreamPipeline`]. After each drained queue batch the writer
//!   publishes **one** fresh [`ReadView`] covering every write it
//!   applied (success replies are held back until after that publish,
//!   so read-your-writes still holds); readers pick it up at their
//!   next refresh.
//!
//! The view swap is an atomic `Arc` replacement behind a brief
//! [`RwLock`] critical section (pointer assignment only — never held
//! across scoring or ingest work, nor across freeing the superseded
//! view), which makes this the seam the snapshot lifecycle slots into:
//! [`WriteHandle::refresh`] re-fits the model on the writer
//! ([`StreamPipeline::refit`]) and the swapped scorer rides the very
//! same publication — concurrent resolvers see either the old model or
//! the new one, never a torn mix.
//!
//! Publishing shares the read state instead of copying it. The interner
//! and every index bucket map are copy-on-write at chunk and part
//! granularity, and each record's derivation sits behind its own `Arc`,
//! so a publish copies pointers plus the tombstone flags and the
//! union-find arrays; the next write copies only the chunks and parts
//! it touches before changing them (see [`ReadView`]). A publish
//! therefore costs what the writes since the last one touched, not
//! O(live records + postings + interned tokens), and no reader can
//! observe the writer's later state. `stream.publish.ns` times it.

use crate::engine::{probe_slot, score_candidates};
use crate::link::Side;
use crate::pipeline::{IngestOutcome, StreamError, StreamPipeline};
use crate::shard::{RecordKeys, ShardedIndex};
use crate::{CompactionReport, RetractionReport};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use zeroer_core::{ScoreBatch, SnapshotScorer, UnionFind};
use zeroer_features::BatchFeaturizer;
use zeroer_obs::Histogram;
use zeroer_tabular::Record;
use zeroer_textsim::derive::{DeriveConfig, DerivedRecord, Deriver};
use zeroer_textsim::intern::Interner;

/// An immutable, epoch-tagged view of a pipeline's read state: exactly
/// what a resolve reads — the interner, every record's derivation, the
/// tombstones, the cluster union-find, the blocking indexes, and the
/// frozen scorer. Constructed by [`StreamPipeline::read_view`] (or
/// pinned off a [`crate::LinkPipeline`]), shared via `Arc` among
/// [`ReadHandle`]s, and never mutated after publication.
///
/// A view shares its bulk with the writer instead of copying it: the
/// interner and the index bucket maps are copy-on-write at chunk and
/// part granularity, and the derivations are one `Arc` per record, so
/// building a view copies pointers plus the tombstone flags and the
/// union-find arrays (two flat `memcpy`s). The writer's later writes
/// copy the parts they touch before changing them, so a view never
/// observes them. The table records and the decision log never enter a
/// view.
pub struct ReadView {
    /// Pipeline epoch at pin time (advances on retraction/compaction).
    pub(crate) epoch: u64,
    /// Publication sequence number (0 for the initial view); lets a
    /// handle detect staleness without comparing state.
    pub(crate) version: u64,
    /// The store interner: the symbol space of every derivation and
    /// index posting below.
    pub(crate) interner: Interner,
    /// The derivation configuration queries are derived under.
    pub(crate) derive_config: DeriveConfig,
    /// Schema arity resolve queries must match.
    pub(crate) arity: usize,
    /// Every stored record's derivation, by record index.
    pub(crate) derived: Vec<Arc<DerivedRecord>>,
    /// `tombstones[i]` — record `i` was retracted.
    pub(crate) tombstones: Vec<bool>,
    /// The cluster index, for the representative a match would join.
    pub(crate) clusters: UnionFind,
    /// The pipeline's blocking indexes: the dedup index, or one per
    /// linkage side.
    pub(crate) indexes: Vec<ShardedIndex>,
    pub(crate) featurizer: BatchFeaturizer,
    pub(crate) scorer: SnapshotScorer,
    pub(crate) threshold: f64,
    /// Whether resolves ride the struct-of-arrays batched scoring
    /// kernels (pinned from [`crate::StreamOptions::batched_scoring`]
    /// at view-publication time; bit-identical either way).
    pub(crate) batched: bool,
    /// The `stream.score.batch_candidates` histogram handle, pinned at
    /// publication time; `None` when the pipeline's metrics are off.
    pub(crate) score_meter: Option<&'static Histogram>,
}

impl ReadView {
    /// A deriver over this view's interner: a handle's private overlay
    /// (see [`ReadHandle`]). The interner clone copies pointers only.
    fn deriver(&self) -> Deriver {
        Deriver::with_interner(self.interner.clone(), self.derive_config.clone())
    }
}

/// What a [`ReadHandle::resolve`] query found — the read-only analogue
/// of [`IngestOutcome`], answered against one pinned [`ReadView`]
/// without admitting the record.
#[derive(Debug, Clone)]
pub struct ResolveOutcome {
    /// Epoch of the view the query was answered against.
    pub epoch: u64,
    /// Candidates the blocking probe produced (live records only).
    pub candidates: usize,
    /// Candidates scoring above the threshold as `(record index,
    /// posterior)`, sorted by descending posterior — bit-identical to
    /// what [`StreamPipeline::ingest`] would report for this record.
    pub matches: Vec<(usize, f64)>,
    /// Cluster representative the record would join (the best match's
    /// entity), or `None` if it would mint a new entity.
    pub cluster: Option<usize>,
}

impl ResolveOutcome {
    /// Whether the record would mint a new entity.
    pub fn is_new_entity(&self) -> bool {
        self.matches.is_empty()
    }
}

/// A shareable, epoch-pinned resolver over a [`ReadView`].
///
/// Each handle owns a private deriver seeded from the view's interner
/// (an *overlay*: tokens already interned at pin time keep their exact
/// symbols, tokens first seen in a query get handle-local symbols that
/// cannot collide with any index posting), plus a private scratch
/// buffer — so concurrent handles share only the immutable view and
/// never contend.
///
/// The handle stays pinned to its view until [`ReadHandle::refresh`] is
/// called; resolves are deterministic against the pinned epoch even
/// while the write path is busy publishing newer views.
pub struct ReadHandle {
    view: Arc<ReadView>,
    deriver: Deriver,
    batch: ScoreBatch,
    /// Present when the handle came from a [`SplitPipeline`] (and can
    /// therefore refresh); `None` for a standalone pin.
    shared: Option<Arc<Shared>>,
}

impl Clone for ReadHandle {
    fn clone(&self) -> Self {
        Self {
            view: Arc::clone(&self.view),
            deriver: self.deriver.clone(),
            batch: ScoreBatch::new(),
            shared: self.shared.clone(),
        }
    }
}

impl ReadHandle {
    fn pin(view: Arc<ReadView>, shared: Option<Arc<Shared>>) -> Self {
        let deriver = view.deriver();
        Self {
            view,
            deriver,
            batch: ScoreBatch::new(),
            shared,
        }
    }

    /// A standalone handle over `view`: it has no write path to
    /// refresh from.
    pub(crate) fn standalone(view: ReadView) -> Self {
        Self::pin(Arc::new(view), None)
    }

    /// Epoch of the pinned view.
    pub fn epoch(&self) -> u64 {
        self.view.epoch
    }

    /// Publication sequence number of the pinned view.
    pub fn version(&self) -> u64 {
        self.view.version
    }

    /// Records visible in the pinned view (tombstoned slots included,
    /// exactly like [`StreamPipeline::len`]).
    pub fn len(&self) -> usize {
        self.view.derived.len()
    }

    /// Whether the pinned view is empty.
    pub fn is_empty(&self) -> bool {
        self.view.derived.is_empty()
    }

    /// Schema arity resolve queries must match.
    pub fn arity(&self) -> usize {
        self.view.arity
    }

    /// Resolves one record against the pinned view: derive → lock-free
    /// candidate probe ([`ShardedIndex::probe_live`]) → frozen-model
    /// scoring — the exact candidate rule and scoring code of
    /// [`StreamPipeline::ingest`], minus the insertion. Nothing is
    /// admitted and no writer state is touched.
    ///
    /// # Panics
    /// Panics if the record arity does not match the schema.
    pub fn resolve(&mut self, record: &Record) -> ResolveOutcome {
        self.resolve_as(record, None)
    }

    /// Resolves a record of `side` (`None` under dedup): the view's
    /// index that ingest would probe for it, scored in ingest's pair
    /// orientation — the read path of both topologies.
    pub(crate) fn resolve_as(&mut self, record: &Record, side: Option<Side>) -> ResolveOutcome {
        let view = &*self.view;
        assert_eq!(
            record.values.len(),
            view.arity,
            "record arity {} does not match schema arity {}",
            record.values.len(),
            view.arity
        );
        let derived = self.deriver.derive(&record.values);
        let keys = RecordKeys::from_derived(&derived, self.deriver.interner());
        let candidates = view.indexes[probe_slot(side)].probe_live(&keys, &view.tombstones);
        let matches = score_candidates(
            &view.featurizer,
            &view.scorer,
            self.deriver.interner(),
            view.threshold,
            side == Some(Side::Left),
            &candidates,
            |c| &*view.derived[c],
            &derived,
            &mut self.batch,
            view.batched,
            view.score_meter,
        );
        ResolveOutcome {
            epoch: view.epoch,
            candidates: candidates.len(),
            cluster: matches
                .first()
                .map(|&(c, _)| view.clusters.find_readonly(c)),
            matches,
        }
    }

    /// Re-pins the handle to the latest published view, if any newer
    /// one exists. Returns whether the view changed. Standalone handles
    /// (pinned directly off a [`StreamPipeline`]) have nothing to
    /// refresh from and always return `false`.
    pub fn refresh(&mut self) -> bool {
        let Some(shared) = &self.shared else {
            return false;
        };
        let latest = Arc::clone(&read_lock(&shared.view));
        if latest.version == self.view.version {
            return false;
        }
        self.deriver = latest.deriver();
        self.view = latest;
        true
    }
}

/// One queued write operation.
enum WriteOp {
    Ingest(Vec<Record>),
    Retract(Vec<usize>),
    Compact,
    Refresh,
    Snapshot,
    Stats,
}

/// The writer's reply to one operation.
enum WriteReply {
    Ingested(Vec<IngestOutcome>),
    Retracted(Vec<RetractionReport>),
    Compacted(CompactionReport),
    Refreshed(crate::RefreshReport),
    Snapshot(String),
    Stats(String),
    Failed(StreamError),
}

struct Pending {
    op: WriteOp,
    reply: mpsc::Sender<WriteReply>,
}

struct AdmissionQueue {
    ops: VecDeque<Pending>,
    closed: bool,
}

/// State shared between handles and the writer thread.
struct Shared {
    queue: Mutex<AdmissionQueue>,
    admitted: Condvar,
    view: RwLock<Arc<ReadView>>,
}

/// Locks a mutex, recovering the data if a previous holder panicked
/// (queue and view state stay structurally valid across panics — each
/// critical section only moves whole elements).
fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn read_lock(l: &RwLock<Arc<ReadView>>) -> Arc<ReadView> {
    Arc::clone(&l.read().unwrap_or_else(|e| e.into_inner()))
}

/// The write half: submits operations into the admission queue and
/// blocks until the single writer has applied them, preserving
/// submission order. Cheap to clone; every clone feeds the same queue.
#[derive(Clone)]
pub struct WriteHandle {
    shared: Arc<Shared>,
}

impl WriteHandle {
    fn submit(&self, op: WriteOp) -> Result<WriteReply, StreamError> {
        let (tx, rx) = mpsc::channel();
        {
            let mut q = lock(&self.shared.queue);
            if q.closed {
                return Err(StreamError("write path is shut down".into()));
            }
            q.ops.push_back(Pending { op, reply: tx });
        }
        self.shared.admitted.notify_all();
        rx.recv()
            .map_err(|_| StreamError("writer thread exited before replying".into()))
    }

    /// Ingests a batch through the admission queue (one micro-batch
    /// slot; consecutive pending ingests coalesce into one parallel
    /// apply). Blocks until applied; outcomes are bit-identical to
    /// [`StreamPipeline::ingest_batch`] on the same records in the same
    /// admission order.
    ///
    /// # Errors
    /// Fails when a record's arity does not match the schema, or when
    /// the write path is shut down. Arity failures reject the whole
    /// request before any record of it is applied.
    pub fn ingest(&self, records: Vec<Record>) -> Result<Vec<IngestOutcome>, StreamError> {
        match self.submit(WriteOp::Ingest(records))? {
            WriteReply::Ingested(out) => Ok(out),
            WriteReply::Failed(e) => Err(e),
            _ => unreachable!("ingest op answered with a non-ingest reply"),
        }
    }

    /// Retracts records by index — all-or-nothing, like
    /// [`StreamPipeline::retract_batch`].
    ///
    /// # Errors
    /// Fails like [`StreamPipeline::retract_batch`] (unknown index,
    /// double retraction, …) or when the write path is shut down.
    pub fn retract(&self, ids: Vec<usize>) -> Result<Vec<RetractionReport>, StreamError> {
        match self.submit(WriteOp::Retract(ids))? {
            WriteReply::Retracted(out) => Ok(out),
            WriteReply::Failed(e) => Err(e),
            _ => unreachable!("retract op answered with a non-retract reply"),
        }
    }

    /// Runs one compaction pass on the writer.
    ///
    /// # Errors
    /// Fails when the write path is shut down.
    pub fn compact(&self) -> Result<CompactionReport, StreamError> {
        match self.submit(WriteOp::Compact)? {
            WriteReply::Compacted(out) => Ok(out),
            WriteReply::Failed(e) => Err(e),
            _ => unreachable!("compact op answered with a non-compact reply"),
        }
    }

    /// Re-fits the model over the writer's live records and swaps the
    /// frozen scorer ([`StreamPipeline::refit`]). The swap rides the
    /// normal publication path: by the time this returns, every
    /// subsequently pinned or refreshed [`ReadHandle`] scores with the
    /// new model, and views pinned earlier keep the old one — never a
    /// torn mix.
    ///
    /// # Errors
    /// Fails like [`StreamPipeline::refit`] (no candidate pairs,
    /// degenerate fit, structural drift) or when the write path is shut
    /// down. A failed refit leaves the serving model untouched.
    pub fn refresh(&self) -> Result<crate::RefreshReport, StreamError> {
        match self.submit(WriteOp::Refresh)? {
            WriteReply::Refreshed(report) => Ok(report),
            WriteReply::Failed(e) => Err(e),
            _ => unreachable!("refresh op answered with a non-refresh reply"),
        }
    }

    /// Serializes the writer's current snapshot
    /// ([`StreamPipeline::snapshot`]) to JSON.
    ///
    /// # Errors
    /// Fails when the write path is shut down.
    pub fn snapshot_json(&self) -> Result<String, StreamError> {
        match self.submit(WriteOp::Snapshot)? {
            WriteReply::Snapshot(out) => Ok(out),
            WriteReply::Failed(e) => Err(e),
            _ => unreachable!("snapshot op answered with a non-snapshot reply"),
        }
    }

    /// Publishes the writer's gauges and renders the `--stats` block
    /// via [`crate::render_stats`] — the same bytes the CLI prints.
    ///
    /// # Errors
    /// Fails when the write path is shut down.
    pub fn stats(&self) -> Result<String, StreamError> {
        match self.submit(WriteOp::Stats)? {
            WriteReply::Stats(out) => Ok(out),
            WriteReply::Failed(e) => Err(e),
            _ => unreachable!("stats op answered with a non-stats reply"),
        }
    }
}

/// A [`StreamPipeline`] split into its read and write halves: the
/// pipeline moves onto a dedicated writer thread, reads go through
/// epoch-pinned [`ReadHandle`]s, and writes go through the
/// [`WriteHandle`] admission queue. [`SplitPipeline::shutdown`] drains
/// the queue and hands the pipeline back.
pub struct SplitPipeline {
    shared: Arc<Shared>,
    writer: Option<std::thread::JoinHandle<StreamPipeline>>,
}

impl SplitPipeline {
    /// Splits the pipeline with a single-threaded writer.
    pub fn new(pipeline: StreamPipeline) -> Self {
        Self::with_threads(pipeline, 1)
    }

    /// Splits the pipeline; coalesced ingest micro-batches are applied
    /// via [`StreamPipeline::ingest_batch_parallel`] with `threads`
    /// workers (bit-identical at any thread count).
    pub fn with_threads(pipeline: StreamPipeline, threads: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(AdmissionQueue {
                ops: VecDeque::new(),
                closed: false,
            }),
            admitted: Condvar::new(),
            view: RwLock::new(Arc::new(pipeline.read_view())),
        });
        let writer_shared = Arc::clone(&shared);
        let writer = std::thread::Builder::new()
            .name("zeroer-writer".into())
            .spawn(move || writer_loop(pipeline, &writer_shared, threads))
            .expect("spawning the writer thread");
        Self {
            shared,
            writer: Some(writer),
        }
    }

    /// A fresh read handle pinned to the latest published view.
    pub fn read_handle(&self) -> ReadHandle {
        ReadHandle::pin(read_lock(&self.shared.view), Some(Arc::clone(&self.shared)))
    }

    /// The write handle feeding the admission queue.
    pub fn write_handle(&self) -> WriteHandle {
        WriteHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Closes the admission queue, waits for the writer to drain every
    /// already-admitted operation, and returns the pipeline. Operations
    /// submitted after shutdown fail with a shut-down error.
    pub fn shutdown(mut self) -> StreamPipeline {
        self.close();
        self.writer
            .take()
            .expect("writer joined exactly once")
            .join()
            .expect("writer thread panicked")
    }

    fn close(&self) {
        lock(&self.shared.queue).closed = true;
        self.shared.admitted.notify_all();
    }
}

impl Drop for SplitPipeline {
    fn drop(&mut self) {
        if let Some(writer) = self.writer.take() {
            self.close();
            let _ = writer.join();
        }
    }
}

/// The single-writer loop: wait for admitted operations, apply them in
/// admission order (coalescing consecutive ingests into one
/// micro-batch), publish **one** fresh [`ReadView`] per drained queue
/// batch, and reply to each submitter. Returns the pipeline when the
/// queue is closed and drained.
///
/// Publishing once per drain (not once per applied op) means the k−1
/// views no reader could ever pin are never built, and a part written
/// by several ops of one drain is copied once, not once per op.
/// Read-your-writes is preserved by *deferring* the success replies of
/// mutating ops until after the batch-end publish: a submitter never
/// learns its write succeeded before a view containing it is pinnable.
/// Failures (and the read-only snapshot/stats ops) reply immediately —
/// they publish nothing.
fn writer_loop(mut pipeline: StreamPipeline, shared: &Shared, threads: usize) -> StreamPipeline {
    let mut version = 0u64;
    loop {
        let drained: Vec<Pending> = {
            let mut q = lock(&shared.queue);
            while q.ops.is_empty() && !q.closed {
                q = shared.admitted.wait(q).unwrap_or_else(|e| e.into_inner());
            }
            if q.ops.is_empty() {
                return pipeline;
            }
            q.ops.drain(..).collect()
        };
        let arity = pipeline.store().table().schema().arity();
        let metrics = pipeline.options().metrics;
        let mut dirty = false;
        let mut deferred: Vec<(mpsc::Sender<WriteReply>, WriteReply)> = Vec::new();
        let mut iter = drained.into_iter().peekable();
        while let Some(pending) = iter.next() {
            match pending.op {
                WriteOp::Ingest(records) => {
                    // Coalesce the maximal run of consecutive ingest
                    // requests into one micro-batch, keeping each
                    // request's record-count boundary so outcomes can
                    // be split back per submitter. Requests with an
                    // arity mismatch are rejected up front (whole
                    // request, nothing applied) — the batch apply would
                    // otherwise panic the writer.
                    let mut batch: Vec<Record> = Vec::new();
                    let mut requests: Vec<(usize, mpsc::Sender<WriteReply>)> = Vec::new();
                    let mut admit = |records: Vec<Record>,
                                     reply: mpsc::Sender<WriteReply>,
                                     batch: &mut Vec<Record>| {
                        if let Some(r) = records.iter().find(|r| r.values.len() != arity) {
                            let _ = reply.send(WriteReply::Failed(StreamError(format!(
                                "record arity {} does not match schema arity {arity}",
                                r.values.len()
                            ))));
                            return;
                        }
                        requests.push((records.len(), reply));
                        batch.extend(records);
                    };
                    admit(records, pending.reply, &mut batch);
                    while matches!(iter.peek(), Some(p) if matches!(p.op, WriteOp::Ingest(_))) {
                        let next = iter.next().expect("peeked");
                        let WriteOp::Ingest(records) = next.op else {
                            unreachable!("peek matched an ingest op");
                        };
                        admit(records, next.reply, &mut batch);
                    }
                    if metrics {
                        zeroer_obs::histogram("stream.admit.batch_records")
                            .record(batch.len() as u64);
                    }
                    let mut outcomes = pipeline.ingest_batch_parallel(batch, threads).into_iter();
                    dirty = true;
                    for (count, reply) in requests {
                        let out: Vec<IngestOutcome> = outcomes.by_ref().take(count).collect();
                        deferred.push((reply, WriteReply::Ingested(out)));
                    }
                }
                WriteOp::Retract(ids) => match pipeline.retract_batch(&ids) {
                    Ok(reports) => {
                        dirty = true;
                        deferred.push((pending.reply, WriteReply::Retracted(reports)));
                    }
                    Err(e) => {
                        let _ = pending.reply.send(WriteReply::Failed(e));
                    }
                },
                WriteOp::Compact => {
                    let report = pipeline.compact();
                    dirty = true;
                    deferred.push((pending.reply, WriteReply::Compacted(report)));
                }
                WriteOp::Refresh => match pipeline.refit() {
                    Ok(report) => {
                        dirty = true;
                        deferred.push((pending.reply, WriteReply::Refreshed(report)));
                    }
                    Err(e) => {
                        let _ = pending.reply.send(WriteReply::Failed(e));
                    }
                },
                WriteOp::Snapshot => {
                    let json = pipeline.snapshot().to_json();
                    let _ = pending.reply.send(WriteReply::Snapshot(json));
                }
                WriteOp::Stats => {
                    pipeline.stats().publish();
                    let _ = pending.reply.send(WriteReply::Stats(crate::render_stats()));
                }
            }
        }
        if dirty {
            publish(&pipeline, shared, &mut version);
        }
        for (reply, msg) in deferred {
            let _ = reply.send(msg);
        }
    }
}

/// Publishes the writer's current read state as the next view version.
/// Only the pointer swap holds the view lock: the view is built before
/// it, and the superseded view is released after it — when no handle
/// pinned it, that release frees everything only it still held, which
/// must not stall a reader's refresh.
fn publish(pipeline: &StreamPipeline, shared: &Shared, version: &mut u64) {
    *version += 1;
    let sw = zeroer_obs::Stopwatch::new(pipeline.options().metrics);
    let mut view = pipeline.read_view();
    view.version = *version;
    sw.total(zeroer_obs::histogram("stream.publish.ns"));
    let next = Arc::new(view);
    let superseded = {
        let mut slot = shared.view.write().unwrap_or_else(|e| e.into_inner());
        std::mem::replace(&mut *slot, next)
    };
    drop(superseded);
}

impl StreamPipeline {
    /// Pins the pipeline's current read state as an immutable
    /// [`ReadView`]-backed [`ReadHandle`] (version 0, standalone — it
    /// cannot refresh; use [`SplitPipeline::read_handle`] for handles
    /// that follow the write path's publications).
    pub fn pin_read_handle(&self) -> ReadHandle {
        ReadHandle::standalone(self.read_view())
    }
}

#[cfg(test)]
mod tests {
    use crate::shard::RecordKeys;
    use crate::{StreamOptions, StreamPipeline};
    use zeroer_datagen::generate;
    use zeroer_datagen::profiles::rest_fz;
    use zeroer_tabular::Table;
    use zeroer_textsim::cow::Sharing;

    #[test]
    fn pinned_view_shares_all_but_what_a_write_touched() {
        let ds = generate(&rest_fz(), 0.5, 5);
        let (table, _) = ds.dedup_table();
        let cut = table.len() - 1;
        let mut boot = Table::new("boot", table.schema().clone());
        for r in &table.records()[..cut] {
            boot.push(r.clone());
        }
        let (mut p, _) =
            StreamPipeline::bootstrap(&boot, StreamOptions::default()).expect("bootstrap");
        let pinned = p.read_view();
        let tokens = p.store.interner().len();

        p.ingest(table.records()[cut].clone());
        let idx = p.len() - 1;
        let keys = RecordKeys::from_derived(p.store.derived(idx), p.store.interner());
        let key_count = keys.token_syms().count() + keys.qgram_syms().count();
        let fresh_tokens = p.store.interner().len() - tokens;

        // The write copied at most the tail chunk plus one map part per
        // fresh token of the interner, one part per blocking key of the
        // index, and added one derivation; everything else is still the
        // very allocation the pinned view holds.
        let interner = p.store.interner().sharing(&pinned.interner);
        assert!(
            interner.unshared() <= 1 + fresh_tokens,
            "interner: {interner:?}, {fresh_tokens} fresh tokens"
        );
        let derived = Sharing::of(p.store.derived_shared(), &pinned.derived);
        assert_eq!(
            derived,
            Sharing {
                shared: idx,
                total: idx + 1
            }
        );
        let index = p.indexes[0].sharing(&pinned.indexes[0]);
        assert!(
            index.unshared() <= key_count,
            "index: {index:?}, {key_count} keys"
        );
        assert!(
            index.total >= 10 * key_count,
            "the index is not partitioned"
        );
        assert!(interner.total >= 10 * (1 + fresh_tokens));

        // A view published now shares everything with the writer.
        let next = p.read_view();
        assert_eq!(p.store.interner().sharing(&next.interner).unshared(), 0);
        assert_eq!(p.indexes[0].sharing(&next.indexes[0]).unshared(), 0);
        assert_eq!(
            Sharing::of(p.store.derived_shared(), &next.derived).unshared(),
            0
        );
    }
}
