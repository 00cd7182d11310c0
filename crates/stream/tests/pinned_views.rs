//! Pinned read views are isolated from every later write.
//!
//! A published `ReadView` shares its interner, derivations and index
//! parts with the writer instead of copying them, and the writer copies
//! a chunk or part before it changes one. These tests pin what that
//! must preserve: a handle pinned before a run of ingests, retractions,
//! a compaction and a refit answers every probe exactly as it did at
//! pin time — same epoch, candidates, cluster and posteriors to
//! `f64::to_bits` — both on a lone pipeline and across the
//! `SplitPipeline` write path.

use zeroer_datagen::generate;
use zeroer_datagen::profiles::rest_fz;
use zeroer_stream::{ReadHandle, ResolveOutcome, SplitPipeline, StreamOptions, StreamPipeline};
use zeroer_tabular::{Record, Table};

const PROBES: usize = 50;

/// A generated dedup table split into a bootstrap table, records to
/// stream before pinning, records to write after pinning, and probes
/// that are never ingested.
struct Dataset {
    boot: Table,
    before: Vec<Record>,
    after: Vec<Record>,
    probes: Vec<Record>,
}

fn dataset() -> Dataset {
    let ds = generate(&rest_fz(), 0.5, 11);
    let (table, _) = ds.dedup_table();
    let records = table.records();
    let cut = records.len() * 6 / 10;
    let mut boot = Table::new("boot", table.schema().clone());
    for r in &records[..cut] {
        boot.push(r.clone());
    }
    let tail = &records[cut..];
    assert!(
        tail.len() > PROBES + 40,
        "the tail is too short for the test"
    );
    let probes = tail[tail.len() - PROBES..].to_vec();
    let rest = &tail[..tail.len() - PROBES];
    let mid = rest.len() / 3;
    Dataset {
        boot,
        before: rest[..mid].to_vec(),
        after: rest[mid..].to_vec(),
        probes,
    }
}

/// One resolve outcome with its posteriors as bit patterns.
type Answer = (u64, usize, Option<usize>, Vec<(usize, u64)>);

fn answers(handle: &mut ReadHandle, probes: &[Record]) -> Vec<Answer> {
    probes
        .iter()
        .map(|p| {
            let ResolveOutcome {
                epoch,
                candidates,
                matches,
                cluster,
            } = handle.resolve(p);
            let bits = matches.iter().map(|&(c, p)| (c, p.to_bits())).collect();
            (epoch, candidates, cluster, bits)
        })
        .collect()
}

/// Every record some probe matched: retracting them changes what a
/// fresh view answers.
fn matched_records(answers: &[Answer]) -> Vec<usize> {
    let mut ids: Vec<usize> = answers
        .iter()
        .flat_map(|a| a.3.iter().map(|&(c, _)| c))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

#[test]
fn pinned_view_answers_bit_identically_across_later_writes() {
    let data = dataset();
    let (mut p, _) =
        StreamPipeline::bootstrap(&data.boot, StreamOptions::default()).expect("bootstrap");
    p.ingest_batch(data.before.clone());

    let mut pinned = p.pin_read_handle();
    let (len, epoch) = (pinned.len(), pinned.epoch());
    let expected = answers(&mut pinned, &data.probes);
    let mut twin = pinned.clone();

    // Writes of every kind, through both ingest paths.
    let half = data.after.len() / 2;
    for r in &data.after[..half] {
        p.ingest(r.clone());
    }
    p.ingest_batch_parallel(data.after[half..].to_vec(), 2);
    let mut retract = matched_records(&expected);
    assert!(!retract.is_empty(), "no probe matched; pick another corpus");
    retract.extend([0, 1, p.len() - 1]);
    retract.sort_unstable();
    retract.dedup();
    for &idx in &retract {
        p.retract(idx).expect("live record retracts");
    }
    p.compact();
    p.refit().expect("refit succeeds");

    assert_eq!(pinned.len(), len);
    assert_eq!(pinned.epoch(), epoch);
    assert_eq!(answers(&mut pinned, &data.probes), expected);
    assert_eq!(
        answers(&mut twin, &data.probes),
        expected,
        "a cloned handle"
    );

    // The writes did change what a fresh view answers, so the equality
    // above is not vacuous.
    let mut fresh = p.pin_read_handle();
    assert_ne!(answers(&mut fresh, &data.probes), expected);
}

#[test]
fn pinned_view_survives_split_writes_until_refresh() {
    let data = dataset();
    let (mut p, _) =
        StreamPipeline::bootstrap(&data.boot, StreamOptions::default()).expect("bootstrap");
    p.ingest_batch(data.before.clone());
    let split = SplitPipeline::with_threads(p, 2);
    let writes = split.write_handle();

    let mut pinned = split.read_handle();
    let expected = answers(&mut pinned, &data.probes);
    for r in &data.after {
        writes.ingest(vec![r.clone()]).expect("write path is open");
    }
    writes
        .retract(matched_records(&expected))
        .expect("live records retract");
    writes.compact().expect("write path is open");
    writes.refresh().expect("refit succeeds");

    assert_eq!(answers(&mut pinned, &data.probes), expected);
    assert!(pinned.refresh(), "newer views were published");
    assert_ne!(answers(&mut pinned, &data.probes), expected);
    split.shutdown();
}
