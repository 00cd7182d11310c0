//! Layer-ledger benchmark of the ZeroER system.
//!
//! One command runs one workload on a corpus `zeroer-datagen` makes
//! in-process at scale 0.25:
//!
//! * `dedup` — bootstrap, single-caller streaming ingest, refit;
//! * `serve-mix` — `zeroer serve` under an open loop of 90 % resolves
//!   and 10 % single-record writes, then read and write closed loops;
//! * `link` — the three-model linkage bootstrap, then both sides' tails
//!   streamed interleaved.
//!
//! With `--trace 0` tracing is off (`StreamOptions::metrics = false`,
//! `zeroer_obs::set_enabled(false)`) and the run reports the end-to-end
//! metrics. With `--trace 1` the run times the calls into each layer
//! from here, reads the pipelines' own meters, and reports the
//! per-layer metrics. Every run checks its outputs and exits non-zero
//! when a check fails. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml -- \
//!     --workload dedup --seed 1 --seconds 10 --trace 0
//! ```

mod dedup;
mod fit;
mod inputs;
mod link;
mod passes;
mod report;
mod serve_mix;

use report::{median, peak_rss_mb, secs, Report};
use std::time::Instant;

const USAGE: &str = "usage: zeroer-ledger --workload dedup|serve-mix|link [--seed N] \
                     [--corpus-seed N] [--seconds S] [--trace 0|1]";

/// Set-ups per run: at least this many, and more until they have taken
/// [`SETUP_MIN_S`]; the median is reported as `setup_s`.
pub const SETUP_REPS: usize = 5;
/// A set-up of a few milliseconds repeats for this long, so that its
/// median does not rest on five samples one slow moment of a shared
/// machine can sway.
pub const SETUP_MIN_S: f64 = 0.5;
/// Bootstrap fits per run; their median (with two, their mean) is
/// reported as `fit_s`.
pub const FIT_REPS: usize = 2;

#[derive(Clone, Copy, PartialEq)]
pub enum Workload {
    Dedup,
    ServeMix,
    Link,
}

pub struct Args {
    pub workload: Workload,
    /// Workload seed: arrival order and which tail records are written.
    pub seed: u64,
    /// Corpus seed (42 is the standard corpus).
    pub corpus_seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set when this process is `serve-mix`'s load generator.
    pub generator: Option<String>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: Workload::Dedup,
            seed: 42,
            corpus_seed: 42,
            seconds: 10.0,
            trace: false,
            generator: None,
        };
        let mut workload = None;
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(match value.as_str() {
                        "dedup" => Workload::Dedup,
                        "serve-mix" => Workload::ServeMix,
                        "link" => Workload::Link,
                        _ => return Err(bad("unknown workload")),
                    })
                }
                "--seed" => args.seed = value.parse().map_err(|_| bad("not a seed"))?,
                "--corpus-seed" => {
                    args.corpus_seed = value.parse().map_err(|_| bad("not a seed"))?
                }
                "--seconds" => {
                    args.seconds = value.parse().map_err(|_| bad("not a number"))?;
                    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                        return Err(bad("must lie in (0, 600]"));
                    }
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("must be 0 or 1")),
                    }
                }
                "--generator" => args.generator = Some(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        args.workload = workload.ok_or("--workload is required")?;
        Ok(args)
    }
}

/// Runs `make` at least `reps` times and until `min_s` seconds have
/// passed, and returns the median time with the last result. Each
/// result is dropped before the next is made.
pub fn median_of<T>(reps: usize, min_s: f64, mut make: impl FnMut() -> T) -> (f64, T) {
    let start = Instant::now();
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    while times.len() < reps || secs(start) < min_s {
        drop(last.take());
        let t = Instant::now();
        let made = make();
        times.push(secs(t));
        last = Some(made);
    }
    (median(&times), last.expect("at least one repetition"))
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("zeroer-ledger: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(addr) = &args.generator {
        serve_mix::generator(&args, addr);
        return;
    }
    zeroer_obs::set_enabled(args.trace);
    let mut rep = Report::new(args.trace);
    let t = Instant::now();
    let name = match args.workload {
        Workload::Dedup => {
            dedup::run(&args, &mut rep);
            "dedup"
        }
        Workload::ServeMix => {
            serve_mix::run(&args, &mut rep);
            "serve-mix"
        }
        Workload::Link => {
            link::run(&args, &mut rep);
            "link"
        }
    };
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    rep.metric("run_s", secs(t), "s");
    rep.print(name);
    if !rep.correct() {
        std::process::exit(1);
    }
}
