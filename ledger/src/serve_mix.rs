//! `serve-mix`: `zeroer_serve::Server` over a pipeline restored from a
//! snapshot of the 3,500-row base. One generator process (this binary
//! with `--generator`) drives an open loop at a fixed offered rate over
//! at most `nproc` connections: 90 % of requests resolve held-out tail
//! records that are never ingested, 10 % ingest one record from a
//! disjoint slice of the tail. Every write rides connection 0, so the
//! admission order is the schedule order. Closed loops at the end,
//! read-only slices over every connection alternating with write-only
//! slices on connection 0, give `sat_rps` and `ingest_rps`.

use crate::dedup::corpus_clusters;
use crate::fit;
use crate::inputs::ServeInputs;
use crate::report::{median, percentile, secs, sorted, windowed, Report};
use crate::{median_of, Args, FIT_REPS, SETUP_MIN_S, SETUP_REPS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, BufRead, BufReader};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use zeroer_core::json::Json;
use zeroer_eval::clusters::{clusters_from_pairs, pairwise_cluster_f1};
use zeroer_obs::json::Obj;
use zeroer_serve::protocol::{ingest_request, read_frame, resolve_request, write_frame};
use zeroer_serve::{Client, Server};
use zeroer_stream::{PipelineSnapshot, StreamOptions, StreamPipeline};
use zeroer_tabular::Record;

/// Offered load of the open loop, requests per second: well below the
/// knee of a 2-core machine, where 200 req/s already queued and 280
/// req/s grew a backlog (see the README).
const RATE: f64 = 120.0;
/// Share of requests that are single-record writes.
const WRITE_SHARE: f64 = 0.1;
/// Share of the run's seconds spent in the open loop; the rest goes to
/// the closed loops.
const OPEN_SHARE: f64 = 0.3;
/// The read-only and the write-only closed loop alternate in slices of
/// this many seconds each, and each reports the median of its slices'
/// rates, so a burst of load from other tenants of the machine moves
/// a few slices rather than the figure.
const SLICE_S: f64 = 0.25;
/// Latency percentiles are taken per window of this many seconds of the
/// open loop, and the median over windows is reported.
const WINDOW_S: f64 = 1.0;
/// Requests each connection keeps in flight in the closed loops, so the
/// server always has the next one queued and the loops measure its
/// throughput, not how fast the machine wakes a waiting thread.
const DEPTH: usize = 4;
/// A run whose generator is this late at the end has a growing backlog.
const BACKLOG_MS: f64 = 50.0;

fn connections() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The open loop's schedule, made from the workload seed: requests due
/// every `1 / RATE` seconds, each a write with probability
/// [`WRITE_SHARE`] until the write slice is used up. Each entry is
/// `(due seconds after the start, index into writes or probes)`.
#[derive(Default)]
struct Plan {
    writes: Vec<(f64, usize)>,
    resolves: Vec<(f64, usize)>,
}

impl Plan {
    fn new(inputs: &ServeInputs, seed: u64, seconds: f64) -> Plan {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e_0001);
        let mut plan = Plan::default();
        for k in 0..(RATE * seconds) as usize {
            let due = k as f64 / RATE;
            if plan.writes.len() < inputs.writes.len() && rng.gen_bool(WRITE_SHARE) {
                plan.writes.push((due, plan.writes.len()));
            } else {
                let probe = plan.resolves.len() % inputs.probes.len();
                plan.resolves.push((due, probe));
            }
        }
        plan
    }
}

/// What one resolve reply must hold: `ok`, a candidate count, and
/// matches with finite posteriors.
fn resolve_reply_ok(text: &str) -> bool {
    let Ok(reply) = Json::parse(text) else {
        return false;
    };
    let matches_ok = reply
        .get("matches")
        .and_then(Json::as_arr)
        .is_some_and(|ms| {
            ms.iter().all(|m| {
                m.get("p")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite)
            })
        });
    reply.get("ok").and_then(Json::as_bool) == Some(true)
        && reply.get("candidates").and_then(Json::as_usize).is_some()
        && matches_ok
}

/// What one ingest reply must hold: `ok` and the one record's outcome.
fn ingest_reply_ok(text: &str) -> bool {
    Json::parse(text).is_ok_and(|reply| {
        reply.get("ok").and_then(Json::as_bool) == Some(true)
            && reply
                .get("outcomes")
                .and_then(Json::as_arr)
                .map(|o| o.len())
                == Some(1)
    })
}

/// One TCP connection speaking the serve protocol's length-prefixed
/// frames. Unlike `Client`, it can have several requests in flight: the
/// server answers one connection's requests one at a time, in order.
struct Wire {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Wire {
    fn connect(addr: &str) -> io::Result<Wire> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Wire {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn reply(&mut self) -> io::Result<String> {
        read_frame(&mut self.reader)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "the server hung up"))
    }

    fn round_trip(&mut self, request: &str) -> io::Result<String> {
        write_frame(&mut self.writer, request)?;
        self.reply()
    }

    /// Keeps [`DEPTH`] requests in flight until `until` or until `make`
    /// runs out, and hands each reply, in order, to `take` with the tag
    /// `make` gave its request. After an I/O error every request still
    /// in flight is handed over as `None` and the error returned.
    fn keep_busy<T>(
        &mut self,
        until: Instant,
        mut make: impl FnMut() -> Option<(T, String)>,
        mut take: impl FnMut(T, Option<&str>),
    ) -> io::Result<()> {
        let mut flight = std::collections::VecDeque::with_capacity(DEPTH);
        loop {
            while flight.len() < DEPTH && Instant::now() < until {
                let Some((tag, request)) = make() else { break };
                flight.push_back(tag);
                if let Err(e) = write_frame(&mut self.writer, &request) {
                    flight.drain(..).for_each(|t| take(t, None));
                    return Err(e);
                }
            }
            let Some(tag) = flight.pop_front() else {
                return Ok(());
            };
            match self.reply() {
                Ok(reply) => take(tag, Some(&reply)),
                Err(e) => {
                    take(tag, None);
                    flight.drain(..).for_each(|t| take(t, None));
                    return Err(e);
                }
            }
        }
    }
}

/// One request of the open loop as the generator saw it.
struct Sent {
    due_s: f64,
    write: bool,
    /// Latency from the due time, `None` when the request failed.
    latency_ms: Option<f64>,
    /// How late the generator sent it.
    late_ms: f64,
}

/// One connection of the generator, reconnecting after an I/O error.
struct Conn<'a> {
    addr: &'a str,
    wire: Option<Wire>,
    sent: Vec<Sent>,
    /// Write items in the order this connection sent them, with
    /// whether the server acknowledged each.
    writes: Vec<(usize, bool)>,
    bad_replies: usize,
    /// Resolves of the open loop, and their round trips and codec
    /// time summed.
    resolves: usize,
    rtt_ms: f64,
    codec_us: f64,
    sat_ok: usize,
    sat_failed: usize,
}

impl<'a> Conn<'a> {
    fn new(addr: &'a str) -> Self {
        Conn {
            addr,
            wire: None,
            sent: Vec::new(),
            writes: Vec::new(),
            bad_replies: 0,
            resolves: 0,
            rtt_ms: 0.0,
            codec_us: 0.0,
            sat_ok: 0,
            sat_failed: 0,
        }
    }

    fn wire(&mut self) -> Option<&mut Wire> {
        if self.wire.is_none() {
            self.wire = Wire::connect(self.addr).ok();
        }
        self.wire.as_mut()
    }

    /// One round trip; `None` after an I/O error, when the next call
    /// reconnects.
    fn call(&mut self, request: &str) -> Option<String> {
        let reply = self.wire()?.round_trip(request);
        if reply.is_err() {
            self.wire = None;
        }
        reply.ok()
    }

    /// Sends one resolve; true for a well-formed reply.
    fn resolve(&mut self, record: &Record) -> bool {
        let t = Instant::now();
        let request = resolve_request(&record.values);
        let encode_s = secs(t);
        let t = Instant::now();
        let reply = self.call(&request);
        let rtt_s = secs(t);
        let Some(reply) = reply else {
            return false;
        };
        let t = Instant::now();
        let ok = resolve_reply_ok(&reply);
        self.codec_us += (encode_s + secs(t)) * 1e6;
        self.rtt_ms += rtt_s * 1e3;
        self.resolves += 1;
        self.bad_replies += usize::from(!ok);
        ok
    }

    /// Sends one single-record write; true when acknowledged.
    fn write(&mut self, record: &Record) -> bool {
        let request = ingest_request(std::slice::from_ref(record));
        self.call(&request)
            .is_some_and(|reply| ingest_reply_ok(&reply))
    }

    /// Works the open loop: resolves go to whichever connection is
    /// free first (the shared `next` cursor); every write goes to
    /// connection 0, which takes whichever of its next write and the
    /// next resolve is due first.
    fn open_loop(
        &mut self,
        plan: &Plan,
        writer: bool,
        next: &Mutex<usize>,
        inputs: &ServeInputs,
        start: Instant,
    ) {
        let mut writes = plan.writes.iter().filter(|_| writer).peekable();
        loop {
            let (write, (due_s, item)) = {
                let mut cursor = next
                    .lock()
                    .expect("no generator thread panics holding the cursor");
                match (plan.resolves.get(*cursor), writes.peek()) {
                    (Some(r), Some(w)) if r.0 < w.0 => {
                        *cursor += 1;
                        (false, *r)
                    }
                    (_, Some(_)) => (true, *writes.next().expect("peeked")),
                    (Some(r), None) => {
                        *cursor += 1;
                        (false, *r)
                    }
                    (None, None) => return,
                }
            };
            let due = start + Duration::from_secs_f64(due_s);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let late_ms = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
            let ok = if write {
                let ok = self.write(&inputs.writes[item]);
                self.writes.push((item, ok));
                ok
            } else {
                self.resolve(&inputs.probes[item])
            };
            self.sent.push(Sent {
                due_s,
                write,
                latency_ms: ok.then(|| due.elapsed().as_secs_f64() * 1e3),
                late_ms,
            });
        }
    }

    /// Writes single records back to back, [`DEPTH`] in flight, until
    /// `until`, taking the write slice from item `*next` on and
    /// advancing it. Returns the writes acknowledged, those sent, and
    /// the seconds taken.
    fn write_loop(
        &mut self,
        inputs: &ServeInputs,
        until: Instant,
        next: &mut usize,
    ) -> (usize, usize, f64) {
        let start = Instant::now();
        let mut acked = Vec::new();
        while *next < inputs.writes.len() && Instant::now() < until {
            let make = || {
                let record = inputs.writes.get(*next)?;
                *next += 1;
                Some((*next - 1, ingest_request(std::slice::from_ref(record))))
            };
            let take =
                |item, reply: Option<&str>| acked.push((item, reply.is_some_and(ingest_reply_ok)));
            let done = self.wire().map(|w| w.keep_busy(until, make, take));
            if !matches!(done, Some(Ok(()))) {
                self.wire = None;
            }
        }
        let ok = acked.iter().filter(|&&(_, ok)| ok).count();
        let sent = acked.len();
        self.writes.extend(acked);
        (ok, sent, secs(start))
    }

    /// Resolves back to back, [`DEPTH`] in flight, until `until`, from
    /// probe `*next` on, stepping by `step`.
    fn closed_loop(&mut self, inputs: &ServeInputs, until: Instant, next: &mut usize, step: usize) {
        let probes = &inputs.probes;
        let (mut ok, mut failed, mut bad) = (0, 0, 0);
        while Instant::now() < until {
            let make = || {
                let record = &probes[*next % probes.len()];
                *next += step;
                Some(((), resolve_request(&record.values)))
            };
            let take = |(), reply: Option<&str>| match reply {
                Some(r) if resolve_reply_ok(r) => ok += 1,
                Some(_) => {
                    bad += 1;
                    failed += 1;
                }
                None => failed += 1,
            };
            match self.wire() {
                Some(w) => {
                    if w.keep_busy(until, make, take).is_err() {
                        self.wire = None;
                    }
                }
                None => failed += 1,
            }
        }
        self.sat_ok += ok;
        self.sat_failed += failed;
        self.bad_replies += bad;
    }
}

/// The closed loops, alternating: a slice of resolves over every
/// connection, then a slice of writes on connection 0, after the open
/// loop's writes, so every write still rides one connection in order.
/// Returns the rate of each read slice and of each write slice, and the
/// write loop's acknowledged and sent counts.
fn closed_loops(
    conns: &mut [Conn],
    inputs: &ServeInputs,
    seconds: f64,
    first_write: usize,
) -> (Vec<f64>, Vec<f64>, usize, usize) {
    let n = conns.len();
    let slices = ((seconds / (2.0 * SLICE_S)).round() as usize).max(1);
    let mut probes: Vec<usize> = (0..n).collect();
    let mut next_write = first_write;
    let (mut read_rps, mut write_rps) = (Vec::new(), Vec::new());
    let (mut acked, mut sent) = (0, 0);
    for _ in 0..slices {
        let ok_before: usize = conns.iter().map(|c| c.sat_ok).sum();
        let t = Instant::now();
        let until = t + Duration::from_secs_f64(SLICE_S);
        std::thread::scope(|s| {
            for (conn, next) in conns.iter_mut().zip(&mut probes) {
                s.spawn(move || conn.closed_loop(inputs, until, next, n));
            }
        });
        let ok: usize = conns.iter().map(|c| c.sat_ok).sum::<usize>() - ok_before;
        read_rps.push(ok as f64 / secs(t));
        let until = Instant::now() + Duration::from_secs_f64(SLICE_S);
        let (a, w, took_s) = conns[0].write_loop(inputs, until, &mut next_write);
        if w > 0 {
            write_rps.push(a as f64 / took_s);
        }
        acked += a;
        sent += w;
    }
    (read_rps, write_rps, acked, sent)
}

/// The load generator: the open loop, then the closed loops, then one
/// JSON line of results on standard output.
pub fn generator(args: &Args, addr: &str) {
    let inputs = ServeInputs::new(args.corpus_seed, args.seed);
    let n = connections();
    let open_s = args.seconds * OPEN_SHARE;
    let plan = Plan::new(&inputs, args.seed, open_s);
    let mut conns: Vec<Conn> = (0..n).map(|_| Conn::new(addr)).collect();
    let next = Mutex::new(0usize);
    let start = Instant::now() + Duration::from_millis(50);
    std::thread::scope(|s| {
        for (me, conn) in conns.iter_mut().enumerate() {
            let (plan, next, inputs) = (&plan, &next, &inputs);
            s.spawn(move || conn.open_loop(plan, me == 0, next, inputs, start));
        }
    });
    let open_wall_s = secs(start);
    let (read_rps, write_rps, write_sat_ok, write_sat_sent) = closed_loops(
        &mut conns,
        &inputs,
        args.seconds - open_s,
        plan.writes.len(),
    );
    let gen_s = secs(start);

    // A failed request counts as missing every latency limit: it is
    // given the whole open loop's duration.
    let fail_ms = open_wall_s * 1e3;
    let mut sent: Vec<&Sent> = conns.iter().flat_map(|c| &c.sent).collect();
    sent.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    let latencies = |write: bool| -> Vec<f64> {
        let of_kind = sent.iter().filter(|s| s.write == write);
        of_kind.map(|s| s.latency_ms.unwrap_or(fail_ms)).collect()
    };
    let failed = |write: bool| {
        sent.iter()
            .filter(|s| s.write == write && s.latency_ms.is_none())
            .count()
    };
    let late = sorted(sent.iter().map(|s| s.late_ms).collect());
    let last_quarter: Vec<f64> = sent[sent.len() * 3 / 4..]
        .iter()
        .map(|s| s.late_ms)
        .collect();
    let total = |f: fn(&Conn) -> f64| conns.iter().map(f).sum::<f64>();
    let resolves = total(|c| c.resolves as f64).max(1.0);
    let acked: Vec<f64> = conns[0]
        .writes
        .iter()
        .filter(|&&(_, ok)| ok)
        .map(|&(i, _)| i as f64)
        .collect();

    let windows = |write: bool| -> Vec<Vec<f64>> {
        let n = ((open_s / WINDOW_S).ceil() as usize).max(1);
        let mut w = vec![Vec::new(); n];
        for s in sent.iter().filter(|s| s.write == write) {
            w[((s.due_s / WINDOW_S) as usize).min(n - 1)].push(s.latency_ms.unwrap_or(fail_ms));
        }
        w
    };

    let mut o = Obj::new();
    o.f64(
        "resolve_p50_ms",
        windowed(windows(false).iter().map(Vec::as_slice), 50.0),
    )
    .f64(
        "resolve_p99_ms",
        windowed(windows(false).iter().map(Vec::as_slice), 99.0),
    )
    .f64(
        "write_p50_ms",
        windowed(windows(true).iter().map(Vec::as_slice), 50.0),
    )
    .f64(
        "write_p99_ms",
        windowed(windows(true).iter().map(Vec::as_slice), 99.0),
    )
    .raw("resolve_ms", &Json::nums(&latencies(false)).render())
    .raw("write_ms", &Json::nums(&latencies(true)).render())
    .u64("resolve_failed", failed(false) as u64)
    .u64("write_failed", failed(true) as u64)
    .u64(
        "bad_replies",
        conns.iter().map(|c| c.bad_replies).sum::<usize>() as u64,
    )
    .raw("acked", &Json::nums(&acked).render())
    .f64("late_p99_ms", percentile(&late, 99.0))
    .f64("late_end_ms", median(&last_quarter))
    .f64("gen_s", gen_s)
    .u64(
        "sat_ok",
        conns.iter().map(|c| c.sat_ok).sum::<usize>() as u64,
    )
    .u64(
        "sat_failed",
        conns.iter().map(|c| c.sat_failed).sum::<usize>() as u64,
    )
    .f64("sat_rps", median(&read_rps))
    .u64("write_sat_ok", write_sat_ok as u64)
    .u64("write_sat_failed", (write_sat_sent - write_sat_ok) as u64)
    .f64("write_sat_rps", median(&write_rps))
    .f64("rtt_ms_mean", total(|c| c.rtt_ms) / resolves)
    .f64("codec_us_mean", total(|c| c.codec_us) / resolves);
    println!("{}", o.finish());
}

/// The generator's results, read back from its JSON line.
struct Generated(Json);

impl Generated {
    fn num(&self, key: &str) -> f64 {
        self.0.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
    }

    fn nums(&self, key: &str) -> Vec<f64> {
        self.0
            .get(key)
            .and_then(|v| v.to_nums().ok())
            .unwrap_or_default()
    }
}

/// Runs the generator process against `addr` and waits for it to end.
fn run_generator(args: &Args, addr: &str) -> Result<Generated, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", "serve-mix", "--generator", addr])
        .args(["--seed", &args.seed.to_string()])
        .args(["--corpus-seed", &args.corpus_seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the generator: {e}"))?;
    if !out.status.success() {
        return Err(format!("the generator exited with {}", out.status));
    }
    let line = out
        .stdout
        .lines()
        .map_while(Result::ok)
        .last()
        .unwrap_or_default();
    Json::parse(&line)
        .map(Generated)
        .map_err(|e| format!("the generator's results do not parse: {e}"))
}

/// Restores a pipeline from snapshot JSON and replays the base, as
/// `zeroer serve --model … --base …` starts.
fn restore(json: &str, inputs: &ServeInputs, metrics: bool) -> StreamPipeline {
    let snap = PipelineSnapshot::from_json(json).expect("the snapshot parses");
    let mut p = StreamPipeline::from_snapshot(&snap, StreamOptions::default().threshold)
        .expect("the snapshot restores");
    p.set_metrics(metrics);
    p.seed_base(&inputs.dedup.base).expect("the base replays");
    p
}

/// `ReadHandle::resolve` in-process on the held-out probes against the
/// served state, alternating a handle that records into the meters
/// with one that does not.
fn resolve_inproc(rep: &mut Report, json: &str, inputs: &ServeInputs) {
    let mut p = restore(json, inputs, true);
    let traced = p.pin_read_handle();
    p.set_metrics(false);
    let mut handles = [traced, p.pin_read_handle()];
    let probes = &inputs.probes[..inputs.probes.len().min(300)];
    let (mut walls, mut ms) = ([Vec::new(), Vec::new()], Vec::new());
    for round in 0..4 {
        let which = round % 2;
        let t = Instant::now();
        for r in probes {
            let tr = Instant::now();
            handles[which].resolve(r);
            if which == 0 {
                ms.push(secs(tr) * 1e3);
            }
        }
        walls[which].push(secs(t));
    }
    let mean_ms = ms.iter().sum::<f64>() / ms.len() as f64;
    rep.metric("serve.resolve_inproc_ms", mean_ms, "ms");
    let overhead = median(&walls[0]) / median(&walls[1]);
    rep.metric("trace.overhead", overhead, "ratio");
}

pub fn run(args: &Args, rep: &mut Report) {
    let traced = rep.traced();
    let inputs = ServeInputs::new(args.corpus_seed, args.seed);
    let opts = StreamOptions {
        metrics: traced,
        ..StreamOptions::default()
    };
    let base = &inputs.dedup.base;
    let (fit_s, (fitted, boot)) = median_of(FIT_REPS, 0.0, || {
        StreamPipeline::bootstrap(base, opts.clone()).expect("the base yields candidates")
    });
    rep.metric("fit_s", fit_s, "s");
    rep.phase("fit", 1, 0);
    if traced {
        let trace = fit::dedup(base, &opts);
        rep.check(
            "traced fit composition reproduces BootstrapReport (pairs, posteriors to the bit)",
            trace.reproduces(&boot.pairs, &boot.probabilities, boot.em_iterations),
        );
        let truth = inputs.dedup.truth_within(|i| i < base.len());
        trace.report(rep, "fit", fit_s, Some(&truth));
        trace.report_score(rep);
    }
    let json = fitted.snapshot().to_json();
    drop((fitted, boot));
    if traced {
        resolve_inproc(rep, &json, &inputs);
    }

    let (setup_s, server) = median_of(SETUP_REPS, SETUP_MIN_S, || {
        Server::bind(
            restore(&json, &inputs, traced),
            "127.0.0.1:0",
            connections(),
        )
        .expect("a local port binds")
    });
    rep.metric("setup_s", setup_s, "s");
    let addr = server.local_addr().to_string();
    zeroer_obs::reset();
    let serving = std::thread::spawn(move || server.run());
    let generated = run_generator(args, &addr);
    let stopped = Client::connect(&addr).and_then(|mut c| c.admin("shutdown"));
    rep.check("admin shutdown stops the server", stopped.is_ok());
    let served = serving.join().expect("the server thread ends");
    let g = match generated {
        Ok(g) => g,
        Err(e) => {
            rep.check(&format!("the load generator ran ({e})"), false);
            return;
        }
    };

    let meter = |name: &str| zeroer_obs::histogram(name).snapshot();
    let (handler, publish, admit) = (
        meter("serve.resolve.ns"),
        meter("stream.publish.ns"),
        meter("stream.admit.batch_records"),
    );
    let stage_s = ["derive", "block", "score", "decide", "ingest"]
        .map(|stage| meter(&format!("stream.{stage}.ns")).sum as f64 / 1e9);

    // Every write rode connection 0, in schedule order: replaying the
    // acknowledged ones one `ingest` at a time must give the clusters
    // the server handed back.
    let acked: Vec<usize> = g.nums("acked").iter().map(|&i| i as usize).collect();
    let mut replay = restore(&json, &inputs, false);
    let (mut candidates, mut matches) = (0usize, 0usize);
    for &i in &acked {
        let out = replay.ingest(inputs.writes[i].clone());
        candidates += out.candidates;
        matches += out.matches.len();
    }
    let clusters = corpus_clusters(&served);
    rep.check(
        "clusters after shutdown equal a sequential ingest replay of the writes",
        clusters == corpus_clusters(&replay),
    );
    rep.check(
        "every resolve reply parses, with finite posteriors",
        g.num("bad_replies") == 0.0,
    );
    let written: std::collections::HashSet<usize> = acked
        .iter()
        .map(|&i| inputs.writes[i].id as usize)
        .collect();
    let truth = inputs
        .dedup
        .truth_within(|i| i < base.len() || written.contains(&i));
    let f1 = pairwise_cluster_f1(&clusters, &clusters_from_pairs(&truth)).f1();
    rep.metric("pair_f1", f1, "ratio");
    rep.check("pair-F1 against exact truth exceeds 0.9", f1 > 0.9);

    let resolve = sorted(g.nums("resolve_ms"));
    let write = sorted(g.nums("write_ms"));
    rep.phase(
        "resolve",
        resolve.len() as u64,
        g.num("resolve_failed") as u64,
    );
    rep.phase("write", write.len() as u64, g.num("write_failed") as u64);
    let (sat_ok, sat_failed) = (g.num("sat_ok"), g.num("sat_failed"));
    rep.phase("saturate", (sat_ok + sat_failed) as u64, sat_failed as u64);
    let (write_ok, write_failed) = (g.num("write_sat_ok"), g.num("write_sat_failed"));
    rep.phase(
        "write-saturate",
        (write_ok + write_failed) as u64,
        write_failed as u64,
    );
    rep.metric("offered_rps", RATE, "1/s");
    rep.metric("resolve_p50_ms", g.num("resolve_p50_ms"), "ms");
    rep.metric("resolve_p99_ms", g.num("resolve_p99_ms"), "ms");
    rep.metric("resolve_p99_pooled_ms", percentile(&resolve, 99.0), "ms");
    // The writes are this workload's single-record ingests.
    rep.metric("ingest_p50_ms", g.num("write_p50_ms"), "ms");
    rep.metric("ingest_p99_ms", g.num("write_p99_ms"), "ms");
    rep.metric("write_p99_ms", g.num("write_p99_ms"), "ms");
    rep.metric("write_p99_pooled_ms", percentile(&write, 99.0), "ms");
    rep.metric("sat_rps", g.num("sat_rps"), "1/s");
    rep.metric("ingest_rps", g.num("write_sat_rps"), "1/s");
    rep.metric("serve.gen_late_ms", g.num("late_p99_ms"), "ms");
    if g.num("late_end_ms") > BACKLOG_MS {
        rep.flag(format!(
            "backlog grew: the generator ran {:.1} ms late over the last quarter",
            g.num("late_end_ms")
        ));
    }

    if traced {
        let writes = acked.len().max(1) as f64;
        rep.metric(
            "ingest.candidates_per_record",
            candidates as f64 / writes,
            "count",
        );
        rep.metric(
            "ingest.match_share",
            matches as f64 / candidates.max(1) as f64,
            "ratio",
        );
        for (i, stage) in ["derive", "block", "score", "decide"].iter().enumerate() {
            rep.metric(&format!("ingest.{stage}_s"), stage_s[i], "s");
        }
        let layers: f64 = stage_s[..4].iter().sum();
        rep.metric("ingest.layer_sum_s", layers, "s");
        rep.metric("ingest.wall_s", stage_s[4], "s");
        rep.metric("ingest.other_s", stage_s[4] - layers, "s");
        let handler_ms = handler.mean() / 1e6;
        rep.metric("serve.handler_ms", handler_ms, "ms");
        rep.metric("serve.wire_ms", g.num("rtt_ms_mean") - handler_ms, "ms");
        rep.metric("serve.client_codec_us", g.num("codec_us_mean"), "us");
        rep.metric("serve.publish_ms", publish.mean() / 1e6, "ms");
        rep.metric(
            "serve.publishes_per_write",
            publish.count as f64 / writes,
            "ratio",
        );
        rep.metric("serve.admit_batch_records", admit.mean(), "count");
        let busy_s = stage_s[4] + publish.sum as f64 / 1e9;
        rep.metric("serve.writer_busy_share", busy_s / g.num("gen_s"), "ratio");
    }
}
