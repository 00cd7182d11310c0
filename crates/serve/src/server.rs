//! The TCP servers: one accept loop, one handler thread per connection,
//! shared by the dedup [`Server`] and the read-only
//! [`crate::LinkServer`]. A dedup connection holds its own epoch-pinned
//! [`ReadHandle`] plus a clone of the shared [`WriteHandle`]; a linkage
//! connection holds a clone of the server's pinned [`LinkReadHandle`].
//!
//! Resolve requests refresh the connection's read handle (an `Arc`
//! swap) and answer entirely on the read path — they never enter the
//! admission queue and never block on the writer. Ingest requests block
//! on the write path (admission order = application order, so
//! decisions stay bit-identical to a sequential replay). Admin requests
//! go to the writer too, which is what makes `stats`/`snapshot`
//! quiescent-consistent: they observe a queue point, not a torn state.
//!
//! Request latencies are recorded per verb under `serve.*` (see the
//! crate README for the catalog) when the underlying pipeline has
//! metrics enabled.

use crate::protocol::{error_response, read_frame, write_frame};
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use zeroer_core::json::Json;
use zeroer_obs::json::{Arr, Obj};
use zeroer_obs::{Counter, Histogram, Stopwatch};
use zeroer_stream::{
    LinkReadHandle, ReadHandle, ResolveOutcome, Side, SplitPipeline, StreamPipeline, WriteHandle,
};
use zeroer_tabular::{Record, Value};

/// The `serve.*` metric handles, resolved once per server.
#[derive(Clone, Copy)]
struct ServeMeters {
    connections: &'static Counter,
    requests: &'static Counter,
    errors: &'static Counter,
    resolve: &'static Histogram,
    ingest: &'static Histogram,
    admin: &'static Histogram,
}

impl ServeMeters {
    fn from_flag(on: bool) -> Option<Self> {
        on.then(|| ServeMeters {
            connections: zeroer_obs::counter("serve.connections"),
            requests: zeroer_obs::counter("serve.requests"),
            errors: zeroer_obs::counter("serve.errors"),
            resolve: zeroer_obs::histogram("serve.resolve.ns"),
            ingest: zeroer_obs::histogram("serve.ingest.ns"),
            admin: zeroer_obs::histogram("serve.admin.ns"),
        })
    }
}

/// What a connection serves: a dedup pipeline's read and write halves,
/// or a linkage pipeline's pinned read state (read-only, side-aware).
pub(crate) enum Backend {
    Dedup {
        reads: ReadHandle,
        writes: WriteHandle,
    },
    Link(LinkReadHandle),
}

/// A bound listener and the accept loop both servers run.
pub(crate) struct Listener {
    listener: TcpListener,
    meters: Option<ServeMeters>,
    stop: Arc<AtomicBool>,
}

impl Listener {
    /// Binds `addr`, recording `serve.*` metrics when `metrics` is on.
    pub(crate) fn bind(addr: &str, metrics: bool) -> std::io::Result<Self> {
        let meters = ServeMeters::from_flag(metrics);
        Ok(Listener {
            listener: TcpListener::bind(addr)?,
            meters,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("a bound listener reports its address")
    }

    /// Accepts connections, each served on its own thread by a fresh
    /// `backend()`, until an admin `shutdown` request arrives; then shuts
    /// down open connections and joins their handler threads.
    pub(crate) fn run(&self, mut backend: impl FnMut() -> Backend) {
        let addr = self.local_addr();
        let mut handlers = Vec::new();
        // Clones of accepted sockets, kept so shutdown can unblock
        // handler threads parked in a read.
        let open: Arc<std::sync::Mutex<Vec<TcpStream>>> =
            Arc::new(std::sync::Mutex::new(Vec::new()));
        for incoming in self.listener.incoming() {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match incoming {
                Ok(s) => s,
                Err(_) => continue,
            };
            // Small request/response frames: disable Nagle so replies
            // are not held hostage to delayed ACKs.
            let _ = stream.set_nodelay(true);
            if let Ok(clone) = stream.try_clone() {
                open.lock().unwrap_or_else(|e| e.into_inner()).push(clone);
            }
            let conn = Connection {
                backend: backend(),
                meters: self.meters,
                stop: Arc::clone(&self.stop),
                poke: addr,
            };
            handlers.push(std::thread::spawn(move || conn.serve(stream)));
        }
        for s in open.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            let _ = s.shutdown(Shutdown::Both);
        }
        for h in handlers {
            let _ = h.join();
        }
    }
}

/// A bound-but-not-yet-serving resolution server over a split
/// [`StreamPipeline`].
pub struct Server {
    front: Listener,
    split: SplitPipeline,
}

impl Server {
    /// Splits `pipeline` into its read/write halves (ingest
    /// micro-batches applied with `writer_threads` workers) and binds
    /// `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    ///
    /// # Errors
    /// Fails when the address cannot be bound.
    pub fn bind(
        pipeline: StreamPipeline,
        addr: &str,
        writer_threads: usize,
    ) -> std::io::Result<Server> {
        Ok(Server {
            front: Listener::bind(addr, pipeline.options().metrics)?,
            split: SplitPipeline::with_threads(pipeline, writer_threads),
        })
    }

    /// The bound address (the real port when bound with port 0).
    ///
    /// # Panics
    /// Panics if the OS cannot report the local address of a freshly
    /// bound listener (which indicates a broken socket layer).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// Serves until an admin `shutdown` request arrives, then drains:
    /// open connections are shut down, handler threads joined, the
    /// admission queue closed and drained, and the pipeline — including
    /// everything ingested over the wire — handed back.
    pub fn run(self) -> StreamPipeline {
        self.front.run(|| Backend::Dedup {
            reads: self.split.read_handle(),
            writes: self.split.write_handle(),
        });
        self.split.shutdown()
    }
}

/// Per-connection state: its backend handles and the server's stop flag.
struct Connection {
    backend: Backend,
    meters: Option<ServeMeters>,
    stop: Arc<AtomicBool>,
    poke: SocketAddr,
}

impl Connection {
    fn serve(mut self, stream: TcpStream) {
        if let Some(m) = self.meters {
            m.connections.incr();
        }
        let mut reader = BufReader::new(match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        });
        let mut writer = stream;
        loop {
            let request = match read_frame(&mut reader) {
                Ok(Some(text)) => text,
                Ok(None) | Err(_) => return,
            };
            let (response, stopping) = self.handle(&request);
            if write_frame(&mut writer, &response).is_err() {
                return;
            }
            if stopping {
                // Reply delivered; now stop the accept loop. The
                // self-connect unblocks `TcpListener::incoming`, which
                // re-checks the flag before handling it.
                self.stop.store(true, Ordering::SeqCst);
                let _ = TcpStream::connect(self.poke);
                return;
            }
        }
    }

    /// Dispatches one request; returns the response and whether this
    /// request asked the server to stop.
    fn handle(&mut self, request: &str) -> (String, bool) {
        if let Some(m) = self.meters {
            m.requests.incr();
        }
        let parsed = match Json::parse(request) {
            Ok(v) => v,
            Err(e) => return (self.fail(format!("malformed request JSON: {e}")), false),
        };
        let op = match parsed.get("op").and_then(Json::as_str) {
            Some(op) => op,
            None => return (self.fail("request carries no \"op\"".into()), false),
        };
        let sw = Stopwatch::new(self.meters.is_some());
        match (op, &self.backend) {
            ("resolve", _) => {
                let out = self.resolve(&parsed);
                if let Some(m) = self.meters {
                    sw.total(m.resolve);
                }
                (out, false)
            }
            ("ingest", Backend::Dedup { writes, .. }) => {
                let out = self.ingest(writes, &parsed);
                if let Some(m) = self.meters {
                    sw.total(m.ingest);
                }
                (out, false)
            }
            ("ingest", Backend::Link(_)) => (
                self.fail("linkage serving is read-only; ingest on the owning pipeline".into()),
                false,
            ),
            ("admin", _) => {
                let (out, stopping) = self.admin(&parsed);
                if let Some(m) = self.meters {
                    sw.total(m.admin);
                }
                (out, stopping)
            }
            (other, _) => (self.fail(format!("unknown op {other:?}")), false),
        }
    }

    fn fail(&self, message: String) -> String {
        if let Some(m) = self.meters {
            m.errors.incr();
        }
        error_response(&message)
    }

    /// Parses a resolve request's `side`: rejected by a dedup server,
    /// required by a linkage server.
    fn side(&self, side: Option<&Json>) -> Result<Option<Side>, String> {
        match (&self.backend, side.map(Json::as_str)) {
            (Backend::Dedup { .. }, None) => Ok(None),
            (Backend::Dedup { .. }, Some(_)) => Err("this server resolves a dedup pipeline; \
                 side-tagged resolution requires a linkage server"
                .into()),
            (Backend::Link(_), Some(Some("left"))) => Ok(Some(Side::Left)),
            (Backend::Link(_), Some(Some("right"))) => Ok(Some(Side::Right)),
            (Backend::Link(_), Some(Some(other))) => {
                Err(format!("side must be \"left\" or \"right\", got {other:?}"))
            }
            (Backend::Link(_), _) => {
                Err("linkage resolve requires a \"side\" (\"left\" or \"right\")".into())
            }
        }
    }

    fn resolve(&mut self, request: &Json) -> String {
        let side = match self.side(request.get("side")) {
            Ok(side) => side,
            Err(e) => return self.fail(e),
        };
        let values = match parse_values(request.get("values")) {
            Ok(v) => v,
            Err(e) => return self.fail(e),
        };
        let arity = match &mut self.backend {
            Backend::Dedup { reads, .. } => {
                reads.refresh();
                reads.arity()
            }
            Backend::Link(reads) => reads.arity(),
        };
        if values.len() != arity {
            return self.fail(format!(
                "record arity {} does not match schema arity {arity}",
                values.len()
            ));
        }
        let record = Record::new(0, values);
        let out = match &mut self.backend {
            Backend::Dedup { reads, .. } => reads.resolve(&record),
            Backend::Link(reads) => {
                reads.resolve(&record, side.expect("a linkage server requires a side"))
            }
        };
        render_resolution(&out)
    }

    fn ingest(&self, writes: &WriteHandle, request: &Json) -> String {
        let records = match request.get("records").and_then(Json::as_arr) {
            Some(r) => r,
            None => return self.fail("ingest request carries no \"records\" array".into()),
        };
        let mut batch = Vec::with_capacity(records.len());
        for (i, rec) in records.iter().enumerate() {
            let id = match rec.get("id").and_then(Json::as_usize) {
                Some(id) if id <= u32::MAX as usize => id as u32,
                _ => return self.fail(format!("record {i} carries no valid \"id\"")),
            };
            let values = match parse_values(rec.get("values")) {
                Ok(v) => v,
                Err(e) => return self.fail(format!("record {i}: {e}")),
            };
            batch.push(Record::new(id, values));
        }
        match writes.ingest(batch) {
            Ok(outcomes) => {
                let mut arr = Arr::new();
                for out in &outcomes {
                    let mut o = Obj::new();
                    o.u64("index", out.index as u64);
                    o.u64("candidates", out.candidates as u64);
                    o.u64("cluster", out.cluster as u64);
                    o.bool("new_entity", out.is_new_entity());
                    o.raw("matches", &render_matches(&out.matches));
                    arr.raw(&o.finish());
                }
                let mut o = Obj::new();
                o.bool("ok", true);
                o.raw("outcomes", &arr.finish());
                o.finish()
            }
            Err(e) => self.fail(e.to_string()),
        }
    }

    fn admin(&self, request: &Json) -> (String, bool) {
        let cmd = match request.get("cmd").and_then(Json::as_str) {
            Some(cmd) => cmd,
            None => return (self.fail("admin request carries no \"cmd\"".into()), false),
        };
        let mut o = Obj::new();
        o.bool("ok", true);
        let writes = match (cmd, &self.backend) {
            ("ping", _) => {
                o.bool("pong", true);
                return (o.finish(), false);
            }
            ("shutdown", _) => {
                o.bool("stopping", true);
                return (o.finish(), true);
            }
            (_, Backend::Dedup { writes, .. }) => writes,
            (other, Backend::Link(_)) => {
                return (
                    self.fail(format!("unknown linkage admin cmd {other:?}")),
                    false,
                )
            }
        };
        let done = match cmd {
            "stats" => writes.stats().map(|text| {
                o.str("stats", &text);
            }),
            "compact" => writes.compact().map(|report| {
                o.u64("epoch", report.epoch);
                o.u64("bytes_reclaimed", report.bytes_reclaimed() as u64);
            }),
            "refresh" => writes.refresh().map(|report| {
                o.u64("records", report.records as u64);
                o.u64("pairs", report.pairs as u64);
                o.u64("em_iterations", report.em_iterations as u64);
                o.f64("divergence", report.divergence);
                o.u64("generation", report.generation);
            }),
            "snapshot" => writes.snapshot_json().map(|json| {
                o.raw("snapshot", &json);
            }),
            other => return (self.fail(format!("unknown admin cmd {other:?}")), false),
        };
        match done {
            Ok(()) => (o.finish(), false),
            Err(e) => (self.fail(e.to_string()), false),
        }
    }
}

/// Parses a request's `values` array, preserving each entry's variant:
/// JSON strings become [`Value::Str`] verbatim (never re-parsed — the
/// text must derive the same tokens it does in-process), integral JSON
/// numbers become [`Value::Int`], other numbers [`Value::Float`], and
/// `null` stays null.
pub(crate) fn parse_values(values: Option<&Json>) -> Result<Vec<Value>, String> {
    let items = values
        .and_then(Json::as_arr)
        .ok_or_else(|| "request carries no \"values\" array".to_string())?;
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        match item {
            Json::Null => out.push(Value::Null),
            Json::Str(s) => out.push(Value::Str(s.clone())),
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 9.0e18 => {
                out.push(Value::Int(*n as i64));
            }
            Json::Num(n) => out.push(Value::Float(*n)),
            other => {
                return Err(format!(
                    "values[{i}] must be a string, number or null, got {other:?}"
                ))
            }
        }
    }
    Ok(out)
}

fn render_matches(matches: &[(usize, f64)]) -> String {
    let mut arr = Arr::new();
    for &(index, p) in matches {
        let mut o = Obj::new();
        o.u64("index", index as u64);
        o.f64("p", p);
        arr.raw(&o.finish());
    }
    arr.finish()
}

/// Renders a [`ResolveOutcome`] as the resolve response body.
pub(crate) fn render_resolution(out: &ResolveOutcome) -> String {
    let mut o = Obj::new();
    o.bool("ok", true);
    o.u64("epoch", out.epoch);
    o.u64("candidates", out.candidates as u64);
    match out.cluster {
        Some(c) => o.u64("cluster", c as u64),
        None => o.raw("cluster", "null"),
    };
    o.raw("matches", &render_matches(&out.matches));
    o.finish()
}
