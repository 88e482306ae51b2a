//! The `sommelier serve` daemon: a long-lived multi-tenant query
//! server over the engine's published snapshot.
//!
//! One process owns ONE engine. The mutator side
//! ([`sommelier_query::Sommelier`]) sits behind a mutex and is touched
//! only by `reload`; every connection gets its own cheap
//! [`SommelierReader`] clone, which pins the current published
//! snapshot with one `Arc` clone under the reader's slot lock (a
//! publish holds it for one swap) — queries keep flowing while a reload
//! holds the engine lock, and a `query_batch` pins one snapshot epoch
//! end to end even when the index republishes mid-batch.
//!
//! Threading is deliberately boring: one accept thread, one thread per
//! connection, and a bounded [`admission::AdmissionGate`] in front of
//! query execution so concurrency is governed by `--workers` +
//! `--queue-depth` rather than by however many sockets are open.
//! Overload is a *typed response* (`overloaded` + `retry_after_ms`),
//! never a hang and never an unbounded buffer.
//!
//! Per-connection latency is recorded into a thread-private
//! [`latency::LocalRecorder`] and merged into the global
//! `serve.request_ms` histogram every [`FLUSH_EVERY`] requests — the
//! hot path never takes a metrics lock.
//!
//! Shutdown (the `shutdown` op or [`DaemonHandle::shutdown`]) is
//! graceful by construction: the listener is woken and closed, each
//! connection's *read* side is shut down so in-flight responses finish
//! writing before the handler sees EOF, and queued admissions drain
//! with a `shutting_down` error. No response is ever torn mid-frame.

pub mod admission;
pub mod client;
pub mod protocol;
pub mod tenants;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use serde::Value;
use sommelier_query::{Sommelier, SommelierReader};
use sommelier_runtime::metrics::{counters, latency};

use admission::{AdmissionGate, Decision};
use protocol::{error_frame, ok_frame, write_frame, ErrorCode, Op, Request, MAX_FRAME_BYTES};
use tenants::{TenantBook, TenantDecision};

/// Requests between local-histogram merges on a connection.
const FLUSH_EVERY: u64 = 64;

/// The merged request-latency histogram's registry name.
pub const REQUEST_HISTOGRAM: &str = "serve.request_ms";

/// Frames answered, bumped once per request: a resolved handle, so the
/// connection loop takes no registry lock.
static REQUESTS: counters::CachedCounter = counters::CachedCounter::new("serve.requests");

/// Startup knobs of [`Daemon::serve`]; mirrors the CLI flags.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Listen address; port 0 picks an ephemeral port (tests/bench).
    pub addr: String,
    /// Concurrent query-execution permits.
    pub workers: usize,
    /// Bounded admission queue depth; arrivals past it are shed.
    pub queue_depth: usize,
    /// Optional tenant file (see [`tenants`]); `None` = open access.
    pub tenants: Option<PathBuf>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 32,
            tenants: None,
        }
    }
}

struct Shared {
    engine: Mutex<Sommelier>,
    reader: SommelierReader,
    gate: AdmissionGate,
    tenants: TenantBook,
    stopping: AtomicBool,
    addr: SocketAddr,
    /// Stream clones of live connections, for read-side shutdown.
    conns: Mutex<Vec<TcpStream>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    active: AtomicU64,
    hist: Arc<latency::Histogram>,
}

impl Shared {
    fn new(
        engine: Sommelier,
        config: &DaemonConfig,
        tenants: TenantBook,
        addr: SocketAddr,
    ) -> Self {
        let reader = engine.reader().clone();
        Shared {
            engine: Mutex::new(engine),
            reader,
            gate: AdmissionGate::new(config.workers, config.queue_depth),
            tenants,
            stopping: AtomicBool::new(false),
            addr,
            conns: Mutex::new(Vec::new()),
            conn_threads: Mutex::new(Vec::new()),
            active: AtomicU64::new(0),
            hist: latency::histogram(REQUEST_HISTOGRAM),
        }
    }

    fn begin_shutdown(&self) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        // Release queued admissions so parked requests answer
        // `shutting_down` instead of waiting forever.
        self.gate.close();
        // Wake the accept loop: it re-checks `stopping` per accept.
        let _ = TcpStream::connect(self.addr);
        // Close only the READ side of every live connection: a handler
        // mid-write finishes its response, then its next read sees EOF
        // and the connection closes cleanly — no torn frames.
        let conns = self.conns.lock().unwrap_or_else(|e| e.into_inner());
        for c in conns.iter() {
            let _ = c.shutdown(std::net::Shutdown::Read);
        }
    }
}

/// Handle to a running daemon.
pub struct DaemonHandle {
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl DaemonHandle {
    /// The bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Ask the daemon to stop; returns immediately. Pair with
    /// [`DaemonHandle::wait`].
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Run `f` with the engine lock held — the mutator-side entry
    /// point for embedders (the daemon tests and `benchmark/` `apply`
    /// through this while connections keep reading the old snapshot).
    pub fn with_engine<R>(&self, f: impl FnOnce(&mut Sommelier) -> R) -> R {
        let mut engine = self
            .shared
            .engine
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        f(&mut engine)
    }

    /// Block until the accept loop and every connection thread exit.
    pub fn wait(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        loop {
            let handles: Vec<_> = {
                let mut v = self
                    .shared
                    .conn_threads
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                std::mem::take(&mut *v)
            };
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
    }
}

/// The daemon entry point.
pub struct Daemon;

impl Daemon {
    /// Bind, spawn the accept loop, and return. The engine is consumed:
    /// the daemon is its sole mutator from here on.
    pub fn serve(engine: Sommelier, config: DaemonConfig) -> Result<DaemonHandle, String> {
        let tenants = match &config.tenants {
            Some(path) => TenantBook::load(path)?,
            None => TenantBook::unrestricted(),
        };
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("cannot resolve listen address: {e}"))?;
        let shared = Arc::new(Shared::new(engine, &config, tenants, addr));
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || accept_loop(listener, accept_shared));
        Ok(DaemonHandle {
            shared,
            accept_thread: Some(accept_thread),
        })
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_shared = Arc::clone(&shared);
        let handle = std::thread::spawn(move || handle_connection(conn_shared, stream));
        let mut threads = shared
            .conn_threads
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        // Reap here, where the list grows: a daemon must not hold one
        // handle per connection it has ever accepted.
        threads.retain(|h| !h.is_finished());
        threads.push(handle);
    }
}

fn handle_connection(shared: Arc<Shared>, stream: TcpStream) {
    stream.set_nodelay(true).ok();
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let conn = Connection::register(&shared, stream);
    serve_frames(&shared, BufReader::new(read_half), &conn.stream);
}

/// A live connection: registered for read-side shutdown and counted in
/// `serve.active_connections`. Dropping it — on return, or while a panic
/// unwinds its handler — unregisters the stream, shuts it down and
/// uncounts it, so the peer sees EOF instead of a socket no thread reads.
struct Connection<'a> {
    shared: &'a Shared,
    stream: TcpStream,
    peer: Option<SocketAddr>,
}

impl<'a> Connection<'a> {
    fn register(shared: &'a Shared, stream: TcpStream) -> Self {
        let peer = stream.peer_addr().ok();
        if let Ok(clone) = stream.try_clone() {
            shared
                .conns
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(clone);
        }
        let active = shared.active.fetch_add(1, Ordering::SeqCst) + 1;
        counters::set("serve.active_connections", active);
        counters::add("serve.connections", 1);
        Connection {
            shared,
            stream,
            peer,
        }
    }
}

impl Drop for Connection<'_> {
    fn drop(&mut self) {
        // Unregister first: a shut-down socket may no longer report its
        // peer, and the peer is what finds this stream's clone.
        self.shared
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|c| c.peer_addr().ok() != self.peer || self.peer.is_none());
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        let active = self.shared.active.fetch_sub(1, Ordering::SeqCst) - 1;
        counters::set("serve.active_connections", active);
    }
}

/// Answer the request frames read from `input` on `output`, each reply
/// in one write, until EOF, a failed write or a frame longer than
/// [`MAX_FRAME_BYTES`] (refused with `frame_too_large`, then the
/// connection closes: the rest of that frame is never read).
fn serve_frames(shared: &Shared, mut input: impl BufRead, mut output: impl Write) {
    let reader = shared.reader.clone();
    let mut local = latency::LocalRecorder::new();
    let mut frame = Vec::new();
    loop {
        frame.clear();
        let limit = MAX_FRAME_BYTES as u64 + 1;
        match (&mut input).take(limit).read_until(b'\n', &mut frame) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if frame.len() > MAX_FRAME_BYTES && frame.last() != Some(&b'\n') {
            counters::add("serve.frame_too_large", 1);
            let message = format!("request frame exceeds {MAX_FRAME_BYTES} bytes");
            let refusal = error_frame(None, ErrorCode::FrameTooLarge, &message, None);
            let _ = write_frame(&mut output, refusal);
            break;
        }
        let started = std::time::Instant::now();
        let (response, stop_after) = match std::str::from_utf8(&frame).map(str::trim) {
            Ok("") => continue,
            Ok(line) => serve_line(shared, &reader, line),
            Err(_) => (
                error_frame(
                    None,
                    ErrorCode::BadRequest,
                    "request frame is not UTF-8",
                    None,
                ),
                false,
            ),
        };
        local.record(started.elapsed().as_secs_f64() * 1e3);
        REQUESTS.add(1);
        if local.len() >= FLUSH_EVERY {
            local.flush_into(&shared.hist);
        }
        if write_frame(&mut output, response).is_err() {
            break;
        }
        if stop_after {
            shared.begin_shutdown();
        }
    }
    local.flush_into(&shared.hist);
}

/// Dispatch one request line to one response frame. The bool asks the
/// caller to begin shutdown *after* writing the response.
fn serve_line(shared: &Shared, reader: &SommelierReader, line: &str) -> (String, bool) {
    let request = match protocol::parse_request(line) {
        Ok(r) => r,
        Err((id, message)) => {
            return (
                error_frame(id, ErrorCode::BadRequest, &message, None),
                false,
            )
        }
    };
    if shared.stopping.load(Ordering::SeqCst) {
        return (
            error_frame(
                Some(request.id),
                ErrorCode::ShuttingDown,
                "daemon is draining",
                None,
            ),
            false,
        );
    }
    // Tenant gate first: auth applies to every op, quota to queries.
    match shared
        .tenants
        .check(request.auth.as_deref(), request.op.quota_cost())
    {
        TenantDecision::Ok(_) => {}
        TenantDecision::Unauthorized => {
            counters::add("serve.unauthorized", 1);
            return (
                error_frame(
                    Some(request.id),
                    ErrorCode::Unauthorized,
                    "missing or unknown tenant key",
                    None,
                ),
                false,
            );
        }
        TenantDecision::Exhausted { retry_after_ms } => {
            counters::add("serve.quota_exhausted", 1);
            return (
                error_frame(
                    Some(request.id),
                    ErrorCode::QuotaExhausted,
                    "tenant quota exhausted",
                    Some(retry_after_ms),
                ),
                false,
            );
        }
    }
    if request.op.needs_admission() {
        match shared.gate.admit() {
            Decision::Admitted(permit) => {
                let response = run_query_op(&request, reader);
                permit.complete();
                (response, false)
            }
            Decision::Shed { retry_after_ms } => (
                error_frame(
                    Some(request.id),
                    ErrorCode::Overloaded,
                    "admission queue full",
                    Some(retry_after_ms),
                ),
                false,
            ),
            Decision::Closed => (
                error_frame(
                    Some(request.id),
                    ErrorCode::ShuttingDown,
                    "daemon is draining",
                    None,
                ),
                false,
            ),
        }
    } else {
        run_control_op(shared, &request, reader)
    }
}

fn run_query_op(request: &Request, reader: &SommelierReader) -> String {
    let reply = match &request.op {
        Op::Query { text } => {
            // Through the batch path so the answer carries its pinned
            // epoch and measured latency like every other query.
            let items = reader.query_batch(std::slice::from_ref(text));
            let item = &items[0];
            match &item.results {
                Ok(_) => protocol::query_frame(request.id, item),
                Err(e) => Ok(error_frame(
                    Some(request.id),
                    ErrorCode::QueryFailed,
                    &e.to_string(),
                    None,
                )),
            }
        }
        Op::QueryBatch { texts } => protocol::batch_frame(request.id, &reader.query_batch(texts)),
        _ => Ok(error_frame(
            Some(request.id),
            ErrorCode::Internal,
            "non-query op routed through admission",
            None,
        )),
    };
    // A snapshot can hold a non-finite profile row (only lint reports
    // one); the answer it produces cannot be written as JSON.
    reply.unwrap_or_else(|e| {
        error_frame(
            Some(request.id),
            ErrorCode::Internal,
            &format!("the answer cannot be encoded: {e}"),
            None,
        )
    })
}

fn run_control_op(shared: &Shared, request: &Request, reader: &SommelierReader) -> (String, bool) {
    match &request.op {
        Op::Ping => (
            ok_frame(
                request.id,
                vec![
                    ("pong".to_string(), Value::Bool(true)),
                    ("epoch".to_string(), Value::UInt(reader.epoch())),
                ],
            ),
            false,
        ),
        Op::Fsck => (fsck_frame(request.id, reader), false),
        Op::Metrics => (metrics_frame(shared, request.id, reader), false),
        Op::Reload => {
            // The engine lock serializes mutators; readers keep
            // serving the previous snapshot until the republish.
            let mut engine = shared.engine.lock().unwrap_or_else(|e| e.into_inner());
            match engine.index_existing() {
                Ok(count) => (
                    ok_frame(
                        request.id,
                        vec![
                            ("reindexed".to_string(), Value::UInt(count as u64)),
                            ("epoch".to_string(), Value::UInt(engine.epoch())),
                        ],
                    ),
                    false,
                ),
                Err(e) => (
                    error_frame(
                        Some(request.id),
                        ErrorCode::Internal,
                        &e.to_string(),
                        None,
                    ),
                    false,
                ),
            }
        }
        Op::Shutdown => (
            ok_frame(
                request.id,
                vec![("stopping".to_string(), Value::Bool(true))],
            ),
            true,
        ),
        _ => (
            error_frame(
                Some(request.id),
                ErrorCode::Internal,
                "query op routed around admission",
                None,
            ),
            false,
        ),
    }
}

/// Engine-level consistency check over the pinned snapshot: the
/// semantic and resource indices must agree on the key set, and every
/// default reference must resolve.
fn fsck_frame(id: u64, reader: &SommelierReader) -> String {
    let snapshot = reader.snapshot();
    let mut issues = Vec::new();
    for key in snapshot.semantic.keys() {
        if snapshot.resource.profile_of(key).is_none() {
            issues.push(format!("key '{key}' indexed semantically but has no profile"));
        }
    }
    if snapshot.semantic.len() != snapshot.resource.len() {
        issues.push(format!(
            "index cardinality mismatch: {} semantic vs {} resource entries",
            snapshot.semantic.len(),
            snapshot.resource.len()
        ));
    }
    for (task, key) in &snapshot.default_refs {
        if !snapshot.semantic.contains(key) {
            issues.push(format!(
                "default reference '{key}' for task {task:?} is not indexed"
            ));
        }
    }
    ok_frame(
        id,
        vec![
            ("epoch".to_string(), Value::UInt(snapshot.epoch)),
            (
                "models".to_string(),
                Value::UInt(snapshot.semantic.len() as u64),
            ),
            ("consistent".to_string(), Value::Bool(issues.is_empty())),
            (
                "issues".to_string(),
                Value::Seq(issues.into_iter().map(Value::Str).collect()),
            ),
        ],
    )
}

fn metrics_frame(shared: &Shared, id: u64, reader: &SommelierReader) -> String {
    // Publish the gate's stats as counters so one scrape sees both the
    // request counters and admission outcomes under one namespace.
    let stats = shared.gate.stats();
    counters::set("serve.accepted", stats.accepted);
    counters::set("serve.shed", stats.shed);
    counters::set("serve.max_inflight", stats.max_inflight as u64);
    counters::set(
        "serve.active_connections",
        shared.active.load(Ordering::SeqCst),
    );
    let conn_threads = shared
        .conn_threads
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .len();
    counters::set("serve.conn_threads", conn_threads as u64);
    let counter_map = Value::Map(
        counters::snapshot()
            .into_iter()
            .map(|(k, v)| (k, Value::UInt(v)))
            .collect(),
    );
    let quantiles_value = |q: latency::LatencyQuantiles| {
        Value::Map(vec![
            ("count".to_string(), Value::UInt(q.count as u64)),
            ("p50_ms".to_string(), Value::Float(q.p50)),
            ("p90_ms".to_string(), Value::Float(q.p90)),
            ("p99_ms".to_string(), Value::Float(q.p99)),
        ])
    };
    let latency_map = Value::Map(
        latency::histogram_snapshot()
            .into_iter()
            .map(|(name, q)| (name, quantiles_value(q)))
            .collect(),
    );
    ok_frame(
        id,
        vec![
            ("epoch".to_string(), Value::UInt(reader.epoch())),
            ("counters".to_string(), counter_map),
            ("latency".to_string(), latency_map),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use protocol::CountingWriter;
    use sommelier_query::SommelierConfig;
    use sommelier_repo::{InMemoryRepository, ModelRepository};

    /// A daemon's shared state over an empty engine, never bound: the
    /// frames here arrive from memory, not from a socket.
    fn shared() -> Shared {
        let repo: Arc<dyn ModelRepository> = Arc::new(InMemoryRepository::new());
        let engine = Sommelier::connect(repo, SommelierConfig::default());
        let addr = SocketAddr::from(([127, 0, 0, 1], 0));
        Shared::new(engine, &DaemonConfig::default(), TenantBook::unrestricted(), addr)
    }

    /// Serve `input` to completion; the reply lines and the writes spent.
    fn serve(input: &[u8]) -> (Vec<Value>, usize) {
        let mut out = CountingWriter::default();
        serve_frames(&shared(), input, &mut out);
        let text = String::from_utf8(out.bytes).unwrap();
        assert!(text.is_empty() || text.ends_with('\n'), "{text:?}");
        let replies = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        (replies, out.writes)
    }

    fn code(reply: &Value) -> Option<&Value> {
        reply.get_field("error")?.get_field("code")
    }

    #[test]
    fn every_reply_is_one_write() {
        let (replies, writes) = serve(
            b"{\"id\":1,\"op\":\"ping\"}\n\n  \n{\"id\":2,\"op\":\"nope\"}\n\xff\xfe\n{\"id\":3,\"op\":\"ping\"}",
        );
        assert_eq!(replies.len(), 4, "blank lines are skipped: {replies:?}");
        assert_eq!(writes, 4, "one write per reply frame");
        assert_eq!(replies[0].get_field("pong"), Some(&Value::Bool(true)));
        assert_eq!(code(&replies[1]), Some(&Value::Str("bad_request".into())));
        // A frame that is not UTF-8 is a bad request, not a hang-up.
        assert_eq!(code(&replies[2]), Some(&Value::Str("bad_request".into())));
        // The last frame lacks its newline: EOF ends it, as before.
        assert_eq!(replies[3].get_field("id"), Some(&Value::UInt(3)));
    }

    #[test]
    fn a_frame_past_the_cap_is_refused_and_ends_the_connection() {
        let mut input = b"{\"id\":1,\"op\":\"ping\"}\n".to_vec();
        input.resize(input.len() + MAX_FRAME_BYTES + 1, b'x');
        input.extend_from_slice(b"\n{\"id\":2,\"op\":\"ping\"}\n");
        let (replies, writes) = serve(&input);
        assert_eq!(writes, 2);
        assert_eq!(replies.len(), 2, "nothing after the refusal: {replies:?}");
        assert_eq!(replies[0].get_field("pong"), Some(&Value::Bool(true)));
        assert_eq!(code(&replies[1]), Some(&Value::Str("frame_too_large".into())));
        assert_eq!(replies[1].get_field("id"), Some(&Value::UInt(0)));
    }

    #[test]
    fn a_frame_at_the_cap_is_read() {
        let mut input = vec![b' '; MAX_FRAME_BYTES - 20];
        input.extend_from_slice(b"{\"id\":5,\"op\":\"ping\"}\n");
        assert_eq!(input.len(), MAX_FRAME_BYTES + 1);
        let (replies, _) = serve(&input);
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].get_field("pong"), Some(&Value::Bool(true)));
    }
}
