//! Outside-in tracing: wrappers around the program's public seams that
//! record spans in memory, and the post-processing that turns them into
//! per-layer self times.
//!
//! Nothing here changes the program. [`TracedGuard`] wraps the SEPTIC
//! guard the server calls between lowering and execution; [`TracedIo`]
//! wraps the `FsIo` the WAL writes through. The client side records the
//! request span around each call. Each server-side record carries the
//! thread it ran on and a hash of the SQL it saw, which is how
//! [`Tracer::attribute`] matches it to the request that caused it.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use septic::plugins::{default_plugins, scan_inputs, Plugin};
use septic::{detect_sqli, detect_sqli_vm, IdGenerator, Septic};
use septic_dbms::wal::{SNAPSHOT_FILE, WAL_FILE};
use septic_dbms::{FailurePolicy, GuardDecision, QueryContext, QueryGuard, StorageIo};
use septic_sql::{decode_and_parse, items};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("a traced thread panicked while recording")
}

/// Small per-thread id, stable for the thread's life.
#[must_use]
pub fn thread_tag() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TAG: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TAG.with(|t| *t)
}

/// Hash of the SQL text, the key that ties a server-side record to the
/// request that sent it.
#[must_use]
pub fn sql_hash(sql: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    sql.hash(&mut h);
    h.finish()
}

/// Side timings of one layer's public functions, re-run on the same
/// inputs the guard saw. Nanoseconds; `None` where the stage did not
/// apply (no model found, no write data).
#[derive(Debug, Clone, Copy, Default)]
pub struct SideTimes {
    pub parse_ns: u64,
    pub lower_ns: u64,
    pub id_gen_ns: u64,
    pub store_get_ns: u64,
    pub sqli_detect_ns: Option<u64>,
    pub stored_scan_ns: Option<u64>,
}

/// One guard call: `[g0, g1]` is the wrapped `inspect`, `[g1, g2]` the
/// side timings taken after it.
#[derive(Debug, Clone, Copy)]
pub struct GuardRec {
    pub thread: u64,
    pub sql: u64,
    pub g0: u64,
    pub g1: u64,
    pub g2: u64,
    pub side: SideTimes,
}

/// What a storage call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    Append,
    Write,
    Read,
    Rename,
}

/// Which file a storage call touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFile {
    Wal,
    SnapshotTmp,
    Other,
}

/// One storage call.
#[derive(Debug, Clone, Copy)]
pub struct IoRec {
    pub thread: u64,
    pub op: IoOp,
    pub file: IoFile,
    pub start: u64,
    pub end: u64,
    pub bytes: u64,
}

/// The client's view of one request.
#[derive(Debug, Clone, Copy)]
pub struct ReqRec {
    pub thread: u64,
    pub sql: u64,
    pub t0: u64,
    pub t1: u64,
    /// Sent over the wire (the guard ran on a server thread).
    pub wire: bool,
    /// The server-reported pipeline time of an executed wire request.
    pub server_ns: Option<u64>,
    pub blocked: bool,
}

/// The in-memory span store shared by the wrappers and the clients.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    guards: Mutex<Vec<GuardRec>>,
    ios: Mutex<Vec<IoRec>>,
}

impl Tracer {
    #[must_use]
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            guards: Mutex::new(Vec::with_capacity(1 << 16)),
            ios: Mutex::new(Vec::with_capacity(1 << 14)),
        })
    }

    /// Nanoseconds since the tracer was made.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Forgets everything recorded so far (set-up traffic).
    pub fn clear(&self) {
        lock(&self.guards).clear();
        lock(&self.ios).clear();
    }

    /// Every storage call recorded so far.
    #[must_use]
    pub fn io_records(&self) -> Vec<IoRec> {
        lock(&self.ios).clone()
    }
}

/// A `QueryGuard` that delegates every method to SEPTIC unchanged and
/// records the `inspect` span plus side timings of the core and sql
/// layers' public functions on the same `QueryContext`.
pub struct TracedGuard {
    inner: Arc<Septic>,
    tracer: Arc<Tracer>,
    ids: IdGenerator,
    plugins: Vec<Box<dyn Plugin>>,
}

impl TracedGuard {
    #[must_use]
    pub fn new(inner: Arc<Septic>, tracer: Arc<Tracer>) -> TracedGuard {
        TracedGuard {
            inner,
            tracer,
            ids: IdGenerator::new(),
            plugins: default_plugins(),
        }
    }

    fn side_times(&self, ctx: &QueryContext<'_>) -> SideTimes {
        let mut side = SideTimes::default();
        let t = Instant::now();
        std::hint::black_box(decode_and_parse(std::hint::black_box(ctx.raw_sql)).ok());
        side.parse_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        std::hint::black_box(items::lower_all(ctx.statements));
        side.lower_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let id = self.ids.generate(ctx.stack, ctx.comments);
        side.id_gen_ns = t.elapsed().as_nanos() as u64;
        let store = self.inner.store();
        let use_vm = self.inner.engine_config().use_vm;
        let t = Instant::now();
        let compiled = store.get_compiled(&id);
        side.store_get_ns = t.elapsed().as_nanos() as u64;
        if let Some(compiled) = compiled {
            let t = Instant::now();
            let outcome = if use_vm {
                detect_sqli_vm(compiled.program(), ctx.stack, compiled.model())
            } else {
                detect_sqli(ctx.stack, compiled.model())
            };
            std::hint::black_box(outcome);
            side.sqli_detect_ns = Some(t.elapsed().as_nanos() as u64);
        }
        if !ctx.write_data.is_empty() {
            let t = Instant::now();
            std::hint::black_box(scan_inputs(&self.plugins, ctx.write_data));
            side.stored_scan_ns = Some(t.elapsed().as_nanos() as u64);
        }
        side
    }
}

impl QueryGuard for TracedGuard {
    fn inspect(&self, ctx: &QueryContext<'_>) -> GuardDecision {
        let g0 = self.tracer.now();
        let decision = self.inner.inspect(ctx);
        let g1 = self.tracer.now();
        let side = self.side_times(ctx);
        let g2 = self.tracer.now();
        lock(&self.tracer.guards).push(GuardRec {
            thread: thread_tag(),
            sql: sql_hash(ctx.raw_sql),
            g0,
            g1,
            g2,
            side,
        });
        decision
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn failure_policy(&self) -> FailurePolicy {
        self.inner.failure_policy()
    }

    fn metrics(&self) -> Option<septic_telemetry::MetricsSnapshot> {
        QueryGuard::metrics(&*self.inner)
    }

    fn scan_stored(&self, values: &[String]) -> usize {
        self.inner.scan_stored(values)
    }
}

/// A `StorageIo` that times and counts every call into the wrapped
/// medium, with its bytes.
#[derive(Debug)]
pub struct TracedIo {
    inner: Arc<dyn StorageIo>,
    tracer: Arc<Tracer>,
}

impl TracedIo {
    #[must_use]
    pub fn new(inner: Arc<dyn StorageIo>, tracer: Arc<Tracer>) -> Arc<TracedIo> {
        Arc::new(TracedIo { inner, tracer })
    }

    fn timed<T>(
        &self,
        op: IoOp,
        path: &Path,
        f: impl FnOnce() -> (io::Result<T>, u64),
    ) -> io::Result<T> {
        let start = self.tracer.now();
        let (result, bytes) = f();
        let end = self.tracer.now();
        let file = if path == Path::new(WAL_FILE) {
            IoFile::Wal
        } else if path.as_os_str().to_str() == Some(&format!("{SNAPSHOT_FILE}.tmp")) {
            IoFile::SnapshotTmp
        } else {
            IoFile::Other
        };
        lock(&self.tracer.ios).push(IoRec {
            thread: thread_tag(),
            op,
            file,
            start,
            end,
            bytes,
        });
        result
    }
}

impl StorageIo for TracedIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.timed(IoOp::Read, path, || {
            let r = self.inner.read(path);
            let n = r.as_ref().map_or(0, |v| v.len() as u64);
            (r, n)
        })
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.timed(IoOp::Write, path, || {
            (self.inner.write(path, data), data.len() as u64)
        })
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.timed(IoOp::Append, path, || {
            (self.inner.append(path, data), data.len() as u64)
        })
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.timed(IoOp::Rename, from, || (self.inner.rename(from, to), 0))
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

/// A span of the reconstructed timeline.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub req: usize,
}

/// Layers a request's time is split into.
pub const LAYERS: [&str; 7] = [
    "net",
    "sql",
    "core",
    "dbms",
    "wal",
    "harness",
    "unattributed",
];

/// Per-request self time by layer, nanoseconds, in [`LAYERS`] order.
pub type LayerTimes = [u64; 7];

/// The attributed timeline of one traced run.
#[derive(Debug, Default)]
pub struct Attribution {
    pub spans: Vec<Span>,
    /// One entry per request, in request order.
    pub per_request: Vec<LayerTimes>,
    /// Request span durations, nanoseconds.
    pub request_ns: Vec<u64>,
    /// Side timings of the requests whose guard call was found.
    pub sides: Vec<SideTimes>,
    /// `core.inspect` span durations.
    pub inspect_ns: Vec<u64>,
    /// `dbms.exec` self times of executed (not blocked) requests.
    pub exec_ns: Vec<u64>,
    /// `sql.front` span durations.
    pub front_ns: Vec<u64>,
    /// Wire time (request minus server span) of wire requests.
    pub wire_ns: Vec<u64>,
    /// WAL append durations.
    pub append_ns: Vec<u64>,
    /// Checkpoint durations: from the end of the triggering append to
    /// the end of the WAL truncation.
    pub checkpoint_ns: Vec<u64>,
    /// Requests with no matching guard call.
    pub unmatched: usize,
}

impl Tracer {
    /// Rebuilds each request's span tree and its per-layer self times.
    ///
    /// In-process, the request span `[t0, t1]` has the children
    /// `sql.front [t0, g0]`, `core.inspect [g0, g1]`, `harness.side
    /// [g1, g2]` and, for executed requests, `dbms.exec [g2, t1]`, whose
    /// children are the `wal.append` and `wal.checkpoint` spans made on
    /// the request's thread. Over the wire the request span has one
    /// child, `server`, of the server-reported length, placed so that
    /// its front part matches the side-timed parse and lowering of the
    /// same SQL; the request's self time is the wire time.
    #[must_use]
    pub fn attribute(&self, requests: &[ReqRec]) -> Attribution {
        let guards = lock(&self.guards).clone();
        let ios = lock(&self.ios).clone();
        let mut by_sql: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, g) in guards.iter().enumerate() {
            by_sql.entry(g.sql).or_default().push(i);
        }
        let mut used = vec![false; guards.len()];
        let wal = wal_spans(&ios);
        let mut out = Attribution::default();
        for (r, req) in requests.iter().enumerate() {
            let root = out.spans.len();
            out.spans.push(Span {
                name: "request",
                start: req.t0,
                end: req.t1,
                parent: None,
                req: r,
            });
            out.request_ns.push(req.t1 - req.t0);
            let found = by_sql.get(&req.sql).and_then(|cands| {
                cands.iter().copied().find(|&g| {
                    !used[g]
                        && guards[g].g0 >= req.t0
                        && guards[g].g0 <= req.t1
                        && (req.wire || guards[g].thread == req.thread)
                })
            });
            let Some(g) = found else {
                out.unmatched += 1;
                out.per_request.push(layer_times(&out.spans, root));
                continue;
            };
            used[g] = true;
            let g = guards[g];
            out.sides.push(g.side);
            let (server_start, server_end, parent) = if req.wire {
                // A blocked request reports no pipeline time; its server
                // span ends when the guard returns. No server span is
                // shorter than the guard call and side timings it holds.
                let front = g.side.parse_ns + g.side.lower_ns;
                let s = g.g0.saturating_sub(front);
                let e = req.server_ns.unwrap_or(g.g2 - s).max(g.g2 - s);
                let idx = out.spans.len();
                out.spans.push(Span {
                    name: "server",
                    start: s,
                    end: s + e,
                    parent: Some(root),
                    req: r,
                });
                out.wire_ns.push((req.t1 - req.t0).saturating_sub(e));
                (s, s + e, idx)
            } else {
                (req.t0, req.t1, root)
            };
            let mut child = |name, start: u64, end: u64, parent| {
                let idx = out.spans.len();
                out.spans.push(Span {
                    name,
                    start,
                    end: end.max(start),
                    parent: Some(parent),
                    req: r,
                });
                idx
            };
            child("sql.front", server_start, g.g0, parent);
            child("core.inspect", g.g0, g.g1, parent);
            child("harness.side", g.g1, g.g2, parent);
            out.front_ns.push(g.g0.saturating_sub(server_start));
            out.inspect_ns.push(g.g1 - g.g0);
            if !req.blocked {
                let exec = child("dbms.exec", g.g2, server_end, parent);
                for w in wal
                    .iter()
                    .filter(|w| w.thread == g.thread && w.start >= g.g2 && w.start <= server_end)
                {
                    child(w.name, w.start, w.end, exec);
                }
            }
            let times = layer_times(&out.spans, root);
            if !req.blocked {
                out.exec_ns.push(times[3]);
            }
            out.per_request.push(times);
        }
        for w in &wal {
            match w.name {
                "wal.append" => out.append_ns.push(w.end - w.start),
                _ => out.checkpoint_ns.push(w.end - w.start),
            }
        }
        out
    }
}

/// A WAL span reconstructed from storage calls.
#[derive(Debug, Clone, Copy)]
struct WalSpan {
    name: &'static str,
    thread: u64,
    start: u64,
    end: u64,
}

/// Appends to the WAL become `wal.append` spans. A checkpoint shows as
/// a write of the snapshot temp file; its span runs from the end of the
/// append that triggered it (the checkpoint serializes before its first
/// write) to the end of the WAL truncation that closes it.
fn wal_spans(ios: &[IoRec]) -> Vec<WalSpan> {
    let mut out = Vec::new();
    let mut last_append_end: HashMap<u64, u64> = HashMap::new();
    let mut open: HashMap<u64, u64> = HashMap::new();
    for io in ios {
        match (io.op, io.file) {
            (IoOp::Append, IoFile::Wal) => {
                out.push(WalSpan {
                    name: "wal.append",
                    thread: io.thread,
                    start: io.start,
                    end: io.end,
                });
                last_append_end.insert(io.thread, io.end);
            }
            (IoOp::Write, IoFile::SnapshotTmp) => {
                let start = last_append_end.get(&io.thread).copied().unwrap_or(io.start);
                open.insert(io.thread, start);
            }
            (IoOp::Write, IoFile::Wal) => {
                if let Some(start) = open.remove(&io.thread) {
                    out.push(WalSpan {
                        name: "wal.checkpoint",
                        thread: io.thread,
                        start,
                        end: io.end,
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// Self time of every span under `root`, summed per layer. A span's self
/// time is its duration minus the part its children cover.
fn layer_times(spans: &[Span], root: usize) -> LayerTimes {
    let mut child_sum = vec![0u64; spans.len() - root];
    for s in &spans[root + 1..] {
        if let Some(p) = s.parent {
            child_sum[p - root] += s.end - s.start;
        }
    }
    let wire = spans[root..].iter().any(|s| s.name == "server");
    let mut times = [0u64; 7];
    for (k, s) in spans.iter().enumerate().skip(root) {
        let own = (s.end - s.start).saturating_sub(child_sum[k - root]);
        let layer = match s.name {
            "request" if wire => 0,
            "sql.front" => 1,
            "core.inspect" => 2,
            "dbms.exec" => 3,
            "wal.append" | "wal.checkpoint" => 4,
            "harness.side" => 5,
            _ => 6,
        };
        times[layer] += own;
    }
    times
}

/// Writes the spans as tab-separated lines: id, name, start, end,
/// parent (or `-`), request.
///
/// # Errors
///
/// The file could not be written.
pub fn write_spans(path: &Path, spans: &[Span]) -> io::Result<()> {
    use std::fmt::Write as _;
    let mut text = String::with_capacity(spans.len() * 40);
    text.push_str("id\tname\tstart_ns\tend_ns\tparent\treq\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{i}\t{}\t{}\t{}\t{parent}\t{}",
            s.name, s.start, s.end, s.req
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}
