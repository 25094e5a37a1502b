//! The workloads, their deployments and the clients that drive them.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use septic::{Mode, Septic};
use septic_dbms::{
    Connection, DbError, FsIo, QueryGuard, Server, ServerConfig, StorageIo, WalConfig,
};
use septic_net::{
    read_frame, write_frame, ClientError, EventLoopHandle, NetClient, QueryRequest, Request,
    Response, WireResult, DEFAULT_MAX_FRAME_LEN,
};

use crate::harness::{Call, Client, Config, Generator};
use crate::oracle::{check, Got};
use crate::rng::Rng;
use crate::trace::{TracedGuard, TracedIo, Tracer};

pub mod durable_mix;
pub mod scan_report;
pub mod web_wire;

/// Client threads (and connections or sessions) of every workload.
pub const CLIENTS: usize = 2;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WebWire,
    ScanReport,
    DurableMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::WebWire,
        Workload::ScanReport,
        Workload::DurableMix,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::WebWire => "web_wire",
            Workload::ScanReport => "scan_report",
            Workload::DurableMix => "durable_mix",
        }
    }

    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A deployment ready for the closed loop.
pub struct Built {
    pub server: Arc<Server>,
    pub clients: Vec<Box<dyn Client>>,
    pub gens: Vec<Box<dyn Generator>>,
    /// The wire front end, shut down (and joined) when dropped.
    pub front: Option<EventLoopHandle>,
    /// The durable workload's directory.
    pub dir: Option<PathBuf>,
}

/// Builds one deployment of the configured workload. `rep` numbers the
/// set-up repetitions so each durable deployment gets a fresh directory.
///
/// # Panics
///
/// When the deployment cannot be built.
#[must_use]
pub fn setup(cfg: &Config, tracer: Option<&Arc<Tracer>>, rep: usize) -> Built {
    match cfg.workload {
        Workload::WebWire => web_wire::setup(cfg.seed, tracer),
        Workload::ScanReport => scan_report::setup(cfg.seed, tracer),
        Workload::DurableMix => {
            let dir = cfg.work_dir.join(format!(
                "durable_mix-{}-{}-{rep}",
                cfg.seed,
                std::process::id()
            ));
            durable_mix::setup(cfg.seed, tracer, dir)
        }
    }
}

/// Trains SEPTIC on `shapes` (one benign query per statement shape) and
/// switches it to prevention, installing it — wrapped when traced — on
/// `server`.
pub(crate) fn train(
    server: &Arc<Server>,
    shapes: impl IntoIterator<Item = String>,
    tracer: Option<&Arc<Tracer>>,
) -> Arc<Septic> {
    let septic = Arc::new(Septic::new());
    let guard: Arc<dyn QueryGuard> = match tracer {
        Some(t) => Arc::new(TracedGuard::new(Arc::clone(&septic), Arc::clone(t))),
        None => septic.clone(),
    };
    server.install_guard(guard);
    septic.set_mode(Mode::Training);
    let conn = server.connect();
    for sql in shapes {
        conn.execute(&sql)
            .unwrap_or_else(|e| panic!("training query `{sql}` failed: {e}"));
    }
    septic.set_mode(Mode::PREVENTION);
    septic
}

/// The storage medium of a durable deployment: `FsIo`, wrapped when
/// traced.
pub(crate) fn storage(dir: &PathBuf, tracer: Option<&Arc<Tracer>>) -> Arc<dyn StorageIo> {
    let fs: Arc<dyn StorageIo> = FsIo::open(dir).expect("create the durable directory");
    match tracer {
        Some(t) => TracedIo::new(fs, Arc::clone(t)),
        None => fs,
    }
}

/// The server configuration every workload deploys with.
pub(crate) fn server_config() -> ServerConfig {
    ServerConfig::default()
}

/// An in-process session.
pub struct InProc(pub Connection);

impl Client for InProc {
    fn call(&mut self, sql: &str, _trace: bool) -> Call {
        let got = match self.0.execute(sql) {
            Ok(res) => match res.last() {
                Some(out) => Got::Ok {
                    rows: out.rows.clone(),
                    affected: out.affected as u64,
                    last_insert_id: out.last_insert_id,
                },
                None => Got::Error("no output".into()),
            },
            Err(DbError::Blocked(_)) => Got::Blocked,
            Err(e) => Got::Error(e.to_string()),
        };
        Call {
            got,
            wire: false,
            server_ns: None,
            codec_ns: None,
        }
    }
}

/// A wire session over the framed TCP protocol.
pub struct Wire(pub NetClient);

impl Client for Wire {
    fn call(&mut self, sql: &str, trace: bool) -> Call {
        let result = self.0.query(sql);
        let server_ns = result.as_ref().ok().map(|r| r.elapsed_us * 1000);
        let codec_ns = trace.then(|| codec_times(sql, &result));
        let got = match result {
            Ok(res) => match res.last() {
                Some(out) => Got::Ok {
                    rows: out.rows.clone(),
                    affected: out.affected,
                    last_insert_id: out.last_insert_id,
                },
                None => Got::Error("no output".into()),
            },
            Err(ClientError::Blocked { .. }) => Got::Blocked,
            Err(e) => Got::Error(e.to_string()),
        };
        Call {
            got,
            wire: true,
            server_ns,
            codec_ns,
        }
    }
}

/// Times `write_frame` on the request and `read_frame` on the response
/// this call exchanged, re-encoded into memory.
fn codec_times(sql: &str, result: &Result<WireResult, ClientError>) -> (u64, u64) {
    let request = Request::Query(QueryRequest {
        sql: sql.to_string(),
        params: None,
    });
    let response = match result {
        Ok(r) => Response::Result(r.clone()),
        Err(ClientError::Blocked { reason }) => Response::Blocked {
            reason: reason.clone(),
        },
        Err(e) => Response::Error {
            message: e.to_string(),
        },
    };
    let mut buf = Vec::with_capacity(256);
    let t = Instant::now();
    write_frame(&mut buf, &request, DEFAULT_MAX_FRAME_LEN).expect("encode into memory");
    let encode = t.elapsed().as_nanos() as u64;
    buf.clear();
    write_frame(&mut buf, &response, DEFAULT_MAX_FRAME_LEN).expect("encode into memory");
    let t = Instant::now();
    let decoded: Response =
        read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME_LEN).expect("decode from memory");
    let decode = t.elapsed().as_nanos() as u64;
    std::hint::black_box(decoded);
    (encode, decode)
}

/// What the post-window drain did.
#[derive(Debug, Default)]
pub struct Drained {
    pub writes: u64,
    pub acked: u64,
    pub user_bytes: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

/// WAL records left past the last checkpoint when the durable load
/// stops, so every run recovers the same amount of log.
pub fn drain_target() -> u64 {
    WalConfig::default().checkpoint_every / 2
}

/// Durable workload only: issues benign writes from client 0 until the
/// WAL holds [`drain_target`] records past its last checkpoint.
pub fn drain(built: &mut Built, seed: u64) -> Drained {
    let mut out = Drained::default();
    if built.dir.is_none() {
        return out;
    }
    let every = WalConfig::default().checkpoint_every;
    let mut rng = Rng::new(seed, 99);
    for _ in 0..2 * every {
        let snap = built.server.metrics_snapshot();
        let appends = snap.counter("dbms_wal_appends_total").unwrap_or(0);
        let checkpoints = snap.counter("dbms_checkpoints_total").unwrap_or(0);
        if appends.saturating_sub(checkpoints * every) == drain_target() {
            break;
        }
        let Some(op) = built.gens[0].drain_op(&mut rng) else {
            break;
        };
        let call = built.clients[0].call(&op.sql, false);
        out.writes += 1;
        if call.got.is_ok() {
            out.acked += 1;
            out.user_bytes += op.user_bytes;
        }
        if let Err(why) = check(&op, &call.got) {
            out.failed += 1;
            if out.failures.len() < 5 {
                out.failures.push(why);
            }
        }
        built.gens[0].apply(&op, &call.got);
    }
    out
}

/// What reopening the durable directory found.
#[derive(Debug, Default, Clone)]
pub struct DurableReport {
    /// Seconds each `Server::open_durable` took.
    pub recovery_s: Vec<f64>,
    pub replayed_records: u64,
    /// Acknowledged rows missing or different after reopen.
    pub missing: u64,
    pub failures: Vec<String>,
}

/// Tears down a deployment that was built only to time set-up.
pub fn discard(built: Built) {
    let dir = built.dir.clone();
    drop(built);
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Tears the deployment down. For the durable workload, reopens its
/// directory (timing recovery) and compares the recovered table with the
/// acknowledged state.
pub fn finish(built: Built, cfg: &Config) -> Option<DurableReport> {
    let Built {
        server,
        clients,
        gens,
        front,
        dir,
    } = built;
    let expected: Vec<_> = gens.iter().flat_map(|g| g.acked_rows()).collect();
    drop(clients);
    drop(front);
    drop(server);
    let dir = dir?;
    let report = durable_mix::reopen_and_verify(&dir, &expected, cfg.setup_reps());
    let _ = std::fs::remove_dir_all(&dir);
    Some(report)
}
