//! The closed loop shared by every workload: set-up timing, the
//! client threads, the oracle and counter checks, and the metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use septic_telemetry::MetricsSnapshot;

use crate::oracle::{check, Expect, Got, Op, OpKind};
use crate::report::{self, Metric};
use crate::rng::Rng;
use crate::stats::{median_f64, median_u64};
use crate::trace::{sql_hash, thread_tag, ReqRec, Tracer};
use crate::workloads::{self, Built, Workload};

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Measured seconds (split between the untraced and the traced phase
    /// when `trace` is on).
    pub seconds: f64,
    /// Per-layer mode: an untraced phase, then a traced phase.
    pub trace: bool,
    /// Scratch directory for the durable workload's files and the span
    /// dump.
    pub work_dir: PathBuf,
    /// Run exactly this many operations per client instead of a timed
    /// window (tests).
    pub fixed_ops: Option<u64>,
    /// Corrupt the first expectation of client 0 (the oracle self-test).
    pub sabotage: bool,
}

impl Config {
    #[must_use]
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Config {
        Config {
            workload,
            seed,
            seconds,
            trace,
            work_dir: PathBuf::from(".bench_work"),
            fixed_ops: None,
            sabotage: false,
        }
    }

    /// Deployments built to time set-up, and reopens timed for recovery;
    /// the medians are reported. One when the run counts operations
    /// (tests).
    #[must_use]
    pub fn setup_reps(&self) -> usize {
        if self.fixed_ops.is_some() {
            1
        } else {
            SETUP_REPS
        }
    }
}

/// Deployments built per timed run; see [`Config::setup_reps`].
const SETUP_REPS: usize = 11;

/// What one run found.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metrics of the final JSON line, in order.
    pub metrics: Vec<Metric>,
    /// Further measured values printed before the JSON line.
    pub extra: Vec<Metric>,
    /// Outcome tallies per phase (untraced, then traced), for comparing
    /// runs of one seed.
    pub phase_outcomes: Vec<Outcomes>,
    /// Human-readable findings (deviations, counter checks, shares).
    pub notes: Vec<String>,
}

/// Outcome counts of a run, all phases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    pub reads: u64,
    pub writes: u64,
    pub attacks: u64,
    pub blocked: u64,
    pub errors: u64,
    pub failed: u64,
}

/// A connection to the server under test.
pub trait Client: Send {
    fn call(&mut self, sql: &str, trace: bool) -> Call;
}

/// The result of one call.
#[derive(Debug, Clone)]
pub struct Call {
    pub got: Got,
    /// Sent over the wire.
    pub wire: bool,
    /// Server-reported pipeline time (executed wire requests only).
    pub server_ns: Option<u64>,
    /// Side-timed frame encode and decode of this request and its
    /// response (wire, traced only).
    pub codec_ns: Option<(u64, u64)>,
}

/// Generates one client's operations and keeps its shadow of the data.
pub trait Generator: Send {
    /// The next operation, with its expected outcome.
    fn next_op(&mut self, rng: &mut Rng) -> Op;
    /// Applies an operation's acknowledged effect to the shadow.
    fn apply(&mut self, op: &Op, got: &Got);
    /// A benign write used to bring the WAL to a fixed length after the
    /// timed window (durable workload only).
    fn drain_op(&mut self, _rng: &mut Rng) -> Option<Op> {
        None
    }
    /// The rows this client has acknowledged, as `SELECT *` returns them
    /// ordered by key (durable workload only).
    fn acked_rows(&self) -> Vec<Vec<septic_dbms::Value>> {
        Vec::new()
    }
}

/// One measured operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time from the start of the window, microseconds.
    pub at_us: u32,
    /// Client-observed latency, nanoseconds (saturating at about 4.3 s).
    pub ns: u32,
    pub class: u16,
    pub kind: OpKind,
}

/// Samples kept per client.
pub const SAMPLE_CAP: usize = 1 << 17;

/// A client's latency samples in a buffer of fixed size. The buffer is
/// allocated and written in full before the loop starts, so the
/// harness's memory does not grow with the program's throughput. Past
/// [`SAMPLE_CAP`] operations it holds a uniform sample of the window
/// (reservoir sampling).
#[derive(Debug)]
pub struct Reservoir {
    buf: Box<[Sample]>,
    len: usize,
    seen: u64,
    rng: Rng,
}

impl Reservoir {
    fn new(rng: Rng) -> Reservoir {
        // A non-zero filler, so every page is written now rather than on
        // first use.
        let filler = Sample {
            at_us: u32::MAX,
            ns: u32::MAX,
            class: u16::MAX,
            kind: OpKind::Attack,
        };
        Reservoir {
            buf: vec![filler; SAMPLE_CAP].into_boxed_slice(),
            len: 0,
            seen: 0,
            rng,
        }
    }

    fn push(&mut self, sample: Sample) {
        if self.len < self.buf.len() {
            self.buf[self.len] = sample;
            self.len += 1;
        } else {
            let k = self.rng.below(self.seen + 1) as usize;
            if k < self.buf.len() {
                self.buf[k] = sample;
            }
        }
        self.seen += 1;
    }

    /// The kept samples.
    #[must_use]
    pub fn samples(&self) -> &[Sample] {
        &self.buf[..self.len]
    }
}

impl Default for Reservoir {
    fn default() -> Reservoir {
        Reservoir {
            buf: Box::new([]),
            len: 0,
            seen: 0,
            rng: Rng::new(0, 0),
        }
    }
}

/// Per-client record of a closed loop.
#[derive(Debug, Default)]
pub struct ClientLog {
    pub outcomes: Outcomes,
    pub failures: Vec<String>,
    /// Operations completed in each slice of the measured window (the
    /// last one may be partial).
    pub slice_ops: Vec<u64>,
    pub samples: Reservoir,
    pub last_end: Option<Instant>,
    /// Reads measured and the rows they returned.
    pub measured_reads: u64,
    pub rows_returned: u64,
    pub acked_writes: u64,
    pub user_bytes: u64,
    pub false_blocks: u64,
    pub reqs: Vec<ReqRec>,
    pub encode_ns: Vec<u64>,
    pub decode_ns: Vec<u64>,
    /// The reference work timed every [`REF_EVERY`] of the measured
    /// window: when it ran (microseconds from the start of the window)
    /// and how long it took (nanoseconds).
    pub refs: Vec<(u32, u64)>,
}

impl ClientLog {
    /// Latencies of the kept samples of one kind, nanoseconds.
    pub fn latencies(&self, kind: OpKind) -> impl Iterator<Item = u64> + '_ {
        self.samples
            .samples()
            .iter()
            .filter(move |s| s.kind == kind)
            .map(|s| u64::from(s.ns))
    }

    fn record(&mut self, op: &Op, call: &Call, verdict: Result<(), String>) {
        match op.kind {
            OpKind::Read => self.outcomes.reads += 1,
            OpKind::Write => self.outcomes.writes += 1,
            OpKind::Attack => self.outcomes.attacks += 1,
        }
        match &call.got {
            Got::Blocked => {
                self.outcomes.blocked += 1;
                if op.kind != OpKind::Attack {
                    self.false_blocks += 1;
                }
            }
            Got::Error(_) => self.outcomes.errors += 1,
            Got::Ok { .. } => {
                if op.kind == OpKind::Write {
                    self.acked_writes += 1;
                    self.user_bytes += op.user_bytes;
                }
            }
        }
        if let Err(why) = verdict {
            self.outcomes.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(why);
            }
        }
    }
}

/// How often each client times the reference work.
const REF_EVERY: Duration = Duration::from_millis(250);

/// The reference work's time at nominal host speed, nanoseconds: about
/// its median on the 2-vCPU KVM guest (Xeon, 4.2 GHz TSC) the benchmark
/// was tuned on. A fixed scale; it only has to stay the same.
const REF_NOMINAL_NS: f64 = 170_000.0;

/// A fixed piece of CPU work that touches neither the program nor the
/// heap: eight sorts of 1,024 pseudo-random numbers in a stack array.
/// Its time tracks how fast the host runs this process at the moment.
///
/// A shared cloud VM changes speed for seconds at a time: on a 2-vCPU
/// KVM guest, a fixed loop ran at 0.65 to 1.25 of its median speed in
/// half-second blocks, with no steal time, and the read median of one
/// seed on `scan_report` moved by a fifth between runs a minute apart. Each client runs this
/// work between operations every [`REF_EVERY`], and the gated latencies
/// are scaled by the host's speed in their slice (see [`Slices`]).
#[must_use]
fn reference_work() -> u64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for _ in 0..8 {
        let mut a = [0u32; 1024];
        for v in &mut a {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = x as u32;
        }
        a.sort_unstable();
        acc = acc.wrapping_add(u64::from(a[512]));
    }
    std::hint::black_box(acc);
    t.elapsed().as_nanos() as u64
}

/// Corrupts an expectation so the oracle must reject a correct answer.
fn sabotage(expect: &mut Expect) {
    *expect = match std::mem::replace(expect, Expect::Blocked) {
        Expect::Rows(mut rows) => {
            rows.push(vec![septic_dbms::Value::Int(-1)]);
            Expect::Rows(rows)
        }
        Expect::Affected(n) => Expect::Affected(n + 1),
        Expect::Inserted | Expect::Blocked => Expect::Affected(7),
    };
}

/// The timing of one closed loop.
#[derive(Debug, Clone, Copy)]
struct Plan {
    warmup: Duration,
    measure: Duration,
    slice: Duration,
    fixed_ops: Option<u64>,
    sabotage: bool,
}

/// One loop's merged result.
#[derive(Debug, Default)]
struct LoopResult {
    logs: Vec<ClientLog>,
    window: Duration,
}

/// Runs every client in its own thread until the plan ends.
fn drive(built: &mut Built, plan: Plan, seed: u64, tracer: Option<&Arc<Tracer>>) -> LoopResult {
    let n = built.clients.len();
    let barrier = Barrier::new(n);
    let start_cell = std::sync::OnceLock::new();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = built
            .clients
            .iter_mut()
            .zip(built.gens.iter_mut())
            .enumerate()
            .map(|(idx, (client, gen))| {
                let barrier = &barrier;
                let start_cell = &start_cell;
                scope.spawn(move || {
                    let mut rng = Rng::new(seed, 100 + idx as u64);
                    let mut log = ClientLog {
                        samples: Reservoir::new(Rng::new(seed, 200 + idx as u64)),
                        ..ClientLog::default()
                    };
                    barrier.wait();
                    let start = *start_cell.get_or_init(Instant::now);
                    let warm_end = start + plan.warmup;
                    let end = warm_end + plan.measure;
                    let thread = thread_tag();
                    let mut done = 0u64;
                    let mut next_ref = warm_end;
                    loop {
                        let now = Instant::now();
                        match plan.fixed_ops {
                            Some(max) if done >= max => break,
                            None if now >= end => break,
                            _ => {}
                        }
                        let measured = plan.fixed_ops.is_some() || now >= warm_end;
                        let from = if plan.fixed_ops.is_some() {
                            start
                        } else {
                            warm_end
                        };
                        if measured && now >= next_ref {
                            let at = now.saturating_duration_since(from).as_micros();
                            let at = u32::try_from(at).unwrap_or(u32::MAX);
                            log.refs.push((at, reference_work()));
                            next_ref = now + REF_EVERY;
                        }
                        let mut op = gen.next_op(&mut rng);
                        if plan.sabotage && idx == 0 && done == 0 {
                            sabotage(&mut op.expect);
                        }
                        let traced = measured && tracer.is_some();
                        let t0 = tracer.map_or(0, |t| t.now());
                        let began = Instant::now();
                        let call = client.call(&op.sql, traced);
                        let finished = Instant::now();
                        let t1 = tracer.map_or(0, |t| t.now());
                        let verdict = check(&op, &call.got);
                        log.record(&op, &call, verdict);
                        gen.apply(&op, &call.got);
                        done += 1;
                        if !measured {
                            continue;
                        }
                        let ns = (finished - began).as_nanos() as u64;
                        let at = finished.saturating_duration_since(from);
                        let k = (at.as_nanos() / plan.slice.as_nanos()) as usize;
                        if log.slice_ops.len() <= k {
                            log.slice_ops.resize(k + 1, 0);
                        }
                        log.slice_ops[k] += 1;
                        log.last_end = Some(finished);
                        log.samples.push(Sample {
                            at_us: u32::try_from(at.as_micros()).unwrap_or(u32::MAX),
                            ns: u32::try_from(ns).unwrap_or(u32::MAX),
                            class: op.class,
                            kind: op.kind,
                        });
                        if op.kind == OpKind::Read {
                            log.measured_reads += 1;
                            log.rows_returned += call.got.rows_returned();
                        }
                        if traced {
                            log.reqs.push(ReqRec {
                                thread,
                                sql: sql_hash(&op.sql),
                                t0,
                                t1,
                                wire: call.wire,
                                server_ns: call.server_ns,
                                blocked: matches!(call.got, Got::Blocked),
                            });
                            if let Some((enc, dec)) = call.codec_ns {
                                log.encode_ns.push(enc);
                                log.decode_ns.push(dec);
                            }
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let start = start_cell.get().copied().unwrap_or_else(Instant::now);
    let window_start = if plan.fixed_ops.is_some() {
        start
    } else {
        start + plan.warmup
    };
    let last = logs.iter().filter_map(|l| l.last_end).max();
    let window = last.map_or(Duration::ZERO, |l| {
        l.saturating_duration_since(window_start)
    });
    LoopResult { logs, window }
}

/// Operations a slice should hold at least.
const SLICE_OPS: u64 = 500;

/// The window's whole slices, and the host's speed in each.
#[derive(Debug, Default)]
pub struct Slices {
    /// Operations completed per second, per slice.
    pub rates: Vec<f64>,
    /// The host's speed in each slice (before merging):
    /// [`REF_NOMINAL_NS`] over the median time of the reference work in
    /// the slice, or `run_speed` when it was not timed there.
    pub speed: Vec<f64>,
    /// The host's speed over the whole window; one when the reference
    /// work was never timed. Below one on a slow host.
    pub run_speed: f64,
    /// Length of a slice before merging, microseconds.
    pub slice_us: u64,
}

impl Slices {
    fn of(logs: &[ClientLog], slice: Duration, window: Duration) -> Slices {
        let n = (window.as_nanos() / slice.as_nanos()) as usize;
        let ops_in = |k: usize| -> u64 { logs.iter().filter_map(|l| l.slice_ops.get(k)).sum() };
        let total: u64 = (0..n).map(ops_in).sum();
        // Neighbouring slices are merged until each holds about
        // `SLICE_OPS` operations, so a workload of long operations is not
        // judged on a handful of them.
        let group = (SLICE_OPS * n as u64)
            .div_ceil(total.max(1))
            .clamp(1, n.max(1) as u64) as usize;
        let groups = n / group;
        let rates = (0..groups)
            .map(|g| {
                let ops: u64 = (g * group..(g + 1) * group).map(ops_in).sum();
                ops as f64 / (slice.as_secs_f64() * group as f64)
            })
            .collect();
        let slice_us = slice.as_micros() as u64;
        let speed_of = |refs: &[u64]| {
            if refs.is_empty() {
                None
            } else {
                Some(REF_NOMINAL_NS / median_u64(refs))
            }
        };
        let mut per_slice = vec![Vec::new(); n];
        let mut all = Vec::new();
        for &(at, ns) in logs.iter().flat_map(|l| &l.refs) {
            all.push(ns);
            if let Some(v) = per_slice.get_mut((u64::from(at) / slice_us) as usize) {
                v.push(ns);
            }
        }
        let run_speed = speed_of(&all).unwrap_or(1.0);
        Slices {
            rates,
            speed: per_slice
                .iter()
                .map(|v| speed_of(v).unwrap_or(run_speed))
                .collect(),
            run_speed,
            slice_us,
        }
    }

    /// A sample's latency, nanoseconds: as measured, or at nominal host
    /// speed (times the speed of its slice) when `norm` is set.
    #[must_use]
    pub fn latency_ns(&self, sample: &Sample, norm: bool) -> f64 {
        let ns = f64::from(sample.ns);
        if !norm {
            return ns;
        }
        let k = (u64::from(sample.at_us) / self.slice_us.max(1)) as usize;
        ns * self.speed.get(k).copied().unwrap_or(self.run_speed)
    }
}

/// The counters the run is cross-checked against.
fn scrape(built: &Built) -> MetricsSnapshot {
    built.server.metrics_snapshot()
}

fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> u64 {
    after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)
}

/// Peak resident memory of this process, MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything one phase (untraced or traced) measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub loop_logs: Vec<ClientLog>,
    pub window: Duration,
    pub slices: Slices,
    pub outcomes: Outcomes,
    pub failures: Vec<String>,
    pub counter_notes: Vec<String>,
    pub counters_ok: bool,
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
    pub durable: Option<workloads::DurableReport>,
    pub drained: workloads::Drained,
    /// Peak resident memory when the phase ended, before its samples
    /// were summarised, MB.
    pub peak_rss_mb: f64,
}

impl Phase {
    /// Operations completed per second: the median over the window's
    /// slices.
    #[must_use]
    pub fn ops_per_s(&self) -> f64 {
        if self.slices.rates.is_empty() {
            let ops: u64 = self.loop_logs.iter().flat_map(|l| &l.slice_ops).sum();
            return ops as f64 / self.window.as_secs_f64().max(1e-9);
        }
        median_f64(&self.slices.rates)
    }

    /// The medians of the kept samples' latencies, microseconds: of the
    /// reads, and of each benign class by class number. With `norm` the
    /// latencies are at nominal host speed.
    fn medians_us(&self, norm: bool) -> (f64, BTreeMap<u16, f64>) {
        let mut reads = Vec::new();
        let mut by_class: BTreeMap<u16, Vec<f64>> = BTreeMap::new();
        for s in self.loop_logs.iter().flat_map(|l| l.samples.samples()) {
            let ns = self.slices.latency_ns(s, norm);
            if s.kind == OpKind::Read {
                reads.push(ns);
            }
            if s.kind != OpKind::Attack {
                by_class.entry(s.class).or_default().push(ns);
            }
        }
        let classes = by_class
            .into_iter()
            .map(|(class, ns)| (class, median_f64(&ns) / 1000.0))
            .collect();
        (median_f64(&reads) / 1000.0, classes)
    }

    /// Read latency, microseconds: the median of the measured reads.
    #[must_use]
    pub fn read_p50_us(&self, norm: bool) -> f64 {
        self.medians_us(norm).0
    }

    /// The sum, over the benign statement classes, of each class's
    /// median latency, microseconds. Every class counts once however
    /// rare it is, so the costly shapes above the read median (joins,
    /// durable writes) move it.
    #[must_use]
    pub fn class_p50_sum_us(&self, norm: bool) -> f64 {
        self.medians_us(norm).1.values().sum()
    }

    /// Each benign statement class's median latency, microseconds, by
    /// class number.
    #[must_use]
    pub fn class_p50_us(&self, norm: bool) -> Vec<(u16, f64)> {
        self.medians_us(norm).1.into_iter().collect()
    }
}

/// Builds a deployment, runs the loop, finishes and checks it.
fn run_phase(cfg: &Config, built: Built, measure: Duration, tracer: Option<&Arc<Tracer>>) -> Phase {
    let mut built = built;
    let plan = Plan {
        warmup: if cfg.fixed_ops.is_some() {
            Duration::ZERO
        } else {
            (measure / 10).min(Duration::from_secs(1))
        },
        measure,
        // One-second slices; a tenth of a shorter window; 100 ms when the
        // run counts operations instead of time.
        slice: if cfg.fixed_ops.is_some() {
            Duration::from_millis(100)
        } else {
            (measure / 10).clamp(Duration::from_millis(1), Duration::from_secs(1))
        },
        fixed_ops: cfg.fixed_ops,
        sabotage: cfg.sabotage,
    };
    if let Some(t) = tracer {
        t.clear();
    }
    let before = scrape(&built);
    let result = drive(&mut built, plan, cfg.seed, tracer);
    let mut phase = Phase {
        loop_logs: result.logs,
        window: result.window,
        before,
        ..Phase::default()
    };
    // Bring the WAL to its fixed length, then scrape, close and reopen.
    let drained = workloads::drain(&mut built, cfg.seed);
    phase.after = scrape(&built);
    for log in &phase.loop_logs {
        let o = log.outcomes;
        phase.outcomes.reads += o.reads;
        phase.outcomes.writes += o.writes;
        phase.outcomes.attacks += o.attacks;
        phase.outcomes.blocked += o.blocked;
        phase.outcomes.errors += o.errors;
        phase.outcomes.failed += o.failed;
        phase.failures.extend(log.failures.iter().cloned());
    }
    phase.outcomes.writes += drained.writes;
    phase.outcomes.failed += drained.failed;
    phase.failures.extend(drained.failures.iter().cloned());

    // Counter cross-checks against the server's own metrics.
    let blocked_attacks: u64 = phase
        .loop_logs
        .iter()
        .map(|l| l.outcomes.blocked - l.false_blocks)
        .sum();
    let false_blocks: u64 = phase.loop_logs.iter().map(|l| l.false_blocks).sum();
    let attacks_counted = counter_delta(&phase.before, &phase.after, "septic_attacks_total");
    phase.counters_ok = attacks_counted == blocked_attacks + false_blocks;
    phase.counter_notes.push(format!(
        "counter check septic_attacks_total: delta {attacks_counted}, blocked by the benchmark's count {} -> {}",
        blocked_attacks + false_blocks,
        if phase.counters_ok { "agree" } else { "DISAGREE" }
    ));
    if cfg.workload == Workload::DurableMix {
        let acked: u64 =
            phase.loop_logs.iter().map(|l| l.acked_writes).sum::<u64>() + drained.acked;
        let appends = counter_delta(&phase.before, &phase.after, "dbms_wal_appends_total");
        let ok = appends == acked;
        phase.counters_ok &= ok;
        phase.counter_notes.push(format!(
            "counter check dbms_wal_appends_total: delta {appends}, acknowledged autocommit writes {acked} -> {}",
            if ok { "agree" } else { "DISAGREE" }
        ));
    }
    phase.drained = drained;
    phase.durable = workloads::finish(built, cfg);
    if let Some(d) = &phase.durable {
        phase.outcomes.failed += d.missing;
        phase.failures.extend(d.failures.iter().cloned());
    }
    phase.peak_rss_mb = peak_rss_mb();
    phase.slices = Slices::of(&phase.loop_logs, plan.slice, phase.window);
    phase
}

/// Runs the configured workload and returns its report.
///
/// # Panics
///
/// When a deployment cannot be built (a broken checkout), or a client
/// thread panics.
#[must_use]
pub fn run(cfg: &Config) -> RunReport {
    let measure = Duration::from_secs_f64(if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    });
    // Set-up, timed over several deployments; the last one is measured.
    let reps = if cfg.trace { 1 } else { cfg.setup_reps() };
    let mut setup_s = Vec::with_capacity(reps);
    let mut built = None;
    for rep in 0..reps {
        if let Some(b) = built.take() {
            workloads::discard(b);
        }
        let t = Instant::now();
        let b = workloads::setup(cfg, None, rep);
        setup_s.push(t.elapsed().as_secs_f64());
        built = Some(b);
    }
    let plain = run_phase(cfg, built.expect("at least one set-up"), measure, None);
    let traced = cfg.trace.then(|| {
        let tracer = Tracer::new();
        let b = workloads::setup(cfg, Some(&tracer), reps);
        let phase = run_phase(cfg, b, measure, Some(&tracer));
        (phase, tracer)
    });
    report::build(cfg, &setup_s, &plain, traced.as_ref())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ns: u32) -> Sample {
        Sample {
            at_us: 0,
            ns,
            class: 0,
            kind: OpKind::Read,
        }
    }

    #[test]
    fn the_reservoir_keeps_a_fixed_number_of_samples() {
        let mut r = Reservoir::new(Rng::new(1, 1));
        for k in 0..3 * SAMPLE_CAP as u32 {
            r.push(sample(k));
        }
        assert_eq!(r.samples().len(), SAMPLE_CAP);
        assert_eq!(r.seen, 3 * SAMPLE_CAP as u64);
        // A uniform sample of 0..3*CAP: about a third from each third.
        let late = r
            .samples()
            .iter()
            .filter(|s| s.ns >= 2 * SAMPLE_CAP as u32)
            .count();
        let third = SAMPLE_CAP / 3;
        assert!(late.abs_diff(third) < third / 10, "{late} of {SAMPLE_CAP}");
    }

    #[test]
    fn latencies_are_scaled_by_the_host_speed_of_their_slice() {
        let nominal = REF_NOMINAL_NS as u64;
        let log = ClientLog {
            // Slice 0 ran at half speed, slice 1 at nominal speed, and the
            // reference work was not timed in slice 2.
            refs: vec![(100_000, 2 * nominal), (1_200_000, nominal)],
            ..ClientLog::default()
        };
        let slices = Slices::of(&[log], Duration::from_secs(1), Duration::from_secs(3));
        let at = |us: u32| Sample {
            at_us: us,
            ..sample(1000)
        };
        assert!((slices.latency_ns(&at(500_000), true) - 500.0).abs() < 1e-9);
        assert!((slices.latency_ns(&at(1_500_000), true) - 1000.0).abs() < 1e-9);
        assert!((slices.latency_ns(&at(500_000), false) - 1000.0).abs() < 1e-9);
        // Where it was not timed, the speed of the whole window holds.
        let run = slices.run_speed;
        assert!((run - REF_NOMINAL_NS / (1.5 * REF_NOMINAL_NS)).abs() < 1e-9);
        assert!((slices.latency_ns(&at(2_500_000), true) - 1000.0 * run).abs() < 1e-9);
    }

    #[test]
    fn a_short_run_keeps_every_sample_in_order() {
        let mut r = Reservoir::new(Rng::new(1, 1));
        for k in 0..10 {
            r.push(sample(k));
        }
        let kept: Vec<u32> = r.samples().iter().map(|s| s.ns).collect();
        assert_eq!(kept, (0..10).collect::<Vec<_>>());
    }
}
