//! Turns the measured phases into the metrics and the result line.

use std::fmt::Write as _;
use std::sync::Arc;

use crate::harness::{Config, Phase, RunReport};
use crate::oracle::OpKind;
use crate::stats::{median_f64, median_u64, percentile};
use crate::trace::{write_spans, Attribution, IoFile, IoOp, Tracer, LAYERS};

/// One reported value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

fn delta(phase: &Phase, name: &str) -> f64 {
    (phase.after.counter(name).unwrap_or(0) - phase.before.counter(name).unwrap_or(0)) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The kept latency samples of one kind, sorted.
fn latencies(phase: &Phase, kind: OpKind) -> Vec<u64> {
    sorted(
        phase
            .loop_logs
            .iter()
            .flat_map(|l| l.latencies(kind))
            .collect(),
    )
}

/// Builds the report of a run from its untraced phase and, in per-layer
/// mode, its traced phase.
#[must_use]
pub fn build(
    cfg: &Config,
    setup_s: &[f64],
    plain: &Phase,
    traced: Option<&(Phase, Arc<Tracer>)>,
) -> RunReport {
    let mut out = RunReport::default();
    let phases: Vec<&Phase> = std::iter::once(plain)
        .chain(traced.map(|(p, _)| p))
        .collect();
    for p in &phases {
        let o = p.outcomes;
        out.attempted += o.reads + o.writes + o.attacks;
        out.failed += o.failed;
        out.phase_outcomes.push(o);
        out.notes
            .extend(p.failures.iter().map(|f| format!("deviation: {f}")));
        out.notes.extend(p.counter_notes.iter().cloned());
    }
    out.correct = out.failed == 0 && phases.iter().all(|p| p.counters_ok);

    let reads = latencies(plain, OpKind::Read);
    let writes = latencies(plain, OpKind::Write);
    let recovery = plain
        .durable
        .as_ref()
        .map_or(0.0, |d| median_f64(&d.recovery_s));
    let error_ratio = ratio(out.failed as f64, out.attempted as f64);
    let ops_per_s = plain.ops_per_s();
    out.notes.push(format!(
        "samples: {} reads, {} writes, {} attacks sent, {} blocked, window {:.3} s",
        reads.len(),
        writes.len(),
        plain.outcomes.attacks,
        plain.outcomes.blocked,
        plain.window.as_secs_f64()
    ));
    let classes: Vec<String> = plain
        .class_p50_us(false)
        .iter()
        .map(|(class, us)| format!("{class}:{us:.1}"))
        .collect();
    out.notes
        .push(format!("class medians (class:us): {}", classes.join(" ")));
    let mut rates = plain.slices.rates.clone();
    rates.sort_by(f64::total_cmp);
    if let (Some(lo), Some(hi)) = (rates.first(), rates.last()) {
        out.notes.push(format!(
            "ops/s over {} slices: min {lo:.1}, median {:.1}, max {hi:.1}",
            rates.len(),
            median_f64(&rates)
        ));
    }
    // User-visible values that are zero on some workload, or whose
    // run-to-run spread is wider than any bound a later change could be
    // held to: printed, and carried in the per-layer line.
    let tails = [
        metric("ops_per_s", ops_per_s, "op/s"),
        metric("read_p99_us", us(percentile(&reads, 99.0)), "us"),
        metric("write_p50_us", us(percentile(&writes, 50.0)), "us"),
        metric("write_p99_us", us(percentile(&writes, 99.0)), "us"),
        metric("error_ratio", error_ratio, "ratio"),
        metric("recovery_s", recovery, "s"),
    ];
    // The latencies as measured, and the host's speed by which the gated
    // ones are scaled.
    let measured = [
        metric("read_p50_us", plain.read_p50_us(false), "us"),
        metric("class_p50_sum_us", plain.class_p50_sum_us(false), "us"),
        metric("host_speed", plain.slices.run_speed, "ratio"),
    ];

    let Some((t, tracer)) = traced else {
        out.metrics = vec![
            metric("setup_s", median_f64(setup_s), "s"),
            metric("read_p50_norm_us", plain.read_p50_us(true), "us"),
            metric("class_p50_sum_norm_us", plain.class_p50_sum_us(true), "us"),
            metric("peak_rss_mb", plain.peak_rss_mb, "MB"),
        ];
        // Write latencies only where the workload writes; recovery only
        // where it is durable.
        out.extra = measured
            .into_iter()
            .chain(tails)
            .filter(|m| match m.name.as_str() {
                "write_p50_us" | "write_p99_us" => !writes.is_empty(),
                "recovery_s" => plain.durable.is_some(),
                _ => true,
            })
            .collect();
        return out;
    };

    let reqs: Vec<_> = t
        .loop_logs
        .iter()
        .flat_map(|l| l.reqs.iter().copied())
        .collect();
    let a: Attribution = tracer.attribute(&reqs);
    let spans_path = cfg
        .work_dir
        .join("trace")
        .join(format!("{}.spans.tsv", cfg.workload.name()));
    match write_spans(&spans_path, &a.spans) {
        Ok(()) => out.notes.push(format!(
            "{} spans written to {}",
            a.spans.len(),
            spans_path.display()
        )),
        Err(e) => out.notes.push(format!("could not write spans: {e}")),
    }
    if a.unmatched > 0 {
        out.notes.push(format!(
            "{} of {} traced requests had no guard span (their time counts as unattributed)",
            a.unmatched,
            reqs.len()
        ));
    }
    let med_side = |f: &dyn Fn(&crate::trace::SideTimes) -> Option<u64>| {
        median_u64(&a.sides.iter().filter_map(f).collect::<Vec<_>>())
    };
    let enc: Vec<u64> = t
        .loop_logs
        .iter()
        .flat_map(|l| l.encode_ns.iter().copied())
        .collect();
    let dec: Vec<u64> = t
        .loop_logs
        .iter()
        .flat_map(|l| l.decode_ns.iter().copied())
        .collect();
    let ios = tracer.io_records();
    let appends: Vec<_> = ios
        .iter()
        .filter(|r| r.op == IoOp::Append && r.file == IoFile::Wal)
        .collect();
    let fsyncs = ios
        .iter()
        .filter(|r| matches!(r.op, IoOp::Append | IoOp::Write))
        .count();
    let written: u64 = ios
        .iter()
        .filter(|r| matches!(r.op, IoOp::Append | IoOp::Write))
        .map(|r| r.bytes)
        .sum();
    let snapshot_bytes: Vec<u64> = ios
        .iter()
        .filter(|r| r.op == IoOp::Write && r.file == IoFile::SnapshotTmp)
        .map(|r| r.bytes)
        .collect();
    let acked: u64 = t.loop_logs.iter().map(|l| l.acked_writes).sum::<u64>() + t.drained.acked;
    let user_bytes: u64 =
        t.loop_logs.iter().map(|l| l.user_bytes).sum::<u64>() + t.drained.user_bytes;
    let ops = (t.outcomes.reads + t.outcomes.writes + t.outcomes.attacks) as f64;
    let measured_reads: u64 = t.loop_logs.iter().map(|l| l.measured_reads).sum();
    let rows: u64 = t.loop_logs.iter().map(|l| l.rows_returned).sum();
    let false_blocks: u64 = t.loop_logs.iter().map(|l| l.false_blocks).sum();
    let total_req: u64 = a.request_ns.iter().sum();
    let layer_sum = |k: usize| a.per_request.iter().map(|l| l[k]).sum::<u64>() as f64;
    let unattributed = sorted(a.per_request.iter().map(|l| l[6]).collect());
    let wire = sorted(a.wire_ns.clone());
    let inspect = sorted(a.inspect_ns.clone());
    let exec = sorted(a.exec_ns.clone());
    let front = sorted(a.front_ns.clone());
    let append_ns = sorted(a.append_ns.clone());
    let checkpoint_ns = sorted(a.checkpoint_ns.clone());
    let overhead = ratio(t.ops_per_s(), ops_per_s);

    let mut share_line = format!("layer shares of request time ({}):", cfg.workload.name());
    let mut shares = Vec::new();
    for (k, layer) in LAYERS.iter().enumerate() {
        let share = ratio(layer_sum(k), total_req as f64);
        let _ = write!(share_line, " {layer} {:.1}%", 100.0 * share);
        if k < 6 {
            shares.push(metric(&format!("share.{layer}"), share, "ratio"));
        }
    }
    out.notes.push(share_line);
    out.notes.push(format!(
        "trace_overhead {overhead:.3} (traced {:.1} op/s / untraced {ops_per_s:.1} op/s)",
        t.ops_per_s()
    ));

    let mut m = vec![
        metric("net.wire_ns.p50", percentile(&wire, 50.0) as f64, "ns"),
        metric("net.wire_ns.p99", percentile(&wire, 99.0) as f64, "ns"),
        metric("net.frame_encode_ns", median_u64(&enc), "ns"),
        metric("net.frame_decode_ns", median_u64(&dec), "ns"),
        metric(
            "net.busy_rejects",
            delta(t, "net_connections_rejected_total"),
            "count",
        ),
        metric(
            "net.decode_errors",
            delta(t, "net_frame_decode_errors_total"),
            "count",
        ),
        metric("sql.front_ns.p50", percentile(&front, 50.0) as f64, "ns"),
        metric("sql.parse_ns", med_side(&|s| Some(s.parse_ns)), "ns"),
        metric("sql.lower_ns", med_side(&|s| Some(s.lower_ns)), "ns"),
        metric(
            "core.inspect_ns.p50",
            percentile(&inspect, 50.0) as f64,
            "ns",
        ),
        metric(
            "core.inspect_ns.p99",
            percentile(&inspect, 99.0) as f64,
            "ns",
        ),
        metric("core.id_gen_ns", med_side(&|s| Some(s.id_gen_ns)), "ns"),
        metric(
            "core.store_get_ns",
            med_side(&|s| Some(s.store_get_ns)),
            "ns",
        ),
        metric("core.sqli_detect_ns", med_side(&|s| s.sqli_detect_ns), "ns"),
        metric("core.stored_scan_ns", med_side(&|s| s.stored_scan_ns), "ns"),
        metric(
            "core.block_ratio",
            ratio(
                (t.outcomes.blocked - false_blocks) as f64,
                t.outcomes.attacks as f64,
            ),
            "ratio",
        ),
        metric("core.false_blocks", false_blocks as f64, "count"),
        metric("dbms.exec_ns.p50", percentile(&exec, 50.0) as f64, "ns"),
        metric("dbms.exec_ns.p99", percentile(&exec, 99.0) as f64, "ns"),
        metric(
            "dbms.rows_returned_per_op",
            ratio(rows as f64, measured_reads as f64),
            "rows/op",
        ),
        metric(
            "dbms.vm_compiles_per_op",
            ratio(delta(t, "dbms_vm_compiles_total"), ops),
            "1/op",
        ),
        metric(
            "dbms.vm_cached_programs",
            t.after.counter("dbms_vm_cached_programs").unwrap_or(0) as f64,
            "count",
        ),
        metric(
            "wal.append_ns.p50",
            percentile(&append_ns, 50.0) as f64,
            "ns",
        ),
        metric(
            "wal.append_ns.p99",
            percentile(&append_ns, 99.0) as f64,
            "ns",
        ),
        metric("wal.appends", appends.len() as f64, "count"),
        metric(
            "wal.bytes_per_commit",
            ratio(
                appends.iter().map(|r| r.bytes).sum::<u64>() as f64,
                appends.len() as f64,
            ),
            "bytes",
        ),
        metric(
            "wal.commits_per_fsync",
            ratio(acked as f64, fsyncs as f64),
            "ratio",
        ),
        metric("wal.checkpoints", checkpoint_ns.len() as f64, "count"),
        metric(
            "wal.checkpoint_ns.p50",
            percentile(&checkpoint_ns, 50.0) as f64,
            "ns",
        ),
        metric(
            "wal.checkpoint_ns.max",
            checkpoint_ns.last().copied().unwrap_or(0) as f64,
            "ns",
        ),
        metric("wal.checkpoint_bytes", median_u64(&snapshot_bytes), "bytes"),
        metric(
            "wal.replay_records",
            t.durable.as_ref().map_or(0, |d| d.replayed_records) as f64,
            "count",
        ),
    ];
    m.extend(shares);
    m.push(metric(
        "unattributed_ns.p50",
        percentile(&unattributed, 50.0) as f64,
        "ns",
    ));
    m.push(metric("trace_overhead", overhead, "ratio"));
    m.extend(tails);
    m.push(metric(
        "write_amp",
        ratio(written as f64, user_bytes as f64),
        "ratio",
    ));
    out.metrics = m;
    out.extra = measured.to_vec();
    out
}

/// The final line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
#[must_use]
pub fn json_line(r: &RunReport) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.correct, r.attempted, r.failed
    );
    for (k, m) in r.metrics.iter().enumerate() {
        if k > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}
