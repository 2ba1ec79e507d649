//! Per-layer numbers of the traced run: spans harvested from `nvfi_obs`'s
//! flight recorder, their self times, and the named per-layer metrics.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use nvfi_obs::trace::{EventKind, TraceEvent};

/// Every per-layer metric, in output order, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("compiler.compile_ms", "ms"),
    ("compiler.verify_ms", "ms"),
    ("accel.load_ms", "ms"),
    ("accel.clean_ms_per_img", "ms"),
    ("accel.const1_ms_per_img", "ms"),
    ("accel.const7_ms_per_img", "ms"),
    ("accel.stuckbits1_ms_per_img", "ms"),
    ("accel.pulse_ms_per_img", "ms"),
    ("accel.clean_gmac_per_s", "GMAC/s"),
    ("accel.op_runs_fast", "count"),
    ("accel.op_runs_corrected", "count"),
    ("accel.op_runs_exact", "count"),
    ("accel.macs_per_img", "count"),
    ("accel.mac_cycles_per_img", "count"),
    ("accel.modeled_ms_per_img", "ms"),
    ("core.quantize_ms", "ms"),
    ("core.golden_build_ms", "ms"),
    ("core.pulse_golden_ms_per_img", "ms"),
    ("core.campaign_self_ms", "ms"),
    ("core.baseline_ms", "ms"),
    ("core.item_ms_p50", "ms"),
    ("core.item_ms_p99", "ms"),
    ("core.items_masked_static", "count"),
    ("core.inferences_executed", "count"),
    ("core.masked_outcome_frac", "frac"),
    ("dist.start_ms", "ms"),
    ("dist.campaign_ms", "ms"),
    ("dist.queue_wait_ms_p50", "ms"),
    ("dist.queue_wait_ms_p99", "ms"),
    ("dist.ship_ms_p50", "ms"),
    ("dist.execute_ms_p50", "ms"),
    ("dist.execute_ms_p99", "ms"),
    ("dist.merge_ms_p50", "ms"),
    ("dist.worker_busy_frac", "frac"),
    ("dist.tasks_dispatched", "count"),
    ("dist.audits_dispatched", "count"),
    ("dist.cache_hits", "count"),
    ("dist.artifact_bytes_shipped", "bytes"),
    ("obs.trace_overhead_frac", "frac"),
    ("obs.trace_dropped", "count"),
];

/// Nearest-rank percentile `p` (0..=100) of `v`; 0 for an empty sample.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The median of `v` (0 for an empty sample).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Durations and self time of every span of one name.
#[derive(Default)]
pub struct SpanStat {
    pub durs_ms: Vec<f64>,
    pub self_ms: f64,
}

impl SpanStat {
    pub fn total_ms(&self) -> f64 {
        self.durs_ms.iter().sum()
    }
}

/// Groups the spans of `events` by name and computes self times: a span's
/// duration minus the part of it that its children cover. A child is a span
/// nested in it on its own thread. Two kinds of parent own children on any
/// thread: the benchmark's own `bench.*` spans, which wrap a whole call of
/// the closed loop, and `campaign.run`, whose items run on scoped worker
/// threads. Nothing else runs meanwhile, because the loop is closed.
pub fn analyse(events: &[TraceEvent]) -> BTreeMap<String, SpanStat> {
    let mut spans: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.kind == EventKind::Span)
        .collect();
    spans.sort_by_key(|e| e.ts_us);
    let mut out: BTreeMap<String, SpanStat> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let end = s.ts_us + s.dur_us;
        let bench = s.name.starts_with("bench.");
        let any_thread = bench || s.name == "campaign.run";
        let mut covered: Vec<(u64, u64)> = Vec::new();
        let first = spans.partition_point(|e| e.ts_us < s.ts_us);
        for (j, c) in spans.iter().enumerate().skip(first) {
            if c.ts_us >= end {
                break;
            }
            let nested = j != i && c.ts_us >= s.ts_us && c.ts_us + c.dur_us <= end;
            let related = any_thread || c.tid == s.tid;
            if nested && related && (bench || !c.name.starts_with("bench.")) {
                covered.push((c.ts_us, c.ts_us + c.dur_us));
            }
        }
        let stat = out.entry(s.name.to_string()).or_default();
        stat.durs_ms.push(s.dur_us as f64 / 1e3);
        stat.self_ms += s.dur_us.saturating_sub(union_len(covered)) as f64 / 1e3;
    }
    out
}

fn union_len(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// The per-span-name table written next to the chrome trace.
pub fn render_table(stats: &BTreeMap<String, SpanStat>) -> String {
    let mut out = format!(
        "{:<22} {:>7} {:>11} {:>11} {:>9} {:>9}\n",
        "span", "count", "total_ms", "self_ms", "p50_ms", "p99_ms"
    );
    for (name, s) in stats {
        let _ = writeln!(
            out,
            "{:<22} {:>7} {:>11.3} {:>11.3} {:>9.3} {:>9.3}",
            name,
            s.durs_ms.len(),
            s.total_ms(),
            s.self_ms,
            percentile(&s.durs_ms, 50.0),
            percentile(&s.durs_ms, 99.0)
        );
    }
    out
}

/// Adds the span-derived per-layer metrics of one traced pass of
/// `wall_s` host seconds on `workers` workers.
pub fn span_metrics(
    stats: &BTreeMap<String, SpanStat>,
    wall_s: f64,
    workers: usize,
    m: &mut BTreeMap<&'static str, f64>,
) {
    let durs = |name: &str| stats.get(name).map_or(&[][..], |s| s.durs_ms.as_slice());
    m.insert(
        "core.campaign_self_ms",
        stats.get("campaign.run").map_or(0.0, |s| s.self_ms),
    );
    m.insert(
        "core.baseline_ms",
        durs("campaign.baseline").iter().fold(0.0, |a, b| a + b),
    );
    m.insert("core.item_ms_p50", percentile(durs("campaign.item"), 50.0));
    m.insert("core.item_ms_p99", percentile(durs("campaign.item"), 99.0));
    m.insert(
        "dist.queue_wait_ms_p50",
        percentile(durs("shard.queue_wait"), 50.0),
    );
    m.insert(
        "dist.queue_wait_ms_p99",
        percentile(durs("shard.queue_wait"), 99.0),
    );
    m.insert("dist.ship_ms_p50", percentile(durs("shard.ship"), 50.0));
    m.insert(
        "dist.execute_ms_p50",
        percentile(durs("shard.execute"), 50.0),
    );
    m.insert(
        "dist.execute_ms_p99",
        percentile(durs("shard.execute"), 99.0),
    );
    m.insert("dist.merge_ms_p50", percentile(durs("shard.merge"), 50.0));
    let busy_ms = durs("shard.execute").iter().fold(0.0, |a, b| a + b);
    m.insert(
        "dist.worker_busy_frac",
        busy_ms / 1e3 / (wall_s * workers as f64),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvfi_obs::trace::Ids;
    use std::borrow::Cow;

    fn span(name: &'static str, ts_us: u64, dur_us: u64, tid: u64) -> TraceEvent {
        TraceEvent {
            name: Cow::Borrowed(name),
            kind: EventKind::Span,
            ts_us,
            dur_us,
            tid,
            ids: Ids::default(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let ev = [
            span("campaign.run", 0, 1000, 1),
            span("campaign.baseline", 100, 200, 1),
            // Two overlapping items on worker threads: union 300..700.
            span("campaign.item", 300, 300, 2),
            span("campaign.item", 400, 300, 3),
            span("pool.shard", 310, 100, 2),
            // Another thread's span is not a child of a thread-local parent.
            span("shard.execute", 2000, 500, 4),
            span("shard.merge", 2200, 100, 5),
        ];
        let s = analyse(&ev);
        assert_eq!(s["campaign.run"].self_ms, 0.4);
        assert_eq!(s["campaign.item"].self_ms, 0.5);
        assert_eq!(s["shard.execute"].self_ms, 0.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
