//! Metrics exporters: Prometheus-style text (JSON export is just
//! `serde_json::to_string` of the serializable snapshots).

use crate::handle::TelemetrySnapshot;
use crate::histogram::HistogramSnapshot;
use crate::shard::ShardLoad;
use std::fmt::Write;

/// Render per-shard store-lock counters in the Prometheus text format:
/// `sentinel_store_shard_{reads,writes}_total{shard="i"}`. Appended by
/// the database facade after [`prometheus_text`].
pub fn prometheus_shard_text(loads: &[ShardLoad]) -> String {
    let mut out = String::new();
    if loads.is_empty() {
        return out;
    }
    let _ = writeln!(
        out,
        "# HELP sentinel_store_shard_reads_total Read-lock acquisitions per store shard."
    );
    let _ = writeln!(out, "# TYPE sentinel_store_shard_reads_total counter");
    for l in loads {
        let _ = writeln!(
            out,
            "sentinel_store_shard_reads_total{{shard=\"{}\"}} {}",
            l.shard, l.reads
        );
    }
    let _ = writeln!(
        out,
        "# HELP sentinel_store_shard_writes_total Write-lock acquisitions per store shard."
    );
    let _ = writeln!(out, "# TYPE sentinel_store_shard_writes_total counter");
    for l in loads {
        let _ = writeln!(
            out,
            "sentinel_store_shard_writes_total{{shard=\"{}\"}} {}",
            l.shard, l.writes
        );
    }
    out
}

/// Render a snapshot (plus caller-supplied counters, e.g. the database
/// facade's `DbStats`/`EngineStats`) in the Prometheus text exposition
/// format. Every metric is prefixed `sentinel_`.
///
/// Layout:
///
/// * `extra` `(name, help, value)` triples become plain counters:
///   `sentinel_<name> <value>`, with `help` as their `# HELP` line;
/// * per-stage counts: `sentinel_stage_total{stage="..."}`;
/// * per-stage value distributions as native histograms with
///   cumulative power-of-two `le` bounds:
///   `sentinel_stage_value{stage="...",unit="..."}`;
/// * per-rule body latencies:
///   `sentinel_rule_body_latency_ns{rule="...",body="condition|action"}`.
pub fn prometheus_text(snapshot: &TelemetrySnapshot, extra: &[(&str, &str, u64)]) -> String {
    let mut out = String::new();
    for (name, help, value) in extra {
        let _ = writeln!(out, "# HELP sentinel_{name} {help}");
        let _ = writeln!(out, "# TYPE sentinel_{name} counter");
        let _ = writeln!(out, "sentinel_{name} {value}");
    }

    let _ = writeln!(
        out,
        "# HELP sentinel_stage_total Firings of each pipeline stage."
    );
    let _ = writeln!(out, "# TYPE sentinel_stage_total counter");
    for s in &snapshot.stages {
        let _ = writeln!(
            out,
            "sentinel_stage_total{{stage=\"{}\"}} {}",
            s.stage, s.count
        );
    }

    let _ = writeln!(
        out,
        "# HELP sentinel_stage_value Recorded values per stage (unit label: ns, occurrences, records)."
    );
    let _ = writeln!(out, "# TYPE sentinel_stage_value histogram");
    for s in &snapshot.stages {
        if s.values.count == 0 {
            continue;
        }
        let labels = format!("stage=\"{}\",unit=\"{}\"", s.stage, s.unit);
        write_histogram(&mut out, "sentinel_stage_value", &labels, &s.values);
    }

    if !snapshot.rules.is_empty() {
        let _ = writeln!(
            out,
            "# HELP sentinel_rule_body_latency_ns Condition/action latency per rule."
        );
        let _ = writeln!(out, "# TYPE sentinel_rule_body_latency_ns histogram");
        for r in &snapshot.rules {
            for (body, hist) in [("condition", &r.condition), ("action", &r.action)] {
                if hist.count == 0 {
                    continue;
                }
                let labels = format!("rule=\"{}\",body=\"{body}\"", r.rule);
                write_histogram(&mut out, "sentinel_rule_body_latency_ns", &labels, hist);
            }
        }
    }

    let _ = writeln!(out, "# TYPE sentinel_trace_records_total counter");
    let _ = writeln!(
        out,
        "sentinel_trace_records_total {}",
        snapshot.trace.recorded
    );
    let _ = writeln!(out, "# TYPE sentinel_trace_records_dropped_total counter");
    let _ = writeln!(
        out,
        "sentinel_trace_records_dropped_total {}",
        snapshot.trace.dropped
    );
    out
}

/// Emit one histogram in Prometheus convention: cumulative `le` buckets
/// ending at `+Inf`, then `_sum` and `_count`.
fn write_histogram(out: &mut String, name: &str, labels: &str, hist: &HistogramSnapshot) {
    let mut cumulative = 0u64;
    for b in &hist.buckets {
        cumulative += b.count;
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels},le=\"{}\"}} {cumulative}",
            b.le
        );
    }
    let _ = writeln!(out, "{name}_bucket{{{labels},le=\"+Inf\"}} {cumulative}");
    let _ = writeln!(out, "{name}_sum{{{labels}}} {}", hist.sum);
    let _ = writeln!(out, "{name}_count{{{labels}}} {}", hist.count);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::{BodyKind, Telemetry};
    use crate::stage::Stage;

    #[test]
    fn prometheus_output_shape() {
        let t = Telemetry::new(8);
        t.set_enabled(true);
        t.observe(Stage::WalAppend, 0, 700, String::new);
        t.observe(Stage::WalAppend, 0, 900, String::new);
        t.hit(Stage::MethodSend, 1, String::new);
        t.observe_rule("R", BodyKind::Condition, 50);
        let text = prometheus_text(&t.snapshot(), &[("sends_total", "Messages sent.", 1)]);

        assert!(text.contains("# HELP sentinel_sends_total Messages sent."));
        assert!(text.contains("sentinel_sends_total 1"));
        assert!(text.contains("sentinel_stage_total{stage=\"method_send\"} 1"));
        assert!(text.contains("sentinel_stage_total{stage=\"wal_append\"} 2"));
        // 700 and 900 share the [512,1023] bucket; cumulative ends +Inf.
        assert!(text.contains(
            "sentinel_stage_value_bucket{stage=\"wal_append\",unit=\"ns\",le=\"1023\"} 2"
        ));
        assert!(text.contains(
            "sentinel_stage_value_bucket{stage=\"wal_append\",unit=\"ns\",le=\"+Inf\"} 2"
        ));
        assert!(text.contains("sentinel_stage_value_sum{stage=\"wal_append\",unit=\"ns\"} 1600"));
        assert!(
            text.contains("sentinel_rule_body_latency_ns_count{rule=\"R\",body=\"condition\"} 1")
        );
        // Untimed stages appear as counters but not as histograms.
        assert!(!text.contains("sentinel_stage_value_count{stage=\"method_send\""));
    }
}
