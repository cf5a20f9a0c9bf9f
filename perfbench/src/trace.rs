//! The traced run: span self-times attributed to layers, plus the
//! deterministic work counters each layer already exports.
//!
//! The benchmark opens its own spans (`bench.*`) around every public call
//! it makes, inside a `datavinci_telemetry::collect` scope, and grafts the
//! engine's own span tree (`engine.*`, `stage.*`) under them. A layer's
//! self time is the time of its spans minus the part covered by child
//! spans; a span with no layer of its own counts for its parent's layer.

use std::collections::BTreeMap;

use datavinci_engine::CacheStats;
use datavinci_telemetry::{merge_span_lists, render_spans, MetricsFrame, SpanNode, TaskProfile};

use crate::Metric;

/// Which per-layer time metric each span's self time belongs to.
const SPAN_LAYER: [(&str, &str); 18] = [
    ("bench.parse_csv", "table.parse_csv_ms"),
    ("ingest.parse_csv", "table.parse_csv_ms"),
    ("bench.to_csv", "table.to_csv_ms"),
    ("engine.fingerprint", "table.fingerprint_ms"),
    ("stage.mask", "semantic.mask_ms"),
    ("stage.profile", "profile.profile_ms"),
    ("stage.detect", "core.detect_ms"),
    ("stage.repair", "core.repair_ms"),
    ("stage.rank", "core.rank_ms"),
    ("session.generate_features", "core.features_ms"),
    ("bench.clean_table", "engine.clean_ms"),
    ("engine.clean_batch", "engine.clean_ms"),
    ("engine.clean_column", "engine.clean_ms"),
    ("engine.open_sessions", "engine.open_sessions_ms"),
    ("bench.apply", "engine.apply_ms"),
    ("bench.parse_request", "engine.json.parse_request_ms"),
    ("bench.render_response", "engine.json.render_response_ms"),
    ("bench.parse_response", "engine.json.parse_response_ms"),
];

/// The per-layer time metrics, in report order.
const TIME_METRICS: [&str; 15] = [
    "table.parse_csv_ms",
    "table.to_csv_ms",
    "table.fingerprint_ms",
    "semantic.mask_ms",
    "profile.profile_ms",
    "core.repair_ms",
    "core.rank_ms",
    "core.features_ms",
    "core.detect_ms",
    "engine.clean_ms",
    "engine.open_sessions_ms",
    "engine.apply_ms",
    "engine.json.parse_request_ms",
    "engine.json.render_response_ms",
    "engine.json.parse_response_ms",
];

/// Self time per layer over all traced operations, plus the merged span
/// forest they came from.
#[derive(Default)]
pub(crate) struct LayerTimes {
    self_ns: BTreeMap<&'static str, u64>,
    forest: Vec<SpanNode>,
    /// Traced operations the times are spread over.
    pub(crate) ops: u64,
}

impl LayerTimes {
    /// Adds one traced scope's spans covering `ops` operations.
    pub(crate) fn add(&mut self, profile: &TaskProfile, ops: u64) {
        for node in &profile.spans {
            self.attribute(node, "unattributed");
        }
        merge_span_lists(&mut self.forest, &profile.spans);
        self.ops += ops;
    }

    fn attribute(&mut self, node: &SpanNode, inherited: &'static str) {
        let layer = SPAN_LAYER
            .iter()
            .find(|(span, _)| *span == node.name)
            .map_or(inherited, |&(_, layer)| layer);
        let children: u64 = node.children.iter().map(|c| c.total_ns).sum();
        *self.self_ns.entry(layer).or_default() += node.total_ns.saturating_sub(children);
        for child in &node.children {
            self.attribute(child, layer);
        }
    }

    /// Mean self time of `layer` per traced operation, in milliseconds.
    pub(crate) fn per_op_ms(&self, layer: &str) -> f64 {
        let ns = self.self_ns.get(layer).copied().unwrap_or(0);
        ns as f64 / 1e6 / self.ops.max(1) as f64
    }

    /// The merged span tree, rendered (written out at the end of a run).
    pub(crate) fn render(&self) -> String {
        render_spans(&self.forest)
    }
}

/// The deterministic counts of one fixed stretch of work (the first
/// traced pass, or the first requests after warm-up).
#[derive(Clone, Debug, Default)]
pub(crate) struct Counts {
    /// Engine registry counters over the stretch.
    pub(crate) counters: MetricsFrame,
    /// Engine cache counters over the stretch.
    pub(crate) cache: CacheStats,
    pub(crate) bytes_in: u64,
    pub(crate) detections: u64,
    pub(crate) repairs: u64,
    pub(crate) serve_requests: u64,
    pub(crate) serve_errors: u64,
}

/// `after - before`, counter by counter.
pub(crate) fn counter_delta(after: &MetricsFrame, before: &MetricsFrame) -> MetricsFrame {
    let mut out = MetricsFrame::new();
    for (name, &value) in &after.counters {
        let base = before.counters.get(name).copied().unwrap_or(0);
        out.set_counter(name, value.saturating_sub(base));
    }
    out
}

/// `after - before` for the cache counters the benchmark reports.
pub(crate) fn cache_delta(after: &CacheStats, before: &CacheStats) -> CacheStats {
    CacheStats {
        report_hits: after.report_hits - before.report_hits,
        analysis_hits: after.analysis_hits - before.analysis_hits,
        append_hits: after.append_hits - before.append_hits,
        append_fallbacks: after.append_fallbacks - before.append_fallbacks,
        misses: after.misses - before.misses,
        session_hits: after.session_hits - before.session_hits,
        session_resumes: after.session_resumes - before.session_resumes,
        ..CacheStats::default()
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order. Layers a workload
/// bypasses read 0. The tracing overhead compares the time the same work
/// took traced and untraced.
pub(crate) fn layer_metrics(
    times: &LayerTimes,
    counts: &Counts,
    transport_ms: f64,
    (traced, untraced): (f64, f64),
) -> Vec<Metric> {
    let overhead_pct = if untraced > 0.0 {
        (traced / untraced - 1.0) * 100.0
    } else {
        0.0
    };
    let mut out: Vec<Metric> = TIME_METRICS
        .iter()
        .map(|&name| Metric {
            name,
            unit: "ms/op",
            value: times.per_op_ms(name),
        })
        .collect();
    let count = |name: &'static str, value: u64| Metric {
        name,
        unit: "count",
        value: value as f64,
    };
    let share = |name: &'static str, value: f64| Metric {
        name,
        unit: "ratio",
        value,
    };
    let counter = |name: &str| counts.counters.counters.get(name).copied().unwrap_or(0);
    let cache = &counts.cache;
    out.extend([
        Metric {
            name: "engine.serve.transport_ms",
            unit: "ms/op",
            value: transport_ms,
        },
        count("table.bytes_in", counts.bytes_in),
        share(
            "semantic.mask_cache_hit_ratio",
            ratio(
                counter("session.mask_cache_hits"),
                counter("session.mask_cache_hits") + counter("session.mask_cache_misses"),
            ),
        ),
        count("profile.dfa_steps", counter("profile.dfa_steps")),
        count("profile.values_scored", counter("profile.values_scored")),
        count(
            "profile.patterns_scored",
            counter("profile.patterns_scored"),
        ),
        count("core.dp_runs", counter("repair.dp_runs")),
        count("core.plan_groups", counter("repair.plan_groups")),
        count("core.plan_error_rows", counter("repair.plan_error_rows")),
        count(
            "core.feature_rows_computed",
            counter("session.feature_rows_computed"),
        ),
        share(
            "core.plan_sharing",
            ratio(
                counter("repair.plan_error_rows"),
                counter("repair.plan_groups"),
            ),
        ),
        share(
            "core.repair_yield",
            ratio(counts.repairs, counts.detections),
        ),
        count("engine.cache.report_hits", cache.report_hits),
        count("engine.cache.append_hits", cache.append_hits),
        count("engine.cache.misses", cache.misses),
        count("engine.cache.append_fallbacks", cache.append_fallbacks),
        count("engine.cache.session_resumes", cache.session_resumes),
        share(
            "engine.cache.hit_ratio",
            ratio(cache.hits(), cache.lookups()),
        ),
        count("engine.serve.requests", counts.serve_requests),
        count("engine.serve.errors", counts.serve_errors),
        Metric {
            name: "trace.overhead_pct",
            unit: "%",
            value: overhead_pct,
        },
    ]);
    out
}
