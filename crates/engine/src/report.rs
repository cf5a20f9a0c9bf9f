//! Engine reports: per-column cleaning outcomes with timing and cache
//! telemetry, aggregating the core pipeline's [`ColumnReport`]s.

use std::time::Duration;

use crate::cache::CacheStats;
use crate::json::Json;
use datavinci_core::{ColumnReport, SessionStats, TableReport};
use datavinci_telemetry::{Histogram, MetricsFrame, SpanNode, TaskProfile};

/// How the cache served one column clean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Caching disabled on this engine.
    Disabled,
    /// Nothing reusable: full analyze + repair.
    Miss,
    /// Column and table unchanged: cached report returned as-is.
    ReportHit,
    /// Column unchanged, table context changed: cached analysis, fresh
    /// repair.
    AnalysisHit,
    /// Append-only column growth: cached profile re-scored, fresh repair.
    AppendHit,
}

impl CacheOutcome {
    /// Did any cached layer get reused?
    pub fn is_hit(&self) -> bool {
        matches!(
            self,
            CacheOutcome::ReportHit | CacheOutcome::AnalysisHit | CacheOutcome::AppendHit
        )
    }

    /// Stable lowercase label (report/JSON rendering).
    pub fn label(&self) -> &'static str {
        match self {
            CacheOutcome::Disabled => "disabled",
            CacheOutcome::Miss => "miss",
            CacheOutcome::ReportHit => "report_hit",
            CacheOutcome::AnalysisHit => "analysis_hit",
            CacheOutcome::AppendHit => "append_hit",
        }
    }

    /// The per-clean telemetry counter this outcome increments.
    pub fn metric(&self) -> &'static str {
        match self {
            CacheOutcome::Disabled => "engine.cache_outcome.disabled",
            CacheOutcome::Miss => "engine.cache_outcome.miss",
            CacheOutcome::ReportHit => "engine.cache_outcome.report_hit",
            CacheOutcome::AnalysisHit => "engine.cache_outcome.analysis_hit",
            CacheOutcome::AppendHit => "engine.cache_outcome.append_hit",
        }
    }
}

/// One column's cleaning outcome.
#[derive(Debug, Clone)]
pub struct ColumnOutcome {
    /// The core pipeline report (detections, repairs, patterns).
    pub report: ColumnReport,
    /// How the cache served this clean.
    pub cache: CacheOutcome,
    /// Time spent cleaning this column (on its worker thread).
    pub elapsed: Duration,
}

/// A whole-table engine report.
#[derive(Debug, Clone, Default)]
pub struct EngineReport {
    /// Per-column outcomes, in column order (cleaned columns only).
    pub columns: Vec<ColumnOutcome>,
    /// Summed per-column cleaning time (CPU-side; wall time lives on
    /// [`BatchReport::elapsed`]).
    pub elapsed: Duration,
    /// Reuse telemetry of the table's shared analysis session (tables with
    /// identical fingerprints in one batch share a session, and therefore
    /// a snapshot).
    pub session: SessionStats,
    /// Structured telemetry for this table's clean — the merged span tree
    /// and metrics of every per-column worker task plus table-level
    /// aggregates. `None` when the engine runs with telemetry off.
    pub telemetry: Option<TaskProfile>,
}

impl EngineReport {
    /// The plain core-pipeline view, for comparison with
    /// [`datavinci_core::DataVinci::clean_table`].
    pub fn table_report(&self) -> TableReport {
        TableReport {
            columns: self.columns.iter().map(|c| c.report.clone()).collect(),
        }
    }

    /// Total detections across columns.
    pub fn n_detections(&self) -> usize {
        self.columns.iter().map(|c| c.report.detections.len()).sum()
    }

    /// Total repair suggestions across columns.
    pub fn n_repairs(&self) -> usize {
        self.columns.iter().map(|c| c.report.repairs.len()).sum()
    }

    /// Columns served by any cached layer.
    pub fn cache_hits(&self) -> usize {
        self.columns.iter().filter(|c| c.cache.is_hit()).count()
    }

    /// The `n` slowest columns of this clean, by per-column elapsed time,
    /// slowest first (ties broken by column index for determinism) — makes
    /// one huge column serializing a batch visible before any scheduler
    /// work tries to fix it.
    pub fn slowest_columns(&self, n: usize) -> Vec<&ColumnOutcome> {
        let mut ranked: Vec<&ColumnOutcome> = self.columns.iter().collect();
        ranked.sort_by_key(|c| (std::cmp::Reverse(c.elapsed), c.report.col));
        ranked.truncate(n);
        ranked
    }
}

/// The canonical JSON rendering of session reuse telemetry (the CLI's
/// report JSON).
pub fn session_stats_json(stats: &SessionStats) -> Json {
    Json::obj()
        .field(
            "feature_generations",
            Json::Int(stats.feature_generations as i64),
        )
        .field(
            "feature_rows_computed",
            Json::Int(stats.feature_rows_computed as i64),
        )
        .field("table_rows", Json::Int(stats.table_rows as i64))
        .field("distinct_rows", Json::Int(stats.distinct_rows as i64))
        .field(
            "column_types_memoized",
            Json::Int(stats.column_types_memoized as i64),
        )
        .field(
            "mask_cache_entries",
            Json::Int(stats.mask_cache_entries as i64),
        )
        .field("mask_cache_hits", Json::Int(stats.mask_cache_hits as i64))
        .field(
            "mask_cache_misses",
            Json::Int(stats.mask_cache_misses as i64),
        )
        .field(
            "session_extensions",
            Json::Int(stats.session_extensions as i64),
        )
        .field("rows_appended", Json::Int(stats.rows_appended as i64))
}

/// Mirrors [`SessionStats`] into the unified metrics schema: every field
/// becomes a `session.*` counter, except the shared mask cache's absolute
/// size, which is the gauge `session.mask_cache_entries` (summing it over
/// sessions would count the same entries once per session).
///
/// This (plus [`cache_stats_into`]) is the canonical metrics mapping;
/// [`session_stats_json`] and [`CacheStats::to_json`] render the same
/// stats for the report's `session` and `cache` sections.
pub fn session_stats_into(frame: &mut MetricsFrame, stats: &SessionStats) {
    frame.add_counter("session.feature_generations", stats.feature_generations);
    frame.add_counter("session.feature_rows_computed", stats.feature_rows_computed);
    frame.add_counter("session.table_rows", stats.table_rows);
    frame.add_counter("session.distinct_rows", stats.distinct_rows);
    frame.add_counter("session.column_types_memoized", stats.column_types_memoized);
    frame.set_gauge(
        "session.mask_cache_entries",
        stats.mask_cache_entries as f64,
    );
    frame.add_counter("session.mask_cache_hits", stats.mask_cache_hits);
    frame.add_counter("session.mask_cache_misses", stats.mask_cache_misses);
    frame.add_counter("session.extensions", stats.session_extensions);
    frame.add_counter("session.rows_appended", stats.rows_appended);
}

/// Mirrors [`CacheStats`] into the unified metrics schema as cumulative
/// `engine.cache.*` counters (per-clean outcomes live under the distinct
/// `engine.cache_outcome.*` names — see [`CacheOutcome::metric`]).
pub fn cache_stats_into(frame: &mut MetricsFrame, stats: &CacheStats) {
    frame.set_counter("engine.cache.report_hits", stats.report_hits);
    frame.set_counter("engine.cache.analysis_hits", stats.analysis_hits);
    frame.set_counter("engine.cache.append_hits", stats.append_hits);
    frame.set_counter("engine.cache.append_fallbacks", stats.append_fallbacks);
    frame.set_counter("engine.cache.misses", stats.misses);
    frame.set_counter("engine.cache.session_hits", stats.session_hits);
    frame.set_counter("engine.cache.session_resumes", stats.session_resumes);
    frame.set_counter("engine.cache.evictions.report", stats.report_evictions);
    frame.set_counter("engine.cache.evictions.session", stats.session_evictions);
    frame.set_counter("engine.cache.evictions.snapshot", stats.snapshot_evictions);
}

/// One span node as JSON: `{name, count, total_ns, children: [...]}`.
pub fn span_node_json(node: &SpanNode) -> Json {
    Json::obj()
        .field("name", Json::str(&node.name))
        .field("count", Json::Int(node.count as i64))
        .field("total_ns", Json::Int(node.total_ns as i64))
        .field(
            "children",
            Json::Arr(node.children.iter().map(span_node_json).collect()),
        )
}

/// One latency histogram as JSON summary statistics (count, sum, min, max,
/// mean and the p50/p90/p99 quantile upper bounds, all in nanoseconds).
pub fn histogram_json(hist: &Histogram) -> Json {
    let opt = |v: Option<u64>| v.map(|n| Json::Int(n as i64)).unwrap_or(Json::Null);
    Json::obj()
        .field("count", Json::Int(hist.count() as i64))
        .field("sum_ns", Json::Int(hist.sum_ns() as i64))
        .field("min_ns", opt(hist.min_ns()))
        .field("max_ns", opt(hist.max_ns()))
        .field("mean_ns", Json::Int(hist.mean_ns() as i64))
        .field("p50_ns", Json::Int(hist.quantile_ns(0.50) as i64))
        .field("p90_ns", Json::Int(hist.quantile_ns(0.90) as i64))
        .field("p99_ns", Json::Int(hist.quantile_ns(0.99) as i64))
}

/// A metrics frame as JSON: counter/gauge/histogram maps, keys sorted
/// (the frame's `BTreeMap`s make this deterministic by construction).
pub fn metrics_frame_json(frame: &MetricsFrame) -> Json {
    let mut counters = Json::obj();
    for (name, value) in &frame.counters {
        counters = counters.field(name, Json::Int(*value as i64));
    }
    let mut gauges = Json::obj();
    for (name, value) in &frame.gauges {
        gauges = gauges.field(name, Json::Num(*value));
    }
    let mut histograms = Json::obj();
    for (name, hist) in &frame.histograms {
        histograms = histograms.field(name, histogram_json(hist));
    }
    Json::obj()
        .field("counters", counters)
        .field("gauges", gauges)
        .field("histograms", histograms)
}

/// A full task profile (span tree + metrics frame) as JSON, wrapped in a
/// versioned envelope so downstream consumers can detect schema drift.
pub fn telemetry_json(profile: &TaskProfile) -> Json {
    Json::obj()
        .field("schema", Json::str("datavinci.telemetry/v1"))
        .field(
            "spans",
            Json::Arr(profile.spans.iter().map(span_node_json).collect()),
        )
        .field("metrics", metrics_frame_json(&profile.metrics))
}

/// The outcome of one batch clean.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// Per-table reports, in input order.
    pub tables: Vec<EngineReport>,
    /// Wall-clock time for the whole batch.
    pub elapsed: Duration,
    /// Worker threads used.
    pub workers: usize,
    /// Cache telemetry snapshot after the batch (cumulative for the
    /// engine's cache lifetime).
    pub cache: CacheStats,
    /// The whole batch's span tree and metrics (worker-task profiles
    /// grafted under the batch root, distinct-session and cache aggregates
    /// merged in). `None` when telemetry is off.
    pub telemetry: Option<TaskProfile>,
}

impl BatchReport {
    /// Total detections across all tables.
    pub fn n_detections(&self) -> usize {
        self.tables.iter().map(EngineReport::n_detections).sum()
    }

    /// Total repair suggestions across all tables.
    pub fn n_repairs(&self) -> usize {
        self.tables.iter().map(EngineReport::n_repairs).sum()
    }

    /// Columns served by any cached layer, across all tables.
    pub fn cache_hits(&self) -> usize {
        self.tables.iter().map(EngineReport::cache_hits).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_outcome_classification() {
        assert!(!CacheOutcome::Disabled.is_hit());
        assert!(!CacheOutcome::Miss.is_hit());
        assert!(CacheOutcome::ReportHit.is_hit());
        assert!(CacheOutcome::AnalysisHit.is_hit());
        assert!(CacheOutcome::AppendHit.is_hit());
        assert_eq!(CacheOutcome::ReportHit.label(), "report_hit");
    }

    #[test]
    fn mask_cache_entries_is_a_gauge_not_summed_over_sessions() {
        let first = SessionStats {
            mask_cache_entries: 40,
            mask_cache_misses: 40,
            ..SessionStats::default()
        };
        let second = SessionStats {
            mask_cache_entries: 55,
            mask_cache_misses: 15,
            ..SessionStats::default()
        };
        // Both sessions' stats folded into one frame, as the batch-level
        // mirror does: the shared cache holds 55 entries, not 95.
        let mut frame = MetricsFrame::new();
        session_stats_into(&mut frame, &first);
        session_stats_into(&mut frame, &second);
        assert_eq!(frame.gauges.get("session.mask_cache_entries"), Some(&55.0));
        assert!(!frame.counters.contains_key("session.mask_cache_entries"));
        assert_eq!(frame.counters.get("session.mask_cache_misses"), Some(&55));
        // Per-session frames merged into one profile, and the aggregated
        // stats, both keep the absolute size.
        let mut merged = MetricsFrame::new();
        for stats in [&first, &second] {
            let mut own = MetricsFrame::new();
            session_stats_into(&mut own, stats);
            merged.merge(&own);
        }
        assert_eq!(merged.gauges.get("session.mask_cache_entries"), Some(&55.0));
        let mut total = first;
        total.accumulate(&second);
        assert_eq!(total.mask_cache_entries, 55);
    }

    #[test]
    fn empty_report_counts_are_zero() {
        let r = EngineReport::default();
        assert_eq!(r.n_detections(), 0);
        assert_eq!(r.n_repairs(), 0);
        assert_eq!(r.cache_hits(), 0);
        assert!(r.table_report().columns.is_empty());
    }
}
