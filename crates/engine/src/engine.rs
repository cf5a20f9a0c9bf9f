//! The batch cleaning engine: DataVinci's column-wise pipeline behind a
//! worker pool and a fingerprint-keyed artifact cache.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use crate::cache::{CacheLookup, CacheStats, ProfileCache, DEFAULT_CACHE_CAPACITY};
use crate::pool::WorkerPool;
use crate::report::{
    cache_stats_into, session_stats_into, BatchReport, CacheOutcome, ColumnOutcome, EngineReport,
};
use crate::store::{ArtifactStore, FlushStats, LoadStats, StoreError};
use datavinci_core::{AnalysisSession, ColumnAnalysis, DataVinci, TableReport};
use datavinci_table::{CellRef, CellValue, Table};
use datavinci_telemetry::{self as telemetry, MetricsFrame, MetricsRegistry, TaskProfile};

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads; `0` means one per hardware thread.
    pub workers: usize,
    /// Cache learned artifacts across cleans?
    pub cache: bool,
    /// Bound on distinct cached column contents and table sessions
    /// ([`ProfileCache`]; least-recently-used entries evicted beyond it).
    /// The semantic mask-memo bound is the matching core-side knob
    /// (`DataVinciConfig::mask_cache_capacity`).
    pub cache_capacity: usize,
    /// Record structured telemetry (span trees, counters, latency
    /// histograms) for every clean? Off by default: with telemetry off
    /// every instrumentation point short-circuits on one relaxed atomic
    /// load and cleaning output is byte-identical.
    pub telemetry: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 0,
            cache: true,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            telemetry: false,
        }
    }
}

/// The parallel, cache-aware batch cleaning engine.
///
/// DataVinci's pipeline is column-independent (paper Figure 2), so the
/// engine schedules one task per `(table, column)` pair over a scoped-thread
/// pool and — when caching is on — reuses learned artifacts for unchanged or
/// append-only column content.
///
/// Cold cleans and re-cleans of *unchanged* content are byte-identical to
/// the sequential [`DataVinci::clean_table`] loop: same columns, same
/// order, same reports. Append-only reuse is an approximation — prior
/// patterns are re-scored rather than re-learned, so results can differ
/// from a from-scratch clean of the grown column; the engine falls back to
/// full profiling when the appended rows do not fit the prior language
/// (see the `CacheLookup::Append` arm and
/// [`CacheStats::append_fallbacks`](crate::CacheStats)).
pub struct Engine {
    dv: DataVinci,
    pool: WorkerPool,
    cache: Option<ProfileCache>,
    registry: MetricsRegistry,
    store: Option<ArtifactStore>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine around a default [`DataVinci`] with default configuration.
    pub fn new() -> Engine {
        Engine::with_config(EngineConfig::default())
    }

    /// An engine around a default [`DataVinci`].
    pub fn with_config(cfg: EngineConfig) -> Engine {
        Engine::with_system(DataVinci::new(), cfg)
    }

    /// An engine around an explicitly configured cleaning system (ablations,
    /// semantic modes, custom thresholds).
    pub fn with_system(dv: DataVinci, cfg: EngineConfig) -> Engine {
        Engine {
            dv,
            pool: WorkerPool::new(cfg.workers),
            cache: cfg
                .cache
                .then(|| ProfileCache::with_capacity(cfg.cache_capacity)),
            registry: MetricsRegistry::new(cfg.telemetry),
            store: None,
        }
    }

    /// Attaches a durable artifact store and warms the cache from it: every
    /// intact record the store holds becomes a live cache entry, so the
    /// first clean after a restart hits like the thousandth. Subsequent
    /// [`Engine::flush_store`] calls persist back to the same store.
    /// Requires caching ([`StoreError::CacheDisabled`] otherwise).
    pub fn attach_store(&mut self, store: ArtifactStore) -> Result<LoadStats, StoreError> {
        let cache = self.cache.as_ref().ok_or(StoreError::CacheDisabled)?;
        let stats = store.load_into(cache, self.dv.mask_cache())?;
        self.store = Some(store);
        Ok(stats)
    }

    /// Flushes the cache to the attached store, if any (atomic
    /// write-then-rename; `Ok(None)` when no store is attached).
    pub fn flush_store(&self) -> Result<Option<FlushStats>, StoreError> {
        match (&self.store, &self.cache) {
            (Some(store), Some(cache)) => store.flush_from(cache).map(Some),
            (Some(_), None) => Err(StoreError::CacheDisabled),
            (None, _) => Ok(None),
        }
    }

    /// The attached artifact store, if any.
    pub fn store(&self) -> Option<&ArtifactStore> {
        self.store.as_ref()
    }

    /// The engine's metrics registry: the cumulative sink every clean's
    /// frame is absorbed into (counters add, gauges last-write-wins,
    /// histograms merge). Disabled registries stay empty.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The wrapped cleaning system.
    pub fn system(&self) -> &DataVinci {
        &self.dv
    }

    /// The effective worker count.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Cache telemetry, if caching is enabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(ProfileCache::stats)
    }

    /// Number of column entries currently resident in the artifact cache
    /// (0 when caching is disabled). Exposed so long-stream tests can
    /// assert the capacity bound holds.
    pub fn cache_len(&self) -> usize {
        self.cache.as_ref().map_or(0, ProfileCache::len)
    }

    /// Drops all cached artifacts and telemetry (no-op when disabled).
    pub fn clear_cache(&self) {
        if let Some(cache) = &self.cache {
            cache.clear();
        }
    }

    /// Cleans a single column through the cache (no pool dispatch): the
    /// entry point for callers that sweep columns themselves.
    ///
    /// Recomputes the table fingerprint (an O(cells) hash) and opens a
    /// fresh (cache-seeded) session on every call; prefer
    /// [`Engine::clean_table`]/[`Engine::clean_batch`], which hash each
    /// table once and share one session across all its columns.
    pub fn clean_column(&self, table: &Table, col: usize) -> ColumnOutcome {
        let (outcome, profile) = telemetry::collect(self.registry.enabled(), || {
            let fingerprint = table.fingerprint();
            let session = self.open_session(table, fingerprint);
            let outcome = self.clean_unit(&session, table, fingerprint, col);
            self.store_session(fingerprint, crate::cache::header_key(table), session);
            outcome
        });
        if let Some(profile) = profile {
            self.registry.absorb_frame(&profile.metrics);
        }
        outcome
    }

    /// A session for `table`. Reuse is layered: if the cache holds a
    /// detached session for the same header shape whose table is a prefix
    /// of this one (streaming/append growth), it is *resumed* — rendered
    /// matrix, row interner, and value vectors carry over and only the
    /// appended rows are processed. Otherwise a fresh session is opened, seeded with
    /// the cached `FeatureSet` when identical table content was cleaned
    /// before.
    fn open_session<'t>(&self, table: &'t Table, fingerprint: u64) -> AnalysisSession<'t> {
        if let Some(cache) = &self.cache {
            if let Some(snapshot) =
                cache.take_resumable_snapshot(crate::cache::header_key(table), table)
            {
                return self.dv.resume_session(snapshot, table);
            }
        }
        let session = self.dv.session(table);
        if let Some(cache) = &self.cache {
            if let Some(features) = cache.lookup_session(fingerprint) {
                session.seed_features(features);
            }
        }
        session
    }

    /// Stores a finished session back into the cache: its generated
    /// features into the session layer (keyed by table content) and its
    /// detached state into the snapshot layer (keyed by header shape, for
    /// append-only resume).
    fn store_session(&self, fingerprint: u64, header_key: u64, session: AnalysisSession<'_>) {
        if let Some(cache) = &self.cache {
            if let Some(features) = session.features_arc() {
                cache.insert_session(fingerprint, features);
            }
            cache.insert_snapshot(header_key, session.into_snapshot());
        }
    }

    /// Cleans every sufficiently-textual column of one table, in parallel.
    ///
    /// The report's `elapsed` keeps its batch semantics (summed per-column
    /// cleaning time); measure wall time around this call if needed.
    pub fn clean_table(&self, table: &Table) -> EngineReport {
        let mut batch = self.clean_batch(std::slice::from_ref(table));
        let mut report = batch.tables.pop().expect("one table in, one out");
        // The batch profile is a superset of the single table's (same task
        // spans plus the batch-level scheduling spans and cache aggregates):
        // hand the richer one to single-table callers.
        if batch.telemetry.is_some() {
            report.telemetry = batch.telemetry;
        }
        report
    }

    /// Cleans a queue of independent tables, in parallel.
    ///
    /// Work is scheduled at `(table, column)` granularity so a batch of
    /// small tables and one huge table still load-balances. Each table's
    /// columns share one [`AnalysisSession`] (features, the feature store,
    /// and rendered values are built at most once per table), and tables
    /// with identical fingerprints share one session outright.
    pub fn clean_batch(&self, tables: &[Table]) -> BatchReport {
        let (mut batch, profile) =
            telemetry::collect(self.registry.enabled(), || self.clean_batch_inner(tables));
        if let Some(mut profile) = profile {
            cache_stats_into(&mut profile.metrics, &batch.cache);
            profile
                .metrics
                .set_gauge("engine.batch_elapsed_ms", batch.elapsed.as_secs_f64() * 1e3);
            profile
                .metrics
                .set_gauge("engine.workers", self.pool.workers() as f64);
            // The six pipeline stages are part of the exported schema even
            // when a clean never reached one of them (e.g. all cache hits).
            for stage in telemetry::stages::ALL {
                profile.metrics.ensure_histogram(stage);
            }
            self.registry.absorb_frame(&profile.metrics);
            batch.telemetry = Some(profile);
        }
        batch
    }

    fn clean_batch_inner(&self, tables: &[Table]) -> BatchReport {
        let _root = telemetry::span("engine.clean_batch");
        let started = Instant::now();
        let min_text = self.dv.config().min_text_fraction;

        // One unit per cleanable column; table fingerprints computed once.
        let fingerprint_span = telemetry::span("engine.fingerprint");
        let prints: Vec<u64> = tables.iter().map(Table::fingerprint).collect();
        let units: Vec<(usize, usize)> = tables
            .iter()
            .enumerate()
            .flat_map(|(ti, t)| {
                (0..t.n_cols())
                    .filter(|&c| {
                        t.column(c)
                            .is_some_and(|col| col.text_fraction() >= min_text)
                    })
                    .map(move |c| (ti, c))
            })
            .collect();
        drop(fingerprint_span);
        telemetry::counter("engine.tables", tables.len() as u64);
        telemetry::counter("engine.units", units.len() as u64);

        // One session per *distinct* table fingerprint, resumed from the
        // cache's snapshot layer (append growth) or seeded from its session
        // layer (identical content) when possible.
        let open_span = telemetry::span("engine.open_sessions");
        let mut session_of: Vec<usize> = Vec::with_capacity(tables.len());
        let mut slots: HashMap<u64, usize> = HashMap::new();
        let mut sessions: Vec<AnalysisSession<'_>> = Vec::new();
        let mut slot_keys: Vec<(u64, u64)> = Vec::new();
        for (ti, table) in tables.iter().enumerate() {
            let slot = *slots.entry(prints[ti]).or_insert_with(|| {
                sessions.push(self.open_session(table, prints[ti]));
                slot_keys.push((prints[ti], crate::cache::header_key(table)));
                sessions.len() - 1
            });
            session_of.push(slot);
        }
        drop(open_span);
        telemetry::counter("engine.distinct_sessions", sessions.len() as u64);

        // Each worker task records into its own thread-local collector;
        // profiles come back with the outcomes and are grafted under this
        // batch's root span at join (no locks on the cleaning hot path).
        let enabled = self.registry.enabled();
        // Largest columns are claimed first so one huge table enqueued late
        // can't serialize the batch's tail behind a single worker.
        let sizes: Vec<usize> = units.iter().map(|&(ti, _)| tables[ti].n_rows()).collect();
        let outcomes = self.pool.map_sized(&units, &sizes, |_, &(ti, col)| {
            telemetry::collect(enabled, || {
                self.clean_unit(&sessions[session_of[ti]], &tables[ti], prints[ti], col)
            })
        });

        let mut per_table: Vec<EngineReport> =
            tables.iter().map(|_| EngineReport::default()).collect();
        for (&(ti, _), (outcome, profile)) in units.iter().zip(outcomes) {
            per_table[ti].elapsed += outcome.elapsed;
            if let Some(profile) = profile {
                telemetry::absorb(&profile);
                per_table[ti]
                    .telemetry
                    .get_or_insert_with(TaskProfile::default)
                    .merge(&profile);
            }
            per_table[ti].columns.push(outcome);
        }
        for (ti, report) in per_table.iter_mut().enumerate() {
            report.session = sessions[session_of[ti]].stats();
            if enabled {
                let frame = &mut report
                    .telemetry
                    .get_or_insert_with(TaskProfile::default)
                    .metrics;
                session_stats_into(frame, &report.session);
                frame.set_gauge(
                    "engine.table_elapsed_ms",
                    report.elapsed.as_secs_f64() * 1e3,
                );
                for stage in telemetry::stages::ALL {
                    frame.ensure_histogram(stage);
                }
            }
        }
        if enabled {
            // Batch-level session aggregates walk *distinct* sessions: the
            // per-table mirrors above would double-count tables sharing a
            // fingerprint (and therefore a session).
            let mut frame = MetricsFrame::new();
            for session in &sessions {
                session_stats_into(&mut frame, &session.stats());
            }
            telemetry::absorb(&TaskProfile {
                spans: Vec::new(),
                metrics: frame,
            });
        }
        for (session, &(fingerprint, header_key)) in sessions.into_iter().zip(&slot_keys) {
            self.store_session(fingerprint, header_key, session);
        }
        BatchReport {
            tables: per_table,
            elapsed: started.elapsed(),
            workers: self.pool.workers(),
            cache: self.cache_stats().unwrap_or_default(),
            telemetry: None,
        }
    }

    /// Cleans one column through the shared table session, consulting the
    /// cache layer by layer.
    fn clean_unit(
        &self,
        session: &AnalysisSession<'_>,
        table: &Table,
        table_fingerprint: u64,
        col: usize,
    ) -> ColumnOutcome {
        let _span = telemetry::span("engine.clean_column");
        let started = Instant::now();
        let column = table.column(col).expect("column in range");

        let (report, cache_outcome) = match &self.cache {
            None => {
                let analysis = self.dv.analyze_column_in(session, col);
                (
                    self.dv.repair_analysis_in(session, &analysis),
                    CacheOutcome::Disabled,
                )
            }
            Some(cache) => {
                // Repairs a finished analysis and caches it with its report.
                let repair_and_insert = |analysis: Arc<ColumnAnalysis>| {
                    let report = self.dv.repair_analysis_in(session, &analysis);
                    cache.insert(column, col, table_fingerprint, analysis, report.clone());
                    report
                };
                match cache.lookup(column, col, table_fingerprint) {
                    CacheLookup::Report(entry) => (entry.report.clone(), CacheOutcome::ReportHit),
                    CacheLookup::Analysis(entry) => (
                        repair_and_insert(Arc::clone(&entry.analysis)),
                        CacheOutcome::AnalysisHit,
                    ),
                    CacheLookup::Append(entry) => {
                        // Reuses the prior's learned patterns, re-scored
                        // against the grown column instead of re-learned.
                        let analysis =
                            self.dv
                                .analyze_column_appended_in(session, col, &entry.analysis);
                        // Append reuse assumes the prior language still
                        // describes the column. If the appended rows mostly
                        // fall outside it — or significance collapsed under
                        // the new row count — the assumption failed:
                        // re-profile from scratch like a miss.
                        let appended = column.len() - entry.n_rows;
                        let appended_errors = analysis
                            .error_rows
                            .iter()
                            .filter(|&&row| row >= entry.n_rows)
                            .count();
                        let language_broke = appended_errors * 2 > appended
                            || (analysis.significant.is_empty()
                                && !entry.analysis.significant.is_empty());
                        let (analysis, outcome) = if language_broke {
                            cache.record_append_fallback();
                            (self.dv.analyze_column_in(session, col), CacheOutcome::Miss)
                        } else {
                            (analysis, CacheOutcome::AppendHit)
                        };
                        (repair_and_insert(Arc::new(analysis)), outcome)
                    }
                    CacheLookup::Miss => {
                        let analysis = self.dv.analyze_column_in(session, col);
                        (repair_and_insert(Arc::new(analysis)), CacheOutcome::Miss)
                    }
                }
            }
        };

        let elapsed = started.elapsed();
        if telemetry::is_active() {
            telemetry::counter(cache_outcome.metric(), 1);
            telemetry::observe("engine.column_latency", elapsed);
        }
        ColumnOutcome {
            report,
            cache: cache_outcome,
            elapsed,
        }
    }

    /// Applies a report's chosen repairs to a copy of `table`.
    pub fn apply(table: &Table, report: &TableReport) -> Table {
        let mut out = table.clone();
        for col_report in &report.columns {
            for repair in &col_report.repairs {
                out.set_cell(
                    CellRef::new(col_report.col, repair.row),
                    CellValue::text(repair.repaired.clone()),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datavinci_table::Column;

    fn players_table() -> Table {
        Table::new(vec![
            Column::from_texts(
                "Category",
                &[
                    "Professional",
                    "Professional",
                    "Professional",
                    "Qualifier",
                    "Qualifier",
                    "Professional",
                ],
            ),
            Column::from_texts(
                "Player ID",
                &[
                    "IN-674-PRO",
                    "usa_837",
                    "DZ-173-PRO",
                    "US-201-QUA",
                    "CN-924-QUA",
                    "FR-475-PRO",
                ],
            ),
        ])
    }

    #[test]
    fn engine_is_sync_and_send() {
        fn check<T: Sync + Send>() {}
        check::<Engine>();
    }

    #[test]
    fn engine_matches_sequential_on_figure2() {
        let table = players_table();
        let sequential = DataVinci::new().clean_table(&table);
        for workers in [1, 4] {
            let engine = Engine::with_config(EngineConfig {
                workers,
                cache: true,
                ..EngineConfig::default()
            });
            let report = engine.clean_table(&table);
            assert_eq!(
                format!("{:?}", report.table_report()),
                format!("{sequential:?}"),
                "workers={workers}"
            );
            assert_eq!(report.n_repairs(), 1);
        }
    }

    #[test]
    fn warm_reclean_hits_report_cache() {
        let table = players_table();
        let engine = Engine::with_config(EngineConfig {
            workers: 2,
            cache: true,
            ..EngineConfig::default()
        });
        let cold = engine.clean_table(&table);
        assert_eq!(cold.cache_hits(), 0);
        let warm = engine.clean_table(&table);
        assert_eq!(warm.cache_hits(), warm.columns.len());
        assert!(warm
            .columns
            .iter()
            .all(|c| c.cache == CacheOutcome::ReportHit));
        assert_eq!(
            format!("{:?}", warm.table_report()),
            format!("{:?}", cold.table_report())
        );
        let stats = engine.cache_stats().unwrap();
        assert!(stats.report_hits >= 2);
        assert_eq!(stats.misses as usize, cold.columns.len());
    }

    #[test]
    fn cache_disabled_reports_disabled_outcomes() {
        let engine = Engine::with_config(EngineConfig {
            workers: 1,
            cache: false,
            ..EngineConfig::default()
        });
        let report = engine.clean_table(&players_table());
        assert!(report
            .columns
            .iter()
            .all(|c| c.cache == CacheOutcome::Disabled));
        assert!(engine.cache_stats().is_none());
    }

    #[test]
    fn append_only_reuse_still_repairs_new_errors() {
        let engine = Engine::new();
        let base = Table::new(vec![Column::from_texts(
            "Quarter",
            &["Q4-2002", "Q3-2002", "Q1-2001", "Q2-2002"],
        )]);
        engine.clean_table(&base);

        // Append rows, one erroneous: profile reuse must still catch it.
        let grown = Table::new(vec![Column::from_texts(
            "Quarter",
            &[
                "Q4-2002", "Q3-2002", "Q1-2001", "Q2-2002", "Q1-2003", "Q32001",
            ],
        )]);
        let report = engine.clean_table(&grown);
        assert_eq!(report.columns[0].cache, CacheOutcome::AppendHit);
        let repairs = &report.columns[0].report.repairs;
        assert_eq!(repairs.len(), 1, "{report:#?}");
        assert_eq!(repairs[0].repaired, "Q3-2001");
        assert_eq!(engine.cache_stats().unwrap().append_hits, 1);
    }

    #[test]
    fn append_growth_resumes_prior_session() {
        let engine = Engine::new();
        let base = Table::new(vec![Column::from_texts(
            "Quarter",
            &["Q4-2002", "Q3-2002", "Q1-2001", "Q2-2002"],
        )]);
        engine.clean_table(&base);

        let grown = Table::new(vec![Column::from_texts(
            "Quarter",
            &[
                "Q4-2002", "Q3-2002", "Q1-2001", "Q2-2002", "Q1-2003", "Q32001",
            ],
        )]);
        let report = engine.clean_table(&grown);
        // The grown table's clean rode the prior session: state was resumed
        // and only the two appended rows were rendered/interned anew.
        assert_eq!(engine.cache_stats().unwrap().session_resumes, 1);
        assert_eq!(report.session.session_extensions, 1);
        assert_eq!(report.session.rows_appended, 2);
        assert_eq!(report.columns[0].report.repairs[0].repaired, "Q3-2001");
        // An unrelated shape does not resume.
        let other = players_table();
        engine.clean_table(&other);
        assert_eq!(engine.cache_stats().unwrap().session_resumes, 1);
    }

    #[test]
    fn apply_writes_repairs_back() {
        let table = players_table();
        let engine = Engine::new();
        let report = engine.clean_table(&table);
        let repaired = Engine::apply(&table, &report.table_report());
        let ids: Vec<String> = repaired.column(1).unwrap().rendered();
        assert_eq!(ids[1], "US-837-PRO");
        // Untouched cells stay intact.
        assert_eq!(ids[0], "IN-674-PRO");
        assert_eq!(table.column(1).unwrap().rendered()[1], "usa_837");
    }

    #[test]
    fn batch_cleans_every_table() {
        let engine = Engine::with_config(EngineConfig {
            workers: 4,
            cache: true,
            ..EngineConfig::default()
        });
        let tables = vec![players_table(), players_table()];
        let batch = engine.clean_batch(&tables);
        assert_eq!(batch.tables.len(), 2);
        // Identical tables: the duplicate may be served from cache, but the
        // reports must agree.
        assert_eq!(
            format!("{:?}", batch.tables[0].table_report()),
            format!("{:?}", batch.tables[1].table_report())
        );
        assert_eq!(batch.workers, 4);
        assert_eq!(batch.n_repairs(), 2);
    }
}
