//! The table-scoped analysis session: one shared context for features,
//! masks, and rendered values across every column of a table.
//!
//! DataVinci's hole concretization conditions on *row features drawn from
//! the whole table* (paper §3.4), yet each column repair used to regenerate
//! the [`FeatureSet`] from scratch and keep the other shared state
//! (rendered values, mask memos, type detections) in disconnected per-call
//! caches. An [`AnalysisSession`] is created once per table clean and owns
//! everything that is a pure function of the table:
//!
//! * the **rendered table** (`RenderedTable`: every column's distinct
//!   `(kind, rendered)` values and each row's value ids) and the
//!   **distinct rows** interned from it (rows equal in every cell share
//!   one index);
//! * the **feature store**, built on first use: the [`FeatureSet`]
//!   (generated at most once per table, or seeded), every predicate
//!   evaluated once per distinct value of its column, and every distinct
//!   row's feature bits as `u64` words — what every column's concretizer
//!   gathers its decision-tree examples from and predicts on;
//! * the per-column rendered **values**, which every column analysis and
//!   the column-type sweep read (a column's distinct values are interned
//!   by its semantic abstraction, not here);
//! * a handle to the semantic [`MaskCache`] (per-value gazetteer sweeps,
//!   shared with the abstraction model) and a [`ColumnTypeMemo`] for
//!   semantic column-type detections.
//!
//! Sessions are `Sync`: the batch engine cleans the columns of one table
//! concurrently through a single shared session, and equal tables within a
//! batch share one session outright. [`AnalysisSession::stats`] snapshots
//! the reuse counters (the CLI and the engine surface them in reports).
//!
//! Sessions are also **extendable**: when rows are appended to a table, the
//! session's learned state is a strict prefix of the grown table's, so
//! instead of rebuilding everything, [`AnalysisSession::into_snapshot`]
//! detaches the owned state from the table borrow and
//! [`AnalysisSession::resume`] re-attaches it to the grown table, extending
//! the rendered table, the row interner, the feature store, and every
//! memoized value vector in place. This is what the
//! streaming engine rides: each chunk resumes the previous chunk's session
//! rather than re-rendering and re-interning the whole prefix.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::features::{FeatureSet, FeatureStore, RenderedTable};
use datavinci_semantic::{ColumnTypeMemo, Gazetteer, MaskCache, TypeDetection};
use datavinci_table::{CellValue, Table};

/// A snapshot of one session's reuse counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Times [`FeatureSet`] generation ran (at most 1 per session).
    pub feature_generations: u64,
    /// Distinct table rows materialized in the feature store (counted
    /// when the store is built and as it is extended over appended rows).
    pub feature_rows_computed: u64,
    /// Table rows covered by the row interner (0 until first needed).
    pub table_rows: u64,
    /// Distinct table rows (0 until first needed).
    pub distinct_rows: u64,
    /// Semantic column-type detections memoized.
    pub column_types_memoized: u64,
    /// Entries currently in the shared semantic mask cache (absolute — the
    /// cache outlives sessions).
    pub mask_cache_entries: u64,
    /// Mask-cache hits since this session opened (a delta against the
    /// shared cache's counters, so the number is this session's own
    /// traffic; sessions open concurrently can overlap).
    pub mask_cache_hits: u64,
    /// Mask-cache misses since this session opened (delta, like
    /// `mask_cache_hits`).
    pub mask_cache_misses: u64,
    /// Times this session's state was resumed onto a grown table
    /// ([`AnalysisSession::resume`] / [`AnalysisSession::extend`]).
    pub session_extensions: u64,
    /// Rows appended across those resumes.
    pub rows_appended: u64,
}

impl SessionStats {
    /// Folds another snapshot into this one (batch aggregation). Mask-cache
    /// hit/miss deltas sum (exact for sequentially opened sessions);
    /// `mask_cache_entries` is an absolute gauge and takes the maximum.
    pub fn accumulate(&mut self, other: &SessionStats) {
        self.feature_generations += other.feature_generations;
        self.feature_rows_computed += other.feature_rows_computed;
        self.table_rows += other.table_rows;
        self.distinct_rows += other.distinct_rows;
        self.column_types_memoized += other.column_types_memoized;
        self.mask_cache_entries = self.mask_cache_entries.max(other.mask_cache_entries);
        self.mask_cache_hits += other.mask_cache_hits;
        self.mask_cache_misses += other.mask_cache_misses;
        self.session_extensions += other.session_extensions;
        self.rows_appended += other.rows_appended;
    }
}

/// Live reuse counters (atomic: sessions are shared across worker threads).
#[derive(Debug, Default)]
struct Counters {
    feature_generations: AtomicU64,
    feature_rows_computed: AtomicU64,
    session_extensions: AtomicU64,
    rows_appended: AtomicU64,
}

/// Table-level row interning: rows equal in every cell (kind *and* rendered
/// text) share a distinct-row index, and therefore one set of feature bits
/// and one weighted decision-tree example.
///
/// Rows are keyed by their per-column value ids in the [`RenderedTable`].
/// The key → index map is retained (not just the counts) so appended rows
/// can be interned incrementally: existing rows keep their distinct index,
/// which is what keeps the feature store valid across
/// [`AnalysisSession::resume`]. Indices come out in first-occurrence order.
#[derive(Debug, Default)]
struct RowPool {
    index: HashMap<Vec<u32>, usize>,
    row_to_distinct: Vec<usize>,
    /// The first table row of each distinct row.
    first_rows: Vec<usize>,
}

impl RowPool {
    fn build(rendered: &RenderedTable) -> RowPool {
        let mut pool = RowPool::default();
        pool.extend(rendered, 0);
        pool
    }

    /// Interns rows `from_row..` of the (already extended) rendered table.
    fn extend(&mut self, rendered: &RenderedTable, from_row: usize) {
        debug_assert_eq!(from_row, self.row_to_distinct.len());
        self.row_to_distinct.reserve(rendered.n_rows() - from_row);
        let mut key = Vec::new();
        for row in from_row..rendered.n_rows() {
            rendered.write_row_ids(row, &mut key);
            let distinct = match self.index.get(key.as_slice()) {
                Some(&d) => d,
                None => {
                    let d = self.first_rows.len();
                    self.index.insert(key.clone(), d);
                    self.first_rows.push(row);
                    d
                }
            };
            self.row_to_distinct.push(distinct);
        }
    }

    fn n_distinct(&self) -> usize {
        self.first_rows.len()
    }
}

/// The shared analysis context for one table (see the module docs).
pub struct AnalysisSession<'t> {
    table: &'t Table,
    rendered: OnceLock<RenderedTable>,
    /// A feature set adopted before the store was built (engine cache,
    /// persisted or resumed snapshot); the store evaluates it instead of
    /// generating one.
    seeded: OnceLock<Arc<FeatureSet>>,
    store: OnceLock<FeatureStore>,
    row_pool: OnceLock<RowPool>,
    /// Column index → rendered values.
    values: Mutex<HashMap<usize, Arc<Vec<String>>>>,
    /// The semantic per-value mask memo (shared with the abstraction model
    /// when the session is created via [`crate::DataVinci::session`], so
    /// its reuse spans tables and batches).
    mask_cache: Arc<MaskCache>,
    /// The shared cache's counters at session open, so [`Self::stats`] can
    /// report this session's own mask traffic as a delta.
    mask_base: datavinci_semantic::MaskCacheStats,
    types: ColumnTypeMemo,
    counters: Counters,
}

impl<'t> AnalysisSession<'t> {
    /// A fresh session for `table`, with its own (empty) mask cache.
    pub fn new(table: &'t Table) -> AnalysisSession<'t> {
        AnalysisSession::with_mask_cache(table, Arc::new(MaskCache::default()))
    }

    /// A session sharing a longer-lived mask cache (the abstraction model's,
    /// so per-value gazetteer sweeps memoize across tables and batches).
    pub fn with_mask_cache(table: &'t Table, mask_cache: Arc<MaskCache>) -> AnalysisSession<'t> {
        let mask_base = mask_cache.stats();
        AnalysisSession {
            table,
            rendered: OnceLock::new(),
            seeded: OnceLock::new(),
            store: OnceLock::new(),
            row_pool: OnceLock::new(),
            values: Mutex::new(HashMap::new()),
            mask_cache,
            mask_base,
            types: ColumnTypeMemo::default(),
            counters: Counters::default(),
        }
    }

    /// The table this session analyzes.
    pub fn table(&self) -> &'t Table {
        self.table
    }

    /// The rendered table (built on first use).
    fn rendered(&self) -> &RenderedTable {
        self.rendered.get_or_init(|| {
            let _span = datavinci_telemetry::span("session.render");
            RenderedTable::new(self.table)
        })
    }

    /// The table's feature set — generated at most once per session, or
    /// adopted from [`AnalysisSession::seed_features`]. Builds the feature
    /// store.
    pub fn features(&self) -> &FeatureSet {
        self.feature_store().features()
    }

    /// The feature store (built on first use): the session's feature set
    /// evaluated over every distinct row.
    pub(crate) fn feature_store(&self) -> &FeatureStore {
        self.store.get_or_init(|| {
            let rendered = self.rendered();
            let reps = &self.row_pool().first_rows;
            let (features, truths) = match self.seeded.get() {
                Some(features) => (Arc::clone(features), None),
                None => {
                    let _span = datavinci_telemetry::span("session.generate_features");
                    self.counters
                        .feature_generations
                        .fetch_add(1, Ordering::Relaxed);
                    let (features, truths) = FeatureSet::generate_rendered(self.table, rendered);
                    (Arc::new(features), Some(truths))
                }
            };
            let _span = datavinci_telemetry::span("session.feature_store");
            self.counters
                .feature_rows_computed
                .fetch_add(reps.len() as u64, Ordering::Relaxed);
            FeatureStore::new(features, truths, rendered, reps)
        })
    }

    /// Adopts a previously generated feature set (engine session cache).
    /// Sound only for a table identical to the one the set was generated
    /// from; no-op if this session already has features.
    pub fn seed_features(&self, features: Arc<FeatureSet>) {
        if self.store.get().is_none() {
            let _ = self.seeded.set(features);
        }
    }

    /// The feature set, if one was generated or seeded (for caching).
    pub fn features_arc(&self) -> Option<Arc<FeatureSet>> {
        match self.store.get() {
            Some(store) => Some(Arc::clone(store.features())),
            None => self.seeded.get().cloned(),
        }
    }

    /// The distinct-row index of `row` (table-level row interning).
    pub fn distinct_row(&self, row: usize) -> usize {
        self.row_pool().row_to_distinct[row]
    }

    /// Number of distinct table rows.
    pub fn n_distinct_rows(&self) -> usize {
        self.row_pool().n_distinct()
    }

    fn row_pool(&self) -> &RowPool {
        self.row_pool.get_or_init(|| {
            let rendered = self.rendered();
            let _span = datavinci_telemetry::span("session.intern_rows");
            RowPool::build(rendered)
        })
    }

    /// Column `col`'s rendered values, computed once per session.
    pub fn column_values(&self, col: usize) -> Arc<Vec<String>> {
        let mut map = self.values.lock().expect("session poisoned");
        if let Some(hit) = map.get(&col) {
            return Arc::clone(hit);
        }
        let column = self.table.column(col).expect("column index in range");
        let values = Arc::new(column.rendered());
        map.insert(col, Arc::clone(&values));
        values
    }

    /// The shared semantic mask cache handle.
    pub fn mask_cache(&self) -> &Arc<MaskCache> {
        &self.mask_cache
    }

    /// Detects column `col`'s dominant semantic type, memoized per column
    /// for the session's lifetime (the gazetteer sweep over the column's
    /// distinct values runs at most once).
    pub fn column_type(
        &self,
        col: usize,
        gaz: &Gazetteer,
        min_confidence: f64,
    ) -> Option<TypeDetection> {
        self.types
            .detect(col, &self.column_values(col), gaz, min_confidence)
    }

    /// A snapshot of the session's reuse counters.
    pub fn stats(&self) -> SessionStats {
        let mask = self.mask_cache.stats();
        SessionStats {
            feature_generations: self.counters.feature_generations.load(Ordering::Relaxed),
            feature_rows_computed: self.counters.feature_rows_computed.load(Ordering::Relaxed),
            table_rows: self
                .row_pool
                .get()
                .map_or(0, |p| p.row_to_distinct.len() as u64),
            distinct_rows: self.row_pool.get().map_or(0, |p| p.n_distinct() as u64),
            column_types_memoized: self.types.len() as u64,
            mask_cache_entries: mask.entries,
            mask_cache_hits: mask.hits.saturating_sub(self.mask_base.hits),
            mask_cache_misses: mask.misses.saturating_sub(self.mask_base.misses),
            session_extensions: self.counters.session_extensions.load(Ordering::Relaxed),
            rows_appended: self.counters.rows_appended.load(Ordering::Relaxed),
        }
    }

    /// Detaches the session's owned state from the table borrow.
    ///
    /// The snapshot records the table's shape (headers, row count, column
    /// fingerprints) so a later [`AnalysisSession::resume`] can verify the
    /// new table really is the old one plus appended rows before adopting
    /// the state. Everything learned — rendered matrix, feature set, row
    /// interner, feature memo, value vectors, mask-cache handle,
    /// counters — carries over; only the column-type memo is dropped
    /// (appended rows can change a type verdict).
    pub fn into_snapshot(self) -> SessionSnapshot {
        SessionSnapshot {
            headers: self.table.headers().iter().map(|h| h.to_string()).collect(),
            n_rows: self.table.n_rows(),
            column_prints: self
                .table
                .columns()
                .iter()
                .map(|c| c.fingerprint())
                .collect(),
            rendered: self.rendered.into_inner(),
            seeded: self.seeded.into_inner(),
            store: self.store.into_inner(),
            row_pool: self.row_pool.into_inner(),
            values: self.values.into_inner().expect("session poisoned"),
            mask_cache: self.mask_cache,
            mask_base: self.mask_base,
            counters: self.counters,
        }
    }

    /// Re-attaches a snapshot to `table`, which must be the snapshot's
    /// table plus zero or more appended rows ([`SessionSnapshot::resumable_for`]).
    ///
    /// The rendered table, row interner, feature store, and memoized value
    /// vectors are *extended* over the appended rows —
    /// prior rows are never re-rendered or re-interned, and the store
    /// evaluates only the appended values. The feature set (if generated)
    /// is kept as-is: resumed cleaning re-scores the previously learned
    /// features against the appended rows, exactly like the engine's
    /// append-only cache arm; callers wanting fresh features on drift
    /// simply start a new session.
    pub fn resume(
        snapshot: SessionSnapshot,
        table: &'t Table,
    ) -> Result<AnalysisSession<'t>, SessionResumeError> {
        snapshot.check_resumable(table)?;
        let appended = table.n_rows() - snapshot.n_rows;
        datavinci_telemetry::counter("session.resumes", 1);
        datavinci_telemetry::counter("session.rows_appended", appended as u64);
        let SessionSnapshot {
            n_rows: prior_rows,
            mut rendered,
            seeded,
            mut store,
            mut row_pool,
            mut values,
            mask_cache,
            mask_base,
            counters,
            ..
        } = snapshot;

        if let Some(r) = rendered.as_mut() {
            r.extend(table, prior_rows);
        }
        if let Some(p) = row_pool.as_mut() {
            let r = rendered
                .as_ref()
                .expect("a row pool implies a rendered table");
            let prior_distinct = p.n_distinct();
            p.extend(r, prior_rows);
            // A store implies a row pool (its rows are the pool's).
            if let Some(store) = store.as_mut() {
                let _span = datavinci_telemetry::span("session.feature_store");
                store.extend(r, &p.first_rows);
                counters
                    .feature_rows_computed
                    .fetch_add((p.n_distinct() - prior_distinct) as u64, Ordering::Relaxed);
            }
        }
        for (&col, vals) in values.iter_mut() {
            let column = table.column(col).expect("column count verified");
            Arc::make_mut(vals).extend(
                (prior_rows..table.n_rows())
                    .map(|row| column.get(row).map(CellValue::render).unwrap_or_default()),
            );
        }

        counters.session_extensions.fetch_add(1, Ordering::Relaxed);
        counters
            .rows_appended
            .fetch_add(appended as u64, Ordering::Relaxed);
        fn into_lock<T>(v: Option<T>) -> OnceLock<T> {
            let lock = OnceLock::new();
            if let Some(v) = v {
                let _ = lock.set(v);
            }
            lock
        }
        Ok(AnalysisSession {
            table,
            rendered: into_lock(rendered),
            seeded: into_lock(seeded),
            store: into_lock(store),
            row_pool: into_lock(row_pool),
            values: Mutex::new(values),
            mask_cache,
            mask_base,
            types: ColumnTypeMemo::default(),
            counters,
        })
    }

    /// [`AnalysisSession::into_snapshot`] + [`AnalysisSession::resume`] in
    /// one step: moves this session's learned state onto `grown` (this
    /// table plus appended rows).
    pub fn extend<'u>(self, grown: &'u Table) -> Result<AnalysisSession<'u>, SessionResumeError> {
        AnalysisSession::resume(self.into_snapshot(), grown)
    }
}

/// An [`AnalysisSession`]'s owned state, detached from the table borrow so
/// it can outlive the table it was learned on and be resumed on a grown
/// copy (see [`AnalysisSession::into_snapshot`]).
pub struct SessionSnapshot {
    headers: Vec<String>,
    n_rows: usize,
    column_prints: Vec<u64>,
    rendered: Option<RenderedTable>,
    seeded: Option<Arc<FeatureSet>>,
    store: Option<FeatureStore>,
    row_pool: Option<RowPool>,
    values: HashMap<usize, Arc<Vec<String>>>,
    mask_cache: Arc<MaskCache>,
    mask_base: datavinci_semantic::MaskCacheStats,
    counters: Counters,
}

impl SessionSnapshot {
    /// Rebuilds a snapshot from its persistable parts (headers, row count,
    /// column fingerprints, and the learned feature set).
    ///
    /// The derived state a live session also carries — rendered table, row
    /// interner, feature store, value vectors — is intentionally
    /// absent: it is a pure function of the table and is rebuilt lazily on
    /// first use after [`AnalysisSession::resume`], exactly like a session
    /// that never touched it. This is what the engine's durable artifact store writes
    /// to disk: the part that is *learned* (features) plus the part that
    /// *validates* resumption (shape + fingerprints).
    pub fn from_parts(
        headers: Vec<String>,
        n_rows: usize,
        column_prints: Vec<u64>,
        features: Option<Arc<FeatureSet>>,
        mask_cache: Arc<MaskCache>,
    ) -> SessionSnapshot {
        let mask_base = mask_cache.stats();
        SessionSnapshot {
            headers,
            n_rows,
            column_prints,
            rendered: None,
            seeded: features,
            store: None,
            row_pool: None,
            values: HashMap::new(),
            mask_cache,
            mask_base,
            counters: Counters::default(),
        }
    }

    /// Header names of the snapshot's table, in column order.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Per-column content fingerprints over the snapshot's `n_rows` rows.
    pub fn column_prints(&self) -> &[u64] {
        &self.column_prints
    }

    /// The feature set carried by the snapshot, if one was generated.
    pub fn features(&self) -> Option<&Arc<FeatureSet>> {
        match &self.store {
            Some(store) => Some(store.features()),
            None => self.seeded.as_ref(),
        }
    }

    /// Rows the snapshot's table had when it was taken.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// True when [`AnalysisSession::resume`] on `table` would succeed:
    /// same headers, at least as many rows, and every column's first
    /// `n_rows` cells fingerprint-identical to the snapshot's (appended
    /// rows only).
    pub fn resumable_for(&self, table: &Table) -> bool {
        self.check_resumable(table).is_ok()
    }

    fn check_resumable(&self, table: &Table) -> Result<(), SessionResumeError> {
        if table.headers() != self.headers.iter().map(String::as_str).collect::<Vec<_>>() {
            return Err(SessionResumeError::HeaderMismatch);
        }
        if table.n_rows() < self.n_rows {
            return Err(SessionResumeError::TableShrunk {
                had: self.n_rows,
                got: table.n_rows(),
            });
        }
        for (col, (column, &print)) in table.columns().iter().zip(&self.column_prints).enumerate() {
            if column.fingerprint_prefix(self.n_rows) != print {
                return Err(SessionResumeError::PrefixChanged { col });
            }
        }
        Ok(())
    }
}

/// Why a [`SessionSnapshot`] could not be resumed on a table (the table is
/// not the snapshot's table plus appended rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionResumeError {
    /// Column names or order differ.
    HeaderMismatch,
    /// The new table has fewer rows than the snapshot covered.
    TableShrunk {
        /// Rows the snapshot covered.
        had: usize,
        /// Rows the new table has.
        got: usize,
    },
    /// A column's prefix rows changed content (not an append).
    PrefixChanged {
        /// The first differing column.
        col: usize,
    },
}

impl std::fmt::Display for SessionResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionResumeError::HeaderMismatch => write!(f, "table headers changed"),
            SessionResumeError::TableShrunk { had, got } => {
                write!(f, "table shrank from {had} to {got} rows")
            }
            SessionResumeError::PrefixChanged { col } => {
                write!(f, "column {col} changed within previously analyzed rows")
            }
        }
    }
}

impl std::error::Error for SessionResumeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use datavinci_table::{Column, ErrorValue};

    fn table() -> Table {
        Table::new(vec![
            Column::from_texts("a", &["x", "y", "x", "x"]),
            Column::from_texts("b", &["1-a", "2-b", "1-a", "1-a"]),
        ])
    }

    /// `row`'s feature bits as the session's store holds them.
    fn store_row(s: &AnalysisSession<'_>, row: usize) -> Vec<bool> {
        let store = s.feature_store();
        let d = s.distinct_row(row);
        (0..store.features().len())
            .map(|f| store.bit(f, d))
            .collect()
    }

    #[test]
    fn features_generate_once_and_store_distinct_rows() {
        let t = table();
        let s = AnalysisSession::new(&t);
        assert_eq!(s.stats().feature_generations, 0, "lazy until first use");
        let f0 = store_row(&s, 0);
        let f2 = store_row(&s, 2);
        assert_eq!(s.stats().feature_generations, 1);
        // Rows 0, 2, 3 are identical → one distinct row.
        assert_eq!(f0, f2);
        assert_eq!(s.distinct_row(0), s.distinct_row(3));
        let stats = s.stats();
        assert_eq!(stats.feature_rows_computed, 2, "both distinct rows, once");
        assert_eq!(stats.table_rows, 4);
        assert_eq!(stats.distinct_rows, 2);
        // And the bits equal the non-session reference path.
        let fs = FeatureSet::generate(&t);
        assert_eq!(f0, fs.row_features(&t, 0));
        assert_eq!(store_row(&s, 1), fs.row_features(&t, 1));
    }

    #[test]
    fn seeded_features_skip_generation() {
        let t = table();
        let s = AnalysisSession::new(&t);
        s.seed_features(Arc::new(FeatureSet::generate(&t)));
        let _ = s.features();
        assert_eq!(s.stats().feature_generations, 0);
        assert!(s.features_arc().is_some());
    }

    #[test]
    fn values_memoize_per_column() {
        let t = table();
        let s = AnalysisSession::new(&t);
        let v1 = s.column_values(1);
        let v2 = s.column_values(1);
        assert!(Arc::ptr_eq(&v1, &v2));
        assert_eq!(*v1, vec!["1-a", "2-b", "1-a", "1-a"]);
        assert_eq!(*s.column_values(0), vec!["x", "y", "x", "x"]);
    }

    #[test]
    fn column_type_memoizes() {
        let t = Table::new(vec![Column::from_texts(
            "city",
            &["Boston", "Miami", "Boston", "Chicago"],
        )]);
        let s = AnalysisSession::new(&t);
        let gaz = Gazetteer::new();
        let first = s.column_type(0, &gaz, 0.5).expect("city column detected");
        let again = s.column_type(0, &gaz, 0.5).expect("memo hit");
        assert_eq!(first, again);
        assert_eq!(s.stats().column_types_memoized, 1);

        // On a duplicate-heavy column the verdict is the unmemoized
        // detection's, whatever the row order: support is a weighted sum
        // over distinct values.
        let base = [
            "Boston", "x-1", "Boston", "Miami", "x-1", "Boston", "Chicago", "x-1", "", "Miami",
            "Boston", "q9",
        ];
        let n = base.len();
        for (mul, add) in [(1, 0), (5, 3), (7, 11), (11, 2)] {
            let values: Vec<String> = (0..n).map(|i| base[(i * mul + add) % n].into()).collect();
            let t = Table::new(vec![Column::from_texts("c", &values)]);
            let s = AnalysisSession::new(&t);
            let got = s.column_type(0, &gaz, 0.5);
            assert_eq!(
                got,
                datavinci_semantic::detect_column_type(&values, &gaz, 0.5)
            );
            let got = got.expect("mostly cities");
            assert_eq!(got.confidence, 7.0 / 11.0, "blanks are not counted");
        }
    }

    fn grown_table() -> Table {
        let mut t = table();
        t.column_mut(0)
            .unwrap()
            .values_mut()
            .extend([CellValue::text("y"), CellValue::text("z")]);
        t.column_mut(1)
            .unwrap()
            .values_mut()
            .extend([CellValue::text("2-b"), CellValue::text("3-c")]);
        t
    }

    #[test]
    fn extend_carries_state_and_matches_fresh_session() {
        let small = table();
        let grown = grown_table();

        let s = AnalysisSession::new(&small);
        let _ = s.features();
        let _ = s.column_values(0);
        let prior_features = s.features_arc().expect("generated");

        let s = s.extend(&grown).expect("append-only growth resumes");
        let fresh = AnalysisSession::new(&grown);

        // Same features object (re-score semantics), no regeneration.
        assert!(Arc::ptr_eq(
            &s.features_arc().expect("carried"),
            &prior_features
        ));
        // Extended values/interner agree with a from-scratch session.
        assert_eq!(*s.column_values(0), *fresh.column_values(0));
        assert_eq!(*s.column_values(1), *fresh.column_values(1));
        assert_eq!(s.n_distinct_rows(), fresh.n_distinct_rows());
        for row in 0..grown.n_rows() {
            assert_eq!(s.distinct_row(row), fresh.distinct_row(row), "row {row}");
        }
        // Appended rows evaluate against the carried feature set.
        for row in 0..grown.n_rows() {
            assert_eq!(
                store_row(&s, row),
                prior_features.row_features(&grown, row),
                "row {row}"
            );
        }
        let stats = s.stats();
        assert_eq!(stats.session_extensions, 1);
        assert_eq!(stats.rows_appended, 2);
        assert_eq!(stats.feature_generations, 1, "no regeneration on resume");
    }

    #[test]
    fn extend_grows_the_store_in_place() {
        let small = table();
        let grown = grown_table();
        let s = AnalysisSession::new(&small);
        let before = store_row(&s, 1);
        let (s, recorded) =
            datavinci_telemetry::collect(true, || s.extend(&grown).expect("resumes"));
        // Row 4 duplicates row 1: same distinct row, same bits.
        assert_eq!(s.distinct_row(4), s.distinct_row(1));
        assert_eq!(store_row(&s, 4), before);
        // Only row 5 is a new distinct row, and only its two new values
        // were evaluated, once per feature of their column.
        assert_eq!(s.stats().feature_rows_computed, 3);
        let features = s.features();
        let evals = features.predicates.len() as u64;
        let counters = recorded.expect("telemetry enabled").metrics.counters;
        assert_eq!(counters["features.predicate_evals"], evals);
    }

    #[test]
    fn resume_rejects_non_append_growth() {
        let small = table();
        let snapshot = {
            let s = AnalysisSession::new(&small);
            let _ = s.features();
            s.into_snapshot()
        };
        assert!(snapshot.resumable_for(&small), "identity resume allowed");

        let mut mutated = grown_table();
        mutated
            .column_mut(1)
            .unwrap()
            .set(0, CellValue::text("XXX"));
        assert!(!snapshot.resumable_for(&mutated));
        assert_eq!(
            AnalysisSession::resume(snapshot, &mutated).err(),
            Some(SessionResumeError::PrefixChanged { col: 1 })
        );

        let shrunk = Table::new(vec![
            Column::from_texts("a", &["x"]),
            Column::from_texts("b", &["1-a"]),
        ]);
        let s = AnalysisSession::new(&small);
        assert_eq!(
            s.into_snapshot().check_resumable(&shrunk),
            Err(SessionResumeError::TableShrunk { had: 4, got: 1 })
        );

        let renamed = Table::new(vec![
            Column::from_texts("a", &["x", "y", "x", "x"]),
            Column::from_texts("B", &["1-a", "2-b", "1-a", "1-a"]),
        ]);
        let s = AnalysisSession::new(&small);
        assert_eq!(
            s.into_snapshot().check_resumable(&renamed),
            Err(SessionResumeError::HeaderMismatch)
        );
    }

    #[test]
    fn lazy_session_resumes_without_building_anything() {
        // A session whose state was never touched snapshots to an empty
        // snapshot and resumes into a lazily-built session.
        let small = table();
        let grown = grown_table();
        let s = AnalysisSession::new(&small);
        let s = s.extend(&grown).expect("resumes");
        assert_eq!(
            s.n_distinct_rows(),
            AnalysisSession::new(&grown).n_distinct_rows()
        );
        assert_eq!(s.stats().feature_generations, 0);
    }

    /// Asserts the store's bit equals both row-level reference paths for
    /// every (row, feature) of `table`.
    fn assert_store_matches(
        s: &AnalysisSession<'_>,
        table: &Table,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let features = s.features();
        let rendered = RenderedTable::new(table);
        for row in 0..table.n_rows() {
            let bits = store_row(s, row);
            proptest::prop_assert_eq!(&bits, &features.row_features_rendered(&rendered, row));
            proptest::prop_assert_eq!(&bits, &features.row_features(table, row));
        }
        // Gathered example bitsets (over 64 examples, so several blocks)
        // hold the same bits.
        let store = s.feature_store();
        let examples: Vec<usize> = (0..150)
            .map(|i| s.distinct_row((i * 7) % table.n_rows()))
            .collect();
        let n_words = examples.len().div_ceil(64);
        let mut gathered = vec![0u64; features.len() * n_words];
        store.gather(&examples, &mut gathered);
        for f in 0..features.len() {
            for (i, &d) in examples.iter().enumerate() {
                let bit = gathered[f * n_words + i / 64] >> (i % 64) & 1 == 1;
                proptest::prop_assert_eq!(bit, store.bit(f, d));
            }
        }
        Ok(())
    }

    fn arb_cell() -> impl proptest::strategy::Strategy<Value = CellValue> {
        use proptest::prelude::*;
        prop_oneof![
            Just(CellValue::Number(3.0)),
            Just(CellValue::text("3")),
            Just(CellValue::text("")),
            Just(CellValue::Blank),
            Just(CellValue::Bool(true)),
            Just(CellValue::text("TRUE")),
            Just(CellValue::Error(ErrorValue::NA)),
            Just(CellValue::Error(ErrorValue::Div0)),
            (0u32..4).prop_map(|n| CellValue::Number(f64::from(n) + 0.5)),
            "[a-cA-C]{1,2}-[0-9]{1,2}".prop_map(CellValue::text),
            "[A-C][a-c]{0,2}[0-9]{0,1}".prop_map(CellValue::text),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        /// The store's bit equals the row-level reference evaluation for
        /// every (row, feature): on a fresh session, after extending onto
        /// appended rows with carried features, and after resuming a
        /// persisted snapshot. Rows repeat a few base rows (duplicate-heavy
        /// columns), kinds mix (`Number(3)` next to `Text("3")`, blank text
        /// next to `Blank`), and the last column may end early, so the
        /// appended rows hold missing cells.
        #[test]
        fn store_bits_equal_row_features(
            base in proptest::collection::vec(proptest::collection::vec(arb_cell(), 3), 1..7),
            picks in proptest::collection::vec(0usize..7, 2..48),
            n_cols in 1usize..4,
            short in 0usize..3,
            split in 0usize..48,
        ) {
            let n = picks.len();
            let columns: Vec<Column> = (0..n_cols)
                .map(|c| {
                    let cells = picks.iter().map(|&p| base[p % base.len()][c].clone()).collect();
                    Column::new(format!("c{c}"), cells)
                })
                .collect();
            let mut grown = Table::new(columns);
            let short = if n_cols > 1 { short.min(n - 1) } else { 0 };
            grown
                .column_mut(n_cols - 1)
                .unwrap()
                .values_mut()
                .truncate(n - short);
            let k = 1 + split % (n - short);
            let prefix = Table::new(
                grown
                    .columns()
                    .iter()
                    .map(|c| Column::new(c.name(), c.values()[..k].to_vec()))
                    .collect(),
            );

            // Fresh.
            assert_store_matches(&AnalysisSession::new(&grown), &grown)?;

            // Extended, with the prefix's features carried.
            let s = AnalysisSession::new(&prefix);
            assert_store_matches(&s, &prefix)?;
            let s = s.extend(&grown).expect("append-only growth resumes");
            proptest::prop_assert_eq!(s.stats().feature_generations, 1);
            assert_store_matches(&s, &grown)?;

            // Resumed from a persisted snapshot.
            let s = AnalysisSession::new(&prefix);
            let _ = s.features();
            let mut buf = Vec::new();
            crate::persist::encode_snapshot(&s.into_snapshot(), &mut buf);
            let mut r = crate::persist::Reader::new(&buf);
            let back = crate::persist::decode_snapshot(&mut r, Arc::new(MaskCache::default()))
                .expect("round trip");
            let s = AnalysisSession::resume(back, &grown).expect("resumes");
            assert_store_matches(&s, &grown)?;
            proptest::prop_assert_eq!(s.stats().feature_generations, 0);
        }
    }
}
