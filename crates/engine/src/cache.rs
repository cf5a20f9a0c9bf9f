//! The column cache: fingerprint-keyed reuse of learned cleaning artifacts.
//!
//! DataVinci's per-column work splits into three reusable layers:
//!
//! 1. the finished [`ColumnReport`] — reusable only when the *whole table*
//!    is unchanged (repair concretization reads sibling-column features);
//! 2. the [`ColumnAnalysis`] (abstraction + profile + detection) — purely
//!    column-local, reusable whenever the column content is unchanged;
//! 3. the learned `ColumnProfile` patterns — reusable for *append-only*
//!    growth, where the old rows still define the column language and only
//!    pattern membership needs re-scoring.
//!
//! Lookups classify into those layers via [`datavinci_table::Column`]
//! fingerprints (rolling, so a prefix fingerprint detects appends) and
//! record hit/miss telemetry.
//!
//! On top of the column layers sits the **session layer**: the engine's
//! unit of table-scoped reuse. A clean's `AnalysisSession` generates the
//! table's `FeatureSet` at most once; the cache stores that set keyed by
//! the *table* fingerprint so a later session over identical table content
//! is seeded instead of regenerating ([`ProfileCache::lookup_session`]).
//!
//! The **snapshot layer** goes one further for append-only growth: after a
//! clean, the whole detached [`SessionSnapshot`] (rendered matrix, row
//! interner, value vectors, features) is kept — the *latest* per header shape — so
//! the next clean of the same table *plus appended rows* resumes the prior
//! session instead of re-rendering and re-interning the shared prefix
//! ([`ProfileCache::take_resumable_snapshot`]). This is the engine-side
//! substrate of streaming cleaning.
//!
//! The report, session and snapshot tiers share one least-recently-used
//! map type, each bounded to the cache's capacity. The cache counts hits,
//! misses and evictions but never prices what it holds: the artifact store
//! sizes its records when it writes them
//! ([`ArtifactStore::flush_from`](crate::store::ArtifactStore::flush_from)).

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use datavinci_core::{ColumnAnalysis, ColumnReport, FeatureSet, SessionSnapshot};
use datavinci_table::{Column, Table};

/// The snapshot-layer key: a fingerprint of the table's header names in
/// order. Appending rows never changes it, so a growing table keeps finding
/// its own prior snapshot. Computed with the toolchain-stable
/// [`datavinci_table::Fingerprinter`] (not `DefaultHasher`) because the
/// durable artifact store persists these keys: a store written by one build
/// must resolve them in another.
pub fn header_key(table: &Table) -> u64 {
    table.header_fingerprint()
}

/// Default bound on distinct cached column contents (least-recently-used
/// entries evicted beyond it), keeping a long-lived engine's footprint
/// proportional to its working set rather than to everything it has ever
/// cleaned.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Cache telemetry counters (cumulative since construction or `clear`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Whole-report reuse: column and table both unchanged.
    pub report_hits: u64,
    /// Analysis reuse: column unchanged, table context changed (repair
    /// re-runs against the new table).
    pub analysis_hits: u64,
    /// Profile reuse: column grew append-only (patterns re-scored, repair
    /// re-runs).
    pub append_hits: u64,
    /// Append lookups the engine abandoned because the appended rows did
    /// not fit the prior language (re-profiled from scratch instead; these
    /// are counted under `misses`, not `append_hits`).
    pub append_fallbacks: u64,
    /// Full recomputation.
    pub misses: u64,
    /// Session-layer reuse: a new clean of identical table content was
    /// seeded with the cached table `FeatureSet` instead of regenerating.
    pub session_hits: u64,
    /// Snapshot-layer reuse: a clean of a grown table resumed the prior
    /// session's state (rendered matrix, row interner, value vectors) instead of
    /// rebuilding it.
    pub session_resumes: u64,
    /// Report-tier entries evicted by the capacity bound.
    pub report_evictions: u64,
    /// Session-tier (feature set) entries evicted by the capacity bound.
    pub session_evictions: u64,
    /// Snapshot-tier entries evicted by the capacity bound.
    pub snapshot_evictions: u64,
}

impl CacheStats {
    /// All hits, across the three reuse layers.
    pub fn hits(&self) -> u64 {
        self.report_hits + self.analysis_hits + self.append_hits
    }

    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits() + self.misses
    }

    /// The canonical JSON rendering (shared by the CLI and the daemon).
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj()
            .field("report_hits", Json::Int(self.report_hits as i64))
            .field("analysis_hits", Json::Int(self.analysis_hits as i64))
            .field("append_hits", Json::Int(self.append_hits as i64))
            .field("append_fallbacks", Json::Int(self.append_fallbacks as i64))
            .field("misses", Json::Int(self.misses as i64))
            .field("session_hits", Json::Int(self.session_hits as i64))
            .field("session_resumes", Json::Int(self.session_resumes as i64))
            .field("report_evictions", Json::Int(self.report_evictions as i64))
            .field(
                "session_evictions",
                Json::Int(self.session_evictions as i64),
            )
            .field(
                "snapshot_evictions",
                Json::Int(self.snapshot_evictions as i64),
            )
    }
}

/// One cached column: the artifacts plus the identity they were learned on.
#[derive(Debug)]
pub struct CachedColumn {
    /// Column name at learn time (keys the append-probing name index, and
    /// persists so a reloaded store can rebuild that index).
    pub name: String,
    /// Column content fingerprint at learn time.
    pub fingerprint: u64,
    /// Whole-table fingerprint at learn time (gates report reuse).
    pub table_fingerprint: u64,
    /// Column index at learn time (analyses embed their column index).
    pub col: usize,
    /// Row count at learn time (gates append detection).
    pub n_rows: usize,
    /// The finished analysis.
    pub analysis: Arc<ColumnAnalysis>,
    /// The finished report.
    pub report: ColumnReport,
}

/// The outcome of one cache lookup.
#[derive(Debug, Clone)]
pub enum CacheLookup {
    /// Column + table unchanged: the cached report is the answer.
    Report(Arc<CachedColumn>),
    /// Column unchanged in a different table: reuse the analysis, re-repair.
    Analysis(Arc<CachedColumn>),
    /// Column grew append-only: reuse the learned profile, re-detect.
    Append(Arc<CachedColumn>),
    /// Nothing reusable.
    Miss,
}

/// One cache tier: a `u64`-keyed map plus its recency queue
/// (least-recently-used key at the front). Every key in the map appears in
/// the queue exactly once, and nothing else does.
struct Lru<V> {
    map: HashMap<u64, V>,
    order: VecDeque<u64>,
}

impl<V> Default for Lru<V> {
    fn default() -> Self {
        Lru {
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }
}

impl<V> Lru<V> {
    fn len(&self) -> usize {
        self.map.len()
    }

    /// The value under `key`, leaving its recency alone.
    fn peek(&self, key: u64) -> Option<&V> {
        self.map.get(&key)
    }

    /// Moves `key` to the most-recent end, if present. Linear in the
    /// tier's length, which the capacity bounds; warm report hits pay it
    /// on every read.
    fn touch(&mut self, key: u64) {
        if let Some(pos) = self.order.iter().position(|&k| k == key) {
            self.order.remove(pos);
            self.order.push_back(key);
        }
    }

    /// The value under `key`, touched.
    fn get(&mut self, key: u64) -> Option<&V> {
        if self.map.contains_key(&key) {
            self.touch(key);
        }
        self.map.get(&key)
    }

    /// Stores `value` at the most-recent end (a re-insert replaces and
    /// touches), then evicts least-recent entries while over `capacity`,
    /// returning them oldest first.
    fn insert(&mut self, key: u64, value: V, capacity: usize) -> Vec<V> {
        if self.map.insert(key, value).is_none() {
            self.order.push_back(key);
        } else {
            self.touch(key);
        }
        let mut evicted = Vec::new();
        while self.map.len() > capacity {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            evicted.extend(self.map.remove(&oldest));
        }
        evicted
    }

    /// Removes and returns the value under `key`.
    fn take(&mut self, key: u64) -> Option<V> {
        let value = self.map.remove(&key)?;
        if let Some(pos) = self.order.iter().position(|&k| k == key) {
            self.order.remove(pos);
        }
        Some(value)
    }

    /// Every entry, least-recently-used first.
    fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.order.iter().map(|&key| (key, &self.map[&key]))
    }
}

#[derive(Default)]
struct Inner {
    /// Report tier: exact column content → entry.
    columns: Lru<Arc<CachedColumn>>,
    /// Latest entry per column name, for append-only prefix probing. An
    /// entry is only ever indexed under its own name.
    by_name: HashMap<String, Arc<CachedColumn>>,
    /// Session tier: table fingerprint → the table's generated features.
    sessions: Lru<Arc<FeatureSet>>,
    /// Snapshot tier: header key → the latest detached session for a table
    /// with those headers (one per shape: inserts replace).
    snapshots: Lru<SessionSnapshot>,
    stats: CacheStats,
}

/// A thread-safe fingerprint-keyed cache of per-column cleaning artifacts,
/// bounded to `capacity` entries per tier. Eviction is
/// least-recently-used: lookup hits and re-inserts refresh an entry's
/// position, so a fingerprint that is hit on every batch outlives any
/// number of cold insertions.
pub struct ProfileCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl Default for ProfileCache {
    fn default() -> Self {
        ProfileCache::new()
    }
}

impl ProfileCache {
    /// An empty cache with the default capacity.
    pub fn new() -> ProfileCache {
        ProfileCache::with_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// An empty cache bounded to `capacity` entries (min 1).
    pub fn with_capacity(capacity: usize) -> ProfileCache {
        ProfileCache {
            inner: Mutex::new(Inner::default()),
            capacity: capacity.max(1),
        }
    }

    /// Classifies the reusable layer for `column` at index `col` of a table
    /// with fingerprint `table_fingerprint`, updating telemetry.
    pub fn lookup(&self, column: &Column, col: usize, table_fingerprint: u64) -> CacheLookup {
        let fingerprint = column.fingerprint();
        let mut inner = self.inner.lock().expect("cache poisoned");
        if let Some(entry) = inner.columns.peek(fingerprint) {
            if entry.col == col {
                let entry = Arc::clone(entry);
                inner.columns.touch(fingerprint);
                if entry.table_fingerprint == table_fingerprint {
                    inner.stats.report_hits += 1;
                    return CacheLookup::Report(entry);
                }
                inner.stats.analysis_hits += 1;
                return CacheLookup::Analysis(entry);
            }
        }
        if let Some(entry) = inner.by_name.get(column.name()) {
            if entry.col == col
                && entry.n_rows < column.len()
                && column.fingerprint_prefix(entry.n_rows) == entry.fingerprint
            {
                let entry = Arc::clone(entry);
                inner.columns.touch(entry.fingerprint);
                inner.stats.append_hits += 1;
                return CacheLookup::Append(entry);
            }
        }
        inner.stats.misses += 1;
        CacheLookup::Miss
    }

    /// Stores the artifacts learned for `column`.
    pub fn insert(
        &self,
        column: &Column,
        col: usize,
        table_fingerprint: u64,
        analysis: Arc<ColumnAnalysis>,
        report: ColumnReport,
    ) {
        self.insert_entry(Arc::new(CachedColumn {
            name: column.name().to_string(),
            fingerprint: column.fingerprint(),
            table_fingerprint,
            col,
            n_rows: column.len(),
            analysis,
            report,
        }));
    }

    /// Stores a prebuilt entry — [`ProfileCache::insert`] and the artifact
    /// store's load path share this (the store carries the identity fields
    /// explicitly, with no `Column` to recompute them from).
    pub fn insert_entry(&self, entry: Arc<CachedColumn>) {
        let mut guard = self.inner.lock().expect("cache poisoned");
        let inner = &mut *guard;
        inner.by_name.insert(entry.name.clone(), Arc::clone(&entry));
        for evicted in inner
            .columns
            .insert(entry.fingerprint, entry, self.capacity)
        {
            // Drop the name index too if it still points at this entry.
            if inner
                .by_name
                .get(&evicted.name)
                .is_some_and(|kept| Arc::ptr_eq(kept, &evicted))
            {
                inner.by_name.remove(&evicted.name);
            }
            inner.stats.report_evictions += 1;
        }
    }

    /// The session layer: the `FeatureSet` previously generated for a table
    /// with this fingerprint, if cached. Callers seed a fresh
    /// `AnalysisSession` over identical table content with it, skipping the
    /// one-per-table feature generation entirely.
    pub fn lookup_session(&self, table_fingerprint: u64) -> Option<Arc<FeatureSet>> {
        let mut inner = self.inner.lock().expect("cache poisoned");
        let hit = inner.sessions.get(table_fingerprint).cloned();
        if hit.is_some() {
            inner.stats.session_hits += 1;
        }
        hit
    }

    /// Stores a session's generated `FeatureSet` under its table
    /// fingerprint (LRU-bounded like the column layers).
    pub fn insert_session(&self, table_fingerprint: u64, features: Arc<FeatureSet>) {
        let mut inner = self.inner.lock().expect("cache poisoned");
        let evicted = inner
            .sessions
            .insert(table_fingerprint, features, self.capacity);
        inner.stats.session_evictions += evicted.len() as u64;
    }

    /// Number of cached table-level sessions (feature sets).
    pub fn n_sessions(&self) -> usize {
        self.inner.lock().expect("cache poisoned").sessions.len()
    }

    /// Removes and returns the stored snapshot under `key` *iff* it can be
    /// resumed on `table` (same headers, prefix content unchanged, rows
    /// only appended). Validation happens under the cache lock, before the
    /// take, so a returned snapshot is guaranteed to resume. Non-resumable
    /// snapshots stay put — the stream they belong to may still come back.
    pub fn take_resumable_snapshot(&self, key: u64, table: &Table) -> Option<SessionSnapshot> {
        let mut inner = self.inner.lock().expect("cache poisoned");
        if !inner
            .snapshots
            .peek(key)
            .is_some_and(|s| s.resumable_for(table))
        {
            return None;
        }
        inner.stats.session_resumes += 1;
        inner.snapshots.take(key)
    }

    /// Stores a detached session under its table's header key, replacing
    /// any prior snapshot for that shape (LRU-bounded across shapes: a
    /// stream that stores on every chunk keeps refreshing its slot).
    pub fn insert_snapshot(&self, key: u64, snapshot: SessionSnapshot) {
        let mut inner = self.inner.lock().expect("cache poisoned");
        let evicted = inner.snapshots.insert(key, snapshot, self.capacity);
        inner.stats.snapshot_evictions += evicted.len() as u64;
    }

    /// Number of stored session snapshots (one per table header shape).
    pub fn n_snapshots(&self) -> usize {
        self.inner.lock().expect("cache poisoned").snapshots.len()
    }

    /// Records that an append hit was abandoned (the appended rows did not
    /// fit the prior language and the engine re-profiled from scratch).
    pub fn record_append_fallback(&self) {
        let mut inner = self.inner.lock().expect("cache poisoned");
        inner.stats.append_hits = inner.stats.append_hits.saturating_sub(1);
        inner.stats.append_fallbacks += 1;
        inner.stats.misses += 1;
    }

    /// Cumulative hit, miss and eviction counters. The cache does not price
    /// its entries: the artifact store sizes records when it flushes them.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().expect("cache poisoned").stats
    }

    /// Number of distinct cached column contents.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache poisoned").columns.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries and telemetry.
    pub fn clear(&self) {
        *self.inner.lock().expect("cache poisoned") = Inner::default();
    }

    /// Walks every cached artifact in least-recently-used-first order (per
    /// tier: columns, then sessions, then snapshots) under the cache lock.
    /// The artifact store's flush path writes records in this order, so a
    /// reloaded store reproduces the same recency order through plain
    /// re-insertion (each insert pushes to the most-recent end).
    pub fn export(&self, mut f: impl FnMut(Artifact<'_>)) {
        let inner = self.inner.lock().expect("cache poisoned");
        for (_, entry) in inner.columns.iter() {
            f(Artifact::Column(entry));
        }
        for (table_fingerprint, features) in inner.sessions.iter() {
            f(Artifact::Session {
                table_fingerprint,
                features,
            });
        }
        for (header_key, snapshot) in inner.snapshots.iter() {
            f(Artifact::Snapshot {
                header_key,
                snapshot,
            });
        }
    }
}

/// One cached artifact, borrowed out of the cache for export (the durable
/// store serializes these into its on-disk records).
pub enum Artifact<'a> {
    /// Report-tier entry: identity fields plus analysis and report.
    Column(&'a CachedColumn),
    /// Session-tier entry: a table's generated feature set.
    Session {
        table_fingerprint: u64,
        features: &'a FeatureSet,
    },
    /// Snapshot-tier entry: the latest detached session for a header shape.
    Snapshot {
        header_key: u64,
        snapshot: &'a SessionSnapshot,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use datavinci_core::DataVinci;
    use datavinci_table::Table;

    fn analyze(table: &Table, col: usize) -> (Arc<ColumnAnalysis>, ColumnReport) {
        let dv = DataVinci::new();
        let analysis = dv.analyze_column(table, col);
        let report = dv.repair_analysis(table, &analysis);
        (Arc::new(analysis), report)
    }

    fn table(values: &[&str]) -> Table {
        Table::new(vec![Column::from_texts("ids", values)])
    }

    #[test]
    fn miss_then_report_hit() {
        let cache = ProfileCache::new();
        let t = table(&["a-1", "a-2", "a9"]);
        let col = t.column(0).unwrap();
        assert!(matches!(
            cache.lookup(col, 0, t.fingerprint()),
            CacheLookup::Miss
        ));
        let (analysis, report) = analyze(&t, 0);
        cache.insert(col, 0, t.fingerprint(), analysis, report);
        assert!(matches!(
            cache.lookup(col, 0, t.fingerprint()),
            CacheLookup::Report(_)
        ));
        let stats = cache.stats();
        assert_eq!(stats.report_hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits(), 1);
        assert_eq!(stats.lookups(), 2);
    }

    #[test]
    fn same_column_in_different_table_is_analysis_hit() {
        let cache = ProfileCache::new();
        let t1 = table(&["a-1", "a-2", "a9"]);
        let (analysis, report) = analyze(&t1, 0);
        cache.insert(t1.column(0).unwrap(), 0, t1.fingerprint(), analysis, report);

        // Same column content, extra sibling column → different table print.
        let t2 = Table::new(vec![
            Column::from_texts("ids", &["a-1", "a-2", "a9"]),
            Column::from_texts("other", &["x", "y", "z"]),
        ]);
        assert_ne!(t1.fingerprint(), t2.fingerprint());
        assert!(matches!(
            cache.lookup(t2.column(0).unwrap(), 0, t2.fingerprint()),
            CacheLookup::Analysis(_)
        ));
        assert_eq!(cache.stats().analysis_hits, 1);
    }

    #[test]
    fn appended_column_is_append_hit() {
        let cache = ProfileCache::new();
        let t1 = table(&["a-1", "a-2", "a-3"]);
        let (analysis, report) = analyze(&t1, 0);
        cache.insert(t1.column(0).unwrap(), 0, t1.fingerprint(), analysis, report);

        let t2 = table(&["a-1", "a-2", "a-3", "a-4", "a5"]);
        match cache.lookup(t2.column(0).unwrap(), 0, t2.fingerprint()) {
            CacheLookup::Append(entry) => assert_eq!(entry.n_rows, 3),
            other => panic!("expected append hit, got {other:?}"),
        }
        // A *changed* (not appended) column misses.
        let t3 = table(&["a-1", "a-X", "a-3", "a-4"]);
        assert!(matches!(
            cache.lookup(t3.column(0).unwrap(), 0, t3.fingerprint()),
            CacheLookup::Miss
        ));
        assert_eq!(cache.stats().append_hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn capacity_bound_evicts_oldest_first() {
        let cache = ProfileCache::with_capacity(2);
        let tables: Vec<Table> = (0..3)
            .map(|i| table(&[&format!("a-{i}1"), &format!("a-{i}2")]))
            .collect();
        for t in &tables {
            let (analysis, report) = analyze(t, 0);
            cache.insert(t.column(0).unwrap(), 0, t.fingerprint(), analysis, report);
        }
        assert_eq!(cache.len(), 2);
        // Nothing was ever reused, so recency order equals insertion order:
        // the first insertion was evicted and the later two survive.
        assert!(matches!(
            cache.lookup(tables[0].column(0).unwrap(), 0, tables[0].fingerprint()),
            CacheLookup::Miss
        ));
        assert!(matches!(
            cache.lookup(tables[2].column(0).unwrap(), 0, tables[2].fingerprint()),
            CacheLookup::Report(_)
        ));
    }

    #[test]
    fn append_fallback_moves_hit_to_miss() {
        let cache = ProfileCache::new();
        let t1 = table(&["a-1", "a-2", "a-3"]);
        let (analysis, report) = analyze(&t1, 0);
        cache.insert(t1.column(0).unwrap(), 0, t1.fingerprint(), analysis, report);
        let t2 = table(&["a-1", "a-2", "a-3", "XYZ", "QRS"]);
        assert!(matches!(
            cache.lookup(t2.column(0).unwrap(), 0, t2.fingerprint()),
            CacheLookup::Append(_)
        ));
        cache.record_append_fallback();
        let stats = cache.stats();
        assert_eq!(stats.append_hits, 0);
        assert_eq!(stats.append_fallbacks, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn session_layer_stores_and_evicts_feature_sets() {
        use datavinci_core::FeatureSet;
        let cache = ProfileCache::with_capacity(2);
        let t = table(&["a-1", "a-2"]);
        let fp = t.fingerprint();
        assert!(cache.lookup_session(fp).is_none());
        assert_eq!(cache.stats().session_hits, 0);
        let features = Arc::new(FeatureSet::generate(&t));
        cache.insert_session(fp, Arc::clone(&features));
        let hit = cache.lookup_session(fp).expect("session hit");
        assert!(Arc::ptr_eq(&hit, &features));
        assert_eq!(cache.stats().session_hits, 1);
        // Eviction beyond capacity drops the least recently used key.
        cache.insert_session(fp ^ 1, Arc::clone(&features));
        cache.insert_session(fp ^ 2, Arc::clone(&features));
        assert_eq!(cache.n_sessions(), 2);
        assert!(cache.lookup_session(fp).is_none());
    }

    #[test]
    fn continuously_hit_column_outlives_capacity_cold_insertions() {
        let capacity = 4;
        let cache = ProfileCache::with_capacity(capacity);
        let hot = table(&["h-1", "h-2"]);
        let hot_col = hot.column(0).unwrap();
        let (analysis, report) = analyze(&hot, 0);
        cache.insert(hot_col, 0, hot.fingerprint(), analysis, report);
        // Twice `capacity` cold insertions, the hot entry hit before each:
        // under FIFO the hot entry would die at its original slot; with
        // touch-on-use it must survive the whole churn.
        for i in 0..(2 * capacity) {
            assert!(
                matches!(
                    cache.lookup(hot_col, 0, hot.fingerprint()),
                    CacheLookup::Report(_)
                ),
                "hot entry evicted after {i} cold insertions"
            );
            let cold = table(&[&format!("c-{i}1"), &format!("c-{i}2")]);
            let (analysis, report) = analyze(&cold, 0);
            cache.insert(
                cold.column(0).unwrap(),
                0,
                cold.fingerprint(),
                analysis,
                report,
            );
        }
        assert!(matches!(
            cache.lookup(hot_col, 0, hot.fingerprint()),
            CacheLookup::Report(_)
        ));
        assert_eq!(cache.len(), capacity);
    }

    #[test]
    fn continuously_hit_session_outlives_capacity_cold_insertions() {
        use datavinci_core::FeatureSet;
        let capacity = 2;
        let cache = ProfileCache::with_capacity(capacity);
        let t = table(&["a-1", "a-2"]);
        let features = Arc::new(FeatureSet::generate(&t));
        cache.insert_session(7, Arc::clone(&features));
        for i in 0..(3 * capacity as u64) {
            assert!(cache.lookup_session(7).is_some(), "evicted at round {i}");
            cache.insert_session(100 + i, Arc::clone(&features));
        }
        assert!(cache.lookup_session(7).is_some());
        assert_eq!(cache.n_sessions(), capacity);
    }

    #[test]
    fn reinserted_snapshot_refreshes_its_recency_slot() {
        let dv = DataVinci::new();
        let t = table(&["a-1", "a-2"]);
        let snap = || dv.session(&t).into_snapshot();
        let cache = ProfileCache::with_capacity(2);
        cache.insert_snapshot(1, snap());
        cache.insert_snapshot(2, snap());
        // Re-storing shape 1 (what a live stream does every chunk) makes
        // shape 2 the eviction victim when shape 3 arrives.
        cache.insert_snapshot(1, snap());
        cache.insert_snapshot(3, snap());
        assert_eq!(cache.n_snapshots(), 2);
        assert!(cache.take_resumable_snapshot(2, &t).is_none());
        assert!(cache.take_resumable_snapshot(1, &t).is_some());
    }

    #[test]
    fn eviction_counters_track_each_tier() {
        let cache = ProfileCache::with_capacity(2);
        let tables: Vec<Table> = (0..3)
            .map(|i| table(&[&format!("a-{i}1"), &format!("a-{i}2")]))
            .collect();
        for t in &tables {
            let (analysis, report) = analyze(t, 0);
            cache.insert(t.column(0).unwrap(), 0, t.fingerprint(), analysis, report);
        }
        // Third insert evicted the first entry.
        let stats = cache.stats();
        assert_eq!(stats.report_evictions, 1);
        assert_eq!(stats.session_evictions, 0);
        assert_eq!(stats.snapshot_evictions, 0);

        // Session tier: two inserts fit, the third evicts.
        let features = Arc::new(datavinci_core::FeatureSet::generate(&tables[0]));
        for key in [10, 11, 12] {
            cache.insert_session(key, Arc::clone(&features));
        }
        assert_eq!(cache.stats().session_evictions, 1);

        // Snapshot tier: taking a snapshot back out is not an eviction.
        let dv = DataVinci::new();
        cache.insert_snapshot(77, dv.session(&tables[0]).into_snapshot());
        assert!(cache.take_resumable_snapshot(77, &tables[0]).is_some());
        assert_eq!(cache.n_snapshots(), 0);
        assert_eq!(cache.stats().snapshot_evictions, 0);
    }

    #[test]
    fn evicting_a_report_entry_unindexes_only_its_own_name() {
        let named =
            |name: &str, values: &[&str]| Table::new(vec![Column::from_texts(name, values)]);
        let insert = |cache: &ProfileCache, t: &Table| {
            let (analysis, report) = analyze(t, 0);
            cache.insert(t.column(0).unwrap(), 0, t.fingerprint(), analysis, report);
        };

        // An older "ids" entry is evicted after a newer "ids" entry took
        // its name: the newer entry's append probe must survive.
        let cache = ProfileCache::with_capacity(2);
        insert(&cache, &named("ids", &["a-1", "a-2"]));
        insert(&cache, &named("ids", &["b-1", "b-2", "b-3"]));
        insert(&cache, &named("other", &["c-1", "c-2"]));
        assert_eq!(cache.stats().report_evictions, 1);
        let grown = named("ids", &["b-1", "b-2", "b-3", "b-4"]);
        match cache.lookup(grown.column(0).unwrap(), 0, grown.fingerprint()) {
            CacheLookup::Append(entry) => assert_eq!(entry.n_rows, 3),
            other => panic!("expected append hit, got {other:?}"),
        }

        // Evicting the entry the name index points at unindexes the name:
        // a grown column misses instead of appending onto an evicted entry.
        let cache = ProfileCache::with_capacity(1);
        insert(&cache, &named("ids", &["a-1", "a-2"]));
        insert(&cache, &named("other", &["c-1", "c-2"]));
        assert_eq!(cache.stats().report_evictions, 1);
        let grown = named("ids", &["a-1", "a-2", "a-3"]);
        assert!(matches!(
            cache.lookup(grown.column(0).unwrap(), 0, grown.fingerprint()),
            CacheLookup::Miss
        ));
    }

    #[test]
    fn export_walks_all_tiers_lru_first() {
        let cache = ProfileCache::new();
        let t1 = table(&["a-1", "a-2"]);
        let t2 = table(&["b-1", "b-2"]);
        for t in [&t1, &t2] {
            let (analysis, report) = analyze(t, 0);
            cache.insert(t.column(0).unwrap(), 0, t.fingerprint(), analysis, report);
        }
        // Touch t1 so it becomes most-recent: export must yield t2 first.
        assert!(matches!(
            cache.lookup(t1.column(0).unwrap(), 0, t1.fingerprint()),
            CacheLookup::Report(_)
        ));
        let features = Arc::new(datavinci_core::FeatureSet::generate(&t1));
        cache.insert_session(5, Arc::clone(&features));
        let dv = DataVinci::new();
        cache.insert_snapshot(9, dv.session(&t1).into_snapshot());

        let mut kinds = Vec::new();
        let mut column_prints = Vec::new();
        cache.export(|artifact| match artifact {
            Artifact::Column(entry) => {
                kinds.push("column");
                column_prints.push(entry.fingerprint);
            }
            Artifact::Session {
                table_fingerprint, ..
            } => {
                kinds.push("session");
                assert_eq!(table_fingerprint, 5);
            }
            Artifact::Snapshot { header_key, .. } => {
                kinds.push("snapshot");
                assert_eq!(header_key, 9);
            }
        });
        assert_eq!(kinds, ["column", "column", "session", "snapshot"]);
        assert_eq!(
            column_prints,
            [
                t2.column(0).unwrap().fingerprint(),
                t1.column(0).unwrap().fingerprint()
            ]
        );
    }

    #[test]
    fn clear_resets_entries_and_stats() {
        let cache = ProfileCache::new();
        let t = table(&["a-1", "a-2"]);
        let (analysis, report) = analyze(&t, 0);
        cache.insert(t.column(0).unwrap(), 0, t.fingerprint(), analysis, report);
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }
}
