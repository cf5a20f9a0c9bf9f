//! `datavinci-engine`: a parallel, cache-aware batch cleaning engine.
//!
//! DataVinci's pipeline (paper Figure 2) is column-wise: abstraction,
//! pattern learning, detection, and repair all happen per column. That makes
//! table cleaning embarrassingly parallel *and* highly cacheable — this
//! crate supplies the production-shaped wrapper the core pipeline
//! deliberately leaves out:
//!
//! * [`WorkerPool`] — a std-only scoped-thread pool; one task per
//!   `(table, column)` pair, dynamic load balancing, configurable width.
//! * [`ProfileCache`] — learned-artifact reuse keyed by 64-bit rolling
//!   content fingerprints ([`datavinci_table::Column::fingerprint`]): whole
//!   reports for unchanged tables, analyses for unchanged columns, learned
//!   profiles for append-only growth.
//! * [`Engine`] — drives [`datavinci_core::DataVinci`] over single tables
//!   ([`Engine::clean_table`]) or job queues ([`Engine::clean_batch`]),
//!   producing [`EngineReport`]s with per-column timing and cache
//!   telemetry. Cold and unchanged-content cleans are byte-identical to
//!   the sequential pipeline; append-only reuse re-scores prior patterns
//!   and falls back to full profiling when appended rows don't fit them.
//! * [`json`] — a minimal JSON renderer for reports (the vendored serde is
//!   a marker shim), shared with the `datavinci-clean` CLI binary.
//!
//! ```
//! use datavinci_engine::{Engine, EngineConfig};
//! use datavinci_table::{Column, Table};
//!
//! let table = Table::new(vec![
//!     Column::from_texts("Quarter", &["Q4-2002", "Q3-2002", "Q1-2001", "Q2-2002", "Q32001"]),
//! ]);
//! let engine = Engine::with_config(EngineConfig { workers: 4, cache: true, ..EngineConfig::default() });
//! let report = engine.clean_table(&table);
//! assert_eq!(report.columns[0].report.repairs[0].repaired, "Q3-2001");
//! // A warm re-clean of unchanged content is served from the cache.
//! let warm = engine.clean_table(&table);
//! assert_eq!(warm.cache_hits(), 1);
//! ```

pub mod cache;
mod engine;
pub mod json;
pub mod pool;
pub mod report;
pub mod serve;
pub mod store;
pub mod stream;

pub use cache::{
    Artifact, CacheLookup, CacheStats, CachedColumn, ProfileCache, DEFAULT_CACHE_CAPACITY,
};
pub use engine::{Engine, EngineConfig};
pub use pool::WorkerPool;
pub use report::{
    cache_stats_into, histogram_json, metrics_frame_json, session_stats_into, session_stats_json,
    span_node_json, telemetry_json, BatchReport, CacheOutcome, ColumnOutcome, EngineReport,
};
pub use serve::{Server, ServerConfig};
pub use store::{
    ArtifactStore, FlushStats, LoadStats, StoreError, DEFAULT_STORE_BUDGET, FORMAT_MARKER,
};
pub use stream::{ChunkOutcome, StreamCleaner, StreamConfig, StreamRepair};
