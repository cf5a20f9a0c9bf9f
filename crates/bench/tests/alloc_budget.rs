//! Allocation-regression gate over the end-to-end hot path.
//!
//! The single-core overhaul (zero-copy ingestion, pooled profiling, value
//! interning) is about allocation discipline as much as wall time — wall
//! time flakes on a loaded CI machine, allocation counts do not. This test
//! cleans the shared 120-row noisy column once to warm lazily-built state,
//! then counts the allocations of a second identical clean through the
//! metering allocator and asserts the per-row figure stays under a
//! committed budget.
//!
//! The budget is deliberately loose (~2× the measured figure) so it only
//! trips on structural regressions — a new per-row `String`, a dropped
//! pool — not on platform or layout jitter. This file holds exactly one
//! test: a second concurrent test would pollute the global counter.

use datavinci_bench::{alloc_meter, sample_noisy_table};
use datavinci_core::DataVinci;

#[global_allocator]
static ALLOC: alloc_meter::MeteredAlloc = alloc_meter::MeteredAlloc;

/// Committed budget: allocations per row for one 120-row column clean.
/// Measured 48.4/row with one interning per column, its abstraction's,
/// which owns each distinct masked string once (49.1/row when profiling
/// re-interned a copy of them; 49.8/row with a second, sorted value pool;
/// ≈268/row after the first hot-path overhaul); regressions past 2× that
/// are structural.
const ALLOCS_PER_ROW_BUDGET: f64 = 100.0;

#[test]
fn e2e_clean_stays_under_alloc_budget() {
    let table = sample_noisy_table(42, 120);
    let dv = DataVinci::new();

    // Warm run: gazetteers, semantic memos, and any lazily-built statics
    // allocate once and are excluded from the measured run.
    let warm = dv.clean_column(&table, 2);

    let before = alloc_meter::alloc_count();
    let report = dv.clean_column(&table, 2);
    let allocs = alloc_meter::alloc_count() - before;
    let per_row = allocs as f64 / table.n_rows() as f64;

    assert_eq!(
        format!("{warm:#?}"),
        format!("{report:#?}"),
        "warm and measured cleans must agree"
    );
    eprintln!(
        "e2e clean of {} rows: {allocs} allocations ({per_row:.1}/row, budget {ALLOCS_PER_ROW_BUDGET}/row)",
        table.n_rows()
    );
    assert!(
        per_row < ALLOCS_PER_ROW_BUDGET,
        "allocation regression: {per_row:.1} allocs/row exceeds the {ALLOCS_PER_ROW_BUDGET}/row budget"
    );
}
