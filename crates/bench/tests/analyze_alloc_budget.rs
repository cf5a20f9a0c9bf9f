//! Allocation gate for one masked column analysis.
//!
//! `DataVinci::analyze_column` (semantic abstraction, pattern profiling and
//! detection) of the 2000-row noisy table's `Player ID` column, whose
//! country codes the semantic layer masks. The column is analyzed once to
//! warm lazily-built state (gazetteer, mask memo), then a second identical
//! analysis is metered.
//!
//! Allocation counts do not flake the way wall time does. The budget is
//! about twice the measured figure, so it trips on structural regressions
//! — a per-row parse or copy of masked values coming back — not on jitter.
//! This file holds exactly one test: a second concurrent test would
//! pollute the global counter.

use datavinci_bench::{alloc_meter, sample_noisy_table};
use datavinci_core::DataVinci;

#[global_allocator]
static ALLOC: alloc_meter::MeteredAlloc = alloc_meter::MeteredAlloc;

/// Committed budget: allocations per row of one analysis. Measured 31.0/row
/// with the abstraction parsed once per distinct response line and owning
/// each distinct masked string once (31.7/row when profiling cloned them
/// into a pool of its own; 33.5/row with a second value pool; 50.3/row when
/// every row was parsed, cloned and re-interned).
const ALLOCS_PER_ROW_BUDGET: f64 = 70.0;

#[test]
fn masked_column_analysis_stays_under_alloc_budget() {
    let table = sample_noisy_table(42, 2000);
    let col = table
        .headers()
        .iter()
        .position(|h| *h == "Player ID")
        .expect("Player ID column");
    let dv = DataVinci::new();
    let warm = dv.analyze_column(&table, col);
    assert!(warm.abstraction.has_masks(), "the column must be masked");

    let before = alloc_meter::alloc_count();
    let analysis = dv.analyze_column(&table, col);
    let allocs = alloc_meter::alloc_count() - before;
    let per_row = allocs as f64 / table.n_rows() as f64;

    assert_eq!(analysis.error_rows, warm.error_rows);
    eprintln!(
        "analysis of {} rows: {allocs} allocations ({per_row:.1}/row, budget {ALLOCS_PER_ROW_BUDGET}/row)",
        table.n_rows()
    );
    assert!(
        per_row < ALLOCS_PER_ROW_BUDGET,
        "allocation regression: {per_row:.1} allocs/row exceeds the {ALLOCS_PER_ROW_BUDGET}/row budget"
    );
}
