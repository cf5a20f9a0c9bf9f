//! Exact gates on the feature store's `features.predicate_evals` counter.
//!
//! The session evaluates each predicate once per distinct `(kind, value)`
//! of the column it reads, never once per row, so the counter depends on
//! a table's distinct column values, not on its row count:
//!
//! - building the store for a table and for the same table with every row
//!   repeated 4× records the same count;
//! - on the 2k-row table shapes of `merge_ladder.rs` (the benchmark's
//!   `large_cold` flavor mix with 2% cell noise), the count is at most
//!   Σ over columns of (distinct `(kind, value)` cells) × (candidate
//!   predicates generated for the column).

use std::collections::HashSet;

use datavinci_core::features::split_tokens;
use datavinci_core::AnalysisSession;
use datavinci_corpus::{random_spec, NoiseModel, TableSpec};
use datavinci_table::{CellValue, Column, Table};
use datavinci_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;

const TABLES: usize = 4;
const ROWS: usize = 2000;

/// Generated dirty tables of `ROWS` rows, seeded like `merge_ladder.rs`.
fn tables() -> Vec<Table> {
    let mut shapes = StdRng::seed_from_u64(7);
    let mut rng = StdRng::seed_from_u64(1);
    (0..TABLES)
        .map(|_| {
            let shape = random_spec(&mut shapes, 3.0, ROWS as f64);
            let clean = TableSpec::new(ROWS, shape.flavors).generate(&mut rng);
            NoiseModel { cell_prob: 0.02 }
                .corrupt_table(&mut rng, &clean)
                .0
        })
        .collect()
}

/// `features.predicate_evals` recorded while a fresh session builds its
/// feature store for `table`.
fn predicate_evals(table: &Table) -> u64 {
    let (_, recorded) = telemetry::collect(true, || {
        let session = AnalysisSession::new(table);
        session.features().len()
    });
    recorded.expect("telemetry enabled").metrics.counters["features.predicate_evals"]
}

/// Σ over columns of distinct `(kind, value)` cells × candidate predicates:
/// four string templates per constant (at most 24 distinct cell texts and
/// split tokens), a `length` per distinct length (at most 5), and the six
/// constant-free templates.
fn per_value_bound(table: &Table) -> u64 {
    table
        .columns()
        .iter()
        .map(|column| {
            let values: HashSet<(std::mem::Discriminant<CellValue>, String)> = column
                .values()
                .iter()
                .map(|v| (std::mem::discriminant(v), v.render()))
                .collect();
            let mut constants: HashSet<String> = HashSet::new();
            let mut lengths: HashSet<usize> = HashSet::new();
            for (_, text) in &values {
                lengths.insert(text.chars().count());
                if !text.is_empty() {
                    constants.insert(text.clone());
                }
                constants.extend(split_tokens(text));
            }
            let candidates = 4 * constants.len().min(24) + lengths.len().min(5) + 6;
            (values.len() * candidates) as u64
        })
        .sum()
}

#[test]
fn predicate_evals_do_not_grow_with_repeated_rows() {
    for table in tables() {
        let repeated = Table::new(
            table
                .columns()
                .iter()
                .map(|c| {
                    let values = c
                        .values()
                        .iter()
                        .flat_map(|v| std::iter::repeat_n(v.clone(), 4))
                        .collect();
                    Column::new(c.name(), values)
                })
                .collect(),
        );
        let once = predicate_evals(&table);
        assert!(once > 0, "the store evaluated nothing");
        assert_eq!(predicate_evals(&repeated), once);
    }
}

#[test]
fn predicate_evals_stay_within_distinct_values_times_candidates() {
    let (mut evals, mut bound, mut cells) = (0, 0, 0);
    for table in tables() {
        let (e, b) = (predicate_evals(&table), per_value_bound(&table));
        assert!(e <= b, "{e} predicate evaluations > bound {b}");
        evals += e;
        bound += b;
        cells += table.n_rows() * table.n_cols();
    }
    eprintln!("{TABLES} tables, {cells} cells: {evals} predicate evaluations, bound {bound}");
}
