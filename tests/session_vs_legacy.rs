//! Differential suite: the table-scoped `AnalysisSession` must be
//! byte-identical to the pre-session "regenerate per repair" path.
//!
//! `DataVinci::clean_table` now runs every column through one shared
//! session (one rendered matrix, one `FeatureSet`, shared row feature
//! vectors, weighted dtree induction over distinct rows). The oracle is the
//! per-column loop over `clean_column`, which opens a fresh throwaway
//! session per column — exactly the pre-session cost model, where every
//! column repair regenerated its own table context. Every comparison
//! formats both [`datavinci::core::TableReport`]s (patterns, detections,
//! repairs, every ranked candidate with its score) and requires exact
//! equality — across the corpus benchmarks, every ablation, and a
//! duplicate-heavy generated sweep.
//!
//! Also here: the acceptance assertions that `FeatureSet::generate` runs at
//! most once per table per clean, and the proptest that weighted decision
//! tree induction equals row-expanded induction.

use proptest::prelude::*;

use datavinci::core::{learn_weighted, DataVinci, DataVinciConfig, DtreeConfig, TableReport};
use datavinci::corpus::{
    duplicate_rows, excel_like, synthetic_errors, wikipedia_like, Flavor, NoiseModel, Scale,
    TableSpec,
};
use datavinci::table::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The pre-session oracle: every column cleaned through its own throwaway
/// session, so each column repair regenerates the whole table context.
fn clean_table_legacy(dv: &DataVinci, table: &Table) -> TableReport {
    let mut report = TableReport::default();
    for col in 0..table.n_cols() {
        let column = table.column(col).expect("in range");
        if column.text_fraction() < dv.config().min_text_fraction {
            continue;
        }
        report.columns.push(dv.clean_column(table, col));
    }
    report
}

/// Compares session-shared vs regenerate-per-column cleans of `table`,
/// returning the number of cleaned columns (comparison cases).
fn assert_identical(table: &Table, cfg: &DataVinciConfig, context: &str) -> usize {
    let dv = DataVinci::with_config(cfg.clone());
    let session = dv.session(table);
    let shared = dv.clean_table_in(&session);
    let legacy = clean_table_legacy(&dv, table);
    assert_eq!(
        format!("{shared:#?}"),
        format!("{legacy:#?}"),
        "session path diverged from regenerate-per-repair oracle: {context}"
    );
    let stats = session.stats();
    assert!(
        stats.feature_generations <= 1,
        "{context}: FeatureSet generated {} times in one table clean",
        stats.feature_generations
    );
    shared.columns.len()
}

#[test]
fn corpus_benchmarks_are_identical() {
    let scale = Scale::smoke();
    let mut cases = 0usize;
    for (name, bench) in [
        ("wikipedia", wikipedia_like(81, scale)),
        ("excel", excel_like(82, scale)),
        ("synthetic", synthetic_errors(83, scale)),
    ] {
        for (i, t) in bench.tables.iter().enumerate() {
            cases += assert_identical(
                &t.dirty,
                &DataVinciConfig::default(),
                &format!("{name} table {i}"),
            );
        }
    }
    assert!(cases >= 60, "expected a broad corpus sweep, got {cases}");
}

#[test]
fn ablation_configs_are_identical() {
    // Every ablation cleans the same duplicate-heavy multi-column table
    // both ways: the session must not depend on any default switch.
    let mut rng = StdRng::seed_from_u64(177);
    let spec = TableSpec::new(
        60,
        vec![
            Flavor::PlayerWithCategory,
            Flavor::Quarter,
            Flavor::City,
            Flavor::Color,
        ],
    );
    let clean = spec.generate(&mut rng);
    let noise = NoiseModel { cell_prob: 0.2 };
    let (dirty, _) = noise.corrupt_table(&mut rng, &clean);
    let table = duplicate_rows(&mut rng, &dirty, 0.8);
    for (name, cfg) in [
        ("default", DataVinciConfig::default()),
        ("no semantics", DataVinciConfig::ablation_no_semantics()),
        (
            "limited semantics",
            DataVinciConfig::ablation_limited_semantics(),
        ),
        (
            "enumerated concretization",
            DataVinciConfig::ablation_no_learned_concretization(),
        ),
        (
            "edit distance ranking",
            DataVinciConfig::ablation_edit_distance_ranking(),
        ),
        (
            "starved delta",
            DataVinciConfig {
                delta: 0.95,
                ..DataVinciConfig::default()
            },
        ),
    ] {
        assert_identical(&table, &cfg, name);
    }
}

#[test]
fn generated_duplicate_sweep_is_identical() {
    // Multi-column tables across duplication regimes, seeded
    // deterministically.
    let flavor_pool = [
        vec![Flavor::Quarter, Flavor::PrefixedId],
        vec![Flavor::PlayerWithCategory, Flavor::City],
        vec![Flavor::CountryCode, Flavor::Color, Flavor::ProductCode],
        vec![Flavor::Rating, Flavor::Status, Flavor::Quarter],
    ];
    let mut rng = StdRng::seed_from_u64(9119);
    let mut cases = 0usize;
    for i in 0..48 {
        let flavors = flavor_pool[i % flavor_pool.len()].clone();
        let rows = 10 + (i % 4) * 6;
        let duplication = [0.0, 0.5, 0.9][i % 3];
        let spec = TableSpec::new(rows, flavors);
        let clean = spec.generate(&mut rng);
        let noise = NoiseModel {
            cell_prob: [0.1, 0.3][(i / 3) % 2],
        };
        let (dirty, _) = noise.corrupt_table(&mut rng, &clean);
        let table = if duplication > 0.0 {
            duplicate_rows(&mut rng, &dirty, duplication)
        } else {
            dirty
        };
        cases += assert_identical(
            &table,
            &DataVinciConfig::default(),
            &format!("sweep case {i} (dup {duplication})"),
        );
    }
    assert!(cases >= 60, "expected ≥60 sweep columns, got {cases}");
}

#[test]
fn feature_set_generates_at_most_once_per_table_clean() {
    // A table whose *three* textual columns all carry repairable errors:
    // the pre-session pipeline generated one FeatureSet per column repair
    // (three total); the session must generate exactly one and share it.
    let table = Table::new(vec![
        datavinci::table::Column::from_texts(
            "Category",
            &[
                "Professional",
                "Professional",
                "Qualifier",
                "Professional",
                "Qualifier",
                "Professional",
            ],
        ),
        datavinci::table::Column::from_texts(
            "Player ID",
            &[
                "IN-674-PRO",
                "usa_837",
                "US-201-QUA",
                "DZ-173-PRO",
                "CN-924-QUA",
                "FR-475-PRO",
            ],
        ),
        // A second hole-bearing column (repairing "EE" must insert the
        // (PRO|QUA) disjunction, which reads row features), so the oracle
        // demonstrably generates one FeatureSet per repaired column.
        datavinci::table::Column::from_texts(
            "Ref",
            &["AA-PRO", "BB-QUA", "CC-QUA", "DD-PRO", "EE", "FF-PRO"],
        ),
    ]);
    let dv = DataVinci::new();
    let session = dv.session(&table);
    let report = dv.clean_table_in(&session);
    let repaired_columns = report
        .columns
        .iter()
        .filter(|c| !c.repairs.is_empty())
        .count();
    assert!(
        repaired_columns >= 2,
        "workload must repair multiple columns, got {repaired_columns}"
    );
    let stats = session.stats();
    assert_eq!(
        stats.feature_generations, 1,
        "FeatureSet must be generated exactly once per table clean: {stats:?}"
    );
    // The row interner covered the table.
    assert_eq!(stats.table_rows, 6);

    // The throwaway-session oracle generates once per *cleaned column* —
    // the duplicated work the session removes.
    let mut legacy_generations = 0;
    for c in &report.columns {
        let per_column = dv.session(&table);
        let _ = dv.clean_column_in(&per_column, c.col);
        legacy_generations += per_column.stats().feature_generations;
    }
    assert!(
        legacy_generations > 1,
        "oracle should regenerate per column, got {legacy_generations}"
    );
}

#[test]
fn exec_guided_and_analysis_reuse_stay_identical() {
    // The exec-guided path and analyze/repair splits ride the same session
    // plumbing; spot-check the flagship examples still behave.
    use datavinci::formula::ColumnProgram;
    let table = Table::new(vec![datavinci::table::Column::from_texts(
        "col1",
        &["c-1", "c-2", "c3", "c4"],
    )]);
    let program = ColumnProgram::parse("=SEARCH(\"-\", [@col1])").unwrap();
    let dv = DataVinci::new();
    let report = dv.clean_with_program(&table, &program);
    assert!(report.fully_repaired(), "{report:#?}");

    // analyze once, repair through two different sessions: identical.
    let session = dv.session(&table);
    let analysis = dv.analyze_column_in(&session, 0);
    let a = dv.repair_analysis_in(&session, &analysis);
    let b = dv.repair_analysis(&table, &analysis);
    assert_eq!(format!("{a:#?}"), format!("{b:#?}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Weighted dtree induction over distinct (vector, label) pairs equals
    /// induction over the row-wise expansion (every example at weight 1),
    /// for arbitrary boolean matrices, label assignments, and
    /// multiplicities.
    #[test]
    fn weighted_dtree_equals_row_expanded(
        distinct in prop::collection::vec(
            (
                prop::collection::vec(prop_oneof![Just(false), Just(true)], 3),
                0u32..4,
                1usize..5,
            ),
            1..8,
        ),
        alpha in prop_oneof![Just(0.5), Just(0.8), Just(1.0)],
    ) {
        let cfg = DtreeConfig { alpha, ..DtreeConfig::default() };
        let rows: Vec<&[bool]> = distinct.iter().map(|(r, _, _)| r.as_slice()).collect();
        let labels: Vec<u32> = distinct.iter().map(|&(_, l, _)| l).collect();
        let weights: Vec<usize> = distinct.iter().map(|&(_, _, w)| w).collect();

        let mut expanded_rows: Vec<&[bool]> = Vec::new();
        let mut expanded_labels: Vec<u32> = Vec::new();
        for ((&r, &l), &w) in rows.iter().zip(&labels).zip(&weights) {
            for _ in 0..w {
                expanded_rows.push(r);
                expanded_labels.push(l);
            }
        }
        let unit = vec![1usize; expanded_rows.len()];
        prop_assert_eq!(
            learn_weighted(&rows, &labels, &weights, &cfg),
            learn_weighted(&expanded_rows, &expanded_labels, &unit, &cfg)
        );
    }

    /// Session row interning never changes a clean: a one-column table with
    /// duplicated rows cleans identically through a shared session and the
    /// per-column oracle (tiny fuzz over values and duplication).
    #[test]
    fn fuzzed_single_columns_are_identical(
        base in prop::collection::vec("[a-c]{1,2}-[0-9]{1,2}", 4..10),
        dup in 1usize..4,
        errors in prop::collection::vec("[A-Z][0-9]", 0..3),
    ) {
        let mut values: Vec<String> = Vec::new();
        for v in &base {
            for _ in 0..dup {
                values.push(v.clone());
            }
        }
        values.extend(errors.iter().cloned());
        let refs: Vec<&str> = values.iter().map(String::as_str).collect();
        let table = Table::new(vec![datavinci::table::Column::from_texts("c", &refs)]);
        let dv = DataVinci::new();
        let shared = dv.clean_table(&table);
        let legacy = clean_table_legacy(&dv, &table);
        prop_assert_eq!(format!("{shared:#?}"), format!("{legacy:#?}"));
    }
}
