//! Integration tests for the semantic abstraction layer (paper §3.2):
//! prompt round-trips, masking granularity, form normalization, and the
//! abstraction-dependent behaviours of the full pipeline.

use datavinci::prelude::*;
use datavinci::semantic::{
    detect_column_type, Gazetteer, GazetteerLlm, LanguageModel, SemanticAbstractor, SemanticType,
};

fn abstract_col(values: &[&str]) -> datavinci::semantic::AbstractedColumn {
    let a = SemanticAbstractor::new(GazetteerLlm::new());
    a.abstract_column(
        "col",
        &values.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    )
}

/// §3.2: masking happens at the granularity of the predefined types — a
/// composite value is never masked wholesale.
#[test]
fn quarters_are_never_masked_wholesale() {
    let c = abstract_col(&["Q4-2002", "Q3-2002", "Q32001"]);
    assert!(!c.has_masks());
    assert_eq!(c.n_rows(), 3);
    for row in 0..c.n_rows() {
        assert!(c.occurrences(row).is_empty());
    }
}

/// Figure 3's second example: dotted abbreviations repair inside the mask.
#[test]
fn dotted_country_normalizes_to_column_form() {
    let c = abstract_col(&["US-1", "u.k.-392", "DE-7", "FR-9"]);
    let occ = c.occurrences(1);
    assert_eq!(occ.len(), 1);
    assert_eq!(occ[0].semantic_type, SemanticType::Country);
    assert_eq!(occ[0].suggestion, "GB"); // ISO-2 column majority
}

/// Whole-column context: a type mentioned by only one value is not masked.
#[test]
fn low_support_types_stay_literal() {
    let c = abstract_col(&["x-1", "y-2", "Boston", "z-4", "w-5", "v-6"]);
    assert!(!c.has_masks());
}

/// The mock LLM honours the exact prompt protocol: one output line per
/// input value, in order.
#[test]
fn llm_respects_prompt_protocol() {
    use datavinci::semantic::prompt::{build_prompts, parse_prompt_values};
    let llm = GazetteerLlm::new();
    let values: Vec<String> = (0..50)
        .map(|i| format!("{}-{}", if i % 2 == 0 { "US" } else { "FR" }, i))
        .collect();
    let mask_types = vec![SemanticType::Country];
    let batches = build_prompts("Code", &values, &mask_types);
    for batch in batches {
        let echoed = parse_prompt_values(&batch.prompt);
        let response = llm.complete(&batch.prompt);
        assert_eq!(response.lines().count(), echoed.len());
    }
}

/// Delimiter corruption inside an entity is recovered by the whole-value
/// strategy (`Flo_rida → Florida`) and drives an exact pipeline repair.
#[test]
fn delimiter_split_entity_repaired_end_to_end() {
    let table = Table::new(vec![Column::from_texts(
        "State",
        &["Texas", "Oregon", "Kansas", "Flo_rida", "Maine"],
    )]);
    let dv = DataVinci::new();
    let report = dv.clean_column(&table, 0);
    let fix = report.repairs.iter().find(|r| r.original == "Flo_rida");
    assert_eq!(
        fix.map(|r| r.repaired.as_str()),
        Some("Florida"),
        "{report:#?}"
    );
}

/// Visual typos inside an entity (`Rh0de Island`) are recovered too.
#[test]
fn visual_typo_entity_repaired_end_to_end() {
    let table = Table::new(vec![Column::from_texts(
        "State",
        &["Texas", "Oregon", "Rh0de Island", "Kansas", "Maine"],
    )]);
    let dv = DataVinci::new();
    let report = dv.clean_column(&table, 0);
    let fix = report.repairs.iter().find(|r| r.original == "Rh0de Island");
    assert_eq!(
        fix.map(|r| r.repaired.as_str()),
        Some("Rhode Island"),
        "{report:#?}"
    );
}

/// Sherlock-sim agrees with the gazetteer across a spread of column types.
#[test]
fn type_detection_across_flavors() {
    let gaz = Gazetteer::new();
    let cases: Vec<(Vec<&str>, Option<SemanticType>)> = vec![
        (vec!["Boston", "Miami", "Denver"], Some(SemanticType::City)),
        (
            vec!["red", "blue", "green", "navy"],
            Some(SemanticType::Color),
        ),
        (vec!["Jan", "Feb", "Mar", "Apr"], Some(SemanticType::Month)),
        (vec!["Q1-22", "Q2-22"], None),
        (vec!["1024", "2048"], None),
    ];
    for (values, expected) in cases {
        let vals: Vec<String> = values.iter().map(|s| s.to_string()).collect();
        let got = detect_column_type(&vals, &gaz, 0.5).map(|d| d.semantic_type);
        assert_eq!(got, expected, "{values:?}");
    }
}

/// The Limited ablation re-uses original substrings: `usa` stays `usa`.
#[test]
fn limited_mode_never_repairs_in_mask() {
    use datavinci::core::{DataVinciConfig, SemanticMode};
    let table = Table::new(vec![Column::from_texts(
        "Country",
        &["US-1", "FR-2", "usa-3", "DE-4"],
    )]);
    let limited = DataVinci::with_config(DataVinciConfig {
        semantics: SemanticMode::Limited,
        ..Default::default()
    });
    let report = limited.clean_column(&table, 0);
    // No in-mask repair → `usa` never normalizes to US in Limited mode.
    assert!(
        report.repairs.iter().all(|r| r.repaired != "US-3"),
        "{report:#?}"
    );

    let full = DataVinci::new();
    let report = full.clean_column(&table, 0);
    assert!(
        report.repairs.iter().any(|r| r.repaired == "US-3"),
        "{report:#?}"
    );
}
