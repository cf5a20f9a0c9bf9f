//! Counter gate for the semantic abstraction's response parsing.
//!
//! `SemanticAbstractor::abstract_column` parses each distinct model
//! response line once, so the `mask.lines_parsed` counter of a column's
//! analysis must equal the number of distinct lines the model answered
//! (a row without a line counts its own value as its line). Repeating
//! every row of a table four times repeats the answers, so the count must
//! not move either: it follows distinct lines, not rows or prompt batches.

use std::collections::HashSet;

use datavinci_bench::sample_noisy_table;
use datavinci_core::DataVinci;
use datavinci_semantic::prompt::build_prompts;
use datavinci_semantic::{GazetteerLlm, LanguageModel, SemanticAbstractor};
use datavinci_table::{Column, Table};
use datavinci_telemetry as telemetry;

/// `table` with its rows repeated `times` times, every column re-parsed
/// from its rendered values.
fn repeated(table: &Table, times: usize) -> Table {
    Table::new(
        (0..table.n_cols())
            .map(|col| {
                let column = table.column(col).expect("in range");
                let rendered = column.rendered();
                let rows: Vec<&str> = (0..times)
                    .flat_map(|_| rendered.iter().map(String::as_str))
                    .collect();
                Column::parse(column.name(), &rows)
            })
            .collect(),
    )
}

/// `mask.lines_parsed` of one column analysis.
fn lines_parsed(dv: &DataVinci, table: &Table, col: usize) -> u64 {
    let (_, profile) = telemetry::collect(true, || dv.analyze_column(table, col));
    let metrics = profile.expect("collecting").metrics;
    metrics
        .counters
        .get("mask.lines_parsed")
        .copied()
        .unwrap_or(0)
}

/// Distinct response lines the model answers for the column's prompts,
/// and the number of prompts.
fn distinct_response_lines(dv: &DataVinci, table: &Table, col: usize) -> (u64, usize) {
    let abstractor = SemanticAbstractor::new(GazetteerLlm::new());
    let values = dv.session(table).column_values(col);
    let header = table.column(col).expect("in range").name();
    let batches = build_prompts(header, &values, abstractor.mask_types());
    let mut lines: HashSet<String> = HashSet::new();
    for batch in &batches {
        let response = abstractor.model().complete(&batch.prompt);
        let mut answered = response.lines();
        for &row in &batch.rows {
            lines.insert(answered.next().unwrap_or(&values[row]).to_string());
        }
    }
    (lines.len() as u64, batches.len())
}

#[test]
fn lines_parsed_counts_distinct_response_lines_not_rows() {
    let dv = DataVinci::new();
    let once = repeated(&sample_noisy_table(42, 120), 1);
    let four = repeated(&once, 4);
    let mut multi_batch = false;
    for col in 0..once.n_cols() {
        let (lines, batches) = distinct_response_lines(&dv, &once, col);
        assert_eq!(batches, 1, "column {col} must fit one prompt");
        let parsed = lines_parsed(&dv, &once, col);
        assert_eq!(parsed, lines, "column {col}");

        let (four_lines, four_batches) = distinct_response_lines(&dv, &four, col);
        multi_batch |= four_batches > 1;
        let four_parsed = lines_parsed(&dv, &four, col);
        assert_eq!(four_parsed, four_lines, "column {col}, rows ×4");
        assert_eq!(
            four_parsed, parsed,
            "column {col}: ×4 rows parsed more lines"
        );
        eprintln!("column {col}: {parsed} lines parsed; ×4 rows over {four_batches} prompts");
    }
    assert!(multi_batch, "the ×4 table should span several prompts");
}
