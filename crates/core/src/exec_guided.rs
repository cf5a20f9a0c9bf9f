//! Execution-guided repair (paper §3.6).
//!
//! Given a column-transformation program that reads the table, DataVinci:
//! 1. executes it and partitions rows into successes and failures;
//! 2. learns patterns over the *success* inputs only and treats **all** of
//!    them as significant (bypassing the δ threshold);
//! 3. flags the failing rows' inputs as data errors and repairs them with
//!    the ordinary engine;
//! 4. (ours, configurable) validates candidates by re-executing the program
//!    on the repaired row and prefers the first that succeeds.
//!
//! This recovers repairs the unsupervised mode cannot see — e.g. Figure 8,
//! where the erroneous shape `C[0-9]{2}` is frequent enough to be a
//! significant pattern on its own.

use std::collections::HashMap;

use crate::pipeline::{ColumnAnalysis, ColumnReport, DataVinci};
use crate::session::AnalysisSession;
use datavinci_formula::{ColumnProgram, ExecutionGroups};
use datavinci_profile::profile_column;
use datavinci_regex::MaskedString;
use datavinci_table::{CellRef, CellValue, Table};

/// The result of one execution-guided cleaning run.
#[derive(Debug, Clone)]
pub struct ExecGuidedReport {
    /// Per-input-column reports.
    pub columns: Vec<ColumnReport>,
    /// Execution outcome before any repair.
    pub before: ExecutionGroups,
    /// Execution outcome after applying the chosen repairs.
    pub after: ExecutionGroups,
    /// The table with repairs applied.
    pub repaired_table: Table,
}

impl ExecGuidedReport {
    /// Did repairs make the whole formula column execute cleanly?
    pub fn fully_repaired(&self) -> bool {
        self.after.fully_successful()
    }
}

impl DataVinci {
    /// Cleans every input column of `program`, guided by its execution.
    ///
    /// One [`AnalysisSession`] over the *original* table is shared by every
    /// input column: the exec-guided repairs concretize against the same
    /// once-generated feature context the unsupervised path uses.
    pub fn clean_with_program(&self, table: &Table, program: &ColumnProgram) -> ExecGuidedReport {
        let _span = datavinci_telemetry::span(datavinci_telemetry::stages::VALIDATE);
        let before = program.execution_groups(table);
        let mut repaired_table = table.clone();
        let mut columns = Vec::new();
        let session = self.session(table);

        if !before.failures.is_empty() {
            for name in program.input_columns() {
                let Some(col) = table.column_index(name) else {
                    continue;
                };
                let analysis = self.analyze_with_execution(&session, col, &before);
                let mut report = self.repair_analysis_in(&session, &analysis);

                // Validate-by-execution: for each suggestion, walk candidates
                // best-first and keep the first whose repaired row executes.
                //
                // Execution is row-local, so one probe table (cell swapped
                // in, then restored) plus `execute_row` replaces the old
                // whole-table clone-and-execute per candidate — and the
                // verdict is a pure function of the candidate value and the
                // row's *other* input cells, so duplicate error values
                // re-evaluate only once per distinct sibling context.
                if self.config().validate_execution {
                    let other_inputs: Vec<usize> = program
                        .input_columns()
                        .iter()
                        .filter_map(|name| table.column_index(name))
                        .filter(|&c| c != col)
                        .collect();
                    let mut probe = repaired_table.clone();
                    let mut verdicts: HashMap<(String, String), bool> = HashMap::new();
                    for suggestion in &mut report.repairs {
                        let row = suggestion.row;
                        // The sibling-input context key. Debug rendering
                        // keeps value *kinds* distinct (text "3" vs the
                        // number 3 evaluate differently).
                        let context = other_inputs
                            .iter()
                            .map(|&c| format!("{:?}\u{1f}", probe.cell(CellRef::new(c, row))))
                            .collect::<String>();
                        let cell = CellRef::new(col, row);
                        let original_cell = probe.cell(cell).expect("error row in range").clone();
                        let mut chosen: Option<String> = None;
                        for cand in &suggestion.candidates {
                            let key = (cand.repaired.clone(), context.clone());
                            let ok = match verdicts.get(&key) {
                                Some(&ok) => ok,
                                None => {
                                    probe.set_cell(cell, CellValue::text(cand.repaired.clone()));
                                    let ok = !program.execute_row(&probe, row).is_error();
                                    verdicts.insert(key, ok);
                                    ok
                                }
                            };
                            if ok {
                                chosen = Some(cand.repaired.clone());
                                break;
                            }
                        }
                        probe.set_cell(cell, original_cell);
                        if let Some(best) = chosen {
                            suggestion.repaired = best;
                        }
                    }
                }

                // Apply suggestions.
                for suggestion in &report.repairs {
                    repaired_table.set_cell(
                        CellRef::new(col, suggestion.row),
                        CellValue::text(suggestion.repaired.clone()),
                    );
                }
                columns.push(report);
            }
        }

        let after = program.execution_groups(&repaired_table);
        ExecGuidedReport {
            columns,
            before,
            after,
            repaired_table,
        }
    }

    /// Builds a column analysis whose patterns come from the execution's
    /// success group only, all treated as significant.
    fn analyze_with_execution(
        &self,
        session: &AnalysisSession<'_>,
        col: usize,
        groups: &ExecutionGroups,
    ) -> ColumnAnalysis {
        let table = session.table();
        let column = table.column(col).expect("column in range");
        let values = session.column_values(col);

        let abstraction = self.abstract_values(column.name(), &values);
        let masked = abstraction.masked_pool();

        // Learn patterns over success inputs only.
        let success_masked: Vec<MaskedString> = groups
            .successes
            .iter()
            .map(|&r| masked.value(r).clone())
            .collect();
        let mut profile = profile_column(&success_masked, &self.config().profiler);
        // Re-evaluate each pattern's rows against the FULL column so row
        // indices and coverage line up with the table.
        let n = masked.n_rows();
        for lp in &mut profile.patterns {
            let hits = lp.compiled.matches_many(masked.distinct_values());
            lp.rows = (0..n).filter(|&r| hits[masked.distinct_index(r)]).collect();
            lp.coverage = if n == 0 {
                0.0
            } else {
                lp.rows.len() as f64 / n as f64
            };
        }
        profile.n_values = n;

        // All learned patterns are significant (paper §3.6).
        let significant: Vec<usize> = (0..profile.patterns.len()).collect();
        let error_rows = groups.failures.clone();

        ColumnAnalysis {
            col,
            values,
            abstraction,
            profile,
            significant,
            error_rows,
            semantic_only_rows: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datavinci_table::Column;

    #[test]
    fn intro_example_c_dash() {
        // §1: col1 = [c-1, c-2, c3, c4] with =SEARCH("-", [@col1]).
        // Unsupervised DataVinci sees two significant patterns and fixes
        // nothing; execution guidance repairs c3 → c-3, c4 → c-4.
        let table = Table::new(vec![Column::from_texts(
            "col1",
            &["c-1", "c-2", "c3", "c4"],
        )]);
        let program = ColumnProgram::parse("=SEARCH(\"-\", [@col1])").unwrap();
        let dv = DataVinci::new();

        // Unsupervised: no errors.
        let unsup = dv.clean_column(&table, 0);
        assert!(unsup.detections.is_empty(), "{unsup:#?}");

        // Execution-guided: both failures repaired.
        let report = dv.clean_with_program(&table, &program);
        assert_eq!(report.before.failures, vec![2, 3]);
        assert!(report.fully_repaired(), "{report:#?}");
        let repaired: Vec<String> = report.repaired_table.column(0).unwrap().rendered();
        assert_eq!(repaired, vec!["c-1", "c-2", "c-3", "c-4"]);
    }

    #[test]
    fn figure8_exec_guided_beats_unsupervised() {
        // Figure 8: the outlier shape C[0-9]{2} is frequent enough to be
        // significant, so only execution guidance can see it. The formula
        // extracts the digits after "C-".
        let table = Table::new(vec![Column::from_texts(
            "ID",
            &["C-19", "C-21", "C-33", "C-48", "C-55", "C51", "C52", "C53"],
        )]);
        let program = ColumnProgram::parse("=MID([@ID], SEARCH(\"-\", [@ID])+1, 2)*1").unwrap();
        let dv = DataVinci::new();

        let unsup = dv.clean_column(&table, 0);
        assert!(unsup.detections.is_empty(), "unsupervised must miss these");

        let report = dv.clean_with_program(&table, &program);
        assert_eq!(report.before.failures.len(), 3);
        assert!(report.fully_repaired(), "{report:#?}");
        let repaired: Vec<String> = report.repaired_table.column(0).unwrap().rendered();
        assert_eq!(&repaired[5..], &["C-51", "C-52", "C-53"]);
    }

    #[test]
    fn no_failures_no_changes() {
        let table = Table::new(vec![Column::from_texts("x", &["a-1", "b-2"])]);
        let program = ColumnProgram::parse("=SEARCH(\"-\", [@x])").unwrap();
        let dv = DataVinci::new();
        let report = dv.clean_with_program(&table, &program);
        assert!(report.before.fully_successful());
        assert!(report.columns.is_empty());
        assert_eq!(report.repaired_table, table);
    }

    #[test]
    fn multi_column_formula_repairs_both_inputs() {
        let table = Table::new(vec![
            Column::from_texts("a", &["x-1", "x-2", "x3", "x-4"]),
            Column::from_texts("b", &["10", "20", "30", "4o"]),
        ]);
        // Needs '-' in a and a numeric b.
        let program = ColumnProgram::parse("=SEARCH(\"-\", [@a]) + VALUE([@b])").unwrap();
        let dv = DataVinci::new();
        let report = dv.clean_with_program(&table, &program);
        assert_eq!(report.before.failures, vec![2, 3]);
        assert!(report.fully_repaired(), "{report:#?}");
        let a: Vec<String> = report.repaired_table.column(0).unwrap().rendered();
        let b: Vec<String> = report.repaired_table.column(1).unwrap().rendered();
        assert_eq!(a[2], "x-3");
        assert_eq!(b[3], "40");
    }
}
