//! The end-to-end DataVinci pipeline (paper Figure 2):
//! abstraction ⓪→ significant patterns ① → outlier detection ② →
//! edit programs ③ → value constraints ④ → candidate repairs ⑤ →
//! heuristic ranking ⑥.
//!
//! All table-scoped state — the rendered table, the generated
//! [`crate::FeatureSet`] and its feature store, per-column rendered values,
//! and the semantic memos — lives on an [`AnalysisSession`] created once per
//! table clean and shared by every column (see [`DataVinci::clean_table`]).
//! The table-taking entry points remain as thin wrappers that open a
//! fresh session per call; they double as the "regenerate per repair"
//! oracle the session paths are differentially tested against.

use std::sync::Arc;

use crate::concretize::Concretizer;
use crate::config::{DataVinciConfig, RankingMode, SemanticMode};
use crate::ranker::{CandidateProperties, ClosestValues};
use crate::repair_dp::minimal_edit_program;
use crate::session::AnalysisSession;
use crate::system::{CleaningSystem, Detection, RepairCandidate, RepairSuggestion};
use datavinci_profile::{profile_column_pooled, rescore_profile_pooled, ColumnProfile, MaskedPool};
use datavinci_regex::MaskedString;
use datavinci_semantic::{AbstractedColumn, GazetteerLlm, GazetteerLlmConfig, SemanticAbstractor};
use datavinci_table::Table;
use datavinci_telemetry::{self as telemetry, stages};

/// Everything DataVinci derives about one column before repairing.
///
/// `Clone` so batch engines can cache a finished analysis and replay it
/// against unchanged column content. The rendered values are shared
/// (`Arc`) with the session that produced them, so cloning an analysis
/// never re-renders the column.
#[derive(Debug, Clone)]
pub struct ColumnAnalysis {
    /// The analyzed column index.
    pub col: usize,
    /// Rendered cell values, one per row (rendered once per session).
    pub values: Arc<Vec<String>>,
    /// The semantic abstraction: mask occurrences and defaults per
    /// distinct response line, and the masked pool the profiler learned
    /// from and repair reads.
    pub abstraction: AbstractedColumn,
    /// Learned pattern profile.
    pub profile: ColumnProfile,
    /// Indices (into `profile.patterns`) of significant patterns.
    pub significant: Vec<usize>,
    /// Detected error rows (sorted).
    pub error_rows: Vec<usize>,
    /// Rows flagged purely because the semantic layer normalized their
    /// value (subset of `error_rows`).
    pub semantic_only_rows: Vec<usize>,
}

impl ColumnAnalysis {
    /// Row `row`'s masked value.
    ///
    /// # Panics
    /// When `row` is out of range.
    pub fn masked(&self, row: usize) -> &MaskedString {
        self.abstraction.masked_pool().value(row)
    }

    /// Rendered significant patterns (paper notation).
    pub fn significant_patterns(&self) -> Vec<String> {
        self.significant
            .iter()
            .map(|&i| {
                datavinci_regex::render(
                    &self.profile.patterns[i].pattern,
                    &self.abstraction.alphabet,
                )
            })
            .collect()
    }
}

/// The per-column cleaning report.
#[derive(Debug, Clone)]
pub struct ColumnReport {
    /// Column index.
    pub col: usize,
    /// Number of rows analyzed.
    pub n_rows: usize,
    /// Significant patterns, rendered.
    pub significant_patterns: Vec<String>,
    /// Detected errors.
    pub detections: Vec<Detection>,
    /// Repair suggestions (one per detection with a non-identity repair).
    pub repairs: Vec<RepairSuggestion>,
}

impl ColumnReport {
    /// Fraction of cells flagged as errors (the paper's *fire rate*).
    pub fn fire_rate(&self) -> f64 {
        if self.n_rows == 0 {
            0.0
        } else {
            self.detections.len() as f64 / self.n_rows as f64
        }
    }

    /// An empty report for a skipped column.
    pub fn empty(col: usize, n_rows: usize) -> ColumnReport {
        ColumnReport {
            col,
            n_rows,
            significant_patterns: Vec::new(),
            detections: Vec::new(),
            repairs: Vec::new(),
        }
    }
}

/// A whole-table cleaning report.
#[derive(Debug, Clone, Default)]
pub struct TableReport {
    /// Per-column reports (cleaned columns only).
    pub columns: Vec<ColumnReport>,
}

/// The DataVinci system.
pub struct DataVinci {
    cfg: DataVinciConfig,
    abstractor: SemanticAbstractor<GazetteerLlm>,
}

impl Default for DataVinci {
    fn default() -> Self {
        DataVinci::new()
    }
}

impl DataVinci {
    /// DataVinci with default configuration.
    pub fn new() -> DataVinci {
        DataVinci::with_config(DataVinciConfig::default())
    }

    /// DataVinci with explicit configuration (incl. ablations).
    pub fn with_config(cfg: DataVinciConfig) -> DataVinci {
        let llm_cfg = GazetteerLlmConfig {
            repair_in_mask: cfg.semantics != SemanticMode::Limited,
            mask_cache_capacity: cfg.mask_cache_capacity,
            ..GazetteerLlmConfig::default()
        };
        DataVinci {
            cfg,
            abstractor: SemanticAbstractor::new(GazetteerLlm::with_config(llm_cfg)),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &DataVinciConfig {
        &self.cfg
    }

    /// The semantic abstractor.
    #[cfg(test)]
    pub(crate) fn abstractor_ref(&self) -> &SemanticAbstractor<GazetteerLlm> {
        &self.abstractor
    }

    /// The system's shared semantic mask-cache handle — the cache sessions
    /// opened via [`DataVinci::session`] share. Exposed so callers
    /// reconstructing a [`crate::SessionSnapshot`] from persisted parts can
    /// wire it to the same cache a live session would use.
    pub fn mask_cache(&self) -> Arc<datavinci_semantic::MaskCache> {
        self.abstractor.model().mask_cache_handle()
    }

    /// Opens a table-scoped [`AnalysisSession`] wired to this system's
    /// shared semantic caches. Create one per table clean and pass it to
    /// the `*_in` entry points; every column then shares one rendered
    /// matrix, one [`crate::FeatureSet`], and one set of memos.
    pub fn session<'t>(&self, table: &'t Table) -> AnalysisSession<'t> {
        AnalysisSession::with_mask_cache(table, self.abstractor.model().mask_cache_handle())
    }

    /// Resumes a detached session snapshot onto `table` (the snapshot's
    /// table plus appended rows), falling back to a fresh session wired to
    /// this system's caches when the snapshot does not fit — the streaming
    /// append path's entry point.
    pub fn resume_session<'t>(
        &self,
        snapshot: crate::SessionSnapshot,
        table: &'t Table,
    ) -> AnalysisSession<'t> {
        match AnalysisSession::resume(snapshot, table) {
            Ok(session) => session,
            Err(_) => self.session(table),
        }
    }

    /// Detects the dominant semantic type of column `col` against this
    /// system's gazetteer, through the session's memos: the column's rendered
    /// values are reused and the gazetteer sweep runs at most once per
    /// `(column, threshold)` for the session's lifetime (the CLI's
    /// `--types` report is the primary consumer).
    pub fn column_type_in(
        &self,
        session: &AnalysisSession<'_>,
        col: usize,
        min_confidence: f64,
    ) -> Option<datavinci_semantic::TypeDetection> {
        session.column_type(col, self.abstractor.model().gazetteer(), min_confidence)
    }

    /// Runs abstraction, profiling and detection on one column through a
    /// throwaway single-column session. Prefer [`DataVinci::analyze_column_in`]
    /// when cleaning more than one column of the table.
    pub fn analyze_column(&self, table: &Table, col: usize) -> ColumnAnalysis {
        self.analyze_column_in(&self.session(table), col)
    }

    /// Runs abstraction, profiling and detection on one column, reading all
    /// table-scoped state from the shared session.
    pub fn analyze_column_in(&self, session: &AnalysisSession<'_>, col: usize) -> ColumnAnalysis {
        self.analyze_with(session, col, |masked| {
            profile_column_pooled(masked, &self.cfg.profiler)
        })
    }

    /// Runs abstraction and detection on one column against a shared
    /// session, *reusing* a previously analyzed prior instead of re-learning
    /// patterns from scratch.
    ///
    /// The prior's patterns are re-scored (membership + coverage) against
    /// the current column content, so this is sound whenever the prior
    /// still describes the column language — in particular for unchanged or
    /// append-only column content, which batch engines recognize via
    /// [`datavinci_table::Column::fingerprint`].
    pub fn analyze_column_appended_in(
        &self,
        session: &AnalysisSession<'_>,
        col: usize,
        prior: &ColumnAnalysis,
    ) -> ColumnAnalysis {
        self.analyze_with(session, col, |masked| {
            rescore_profile_pooled(&prior.profile, masked)
        })
    }

    /// ⓪–② for one column, with `learn` producing the profile from the
    /// abstraction's masked pool.
    fn analyze_with(
        &self,
        session: &AnalysisSession<'_>,
        col: usize,
        learn: impl FnOnce(&MaskedPool) -> ColumnProfile,
    ) -> ColumnAnalysis {
        let column = session.table().column(col).expect("column index in range");
        let values = session.column_values(col);
        let abstraction = self.abstract_values(column.name(), &values);
        let profile = {
            let _span = telemetry::span(stages::PROFILE);
            learn(abstraction.masked_pool())
        };
        self.detect_with_profile(col, values, abstraction, profile)
    }

    /// ⓪ Abstraction: the semantic abstraction of the rendered values.
    pub(crate) fn abstract_values(&self, column_name: &str, values: &[String]) -> AbstractedColumn {
        let _span = telemetry::span(stages::MASK);
        match self.cfg.semantics {
            SemanticMode::None => AbstractedColumn::plain(values),
            SemanticMode::Full | SemanticMode::Limited => {
                self.abstractor.abstract_column(column_name, values)
            }
        }
    }

    /// ①–② Significance + detection over a finished profile.
    fn detect_with_profile(
        &self,
        col: usize,
        values: Arc<Vec<String>>,
        abstraction: AbstractedColumn,
        profile: ColumnProfile,
    ) -> ColumnAnalysis {
        let _span = telemetry::span(stages::DETECT);
        let significant: Vec<usize> = (0..profile.patterns.len())
            .filter(|&i| profile.patterns[i].coverage >= self.cfg.delta)
            .collect();

        // ② Values outside the union of significant patterns are errors.
        let mut error_rows: Vec<usize> = Vec::new();
        if !significant.is_empty() {
            for row in 0..values.len() {
                let covered = significant
                    .iter()
                    .any(|&i| profile.patterns[i].rows.binary_search(&row).is_ok());
                if !covered {
                    error_rows.push(row);
                }
            }
        }
        // Semantic-only errors: the abstraction normalized the value (e.g.
        // `Birminxham` → `Birmingham`); surface these even when the masked
        // shape satisfies a significant pattern.
        let mut semantic_only_rows = Vec::new();
        if self.cfg.semantics == SemanticMode::Full && !significant.is_empty() {
            // The syntactic prefix is sorted; rows appended below must not
            // be searched (they would break the sort mid-loop).
            let syntactic = error_rows.len();
            // A row's concretized abstraction depends on the row only
            // through its distinct response line, so it is computed once per
            // line. The verdict compares it with the row's own value: values
            // sharing a line (`Birminxham` and `Birmingham` both masked to
            // the city `Birmingham`) can still differ in verdict.
            let mut concretized: Vec<Option<String>> = vec![None; abstraction.n_lines()];
            for row in 0..values.len() {
                if error_rows[..syntactic].binary_search(&row).is_ok() {
                    continue;
                }
                let plain = concretized[abstraction.line_index(row)].get_or_insert_with(|| {
                    abstraction.concretize(row, abstraction.masked_pool().value(row))
                });
                if *plain != values[row] {
                    semantic_only_rows.push(row);
                    error_rows.push(row);
                }
            }
            error_rows.sort_unstable();
        }

        ColumnAnalysis {
            col,
            values,
            abstraction,
            profile,
            significant,
            error_rows,
            semantic_only_rows,
        }
    }

    /// Detects and repairs one column through a throwaway session. Prefer
    /// [`DataVinci::clean_column_in`] when cleaning more than one column.
    pub fn clean_column(&self, table: &Table, col: usize) -> ColumnReport {
        let session = self.session(table);
        self.clean_column_in(&session, col)
    }

    /// Detects and repairs one column against a shared session.
    pub fn clean_column_in(&self, session: &AnalysisSession<'_>, col: usize) -> ColumnReport {
        let analysis = self.analyze_column_in(session, col);
        self.repair_analysis_in(session, &analysis)
    }

    /// Repairs the errors of a finished analysis through a throwaway
    /// session (regenerating the table context — the pre-session oracle;
    /// batch callers use [`DataVinci::repair_analysis_in`]).
    pub fn repair_analysis(&self, table: &Table, analysis: &ColumnAnalysis) -> ColumnReport {
        let session = self.session(table);
        self.repair_analysis_in(&session, analysis)
    }

    /// Repairs the errors of a finished analysis: every error row runs the
    /// ③–⑥ path once (edit programs, concretization, ranking).
    ///
    /// Public so batch engines (and the execution-guided path) can replay a
    /// cached or reused [`ColumnAnalysis`] without re-abstracting the
    /// column; the analysis's own rendered `values` are reused throughout,
    /// and the concretizer borrows the session's shared feature context.
    pub fn repair_analysis_in(
        &self,
        session: &AnalysisSession<'_>,
        analysis: &ColumnAnalysis,
    ) -> ColumnReport {
        let _span = telemetry::span(stages::REPAIR);
        let values = &analysis.values;
        let mut report = ColumnReport {
            col: analysis.col,
            n_rows: values.len(),
            significant_patterns: analysis.significant_patterns(),
            detections: Vec::new(),
            repairs: Vec::new(),
        };
        if analysis.significant.is_empty() || analysis.error_rows.is_empty() {
            return report;
        }

        // Non-error values, for the ranker's closest-value property
        // (`error_rows` is sorted; borrow instead of cloning each value).
        let mut clean_values = ClosestValues::new(
            (0..values.len())
                .filter(|r| analysis.error_rows.binary_search(r).is_err())
                .map(|r| values[r].as_str()),
        );

        // Each significant pattern trains on the first error row whose
        // repair against it has a hole to fill.
        let mut concretizer = Concretizer::for_column(session, &self.cfg, analysis);

        for &row in &analysis.error_rows {
            report.detections.push(Detection {
                row,
                value: values[row].clone(),
            });
            let candidates =
                self.candidates_for_row(analysis, &mut concretizer, row, &mut clean_values);
            if let Some(best) = candidates.first() {
                if best.repaired != values[row] {
                    report.repairs.push(RepairSuggestion {
                        row,
                        original: values[row].clone(),
                        repaired: best.repaired.clone(),
                        candidates,
                    });
                }
            }
        }
        report
    }

    /// ③–⑥ for one error row: edit programs against every significant
    /// pattern, concretization, ranking.
    fn candidates_for_row(
        &self,
        analysis: &ColumnAnalysis,
        concretizer: &mut Concretizer<'_, '_>,
        row: usize,
        clean_values: &mut ClosestValues<'_>,
    ) -> Vec<RepairCandidate> {
        let original = analysis.values[row].as_str();
        let value = analysis.masked(row);
        telemetry::counter("repair.dp_runs", analysis.significant.len() as u64);
        let mut out: Vec<RepairCandidate> = Vec::new();
        for &pi in &analysis.significant {
            let lp = &analysis.profile.patterns[pi];
            let program = {
                let _span = telemetry::span("repair.dp");
                let dag = lp.compiled.dag_for_len(value.len());
                minimal_edit_program(&dag, value)
            };
            let Some(program) = program else {
                continue;
            };
            let abstract_repair = program.apply(value);
            let alnum = program.alnum_edits(value);
            let all_fillers = {
                let _span = telemetry::span("repair.fillers");
                concretizer.fillers(pi, row, &abstract_repair)
            };
            for fillers in all_fillers {
                let repaired_masked = abstract_repair.fill(&fillers);
                let repaired = analysis.abstraction.concretize(row, &repaired_masked);
                let props = CandidateProperties::measure(
                    original,
                    &repaired,
                    alnum,
                    lp.coverage,
                    clean_values,
                );
                let score = match self.cfg.ranking {
                    RankingMode::Heuristic => props.heuristic_score(&self.cfg.weights),
                    RankingMode::EditDistance => props.edit_distance_score(),
                };
                out.push(RepairCandidate {
                    repaired,
                    cost: program.cost,
                    score,
                    provenance: datavinci_regex::render(
                        &lp.pattern,
                        &analysis.abstraction.alphabet,
                    ),
                });
            }
        }
        // ⑥ Rank: score ascending (ties by repaired string), deduplicated
        // by repaired string, truncated to the top 8.
        let _span = telemetry::span(stages::RANK);
        out.sort_by(|a, b| {
            a.score
                .partial_cmp(&b.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.repaired.cmp(&b.repaired))
        });
        out.dedup_by(|a, b| a.repaired == b.repaired);
        out.truncate(8);
        out
    }

    /// Cleans every sufficiently-textual column of a table through one
    /// shared [`AnalysisSession`] — the rendered table, feature set, and
    /// feature store are built at most once for the whole table.
    pub fn clean_table(&self, table: &Table) -> TableReport {
        let session = self.session(table);
        self.clean_table_in(&session)
    }

    /// [`DataVinci::clean_table`] against a caller-owned session, so the
    /// caller can read [`AnalysisSession::stats`] afterwards (session reuse
    /// telemetry) or share the session further.
    pub fn clean_table_in(&self, session: &AnalysisSession<'_>) -> TableReport {
        let table = session.table();
        let mut report = TableReport::default();
        for col in 0..table.n_cols() {
            let column = table.column(col).expect("in range");
            if column.text_fraction() < self.cfg.min_text_fraction {
                continue;
            }
            report.columns.push(self.clean_column_in(session, col));
        }
        report
    }
}

impl CleaningSystem for DataVinci {
    fn name(&self) -> &'static str {
        "DataVinci"
    }

    fn detect(&self, table: &Table, col: usize) -> Vec<Detection> {
        self.clean_column(table, col).detections
    }

    fn repair(&self, table: &Table, col: usize) -> Vec<RepairSuggestion> {
        self.clean_column(table, col).repairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datavinci_table::Column;

    fn figure2_table() -> Table {
        Table::new(vec![
            Column::from_texts(
                "Category",
                &[
                    "Professional",
                    "Professional",
                    "Professional",
                    "Qualifier",
                    "Qualifier",
                    "Professional",
                ],
            ),
            Column::from_texts(
                "Player ID",
                &[
                    "IN-674-PRO",
                    "usa_837",
                    "DZ-173-PRO",
                    "US-201-QUA",
                    "CN-924-QUA",
                    "FR-475-PRO",
                ],
            ),
        ])
    }

    #[test]
    fn figure2_end_to_end() {
        // The flagship walk-through: usa_837 → US-837-PRO.
        let dv = DataVinci::new();
        let report = dv.clean_column(&figure2_table(), 1);
        assert_eq!(report.detections.len(), 1, "{report:#?}");
        assert_eq!(report.detections[0].value, "usa_837");
        assert_eq!(report.repairs.len(), 1);
        let repair = &report.repairs[0];
        assert_eq!(repair.repaired, "US-837-PRO", "{repair:#?}");
        // The significant pattern is the masked mixed pattern.
        assert!(
            report
                .significant_patterns
                .iter()
                .any(|p| p.contains("{Country}") && p.contains("(PRO|QUA)")),
            "{:?}",
            report.significant_patterns
        );
    }

    #[test]
    fn no_significant_patterns_means_no_errors() {
        // Figure 6 ②: irregular data → nothing detected.
        let table = Table::new(vec![Column::from_texts(
            "irregular",
            &[
                "a-1", "Q999", "x.y.z", "42%", "?", "<<>>", "", "~~", "b@c", "zz top",
            ],
        )]);
        let dv = DataVinci::new();
        let report = dv.clean_column(&table, 0);
        assert!(report.detections.is_empty(), "{report:#?}");
    }

    #[test]
    fn frequent_outlier_pattern_is_not_detected() {
        // Figure 6 ① / Figure 8: C51-style values covered by a significant
        // pattern are invisible to unsupervised DataVinci.
        let table = Table::new(vec![Column::from_texts(
            "id",
            &["C-19", "C-21", "C-33", "C-48", "C51", "C52", "C53", "C54"],
        )]);
        let dv = DataVinci::new();
        let report = dv.clean_column(&table, 0);
        assert!(report.detections.is_empty(), "{report:#?}");
    }

    #[test]
    fn syntactic_quarter_repair() {
        // §3.2 granularity example: Q32001 → Q3-2001.
        let table = Table::new(vec![Column::from_texts(
            "Quarter",
            &["Q4-2002", "Q3-2002", "Q1-2001", "Q2-2002", "Q32001"],
        )]);
        let dv = DataVinci::new();
        let report = dv.clean_column(&table, 0);
        assert_eq!(report.detections.len(), 1);
        assert_eq!(report.repairs.len(), 1);
        assert_eq!(report.repairs[0].repaired, "Q3-2001", "{report:#?}");
    }

    #[test]
    fn patterns_only_train_when_a_repair_has_a_hole() {
        let trained_rows = |table: &Table, col: usize| {
            let dv = DataVinci::new();
            let (report, profile) = telemetry::collect(true, || dv.clean_column(table, col));
            let rows = profile
                .expect("collecting")
                .metrics
                .counters
                .get("concretize.train_rows")
                .copied()
                .unwrap_or(0);
            (report, rows)
        };
        // Q32001 → Q3-2001 inserts a literal '-': no hole to fill, so the
        // significant pattern is never trained.
        let quarters = Table::new(vec![Column::from_texts(
            "Quarter",
            &["Q4-2002", "Q3-2002", "Q1-2001", "Q2-2002", "Q32001"],
        )]);
        let (report, rows) = trained_rows(&quarters, 0);
        assert_eq!(report.repairs[0].repaired, "Q3-2001", "{report:#?}");
        assert_eq!(rows, 0);
        // usa_837 → US-837-PRO fills holes, which trains the pattern on
        // its five clean rows.
        let (report, rows) = trained_rows(&figure2_table(), 1);
        assert_eq!(report.repairs[0].repaired, "US-837-PRO", "{report:#?}");
        assert_eq!(rows, 5);
    }

    #[test]
    fn semantic_only_error_detected_and_repaired() {
        let table = Table::new(vec![Column::from_texts(
            "City",
            &["Boston", "Miami", "Birminxham", "Chicago", "Seattle"],
        )]);
        let dv = DataVinci::new();
        let report = dv.clean_column(&table, 0);
        assert_eq!(report.detections.len(), 1, "{report:#?}");
        assert_eq!(report.repairs[0].original, "Birminxham");
        assert_eq!(report.repairs[0].repaired, "Birmingham");
    }

    /// The unmemoized detection rule, row by row: an error is a row no
    /// significant pattern covers or, under full semantics, a row whose own
    /// abstraction concretizes to a different string.
    fn per_row_rule(dv: &DataVinci, a: &ColumnAnalysis) -> (Vec<usize>, Vec<usize>) {
        let (mut errors, mut semantic_only) = (Vec::new(), Vec::new());
        if a.significant.is_empty() {
            return (errors, semantic_only);
        }
        for row in 0..a.values.len() {
            let patterns = &a.profile.patterns;
            if !a
                .significant
                .iter()
                .any(|&i| patterns[i].rows.contains(&row))
            {
                errors.push(row);
            } else if dv.config().semantics == SemanticMode::Full
                && a.abstraction.concretize(row, a.masked(row)) != a.values[row]
            {
                semantic_only.push(row);
                errors.push(row);
            }
        }
        (errors, semantic_only)
    }

    #[test]
    fn detection_equals_per_row_rule() {
        let cities = ["Boston", "Miami", "Chicago", "Seattle", "Boston", "Miami"];
        let column = |typo_first: bool, blanks: bool, n: usize| -> Vec<String> {
            let pair = if typo_first {
                ["Birminxham", "Birmingham"]
            } else {
                ["Birmingham", "Birminxham"]
            };
            (0..n)
                .map(|i| match i % 9 {
                    3 => pair[(i / 9) % 2],
                    7 if blanks => "",
                    k => cities[k % cities.len()],
                })
                .map(String::from)
                .collect()
        };
        let dv = DataVinci::new();
        let ablation = DataVinci::with_config(DataVinciConfig::ablation_no_semantics());
        for n in [20, 60, 1200] {
            for typo_first in [true, false] {
                for blanks in [false, true] {
                    let values = column(typo_first, blanks, n);
                    let table = Table::new(vec![Column::from_texts("City", &values)]);
                    for system in [&dv, &ablation] {
                        let a = system.analyze_column(&table, 0);
                        let (errors, semantic_only) = per_row_rule(system, &a);
                        let case = format!("n={n} typo_first={typo_first} blanks={blanks}");
                        assert_eq!(a.error_rows, errors, "{case}");
                        assert_eq!(a.semantic_only_rows, semantic_only, "{case}");
                    }
                    // Under full semantics the typo is flagged and its
                    // correct spelling is not, though both share one
                    // abstraction line: the verdict is per value.
                    let a = dv.analyze_column(&table, 0);
                    let typo = values.iter().position(|v| v == "Birminxham").unwrap();
                    let good = values.iter().position(|v| v == "Birmingham").unwrap();
                    assert_eq!(
                        a.abstraction.line_index(typo),
                        a.abstraction.line_index(good)
                    );
                    assert!(a.semantic_only_rows.contains(&typo));
                    assert!(!a.error_rows.contains(&good));
                }
            }
        }
        // 1200 rows span two prompt batches.
        let values = column(true, true, 1200);
        let prompts = datavinci_semantic::prompt::build_prompts(
            "City",
            &values,
            dv.abstractor_ref().mask_types(),
        );
        assert!(prompts.len() >= 2, "{} prompts", prompts.len());
    }

    #[test]
    fn example1_color_column() {
        // [red 1, dark green 2, blue phone 3]: "phone" must be deleted.
        let table = Table::new(vec![Column::from_texts(
            "c",
            &["red 1", "dark green 2", "blue phone 3", "white 4", "navy 5"],
        )]);
        let dv = DataVinci::new();
        let report = dv.clean_column(&table, 0);
        assert_eq!(report.detections.len(), 1, "{report:#?}");
        assert_eq!(report.detections[0].value, "blue phone 3");
        assert_eq!(report.repairs[0].repaired, "blue 3", "{report:#?}");
    }

    #[test]
    fn clean_table_skips_numeric_columns() {
        let table = Table::new(vec![
            Column::parse("nums", &["1", "2", "3", "4"]),
            Column::from_texts("ids", &["a-1", "a-2", "a-3", "a9"]),
        ]);
        let dv = DataVinci::new();
        let report = dv.clean_table(&table);
        assert_eq!(report.columns.len(), 1);
        assert_eq!(report.columns[0].col, 1);
    }

    #[test]
    fn fire_rate() {
        let r = ColumnReport {
            col: 0,
            n_rows: 10,
            significant_patterns: vec![],
            detections: vec![
                Detection {
                    row: 1,
                    value: "x".into(),
                },
                Detection {
                    row: 2,
                    value: "y".into(),
                },
            ],
            repairs: vec![],
        };
        assert!((r.fire_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn no_semantics_ablation_misses_semantic_repair() {
        let dv = DataVinci::with_config(DataVinciConfig::ablation_no_semantics());
        let report = dv.clean_column(&figure2_table(), 1);
        // Without masking the column becomes irregular enough that the
        // correct mixed repair is unreachable; the suggestion (if any)
        // must differ from the semantic ground truth.
        let got = report
            .repairs
            .iter()
            .find(|r| r.original == "usa_837")
            .map(|r| r.repaired.clone());
        assert_ne!(got.as_deref(), Some("US-837-PRO"), "{report:#?}");
    }
}
