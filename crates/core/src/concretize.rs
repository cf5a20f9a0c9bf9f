//! Concretizing abstract edit actions with learned value constraints
//! (paper §3.4).
//!
//! For every character class / string disjunction the abstract repair must
//! emit, we learn a decision tree from rows whose value matches the
//! significant pattern: features are Table-2 predicates over all columns,
//! labels are the concrete character/alternative the matching path consumed
//! on that atom occurrence (Example 5). At repair time the tree predicts
//! the filler from the *error row's* features (Figure 2's `{CAT1}` ↔
//! Category-column constraint). Fallbacks: pooled-occurrence majority, then
//! the class representative / first alternative.
//!
//! The concretizer reads all table-scoped state — the [`FeatureSet`], the
//! feature store's bitsets over distinct rows, table-level row interning —
//! from the shared [`AnalysisSession`], so every column of a table works
//! from one generated context. Decision trees are induced over *distinct*
//! rows weighted by multiplicity, byte-identical to per-row expansion: the
//! examples' feature bitsets are gathered straight from the store, and a
//! prediction reads one store bit per tree node.
//!
//! A column repair trains a pattern on its first [`Concretizer::fillers`]
//! call that has a hole to fill, so patterns no error row needs are never
//! trained.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::config::DataVinciConfig;
use crate::dtree::{learn_gathered, DecisionTree};
use crate::edit::{AbstractRepair, Emit};
use crate::features::FeatureSet;
use crate::pipeline::ColumnAnalysis;
use crate::session::AnalysisSession;
use datavinci_profile::{LearnedPattern, MaskedPool};
use datavinci_regex::{AtomId, AtomKey, BindingScratch};
use datavinci_telemetry as telemetry;

/// Training data and learned trees for one significant pattern.
#[derive(Debug, Default)]
struct PatternTraining {
    /// The distinct consumed texts; examples refer to them by id.
    texts: Vec<String>,
    /// (atom occurrence) → (row, text id) examples.
    examples: HashMap<AtomKey, Vec<(usize, u32)>>,
    /// Per-atom example counts over all occurrences, indexed by text id.
    pooled: HashMap<AtomId, Vec<usize>>,
    /// Learned trees (lazily), keyed by atom occurrence, with the text id
    /// of each tree label; `None` caches a failed learn.
    trees: HashMap<AtomKey, Option<(DecisionTree, Vec<u32>)>>,
}

/// The concretization engine for one column repair, reading its table-wide
/// context (features, the feature store) from a shared [`AnalysisSession`].
pub struct Concretizer<'s, 't> {
    session: &'s AnalysisSession<'t>,
    cfg: &'s DataVinciConfig,
    /// Per-pattern training state, keyed by caller-provided pattern index.
    training: HashMap<usize, PatternTraining>,
    /// The column whose patterns [`Concretizer::fillers`] trains on first
    /// use; `None` when the caller trains with [`Concretizer::train_pattern`].
    column: Option<&'s ColumnAnalysis>,
}

impl<'s, 't> Concretizer<'s, 't> {
    /// Builds the engine over a session's shared table context. The feature
    /// set is *not* regenerated here — the session generates it at most
    /// once per table and every concretizer borrows it.
    pub fn new(session: &'s AnalysisSession<'t>, cfg: &'s DataVinciConfig) -> Concretizer<'s, 't> {
        Concretizer {
            session,
            cfg,
            training: HashMap::new(),
            column: None,
        }
    }

    /// An engine that trains each of `analysis`'s patterns on its first
    /// [`Concretizer::fillers`] call with a hole to fill, over the
    /// pattern's rows minus the column's error rows.
    pub(crate) fn for_column(
        session: &'s AnalysisSession<'t>,
        cfg: &'s DataVinciConfig,
        analysis: &'s ColumnAnalysis,
    ) -> Concretizer<'s, 't> {
        Concretizer {
            column: Some(analysis),
            ..Concretizer::new(session, cfg)
        }
    }

    /// The session's feature set (for reports/tests).
    pub fn features(&self) -> &FeatureSet {
        self.session.features()
    }

    /// Registers training data for a pattern: bindings of every matching
    /// (non-error) row. `rows` are table-row indices; `masked` is the full
    /// masked column's pool.
    ///
    /// Bindings are a pure function of the masked value, so the matching
    /// walk runs once per *distinct* training value (keyed by its pool
    /// index), in one reused scratch buffer; its texts are interned and its
    /// atom occurrences resolved to example lists once, and duplicate rows
    /// share the result.
    pub fn train_pattern(
        &mut self,
        pattern_idx: usize,
        pattern: &LearnedPattern,
        rows: &[usize],
        masked: &MaskedPool,
    ) {
        if self.training.contains_key(&pattern_idx) {
            return;
        }
        telemetry::counter("concretize.train_rows", rows.len() as u64);
        let mut ids: HashMap<String, u32> = HashMap::new();
        // Atom occurrences in first-binding order, with their example lists.
        let mut slots: HashMap<AtomKey, usize> = HashMap::new();
        let mut keys: Vec<AtomKey> = Vec::new();
        let mut lists: Vec<Vec<(usize, u32)>> = Vec::new();
        // Per distinct matching value: its (slot, text id) bindings and
        // its training rows.
        let mut values: Vec<(Vec<(usize, u32)>, usize)> = Vec::new();
        // Per pool distinct index: unvisited, not matching, or its entry in
        // `values`.
        let mut by_value: Vec<Option<Option<usize>>> = vec![None; masked.n_distinct()];
        let mut scratch = BindingScratch::default();
        let mut text = String::new();
        for &row in rows {
            if row >= masked.n_rows() {
                continue;
            }
            let value = masked.value(row);
            let vi = *by_value[masked.distinct_index(row)].get_or_insert_with(|| {
                let spans = pattern.compiled.binding_spans(value, &mut scratch)?;
                let items = spans.iter().map(|span| {
                    text.clear();
                    span.write_text(value, &mut text);
                    let id = match ids.get(text.as_str()) {
                        Some(&id) => id,
                        None => {
                            let id = ids.len() as u32;
                            ids.insert(text.clone(), id);
                            id
                        }
                    };
                    let slot = *slots.entry(span.key).or_insert_with(|| {
                        keys.push(span.key);
                        lists.push(Vec::new());
                        keys.len() - 1
                    });
                    (slot, id)
                });
                values.push((items.collect(), 0));
                Some(values.len() - 1)
            });
            let Some(vi) = vi else {
                continue;
            };
            let (items, n_rows) = &mut values[vi];
            *n_rows += 1;
            for &(slot, id) in items.iter() {
                lists[slot].push((row, id));
            }
        }
        let mut t = PatternTraining::default();
        for (items, n_rows) in &values {
            for &(slot, id) in items {
                let counts = t.pooled.entry(keys[slot].atom).or_default();
                if counts.len() <= id as usize {
                    counts.resize(id as usize + 1, 0);
                }
                counts[id as usize] += n_rows;
            }
        }
        t.examples = keys.into_iter().zip(lists).collect();
        t.texts = vec![String::new(); ids.len()];
        for (text, id) in ids {
            t.texts[id as usize] = text;
        }
        self.training.insert(pattern_idx, t);
    }

    /// Produces filler tuples for the repair's fillable holes.
    ///
    /// With learned concretization: one tuple (tree/majority predictions).
    /// Without (§5.4.2 ablation): the capped cross-product of observed
    /// candidate values per hole, for the ranker to sort.
    pub fn fillers(
        &mut self,
        pattern_idx: usize,
        error_row: usize,
        repair: &AbstractRepair,
    ) -> Vec<Vec<String>> {
        let holes: Vec<Emit> = repair.fillable_holes().into_iter().cloned().collect();
        if holes.is_empty() {
            return vec![Vec::new()];
        }
        self.train_on_first_use(pattern_idx);
        if self.cfg.learned_concretization {
            let tuple: Vec<String> = holes
                .iter()
                .map(|h| self.predict_hole(pattern_idx, error_row, h))
                .collect();
            vec![tuple]
        } else {
            let per_hole: Vec<Vec<String>> = holes
                .iter()
                .map(|h| self.enumerate_hole(pattern_idx, h))
                .collect();
            cross_product(&per_hole, self.cfg.max_enumerated_candidates)
        }
    }

    /// Trains `pattern_idx` from the column, unless it is trained already
    /// or the engine has no column.
    fn train_on_first_use(&mut self, pattern_idx: usize) {
        let Some(analysis) = self.column else {
            return;
        };
        if self.training.contains_key(&pattern_idx) {
            return;
        }
        let _span = telemetry::span("repair.train");
        let lp = &analysis.profile.patterns[pattern_idx];
        let rows: Vec<usize> = lp
            .rows
            .iter()
            .copied()
            .filter(|r| analysis.error_rows.binary_search(r).is_err())
            .collect();
        self.train_pattern(pattern_idx, lp, &rows, analysis.abstraction.masked_pool());
    }

    /// Predicts one hole's filler via tree → pooled majority → default.
    fn predict_hole(&mut self, pattern_idx: usize, error_row: usize, hole: &Emit) -> String {
        let key = hole_key(hole);
        if let Some(prediction) = self.tree_prediction(pattern_idx, error_row, key) {
            if filler_valid(hole, prediction) {
                return prediction.to_string();
            }
        }
        if let Some(majority) = self.pooled_majority(pattern_idx, key.atom) {
            if filler_valid(hole, majority) {
                return majority.to_string();
            }
        }
        default_filler(hole)
    }

    fn tree_prediction(
        &mut self,
        pattern_idx: usize,
        error_row: usize,
        key: AtomKey,
    ) -> Option<&str> {
        let training = self.training.get_mut(&pattern_idx)?;
        let slot = training.trees.entry(key).or_insert_with(|| {
            let examples = training.examples.get(&key).map_or(&[][..], Vec::as_slice);
            learn_tree(examples, &training.texts, self.session, self.cfg)
        });
        let (tree, labels) = slot.as_ref()?;
        // Constant trees predict the same label for every row — skip the
        // feature store entirely.
        let label = match tree {
            DecisionTree::Leaf(label) => *label,
            _ => {
                let store = self.session.feature_store();
                let row = self.session.distinct_row(error_row);
                tree.predict(|f| store.bit(f, row))
            }
        };
        let id = *labels.get(label as usize)?;
        Some(&training.texts[id as usize])
    }

    /// The atom's most frequent text over all occurrences (ties: the
    /// smallest text).
    fn pooled_majority(&self, pattern_idx: usize, atom: AtomId) -> Option<&str> {
        let training = self.training.get(&pattern_idx)?;
        let counts = training.pooled.get(&atom)?;
        counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(id, &c)| (c, training.texts[id].as_str()))
            .max_by_key(|&(c, t)| (c, std::cmp::Reverse(t)))
            .map(|(_, t)| t)
    }

    /// Candidate fillers for the enumeration ablation: distinct observed
    /// values for the occurrence, else pooled, else the default.
    fn enumerate_hole(&self, pattern_idx: usize, hole: &Emit) -> Vec<String> {
        let key = hole_key(hole);
        let observed: Vec<String> = self
            .training
            .get(&pattern_idx)
            .map(|t| {
                let source = t.examples.get(&key).map(|v| v.as_slice()).unwrap_or(&[]);
                let mut ids: Vec<u32> = source.iter().map(|&(_, id)| id).collect();
                if ids.is_empty() {
                    if let Some(counts) = t.pooled.get(&key.atom) {
                        ids = (0..counts.len() as u32)
                            .filter(|&id| counts[id as usize] > 0)
                            .collect();
                    }
                }
                ids.sort_unstable();
                ids.dedup();
                let mut texts: Vec<String> = ids
                    .into_iter()
                    .map(|id| t.texts[id as usize].clone())
                    .filter(|text| filler_valid(hole, text))
                    .collect();
                texts.sort();
                texts
            })
            .unwrap_or_default();
        if observed.is_empty() {
            vec![default_filler(hole)]
        } else {
            observed
        }
    }
}

/// Learns the decision tree for one atom occurrence's examples, returning
/// it with the text id of each label (labels ordered by text).
///
/// Examples are grouped by `(distinct table row, label)` — duplicate rows
/// have identical features, so the tree is induced over the distinct rows
/// weighted by multiplicity instead of one example per row (exactly equal
/// to the row-expanded induction). The groups' feature bitsets are
/// gathered from the session's feature store, shared across patterns and
/// columns.
fn learn_tree(
    examples: &[(usize, u32)],
    texts: &[String],
    session: &AnalysisSession<'_>,
    cfg: &DataVinciConfig,
) -> Option<(DecisionTree, Vec<u32>)> {
    if examples.len() < 2 {
        return None;
    }
    let mut ids: Vec<u32> = examples.iter().map(|&(_, id)| id).collect();
    ids.sort_unstable();
    ids.dedup();
    if ids.len() < 2 {
        // Constant label: a leaf is exact, and cheap to represent.
        return Some((DecisionTree::Leaf(0), ids));
    }
    // Labels number the distinct texts in text order.
    let mut by_text = ids;
    by_text.sort_unstable_by(|&a, &b| texts[a as usize].cmp(&texts[b as usize]));
    let mut label_of = vec![0u32; texts.len()];
    for (label, &id) in by_text.iter().enumerate() {
        label_of[id as usize] = label as u32;
    }
    // Group in first-occurrence order.
    let mut index: HashMap<(usize, u32), usize> = HashMap::new();
    let mut rows: Vec<usize> = Vec::new();
    let mut labels: Vec<u32> = Vec::new();
    let mut weights: Vec<usize> = Vec::new();
    for &(row, id) in examples {
        let key = (session.distinct_row(row), label_of[id as usize]);
        match index.entry(key) {
            Entry::Occupied(e) => weights[*e.get()] += 1,
            Entry::Vacant(e) => {
                e.insert(rows.len());
                rows.push(key.0);
                labels.push(key.1);
                weights.push(1);
            }
        }
    }
    let store = session.feature_store();
    let _span = telemetry::span("dtree.induce");
    learn_gathered(
        &labels,
        &weights,
        store.features().len(),
        &cfg.dtree,
        |bits| store.gather(&rows, bits),
    )
    .map(|t| (t, by_text))
}

fn hole_key(hole: &Emit) -> AtomKey {
    match hole {
        Emit::Class(_, key) | Emit::Disj(_, key) | Emit::Mask(_, key) => *key,
        Emit::Char(_) => unreachable!("concrete emissions are not holes"),
    }
}

/// A filler is valid when it lies in the hole's domain.
fn filler_valid(hole: &Emit, text: &str) -> bool {
    match hole {
        Emit::Class(cc, _) => {
            let mut chars = text.chars();
            matches!((chars.next(), chars.next()), (Some(c), None) if cc.contains(c))
        }
        Emit::Disj(alts, _) => alts.iter().any(|a| a == text),
        _ => false,
    }
}

/// The last-resort filler.
fn default_filler(hole: &Emit) -> String {
    match hole {
        Emit::Class(cc, _) => cc.representative().to_string(),
        Emit::Disj(alts, _) => alts.first().cloned().unwrap_or_default(),
        Emit::Mask(..) | Emit::Char(_) => String::new(),
    }
}

/// Bounded cross-product of per-hole candidate lists.
fn cross_product(per_hole: &[Vec<String>], cap: usize) -> Vec<Vec<String>> {
    let mut out: Vec<Vec<String>> = vec![Vec::new()];
    for candidates in per_hole {
        let mut next = Vec::new();
        'outer: for prefix in &out {
            for c in candidates {
                let mut tuple = prefix.clone();
                tuple.push(c.clone());
                next.push(tuple);
                if next.len() >= cap {
                    break 'outer;
                }
            }
        }
        out = next;
        if out.len() >= cap {
            out.truncate(cap);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use datavinci_profile::{profile_plain, ProfilerConfig};
    use datavinci_regex::MaskedString;
    use datavinci_table::{Column, Table};

    /// Figure-2-shaped table: suffix determined by the Category column.
    fn figure2_table() -> Table {
        Table::new(vec![
            Column::from_texts(
                "Category",
                &[
                    "Professional",
                    "Qualifier",
                    "Professional",
                    "Qualifier",
                    "Professional",
                ],
            ),
            Column::from_texts("Player ID", &["AA-PRO", "BB-QUA", "CC-PRO", "DD-QUA", "EE"]),
        ])
    }

    #[test]
    fn figure2_constraint_learned_from_category_column() {
        let table = figure2_table();
        let cfg = DataVinciConfig::default();
        // Profile the Player ID column (plain; no semantics needed here).
        let values: Vec<String> = table.column(1).unwrap().rendered();
        let profile = profile_plain(&values, &ProfilerConfig::default());
        let lp = profile
            .patterns
            .iter()
            .find(|p| p.pattern.to_string().contains("(PRO|QUA)"))
            .expect("disjunction pattern learned");

        let session = AnalysisSession::new(&table);
        let mut cz = Concretizer::new(&session, &cfg);
        cz.train_pattern(0, lp, &lp.rows, &masked(&values));

        // Repair "EE" (row 4): DP would need I(-), I(PRO|QUA); simulate the
        // hole directly.
        let compiled = &lp.compiled;
        let dag = compiled.dag_for_len(2);
        let program = crate::repair_dp::minimal_edit_program(&dag, &"EE".into()).unwrap();
        let repair = program.apply(&"EE".into());
        let fillers = cz.fillers(0, 4, &repair);
        assert_eq!(fillers.len(), 1);
        // Row 4's Category is Professional → the tree must pick PRO.
        let repaired = repair.fill(&fillers[0]);
        assert_eq!(repaired.to_plain().as_deref(), Some("EE-PRO"));
    }

    fn masked(values: &[String]) -> MaskedPool {
        let rows: Vec<MaskedString> = values.iter().map(|v| MaskedString::from_plain(v)).collect();
        MaskedPool::new(&rows)
    }

    #[test]
    fn enumeration_mode_produces_multiple_candidates() {
        let table = figure2_table();
        let cfg = DataVinciConfig::ablation_no_learned_concretization();
        let values: Vec<String> = table.column(1).unwrap().rendered();
        let profile = profile_plain(&values, &ProfilerConfig::default());
        let lp = profile
            .patterns
            .iter()
            .find(|p| p.pattern.to_string().contains("(PRO|QUA)"))
            .expect("disjunction pattern");
        let session = AnalysisSession::new(&table);
        let mut cz = Concretizer::new(&session, &cfg);
        cz.train_pattern(0, lp, &lp.rows, &masked(&values));
        let dag = lp.compiled.dag_for_len(2);
        let program = crate::repair_dp::minimal_edit_program(&dag, &"EE".into()).unwrap();
        let repair = program.apply(&"EE".into());
        let fillers = cz.fillers(0, 4, &repair);
        assert!(fillers.len() >= 2, "expected enumeration, got {fillers:?}");
    }

    #[test]
    fn fallback_to_majority_without_features() {
        // Single-column table: no cross-column features survive, trees
        // cannot split usefully → pooled majority.
        let table = Table::new(vec![Column::from_texts(
            "c",
            &["A1", "A1", "A1", "A2", "B9"],
        )]);
        let cfg = DataVinciConfig::default();
        let values: Vec<String> = table.column(0).unwrap().rendered();
        let profile = profile_plain(&values, &ProfilerConfig::default());
        let lp = &profile.patterns[0];
        let session = AnalysisSession::new(&table);
        let mut cz = Concretizer::new(&session, &cfg);
        cz.train_pattern(0, lp, &lp.rows, &masked(&values));
        let dag = lp.compiled.dag_for_len(0);
        let program = crate::repair_dp::minimal_edit_program(&dag, &"".into()).unwrap();
        let repair = program.apply(&"".into());
        let fillers = cz.fillers(0, 0, &repair);
        assert_eq!(fillers.len(), 1);
        // All fillers drawn from observed characters.
        for f in &fillers[0] {
            assert!(!f.is_empty());
        }
    }

    #[test]
    fn pooled_majority_counts_every_training_row() {
        // "B1" three times outweighs "A2" and "A3": the pooled fallback
        // counts training rows, not distinct values.
        let table = Table::new(vec![Column::from_texts(
            "c",
            &["B1", "B1", "B1", "A2", "A3"],
        )]);
        let mut cfg = DataVinciConfig::default();
        // No tree qualifies, so every hole takes the pooled majority.
        cfg.dtree.alpha = 2.0;
        let values: Vec<String> = table.column(0).unwrap().rendered();
        let profile = profile_plain(&values, &ProfilerConfig::default());
        let lp = &profile.patterns[0];
        let session = AnalysisSession::new(&table);
        let mut cz = Concretizer::new(&session, &cfg);
        cz.train_pattern(0, lp, &lp.rows, &masked(&values));
        let dag = lp.compiled.dag_for_len(0);
        let program = crate::repair_dp::minimal_edit_program(&dag, &"".into()).unwrap();
        let repair = program.apply(&"".into());
        assert_eq!(
            cz.fillers(0, 0, &repair),
            vec![vec!["B".to_string(), "1".to_string()]],
            "{}",
            lp.pattern
        );
    }

    /// Filler tuples keyed by (pattern, error row).
    type Fills = Vec<((usize, usize), Vec<Vec<String>>)>;

    /// Every (significant pattern, error row) fill of `col`, sorted by key.
    /// The fills are asked for in key order (or its reverse) from a
    /// concretizer trained eagerly (every pattern up front, as
    /// `train_pattern` callers do) or lazily (on first use).
    fn all_fills(
        table: &Table,
        col: usize,
        cfg: &DataVinciConfig,
        lazy: bool,
        reverse: bool,
    ) -> Fills {
        let dv = crate::DataVinci::with_config(cfg.clone());
        let session = dv.session(table);
        let analysis = dv.analyze_column_in(&session, col);
        let mut cz = if lazy {
            Concretizer::for_column(&session, cfg, &analysis)
        } else {
            let mut cz = Concretizer::new(&session, cfg);
            for &pi in &analysis.significant {
                let lp = &analysis.profile.patterns[pi];
                let rows: Vec<usize> = lp
                    .rows
                    .iter()
                    .copied()
                    .filter(|r| analysis.error_rows.binary_search(r).is_err())
                    .collect();
                cz.train_pattern(pi, lp, &rows, analysis.abstraction.masked_pool());
            }
            cz
        };
        let mut pairs: Vec<(usize, usize)> = analysis
            .significant
            .iter()
            .flat_map(|&pi| analysis.error_rows.iter().map(move |&row| (pi, row)))
            .collect();
        if reverse {
            pairs.reverse();
        }
        let mut out: Fills = pairs
            .into_iter()
            .filter_map(|(pi, row)| {
                let value = analysis.masked(row);
                let dag = analysis.profile.patterns[pi]
                    .compiled
                    .dag_for_len(value.len());
                let program = crate::repair_dp::minimal_edit_program(&dag, value)?;
                let repair = program.apply(value);
                Some(((pi, row), cz.fillers(pi, row, &repair)))
            })
            .collect();
        out.sort();
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        /// Training a pattern on its first `fillers` call, in any call
        /// order, yields the fills of training every pattern up front. The
        /// misspelled cities are semantic-only errors inside their
        /// pattern's rows, so training must leave them out in both modes.
        #[test]
        fn lazy_training_equals_eager_training(
            rows in proptest::collection::vec(
                (
                    proptest::prop_oneof!["Professional", "Qualifier", "Amateur"],
                    proptest::prop_oneof![
                        "[A-Z]{2}-[0-9]{3}-PRO",
                        "[A-Z]{2}-[0-9]{3}-QUA",
                        "[A-Z]{2}-[0-9]{3}-AMA",
                        "[a-z]{2}_[0-9]{3}",
                        "[A-Z]{2}[0-9]{3}",
                        "Q[1-4]-20[0-9]{2}",
                    ],
                    proptest::prop_oneof![
                        "Boston-[0-9]",
                        "Miami-[0-9]",
                        "Chicago-[0-9]",
                        "Seattle-[0-9]",
                        "Birminxham-[0-9]",
                        "Bostn-[0-9]",
                        "Miami-[a-z]",
                        "Boston-[0-9]{2}",
                    ],
                ),
                4..40,
            ),
            learned in 0u32..2,
        ) {
            let column = |name: &str, pick: fn(&(String, String, String)) -> &String| {
                let texts: Vec<&str> = rows.iter().map(|r| pick(r).as_str()).collect();
                Column::from_texts(name, &texts)
            };
            let table = Table::new(vec![
                column("Category", |r| &r.0),
                column("Player ID", |r| &r.1),
                column("Office", |r| &r.2),
            ]);
            let cfg = if learned == 1 {
                DataVinciConfig::default()
            } else {
                DataVinciConfig::ablation_no_learned_concretization()
            };
            for col in 1..3 {
                let eager = all_fills(&table, col, &cfg, false, false);
                proptest::prop_assert_eq!(&all_fills(&table, col, &cfg, true, false), &eager);
                proptest::prop_assert_eq!(&all_fills(&table, col, &cfg, true, true), &eager);
            }
        }
    }

    #[test]
    fn cross_product_is_capped() {
        let per_hole = vec![
            vec!["a".to_string(), "b".to_string(), "c".to_string()],
            vec!["1".to_string(), "2".to_string(), "3".to_string()],
            vec!["x".to_string(), "y".to_string(), "z".to_string()],
        ];
        let tuples = cross_product(&per_hole, 10);
        assert!(tuples.len() <= 10);
        assert!(tuples.iter().all(|t| t.len() == 3));
    }

    #[test]
    fn filler_validity() {
        use datavinci_regex::{AtomId, CharClass};
        let key = AtomKey {
            atom: AtomId(0),
            occ: 0,
        };
        let class_hole = Emit::Class(CharClass::Digit, key);
        assert!(filler_valid(&class_hole, "7"));
        assert!(!filler_valid(&class_hole, "x"));
        assert!(!filler_valid(&class_hole, "77"));
        let disj_hole = Emit::Disj(vec!["CAT".into(), "PRO".into()], key);
        assert!(filler_valid(&disj_hole, "PRO"));
        assert!(!filler_valid(&disj_hole, "DOG"));
    }
}
