//! Compiled patterns: boolean matching, DAG access, and binding extraction.
//!
//! A [`CompiledPattern`] packages the tagged AST, a lazily-determinized
//! [`Dfa`](crate::dfa) front-end for membership tests (with the cyclic NFA
//! kept as the exact fallback and reference oracle) and a per-length cache
//! of unrolled DAGs (for the repair DP and for extracting concretization
//! *bindings* — which concrete character/alternative each class/disjunction
//! edge consumed on a successful match; paper Example 5).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::ast::{AtomKey, Pattern, TaggedPattern};
use crate::dag::{Dag, DagLabel};
use crate::dfa::{AsciiBatch, Dfa, DEFAULT_STATE_BUDGET};
use crate::nfa::Nfa;
use crate::token::{MaskedString, Tok};

/// What one concretizable atom occurrence consumed during a match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Binding {
    /// Which atom occurrence.
    pub key: AtomKey,
    /// The consumed text (single char for classes, alternative for
    /// disjunctions, `⟨m⟩` placeholder for masks).
    pub text: String,
}

/// All bindings of one successful match, in consumption order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bindings {
    /// Atom-occurrence bindings in left-to-right order.
    pub items: Vec<Binding>,
}

impl Bindings {
    /// The binding for `key`, if the match consumed that atom occurrence.
    pub fn get(&self, key: AtomKey) -> Option<&str> {
        self.items
            .iter()
            .find(|b| b.key == key)
            .map(|b| b.text.as_str())
    }
}

/// A pattern compiled for matching and repair.
#[derive(Debug)]
pub struct CompiledPattern {
    pattern: Pattern,
    tagged: TaggedPattern,
    nfa: Nfa,
    dfa: Arc<Dfa>,
    min_len: usize,
    dag_cache: Mutex<HashMap<usize, std::sync::Arc<Dag>>>,
}

impl Clone for CompiledPattern {
    fn clone(&self) -> Self {
        CompiledPattern {
            pattern: self.pattern.clone(),
            tagged: self.tagged.clone(),
            nfa: self.nfa.clone(),
            // Memoized DFA transitions depend only on the pattern's
            // language, so clones share them — a re-scored profile keeps
            // its warm tables instead of re-determinizing from scratch.
            dfa: Arc::clone(&self.dfa),
            min_len: self.min_len,
            dag_cache: Mutex::new(HashMap::new()),
        }
    }
}

impl CompiledPattern {
    /// Compiles a pattern.
    pub fn compile(pattern: Pattern) -> Self {
        CompiledPattern::compile_with_dfa_budget(pattern, DEFAULT_STATE_BUDGET)
    }

    /// Compiles a pattern with an explicit DFA state budget.
    ///
    /// Membership runs on the lazily-determinized DFA until `budget` states
    /// have been discovered, then falls back to the NFA permanently (the
    /// answers are identical either way). Exposed so tests and benchmarks
    /// can force the fallback path; [`CompiledPattern::compile`] uses
    /// [`DEFAULT_STATE_BUDGET`].
    pub fn compile_with_dfa_budget(pattern: Pattern, budget: usize) -> Self {
        let tagged = pattern.tag();
        let nfa = Nfa::compile(&tagged);
        let dfa = Arc::new(Dfa::new(&tagged, budget));
        let min_len = pattern.min_len();
        CompiledPattern {
            pattern,
            tagged,
            nfa,
            dfa,
            min_len,
            dag_cache: Mutex::new(HashMap::new()),
        }
    }

    /// The source pattern.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// Number of concretizable atoms.
    pub fn n_atoms(&self) -> u32 {
        self.tagged.n_atoms()
    }

    /// Minimum number of tokens any match consumes.
    pub fn min_len(&self) -> usize {
        self.min_len
    }

    /// Is `value` in the pattern's language?
    ///
    /// Runs on the memoized DFA fast path (falling back to the NFA past the
    /// state budget); exact — always the same answer as
    /// [`CompiledPattern::matches_nfa`].
    pub fn matches(&self, value: &MaskedString) -> bool {
        if value.len() < self.min_len {
            return false;
        }
        self.dfa.matches(value.toks())
    }

    /// Reference membership via direct cyclic-NFA simulation.
    ///
    /// The oracle the DFA fast path is differentially tested against; also
    /// what benchmarks use to measure the speedup. Prefer
    /// [`CompiledPattern::matches`] everywhere else.
    pub fn matches_nfa(&self, value: &MaskedString) -> bool {
        if value.len() < self.min_len {
            return false;
        }
        self.nfa.matches(value.toks())
    }

    /// Batch membership over a whole column of values.
    ///
    /// Equivalent to mapping [`CompiledPattern::matches`], but locks the
    /// DFA's memo table once for the entire batch — the profiler's
    /// candidate-scoring and the engine's append-only re-score go through
    /// here.
    pub fn matches_many(&self, values: &[MaskedString]) -> Vec<bool> {
        self.dfa.matches_many(values, self.min_len)
    }

    /// Batch membership over a packed pure-ASCII column (see
    /// [`AsciiBatch`]): the dense DFA rows step directly over `u8` class
    /// codes, with no per-value token materialization. Exact — identical
    /// answers to [`CompiledPattern::matches_many`] on the values the batch
    /// was packed from (differentially proptested in `tests/dfa_vs_nfa.rs`).
    pub fn matches_many_ascii(&self, batch: &AsciiBatch) -> Vec<bool> {
        self.dfa.matches_ascii(batch, self.min_len)
    }

    /// Has the DFA exceeded its state budget (membership now NFA-backed)?
    pub fn dfa_overflowed(&self) -> bool {
        self.dfa.overflowed()
    }

    /// Number of DFA states discovered so far — how much of the state
    /// budget lazy determinization has consumed (telemetry).
    pub fn dfa_states(&self) -> usize {
        self.dfa.n_states()
    }

    /// The DFA state budget this pattern was compiled with.
    pub fn dfa_budget(&self) -> usize {
        self.dfa.budget()
    }

    /// The unrolled DAG for values of `len` tokens (cached per length).
    pub fn dag_for_len(&self, len: usize) -> std::sync::Arc<Dag> {
        let mut cache = self.dag_cache.lock().expect("dag cache poisoned");
        cache
            .entry(len)
            .or_insert_with(|| std::sync::Arc::new(Dag::build(self.tagged.root(), len)))
            .clone()
    }

    /// If `value` matches, returns the atom bindings of one accepting path.
    ///
    /// Uses the unrolled DAG, so occurrence indices are consistent with the
    /// DAGs the repair engine builds for erroneous values of similar length.
    pub fn bindings(&self, value: &MaskedString) -> Option<Bindings> {
        if value.len() < self.min_len {
            return None;
        }
        let dag = self.dag_for_len(value.len());
        zero_cost_path(&dag, value)
    }
}

/// Reachability DP over (tokens consumed, node) with parent pointers;
/// reconstructs the bindings of one zero-cost (exact-match) path.
fn zero_cost_path(dag: &Dag, value: &MaskedString) -> Option<Bindings> {
    let toks = value.toks();
    let n = toks.len();
    let nn = dag.n_nodes;
    // parent[(i, u)] = (prev_i, prev_node, edge index) for one reaching path.
    let mut reached = vec![false; (n + 1) * nn];
    let mut parent: Vec<Option<(usize, usize, usize)>> = vec![None; (n + 1) * nn];
    let idx = |i: usize, u: usize| i * nn + u;
    reached[idx(0, dag.start)] = true;

    for i in 0..n {
        for u in 0..nn {
            if !reached[idx(i, u)] {
                continue;
            }
            for &ei in &dag.out_edges[u] {
                let e = &dag.edges[ei];
                match &e.label {
                    DagLabel::Disj(d, _) => {
                        for alt in &dag.disjs[*d as usize] {
                            let k = alt.len();
                            if i + k <= n
                                && alt
                                    .iter()
                                    .zip(&toks[i..i + k])
                                    .all(|(c, t)| *t == Tok::Char(*c))
                                && !reached[idx(i + k, e.to)]
                            {
                                reached[idx(i + k, e.to)] = true;
                                parent[idx(i + k, e.to)] = Some((i, u, ei));
                            }
                        }
                    }
                    label => {
                        if Dag::tok_matches(label, toks[i]) && !reached[idx(i + 1, e.to)] {
                            reached[idx(i + 1, e.to)] = true;
                            parent[idx(i + 1, e.to)] = Some((i, u, ei));
                        }
                    }
                }
            }
        }
    }

    let accept = (0..nn).find(|&u| reached[idx(n, u)] && dag.accepts[u])?;

    // Walk parents back to the start, collecting atom bindings.
    let mut items = Vec::new();
    let mut cur = (n, accept);
    while let Some((pi, pu, ei)) = parent[idx(cur.0, cur.1)] {
        let e = &dag.edges[ei];
        let consumed: String = toks[pi..cur.0]
            .iter()
            .map(|t| match t {
                Tok::Char(c) => *c,
                Tok::Mask(_) => '\u{FFFD}',
            })
            .collect();
        match &e.label {
            DagLabel::Class(_, key) | DagLabel::Disj(_, key) => {
                items.push(Binding {
                    key: *key,
                    text: consumed,
                });
            }
            DagLabel::Mask(_, key) => {
                items.push(Binding {
                    key: *key,
                    text: "⟨m⟩".to_string(),
                });
            }
            DagLabel::Lit(_) => {}
        }
        cur = (pi, pu);
    }
    items.reverse();
    Some(Bindings { items })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::AtomId;
    use crate::class::CharClass;

    fn compiled(p: Pattern) -> CompiledPattern {
        CompiledPattern::compile(p)
    }

    #[test]
    fn matches_agrees_with_examples() {
        let p = compiled(Pattern::plus(Pattern::concat([
            Pattern::lit("A"),
            Pattern::Class(CharClass::Digit),
            Pattern::lit("."),
        ])));
        assert!(p.matches(&"A2.".into()));
        assert!(p.matches(&"A2.A3.".into()));
        assert!(!p.matches(&"AAA3".into()));
        assert!(!p.matches(&"".into()));
    }

    #[test]
    fn bindings_record_class_occurrences() {
        // Figure 4 row values: A2.A3. → the repeated [0-9] atom binds twice.
        let p = compiled(Pattern::plus(Pattern::concat([
            Pattern::lit("A"),
            Pattern::Class(CharClass::Digit),
            Pattern::lit("."),
        ])));
        let b = p.bindings(&"A2.A3.".into()).unwrap();
        assert_eq!(b.items.len(), 2);
        assert_eq!(b.items[0].key.atom, AtomId(0));
        assert_eq!(b.items[0].key.occ, 0);
        assert_eq!(b.items[0].text, "2");
        assert_eq!(b.items[1].key.occ, 1);
        assert_eq!(b.items[1].text, "3");
    }

    #[test]
    fn bindings_record_disjunction_choice() {
        let p = compiled(Pattern::concat([
            Pattern::class_plus(CharClass::Digit),
            Pattern::lit("-"),
            Pattern::disj(["CAT", "PRO"]),
        ]));
        let b = p.bindings(&"42-PRO".into()).unwrap();
        let disj_binding = b.items.last().unwrap();
        assert_eq!(disj_binding.text, "PRO");
        // Two digit occurrences precede it.
        assert_eq!(b.items.len(), 3);
    }

    #[test]
    fn bindings_none_for_non_members() {
        let p = compiled(Pattern::lit("abc"));
        assert!(p.bindings(&"abd".into()).is_none());
        assert!(p.bindings(&"ab".into()).is_none());
    }

    #[test]
    fn bindings_getter() {
        let p = compiled(Pattern::Class(CharClass::Upper));
        let b = p.bindings(&"Q".into()).unwrap();
        let key = AtomKey {
            atom: AtomId(0),
            occ: 0,
        };
        assert_eq!(b.get(key), Some("Q"));
        assert_eq!(
            b.get(AtomKey {
                atom: AtomId(0),
                occ: 1
            }),
            None
        );
    }

    #[test]
    fn dfa_and_nfa_paths_agree() {
        let p = compiled(Pattern::plus(Pattern::concat([
            Pattern::lit("A"),
            Pattern::Class(CharClass::Digit),
            Pattern::lit("."),
        ])));
        for s in ["A2.", "A2.A3.", "AAA3", "", "A2", "A2.A3", "B2."] {
            let v = MaskedString::from_plain(s);
            assert_eq!(p.matches(&v), p.matches_nfa(&v), "{s:?}");
        }
    }

    #[test]
    fn matches_many_equals_per_value_matches() {
        let p = compiled(Pattern::concat([
            Pattern::class_plus(CharClass::Digit),
            Pattern::lit("-"),
            Pattern::disj(["CAT", "PRO"]),
        ]));
        let values: Vec<MaskedString> = ["42-PRO", "7-CAT", "42-DOG", "", "-PRO", "9-PROX"]
            .iter()
            .map(|s| MaskedString::from_plain(s))
            .collect();
        let batch = p.matches_many(&values);
        let single: Vec<bool> = values.iter().map(|v| p.matches(v)).collect();
        assert_eq!(batch, single);
        assert_eq!(batch, vec![true, true, false, false, false, false]);
    }

    #[test]
    fn clones_share_the_memoized_dfa() {
        // Overflow the original's tiny budget; the clone must observe it
        // (same Arc), proving warm tables survive profile re-scoring.
        let alts: Vec<Pattern> = (b'a'..=b'z')
            .map(|c| Pattern::lit(format!("{0}{0}", char::from(c))))
            .collect();
        let p = CompiledPattern::compile_with_dfa_budget(Pattern::Alt(alts), 3);
        assert!(!p.dfa_overflowed());
        assert!(p.matches(&"qq".into()));
        assert!(p.dfa_overflowed());
        let clone = p.clone();
        assert!(clone.dfa_overflowed());
        assert!(clone.matches(&"zz".into()));
        assert!(!clone.matches(&"z".into()));
    }

    #[test]
    fn dag_cache_returns_same_structure() {
        let p = compiled(Pattern::class_plus(CharClass::Digit));
        let d1 = p.dag_for_len(4);
        let d2 = p.dag_for_len(4);
        assert!(std::sync::Arc::ptr_eq(&d1, &d2));
    }

    #[test]
    fn fixed_width_class_occurrences() {
        // [0-9]{3} is a single atom with three occurrences.
        let p = compiled(Pattern::class_n(CharClass::Digit, 3));
        let b = p.bindings(&"407".into()).unwrap();
        let texts: Vec<&str> = b.items.iter().map(|i| i.text.as_str()).collect();
        assert_eq!(texts, vec!["4", "0", "7"]);
        assert!(b.items.iter().all(|i| i.key.atom == AtomId(0)));
    }
}
