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
        let mut scratch = BindingScratch::default();
        let spans = self.binding_spans(value, &mut scratch)?;
        let items = spans
            .iter()
            .map(|span| {
                let mut text = String::new();
                span.write_text(value, &mut text);
                Binding {
                    key: span.key,
                    text,
                }
            })
            .collect();
        Some(Bindings { items })
    }

    /// [`CompiledPattern::bindings`] as token spans, walked in `scratch`'s
    /// reused buffers: training calls this once per distinct value and
    /// renders each span's text only where it needs it
    /// ([`BindingSpan::write_text`]).
    pub fn binding_spans<'s>(
        &self,
        value: &MaskedString,
        scratch: &'s mut BindingScratch,
    ) -> Option<&'s [BindingSpan]> {
        if value.len() < self.min_len {
            return None;
        }
        let dag = self.dag_for_len(value.len());
        scratch.walk(&dag, value)
    }
}

/// What one concretizable atom occurrence consumed during a match: the
/// tokens `start..end` of the matched value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BindingSpan {
    /// Which atom occurrence.
    pub key: AtomKey,
    /// First consumed token.
    pub start: usize,
    /// One past the last consumed token.
    pub end: usize,
}

impl BindingSpan {
    /// Appends the binding's text to `out`: the consumed characters for a
    /// class or disjunction, the `⟨m⟩` placeholder for a mask. Only mask
    /// edges consume mask tokens, so a one-mask-token span is a mask
    /// binding.
    pub fn write_text(&self, value: &MaskedString, out: &mut String) {
        match &value.toks()[self.start..self.end] {
            [Tok::Mask(_)] => out.push_str("⟨m⟩"),
            toks => out.extend(toks.iter().map(|t| match t {
                Tok::Char(c) => *c,
                Tok::Mask(_) => '\u{FFFD}',
            })),
        }
    }
}

/// Reusable buffers for [`CompiledPattern::binding_spans`]: reachability
/// bitsets, a parent table and a span list, grown to the largest walk and
/// never shrunk.
#[derive(Debug, Default)]
pub struct BindingScratch {
    /// Per tokens consumed `i`: the bitset of nodes reached after `i`
    /// tokens.
    reached: Vec<u64>,
    /// Per reached (tokens consumed, node) cell: the edge index and token
    /// count of the step that first reached it ([`START`] for the start
    /// cell). Cells no path reached hold stale values and are never read.
    parent: Vec<(u32, u32)>,
    spans: Vec<BindingSpan>,
}

/// The parent-table edge index of the start cell, reached before any step.
const START: u32 = u32::MAX;

impl BindingScratch {
    /// Reachability DP over (tokens consumed, node), keeping the first step
    /// into each cell; walks the parents of one zero-cost (exact-match)
    /// path back from the first accepting node.
    ///
    /// Cells are expanded in ascending (tokens, node) order, as a full scan
    /// of the table would, but only reached nodes are visited: each step's
    /// reached set is a bitset whose next set bit is re-read after every
    /// expansion.
    fn walk(&mut self, dag: &Dag, value: &MaskedString) -> Option<&[BindingSpan]> {
        let toks = value.toks();
        let n = toks.len();
        let nn = dag.n_nodes;
        let words = nn.div_ceil(64);
        let idx = |i: usize, u: usize| i * nn + u;
        let (reached, parent) = (&mut self.reached, &mut self.parent);
        reached.clear();
        reached.resize((n + 1) * words, 0);
        if parent.len() < (n + 1) * nn {
            parent.resize((n + 1) * nn, (START, 0));
        }
        let mut reach = |reached: &mut [u64], i: usize, v: usize, step: (u32, u32)| {
            let word = &mut reached[i * words + v / 64];
            if *word >> (v % 64) & 1 == 0 {
                *word |= 1 << (v % 64);
                parent[idx(i, v)] = step;
            }
        };
        reach(reached, 0, dag.start, (START, 0));

        for i in 0..n {
            let mut next = 0;
            while let Some(u) = next_set(&reached[i * words..(i + 1) * words], next) {
                next = u + 1;
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
                                {
                                    reach(reached, i + k, e.to, (ei as u32, k as u32));
                                }
                            }
                        }
                        label => {
                            if Dag::tok_matches(label, toks[i]) {
                                reach(reached, i + 1, e.to, (ei as u32, 1));
                            }
                        }
                    }
                }
            }
        }

        let last = &reached[n * words..];
        let accept = (0..nn).find(|&u| last[u / 64] >> (u % 64) & 1 == 1 && dag.accepts[u])?;

        // Walk parents back to the start, collecting atom bindings.
        self.spans.clear();
        let (mut i, mut u) = (n, accept);
        loop {
            let (ei, k) = self.parent[idx(i, u)];
            if ei == START {
                break;
            }
            let e = &dag.edges[ei as usize];
            let start = i - k as usize;
            match &e.label {
                DagLabel::Class(_, key) | DagLabel::Disj(_, key) | DagLabel::Mask(_, key) => {
                    self.spans.push(BindingSpan {
                        key: *key,
                        start,
                        end: i,
                    });
                }
                DagLabel::Lit(_) => {}
            }
            (i, u) = (start, e.from);
        }
        self.spans.reverse();
        Some(&self.spans)
    }
}

/// The first set bit at index `from` or above.
fn next_set(bits: &[u64], from: usize) -> Option<usize> {
    let mut w = from / 64;
    let mut word = *bits.get(w)? & (u64::MAX << (from % 64));
    loop {
        if word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
        w += 1;
        word = *bits.get(w)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::AtomId;
    use crate::class::CharClass;

    fn compiled(p: Pattern) -> CompiledPattern {
        CompiledPattern::compile(p)
    }

    /// The walk [`BindingScratch::walk`] replaced: fresh tables per value,
    /// `Option` parent cells and one `String` per binding. The oracle the
    /// scratch walk is proven against.
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

    /// Patterns over literals, classes, masks and disjunctions (two with
    /// prefix-sharing alternatives), nested by concatenation,
    /// alternation and quantifiers.
    fn arb_pattern() -> impl proptest::strategy::Strategy<Value = Pattern> {
        use proptest::prelude::*;
        let leaf = prop_oneof![
            "[a-c]{1,3}".prop_map(Pattern::lit),
            Just(Pattern::lit("-")),
            Just(Pattern::Class(CharClass::Digit)),
            Just(Pattern::Class(CharClass::Lower)),
            Just(Pattern::Class(CharClass::Upper)),
            Just(Pattern::Mask(crate::token::MaskId(0))),
            Just(Pattern::disj(["cat", "dog"])),
            Just(Pattern::disj(["a", "ab", "abc"])),
            Just(Pattern::disj(["x", "xy"])),
        ];
        leaf.prop_recursive(3, 16, 4, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 1..4).prop_map(Pattern::concat),
                prop::collection::vec(inner.clone(), 1..4).prop_map(Pattern::Alt),
                inner.clone().prop_map(Pattern::plus),
                inner.clone().prop_map(Pattern::opt),
                (inner, 0u32..3).prop_map(|(p, n)| Pattern::Repeat {
                    body: Box::new(p),
                    min: n,
                    max: Some(n + 1),
                }),
            ]
        })
    }

    /// One member of `pattern`'s language, chosen by `picks`.
    fn sample_member(pattern: &Pattern, picks: &[usize]) -> MaskedString {
        fn go(p: &Pattern, picks: &[usize], cursor: &mut usize, out: &mut MaskedString) {
            let mut pick = |n: usize| {
                let v = picks.get(*cursor).copied().unwrap_or(0);
                *cursor += 1;
                v % n.max(1)
            };
            match p {
                Pattern::Empty => {}
                Pattern::Str(s) => s.chars().for_each(|c| out.push(Tok::Char(c))),
                Pattern::Class(c) => {
                    let candidates: Vec<char> = ('0'..='9')
                        .chain('a'..='z')
                        .chain('A'..='Z')
                        .filter(|ch| c.contains(*ch))
                        .collect();
                    out.push(Tok::Char(candidates[pick(candidates.len())]));
                }
                Pattern::Mask(m) => out.push(Tok::Mask(*m)),
                Pattern::Disj(alts) => {
                    let alt = &alts[pick(alts.len())];
                    alt.chars().for_each(|c| out.push(Tok::Char(c)));
                }
                Pattern::Concat(parts) => {
                    parts.iter().for_each(|part| go(part, picks, cursor, out))
                }
                Pattern::Alt(parts) => go(&parts[pick(parts.len())], picks, cursor, out),
                Pattern::Repeat { body, min, max } => {
                    let extra = match max {
                        Some(m) => pick((*m - *min + 1) as usize) as u32,
                        None => pick(3) as u32,
                    };
                    for _ in 0..(*min + extra) {
                        go(body, picks, cursor, out);
                    }
                }
            }
        }
        let mut out = MaskedString::default();
        go(pattern, picks, &mut 0, &mut out);
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// The scratch walk binds exactly what the per-value walk binds, on
        /// sampled members and on random token strings, with one scratch
        /// reused across patterns and value lengths.
        #[test]
        fn scratch_walk_equals_fresh_walk(
            patterns in proptest::collection::vec(arb_pattern(), 1..4),
            picks in proptest::collection::vec(0usize..64, 0..24),
            noise in proptest::collection::vec("[a-cA-C0-2x-]{0,8}", 1..4),
        ) {
            let mut scratch = BindingScratch::default();
            for pattern in patterns {
                let p = compiled(pattern.clone());
                let mut values = vec![sample_member(&pattern, &picks)];
                values.extend(noise.iter().map(|s| MaskedString::from_plain(s)));
                values.push(MaskedString::from_toks(vec![Tok::Mask(crate::token::MaskId(0))]));
                for value in &values {
                    let oracle = (value.len() >= p.min_len())
                        .then(|| zero_cost_path(&p.dag_for_len(value.len()), value))
                        .flatten();
                    let spans = p.binding_spans(value, &mut scratch).map(|s| s.to_vec());
                    let texts = spans.map(|spans| {
                        spans
                            .iter()
                            .map(|span| {
                                let mut text = String::new();
                                span.write_text(value, &mut text);
                                Binding { key: span.key, text }
                            })
                            .collect::<Vec<_>>()
                    });
                    proptest::prop_assert_eq!(texts, oracle.map(|b| b.items));
                    if p.matches(value) {
                        proptest::prop_assert!(p.bindings(value).is_some());
                    }
                }
            }
        }
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
