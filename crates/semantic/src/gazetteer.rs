//! The gazetteer knowledge base: indexed, fuzzy-matchable semantic forms.
//!
//! This is the knowledge the mock LLM draws on. Lookups support
//! case-insensitive exact matching and bounded-edit-distance fuzzy matching
//! (the mechanism by which the abstraction step can *repair* semantic
//! substrings: `bleu → blue`, `Birminxham → Birmingham`; paper §3.2).

use std::collections::HashMap;

use crate::data::{entries, Entry};
use crate::types::SemanticType;
use datavinci_regex::BandedLevenshtein;

/// A resolved gazetteer hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hit {
    /// Which semantic type matched.
    pub semantic_type: SemanticType,
    /// Entry index within the type.
    pub entry: usize,
    /// Which surface form of the entry matched.
    pub form: usize,
    /// Edit distance of the query to the matched form (0 = exact, case-
    /// insensitively).
    pub distance: usize,
}

impl Hit {
    /// The matched form's canonical spelling.
    pub fn form_text(&self) -> &'static str {
        entries(self.semantic_type)[self.entry].forms[self.form]
    }

    /// A specific form of the hit entry, if the entry has that position.
    pub fn entry_form(&self, form: usize) -> Option<&'static str> {
        entries(self.semantic_type)[self.entry]
            .forms
            .get(form)
            .copied()
    }
}

/// The indexed knowledge base.
#[derive(Debug)]
pub struct Gazetteer {
    /// lowercase form → hits sharing that surface.
    exact: HashMap<String, Vec<Hit>>,
    /// The fuzzy-matchable forms (4+ chars), lowercase and decoded, in
    /// (length, build) order. A form's id is its index; scanning ids in
    /// order is scanning lengths shortest first.
    forms: Vec<(Box<[char]>, Hit)>,
    /// `len_start[l]`: the first id of a form with `l` or more chars.
    len_start: Vec<u32>,
    /// The symmetric-delete index: (hash of a ≤[`MAX_BUDGET`]-deletion
    /// variant, form id), sorted.
    deletes: Vec<(u64, u32)>,
}

/// Work done by fuzzy lookups, summed by the caller so telemetry records
/// it once per column rather than once per lookup.
#[derive(Debug, Default)]
pub(crate) struct FuzzyWork {
    /// Fuzzy lookups made.
    pub(crate) lookups: u64,
    /// Banded edit-distance DPs run to verify candidates.
    pub(crate) compares: u64,
}

/// The largest [`fuzzy_budget`], and so the deletion depth of the index.
const MAX_BUDGET: usize = 2;

/// Shortest form that fuzzy-matches: an edit on a 2–3 char code is a
/// different code, not a typo.
const MIN_FUZZY_LEN: usize = 4;

/// Fuzzy budget for a query of `len` characters. Short tokens (codes like
/// `US`, `PRO`) only match exactly; longer words tolerate 1–2 edits.
pub fn fuzzy_budget(len: usize) -> usize {
    match len {
        0..=3 => 0,
        4..=7 => 1,
        _ => 2,
    }
}

/// Common alternate surfaces that are not canonical forms: `(alias, type,
/// full name of the target entry)`. Alias hits resolve to the entry's form 0
/// and are then normalized by the column-majority logic (`u.k.` → `GB` in an
/// ISO-2 column, paper Figure 3's second example modulo canonical code).
const ALIASES: &[(&str, SemanticType, &str)] = &[
    ("uk", SemanticType::Country, "United Kingdom"),
    ("america", SemanticType::Country, "United States"),
    ("holland", SemanticType::Country, "Netherlands"),
    ("nyc", SemanticType::City, "New York"),
    ("ny", SemanticType::City, "New York"),
    ("grey", SemanticType::Color, "gray"),
];

impl Gazetteer {
    /// Builds the default gazetteer over all twenty types.
    pub fn new() -> Gazetteer {
        let mut exact: HashMap<String, Vec<Hit>> = HashMap::new();
        let mut forms: Vec<(Box<[char]>, Hit)> = Vec::new();
        for t in SemanticType::ALL {
            for (ei, Entry { forms: surfaces }) in entries(t).iter().enumerate() {
                for (fi, form) in surfaces.iter().enumerate() {
                    let lower = form.to_lowercase();
                    let hit = Hit {
                        semantic_type: t,
                        entry: ei,
                        form: fi,
                        distance: 0,
                    };
                    let chars: Box<[char]> = lower.chars().collect();
                    if chars.len() >= MIN_FUZZY_LEN {
                        forms.push((chars, hit));
                    }
                    exact.entry(lower).or_default().push(hit);
                }
            }
        }
        for (alias, t, full) in ALIASES {
            if let Some(ei) = entries(*t).iter().position(|e| e.forms[0] == *full) {
                exact.entry(alias.to_string()).or_default().push(Hit {
                    semantic_type: *t,
                    entry: ei,
                    form: 0,
                    distance: 0,
                });
            }
        }
        // Stable, so forms of one length keep their build order.
        forms.sort_by_key(|(chars, _)| chars.len());
        let max_len = forms.last().map_or(0, |(chars, _)| chars.len());
        let len_start = (0..=max_len + 1)
            .map(|l| forms.partition_point(|(chars, _)| chars.len() < l) as u32)
            .collect();
        let mut deletes = Vec::new();
        for (id, (chars, _)) in forms.iter().enumerate() {
            for_each_deletion_hash(chars, MAX_BUDGET, |h| deletes.push((h, id as u32)));
        }
        deletes.sort_unstable();
        deletes.dedup();
        Gazetteer {
            exact,
            forms,
            len_start,
            deletes,
        }
    }

    /// Case-insensitive exact lookup. Multiple hits are possible (e.g.
    /// `New York` is both a city and a state; `May` a month and a name).
    pub fn lookup_exact(&self, query: &str) -> &[Hit] {
        self.exact_lowered(&query.to_lowercase())
    }

    fn exact_lowered(&self, lower: &str) -> &[Hit] {
        self.exact.get(lower).map_or(&[], Vec::as_slice)
    }

    /// Fuzzy lookup with the length-scaled budget: returns the closest hits
    /// (all tied at minimal distance), or the exact hits at distance 0.
    pub fn lookup_fuzzy(&self, query: &str) -> Vec<Hit> {
        self.lookup_fuzzy_counted(query, &mut FuzzyWork::default())
    }

    /// [`Gazetteer::lookup_fuzzy`], adding its work to `work`.
    ///
    /// Exact by the symmetric-delete argument: if `lev(q, f) ≤ k`, deleting
    /// from each side the characters an optimal alignment does not match
    /// leaves a common string, and neither side loses more than `k`. So
    /// every form within the budget shares a ≤`k`-deletion variant with
    /// the query, and its id is among the candidates. Candidates are
    /// verified by the banded DP in id order — the order of a scan over
    /// the length window — so ties come back in scan order.
    pub(crate) fn lookup_fuzzy_counted(&self, query: &str, work: &mut FuzzyWork) -> Vec<Hit> {
        work.lookups += 1;
        let lower = query.to_lowercase();
        let exact = self.exact_lowered(&lower);
        if !exact.is_empty() {
            return exact.to_vec();
        }
        let query: Vec<char> = lower.chars().collect();
        let budget = fuzzy_budget(query.len());
        let window = self.window(query.len(), budget);
        if budget == 0 || window.is_empty() {
            return Vec::new();
        }
        let mut ids: Vec<u32> = Vec::new();
        for_each_deletion_hash(&query, budget, |h| {
            let from = self.deletes.partition_point(|&(key, _)| key < h);
            ids.extend(
                self.deletes[from..]
                    .iter()
                    .take_while(|&&(key, _)| key == h)
                    .map(|&(_, id)| id)
                    .filter(|id| window.contains(id)),
            );
        });
        ids.sort_unstable();
        ids.dedup();
        let mut dp = BandedLevenshtein::default();
        let mut best = usize::MAX;
        let mut hits: Vec<Hit> = Vec::new();
        for id in ids {
            let (form, hit) = &self.forms[id as usize];
            work.compares += 1;
            // A form farther than the best so far cannot join the hits.
            if let Some(d) = dp.within(&query, form, budget.min(best)) {
                if d > 0 && d < best {
                    best = d;
                    hits.clear();
                }
                if d > 0 && d == best {
                    hits.push(Hit {
                        distance: d,
                        ..*hit
                    });
                }
            }
        }
        hits
    }

    /// Ids of the fuzzy-matchable forms within `budget` of `len` chars.
    fn window(&self, len: usize, budget: usize) -> std::ops::Range<u32> {
        let start = |l: usize| self.len_start[l.min(self.len_start.len() - 1)];
        start(len.saturating_sub(budget))..start(len + budget + 1)
    }

    /// Fuzzy lookup restricted to one semantic type.
    pub fn lookup_fuzzy_typed(&self, query: &str, t: SemanticType) -> Vec<Hit> {
        self.lookup_fuzzy(query)
            .into_iter()
            .filter(|h| h.semantic_type == t)
            .collect()
    }

    /// All entries for a type (passthrough to the static data).
    pub fn entries(&self, t: SemanticType) -> &'static [Entry] {
        entries(t)
    }
}

impl Default for Gazetteer {
    fn default() -> Self {
        Gazetteer::new()
    }
}

/// Calls `f` with the hash of every variant of `chars` left after
/// deleting at most `k ≤ 2` characters (a variant reachable by several
/// deletion sets is hashed once per set). Hash collisions only add
/// candidates the DP then rejects, so lookups stay exact.
fn for_each_deletion_hash(chars: &[char], k: usize, mut f: impl FnMut(u64)) {
    debug_assert!(k <= MAX_BUDGET);
    let n = chars.len();
    let hash_without = |i: usize, j: usize| {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (p, &c) in chars.iter().enumerate() {
            if p != i && p != j {
                h = (h ^ u64::from(c)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    };
    f(hash_without(n, n));
    if k == 0 {
        return;
    }
    for i in 0..n {
        f(hash_without(i, n));
        if k >= 2 {
            for j in i + 1..n {
                f(hash_without(i, j));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datavinci_regex::levenshtein_within;
    use std::sync::OnceLock;

    /// The linear scan the deletion index replaced: every form in the
    /// ±budget length window, grouped by length in build order, compared
    /// with the query one by one.
    struct LinearScan {
        by_len: Vec<Vec<(String, Hit)>>,
    }

    impl LinearScan {
        fn new() -> LinearScan {
            let mut by_len: Vec<Vec<(String, Hit)>> = Vec::new();
            for t in SemanticType::ALL {
                for (ei, Entry { forms }) in entries(t).iter().enumerate() {
                    for (fi, form) in forms.iter().enumerate() {
                        let lower = form.to_lowercase();
                        let len = lower.chars().count();
                        if by_len.len() <= len {
                            by_len.resize(len + 1, Vec::new());
                        }
                        let hit = Hit {
                            semantic_type: t,
                            entry: ei,
                            form: fi,
                            distance: 0,
                        };
                        by_len[len].push((lower, hit));
                    }
                }
            }
            LinearScan { by_len }
        }

        /// `lookup_fuzzy` by the scan, plus the number of forms in the
        /// scanned window.
        fn lookup(&self, g: &Gazetteer, query: &str) -> (Vec<Hit>, u64) {
            let exact = g.lookup_exact(query);
            if !exact.is_empty() {
                return (exact.to_vec(), 0);
            }
            let lower = query.to_lowercase();
            let qlen = lower.chars().count();
            let budget = fuzzy_budget(qlen);
            if budget == 0 {
                return (Vec::new(), 0);
            }
            let (mut best, mut hits, mut window) = (usize::MAX, Vec::new(), 0);
            let hi = (qlen + budget).min(self.by_len.len().saturating_sub(1));
            for len in qlen.saturating_sub(budget)..=hi {
                if len < MIN_FUZZY_LEN {
                    continue;
                }
                for (form, hit) in &self.by_len[len] {
                    window += 1;
                    if let Some(d) = levenshtein_within(&lower, form, budget) {
                        if d > 0 && d < best {
                            best = d;
                            hits.clear();
                        }
                        if d > 0 && d == best {
                            hits.push(Hit {
                                distance: d,
                                ..*hit
                            });
                        }
                    }
                }
            }
            (hits, window)
        }
    }

    fn fixtures() -> &'static (Gazetteer, LinearScan) {
        static FIXTURES: OnceLock<(Gazetteer, LinearScan)> = OnceLock::new();
        FIXTURES.get_or_init(|| (Gazetteer::new(), LinearScan::new()))
    }

    /// Asserts the index answers `query` exactly as the scan does, typed
    /// lookups included, with no more DPs than the scan's window.
    fn assert_matches_scan(query: &str) {
        let (g, scan) = fixtures();
        let (expected, window) = scan.lookup(g, query);
        let mut work = FuzzyWork::default();
        assert_eq!(
            g.lookup_fuzzy_counted(query, &mut work),
            expected,
            "{query:?}"
        );
        assert_eq!(work.lookups, 1);
        assert!(
            work.compares <= window,
            "{query:?}: {} DPs, window {window}",
            work.compares
        );
        for t in SemanticType::ALL {
            let typed: Vec<Hit> = expected
                .iter()
                .filter(|h| h.semantic_type == t)
                .copied()
                .collect();
            assert_eq!(g.lookup_fuzzy_typed(query, t), typed, "{query:?} as {t:?}");
        }
    }

    /// Letters of both cases, digits, the separators spans see, and
    /// multibyte characters (`İ` lowercases to two chars).
    const ALPHABET: &[char] = &[
        'a', 'e', 'i', 'n', 'o', 'r', 's', 't', 'x', 'z', 'A', 'N', 'S', '0', '1', '3', ' ', '.',
        '-', 'é', 'ü', 'ß', 'İ',
    ];

    fn all_forms() -> Vec<&'static str> {
        SemanticType::ALL
            .into_iter()
            .flat_map(|t| entries(t).iter().flat_map(|e| e.forms.iter().copied()))
            .collect()
    }

    /// Applies `(op, position, char)` edits: 0 inserts, 1 deletes, 2
    /// substitutes.
    fn edit(form: &str, edits: &[(u8, usize, usize)]) -> Vec<char> {
        let mut chars: Vec<char> = form.chars().collect();
        for &(op, pos, c) in edits {
            let c = ALPHABET[c % ALPHABET.len()];
            match op {
                0 => chars.insert(pos % (chars.len() + 1), c),
                _ if chars.is_empty() => {}
                1 => {
                    chars.remove(pos % chars.len());
                }
                _ => {
                    let at = pos % chars.len();
                    chars[at] = c;
                }
            }
        }
        chars
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(2048))]

        /// The deletion index returns exactly the scan's hits, in the
        /// scan's order, for typos of real forms, for forms cut or padded
        /// to the budget boundaries (3/4 and 7/8 chars), and for random
        /// strings.
        #[test]
        fn indexed_lookup_equals_linear_scan(
            pick in 0usize..100_000,
            edits in proptest::collection::vec((0u8..3, 0usize..64, 0usize..64), 0..4),
            shape in 0usize..6,
            noise in proptest::collection::vec(0usize..64, 0..21),
        ) {
            let forms = all_forms();
            let mut chars = edit(forms[pick % forms.len()], &edits);
            let noise: Vec<char> = noise.iter().map(|&c| ALPHABET[c % ALPHABET.len()]).collect();
            match shape {
                0..=3 => {
                    let target = [3, 4, 7, 8][shape];
                    chars.truncate(target);
                    chars.extend(noise.iter().cycle().take(target - chars.len()));
                }
                4 => {}
                _ => chars = noise,
            }
            let query: String = chars.into_iter().collect();
            assert_matches_scan(&query);
        }
    }

    #[test]
    fn every_form_and_its_boundary_cuts_match_the_scan() {
        for form in all_forms() {
            assert_matches_scan(form);
            let chars: Vec<char> = form.chars().collect();
            for cut in [3, 4, 5, 7, 8, 9] {
                if chars.len() > cut {
                    let prefix: String = chars[..cut].iter().collect();
                    assert_matches_scan(&prefix);
                }
            }
        }
    }

    #[test]
    fn index_covers_every_fuzzy_form_and_no_code() {
        let g = Gazetteer::new();
        assert!(g.forms.iter().all(|(f, _)| f.len() >= MIN_FUZZY_LEN));
        assert!(g.forms.windows(2).all(|w| w[0].0.len() <= w[1].0.len()));
        assert!(g.deletes.windows(2).all(|w| w[0] < w[1]));
        let ids: std::collections::BTreeSet<u32> = g.deletes.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids.len(), g.forms.len());
        assert!((0..64).all(|len| fuzzy_budget(len) <= MAX_BUDGET));
    }

    #[test]
    fn exact_lookup_is_case_insensitive() {
        let g = Gazetteer::new();
        let hits = g.lookup_exact("usa");
        assert!(hits
            .iter()
            .any(|h| h.semantic_type == SemanticType::Country && h.form_text() == "USA"));
        let hits = g.lookup_exact("BOSTON");
        assert!(hits.iter().any(|h| h.semantic_type == SemanticType::City));
    }

    #[test]
    fn fuzzy_repairs_typos() {
        let g = Gazetteer::new();
        // bleu → blue (distance 2 ≤ budget 1? "bleu" has 4 chars → budget 1).
        // Transposition costs 2 under plain Levenshtein, so use a clearer
        // case first:
        let hits = g.lookup_fuzzy("Birminxham");
        assert!(hits
            .iter()
            .any(|h| h.form_text() == "Birmingham" && h.distance == 1));
        let hits = g.lookup_fuzzy("Nevad");
        assert!(hits
            .iter()
            .any(|h| h.semantic_type == SemanticType::State && h.form_text() == "Nevada"));
    }

    #[test]
    fn short_codes_never_fuzzy_match() {
        let g = Gazetteer::new();
        assert!(g.lookup_fuzzy("XQ").is_empty());
        // "PR0" (digit zero) must not fuzz onto 3-letter code "PRO".
        assert!(g.lookup_fuzzy("PR0").is_empty());
    }

    #[test]
    fn fuzzy_returns_minimal_distance_ties() {
        let g = Gazetteer::new();
        let hits = g.lookup_fuzzy("Pariss");
        assert!(!hits.is_empty());
        let d = hits[0].distance;
        assert!(hits.iter().all(|h| h.distance == d));
        assert!(hits.iter().any(|h| h.form_text() == "Paris"));
    }

    #[test]
    fn typed_filter() {
        let g = Gazetteer::new();
        // "May" is a month; restrict to FirstName → no hit expected since
        // May is not in our first-name list.
        let hits = g.lookup_fuzzy_typed("May", SemanticType::Month);
        assert!(!hits.is_empty());
        let hits = g.lookup_fuzzy_typed("May", SemanticType::Color);
        assert!(hits.is_empty());
    }

    #[test]
    fn entry_form_access() {
        let g = Gazetteer::new();
        let hit = g.lookup_exact("usa")[0];
        assert_eq!(hit.entry_form(0), Some("United States"));
        assert_eq!(hit.entry_form(1), Some("US"));
        assert_eq!(hit.entry_form(9), None);
    }

    #[test]
    fn ambiguous_surfaces_return_all_types() {
        let g = Gazetteer::new();
        let hits = g.lookup_exact("new york");
        let types: Vec<SemanticType> = hits.iter().map(|h| h.semantic_type).collect();
        assert!(types.contains(&SemanticType::City));
        assert!(types.contains(&SemanticType::State));
    }
}
