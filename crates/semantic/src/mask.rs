//! The semantic abstraction driver: column → masked column (and back).
//!
//! Orchestrates the paper's §3.2 flow: build Figure-3 prompts in batches,
//! call the language model, parse the `{type(suggestion)}` syntax into
//! [`MaskedString`]s over mask tokens, and record per-row occurrences so
//! repaired masked values can be *re-concretized* into plain strings.
//!
//! The abstraction is distinct-keyed: each distinct response line is
//! parsed once into a [`MaskedValue`], rows refer to it by index, and the
//! lines' masked strings are interned once more, by value, into the
//! column's [`MaskedPool`].

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::llm::LanguageModel;
use crate::prompt::{build_prompts_after, preamble};
use crate::types::SemanticType;
use datavinci_profile::MaskedPool;
use datavinci_regex::{MaskAlphabet, MaskId, MaskedString, Tok};
use datavinci_telemetry as telemetry;

/// One mask occurrence within a value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MaskOccurrence {
    /// The mask symbol (one per semantic type within a column).
    pub mask: MaskId,
    /// The semantic type.
    pub semantic_type: SemanticType,
    /// The LLM's (possibly repaired) replacement text for this occurrence.
    pub suggestion: String,
}

/// One abstracted value: the masked string plus its mask occurrences in
/// left-to-right order.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct MaskedValue {
    /// The masked string the pattern engine sees.
    pub masked: MaskedString,
    /// Occurrences, aligned with the mask tokens in `masked`.
    pub occurrences: Vec<MaskOccurrence>,
}

/// A fully abstracted column, interned at two levels.
///
/// [`SemanticAbstractor::abstract_column`] parses each distinct model
/// response line once, in first-occurrence order, so two rows share a
/// line exactly when the model answered them alike; a line keeps its mask
/// occurrences. The lines' masked strings go into the column's
/// [`MaskedPool`], one per distinct string: lines that mask alike
/// (`{City(Boston)}`, `{City(Seattle)}`) share one. The fields are private
/// so that the two levels always agree.
#[derive(Debug, Clone, Default)]
pub struct AbstractedColumn {
    /// The mask occurrences of each distinct line.
    lines: Vec<Vec<MaskOccurrence>>,
    row_to_line: Vec<u32>,
    masked: MaskedPool,
    /// Mask-symbol names (semantic type display names).
    pub alphabet: MaskAlphabet,
    /// Column-level default suggestion per mask symbol (majority), used to
    /// concretize masks *inserted* by repairs.
    pub defaults: HashMap<MaskId, String>,
}

impl AbstractedColumn {
    /// Splits parsed lines into their occurrences and the masked pool.
    fn assemble(
        lines: Vec<MaskedValue>,
        row_to_line: Vec<u32>,
        alphabet: MaskAlphabet,
        defaults: HashMap<MaskId, String>,
    ) -> AbstractedColumn {
        let (masked, lines): (Vec<_>, Vec<_>) =
            lines.into_iter().map(|v| (v.masked, v.occurrences)).unzip();
        AbstractedColumn {
            masked: MaskedPool::from_lines(masked, &row_to_line),
            lines,
            row_to_line,
            alphabet,
            defaults,
        }
    }

    /// Abstraction that performs no masking (the "no semantic abstraction"
    /// ablation of paper §5.4.1, and the fast path for mask-free columns).
    pub fn plain<S: AsRef<str>>(values: &[S]) -> AbstractedColumn {
        let pool = crate::intern::intern_values(values);
        let lines = pool
            .distinct
            .iter()
            .map(|v| MaskedValue {
                masked: MaskedString::from_plain(v),
                occurrences: Vec::new(),
            })
            .collect();
        let row_to_line = pool.row_to_distinct.iter().map(|&d| d as u32).collect();
        AbstractedColumn::assemble(lines, row_to_line, MaskAlphabet::new(), HashMap::new())
    }

    /// An abstraction from one value per row, interned by value (the
    /// store's decode path; it writes one value per row).
    pub fn from_rows(
        rows: Vec<MaskedValue>,
        alphabet: MaskAlphabet,
        defaults: HashMap<MaskId, String>,
    ) -> AbstractedColumn {
        let mut index: HashMap<MaskedValue, u32> = HashMap::new();
        let mut lines = Vec::new();
        let row_to_line = rows
            .into_iter()
            .map(|v| match index.entry(v) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    lines.push(e.key().clone());
                    *e.insert(lines.len() as u32 - 1)
                }
            })
            .collect();
        AbstractedColumn::assemble(lines, row_to_line, alphabet, defaults)
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.row_to_line.len()
    }

    /// Number of distinct response lines.
    pub fn n_lines(&self) -> usize {
        self.lines.len()
    }

    /// Index of row `row`'s line; rows with one line share its masked
    /// string and mask occurrences.
    ///
    /// # Panics
    /// When `row` is out of range.
    pub fn line_index(&self, row: usize) -> usize {
        self.row_to_line[row] as usize
    }

    /// Row `row`'s mask occurrences, aligned with the mask tokens of its
    /// masked string.
    ///
    /// # Panics
    /// When `row` is out of range.
    pub fn occurrences(&self, row: usize) -> &[MaskOccurrence] {
        &self.lines[self.line_index(row)]
    }

    /// The column's distinct masked strings, what profiling, detection and
    /// repair read (row `r`'s is `masked_pool().value(r)`).
    pub fn masked_pool(&self) -> &MaskedPool {
        &self.masked
    }

    /// Did abstraction produce any masks at all?
    pub fn has_masks(&self) -> bool {
        self.lines.iter().any(|occurrences| !occurrences.is_empty())
    }

    /// The masked strings, copied out in row order.
    #[cfg(test)]
    fn masked_strings(&self) -> Vec<MaskedString> {
        (0..self.n_rows())
            .map(|r| self.masked.value(r).clone())
            .collect()
    }

    /// Concretizes a (possibly repaired) masked string for row `row`:
    /// mask tokens are replaced by that row's occurrence suggestions in
    /// order; extra (repair-inserted) masks fall back to the column default.
    pub fn concretize(&self, row: usize, repaired: &MaskedString) -> String {
        let occurrences = self
            .row_to_line
            .get(row)
            .map(|&l| self.lines[l as usize].as_slice())
            .unwrap_or(&[]);
        concretize_with(occurrences, &self.defaults, repaired)
    }
}

/// Replaces `repaired`'s mask tokens by `occurrences`' suggestions, the
/// n-th mask of an id taking the n-th occurrence of that id; masks beyond
/// the occurrences take `defaults`, and `U+FFFD` without a default.
fn concretize_with(
    occurrences: &[MaskOccurrence],
    defaults: &HashMap<MaskId, String>,
    repaired: &MaskedString,
) -> String {
    let toks = repaired.toks();
    let mut out = String::new();
    for (i, tok) in toks.iter().enumerate() {
        match tok {
            Tok::Char(c) => out.push(*c),
            Tok::Mask(id) => {
                // This mask's rank among its id's masks. A cell holds few
                // masks, so counting the earlier ones is cheap and needs no
                // allocation.
                let k = toks[..i].iter().filter(|&t| t == tok).count();
                let nth = occurrences
                    .iter()
                    .filter(|o| o.mask == *id)
                    .nth(k)
                    .map(|o| o.suggestion.as_str());
                match nth.or_else(|| defaults.get(id).map(String::as_str)) {
                    Some(text) => out.push_str(text),
                    None => out.push('\u{FFFD}'),
                }
            }
        }
    }
    out
}

/// The abstraction engine: an LLM behind the Figure-3 prompt.
pub struct SemanticAbstractor<L: LanguageModel> {
    llm: L,
    mask_types: Vec<SemanticType>,
    /// The Figure-3 preamble over `mask_types`, rendered once.
    preamble: String,
}

impl<L: LanguageModel> SemanticAbstractor<L> {
    /// Wraps a language model with the default maskable-type set.
    pub fn new(llm: L) -> Self {
        let mask_types: Vec<SemanticType> = SemanticType::ALL
            .into_iter()
            .filter(|t| !matches!(t, SemanticType::Category | SemanticType::Gender))
            .collect();
        SemanticAbstractor {
            llm,
            preamble: preamble(&mask_types),
            mask_types,
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &L {
        &self.llm
    }

    /// The maskable types the prompt lists.
    pub fn mask_types(&self) -> &[SemanticType] {
        &self.mask_types
    }

    /// Abstracts a column: prompts the model batch-wise, parses masks.
    ///
    /// The prompts are byte-identical to
    /// [`build_prompts`](crate::prompt::build_prompts)`(header, values,
    /// self.mask_types())`. Each distinct response line is parsed once,
    /// keyed by the line rather than the input value (batches can mask one
    /// value differently); a row the response has no line for is parsed
    /// from its own value. Mask ids are interned in first-occurrence row
    /// order, and the column defaults are voted once per distinct line,
    /// weighted by its row count — the same result as parsing and voting
    /// every row.
    pub fn abstract_column(&self, header: &str, values: &[String]) -> AbstractedColumn {
        let batches = build_prompts_after(&self.preamble, header, values);
        let responses: Vec<String> = batches
            .iter()
            .map(|batch| {
                let _span = telemetry::span("mask.complete");
                self.llm.complete(&batch.prompt)
            })
            .collect();

        let _span = telemetry::span("mask.parse");
        let mut parser = LineParser::default();
        let mut ids: HashMap<&str, u32> = HashMap::with_capacity(values.len());
        let mut lines: Vec<MaskedValue> = Vec::new();
        let mut counts: Vec<usize> = Vec::with_capacity(values.len());
        let mut row_to_line = vec![0u32; values.len()];
        for (batch, response) in batches.iter().zip(&responses) {
            let mut response_lines = response.lines();
            for &row in &batch.rows {
                let line = response_lines.next().unwrap_or(values[row].as_str());
                let id = match ids.entry(line) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        lines.push(parser.parse(line));
                        counts.push(0);
                        *e.insert(lines.len() as u32 - 1)
                    }
                };
                counts[id as usize] += 1;
                row_to_line[row] = id;
            }
        }
        telemetry::counter("mask.lines_parsed", lines.len() as u64);
        let defaults = vote_defaults(&lines, &counts);
        AbstractedColumn::assemble(lines, row_to_line, parser.alphabet, defaults)
    }
}

/// Column defaults: per mask symbol, the suggestion with the most rows
/// (ties to the shorter, then the greater text). `counts[l]` is the number
/// of rows carrying `lines[l]`.
fn vote_defaults(lines: &[MaskedValue], counts: &[usize]) -> HashMap<MaskId, String> {
    let mut votes: HashMap<(MaskId, &str), usize> = HashMap::new();
    for (v, &count) in lines.iter().zip(counts) {
        for o in &v.occurrences {
            *votes.entry((o.mask, o.suggestion.as_str())).or_insert(0) += count;
        }
    }
    // The key is a total order over one mask's texts, so the map's
    // iteration order cannot change the winner.
    fn key(count: usize, text: &str) -> (usize, std::cmp::Reverse<usize>, &str) {
        (count, std::cmp::Reverse(text.len()), text)
    }
    let mut best: HashMap<MaskId, (usize, &str)> = HashMap::new();
    for ((id, text), count) in votes {
        match best.entry(id) {
            Entry::Vacant(e) => {
                e.insert((count, text));
            }
            Entry::Occupied(mut e) => {
                let (c, t) = *e.get();
                if key(count, text) > key(c, t) {
                    e.insert((count, text));
                }
            }
        }
    }
    best.into_iter()
        .map(|(id, (_, text))| (id, text.to_string()))
        .collect()
}

/// Parses response lines into masked values over one alphabet, interning
/// each semantic type's mask id once.
#[derive(Default)]
struct LineParser {
    alphabet: MaskAlphabet,
    ids: [Option<MaskId>; SemanticType::ALL.len()],
}

impl LineParser {
    fn parse(&mut self, text: &str) -> MaskedValue {
        let mut toks: Vec<Tok> = Vec::with_capacity(text.len());
        let mut occurrences = Vec::new();
        let mut rest = text;
        while let Some(brace) = rest.find('{') {
            toks.extend(rest[..brace].chars().map(Tok::Char));
            let after = &rest[brace + 1..];
            match parse_mask(after) {
                Some((semantic_type, suggestion, len)) => {
                    let alphabet = &mut self.alphabet;
                    let id = *self.ids[semantic_type as usize]
                        .get_or_insert_with(|| alphabet.intern(&semantic_type.display_name()));
                    toks.push(Tok::Mask(id));
                    occurrences.push(MaskOccurrence {
                        mask: id,
                        semantic_type,
                        suggestion: suggestion.to_string(),
                    });
                    rest = &after[len..];
                }
                None => {
                    toks.push(Tok::Char('{'));
                    rest = after;
                }
            }
        }
        toks.extend(rest.chars().map(Tok::Char));
        MaskedValue {
            masked: MaskedString::from_toks(toks),
            occurrences,
        }
    }
}

/// Parses one `{type(suggestion)}`-syntax line into a masked value.
///
/// Malformed mask syntax degrades gracefully to literal characters — a
/// hosted LLM can always produce junk, and junk must not panic a cleaner.
pub fn parse_masked_value(text: &str, alphabet: &mut MaskAlphabet) -> MaskedValue {
    let mut parser = LineParser {
        alphabet: std::mem::take(alphabet),
        ids: Default::default(),
    };
    let value = parser.parse(text);
    *alphabet = parser.alphabet;
    value
}

/// Parses `name(suggestion)}` — the text after a mask's `{` — into the
/// type, the suggestion, and the byte length through the closing `}`. The
/// name runs to the first `(` and the suggestion to the first `)}` after
/// it (suggestions never contain that two-char sequence).
fn parse_mask(after: &str) -> Option<(SemanticType, &str, usize)> {
    let open = after.find('(')?;
    let semantic_type = SemanticType::parse(&after[..open])?;
    let body = &after[open + 1..];
    let close = body.find(")}")?;
    Some((semantic_type, &body[..close], open + 1 + close + 2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::llm::GazetteerLlm;

    fn abstractor() -> SemanticAbstractor<GazetteerLlm> {
        SemanticAbstractor::new(GazetteerLlm::new())
    }

    fn col(values: &[&str]) -> AbstractedColumn {
        abstractor().abstract_column(
            "col",
            &values.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn parse_masked_value_basic() {
        let mut alpha = MaskAlphabet::new();
        let v = parse_masked_value("{country(US)}_837", &mut alpha);
        assert_eq!(v.masked.len(), 5); // mask + _ + 8 + 3 + 7
        assert_eq!(v.occurrences.len(), 1);
        assert_eq!(v.occurrences[0].suggestion, "US");
        assert_eq!(v.occurrences[0].semantic_type, SemanticType::Country);
        assert_eq!(alpha.name(v.occurrences[0].mask), Some("Country"));
    }

    #[test]
    fn parse_malformed_masks_as_literals() {
        let mut alpha = MaskAlphabet::new();
        let v = parse_masked_value("{oops}x", &mut alpha);
        assert!(v.occurrences.is_empty());
        assert_eq!(v.masked.to_plain().as_deref(), Some("{oops}x"));
        let v2 = parse_masked_value("{country(US}", &mut alpha);
        assert!(v2.occurrences.is_empty());
    }

    #[test]
    fn figure2_abstraction_end_to_end() {
        let c = col(&[
            "Ind-674-PRO",
            "usa_837",
            "Alg-173-PRO",
            "US-201-QUA",
            "Chn-924-QUA",
            "FR-475-PRO",
        ]);
        assert!(c.has_masks());
        // Row 1 (usa_837): one country mask, suggestion normalized by the
        // column's majority form.
        let occurrences = c.occurrences(1);
        assert_eq!(occurrences.len(), 1);
        assert_eq!(occurrences[0].semantic_type, SemanticType::Country);
        // The masked string is ⟨Country⟩_837.
        let masked = c.masked_pool().value(1);
        assert_eq!(masked.render(&c.alphabet), "⟨Country⟩_837");
    }

    #[test]
    fn concretize_replaces_masks_in_order() {
        let c = col(&["US-1-FR", "DE-2-IT", "GB-3-ES", "FR-4-US"]);
        assert_eq!(c.occurrences(0).len(), 2);
        let plain = c.concretize(0, c.masked_pool().value(0));
        assert_eq!(plain, "US-1-FR");
    }

    #[test]
    fn concretize_inserted_mask_uses_column_default() {
        let c = col(&["US-1", "US-2", "US-3", "FR-4"]);
        let id = c.occurrences(0)[0].mask;
        // A repaired value that *inserts* an extra mask beyond row 0's one
        // occurrence: [mask, '-', mask].
        let repaired = MaskedString::from_toks(vec![Tok::Mask(id), Tok::Char('-'), Tok::Mask(id)]);
        let plain = c.concretize(0, &repaired);
        // First mask → row suggestion (US), second → column majority (US).
        assert_eq!(plain, "US-US");
    }

    #[test]
    fn concretize_takes_each_ids_occurrences_in_order() {
        let (a, b) = (MaskId(0), MaskId(1));
        let occ = |mask, text: &str| MaskOccurrence {
            mask,
            semantic_type: SemanticType::City,
            suggestion: text.into(),
        };
        // Interleaved ids: `{A}{B}{A}` with occurrences A1, B1, A2.
        let occurrences = [occ(a, "a1"), occ(b, "b1"), occ(a, "a2")];
        let masked = |toks: &[Tok]| MaskedString::from_toks(toks.to_vec());
        let aba = masked(&[Tok::Mask(a), Tok::Char('-'), Tok::Mask(b), Tok::Mask(a)]);
        let none = HashMap::new();
        assert_eq!(concretize_with(&occurrences, &none, &aba), "a1-b1a2");
        // Masks beyond an id's occurrences take its default, and U+FFFD
        // without one.
        let defaults = HashMap::from([(a, "A".to_string())]);
        let extra = masked(&[
            Tok::Mask(a),
            Tok::Mask(b),
            Tok::Mask(a),
            Tok::Mask(a),
            Tok::Mask(b),
        ]);
        assert_eq!(
            concretize_with(&occurrences, &defaults, &extra),
            "a1b1a2A\u{FFFD}"
        );
        assert_eq!(
            concretize_with(&occurrences, &none, &extra),
            "a1b1a2\u{FFFD}\u{FFFD}"
        );
        // An id without occurrences starts at its default.
        let c = MaskId(2);
        let defaults = HashMap::from([(c, "C".to_string())]);
        let cc = masked(&[Tok::Mask(c), Tok::Char('x'), Tok::Mask(c)]);
        assert_eq!(concretize_with(&occurrences, &defaults, &cc), "CxC");
    }

    #[test]
    fn plain_abstraction_never_masks() {
        let c = AbstractedColumn::plain(&["US-1", "FR-2"]);
        assert!(!c.has_masks());
        let masked = c.masked_pool().value(0);
        assert_eq!(masked.to_plain().as_deref(), Some("US-1"));
        assert_eq!(c.concretize(0, masked), "US-1");
    }

    #[test]
    fn masked_strings_align_with_rows() {
        let c = col(&["red 1", "green 2", "blue 3"]);
        let strings = c.masked_strings();
        assert_eq!(strings.len(), 3);
        assert!(strings.iter().all(|s| s.has_masks()));
    }

    #[test]
    fn duplicate_lines_share_one_distinct_value() {
        let c = col(&["US-1", "FR-2", "US-1", "US-1", "FR-2"]);
        assert_eq!(c.n_lines(), 2);
        let lines: Vec<usize> = (0..c.n_rows()).map(|r| c.line_index(r)).collect();
        assert_eq!(lines, [0, 1, 0, 0, 1]);
        assert_eq!(c.n_rows(), 5);
        assert_eq!(c.masked_pool().n_rows(), 5);
        assert_eq!(c.masked_pool().n_distinct(), 2);
    }

    /// Row `row`'s value, copied out.
    fn row_value(c: &AbstractedColumn, row: usize) -> MaskedValue {
        MaskedValue {
            masked: c.masked_pool().value(row).clone(),
            occurrences: c.occurrences(row).to_vec(),
        }
    }

    fn rows_of(c: &AbstractedColumn) -> Vec<MaskedValue> {
        (0..c.n_rows()).map(|r| row_value(c, r)).collect()
    }

    #[test]
    fn from_rows_interns_equal_values() {
        let c = col(&["US-1", "FR-2", "US-1", "usa-1"]);
        let back = AbstractedColumn::from_rows(rows_of(&c), c.alphabet.clone(), c.defaults.clone());
        // `US-1` and `usa-1` both mask to `{country(US)}-1`.
        assert_eq!(back.n_lines(), 2);
        for row in 0..c.n_rows() {
            assert_eq!(row_value(&back, row), row_value(&c, row));
        }
    }

    // -------------------------------------------------------- masked pool

    /// Asserts the column's masked pool equals the profiler's per-row
    /// reference pool: distinct strings in first-occurrence order, the row
    /// ids and the counts.
    fn assert_pool_matches_rows(c: &AbstractedColumn) {
        assert_eq!(c.masked_pool(), &MaskedPool::new(&c.masked_strings()));
    }

    /// `plain` over the raw values, and `from_rows` over `c`'s rows, build
    /// pools equal to the reference pool; `from_rows` reproduces `c`'s.
    fn assert_other_pools_match_rows(c: &AbstractedColumn, values: &[String]) {
        assert_pool_matches_rows(&AbstractedColumn::plain(values));
        let back = AbstractedColumn::from_rows(rows_of(c), c.alphabet.clone(), c.defaults.clone());
        assert_pool_matches_rows(&back);
        assert_eq!(back.masked_pool(), c.masked_pool());
    }

    #[test]
    fn lines_sharing_a_masked_string_share_it() {
        let mut alphabet = MaskAlphabet::new();
        let boston = parse_masked_value("{city(Boston)}-1", &mut alphabet);
        let seattle = parse_masked_value("{city(Seattle)}-1", &mut alphabet);
        let other = parse_masked_value("x", &mut alphabet);
        assert_eq!(boston.masked, seattle.masked);
        let rows = vec![
            other.clone(),
            seattle.clone(),
            boston.clone(),
            seattle,
            other,
            boston,
        ];
        let c = AbstractedColumn::from_rows(rows, alphabet, HashMap::new());
        assert_eq!(c.n_lines(), 3);
        let pool = c.masked_pool();
        assert_eq!(pool.n_distinct(), 2);
        let ids: Vec<usize> = (0..c.n_rows()).map(|r| pool.distinct_index(r)).collect();
        assert_eq!(ids, [0, 1, 1, 1, 0, 1]);
        // The lines keep their own suggestions.
        assert_eq!(c.occurrences(1)[0].suggestion, "Seattle");
        assert_eq!(c.occurrences(2)[0].suggestion, "Boston");
        assert_pool_matches_rows(&c);
    }

    // ---------------------------------------------------------- oracles

    /// The per-row abstraction the distinct-keyed path replaced: every row
    /// parses its own line with the char-based parser, and the defaults
    /// are voted row by row.
    struct RowwiseColumn {
        values: Vec<MaskedValue>,
        alphabet: MaskAlphabet,
        defaults: HashMap<MaskId, String>,
    }

    impl RowwiseColumn {
        /// Row `row`'s own occurrences, looked up per row.
        fn concretize(&self, row: usize, repaired: &MaskedString) -> String {
            let occurrences = self
                .values
                .get(row)
                .map(|v| v.occurrences.as_slice())
                .unwrap_or(&[]);
            concretize_with(occurrences, &self.defaults, repaired)
        }
    }

    fn abstract_column_rowwise<L: LanguageModel>(
        abstractor: &SemanticAbstractor<L>,
        header: &str,
        values: &[String],
    ) -> RowwiseColumn {
        let batches = crate::prompt::build_prompts(header, values, &abstractor.mask_types);
        let mut alphabet = MaskAlphabet::new();
        let mut out: Vec<MaskedValue> = vec![MaskedValue::default(); values.len()];
        for batch in batches {
            let response = abstractor.llm.complete(&batch.prompt);
            let lines: Vec<&str> = response.lines().collect();
            for (k, &row) in batch.rows.iter().enumerate() {
                let masked_text = lines.get(k).copied().unwrap_or(values[row].as_str());
                out[row] = parse_masked_value_chars(masked_text, &mut alphabet);
            }
        }
        let mut votes: HashMap<MaskId, HashMap<&str, usize>> = HashMap::new();
        for v in &out {
            for o in &v.occurrences {
                *votes
                    .entry(o.mask)
                    .or_default()
                    .entry(o.suggestion.as_str())
                    .or_insert(0) += 1;
            }
        }
        let defaults: HashMap<MaskId, String> = votes
            .into_iter()
            .filter_map(|(id, v)| {
                v.into_iter()
                    .max_by_key(|&(text, count)| (count, std::cmp::Reverse(text.len()), text))
                    .map(|(text, _)| (id, text.to_string()))
            })
            .collect();
        RowwiseColumn {
            values: out,
            alphabet,
            defaults,
        }
    }

    /// The char-vector parser [`parse_masked_value`] replaced.
    fn parse_masked_value_chars(text: &str, alphabet: &mut MaskAlphabet) -> MaskedValue {
        let chars: Vec<char> = text.chars().collect();
        let mut masked = MaskedString::default();
        let mut occurrences = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            if chars[i] == '{' {
                if let Some((semantic_type, suggestion, end)) = parse_mask_at_chars(&chars, i) {
                    let id = alphabet.intern(&semantic_type.display_name());
                    masked.push(Tok::Mask(id));
                    occurrences.push(MaskOccurrence {
                        mask: id,
                        semantic_type,
                        suggestion,
                    });
                    i = end;
                    continue;
                }
            }
            masked.push(Tok::Char(chars[i]));
            i += 1;
        }
        MaskedValue {
            masked,
            occurrences,
        }
    }

    fn parse_mask_at_chars(chars: &[char], start: usize) -> Option<(SemanticType, String, usize)> {
        let open = chars[start + 1..].iter().position(|&c| c == '(')? + start + 1;
        let name: String = chars[start + 1..open].iter().collect();
        let semantic_type = SemanticType::parse(&name)?;
        let mut j = open + 1;
        while j + 1 < chars.len() {
            if chars[j] == ')' && chars[j + 1] == '}' {
                let suggestion: String = chars[open + 1..j].iter().collect();
                return Some((semantic_type, suggestion, j + 2));
            }
            j += 1;
        }
        None
    }

    // ------------------------------------------------------- stub models

    /// Lines a misbehaving model might answer with: malformed mask
    /// syntax, unknown types, and multibyte chars next to `{`, `(`, `)}`.
    const JUNK: &[&str] = &[
        "{country(US}",
        "{oops}x",
        "{country(日本)}-é",
        "é{country(US)}é",
        "{city(a(b)}",
        "{(x)}",
        "{country()}",
        "}{",
        "{{country(US)}",
        "{country(ñ)}{color(红)}",
        "{country(US)}}",
        "(é)}{",
        "{colour(red)}",
        "",
        "{country(US)",
        "x{country(FR)}-{country(DE)}-{city(Paris)})}",
    ];

    /// How [`StubLlm`] distorts the gazetteer model's answers.
    #[derive(Debug, Clone, Copy)]
    enum Distortion {
        /// The gazetteer model's answer, unchanged.
        None,
        /// Only the first half of the lines.
        TooFew,
        /// Every third line replaced by junk.
        Junk,
        /// Each batch masks a fresh suffix, so equal values mask
        /// differently in different batches.
        PerBatch,
        /// Extra trailing lines.
        TooMany,
        /// An empty response.
        Empty,
        /// CRLF line endings.
        Crlf,
    }

    struct StubLlm {
        inner: GazetteerLlm,
        distortion: Distortion,
        calls: std::cell::Cell<usize>,
    }

    impl StubLlm {
        fn new(distortion: Distortion) -> StubLlm {
            StubLlm {
                inner: GazetteerLlm::new(),
                distortion,
                calls: std::cell::Cell::new(0),
            }
        }
    }

    impl LanguageModel for StubLlm {
        fn complete(&self, prompt: &str) -> String {
            let call = self.calls.get();
            self.calls.set(call + 1);
            let response = self.inner.complete(prompt);
            let lines: Vec<&str> = response.lines().collect();
            match self.distortion {
                Distortion::None => response,
                Distortion::TooFew => lines[..lines.len() / 2].join("\n"),
                Distortion::Junk => lines
                    .iter()
                    .enumerate()
                    .map(|(k, line)| match (k + call) % 3 {
                        0 => JUNK[(k + call) % JUNK.len()],
                        _ => line,
                    })
                    .collect::<Vec<_>>()
                    .join("\n"),
                Distortion::PerBatch => lines
                    .iter()
                    .map(|line| format!("{line}{{color(c{})}}", call % 2))
                    .collect::<Vec<_>>()
                    .join("\n"),
                Distortion::TooMany => format!("{response}\n{{country(US)}}\nextra"),
                Distortion::Empty => String::new(),
                Distortion::Crlf => lines.join("\r\n"),
            }
        }

        fn name(&self) -> &'static str {
            "stub"
        }
    }

    /// Records every prompt it is sent and echoes the values back.
    #[derive(Default)]
    struct RecordingLlm {
        prompts: std::cell::RefCell<Vec<String>>,
    }

    impl LanguageModel for RecordingLlm {
        fn complete(&self, prompt: &str) -> String {
            self.prompts.borrow_mut().push(prompt.to_string());
            crate::prompt::parse_prompt_values(prompt).join("\n")
        }

        fn name(&self) -> &'static str {
            "recording"
        }
    }

    fn stub_abstractor(distortion: Distortion) -> SemanticAbstractor<StubLlm> {
        SemanticAbstractor::new(StubLlm::new(distortion))
    }

    /// Asserts the distinct-keyed abstraction equals the per-row oracle
    /// on every row, the alphabet order, the defaults, and concretization
    /// (including masks a repair inserts).
    fn assert_matches_rowwise(fast: &AbstractedColumn, slow: &RowwiseColumn, values: &[String]) {
        assert_eq!(fast.n_rows(), values.len());
        assert_eq!(fast.alphabet, slow.alphabet, "{values:?}");
        assert_eq!(fast.defaults, slow.defaults, "{values:?}");
        let slow_masked: Vec<MaskedString> = slow.values.iter().map(|v| v.masked.clone()).collect();
        assert_eq!(fast.masked_strings(), slow_masked, "{values:?}");
        assert_pool_matches_rows(fast);
        for (row, expected) in slow.values.iter().enumerate() {
            assert_eq!(&row_value(fast, row), expected, "row {row} of {values:?}");
            assert_eq!(
                fast.concretize(row, &expected.masked),
                slow.concretize(row, &expected.masked)
            );
            let mut toks = expected.masked.toks().to_vec();
            toks.extend((0..fast.alphabet.len()).map(|i| Tok::Mask(MaskId(i as u16))));
            let inserted = MaskedString::from_toks(toks);
            assert_eq!(
                fast.concretize(row, &inserted),
                slow.concretize(row, &inserted)
            );
        }
        assert_eq!(
            fast.has_masks(),
            slow.values.iter().any(|v| !v.occurrences.is_empty())
        );
    }

    /// Value fragments: semantic words (some misspelled), delimiters,
    /// digits, mask syntax, multibyte chars, CR and blanks.
    const FRAGMENTS: &[&str] = &[
        "US",
        "usa",
        "FR",
        "DE",
        "u.k.",
        "Boston",
        "Birminxham",
        "Miami",
        "red",
        "bluee",
        "dark green",
        "-",
        "_",
        " ",
        "1",
        "837",
        "2002",
        "é",
        "日本",
        "{",
        "(",
        ")}",
        "{country(",
        "{city(Paris)}",
        "\r",
        "",
        "Q4",
        "PRO",
    ];

    fn fragment() -> impl proptest::strategy::Strategy<Value = String> {
        proptest::collection::vec(0..FRAGMENTS.len(), 0..5)
            .prop_map(|ks| ks.iter().map(|&k| FRAGMENTS[k]).collect::<String>())
    }

    /// Values drawn from a small vocabulary of fragment strings, so
    /// columns repeat values (and so response lines).
    fn column(
        len: impl Into<proptest::strategy::SizeRange>,
    ) -> impl proptest::strategy::Strategy<Value = Vec<String>> {
        (
            proptest::collection::vec(fragment(), 1..12),
            proptest::collection::vec(0..64usize, len),
        )
            .prop_map(|(vocab, picks)| {
                picks
                    .iter()
                    .map(|&p| vocab[p % vocab.len()].clone())
                    .collect()
            })
    }

    use proptest::strategy::Strategy as _;

    const DISTORTIONS: [Distortion; 7] = [
        Distortion::None,
        Distortion::TooFew,
        Distortion::Junk,
        Distortion::PerBatch,
        Distortion::TooMany,
        Distortion::Empty,
        Distortion::Crlf,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        #[test]
        fn distinct_keyed_abstraction_equals_rowwise(
            values in column(0..40),
            d in 0..DISTORTIONS.len(),
        ) {
            let abstractor = stub_abstractor(DISTORTIONS[d]);
            let fast = abstractor.abstract_column("col", &values);
            let oracle = stub_abstractor(DISTORTIONS[d]);
            let slow = abstract_column_rowwise(&oracle, "col", &values);
            assert_matches_rowwise(&fast, &slow, &values);
            assert_other_pools_match_rows(&fast, &values);
        }

        #[test]
        fn parse_masked_value_equals_char_parser(
            lines in proptest::collection::vec(
                proptest::prop_oneof![
                    fragment(),
                    (0..JUNK.len()).prop_map(|k| JUNK[k].to_string()),
                ],
                1..6,
            ),
        ) {
            // One alphabet across the lines, as a column parse shares it.
            let (mut fast_alpha, mut slow_alpha) = (MaskAlphabet::new(), MaskAlphabet::new());
            for line in &lines {
                let fast = parse_masked_value(line, &mut fast_alpha);
                let slow = parse_masked_value_chars(line, &mut slow_alpha);
                proptest::prop_assert_eq!(fast, slow);
                proptest::prop_assert_eq!(&fast_alpha, &slow_alpha);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(6))]

        /// Columns long enough for several prompt batches.
        #[test]
        fn multi_batch_abstraction_equals_rowwise(
            values in column(900..1500),
            d in 0..DISTORTIONS.len(),
        ) {
            let abstractor = stub_abstractor(DISTORTIONS[d]);
            let batches = crate::prompt::build_prompts("col", &values, abstractor.mask_types());
            proptest::prop_assert!(batches.len() >= 2, "{} batches", batches.len());
            let fast = abstractor.abstract_column("col", &values);
            let oracle = stub_abstractor(DISTORTIONS[d]);
            let slow = abstract_column_rowwise(&oracle, "col", &values);
            assert_matches_rowwise(&fast, &slow, &values);
            assert_other_pools_match_rows(&fast, &values);
        }
    }

    #[test]
    fn one_value_masks_differently_per_batch() {
        // Every row has the same value; the per-batch stub answers each
        // batch with a different line, so rows split by batch.
        let values: Vec<String> = vec!["US-1".to_string(); 1200];
        let abstractor = stub_abstractor(Distortion::PerBatch);
        let fast = abstractor.abstract_column("col", &values);
        assert_eq!(fast.n_lines(), 2, "{fast:?}");
        let slow = abstract_column_rowwise(&stub_abstractor(Distortion::PerBatch), "col", &values);
        assert_matches_rowwise(&fast, &slow, &values);
    }

    #[test]
    fn abstract_column_sends_exactly_the_built_prompts() {
        let values: Vec<String> = (0..1500).map(|i| format!("US-{i}")).collect();
        for values in [&values[..0], &values[..3], &values[..]] {
            let abstractor = SemanticAbstractor::new(RecordingLlm::default());
            abstractor.abstract_column("Player ID", values);
            abstractor.abstract_column("Other", values);
            let expected: Vec<String> = ["Player ID", "Other"]
                .into_iter()
                .flat_map(|header| {
                    crate::prompt::build_prompts(header, values, abstractor.mask_types())
                })
                .map(|batch| batch.prompt)
                .collect();
            assert_eq!(*abstractor.model().prompts.borrow(), expected);
        }
    }

    #[test]
    fn lines_parsed_counts_distinct_lines() {
        let values: Vec<String> = ["US-1", "FR-2", "US-1", "US-1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (c, profile) = telemetry::collect(true, || col_of(&values));
        let metrics = profile.expect("collecting").metrics;
        assert_eq!(metrics.counters.get("mask.lines_parsed"), Some(&2));
        assert_eq!(c.n_lines(), 2);
    }

    fn col_of(values: &[String]) -> AbstractedColumn {
        abstractor().abstract_column("col", values)
    }
}
