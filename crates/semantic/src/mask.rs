//! The semantic abstraction driver: column → masked column (and back).
//!
//! Orchestrates the paper's §3.2 flow: build Figure-3 prompts in batches,
//! call the language model, parse the `{type(suggestion)}` syntax into
//! [`MaskedString`]s over mask tokens, and record per-row occurrences so
//! repaired masked values can be *re-concretized* into plain strings.
//!
//! The abstraction is distinct-keyed: each distinct response line is
//! parsed once into a [`MaskedValue`], and rows refer to it by index.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::llm::LanguageModel;
use crate::prompt::{build_prompts_after, preamble};
use crate::types::SemanticType;
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

impl AsRef<MaskedString> for MaskedValue {
    fn as_ref(&self) -> &MaskedString {
        &self.masked
    }
}

/// A fully abstracted column, stored once per distinct abstracted value.
///
/// Row `r`'s value is `distinct[row_to_distinct[r]]` ([`AbstractedColumn::value`]).
/// [`SemanticAbstractor::abstract_column`] keys `distinct` by model
/// response line in first-occurrence order, so two rows share an entry
/// exactly when the model answered them with the same line.
#[derive(Debug, Clone, Default)]
pub struct AbstractedColumn {
    /// The distinct abstracted values.
    pub distinct: Vec<MaskedValue>,
    /// For every row, the index of its value in `distinct`.
    pub row_to_distinct: Vec<u32>,
    /// Mask-symbol names (semantic type display names).
    pub alphabet: MaskAlphabet,
    /// Column-level default suggestion per mask symbol (majority), used to
    /// concretize masks *inserted* by repairs.
    pub defaults: HashMap<MaskId, String>,
}

impl AbstractedColumn {
    /// Abstraction that performs no masking (the "no semantic abstraction"
    /// ablation of paper §5.4.1, and the fast path for mask-free columns).
    pub fn plain<S: AsRef<str>>(values: &[S]) -> AbstractedColumn {
        let pool = crate::intern::intern_values(values);
        AbstractedColumn {
            distinct: pool
                .distinct
                .iter()
                .map(|v| MaskedValue {
                    masked: MaskedString::from_plain(v),
                    occurrences: Vec::new(),
                })
                .collect(),
            row_to_distinct: pool.row_to_distinct.iter().map(|&d| d as u32).collect(),
            alphabet: MaskAlphabet::new(),
            defaults: HashMap::new(),
        }
    }

    /// An abstraction from one value per row, interned by value (the
    /// store's decode path; it writes one value per row).
    pub fn from_rows(
        rows: Vec<MaskedValue>,
        alphabet: MaskAlphabet,
        defaults: HashMap<MaskId, String>,
    ) -> AbstractedColumn {
        let mut index: HashMap<MaskedValue, u32> = HashMap::new();
        let mut distinct = Vec::new();
        let row_to_distinct = rows
            .into_iter()
            .map(|v| match index.entry(v) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    distinct.push(e.key().clone());
                    *e.insert(distinct.len() as u32 - 1)
                }
            })
            .collect();
        AbstractedColumn {
            distinct,
            row_to_distinct,
            alphabet,
            defaults,
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.row_to_distinct.len()
    }

    /// Row `row`'s abstracted value.
    ///
    /// # Panics
    /// When `row` is out of range.
    pub fn value(&self, row: usize) -> &MaskedValue {
        &self.distinct[self.row_to_distinct[row] as usize]
    }

    /// Every row's abstracted value, in row order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &MaskedValue> + '_ {
        self.row_to_distinct
            .iter()
            .map(|&d| &self.distinct[d as usize])
    }

    /// Did abstraction produce any masks at all?
    pub fn has_masks(&self) -> bool {
        self.distinct.iter().any(|v| !v.occurrences.is_empty())
    }

    /// The masked strings, copied out in row order.
    pub fn masked_strings(&self) -> Vec<MaskedString> {
        self.values().map(|v| v.masked.clone()).collect()
    }

    /// Concretizes a (possibly repaired) masked string for row `row`:
    /// mask tokens are replaced by that row's occurrence suggestions in
    /// order; extra (repair-inserted) masks fall back to the column default.
    pub fn concretize(&self, row: usize, repaired: &MaskedString) -> String {
        let occurrences = self
            .row_to_distinct
            .get(row)
            .map(|&d| self.distinct[d as usize].occurrences.as_slice())
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
        let mut distinct: Vec<MaskedValue> = Vec::new();
        let mut counts: Vec<usize> = Vec::with_capacity(values.len());
        let mut row_to_distinct = vec![0u32; values.len()];
        for (batch, response) in batches.iter().zip(&responses) {
            let mut lines = response.lines();
            for &row in &batch.rows {
                let line = lines.next().unwrap_or(values[row].as_str());
                let id = match ids.entry(line) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        distinct.push(parser.parse(line));
                        counts.push(0);
                        *e.insert(distinct.len() as u32 - 1)
                    }
                };
                counts[id as usize] += 1;
                row_to_distinct[row] = id;
            }
        }
        telemetry::counter("mask.lines_parsed", distinct.len() as u64);
        let defaults = vote_defaults(&distinct, &counts);
        AbstractedColumn {
            distinct,
            row_to_distinct,
            alphabet: parser.alphabet,
            defaults,
        }
    }
}

/// Column defaults: per mask symbol, the suggestion with the most rows
/// (ties to the shorter, then the greater text). `counts[d]` is the number
/// of rows carrying `distinct[d]`.
fn vote_defaults(distinct: &[MaskedValue], counts: &[usize]) -> HashMap<MaskId, String> {
    let mut votes: HashMap<(MaskId, &str), usize> = HashMap::new();
    for (v, &count) in distinct.iter().zip(counts) {
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
        let v = c.value(1);
        assert_eq!(v.occurrences.len(), 1);
        assert_eq!(v.occurrences[0].semantic_type, SemanticType::Country);
        // The masked string is ⟨Country⟩_837.
        assert_eq!(v.masked.render(&c.alphabet), "⟨Country⟩_837");
    }

    #[test]
    fn concretize_replaces_masks_in_order() {
        let c = col(&["US-1-FR", "DE-2-IT", "GB-3-ES", "FR-4-US"]);
        let v = c.value(0);
        assert_eq!(v.occurrences.len(), 2);
        let plain = c.concretize(0, &v.masked);
        assert_eq!(plain, "US-1-FR");
    }

    #[test]
    fn concretize_inserted_mask_uses_column_default() {
        let c = col(&["US-1", "US-2", "US-3", "FR-4"]);
        let id = c.value(0).occurrences[0].mask;
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
        assert_eq!(c.value(0).masked.to_plain().as_deref(), Some("US-1"));
        assert_eq!(c.concretize(0, &c.value(0).masked), "US-1");
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
        assert_eq!(c.distinct.len(), 2);
        assert_eq!(c.row_to_distinct, [0, 1, 0, 0, 1]);
        assert_eq!(c.n_rows(), 5);
        assert_eq!(c.values().count(), 5);
    }

    #[test]
    fn from_rows_interns_equal_values() {
        let c = col(&["US-1", "FR-2", "US-1", "usa-1"]);
        let rows: Vec<MaskedValue> = c.values().cloned().collect();
        let back = AbstractedColumn::from_rows(rows, c.alphabet.clone(), c.defaults.clone());
        // `US-1` and `usa-1` both mask to `{country(US)}-1`.
        assert_eq!(back.distinct.len(), 2);
        for row in 0..c.n_rows() {
            assert_eq!(back.value(row), c.value(row));
        }
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
        for (row, expected) in slow.values.iter().enumerate() {
            assert_eq!(fast.value(row), expected, "row {row} of {values:?}");
            assert_eq!(fast.values().nth(row), Some(expected));
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
        }
    }

    #[test]
    fn one_value_masks_differently_per_batch() {
        // Every row has the same value; the per-batch stub answers each
        // batch with a different line, so rows split by batch.
        let values: Vec<String> = vec!["US-1".to_string(); 1200];
        let abstractor = stub_abstractor(Distortion::PerBatch);
        let fast = abstractor.abstract_column("col", &values);
        assert_eq!(fast.distinct.len(), 2, "{:?}", fast.distinct);
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
        assert_eq!(c.distinct.len(), 2);
    }

    fn col_of(values: &[String]) -> AbstractedColumn {
        abstractor().abstract_column("col", values)
    }
}
