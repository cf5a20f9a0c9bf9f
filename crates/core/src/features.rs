//! Predicate-template features over table rows (paper Table 2 / §3.4).
//!
//! Concretization decision trees split on boolean features generated from
//! twelve predicate templates, instantiated over *every* column. String
//! constants come from cell values and from tokens after splitting on
//! non-alphanumeric characters, case changes, and alpha/digit boundaries;
//! `length` uses the top-5 most frequent cell lengths per column.
//! Predicates that are constant across the table (all-true / all-false) are
//! dropped, mirroring paper Example 6.
//!
//! Every predicate reads one cell and is a pure function of that cell's
//! kind and rendered text. So the table is rendered column by column into
//! its distinct `(kind, rendered)` values (`RenderedTable`); generation
//! counts constants over those values weighted by their rows and runs the
//! constant filter over them, and the session's `FeatureStore` evaluates
//! each predicate once per distinct value of its column, then spreads the
//! result over the table's distinct rows as `u64` feature bitsets.

use std::collections::HashMap;
use std::sync::Arc;

use datavinci_table::{CellValue, Table};
use datavinci_telemetry as telemetry;

/// A fully instantiated predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `equals(col, s)`
    Equals(usize, String),
    /// `contains(col, s)`
    Contains(usize, String),
    /// `startsWith(col, s)`
    StartsWith(usize, String),
    /// `endsWith(col, s)`
    EndsWith(usize, String),
    /// `length(col, n)`
    Length(usize, usize),
    /// `hasDigits(col)`
    HasDigits(usize),
    /// `isNum(col)`
    IsNum(usize),
    /// `isError(col)`
    IsError(usize),
    /// `isFormula(col)` — always false in our model (cells store values).
    IsFormula(usize),
    /// `isLogical(col)`
    IsLogical(usize),
    /// `isNA(col)`
    IsNA(usize),
    /// `isText(col)`
    IsText(usize),
}

impl Predicate {
    /// Evaluates the predicate for one row, straight from the table's
    /// cells (the reference the rendered paths are tested against).
    #[cfg(test)]
    pub fn eval(&self, table: &Table, row: usize) -> bool {
        let cell = |c: usize| table.column(c).and_then(|col| col.get(row));
        match self {
            Predicate::Equals(c, s) => cell(*c).is_some_and(|v| v.render().eq_ignore_ascii_case(s)),
            Predicate::Contains(c, s) => {
                cell(*c).is_some_and(|v| v.render().to_lowercase().contains(&s.to_lowercase()))
            }
            Predicate::StartsWith(c, s) => {
                cell(*c).is_some_and(|v| v.render().to_lowercase().starts_with(&s.to_lowercase()))
            }
            Predicate::EndsWith(c, s) => {
                cell(*c).is_some_and(|v| v.render().to_lowercase().ends_with(&s.to_lowercase()))
            }
            Predicate::Length(c, n) => cell(*c).is_some_and(|v| v.render().chars().count() == *n),
            Predicate::HasDigits(c) => {
                cell(*c).is_some_and(|v| v.render().chars().any(|ch| ch.is_ascii_digit()))
            }
            Predicate::IsNum(c) => cell(*c).is_some_and(CellValue::is_number),
            Predicate::IsError(c) => cell(*c).is_some_and(CellValue::is_error),
            Predicate::IsFormula(_) => false,
            Predicate::IsLogical(c) => cell(*c).is_some_and(CellValue::is_bool),
            Predicate::IsNA(c) => cell(*c).is_some_and(CellValue::is_na),
            Predicate::IsText(c) => cell(*c).is_some_and(CellValue::is_text),
        }
    }

    /// The column the predicate reads.
    pub(crate) fn column(&self) -> usize {
        match self {
            Predicate::Equals(c, _)
            | Predicate::Contains(c, _)
            | Predicate::StartsWith(c, _)
            | Predicate::EndsWith(c, _)
            | Predicate::Length(c, _)
            | Predicate::HasDigits(c)
            | Predicate::IsNum(c)
            | Predicate::IsError(c)
            | Predicate::IsFormula(c)
            | Predicate::IsLogical(c)
            | Predicate::IsNA(c)
            | Predicate::IsText(c) => *c,
        }
    }

    /// Human-readable rendering, e.g. `contains(col1, "AR")`.
    pub fn render(&self, table: &Table) -> String {
        let name = |c: &usize| {
            table
                .column(*c)
                .map(|col| col.name().to_string())
                .unwrap_or_else(|| format!("col{c}"))
        };
        match self {
            Predicate::Equals(c, s) => format!("equals({}, {s:?})", name(c)),
            Predicate::Contains(c, s) => format!("contains({}, {s:?})", name(c)),
            Predicate::StartsWith(c, s) => format!("startsWith({}, {s:?})", name(c)),
            Predicate::EndsWith(c, s) => format!("endsWith({}, {s:?})", name(c)),
            Predicate::Length(c, n) => format!("length({}, {n})", name(c)),
            Predicate::HasDigits(c) => format!("hasDigits({})", name(c)),
            Predicate::IsNum(c) => format!("isNum({})", name(c)),
            Predicate::IsError(c) => format!("isError({})", name(c)),
            Predicate::IsFormula(c) => format!("isFormula({})", name(c)),
            Predicate::IsLogical(c) => format!("isLogical({})", name(c)),
            Predicate::IsNA(c) => format!("isNA({})", name(c)),
            Predicate::IsText(c) => format!("isText({})", name(c)),
        }
    }
}

/// Splits a cell text into constant-candidate tokens: (a) non-alphanumeric
/// boundaries, (b) case changes, (c) alpha/digit switches (paper §3.4).
pub fn split_tokens(text: &str) -> Vec<String> {
    token_slices(text).into_iter().map(str::to_string).collect()
}

/// [`split_tokens`] as sorted, deduplicated slices of `text`. Every
/// (a)-token is ASCII, so its (b)/(c) pieces split at byte offsets.
fn token_slices(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    // (a) split on non-alphanumeric characters.
    for tok in text.split(|c: char| !c.is_ascii_alphanumeric()) {
        if tok.is_empty() {
            continue;
        }
        out.push(tok);
        // (b) case changes and (c) alpha/digit switches inside the token.
        let bytes = tok.as_bytes();
        let mut start = 0;
        for i in 1..bytes.len() {
            let (prev, cur) = (bytes[i - 1], bytes[i]);
            let case_change = prev.is_ascii_lowercase() && cur.is_ascii_uppercase();
            let kind_change = prev.is_ascii_digit() != cur.is_ascii_digit();
            if case_change || kind_change {
                out.push(&tok[start..i]);
                start = i;
            }
        }
        if start > 0 {
            out.push(&tok[start..]);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Per-column caps keeping the feature space tractable.
const MAX_CONSTANTS_PER_COLUMN: usize = 24;
const TOP_LENGTHS: usize = 5;

/// The generated feature set for one table.
#[derive(Debug, Clone, Default)]
pub struct FeatureSet {
    /// Instantiated, non-constant predicates.
    pub predicates: Vec<Predicate>,
    /// Lowercased string constant per predicate (empty for constant-free
    /// templates) — precomputed so evaluation does not re-lowercase the
    /// constant for every (predicate, value) pair.
    lowered: Vec<String>,
}

/// A coarse cell-kind discriminant. Every [`Predicate`] template is a pure
/// function of `(kind_tag, rendered text)` of the cell it reads, so two
/// cells agreeing on both evaluate identically on *every* feature — the
/// invariant behind per-value evaluation and table-level row interning
/// (`datavinci_core::AnalysisSession`).
fn kind_tag(cell: Option<&CellValue>) -> u8 {
    match cell {
        None => MISSING,
        Some(c) if c.is_number() => b'n',
        Some(c) if c.is_bool() => b'b',
        Some(c) if c.is_error() => b'e',
        Some(c) if c.is_na() => b'0',
        Some(c) if c.is_text() => b't',
        Some(_) => b'?',
    }
}

/// The kind tag of a row past the end of a shorter column.
const MISSING: u8 = b'_';

/// One distinct cell value of a column.
struct CellText {
    kind: u8,
    rendered: String,
    lowered: String,
    /// `rendered.chars().count()`.
    chars: usize,
}

impl CellText {
    /// The predicate's truth on this cell (`lowered_constant` is its
    /// constant already lowercased). A missing cell fails every template.
    fn eval(&self, p: &Predicate, lowered_constant: &str) -> bool {
        let present = self.kind != MISSING;
        match p {
            Predicate::Equals(_, s) => present && self.rendered.eq_ignore_ascii_case(s),
            Predicate::Contains(..) => present && contains(&self.lowered, lowered_constant),
            Predicate::StartsWith(..) => present && self.lowered.starts_with(lowered_constant),
            Predicate::EndsWith(..) => present && self.lowered.ends_with(lowered_constant),
            Predicate::Length(_, n) => present && self.chars == *n,
            Predicate::HasDigits(_) => {
                present && self.rendered.chars().any(|ch| ch.is_ascii_digit())
            }
            Predicate::IsNum(_) => self.kind == b'n',
            Predicate::IsError(_) => self.kind == b'e',
            Predicate::IsFormula(_) => false,
            Predicate::IsLogical(_) => self.kind == b'b',
            Predicate::IsNA(_) => self.kind == b'0',
            Predicate::IsText(_) => self.kind == b't',
        }
    }
}

/// `hay.contains(needle)` for the short cells features read: a first-byte
/// scan with no per-call searcher setup. A byte match of a UTF-8 needle in
/// UTF-8 text always lies on character boundaries.
fn contains(hay: &str, needle: &str) -> bool {
    let (hay, needle) = (hay.as_bytes(), needle.as_bytes());
    let Some((&first, rest)) = needle.split_first() else {
        return true;
    };
    hay.len() >= needle.len()
        && (0..=hay.len() - needle.len())
            .any(|i| hay[i] == first && &hay[i + 1..i + needle.len()] == rest)
}

/// One column's cells interned per distinct `(kind, rendered)` value, in
/// first-occurrence order.
#[derive(Default)]
struct ColumnCells {
    /// Row → value id.
    ids: Vec<u32>,
    values: Vec<CellText>,
    /// Rows holding each value.
    counts: Vec<usize>,
    /// Kind tag followed by the rendering → value id.
    index: HashMap<String, u32>,
}

impl ColumnCells {
    /// Interns one more row's cell; `key` is scratch space.
    fn push(&mut self, cell: Option<&CellValue>, key: &mut String) {
        let kind = kind_tag(cell);
        key.clear();
        key.push(char::from(kind));
        match cell {
            Some(CellValue::Text(s)) => key.push_str(s),
            Some(other) => key.push_str(&other.render()),
            None => {}
        }
        let id = match self.index.get(key.as_str()) {
            Some(&id) => id,
            None => {
                let id = self.values.len() as u32;
                self.index.insert(key.clone(), id);
                let rendered = key[1..].to_string();
                self.values.push(CellText {
                    kind,
                    lowered: rendered.to_lowercase(),
                    chars: rendered.chars().count(),
                    rendered,
                });
                self.counts.push(0);
                id
            }
        };
        self.counts[id as usize] += 1;
        self.ids.push(id);
    }

    /// Sets bit `v` of `bits` for every value `v >= from` on which `p`
    /// holds, growing `bits` to cover every value.
    fn eval_values(&self, from: usize, p: &Predicate, lowered_constant: &str, bits: &mut Vec<u64>) {
        bits.resize(self.values.len().div_ceil(64), 0);
        for (v, cell) in self.values.iter().enumerate().skip(from) {
            if cell.eval(p, lowered_constant) {
                bits[v / 64] |= 1 << (v % 64);
            }
        }
    }
}

/// The whole table's cells rendered once, column by column: each column
/// keeps its distinct `(kind, rendered)` values (lowercased once each) and
/// every row's value id — the shared input of feature generation, the
/// feature store and row interning.
///
/// Owns its renderings (no borrows into the table), so it can be kept in an
/// owned session snapshot and grown incrementally with
/// [`RenderedTable::extend`] as rows are appended.
#[derive(Default)]
pub(crate) struct RenderedTable {
    columns: Vec<ColumnCells>,
    n_rows: usize,
}

impl RenderedTable {
    /// Renders every cell of the table (once).
    pub(crate) fn new(table: &Table) -> RenderedTable {
        let mut rendered = RenderedTable::default();
        rendered.extend(table, 0);
        rendered
    }

    /// Renders rows `from_row..table.n_rows()` and appends them — the
    /// incremental path for append-only table growth. `from_row` must equal
    /// the current [`RenderedTable::n_rows`] (already-rendered rows are
    /// immutable).
    pub(crate) fn extend(&mut self, table: &Table, from_row: usize) {
        assert_eq!(from_row, self.n_rows, "extend only appends");
        if self.columns.is_empty() {
            self.columns = table
                .columns()
                .iter()
                .map(|_| ColumnCells::default())
                .collect();
        }
        let mut key = String::new();
        for (cells, column) in self.columns.iter_mut().zip(table.columns()) {
            for row in from_row..table.n_rows() {
                cells.push(column.get(row), &mut key);
            }
        }
        self.n_rows = table.n_rows();
    }

    /// Number of rendered rows.
    pub(crate) fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of distinct `(kind, rendered)` values in column `col`.
    pub(crate) fn n_values(&self, col: usize) -> usize {
        self.columns.get(col).map_or(0, |cells| cells.values.len())
    }

    /// Writes `row`'s value id in every column to `out`: rows with equal
    /// ids agree in every cell's kind and rendering, so they evaluate
    /// identically on every predicate and can share one distinct row.
    pub(crate) fn write_row_ids(&self, row: usize, out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.columns.iter().map(|cells| cells.ids[row]));
    }
}

/// The predicate's string constant, lowercased (empty when the template has
/// none).
fn lowered_constant(p: &Predicate) -> String {
    match p {
        Predicate::Contains(_, s) | Predicate::StartsWith(_, s) | Predicate::EndsWith(_, s) => {
            s.to_lowercase()
        }
        _ => String::new(),
    }
}

impl FeatureSet {
    /// Rebuilds a feature set from its predicates alone, recomputing the
    /// lowered-constant cache. Used when loading a persisted artifact: the
    /// predicates are the durable part; `lowered` is derived.
    pub fn from_predicates(predicates: Vec<Predicate>) -> FeatureSet {
        let lowered = predicates.iter().map(lowered_constant).collect();
        FeatureSet {
            predicates,
            lowered,
        }
    }

    /// Generates features over every column of the table.
    ///
    /// Renders the table and generates from its distinct column values;
    /// sessions render once and share the rendering with their feature
    /// store.
    pub fn generate(table: &Table) -> FeatureSet {
        FeatureSet::generate_rendered(table, &RenderedTable::new(table)).0
    }

    /// Generates features over every column from the table's distinct
    /// column values, also returning each kept predicate's truth over its
    /// column's distinct values (bit `v` set when it holds on value `v`),
    /// ready for [`FeatureStore::new`].
    ///
    /// Constants are counted once per distinct value, weighted by its rows.
    /// Every candidate is evaluated once per distinct value of its column:
    /// it is constant over the table exactly when it is constant over
    /// those values, and a kept predicate's truths are what the store
    /// needs anyway.
    pub(crate) fn generate_rendered(
        table: &Table,
        rendered: &RenderedTable,
    ) -> (FeatureSet, Vec<Vec<u64>>) {
        let mut predicates = Vec::new();
        let mut lowered = Vec::new();
        let mut truths = Vec::new();
        let mut evals = 0u64;
        for (c, (col, cells)) in table.columns().iter().zip(&rendered.columns).enumerate() {
            // Constant candidates: frequent cell values + split tokens.
            // Cells past the table's row count (a column longer than the
            // first) still count, as they always have.
            let tail: Vec<String> = col
                .values()
                .iter()
                .skip(rendered.n_rows)
                .map(CellValue::render)
                .collect();
            let present = cells
                .values
                .iter()
                .zip(&cells.counts)
                .filter(|(v, _)| v.kind != MISSING);
            let mut counts: HashMap<&str, usize> = HashMap::new();
            let mut len_counts: HashMap<usize, usize> = HashMap::new();
            for (text, chars, rows) in present
                .map(|(v, &rows)| (v.rendered.as_str(), v.chars, rows))
                .chain(tail.iter().map(|t| (t.as_str(), t.chars().count(), 1)))
            {
                *len_counts.entry(chars).or_insert(0) += rows;
                if !text.is_empty() {
                    *counts.entry(text).or_insert(0) += rows;
                }
                for tok in token_slices(text) {
                    *counts.entry(tok).or_insert(0) += rows;
                }
            }
            let mut constants: Vec<(&str, usize)> = counts.into_iter().collect();
            constants.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
            constants.truncate(MAX_CONSTANTS_PER_COLUMN);

            let mut candidates = Vec::new();
            for &(s, _) in &constants {
                candidates.push(Predicate::Equals(c, s.to_string()));
                candidates.push(Predicate::Contains(c, s.to_string()));
                candidates.push(Predicate::StartsWith(c, s.to_string()));
                candidates.push(Predicate::EndsWith(c, s.to_string()));
            }
            let mut lens: Vec<(usize, usize)> = len_counts.into_iter().collect();
            lens.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            for (len, _) in lens.into_iter().take(TOP_LENGTHS) {
                candidates.push(Predicate::Length(c, len));
            }
            candidates.push(Predicate::HasDigits(c));
            candidates.push(Predicate::IsNum(c));
            candidates.push(Predicate::IsError(c));
            candidates.push(Predicate::IsLogical(c));
            candidates.push(Predicate::IsNA(c));
            candidates.push(Predicate::IsText(c));

            // Drop constant predicates (true everywhere or nowhere).
            let n_values = cells.values.len();
            evals += (n_values * candidates.len()) as u64;
            for p in candidates {
                let low = lowered_constant(&p);
                let mut bits = Vec::new();
                cells.eval_values(0, &p, &low, &mut bits);
                let ones: usize = bits.iter().map(|w| w.count_ones() as usize).sum();
                if ones > 0 && ones < n_values {
                    predicates.push(p);
                    lowered.push(low);
                    truths.push(bits);
                }
            }
        }
        telemetry::counter("features.predicate_evals", evals);
        (
            FeatureSet {
                predicates,
                lowered,
            },
            truths,
        )
    }

    /// Evaluates all predicates for one row, rendering the row's cells
    /// afresh (the row-major reference the feature store is tested
    /// against).
    #[cfg(test)]
    pub fn row_features(&self, table: &Table, row: usize) -> Vec<bool> {
        let rr = RenderedRow::new(table, row);
        self.predicates
            .iter()
            .zip(&self.lowered)
            .map(|(p, low)| rr.eval(p, low))
            .collect()
    }

    /// All predicates for one row, read from its rendered column values.
    #[cfg(test)]
    pub(crate) fn row_features_rendered(&self, rendered: &RenderedTable, row: usize) -> Vec<bool> {
        self.predicates
            .iter()
            .zip(&self.lowered)
            .map(|(p, low)| {
                rendered
                    .columns
                    .get(p.column())
                    .is_some_and(|cells| cells.values[cells.ids[row] as usize].eval(p, low))
            })
            .collect()
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.predicates.len()
    }

    /// Whether the feature set is empty.
    pub fn is_empty(&self) -> bool {
        self.predicates.is_empty()
    }
}

/// One row's cells rendered once, plus the lowercase form: the row-major
/// evaluation that per-value evaluation replaced, kept as a test oracle.
#[cfg(test)]
struct RenderedRow {
    kinds: Vec<u8>,
    rendered: Vec<String>,
    lowered: Vec<String>,
}

#[cfg(test)]
impl RenderedRow {
    fn new(table: &Table, row: usize) -> RenderedRow {
        let cells: Vec<Option<&CellValue>> =
            table.columns().iter().map(|col| col.get(row)).collect();
        let kinds: Vec<u8> = cells.iter().map(|c| kind_tag(*c)).collect();
        let rendered: Vec<String> = cells
            .iter()
            .map(|c| c.map(CellValue::render).unwrap_or_default())
            .collect();
        let lowered: Vec<String> = rendered.iter().map(|s| s.to_lowercase()).collect();
        RenderedRow {
            kinds,
            rendered,
            lowered,
        }
    }

    fn eval(&self, p: &Predicate, lowered_constant: &str) -> bool {
        let present = |c: usize| self.kinds.get(c).is_some_and(|&k| k != MISSING);
        let kind_is = |c: usize, tag: u8| self.kinds.get(c) == Some(&tag);
        match p {
            Predicate::Equals(c, s) => present(*c) && self.rendered[*c].eq_ignore_ascii_case(s),
            Predicate::Contains(c, _) => present(*c) && self.lowered[*c].contains(lowered_constant),
            Predicate::StartsWith(c, _) => {
                present(*c) && self.lowered[*c].starts_with(lowered_constant)
            }
            Predicate::EndsWith(c, _) => {
                present(*c) && self.lowered[*c].ends_with(lowered_constant)
            }
            Predicate::Length(c, n) => present(*c) && self.rendered[*c].chars().count() == *n,
            Predicate::HasDigits(c) => {
                present(*c) && self.rendered[*c].chars().any(|ch| ch.is_ascii_digit())
            }
            Predicate::IsNum(c) => kind_is(*c, b'n'),
            Predicate::IsError(c) => kind_is(*c, b'e'),
            Predicate::IsFormula(_) => false,
            Predicate::IsLogical(c) => kind_is(*c, b'b'),
            Predicate::IsNA(c) => kind_is(*c, b'0'),
            Predicate::IsText(c) => kind_is(*c, b't'),
        }
    }
}

/// A session's feature store: a [`FeatureSet`] evaluated over the table's
/// distinct rows, as one `u64` bitset over the features per distinct row
/// (bit `f` of distinct row `d` is feature `f`'s truth on `d`).
///
/// Each predicate is evaluated once per distinct value of the column it
/// reads; a distinct row's bit is its value's bit. The set is evaluated as
/// given — generated from this table, seeded from a cache, or carried
/// across an append — and [`FeatureStore::extend`] grows the store in
/// place over appended values and distinct rows. Tree learning gathers
/// per-feature example bitsets from it with 64×64 bit-block transposes
/// ([`FeatureStore::gather`]).
pub(crate) struct FeatureStore {
    features: Arc<FeatureSet>,
    /// Per feature: its truth over its column's distinct values (empty
    /// for a column the table does not have).
    value_bits: Vec<Vec<u64>>,
    /// Per column: distinct values evaluated so far.
    values_done: Vec<usize>,
    /// Distinct rows covered.
    n_rows: usize,
    /// Words per distinct row: `features.len().div_ceil(64)`.
    row_words: usize,
    /// `bits[d * row_words..][..row_words]` holds distinct row `d`.
    bits: Vec<u64>,
}

impl FeatureStore {
    /// The store of `features` over `rendered`'s distinct rows, whose
    /// first table rows are `reps`. `truths` are the per-value truths
    /// generation computed for exactly these features over `rendered`, if
    /// any; otherwise every feature is evaluated here.
    pub(crate) fn new(
        features: Arc<FeatureSet>,
        truths: Option<Vec<Vec<u64>>>,
        rendered: &RenderedTable,
        reps: &[usize],
    ) -> FeatureStore {
        let n_cols = rendered.columns.len();
        let (value_bits, values_done) = match truths {
            Some(truths) => (truths, (0..n_cols).map(|c| rendered.n_values(c)).collect()),
            None => (vec![Vec::new(); features.len()], vec![0; n_cols]),
        };
        let mut store = FeatureStore {
            row_words: features.len().div_ceil(64),
            features,
            value_bits,
            values_done,
            n_rows: 0,
            bits: Vec::new(),
        };
        store.extend(rendered, reps);
        store
    }

    /// Evaluates every feature on the values `rendered` gained since the
    /// last call and sets the bits of the distinct rows `reps` gained
    /// (`reps` lists each distinct row's first table row, old rows first).
    pub(crate) fn extend(&mut self, rendered: &RenderedTable, reps: &[usize]) {
        let mut evals = 0u64;
        for (f, (p, low)) in self
            .features
            .predicates
            .iter()
            .zip(&self.features.lowered)
            .enumerate()
        {
            if let Some(cells) = rendered.columns.get(p.column()) {
                let from = self.values_done[p.column()];
                evals += (cells.values.len() - from) as u64;
                cells.eval_values(from, p, low, &mut self.value_bits[f]);
            }
        }
        for (done, cells) in self.values_done.iter_mut().zip(&rendered.columns) {
            *done = cells.values.len();
        }
        if evals > 0 {
            telemetry::counter("features.predicate_evals", evals);
        }

        let old = self.n_rows;
        self.bits.resize(reps.len() * self.row_words, 0);
        // Each column's value id for every new distinct row.
        let new_ids: Vec<Vec<u32>> = rendered
            .columns
            .iter()
            .map(|cells| reps[old..].iter().map(|&row| cells.ids[row]).collect())
            .collect();
        for (f, p) in self.features.predicates.iter().enumerate() {
            let Some(ids) = new_ids.get(p.column()) else {
                continue;
            };
            let truth = &self.value_bits[f];
            let (word, bit) = (f / 64, f % 64);
            for (d, &v) in (old..).zip(ids) {
                let v = v as usize;
                self.bits[d * self.row_words + word] |= (truth[v / 64] >> (v % 64) & 1) << bit;
            }
        }
        self.n_rows = reps.len();
    }

    /// The evaluated feature set.
    pub(crate) fn features(&self) -> &Arc<FeatureSet> {
        &self.features
    }

    /// Feature `f` on distinct row `d`.
    pub(crate) fn bit(&self, f: usize, d: usize) -> bool {
        self.bits[d * self.row_words + f / 64] >> (f % 64) & 1 == 1
    }

    /// Gathers every feature over the distinct rows `rows` into `out`,
    /// feature-major with `rows.len().div_ceil(64)` words per feature
    /// (example `i` is bit `i % 64` of word `i / 64`): each 64-row block's
    /// words are transposed 64 features at a time.
    pub(crate) fn gather(&self, rows: &[usize], out: &mut [u64]) {
        let n_words = rows.len().div_ceil(64);
        let n_features = self.features.len();
        let mut block = [0u64; 64];
        for (w, chunk) in rows.chunks(64).enumerate() {
            for g in 0..self.row_words {
                for (slot, &d) in block.iter_mut().zip(chunk) {
                    *slot = self.bits[d * self.row_words + g];
                }
                block[chunk.len()..].fill(0);
                transpose64(&mut block);
                for (f, &word) in (g * 64..n_features).zip(&block) {
                    out[f * n_words + w] = word;
                }
            }
        }
    }
}

/// Transposes a 64×64 bit matrix in place: bit `j` of `a[i]` moves to bit
/// `i` of `a[j]` (recursive block swaps, Hacker's Delight §7-3).
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
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
                &["Professional", "Qualifier", "Professional", "Qualifier"],
            ),
            Column::from_texts(
                "Player ID",
                &["Ind-674-PRO", "US-201-QUA", "FR-475-PRO", "Chn-924-QUA"],
            ),
        ])
    }

    /// The tokenizer `token_slices` replaced, kept as its oracle.
    fn split_tokens_oracle(text: &str) -> Vec<String> {
        let mut out = Vec::new();
        for tok in text.split(|c: char| !c.is_ascii_alphanumeric()) {
            if !tok.is_empty() {
                out.push(tok.to_string());
            }
        }
        let base: Vec<String> = out.clone();
        for tok in base {
            let chars: Vec<char> = tok.chars().collect();
            let mut start = 0;
            for i in 1..chars.len() {
                let prev = chars[i - 1];
                let cur = chars[i];
                let case_change = prev.is_ascii_lowercase() && cur.is_ascii_uppercase();
                let kind_change = prev.is_ascii_digit() != cur.is_ascii_digit();
                if case_change || kind_change {
                    let piece: String = chars[start..i].iter().collect();
                    if piece.chars().count() < tok.chars().count() {
                        out.push(piece);
                    }
                    start = i;
                }
            }
            if start > 0 {
                out.push(chars[start..].iter().collect());
            }
        }
        out.sort();
        out.dedup();
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// The slice tokenizer and the short-text `contains` agree with
        /// the code they replaced, on ASCII and non-ASCII text.
        #[test]
        fn tokenizer_and_contains_match_their_oracles(
            text in "[a-cA-C0-2 ._é-]{0,12}",
            needle in "[a-cA-C0-2é]{0,3}",
        ) {
            proptest::prop_assert_eq!(split_tokens(&text), split_tokens_oracle(&text));
            proptest::prop_assert_eq!(contains(&text, &needle), text.contains(needle.as_str()));
        }
    }

    #[test]
    fn split_tokens_all_three_ways() {
        // Example 6: "Ind-674-PRO" → {Ind, 674, PRO} (plus the full value
        // handled separately).
        let toks = split_tokens("Ind-674-PRO");
        assert!(toks.contains(&"Ind".to_string()));
        assert!(toks.contains(&"674".to_string()));
        assert!(toks.contains(&"PRO".to_string()));
        // Case change split.
        let toks = split_tokens("fooBar");
        assert!(toks.contains(&"foo".to_string()));
        assert!(toks.contains(&"Bar".to_string()));
        // Alpha/digit switch.
        let toks = split_tokens("Q32001");
        assert!(toks.contains(&"Q".to_string()));
        assert!(toks.contains(&"32001".to_string()));
    }

    #[test]
    fn constant_predicates_dropped() {
        let t = figure2_table();
        let fs = FeatureSet::generate(&t);
        // contains(Player ID, "-") would be true for every row → dropped.
        assert!(!fs
            .predicates
            .iter()
            .any(|p| matches!(p, Predicate::Contains(1, s) if s == "-")));
        // contains(Player ID, "PRO") splits rows → kept.
        assert!(fs
            .predicates
            .iter()
            .any(|p| matches!(p, Predicate::Contains(1, s) if s == "PRO")));
    }

    #[test]
    fn category_equality_feature_exists_and_predicts() {
        let t = figure2_table();
        let fs = FeatureSet::generate(&t);
        let idx = fs
            .predicates
            .iter()
            .position(|p| matches!(p, Predicate::Equals(0, s) if s == "Professional"))
            .expect("equals(Category, Professional) kept");
        let f0 = fs.row_features(&t, 0);
        let f1 = fs.row_features(&t, 1);
        assert!(f0[idx]);
        assert!(!f1[idx]);
    }

    #[test]
    fn case_insensitive_matching() {
        let p = Predicate::Contains(0, "pro".into());
        let t = Table::new(vec![Column::from_texts("c", &["X-PRO"])]);
        assert!(p.eval(&t, 0));
    }

    #[test]
    fn render_forms() {
        let t = figure2_table();
        assert_eq!(
            Predicate::Equals(0, "AR".into()).render(&t),
            "equals(Category, \"AR\")"
        );
        assert_eq!(Predicate::Length(1, 10).render(&t), "length(Player ID, 10)");
    }

    #[test]
    fn length_predicate() {
        let t = Table::new(vec![Column::from_texts("c", &["ab", "abc"])]);
        let p = Predicate::Length(0, 2);
        assert!(p.eval(&t, 0));
        assert!(!p.eval(&t, 1));
    }

    #[test]
    fn out_of_bounds_rows_are_false() {
        let t = figure2_table();
        assert!(!Predicate::HasDigits(0).eval(&t, 99));
        assert!(!Predicate::Equals(9, "x".into()).eval(&t, 0));
    }

    /// The generation per-value counting and filtering replaced: every
    /// cell rendered and tokenized, and every candidate evaluated row by
    /// row until it shows both truth values. The oracle generation is
    /// proven against.
    fn generate_oracle(table: &Table) -> Vec<Predicate> {
        let mut predicates = Vec::new();
        for (c, col) in table.columns().iter().enumerate() {
            let mut counts: HashMap<String, usize> = HashMap::new();
            let mut len_counts: HashMap<usize, usize> = HashMap::new();
            for v in col.values() {
                let text = v.render();
                *len_counts.entry(text.chars().count()).or_insert(0) += 1;
                if !text.is_empty() {
                    *counts.entry(text.clone()).or_insert(0) += 1;
                }
                for tok in split_tokens_oracle(&text) {
                    *counts.entry(tok).or_insert(0) += 1;
                }
            }
            let mut constants: Vec<(String, usize)> = counts.into_iter().collect();
            constants.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            constants.truncate(MAX_CONSTANTS_PER_COLUMN);
            for (s, _) in &constants {
                predicates.push(Predicate::Equals(c, s.clone()));
                predicates.push(Predicate::Contains(c, s.clone()));
                predicates.push(Predicate::StartsWith(c, s.clone()));
                predicates.push(Predicate::EndsWith(c, s.clone()));
            }
            let mut lens: Vec<(usize, usize)> = len_counts.into_iter().collect();
            lens.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            for (len, _) in lens.into_iter().take(TOP_LENGTHS) {
                predicates.push(Predicate::Length(c, len));
            }
            predicates.push(Predicate::HasDigits(c));
            predicates.push(Predicate::IsNum(c));
            predicates.push(Predicate::IsError(c));
            predicates.push(Predicate::IsLogical(c));
            predicates.push(Predicate::IsNA(c));
            predicates.push(Predicate::IsText(c));
        }
        let rows: Vec<RenderedRow> = (0..table.n_rows())
            .map(|row| RenderedRow::new(table, row))
            .collect();
        predicates
            .into_iter()
            .filter(|p| {
                let low = lowered_constant(p);
                let mut truths = rows.iter().map(|rr| rr.eval(p, &low));
                truths
                    .next()
                    .is_some_and(|first| truths.any(|t| t != first))
            })
            .collect()
    }

    fn arb_cell() -> impl proptest::strategy::Strategy<Value = CellValue> {
        use proptest::prelude::*;
        prop_oneof![
            Just(CellValue::Number(3.0)),
            Just(CellValue::text("3")),
            Just(CellValue::text("")),
            Just(CellValue::Blank),
            Just(CellValue::Bool(false)),
            Just(CellValue::Error(datavinci_table::ErrorValue::NA)),
            "[a-cA-C]{1,2}-[0-9]{1,2}".prop_map(CellValue::text),
            "[A-C][a-c]{0,2}é{0,1}[0-9]{0,2}".prop_map(CellValue::text),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]

        /// Generation over distinct column values keeps exactly the
        /// predicates, in exactly the order, of per-row generation — on
        /// duplicate-heavy columns of mixed kinds, with columns that end
        /// early (missing cells) or run past the first column's rows.
        #[test]
        fn per_value_generation_equals_per_row_generation(
            base in proptest::collection::vec(proptest::collection::vec(arb_cell(), 3), 1..8),
            picks in proptest::collection::vec(0usize..8, 1..60),
            n_cols in 1usize..4,
            ragged in 0usize..3,
            extra in proptest::collection::vec(arb_cell(), 0..3),
        ) {
            let mut table = Table::new(
                (0..n_cols)
                    .map(|c| {
                        let cells = picks.iter().map(|&p| base[p % base.len()][c].clone()).collect();
                        Column::new(format!("c{c}"), cells)
                    })
                    .collect(),
            );
            if n_cols > 1 {
                let last = table.column_mut(n_cols - 1).unwrap().values_mut();
                match ragged {
                    1 => last.truncate(last.len() / 2),
                    2 => last.extend(extra),
                    _ => {}
                }
            }
            let generated = FeatureSet::generate(&table);
            proptest::prop_assert_eq!(&generated.predicates, &generate_oracle(&table));
        }
    }

    #[test]
    fn rendered_matrix_matches_per_row_path() {
        let t = figure2_table();
        let rendered = RenderedTable::new(&t);
        assert_eq!(rendered.n_rows(), 4);
        let (fs, _) = FeatureSet::generate_rendered(&t, &rendered);
        let fresh = FeatureSet::generate(&t);
        assert_eq!(fs.predicates, fresh.predicates);
        for row in 0..t.n_rows() {
            assert_eq!(
                fs.row_features_rendered(&rendered, row),
                fs.row_features(&t, row),
                "row {row}"
            );
        }
    }

    #[test]
    fn transpose64_moves_every_bit() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut a = [0u64; 64];
        for word in a.iter_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *word = state;
        }
        let original = a;
        transpose64(&mut a);
        for (i, row) in original.iter().enumerate() {
            for (j, column) in a.iter().enumerate() {
                assert_eq!(column >> i & 1, row >> j & 1, "bit ({i}, {j})");
            }
        }
    }

    #[test]
    fn value_ids_separate_kinds_and_join_duplicates() {
        // Text "3" and the number 3 render identically but differ on the
        // kind-sensitive predicates (isNum/isText), so their ids must
        // differ; true duplicate rows must share ids.
        let t = Table::new(vec![Column::new(
            "mixed",
            vec![
                CellValue::Number(3.0),
                CellValue::text("3"),
                CellValue::text("3"),
            ],
        )]);
        let rendered = RenderedTable::new(&t);
        let ids = |row| {
            let mut out = Vec::new();
            rendered.write_row_ids(row, &mut out);
            out
        };
        assert_ne!(ids(0), ids(1));
        assert_eq!(ids(1), ids(2));
        assert_eq!(rendered.n_values(0), 2);
    }

    #[test]
    fn extend_matches_from_scratch() {
        let small = figure2_table();
        let mut grown = small.clone();
        grown
            .column_mut(0)
            .unwrap()
            .values_mut()
            .push(CellValue::text("Amateur"));
        grown
            .column_mut(1)
            .unwrap()
            .values_mut()
            .push(CellValue::text("Bra-333-AMA"));

        let mut incremental = RenderedTable::new(&small);
        incremental.extend(&grown, small.n_rows());
        let scratch = RenderedTable::new(&grown);
        assert_eq!(incremental.n_rows(), scratch.n_rows());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for row in 0..grown.n_rows() {
            incremental.write_row_ids(row, &mut a);
            scratch.write_row_ids(row, &mut b);
            assert_eq!(a, b, "row {row}");
        }
        let fs = FeatureSet::generate(&grown);
        assert_eq!(
            fs.predicates,
            FeatureSet::generate_rendered(&grown, &incremental)
                .0
                .predicates
        );
        for row in 0..grown.n_rows() {
            assert_eq!(
                fs.row_features_rendered(&incremental, row),
                fs.row_features(&grown, row),
                "row {row}"
            );
        }
    }
}
