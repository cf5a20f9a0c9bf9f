//! Binary codec for persistable analysis artifacts.
//!
//! The engine's durable artifact store (see `datavinci-engine`) writes the
//! *learned* part of a clean to disk so a later process starts warm:
//! per-column reports and analyses (profiles, abstractions, masked values),
//! table-level [`FeatureSet`]s, and resumable [`SessionSnapshot`] skeletons.
//! This module defines the payload encoding those records use.
//!
//! Design constraints, in order:
//!
//! 1. **No panics on malformed input.** Every decoder is bounds-checked and
//!    tag-validated; a truncated or bit-flipped payload yields a
//!    [`PersistError`], never an out-of-bounds read, an over-allocation, or
//!    unbounded recursion. The store treats any error as "entry absent,
//!    rebuild cold".
//! 2. **Determinism.** Encoding the same value always produces the same
//!    bytes (hash maps are written in sorted key order), so byte equality
//!    of encodings is value equality — the store's checksums and the
//!    durability tests' identity assertions rely on this.
//! 3. **Derived state is rebuilt, not stored.** An abstraction's lines
//!    and masked pool are re-interned from its per-row values by
//!    [`AbstractedColumn::from_rows`], compiled patterns via
//!    [`CompiledPattern::compile`], feature-set constant caches via
//!    [`FeatureSet::from_predicates`] — all deterministic functions of the
//!    stored data, so a round trip reproduces behaviorally identical
//!    artifacts without freezing volatile internals into the format.
//!
//! All integers are little-endian; lengths are `u32`, row indices `u64`,
//! floats are IEEE-754 bit patterns (`f64::to_bits`), strings are
//! length-prefixed UTF-8 (validated on read).

use std::collections::HashMap;
use std::sync::Arc;

use crate::features::{FeatureSet, Predicate};
use crate::pipeline::{ColumnAnalysis, ColumnReport};
use crate::session::SessionSnapshot;
use crate::system::{Detection, RepairCandidate, RepairSuggestion};
use datavinci_profile::{ColumnProfile, LearnedPattern};
use datavinci_regex::{
    CharClass, CompiledPattern, MaskAlphabet, MaskId, MaskedString, Pattern, Tok,
};
use datavinci_semantic::{AbstractedColumn, MaskCache, MaskOccurrence, MaskedValue, SemanticType};

/// Maximum pattern nesting the decoder will follow. Learned patterns are a
/// few levels deep; anything deeper is a corrupt or adversarial payload.
const MAX_PATTERN_DEPTH: u32 = 64;

/// Why a payload could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The payload ended before the value did.
    Truncated {
        /// Byte offset at which more input was required.
        at: usize,
    },
    /// A tag, length, or invariant check failed.
    Malformed {
        /// Byte offset of the offending data.
        at: usize,
        /// What was wrong.
        what: &'static str,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Truncated { at } => write!(f, "payload truncated at byte {at}"),
            PersistError::Malformed { at, what } => {
                write!(f, "malformed payload at byte {at}: {what}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

/// A bounds-checked cursor over an encoded payload.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over the whole buffer.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed (decoders use this to reject
    /// payloads with trailing garbage).
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Truncated { at: self.pos });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, PersistError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn usize(&mut self) -> Result<usize, PersistError> {
        let at = self.pos;
        usize::try_from(self.u64()?).map_err(|_| PersistError::Malformed {
            at,
            what: "index exceeds usize",
        })
    }

    /// An element count for a sequence whose elements occupy at least
    /// `min_elem` bytes each. Rejecting counts larger than the remaining
    /// payload keeps a flipped length byte from requesting a giant
    /// allocation before the inevitable `Truncated` error.
    fn count(&mut self, min_elem: usize) -> Result<usize, PersistError> {
        let at = self.pos;
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem.max(1)) > self.remaining() {
            return Err(PersistError::Malformed {
                at,
                what: "length prefix exceeds payload",
            });
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, PersistError> {
        let n = self.count(1)?;
        let at = self.pos;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| PersistError::Malformed {
            at,
            what: "invalid UTF-8",
        })
    }

    fn char(&mut self) -> Result<char, PersistError> {
        let at = self.pos;
        char::from_u32(self.u32()?).ok_or(PersistError::Malformed {
            at,
            what: "invalid char scalar",
        })
    }

    fn malformed(&self, what: &'static str) -> PersistError {
        PersistError::Malformed { at: self.pos, what }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_len(out: &mut Vec<u8>, n: usize) {
    put_u32(out, u32::try_from(n).expect("sequence length fits u32"));
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_len(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

fn encode_str_vec(out: &mut Vec<u8>, items: &[String]) {
    put_len(out, items.len());
    for s in items {
        put_str(out, s);
    }
}

fn decode_str_vec(r: &mut Reader<'_>) -> Result<Vec<String>, PersistError> {
    let n = r.count(4)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.str()?);
    }
    Ok(out)
}

fn encode_usize_vec(out: &mut Vec<u8>, items: &[usize]) {
    put_len(out, items.len());
    for &v in items {
        put_usize(out, v);
    }
}

fn decode_usize_vec(r: &mut Reader<'_>) -> Result<Vec<usize>, PersistError> {
    let n = r.count(8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.usize()?);
    }
    Ok(out)
}

// ---------------------------------------------------------------- patterns

fn encode_class(out: &mut Vec<u8>, class: CharClass) {
    let idx = CharClass::ALL
        .iter()
        .position(|c| *c == class)
        .expect("every class is in ALL");
    out.push(idx as u8);
}

fn decode_class(r: &mut Reader<'_>) -> Result<CharClass, PersistError> {
    let at = r.pos;
    let idx = r.u8()? as usize;
    CharClass::ALL
        .get(idx)
        .copied()
        .ok_or(PersistError::Malformed {
            at,
            what: "character-class tag out of range",
        })
}

fn encode_pattern(out: &mut Vec<u8>, p: &Pattern) {
    match p {
        Pattern::Empty => out.push(0),
        Pattern::Str(s) => {
            out.push(1);
            put_str(out, s);
        }
        Pattern::Class(c) => {
            out.push(2);
            encode_class(out, *c);
        }
        Pattern::Mask(m) => {
            out.push(3);
            out.extend_from_slice(&m.0.to_le_bytes());
        }
        Pattern::Disj(alts) => {
            out.push(4);
            encode_str_vec(out, alts);
        }
        Pattern::Concat(parts) => {
            out.push(5);
            put_len(out, parts.len());
            for part in parts {
                encode_pattern(out, part);
            }
        }
        Pattern::Alt(parts) => {
            out.push(6);
            put_len(out, parts.len());
            for part in parts {
                encode_pattern(out, part);
            }
        }
        Pattern::Repeat { body, min, max } => {
            out.push(7);
            put_u32(out, *min);
            match max {
                Some(m) => {
                    out.push(1);
                    put_u32(out, *m);
                }
                None => out.push(0),
            }
            encode_pattern(out, body);
        }
    }
}

fn decode_pattern(r: &mut Reader<'_>, depth: u32) -> Result<Pattern, PersistError> {
    if depth > MAX_PATTERN_DEPTH {
        return Err(r.malformed("pattern nesting too deep"));
    }
    let at = r.pos;
    match r.u8()? {
        0 => Ok(Pattern::Empty),
        1 => Ok(Pattern::Str(r.str()?)),
        2 => Ok(Pattern::Class(decode_class(r)?)),
        3 => Ok(Pattern::Mask(MaskId(r.u16()?))),
        4 => Ok(Pattern::Disj(decode_str_vec(r)?)),
        tag @ (5 | 6) => {
            let n = r.count(1)?;
            let mut parts = Vec::with_capacity(n);
            for _ in 0..n {
                parts.push(decode_pattern(r, depth + 1)?);
            }
            Ok(if tag == 5 {
                Pattern::Concat(parts)
            } else {
                Pattern::Alt(parts)
            })
        }
        7 => {
            let min = r.u32()?;
            let max = match r.u8()? {
                0 => None,
                1 => Some(r.u32()?),
                _ => return Err(r.malformed("bad optional tag")),
            };
            let body = Box::new(decode_pattern(r, depth + 1)?);
            Ok(Pattern::Repeat { body, min, max })
        }
        _ => Err(PersistError::Malformed {
            at,
            what: "pattern tag out of range",
        }),
    }
}

fn encode_masked_string(out: &mut Vec<u8>, ms: &MaskedString) {
    put_len(out, ms.toks().len());
    for tok in ms.toks() {
        match tok {
            Tok::Char(c) => {
                out.push(0);
                put_u32(out, *c as u32);
            }
            Tok::Mask(m) => {
                out.push(1);
                out.extend_from_slice(&m.0.to_le_bytes());
            }
        }
    }
}

fn decode_masked_string(r: &mut Reader<'_>) -> Result<MaskedString, PersistError> {
    let n = r.count(3)?;
    let mut toks = Vec::with_capacity(n);
    for _ in 0..n {
        toks.push(match r.u8()? {
            0 => Tok::Char(r.char()?),
            1 => Tok::Mask(MaskId(r.u16()?)),
            _ => return Err(r.malformed("token tag out of range")),
        });
    }
    Ok(MaskedString::from_toks(toks))
}

fn encode_alphabet(out: &mut Vec<u8>, alphabet: &MaskAlphabet) {
    put_len(out, alphabet.len());
    for i in 0..alphabet.len() {
        put_str(
            out,
            alphabet
                .name(MaskId(i as u16))
                .expect("alphabet ids are dense"),
        );
    }
}

fn decode_alphabet(r: &mut Reader<'_>) -> Result<MaskAlphabet, PersistError> {
    let names = decode_str_vec(r)?;
    let mut alphabet = MaskAlphabet::new();
    for (i, name) in names.iter().enumerate() {
        // `intern` dedups; a repeated name would silently renumber later
        // masks, so reject it instead.
        if alphabet.intern(name) != MaskId(i as u16) {
            return Err(r.malformed("duplicate mask name in alphabet"));
        }
    }
    Ok(alphabet)
}

// ------------------------------------------------------------- abstraction

fn encode_semantic_type(out: &mut Vec<u8>, ty: SemanticType) {
    put_str(out, ty.name());
}

fn decode_semantic_type(r: &mut Reader<'_>) -> Result<SemanticType, PersistError> {
    let at = r.pos;
    let name = r.str()?;
    SemanticType::parse(&name).ok_or(PersistError::Malformed {
        at,
        what: "unknown semantic type",
    })
}

fn encode_masked_value(out: &mut Vec<u8>, masked: &MaskedString, occurrences: &[MaskOccurrence]) {
    encode_masked_string(out, masked);
    put_len(out, occurrences.len());
    for occ in occurrences {
        out.extend_from_slice(&occ.mask.0.to_le_bytes());
        encode_semantic_type(out, occ.semantic_type);
        put_str(out, &occ.suggestion);
    }
}

fn decode_masked_value(r: &mut Reader<'_>) -> Result<MaskedValue, PersistError> {
    let masked = decode_masked_string(r)?;
    let n = r.count(2)?;
    let mut occurrences = Vec::with_capacity(n);
    for _ in 0..n {
        let mask = MaskId(r.u16()?);
        let semantic_type = decode_semantic_type(r)?;
        let suggestion = r.str()?;
        occurrences.push(MaskOccurrence {
            mask,
            semantic_type,
            suggestion,
        });
    }
    Ok(MaskedValue {
        masked,
        occurrences,
    })
}

fn encode_abstraction(out: &mut Vec<u8>, a: &AbstractedColumn) {
    // One value per row, as the format has always stored it.
    put_len(out, a.n_rows());
    for row in 0..a.n_rows() {
        encode_masked_value(out, a.masked_pool().value(row), a.occurrences(row));
    }
    encode_alphabet(out, &a.alphabet);
    // Deterministic bytes: hash-map entries in sorted key order.
    let mut defaults: Vec<(&MaskId, &String)> = a.defaults.iter().collect();
    defaults.sort_by_key(|(id, _)| id.0);
    put_len(out, defaults.len());
    for (id, text) in defaults {
        out.extend_from_slice(&id.0.to_le_bytes());
        put_str(out, text);
    }
}

fn decode_abstraction(r: &mut Reader<'_>) -> Result<AbstractedColumn, PersistError> {
    let n = r.count(4)?;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(decode_masked_value(r)?);
    }
    let alphabet = decode_alphabet(r)?;
    let n = r.count(2)?;
    let mut defaults = HashMap::with_capacity(n);
    for _ in 0..n {
        let id = MaskId(r.u16()?);
        let text = r.str()?;
        defaults.insert(id, text);
    }
    Ok(AbstractedColumn::from_rows(values, alphabet, defaults))
}

// ----------------------------------------------------------------- profile

fn encode_profile(out: &mut Vec<u8>, profile: &ColumnProfile) {
    put_len(out, profile.patterns.len());
    for lp in &profile.patterns {
        encode_pattern(out, &lp.pattern);
        encode_usize_vec(out, &lp.rows);
        put_u64(out, lp.coverage.to_bits());
    }
    put_usize(out, profile.n_values);
}

fn decode_profile(r: &mut Reader<'_>) -> Result<ColumnProfile, PersistError> {
    let n = r.count(1)?;
    let mut patterns = Vec::with_capacity(n);
    for _ in 0..n {
        let pattern = decode_pattern(r, 0)?;
        let rows = decode_usize_vec(r)?;
        let coverage = r.f64()?;
        // The compiled form is a deterministic function of the pattern;
        // recompiling on load keeps DFA internals out of the format.
        let compiled = CompiledPattern::compile(pattern.clone());
        patterns.push(LearnedPattern {
            pattern,
            compiled,
            rows,
            coverage,
        });
    }
    let n_values = r.usize()?;
    Ok(ColumnProfile { patterns, n_values })
}

// ----------------------------------------------------------------- reports

fn encode_detection(out: &mut Vec<u8>, d: &Detection) {
    put_usize(out, d.row);
    put_str(out, &d.value);
}

fn decode_detection(r: &mut Reader<'_>) -> Result<Detection, PersistError> {
    Ok(Detection {
        row: r.usize()?,
        value: r.str()?,
    })
}

fn encode_candidate(out: &mut Vec<u8>, c: &RepairCandidate) {
    put_str(out, &c.repaired);
    put_usize(out, c.cost);
    put_u64(out, c.score.to_bits());
    put_str(out, &c.provenance);
}

fn decode_candidate(r: &mut Reader<'_>) -> Result<RepairCandidate, PersistError> {
    Ok(RepairCandidate {
        repaired: r.str()?,
        cost: r.usize()?,
        score: r.f64()?,
        provenance: r.str()?,
    })
}

fn encode_suggestion(out: &mut Vec<u8>, s: &RepairSuggestion) {
    put_usize(out, s.row);
    put_str(out, &s.original);
    put_str(out, &s.repaired);
    put_len(out, s.candidates.len());
    for c in &s.candidates {
        encode_candidate(out, c);
    }
}

fn decode_suggestion(r: &mut Reader<'_>) -> Result<RepairSuggestion, PersistError> {
    let row = r.usize()?;
    let original = r.str()?;
    let repaired = r.str()?;
    let n = r.count(8)?;
    let mut candidates = Vec::with_capacity(n);
    for _ in 0..n {
        candidates.push(decode_candidate(r)?);
    }
    Ok(RepairSuggestion {
        row,
        original,
        repaired,
        candidates,
    })
}

/// Encodes a [`ColumnReport`] onto `out`.
pub fn encode_column_report(report: &ColumnReport, out: &mut Vec<u8>) {
    put_usize(out, report.col);
    put_usize(out, report.n_rows);
    encode_str_vec(out, &report.significant_patterns);
    put_len(out, report.detections.len());
    for d in &report.detections {
        encode_detection(out, d);
    }
    put_len(out, report.repairs.len());
    for s in &report.repairs {
        encode_suggestion(out, s);
    }
}

/// Decodes a [`ColumnReport`] from `r`.
pub fn decode_column_report(r: &mut Reader<'_>) -> Result<ColumnReport, PersistError> {
    let col = r.usize()?;
    let n_rows = r.usize()?;
    let significant_patterns = decode_str_vec(r)?;
    let n = r.count(8)?;
    let mut detections = Vec::with_capacity(n);
    for _ in 0..n {
        detections.push(decode_detection(r)?);
    }
    let n = r.count(8)?;
    let mut repairs = Vec::with_capacity(n);
    for _ in 0..n {
        repairs.push(decode_suggestion(r)?);
    }
    Ok(ColumnReport {
        col,
        n_rows,
        significant_patterns,
        detections,
        repairs,
    })
}

/// Encodes a [`ColumnAnalysis`] onto `out`.
pub fn encode_column_analysis(analysis: &ColumnAnalysis, out: &mut Vec<u8>) {
    put_usize(out, analysis.col);
    encode_str_vec(out, &analysis.values);
    encode_abstraction(out, &analysis.abstraction);
    // The format repeats every row's masked string after the abstraction;
    // decoding checks the copy against it.
    let masked = analysis.abstraction.masked_pool();
    put_len(out, masked.n_rows());
    for row in 0..masked.n_rows() {
        encode_masked_string(out, masked.value(row));
    }
    encode_profile(out, &analysis.profile);
    encode_usize_vec(out, &analysis.significant);
    encode_usize_vec(out, &analysis.error_rows);
    encode_usize_vec(out, &analysis.semantic_only_rows);
}

/// Decodes a [`ColumnAnalysis`] from `r`, rebuilding the derived state
/// (the abstraction's interning, compiled patterns). The per-row masked
/// strings stored after the abstraction must equal its own.
pub fn decode_column_analysis(r: &mut Reader<'_>) -> Result<ColumnAnalysis, PersistError> {
    let col = r.usize()?;
    let values = decode_str_vec(r)?;
    let abstraction = decode_abstraction(r)?;
    let masked = abstraction.masked_pool();
    let at = r.pos;
    if r.count(4)? != masked.n_rows() {
        return Err(PersistError::Malformed {
            at,
            what: "masked row count differs from the abstraction's",
        });
    }
    for row in 0..masked.n_rows() {
        let at = r.pos;
        if decode_masked_string(r)? != *masked.value(row) {
            return Err(PersistError::Malformed {
                at,
                what: "masked value differs from the abstraction's",
            });
        }
    }
    let profile = decode_profile(r)?;
    let significant = decode_usize_vec(r)?;
    let error_rows = decode_usize_vec(r)?;
    let semantic_only_rows = decode_usize_vec(r)?;
    Ok(ColumnAnalysis {
        col,
        values: Arc::new(values),
        abstraction,
        profile,
        significant,
        error_rows,
        semantic_only_rows,
    })
}

// ---------------------------------------------------------------- features

fn encode_predicate(out: &mut Vec<u8>, p: &Predicate) {
    match p {
        Predicate::Equals(c, s) => {
            out.push(0);
            put_usize(out, *c);
            put_str(out, s);
        }
        Predicate::Contains(c, s) => {
            out.push(1);
            put_usize(out, *c);
            put_str(out, s);
        }
        Predicate::StartsWith(c, s) => {
            out.push(2);
            put_usize(out, *c);
            put_str(out, s);
        }
        Predicate::EndsWith(c, s) => {
            out.push(3);
            put_usize(out, *c);
            put_str(out, s);
        }
        Predicate::Length(c, n) => {
            out.push(4);
            put_usize(out, *c);
            put_usize(out, *n);
        }
        Predicate::HasDigits(c) => {
            out.push(5);
            put_usize(out, *c);
        }
        Predicate::IsNum(c) => {
            out.push(6);
            put_usize(out, *c);
        }
        Predicate::IsError(c) => {
            out.push(7);
            put_usize(out, *c);
        }
        Predicate::IsFormula(c) => {
            out.push(8);
            put_usize(out, *c);
        }
        Predicate::IsLogical(c) => {
            out.push(9);
            put_usize(out, *c);
        }
        Predicate::IsNA(c) => {
            out.push(10);
            put_usize(out, *c);
        }
        Predicate::IsText(c) => {
            out.push(11);
            put_usize(out, *c);
        }
    }
}

fn decode_predicate(r: &mut Reader<'_>) -> Result<Predicate, PersistError> {
    let at = r.pos;
    let tag = r.u8()?;
    let col = r.usize()?;
    Ok(match tag {
        0 => Predicate::Equals(col, r.str()?),
        1 => Predicate::Contains(col, r.str()?),
        2 => Predicate::StartsWith(col, r.str()?),
        3 => Predicate::EndsWith(col, r.str()?),
        4 => Predicate::Length(col, r.usize()?),
        5 => Predicate::HasDigits(col),
        6 => Predicate::IsNum(col),
        7 => Predicate::IsError(col),
        8 => Predicate::IsFormula(col),
        9 => Predicate::IsLogical(col),
        10 => Predicate::IsNA(col),
        11 => Predicate::IsText(col),
        _ => {
            return Err(PersistError::Malformed {
                at,
                what: "predicate tag out of range",
            })
        }
    })
}

/// Encodes a [`FeatureSet`] onto `out` (predicates only; the lowered
/// constant cache is derived and rebuilt on decode).
pub fn encode_feature_set(features: &FeatureSet, out: &mut Vec<u8>) {
    put_len(out, features.predicates.len());
    for p in &features.predicates {
        encode_predicate(out, p);
    }
}

/// Decodes a [`FeatureSet`] from `r`.
pub fn decode_feature_set(r: &mut Reader<'_>) -> Result<FeatureSet, PersistError> {
    let n = r.count(9)?;
    let mut predicates = Vec::with_capacity(n);
    for _ in 0..n {
        predicates.push(decode_predicate(r)?);
    }
    Ok(FeatureSet::from_predicates(predicates))
}

// ---------------------------------------------------------------- snapshot

/// Encodes the persistable skeleton of a [`SessionSnapshot`]: table shape,
/// per-column fingerprints, and the learned feature set. Derived state
/// (rendered matrix, row interner, value vectors) is omitted — a resumed session
/// rebuilds it lazily from the table.
pub fn encode_snapshot(snapshot: &SessionSnapshot, out: &mut Vec<u8>) {
    encode_str_vec(out, snapshot.headers());
    put_usize(out, snapshot.n_rows());
    put_len(out, snapshot.column_prints().len());
    for &print in snapshot.column_prints() {
        put_u64(out, print);
    }
    match snapshot.features() {
        Some(features) => {
            out.push(1);
            encode_feature_set(features, out);
        }
        None => out.push(0),
    }
}

/// Decodes a snapshot skeleton from `r`, wiring it to `mask_cache` (pass
/// the cleaning system's shared cache so a resumed session memoizes into
/// the same place a live one would).
pub fn decode_snapshot(
    r: &mut Reader<'_>,
    mask_cache: Arc<MaskCache>,
) -> Result<SessionSnapshot, PersistError> {
    let headers = decode_str_vec(r)?;
    let n_rows = r.usize()?;
    let n = r.count(8)?;
    let mut column_prints = Vec::with_capacity(n);
    for _ in 0..n {
        column_prints.push(r.u64()?);
    }
    let features = match r.u8()? {
        0 => None,
        1 => Some(Arc::new(decode_feature_set(r)?)),
        _ => return Err(r.malformed("bad optional tag")),
    };
    Ok(SessionSnapshot::from_parts(
        headers,
        n_rows,
        column_prints,
        features,
        mask_cache,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::DataVinci;
    use datavinci_table::{Column, Table};

    fn analysis_fixture() -> (DataVinci, Table) {
        let table = Table::new(vec![
            Column::from_texts(
                "Player ID",
                &["IN-674-PRO", "usa_837", "DZ-173-PRO", "US-201-QUA"],
            ),
            Column::from_texts("City", &["Boston", "Miami", "Birminxham", "Chicago"]),
        ]);
        (DataVinci::new(), table)
    }

    #[test]
    fn column_report_roundtrip_is_identical() {
        let (dv, table) = analysis_fixture();
        let report = dv.clean_column(&table, 0);
        let mut buf = Vec::new();
        encode_column_report(&report, &mut buf);
        let mut r = Reader::new(&buf);
        let back = decode_column_report(&mut r).expect("round trip");
        assert!(r.is_empty());
        assert_eq!(format!("{report:#?}"), format!("{back:#?}"));
        // Determinism: re-encoding the decoded value reproduces the bytes.
        let mut buf2 = Vec::new();
        encode_column_report(&back, &mut buf2);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn column_analysis_roundtrip_replays_identically() {
        let (dv, table) = analysis_fixture();
        let session = dv.session(&table);
        let analysis = dv.analyze_column_in(&session, 0);
        let mut buf = Vec::new();
        encode_column_analysis(&analysis, &mut buf);
        let mut r = Reader::new(&buf);
        let back = decode_column_analysis(&mut r).expect("round trip");
        assert!(r.is_empty());
        // The decoded analysis must drive the repair path to the same
        // report as the original (pool and compiled patterns rebuilt).
        let a = dv.repair_analysis_in(&session, &analysis);
        let b = dv.repair_analysis_in(&session, &back);
        assert_eq!(format!("{a:#?}"), format!("{b:#?}"));
    }

    #[test]
    fn masked_copy_disagreeing_with_the_abstraction_is_rejected() {
        let (dv, table) = analysis_fixture();
        let analysis = dv.analyze_column(&table, 0);
        let a = &analysis.abstraction;
        // A record laid out like `encode_column_analysis`, with `masked`
        // in place of the per-row masked copy.
        let record = |masked: &[MaskedString]| {
            let mut out = Vec::new();
            put_usize(&mut out, analysis.col);
            encode_str_vec(&mut out, &analysis.values);
            encode_abstraction(&mut out, a);
            put_len(&mut out, masked.len());
            for m in masked {
                encode_masked_string(&mut out, m);
            }
            encode_profile(&mut out, &analysis.profile);
            encode_usize_vec(&mut out, &analysis.significant);
            encode_usize_vec(&mut out, &analysis.error_rows);
            encode_usize_vec(&mut out, &analysis.semantic_only_rows);
            out
        };
        let rows: Vec<MaskedString> = (0..a.n_rows())
            .map(|r| analysis.masked(r).clone())
            .collect();
        let mut encoded = Vec::new();
        encode_column_analysis(&analysis, &mut encoded);
        assert_eq!(record(&rows), encoded);
        assert!(decode_column_analysis(&mut Reader::new(&record(&rows))).is_ok());

        let mut swapped = rows.clone();
        swapped.swap(0, 1);
        assert_ne!(swapped, rows);
        let mut changed = rows.clone();
        changed[3] = MaskedString::from_plain("US-201-QUA");
        assert_ne!(changed, rows);
        for bad in [swapped, changed, rows[1..].to_vec()] {
            let err = decode_column_analysis(&mut Reader::new(&record(&bad)))
                .expect_err("a mismatched masked copy must not decode");
            assert!(matches!(err, PersistError::Malformed { .. }), "{err:?}");
        }
    }

    #[test]
    fn feature_set_roundtrip_preserves_evaluation() {
        let (_, table) = analysis_fixture();
        let features = FeatureSet::generate(&table);
        let mut buf = Vec::new();
        encode_feature_set(&features, &mut buf);
        let mut r = Reader::new(&buf);
        let back = decode_feature_set(&mut r).expect("round trip");
        assert!(r.is_empty());
        assert_eq!(back.predicates, features.predicates);
        for row in 0..table.n_rows() {
            assert_eq!(
                back.row_features(&table, row),
                features.row_features(&table, row)
            );
        }
    }

    #[test]
    fn snapshot_roundtrip_resumes_on_grown_table() {
        let (dv, table) = analysis_fixture();
        let session = dv.session(&table);
        let _ = session.features(); // force feature generation
        let snapshot = session.into_snapshot();
        let mut buf = Vec::new();
        encode_snapshot(&snapshot, &mut buf);
        let mut r = Reader::new(&buf);
        let back = decode_snapshot(&mut r, dv.mask_cache()).expect("round trip");
        assert!(r.is_empty());
        assert_eq!(back.headers(), snapshot.headers());
        assert_eq!(back.n_rows(), snapshot.n_rows());
        assert_eq!(back.column_prints(), snapshot.column_prints());
        assert!(back.features().is_some());
        assert!(back.resumable_for(&table));
        // And the skeleton actually resumes (lazy state rebuilt on use).
        let resumed = crate::AnalysisSession::resume(back, &table).expect("resumes");
        assert_eq!(resumed.stats().feature_generations, 0);
        let _ = resumed.features();
        assert_eq!(resumed.stats().feature_generations, 0, "features carried");
    }

    #[test]
    fn truncation_never_panics_and_always_errors() {
        let (dv, table) = analysis_fixture();
        let session = dv.session(&table);
        let analysis = dv.analyze_column_in(&session, 0);
        let mut buf = Vec::new();
        encode_column_analysis(&analysis, &mut buf);
        for len in 0..buf.len() {
            let mut r = Reader::new(&buf[..len]);
            assert!(
                decode_column_analysis(&mut r).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn bad_tags_are_rejected() {
        // Pattern tag 255.
        let mut r = Reader::new(&[255]);
        assert!(decode_pattern(&mut r, 0).is_err());
        // Class index 8 (out of range).
        let mut r = Reader::new(&[8]);
        assert!(decode_class(&mut r).is_err());
        // Invalid char scalar (0xD800 is a surrogate).
        let buf = [0u8, 0x00, 0xD8, 0x00, 0x00];
        let mut toks = vec![1u8, 0, 0, 0];
        toks.extend_from_slice(&buf);
        let mut r = Reader::new(&toks);
        assert!(decode_masked_string(&mut r).is_err());
        // Length prefix exceeding the payload is rejected before allocating.
        let huge = [0xFF, 0xFF, 0xFF, 0xFF];
        let mut r = Reader::new(&huge);
        assert!(decode_str_vec(&mut r).is_err());
    }

    #[test]
    fn deep_pattern_nesting_is_rejected() {
        let mut buf = Vec::new();
        for _ in 0..200 {
            buf.push(7u8); // Repeat
            put_u32(&mut buf, 0);
            buf.push(0u8); // max = None
        }
        buf.push(0u8); // innermost Empty
        let mut r = Reader::new(&buf);
        assert!(decode_pattern(&mut r, 0).is_err());
    }
}
