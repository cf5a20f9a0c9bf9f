//! Masked strings: the alphabet the pattern engine operates over.
//!
//! Paper §3.2 replaces semantic substrings with mask tokens before pattern
//! learning ("`{country(US)}-123` … transformed to `m1-123` and `m1` is added
//! to the alphabet for our regular expression learner"). A [`MaskedString`]
//! is therefore a sequence of [`Tok`]s, each either a plain character or a
//! semantic mask token; an unmasked string is simply a masked string with no
//! mask tokens.

use std::fmt;

/// Identifier for a semantic mask symbol (one per semantic type in use).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MaskId(pub u16);

/// Registry mapping mask ids to their human-readable semantic type names.
///
/// The regex engine treats masks opaquely; the alphabet exists so patterns
/// render as the paper shows them (`{Country}-[0-9]+-(CAT|PRO)`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MaskAlphabet {
    names: Vec<String>,
}

impl MaskAlphabet {
    /// An empty alphabet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its stable [`MaskId`].
    pub fn intern(&mut self, name: &str) -> MaskId {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            MaskId(i as u16)
        } else {
            self.names.push(name.to_string());
            MaskId((self.names.len() - 1) as u16)
        }
    }

    /// The name for `id`, if registered.
    pub fn name(&self, id: MaskId) -> Option<&str> {
        self.names.get(id.0 as usize).map(String::as_str)
    }

    /// Number of registered masks.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no masks are registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// One token of a masked string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tok {
    /// A plain character.
    Char(char),
    /// A semantic mask token (counts as a single symbol).
    Mask(MaskId),
}

impl Tok {
    /// The character, if this is a plain character token.
    pub fn as_char(&self) -> Option<char> {
        match self {
            Tok::Char(c) => Some(*c),
            Tok::Mask(_) => None,
        }
    }

    /// True for mask tokens.
    pub fn is_mask(&self) -> bool {
        matches!(self, Tok::Mask(_))
    }
}

/// A string over the extended alphabet of characters and mask tokens.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct MaskedString {
    toks: Vec<Tok>,
}

impl MaskedString {
    /// Builds a purely syntactic masked string from a plain `&str`.
    pub fn from_plain(s: &str) -> Self {
        MaskedString {
            toks: s.chars().map(Tok::Char).collect(),
        }
    }

    /// Builds a masked string from explicit tokens.
    pub fn from_toks(toks: Vec<Tok>) -> Self {
        MaskedString { toks }
    }

    /// The token sequence.
    pub fn toks(&self) -> &[Tok] {
        &self.toks
    }

    /// Number of tokens (masks count as one symbol).
    pub fn len(&self) -> usize {
        self.toks.len()
    }

    /// True when the string is empty.
    pub fn is_empty(&self) -> bool {
        self.toks.is_empty()
    }

    /// True when at least one token is a semantic mask.
    pub fn has_masks(&self) -> bool {
        self.toks.iter().any(Tok::is_mask)
    }

    /// Appends a token.
    pub fn push(&mut self, tok: Tok) {
        self.toks.push(tok);
    }

    /// If the string contains no masks, its plain-character rendering.
    pub fn to_plain(&self) -> Option<String> {
        let mut out = String::with_capacity(self.toks.len());
        for t in &self.toks {
            out.push(t.as_char()?);
        }
        Some(out)
    }

    /// Debug-friendly rendering using `⟨name⟩` for masks.
    pub fn render(&self, alphabet: &MaskAlphabet) -> String {
        let mut out = String::new();
        for t in &self.toks {
            match t {
                Tok::Char(c) => out.push(*c),
                Tok::Mask(id) => {
                    out.push('⟨');
                    out.push_str(alphabet.name(*id).unwrap_or("?"));
                    out.push('⟩');
                }
            }
        }
        out
    }
}

impl fmt::Display for MaskedString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in &self.toks {
            match t {
                Tok::Char(c) => write!(f, "{c}")?,
                Tok::Mask(id) => write!(f, "⟨m{}⟩", id.0)?,
            }
        }
        Ok(())
    }
}

impl From<&str> for MaskedString {
    fn from(s: &str) -> Self {
        MaskedString::from_plain(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_round_trip() {
        let m = MaskedString::from_plain("Q1-22");
        assert_eq!(m.len(), 5);
        assert_eq!(m.to_plain().as_deref(), Some("Q1-22"));
        assert!(!m.has_masks());
    }

    #[test]
    fn masks_block_plain_rendering() {
        let mut alpha = MaskAlphabet::new();
        let country = alpha.intern("Country");
        let m = MaskedString::from_toks(vec![Tok::Mask(country), Tok::Char('-'), Tok::Char('1')]);
        assert!(m.has_masks());
        assert!(m.to_plain().is_none());
        assert_eq!(m.render(&alpha), "⟨Country⟩-1");
    }

    #[test]
    fn alphabet_interning_is_stable() {
        let mut alpha = MaskAlphabet::new();
        let a = alpha.intern("Country");
        let b = alpha.intern("City");
        let a2 = alpha.intern("Country");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(alpha.name(b), Some("City"));
        assert_eq!(alpha.len(), 2);
    }

    #[test]
    fn display_uses_numeric_fallback() {
        let m = MaskedString::from_toks(vec![Tok::Mask(MaskId(3)), Tok::Char('x')]);
        assert_eq!(m.to_string(), "⟨m3⟩x");
    }
}
