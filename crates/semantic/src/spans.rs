//! Candidate span extraction for semantic lookup.
//!
//! A span is a substring that could denote a semantic concept: a single
//! word, a run of up to three words joined by single spaces (`New York`,
//! `dark green`), or a dotted abbreviation (`u.k.` → lookup text `uk`).
//! Positions are in characters.

/// A candidate span within a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Start offset in characters.
    pub start: usize,
    /// Length in characters (of the original text).
    pub len: usize,
    /// Text to look up (dots stripped for abbreviations).
    pub lookup: String,
}

impl Span {
    /// Does this span overlap another?
    pub fn overlaps(&self, other: &Span) -> bool {
        self.start < other.start + other.len && other.start < self.start + self.len
    }
}

/// Extracts all candidate spans, longest-first then leftmost.
pub fn candidate_spans(value: &str) -> Vec<Span> {
    let chars: Vec<char> = value.chars().collect();
    let mut words: Vec<(usize, usize)> = Vec::new(); // (start, len) of alpha runs
    let mut i = 0;
    while i < chars.len() {
        if chars[i].is_ascii_alphabetic() {
            let start = i;
            while i < chars.len() && chars[i].is_ascii_alphabetic() {
                i += 1;
            }
            words.push((start, i - start));
        } else {
            i += 1;
        }
    }

    let mut spans: Vec<Span> = Vec::new();

    // Multi-word spans: consecutive words separated by exactly one space.
    for w in (1..=3usize).rev() {
        if words.len() < w {
            continue;
        }
        'outer: for s in 0..=(words.len() - w) {
            for k in s..s + w - 1 {
                let (cs, cl) = words[k];
                let (ns, _) = words[k + 1];
                if ns != cs + cl + 1 || chars[cs + cl] != ' ' {
                    continue 'outer;
                }
            }
            let (start, _) = words[s];
            let (ls, ll) = words[s + w - 1];
            let len = ls + ll - start;
            let lookup: String = chars[start..start + len].iter().collect();
            spans.push(Span { start, len, lookup });
        }
    }

    // Dotted abbreviations: single letters separated by dots, e.g. `u.k.`.
    let mut i = 0;
    while i < chars.len() {
        if chars[i].is_ascii_alphabetic()
            && i + 1 < chars.len()
            && chars[i + 1] == '.'
            && (i == 0 || !chars[i - 1].is_ascii_alphabetic())
        {
            let start = i;
            let mut letters = String::new();
            let mut j = i;
            while j + 1 < chars.len() && chars[j].is_ascii_alphabetic() && chars[j + 1] == '.' {
                letters.push(chars[j]);
                j += 2;
            }
            if letters.chars().count() >= 2 {
                spans.push(Span {
                    start,
                    len: j - start,
                    lookup: letters,
                });
                i = j;
                continue;
            }
        }
        i += 1;
    }

    // Longest first, then leftmost — the greedy masking order.
    spans.sort_by_key(|s| (std::cmp::Reverse(s.len), s.start));
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lookups(value: &str) -> Vec<String> {
        candidate_spans(value)
            .into_iter()
            .map(|s| s.lookup)
            .collect()
    }

    #[test]
    fn single_words() {
        assert_eq!(lookups("usa_837"), vec!["usa"]);
        assert_eq!(lookups("Ind-674-PRO"), vec!["Ind", "PRO"]);
    }

    #[test]
    fn multi_word_spans_longest_first() {
        let l = lookups("New York City");
        assert_eq!(l[0], "New York City");
        assert!(l.contains(&"New York".to_string()));
        assert!(l.contains(&"York City".to_string()));
        assert!(l.contains(&"City".to_string()));
    }

    #[test]
    fn double_space_blocks_joining() {
        let l = lookups("New  York");
        assert!(!l.contains(&"New York".to_string()));
        assert!(l.contains(&"New".to_string()));
    }

    #[test]
    fn dotted_abbreviation() {
        let spans = candidate_spans("u.k.-392");
        let abbr = spans.iter().find(|s| s.lookup == "uk").expect("uk span");
        assert_eq!(abbr.start, 0);
        assert_eq!(abbr.len, 4); // "u.k."
    }

    #[test]
    fn overlap_detection() {
        let a = Span {
            start: 0,
            len: 4,
            lookup: "ab c".into(),
        };
        let b = Span {
            start: 3,
            len: 2,
            lookup: "cd".into(),
        };
        let c = Span {
            start: 4,
            len: 1,
            lookup: "d".into(),
        };
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&c));
    }

    #[test]
    fn lookups_are_ascii_letters_and_single_spaces() {
        // Every string of up to four chars over letters, digits, the
        // separators, and multibyte letters, plus longer mixed values.
        // Lookups never hold a digit, so inverting visual typos inside a
        // span would change nothing.
        const CHARS: &[char] = &['a', 'Z', '0', '5', ' ', '.', '-', '_', 'é', 'İ'];
        let (mut values, mut level) = (Vec::new(), vec![String::new()]);
        for _ in 0..4 {
            level = level
                .iter()
                .flat_map(|v| CHARS.iter().map(move |c| format!("{v}{c}")))
                .collect();
            values.extend(level.iter().cloned());
        }
        values.extend(
            [
                "Rh0de Island",
                "u.k.-392",
                "New  York City",
                "a.b.c.",
                "São Paulo",
                "x1y2 z3",
            ]
            .map(String::from),
        );
        for value in &values {
            for span in candidate_spans(value) {
                assert!(
                    !span.lookup.is_empty()
                        && span
                            .lookup
                            .chars()
                            .all(|c| c.is_ascii_alphabetic() || c == ' ')
                        && !span.lookup.starts_with(' ')
                        && !span.lookup.ends_with(' ')
                        && !span.lookup.contains("  "),
                    "{value:?} → {:?}",
                    span.lookup
                );
            }
        }
    }

    #[test]
    fn no_words_no_spans() {
        assert!(candidate_spans("12-34").is_empty());
        assert!(candidate_spans("").is_empty());
    }
}
