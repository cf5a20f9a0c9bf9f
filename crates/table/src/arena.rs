//! Bump-style string storage: many small strings, few allocations.
//!
//! Distinct-value interning ([`crate::ValuePool`]) creates large
//! populations of short strings whose lifetimes all end together. Storing
//! each in its own `String` costs one heap allocation per value; a
//! [`StrArena`] instead appends them into a small number of fixed-capacity
//! segments and hands out offset-based [`ArenaRef`] handles, so a
//! 200-distinct column costs a handful of allocations rather than two
//! hundred.

/// Default capacity of each arena segment, in bytes. Oversized strings get
/// a dedicated segment instead of forcing a realloc.
const SEGMENT_BYTES: usize = 16 * 1024;

/// A handle into a [`StrArena`]: segment index plus byte range.
///
/// Handles are `Copy`, 12 bytes, and remain valid for the arena's lifetime
/// (segments are append-only and never reallocate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArenaRef {
    seg: u32,
    start: u32,
    len: u32,
}

impl ArenaRef {
    /// Length in bytes of the referenced string.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// True when the referenced string is empty.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// Append-only string storage over fixed-capacity `String` segments.
#[derive(Debug, Default, Clone)]
pub struct StrArena {
    segments: Vec<String>,
    bytes: usize,
}

impl StrArena {
    /// An empty arena (no segments until the first push).
    pub fn new() -> StrArena {
        StrArena::default()
    }

    /// Appends `s` and returns its handle. Never copies or moves previously
    /// pushed strings: a segment that cannot fit `s` is left as-is and a new
    /// one is started.
    pub fn push(&mut self, s: &str) -> ArenaRef {
        let fits = self
            .segments
            .last()
            .is_some_and(|seg| seg.len() + s.len() <= seg.capacity());
        if !fits {
            self.segments
                .push(String::with_capacity(SEGMENT_BYTES.max(s.len())));
        }
        let seg = self.segments.len() - 1;
        let tail = &mut self.segments[seg];
        let start = tail.len();
        tail.push_str(s);
        self.bytes += s.len();
        ArenaRef {
            seg: seg as u32,
            start: start as u32,
            len: s.len() as u32,
        }
    }

    /// Resolves a handle back to its string slice.
    pub fn get(&self, r: ArenaRef) -> &str {
        &self.segments[r.seg as usize][r.start as usize..(r.start + r.len) as usize]
    }

    /// Total bytes stored.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of backing segments (≈ allocations made).
    pub fn n_segments(&self) -> usize {
        self.segments.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_round_trip() {
        let mut arena = StrArena::new();
        let a = arena.push("hello");
        let b = arena.push("");
        let c = arena.push("wörld");
        assert_eq!(arena.get(a), "hello");
        assert_eq!(arena.get(b), "");
        assert_eq!(arena.get(c), "wörld");
        assert_eq!(a.len(), 5);
        assert!(b.is_empty());
        assert_eq!(arena.bytes(), 5 + "wörld".len());
    }

    #[test]
    fn segments_never_move_existing_strings() {
        let mut arena = StrArena::new();
        let small = arena.push("abc");
        // A string larger than a whole segment gets its own segment; the
        // prior segment (and handle) stay valid.
        let big_src = "x".repeat(SEGMENT_BYTES + 7);
        let big = arena.push(&big_src);
        let after = arena.push("def");
        assert_eq!(arena.get(small), "abc");
        assert_eq!(arena.get(big), big_src);
        assert_eq!(arena.get(after), "def");
        assert!(arena.n_segments() >= 2);
    }

    #[test]
    fn many_small_strings_use_few_segments() {
        let mut arena = StrArena::new();
        let refs: Vec<(ArenaRef, String)> = (0..1000)
            .map(|i| {
                let s = format!("value-{i}");
                (arena.push(&s), s)
            })
            .collect();
        for (r, s) in &refs {
            assert_eq!(arena.get(*r), s);
        }
        // ~9 bytes per string → everything fits in a single 16 KiB segment.
        assert_eq!(arena.n_segments(), 1);
    }
}
