//! Crate-local first-occurrence interning.
//!
//! The masking model and the column-type detector both compute per
//! *distinct* value and weight aggregates by multiplicity; this helper is
//! their shared intern step. It is the only interning of raw column values:
//! the model interns each prompt batch, the column-type detector interns the
//! whole column, and so does the mask-free [`crate::AbstractedColumn::plain`],
//! whose distinct values are its lines. A masked abstraction interns
//! response lines instead. Either way, the lines' masked strings are then
//! interned by value into the column's own
//! [`MaskedPool`](datavinci_profile::MaskedPool), which keeps one copy of
//! each.

/// Distinct values in first-occurrence order, their multiplicities, and the
/// input-position → distinct-index map.
pub(crate) struct Interned<'a> {
    /// Distinct values, in first-occurrence order.
    pub distinct: Vec<&'a str>,
    /// Multiplicity of each distinct value.
    pub counts: Vec<usize>,
    /// For every input position, the index of its value in `distinct`.
    pub row_to_distinct: Vec<usize>,
}

/// Interns `values`, preserving first-occurrence order.
pub(crate) fn intern_values<'a, S: AsRef<str>>(values: &'a [S]) -> Interned<'a> {
    let mut index: std::collections::HashMap<&str, usize> =
        std::collections::HashMap::with_capacity(values.len());
    let mut distinct: Vec<&str> = Vec::new();
    let mut counts: Vec<usize> = Vec::new();
    let mut row_to_distinct: Vec<usize> = Vec::with_capacity(values.len());
    for v in values {
        let v = v.as_ref();
        let di = *index.entry(v).or_insert_with(|| {
            distinct.push(v);
            counts.push(0);
            distinct.len() - 1
        });
        counts[di] += 1;
        row_to_distinct.push(di);
    }
    Interned {
        distinct,
        counts,
        row_to_distinct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interns_in_first_occurrence_order() {
        let i = intern_values(&["b", "a", "b", "b", "c"]);
        assert_eq!(i.distinct, ["b", "a", "c"]);
        assert_eq!(i.counts, [3, 1, 1]);
        assert_eq!(i.row_to_distinct, [0, 1, 0, 0, 2]);
    }

    #[test]
    fn empty_input() {
        let i = intern_values::<&str>(&[]);
        assert!(i.distinct.is_empty());
        assert!(i.row_to_distinct.is_empty());
    }
}
