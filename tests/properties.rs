//! Property-based tests (proptest) over the workspace's core invariants.

use proptest::prelude::*;

use datavinci::core::{minimal_edit_program, Emit};
use datavinci::profile::{profile_plain, ProfilerConfig};
use datavinci::regex::{
    levenshtein, levenshtein_toks, levenshtein_within, CharClass, CompiledPattern, MaskedString,
    Pattern,
};

/// A small generator of patterns: literals, classes, disjunctions,
/// concatenations, and quantifiers (depth-bounded).
fn arb_pattern() -> impl Strategy<Value = Pattern> {
    let leaf = prop_oneof![
        "[a-c]{1,3}".prop_map(Pattern::lit),
        Just(Pattern::Class(CharClass::Digit)),
        Just(Pattern::Class(CharClass::Lower)),
        Just(Pattern::Class(CharClass::Upper)),
        Just(Pattern::disj(["cat", "dog"])),
        Just(Pattern::disj(["ON", "OFF", "AUTO"])),
    ];
    leaf.prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(Pattern::concat),
            inner.clone().prop_map(Pattern::plus),
            inner.clone().prop_map(Pattern::opt),
            (inner, 2u32..4).prop_map(|(p, n)| Pattern::Repeat {
                body: Box::new(p),
                min: n,
                max: Some(n),
            }),
        ]
    })
}

/// Applies (kind, position, char) edits to `s`: 0 substitutes, 1 inserts,
/// 2 deletes; positions wrap modulo the current length.
fn apply_edits(s: &str, edits: &[(usize, usize, String)]) -> String {
    let mut chars: Vec<char> = s.chars().collect();
    for (kind, pos, text) in edits {
        let c = text.chars().next().expect("one char");
        match kind {
            0 if !chars.is_empty() => {
                let at = pos % chars.len();
                chars[at] = c;
            }
            2 if !chars.is_empty() => {
                chars.remove(pos % chars.len());
            }
            _ => chars.insert(pos % (chars.len() + 1), c),
        }
    }
    chars.into_iter().collect()
}

/// Generates a string the pattern accepts, by sampling a derivation.
fn sample_member(pattern: &Pattern, picks: &mut impl Iterator<Item = usize>) -> String {
    let mut pick = |n: usize| picks.next().unwrap_or(0) % n.max(1);
    fn go(p: &Pattern, pick: &mut dyn FnMut(usize) -> usize) -> String {
        match p {
            Pattern::Empty => String::new(),
            Pattern::Str(s) => s.clone(),
            Pattern::Class(c) => {
                let candidates: Vec<char> = ('0'..='9')
                    .chain('a'..='z')
                    .chain('A'..='Z')
                    .chain(std::iter::once(' '))
                    .filter(|ch| c.contains(*ch))
                    .collect();
                candidates[pick(candidates.len())].to_string()
            }
            Pattern::Mask(_) => String::new(),
            Pattern::Disj(alts) => alts[pick(alts.len())].clone(),
            Pattern::Concat(parts) => parts.iter().map(|q| go(q, pick)).collect(),
            Pattern::Alt(parts) => go(&parts[pick(parts.len())], pick),
            Pattern::Repeat { body, min, max } => {
                let extra = match max {
                    Some(m) => pick((*m - *min + 1) as usize) as u32,
                    None => pick(3) as u32,
                };
                (0..min + extra).map(|_| go(body, pick)).collect()
            }
        }
    }
    go(pattern, &mut pick)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Sampled members of a pattern's language always match it.
    #[test]
    fn sampled_members_match(pattern in arb_pattern(), picks in prop::collection::vec(0usize..97, 32)) {
        let member = sample_member(&pattern, &mut picks.into_iter());
        prop_assume!(member.len() <= 40);
        let compiled = CompiledPattern::compile(pattern);
        prop_assert!(compiled.matches(&MaskedString::from_plain(&member)),
            "{member:?} must match {}", compiled.pattern());
    }

    /// The repair DP always produces a program whose application, with any
    /// valid hole filling, lands in the pattern's language — and members
    /// repair at cost 0.
    #[test]
    fn repairs_always_land_in_language(
        pattern in arb_pattern(),
        value in "[a-zA-Z0-9.\\- ]{0,12}",
    ) {
        let compiled = CompiledPattern::compile(pattern);
        let v = MaskedString::from_plain(&value);
        let dag = compiled.dag_for_len(v.len());
        let program = minimal_edit_program(&dag, &v).expect("always repairable");
        if compiled.matches(&v) {
            prop_assert_eq!(program.cost, 0, "members repair free");
        }
        let repair = program.apply(&v);
        let fillers: Vec<String> = repair
            .fillable_holes()
            .iter()
            .map(|e| match e {
                Emit::Class(cc, _) => cc.representative().to_string(),
                Emit::Disj(alts, _) => alts[0].clone(),
                Emit::Char(_) | Emit::Mask(..) => unreachable!(),
            })
            .collect();
        let fixed = repair.fill(&fillers);
        prop_assert!(compiled.matches(&fixed),
            "{} not in L({}) after program {}", fixed, compiled.pattern(), program.shorthand());
    }

    /// DP cost is bounded above by full rewrite (delete all + min length)
    /// and is exactly Levenshtein for literal patterns.
    #[test]
    fn dp_cost_bounds(lit in "[a-z0-9]{1,8}", value in "[a-z0-9]{0,8}") {
        let pattern = Pattern::lit(lit.clone());
        let compiled = CompiledPattern::compile(pattern);
        let v = MaskedString::from_plain(&value);
        let dag = compiled.dag_for_len(v.len());
        let program = minimal_edit_program(&dag, &v).expect("repairable");
        prop_assert_eq!(program.cost, levenshtein(&lit, &value));
    }

    /// Levenshtein is a metric: symmetry + triangle inequality + identity.
    #[test]
    fn levenshtein_is_a_metric(a in "[a-c]{0,8}", b in "[a-c]{0,8}", c in "[a-c]{0,8}") {
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        prop_assert_eq!(levenshtein(&a, &a), 0);
        prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
        // Token-level agrees with char-level on plain strings.
        prop_assert_eq!(
            levenshtein_toks(&MaskedString::from_plain(&a), &MaskedString::from_plain(&b)),
            levenshtein(&a, &b)
        );
    }

    /// The banded variant agrees with the exact distance.
    #[test]
    fn banded_levenshtein_agrees(a in "[a-d]{0,10}", b in "[a-d]{0,10}", bound in 0usize..6) {
        let exact = levenshtein(&a, &b);
        match levenshtein_within(&a, &b, bound) {
            Some(d) => prop_assert_eq!(d, exact),
            None => prop_assert!(exact > bound),
        }
    }

    /// Band-edge differential: the banded variant must agree with the
    /// exact distance at every bound from 0 to the distance + 2 — the
    /// off-by-one regime a too-narrow band, or a stale cell just outside
    /// it, would corrupt — on multibyte UTF-8 strings of up to 200 chars,
    /// including empty ones. Half the cases compare a string with a few
    /// random edits of itself, so the band is narrow next to the length.
    #[test]
    fn banded_levenshtein_is_exact_at_the_band_edge(
        a in "[abé漢]{0,200}",
        other in "[abé漢]{0,200}",
        edits in prop::collection::vec((0usize..3, 0usize..200, "[abé漢]{1}"), 0..12),
        mutate in 0usize..2,
    ) {
        let b = if mutate == 1 { apply_edits(&a, &edits) } else { other };
        let exact = levenshtein(&a, &b);
        for bound in 0..=exact + 2 {
            match levenshtein_within(&a, &b, bound) {
                Some(d) => {
                    prop_assert!(d <= bound, "reported {d} above bound {bound}");
                    prop_assert_eq!(d, exact);
                }
                None => prop_assert!(exact > bound, "rejected in-band distance {exact} at bound {bound}"),
            }
        }
        // A pure length gap is the band's worst case: the distance equals
        // the gap, so bound == gap must find it and bound == gap − 1 must
        // refuse.
        let gap = a.chars().count();
        prop_assert_eq!(levenshtein_within(&a, "", gap), Some(gap));
        prop_assert_eq!(levenshtein_within("", &a, gap), Some(gap));
        if gap > 0 {
            prop_assert_eq!(levenshtein_within(&a, "", gap - 1), None);
        }
    }

    /// The profiler's learned patterns jointly cover every input value.
    #[test]
    fn profiler_covers_all_values(values in prop::collection::vec("[a-zA-Z0-9.\\-_ ]{1,10}", 1..24)) {
        let profile = profile_plain(&values, &ProfilerConfig { max_patterns: 64, ..Default::default() });
        for (row, v) in values.iter().enumerate() {
            prop_assert!(
                profile.patterns.iter().any(|lp| lp.rows.contains(&row)),
                "value {v:?} (row {row}) uncovered by {:?}",
                profile.patterns.iter().map(|p| p.pattern.to_string()).collect::<Vec<_>>()
            );
        }
        // Coverage bookkeeping is consistent.
        for lp in &profile.patterns {
            prop_assert!((lp.coverage - lp.rows.len() as f64 / values.len() as f64).abs() < 1e-9);
            for &row in &lp.rows {
                prop_assert!(lp.compiled.matches(&MaskedString::from_plain(&values[row])));
            }
        }
    }
}

mod noise_properties {
    use super::*;
    use datavinci::corpus::NoiseModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Corruption always changes the value and applies 1–4 distinct ops.
        #[test]
        fn corruption_changes_value(value in "[a-zA-Z0-9.\\-_ ]{1,12}", seed in 0u64..5000) {
            let model = NoiseModel::default();
            let mut rng = StdRng::seed_from_u64(seed);
            let (out, ops) = model.corrupt_value(&mut rng, &value);
            prop_assert_ne!(&out, &value);
            prop_assert!(!ops.is_empty() && ops.len() <= 4);
        }
    }
}

mod idempotence_properties {
    use super::*;
    use datavinci::core::DataVinci;
    use datavinci::corpus::{duplicate_rows, Flavor, NoiseModel, TableSpec};
    use datavinci::engine::Engine;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// Cleaning is idempotent: re-cleaning a cleaned table changes
        /// nothing. Repairs move outliers into the significant-pattern
        /// language, so a second pass finds no further repairs.
        #[test]
        fn cleaning_is_idempotent(
            seed in 0u64..5_000,
            flavor_idx in 0usize..6,
            rows in 8usize..48,
            dup_idx in 0usize..3,
            noise_idx in 0usize..2,
        ) {
            let flavors = [
                Flavor::Quarter,
                Flavor::PrefixedId,
                Flavor::CountryCode,
                Flavor::ProductCode,
                Flavor::PlayerWithCategory,
                Flavor::City,
            ];
            let mut rng = StdRng::seed_from_u64(seed);
            let spec = TableSpec::new(rows, vec![flavors[flavor_idx]]);
            let clean = spec.generate(&mut rng);
            let noise = NoiseModel { cell_prob: [0.1, 0.3][noise_idx] };
            let (dirty, _) = noise.corrupt_table(&mut rng, &clean);
            let duplication = [0.0, 0.5, 0.9][dup_idx];
            let table = if duplication > 0.0 {
                duplicate_rows(&mut rng, &dirty, duplication)
            } else {
                dirty
            };
            let dv = DataVinci::new();
            let first = dv.clean_table(&table);
            let cleaned = Engine::apply(&table, &first);
            let second = dv.clean_table(&cleaned);
            let recleaned = Engine::apply(&cleaned, &second);
            prop_assert_eq!(
                &recleaned,
                &cleaned,
                "re-cleaning changed the table (flavor {:?}, {} rows)",
                flavors[flavor_idx],
                rows
            );
        }
    }
}

mod formula_properties {
    use super::*;
    use datavinci::formula::{parse, ColumnProgram};
    use datavinci::table::{Column, Table};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The evaluator is total: arbitrary text inputs never panic, they
        /// produce values or error values.
        #[test]
        fn evaluator_is_total(values in prop::collection::vec("[ -~]{0,12}", 1..8)) {
            let table = Table::new(vec![Column::from_texts("x", &values)]);
            for src in [
                "=SEARCH(\"-\", [@x])",
                "=VALUE([@x]) * 2 + LEN([@x])",
                "=LEFT([@x], 2) & RIGHT([@x], 1)",
                "=IF(ISNUMBER(VALUE([@x])), 1, 1/0)",
                "=DATEVALUE([@x])",
            ] {
                let program = ColumnProgram::parse(src).expect("template parses");
                let out = program.execute(&table);
                prop_assert_eq!(out.len(), table.n_rows());
            }
        }

        /// The lexer/parser never panics on arbitrary input.
        #[test]
        fn parser_is_total(src in "[ -~]{0,40}") {
            let _ = parse(&src);
        }
    }
}
