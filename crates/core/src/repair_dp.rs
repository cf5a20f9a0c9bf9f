//! The repair dynamic program: lowest-cost path through the unrolled DAG
//! (paper §3.3, Equation 1 and Figure 4).
//!
//! State = (tokens consumed, DAG node). Transitions: delete the current
//! token (cost 1), insert an edge's emission without consuming (cost 1),
//! match or substitute on character-like edges (cost `[v[i] ≠ ℓ(j)]`),
//! exact multi-token match of a disjunction alternative (cost 0), or
//! chunk-substitute one token with a whole abstract alternative (cost 1).
//! Class/disjunction/mask emissions stay abstract; concretization fills
//! them later (§3.4) without affecting minimality.

use crate::edit::{EditAction, EditProgram, Emit};
use datavinci_regex::{Dag, DagLabel, MaskedString, Tok};

const INF: usize = usize::MAX / 4;

#[derive(Clone, Copy, PartialEq)]
enum PKind {
    None,
    Start,
    Del,
    Match,
    MatchDisj,
    Ins,
    Sub,
}

#[derive(Clone, Copy)]
struct Parent {
    prev_i: u32,
    prev_u: u32,
    kind: PKind,
    edge: u32,
    alt: u16,
}

impl Parent {
    const NONE: Parent = Parent {
        prev_i: 0,
        prev_u: 0,
        kind: PKind::None,
        edge: 0,
        alt: 0,
    };
}

/// Finds a minimal edit program rewriting `value` into the DAG's language.
///
/// Returns `None` only when the DAG has no accepting node at all (malformed
/// input); deletions plus insertions otherwise always reach acceptance.
pub fn minimal_edit_program(dag: &Dag, value: &MaskedString) -> Option<EditProgram> {
    let toks = value.toks();
    let n = toks.len();
    let nn = dag.n_nodes;
    let idx = |i: usize, u: usize| i * nn + u;

    let mut cost = vec![INF; (n + 1) * nn];
    // Tie-break: among equal-cost paths prefer the one keeping more of the
    // original tokens (more Match actions) — e.g. `837 → 837-PRO` over
    // `837 → 83-PRO`.
    let mut kept = vec![0u32; (n + 1) * nn];
    let mut parent = vec![Parent::NONE; (n + 1) * nn];
    cost[idx(0, dag.start)] = 0;
    parent[idx(0, dag.start)].kind = PKind::Start;

    macro_rules! relax {
        ($from_i:expr, $from_u:expr, $to_i:expr, $to_u:expr, $c:expr, $k:expr,
         $kind:expr, $edge:expr, $alt:expr) => {{
            let t = idx($to_i, $to_u);
            if $c < cost[t] || ($c == cost[t] && $k > kept[t]) {
                cost[t] = $c;
                kept[t] = $k;
                parent[t] = Parent {
                    prev_i: $from_i as u32,
                    prev_u: $from_u as u32,
                    kind: $kind,
                    edge: $edge as u32,
                    alt: $alt as u16,
                };
            }
        }};
    }

    for i in 0..=n {
        // Settle the layer: insert transitions move forward in topo order.
        for &u in &dag.topo {
            let (c, k) = (cost[idx(i, u)], kept[idx(i, u)]);
            if c >= INF {
                continue;
            }
            for &ei in &dag.out_edges[u] {
                let v = dag.edges[ei].to;
                relax!(i, u, i, v, c + 1, k, PKind::Ins, ei, 0);
            }
        }
        if i == n {
            break;
        }
        // Consume transitions into later layers.
        for &u in &dag.topo {
            let (c, k) = (cost[idx(i, u)], kept[idx(i, u)]);
            if c >= INF {
                continue;
            }
            // Delete the current token.
            relax!(i, u, i + 1, u, c + 1, k, PKind::Del, 0, 0);
            for &ei in &dag.out_edges[u] {
                let e = &dag.edges[ei];
                match &e.label {
                    DagLabel::Disj(d, _) => {
                        // Chunk substitution: one token → one alternative.
                        relax!(i, u, i + 1, e.to, c + 1, k, PKind::Sub, ei, 0);
                        // Exact whole-alternative match.
                        for (ai, alt) in dag.disjs[*d as usize].iter().enumerate() {
                            let kk = alt.len();
                            if i + kk <= n
                                && alt
                                    .iter()
                                    .zip(&toks[i..i + kk])
                                    .all(|(ch, t)| *t == Tok::Char(*ch))
                            {
                                relax!(
                                    i,
                                    u,
                                    i + kk,
                                    e.to,
                                    c,
                                    k + kk as u32,
                                    PKind::MatchDisj,
                                    ei,
                                    ai
                                );
                            }
                        }
                    }
                    label => {
                        if Dag::tok_matches(label, toks[i]) {
                            relax!(i, u, i + 1, e.to, c, k + 1, PKind::Match, ei, 0);
                        } else {
                            relax!(i, u, i + 1, e.to, c + 1, k, PKind::Sub, ei, 0);
                        }
                    }
                }
            }
        }
    }

    // Best accepting node at the final layer (max kept breaks cost ties).
    let accept = (0..nn)
        .filter(|&u| dag.accepts[u] && cost[idx(n, u)] < INF)
        .min_by_key(|&u| (cost[idx(n, u)], std::cmp::Reverse(kept[idx(n, u)])))?;
    let total = cost[idx(n, accept)];

    // Reconstruct actions.
    let mut actions = Vec::new();
    let (mut ci, mut cu) = (n, accept);
    loop {
        let p = parent[idx(ci, cu)];
        match p.kind {
            PKind::Start => break,
            PKind::None => return None,
            PKind::Del => actions.push(EditAction::Delete),
            PKind::Match => actions.push(EditAction::Match),
            PKind::MatchDisj => {
                let e = &dag.edges[p.edge as usize];
                let (d, key) = match &e.label {
                    DagLabel::Disj(d, key) => (*d, *key),
                    other => unreachable!("MatchDisj on non-disj edge {other:?}"),
                };
                let alt: String = dag.disjs[d as usize][p.alt as usize].iter().collect();
                actions.push(EditAction::MatchDisj { alt, key });
            }
            PKind::Ins => actions.push(EditAction::Insert(emit_for(dag, p.edge as usize))),
            PKind::Sub => actions.push(EditAction::Substitute(emit_for(dag, p.edge as usize))),
        }
        ci = p.prev_i as usize;
        cu = p.prev_u as usize;
    }
    actions.reverse();

    debug_assert_eq!(
        actions.iter().map(EditAction::cost).sum::<usize>(),
        total,
        "reconstructed cost must equal DP cost"
    );
    Some(EditProgram {
        actions,
        cost: total,
    })
}

fn emit_for(dag: &Dag, edge: usize) -> Emit {
    match &dag.edges[edge].label {
        DagLabel::Lit(c) => Emit::Char(*c),
        DagLabel::Class(cc, key) => Emit::Class(*cc, *key),
        DagLabel::Mask(m, key) => Emit::Mask(*m, *key),
        DagLabel::Disj(d, key) => Emit::Disj(
            dag.disjs[*d as usize]
                .iter()
                .map(|cs| cs.iter().collect())
                .collect(),
            *key,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datavinci_regex::{CharClass, CompiledPattern, Pattern};

    fn program_for(p: &Pattern, value: &str) -> EditProgram {
        let compiled = CompiledPattern::compile(p.clone());
        let v: MaskedString = value.into();
        let dag = compiled.dag_for_len(v.len());
        minimal_edit_program(&dag, &v).expect("program")
    }

    fn figure4_pattern() -> Pattern {
        Pattern::plus(Pattern::concat([
            Pattern::lit("A"),
            Pattern::Class(CharClass::Digit),
            Pattern::lit("."),
        ]))
    }

    #[test]
    fn members_have_zero_cost() {
        let p = figure4_pattern();
        assert_eq!(program_for(&p, "A2.").cost, 0);
        assert_eq!(program_for(&p, "A2.A3.").cost, 0);
        assert!(program_for(&p, "A2.")
            .actions
            .iter()
            .all(|a| matches!(a, EditAction::Match)));
    }

    #[test]
    fn figure4_outlier_cost_two() {
        // AAA3 vs (A[0-9].)+ — the minimal repair costs 3 (e.g. substitute
        // the second A with a digit, substitute the third with '.', delete
        // the trailing token — or keep the 3 via the unrolled second copy).
        let p = figure4_pattern();
        let program = program_for(&p, "AAA3");
        assert_eq!(program.cost, 3, "{}", program.shorthand());
        // Applying and filling digit holes with the class representative
        // must land in the language.
        let repair = program.apply(&"AAA3".into());
        let fillers: Vec<String> = repair
            .fillable_holes()
            .iter()
            .map(|_| "0".to_string())
            .collect();
        let fixed = repair.fill(&fillers);
        let compiled = CompiledPattern::compile(p);
        assert!(compiled.matches(&fixed), "{fixed} not in language");
    }

    #[test]
    fn example3_missing_digit_insertion() {
        // "A." needs one I(0-9): cost 1.
        let p = figure4_pattern();
        let program = program_for(&p, "A.");
        assert_eq!(program.cost, 1);
        assert!(program
            .actions
            .iter()
            .any(|a| matches!(a, EditAction::Insert(Emit::Class(CharClass::Digit, _)))));
    }

    #[test]
    fn disjunction_insert_is_single_action() {
        // Figure 2: usa_837 → needs "-PRO"-style suffix: I(-), I(CAT|PRO).
        let p = Pattern::concat([
            Pattern::class_plus(CharClass::Digit),
            Pattern::lit("-"),
            Pattern::disj(["CAT", "PRO"]),
        ]);
        let program = program_for(&p, "837");
        assert_eq!(program.cost, 2, "{}", program.shorthand());
        assert!(program
            .actions
            .iter()
            .any(|a| matches!(a, EditAction::Insert(Emit::Disj(_, _)))));
        // The tie-break keeps all three original digits.
        assert_eq!(
            program
                .actions
                .iter()
                .filter(|a| matches!(a, EditAction::Match))
                .count(),
            3
        );
    }

    #[test]
    fn disjunction_exact_match_is_free() {
        let p = Pattern::concat([Pattern::lit("-"), Pattern::disj(["CAT", "PRO"])]);
        let program = program_for(&p, "-PRO");
        assert_eq!(program.cost, 0);
        assert!(program
            .actions
            .iter()
            .any(|a| matches!(a, EditAction::MatchDisj { alt, .. } if alt == "PRO")));
    }

    #[test]
    fn delete_heavy_repair() {
        let p = Pattern::lit("ab");
        let program = program_for(&p, "aXYb");
        assert_eq!(program.cost, 2);
        assert_eq!(
            program
                .actions
                .iter()
                .filter(|a| matches!(a, EditAction::Delete))
                .count(),
            2
        );
    }

    #[test]
    fn empty_value_inserts_minimum() {
        let p = Pattern::concat([Pattern::lit("Q"), Pattern::Class(CharClass::Digit)]);
        let program = program_for(&p, "");
        assert_eq!(program.cost, 2);
        assert!(program
            .actions
            .iter()
            .all(|a| matches!(a, EditAction::Insert(_))));
    }

    #[test]
    fn substitution_preferred_over_insert_delete() {
        // Paper Example 4: substitution (cost 1) beats I+D (cost 2).
        let p = Pattern::concat([Pattern::lit("A"), Pattern::Class(CharClass::Digit)]);
        let program = program_for(&p, "AX");
        assert_eq!(program.cost, 1);
        assert_eq!(program.actions.len(), 2); // M, S(0-9)
        assert!(matches!(
            program.actions[1],
            EditAction::Substitute(Emit::Class(CharClass::Digit, _))
        ));
    }

    #[test]
    fn cost_equals_levenshtein_for_literal_patterns() {
        // For a pure-literal pattern the DP must equal classic Levenshtein.
        use datavinci_regex::levenshtein;
        for (pat, val) in [
            ("kitten", "sitting"),
            ("abc", "abc"),
            ("Q1-22", "Q122"),
            ("hello", ""),
        ] {
            let program = program_for(&Pattern::lit(pat), val);
            assert_eq!(program.cost, levenshtein(pat, val), "{pat} vs {val}");
        }
    }

    #[test]
    fn empty_value_against_all_abstract_pattern() {
        // Edge case: empty input against a pattern with no literal edges at
        // all. The program must be pure insertions of abstract emissions,
        // and every hole must be fillable into the language.
        let p = Pattern::concat([
            Pattern::Class(CharClass::Upper),
            Pattern::class_n(CharClass::Digit, 2),
            Pattern::disj(["CAT", "PRO"]),
        ]);
        let program = program_for(&p, "");
        assert_eq!(program.cost, 4, "{}", program.shorthand());
        assert!(program
            .actions
            .iter()
            .all(|a| matches!(a, EditAction::Insert(e) if e.is_abstract())));
        let repair = program.apply(&"".into());
        assert_eq!(repair.fillable_holes().len(), 4);
        let fillers: Vec<String> = repair
            .fillable_holes()
            .iter()
            .map(|e| match e {
                Emit::Class(cc, _) => cc.representative().to_string(),
                Emit::Disj(alts, _) => alts[0].clone(),
                _ => unreachable!("no char or mask emissions in an all-abstract pattern"),
            })
            .collect();
        let fixed = repair.fill(&fillers);
        assert!(CompiledPattern::compile(p).matches(&fixed), "{fixed}");
    }

    #[test]
    fn already_valid_value_round_trips_unchanged() {
        // Edge case: a member of the language must repair at cost 0 with no
        // holes, and applying the program must reproduce the value exactly.
        let p = Pattern::concat([
            Pattern::lit("Q"),
            Pattern::Class(CharClass::Digit),
            Pattern::lit("-"),
            Pattern::class_n(CharClass::Digit, 4),
        ]);
        let program = program_for(&p, "Q3-2001");
        assert_eq!(program.cost, 0, "{}", program.shorthand());
        assert!(program
            .actions
            .iter()
            .all(|a| matches!(a, EditAction::Match | EditAction::MatchDisj { .. })));
        let repair = program.apply(&"Q3-2001".into());
        assert!(repair.fillable_holes().is_empty(), "members need no holes");
        assert_eq!(repair.fill(&[]).to_string(), "Q3-2001");
    }

    #[test]
    fn all_abstract_substitutions_emit_only_holes() {
        // Edge case: every consumed token mismatches an abstract edge, so
        // the program is substitutions whose emissions all stay abstract
        // (classes/disjunctions — nothing concretized by the DP itself).
        let p = Pattern::concat([
            Pattern::class_n(CharClass::Digit, 3),
            Pattern::disj(["ON", "OFF"]),
        ]);
        let program = program_for(&p, "abcZ");
        assert_eq!(program.cost, 4, "{}", program.shorthand());
        let abstract_subs = program
            .actions
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    EditAction::Substitute(e) | EditAction::Insert(e) if e.is_abstract()
                )
            })
            .count();
        assert_eq!(
            abstract_subs,
            program.actions.len(),
            "every action must emit an abstract hole: {}",
            program.shorthand()
        );
        let repair = program.apply(&"abcZ".into());
        assert!(repair
            .holes()
            .iter()
            .all(|e| matches!(e, Emit::Class(..) | Emit::Disj(..))));
    }

    #[test]
    fn applied_repairs_always_in_language() {
        let patterns = [
            figure4_pattern(),
            Pattern::concat([
                Pattern::lit("Q"),
                Pattern::Class(CharClass::Digit),
                Pattern::lit("-"),
                Pattern::class_n(CharClass::Digit, 2),
            ]),
            Pattern::concat([
                Pattern::class_plus(CharClass::Upper),
                Pattern::lit("_"),
                Pattern::disj(["ON", "OFF"]),
            ]),
        ];
        let values = ["", "X", "Q12", "q1-2-3", "ABC_OX", "zzzzz"];
        for p in &patterns {
            let compiled = CompiledPattern::compile(p.clone());
            for v in values {
                let mv: MaskedString = v.into();
                let dag = compiled.dag_for_len(mv.len());
                let program = minimal_edit_program(&dag, &mv).expect("program");
                let repair = program.apply(&mv);
                let fillers: Vec<String> = repair
                    .fillable_holes()
                    .iter()
                    .map(|e| match e {
                        Emit::Class(cc, _) => cc.representative().to_string(),
                        Emit::Disj(alts, _) => alts[0].clone(),
                        _ => unreachable!(),
                    })
                    .collect();
                let fixed = repair.fill(&fillers);
                assert!(
                    compiled.matches(&fixed),
                    "pattern {p} value {v:?} repaired {fixed} not in language ({})",
                    program.shorthand()
                );
            }
        }
    }
}
