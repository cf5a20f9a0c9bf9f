//! The value-specific unrolled DAG (Figure 4) that the repair engine's
//! dynamic program runs over.
//!
//! Built from a loop-free tagged pattern (see the crate-internal unroll
//! pass): Thompson
//! construction with ε-edges, then ε-elimination and topological ordering.
//! Every consuming edge carries its [`AtomKey`] (original atom id +
//! unrolled occurrence index) when it corresponds to a concretizable atom,
//! which is how decision-tree training examples are keyed (paper Example 5).

use crate::ast::{AtomId, AtomKey, TNode};
use crate::class::CharClass;
use crate::token::{MaskId, Tok};
use crate::unroll::unroll;

/// Edge label in the unrolled DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagLabel {
    /// Consume exactly this character.
    Lit(char),
    /// Consume one character of the class (abstract — concretized later).
    Class(CharClass, AtomKey),
    /// Consume one mask token (re-concretized by the semantic layer).
    Mask(MaskId, AtomKey),
    /// Consume a whole alternative of disjunction `disjs[idx]`.
    Disj(u32, AtomKey),
}

impl DagLabel {
    /// How many tokens the *shortest* transition on this edge consumes.
    pub fn min_consumed(&self, disjs: &[Vec<Vec<char>>]) -> usize {
        match self {
            DagLabel::Lit(_) | DagLabel::Class(..) | DagLabel::Mask(..) => 1,
            DagLabel::Disj(d, _) => disjs[*d as usize].iter().map(Vec::len).min().unwrap_or(1),
        }
    }
}

/// A consuming edge of the DAG.
#[derive(Debug, Clone)]
pub struct DagEdge {
    /// Source node.
    pub from: usize,
    /// Target node.
    pub to: usize,
    /// What the edge consumes/emits.
    pub label: DagLabel,
}

/// The ε-free unrolled DAG for one (pattern, value-length) pair.
#[derive(Debug, Clone)]
pub struct Dag {
    /// Number of nodes.
    pub n_nodes: usize,
    /// Start node.
    pub start: usize,
    /// Accepting flags per node.
    pub accepts: Vec<bool>,
    /// All consuming edges.
    pub edges: Vec<DagEdge>,
    /// Outgoing edge indices per node, in edge-index order.
    pub out_edges: Vec<Vec<usize>>,
    /// Nodes in topological order (start first).
    pub topo: Vec<usize>,
    /// Disjunction alternative table shared by `DagLabel::Disj` edges.
    pub disjs: Vec<Vec<Vec<char>>>,
}

impl Dag {
    /// Builds the unrolled DAG for `pattern` specialized to values of
    /// `value_len` tokens.
    pub(crate) fn build(root: &TNode, value_len: usize) -> Dag {
        let flat = unroll(root, value_len);
        let mut b = RawBuilder::default();
        let (start, accept) = b.fragment(&flat);
        b.eliminate_eps(start, accept)
    }

    /// Does a single token satisfy a char-consuming label? (Disj handled
    /// separately since it consumes whole alternatives.)
    pub fn tok_matches(label: &DagLabel, tok: Tok) -> bool {
        match label {
            DagLabel::Lit(c) => tok == Tok::Char(*c),
            DagLabel::Class(cc, _) => matches!(tok, Tok::Char(ch) if cc.contains(ch)),
            DagLabel::Mask(m, _) => tok == Tok::Mask(*m),
            DagLabel::Disj(..) => false,
        }
    }
}

#[derive(Default)]
struct RawBuilder {
    eps: Vec<Vec<usize>>,
    cons: Vec<(usize, usize, DagLabel)>,
    n_nodes: usize,
    disjs: Vec<Vec<Vec<char>>>,
    /// Per-atom occurrence counters, advanced in construction order.
    occ: std::collections::HashMap<AtomId, u32>,
}

impl RawBuilder {
    fn node(&mut self) -> usize {
        self.eps.push(Vec::new());
        self.n_nodes += 1;
        self.n_nodes - 1
    }

    fn key(&mut self, atom: AtomId) -> AtomKey {
        let occ = self.occ.entry(atom).or_insert(0);
        let k = AtomKey { atom, occ: *occ };
        *occ += 1;
        k
    }

    fn intern_disj(&mut self, alts: &[String]) -> u32 {
        let chars: Vec<Vec<char>> = alts.iter().map(|a| a.chars().collect()).collect();
        if let Some(i) = self.disjs.iter().position(|d| *d == chars) {
            return i as u32;
        }
        self.disjs.push(chars);
        (self.disjs.len() - 1) as u32
    }

    fn fragment(&mut self, node: &TNode) -> (usize, usize) {
        match node {
            TNode::Empty => {
                let s = self.node();
                (s, s)
            }
            TNode::Str(text) => {
                let entry = self.node();
                let mut cur = entry;
                for c in text.chars() {
                    let next = self.node();
                    self.cons.push((cur, next, DagLabel::Lit(c)));
                    cur = next;
                }
                (entry, cur)
            }
            TNode::Class(c, atom) => {
                let key = self.key(*atom);
                let s = self.node();
                let e = self.node();
                self.cons.push((s, e, DagLabel::Class(*c, key)));
                (s, e)
            }
            TNode::Mask(m, atom) => {
                let key = self.key(*atom);
                let s = self.node();
                let e = self.node();
                self.cons.push((s, e, DagLabel::Mask(*m, key)));
                (s, e)
            }
            TNode::Disj(alts, atom) => {
                let d = self.intern_disj(alts);
                let key = self.key(*atom);
                let s = self.node();
                let e = self.node();
                self.cons.push((s, e, DagLabel::Disj(d, key)));
                (s, e)
            }
            TNode::Concat(parts) => {
                let entry = self.node();
                let mut cur = entry;
                for part in parts {
                    let (ps, pe) = self.fragment(part);
                    self.eps[cur].push(ps);
                    cur = pe;
                }
                (entry, cur)
            }
            TNode::Alt(parts) => {
                let s = self.node();
                let e = self.node();
                for part in parts {
                    let (ps, pe) = self.fragment(part);
                    self.eps[s].push(ps);
                    self.eps[pe].push(e);
                }
                (s, e)
            }
            TNode::Repeat { .. } => {
                unreachable!("Dag::build requires a loop-free pattern (run unroll first)")
            }
        }
    }

    /// ε-eliminates the raw graph into a [`Dag`].
    fn eliminate_eps(self, start: usize, accept: usize) -> Dag {
        let n = self.n_nodes;
        // eps_reach[u] = all nodes reachable from u via ε (including u).
        let mut eps_reach: Vec<Vec<usize>> = Vec::with_capacity(n);
        #[allow(clippy::needless_range_loop)]
        for u in 0..n {
            let mut seen = vec![false; n];
            let mut stack = vec![u];
            seen[u] = true;
            while let Some(x) = stack.pop() {
                for &y in &self.eps[x] {
                    if !seen[y] {
                        seen[y] = true;
                        stack.push(y);
                    }
                }
            }
            eps_reach.push((0..n).filter(|&i| seen[i]).collect());
        }

        // Consuming edges out of each raw node.
        let mut out_raw: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, (from, _, _)) in self.cons.iter().enumerate() {
            out_raw[*from].push(i);
        }

        // New edge set: u --label--> v whenever some w ∈ eps_reach(u) has a
        // consuming edge (w, v, label).
        let mut edges: Vec<DagEdge> = Vec::new();
        let mut seen_pair = std::collections::HashSet::new();
        #[allow(clippy::needless_range_loop)]
        for u in 0..n {
            for &w in &eps_reach[u] {
                for &ei in &out_raw[w] {
                    if seen_pair.insert((u, ei)) {
                        let (_, to, ref label) = self.cons[ei];
                        edges.push(DagEdge {
                            from: u,
                            to,
                            label: label.clone(),
                        });
                    }
                }
            }
        }

        let accepts: Vec<bool> = (0..n).map(|u| eps_reach[u].contains(&accept)).collect();

        // Keep only nodes reachable from start over the new edges.
        let mut reach = vec![false; n];
        reach[start] = true;
        let mut stack = vec![start];
        let mut out_new: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, e) in edges.iter().enumerate() {
            out_new[e.from].push(i);
        }
        while let Some(u) = stack.pop() {
            for &ei in &out_new[u] {
                let v = edges[ei].to;
                if !reach[v] {
                    reach[v] = true;
                    stack.push(v);
                }
            }
        }
        edges.retain(|e| reach[e.from]);

        // Topological order via Kahn's algorithm over reachable nodes.
        let mut indeg = vec![0usize; n];
        for e in &edges {
            indeg[e.to] += 1;
        }
        let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, e) in edges.iter().enumerate() {
            out_edges[e.from].push(i);
        }
        let mut topo = Vec::with_capacity(n);
        let mut queue: Vec<usize> = (0..n).filter(|&u| reach[u] && indeg[u] == 0).collect();
        while let Some(u) = queue.pop() {
            topo.push(u);
            for &ei in &out_edges[u] {
                let v = edges[ei].to;
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push(v);
                }
            }
        }

        Dag {
            n_nodes: n,
            start,
            accepts,
            edges,
            out_edges,
            topo,
            disjs: self.disjs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Pattern;
    use crate::token::MaskedString;

    fn dag_for(p: &Pattern, len: usize) -> Dag {
        Dag::build(p.tag().root(), len)
    }

    /// Zero-cost reachability: does the DAG accept the string exactly?
    fn dag_accepts(dag: &Dag, s: &str) -> bool {
        let toks = MaskedString::from_plain(s);
        let toks = toks.toks();
        let n = toks.len();
        let mut reach = vec![vec![false; dag.n_nodes]; n + 1];
        reach[dag.start][0] = false; // placate clippy; real init below
        reach[0][dag.start] = true;
        for i in 0..n {
            let frontier: Vec<usize> = (0..dag.n_nodes).filter(|&u| reach[i][u]).collect();
            for u in frontier {
                for e in dag.edges.iter().filter(|e| e.from == u) {
                    match &e.label {
                        DagLabel::Disj(d, _) => {
                            for alt in &dag.disjs[*d as usize] {
                                let k = alt.len();
                                if i + k <= n
                                    && alt
                                        .iter()
                                        .zip(&toks[i..i + k])
                                        .all(|(c, t)| *t == Tok::Char(*c))
                                {
                                    reach[i + k][e.to] = true;
                                }
                            }
                        }
                        label => {
                            if Dag::tok_matches(label, toks[i]) {
                                reach[i + 1][e.to] = true;
                            }
                        }
                    }
                }
            }
        }
        (0..dag.n_nodes).any(|u| reach[n][u] && dag.accepts[u])
    }

    #[test]
    fn figure4_dag_accepts_valid_rejects_outlier() {
        let p = Pattern::plus(Pattern::concat([
            Pattern::lit("A"),
            Pattern::Class(CharClass::Digit),
            Pattern::lit("."),
        ]));
        let d6 = dag_for(&p, 6);
        assert!(dag_accepts(&d6, "A2.A3."));
        assert!(!dag_accepts(&d6, "AAA3"));
        let d3 = dag_for(&p, 3);
        assert!(dag_accepts(&d3, "A2."));
    }

    #[test]
    fn dag_is_acyclic_topo_covers_reachable() {
        let p = Pattern::plus(Pattern::concat([
            Pattern::lit("A"),
            Pattern::Class(CharClass::Digit),
            Pattern::lit("."),
        ]));
        let d = dag_for(&p, 9);
        // Every edge must go forward in topological order.
        let pos: std::collections::HashMap<usize, usize> =
            d.topo.iter().enumerate().map(|(i, &u)| (u, i)).collect();
        for e in &d.edges {
            assert!(
                pos[&e.from] < pos[&e.to],
                "edge {}→{} violates topo order",
                e.from,
                e.to
            );
        }
    }

    #[test]
    fn occurrences_increase_left_to_right() {
        let p = Pattern::class_plus(CharClass::Digit);
        let d = dag_for(&p, 3);
        let mut occs: Vec<u32> = d
            .edges
            .iter()
            .filter_map(|e| match &e.label {
                DagLabel::Class(_, k) => Some(k.occ),
                _ => None,
            })
            .collect();
        occs.sort_unstable();
        occs.dedup();
        assert_eq!(occs, vec![0, 1, 2]);
    }

    #[test]
    fn disjunction_edges_preserved_whole() {
        let p = Pattern::concat([Pattern::lit("-"), Pattern::disj(["CAT", "PRO"])]);
        let d = dag_for(&p, 4);
        let n_disj = d
            .edges
            .iter()
            .filter(|e| matches!(e.label, DagLabel::Disj(..)))
            .count();
        assert_eq!(n_disj, 1);
        assert!(dag_accepts(&d, "-CAT"));
        assert!(dag_accepts(&d, "-PRO"));
        assert!(!dag_accepts(&d, "-DOG"));
    }

    #[test]
    fn empty_value_dag_accepts_only_if_nullable() {
        let star = Pattern::star(Pattern::lit("a"));
        assert!(dag_accepts(&dag_for(&star, 0), ""));
        let plus = Pattern::plus(Pattern::lit("a"));
        assert!(!dag_accepts(&dag_for(&plus, 0), ""));
    }
}
