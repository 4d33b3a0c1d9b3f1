//! Tight proof-tree enumeration and brute-force provenance polynomials
//! (paper §2.1 Definition 2.2, §2.4).
//!
//! A proof tree is *tight* if no leaf-to-root path repeats an IDB fact; over
//! absorptive semirings the provenance polynomial restricted to tight trees
//! equals the full (possibly infinite) proof-tree sum (Proposition 2.4).
//! Enumeration is exponential and serves as the small-instance oracle
//! against which circuits and naive evaluation are verified.

use semiring::{Monomial, Sorp};

use crate::database::FactId;
use crate::ground::GroundedProgram;

/// A node of a proof tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofNode {
    /// A leaf: an EDB fact (labeled by its provenance variable).
    Edb(FactId),
    /// An internal node: an IDB fact derived by a grounded rule.
    Idb {
        /// Index into [`GroundedProgram::idb_facts`].
        fact: usize,
        /// Index into [`GroundedProgram::rules`].
        rule: usize,
        /// Children, in rule-body order (IDB subtrees then EDB leaves).
        children: Vec<ProofNode>,
    },
}

impl ProofNode {
    /// Number of leaves (the *fringe* size of §6.1).
    pub fn num_leaves(&self) -> usize {
        match self {
            ProofNode::Edb(_) => 1,
            ProofNode::Idb { children, .. } => children.iter().map(ProofNode::num_leaves).sum(),
        }
    }

    /// Tree height.
    pub fn height(&self) -> usize {
        match self {
            ProofNode::Edb(_) => 0,
            ProofNode::Idb { children, .. } => {
                1 + children.iter().map(ProofNode::height).max().unwrap_or(0)
            }
        }
    }

    /// The monomial of the tree: the product of the leaf variables with
    /// multiplicity (paper §2.4).
    pub fn monomial(&self) -> Monomial {
        let mut leaves = Vec::new();
        self.collect_leaves(&mut leaves);
        Monomial::from_pairs(leaves.into_iter().map(|f| (f, 1)))
    }

    fn collect_leaves(&self, out: &mut Vec<FactId>) {
        match self {
            ProofNode::Edb(f) => out.push(*f),
            ProofNode::Idb { children, .. } => {
                for c in children {
                    c.collect_leaves(out);
                }
            }
        }
    }
}

/// Result of enumeration: the trees found, and whether the cap was hit.
#[derive(Clone, Debug)]
pub struct TightTrees {
    /// The enumerated tight proof trees.
    pub trees: Vec<ProofNode>,
    /// True if enumeration stopped at the cap (the list is incomplete).
    pub truncated: bool,
}

/// Enumerate all tight proof trees of `fact`, up to `cap` trees.
pub fn tight_proof_trees(gp: &GroundedProgram, fact: usize, cap: usize) -> TightTrees {
    let mut path = Vec::new();
    let mut truncated = false;
    let trees = trees_for(gp, fact, &mut path, cap, &mut truncated);
    TightTrees { trees, truncated }
}

fn trees_for(
    gp: &GroundedProgram,
    fact: usize,
    path: &mut Vec<usize>,
    cap: usize,
    truncated: &mut bool,
) -> Vec<ProofNode> {
    let mut out = Vec::new();
    path.push(fact);
    'rules: for &ri in &gp.rules_by_head[fact] {
        let rule = gp.rules.get(ri);
        // Tightness: a child equal to an ancestor would repeat a fact on a
        // leaf-to-root path.
        if rule.body_idb.iter().any(|&f| path.contains(&(f as usize))) {
            continue;
        }
        // Subtree options per IDB body fact.
        let mut options: Vec<Vec<ProofNode>> = Vec::with_capacity(rule.body_idb.len());
        for &child in rule.body_idb {
            let sub = trees_for(gp, child as usize, path, cap, truncated);
            if sub.is_empty() {
                continue 'rules;
            }
            options.push(sub);
        }
        // Cartesian product of subtree choices.
        let mut combos: Vec<Vec<ProofNode>> = vec![Vec::new()];
        for opts in &options {
            let mut next = Vec::new();
            for combo in &combos {
                for opt in opts {
                    let mut c = combo.clone();
                    c.push(opt.clone());
                    next.push(c);
                }
            }
            combos = next;
        }
        for combo in combos {
            if out.len() >= cap {
                *truncated = true;
                break 'rules;
            }
            let mut children = combo;
            children.extend(rule.body_edb.iter().map(|&f| ProofNode::Edb(f)));
            out.push(ProofNode::Idb {
                fact,
                rule: ri,
                children,
            });
        }
    }
    path.pop();
    out
}

/// The provenance polynomial of `fact` by brute-force enumeration
/// (`None` if more than `cap` tight trees exist).
pub fn provenance_polynomial(gp: &GroundedProgram, fact: usize, cap: usize) -> Option<Sorp> {
    let t = tight_proof_trees(gp, fact, cap);
    if t.truncated {
        return None;
    }
    Some(Sorp::from_monomials(
        t.trees.iter().map(ProofNode::monomial),
    ))
}

/// The maximum fringe (leaf count) over all tight proof trees of `fact` —
/// the quantity bounded by the polynomial fringe property (Definition 6.1).
pub fn max_fringe(gp: &GroundedProgram, fact: usize, cap: usize) -> Option<usize> {
    let t = tight_proof_trees(gp, fact, cap);
    if t.truncated {
        return None;
    }
    t.trees.iter().map(ProofNode::num_leaves).max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::eval;
    use crate::ground::ground;
    use crate::parser::parse_program;
    use graphgen::generators;

    fn tc_on(g: &graphgen::LabeledDigraph) -> (crate::ast::Program, Database, GroundedProgram) {
        let mut p = parse_program("T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), E(Z,Y).").unwrap();
        let (db, _) = Database::from_graph(&mut p, g);
        let gp = ground(&p, &db).unwrap();
        (p, db, gp)
    }

    #[test]
    fn figure1_has_three_tight_trees_for_t_s_t() {
        // Figure 1: "There are two other proof trees for T(s,t)" — three
        // total.
        let mut g = graphgen::LabeledDigraph::new(6);
        g.add_edge(0, 1, "E"); // s→u1
        g.add_edge(0, 2, "E"); // s→u2
        g.add_edge(1, 3, "E"); // u1→v1
        g.add_edge(1, 4, "E"); // u1→v2
        g.add_edge(2, 4, "E"); // u2→v2
        g.add_edge(3, 5, "E"); // v1→t
        g.add_edge(4, 5, "E"); // v2→t
        let (p, db, gp) = tc_on(&g);
        let t = p.preds.get("T").unwrap();
        let i = gp
            .fact(t, &[db.node_const(0).unwrap(), db.node_const(5).unwrap()])
            .unwrap();
        let trees = tight_proof_trees(&gp, i, 1000);
        assert!(!trees.truncated);
        assert_eq!(trees.trees.len(), 3);
        // Each tree has 3 leaves (a 3-edge path) and the example's shape.
        for tree in &trees.trees {
            assert_eq!(tree.num_leaves(), 3);
            assert_eq!(tree.height(), 3); // left-deep: T(s,t)→T(s,v)→T(s,u)→E
        }
    }

    #[test]
    fn enumeration_agrees_with_naive_sorp_eval() {
        for seed in 0..5u64 {
            let g = generators::gnm(6, 10, &["E"], seed);
            let (_, _, gp) = tc_on(&g);
            let out = eval::provenance_eval(&gp, eval::default_budget(&gp));
            assert!(out.converged);
            for fact in 0..gp.num_idb_facts() {
                if let Some(poly) = provenance_polynomial(&gp, fact, 20_000) {
                    assert_eq!(poly, out.values[fact], "seed {seed} fact {fact}");
                }
            }
        }
    }

    #[test]
    fn cycles_have_finitely_many_tight_trees() {
        let g = generators::cycle(3, "E");
        let (p, db, gp) = tc_on(&g);
        let t = p.preds.get("T").unwrap();
        let i = gp
            .fact(t, &[db.node_const(0).unwrap(), db.node_const(1).unwrap()])
            .unwrap();
        let trees = tight_proof_trees(&gp, i, 100_000);
        assert!(!trees.truncated, "tight trees must be finite (paper §2.1)");
        assert!(!trees.trees.is_empty());
    }

    #[test]
    fn linear_program_fringe_is_linear() {
        // TC is linear: tight trees are left-deep paths; fringe = path
        // length ≤ m (polynomial fringe property, §6.1).
        let g = generators::path(5, "E");
        let (p, db, gp) = tc_on(&g);
        let t = p.preds.get("T").unwrap();
        let i = gp
            .fact(t, &[db.node_const(0).unwrap(), db.node_const(5).unwrap()])
            .unwrap();
        assert_eq!(max_fringe(&gp, i, 10_000), Some(5));
    }

    #[test]
    fn monomial_counts_leaf_multiplicity() {
        let leaf = ProofNode::Edb(7);
        let node = ProofNode::Idb {
            fact: 0,
            rule: 0,
            children: vec![leaf.clone(), leaf],
        };
        assert_eq!(node.monomial(), Monomial::from_pairs([(7, 2)]));
    }
}
