//! The Ullman–Van Gelder low-depth circuit (Theorem 6.2): for any Datalog
//! program with the polynomial fringe property, polynomial size and depth
//! O(log² |I|) over any absorptive semiring.
//!
//! The circuit maintains a gate matrix `G` over ids `N ∪ {0}` (`N` = the
//! derivable IDB facts, `0` a special source id). Each of the `K` stages
//! performs (paper's four steps):
//!
//! 1. `G1[0, α] ← ⊕_{α :- ∧ᵢβᵢ ∧ⱼγⱼ} (Πᵢ G^{k-1}[0, βᵢ] ⊗ Πⱼ x_{γⱼ})`
//! 2. `G1[δ, α] ← ⊕_{α :- δ ∧ᵢβᵢ ∧ⱼγⱼ} (Πᵢ G1[0, βᵢ] ⊗ Πⱼ x_{γⱼ})`
//!    (one term per *occurrence* of δ in the body; the remaining IDB facts
//!    use the *current-stage* `G1[0, ·]` values)
//! 3. `G2 ← G^{k-1} ⊕ G1` (pointwise)
//! 4. `G^k[a, b] ← G2[a, b] ⊕ ⊕_γ G2[a, γ] ⊗ G2[γ, b]` (one squaring step
//!    of transitive closure on the id graph)
//!
//! After `K = O(log(max tight-tree size))` stages, `G^K[0, α]` computes the
//! provenance polynomial of `α`. Each stage has depth O(log |I|), giving
//! O(log² |I|) total. Hash-consing stops the stage loop at the structural
//! fixpoint, so `K` adapts to the instance.

use datalog::GroundedProgram;

use crate::arena::{CircuitBuilder, GateId};
use crate::constructions::MultiOutput;

/// Build the Theorem 6.2 circuit; `stages = None` runs to the structural
/// fixpoint, capped at `⌈log_{4/3}(gp.size() + 2)⌉ + 2` (the paper's stage
/// bound for polynomial-fringe programs).
pub fn uvg_circuit(gp: &GroundedProgram, stages: Option<usize>) -> MultiOutput {
    let n = gp.num_idb_facts();
    let ids = n + 1; // id n is the special ⟨0⟩ node
    let source = n;
    let cap = stages.unwrap_or_else(|| {
        let m = (gp.size() + 2) as f64;
        (m.ln() / (4.0f64 / 3.0).ln()).ceil() as usize + 2
    });

    let mut b = CircuitBuilder::new();
    let zero = b.zero();
    // G[a][b] indexed as a * ids + b; only the columns of IDB facts are
    // ever read (edges point *into* fact ids), rows include the source.
    let mut g = vec![zero; ids * ids];
    let mut stages_used = 0;

    for _ in 0..cap {
        // Step 1: G1[0, α].
        let mut g1 = vec![zero; ids * ids];
        for alpha in 0..n {
            let mut summands = Vec::with_capacity(gp.rules_by_head[alpha].len());
            for &ri in &gp.rules_by_head[alpha] {
                let rule = gp.rules.get(ri);
                let mut factors = Vec::with_capacity(rule.body_idb.len() + rule.body_edb.len());
                for &beta in rule.body_idb {
                    factors.push(g[source * ids + beta as usize]);
                }
                for &x in rule.body_edb {
                    factors.push(b.input(x));
                }
                summands.push(b.mul_many(&factors));
            }
            g1[source * ids + alpha] = b.add_many(&summands);
        }
        // Step 2: G1[δ, α] — one term per occurrence of δ in a body,
        // using the current-stage G1[0, ·] for the remaining IDB facts.
        for alpha in 0..n {
            // Group terms by δ to form the sums.
            let mut terms: std::collections::HashMap<usize, Vec<GateId>> =
                std::collections::HashMap::new();
            for &ri in &gp.rules_by_head[alpha] {
                let rule = gp.rules.get(ri);
                for (pos, &delta) in rule.body_idb.iter().enumerate() {
                    let mut factors =
                        Vec::with_capacity(rule.body_idb.len() - 1 + rule.body_edb.len());
                    for (other, &beta) in rule.body_idb.iter().enumerate() {
                        if other != pos {
                            factors.push(g1[source * ids + beta as usize]);
                        }
                    }
                    for &x in rule.body_edb {
                        factors.push(b.input(x));
                    }
                    let term = b.mul_many(&factors);
                    terms.entry(delta as usize).or_default().push(term);
                }
            }
            for (delta, ts) in terms {
                g1[delta * ids + alpha] = b.add_many(&ts);
            }
        }
        // Step 3: G2 = G ⊕ G1.
        let mut g2 = vec![zero; ids * ids];
        for (i, slot) in g2.iter_mut().enumerate() {
            *slot = b.add(g[i], g1[i]);
        }
        // Step 4: one TC-squaring step.
        let mut next = vec![zero; ids * ids];
        for a in 0..ids {
            for c in 0..ids {
                let mut summands = Vec::with_capacity(ids + 1);
                summands.push(g2[a * ids + c]);
                for mid in 0..ids {
                    let (l, r) = (g2[a * ids + mid], g2[mid * ids + c]);
                    summands.push(b.mul(l, r));
                }
                next[a * ids + c] = b.add_many(&summands);
            }
        }
        stages_used += 1;
        if next == g {
            break;
        }
        g = next;
    }

    let outputs: Vec<GateId> = (0..n).map(|alpha| g[source * ids + alpha]).collect();
    MultiOutput::new(b, outputs, stages_used)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constructions::grounded::grounded_circuit;
    use crate::metrics::stats;
    use datalog::{programs, Database};
    use graphgen::generators;

    fn grounded_for(
        program: &mut datalog::Program,
        g: &graphgen::LabeledDigraph,
    ) -> (Database, GroundedProgram) {
        let (db, _) = Database::from_graph(program, g);
        let gp = datalog::ground(program, &db).unwrap();
        (db, gp)
    }

    #[test]
    fn matches_grounded_circuit_on_tc() {
        for seed in 0..3u64 {
            let g = generators::gnm(5, 9, &["E"], seed);
            let mut p = programs::transitive_closure();
            let (_, gp) = grounded_for(&mut p, &g);
            let uvg = uvg_circuit(&gp, None);
            let layered = grounded_circuit(&gp, None);
            for fact in 0..gp.num_idb_facts() {
                assert_eq!(
                    uvg.circuit_for(fact).polynomial(),
                    layered.circuit_for(fact).polynomial(),
                    "seed {seed}, fact {fact}"
                );
            }
        }
    }

    #[test]
    fn matches_provenance_on_dyck_paths() {
        // Non-linear program with the polynomial fringe property
        // (Example 6.4).
        for (pairs, seed) in [(2usize, 1u64), (3, 2)] {
            let mut p = programs::dyck1();
            let g = generators::dyck_path(pairs, seed);
            let (_, gp) = grounded_for(&mut p, &g);
            let uvg = uvg_circuit(&gp, None);
            let out = datalog::provenance_eval(&gp, datalog::default_budget(&gp));
            assert!(out.converged);
            for fact in 0..gp.num_idb_facts() {
                assert_eq!(
                    uvg.circuit_for(fact).polynomial(),
                    out.values[fact],
                    "pairs {pairs}, fact {fact}"
                );
            }
        }
    }

    #[test]
    fn stage_count_is_logarithmic_on_paths() {
        // TC on a path of length n: the layered circuit needs Θ(n) layers,
        // UvG only Θ(log n) stages.
        let mut rows = Vec::new();
        for n in [4usize, 8, 16] {
            let g = generators::path(n, "E");
            let mut p = programs::transitive_closure();
            let (_, gp) = grounded_for(&mut p, &g);
            let uvg = uvg_circuit(&gp, None);
            let layered = grounded_circuit(&gp, None);
            rows.push((n, uvg.layers, layered.layers));
        }
        // Layered grows linearly (≈ +n/2 per doubling)…
        assert!(rows[2].2 >= 2 * rows[1].2 - 2, "{rows:?}");
        // …UvG grows by O(1) stages per doubling of n (logarithmically).
        assert!(rows[1].1 - rows[0].1 <= 6, "{rows:?}");
        assert!(rows[2].1 - rows[1].1 <= 6, "{rows:?}");
        assert!(rows[2].1 < rows[2].2 + 10, "{rows:?}");
    }

    #[test]
    fn depth_is_polylog_on_paths() {
        let mut depths = Vec::new();
        for n in [4usize, 8, 16] {
            let g = generators::path(n, "E");
            let mut p = programs::transitive_closure();
            let (db, gp) = grounded_for(&mut p, &g);
            let t = p.preds.get("T").unwrap();
            let fact = gp
                .fact(t, &[db.node_const(0).unwrap(), db.node_const(n).unwrap()])
                .unwrap();
            let uvg = uvg_circuit(&gp, None);
            depths.push(stats(&uvg.circuit_for(fact)).depth as f64);
        }
        // Sub-linear growth: doubling n must not double depth.
        assert!(depths[2] / depths[1] < 1.8, "{depths:?}");
        assert!(depths[1] / depths[0] < 1.8, "{depths:?}");
    }

    #[test]
    fn same_generation_linear_program() {
        // Linear non-chain program (Corollary 6.3).
        let mut p = programs::same_generation();
        // Small tree: F(x,y) flat pairs, U/D edges up/down.
        let mut g = graphgen::LabeledDigraph::new(7);
        // parent structure: 0-(1,2), 1-(3,4), 2-(5,6)
        for (c, par) in [(1u32, 0u32), (2, 0), (3, 1), (4, 1), (5, 2), (6, 2)] {
            g.add_edge(c, par, "U");
            g.add_edge(par, c, "D");
        }
        g.add_edge(3, 3, "F");
        let (_, gp) = grounded_for(&mut p, &g);
        let uvg = uvg_circuit(&gp, None);
        let out = datalog::provenance_eval(&gp, datalog::default_budget(&gp));
        assert!(out.converged);
        for fact in 0..gp.num_idb_facts() {
            assert_eq!(uvg.circuit_for(fact).polynomial(), out.values[fact]);
        }
    }
}
