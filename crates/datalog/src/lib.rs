//! A Datalog engine with semiring semantics (paper §2).
//!
//! This crate is the Datalog substrate of the `datalog-circuits` workspace:
//!
//! * [`ast`] / [`parser`] — programs with the predicate-I/O convention;
//! * [`database`] — EDB databases with provenance-tagged facts;
//! * [`mod@ground`] — the grounded program (derivable facts + grounded
//!   rules) computed by an indexed semi-naive fixpoint, the shared input
//!   of evaluation and circuit construction;
//! * [`eval`] — naive and semi-naive fixpoint evaluation over any
//!   [`semiring::Semiring`], with convergence detection (p-stability,
//!   §2.3) and the iterations-to-fixpoint boundedness probe (§4);
//! * [`fused`] — fused ground+eval: streams grounded rules straight into
//!   the semi-naive ⊕-worklist, never materializing the rule vector;
//! * [`csr`] — compact CSR storage, the one store of grounded rules;
//! * [`prooftree`] — tight proof trees and brute-force provenance
//!   polynomials (§2.4), the small-instance oracle;
//! * [`expansion`] — CQ expansions, homomorphisms, and Theorem 4.6
//!   boundedness evidence;
//! * [`mod@classify`] — the paper's fragments (linear, monadic, chain,
//!   connected);
//! * [`magic`] — the magic-set rewriting behind Theorem 5.8;
//! * [`to_cfg`] — the chain-Datalog ↔ CFG correspondence (Prop 5.2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod classify;
pub mod csr;
pub mod database;
pub mod eval;
pub mod expansion;
pub mod fused;
pub mod fxhash;
pub mod ground;
pub mod magic;
pub mod par;
pub mod parser;
pub mod prooftree;
pub mod symbols;
pub mod to_cfg;

pub use provcirc_error::Error;

pub use ast::{Atom, Program, Rule, Term};
pub use classify::{classify, ProgramClass};
pub use csr::{CompactRules, RuleRef};
pub use database::{Database, FactId};
pub use eval::{
    default_budget, dependency_csr, edb_factors, eval_all_ones, eval_with_strategy, ico,
    naive_eval, par_eval_with_strategy, par_eval_with_strategy_recorded, par_ico, par_naive_eval,
    par_naive_eval_recorded, par_semi_naive_eval, par_semi_naive_eval_recorded, provenance_eval,
    semi_naive_eval, semi_naive_eval_recorded, EvalOutcome, EvalStrategy,
};
pub use expansion::{boundedness_evidence, expansions, homomorphism, BoundednessEvidence, Cq};
pub use fused::{
    fused_eval, fused_eval_recorded, par_fused_eval, par_fused_eval_recorded, FusedOutcome,
};
pub use ground::{
    extend_grounding, ground, ground_with_limit, par_ground, par_ground_with_limit,
    par_ground_with_limit_recorded, retract_facts_from_grounding, GroundedProgram,
};
pub use magic::{magic_point_eval, magic_rewrite, MagicPointOutcome, MagicRewrite};
pub use parser::parse_program;
pub use prooftree::{provenance_polynomial, tight_proof_trees, ProofNode, TightTrees};
pub use symbols::{ConstId, Interner, PredId};
pub use to_cfg::{cfg_to_chain, chain_to_cfg};

/// Well-known example programs from the paper.
pub mod programs {
    use crate::ast::Program;
    use crate::parser::parse_program;

    /// Transitive closure (Example 2.1, first program).
    pub fn transitive_closure() -> Program {
        parse_program("T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), E(Z,Y).").expect("static")
    }

    /// Reachability from an `A`-node (Example 2.1, second program) —
    /// monadic linear connected.
    pub fn monadic_reachability() -> Program {
        parse_program("U(X) :- A(X).\nU(X) :- U(Y), E(X,Y).").expect("static")
    }

    /// Example 4.2 — bounded over any absorptive semiring, equivalent to a
    /// UCQ, but *disconnected*.
    pub fn bounded_example() -> Program {
        parse_program("T(X,Y) :- E(X,Y).\nT(X,Y) :- A(X), T(Z,Y).").expect("static")
    }

    /// Dyck-1 reachability (Example 6.4) — non-linear chain program with
    /// the polynomial fringe property.
    pub fn dyck1() -> Program {
        parse_program(
            "S(X,Y) :- L(X,Z), R(Z,Y).\n\
             S(X,Y) :- L(X,W), S(W,Z), R(Z,Y).\n\
             S(X,Y) :- S(X,Z), S(Z,Y).",
        )
        .expect("static")
    }

    /// Same-generation — the classic non-chain linear program.
    pub fn same_generation() -> Program {
        parse_program(
            "SG(X,Y) :- F(X,Y).\n\
             SG(X,Y) :- U(X,W), SG(W,Z), D(Z,Y).",
        )
        .expect("static")
    }

    /// A finite RPQ `E·E·E` (bounded; Θ(log n)-depth circuits by Thm 5.3).
    pub fn three_hops() -> Program {
        parse_program("P(X,Y) :- E(X,Z1), E(Z1,Z2), E(Z2,Y).").expect("static")
    }
}
