//! Fused ground+eval: stream grounded rules into the semi-naive
//! ⊕-worklist as phase-1 delta grounding discovers them, instead of
//! materializing a rule vector first.
//!
//! The materialized pipeline pays for a pure fixpoint query three times:
//! phase-1 discovery of the derivable facts, phase-2 enumeration of every
//! grounding into the rule store (15M rules on large TC instances, most
//! of the cost of a query whose evaluation it merely feeds), and finally
//! the fixpoint over that store. But phase 1 *already
//! enumerates every grounding exactly once* — each at the round where its
//! newest body fact appeared — and phase 2 merely re-materializes them.
//! The fused pipeline exploits that: each discovery-round match is
//! ⊕-accumulated into its head value on the spot and dropped. No grounded
//! rule is ever stored.
//!
//! # Soundness
//!
//! Requires `⊕` idempotent ([`Semiring::ADD_IDEMPOTENT`]) — the same
//! precondition as semi-naive evaluation, and for the same reason: values
//! are accumulated in place (Gauss–Seidel), so a grounding may contribute
//! a product built from not-yet-final body values, and later rounds must
//! be able to repair it by re-accumulating without over-counting. Over an
//! idempotent (absorptive in all shipped cases) semiring the fixpoint of
//! the immediate-consequence operator is unique and ⊕-accumulation of any
//! sequence of rule products that includes every grounding's final
//! product converges to exactly it; duplicate or stale contributions are
//! absorbed. The driver guarantees the "every final product" part with
//! two passes per round:
//!
//! * a **discovery pass** replaying phase 1's task order exactly (round
//!   0: full join per rule; round r: `(rule, delta position)` over the
//!   last round's frontier) — every grounding is enumerated exactly once,
//!   at the round after its newest body fact appeared, and newly derived
//!   head facts are appended in first-discovery order, which makes the
//!   fused fact list **bit-identical** to the materialized grounding's
//!   (`tests/engine_agreement.rs` asserts this);
//! * a **re-fire pass** over the facts whose *value* changed in the
//!   previous round without being newly discovered: every grounding
//!   citing such a fact is re-enumerated (possibly more than once — see
//!   [`Matcher::enumerate_changed`]) and its fresh product re-accumulated.
//!
//! A fact's value can only change finitely often (each strict change
//! moves it up the ⊕-order toward the unique fixpoint), so both passes
//! eventually quiesce and the result equals the materialized pipeline's
//! bit-for-bit.
//!
//! Non-idempotent semirings (e.g. `Counting`) take the documented
//! fallback: materialize the grounding and run the naive fixpoint —
//! exactly what the materialized pipeline's own semi-naive → naive
//! fallback does, divergence behavior included.
//!
//! [`Matcher::enumerate_changed`]: mod@crate::ground
//! [`Semiring::ADD_IDEMPOTENT`]: semiring::Semiring::ADD_IDEMPOTENT

use provcirc_error::Error;
use semiring::valuation::Valuation;
use semiring::Semiring;
use telemetry::{Counter, Recorder, RoundStats, Stage, NOOP};

use crate::ast::Program;
use crate::database::Database;
use crate::eval::{default_budget, naive_eval, EvalStrategy};
use crate::fxhash::FxHashMap;
use crate::ground::{
    par_ground_with_limit_recorded, BodyMatch, FusedBatch, GroundedProgram, Grounder,
};
use crate::symbols::{ConstId, PredId};

/// Result of a fused ground+eval run.
#[derive(Clone, Debug)]
pub struct FusedOutcome<S> {
    /// The derivable facts, in an order **bit-identical** to the
    /// materialized grounding's `idb_facts` — but with `rules` /
    /// `rules_by_head` left empty: no grounded rule was materialized.
    /// (On the non-idempotent fallback the rules *are* present, exactly
    /// as the materialized pipeline would have built them.)
    pub gp: GroundedProgram,
    /// Value per derivable fact, aligned with `gp.idb_facts`.
    pub values: Vec<S>,
    /// Fused rounds executed (discovery + re-fire pairs). Not comparable
    /// to either materialized strategy's `iterations`.
    pub iterations: usize,
    /// Total rule firings: streamed groundings plus re-fires.
    pub rule_firings: usize,
    /// Groundings streamed through the worklist by discovery passes —
    /// the count a materialized run would have stored as `rules.len()`.
    pub streamed_rules: u64,
    /// Re-firings performed by the changed-value passes.
    pub refires: u64,
    /// Whether the fixpoint quiesced within the round budget.
    pub converged: bool,
    /// Peak number of groundings held in memory at once: `0` on the
    /// sequential path (each grounding is accumulated and dropped on the
    /// spot), the largest single round's grounding count on the parallel
    /// path (discovery tasks buffer their round before the ordered
    /// drain), and the full materialized rule count on the
    /// non-⊕-idempotent fallback.
    pub peak_buffered: u64,
    /// [`EvalStrategy::SemiNaive`] for the fused path proper,
    /// [`EvalStrategy::Naive`] when the non-idempotent fallback ran.
    pub strategy: EvalStrategy,
}

/// Newly derived facts buffered during a round (the grounder borrows the
/// fact list immutably, so appends wait for the round boundary).
/// First-discovery order — the order phase 1 would have interned them in.
/// The index is per-predicate so membership probes take the borrowed
/// head-tuple slice the grounder streams, allocating only on insertion.
struct PendingFacts<S> {
    facts: Vec<(PredId, Vec<ConstId>, S)>,
    index: FxHashMap<PredId, FxHashMap<Vec<ConstId>, usize>>,
}

impl<S: Semiring> PendingFacts<S> {
    fn new() -> Self {
        PendingFacts {
            facts: Vec::new(),
            index: FxHashMap::default(),
        }
    }
}

/// ⊕-accumulate one streamed grounding into its head, flagging an
/// existing head whose value strictly changed.
#[allow(clippy::too_many_arguments)]
fn accumulate<S, V>(
    gp: &GroundedProgram,
    values: &mut [S],
    pending: &mut PendingFacts<S>,
    changed_flags: &mut [bool],
    assign: &V,
    may_create: bool,
    head_pred: PredId,
    head_tuple: &[ConstId],
    body: &[BodyMatch],
) where
    S: Semiring,
    V: Valuation<S> + ?Sized,
{
    let mut prod = S::one();
    for m in body {
        match *m {
            BodyMatch::Idb(i) => prod.mul_assign(&values[i]),
            BodyMatch::Edb(f) => prod.mul_assign(&assign.value(f)),
        }
    }
    if let Some(h) = gp.fact(head_pred, head_tuple) {
        let before = values[h].clone();
        values[h].add_assign(&prod);
        if !values[h].sr_eq(&before) {
            changed_flags[h] = true;
        }
        return;
    }
    let by_pred = pending.index.entry(head_pred).or_default();
    match by_pred.get(head_tuple) {
        Some(&pi) => pending.facts[pi].2.add_assign(&prod),
        None => {
            assert!(
                may_create,
                "fused re-fire reached a head the discovery passes never derived"
            );
            by_pred.insert(head_tuple.to_vec(), pending.facts.len());
            pending.facts.push((head_pred, head_tuple.to_vec(), prod));
        }
    }
}

/// [`fused_eval_recorded`] with the no-op recorder.
pub fn fused_eval<S, V>(
    program: &Program,
    db: &Database,
    assign: &V,
    budget: Option<usize>,
) -> Result<FusedOutcome<S>, Error>
where
    S: Semiring,
    V: Valuation<S> + ?Sized,
{
    fused_run(program, db, assign, budget, 1, &NOOP)
}

/// [`par_fused_eval_recorded`] with the no-op recorder.
pub fn par_fused_eval<S, V>(
    program: &Program,
    db: &Database,
    assign: &V,
    budget: Option<usize>,
    threads: usize,
) -> Result<FusedOutcome<S>, Error>
where
    S: Semiring,
    V: Valuation<S> + ?Sized,
{
    fused_run(program, db, assign, budget, threads, &NOOP)
}

/// [`fused_eval_recorded`] with the discovery joins sharded over up to
/// `threads` workers.
///
/// The ⊕-accumulation itself stays sequential — Gauss–Seidel in-place
/// updates are what make the streaming fixpoint converge fast, and a
/// racing schedule would break the bit-identity contract. What *can*
/// shard is discovery: the join enumeration never reads values, so each
/// round's `(rule, delta position, frontier shard)` tasks run on worker
/// threads exactly as phase 1's do, each buffering its groundings in a
/// flat batch, and the driver then drains the batches in task order —
/// the same accumulation sequence the sequential path performs, hence
/// bit-identical facts *and* values (`threads <= 1` is literally the
/// sequential path). This is the lever the materialized pipeline does
/// not have: parallel phase 2 must materialize giant per-shard rule
/// buffers and loses its speedup to the allocator, while fused
/// discovery buffers only one round at a time
/// ([`FusedOutcome::peak_buffered`]) and keeps the join sharding
/// profitable.
pub fn par_fused_eval_recorded<S, V>(
    program: &Program,
    db: &Database,
    assign: &V,
    budget: Option<usize>,
    threads: usize,
    rec: &dyn Recorder,
) -> Result<FusedOutcome<S>, Error>
where
    S: Semiring,
    V: Valuation<S> + ?Sized,
{
    fused_run(program, db, assign, budget, threads, rec)
}

/// Evaluate `program` over `db` by the fused streaming pipeline,
/// reporting into a telemetry [`Recorder`]: a [`Stage::FusedEval`] span
/// with one [`RoundStats`] per round, plus the
/// [`Counter::StreamedRules`] / [`Counter::FusedRefires`] /
/// [`Counter::RuleFirings`] / [`Counter::FactsDiscovered`] /
/// [`Counter::IndexProbes`] totals.
///
/// `budget` caps the number of fused rounds; `None` uses the dynamic
/// default (#derivable facts + 2, recomputed as facts are discovered —
/// the fused analogue of [`default_budget`]).
///
/// This entry point runs discovery on the caller's thread; see
/// [`par_fused_eval_recorded`] for the sharded-discovery variant (the
/// accumulation is sequential either way — that is what keeps the
/// Gauss–Seidel streaming fixpoint deterministic).
pub fn fused_eval_recorded<S, V>(
    program: &Program,
    db: &Database,
    assign: &V,
    budget: Option<usize>,
    rec: &dyn Recorder,
) -> Result<FusedOutcome<S>, Error>
where
    S: Semiring,
    V: Valuation<S> + ?Sized,
{
    fused_run(program, db, assign, budget, 1, rec)
}

fn fused_run<S, V>(
    program: &Program,
    db: &Database,
    assign: &V,
    budget: Option<usize>,
    threads: usize,
    rec: &dyn Recorder,
) -> Result<FusedOutcome<S>, Error>
where
    S: Semiring,
    V: Valuation<S> + ?Sized,
{
    if !S::ADD_IDEMPOTENT {
        // Streaming accumulation is unsound without idempotent ⊕ (stale
        // products cannot be absorbed). Fall back to exactly what the
        // materialized pipeline does for these semirings: ground fully,
        // run the naive fixpoint.
        let gp = par_ground_with_limit_recorded(program, db, usize::MAX, threads, rec)?;
        let b = budget.unwrap_or_else(|| default_budget(&gp));
        let out = naive_eval::<S, _>(&gp, assign, b);
        let peak_buffered = gp.rules.len() as u64;
        return Ok(FusedOutcome {
            gp,
            values: out.values,
            iterations: out.iterations,
            rule_firings: out.rule_firings,
            streamed_rules: 0,
            refires: 0,
            converged: out.converged,
            peak_buffered,
            strategy: EvalStrategy::Naive,
        });
    }

    let enabled = rec.enabled();
    let span = enabled.then(std::time::Instant::now);
    let mut fg = Grounder::new(program, db, enabled)?;
    let mut gp = GroundedProgram::default();
    let mut values: Vec<S> = Vec::new();
    let mut streamed: u64 = 0;
    let mut refires: u64 = 0;
    let mut peak_buffered: u64 = 0;
    // D_{r-1}: the facts appended by the previous round's discovery pass.
    let mut delta_start = 0usize;
    // Facts whose value strictly changed in the previous round (any index
    // below that round's append point; newly appended facts are covered
    // by the discovery frontier instead).
    let mut changed: Vec<usize> = Vec::new();
    let mut round = 0usize;
    let converged = loop {
        let len_before = gp.num_idb_facts();
        let frontier = (len_before - delta_start) as u64;
        let mut pending = PendingFacts::<S>::new();
        let mut changed_flags = vec![false; len_before];
        let mut probes = 0u64;
        let mut fired_now = 0u64;

        // Discovery pass: replay phase 1's enumeration for this round.
        if threads > 1 {
            // Sharded discovery: worker threads buffer this round's
            // groundings in flat batches (task order = sequential
            // enumeration order), then the drain below accumulates them
            // in exactly the sequence the sequential path would have —
            // enumeration never reads values, so deferring the
            // accumulation to the drain changes nothing observable.
            let (batches, p): (Vec<FusedBatch>, u64) = if round == 0 {
                fg.round0_par(&gp, threads, rec)
            } else {
                fg.delta_round_par(&gp, delta_start, threads, rec)
            };
            probes += p;
            let held: u64 = batches.iter().map(|b| b.len() as u64).sum();
            peak_buffered = peak_buffered.max(held);
            for b in &batches {
                let (mut ho, mut bo) = (0usize, 0usize);
                for &ri in &b.rules {
                    let rule = &program.rules[ri as usize];
                    let (ha, nb) = (rule.head.terms.len(), rule.body.len());
                    fired_now += 1;
                    accumulate(
                        &gp,
                        &mut values,
                        &mut pending,
                        &mut changed_flags,
                        assign,
                        true,
                        rule.head.pred,
                        &b.heads[ho..ho + ha],
                        &b.bodies[bo..bo + nb],
                    );
                    ho += ha;
                    bo += nb;
                }
            }
        } else {
            let mut sink = |hp: PredId, ht: &[ConstId], body: &[BodyMatch]| {
                fired_now += 1;
                accumulate(
                    &gp,
                    &mut values,
                    &mut pending,
                    &mut changed_flags,
                    assign,
                    true,
                    hp,
                    ht,
                    body,
                );
            };
            probes += if round == 0 {
                fg.round0(&gp, &mut sink)
            } else {
                fg.delta_round(&gp, delta_start, &mut sink)
            };
        }
        streamed += fired_now;

        // Re-fire pass: repair values downstream of last round's changes.
        let mut refired_now = 0u64;
        if !changed.is_empty() {
            let mut sink = |hp: PredId, ht: &[ConstId], body: &[BodyMatch]| {
                refired_now += 1;
                accumulate(
                    &gp,
                    &mut values,
                    &mut pending,
                    &mut changed_flags,
                    assign,
                    false,
                    hp,
                    ht,
                    body,
                );
            };
            probes += fg.refire_round(&gp, &changed, &mut sink);
        }
        refires += refired_now;

        // Round boundary: append this round's discoveries (in
        // first-discovery order — phase 1's interning order) and fold
        // them into the join indices.
        delta_start = len_before;
        for (pred, tuple, v) in pending.facts {
            let i = gp
                .push_fact(pred, tuple)
                .expect("pending facts are deduplicated against gp");
            debug_assert_eq!(i, values.len());
            values.push(v);
        }
        if gp.num_idb_facts() > len_before {
            fg.extend_indices(&gp);
        }
        changed = changed_flags
            .iter()
            .enumerate()
            .filter_map(|(i, &c)| c.then_some(i))
            .collect();
        let delta = (gp.num_idb_facts() - len_before) as u64;
        round += 1;
        if enabled {
            rec.counter(Counter::IndexProbes, probes);
            rec.counter(Counter::StreamedRules, fired_now);
            rec.counter(Counter::FusedRefires, refired_now);
            rec.counter(Counter::RuleFirings, fired_now + refired_now);
            rec.counter(Counter::FactsDiscovered, delta);
            rec.round(
                Stage::FusedEval,
                RoundStats {
                    round: (round - 1) as u64,
                    frontier,
                    delta,
                    probes,
                    firings: fired_now + refired_now,
                    worklist: delta + changed.len() as u64,
                },
            );
        }
        if delta == 0 && changed.is_empty() {
            break true;
        }
        let limit = budget.unwrap_or(gp.num_idb_facts() + 2);
        if round >= limit {
            break false;
        }
    };
    if let Some(t) = span {
        rec.stage_nanos(Stage::FusedEval, t.elapsed().as_nanos() as u64);
    }
    Ok(FusedOutcome {
        gp,
        values,
        iterations: round,
        rule_firings: (streamed + refires) as usize,
        streamed_rules: streamed,
        refires,
        converged,
        peak_buffered,
        strategy: EvalStrategy::SemiNaive,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{naive_eval, semi_naive_eval};
    use crate::ground::ground;
    use crate::parser::parse_program;
    use graphgen::generators;
    use semiring::valuation::{AllOnes, UnitWeights};
    use semiring::{Bool, Counting, Tropical};

    fn tc() -> Program {
        parse_program("T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), E(Z,Y).").unwrap()
    }

    fn instance(n: usize, m: usize, seed: u64) -> (Program, Database) {
        let mut p = tc();
        let g = generators::gnm(n, m, &["E"], seed);
        let (db, _) = Database::from_graph(&mut p, &g);
        (p, db)
    }

    #[test]
    fn fused_matches_materialized_bit_for_bit() {
        for seed in [3u64, 7, 13, 29] {
            let (p, db) = instance(9, 22, seed);
            let gp = ground(&p, &db).unwrap();
            let mat = semi_naive_eval::<Tropical, _>(
                &gp,
                &UnitWeights::new(Tropical::new(1)),
                default_budget(&gp),
            );
            let fused =
                fused_eval::<Tropical, _>(&p, &db, &UnitWeights::new(Tropical::new(1)), None)
                    .unwrap();
            // Fact interning order is the contract, not just the fact set.
            assert_eq!(fused.gp.idb_facts, gp.idb_facts, "seed {seed}");
            assert!(fused.converged && mat.converged);
            assert_eq!(fused.values, mat.values, "seed {seed}");
            assert!(fused.gp.rules.is_empty(), "no rule was materialized");
        }
    }

    #[test]
    fn fused_bool_matches_on_cycles_and_dags() {
        for g in [generators::cycle(7, "E"), generators::path(7, "E")] {
            let mut p = tc();
            let (db, _) = Database::from_graph(&mut p, &g);
            let gp = ground(&p, &db).unwrap();
            let mat = naive_eval::<Bool, _>(&gp, &AllOnes, default_budget(&gp));
            let fused = fused_eval::<Bool, _>(&p, &db, &AllOnes, None).unwrap();
            assert_eq!(fused.gp.idb_facts, gp.idb_facts);
            assert!(fused.converged && mat.converged);
            assert_eq!(fused.values, mat.values);
        }
    }

    #[test]
    fn non_idempotent_semirings_fall_back_to_materialize_and_naive() {
        // Acyclic, so Counting converges; the fused path must report the
        // naive fallback and agree with the materialized run exactly.
        let mut p = tc();
        let g = generators::path(6, "E");
        let (db, _) = Database::from_graph(&mut p, &g);
        let gp = ground(&p, &db).unwrap();
        let mat = naive_eval::<Counting, _>(&gp, &AllOnes, default_budget(&gp));
        let fused = fused_eval::<Counting, _>(&p, &db, &AllOnes, None).unwrap();
        assert_eq!(fused.strategy, EvalStrategy::Naive);
        assert_eq!(fused.streamed_rules, 0);
        assert!(!fused.gp.rules.is_empty(), "fallback materializes");
        assert_eq!(fused.values, mat.values);
        assert_eq!(fused.converged, mat.converged);

        // Cyclic: both diverge, reported as non-convergence either way.
        let mut p2 = tc();
        let g2 = generators::cycle(4, "E");
        let (db2, _) = Database::from_graph(&mut p2, &g2);
        let fused2 = fused_eval::<Counting, _>(&p2, &db2, &AllOnes, None).unwrap();
        assert!(!fused2.converged);
    }

    #[test]
    fn zero_rule_and_empty_database_programs_quiesce() {
        let p = parse_program("T(X,Y) :- E(X,Y).").unwrap();
        let db = Database::new(); // no facts at all
        let fused = fused_eval::<Bool, _>(&p, &db, &AllOnes, None).unwrap();
        assert!(fused.converged);
        assert!(fused.gp.idb_facts.is_empty());
        assert_eq!(fused.values.len(), 0);
    }

    #[test]
    fn explicit_budget_reports_divergence_without_panicking() {
        let (p, db) = instance(8, 20, 11);
        let fused = fused_eval::<Bool, _>(&p, &db, &AllOnes, Some(1)).unwrap();
        assert!(!fused.converged);
        assert_eq!(fused.iterations, 1);
    }

    #[test]
    fn parallel_fused_is_bit_identical_to_sequential() {
        let unit = UnitWeights::new(Tropical::new(1));
        for seed in [3u64, 7, 13, 29] {
            let (p, db) = instance(60, 240, seed);
            let seq = fused_eval::<Tropical, _>(&p, &db, &unit, None).unwrap();
            for threads in [2usize, 4] {
                let par = par_fused_eval::<Tropical, _>(&p, &db, &unit, None, threads).unwrap();
                assert_eq!(par.gp.idb_facts, seq.gp.idb_facts, "seed {seed}");
                assert_eq!(par.values, seq.values, "seed {seed} threads {threads}");
                assert_eq!(par.streamed_rules, seq.streamed_rules);
                assert_eq!(par.iterations, seq.iterations);
                assert!(par.converged);
                // The parallel path holds at most one round's groundings;
                // the sequential path never holds any.
                assert!(par.peak_buffered > 0);
                assert!(par.peak_buffered < par.streamed_rules);
                assert_eq!(seq.peak_buffered, 0);
            }
        }
    }

    #[test]
    fn parallel_fused_matches_non_linear_programs_too() {
        // Dyck-1 exercises multi-IDB bodies (two delta positions per
        // rule) and re-fire rounds; the sharded discovery must still
        // replay the exact sequential order.
        let mut p = crate::programs::dyck1();
        let g = generators::gnm(12, 30, &["L", "R"], 21);
        let (db, _) = Database::from_graph(&mut p, &g);
        let seq = fused_eval::<Bool, _>(&p, &db, &AllOnes, None).unwrap();
        let par = par_fused_eval::<Bool, _>(&p, &db, &AllOnes, None, 3).unwrap();
        assert_eq!(par.gp.idb_facts, seq.gp.idb_facts);
        assert_eq!(par.values, seq.values);
        assert_eq!(par.streamed_rules, seq.streamed_rules);
    }
}
