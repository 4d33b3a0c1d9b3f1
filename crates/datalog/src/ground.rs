//! Grounding: from a program and database to the grounded program
//! (paper §2.1), the shared input of naive evaluation and of every circuit
//! construction (Theorems 3.1, 4.3, 6.2).
//!
//! Grounding proceeds in two phases:
//! 1. a **semi-naive** Boolean fixpoint computes the set of *derivable*
//!    IDB facts: each round only instantiates rule bodies that use at
//!    least one fact from the previous round's *delta frontier*, instead
//!    of re-enumerating every match from scratch;
//! 2. every rule is instantiated in all ways whose body holds in
//!    EDB ∪ derivable-IDB, yielding the grounded rules, stored in one
//!    [`CompactRules`] CSR store.
//!
//! Both phases join through per-predicate **hash indices**: for every
//! `(predicate, bound argument positions)` pair some rule probes, facts are
//! keyed by their projection onto those positions (the private
//! `JoinIndices`). A body atom whose prefix has already bound `k` of its
//! arguments is matched by one hash lookup over exactly the candidate
//! facts agreeing on those arguments — not by scanning the full relation.
//! Because derivable facts are appended round by round, the delta frontier
//! is a contiguous index range and a binary search restricts any index
//! bucket to it.
//!
//! Phase-1 delta joins are **frontier-driven**: the delta atom iterates
//! the frontier facts of its predicate *outermost* (ascending fact index),
//! with the rest of the body joined per frontier fact through the shared
//! indices. That ordering is what makes the phase shardable: the frontier
//! range splits into contiguous sub-ranges evaluated on scoped threads
//! against the read-only indices, and concatenating shard outputs in
//! frontier order replays the sequential enumeration exactly — `FactId`s
//! (and hence the Theorem 4.3 layering probe) are bit-identical whatever
//! the thread count ([`par_ground_with_limit`]). Phase 2 shards by rule,
//! concatenated in rule order, for the same reason.
//!
//! Note on cross-version stability: hoisting the delta atom changed the
//! *discovery order* of phase 1 relative to earlier releases for rules
//! whose recursive atom is not the first body atom (the derived fact
//! *set*, values, and probes are unchanged — only which `FactId` a fact
//! happens to get). `FactId`s are a per-run artifact, not a stable
//! identifier across versions; within a version they are deterministic
//! and thread-count-independent, which is the invariant everything
//! downstream (circuit sharing, provenance variable numbering, caches)
//! actually relies on.
//!
//! Restricting to derivable facts keeps the grounded program — and hence
//! every circuit built from it — free of dead gates.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};

use crate::fxhash::FxHashMap;
use std::ops::ControlFlow;

use provcirc_error::Error;
use telemetry::{Counter, Recorder, RoundStats, Stage, NOOP};

use crate::ast::{Atom, Program, Rule, Term};
use crate::csr::CompactRules;
use crate::database::{Database, FactId};
use crate::symbols::{ConstId, PredId, VarSym};

/// The grounded program.
#[derive(Clone, Debug, Default)]
pub struct GroundedProgram {
    /// All derivable IDB facts.
    pub idb_facts: Vec<(PredId, Vec<ConstId>)>,
    /// Index from fact to its position in `idb_facts`, grouped by
    /// predicate so a lookup can probe with a borrowed `&[ConstId]`
    /// (`Vec<ConstId>: Borrow<[ConstId]>`) instead of cloning the tuple
    /// into a composite key — [`fact`] sits on the per-grounding hot path
    /// of both grounding phases and the fused worklist.
    ///
    /// [`fact`]: GroundedProgram::fact
    pub fact_index: FxHashMap<PredId, FxHashMap<Vec<ConstId>, usize>>,
    /// All grounded rules, in grounding order.
    pub rules: CompactRules,
    /// For each IDB fact, the grounded rules deriving it.
    pub rules_by_head: Vec<Vec<usize>>,
    /// Derivable facts grouped by predicate, each group in `idb_facts`
    /// order — maintained during grounding so [`facts_of`] is a lookup,
    /// not a scan.
    ///
    /// [`facts_of`]: GroundedProgram::facts_of
    pub facts_by_pred: FxHashMap<PredId, Vec<usize>>,
}

impl GroundedProgram {
    /// Number of derivable IDB facts.
    pub fn num_idb_facts(&self) -> usize {
        self.idb_facts.len()
    }

    /// The index of a derivable IDB fact. Allocation-free: probes the
    /// per-predicate map with the borrowed tuple.
    pub fn fact(&self, pred: PredId, tuple: &[ConstId]) -> Option<usize> {
        self.fact_index.get(&pred)?.get(tuple).copied()
    }

    /// Indices of derivable facts of a predicate, in `idb_facts` order.
    ///
    /// O(1): served from the per-predicate index built during grounding
    /// (it used to be an O(#facts) scan per call, which made the grounding
    /// join quadratic on large instances).
    pub fn facts_of(&self, pred: PredId) -> &[usize] {
        self.facts_by_pred.get(&pred).map_or(&[][..], Vec::as_slice)
    }

    /// Total size of the grounded program (the `M` of Theorem 4.3's size
    /// analysis): grounded rules plus their body atoms. O(1).
    pub fn size(&self) -> usize {
        self.rules.len() + self.rules.body_atoms()
    }

    /// Index the rules from `first` on in `rules_by_head` (rules before
    /// `first` are already indexed), growing it to one entry per fact.
    fn index_rules_from(&mut self, first: usize) {
        self.rules_by_head.resize(self.idb_facts.len(), Vec::new());
        for i in first..self.rules.len() {
            self.rules_by_head[self.rules.get(i).head].push(i);
        }
    }

    /// Append a derivable fact, keeping `fact_index` and `facts_by_pred`
    /// coherent. Returns `Some(i)` for a new fact, `None` for a duplicate.
    pub(crate) fn push_fact(&mut self, pred: PredId, tuple: Vec<ConstId>) -> Option<usize> {
        let by_pred = self.fact_index.entry(pred).or_default();
        if by_pred.contains_key(&tuple) {
            return None;
        }
        let i = self.idb_facts.len();
        by_pred.insert(tuple.clone(), i);
        self.facts_by_pred.entry(pred).or_default().push(i);
        self.idb_facts.push((pred, tuple));
        Some(i)
    }
}

/// A match target during joins: either an IDB fact index or an EDB fact id.
#[derive(Clone, Copy, Debug)]
pub(crate) enum BodyMatch {
    /// Index into [`GroundedProgram::idb_facts`].
    Idb(usize),
    /// EDB fact id (a provenance variable).
    Edb(FactId),
}

/// Statically computed join plan of one rule, for the fixed left-to-right
/// body order: which argument positions of each body atom are already
/// bound (constants, or variables bound by an earlier atom) when the
/// matcher reaches it — the probe key of the hash index at that position.
struct RulePlan {
    /// Per body position: the pre-bound argument positions, ascending.
    bound: Vec<Vec<usize>>,
    /// Per body position: slot of the shared index in [`JoinIndices`].
    slot: Vec<usize>,
    /// Body positions holding IDB atoms (delta-constraint candidates).
    idb_positions: Vec<usize>,
    /// A constant in the rule names nothing in the active domain: the rule
    /// can never fire over this database and is skipped wholesale.
    dead: bool,
}

fn plan_rule(
    rule: &Rule,
    idbs: &HashSet<PredId>,
    const_map: &[Option<ConstId>],
    slots: &mut SlotInterner,
) -> RulePlan {
    let mut dead = rule
        .head
        .terms
        .iter()
        .any(|t| matches!(t, Term::Const(c) if const_map[*c as usize].is_none()));
    let mut bound_vars: HashSet<VarSym> = HashSet::new();
    let mut bound = Vec::with_capacity(rule.body.len());
    let mut slot = Vec::with_capacity(rule.body.len());
    let mut idb_positions = Vec::new();
    for (pos, atom) in rule.body.iter().enumerate() {
        let mut pre_bound = Vec::new();
        for (p, term) in atom.terms.iter().enumerate() {
            match term {
                Term::Const(c) => {
                    if const_map[*c as usize].is_none() {
                        dead = true;
                    }
                    pre_bound.push(p);
                }
                Term::Var(v) => {
                    if bound_vars.contains(v) {
                        pre_bound.push(p);
                    }
                }
            }
        }
        for term in &atom.terms {
            if let Term::Var(v) = term {
                bound_vars.insert(*v);
            }
        }
        let is_idb = idbs.contains(&atom.pred);
        if is_idb {
            idb_positions.push(pos);
        }
        slot.push(slots.intern(atom.pred, &pre_bound, is_idb));
        bound.push(pre_bound);
    }
    RulePlan {
        bound,
        slot,
        idb_positions,
        dead,
    }
}

/// Join plan of one rule with its IDB atom at body position `dpos` pinned
/// to the delta frontier and **hoisted to the outermost loop**: the
/// frontier facts of that predicate are iterated directly (ascending fact
/// index), and the remaining atoms are joined per frontier fact, in their
/// original body order, with bound-position sets recomputed for the new
/// variable-binding order.
struct DeltaPlan {
    /// Body position of the delta atom.
    dpos: usize,
    /// Remaining body positions, original order, `dpos` excluded.
    rest: Vec<usize>,
    /// Per rest-atom: pre-bound argument positions under the hoisted order.
    bound: Vec<Vec<usize>>,
    /// Per rest-atom: slot of the shared index in [`JoinIndices`].
    slot: Vec<usize>,
}

fn plan_delta(
    rule: &Rule,
    dpos: usize,
    idbs: &HashSet<PredId>,
    slots: &mut SlotInterner,
) -> DeltaPlan {
    let mut bound_vars: HashSet<VarSym> = HashSet::new();
    for term in &rule.body[dpos].terms {
        if let Term::Var(v) = term {
            bound_vars.insert(*v);
        }
    }
    let mut rest = Vec::with_capacity(rule.body.len() - 1);
    let mut bound = Vec::with_capacity(rule.body.len() - 1);
    let mut slot = Vec::with_capacity(rule.body.len() - 1);
    for (pos, atom) in rule.body.iter().enumerate() {
        if pos == dpos {
            continue;
        }
        let mut pre_bound = Vec::new();
        for (p, term) in atom.terms.iter().enumerate() {
            match term {
                Term::Const(_) => pre_bound.push(p),
                Term::Var(v) => {
                    if bound_vars.contains(v) {
                        pre_bound.push(p);
                    }
                }
            }
        }
        for term in &atom.terms {
            if let Term::Var(v) = term {
                bound_vars.insert(*v);
            }
        }
        slot.push(slots.intern(atom.pred, &pre_bound, idbs.contains(&atom.pred)));
        bound.push(pre_bound);
        rest.push(pos);
    }
    DeltaPlan {
        dpos,
        rest,
        bound,
        slot,
    }
}

/// Interner mapping `(predicate, bound positions)` to an index slot shared
/// across all rules probing the same relation the same way.
#[derive(Default)]
struct SlotInterner {
    by_key: HashMap<(PredId, Vec<usize>), usize>,
    /// Per slot: predicate, bound positions, and whether it indexes IDB.
    specs: Vec<(PredId, Vec<usize>, bool)>,
}

impl SlotInterner {
    fn intern(&mut self, pred: PredId, positions: &[usize], is_idb: bool) -> usize {
        *self
            .by_key
            .entry((pred, positions.to_vec()))
            .or_insert_with(|| {
                self.specs.push((pred, positions.to_vec(), is_idb));
                self.specs.len() - 1
            })
    }
}

/// The hash join indices of one grounding run: one index per interned
/// `(predicate, bound positions)` slot. EDB slots are filled once from the
/// database; IDB slots grow after every semi-naive round.
struct JoinIndices {
    /// Per slot: projection key → matching facts (IDB fact indices or EDB
    /// fact ids, ascending — insertion order).
    maps: Vec<FxHashMap<Vec<ConstId>, Vec<usize>>>,
    /// Per slot: the projected positions (copied out of the interner).
    positions: Vec<Vec<usize>>,
    /// IDB slot numbers grouped by predicate, so extending with a new fact
    /// touches only its own predicate's slots.
    idb_slots_by_pred: FxHashMap<PredId, Vec<usize>>,
    /// Number of `idb_facts` already folded into the IDB slots.
    idb_upto: usize,
}

impl JoinIndices {
    fn build(slots: &SlotInterner, db: &Database) -> Self {
        let mut maps = Vec::with_capacity(slots.specs.len());
        let mut positions = Vec::with_capacity(slots.specs.len());
        let mut idb_slots_by_pred: FxHashMap<PredId, Vec<usize>> = FxHashMap::default();
        for (slot, (pred, pos, idb)) in slots.specs.iter().enumerate() {
            let mut map: FxHashMap<Vec<ConstId>, Vec<usize>> = FxHashMap::default();
            if *idb {
                idb_slots_by_pred.entry(*pred).or_default().push(slot);
            } else {
                for &fid in db.facts_of(*pred) {
                    let tuple = db.fact(fid).1;
                    if pos.iter().all(|&p| p < tuple.len()) {
                        let key: Vec<ConstId> = pos.iter().map(|&p| tuple[p]).collect();
                        map.entry(key).or_default().push(fid as usize);
                    }
                }
            }
            maps.push(map);
            positions.push(pos.clone());
        }
        JoinIndices {
            maps,
            positions,
            idb_slots_by_pred,
            idb_upto: 0,
        }
    }

    /// Fold the facts appended since the last call into the IDB slots of
    /// their predicate.
    fn extend_idb(&mut self, gp: &GroundedProgram) {
        for i in self.idb_upto..gp.idb_facts.len() {
            let (pred, tuple) = &gp.idb_facts[i];
            let Some(slots) = self.idb_slots_by_pred.get(pred) else {
                continue;
            };
            for &slot in slots {
                if self.positions[slot].iter().all(|&p| p < tuple.len()) {
                    let key: Vec<ConstId> =
                        self.positions[slot].iter().map(|&p| tuple[p]).collect();
                    self.maps[slot].entry(key).or_default().push(i);
                }
            }
        }
        self.idb_upto = gp.idb_facts.len();
    }
}

/// Ground `program` against `db`. Fails if the grounding would exceed
/// `max_rules` grounded rules (pass `usize::MAX` for no limit).
pub fn ground_with_limit(
    program: &Program,
    db: &Database,
    max_rules: usize,
) -> Result<GroundedProgram, Error> {
    par_ground_with_limit(program, db, max_rules, 1)
}

/// [`ground_with_limit`] with the join work sharded across `threads`
/// scoped threads.
///
/// Phase-1 delta joins split each round's frontier fact range into
/// contiguous steal-granularity chunks probed concurrently against the
/// (read-only, shared) per-predicate hash indices; phase 2 shards each
/// rule's join by its outer-loop candidate range, so even a single giant
/// rule parallelizes. Uneven tasks are load-balanced by work stealing
/// (`crate::par`), which only changes which worker executes a task, never
/// the task order. Both phases concatenate task outputs in
/// frontier/rule-major order, so the resulting [`GroundedProgram`] — fact
/// order, `FactId`s, grounded-rule order — is **bit-identical** to the
/// sequential run whatever the thread count. `threads <= 1` spawns
/// nothing and is the exact sequential code path.
pub fn par_ground_with_limit(
    program: &Program,
    db: &Database,
    max_rules: usize,
    threads: usize,
) -> Result<GroundedProgram, Error> {
    par_ground_with_limit_recorded(program, db, max_rules, threads, &NOOP)
}

/// [`par_ground_with_limit`] reporting into a telemetry [`Recorder`]:
/// phase spans ([`Stage::GroundPhase1`] / [`Stage::GroundPhase2`]), one
/// [`RoundStats`] per semi-naive round (frontier size, facts discovered,
/// index probes, next-frontier worklist), the [`Counter::IndexProbes`] /
/// [`Counter::FactsDiscovered`] / [`Counter::GroundMergeNanos`] totals,
/// and — at `threads > 1` — per-worker shard stats. With a disabled
/// recorder (the default [`NOOP`]) no clock is read and no probe is
/// counted: the join loops pay one predictable never-taken branch and the
/// result is bit-identical either way.
pub fn par_ground_with_limit_recorded(
    program: &Program,
    db: &Database,
    max_rules: usize,
    threads: usize,
    rec: &dyn Recorder,
) -> Result<GroundedProgram, Error> {
    let enabled = rec.enabled();
    let mut g = Grounder::new(program, db, enabled)?;

    // Phase 1: derivable IDB facts (semi-naive Boolean fixpoint). Round 0
    // fires every rule against the empty IDB relation (only all-EDB bodies
    // can match); round r > 0 re-fires a rule once per IDB body position,
    // constrained to take a fact from round r-1's delta frontier there.
    // Work items run on up to `threads` threads; outputs are concatenated
    // in item order, which equals the sequential enumeration order.
    let mut gp = GroundedProgram::default();
    let mut delta_start = 0usize;
    let mut first_round = true;
    let mut round = 0u64;
    let phase1_start = enabled.then(std::time::Instant::now);
    loop {
        // Per work item: the facts it found plus its index-probe count.
        type Found = (Vec<(PredId, Vec<ConstId>)>, u64);
        let produced = |o: &Found| o.0.len() as u64;
        let frontier = if first_round {
            0
        } else {
            gp.idb_facts.len() - delta_start
        };
        let outs: Vec<Found> = if first_round {
            // Round 0: one work item per rule, full (delta-free) join.
            crate::par::run_indexed_recorded(
                program.rules.len(),
                threads,
                rec,
                Stage::GroundPhase1,
                produced,
                |ri| {
                    let mut found: Vec<(PredId, Vec<ConstId>)> = Vec::new();
                    let mut probes = 0;
                    if !g.plans[ri].dead {
                        let head_atom = &program.rules[ri].head;
                        let m = g.matcher(ri, &gp);
                        m.enumerate(&mut |bindings, _| {
                            let head = instantiate(head_atom, bindings, &g.const_map)
                                .expect("head vars bound by safety; dead rules skipped");
                            if gp.fact(head_atom.pred, &head).is_none() {
                                found.push((head_atom.pred, head));
                            }
                            ControlFlow::Continue(())
                        });
                        probes = m.probes.get();
                    }
                    (found, probes)
                },
            )
        } else {
            // Round r > 0: one work item per (rule, delta position,
            // frontier sub-range), in that lexicographic order. Ranges
            // are steal-granularity chunks (more chunks than workers), so
            // a skewed frontier no longer serializes the round.
            let ranges = crate::par::chunk_bounds(frontier, threads);
            let mut tasks: Vec<(usize, usize, usize, usize)> = Vec::new();
            for (ri, dps) in g.delta_plans.iter().enumerate() {
                for di in 0..dps.len() {
                    for &(lo, hi) in &ranges {
                        tasks.push((ri, di, delta_start + lo, delta_start + hi));
                    }
                }
            }
            crate::par::run_indexed_recorded(
                tasks.len(),
                threads,
                rec,
                Stage::GroundPhase1,
                produced,
                |t| {
                    let (ri, di, lo, hi) = tasks[t];
                    let mut found: Vec<(PredId, Vec<ConstId>)> = Vec::new();
                    let head_atom = &program.rules[ri].head;
                    let m = g.matcher(ri, &gp);
                    m.enumerate_delta(
                        &g.delta_plans[ri][di],
                        delta_start,
                        lo,
                        hi,
                        &mut |bindings, _| {
                            let head = instantiate(head_atom, bindings, &g.const_map)
                                .expect("head vars bound by safety; dead rules skipped");
                            if gp.fact(head_atom.pred, &head).is_none() {
                                found.push((head_atom.pred, head));
                            }
                            ControlFlow::Continue(())
                        },
                    );
                    (found, m.probes.get())
                },
            )
        };
        let round_probes: u64 = outs.iter().map(|(_, p)| *p).sum();
        let new_facts = outs.into_iter().flat_map(|(f, _)| f);
        delta_start = gp.idb_facts.len();
        let merge_start = enabled.then(std::time::Instant::now);
        let mut changed = false;
        for (pred, tuple) in new_facts {
            changed |= gp.push_fact(pred, tuple).is_some();
        }
        if changed {
            g.extend_indices(&gp);
        }
        if let Some(t) = merge_start {
            rec.counter(Counter::GroundMergeNanos, t.elapsed().as_nanos() as u64);
        }
        if enabled {
            let delta = (gp.idb_facts.len() - delta_start) as u64;
            rec.counter(Counter::IndexProbes, round_probes);
            rec.counter(Counter::FactsDiscovered, delta);
            rec.round(
                Stage::GroundPhase1,
                RoundStats {
                    round,
                    frontier: frontier as u64,
                    delta,
                    probes: round_probes,
                    firings: 0,
                    worklist: delta,
                },
            );
        }
        round += 1;
        if !changed {
            break;
        }
        first_round = false;
    }
    if let Some(t) = phase1_start {
        rec.stage_nanos(Stage::GroundPhase1, t.elapsed().as_nanos() as u64);
    }

    // Phase 2: enumerate all groundings against the completed fact set,
    // through the same indices (no delta constraint). At `threads <= 1`
    // one work item per rule runs the exact sequential enumeration; with
    // more threads each live rule's join is split by its *outer-loop
    // candidate range* into steal-granularity sub-ranges, so one giant
    // rule no longer serializes the phase. Task order is rule-major with
    // ranges ascending, so concatenating the outputs reproduces the
    // sequential grounded-rule order either way. A shared counter of
    // emitted rules short-circuits *all* tasks as soon as the cap is hit,
    // so a tight `max_rules` still cuts the enumeration off early instead
    // of paying for (and buffering) the full join before erroring.
    let emitted = std::sync::atomic::AtomicUsize::new(0);
    let limited = max_rules != usize::MAX;
    let phase2_start = enabled.then(std::time::Instant::now);
    type RuleOut = (CompactRules, bool, u64);
    let run_rule = |rule_index: usize, range: Option<(usize, usize)>| -> RuleOut {
        let plan = &g.plans[rule_index];
        if plan.dead {
            return (CompactRules::new(), false, 0);
        }
        if limited && emitted.load(std::sync::atomic::Ordering::Relaxed) > max_rules {
            // Another task already blew the cap; skip this one.
            return (CompactRules::new(), true, 0);
        }
        let rule = &program.rules[rule_index];
        let mut out = CompactRules::new();
        let mut overflow = false;
        let mut ground_rule = |bindings: &Bindings, matches: &[BodyMatch]| {
            if limited && emitted.fetch_add(1, std::sync::atomic::Ordering::Relaxed) >= max_rules {
                // Abort this task's whole join: the cap is blown
                // globally, so further enumeration is pure waste.
                overflow = true;
                return ControlFlow::Break(());
            }
            let head_tuple = instantiate(&rule.head, bindings, &g.const_map)
                .expect("head vars bound by safety; dead rules skipped");
            let head = gp
                .fact(rule.head.pred, &head_tuple)
                .expect("head derivable at fixpoint");
            out.push(rule_index, head, matches);
            ControlFlow::Continue(())
        };
        let m = g.matcher(rule_index, &gp);
        match range {
            None => m.enumerate(&mut ground_rule),
            Some((lo, hi)) => m.enumerate_outer_range(lo, hi, &mut ground_rule),
        }
        (out, overflow, m.probes.get())
    };
    let produced_rules = |o: &RuleOut| o.0.len() as u64;
    let per_task: Vec<RuleOut> = if threads <= 1 {
        crate::par::run_indexed_recorded(
            program.rules.len(),
            threads,
            rec,
            Stage::GroundPhase2,
            produced_rules,
            |ri| run_rule(ri, None),
        )
    } else {
        // Size each live rule's outer loop up front (the first atom's
        // probe key uses constants only, so no enumeration is needed) and
        // split it into steal-granularity chunks.
        let mut sizing_probes = 0u64;
        let mut tasks: Vec<(usize, usize, usize)> = Vec::new();
        for (rule_index, plan) in g.plans.iter().enumerate() {
            if plan.dead {
                continue;
            }
            let m = g.matcher(rule_index, &gp);
            let outer = m.outer_len();
            sizing_probes += m.probes.get();
            for (lo, hi) in crate::par::chunk_bounds(outer, threads) {
                tasks.push((rule_index, lo, hi));
            }
        }
        if enabled {
            rec.counter(Counter::IndexProbes, sizing_probes);
        }
        crate::par::run_indexed_recorded(
            tasks.len(),
            threads,
            rec,
            Stage::GroundPhase2,
            produced_rules,
            |t| {
                let (ri, lo, hi) = tasks[t];
                run_rule(ri, Some((lo, hi)))
            },
        )
    };
    if enabled {
        rec.counter(
            Counter::IndexProbes,
            per_task.iter().map(|(_, _, p)| *p).sum(),
        );
    }
    // Concatenate the per-task stores in task order: the sequential
    // grounded-rule order, whatever the thread count.
    for (out, overflow, _) in per_task {
        if overflow || gp.rules.len().saturating_add(out.len()) > max_rules {
            return Err(Error::GroundingLimit { max_rules });
        }
        gp.rules.append(&out);
    }
    gp.index_rules_from(0);
    if let Some(t) = phase2_start {
        rec.stage_nanos(Stage::GroundPhase2, t.elapsed().as_nanos() as u64);
    }
    Ok(gp)
}

/// Ground without a rule limit.
pub fn ground(program: &Program, db: &Database) -> Result<GroundedProgram, Error> {
    ground_with_limit(program, db, usize::MAX)
}

/// Ground without a rule limit, sharded across `threads` scoped threads
/// (see [`par_ground_with_limit`] for the determinism guarantee).
pub fn par_ground(
    program: &Program,
    db: &Database,
    threads: usize,
) -> Result<GroundedProgram, Error> {
    par_ground_with_limit(program, db, usize::MAX, threads)
}

/// Old/new boundary of one incremental delta pass: EDB fact ids
/// `>= edb_start` and IDB fact indices `>= idb_start` are "new".
struct PinBounds {
    edb_start: usize,
    idb_start: usize,
}

/// Extend a grounded program **in place** with the consequences of newly
/// inserted EDB facts (ids `>= edb_delta_start`) — the incremental
/// alternative to re-grounding from scratch.
///
/// `gp` must be the grounding of `program` against `db` *minus* the new
/// facts (tombstoned retractions are fine: they no longer join).
/// `old_domain` is the size of `db.consts` before the inserts; constants
/// interned at or after it are "fresh", which is how rules that were dead
/// under the old domain (a constant naming nothing) are detected and
/// revived with a full enumeration.
///
/// The pass mirrors the two grounding phases:
/// 1. **Delta discovery** — each rule is re-fired with one EDB body
///    position pinned to the new facts (earlier positions old-only, so
///    nothing is enumerated twice; see `Matcher::enumerate_pinned`),
///    seeding a semi-naive frontier fixpoint over the newly derivable IDB
///    facts, which are *appended* to `gp.idb_facts` — existing fact
///    indices never move.
/// 2. **Delta rule enumeration** — every grounding whose body uses at
///    least one new fact (inserted EDB or newly derived IDB) is
///    enumerated exactly once, at its first new body position, and
///    appended to `gp.rules`. Revived rules are enumerated in full (they
///    had zero groundings before).
///
/// The union of old and appended rules is exactly the full re-grounding
/// of the current database *plus* any rules whose body references a
/// fact left underivable by earlier retractions — those bodies evaluate
/// to `0`, so they are ⊕-neutral in every fixpoint (the "zombie"
/// invariant of [`retract_facts_from_grounding`]).
///
/// Runs sequentially (deltas are small by design; the full-ground path
/// stays the parallel one) and reports one [`Stage::DeltaGround`] span
/// plus [`Counter::FactsDiscovered`] / [`Counter::IndexProbes`] into
/// `rec`. Fails with [`Error::GroundingLimit`] when the extended program
/// would exceed `max_rules`; `gp` is left partially extended and must be
/// discarded by the caller (the `Engine` falls back to lazy
/// re-grounding).
pub fn extend_grounding(
    program: &Program,
    db: &Database,
    gp: &mut GroundedProgram,
    edb_delta_start: FactId,
    old_domain: usize,
    max_rules: usize,
    rec: &dyn Recorder,
) -> Result<(), Error> {
    let enabled = rec.enabled();
    let span_start = enabled.then(std::time::Instant::now);
    let mut g = Grounder::new(program, db, enabled)?;
    g.extend_indices(gp);

    // A rule is *revived* when it is live now but referenced a constant
    // absent from the pre-delta domain: it had zero groundings before, so
    // every grounding is new and it gets a full (delta-free) enumeration.
    let revived: Vec<bool> = program
        .rules
        .iter()
        .enumerate()
        .map(|(ri, rule)| {
            !g.plans[ri].dead
                && std::iter::once(&rule.head)
                    .chain(rule.body.iter())
                    .flat_map(|a| a.terms.iter())
                    .any(|t| {
                        matches!(t, Term::Const(c)
                            if matches!(g.const_map[*c as usize], Some(id) if (id as usize) >= old_domain))
                    })
        })
        .collect();

    let idb_delta_start = gp.idb_facts.len();
    let edb_start = edb_delta_start as usize;
    let bounds = PinBounds {
        edb_start,
        idb_start: idb_delta_start,
    };

    // Phase 1 (delta discovery): seed with the new EDB facts, then run
    // the usual semi-naive frontier rounds over the newly derived facts.
    let mut probes = 0u64;
    let mut found: Vec<(PredId, Vec<ConstId>)> = Vec::new();
    {
        let gpr: &GroundedProgram = gp;
        for (ri, rule) in program.rules.iter().enumerate() {
            if g.plans[ri].dead {
                continue;
            }
            let m = g.matcher(ri, gpr);
            let mut on = |bindings: &Bindings, _: &[BodyMatch]| {
                let head = instantiate(&rule.head, bindings, &g.const_map)
                    .expect("head vars bound by safety; dead rules skipped");
                if gpr.fact(rule.head.pred, &head).is_none() {
                    found.push((rule.head.pred, head));
                }
                ControlFlow::Continue(())
            };
            if revived[ri] {
                m.enumerate(&mut on);
            } else {
                for (pos, atom) in rule.body.iter().enumerate() {
                    if g.idbs.contains(&atom.pred) {
                        continue;
                    }
                    let has_new = db
                        .facts_of(atom.pred)
                        .last()
                        .is_some_and(|&f| (f as usize) >= edb_start);
                    if has_new {
                        m.enumerate_pinned(pos, &bounds, &mut on);
                    }
                }
            }
            probes += m.probes.get();
        }
    }
    let mut changed = false;
    for (pred, tuple) in found.drain(..) {
        changed |= gp.push_fact(pred, tuple).is_some();
    }
    if changed {
        g.extend_indices(gp);
    }
    let mut delta_start = idb_delta_start;
    while changed {
        let hi = gp.idb_facts.len();
        {
            let gpr: &GroundedProgram = gp;
            for (ri, dps) in g.delta_plans.iter().enumerate() {
                for dp in dps {
                    let rule = &program.rules[ri];
                    let m = g.matcher(ri, gpr);
                    m.enumerate_delta(dp, delta_start, delta_start, hi, &mut |bindings, _| {
                        let head = instantiate(&rule.head, bindings, &g.const_map)
                            .expect("head vars bound by safety; dead rules skipped");
                        if gpr.fact(rule.head.pred, &head).is_none() {
                            found.push((rule.head.pred, head));
                        }
                        ControlFlow::Continue(())
                    });
                    probes += m.probes.get();
                }
            }
        }
        delta_start = hi;
        changed = false;
        for (pred, tuple) in found.drain(..) {
            changed |= gp.push_fact(pred, tuple).is_some();
        }
        if changed {
            g.extend_indices(gp);
        }
    }

    // Phase 2 (delta rule enumeration): every grounding with ≥ 1 new
    // body fact, exactly once, appended in (rule, pinned position) order.
    let base_rules = gp.rules.len();
    let mut new_rules = CompactRules::new();
    let mut overflow = false;
    {
        let gpr: &GroundedProgram = gp;
        for (ri, rule) in program.rules.iter().enumerate() {
            if g.plans[ri].dead {
                continue;
            }
            let m = g.matcher(ri, gpr);
            let new_rules = &mut new_rules;
            let overflow = &mut overflow;
            let mut emit = |bindings: &Bindings, matches: &[BodyMatch]| {
                if base_rules + new_rules.len() >= max_rules {
                    *overflow = true;
                    return ControlFlow::Break(());
                }
                let head_tuple = instantiate(&rule.head, bindings, &g.const_map)
                    .expect("head vars bound by safety; dead rules skipped");
                let head = gpr
                    .fact(rule.head.pred, &head_tuple)
                    .expect("head derivable at delta fixpoint");
                new_rules.push(ri, head, matches);
                ControlFlow::Continue(())
            };
            if revived[ri] {
                m.enumerate(&mut emit);
            } else {
                for (pos, atom) in rule.body.iter().enumerate() {
                    let has_new = if g.idbs.contains(&atom.pred) {
                        gpr.facts_of(atom.pred)
                            .last()
                            .is_some_and(|&i| i >= idb_delta_start)
                    } else {
                        db.facts_of(atom.pred)
                            .last()
                            .is_some_and(|&f| (f as usize) >= edb_start)
                    };
                    if has_new {
                        m.enumerate_pinned(pos, &bounds, &mut emit);
                    }
                }
            }
            probes += m.probes.get();
            if *overflow {
                return Err(Error::GroundingLimit { max_rules });
            }
        }
    }
    gp.rules.append(&new_rules);
    gp.index_rules_from(base_rules);
    if enabled {
        rec.counter(Counter::IndexProbes, probes);
        rec.counter(
            Counter::FactsDiscovered,
            (gp.idb_facts.len() - idb_delta_start) as u64,
        );
    }
    if let Some(t) = span_start {
        rec.stage_nanos(Stage::DeltaGround, t.elapsed().as_nanos() as u64);
    }
    Ok(())
}

/// Remove — in place — every grounded rule whose EDB body references one
/// of the `retracted` fact ids, renumbering the survivors and rebuilding
/// `rules_by_head`. Returns the head fact indices of the removed rules,
/// deduplicated and ascending: the roots of the DRed cone that
/// [`incremental`-style value maintenance][r] must rederive.
///
/// Derivable facts are **not** removed, even when the retraction leaves
/// them underivable: deleting a fact index would renumber every index
/// after it (invalidating circuits, provenance variables, and cached
/// values wholesale — the very thing incremental maintenance avoids).
/// Instead an underivable fact stays as a *zombie*: it keeps its index,
/// rederivation drives its value to `0`, and any rule still referencing
/// it in a body contributes `0 ⊗ … = 0`, i.e. is ⊕-neutral in every
/// fixpoint on every semiring. Query results are therefore identical to
/// a from-scratch rebuild, which simply never derives the fact.
///
/// [r]: https://docs.rs/provcirc
pub fn retract_facts_from_grounding(gp: &mut GroundedProgram, retracted: &[FactId]) -> Vec<usize> {
    let dead: HashSet<FactId> = retracted.iter().copied().collect();
    let mut roots: Vec<usize> = Vec::new();
    gp.rules.retain(|r| {
        if r.body_edb.iter().any(|f| dead.contains(f)) {
            roots.push(r.head);
            false
        } else {
            true
        }
    });
    roots.sort_unstable();
    roots.dedup();
    gp.rules_by_head.clear();
    gp.index_rules_from(0);
    roots
}

/// Variable bindings of an in-progress body match. Rule bodies bind a
/// handful of variables, so a linear-scanned vector beats a hash map on
/// every operation, and binding is strictly stack-shaped (atoms bind on
/// descent, unbind on backtrack), so a checkpoint/truncate pair replaces
/// per-variable removal — no `newly_bound` allocation per matched atom.
#[derive(Default)]
struct Bindings(Vec<(VarSym, ConstId)>);

impl Bindings {
    #[inline]
    fn get(&self, v: VarSym) -> Option<ConstId> {
        self.0.iter().find(|&&(b, _)| b == v).map(|&(_, c)| c)
    }

    #[inline]
    fn push(&mut self, v: VarSym, c: ConstId) {
        self.0.push((v, c));
    }

    /// Checkpoint for a later [`truncate`](Bindings::truncate).
    #[inline]
    fn mark(&self) -> usize {
        self.0.len()
    }

    /// Drop every binding made since `mark` (bindings are stack-shaped).
    #[inline]
    fn truncate(&mut self, mark: usize) {
        self.0.truncate(mark);
    }
}

/// Callback invoked for every satisfying assignment of a rule body.
/// Returning [`ControlFlow::Break`] aborts the whole enumeration — how the
/// grounded-rule cap cuts a combinatorially exploding join off early
/// instead of enumerating it to completion with a no-op callback.
///
/// The enumeration methods are generic over the callback (monomorphized,
/// so the per-match invocation inlines) — with tens of millions of
/// matches per grounding run, a `dyn` indirection per match is
/// measurable.
trait OnMatch: FnMut(&Bindings, &[BodyMatch]) -> ControlFlow<()> {}
impl<F: FnMut(&Bindings, &[BodyMatch]) -> ControlFlow<()>> OnMatch for F {}

/// One rule's indexed join over EDB ∪ derivable-IDB.
struct Matcher<'a> {
    db: &'a Database,
    gp: &'a GroundedProgram,
    const_map: &'a [Option<ConstId>],
    rule: &'a Rule,
    plan: &'a RulePlan,
    idbs: &'a HashSet<PredId>,
    indices: &'a JoinIndices,
    /// Telemetry gate: when `false` (disabled recorder) the probe counter
    /// below is never touched — the hot join loop pays one predictable
    /// branch and nothing else.
    count_probes: bool,
    /// Index probes performed, counted per matcher (one matcher per work
    /// item, so the counter is thread-private by construction).
    probes: Cell<u64>,
}

impl Matcher<'_> {
    /// Count one hash-index probe (when telemetry is enabled).
    #[inline]
    fn probe(&self) {
        if self.count_probes {
            self.probes.set(self.probes.get() + 1);
        }
    }
    /// Enumerate all substitutions satisfying the rule's body in body
    /// order, invoking `on_match(bindings, per-atom matches)` — the full
    /// (delta-free) join used by round 0 and phase 2. Stops as soon as
    /// the callback breaks.
    fn enumerate(&self, on_match: &mut impl OnMatch) {
        let mut bindings = Bindings::default();
        let mut matches: Vec<BodyMatch> = Vec::with_capacity(self.rule.body.len());
        let mut key: Vec<ConstId> = Vec::new();
        let _ = self.recurse(0, &mut bindings, &mut matches, &mut key, on_match);
    }

    /// Size of the full join's outer loop: how many candidate facts the
    /// body's first atom matches. Position 0 is probed with a key built
    /// from constants only (no variable is bound before the first atom),
    /// so the count is known before any enumeration — phase 2 uses it to
    /// split one rule's join into
    /// [`enumerate_outer_range`](Matcher::enumerate_outer_range)
    /// sub-ranges so a single giant rule no longer serializes the phase.
    /// Empty bodies count as one virtual candidate.
    fn outer_len(&self) -> usize {
        if self.rule.body.is_empty() {
            return 1;
        }
        let atom = &self.rule.body[0];
        let key: Vec<ConstId> = self.plan.bound[0]
            .iter()
            .map(|&p| match &atom.terms[p] {
                Term::Const(c) => self.const_map[*c as usize].expect("dead rules are skipped"),
                Term::Var(_) => unreachable!("no variable is bound before the first atom"),
            })
            .collect();
        self.probe();
        self.indices.maps[self.plan.slot[0]]
            .get(key.as_slice())
            .map_or(0, |c| c.len())
    }

    /// [`enumerate`](Matcher::enumerate) restricted to outer-loop
    /// candidates `[lo, hi)` of the body's first atom. The candidate list
    /// is iterated in index order, so concatenating the outputs of
    /// consecutive ranges reproduces the full enumeration exactly — the
    /// phase-2 intra-rule sharding relies on this.
    fn enumerate_outer_range(&self, lo: usize, hi: usize, on_match: &mut impl OnMatch) {
        let mut bindings = Bindings::default();
        let mut matches: Vec<BodyMatch> = Vec::with_capacity(self.rule.body.len());
        if self.rule.body.is_empty() {
            if lo == 0 && hi > 0 {
                let _ = on_match(&bindings, &matches);
            }
            return;
        }
        let atom = &self.rule.body[0];
        let mut key: Vec<ConstId> = self.plan.bound[0]
            .iter()
            .map(|&p| match &atom.terms[p] {
                Term::Const(c) => self.const_map[*c as usize].expect("dead rules are skipped"),
                Term::Var(_) => unreachable!("no variable is bound before the first atom"),
            })
            .collect();
        self.probe();
        let Some(candidates) = self.indices.maps[self.plan.slot[0]].get(key.as_slice()) else {
            return;
        };
        let is_idb = self.idbs.contains(&atom.pred);
        for &c in &candidates[lo.min(candidates.len())..hi.min(candidates.len())] {
            let (tuple, matched) = if is_idb {
                (&self.gp.idb_facts[c].1[..], BodyMatch::Idb(c))
            } else {
                let fid = c as FactId;
                (self.db.fact(fid).1, BodyMatch::Edb(fid))
            };
            if let Some(mark) = self.bind_atom(atom, tuple, &mut bindings) {
                matches.push(matched);
                let flow = self.recurse(1, &mut bindings, &mut matches, &mut key, on_match);
                matches.pop();
                bindings.truncate(mark);
                if flow.is_break() {
                    return;
                }
            }
        }
    }

    /// Enumerate the substitutions whose IDB atom at `dp.dpos` takes a
    /// frontier fact with index in `[lo, hi)` — the semi-naive re-fire of
    /// one rule at one delta position, restricted to one frontier shard.
    ///
    /// The delta atom iterates its predicate's facts in ascending index
    /// order **outermost**, so the enumeration order is keyed by frontier
    /// fact first: concatenating the outputs of consecutive `[lo, hi)`
    /// shards reproduces the full-frontier enumeration exactly. IDB atoms
    /// at body positions *before* `dp.dpos` are restricted to pre-frontier
    /// facts (`< delta_start`), so a grounding with several frontier facts
    /// is enumerated exactly once — at its first frontier position; later
    /// positions stay unrestricted.
    fn enumerate_delta(
        &self,
        dp: &DeltaPlan,
        delta_start: usize,
        lo: usize,
        hi: usize,
        on_match: &mut impl OnMatch,
    ) {
        let atom = &self.rule.body[dp.dpos];
        let facts = self.gp.facts_of(atom.pred);
        let from = facts.partition_point(|&i| i < lo.max(delta_start));
        let mut bindings = Bindings::default();
        let mut matches: Vec<BodyMatch> = Vec::with_capacity(self.rule.body.len());
        let mut key: Vec<ConstId> = Vec::new();
        for &fi in &facts[from..] {
            if fi >= hi {
                break;
            }
            let tuple = &self.gp.idb_facts[fi].1;
            if let Some(mark) = self.bind_atom(atom, tuple, &mut bindings) {
                matches.push(BodyMatch::Idb(fi));
                let flow = self.recurse_rest(
                    dp,
                    0,
                    delta_start,
                    &mut bindings,
                    &mut matches,
                    &mut key,
                    on_match,
                );
                matches.pop();
                bindings.truncate(mark);
                if flow.is_break() {
                    return;
                }
            }
        }
    }

    /// Descend through the non-delta atoms of a [`DeltaPlan`] (original
    /// body order, delta atom excluded).
    #[allow(clippy::too_many_arguments)]
    fn recurse_rest(
        &self,
        dp: &DeltaPlan,
        k: usize,
        delta_start: usize,
        bindings: &mut Bindings,
        matches: &mut Vec<BodyMatch>,
        key: &mut Vec<ConstId>,
        on_match: &mut impl OnMatch,
    ) -> ControlFlow<()> {
        if k == dp.rest.len() {
            return on_match(bindings, matches);
        }
        let pos = dp.rest[k];
        let atom = &self.rule.body[pos];
        key.clear();
        key.extend(dp.bound[k].iter().map(|&p| match &atom.terms[p] {
            Term::Const(c) => self.const_map[*c as usize].expect("dead rules are skipped"),
            Term::Var(v) => bindings.get(*v).expect("pre-bound by plan"),
        }));
        self.probe();
        let Some(candidates) = self.indices.maps[dp.slot[k]].get(key.as_slice()) else {
            return ControlFlow::Continue(());
        };
        let is_idb = self.idbs.contains(&atom.pred);
        // Pre-frontier restriction for IDB atoms left of the delta
        // position (buckets are ascending: the pre-frontier facts are a
        // prefix found by binary search).
        let to = if is_idb && pos < dp.dpos {
            candidates.partition_point(|&i| i < delta_start)
        } else {
            candidates.len()
        };
        for &c in &candidates[..to] {
            let (tuple, matched) = if is_idb {
                (&self.gp.idb_facts[c].1[..], BodyMatch::Idb(c))
            } else {
                let fid = c as FactId;
                (self.db.fact(fid).1, BodyMatch::Edb(fid))
            };
            if let Some(mark) = self.bind_atom(atom, tuple, bindings) {
                matches.push(matched);
                let flow =
                    self.recurse_rest(dp, k + 1, delta_start, bindings, matches, key, on_match);
                matches.pop();
                bindings.truncate(mark);
                flow?;
            }
        }
        ControlFlow::Continue(())
    }

    /// Enumerate the substitutions whose IDB atom at `dp.dpos` takes a
    /// fact from `changed` (an ascending list of IDB fact indices) — the
    /// fused pipeline's re-fire pass, covering groundings whose body
    /// *values* changed without any body fact being newly discovered.
    ///
    /// Unlike [`enumerate_delta`](Matcher::enumerate_delta), earlier IDB
    /// positions are **not** restricted: a grounding with several changed
    /// facts is enumerated once per changed position. The duplicates are
    /// sound because the fused worklist only ⊕-accumulates (idempotent ⊕,
    /// which is the fused pipeline's precondition) — they cost work, not
    /// correctness, and the changed set is typically tiny.
    fn enumerate_changed(&self, dp: &DeltaPlan, changed: &[usize], on_match: &mut impl OnMatch) {
        let atom = &self.rule.body[dp.dpos];
        let mut bindings = Bindings::default();
        let mut matches: Vec<BodyMatch> = Vec::with_capacity(self.rule.body.len());
        let mut key: Vec<ConstId> = Vec::new();
        for &fi in changed {
            let (pred, tuple) = &self.gp.idb_facts[fi];
            if *pred != atom.pred {
                continue;
            }
            if let Some(mark) = self.bind_atom(atom, tuple, &mut bindings) {
                matches.push(BodyMatch::Idb(fi));
                // `usize::MAX` as the delta boundary disables the
                // pre-frontier restriction in `recurse_rest`: every
                // candidate index is `< usize::MAX`.
                let flow = self.recurse_rest(
                    dp,
                    0,
                    usize::MAX,
                    &mut bindings,
                    &mut matches,
                    &mut key,
                    on_match,
                );
                matches.pop();
                bindings.truncate(mark);
                if flow.is_break() {
                    return;
                }
            }
        }
    }

    /// Enumerate the substitutions whose body atom at position `pinned`
    /// takes a **new** fact while every atom at an earlier position takes
    /// an **old** one (later positions are unrestricted). Summing over all
    /// `pinned` positions covers every body with at least one new fact,
    /// each exactly once — at its *first* new position. This is the
    /// incremental analogue of the phase-1 delta decomposition,
    /// generalized so the pinned atom may be EDB (a freshly inserted
    /// fact, [`PinBounds::edb_start`]) as well as IDB (a fact first
    /// derived by the current delta pass, [`PinBounds::idb_start`]).
    fn enumerate_pinned(&self, pinned: usize, b: &PinBounds, on_match: &mut impl OnMatch) {
        let mut bindings = Bindings::default();
        let mut matches: Vec<BodyMatch> = Vec::with_capacity(self.rule.body.len());
        let mut key: Vec<ConstId> = Vec::new();
        let _ = self.recurse_pinned(
            0,
            pinned,
            b,
            &mut bindings,
            &mut matches,
            &mut key,
            on_match,
        );
    }

    /// Descend through the body in original order, slicing each index
    /// bucket by the old/new boundary of `b` (buckets are ascending, so
    /// the split is a binary search): old-only before the pinned
    /// position, new-only at it, unrestricted after it.
    #[allow(clippy::too_many_arguments)]
    fn recurse_pinned(
        &self,
        pos: usize,
        pinned: usize,
        b: &PinBounds,
        bindings: &mut Bindings,
        matches: &mut Vec<BodyMatch>,
        key: &mut Vec<ConstId>,
        on_match: &mut impl OnMatch,
    ) -> ControlFlow<()> {
        if pos == self.rule.body.len() {
            return on_match(bindings, matches);
        }
        let atom = &self.rule.body[pos];
        key.clear();
        key.extend(self.plan.bound[pos].iter().map(|&p| match &atom.terms[p] {
            Term::Const(c) => self.const_map[*c as usize].expect("dead rules are skipped"),
            Term::Var(v) => bindings.get(*v).expect("pre-bound by plan"),
        }));
        self.probe();
        let Some(candidates) = self.indices.maps[self.plan.slot[pos]].get(key.as_slice()) else {
            return ControlFlow::Continue(());
        };
        let is_idb = self.idbs.contains(&atom.pred);
        let start = if is_idb { b.idb_start } else { b.edb_start };
        let (from, to) = match pos.cmp(&pinned) {
            std::cmp::Ordering::Less => (0, candidates.partition_point(|&c| c < start)),
            std::cmp::Ordering::Equal => {
                (candidates.partition_point(|&c| c < start), candidates.len())
            }
            std::cmp::Ordering::Greater => (0, candidates.len()),
        };
        for &c in &candidates[from..to] {
            let (tuple, matched) = if is_idb {
                (&self.gp.idb_facts[c].1[..], BodyMatch::Idb(c))
            } else {
                let fid = c as FactId;
                (self.db.fact(fid).1, BodyMatch::Edb(fid))
            };
            if let Some(mark) = self.bind_atom(atom, tuple, bindings) {
                matches.push(matched);
                let flow =
                    self.recurse_pinned(pos + 1, pinned, b, bindings, matches, key, on_match);
                matches.pop();
                bindings.truncate(mark);
                flow?;
            }
        }
        ControlFlow::Continue(())
    }

    fn recurse(
        &self,
        pos: usize,
        bindings: &mut Bindings,
        matches: &mut Vec<BodyMatch>,
        key: &mut Vec<ConstId>,
        on_match: &mut impl OnMatch,
    ) -> ControlFlow<()> {
        if pos == self.rule.body.len() {
            return on_match(bindings, matches);
        }
        let atom = &self.rule.body[pos];
        // Probe key: current bindings projected onto the pre-bound
        // positions of this atom (constants resolved statically). The
        // scratch buffer is reused across the whole enumeration — the key
        // is dead once the index probe returns, so deeper levels may
        // clobber it freely.
        key.clear();
        key.extend(self.plan.bound[pos].iter().map(|&p| match &atom.terms[p] {
            Term::Const(c) => self.const_map[*c as usize].expect("dead rules are skipped"),
            Term::Var(v) => bindings.get(*v).expect("pre-bound by plan"),
        }));
        self.probe();
        let Some(candidates) = self.indices.maps[self.plan.slot[pos]].get(key.as_slice()) else {
            return ControlFlow::Continue(());
        };
        let is_idb = self.idbs.contains(&atom.pred);
        for &c in candidates {
            let (tuple, matched) = if is_idb {
                (&self.gp.idb_facts[c].1[..], BodyMatch::Idb(c))
            } else {
                let fid = c as FactId;
                (self.db.fact(fid).1, BodyMatch::Edb(fid))
            };
            if let Some(mark) = self.bind_atom(atom, tuple, bindings) {
                matches.push(matched);
                let flow = self.recurse(pos + 1, bindings, matches, key, on_match);
                matches.pop();
                bindings.truncate(mark);
                flow?;
            }
        }
        ControlFlow::Continue(())
    }

    /// Check the residual positions the index could not pre-filter (fresh
    /// variables, within-atom repeats) and bind the fresh variables. On
    /// success returns the checkpoint to [`Bindings::truncate`] to after
    /// the caller's recursion; on a mismatch rolls back and returns
    /// `None`.
    fn bind_atom(&self, atom: &Atom, tuple: &[ConstId], bindings: &mut Bindings) -> Option<usize> {
        if tuple.len() != atom.terms.len() {
            return None;
        }
        let mark = bindings.mark();
        for (term, &value) in atom.terms.iter().zip(tuple) {
            let ok = match term {
                Term::Const(c) => self.const_map[*c as usize] == Some(value),
                Term::Var(v) => match bindings.get(*v) {
                    Some(bound) => bound == value,
                    None => {
                        bindings.push(*v, value);
                        true
                    }
                },
            };
            if !ok {
                bindings.truncate(mark);
                return None;
            }
        }
        Some(mark)
    }
}

fn instantiate(
    atom: &Atom,
    bindings: &Bindings,
    const_map: &[Option<ConstId>],
) -> Option<Vec<ConstId>> {
    atom.terms
        .iter()
        .map(|t| match t {
            Term::Var(v) => bindings.get(*v),
            Term::Const(c) => const_map[*c as usize],
        })
        .collect()
}

/// [`instantiate`] into a reused buffer — the fused pipeline instantiates
/// one head per streamed grounding (millions per run), so the per-call
/// allocation is hoisted out; consumers copy the slice only when the head
/// turns out to be a brand-new fact.
fn instantiate_into(
    atom: &Atom,
    bindings: &Bindings,
    const_map: &[Option<ConstId>],
    out: &mut Vec<ConstId>,
) {
    out.clear();
    out.extend(atom.terms.iter().map(|t| match t {
        Term::Var(v) => bindings.get(*v).expect("head vars bound by safety"),
        Term::Const(c) => const_map[*c as usize].expect("dead rules are skipped"),
    }));
}

/// One streamed grounding handed to the fused ⊕-worklist: the callback
/// receives `(head predicate, head tuple, body matches)` and the
/// grounding is never stored. The head tuple is borrowed from a
/// buffer the grounder reuses across calls — the sink copies it only if
/// the head is a fact it has not seen before.
pub(crate) trait FusedSink: FnMut(PredId, &[ConstId], &[BodyMatch]) {}
impl<F: FnMut(PredId, &[ConstId], &[BodyMatch])> FusedSink for F {}

/// The planning artifacts every grounding pass joins through — rule
/// plans, hoisted delta plans, shared hash join indices — built once per
/// pass by [`par_ground_with_limit_recorded`], [`extend_grounding`] and
/// the fused pipeline. The round drivers below let `fused::fused_eval`
/// run discovery itself and consume each grounding as it is enumerated,
/// instead of receiving a materialized [`GroundedProgram::rules`] store.
///
/// Enumeration order is the contract: [`round0`](Grounder::round0)
/// replays phase 1's round-0 task order (one full join per rule, rule
/// order) and [`delta_round`](Grounder::delta_round) replays the
/// `(rule, delta position)` task order over the full frontier — so a
/// consumer that appends newly derived head facts in first-discovery
/// order reproduces [`par_ground_with_limit`]'s fact interning order
/// **bit-identically**. Everything downstream that indexes by fact
/// position (values, snapshots, oracle tests) relies on that.
pub(crate) struct Grounder<'p> {
    program: &'p Program,
    db: &'p Database,
    idbs: HashSet<PredId>,
    const_map: Vec<Option<ConstId>>,
    plans: Vec<RulePlan>,
    delta_plans: Vec<Vec<DeltaPlan>>,
    indices: JoinIndices,
    count_probes: bool,
}

impl<'p> Grounder<'p> {
    /// Validate the program and build the join plans and EDB-side indices.
    pub(crate) fn new(
        program: &'p Program,
        db: &'p Database,
        count_probes: bool,
    ) -> Result<Self, Error> {
        program.validate()?;
        let idbs = program.idbs();
        // Resolve program constants into the database's domain; a rule
        // whose constant is outside the active domain can never fire.
        let const_map: Vec<Option<ConstId>> = (0..program.consts.len() as u32)
            .map(|c| db.consts.get(program.consts.name(c)))
            .collect();
        let mut slots = SlotInterner::default();
        let plans: Vec<RulePlan> = program
            .rules
            .iter()
            .map(|r| plan_rule(r, &idbs, &const_map, &mut slots))
            .collect();
        // One delta plan per (live rule, IDB body position): the
        // semi-naive re-fire obligations, planned with the delta atom
        // hoisted.
        let delta_plans: Vec<Vec<DeltaPlan>> = program
            .rules
            .iter()
            .enumerate()
            .map(|(ri, rule)| {
                if plans[ri].dead {
                    return Vec::new();
                }
                plans[ri]
                    .idb_positions
                    .iter()
                    .map(|&dpos| plan_delta(rule, dpos, &idbs, &mut slots))
                    .collect()
            })
            .collect();
        let indices = JoinIndices::build(&slots, db);
        Ok(Grounder {
            program,
            db,
            idbs,
            const_map,
            plans,
            delta_plans,
            indices,
            count_probes,
        })
    }

    fn matcher<'m>(&'m self, ri: usize, gp: &'m GroundedProgram) -> Matcher<'m> {
        Matcher {
            db: self.db,
            gp,
            const_map: &self.const_map,
            rule: &self.program.rules[ri],
            plan: &self.plans[ri],
            idbs: &self.idbs,
            indices: &self.indices,
            count_probes: self.count_probes,
            probes: Cell::new(0),
        }
    }

    /// Round 0 of discovery: the full (delta-free) join of every rule
    /// against the empty IDB relation, in rule order — only all-EDB
    /// bodies can match. Returns the index probes performed.
    pub(crate) fn round0(&self, gp: &GroundedProgram, sink: &mut impl FusedSink) -> u64 {
        let mut probes = 0;
        let mut head = Vec::new();
        for (ri, plan) in self.plans.iter().enumerate() {
            if plan.dead {
                continue;
            }
            let head_atom = &self.program.rules[ri].head;
            let m = self.matcher(ri, gp);
            m.enumerate(&mut |bindings, matches| {
                instantiate_into(head_atom, bindings, &self.const_map, &mut head);
                sink(head_atom.pred, &head, matches);
                ControlFlow::Continue(())
            });
            probes += m.probes.get();
        }
        probes
    }

    /// Discovery round `r > 0`: enumerate every grounding whose **newest**
    /// body fact lies in the frontier `[delta_start, gp.idb_facts.len())`,
    /// in phase 1's `(rule, delta position)` task order — each such
    /// grounding exactly once, at its first frontier position. Returns
    /// the index probes performed.
    pub(crate) fn delta_round(
        &self,
        gp: &GroundedProgram,
        delta_start: usize,
        sink: &mut impl FusedSink,
    ) -> u64 {
        let hi = gp.idb_facts.len();
        let mut probes = 0;
        let mut head = Vec::new();
        for (ri, dps) in self.delta_plans.iter().enumerate() {
            let head_atom = &self.program.rules[ri].head;
            for dp in dps {
                let m = self.matcher(ri, gp);
                m.enumerate_delta(
                    dp,
                    delta_start,
                    delta_start,
                    hi,
                    &mut |bindings, matches| {
                        instantiate_into(head_atom, bindings, &self.const_map, &mut head);
                        sink(head_atom.pred, &head, matches);
                        ControlFlow::Continue(())
                    },
                );
                probes += m.probes.get();
            }
        }
        probes
    }

    /// Re-fire pass: enumerate the groundings with a body fact in
    /// `changed` (ascending IDB fact indices whose *value* changed last
    /// round without being newly discovered). May enumerate a grounding
    /// more than once (see [`Matcher::enumerate_changed`]); never
    /// enumerates a grounding whose head fact does not already exist by
    /// the time the pass runs. Returns the index probes performed.
    pub(crate) fn refire_round(
        &self,
        gp: &GroundedProgram,
        changed: &[usize],
        sink: &mut impl FusedSink,
    ) -> u64 {
        let mut probes = 0;
        let mut head = Vec::new();
        for (ri, dps) in self.delta_plans.iter().enumerate() {
            let head_atom = &self.program.rules[ri].head;
            for dp in dps {
                let m = self.matcher(ri, gp);
                m.enumerate_changed(dp, changed, &mut |bindings, matches| {
                    instantiate_into(head_atom, bindings, &self.const_map, &mut head);
                    sink(head_atom.pred, &head, matches);
                    ControlFlow::Continue(())
                });
                probes += m.probes.get();
            }
        }
        probes
    }

    /// Fold the facts appended since the last call into the IDB join
    /// indices — the fused driver calls this once per round, after
    /// appending the round's discoveries.
    pub(crate) fn extend_indices(&mut self, gp: &GroundedProgram) {
        self.indices.extend_idb(gp);
    }

    /// Parallel [`round0`](Grounder::round0): one task per rule,
    /// each buffering its groundings into a [`FusedBatch`] instead of
    /// sinking them live. Batches come back in rule order, so draining
    /// them in order replays the sequential enumeration exactly. Returns
    /// the batches and the index probes performed.
    pub(crate) fn round0_par(
        &self,
        gp: &GroundedProgram,
        threads: usize,
        rec: &dyn Recorder,
    ) -> (Vec<FusedBatch>, u64) {
        let produced = |o: &(FusedBatch, u64)| o.0.len() as u64;
        let outs = crate::par::run_indexed_recorded(
            self.plans.len(),
            threads,
            rec,
            Stage::FusedEval,
            produced,
            |ri| {
                let mut batch = FusedBatch::default();
                let mut probes = 0;
                if !self.plans[ri].dead {
                    let head_atom = &self.program.rules[ri].head;
                    let m = self.matcher(ri, gp);
                    let mut head = Vec::new();
                    m.enumerate(&mut |bindings, matches| {
                        instantiate_into(head_atom, bindings, &self.const_map, &mut head);
                        batch.push(ri, &head, matches);
                        ControlFlow::Continue(())
                    });
                    probes = m.probes.get();
                }
                (batch, probes)
            },
        );
        let probes = outs.iter().map(|(_, p)| *p).sum();
        (outs.into_iter().map(|(b, _)| b).collect(), probes)
    }

    /// Parallel [`delta_round`](Grounder::delta_round): the frontier
    /// is sharded exactly as phase 1 shards it — one task per `(rule,
    /// delta position, frontier sub-range)` in lexicographic order — and
    /// each task buffers its groundings instead of sinking them live.
    /// Concatenating the batches in task order reproduces the sequential
    /// enumeration bit-identically: the delta atom iterates the frontier
    /// outermost (see [`Matcher::enumerate_delta`]), so consecutive
    /// shards of `[delta_start, len)` concatenate to the full-frontier
    /// enumeration. Returns the batches and the index probes performed.
    pub(crate) fn delta_round_par(
        &self,
        gp: &GroundedProgram,
        delta_start: usize,
        threads: usize,
        rec: &dyn Recorder,
    ) -> (Vec<FusedBatch>, u64) {
        let hi = gp.idb_facts.len();
        // Steal-granularity chunks: oversplit the frontier so a worker
        // that finishes its share early can steal a straggler's chunks.
        let ranges = crate::par::chunk_bounds(hi - delta_start, threads);
        let mut tasks: Vec<(usize, usize, usize, usize)> = Vec::new();
        for (ri, dps) in self.delta_plans.iter().enumerate() {
            for di in 0..dps.len() {
                for &(lo, hi_s) in &ranges {
                    tasks.push((ri, di, delta_start + lo, delta_start + hi_s));
                }
            }
        }
        let produced = |o: &(FusedBatch, u64)| o.0.len() as u64;
        let outs = crate::par::run_indexed_recorded(
            tasks.len(),
            threads,
            rec,
            Stage::FusedEval,
            produced,
            |t| {
                let (ri, di, lo, hi_t) = tasks[t];
                let mut batch = FusedBatch::default();
                let head_atom = &self.program.rules[ri].head;
                let m = self.matcher(ri, gp);
                let mut head = Vec::new();
                m.enumerate_delta(
                    &self.delta_plans[ri][di],
                    delta_start,
                    lo,
                    hi_t,
                    &mut |bindings, matches| {
                        instantiate_into(head_atom, bindings, &self.const_map, &mut head);
                        batch.push(ri, &head, matches);
                        ControlFlow::Continue(())
                    },
                );
                (batch, m.probes.get())
            },
        );
        let probes = outs.iter().map(|(_, p)| *p).sum();
        (outs.into_iter().map(|(b, _)| b).collect(), probes)
    }
}

/// One discovery round's groundings in flat buffers — what the parallel
/// fused discovery tasks hand back for the sequential ⊕-drain. Strides
/// are implicit: a grounding of rule `ri` contributes exactly
/// `head.terms.len()` constants to `heads` and `body.len()` matches to
/// `bodies`, so three flat vectors reconstruct the stream with no
/// per-grounding allocation or length bookkeeping. This is the parallel
/// fused path's only transient rule storage: it holds one round, not the
/// program's full grounding, and is dropped at the round boundary.
#[derive(Default)]
pub(crate) struct FusedBatch {
    /// Rule index per grounding, in enumeration order.
    pub(crate) rules: Vec<u32>,
    /// Head tuples, concatenated.
    pub(crate) heads: Vec<ConstId>,
    /// Body matches, concatenated.
    pub(crate) bodies: Vec<BodyMatch>,
}

impl FusedBatch {
    /// Number of buffered groundings.
    pub(crate) fn len(&self) -> usize {
        self.rules.len()
    }

    #[inline]
    fn push(&mut self, ri: usize, head: &[ConstId], matches: &[BodyMatch]) {
        self.rules.push(ri as u32);
        self.heads.extend_from_slice(head);
        self.bodies.extend_from_slice(matches);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use graphgen::generators;

    fn tc() -> Program {
        parse_program("T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), E(Z,Y).").unwrap()
    }

    #[test]
    fn tc_on_path_derives_all_ordered_pairs() {
        let mut p = tc();
        let g = generators::path(4, "E");
        let (db, _) = Database::from_graph(&mut p, &g);
        let gp = ground(&p, &db).unwrap();
        // 5 nodes: pairs (i,j) with i<j → 10 facts.
        assert_eq!(gp.num_idb_facts(), 10);
        let t = p.preds.get("T").unwrap();
        let c = |i: usize| db.node_const(i).unwrap();
        assert!(gp.fact(t, &[c(0), c(4)]).is_some());
        assert!(gp.fact(t, &[c(2), c(1)]).is_none());
    }

    #[test]
    fn grounded_rule_counts_on_path() {
        let mut p = tc();
        let g = generators::path(3, "E");
        let (db, _) = Database::from_graph(&mut p, &g);
        let gp = ground(&p, &db).unwrap();
        // Initialization: one per edge (3). Recursive T(x,z),E(z,y): for
        // each derivable T(x,z) and edge (z,y): T(0,1)E(1,2), T(0,1)..no..
        // count: pairs (T(i,j), edge (j,k)) with i<j<k? T facts: (0,1),(0,2),
        // (0,3),(1,2),(1,3),(2,3). Edges: (0,1),(1,2),(2,3).
        // Joins: T(i,j) with edge (j,j+1): (0,1)+(1,2); (0,2)+(2,3);
        // (1,2)+(2,3) → 3 groundings.
        let init = gp.rules.iter().filter(|r| r.rule_index == 0).count();
        let rec = gp.rules.iter().filter(|r| r.rule_index == 1).count();
        assert_eq!(init, 3);
        assert_eq!(rec, 3);
        // Every grounded rule's head is a derivable fact with that rule in
        // its head index.
        for (i, r) in gp.rules.iter().enumerate() {
            assert!(gp.rules_by_head[r.head].contains(&i));
        }
    }

    #[test]
    fn cycle_derives_all_pairs() {
        let mut p = tc();
        let g = generators::cycle(3, "E");
        let (db, _) = Database::from_graph(&mut p, &g);
        let gp = ground(&p, &db).unwrap();
        assert_eq!(gp.num_idb_facts(), 9); // all ordered pairs incl. self
    }

    #[test]
    fn constants_in_rules_bind() {
        let mut p = parse_program("R(Y) :- E(v0, Y).\nR(Y) :- R(Z), E(Z,Y).").unwrap();
        let g = generators::path(3, "E");
        let (db, _) = Database::from_graph(&mut p, &g);
        let gp = ground(&p, &db).unwrap();
        let r = p.preds.get("R").unwrap();
        // Reachable from v0 by ≥1 edges: v1, v2, v3.
        assert_eq!(gp.facts_of(r).len(), 3);
    }

    #[test]
    fn unknown_constants_never_fire() {
        let mut p = parse_program("R(Y) :- E(nosuch, Y).").unwrap();
        let g = generators::path(2, "E");
        let (db, _) = Database::from_graph(&mut p, &g);
        let gp = ground(&p, &db).unwrap();
        assert_eq!(gp.num_idb_facts(), 0);
    }

    #[test]
    fn unknown_constants_in_heads_never_fire() {
        // A head constant outside the active domain: the rule is dead (it
        // could only derive a fact outside the domain) instead of a panic.
        let mut p = parse_program("R(nosuch) :- E(X, Y).").unwrap();
        let g = generators::path(2, "E");
        let (db, _) = Database::from_graph(&mut p, &g);
        let gp = ground(&p, &db).unwrap();
        assert_eq!(gp.num_idb_facts(), 0);
        assert!(gp.rules.is_empty());
    }

    #[test]
    fn limit_is_enforced() {
        let mut p = tc();
        let g = generators::complete(6, "E");
        let (db, _) = Database::from_graph(&mut p, &g);
        assert!(ground_with_limit(&p, &db, 10).is_err());
        assert!(ground(&p, &db).is_ok());
    }

    #[test]
    fn monadic_program_grounds() {
        // Paper Example 2.1's second program: reachable-from-A.
        let mut p = parse_program("U(X) :- A(X).\nU(X) :- U(Y), E(X,Y).").unwrap();
        let g = generators::path(3, "E");
        let (mut db, _) = Database::from_graph(&mut p, &g);
        // A holds at v3; U(x) reaches backwards along edges (x,y) with U(y).
        let a = p.preds.get("A").unwrap();
        let v3 = db.node_const(3).unwrap();
        db.insert(a, vec![v3]);
        let gp = ground(&p, &db).unwrap();
        let u = p.preds.get("U").unwrap();
        assert_eq!(gp.facts_of(u).len(), 4); // v3, v2, v1, v0
    }

    #[test]
    fn facts_by_pred_index_is_coherent() {
        let mut p = tc();
        let g = generators::gnm(7, 18, &["E"], 3);
        let (db, _) = Database::from_graph(&mut p, &g);
        let gp = ground(&p, &db).unwrap();
        let t = p.preds.get("T").unwrap();
        // The per-predicate index is exactly the filter-scan it replaced.
        let scanned: Vec<usize> = gp
            .idb_facts
            .iter()
            .enumerate()
            .filter_map(|(i, (pred, _))| (*pred == t).then_some(i))
            .collect();
        assert_eq!(gp.facts_of(t), &scanned[..]);
        assert_eq!(gp.facts_of(t).len(), gp.num_idb_facts());
    }

    #[test]
    fn nonlinear_rules_ground_like_linear_tc() {
        // Nonlinear TC has two IDB body atoms: every semi-naive round
        // exercises the pre-frontier restriction at positions before the
        // delta position. Derivable facts must match linear TC exactly.
        let mut nl = parse_program("T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), T(Z,Y).").unwrap();
        let mut lin = tc();
        for seed in 0..4u64 {
            let g = generators::gnm(8, 18, &["E"], seed);
            let (db_nl, _) = Database::from_graph(&mut nl, &g);
            let gp_nl = ground(&nl, &db_nl).unwrap();
            let (db_lin, _) = Database::from_graph(&mut lin, &g);
            let gp_lin = ground(&lin, &db_lin).unwrap();
            assert_eq!(gp_nl.num_idb_facts(), gp_lin.num_idb_facts(), "seed={seed}");
            let t = lin.preds.get("T").unwrap();
            for (pred, tuple) in &gp_lin.idb_facts {
                if *pred == t {
                    let names: Vec<&str> = tuple.iter().map(|&c| db_lin.consts.name(c)).collect();
                    let mapped: Vec<ConstId> = names
                        .iter()
                        .map(|n| db_nl.consts.get(n).expect("shared domain"))
                        .collect();
                    let t_nl = nl.preds.get("T").unwrap();
                    assert!(
                        gp_nl.fact(t_nl, &mapped).is_some(),
                        "missing {names:?} seed={seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_grounding_is_bit_identical_to_sequential() {
        // Fact order (= FactId assignment), grounded-rule order, and every
        // index must match the sequential run for any thread count —
        // including programs whose recursive atom is not the first body
        // atom (delta position > 0 exercises the hoisted enumeration).
        let programs: Vec<Program> = vec![
            tc(),
            parse_program("T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), T(Z,Y).").unwrap(),
            parse_program("T(X,Y) :- E(X,Y).\nT(X,Y) :- A(X), T(Z,Y).").unwrap(),
            parse_program(
                "S(X,Y) :- L(X,Z), R(Z,Y).\n\
                 S(X,Y) :- L(X,W), S(W,Z), R(Z,Y).\n\
                 S(X,Y) :- S(X,Z), S(Z,Y).",
            )
            .unwrap(),
        ];
        for mut p in programs {
            for seed in 0..3u64 {
                let labels: Vec<&str> = if p.preds.get("L").is_some() {
                    vec!["L", "R"]
                } else {
                    vec!["E"]
                };
                let g = generators::gnm(8, 18, &labels, seed);
                let (mut db, _) = Database::from_graph(&mut p, &g);
                if let Some(a) = p.preds.get("A") {
                    let v0 = db.node_const(0).unwrap();
                    db.insert(a, vec![v0]);
                }
                let seq = ground(&p, &db).unwrap();
                for threads in [2usize, 4, 8] {
                    let par = par_ground(&p, &db, threads).unwrap();
                    assert_eq!(seq.idb_facts, par.idb_facts, "facts, threads={threads}");
                    assert_eq!(seq.rules, par.rules, "rules, threads={threads}");
                    assert_eq!(seq.fact_index, par.fact_index, "index, threads={threads}");
                    assert_eq!(
                        seq.rules_by_head, par.rules_by_head,
                        "by-head, threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_limit_is_enforced() {
        let mut p = tc();
        let g = generators::complete(6, "E");
        let (db, _) = Database::from_graph(&mut p, &g);
        assert!(par_ground_with_limit(&p, &db, 10, 4).is_err());
        assert!(par_ground(&p, &db, 4).is_ok());
    }

    #[test]
    fn seminaive_grounding_matches_reachability_on_random_graphs() {
        // The delta-frontier fixpoint must derive exactly the BFS-reachable
        // pairs (≥ 1 edge) on arbitrary graphs, cycles included.
        let mut p = tc();
        for seed in 0..5u64 {
            let g = generators::gnm(9, 22, &["E"], seed);
            let (db, _) = Database::from_graph(&mut p, &g);
            let gp = ground(&p, &db).unwrap();
            let t = p.preds.get("T").unwrap();
            let mut expected = 0usize;
            for u in 0..g.num_nodes() {
                let mut reach = vec![false; g.num_nodes()];
                for &(eu, ev, _) in g.edges() {
                    if eu as usize == u {
                        for (w, r) in g.reachable_from(ev).iter().enumerate() {
                            reach[w] |= r;
                        }
                        reach[ev as usize] = true;
                    }
                }
                for (v, reachable) in reach.iter().enumerate() {
                    if *reachable {
                        expected += 1;
                        let key = [db.node_const(u).unwrap(), db.node_const(v).unwrap()];
                        assert!(gp.fact(t, &key).is_some(), "missing T({u},{v}) seed={seed}");
                    }
                }
            }
            assert_eq!(gp.facts_of(t).len(), expected, "seed={seed}");
        }
    }

    /// Canonical, order-insensitive view of a grounded program: the fact
    /// set plus every grounded rule with head/body-IDB indices resolved to
    /// `(pred, tuple)` pairs (EDB fact ids are comparable directly when
    /// both databases inserted facts in the same order).
    #[allow(clippy::type_complexity)]
    fn canon(
        gp: &GroundedProgram,
    ) -> (
        Vec<(PredId, Vec<ConstId>)>,
        Vec<(
            usize,
            (PredId, Vec<ConstId>),
            Vec<(PredId, Vec<ConstId>)>,
            Vec<FactId>,
        )>,
    ) {
        let mut facts = gp.idb_facts.clone();
        facts.sort();
        let mut rules: Vec<_> = gp
            .rules
            .iter()
            .map(|r| {
                (
                    r.rule_index,
                    gp.idb_facts[r.head].clone(),
                    r.body_idb
                        .iter()
                        .map(|&i| gp.idb_facts[i as usize].clone())
                        .collect::<Vec<_>>(),
                    r.body_edb.to_vec(),
                )
            })
            .collect();
        rules.sort();
        (facts, rules)
    }

    #[test]
    fn extend_grounding_matches_rebuild_on_random_inserts() {
        // Ground a prefix of the edge set, insert the remaining edges, and
        // extend: facts and grounded rules must equal a from-scratch
        // grounding of the full database (fact ids align because both
        // databases intern constants and insert edges in the same order).
        let programs: Vec<Program> = vec![
            tc(),
            parse_program("T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), T(Z,Y).").unwrap(),
        ];
        for mut p in programs {
            for seed in 0..4u64 {
                let g = generators::gnm(8, 18, &["E"], seed);
                // Rebuild target: the full graph in one shot.
                let (db_full, _) = Database::from_graph(&mut p, &g);
                let e = p.preds.get("E").unwrap();
                let gp_full = ground(&p, &db_full).unwrap();
                for hold_back in [1usize, 3, 6] {
                    // Base: same constants, same edge order, last
                    // `hold_back` edges missing.
                    let mut db = Database::new();
                    for i in 0..g.num_nodes() {
                        db.constant(&format!("v{i}"));
                    }
                    let edges = g.edges();
                    let split = edges.len() - hold_back;
                    for &(u, v, _) in &edges[..split] {
                        db.insert(
                            e,
                            vec![
                                db.node_const(u as usize).unwrap(),
                                db.node_const(v as usize).unwrap(),
                            ],
                        );
                    }
                    let mut gp = ground(&p, &db).unwrap();
                    let edb_delta_start = db.num_facts() as FactId;
                    let old_domain = db.domain_size();
                    for &(u, v, _) in &edges[split..] {
                        db.insert(
                            e,
                            vec![
                                db.node_const(u as usize).unwrap(),
                                db.node_const(v as usize).unwrap(),
                            ],
                        );
                    }
                    extend_grounding(
                        &p,
                        &db,
                        &mut gp,
                        edb_delta_start,
                        old_domain,
                        usize::MAX,
                        &NOOP,
                    )
                    .unwrap();
                    assert_eq!(
                        canon(&gp),
                        canon(&gp_full),
                        "seed={seed} hold_back={hold_back}"
                    );
                    // Self-consistency of the maintained indices.
                    assert_eq!(gp.rules_by_head.len(), gp.idb_facts.len());
                    for (i, r) in gp.rules.iter().enumerate() {
                        assert!(gp.rules_by_head[r.head].contains(&i));
                    }
                    for (pred, by_tuple) in &gp.fact_index {
                        for (tuple, &i) in by_tuple {
                            assert_eq!(gp.idb_facts[i], (*pred, tuple.clone()));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn extend_grounding_revives_rules_on_new_constants() {
        // `hub` is outside the initial active domain, so both rules
        // mentioning it are dead at first grounding. Inserting A(hub) and
        // E(hub, v0) interns `hub`; the extension must revive the rules
        // and enumerate them in full.
        let mut p = parse_program("R(Y) :- A(hub), E(hub, Y).\nR(Y) :- R(Z), E(Z,Y).").unwrap();
        let g = generators::path(3, "E");
        let (mut db, _) = Database::from_graph(&mut p, &g);
        let e = p.preds.get("E").unwrap();
        let a = p.preds.get("A").unwrap();
        let mut gp = ground(&p, &db).unwrap();
        assert_eq!(gp.num_idb_facts(), 0);
        let edb_delta_start = db.num_facts() as FactId;
        let old_domain = db.domain_size();
        let hub = db.constant("hub");
        let v0 = db.node_const(0).unwrap();
        db.insert(a, vec![hub]);
        db.insert(e, vec![hub, v0]);
        extend_grounding(
            &p,
            &db,
            &mut gp,
            edb_delta_start,
            old_domain,
            usize::MAX,
            &NOOP,
        )
        .unwrap();
        let gp_full = ground(&p, &db).unwrap();
        assert_eq!(canon(&gp), canon(&gp_full));
        let r = p.preds.get("R").unwrap();
        // hub → v0 → v1 → v2 → v3.
        assert_eq!(gp.facts_of(r).len(), 4);
    }

    #[test]
    fn extend_grounding_enforces_the_rule_limit() {
        let mut p = tc();
        let g = generators::complete(6, "E");
        let e = p.preds.get("E").unwrap();
        let (db_full, _) = Database::from_graph(&mut p, &g);
        let mut db = Database::new();
        for i in 0..g.num_nodes() {
            db.constant(&format!("v{i}"));
        }
        let edges = g.edges();
        let split = edges.len() / 2;
        for &(u, v, _) in &edges[..split] {
            db.insert(
                e,
                vec![
                    db.node_const(u as usize).unwrap(),
                    db.node_const(v as usize).unwrap(),
                ],
            );
        }
        let mut gp = ground(&p, &db).unwrap();
        let edb_delta_start = db.num_facts() as FactId;
        let old_domain = db.domain_size();
        for &(u, v, _) in &edges[split..] {
            db.insert(
                e,
                vec![
                    db.node_const(u as usize).unwrap(),
                    db.node_const(v as usize).unwrap(),
                ],
            );
        }
        let full_rules = ground(&p, &db_full).unwrap().rules.len();
        let err = extend_grounding(
            &p,
            &db,
            &mut gp,
            edb_delta_start,
            old_domain,
            full_rules / 2,
            &NOOP,
        );
        assert!(matches!(err, Err(Error::GroundingLimit { .. })));
    }

    /// The stored rules as owned `(rule_index, head, body_idb, body_edb)`
    /// tuples, in store order.
    fn owned_rules(gp: &GroundedProgram) -> Vec<(usize, usize, Vec<u32>, Vec<FactId>)> {
        gp.rules
            .iter()
            .map(|r| {
                (
                    r.rule_index,
                    r.head,
                    r.body_idb.to_vec(),
                    r.body_edb.to_vec(),
                )
            })
            .collect()
    }

    /// `rules_by_head` must be exactly the inverse of the stored heads:
    /// one entry per fact, listing that fact's rules in ascending order.
    fn assert_head_index_matches_rules(gp: &GroundedProgram) {
        let mut expected = vec![Vec::new(); gp.idb_facts.len()];
        for (i, r) in gp.rules.iter().enumerate() {
            expected[r.head].push(i);
        }
        assert_eq!(gp.rules_by_head, expected);
    }

    #[test]
    fn retract_removes_exactly_the_rules_citing_the_fact() {
        let mut p = tc();
        let g = generators::path(3, "E");
        let (mut db, edge_facts) = Database::from_graph(&mut p, &g);
        let e = p.preds.get("E").unwrap();
        let mut gp = ground(&p, &db).unwrap();
        let before = gp.rules.len();
        let citing = gp
            .rules
            .iter()
            .filter(|r| r.body_edb.contains(&edge_facts[1]))
            .count();
        assert!(citing > 0);
        // Retract the middle edge from both the database and the grounding.
        let (pred, tuple) = db.fact(edge_facts[1]);
        let tuple = tuple.to_vec();
        assert_eq!(db.retract(pred, &tuple), Some(edge_facts[1]));
        let roots = retract_facts_from_grounding(&mut gp, &[edge_facts[1]]);
        assert_eq!(gp.rules.len(), before - citing);
        assert!(!roots.is_empty());
        assert!(gp
            .rules
            .iter()
            .all(|r| !r.body_edb.contains(&edge_facts[1])));
        // Index invariants: rules_by_head rebuilt, roots are valid facts.
        assert_head_index_matches_rules(&gp);
        for &root in &roots {
            assert!(root < gp.idb_facts.len());
        }
        // Zombie invariant: idb_facts are retained even when underivable.
        let t = p.preds.get("T").unwrap();
        assert_eq!(gp.facts_of(t).len(), 6);

        // Alternate in-place extensions and retractions on the same
        // grounding: after each step the CSR store must equal the plain
        // model of what the step does (append to / filter the previous
        // rule list), and `rules_by_head` must index exactly its heads.
        let extend = |db: &mut Database, gp: &mut GroundedProgram, (u, v): (usize, usize)| {
            let edb_delta_start = db.num_facts() as FactId;
            let old_domain = db.domain_size();
            let tuple = vec![db.node_const(u).unwrap(), db.node_const(v).unwrap()];
            db.insert(e, tuple);
            let before = owned_rules(gp);
            extend_grounding(&p, db, gp, edb_delta_start, old_domain, usize::MAX, &NOOP).unwrap();
            let after = owned_rules(gp);
            assert!(after.len() > before.len(), "edge ({u},{v}) adds rules");
            assert_eq!(after[..before.len()], before[..], "extension only appends");
            assert_head_index_matches_rules(gp);
        };
        let retract = |db: &mut Database, gp: &mut GroundedProgram, fact: FactId| {
            let (pred, tuple) = db.fact(fact);
            let tuple = tuple.to_vec();
            assert_eq!(db.retract(pred, &tuple), Some(fact));
            let mut expected = owned_rules(gp);
            expected.retain(|r| !r.3.contains(&fact));
            retract_facts_from_grounding(gp, &[fact]);
            assert_eq!(
                owned_rules(gp),
                expected,
                "retract removes only citing rules"
            );
            assert_head_index_matches_rules(gp);
        };
        extend(&mut db, &mut gp, (1, 2)); // re-insert the retracted edge
        retract(&mut db, &mut gp, edge_facts[0]);
        extend(&mut db, &mut gp, (3, 0));

        // Every fact and rule of a from-scratch grounding is present: the
        // maintained store is a superset, up to zombie rules.
        let full = ground(&p, &db).unwrap();
        let (facts, rules) = canon(&gp);
        let (full_facts, full_rules) = canon(&full);
        assert!(full_facts.iter().all(|f| facts.binary_search(f).is_ok()));
        assert!(full_rules.iter().all(|r| rules.binary_search(r).is_ok()));
    }
}
