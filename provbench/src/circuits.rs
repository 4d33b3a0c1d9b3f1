//! `circuits`: compile and evaluate a fixed seeded set of provenance
//! circuits on both sides of the paper's depth dichotomy.
//!
//! The set holds transitive closure (an infinite regular language,
//! Θ(log² m) depth) through product-graph squaring, product-graph
//! Bellman–Ford and Ullman–Van Gelder, and the finite 3-hop RPQ
//! (Θ(log m) depth) through the magic-set construction. Every goal is a
//! far, reachable pair, so no circuit collapses to a constant.
//!
//! A run's set is `PASSES` seeded groups of one circuit per construction.
//! Each pass compiles one group on fresh engines (compiled circuits are
//! cached per session) in a rotating order, then evaluates it; the exact
//! sizes are summed over the whole set.
//!
//! End to end, the heavy operation is compiling one group, the light one
//! evaluating it under one valuation, and the provenance size the live
//! gates of the whole set.

use circuit::Circuit;
use graphgen::LabeledDigraph;
use provcirc::{classify_program, Engine, Strategy};
use semiring::valuation::{AllOnes, FromEdgeWeights};
use semiring::{Bool, Tropical};

use crate::harness::{calib_ms, host_scale, median, median_per_call, per_call, timed, Ledger, Rng};
use crate::oracle::{dijkstra, exact_k_walk};
use crate::trace::Tracer;
use crate::{metric, Metric, RunOutput};

const TC: &str = "T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), E(Z,Y).";
const THREE_HOPS: &str = "P(X,Y) :- E(X,Z1), E(Z1,Z2), E(Z2,Y).";
/// Rotation passes; each compiles and evaluates the whole set once.
const PASSES: usize = 18;
/// Passes of the short probe a traced run of another workload makes.
const PROBE_PASSES: usize = 2;
/// Whole-set evaluations per pass (one is ~10–20 ms); the pass's sample is
/// their median.
const EVAL_REPS: usize = 6;
/// A group's set-up (a few ms) is timed as the median of `SETUP_BURSTS`
/// bursts of `SETUP_REPS` back-to-back set-ups.
const SETUP_BURSTS: usize = 6;
const SETUP_REPS: usize = 8;

/// One member of the circuit set.
struct Spec {
    program: &'static str,
    strategy: Strategy,
    nodes: usize,
    edges: usize,
    /// `Some(k)`: the goal is at hop distance exactly `k` (finite RPQ);
    /// `None`: the farthest reachable node (transitive closure).
    distance: Option<u64>,
}

const SET: [Spec; 4] = [
    Spec {
        program: TC,
        strategy: Strategy::ProductSquaring,
        nodes: 32,
        edges: 128,
        distance: None,
    },
    Spec {
        program: TC,
        strategy: Strategy::ProductBellmanFord,
        nodes: 200,
        edges: 800,
        distance: None,
    },
    Spec {
        program: TC,
        strategy: Strategy::UllmanVanGelder,
        nodes: 8,
        edges: 20,
        distance: None,
    },
    Spec {
        program: THREE_HOPS,
        strategy: Strategy::MagicFiniteRpq,
        nodes: 500,
        edges: 2000,
        distance: Some(3),
    },
];

/// One generated instance: graph, goal and seeded edge weights.
struct Instance {
    graph: LabeledDigraph,
    src: u32,
    dst: u32,
    weights: Vec<u64>,
}

fn instance(spec: &Spec, seed: u64) -> Instance {
    let graph = graphgen::generators::gnm(spec.nodes, spec.edges, &["E"], seed);
    let mut rng = Rng::new(seed ^ spec.nodes as u64);
    let (src, dst) = loop {
        let src = rng.below(spec.nodes) as u32;
        let dst = match spec.distance {
            Some(k) => bench::target_at_distance(&graph, src, k),
            None => bench::farthest_reachable(&graph, src),
        };
        if let Some(dst) = dst {
            break (src, dst);
        }
    };
    let weights = (0..graph.num_edges())
        .map(|_| 1 + rng.below(9) as u64)
        .collect();
    Instance {
        graph,
        src,
        dst,
        weights,
    }
}

fn engine(spec: &Spec, inst: &Instance) -> Engine {
    Engine::builder()
        .program_text(spec.program)
        .graph(&inst.graph)
        .parallelism(1)
        .build()
        .expect("engine builds")
}

fn setup(seed: u64) -> Vec<(Instance, Engine)> {
    SET.iter()
        .map(|spec| {
            let inst = instance(spec, seed);
            let e = engine(spec, &inst);
            (inst, e)
        })
        .collect()
}

/// The instance seed of pass `pass`'s group.
fn instance_seed(seed: u64, pass: usize) -> u64 {
    crate::bulk_tc::instance_seed(seed, pass)
}

fn strategy_name(s: Strategy) -> String {
    format!("{s:?}")
}

/// The oracle's tropical value of each member's goal.
fn oracle(instances: &[Instance]) -> Vec<Option<u64>> {
    SET.iter()
        .zip(instances)
        .map(|(spec, inst)| match spec.distance {
            Some(k) => {
                exact_k_walk(&inst.graph, &inst.weights, inst.src, k as usize)[inst.dst as usize]
            }
            None => dijkstra(&inst.graph, &inst.weights, inst.src)[inst.dst as usize],
        })
        .collect()
}

pub fn run(seed: u64, probe: bool, tracer: &Tracer, ledger: &mut Ledger) -> RunOutput {
    let trace = tracer.enabled();
    let passes = if probe { PROBE_PASSES } else { PASSES };
    // `setup_s` samples: one burst of set-ups (input generation and
    // engine builds) at the start of every pass.
    let mut setup_s = Vec::with_capacity(passes);
    let mut compile_s = Vec::new();
    let mut eval_ms = Vec::new();
    let mut calib = Vec::new();
    let (mut pass_traced, mut pass_plain) = (Vec::new(), Vec::new());
    let (mut gates, mut depth, mut arena) = (0usize, 0usize, 0usize);
    // Gates, compile seconds and one-evaluation seconds of traced groups.
    let (mut traced_gates, mut traced_compile, mut traced_eval) = (0usize, 0.0, 0.0);
    for pass in 0..passes {
        setup_s.push(median_per_call(SETUP_BURSTS, SETUP_REPS, || {
            setup(instance_seed(seed, pass))
        }));
        // Each pass compiles its own seeded group of the set.
        let instances: Vec<Instance> = SET
            .iter()
            .map(|spec| instance(spec, instance_seed(seed, pass)))
            .collect();
        let want = oracle(&instances);
        let traced = trace && pass % 2 == 1;
        tracer.set_enabled(traced);
        // Fresh engines: compiled circuits are cached per session.
        let engines: Vec<Engine> = SET
            .iter()
            .zip(&instances)
            .map(|(spec, inst)| engine(spec, inst))
            .collect();
        let mut circuits: Vec<Option<Circuit>> = vec![None; SET.len()];
        let mut pass_compile = 0.0;
        for k in 0..SET.len() {
            let i = (pass + k) % SET.len();
            let (spec, inst) = (&SET[i], &instances[i]);
            let name = format!("circuit.compile.{}", strategy_name(spec.strategy));
            let (s, compiled) = timed(|| {
                tracer.span("circuits.compile", i as u64, || {
                    tracer.span(&name, i as u64, || {
                        engines[i]
                            .node_query(inst.src, inst.dst)
                            .and_then(|q| q.circuit(spec.strategy))
                    })
                })
            });
            pass_compile += s;
            match compiled {
                Ok(c) => circuits[i] = Some(c.circuit.clone()),
                Err(e) => ledger.check(false, || format!("{name} failed: {e}")),
            }
        }
        compile_s.push(pass_compile);
        calib.push(calib_ms());

        let built: Vec<(&Circuit, FromEdgeWeights<Tropical>)> = circuits
            .iter()
            .zip(&engines)
            .zip(&instances)
            .filter_map(|((c, e), inst)| {
                let c = c.as_ref()?;
                let w =
                    FromEdgeWeights::from_fn(e.edge_facts(), |j| Tropical::new(inst.weights[j]));
                Some((c, w))
            })
            .collect();
        let (eval_wall, s) = timed(|| {
            tracer.span("circuits.eval", pass as u64, || {
                tracer.span("circuit.arena.eval", pass as u64, || {
                    median_per_call(EVAL_REPS, 1, || {
                        built
                            .iter()
                            .map(|(c, w)| c.eval(w))
                            .collect::<Vec<Tropical>>()
                    })
                })
            })
        });
        eval_ms.push(s * 1e3);
        calib.push(calib_ms());
        if traced {
            pass_traced.push(pass_compile + eval_wall);
            traced_compile += pass_compile;
            traced_eval += s;
        } else {
            pass_plain.push(pass_compile + eval_wall);
        }

        // Checks and exact sizes, off the timed path.
        for (i, c) in circuits.iter().enumerate() {
            let Some(c) = c else { continue };
            let st = circuit::stats(c);
            gates += st.num_gates;
            if traced {
                traced_gates += st.num_gates;
            }
            depth += st.depth;
            arena += c.gates().len();
            let w = FromEdgeWeights::from_fn(engines[i].edge_facts(), |j| {
                Tropical::new(instances[i].weights[j])
            });
            let trop: Tropical = c.eval(&w);
            ledger.check(c.validate().is_ok() && trop.finite() == want[i], || {
                format!(
                    "{:?} tropical = {trop:?}, oracle {:?}",
                    SET[i].strategy, want[i]
                )
            });
            let reach: Bool = c.eval(&AllOnes);
            ledger.check(reach == Bool(true), || {
                format!("{:?} bool = {reach:?}", SET[i].strategy)
            });
        }
    }
    tracer.set_enabled(trace);

    let scale = host_scale(&calib);
    let end_to_end = vec![
        metric("setup_s", median(&setup_s) * scale, "s"),
        metric("ok_frac", ledger.ok_frac(), "frac"),
        metric("heavy_op_ms", median(&compile_s) * scale * 1e3, "ms"),
        metric("light_op_ms", median(&eval_ms) * scale, "ms"),
        metric("prov_size", gates as f64, "count"),
    ];
    let mut per_layer: Vec<Metric> = Vec::new();
    if trace {
        let programs: Vec<datalog::Program> = [TC, THREE_HOPS]
            .iter()
            .map(|t| datalog::parse_program(t).expect("static program parses"))
            .collect();
        let classify_ms = per_call(20, || {
            programs
                .iter()
                .map(|p| classify_program(p, 5))
                .collect::<Vec<_>>()
        }) * 1e3;
        per_layer.push(metric("classify.ms", classify_ms, "ms"));
        for spec in &SET {
            let name = strategy_name(spec.strategy);
            let s = median(&tracer.durations(&format!("circuit.compile.{name}")));
            per_layer.push(metric(format!("compile.{name}.s"), s, "s"));
        }
        let arena_eval_ms =
            median(&tracer.durations("circuit.arena.eval")) * 1e3 / EVAL_REPS as f64;
        per_layer.extend([
            metric(
                "compile.gates_per_s",
                traced_gates as f64 / traced_compile,
                "1/s",
            ),
            metric("arena.eval_ms", arena_eval_ms, "ms"),
            metric(
                "arena.gates_per_s",
                traced_gates as f64 / traced_eval,
                "1/s",
            ),
            metric("arena.live_frac", gates as f64 / arena as f64, "ratio"),
            metric("circuit.gates", gates as f64, "count"),
            metric("circuit.depth", depth as f64, "count"),
        ]);
        per_layer.extend(crate::trace_metrics(
            tracer,
            &calib,
            &pass_traced,
            &pass_plain,
        ));
    }
    RunOutput {
        end_to_end,
        per_layer,
        calib,
        samples: vec![
            ("host_scale", vec![scale]),
            ("setup_s", setup_s),
            ("compile_s", compile_s),
            ("eval_ms", eval_ms),
        ],
    }
}
