//! `bulk_tc`: transitive closure on `gnm(500, 2000)` over the tropical
//! semiring with unit weights — grounding-bound bulk evaluation.
//!
//! Each pass runs three phases, always in this order: the materialized
//! pipeline (`parse_program` → `ground` → `semi_naive_eval`), the fused
//! pipeline (`parse_program` → `fused_eval`), and a fixed seeded set of
//! magic-set point queries (`magic_point_eval`). Every pass runs on its own
//! seeded graph. The traced run also reads the peak RSS of each bulk
//! pipeline in a fresh child process.
//!
//! End to end, the heavy operation is one pass of whole-program
//! evaluation through both bulk pipelines, the light one a point query,
//! and the provenance size the grounded rules of every pass.

use std::process::{Command, ExitCode};

use datalog::{
    default_budget, fused_eval, ground, magic_point_eval, par_fused_eval, par_ground,
    par_ground_with_limit_recorded, par_semi_naive_eval, parse_program, semi_naive_eval, ConstId,
    Database, GroundedProgram, PredId, Program,
};
use graphgen::LabeledDigraph;
use semiring::{Tropical, UnitWeights};
use telemetry::{Counter, PipelineMetrics, NOOP};

use crate::harness::{
    calib_ms, host_scale, median, median_per_call, peak_rss_mb, per_call, timed, Ledger, Rng,
};
use crate::oracle::{all_pairs_hops, in_edges, tc_unit_value};
use crate::trace::Tracer;
use crate::{metric, Metric, RunOutput};

const TC: &str = "T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), E(Z,Y).";
const NODES: usize = 500;
const EDGES: usize = 2000;
/// Rotation passes; each runs every phase once.
const PASSES: usize = 9;
/// Passes of the short probe a traced run of another workload makes.
const PROBE_PASSES: usize = 2;
/// The point-query goal set, fixed per seed: `GOALS` far reachable goals
/// on each of `MAGIC_GRAPHS` graphs of their own. Single-source cone cost
/// differs between graphs by up to ~50%, so the set spans many graphs.
const GOALS: usize = 4;
const MAGIC_GRAPHS: usize = 16;
/// Every pass queries every goal in a burst of `MAGIC_REPS` back-to-back
/// calls (one call is ~1–3 ms). A goal's sample is the median of its bursts
/// over the run's passes, so its repeats are spread across the whole run.
const MAGIC_REPS: usize = 3;
/// A pass's own set-up (~1 ms) is timed as the median of `SETUP_BURSTS`
/// bursts of `SETUP_REPS` back-to-back set-ups.
const SETUP_BURSTS: usize = 4;
const SETUP_REPS: usize = 8;

type Facts = Vec<(PredId, Vec<ConstId>)>;

/// The generated inputs plus the parsed program and database that the
/// point queries run against.
struct Input {
    graph: LabeledDigraph,
    program: Program,
    db: Database,
    /// `(source node, target node)` of each point query.
    goals: Vec<(u32, u32)>,
}

fn graph_for(seed: u64) -> LabeledDigraph {
    graphgen::generators::gnm(NODES, EDGES, &["E"], seed)
}

fn setup(seed: u64) -> Input {
    let graph = graph_for(seed);
    let mut program = parse_program(TC).expect("static TC program parses");
    let (db, _) = Database::from_graph(&mut program, &graph);
    let mut rng = Rng::new(seed ^ 0x90a1);
    let mut goals = Vec::with_capacity(GOALS);
    while goals.len() < GOALS {
        let src = rng.below(NODES) as u32;
        if let Some(dst) = bench::farthest_reachable(&graph, src) {
            goals.push((src, dst));
        }
    }
    Input {
        graph,
        program,
        db,
        goals,
    }
}

fn unit() -> UnitWeights<Tropical> {
    UnitWeights::new(Tropical::new(1))
}

/// Datalog text and facts → every fact's value, materialized.
fn materialized(
    graph: &LabeledDigraph,
    tracer: &Tracer,
) -> (GroundedProgram, Vec<Tropical>, usize) {
    let mut p = tracer.span("datalog.parser", 0, || {
        parse_program(TC).expect("static TC program parses")
    });
    let (db, _) = Database::from_graph(&mut p, graph);
    let gp = tracer.span("datalog.ground", 0, || ground(&p, &db).expect("grounds"));
    let out = tracer.span("datalog.eval", 0, || {
        semi_naive_eval(&gp, &unit(), default_budget(&gp))
    });
    assert!(out.converged, "tropical TC converges");
    (gp, out.values, out.rule_firings)
}

/// The same answers through the fused pipeline.
fn fused(graph: &LabeledDigraph, tracer: &Tracer) -> (Facts, Vec<Tropical>, u64) {
    let mut p = tracer.span("datalog.parser", 0, || {
        parse_program(TC).expect("static TC program parses")
    });
    let (db, _) = Database::from_graph(&mut p, graph);
    let out = tracer.span("datalog.fused", 0, || {
        fused_eval(&p, &db, &unit(), None).expect("fused evaluates")
    });
    assert!(out.converged, "tropical TC converges");
    (out.gp.idb_facts, out.values, out.streamed_rules)
}

/// Node index of every constant (`v{i}` ↦ `i`).
fn node_of(db: &Database) -> Vec<usize> {
    let mut of = vec![usize::MAX; db.domain_size()];
    for i in 0..NODES {
        if let Some(c) = db.node_const(i) {
            of[c as usize] = i;
        }
    }
    of
}

/// The oracle's value for every fact `T(s, t)` with a finite value.
struct TcOracle {
    values: Vec<Vec<Option<u64>>>,
    finite: usize,
}

impl TcOracle {
    fn new(g: &LabeledDigraph) -> Self {
        let hops = all_pairs_hops(g);
        let ins = in_edges(g);
        let values: Vec<Vec<Option<u64>>> = (0..NODES)
            .map(|s| {
                (0..NODES)
                    .map(|t| tc_unit_value(&hops, &ins, s, t))
                    .collect()
            })
            .collect();
        let finite = values.iter().flatten().filter(|v| v.is_some()).count();
        TcOracle { values, finite }
    }

    /// Whether `facts`/`values` are exactly the oracle's closure.
    fn agrees(&self, node: &[usize], facts: &Facts, values: &[Tropical]) -> bool {
        facts.len() == self.finite
            && facts.iter().zip(values).all(|((_, t), v)| {
                let (s, d) = (node[t[0] as usize], node[t[1] as usize]);
                s < NODES && d < NODES && v.finite() == self.values[s][d]
            })
    }
}

/// The graph seed of pass `pass`: every pass runs on its own seeded
/// instance, so a run's medians describe the seed's family of graphs
/// rather than one draw.
pub fn instance_seed(seed: u64, pass: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(pass as u64)
}

pub fn run(seed: u64, probe: bool, tracer: &Tracer, ledger: &mut Ledger) -> RunOutput {
    let trace = tracer.enabled();
    let passes = if probe { PROBE_PASSES } else { PASSES };
    // `setup_s` samples: each pass's own set-up (input generation, parsing
    // and the database build for its three graphs), median of a few bursts.
    let mut setup_s = Vec::with_capacity(passes);
    let mut mat_s = Vec::new();
    let mut fused_s = Vec::new();
    let mut heavy_s = Vec::new();
    // The goal set's inputs, and each goal's bursts so far.
    let magic: Vec<Input> = (0..MAGIC_GRAPHS)
        .map(|j| setup(instance_seed(seed, PASSES + j)))
        .collect();
    let mut point_s: Vec<Vec<f64>> = vec![Vec::new(); MAGIC_GRAPHS * GOALS];
    let mut calib = Vec::new();
    // Wall of every pass's three phases, split by whether it was traced.
    let (mut pass_traced, mut pass_plain) = (Vec::new(), Vec::new());
    // Exact work counts, summed over passes.
    let (mut facts_n, mut rules, mut firings, mut streamed) = (0usize, 0usize, 0usize, 0u64);
    let mut traced_rules = 0usize;
    let mut cone_rules = 0usize;
    // Every pass runs materialized, fused and magic in this fixed order,
    // so each phase starts from the same process state: with a rotating
    // order, magic queries ran up to 2x slower after a fused phase than
    // after a materialized one.
    for pass in 0..passes {
        let pass_setup = || setup(instance_seed(seed, pass));
        setup_s.push(median_per_call(SETUP_BURSTS, SETUP_REPS, pass_setup));
        let input = pass_setup();
        let oracle = TcOracle::new(&input.graph);
        let node = node_of(&input.db);
        // The traced run interleaves untraced passes to measure overhead.
        let traced = trace && pass % 2 == 1;
        tracer.set_enabled(traced);

        let (mat_wall, (gp, mat_values, f)) = timed(|| {
            tracer.span("bulk.materialized", pass as u64, || {
                materialized(&input.graph, tracer)
            })
        });
        mat_s.push(mat_wall);
        rules += gp.rules.len();
        if traced {
            traced_rules += gp.rules.len();
        }
        facts_n += gp.idb_facts.len();
        firings += f;
        let mat_facts = gp.idb_facts;
        ledger.check(oracle.agrees(&node, &mat_facts, &mat_values), || {
            format!("materialized pass {pass} disagrees with BFS")
        });
        calib.push(calib_ms());

        // Fused must match materialized bit for bit: same facts in the
        // same order, same values.
        let (fused_wall, (facts, values, n)) =
            timed(|| tracer.span("bulk.fused", pass as u64, || fused(&input.graph, tracer)));
        fused_s.push(fused_wall);
        streamed += n;
        ledger.check(facts == mat_facts && values == mat_values, || {
            format!("fused pass {pass} disagrees with materialized")
        });
        calib.push(calib_ms());

        let mut magic_wall = 0.0;
        for (gi, (q, &(src, dst))) in magic
            .iter()
            .flat_map(|q| q.goals.iter().map(move |g| (q, g)))
            .enumerate()
        {
            let tuple = [
                q.db.node_const(src as usize).expect("graph node"),
                q.db.node_const(dst as usize).expect("graph node"),
            ];
            let query = || {
                magic_point_eval(
                    &q.program,
                    &q.db,
                    q.program.target,
                    &tuple,
                    &unit(),
                    None,
                    &NOOP,
                )
                .expect("magic evaluates")
                .expect("TC goals are magic-eligible")
            };
            let (s, per) = timed(|| {
                tracer.span("bulk.magic", gi as u64, || {
                    tracer.span("datalog.magic", gi as u64, || per_call(MAGIC_REPS, query))
                })
            });
            point_s[gi].push(per);
            magic_wall += s;
            let out = query();
            if pass == 0 {
                cone_rules += out.grounded_rules;
            }
            // Goals are distinct from their source, so the value is the
            // BFS hop distance.
            let want = q.graph.bfs_distances(src)[dst as usize];
            let ok = out.converged && out.value.finite() == want;
            ledger.check(ok, || format!("magic goal ({src},{dst}) = {:?}", out.value));
            if gi % GOALS == GOALS - 1 {
                calib.push(calib_ms());
            }
        }

        heavy_s.push(mat_wall + fused_wall);
        let wall = mat_wall + fused_wall + magic_wall;
        if traced {
            pass_traced.push(wall);
        } else {
            pass_plain.push(wall);
        }
    }
    tracer.set_enabled(trace);

    // Medians over passes follow the run's average host speed, so they are
    // host-normalized.
    let scale = host_scale(&calib);
    let point_ms: Vec<f64> = point_s.iter().map(|b| median(b) * 1e3).collect();
    let end_to_end = vec![
        metric("setup_s", median(&setup_s) * scale, "s"),
        metric("ok_frac", ledger.ok_frac(), "frac"),
        metric("heavy_op_ms", median(&heavy_s) * scale * 1e3, "ms"),
        metric("light_op_ms", median(&point_ms) * scale, "ms"),
        metric("prov_size", rules as f64, "count"),
    ];
    let mut per_layer = Vec::new();
    if trace {
        let first = instance_seed(seed, 0);
        let first_facts = TcOracle::new(&graph_for(first)).finite;
        let mut peak = |pipeline: &str| {
            let out = Command::new(std::env::current_exe().expect("own executable path"))
                .args(["--child-peak", pipeline, "--seed", &first.to_string()])
                .output();
            let parsed = out.ok().filter(|o| o.status.success()).and_then(|o| {
                let text = String::from_utf8_lossy(&o.stdout).into_owned();
                let mut it = text.split_whitespace();
                let mb: f64 = it.next()?.parse().ok()?;
                let facts: usize = it.next()?.parse().ok()?;
                Some((mb, facts))
            });
            let ok = parsed.is_some_and(|(_, n)| n == first_facts);
            ledger.check(ok, || format!("{pipeline} peak child failed: {parsed:?}"));
            parsed.map_or(0.0, |(mb, _)| mb)
        };
        // Peak RSS is a traced-run metric; the untraced run skips it.
        per_layer.extend([
            metric("materialized.peak_mb", peak("materialized"), "MiB"),
            metric("fused.peak_mb", peak("fused"), "MiB"),
        ]);
        let ground = tracer.durations("datalog.ground");
        let goals = (MAGIC_GRAPHS * GOALS) as f64;
        per_layer.extend([
            metric(
                "parse.ms",
                per_call(2000, || parse_program(TC).expect("parses")) * 1e3,
                "ms",
            ),
            metric("ground.s", median(&ground), "s"),
            metric("ground.rules", rules as f64, "count"),
            metric("ground.idb_facts", facts_n as f64, "count"),
            metric(
                "ground.ns_per_rule",
                ground.iter().sum::<f64>() * 1e9 / traced_rules as f64,
                "ns",
            ),
            metric("eval.s", median(&tracer.durations("datalog.eval")), "s"),
            metric("eval.rule_firings", firings as f64, "count"),
            metric(
                "eval.firings_per_rule",
                firings as f64 / rules as f64,
                "ratio",
            ),
            metric("fused.s", median(&tracer.durations("datalog.fused")), "s"),
            metric("fused.streamed_rules", streamed as f64, "count"),
            metric(
                "magic.ms",
                median(&tracer.durations("datalog.magic")) * 1e3 / MAGIC_REPS as f64,
                "ms",
            ),
            metric("magic.cone_rules", cone_rules as f64, "count"),
            metric(
                "magic.cone_frac",
                cone_rules as f64 / goals / (rules as f64 / passes as f64),
                "ratio",
            ),
        ]);
        per_layer.extend(layer_extras(&setup(first), ledger));
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
            ("heavy_op_s", heavy_s),
            ("materialized_s", mat_s),
            ("fused_s", fused_s),
            ("light_op_ms", point_ms),
        ],
    }
}

/// Traced-run extras: the exact index-probe count (needs a recording
/// grounding) and the 2-thread vs 1-thread ratios of the parallel paths.
fn layer_extras(input: &Input, ledger: &mut Ledger) -> Vec<Metric> {
    let (p, db) = (&input.program, &input.db);
    let rec = PipelineMetrics::new(true);
    let gp = par_ground_with_limit_recorded(p, db, usize::MAX, 1, &rec).expect("grounds");
    let probes = rec.counter_value(Counter::IndexProbes);
    let budget = default_budget(&gp);
    let reference = semi_naive_eval(&gp, &unit(), budget).values;
    let (mut g1, mut g2, mut e1, mut e2) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..2 {
        g1.push(timed(|| ground(p, db).expect("grounds")).0);
        g2.push(timed(|| par_ground(p, db, 2).expect("grounds")).0);
        let (s, seq) = timed(|| semi_naive_eval(&gp, &unit(), budget));
        e1.push(s);
        let (s, par) = timed(|| par_semi_naive_eval(&gp, &unit(), budget, 2));
        e2.push(s);
        ledger.check(seq.values == reference && par.values == reference, || {
            "2-thread eval disagrees with sequential".to_owned()
        });
    }
    let par_fused = par_fused_eval(p, db, &unit(), None, 2).expect("fused evaluates");
    ledger.check(par_fused.values == reference, || {
        "2-thread fused disagrees with sequential".to_owned()
    });
    vec![
        metric("ground.index_probes", probes as f64, "count"),
        metric(
            "fused.peak_buffered",
            par_fused.peak_buffered as f64,
            "count",
        ),
        metric("par.ground_speedup", median(&g1) / median(&g2), "ratio"),
        metric("par.eval_speedup", median(&e1) / median(&e2), "ratio"),
    ]
}

/// Child-process entry: run one bulk pipeline on the seed's instance and
/// print `<peak RSS MiB> <facts>` for the parent.
pub fn child_peak(pipeline: &str, seed: u64) -> ExitCode {
    let graph = graph_for(seed);
    let tracer = Tracer::new(false);
    let facts = match pipeline {
        "materialized" => materialized(&graph, &tracer).0.idb_facts.len(),
        "fused" => fused(&graph, &tracer).0.len(),
        _ => return ExitCode::from(2),
    };
    println!("{} {facts}", peak_rss_mb());
    ExitCode::SUCCESS
}
