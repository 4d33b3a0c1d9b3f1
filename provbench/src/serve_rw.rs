//! `serve_rw`: one in-process server (`workers(2)`, `eval_threads(1)`)
//! holding a transitive-closure session on `gnm(200, 800)`, driven by two
//! connections.
//!
//! * The reader connection runs an open-loop mix of cached `QUERY`
//!   (tropical and bool), `PIPELINE magic` point queries and `BATCH`es.
//! * The writer connection runs an open loop of `INSERT` of a fresh edge
//!   followed, one slot later, by `RETRACT` of the same edge, so the EDB
//!   returns to its base state after every pair.
//!
//! Latency is timed from each request's due time. Each open-loop segment
//! runs on its own seeded graph in a freshly brought-up server and sits
//! next to a closed-loop capacity phase of a fixed operation count
//! (`serve.ops_s`, a per-layer metric).
//! Writes take ~100–200 ms against 833 ms between writes, so roughly one
//! read in six is due while a write holds the session: many times 1%, so
//! the read p99 (`serve.read_p99_ms`) sits inside the blocked mode and
//! averages over many writes, while the read median stays in the
//! unblocked one.
//!
//! End to end, the heavy operation is a write, the light one a read (both
//! medians from due time), and the provenance size the grounded rules
//! each session holds after its writes, retracted ones included.

use std::collections::HashSet;
use std::thread;
use std::time::{Duration, Instant};

use provcirc::Engine;
use server::client::Client;
use server::protocol::QuerySpec;
use server::session::Session;
use server::{Server, ServerConfig, ServerHandle};
use telemetry::Counter;

use crate::harness::{calib_ms, host_scale, median, per_call, quantile, timed, Ledger, Rng};
use crate::oracle::all_pairs_hops;
use crate::trace::Tracer;
use crate::{metric, Metric, RunOutput};

const PROGRAM: [&str; 2] = ["T(X,Y) :- E(X,Y).", "T(X,Y) :- T(X,Z), E(Z,Y)."];
const NODES: usize = 200;
const EDGES: usize = 800;
/// Open-loop segments; each is followed (or preceded, alternating) by a
/// closed-loop capacity phase.
const SEGMENTS: usize = 6;
/// Segments of the short probe a traced run of another workload makes.
const PROBE_SEGMENTS: usize = 2;
/// Reader arrivals per segment, one every `READ_GAP`.
const READS_PER_SEGMENT: usize = 1250;
const READ_GAP: Duration = Duration::from_millis(4);
/// Writes per segment (insert/retract pairs), one every `WRITE_GAP`.
const WRITES_PER_SEGMENT: usize = 6;
const WRITE_GAP: Duration = Duration::from_millis(833);
/// Closed-loop operations per capacity phase: the same seeded mix of
/// `CAP_OPS` reads sent `CAP_ROUNDS` times; the phase's throughput is that
/// of its fastest round (one round is ~30–40 ms).
const CAP_OPS: usize = 250;
const CAP_ROUNDS: usize = 4;
const BATCH_ITEMS: usize = 8;
/// The stated read latency limit, on the read p99 and on every read: a
/// read slower than this (from its due time) fails and makes the run
/// incorrect.
const READ_LIMIT_MS: f64 = 500.0;
/// A request sent later than this after its due time is a backlog
/// overrun: it fails and makes the run incorrect.
const BACKLOG_LIMIT_MS: f64 = 2000.0;

#[derive(Clone, Copy, PartialEq)]
enum Sem {
    Tropical,
    Bool,
}

/// One reader operation.
#[derive(Clone)]
enum ReadOp {
    /// `QUERY T a b` over `sem`, materialized (cached) or magic.
    Query {
        sem: Sem,
        goal: (u32, u32),
        magic: bool,
    },
    Batch(Vec<(Sem, (u32, u32))>),
}

fn query_line(sem: Sem, (a, b): (u32, u32), magic: bool) -> String {
    let sem = match sem {
        Sem::Tropical => "tropical VALUATION unit:1",
        Sem::Bool => "bool",
    };
    let pipeline = if magic { " PIPELINE magic" } else { "" };
    format!("QUERY T v{a} v{b} SEMIRING {sem}{pipeline}")
}

/// One segment's seeded inputs: graph, fact lines, fresh write edges and
/// read mixes. Every segment runs on its own graph in a fresh session.
struct Input {
    facts: Vec<String>,
    hops: Vec<Vec<Option<u64>>>,
    /// One fresh (non-base) edge per insert/retract pair.
    write_edges: Vec<(u32, u32)>,
    open_reads: Vec<ReadOp>,
    cap_reads: Vec<ReadOp>,
}

fn read_mix(rng: &mut Rng, n: usize) -> Vec<ReadOp> {
    let goal = |rng: &mut Rng| loop {
        let (a, b) = (rng.below(NODES) as u32, rng.below(NODES) as u32);
        if a != b {
            break (a, b);
        }
    };
    let sem = |rng: &mut Rng| {
        if rng.below(2) == 0 {
            Sem::Tropical
        } else {
            Sem::Bool
        }
    };
    (0..n)
        .map(|_| match rng.below(10) {
            0 => ReadOp::Query {
                sem: Sem::Tropical,
                goal: goal(rng),
                magic: true,
            },
            1 => ReadOp::Batch(
                (0..BATCH_ITEMS)
                    .map(|_| {
                        let s = sem(rng);
                        (s, goal(rng))
                    })
                    .collect(),
            ),
            _ => {
                let s = sem(rng);
                ReadOp::Query {
                    sem: s,
                    goal: goal(rng),
                    magic: false,
                }
            }
        })
        .collect()
}

fn generate(seed: u64, seg: usize) -> Input {
    let seed = crate::bulk_tc::instance_seed(seed, seg);
    let graph = graphgen::generators::gnm(NODES, EDGES, &["E"], seed);
    let facts = graph
        .edges()
        .iter()
        .map(|&(u, v, _)| format!("E v{u} v{v}"))
        .collect();
    let base: HashSet<(u32, u32)> = graph.edges().iter().map(|&(u, v, _)| (u, v)).collect();
    let mut rng = Rng::new(seed ^ 0x5e4e);
    let mut used = HashSet::new();
    let pairs = WRITES_PER_SEGMENT / 2;
    let mut write_edges = Vec::with_capacity(pairs);
    while write_edges.len() < pairs {
        let e = (rng.below(NODES) as u32, rng.below(NODES) as u32);
        if e.0 != e.1 && !base.contains(&e) && used.insert(e) {
            write_edges.push(e);
        }
    }
    let open_reads = read_mix(&mut rng, READS_PER_SEGMENT);
    let cap_reads = read_mix(&mut rng, CAP_OPS);
    Input {
        facts,
        hops: all_pairs_hops(&graph),
        write_edges,
        open_reads,
        cap_reads,
    }
}

/// A running server with its two connections.
struct Live {
    handle: ServerHandle,
    sid: u64,
    writer: Client,
    reader: Client,
}

/// Bind a server and load `input`'s graph into a fresh session:
/// `LOAD PROGRAM`/`LOAD FACTS` on the writer, `SESSION ATTACH` on the
/// reader, and one answered query per semiring so both fixpoints are
/// cached before any timed read.
fn bring_up(input: &Input) -> Live {
    let handle = Server::bind(
        ServerConfig::default()
            .addr("127.0.0.1:0")
            .workers(2)
            .eval_threads(1),
    )
    .expect("server binds on loopback");
    let addr = handle.addr();
    let mut writer = Client::connect(addr).expect("writer connects");
    let mut reader = Client::connect(addr).expect("reader connects");
    let open = writer.roundtrip("SESSION OPEN").expect("session opens");
    let sid: u64 = open
        .strip_prefix("OK SESSION ")
        .and_then(|s| s.parse().ok())
        .expect("OK SESSION <id>");
    let program = writer
        .send_block("LOAD PROGRAM", &PROGRAM)
        .expect("program loads");
    assert!(program.is_ok(), "LOAD PROGRAM: {}", program.status);
    let facts: Vec<&str> = input.facts.iter().map(String::as_str).collect();
    let loaded = writer.send_block("LOAD FACTS", &facts).expect("facts load");
    assert!(loaded.is_ok(), "LOAD FACTS: {}", loaded.status);
    let attach = reader
        .roundtrip(&format!("SESSION ATTACH {sid}"))
        .expect("attach");
    assert!(attach.starts_with("OK SESSION"), "attach: {attach}");
    for sem in [Sem::Tropical, Sem::Bool] {
        let first = reader
            .roundtrip(&query_line(sem, (0, 1), false))
            .expect("first query");
        assert!(first.starts_with("OK VALUE"), "first query: {first}");
    }
    Live {
        handle,
        sid,
        writer,
        reader,
    }
}

fn tear_down(mut live: Live) {
    let _ = live.reader.roundtrip("QUIT");
    let _ = live.writer.roundtrip("QUIT");
    drop((live.reader, live.writer));
    live.handle.shutdown();
    live.handle.wait().expect("server threads exit cleanly");
}

/// Expected rendering of `T(a, b)` with the base EDB plus `extra`.
fn expected(
    hops: &[Vec<Option<u64>>],
    sem: Sem,
    (a, b): (u32, u32),
    extra: Option<(u32, u32)>,
) -> String {
    let (a, b) = (a as usize, b as usize);
    let mut d = hops[a][b];
    if let Some((u, v)) = extra {
        if let (Some(x), Some(y)) = (hops[a][u as usize], hops[v as usize][b]) {
            d = Some(d.map_or(x + 1 + y, |d| d.min(x + 1 + y)));
        }
    }
    match sem {
        Sem::Tropical => d.map_or("inf".to_owned(), |d| d.to_string()),
        Sem::Bool => d.is_some().to_string(),
    }
}

/// The EDB state after `k` writes of the alternating insert/retract
/// schedule: even `k` is the base, odd `k` adds edge `(k - 1) / 2`.
fn state_edge(input: &Input, k: usize) -> Option<(u32, u32)> {
    (k % 2 == 1).then(|| input.write_edges[k / 2])
}

/// Answers of one read: one value per goal, or `None` on `ERR`.
fn answers(op: &ReadOp, status: &str, body: &[String]) -> Option<Vec<String>> {
    match op {
        ReadOp::Query { .. } => Some(vec![status.strip_prefix("OK VALUE ")?.to_owned()]),
        ReadOp::Batch(items) => {
            status.strip_prefix("OK BATCH ")?;
            let vals: Option<Vec<String>> = body
                .iter()
                .map(|row| {
                    let mut it = row.split_whitespace();
                    it.next()?;
                    (it.next()? == "OK").then(|| it.next().map(str::to_owned))?
                })
                .collect();
            vals.filter(|v| v.len() == items.len())
        }
    }
}

fn goals_of(op: &ReadOp) -> Vec<(Sem, (u32, u32))> {
    match op {
        ReadOp::Query { sem, goal, .. } => vec![(*sem, *goal)],
        ReadOp::Batch(items) => items.clone(),
    }
}

/// Send one read and return its status line and body.
fn send_read(client: &mut Client, op: &ReadOp) -> (String, Vec<String>) {
    let reply = match op {
        ReadOp::Query { sem, goal, magic } => client.run_line(&query_line(*sem, *goal, *magic)),
        ReadOp::Batch(items) => {
            let lines: Vec<String> = items
                .iter()
                .map(|&(s, g)| query_line(s, g, false))
                .collect();
            let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
            client.send_block("BATCH", &refs)
        }
    };
    match reply {
        Ok(r) => (r.status, r.body),
        Err(e) => (format!("ERR IO {e}"), Vec::new()),
    }
}

/// Timestamps of one open-loop request.
struct Sample {
    due: Instant,
    sent: Instant,
    done: Instant,
    status: String,
    body: Vec<String>,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        self.done.duration_since(self.due).as_secs_f64() * 1e3
    }
    fn late_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// Sleep until shortly before `t`, then spin: a plain sleep overshoots
/// by a scheduler-dependent amount that would land in every latency.
fn wait_until(t: Instant) {
    const SPIN: Duration = Duration::from_micros(300);
    let now = Instant::now();
    if t > now + SPIN {
        thread::sleep(t - now - SPIN);
    }
    while Instant::now() < t {
        std::hint::spin_loop();
    }
}

/// Everything the open loop measured, across segments.
#[derive(Default)]
struct OpenStats {
    read_ms: Vec<f64>,
    write_ms: Vec<f64>,
    late_ms: Vec<f64>,
    blocked_ms: Vec<f64>,
}

fn open_segment(
    seg: usize,
    input: &Input,
    live: &mut Live,
    tracer: &Tracer,
    stats: &mut OpenStats,
    ledger: &mut Ledger,
) {
    let parent = tracer.current();
    let reads = &input.open_reads;
    let start = Instant::now() + Duration::from_millis(20);
    let (reader, writer) = (&mut live.reader, &mut live.writer);
    let (read_samples, write_samples) = thread::scope(|s| {
        let r = s.spawn(|| {
            let mut out = Vec::with_capacity(reads.len());
            for (i, op) in reads.iter().enumerate() {
                let due = start + READ_GAP * i as u32;
                wait_until(due);
                let sent = Instant::now();
                let (status, body) = send_read(reader, op);
                let done = Instant::now();
                tracer.record("server.wire.read", i as u64, parent, sent, done);
                out.push(Sample {
                    due,
                    sent,
                    done,
                    status,
                    body,
                });
            }
            out
        });
        let w = s.spawn(|| {
            let mut out = Vec::with_capacity(WRITES_PER_SEGMENT);
            for k in 0..WRITES_PER_SEGMENT {
                let (u, v) = input.write_edges[k / 2];
                let verb = if k % 2 == 0 { "INSERT" } else { "RETRACT" };
                let due = start + WRITE_GAP / 2 + WRITE_GAP * k as u32;
                wait_until(due);
                let sent = Instant::now();
                let status = writer
                    .roundtrip(&format!("{verb} E v{u} v{v}"))
                    .unwrap_or_else(|e| format!("ERR IO {e}"));
                let done = Instant::now();
                tracer.record("server.wire.write", k as u64, parent, sent, done);
                out.push(Sample {
                    due,
                    sent,
                    done,
                    status,
                    body: Vec::new(),
                });
            }
            out
        });
        (
            r.join().expect("reader thread completes"),
            w.join().expect("writer thread completes"),
        )
    });
    // Writes: each must change exactly one fact.
    for (k, w) in write_samples.iter().enumerate() {
        let want = if k % 2 == 0 {
            "OK INSERTED 1 "
        } else {
            "OK RETRACTED 1 "
        };
        stats.write_ms.push(w.latency_ms());
        stats.late_ms.push(w.late_ms());
        if w.late_ms() > BACKLOG_LIMIT_MS {
            ledger.check(false, || {
                format!("write {k} of segment {seg} sent {:.0} ms late", w.late_ms())
            });
        } else {
            ledger.check(w.status.starts_with(want), || {
                format!("write {k} of segment {seg}: {}", w.status)
            });
        }
    }
    // Reads: snapshot-isolation-aware check. A read may see any EDB state
    // that was current at some instant between its send and its reply.
    for (i, r) in read_samples.iter().enumerate() {
        let lo = write_samples.iter().filter(|w| w.done <= r.sent).count();
        let hi = write_samples.iter().filter(|w| w.sent <= r.done).count();
        // Blocked: the read was due or in flight while a write ran.
        let blocked = write_samples
            .iter()
            .any(|w| w.sent < r.done && r.due < w.done);
        let ms = r.latency_ms();
        stats.read_ms.push(ms);
        stats.late_ms.push(r.late_ms());
        if blocked {
            stats.blocked_ms.push(ms);
        }
        if r.late_ms() > BACKLOG_LIMIT_MS || ms > READ_LIMIT_MS {
            ledger.check(false, || {
                format!("read {i} of segment {seg} took {ms:.0} ms")
            });
            continue;
        }
        let goals = goals_of(&reads[i]);
        let got = answers(&reads[i], &r.status, &r.body);
        let ok = got.is_some_and(|got| {
            (lo..=hi).any(|k| {
                let extra = state_edge(input, k);
                goals
                    .iter()
                    .zip(&got)
                    .all(|(&(sem, g), v)| *v == expected(&input.hops, sem, g, extra))
            })
        });
        ledger.check(ok, || {
            format!("read {i} of segment {seg}: {} {:?}", r.status, r.body)
        });
    }
}

/// Closed-loop capacity phase on the reader connection; returns ops/s.
fn capacity(
    input: &Input,
    live: &mut Live,
    tracer: &Tracer,
    ledger: &mut Ledger,
    calib: &mut Vec<f64>,
) -> f64 {
    let reads = &input.cap_reads;
    let parent = tracer.current();
    let mut best = f64::INFINITY;
    let mut replies = Vec::with_capacity(reads.len() * CAP_ROUNDS);
    for _ in 0..CAP_ROUNDS {
        let start = Instant::now();
        for (i, op) in reads.iter().enumerate() {
            let sent = Instant::now();
            replies.push(send_read(&mut live.reader, op));
            tracer.record("server.wire.read", i as u64, parent, sent, Instant::now());
        }
        best = best.min(start.elapsed().as_secs_f64());
        calib.push(calib_ms());
    }
    for (op, (status, body)) in reads.iter().cycle().zip(&replies) {
        let ok = answers(op, status, body).is_some_and(|got| {
            goals_of(op)
                .iter()
                .zip(&got)
                .all(|(&(sem, g), v)| *v == expected(&input.hops, sem, g, None))
        });
        ledger.check(ok, || format!("capacity read: {status} {body:?}"));
    }
    reads.len() as f64 / best
}

pub fn run(seed: u64, probe: bool, tracer: &Tracer, ledger: &mut Ledger) -> RunOutput {
    let trace = tracer.enabled();
    let segments = if probe { PROBE_SEGMENTS } else { SEGMENTS };
    // Set-up: input generation, bind, LOAD PROGRAM/FACTS and the first
    // answered QUERY. Every segment brings up a fresh server on its own
    // graph, so set-up is timed once per segment; the previous segment's
    // server is torn down after the new one is up.
    let mut setups = Vec::with_capacity(segments);
    // Grounded rules held by each session after its segment's writes.
    let mut rules = 0usize;
    let mut stats = OpenStats::default();
    let mut ops_s = Vec::new();
    let mut calib = Vec::new();
    let (mut pass_traced, mut pass_plain) = (Vec::new(), Vec::new());
    let mut server: Option<Live> = None;
    let mut input = None;
    for seg in 0..segments {
        let (s, (seg_input, fresh)) = timed(|| {
            let seg_input = generate(seed, seg);
            let fresh = bring_up(&seg_input);
            (seg_input, fresh)
        });
        setups.push(s);
        if let Some(old) = server.replace(fresh) {
            tear_down(old);
        }
        let live = server.as_mut().expect("just brought up");
        let input = &*input.insert(seg_input);
        tracer.set_enabled(trace && seg % 2 == 1);
        let (wall, ()) = timed(|| {
            let mut phases = [true, false];
            if seg % 2 == 1 {
                phases.reverse();
            }
            for open in phases {
                if open {
                    tracer.span("serve.open_loop", seg as u64, || {
                        open_segment(seg, input, live, tracer, &mut stats, ledger)
                    });
                } else {
                    let r = tracer.span("serve.capacity", seg as u64, || {
                        capacity(input, live, tracer, ledger, &mut calib)
                    });
                    ops_s.push(r);
                }
                calib.push(calib_ms());
            }
        });
        if trace && seg % 2 == 1 {
            pass_traced.push(wall);
        } else {
            pass_plain.push(wall);
        }
        let session = live
            .handle
            .registry()
            .attach(live.sid)
            .expect("benchmark session is live");
        rules += session
            .snapshot()
            .expect("snapshot")
            .grounding()
            .rules
            .len();
    }
    tracer.set_enabled(trace);
    let mut live = server.expect("at least one segment");
    let input = input.expect("at least one segment");

    let mut per_layer = Vec::new();
    if trace {
        per_layer.extend(layer_extras(&input, &mut live, ledger));
        per_layer.extend([
            metric(
                "serve.read_blocked_frac",
                stats.blocked_ms.len() as f64 / stats.read_ms.len() as f64,
                "ratio",
            ),
            metric(
                "serve.blocked_read_ms",
                if stats.blocked_ms.is_empty() {
                    0.0
                } else {
                    median(&stats.blocked_ms)
                },
                "ms",
            ),
            metric("load.late_p99_ms", quantile(&stats.late_ms, 0.99), "ms"),
            metric("serve.read_p99_ms", quantile(&stats.read_ms, 0.99), "ms"),
            metric("serve.write_p90_ms", quantile(&stats.write_ms, 0.90), "ms"),
            metric("serve.ops_s", median(&ops_s), "1/s"),
        ]);
        per_layer.extend(crate::trace_metrics(
            tracer,
            &calib,
            &pass_traced,
            &pass_plain,
        ));
    }
    tear_down(live);

    // Host-normalized like every other workload's times: the server's
    // worker threads run on the same vCPUs as the readings.
    let scale = host_scale(&calib);
    let end_to_end = vec![
        metric("setup_s", median(&setups) * scale, "s"),
        metric("ok_frac", ledger.ok_frac(), "frac"),
        metric("heavy_op_ms", quantile(&stats.write_ms, 0.50) * scale, "ms"),
        metric("light_op_ms", quantile(&stats.read_ms, 0.50) * scale, "ms"),
        metric("prov_size", rules as f64, "count"),
    ];
    RunOutput {
        end_to_end,
        per_layer,
        calib,
        samples: vec![
            ("host_scale", vec![scale]),
            ("setup_s", setups),
            ("write_ms", stats.write_ms),
            ("read_p50_raw_ms", vec![quantile(&stats.read_ms, 0.50)]),
            ("ops_s", ops_s),
        ],
    }
}

/// Traced-run extras: the write path replayed on a library `Engine`, and
/// the same read mix sent straight to the server's `Session` (no TCP).
fn layer_extras(input: &Input, live: &mut Live, ledger: &mut Ledger) -> Vec<Metric> {
    // Engine replay: each write runs while the previous snapshot is still
    // alive, as in the server, so copy-on-write costs are included.
    let mut builder = Engine::builder()
        .program_text(&PROGRAM.join("\n"))
        .parallelism(1);
    for f in &input.facts {
        let t: Vec<&str> = f.split_whitespace().skip(1).collect();
        builder = builder.fact("E", &t);
    }
    let mut engine = builder.build().expect("engine builds");
    engine.grounding().expect("grounds");
    let mut snap = engine.snapshot().expect("snapshot");
    let (mut ins, mut ret, mut snaps) = (Vec::new(), Vec::new(), Vec::new());
    for &(u, v) in &input.write_edges {
        let (a, b) = (format!("v{u}"), format!("v{v}"));
        for insert in [true, false] {
            let (s, out) = timed(|| {
                if insert {
                    engine.insert_fact("E", &[&a, &b])
                } else {
                    engine.retract_fact("E", &[&a, &b])
                }
            });
            ledger.check(out.is_ok_and(|o| o.facts.len() == 1), || {
                format!("engine write of ({u},{v}) failed")
            });
            if insert { &mut ins } else { &mut ret }.push(s * 1e3);
            // A snapshot is ~µs: time a burst, keep the last one alive.
            snaps.push(per_call(100, || engine.snapshot().expect("snapshot")) * 1e3);
            snap = engine.snapshot().expect("snapshot");
        }
    }
    drop(snap);
    let applied = engine.metrics().counter_value(Counter::IncrementalApplied);
    let fallbacks = engine
        .metrics()
        .counter_value(Counter::IncrementalFallbacks);

    // Session-direct: the server's own session, bypassing TCP.
    let session: std::sync::Arc<Session> = live
        .handle
        .registry()
        .attach(live.sid)
        .expect("benchmark session is live");
    let parse = |line: &str| {
        let toks: Vec<&str> = line.split_whitespace().skip(1).collect();
        QuerySpec::parse(&toks).expect("benchmark query parses")
    };
    let mix = &input.cap_reads;
    let specs: Vec<Vec<QuerySpec>> = mix
        .iter()
        .map(|op| match op {
            ReadOp::Query { sem, goal, magic } => vec![parse(&query_line(*sem, *goal, *magic))],
            ReadOp::Batch(items) => items
                .iter()
                .map(|&(s, g)| parse(&query_line(s, g, false)))
                .collect(),
        })
        .collect();
    // The same mix over the wire and straight into the session.
    let (wire_s, ()) = timed(|| {
        for op in mix {
            send_read(&mut live.reader, op);
        }
    });
    let (direct_s, ()) = timed(|| {
        for (op, spec) in mix.iter().zip(&specs) {
            match op {
                ReadOp::Query { .. } => {
                    let _ = session.query(&spec[0]);
                }
                ReadOp::Batch(_) => {
                    let _ = session.batch(spec);
                }
            }
        }
    });
    let cached = parse(&query_line(Sem::Tropical, (0, 1), false));
    let query_ms = per_call(2000, || session.query(&cached)) * 1e3;
    let mut session_insert = Vec::new();
    for &(u, v) in input.write_edges.iter().take(4) {
        let args = [format!("v{u}"), format!("v{v}")];
        let (s, out) = timed(|| session.insert("E", &args));
        session_insert.push(s * 1e3);
        let back = session.retract("E", &args);
        ledger.check(out.is_ok() && back.is_ok(), || {
            "session write failed".to_owned()
        });
    }
    vec![
        metric("engine.insert_ms", median(&ins), "ms"),
        metric("engine.retract_ms", median(&ret), "ms"),
        metric("engine.snapshot_ms", median(&snaps), "ms"),
        metric("incremental.applied", applied as f64, "count"),
        metric("incremental.fallbacks", fallbacks as f64, "count"),
        metric("session.query_ms", query_ms, "ms"),
        metric("session.insert_ms", median(&session_insert), "ms"),
        metric(
            "wire.overhead_ms",
            (wire_s - direct_s) * 1e3 / mix.len() as f64,
            "ms",
        ),
    ]
}
