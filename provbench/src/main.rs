//! `provbench` — the engine's end-to-end and per-layer benchmark.
//!
//! ```text
//! provbench --workload <bulk_tc|circuits|serve_rw> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`; each workload runs a fixed,
//! seeded amount of work (`--seconds` is accepted as part of the command
//! line but does not size the run — a time budget would let a fast
//! run measure a bigger program, see README.md). Answers are checked
//! against independent oracles off the timed path. The end-to-end times
//! are host-normalized by a calibration kernel timed between phases (see
//! `harness::host_scale`). The last stdout line is one JSON object:
//! `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer ones with `--trace 1`).
//!
//! Every workload reports the same end-to-end metric names, each filled
//! from that workload's own operations: `setup_s`, `ok_frac`,
//! `heavy_op_ms` (its whole-program operation), `light_op_ms` (its
//! per-goal operation) and `prov_size` (the size of the provenance it
//! builds). A traced run reports every per-layer metric: after the named
//! workload's own traced schedule it runs a short probe of each other
//! workload, for the layers only that workload drives.

mod bulk_tc;
mod circuits;
mod harness;
mod oracle;
mod serve_rw;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use harness::Ledger;
use trace::Tracer;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one workload run hands back to `main`.
pub struct RunOutput {
    /// `--trace 0` metrics.
    pub end_to_end: Vec<Metric>,
    /// `--trace 1` metrics.
    pub per_layer: Vec<Metric>,
    /// Every `host.calib_ms` reading taken between phases.
    pub calib: Vec<f64>,
    /// Raw per-pass samples behind the end-to-end medians, for the record.
    pub samples: Vec<(&'static str, Vec<f64>)>,
}

/// Host and tracing metrics every traced run reports: core count, the
/// drift-calibration kernel, the traced-vs-untraced pass ratio and the
/// share of end-to-end time the layer spans cover.
pub fn trace_metrics(
    tracer: &Tracer,
    calib: &[f64],
    traced: &[f64],
    untraced: &[f64],
) -> Vec<Metric> {
    let overhead = if traced.is_empty() || untraced.is_empty() {
        0.0
    } else {
        harness::median(traced) / harness::median(untraced) - 1.0
    };
    vec![
        metric("host.cores", harness::host_cores() as f64, "count"),
        metric("host.calib_ms", harness::median(calib), "ms"),
        metric("trace.overhead_frac", overhead, "ratio"),
        metric("trace.accounted_frac", tracer.accounted_frac(), "ratio"),
    ]
}

/// A workload's entry point: `(seed, probe, tracer, ledger)`. A probe is a
/// short form of the workload (two passes) that a traced run of another
/// workload uses for its per-layer metrics.
type Run = fn(u64, bool, &Tracer, &mut Ledger) -> RunOutput;

const WORKLOADS: [(&str, Run); 3] = [
    ("bulk_tc", bulk_tc::run),
    ("circuits", circuits::run),
    ("serve_rw", serve_rw::run),
];

struct Args {
    workload: String,
    seed: u64,
    trace: bool,
    corrupt: bool,
    child_peak: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        trace: false,
        corrupt: false,
        child_peak: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                value("--seconds")?
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value("--trace")? == "1",
            "--corrupt" => args.corrupt = true,
            "--child-peak" => args.child_peak = Some(value("--child-peak")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("provbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(pipeline) = &args.child_peak {
        return bulk_tc::child_peak(pipeline, args.seed);
    }

    let tracer = Tracer::new(args.trace);
    let mut ledger = Ledger {
        corrupt_next: args.corrupt,
        ..Ledger::default()
    };
    let Some(&(_, run)) = WORKLOADS.iter().find(|(name, _)| *name == args.workload) else {
        eprintln!(
            "provbench: unknown workload {:?} (bulk_tc|circuits|serve_rw)",
            args.workload
        );
        return ExitCode::from(2);
    };
    let mut out = run(args.seed, false, &tracer, &mut ledger);
    if args.trace {
        // Layers the named workload does not drive are measured on a short
        // probe of the workload that does, on a tracer of its own; the
        // host and tracing metrics stay those of the named workload.
        for &(_, probe) in WORKLOADS.iter().filter(|(name, _)| *name != args.workload) {
            let probed = probe(args.seed, true, &Tracer::new(true), &mut ledger);
            out.per_layer.extend(
                probed
                    .per_layer
                    .into_iter()
                    .filter(|m| !m.name.starts_with("host.") && !m.name.starts_with("trace.")),
            );
        }
    }
    for note in &ledger.notes {
        eprintln!("provbench: FAILED {note}");
    }

    let out_dir = PathBuf::from("provbench/out");
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if args.trace {
        if let Err(e) = tracer.write_artifact(&out_dir.join(format!("trace-{tag}.json"))) {
            eprintln!("provbench: could not write trace artifact: {e}");
        }
    }
    let mut all = format!(
        "# host.calib_ms min/median/max {:.4}/{:.4}/{:.4} over {} readings\n",
        out.calib.iter().copied().fold(f64::INFINITY, f64::min),
        harness::median(&out.calib),
        out.calib.iter().copied().fold(0.0, f64::max),
        out.calib.len()
    );
    for m in out.end_to_end.iter().chain(&out.per_layer) {
        let _ = writeln!(all, "{:<28} {:>14.6} {}", m.name, m.value, m.unit);
    }
    eprint!("{all}");
    for (name, vals) in out.samples.iter().chain([&("calib_ms", out.calib.clone())]) {
        let vals: Vec<String> = vals.iter().map(|v| format!("{v:.6}")).collect();
        let _ = writeln!(all, "# samples {name} {}", vals.join(" "));
    }
    let _ = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(out_dir.join(format!("run-{tag}.txt")), &all));

    let shown = if args.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    let mut json = String::new();
    for (i, m) in shown.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        ledger.failed == 0,
        ledger.attempted,
        ledger.failed
    );
    ExitCode::SUCCESS
}
