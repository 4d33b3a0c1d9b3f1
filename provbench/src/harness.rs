//! Shared measurement plumbing: the seeded schedule RNG, order
//! statistics, the outcome ledger behind `ok_frac`, the host-drift
//! calibration kernel, and peak-RSS probing.

use std::hint::black_box;
use std::time::Instant;

/// splitmix64: a tiny deterministic generator for schedules and goal
/// picks. Graphs come from `graphgen`'s own seeded generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Linear-interpolated quantile of unsorted samples (`q` in `[0, 1]`).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Wall time of `f` in seconds, plus its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Mean seconds per call over `reps` back-to-back calls — the way every
/// sub-10 ms operation is timed, so no metric rests on one short reading.
pub fn per_call<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        black_box(f());
    }
    start.elapsed().as_secs_f64() / reps as f64
}

/// The median of `bursts` bursts of `reps` back-to-back calls, as seconds
/// per call. Samples are medians so that [`host_scale`], itself set by a
/// median, applies to them: a fastest burst escapes part of a slow host
/// stretch, and scaling it then over-corrects (see README.md).
pub fn median_per_call<T>(bursts: usize, reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let calls: Vec<f64> = (0..bursts).map(|_| per_call(reps, &mut f)).collect();
    median(&calls)
}

/// Attempted vs failed operations — the inputs of `ok_frac` and of the
/// result line's `attempted`/`failed`. A wrong answer, an `ERR` reply, an
/// operation over its latency limit and a backlog overrun are all failures,
/// and each one makes the run incorrect.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, echoed to stderr.
    pub notes: Vec<String>,
    /// Self-test hook: the next checked answer is reported wrong.
    pub corrupt_next: bool,
}

impl Ledger {
    /// Record one checked answer; `ok` is the oracle's verdict.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        let ok = ok && !std::mem::take(&mut self.corrupt_next);
        if !ok {
            self.failed += 1;
            self.note(what());
        }
    }

    fn note(&mut self, msg: String) {
        if self.notes.len() < 8 {
            self.notes.push(msg);
        }
    }

    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

/// The host-speed reference kernel, independent of the engine: sort a copy
/// of a fixed array of 60k integers, then insert half of them into an
/// open-addressing hash table of 2^17 slots and probe it with all of
/// them (the mix of sorting and hash probing that grounding and circuit
/// compilation do). It keeps its buffers, so a reading takes no page
/// faults after the first. One call is ~1.5 ms on a quiet 2-core x86 VM.
/// A reading is the median of 5 calls. Every run takes readings between
/// phases; their median sets the run's [`host_scale`], and the traced run
/// reports it as `host.calib_ms`.
pub fn calib_ms() -> f64 {
    struct Kernel {
        src: Vec<u64>,
        buf: Vec<u64>,
        table: Vec<u64>,
    }
    thread_local! {
        static KERNEL: std::cell::RefCell<Kernel> = {
            let mut rng = Rng::new(7);
            let src: Vec<u64> = (0..60_000).map(|_| rng.next_u64() | 1).collect();
            std::cell::RefCell::new(Kernel {
                buf: Vec::with_capacity(src.len()),
                table: vec![0; 1 << 17],
                src,
            })
        };
    }
    KERNEL.with_borrow_mut(|k| {
        let mask = k.table.len() - 1;
        let calls: Vec<f64> = (0..5)
            .map(|_| {
                per_call(1, || {
                    k.buf.clear();
                    k.buf.extend_from_slice(&k.src);
                    k.buf.sort_unstable();
                    k.table.fill(0);
                    for &x in k.src.iter().step_by(2) {
                        let mut i = x as usize & mask;
                        while k.table[i] != 0 && k.table[i] != x {
                            i = (i + 1) & mask;
                        }
                        k.table[i] = x;
                    }
                    let mut hits = 0u64;
                    for &x in &k.src {
                        let mut i = x as usize & mask;
                        while k.table[i] != 0 {
                            if k.table[i] == x {
                                hits += 1;
                                break;
                            }
                            i = (i + 1) & mask;
                        }
                    }
                    hits ^ k.buf[k.buf.len() / 2]
                })
            })
            .collect();
        median(&calls) * 1e3
    })
}

/// The calibration time at which host-normalized values equal raw ones.
const CALIB_REF_MS: f64 = 1.5;

/// The factor that turns a run's wall-clock times into host-normalized
/// ones: `CALIB_REF_MS` over the median of the run's calibration readings.
/// On a shared VM a neighbour on the same physical core can slow a vCPU by
/// up to ~1.7x for the whole of a run. Work timed on the thread that takes
/// the readings slows by a similar factor, so the normalized time is the
/// run's cost at one fixed host speed. Every workload's times use it: the
/// server's worker threads run on the same vCPUs as the readings.
pub fn host_scale(calib: &[f64]) -> f64 {
    CALIB_REF_MS / median(calib)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Number of cores the host offers this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
