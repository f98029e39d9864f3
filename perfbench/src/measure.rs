//! The measurement protocol shared by every workload.
//!
//! An untraced run ([`end_to_end`]) times whole checked passes for the
//! requested number of seconds and reports medians; a traced run
//! ([`per_layer`]) makes one untraced pass as its baseline, one traced
//! pass, and then times each layer's operations at the populations the
//! traced pass measured.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::alloc::AllocCount;
use crate::layers::{self, Populations};
use crate::spans::Tracer;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric from its parts.
    #[must_use]
    pub fn new(name: &str, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.to_owned(),
            unit,
            value,
        }
    }
}

/// Simulation points attempted and the checks that failed on them.
#[derive(Debug, Default)]
pub struct Checks {
    /// Simulation points run (grid points, metro runs, TCP runs).
    pub attempted: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts `n` more simulation points.
    pub fn points(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    /// Records a failure described by `what` unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Failed checks per simulation point attempted.
    #[must_use]
    pub fn failed_ratio(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }
}

/// One checked pass over a workload.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Simulator events dispatched.
    pub events: u64,
    /// Host time spent inside the simulation calls.
    pub run: Duration,
    /// Host time for the whole pass: parse, build, run, audit, render.
    pub wall: Duration,
}

/// What a traced pass measured of each layer.
#[derive(Debug, Default)]
pub struct Layers {
    /// Events dispatched by the traced pass.
    pub events: u64,
    /// Mean event-queue population, sampled after every step.
    pub pending_mean: f64,
    /// Largest sampled event-queue population.
    pub pending_max: u64,
    /// Per-event host time samples, in nanoseconds.
    pub step_ns: Vec<u32>,
    /// Allocations made while the traced pass dispatched its events.
    pub allocs: AllocCount,
    /// Control messages recorded in `NetStats`.
    pub control_msgs: u64,
    /// Drops recorded, all reasons.
    pub drops_total: u64,
    /// Buffer flushes at the access routers.
    pub flushes: u64,
    /// Packets shed under byte pressure.
    pub sheds: u64,
    /// Wedged sessions force-resolved by the handover watchdog.
    pub watchdog_fired: u64,
    /// `BufferFull` notifications sent.
    pub buffer_full: u64,
    /// Host time of the traced event loop over the untraced one.
    pub overhead_ratio: f64,
    /// The populations the layer timings run at.
    pub populations: Populations,
    /// Spans and counters only this workload has.
    pub extras: Vec<Metric>,
}

/// A benchmark workload: inputs fixed at construction from the seed.
pub trait Workload {
    /// One checked pass: the audits that belong to a result run here.
    fn pass(&mut self, checks: &mut Checks) -> Pass;
    /// Parse plus world, topology and domain construction, alone.
    fn setup(&mut self) -> Duration;
    /// The output checks that run outside the timed phase: goldens,
    /// hash locks and the threads-1-vs-2 artifact comparison.
    fn verify(&mut self, checks: &mut Checks);
    /// One traced pass. Runs after at least one [`Workload::pass`].
    fn traced(&mut self, checks: &mut Checks, tracer: &mut Tracer, baseline: &Pass) -> Layers;
    /// Whether the timed run uses one thread, like the [`Probe`]: only
    /// such runs are scaled by it.
    fn single_threaded(&self) -> bool {
        true
    }
}

/// Median of `v` (mean of the middle two when even).
#[must_use]
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quantile `q` of integer nanosecond samples (sorted in place), reading
/// each integer `x` as spread evenly over `[x - 0.5, x + 0.5)`, so that
/// heavy ties resolve to a fraction rather than a bare integer.
#[must_use]
pub fn quantile(v: &mut [u32], q: f64) -> f64 {
    v.sort_unstable();
    if v.is_empty() {
        return 0.0;
    }
    let k = q * v.len() as f64;
    let x = v[(k as usize).min(v.len() - 1)];
    let below = v.partition_point(|&s| s < x);
    let ties = v.partition_point(|&s| s <= x) - below;
    f64::from(x) - 0.5 + (k - below as f64) / ties as f64
}

/// Peak resident set size of this process, in MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Fewest timed passes and set-up repetitions a run makes, however
/// short `seconds` is.
const MIN_PASSES: usize = 3;
const MIN_SETUPS: usize = 15;

/// Host time one [`Probe::time`] round takes at the reference machine
/// speed: every end-to-end time is reported as measured time ×
/// `PROBE_NOMINAL_S` / probe time.
pub const PROBE_NOMINAL_S: f64 = 0.0005;

/// A machine-speed probe: a fixed event-loop-like round over a 64-entry
/// binary heap, a 64-key hash map, a 32 KiB table and a short-lived box
/// per step, written here and calling none of the simulator's code.
///
/// On a shared host the simulator's speed drifts by tens of percent
/// within a minute as neighbours load the machine; timing the probe after
/// every pass and scaling by it leaves a figure that moves with the code
/// and less with the machine. Of the probes tried, this cache-resident
/// mix tracked the drift of `fig42_grid` and `corpus_churn` best (a 1 MiB
/// table over-corrected, a pure arithmetic loop under-corrected). It does
/// not track a run on two threads over large pending sets: scaling
/// `metro_city` by it tripled to quadrupled that workload's spread, so
/// multi-threaded runs are reported unscaled.
pub struct Probe {
    heap: BinaryHeap<Reverse<u64>>,
    map: HashMap<u32, u64>,
    table: Vec<u64>,
    x: u64,
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            heap: (0..64u64).map(|i| Reverse(i * 977)).collect(),
            map: HashMap::new(),
            table: vec![0; 4096],
            x: 0x1234_5678_9ABC_DEF1,
        }
    }
}

impl Probe {
    /// Host seconds for one fixed round of probe work.
    pub fn time(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..8_000 {
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            let Reverse(t) = self.heap.pop().expect("the heap never empties");
            let k = (self.x as usize) & (self.table.len() - 1);
            self.table[k] = self.table[k].wrapping_add(t);
            *self.map.entry((self.x & 63) as u32).or_insert(0) += t;
            black_box(Box::new([self.x, t]));
            self.heap.push(Reverse(t + (self.x & 0xfff)));
        }
        black_box((&self.map, &self.table));
        start.elapsed().as_secs_f64()
    }

    /// The machine's speed after a pass of `pass_s` seconds: the median
    /// of at least three rounds, run for a fiftieth of the pass.
    pub fn sample(&mut self, pass_s: f64) -> f64 {
        let start = Instant::now();
        let mut t = Vec::new();
        while t.len() < 3 || start.elapsed().as_secs_f64() < pass_s / 50.0 {
            t.push(self.time());
        }
        median(&mut t)
    }
}

/// The untraced run: one warm-up pass, then checked passes for
/// `seconds`, then the peak RSS, then repeated set-ups for a tenth of
/// `seconds`, then the out-of-phase checks. Every pass and set-up is
/// followed by a [`Probe`] sample and, for a single-threaded workload,
/// scaled to the reference machine speed. Returns `events_per_s`,
/// `wall_s`, `setup_s` and `peak_rss_mb`, each a median over passes
/// (set-ups for `setup_s`), and, for the report, the sample counts, the
/// unscaled medians and the probe's.
pub fn end_to_end(
    w: &mut dyn Workload,
    checks: &mut Checks,
    seconds: f64,
) -> (Vec<Metric>, Vec<Metric>) {
    let mut probe = Probe::default();
    let warm = w.pass(checks);
    let _ = probe.sample(warm.wall.as_secs_f64());
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let pass = w.pass(checks);
        passes.push((pass, probe.sample(pass.wall.as_secs_f64())));
    }
    // Read before the set-up repetitions, which hold every world at once.
    let rss = peak_rss_mb();
    checks.expect(rss.is_some(), || "peak RSS unreadable".to_owned());
    let start = Instant::now();
    let mut setups = Vec::new();
    while setups.len() < MIN_SETUPS || start.elapsed().as_secs_f64() < seconds / 10.0 {
        let s = w.setup().as_secs_f64();
        setups.push((s, probe.time()));
    }
    w.verify(checks);

    let scaled = w.single_threaded();
    let scale = |probe_s: f64| {
        if scaled {
            PROBE_NOMINAL_S / probe_s
        } else {
            1.0
        }
    };
    let eps = |p: &Pass| p.events as f64 / p.run.as_secs_f64().max(1e-9);
    let over_passes =
        |f: &dyn Fn(&(Pass, f64)) -> f64| median(&mut passes.iter().map(f).collect::<Vec<_>>());
    let over_setups =
        |f: &dyn Fn(&(f64, f64)) -> f64| median(&mut setups.iter().map(f).collect::<Vec<_>>());
    let metrics = vec![
        Metric::new(
            "events_per_s",
            "ev/s",
            over_passes(&|(p, r)| eps(p) / scale(*r)),
        ),
        Metric::new(
            "wall_s",
            "s",
            over_passes(&|(p, r)| p.wall.as_secs_f64() * scale(*r)),
        ),
        Metric::new("setup_s", "s", over_setups(&|(s, r)| s * scale(*r))),
        Metric::new("peak_rss_mb", "MB", rss.unwrap_or(0.0)),
    ];
    let report = vec![
        Metric::new("scaled", "bool", f64::from(u8::from(scaled))),
        Metric::new("passes", "count", passes.len() as f64),
        Metric::new("setups", "count", setups.len() as f64),
        Metric::new(
            "events_per_s.unscaled",
            "ev/s",
            over_passes(&|(p, _)| eps(p)),
        ),
        Metric::new(
            "wall_s.unscaled",
            "s",
            over_passes(&|(p, _)| p.wall.as_secs_f64()),
        ),
        Metric::new("setup_s.unscaled", "s", over_setups(&|(s, _)| *s)),
        Metric::new("probe_s", "s", over_passes(&|(_, r)| *r)),
    ];
    (metrics, report)
}

/// The traced run: an untraced baseline pass, a traced pass, the layer
/// timings at the traced pass's populations, and the out-of-phase
/// checks. Returns the per-layer metrics and the workload's extras.
pub fn per_layer(
    w: &mut dyn Workload,
    checks: &mut Checks,
    tracer: &mut Tracer,
    seed: u64,
) -> (Vec<Metric>, Vec<Metric>) {
    let baseline = w.pass(checks);
    let mut l = w.traced(checks, tracer, &baseline);
    w.verify(checks);

    let samples = l.step_ns.len() as f64;
    let p50 = quantile(&mut l.step_ns, 0.50);
    let p99 = quantile(&mut l.step_ns, 0.99);
    let per_event = |n: u64| n as f64 / l.events.max(1) as f64;
    let mut m = vec![
        Metric::new("sim.events", "count", l.events as f64),
        Metric::new("sim.pending_mean", "count", l.pending_mean),
        Metric::new("sim.pending_max", "count", l.pending_max as f64),
        Metric::new("sim.step_ns_p50", "ns", p50),
        Metric::new("sim.step_ns_p99", "ns", p99),
        Metric::new("sim.step_samples", "count", samples),
    ];
    m.extend(layers::queue_metrics(&l.populations, seed));
    m.push(Metric::new(
        "alloc.per_event",
        "allocs/event",
        per_event(l.allocs.allocs),
    ));
    m.push(Metric::new(
        "alloc.bytes_per_event",
        "B/event",
        per_event(l.allocs.bytes),
    ));
    m.extend(layers::net_metrics(&l.populations));
    m.push(Metric::new(
        "net.control_msgs",
        "count",
        l.control_msgs as f64,
    ));
    m.push(Metric::new(
        "net.drops_total",
        "count",
        l.drops_total as f64,
    ));
    m.extend(layers::core_metrics(&l.populations));
    m.push(Metric::new("core.flushes", "count", l.flushes as f64));
    m.push(Metric::new("core.sheds", "count", l.sheds as f64));
    m.push(Metric::new(
        "core.watchdog_fired",
        "count",
        l.watchdog_fired as f64,
    ));
    m.push(Metric::new(
        "core.buffer_full",
        "count",
        l.buffer_full as f64,
    ));
    m.push(Metric::new(
        "trace.overhead_ratio",
        "ratio",
        l.overhead_ratio,
    ));
    m.push(Metric::new("trace.spans", "count", tracer.len() as f64));
    (m, l.extras)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quantile_spreads_ties_over_their_unit_interval() {
        let mut v = vec![10, 10, 10, 10, 20];
        // k = 2.5 lands mid-way through the four tied 10s.
        assert!((quantile(&mut v, 0.5) - 10.125).abs() < 1e-12);
        let mut v = vec![1, 2, 3, 4];
        assert!((quantile(&mut v, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn failed_ratio_counts_failures_per_point() {
        let mut c = Checks::default();
        c.points(4);
        c.expect(true, || unreachable!());
        c.expect(false, || "bad".to_owned());
        assert_eq!(c.failed_ratio(), 0.25);
    }
}
