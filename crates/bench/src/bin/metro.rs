//! `metro` — scaling gauge for the sharded multi-domain kernel.
//!
//! Sweeps the metro deployment from 1k to 100k hosts, once on the
//! single-queue kernel (1 domain) and once sharded across 4 MAP
//! domains, and reports events/second plus the epoch executor's timing
//! decomposition:
//!
//! ```sh
//! cargo run -p fh-bench --bin metro --release                 # measure, print JSON
//! cargo run -p fh-bench --bin metro --release -- --check BENCH_metro.json
//! ```
//!
//! **Methodology.** The reference container has two CPU cores, too few
//! to observe a 4-shard wall-clock speedup directly. The epoch executor
//! therefore measures its own critical path: per epoch it records every
//! shard's advance time, summing the *total* (`busy` — what a single-queue
//! execution pays) and the *max* (`critical` — what gates the barrier).
//! `busy / (critical + exchange)` is the speedup an ideal one-core-per-
//! shard machine observes, measured from the actual run rather than
//! modelled. `effective_events_per_sec` is events over that critical
//! path. Timing rows run on the **sequential schedule** (`threads = 1`)
//! so per-shard timers are never polluted by timeslicing several workers
//! over one core; the determinism contract makes this sound — the
//! artifact is byte-identical at any thread count (asserted here across
//! 1/2/8), so the sequential run *is* the sharded run, merely
//! rescheduled.
//!
//! `--check FILE` re-measures and fails (exit 1) if the artifacts
//! diverge across thread counts (10k hosts), if the 4-domain critical-
//! path speedup falls below 3.0 at 100k hosts, or if best-of-3
//! single-queue throughput regressed more than 20% below
//! `budget_events_per_sec` in FILE (wide margin: shared-container
//! scheduler noise is ±15% run-to-run).

use std::env;
use std::process::ExitCode;
use std::time::Instant;

use fh_metro::{run, MetroConfig, MetroResults};

/// One timed metro run.
struct Measurement {
    hosts: u32,
    domains: u32,
    threads: usize,
    results: MetroResults,
    wall_s: f64,
}

impl Measurement {
    fn events_per_sec(&self) -> f64 {
        self.results.events_processed as f64 / self.wall_s.max(1e-9)
    }

    /// Events over the measured critical path — the throughput an ideal
    /// one-core-per-shard machine observes for this exact schedule.
    fn effective_events_per_sec(&self) -> f64 {
        let critical = (self.results.report.critical + self.results.report.exchange).as_secs_f64();
        self.results.events_processed as f64 / critical.max(1e-9)
    }

    fn json_row(&self) -> String {
        format!(
            "    {{\"hosts\": {}, \"domains\": {}, \"threads\": {}, \"events\": {}, \
             \"wall_s\": {:.3}, \"events_per_sec\": {:.0}, \
             \"effective_events_per_sec\": {:.0}, \"critical_path_speedup\": {:.2}, \
             \"epochs\": {}, \"messages\": {}}}",
            self.hosts,
            self.domains,
            self.threads,
            self.results.events_processed,
            self.wall_s,
            self.events_per_sec(),
            self.effective_events_per_sec(),
            self.results.report.critical_path_speedup(),
            self.results.report.epochs,
            self.results.report.messages,
        )
    }
}

fn config(hosts: u32, domains: u32) -> MetroConfig {
    MetroConfig {
        hosts,
        domains,
        ..MetroConfig::default()
    }
}

fn measure(hosts: u32, domains: u32, threads: usize) -> Measurement {
    let cfg = config(hosts, domains);
    let start = Instant::now();
    let results = run(&cfg, threads);
    let wall_s = start.elapsed().as_secs_f64();
    Measurement {
        hosts,
        domains,
        threads,
        results,
        wall_s,
    }
}

/// Best (fastest wall-clock) of `n` identical runs. Scheduler noise on
/// a shared container only ever slows a run down, so the max is the
/// least-noisy estimate of what the code can do.
fn measure_best_of(n: usize, hosts: u32, domains: u32, threads: usize) -> Measurement {
    let mut best = measure(hosts, domains, threads);
    for _ in 1..n {
        let m = measure(hosts, domains, threads);
        if m.wall_s < best.wall_s {
            best = m;
        }
    }
    best
}

/// Asserts the 4-domain artifact is byte-identical at threads 1, 2, 8.
fn assert_thread_identity(hosts: u32) {
    let base = run(&config(hosts, 4), 1).artifact();
    for threads in [2usize, 8] {
        let got = run(&config(hosts, 4), threads).artifact();
        assert_eq!(
            base, got,
            "metro artifact diverged at {hosts} hosts, threads {threads}"
        );
    }
}

/// Extracts `"budget_events_per_sec": <number>` from a committed
/// BENCH_metro.json without a JSON dependency.
fn read_budget(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let key = "\"budget_events_per_sec\":";
    let at = text.find(key)? + key.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

const SPEEDUP_FLOOR: f64 = 3.0;

/// Throughput gate margin: best-of-3 must clear this fraction of the
/// committed budget. Wide enough to absorb shared-container scheduler
/// noise (observed ±15% run-to-run), tight enough to catch an
/// algorithmic regression.
const THROUGHPUT_MARGIN: f64 = 0.8;
const BEST_OF: usize = 3;

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let check_path = match args.as_slice() {
        [] => None,
        [flag, path] if flag == "--check" => Some(path.clone()),
        _ => {
            eprintln!("usage: metro [--check BENCH_metro.json]");
            return ExitCode::FAILURE;
        }
    };

    if let Some(path) = check_path {
        let Some(budget) = read_budget(&path) else {
            eprintln!("could not read budget_events_per_sec from {path}");
            return ExitCode::FAILURE;
        };
        assert_thread_identity(10_000);
        eprintln!("identity: artifacts byte-identical at threads 1/2/8 (10k hosts, 4 domains)");
        let single = measure_best_of(BEST_OF, 10_000, 1, 1);
        let sharded = measure(100_000, 4, 1);
        let speedup = sharded.results.report.critical_path_speedup();
        if speedup < SPEEDUP_FLOOR {
            eprintln!(
                "scaling regression: critical-path speedup {speedup:.2} < {SPEEDUP_FLOOR} \
                 at 4 domains / 100k hosts"
            );
            return ExitCode::FAILURE;
        }
        eprintln!("speedup: {speedup:.2}x critical-path at 4 domains (floor {SPEEDUP_FLOOR})");
        let floor = budget * THROUGHPUT_MARGIN;
        let got = single.events_per_sec();
        if got < floor {
            eprintln!(
                "throughput regression: best-of-{BEST_OF} {got:.0} ev/s single-queue < \
                 {:.0}% of budget {budget:.0}",
                THROUGHPUT_MARGIN * 100.0
            );
            return ExitCode::FAILURE;
        }
        eprintln!("throughput within budget: {got:.0} ev/s >= {floor:.0} ev/s floor");
        return ExitCode::SUCCESS;
    }

    // Warm-up so the first measured run pays no first-touch faults.
    let _ = measure(1_000, 4, 1);
    assert_thread_identity(10_000);

    // Best-of-3 per row: the committed numbers should reflect the code,
    // not whatever else the container was doing that second.
    let mut rows = Vec::new();
    for hosts in [1_000u32, 10_000, 100_000] {
        rows.push(measure_best_of(BEST_OF, hosts, 1, 1));
        rows.push(measure_best_of(BEST_OF, hosts, 4, 1));
    }
    for m in &rows {
        eprintln!(
            "{:>7} hosts x {} domain(s): {:>9} events | {:>6.2}M ev/s wall | \
             {:>6.2}M ev/s effective | speedup {:.2}x",
            m.hosts,
            m.domains,
            m.results.events_processed,
            m.events_per_sec() / 1e6,
            m.effective_events_per_sec() / 1e6,
            m.results.report.critical_path_speedup(),
        );
    }

    // The committed budget is the single-queue 10k-host throughput —
    // the baseline the sharded kernel is measured against.
    let budget = rows
        .iter()
        .find(|m| m.hosts == 10_000 && m.domains == 1)
        .map(Measurement::events_per_sec)
        .unwrap_or(0.0);
    let speedup = rows
        .iter()
        .find(|m| m.hosts == 100_000 && m.domains == 4)
        .map(|m| m.results.report.critical_path_speedup())
        .unwrap_or(0.0);

    println!("{{");
    println!(
        "  \"workload\": \"metro deployment sweep, 1k-100k hosts, 1 vs 4 domains, \
         default MetroConfig\","
    );
    println!(
        "  \"methodology\": \"2-core reference container (two cores cannot show a \
         4-shard wall-clock speedup), so the epoch executor measures its own critical path \
         (busy = sum of shard-advance time, critical = per-epoch max); \
         critical_path_speedup = busy / (critical + exchange) is the measured speedup \
         ceiling on one core per shard. Timing rows run the sequential schedule \
         (threads 1) so per-shard timers are never polluted by timeslicing; the \
         artifact is asserted byte-identical at threads 1/2/8 before any timing is \
         reported, so the sequential run is the sharded run, merely rescheduled.\","
    );
    println!(
        "  \"identity\": \"artifacts byte-identical at threads 1/2/8 (10k hosts, 4 domains)\","
    );
    println!("  \"rows\": [");
    for (i, m) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        println!("{}{comma}", m.json_row());
    }
    println!("  ],");
    println!("  \"speedup_at_4_domains_100k\": {speedup:.2},");
    println!("  \"speedup_floor\": {SPEEDUP_FLOOR},");
    println!("  \"budget_events_per_sec\": {budget:.0}");
    println!("}}");
    ExitCode::SUCCESS
}
