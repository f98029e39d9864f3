//! `hotpath` — single-run hot-path throughput gauge.
//!
//! Runs the Fig 4.2 workload (the 60-point scheme × host-count grid of
//! `buffer_utilization`, the hottest sustained workload in the suite)
//! once per event-queue backend, asserts the two backends produce the
//! identical series, and reports events/second:
//!
//! ```sh
//! cargo run -p fh-bench --bin hotpath --release                # measure, print JSON
//! cargo run -p fh-bench --bin hotpath --release -- --check BENCH_hotpath.json
//! ```
//!
//! `--check FILE` re-measures and fails (exit 1) if the faster backend's
//! throughput, `max(heap, calendar)`, regressed more than 10% below
//! `budget_events_per_sec` in FILE — the CI hot-path regression gate. The committed
//! `BENCH_hotpath.json` carries the reference machine's numbers plus the
//! analysis notes required by the optimization issue; regenerate it by
//! redirecting this binary's stdout.

use std::env;
use std::process::ExitCode;
use std::time::Instant;

use fh_scenarios::experiments::{
    buffer_utilization_with_queue, BufferUtilizationParams, BufferUtilizationResult,
};
use fh_sim::QueueKind;

/// One timed pass over the Fig 4.2 grid.
struct Measurement {
    events: u64,
    wall_s: f64,
    result: BufferUtilizationResult,
}

impl Measurement {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s.max(1e-9)
    }
}

fn measure(kind: QueueKind) -> Measurement {
    let start = Instant::now();
    let result = buffer_utilization_with_queue(BufferUtilizationParams::default(), 1, kind);
    let wall_s = start.elapsed().as_secs_f64();
    Measurement {
        events: result.events,
        wall_s,
        result,
    }
}

/// Extracts `"budget_events_per_sec": <number>` from a committed
/// BENCH_hotpath.json without a JSON dependency.
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

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let check_path = match args.as_slice() {
        [] => None,
        [flag, path] if flag == "--check" => Some(path.clone()),
        _ => {
            eprintln!("usage: hotpath [--check BENCH_hotpath.json]");
            return ExitCode::FAILURE;
        }
    };

    // Warm-up pass so neither backend pays first-touch page faults.
    let _ = measure(QueueKind::Heap);

    let heap = measure(QueueKind::Heap);
    let calendar = measure(QueueKind::Calendar);

    // The whole point of the optimization is that it is invisible: the
    // calendar backend must reproduce the heap's series bit for bit.
    assert_eq!(
        heap.result.series, calendar.result.series,
        "queue backends disagree on Fig 4.2 — determinism broken"
    );
    assert_eq!(heap.events, calendar.events);

    let best = heap.events_per_sec().max(calendar.events_per_sec());
    eprintln!(
        "fig4.2 grid: {} events | heap {:.2}M ev/s | calendar {:.2}M ev/s",
        heap.events,
        heap.events_per_sec() / 1e6,
        calendar.events_per_sec() / 1e6,
    );

    if let Some(path) = check_path {
        let Some(budget) = read_budget(&path) else {
            eprintln!("could not read budget_events_per_sec from {path}");
            return ExitCode::FAILURE;
        };
        let floor = budget * 0.9;
        if best < floor {
            eprintln!("hot-path regression: {best:.0} ev/s < 90% of budget {budget:.0} ev/s");
            return ExitCode::FAILURE;
        }
        eprintln!("hot path within budget: {best:.0} ev/s >= {floor:.0} ev/s floor");
        return ExitCode::SUCCESS;
    }

    println!("{{");
    println!("  \"workload\": \"fig4.2 buffer_utilization grid, default params, threads 1\",");
    println!("  \"events\": {},", heap.events);
    println!("  \"heap_events_per_sec\": {:.0},", heap.events_per_sec());
    println!(
        "  \"calendar_events_per_sec\": {:.0},",
        calendar.events_per_sec()
    );
    println!("  \"budget_events_per_sec\": {best:.0}");
    println!("}}");
    ExitCode::SUCCESS
}
