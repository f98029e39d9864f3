//! `perfbench` — run one workload (or `all`) and print its metrics.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig42_grid --seed 42 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run;
//! `--trace 1` prints the per-layer metrics of a traced run and writes
//! its spans to `perfbench/out/<workload>-seed<seed>.json`. The last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Any failed output check makes the
//! exit code non-zero. `--small` shrinks every workload for tests;
//! `--golden-dir` and `--plans-dir` replace the repository's goldens and
//! corpus plans.

use std::path::PathBuf;
use std::process::ExitCode;

use fh_perfbench::alloc::CountingAlloc;
use fh_perfbench::measure::{end_to_end, per_layer, Checks, Metric};
use fh_perfbench::spans::Tracer;
use fh_perfbench::{workload, Inputs, WORKLOADS};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    workloads: Vec<String>,
    seconds: f64,
    trace: bool,
    inputs: Inputs,
}

const USAGE: &str = "usage: perfbench --workload <fig42_grid|corpus_churn|metro_city|all> \
     --seed <n> --seconds <s> --trace <0|1> [--small] [--golden-dir DIR] [--plans-dir DIR]";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut name = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut small = false;
    let mut golden_dir = None;
    let mut plans_dir = None;
    while let Some(flag) = args.next() {
        if flag == "--small" {
            small = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            "--golden-dir" => golden_dir = Some(PathBuf::from(value)),
            "--plans-dir" => plans_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workloads = if name == "all" {
        WORKLOADS.iter().map(|w| (*w).to_owned()).collect()
    } else if WORKLOADS.contains(&name.as_str()) {
        vec![name]
    } else {
        return Err(format!("unknown workload {name}"));
    };
    let mut inputs = Inputs::new(seed.ok_or("--seed is required")?);
    inputs.small = small;
    inputs.golden_dir = golden_dir.unwrap_or(inputs.golden_dir);
    inputs.plans_dir = plans_dir.unwrap_or(inputs.plans_dir);
    Ok(Args {
        workloads,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        inputs,
    })
}

fn print_metrics(heading: &str, metrics: &[Metric]) {
    println!("# {heading}");
    for m in metrics {
        println!("{:<32} {:>20} {}", m.name, m.value, m.unit);
    }
}

fn result_json(checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failures.is_empty(),
        checks.attempted.max(1),
        checks.failures.len(),
        body.join(", ")
    )
}

/// Runs one workload in the requested mode and prints its report;
/// returns `true` when every check passed.
fn run_one(name: &str, args: &Args) -> bool {
    let mut w = workload(name, &args.inputs).expect("workload names are validated");
    let mut checks = Checks::default();
    println!(
        "# {name} seed={} trace={}",
        args.inputs.seed,
        u8::from(args.trace)
    );
    let metrics = if args.trace {
        let mut tracer = Tracer::default();
        let (metrics, extras) = per_layer(w.as_mut(), &mut checks, &mut tracer, args.inputs.seed);
        print_metrics("per-layer", &metrics);
        print_metrics("workload layers", &extras);
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{name}-seed{}.json", args.inputs.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json())) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
        metrics
    } else {
        let (metrics, report) = end_to_end(w.as_mut(), &mut checks, args.seconds);
        print_metrics("end-to-end", &metrics);
        print_metrics("samples, unscaled medians and the probe's", &report);
        metrics
    };
    for m in &metrics {
        checks.expect(m.value.is_finite(), || format!("{} is not finite", m.name));
    }
    println!(
        "{:<32} {:>20} ({} failed checks / {} points)",
        "failed_ratio",
        checks.failed_ratio(),
        checks.failures.len(),
        checks.attempted
    );
    for f in checks.failures.iter().take(20) {
        eprintln!(
            "FAILED: {}",
            f.split_whitespace().collect::<Vec<_>>().join(" ")
        );
    }
    if checks.failures.len() > 20 {
        eprintln!("... and {} more failed checks", checks.failures.len() - 20);
    }
    println!("{}", result_json(&checks, &metrics));
    checks.failures.is_empty()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for name in &args.workloads {
        ok &= run_one(name, &args);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
