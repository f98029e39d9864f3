//! `plan` — the scenario-plan driver: run a TOML plan, the compiled-in
//! corpus, or a seeded fuzz battery.
//!
//! ```sh
//! # Run one plan file at its own seed and print its artifact (CSV or
//! # Chrome-trace JSON); --seed rebases it and drops its artifact lock.
//! cargo run -p fh-bench --release --bin plan -- crates/bench/plans/storm.toml --threads 4
//!
//! # Run the whole compiled-in corpus; one status line per plan.
//! cargo run -p fh-bench --release --bin plan -- --corpus --threads 4
//!
//! # Run 100 fuzzed plans derived from seed 7.
//! cargo run -p fh-bench --release --bin plan -- --fuzz 100 --seed 7
//! ```
//!
//! Every mode prints thread-invariant bytes — CI `cmp`s the corpus and
//! fuzz outputs across `--threads` values. Any expectation violation
//! (packet conservation, leaks, recorder wrap, per-class bounds,
//! artifact hash locks, cross-thread artifact divergence in fuzz mode)
//! prints a structured failure report on stderr and exits nonzero, as
//! does a malformed plan file.

use std::env;
use std::process::ExitCode;

use fh_bench::cli;

fn main() -> ExitCode {
    let result = cli::parse_plan_args(env::args().skip(1))
        .map_err(|msg| format!("{msg}\n"))
        .and_then(|args| cli::run(&args));
    match result {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(report) => {
            eprint!("{report}");
            ExitCode::FAILURE
        }
    }
}
