//! `repro` — regenerate every table and figure of the evaluation.
//!
//! ```sh
//! cargo run -p fh-bench --bin repro --release                   # everything
//! cargo run -p fh-bench --bin repro --release -- --threads 4    # parallel
//! cargo run -p fh-bench --bin repro --release -- fig4.2         # one figure
//! cargo run -p fh-bench --bin repro --release -- --csv fig4.2   # CSV series
//! ```
//!
//! `--threads N` sizes the deterministic sweep worker pool (0 = one per
//! core, default 1). Figures fan out across the pool and each sweep
//! figure additionally fans its grid points, so stdout is **byte-identical
//! at any thread count** — results are printed in figure order after all
//! runs complete. Timing lives in the separate `perfbench` package.

use std::env;
use std::process::ExitCode;

use fh_scenarios::sweep::{parallel_map, resolve_threads};

type FigureFn = fn(usize) -> String;

fn main() -> ExitCode {
    let mut filters: Vec<String> = env::args().skip(1).collect();

    let mut threads = 1usize;
    if let Some(pos) = filters.iter().position(|a| a == "--threads") {
        filters.remove(pos);
        let Some(n) = filters.get(pos).and_then(|v| v.parse().ok()) else {
            eprintln!("--threads needs a number (0 = one per core)");
            return ExitCode::FAILURE;
        };
        threads = n;
        filters.remove(pos);
    }
    let threads = resolve_threads(threads);

    if filters.first().map(String::as_str) == Some("--csv") {
        filters.remove(0);
        for figure in &filters {
            match fh_bench::csv::csv_for(figure, threads) {
                Some(csv) => print!("{csv}"),
                None => eprintln!("no CSV writer for {figure}"),
            }
        }
        return ExitCode::SUCCESS;
    }

    let figures: Vec<(&'static str, FigureFn)> = vec![
        ("fig4.2", fh_bench::fig4_2),
        ("fig4.3", fh_bench::fig4_3),
        ("fig4.4", fh_bench::fig4_4),
        ("fig4.5", fh_bench::fig4_5),
        ("fig4.6", fh_bench::fig4_6),
        ("fig4.7", fh_bench::fig4_7),
        ("fig4.8", fh_bench::fig4_8),
        ("fig4.9", fh_bench::fig4_9),
        ("fig4.10", fh_bench::fig4_10),
        ("fig4.12", fh_bench::fig4_12),
        ("fig4.13", fh_bench::fig4_13),
        ("fig4.14", fh_bench::fig4_14),
        ("threshold", fh_bench::ablation_threshold),
        ("pacing", fh_bench::ablation_pacing),
        ("background", fh_bench::ablation_background),
        ("blackout", fh_bench::ablation_blackout),
        ("signaling", fh_bench::ablation_signaling),
        ("chaos", fh_bench::chaos),
    ];
    let all = filters.is_empty();
    let selected: Vec<(&'static str, FigureFn)> = figures
        .into_iter()
        .filter(|(name, _)| all || filters.iter().any(|x| name.contains(x.as_str())))
        .collect();

    // Figure-level fan-out: independent figures run concurrently on the
    // same pool size as their internal point fan-out. Output is collected
    // and printed in figure order, so stdout does not depend on `threads`.
    let runs = parallel_map(threads, &selected, |_, &(name, f)| (name, f(threads)));
    for (name, text) in &runs {
        println!("==== {name} ====");
        println!("{text}");
    }

    ExitCode::SUCCESS
}
