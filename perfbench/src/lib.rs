//! # fh-perfbench — the simulator's end-to-end and per-layer benchmark
//!
//! Three workloads, each chosen to stress different layers:
//!
//! * [`fig42`] — the paper's Fig 4.2 grid on the full-fidelity kernel;
//! * [`corpus`] — six corpus plans and the TCP handoff runs;
//! * [`metro`] — the sharded metro kernel at 50k hosts.
//!
//! An untraced run ([`measure::end_to_end`]) reports what a researcher
//! regenerating a figure sees: events per second, wall time per checked
//! pass, set-up time and peak memory. A traced run
//! ([`measure::per_layer`]) records spans around every call the
//! benchmark makes into a crate's public API and times each layer's
//! operations at the workload's populations. Every run checks its
//! outputs: goldens and hash locks at the default seed, the plans'
//! invariants and the threads-1-vs-2 artifact comparison at any seed.

pub mod alloc;
pub mod corpus;
pub mod fig42;
pub mod layers;
pub mod measure;
pub mod metro;
pub mod spans;

use std::path::PathBuf;

use measure::Workload;

/// The seed at which the committed goldens and hash locks apply: it
/// maps each workload to its inputs' own pinned seed.
pub const DEFAULT_SEED: u64 = 42;

/// The workloads, by the name the command line takes.
pub const WORKLOADS: [&str; 3] = ["fig42_grid", "corpus_churn", "metro_city"];

/// Everything a workload's inputs are made from.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Workload seed.
    pub seed: u64,
    /// A reduced-size run, for the benchmark's own tests.
    pub small: bool,
    /// Directory holding `fig4.2.csv` and `fig4.14.csv`.
    pub golden_dir: PathBuf,
    /// Directory holding the corpus plan files.
    pub plans_dir: PathBuf,
}

impl Inputs {
    /// Full-size inputs at `seed`, read from the repository this package
    /// sits in.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
        Inputs {
            seed,
            small: false,
            golden_dir: root.join("tests/golden"),
            plans_dir: root.join("crates/bench/plans"),
        }
    }
}

/// The workload called `name`, if there is one.
#[must_use]
pub fn workload(name: &str, inputs: &Inputs) -> Option<Box<dyn Workload>> {
    Some(match name {
        "fig42_grid" => Box::new(fig42::Fig42::new(inputs)),
        "corpus_churn" => Box::new(corpus::Corpus::new(inputs)),
        "metro_city" => Box::new(metro::Metro::new(inputs)),
        _ => return None,
    })
}
