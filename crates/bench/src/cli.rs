//! Argument parsing and dispatch for the `plan` bin.
//!
//! `plan` is the one driver for scenario plans: a single TOML file, the
//! compiled-in corpus, or a seeded fuzz battery, each at any
//! `--seed`/`--threads`. CI runs it at several seeds and `cmp`s the
//! bytes across thread counts. The parsing lives here, not in the bin,
//! so it is unit-tested.

use std::fs;

use fh_scenarios::sweep::resolve_threads;

use crate::planio;

/// The one-line usage message, printed for a missing or repeated mode.
pub const USAGE: &str = "usage: plan <file.toml> | --corpus | --fuzz N  [--seed N] [--threads N]";

/// What one `plan` invocation runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mode {
    /// One plan file. Without `--seed` (`None`) the file's own
    /// `[plan].seed` runs, and its artifact lock stays armed.
    File {
        /// Path of the TOML plan.
        path: String,
        /// `--seed`, if given.
        seed: Option<u64>,
    },
    /// The compiled-in corpus, every plan rebased onto `seed`.
    Corpus {
        /// `--seed`, default 2003 (the thesis seed).
        seed: u64,
    },
    /// `count` fuzzed plans derived from `seed`.
    Fuzz {
        /// Number of plans.
        count: u64,
        /// `--seed`, default 2003 (the thesis seed).
        seed: u64,
    },
}

/// Parsed arguments of the `plan` bin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanArgs {
    /// The mode, with its seed resolved.
    pub mode: Mode,
    /// Worker-pool size, already resolved (`0` → one per core).
    pub threads: usize,
}

/// Parses the `plan` arguments (without the program name). Exactly one
/// mode is required; unknown flags and missing values are errors.
///
/// # Errors
///
/// Returns the message to print on stderr.
pub fn parse_plan_args<I>(args: I) -> Result<PlanArgs, String>
where
    I: IntoIterator<Item = String>,
{
    enum Chosen {
        File(String),
        Corpus,
        Fuzz(u64),
    }
    let mut chosen = None;
    let mut seed = None;
    let mut threads = 1usize;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut number = |what: &str| {
            args.next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        let mode = match arg.as_str() {
            "--corpus" => Chosen::Corpus,
            "--fuzz" => Chosen::Fuzz(number("a plan count")?),
            "--seed" => {
                seed = Some(number("a number")?);
                continue;
            }
            "--threads" => {
                threads = number("a number (0 = one per core)")? as usize;
                continue;
            }
            other if !other.starts_with('-') => Chosen::File(other.to_owned()),
            other => return Err(format!("unknown argument: {other}\n{USAGE}")),
        };
        if chosen.replace(mode).is_some() {
            return Err(format!("more than one mode given at `{arg}`\n{USAGE}"));
        }
    }
    let thesis_seed = seed.unwrap_or(crate::params::SEED);
    let mode = match chosen.ok_or_else(|| USAGE.to_owned())? {
        Chosen::File(path) => Mode::File { path, seed },
        Chosen::Corpus => Mode::Corpus { seed: thesis_seed },
        Chosen::Fuzz(count) => Mode::Fuzz {
            count,
            seed: thesis_seed,
        },
    };
    Ok(PlanArgs {
        mode,
        threads: resolve_threads(threads),
    })
}

/// Runs what `args` names and returns the bytes to print on stdout.
///
/// # Errors
///
/// An unreadable or malformed plan file, or any expectation violation,
/// returns the message to print on stderr — the bin exits nonzero.
pub fn run(args: &PlanArgs) -> Result<String, String> {
    match &args.mode {
        Mode::File { path, seed } => match fs::read_to_string(path) {
            Ok(toml) => planio::run_corpus_plan(&toml, path, *seed, args.threads),
            Err(e) => Err(format!("{path}: {e}\n")),
        },
        Mode::Corpus { seed } => planio::run_corpus(*seed, args.threads),
        Mode::Fuzz { count, seed } => planio::run_fuzz(*count, *seed, args.threads),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<PlanArgs, String> {
        parse_plan_args(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn defaults_are_the_thesis_seed_and_one_thread() {
        assert_eq!(
            parse(&["--corpus"]),
            Ok(PlanArgs {
                mode: Mode::Corpus { seed: 2003 },
                threads: 1
            })
        );
        assert_eq!(
            parse(&["--fuzz", "3"]).map(|a| a.mode),
            Ok(Mode::Fuzz {
                count: 3,
                seed: 2003
            })
        );
    }

    #[test]
    fn explicit_seed_and_threads_parse() {
        assert_eq!(
            parse(&["plans/storm.toml", "--seed", "7", "--threads", "4"]),
            Ok(PlanArgs {
                mode: Mode::File {
                    path: "plans/storm.toml".to_owned(),
                    seed: Some(7)
                },
                threads: 4
            })
        );
    }

    #[test]
    fn zero_threads_resolves_to_cores() {
        let args = parse(&["--corpus", "--threads", "0"]).expect("parses");
        assert!(args.threads >= 1);
    }

    #[test]
    fn missing_values_and_unknown_flags_are_errors() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--corpus", "--seed"]).is_err());
        assert!(parse(&["--corpus", "--threads", "x"]).is_err());
        assert!(parse(&["--fuzz"]).is_err());
        assert!(parse(&["--corpus", "--frobnicate"]).is_err());
    }

    /// A second mode is rejected with the usage message, in either order.
    #[test]
    fn a_second_mode_is_an_error() {
        for args in [
            &["a.toml", "--corpus"][..],
            &["--corpus", "a.toml"],
            &["a.toml", "b.toml"],
            &["--fuzz", "2", "--corpus"],
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.ends_with(USAGE), "{args:?}: {err}");
        }
    }

    /// Without `--seed`, a plan file runs at its own seed, so a lock that
    /// does not match that seed's bytes fails instead of being cleared by
    /// a rebase onto 2003.
    #[test]
    fn file_mode_runs_the_plans_own_seed() {
        let chaos = include_str!("../plans/chaos.toml");
        let lock = chaos
            .lines()
            .find(|l| l.starts_with("artifact_fnv1a"))
            .expect("chaos.toml locks its artifact");
        let copy = chaos
            .replace("seed = 2003", "seed = 7")
            .replace(lock, "artifact_fnv1a = \"0x1\"");

        let args = parse(&["copy.toml"]).expect("parses");
        let Mode::File { seed, .. } = args.mode else {
            panic!("file mode expected");
        };
        assert_eq!(seed, None);
        let err = planio::run_corpus_plan(&copy, "copy.toml", seed, 1).unwrap_err();
        assert!(err.contains("\"artifact_fnv1a\""), "{err}");
        // Naming the file's seed explicitly is the same run.
        assert!(planio::run_corpus_plan(&copy, "copy.toml", Some(7), 1).is_err());
    }
}
