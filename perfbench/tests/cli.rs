//! The benchmark's own tests: reduced-size runs of every workload emit
//! every metric `BENCHMARK.json` declares, with its unit, and corrupted
//! goldens or hash locks make the run fail instead of passing vacuously.

use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_perfbench");

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\": \"")).expect("key present") + key.len() + 5;
        entry[at..]
            .split('"')
            .next()
            .expect("closing quote")
            .to_owned()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

struct Outcome {
    ok: bool,
    last_line: String,
}

fn run(workload: &str, trace: u8, extra: &[&str]) -> Outcome {
    let out = Command::new(BIN)
        .args([
            "--workload",
            workload,
            "--seed",
            "42",
            "--seconds",
            "0",
            "--small",
        ])
        .args(["--trace", &trace.to_string()])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    Outcome {
        ok: out.status.success(),
        last_line: stdout.lines().last().unwrap_or_default().to_owned(),
    }
}

#[test]
fn small_runs_emit_every_declared_metric() {
    for workload in ["fig42_grid", "corpus_churn", "metro_city"] {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let out = run(workload, trace, &[]);
            assert!(out.ok, "{workload} trace={trace} failed: {}", out.last_line);
            assert!(out
                .last_line
                .starts_with("{\"correct\": true, \"attempted\": "));
            assert!(out.last_line.contains("\"failed\": 0,"));
            for (name, unit) in declared(section) {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = out.last_line.find(&entry).unwrap_or_else(|| {
                    panic!("{workload} trace={trace} lacks {name}: {}", out.last_line)
                });
                let rest = &out.last_line[at + entry.len()..];
                let value = rest.split(',').next().expect("value");
                assert!(value.parse::<f64>().is_ok(), "{name} = {value}");
                assert!(
                    rest.starts_with(&format!("{value}, \"unit\": \"{unit}\"}}")),
                    "{workload} {name} unit is not {unit}"
                );
            }
        }
    }
}

/// A copy of `dir` under the test scratch directory, with `file` edited.
fn corrupted(dir: &Path, name: &str, file: &str, edit: impl Fn(String) -> String) -> PathBuf {
    let copy = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&copy).expect("scratch dir");
    for entry in std::fs::read_dir(dir).expect("source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_file() {
            let text = std::fs::read_to_string(&path).expect("text file");
            let text = if path.file_name().is_some_and(|n| n == file) {
                let edited = edit(text.clone());
                assert_ne!(edited, text, "the edit must change {file}");
                edited
            } else {
                text
            };
            std::fs::write(copy.join(path.file_name().expect("file name")), text).expect("write");
        }
    }
    copy
}

fn assert_fails(out: &Outcome) {
    assert!(!out.ok, "a corrupted expectation must give a non-zero exit");
    assert!(
        out.last_line.starts_with("{\"correct\": false,"),
        "{}",
        out.last_line
    );
    assert!(
        !out.last_line.contains("\"failed\": 0,"),
        "{}",
        out.last_line
    );
}

#[test]
fn corrupted_fig42_golden_fails() {
    let dir = corrupted(
        &repo().join("tests/golden"),
        "golden_fig42",
        "fig4.2.csv",
        |t| t.replacen("1,0,0,0,10", "1,0,0,0,11", 1),
    );
    assert_fails(&run(
        "fig42_grid",
        0,
        &["--golden-dir", dir.to_str().expect("utf-8")],
    ));
}

#[test]
fn corrupted_tcp_golden_fails() {
    let dir = corrupted(
        &repo().join("tests/golden"),
        "golden_tcp",
        "fig4.14.csv",
        |t| t.replacen("0.0,0.000,0.000", "0.0,0.001,0.000", 1),
    );
    assert_fails(&run(
        "corpus_churn",
        0,
        &["--golden-dir", dir.to_str().expect("utf-8")],
    ));
}

#[test]
fn corrupted_plan_hash_lock_fails() {
    // Flip the lock's last hex digit: still a valid hash, now the wrong one.
    let dir = corrupted(
        &repo().join("crates/bench/plans"),
        "plans_lock",
        "vertical.toml",
        |t| {
            let key = "artifact_fnv1a = \"0x";
            let start = t.find(key).expect("vertical.toml carries a lock") + key.len();
            let end = start + t[start..].find('"').expect("closing quote") - 1;
            let flipped = if &t[end..=end] == "0" { "1" } else { "0" };
            format!("{}{flipped}{}", &t[..end], &t[end + 1..])
        },
    );
    assert_fails(&run(
        "corpus_churn",
        1,
        &["--plans-dir", dir.to_str().expect("utf-8")],
    ));
}
