//! End-to-end tests for the `drift` bin: real archive snapshots on
//! disk, the real executable, real exit codes.
//!
//! The acceptance case for the observatory: seed a plan change between
//! two archived snapshots and the diff must report it and exit nonzero.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use magicdiv_bench::{explain_jsonl, ExplainShape};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("magicdiv_driftbin_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Runs the drift bin with the run ledger silenced, so tests never
/// append to the repository's real `results/ledger.jsonl`.
fn drift(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_drift"))
        .args(args)
        .env("MAGICDIV_LEDGER", "off")
        .env("MAGICDIV_ARCHIVE", "off")
        .output()
        .expect("spawn drift")
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("utf-8 path")
}

#[test]
fn identical_snapshots_exit_zero() {
    let a = tmpdir("same_a");
    let b = tmpdir("same_b");
    let stream = explain_jsonl(ExplainShape::Unsigned, 32, 7).expect("explain");
    std::fs::write(a.join("explain_unsigned_w32_d7.jsonl"), &stream).expect("write");
    std::fs::write(b.join("explain_unsigned_w32_d7.jsonl"), &stream).expect("write");
    let out = drift(&[path_str(&a), path_str(&b)]);
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("0 regressions"));
}

#[test]
fn seeded_plan_change_is_reported_with_nonzero_exit() {
    let a = tmpdir("plan_a");
    let b = tmpdir("plan_b");
    let stream = explain_jsonl(ExplainShape::Unsigned, 32, 7).expect("explain");
    // The seeded release regression: d = 7 "lost" its add-fixup plan.
    let doctored = stream.replace("mul_add_shift", "mul_shift");
    assert_ne!(stream, doctored, "d=7 must use mul_add_shift at w=32");
    std::fs::write(a.join("explain_unsigned_w32_d7.jsonl"), &stream).expect("write");
    std::fs::write(b.join("explain_unsigned_w32_d7.jsonl"), &doctored).expect("write");
    let out = drift(&[path_str(&a), path_str(&b)]);
    assert_eq!(out.status.code(), Some(1), "plan drift must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("[plan]") && stdout.contains("mul_add_shift -> mul_shift"),
        "report names the strategy change:\n{stdout}"
    );
}

#[test]
fn bench_regression_respects_threshold() {
    let a = tmpdir("bench_a");
    let b = tmpdir("bench_b");
    std::fs::write(
        a.join("BENCH_division.json"),
        r#"[{"name": "u32/batch/7", "ns_per_op": 0.5}]"#,
    )
    .expect("write");
    std::fs::write(
        b.join("BENCH_division.json"),
        r#"[{"name": "u32/batch/7", "ns_per_op": 0.65}]"#,
    )
    .expect("write");
    // +30% against a 10% threshold: regression.
    let out = drift(&[path_str(&a), path_str(&b), "10"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("[bench]"));
    // The same movement under a 50% threshold: clean.
    let out = drift(&[path_str(&a), path_str(&b), "50"]);
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn bench_report_files_diff_directly() {
    let dir = tmpdir("bench_files");
    let report = |rows: &str| format!(r#"{{"version": 2, "git_sha": "x", "rows": [{rows}]}}"#);
    let base = dir.join("base.json");
    let same = dir.join("same.json");
    let slower = dir.join("slower.json");
    let rows =
        r#"{"name": "u32/batch/7", "ns_per_op": 0.5}, {"name": "u64/scalar/7", "ns_per_op": 1.5}"#;
    std::fs::write(&base, report(rows)).expect("write");
    std::fs::write(&same, report(rows)).expect("write");
    // One row 20% slower, past a 10% threshold.
    let regressed = rows.replace("\"ns_per_op\": 1.5", "\"ns_per_op\": 1.8");
    std::fs::write(&slower, report(&regressed)).expect("write");

    let out = drift(&[path_str(&base), path_str(&same), "10"]);
    assert_eq!(out.status.code(), Some(0), "identical reports are clean");
    let out = drift(&[path_str(&base), path_str(&slower), "10"]);
    assert_eq!(out.status.code(), Some(1), "a 20% regression fails at 10%");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("[bench]") && stdout.contains("u64/scalar/7"),
        "{stdout}"
    );
    assert!(!stdout.contains("u32/batch/7"), "{stdout}");
}

#[test]
fn kill_rate_drop_is_mutation_drift() {
    let a = tmpdir("kill_a");
    let b = tmpdir("kill_b");
    std::fs::write(
        a.join("VERIFY_summary.json"),
        r#"{"status":"ok","kill_rate":1.0,"mutants":{"total":10,"killed":10,"equivalent":0,"survived":0}}"#,
    )
    .expect("write");
    std::fs::write(
        b.join("VERIFY_summary.json"),
        r#"{"status":"ok","kill_rate":0.9,"mutants":{"total":10,"killed":9,"equivalent":0,"survived":1}}"#,
    )
    .expect("write");
    let out = drift(&[path_str(&a), path_str(&b)]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[mutation]"), "{stdout}");
    assert!(stdout.contains("kill_rate"), "{stdout}");
}

#[test]
fn usage_and_missing_dirs_exit_two() {
    let out = drift(&[]);
    assert_eq!(out.status.code(), Some(2));
    let out = drift(&["/nonexistent/a", "/nonexistent/b"]);
    assert_eq!(out.status.code(), Some(2));
    let out = drift(&["check-ledger", "/nonexistent/ledger.jsonl"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn check_ledger_validates_schema() {
    let dir = tmpdir("ledger");
    let good = dir.join("good.jsonl");
    let record = r#"{"version":1,"git_sha":"abc","unix_ms":1,"bin":"bench","args":["500"],"duration_ms":3,"metrics":{"counters":{},"histograms":{}}}"#;
    std::fs::write(&good, format!("{record}\n{record}\n")).expect("write");
    let out = drift(&["check-ledger", path_str(&good)]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("2 records"));

    let bad = dir.join("bad.jsonl");
    std::fs::write(&bad, format!("{record}\n{{\"version\":1}}\n")).expect("write");
    let out = drift(&["check-ledger", path_str(&bad)]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("line 2"),
        "error names the offending line"
    );
}

#[test]
fn ledger_mode_compares_counters_between_revisions() {
    let dir = tmpdir("ledger_range");
    let ledger = dir.join("ledger.jsonl");
    let rec = |sha: &str, n: u64| {
        format!(
            "{{\"version\":1,\"git_sha\":\"{sha}\",\"unix_ms\":1,\"bin\":\"bench\",\"args\":[],\
             \"duration_ms\":3,\"metrics\":{{\"counters\":{{\"events.plan.decision\":{n}}},\
             \"histograms\":{{}}}}}}"
        )
    };
    std::fs::write(
        &ledger,
        format!("{}\n{}\n", rec("aaa111", 4), rec("bbb222", 9)),
    )
    .expect("write");
    let out = drift(&["ledger", path_str(&ledger), "aaa111", "bbb222"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("events.plan.decision"), "{stdout}");
    assert!(stdout.contains('4') && stdout.contains('9'), "{stdout}");
    // Unknown revision: usage-grade error.
    let out = drift(&["ledger", path_str(&ledger), "aaa111", "ccc333"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn check_ledger_rejects_a_truncated_final_line() {
    // The crash-safety contract: `RunLedger::finish` appends each
    // record as one `O_APPEND` write of a full line, so a ledger with a
    // torn final line means a crashed writer (or a lost write), and the
    // checker must fail loudly rather than silently dropping it.
    let dir = tmpdir("ledger_torn");
    let torn = dir.join("torn.jsonl");
    let record = r#"{"version":1,"git_sha":"abc","unix_ms":1,"bin":"bench","args":[],"duration_ms":3,"metrics":{"counters":{},"histograms":{}}}"#;
    // Cut the second record off mid-object, as a crash mid-write would.
    let partial = &record[..record.len() / 2];
    std::fs::write(&torn, format!("{record}\n{partial}")).expect("write");
    let out = drift(&["check-ledger", path_str(&torn)]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("line 2"),
        "error names the torn line: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn chaos_reports_diff_as_chaos_drift() {
    use magicdiv_bench::{run_chaos, ChaosConfig};

    let a = tmpdir("chaos_a");
    let b = tmpdir("chaos_b");
    let cfg = ChaosConfig {
        seed: 99,
        rounds: 2,
    };
    let report = run_chaos(&cfg).to_json();

    // Same seed, same code: byte-identical reports, zero findings.
    std::fs::write(a.join("chaos.json"), &report).expect("write");
    std::fs::write(b.join("chaos.json"), &report).expect("write");
    let out = drift(&[path_str(&a), path_str(&b)]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // A candidate snapshot reporting a silently wrong quotient is a
    // zero-tolerance regression.
    let doctored = report.replace("\"silent_wrong\": 0,", "\"silent_wrong\": 1,");
    assert_ne!(report, doctored);
    std::fs::write(b.join("chaos.json"), &doctored).expect("write");
    let out = drift(&[path_str(&a), path_str(&b)]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("chaos"), "{stdout}");
    assert!(stdout.contains("silently wrong"), "{stdout}");
}
