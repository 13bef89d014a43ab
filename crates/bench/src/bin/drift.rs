//! `drift` — cross-release drift reports over archived snapshots and
//! the run ledger.
//!
//! Three modes:
//!
//! * `drift <baseline_dir> <candidate_dir> [threshold_pct=10]` — diffs
//!   two archive snapshots (e.g. `results/archive/<sha>` from two
//!   releases): plan drift from `magic explain --json` streams (and
//!   black-box dump `.jsonl` files — their `guard.*`/`cache.*` events
//!   replay as comparable keys), metric drift from `magic metrics`
//!   `.prom` expositions, bench drift from bench reports (a row
//!   regresses when its `ns_per_op` grew by more than the threshold),
//!   and mutation-kill-rate drift from verify summaries — one combined
//!   report. When both arguments are files (e.g. two `bench` reports,
//!   v1 or v2), the pair is diffed the same way on its own.
//! * `drift check-ledger <ledger.jsonl>` — validates every record of a
//!   run ledger against the v1 schema.
//! * `drift ledger <ledger.jsonl> <sha_a> <sha_b>` — compares the
//!   aggregated run metrics the ledger recorded at two revisions
//!   (summed counters per SHA) as an informational delta table.
//!
//! Exit status: 0 clean, 1 when any regression-grade drift is found,
//! 2 on usage, I/O or schema errors.

use std::collections::BTreeMap;
use std::path::Path;

use magicdiv_bench::json::Json;
use magicdiv_bench::{diff_snapshots, read_ledger, render_table, LedgerRecord, RunLedger};

fn die(msg: &str) -> ! {
    eprintln!("drift: {msg}");
    std::process::exit(2)
}

fn usage() -> ! {
    die(
        "usage:\n  drift <baseline_dir> <candidate_dir> [threshold_pct=10]\n  \
         drift <baseline_file> <candidate_file> [threshold_pct=10]\n  \
         drift check-ledger <ledger.jsonl>\n  \
         drift ledger <ledger.jsonl> <sha_a> <sha_b>\n\
         snapshot dirs may hold .jsonl streams, .prom expositions and .json reports",
    )
}

fn mode_snapshots(base: &str, cand: &str, threshold: Option<&String>) -> i32 {
    let threshold_pct: f64 = match threshold {
        None => 10.0,
        Some(s) => match s.parse() {
            Ok(t) if t >= 0.0 => t,
            _ => die(&format!(
                "threshold must be a non-negative percentage, got {s:?}"
            )),
        },
    };
    let report =
        diff_snapshots(Path::new(base), Path::new(cand), threshold_pct).unwrap_or_else(|e| die(&e));
    println!("baseline:  {base}");
    println!("candidate: {cand}");
    println!("bench threshold: +{threshold_pct}%");
    println!();
    print!("{}", report.render_text());
    i32::from(report.regressions() > 0)
}

fn mode_check_ledger(path: &str) -> i32 {
    let records = read_ledger(Path::new(path)).unwrap_or_else(|e| die(&e));
    let mut by_bin: BTreeMap<&str, usize> = BTreeMap::new();
    for r in &records {
        *by_bin.entry(r.bin.as_str()).or_insert(0) += 1;
    }
    println!("{path}: {} records, all valid (schema v1)", records.len());
    for (bin, n) in by_bin {
        println!("  {bin}: {n}");
    }
    0
}

/// Sums every counter across all of a revision's ledger records.
fn counters_at(records: &[LedgerRecord], sha: &str) -> Option<BTreeMap<String, f64>> {
    let mut out = BTreeMap::new();
    let mut seen = false;
    for r in records.iter().filter(|r| r.git_sha.starts_with(sha)) {
        seen = true;
        if let Some(Json::Obj(counters)) = r.metrics.get("counters") {
            for (name, v) in counters {
                if let Some(v) = v.as_f64() {
                    *out.entry(name.clone()).or_insert(0.0) += v;
                }
            }
        }
    }
    seen.then_some(out)
}

fn mode_ledger(path: &str, sha_a: &str, sha_b: &str) -> i32 {
    let records = read_ledger(Path::new(path)).unwrap_or_else(|e| die(&e));
    let ca = counters_at(&records, sha_a)
        .unwrap_or_else(|| die(&format!("no ledger records for revision {sha_a:?}")));
    let cb = counters_at(&records, sha_b)
        .unwrap_or_else(|| die(&format!("no ledger records for revision {sha_b:?}")));
    let mut names: Vec<&String> = ca.keys().chain(cb.keys()).collect();
    names.sort();
    names.dedup();
    let rows: Vec<Vec<String>> = names
        .into_iter()
        .map(|name| {
            let a = ca.get(name).copied();
            let b = cb.get(name).copied();
            vec![
                name.clone(),
                a.map_or("-".to_string(), |v| format!("{v}")),
                b.map_or("-".to_string(), |v| format!("{v}")),
            ]
        })
        .collect();
    println!("ledger: {path}");
    println!("summed counters, {sha_a} vs {sha_b}:");
    println!();
    print!("{}", render_table(&["counter", sha_a, sha_b], &rows));
    0
}

fn main() {
    let run = RunLedger::start("drift");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("check-ledger") => match args.get(1) {
            Some(path) => mode_check_ledger(path),
            None => usage(),
        },
        Some("ledger") => match (args.get(1), args.get(2), args.get(3)) {
            (Some(path), Some(a), Some(b)) => mode_ledger(path, a, b),
            _ => usage(),
        },
        Some(base) => match args.get(1) {
            Some(cand) => mode_snapshots(base, cand, args.get(2)),
            None => usage(),
        },
        None => usage(),
    };
    if let Err(e) = run.finish() {
        eprintln!("drift: warning: could not append ledger record: {e}");
    }
    std::process::exit(code);
}
