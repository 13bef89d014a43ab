//! Cross-release drift detection: diffs two archived snapshots and
//! reports plan drift, bench drift and mutation-kill-rate drift in one
//! report.
//!
//! A *snapshot* is a directory of artifacts the bins already emit —
//! `magic explain --json` streams (`*.jsonl`, usually archived under
//! `results/archive/<git_sha>/`), `bench` reports and `verify`
//! summaries (`*.json`). [`diff_snapshots`] pairs files by name and
//! diffs each pair with a format-aware comparison:
//!
//! * **explain streams** — every `plan.*` event field (strategy,
//!   constants, provenance) and every `simcpu.plan_cycles` total is
//!   extracted into a flat summary; any difference is plan drift and a
//!   regression (a plan must never change silently between releases);
//! * **bench reports** — rows matched by name, `ns_per_op` growth
//!   beyond the threshold is bench drift (v1 flat arrays and v2
//!   objects alike; two single reports diff the same way);
//! * **verify summaries** — a mutation kill-rate drop, new mismatches
//!   or new surviving mutants are mutation drift;
//! * **calibration reports** — rank-correlation movement beyond 0.05
//!   is reported as a note (informational, host-dependent);
//! * **metric expositions** (`*.prom`, as served by `magic metrics`) —
//!   any sample-value movement between two expositions is metrics
//!   drift; series appearing or disappearing are notes;
//! * **black-box dumps** (`blackbox_*.jsonl`, written by the flight
//!   recorder) ride the `.jsonl` path: every `guard.*`/`cache.*` event
//!   field is replayed into the same flat summary as `plan.*` events,
//!   so two dumps of the same fixed-seed run must agree exactly.
//!
//! Identical snapshots (e.g. two runs of the same build) produce an
//! empty report — `scripts/check.sh` gates on exactly that.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{parse, Json};

/// Which longitudinal signal a finding belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftKind {
    /// A plan's strategy, constants or provenance changed.
    Plan,
    /// A benchmark row regressed beyond the threshold.
    Bench,
    /// The mutation oracle got weaker (kill rate, survivors, mismatches).
    Mutation,
    /// The chaos harness's fault accounting moved between fixed-seed
    /// runs, or the candidate reports silently wrong quotients.
    Chaos,
    /// A metric exposition sample moved between two scrapes.
    Metrics,
    /// Informational: files added/removed, calibration movement.
    Note,
}

impl DriftKind {
    /// Short label for report rendering.
    pub fn label(&self) -> &'static str {
        match self {
            DriftKind::Plan => "plan",
            DriftKind::Bench => "bench",
            DriftKind::Mutation => "mutation",
            DriftKind::Chaos => "chaos",
            DriftKind::Metrics => "metrics",
            DriftKind::Note => "note",
        }
    }
}

/// One observed difference between the two snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftFinding {
    /// Signal classification.
    pub kind: DriftKind,
    /// Snapshot file the finding came from.
    pub file: String,
    /// What changed, `key: old -> new` style.
    pub what: String,
    /// Whether this finding should fail a release gate.
    pub regression: bool,
}

/// The full diff of two snapshots.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DriftReport {
    /// Every finding, in deterministic (file, key) order.
    pub findings: Vec<DriftFinding>,
    /// How many file pairs were compared.
    pub files_compared: usize,
}

impl DriftReport {
    /// Number of regression-grade findings.
    pub fn regressions(&self) -> usize {
        self.findings.iter().filter(|f| f.regression).count()
    }

    /// Renders the report as text, one line per finding.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{} [{}] {}: {}\n",
                if f.regression { "DRIFT" } else { "note " },
                f.kind.label(),
                f.file,
                f.what
            ));
        }
        out.push_str(&format!(
            "{} file pairs compared, {} findings, {} regressions\n",
            self.files_compared,
            self.findings.len(),
            self.regressions()
        ));
        out
    }
}

fn push(report: &mut DriftReport, kind: DriftKind, file: &str, what: String, regression: bool) {
    report.findings.push(DriftFinding {
        kind,
        file: file.to_string(),
        what,
        regression,
    });
}

/// Flattens one explain JSONL stream (or flight-recorder black-box
/// dump) into `key -> rendered value`: every field of every `plan.*`,
/// `guard.*` and `cache.*` event (keyed by event name, occurrence index
/// and field key) plus every `simcpu.plan_cycles` total keyed by model
/// name. Non-event lines — spans, the black-box header — are skipped.
fn plan_summary(jsonl: &str) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    for (i, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let doc = parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if doc.get("type").and_then(Json::as_str) != Some("event") {
            continue;
        }
        let Some(name) = doc.get("name").and_then(Json::as_str) else {
            continue;
        };
        let Some(Json::Obj(fields)) = doc.get("fields") else {
            continue;
        };
        if name == "simcpu.plan_cycles" {
            let model = fields
                .get("model")
                .and_then(Json::as_str)
                .unwrap_or("unknown");
            if let Some(cycles) = fields.get("cycles").and_then(Json::as_f64) {
                out.insert(format!("cycles[{model}]"), format!("{cycles}"));
            }
            if let Some(strategy) = fields.get("strategy").and_then(Json::as_str) {
                out.insert("strategy".to_string(), strategy.to_string());
            }
        } else if name.starts_with("plan.")
            || name.starts_with("guard.")
            || name.starts_with("cache.")
        {
            let occ = seen.entry(name.to_string()).or_insert(0);
            for (key, value) in fields {
                out.insert(format!("{name}#{occ}.{key}"), render(value));
            }
            *occ += 1;
        }
    }
    Ok(out)
}

fn render(v: &Json) -> String {
    match v {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => format!("{n}"),
        Json::Str(s) => s.clone(),
        Json::Arr(items) => format!(
            "[{}]",
            items.iter().map(render).collect::<Vec<_>>().join(",")
        ),
        Json::Obj(map) => format!(
            "{{{}}}",
            map.iter()
                .map(|(k, v)| format!("{k}:{}", render(v)))
                .collect::<Vec<_>>()
                .join(",")
        ),
    }
}

fn diff_plan_streams(report: &mut DriftReport, file: &str, a: &str, b: &str) {
    let (sa, sb) = match (plan_summary(a), plan_summary(b)) {
        (Ok(sa), Ok(sb)) => (sa, sb),
        (Err(e), _) | (_, Err(e)) => {
            push(
                report,
                DriftKind::Note,
                file,
                format!("unparseable explain stream: {e}"),
                false,
            );
            return;
        }
    };
    for (key, va) in &sa {
        match sb.get(key) {
            Some(vb) if va == vb => {}
            Some(vb) => push(
                report,
                DriftKind::Plan,
                file,
                format!("{key}: {va} -> {vb}"),
                true,
            ),
            None => push(
                report,
                DriftKind::Plan,
                file,
                format!("{key}: {va} -> (gone)"),
                true,
            ),
        }
    }
    for (key, vb) in &sb {
        if !sa.contains_key(key) {
            push(
                report,
                DriftKind::Plan,
                file,
                format!("{key}: (new) -> {vb}"),
                true,
            );
        }
    }
}

/// `name -> ns_per_op` from a v1 (flat array) or v2 (`rows` member)
/// bench report.
fn bench_rows(doc: &Json) -> Option<BTreeMap<String, f64>> {
    let rows = match doc {
        Json::Arr(rows) => rows.as_slice(),
        Json::Obj(_) => doc.get("rows")?.as_arr()?,
        _ => return None,
    };
    let mut out = BTreeMap::new();
    for row in rows {
        let name = row.get("name")?.as_str()?;
        let ns = row.get("ns_per_op")?.as_f64()?;
        out.insert(name.to_string(), ns);
    }
    Some(out)
}

fn diff_bench(report: &mut DriftReport, file: &str, a: &Json, b: &Json, threshold_pct: f64) {
    let (Some(ra), Some(rb)) = (bench_rows(a), bench_rows(b)) else {
        push(
            report,
            DriftKind::Note,
            file,
            "bench report without rows".to_string(),
            false,
        );
        return;
    };
    for (name, &old_ns) in &ra {
        let Some(&new_ns) = rb.get(name) else {
            push(
                report,
                DriftKind::Note,
                file,
                format!("bench row {name} gone"),
                false,
            );
            continue;
        };
        if old_ns <= 0.0 {
            continue;
        }
        let pct = (new_ns - old_ns) / old_ns * 100.0;
        if pct > threshold_pct {
            push(
                report,
                DriftKind::Bench,
                file,
                format!("{name}: {old_ns:.3} -> {new_ns:.3} ns/op ({pct:+.1}%)"),
                true,
            );
        }
    }
}

fn diff_verify(report: &mut DriftReport, file: &str, a: &Json, b: &Json) {
    let get = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_f64);
    if let (Some(ka), Some(kb)) = (get(a, "kill_rate"), get(b, "kill_rate")) {
        if kb + 1e-9 < ka {
            push(
                report,
                DriftKind::Mutation,
                file,
                format!("kill_rate: {ka:.6} -> {kb:.6}"),
                true,
            );
        }
    }
    if let (Some(ma), Some(mb)) = (get(a, "mismatches"), get(b, "mismatches")) {
        if mb > ma {
            push(
                report,
                DriftKind::Mutation,
                file,
                format!("mismatches: {ma} -> {mb}"),
                true,
            );
        }
    }
    let survived = |doc: &Json| {
        doc.get("mutants")
            .and_then(|m| m.get("survived"))
            .and_then(Json::as_f64)
    };
    if let (Some(sa), Some(sb)) = (survived(a), survived(b)) {
        if sb > sa {
            push(
                report,
                DriftKind::Mutation,
                file,
                format!("surviving mutants: {sa} -> {sb}"),
                true,
            );
        }
    }
}

fn diff_calibration(report: &mut DriftReport, file: &str, a: &Json, b: &Json) {
    let scores = |doc: &Json| -> BTreeMap<String, f64> {
        doc.get("models")
            .and_then(Json::as_arr)
            .map(|models| {
                models
                    .iter()
                    .filter_map(|m| {
                        Some((
                            m.get("model")?.as_str()?.to_string(),
                            m.get("rank_correlation")?.as_f64()?,
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let (sa, sb) = (scores(a), scores(b));
    for (model, ra) in &sa {
        if let Some(rb) = sb.get(model) {
            if (ra - rb).abs() > 0.05 {
                push(
                    report,
                    DriftKind::Note,
                    file,
                    format!("rank correlation [{model}]: {ra:.4} -> {rb:.4}"),
                    false,
                );
            }
        }
    }
}

/// The counters a fixed-seed chaos run must reproduce exactly: the
/// injection schedule is deterministic, so any movement means the
/// guard/cache behaviour changed between the two revisions.
const CHAOS_COUNTERS: [&str; 7] = [
    "injected",
    "detected_degraded",
    "typed_faults",
    "silent_wrong",
    "guard_demotions",
    "cache_poisoned",
    "cache_lock_poisoned",
];

fn diff_chaos(report: &mut DriftReport, file: &str, a: &Json, b: &Json) {
    let num = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_f64);
    // A candidate with silently wrong quotients is a regression even if
    // the baseline was equally broken — this gate has zero tolerance.
    if let Some(sw) = num(b, "silent_wrong") {
        if sw > 0.0 {
            push(
                report,
                DriftKind::Chaos,
                file,
                format!("candidate reports {sw} silently wrong quotients"),
                true,
            );
        }
    }
    for key in CHAOS_COUNTERS {
        if let (Some(va), Some(vb)) = (num(a, key), num(b, key)) {
            if va != vb {
                push(
                    report,
                    DriftKind::Chaos,
                    file,
                    format!("{key}: {va} -> {vb}"),
                    true,
                );
            }
        }
    }
    if num(a, "seed") != num(b, "seed") {
        push(
            report,
            DriftKind::Note,
            file,
            "chaos runs used different seeds; counter comparison is informational".to_string(),
            false,
        );
    }
}

/// Parses a Prometheus-style text exposition into `series -> value`:
/// one entry per sample line (`name{labels} value`), comments and blank
/// lines skipped. Values keep their rendered text so integer samples
/// compare exactly.
fn exposition_series(text: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((series, value)) = line.rsplit_once(' ') {
            out.insert(series.to_string(), value.to_string());
        }
    }
    out
}

/// Diffs two metric expositions (`magic metrics` output). Any value
/// movement on a shared series is metrics drift; series appearing or
/// disappearing are notes (new instrumentation is not a regression).
fn diff_expositions(report: &mut DriftReport, file: &str, a: &str, b: &str) {
    let (sa, sb) = (exposition_series(a), exposition_series(b));
    for (series, va) in &sa {
        match sb.get(series) {
            Some(vb) if va == vb => {}
            Some(vb) => push(
                report,
                DriftKind::Metrics,
                file,
                format!("{series}: {va} -> {vb}"),
                true,
            ),
            None => push(
                report,
                DriftKind::Note,
                file,
                format!("{series}: {va} -> (gone)"),
                false,
            ),
        }
    }
    for (series, vb) in &sb {
        if !sa.contains_key(series) {
            push(
                report,
                DriftKind::Note,
                file,
                format!("{series}: (new) -> {vb}"),
                false,
            );
        }
    }
}

fn diff_json_pair(report: &mut DriftReport, file: &str, a: &str, b: &str, threshold_pct: f64) {
    let (da, db) = match (parse(a), parse(b)) {
        (Ok(da), Ok(db)) => (da, db),
        (Err(e), _) | (_, Err(e)) => {
            push(
                report,
                DriftKind::Note,
                file,
                format!("unparseable report: {e}"),
                false,
            );
            return;
        }
    };
    // Classify by shape: chaos reports carry scenarios+silent_wrong,
    // verify summaries carry kill_rate, calibration reports carry
    // models+cells, anything with rows is a bench report.
    let is_chaos = da.get("scenarios").is_some() && da.get("silent_wrong").is_some();
    let is_verify = da.get("kill_rate").is_some() || db.get("kill_rate").is_some();
    let is_calibration = da.get("models").is_some() && da.get("cells").is_some();
    if is_chaos {
        diff_chaos(report, file, &da, &db);
    } else if is_verify {
        diff_verify(report, file, &da, &db);
    } else if is_calibration {
        diff_calibration(report, file, &da, &db);
    } else {
        diff_bench(report, file, &da, &db, threshold_pct);
    }
}

fn snapshot_files(dir: &Path) -> Result<BTreeMap<String, std::path::PathBuf>, String> {
    let mut out = BTreeMap::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        if !path.is_file() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().to_string();
        if name.ends_with(".jsonl") || name.ends_with(".json") || name.ends_with(".prom") {
            out.insert(name, path);
        }
    }
    Ok(out)
}

/// Reads one file pair and diffs it by format (chosen from `name`'s
/// extension).
fn diff_pair(
    report: &mut DriftReport,
    name: &str,
    pa: &Path,
    pb: &Path,
    threshold_pct: f64,
) -> Result<(), String> {
    let ca = std::fs::read_to_string(pa).map_err(|e| format!("{}: {e}", pa.display()))?;
    let cb = std::fs::read_to_string(pb).map_err(|e| format!("{}: {e}", pb.display()))?;
    report.files_compared += 1;
    if ca == cb {
        return Ok(()); // byte-identical: nothing can have drifted
    }
    if name.ends_with(".jsonl") {
        diff_plan_streams(report, name, &ca, &cb);
    } else if name.ends_with(".prom") {
        diff_expositions(report, name, &ca, &cb);
    } else {
        diff_json_pair(report, name, &ca, &cb, threshold_pct);
    }
    Ok(())
}

/// Diffs two snapshots: two directories, whose files are paired by
/// name, or two single files (e.g. two `bench` reports), diffed as one
/// pair whose format follows the baseline's name. Bench rows may
/// regress up to `threshold_pct` percent before they count; plan and
/// mutation drift have no tolerance.
///
/// # Errors
///
/// When either directory cannot be listed or a paired file cannot be
/// read. Unparseable *contents* become [`DriftKind::Note`] findings
/// instead, so one corrupt artifact does not hide drift in the rest.
pub fn diff_snapshots(a: &Path, b: &Path, threshold_pct: f64) -> Result<DriftReport, String> {
    let mut report = DriftReport::default();
    if a.is_file() && b.is_file() {
        diff_pair(&mut report, &a.display().to_string(), a, b, threshold_pct)?;
        return Ok(report);
    }
    let (fa, fb) = (snapshot_files(a)?, snapshot_files(b)?);
    for (name, pa) in &fa {
        let Some(pb) = fb.get(name) else {
            push(
                &mut report,
                DriftKind::Note,
                name,
                "only in baseline snapshot".to_string(),
                false,
            );
            continue;
        };
        diff_pair(&mut report, name, pa, pb, threshold_pct)?;
    }
    for name in fb.keys() {
        if !fa.contains_key(name) {
            push(
                &mut report,
                DriftKind::Note,
                name,
                "only in candidate snapshot".to_string(),
                false,
            );
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{explain_jsonl, ExplainShape};

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("magicdiv_drift_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn identical_snapshots_report_zero_drift() {
        let a = tmpdir("ident_a");
        let b = tmpdir("ident_b");
        let stream = explain_jsonl(ExplainShape::Unsigned, 32, 7).expect("explain");
        std::fs::write(a.join("explain_unsigned_w32_d7.jsonl"), &stream).expect("write");
        std::fs::write(b.join("explain_unsigned_w32_d7.jsonl"), &stream).expect("write");
        let report = diff_snapshots(&a, &b, 10.0).expect("diff");
        assert_eq!(report.files_compared, 1);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.regressions(), 0);
    }

    #[test]
    fn a_strategy_change_is_plan_drift() {
        let a = tmpdir("plan_a");
        let b = tmpdir("plan_b");
        let stream = explain_jsonl(ExplainShape::Unsigned, 32, 7).expect("explain");
        // Seed a plan change: the release "lost" the add-shift fallback.
        let doctored = stream.replace("mul_add_shift", "mul_shift");
        assert_ne!(stream, doctored, "seeding failed");
        std::fs::write(a.join("explain.jsonl"), &stream).expect("write");
        std::fs::write(b.join("explain.jsonl"), &doctored).expect("write");
        let report = diff_snapshots(&a, &b, 10.0).expect("diff");
        assert!(report.regressions() > 0, "{report:?}");
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.kind == DriftKind::Plan && f.what.contains("mul_add_shift")),
            "{report:?}"
        );
    }

    #[test]
    fn predicted_cycle_movement_is_plan_drift() {
        let a = tmpdir("cyc_a");
        let b = tmpdir("cyc_b");
        let stream = explain_jsonl(ExplainShape::Dword, 32, 10).expect("explain");
        let doctored = stream.replacen("\"cycles\":", "\"cycles\":9", 1);
        std::fs::write(a.join("e.jsonl"), &stream).expect("write");
        std::fs::write(b.join("e.jsonl"), &doctored).expect("write");
        let report = diff_snapshots(&a, &b, 10.0).expect("diff");
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.kind == DriftKind::Plan && f.what.contains("cycles[")),
            "{report:?}"
        );
    }

    #[test]
    fn bench_regression_beyond_threshold_is_flagged() {
        let a = tmpdir("bench_a");
        let b = tmpdir("bench_b");
        let base = r#"[{"name": "u32/scalar/7", "ns_per_op": 1.0}, {"name": "u32/batch/7", "ns_per_op": 0.5}]"#;
        let cand = r#"[{"name": "u32/scalar/7", "ns_per_op": 1.3}, {"name": "u32/batch/7", "ns_per_op": 0.5}]"#;
        std::fs::write(a.join("bench.json"), base).expect("write");
        std::fs::write(b.join("bench.json"), cand).expect("write");
        let report = diff_snapshots(&a, &b, 10.0).expect("diff");
        assert_eq!(report.regressions(), 1, "{report:?}");
        assert!(report.findings[0].what.contains("u32/scalar/7"));
        // A generous threshold absorbs the same movement.
        let relaxed = diff_snapshots(&a, &b, 50.0).expect("diff");
        assert_eq!(relaxed.regressions(), 0, "{relaxed:?}");
    }

    #[test]
    fn kill_rate_drop_is_mutation_drift() {
        let a = tmpdir("kill_a");
        let b = tmpdir("kill_b");
        let base = r#"{"status":"ok","kill_rate":1.0,"mismatches":0,"mutants":{"total":100,"killed":98,"equivalent":2,"survived":0}}"#;
        let cand = r#"{"status":"ok","kill_rate":0.97,"mismatches":0,"mutants":{"total":100,"killed":95,"equivalent":2,"survived":3}}"#;
        std::fs::write(a.join("verify.json"), base).expect("write");
        std::fs::write(b.join("verify.json"), cand).expect("write");
        let report = diff_snapshots(&a, &b, 10.0).expect("diff");
        assert!(report.regressions() >= 2, "{report:?}"); // kill_rate + survivors
        assert!(report
            .findings
            .iter()
            .all(|f| f.kind == DriftKind::Mutation));
    }

    #[test]
    fn chaos_counter_movement_is_chaos_drift() {
        let a = tmpdir("chaos_a");
        let b = tmpdir("chaos_b");
        let base = r#"{"version":1,"seed":7,"scenarios":[{"name":"plan-bit-flip","injected":12}],"injected":12,"detected_degraded":10,"typed_faults":2,"silent_wrong":0,"guard_demotions":10,"cache_poisoned":3,"cache_lock_poisoned":1}"#;
        let cand = base.replace("\"guard_demotions\":10", "\"guard_demotions\":11");
        assert_ne!(base, cand, "seeding failed");
        std::fs::write(a.join("chaos.json"), base).expect("write");
        std::fs::write(b.join("chaos.json"), &cand).expect("write");
        let report = diff_snapshots(&a, &b, 10.0).expect("diff");
        assert_eq!(report.regressions(), 1, "{report:?}");
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == DriftKind::Chaos && f.what.contains("guard_demotions")));
    }

    #[test]
    fn silently_wrong_quotients_in_candidate_are_zero_tolerance() {
        let a = tmpdir("silent_a");
        let b = tmpdir("silent_b");
        let base = r#"{"version":1,"seed":7,"scenarios":[],"injected":5,"silent_wrong":0}"#;
        let cand = r#"{"version":1,"seed":7,"scenarios":[],"injected":5,"silent_wrong":2}"#;
        std::fs::write(a.join("chaos.json"), base).expect("write");
        std::fs::write(b.join("chaos.json"), cand).expect("write");
        let report = diff_snapshots(&a, &b, 10.0).expect("diff");
        assert!(report.regressions() >= 1, "{report:?}");
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == DriftKind::Chaos && f.what.contains("silently wrong")));
    }

    #[test]
    fn exposition_value_movement_is_metrics_drift() {
        let a = tmpdir("expo_a");
        let b = tmpdir("expo_b");
        let base = "# TYPE magicdiv_cache_hit counter\nmagicdiv_cache_hit 10\n\
                    magicdiv_req{d=\"7\"} 3\n";
        let cand = "# TYPE magicdiv_cache_hit counter\nmagicdiv_cache_hit 12\n\
                    magicdiv_req{d=\"10\"} 3\n";
        std::fs::write(a.join("metrics.prom"), base).expect("write");
        std::fs::write(b.join("metrics.prom"), cand).expect("write");
        let report = diff_snapshots(&a, &b, 10.0).expect("diff");
        assert_eq!(report.regressions(), 1, "{report:?}");
        assert!(report.findings.iter().any(
            |f| f.kind == DriftKind::Metrics && f.what.contains("magicdiv_cache_hit: 10 -> 12")
        ));
        // Series churn (d="7" gone, d="10" new) is informational.
        assert_eq!(
            report
                .findings
                .iter()
                .filter(|f| f.kind == DriftKind::Note)
                .count(),
            2,
            "{report:?}"
        );
        // Identical expositions short-circuit to zero findings.
        std::fs::write(b.join("metrics.prom"), base).expect("write");
        let clean = diff_snapshots(&a, &b, 10.0).expect("diff");
        assert!(clean.findings.is_empty(), "{clean:?}");
    }

    #[test]
    fn blackbox_guard_events_are_replayed_as_plan_summary_keys() {
        let a = tmpdir("bb_a");
        let b = tmpdir("bb_b");
        let base = "{\"type\":\"blackbox\",\"trigger\":\"guard.demotion\",\"events\":2,\"dropped\":0}\n\
                    {\"seq\":1,\"type\":\"event\",\"depth\":0,\"thread\":1,\"name\":\"cache.hit\",\"fields\":{\"width\":32,\"d_bits\":7}}\n\
                    {\"seq\":2,\"type\":\"event\",\"depth\":0,\"thread\":1,\"name\":\"guard.demotion\",\"fields\":{\"shape\":\"unsigned\",\"width\":32,\"d\":7,\"why\":\"x\"}}\n";
        let cand = base.replace("\"d\":7", "\"d\":10");
        assert_ne!(base, cand, "seeding failed");
        std::fs::write(a.join("blackbox_0_guard_demotion.jsonl"), base).expect("write");
        std::fs::write(b.join("blackbox_0_guard_demotion.jsonl"), &cand).expect("write");
        let report = diff_snapshots(&a, &b, 10.0).expect("diff");
        assert!(report.regressions() >= 1, "{report:?}");
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.kind == DriftKind::Plan && f.what.contains("guard.demotion#0.d")),
            "{report:?}"
        );
    }

    #[test]
    fn added_and_removed_files_are_notes_not_regressions() {
        let a = tmpdir("files_a");
        let b = tmpdir("files_b");
        std::fs::write(a.join("only_a.jsonl"), "").expect("write");
        std::fs::write(b.join("only_b.json"), "{}").expect("write");
        let report = diff_snapshots(&a, &b, 10.0).expect("diff");
        assert_eq!(report.regressions(), 0, "{report:?}");
        assert_eq!(report.findings.len(), 2);
        assert!(report.findings.iter().all(|f| f.kind == DriftKind::Note));
    }
}
