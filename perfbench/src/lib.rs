//! End-to-end and per-layer benchmark of `magicdiv`.
//!
//! One closed-loop client drives one of four seeded workloads through
//! the public APIs: the runtime request path (`PlanCache` →
//! `Guarded*Divisor::from_plan` → `divide`) on `hot_batch`, `hot_scalar`
//! and `divisor_churn`, and the §10 compile path (plan or tournament →
//! IR → legalize → schedule → emit) on `compile_sweep`. Every output is
//! checked against native division. An untraced run reports the
//! end-to-end metrics; a traced run ([`Config::trace`]) records spans
//! around each layer call and reports the per-layer metrics.
//!
//! A run generates its inputs from the seed only, sets them up
//! [`SETUP_REPS`] times (the last set-up is the one used), then cycles
//! through the request pool until the time is up, always completing
//! the first pass: the counts that must repeat exactly are taken over
//! that first pass.

pub mod compile;
pub mod hist;
pub mod inputs;
pub mod runtime;
pub mod spans;

use std::time::{Duration, Instant};

use magicdiv::{fault_budget, CacheStats, PlanCache};
use magicdiv_simcpu::{table_1_1, TimingModel};

use crate::compile::{check_dividends, CodeStats, Compiled};
use crate::hist::Histogram;
use crate::inputs::{
    CompileInputs, CompileRequest, Inputs, RuntimeInputs, Shape, TypedDivisor, Workload,
};
use crate::runtime::{ServeFn, Served, REFERENCE_LEN};
use crate::spans::{Recorder, REQUEST};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// In a traced run, tracing is switched on and off every this long, so
/// traced and untraced requests interleave for `trace.overhead_ratio`.
const TRACE_SEGMENT: Duration = Duration::from_millis(20);

/// The untraced throughput and latency percentiles are measured per
/// window of this length.
const WINDOW: Duration = Duration::from_millis(100);

/// The share of a run's windows that is slower than the window those
/// metrics report. A shared host switches, for seconds to minutes at a
/// time, between a quiet state and contended ones that run this code 1.3
/// to 2 times slower, in shares that change from run to run, so a median
/// or mean over windows moves with the share of each state in the run.
/// Contention of half a second or more shows in most runs, so
/// the slow end of the windows moves least (measured over 16 runs per
/// workload; see `perfbench/README.md`).
const SLOW_SHARE: f64 = 0.02;

/// A traced runtime request runs the reference loops once in this many
/// requests.
const REFERENCE_EVERY: usize = 16;

/// What to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the closed loop runs (the first pass always completes).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count or derivation, for the human-readable report.
    pub note: String,
}

fn metric(name: &str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        note: note.into(),
    }
}

/// The result of a run.
#[derive(Debug)]
pub struct Outcome {
    /// Timed requests, plus the checked compiles of the code sample and
    /// the traced run's probes.
    pub attempted: u64,
    /// Those that returned an error or any wrong result.
    pub failed: u64,
    /// The end-to-end metrics (untraced run) or per-layer ones (traced).
    pub metrics: Vec<Metric>,
    /// The span recorder (empty in an untraced run).
    pub recorder: Recorder,
}

impl Outcome {
    /// Whether every output was right.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The process exit code: non-zero on any failure.
    pub fn exit_code(&self) -> i32 {
        if self.correct() {
            0
        } else {
            1
        }
    }

    /// The value of metric `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// `v` as a JSON number with all its digits (`null` if not finite).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// One request path the closed loop drives.
trait Path {
    type Reply;
    /// Requests in the pool.
    fn pool_len(&self) -> usize;
    /// The timed part of request `i`.
    fn request(&mut self, i: usize, rec: &mut Recorder) -> Self::Reply;
    /// The untimed part: check the reply (and, traced, run reference
    /// work). Returns whether the request failed.
    fn finish(
        &mut self,
        i: usize,
        reply: Self::Reply,
        first_pass: bool,
        rec: &mut Recorder,
    ) -> bool;
    /// Called once, when the first pass over the pool is complete.
    fn first_pass_done(&mut self) {}
}

/// Throughput and latency percentiles of the untraced requests of one
/// [`WINDOW`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct Window {
    requests_per_s: f64,
    p50_us: f64,
    p99_us: f64,
}

impl Window {
    /// `None` when no untraced request completed in the window.
    fn of(h: &Histogram, busy_ns: u64) -> Option<Self> {
        Some(Window {
            requests_per_s: h.count() as f64 / (busy_ns.max(1) as f64 / 1e9),
            p50_us: h.quantile(0.5)? / 1e3,
            p99_us: h.quantile(0.99)? / 1e3,
        })
    }
}

/// What the closed loop measured.
#[derive(Debug, Default)]
struct Loop {
    attempted: u64,
    failed: u64,
    /// Latency of untraced requests.
    untraced: Histogram,
    /// Latency of traced requests.
    traced: Histogram,
    /// Complete windows (or the one partial window of a short run).
    windows: Vec<Window>,
}

/// Runs the closed loop: one request at a time, cycling through the
/// pool until `seconds` have passed and the first pass is complete.
/// With `trace`, tracing toggles every [`TRACE_SEGMENT`].
fn drive<P: Path>(path: &mut P, seconds: f64, trace: bool, rec: &mut Recorder) -> Loop {
    let run_for = Duration::from_secs_f64(seconds);
    let pool = path.pool_len();
    let mut l = Loop::default();
    let start = Instant::now();
    let mut segment = start;
    let mut now = start;
    let (mut window, mut window_h, mut window_ns) = (start, Histogram::default(), 0u64);
    for i in 0.. {
        if i == pool {
            path.first_pass_done();
        }
        if i >= pool && now - start >= run_for {
            break;
        }
        if now - window >= WINDOW {
            l.windows.extend(Window::of(&window_h, window_ns));
            (window, window_h, window_ns) = (now, Histogram::default(), 0);
        }
        if trace && now - segment >= TRACE_SEGMENT {
            rec.set_enabled(!rec.enabled());
            segment = now;
        }
        let idx = i % pool;
        let t0 = Instant::now();
        rec.open(REQUEST);
        let reply = path.request(idx, rec);
        rec.close();
        let t1 = Instant::now();
        let ns = (t1 - t0).as_nanos() as u64;
        if rec.enabled() {
            l.traced.record(ns);
        } else {
            l.untraced.record(ns);
            window_h.record(ns);
            window_ns += ns;
        }
        l.attempted += 1;
        l.failed += u64::from(path.finish(idx, reply, i < pool, rec));
        now = t1;
    }
    if l.windows.is_empty() {
        l.windows.extend(Window::of(&window_h, window_ns));
    }
    rec.set_enabled(false);
    l
}

struct RuntimePath<'a> {
    inputs: &'a RuntimeInputs,
    cache: &'a PlanCache,
    serve: ServeFn,
    out: Vec<u64>,
    first_pass: Option<CacheStats>,
}

impl Path for RuntimePath<'_> {
    type Reply = Result<Served, magicdiv::Fault>;

    fn pool_len(&self) -> usize {
        self.inputs.requests.len()
    }

    fn request(&mut self, i: usize, rec: &mut Recorder) -> Self::Reply {
        let req = &self.inputs.requests[i];
        let served = (self.serve)(self.cache, req.divisor, rec)?;
        runtime::divide(&served, self.inputs.batch(req), &mut self.out, rec);
        Ok(served)
    }

    fn finish(&mut self, i: usize, reply: Self::Reply, _: bool, rec: &mut Recorder) -> bool {
        let req = &self.inputs.requests[i];
        let Ok(served) = reply else { return true };
        let ns = self.inputs.batch(req);
        let wrong = runtime::check(req.divisor, ns, &self.out[..ns.len()]);
        if rec.enabled() && i.is_multiple_of(REFERENCE_EVERY) {
            let window = self.inputs.window(req, REFERENCE_LEN);
            runtime::reference(&served, req.divisor, window, rec);
        }
        wrong > 0
    }

    fn first_pass_done(&mut self) {
        self.first_pass = Some(self.cache.stats());
    }
}

struct CompilePath<'a> {
    inputs: &'a CompileInputs,
    models: &'a [TimingModel],
    code: CodeStats,
}

impl Path for CompilePath<'_> {
    type Reply = Compiled;

    fn pool_len(&self) -> usize {
        self.inputs.requests.len()
    }

    fn request(&mut self, i: usize, rec: &mut Recorder) -> Compiled {
        compile::compile(&self.inputs.requests[i], rec)
    }

    fn finish(&mut self, i: usize, c: Compiled, first_pass: bool, _: &mut Recorder) -> bool {
        let req = &self.inputs.requests[i];
        if first_pass {
            self.code.add(&c, self.models);
        }
        compile::check(req, &c, &check_dividends(req, &self.inputs.check_dividends)) > 0
    }
}

/// Generated inputs plus the state set-up builds from them.
// One set-up exists at a time, so the variants' sizes do not matter.
#[allow(clippy::large_enum_variant)]
enum Setup {
    /// A runtime workload and its warmed cache, with the cache's
    /// counters once set-up finished.
    Runtime(RuntimeInputs, PlanCache, CacheStats),
    /// The compile workload.
    Compile(CompileInputs),
}

/// Generates the inputs and warms the cache: the work `setup_s` times.
fn setup(workload: Workload, seed: u64) -> Setup {
    match Inputs::generate(workload, seed) {
        Inputs::Runtime(inputs) => {
            let cache = PlanCache::new(inputs.params.cache_capacity);
            for &d in &inputs.prefill {
                // Prefill divisors are valid by construction; a failure
                // would resurface as a failed request.
                let _ = runtime::lookup(&cache, d);
            }
            let base = cache.stats();
            Setup::Runtime(inputs, cache, base)
        }
        Inputs::Compile(inputs) => Setup::Compile(inputs),
    }
}

/// The `q`-quantile of `v` (`0 <= q <= 1`), interpolating linearly
/// between neighbours; NaN when `v` is empty.
fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    let Some(last) = v.len().checked_sub(1) else {
        return f64::NAN;
    };
    let rank = q * last as f64;
    let (i, frac) = (rank.floor() as usize, rank.fract());
    match v.get(i + 1) {
        Some(next) => v[i] + (next - v[i]) * frac,
        None => v[i],
    }
}

/// The compile request pricing a runtime divisor's code: its quotient
/// shape at its width, the tournament on every 16th unsigned one.
fn sample_compile_request(d: TypedDivisor, unsigned_seen: &mut u64) -> CompileRequest {
    let (shape, v) = match d {
        TypedDivisor::U32(v) => (Shape::Udiv, i128::from(v)),
        TypedDivisor::U64(v) => (Shape::Udiv, i128::from(v)),
        TypedDivisor::I64(v) => (Shape::Sdiv, i128::from(v)),
    };
    let tournament = shape == Shape::Udiv && {
        *unsigned_seen += 1;
        (*unsigned_seen - 1).is_multiple_of(inputs::TOURNAMENT_EVERY)
    };
    CompileRequest {
        shape,
        width: d.width(),
        d: v,
        tournament,
    }
}

/// Checked work outside the closed loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Checked {
    attempted: u64,
    failed: u64,
}

impl std::ops::AddAssign for Checked {
    fn add_assign(&mut self, o: Checked) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

impl Checked {
    fn add(&mut self, failed: bool) {
        self.attempted += 1;
        self.failed += u64::from(failed);
    }
}

/// Compiles the code of each sample divisor (under `probe` spans),
/// checks and prices it.
fn compile_sample(
    sample: &[TypedDivisor],
    models: &[TimingModel],
    extra: &[u64],
    rec: &mut Recorder,
) -> (CodeStats, Checked) {
    let mut code = CodeStats::default();
    let mut checked = Checked::default();
    let mut unsigned_seen = 0;
    for &d in sample {
        let req = sample_compile_request(d, &mut unsigned_seen);
        rec.open("probe");
        let c = compile::compile(&req, rec);
        rec.close();
        checked.add(compile::check(&req, &c, &check_dividends(&req, extra)) > 0);
        code.add(&c, models);
    }
    (code, checked)
}

/// Probes the runtime layers on each sample divisor, with a cache of
/// its own: a miss, then a hit, each followed by a guarded divide and
/// the reference loops over a window of `dividends`. Returns the probe
/// cache's counters.
fn probe_runtime(
    sample: &[TypedDivisor],
    dividends: &[u64],
    rec: &mut Recorder,
) -> (CacheStats, Checked) {
    let cache = PlanCache::new(4 * sample.len());
    let mut out = vec![0u64; REFERENCE_LEN];
    let mut checked = Checked::default();
    for (i, &d) in sample.iter().enumerate() {
        let start = (i * REFERENCE_LEN) % (dividends.len() - REFERENCE_LEN + 1);
        let window = &dividends[start..start + REFERENCE_LEN];
        rec.open("probe");
        for _ in 0..2 {
            match runtime::serve(&cache, d, rec) {
                Ok(s) => {
                    runtime::divide(&s, window, &mut out, rec);
                    checked.add(runtime::check(d, window, &out) > 0);
                    runtime::reference(&s, d, window, rec);
                }
                Err(_) => checked.add(true),
            }
        }
        rec.close();
    }
    (cache.stats(), checked)
}

fn lookups(s: &CacheStats) -> u64 {
    s.hits + s.misses + s.poisoned + s.lock_poisoned
}

fn delta(a: &CacheStats, b: &CacheStats) -> CacheStats {
    CacheStats {
        hits: b.hits - a.hits,
        misses: b.misses - a.misses,
        poisoned: b.poisoned - a.poisoned,
        lock_poisoned: b.lock_poisoned - a.lock_poisoned,
        evictions: b.evictions - a.evictions,
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs the benchmark.
///
/// # Errors
///
/// When peak memory cannot be read.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    run_with(cfg, runtime::serve)
}

/// [`run`] with the runtime path obtaining its divisors through `serve`
/// (tests inject faults here).
///
/// # Errors
///
/// As [`run`].
pub fn run_with(cfg: &Config, serve: ServeFn) -> Result<Outcome, String> {
    let budget_before = fault_budget().demotions();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let timed_setup = |setup_s: &mut Vec<f64>| {
        let t = Instant::now();
        let set = setup(cfg.workload, cfg.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        set
    };
    let mut set = timed_setup(&mut setup_s);
    for _ in 1..SETUP_REPS {
        // Drop the previous set-up first so each one allocates afresh.
        drop(set);
        set = timed_setup(&mut setup_s);
    }
    let mut rec = Recorder::new(false);

    // Closed loop, then the sample compiles (and, traced, the probes),
    // whose checks count as requests too.
    let models = table_1_1();
    let (l, cache, lock_poisoned, code, probes) = match &set {
        Setup::Runtime(inputs, path_cache, base) => {
            let mut path = RuntimePath {
                inputs,
                cache: path_cache,
                serve,
                out: vec![0; inputs.params.batch_len],
                first_pass: None,
            };
            let l = drive(&mut path, cfg.seconds, cfg.trace, &mut rec);
            let first = path.first_pass.expect("the loop completes a pass");
            rec.set_enabled(cfg.trace);
            let (code, mut probes) = compile_sample(
                &inputs.code_sample,
                &models,
                &inputs.dividends[..8],
                &mut rec,
            );
            if cfg.trace {
                probes += probe_runtime(&inputs.sample, &inputs.dividends, &mut rec).1;
            }
            let cache = delta(base, &first);
            (l, cache, path_cache.stats().lock_poisoned, code, probes)
        }
        Setup::Compile(inputs) => {
            let mut path = CompilePath {
                inputs,
                models: &models,
                code: CodeStats::default(),
            };
            let l = drive(&mut path, cfg.seconds, cfg.trace, &mut rec);
            rec.set_enabled(cfg.trace);
            let (cache, probes) = if cfg.trace {
                probe_runtime(&inputs.sample(), &inputs.probe_dividends, &mut rec)
            } else {
                (CacheStats::default(), Checked::default())
            };
            (l, cache, cache.lock_poisoned, path.code, probes)
        }
    };
    rec.set_enabled(false);

    let metrics = if cfg.trace {
        layer_metrics(&rec, &l, &cache, lock_poisoned, &code, budget_before)
    } else {
        // The slow end is the low end for throughput, the high end for
        // latency.
        let windowed =
            |f: fn(&Window) -> f64, q: f64| quantile(l.windows.iter().map(f).collect(), q);
        let n = |q: f64| {
            format!(
                "{}-quantile of {} {} ms windows; n={}",
                q,
                l.windows.len(),
                WINDOW.as_millis(),
                l.untraced.count()
            )
        };
        let (low, high) = (SLOW_SHARE, 1.0 - SLOW_SHARE);
        vec![
            metric(
                "requests_per_s",
                windowed(|w| w.requests_per_s, low),
                "1/s",
                format!("{}, per second of request time", n(low)),
            ),
            metric(
                "latency_p50_us",
                windowed(|w| w.p50_us, high),
                "us",
                n(high),
            ),
            metric(
                "latency_p99_us",
                windowed(|w| w.p99_us, high),
                "us",
                n(high),
            ),
            metric(
                "setup_s",
                quantile(setup_s, 0.5),
                "s",
                format!("median of {SETUP_REPS} set-ups"),
            ),
            metric("peak_rss_mib", peak_rss_mib()?, "MiB", "VmHWM"),
            metric(
                "gen_code_cycles",
                code.gen_code_cycles(),
                "cycles",
                format!("geomean over {} priced program x model pairs", code.priced),
            ),
            metric(
                "gen_code_insts",
                code.gen_code_insts(),
                "instructions",
                format!("mean over {} listings", code.programs),
            ),
        ]
    };
    Ok(Outcome {
        attempted: l.attempted + probes.attempted,
        failed: l.failed + probes.failed,
        metrics,
        recorder: rec,
    })
}

/// The per-layer metrics of a traced run.
fn layer_metrics(
    rec: &Recorder,
    l: &Loop,
    path_cache: &CacheStats,
    lock_poisoned: u64,
    code: &CodeStats,
    budget_before: u64,
) -> Vec<Metric> {
    let ns = |name: &str| {
        let t = rec.tally(name);
        (t.per_item_ns().unwrap_or(0.0), format!("n={}", t.items))
    };
    let mut out = Vec::new();
    let mut timed = |metric_name: &str, span: &str| {
        let (v, n) = ns(span);
        out.push(metric(metric_name, v, "ns", n));
    };
    timed("cache.hit_ns", "cache.hit");
    timed("cache.miss_ns", "cache.miss");
    timed("plan.build_ns.w32", "plan.build.w32");
    timed("plan.build_ns.w64", "plan.build.w64");
    timed("tournament.select_ns", "tournament.select");
    timed("guard.construct_ns", "guard.construct");
    timed("guard.divide_ns", "guard.divide");
    timed("kernel.divide_ns", "kernel.divide");
    timed("hw.divide_ns", "hw.divide");
    timed("ir.lower_opt_ns", "ir.lower_opt");
    timed("ir.legalize_ns", "ir.legalize");
    timed("ir.schedule_ns", "ir.schedule");
    timed("codegen.emit_ns", "codegen.emit");

    let lookups_n = lookups(path_cache).max(1) as f64;
    let saving = ns("hw.divide").0 - ns("kernel.divide").0;
    let build64 = ns("plan.build.w64").0;
    let p50 = |h: &Histogram| h.quantile(0.5).unwrap_or(0.0);
    out.extend([
        metric(
            "cache.hit_ratio",
            path_cache.hits as f64 / lookups_n,
            "ratio",
            format!(
                "{} of {} first-pass lookups",
                path_cache.hits,
                lookups(path_cache)
            ),
        ),
        metric(
            "cache.evictions_per_lookup",
            path_cache.evictions as f64 / lookups_n,
            "ratio",
            format!("{} evictions", path_cache.evictions),
        ),
        metric(
            "cache.lock_poisoned",
            lock_poisoned as f64,
            "count",
            "path cache over the run (probe cache on compile_sweep)",
        ),
        metric(
            "plan.break_even_divides.w64",
            if saving > 0.0 {
                build64 / saving
            } else {
                f64::MAX
            },
            "divides",
            "plan.build_ns.w64 / (hw.divide_ns - kernel.divide_ns); f64::MAX: never",
        ),
        metric(
            "tournament.non_paper_win_ratio",
            code.non_paper_win_ratio(),
            "ratio",
            format!(
                "{} of {} tournaments",
                code.non_paper_wins, code.tournaments
            ),
        ),
        metric(
            "guard.demotions",
            (fault_budget().demotions() - budget_before) as f64,
            "count",
            "whole run",
        ),
        metric(
            "ir.insts",
            code.ir_insts(),
            "instructions",
            format!("mean over {} optimized programs", code.compiles),
        ),
        metric(
            "codegen.listing_insts",
            code.gen_code_insts(),
            "instructions",
            format!("mean over {} listings", code.programs),
        ),
        metric(
            "trace.overhead_ratio",
            p50(&l.traced) / p50(&l.untraced).max(f64::MIN_POSITIVE),
            "ratio",
            format!(
                "traced p50 (n={}) / untraced p50 (n={})",
                l.traced.count(),
                l.untraced.count()
            ),
        ),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_neighbours() {
        assert!(quantile(vec![], 0.5).is_nan());
        assert_eq!(quantile(vec![3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(vec![4.0, 1.0, 3.0, 2.0], 0.5), 2.5);
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert!((quantile(v.clone(), SLOW_SHARE) - 2.0).abs() < 1e-9);
        assert!((quantile(v.clone(), 1.0 - SLOW_SHARE) - 98.0).abs() < 1e-9);
        assert_eq!(quantile(v, 1.0), 100.0);
    }
}
