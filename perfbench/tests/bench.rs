//! The benchmark's own checks: the output checker catches a wrong
//! divisor and fails the run, the same seed repeats inputs and counts
//! exactly, and the command line takes the seed and rejects bad usage.

use std::process::Command;

use magicdiv::{DivPlan, Fault, GuardPolicy, GuardedUnsignedDivisor, PlanCache};
use magicdiv_bench::corrupt_udiv_plan;
use magicdiv_perfbench::inputs::{Inputs, TypedDivisor, Workload};
use magicdiv_perfbench::runtime::{serve, Guard, Served};
use magicdiv_perfbench::spans::Recorder;
use magicdiv_perfbench::{run, run_with, Config};

/// Serves `u64` divisors from a plan with one multiplier bit flipped,
/// wrapped without the construction probe so the bad constants reach
/// `divide`.
fn serve_corrupted(
    cache: &PlanCache,
    d: TypedDivisor,
    rec: &mut Recorder,
) -> Result<Served, Fault> {
    let served = serve(cache, d, rec)?;
    match (d, served.plan) {
        (TypedDivisor::U64(_), DivPlan::Unsigned(p)) => {
            let bad = corrupt_udiv_plan(&p, 62);
            let guard = GuardedUnsignedDivisor::from_plan_unprobed(&bad, &GuardPolicy::default());
            Ok(Served {
                plan: DivPlan::Unsigned(bad),
                guard: Guard::U64(guard),
            })
        }
        _ => Ok(served),
    }
}

fn config(workload: Workload, seed: u64, trace: bool) -> Config {
    Config {
        workload,
        seed,
        seconds: 0.0,
        trace,
    }
}

#[test]
fn a_corrupted_divisor_is_counted_and_fails_the_run() {
    let cfg = config(Workload::HotBatch, 7, false);
    let bad = run_with(&cfg, serve_corrupted).expect("run completes");
    assert!(bad.failed > 0, "no failure counted");
    assert!(bad.failed <= bad.attempted);
    assert_ne!(bad.exit_code(), 0);
    assert!(
        bad.json().starts_with("{\"correct\": false,"),
        "{}",
        bad.json()
    );

    let good = run(&cfg).expect("run completes");
    assert_eq!(good.failed, 0);
    assert_eq!(good.exit_code(), 0);
}

#[test]
fn the_same_seed_repeats_inputs_and_deterministic_counts() {
    for w in Workload::ALL {
        assert_eq!(Inputs::generate(w, 5), Inputs::generate(w, 5), "{w:?}");
        assert_ne!(Inputs::generate(w, 5), Inputs::generate(w, 6), "{w:?}");

        let untraced = [run(&config(w, 5, false)), run(&config(w, 5, false))];
        let traced = [run(&config(w, 5, true)), run(&config(w, 5, true))];
        for (runs, names) in [
            (&untraced, &["gen_code_cycles", "gen_code_insts"][..]),
            (
                &traced,
                &[
                    "ir.insts",
                    "codegen.listing_insts",
                    "cache.hit_ratio",
                    "cache.evictions_per_lookup",
                    "tournament.non_paper_win_ratio",
                ][..],
            ),
        ] {
            let [a, b] = runs.each_ref().map(|r| r.as_ref().expect("run completes"));
            assert_eq!(a.failed + b.failed, 0, "{w:?}");
            for name in names {
                let v = a.value(name).expect("metric reported");
                assert_eq!(Some(v), b.value(name), "{w:?} {name}");
            }
        }
    }
}

#[test]
fn the_seed_changes_the_deterministic_counts() {
    let a = run(&config(Workload::CompileSweep, 1, false)).expect("run completes");
    let b = run(&config(Workload::CompileSweep, 2, false)).expect("run completes");
    assert_ne!(a.value("gen_code_cycles"), b.value("gen_code_cycles"));
}

fn cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_magicdiv-perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

#[test]
fn the_command_line_takes_the_seed_and_prints_one_json_result() {
    let out = cli(&[
        "--workload",
        "hot_scalar",
        "--seed",
        "9",
        "--seconds",
        "0",
        "--trace",
        "0",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    for name in [
        "requests_per_s",
        "latency_p99_us",
        "setup_s",
        "gen_code_insts",
    ] {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name}"
        );
        assert!(stdout.contains(&format!("hot_scalar {name} = ")), "{name}");
    }
}

#[test]
fn bad_usage_exits_2_without_a_result() {
    for args in [
        &[][..],
        &["--workload", "nope"][..],
        &["--workload", "hot_batch", "--trace", "2"][..],
        &["--workload", "hot_batch", "--seed"][..],
    ] {
        let out = cli(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
