//! Command line of the benchmark:
//!
//! ```text
//! magicdiv-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints each metric by name with its unit, then, as the last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. A traced
//! run also prints the layer shares and writes its spans to
//! `perfbench/out/`. Exits 1 when any output was wrong, 2 on bad usage.

use std::io::Write;
use std::process::ExitCode;

use magicdiv_perfbench::inputs::Workload;
use magicdiv_perfbench::{run, Config};

const USAGE: &str = "usage: magicdiv-perfbench --workload <hot_batch|hot_scalar|divisor_churn|compile_sweep> [--seed N] [--seconds S] [--trace 0|1]";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::HotBatch,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cfg.seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(cfg.seconds >= 0.0 && cfg.seconds <= 3600.0) {
                    return Err(format!("--seconds out of range: {value}"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn write_spans(cfg: &Config, outcome: &magicdiv_perfbench::Outcome) -> std::io::Result<String> {
    // Relative to the repository root, where the benchmark is run from.
    let dir = "perfbench/out";
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/spans-{}-seed{}.jsonl", cfg.workload.name(), cfg.seed);
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    outcome.recorder.write_jsonl(&mut w)?;
    w.flush()?;
    Ok(path)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let w = cfg.workload.name();
    for m in &outcome.metrics {
        println!("{w} {} = {} {} ({})", m.name, m.value, m.unit, m.note);
    }
    println!(
        "{w} failed_ratio = {} ratio ({} of {} requests)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    if cfg.trace {
        for (layer, share) in outcome.recorder.shares() {
            println!("{w} share {layer} = {share} (self time / request time)");
        }
        match write_spans(&cfg, &outcome) {
            Ok(path) => println!(
                "{w} spans: {} kept in {path}",
                outcome.recorder.spans().len()
            ),
            Err(e) => {
                eprintln!("error: cannot write spans: {e}");
                return ExitCode::from(2);
            }
        }
    }
    println!("{}", outcome.json());
    ExitCode::from(outcome.exit_code() as u8)
}
