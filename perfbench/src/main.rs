//! Command line: `rcmp-perfbench --workload <name> --seed <n>
//! --seconds <s> --trace <0|1> [--out <dir>]`.
//!
//! Prints the host fingerprint, notes and a metric table, then as its
//! last line one JSON object with `correct`, `attempted`, `failed` and
//! the mode's metrics. Exits non-zero, printing no result, on any
//! error.

use rcmp_perfbench::{report, run, schema, RunConfig, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds out of range: {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--out" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        out_dir,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("rcmp-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rcmp-perfbench: {}: {e}", cfg.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for (k, v) in report::host_fingerprint() {
        println!("host {k}: {v}");
    }
    for note in &result.notes {
        println!("{note}");
    }
    let schema = schema(cfg.trace);
    for &(name, unit) in schema {
        let v = result.metrics.get(name).unwrap_or(f64::NAN);
        let label = if name.starts_with("sim.") {
            " (modelled)"
        } else {
            ""
        };
        println!("{name:<38} {v:>14.4} {unit}{label}");
    }
    match report::result_line(result.tally, &result.metrics, schema) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rcmp-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
