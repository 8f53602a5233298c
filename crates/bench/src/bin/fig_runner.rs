//! Regenerates the paper's figures.
//!
//! ```text
//! fig_runner [all|fig02|fig08a|fig08b|fig08c|fig09|fig10|fig11|fig12|fig13|fig14|trace|exec|shuffle|resilience|obs|serve|chain]...
//!            [--quick] [--json <dir>]
//! ```
//!
//! `--quick` scales the workloads down (fast sanity runs); the default
//! runs at paper scale (40 GB STIC / 1.2 TB DCO — simulated, so still
//! seconds of wall clock). `--json <dir>` additionally writes each
//! figure's data as JSON.

use rcmp_bench::figures::*;
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_dir = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let mut figs: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .filter(|a| Some(a.as_str()) != json_dir.as_deref())
        .cloned()
        .collect();
    if figs.is_empty() || figs.iter().any(|f| f == "all") {
        figs = [
            "fig02", "fig08a", "fig08b", "fig08c", "fig09", "fig10", "fig11", "fig12", "fig13",
            "fig14", "trace", "extras",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }
    let scale = if quick { 8 } else { 1 };
    if let Some(dir) = &json_dir {
        std::fs::create_dir_all(dir).expect("create json dir");
    }
    let write_json = |name: &str, value: serde_json::Value| {
        if let Some(dir) = &json_dir {
            let path = format!("{dir}/{name}.json");
            let mut f = std::fs::File::create(&path).expect("create json file");
            f.write_all(serde_json::to_string_pretty(&value).unwrap().as_bytes())
                .expect("write json");
        }
    };

    for fig in figs {
        match fig.as_str() {
            "fig02" => {
                let r = fig02::run(42);
                println!("{}", r.render());
                write_json("fig02", serde_json::to_value(&r).unwrap());
            }
            "fig08a" | "fig08b" | "fig08c" => {
                let case = match fig.as_str() {
                    "fig08a" => fig08::FailCase::None,
                    "fig08b" => fig08::FailCase::Early,
                    _ => fig08::FailCase::Late,
                };
                let scen = if quick {
                    quick_scenarios()
                } else {
                    paper_scenarios()
                };
                let r = fig08::run_with(case, &scen);
                println!("{}", r.render());
                write_json(&fig, serde_json::to_value(&r).unwrap());
            }
            "fig09" => {
                let r = fig09::run_scaled(scale);
                println!("{}", r.render());
                write_json("fig09", serde_json::to_value(&r).unwrap());
            }
            "fig10" => {
                let r = fig10::run_scaled(scale);
                println!("{}", r.render());
                write_json("fig10", serde_json::to_value(&r).unwrap());
            }
            "fig11" => {
                let r = fig11::run_scaled(scale);
                println!("{}", r.render());
                write_json("fig11", serde_json::to_value(&r).unwrap());
            }
            "fig12" => {
                let r = fig12::run_scaled(scale);
                println!("{}", r.render());
                write_json("fig12", serde_json::to_value(&r).unwrap());
            }
            "fig13" => {
                let r = fig13::run_scaled(scale);
                println!("{}", r.render());
                write_json("fig13", serde_json::to_value(&r).unwrap());
            }
            "fig14" => {
                // Fig. 14 cannot scale down: the wave sweep needs the
                // full mapper population.
                let r = fig14::run_scaled(1);
                println!("{}", r.render());
                write_json("fig14", serde_json::to_value(&r).unwrap());
            }
            "trace" => {
                let r = tracefig::run_scaled(scale);
                println!("{}", r.render());
                write_json("trace", serde_json::to_value(&r).unwrap());
            }
            "exec" => {
                let r = execfig::run();
                println!("{}", r.render());
                write_json("BENCH_exec", serde_json::to_value(&r).unwrap());
            }
            "shuffle" => {
                let r = shufflefig::run_scaled(scale);
                println!("{}", r.render());
                write_json("BENCH_shuffle", serde_json::to_value(&r).unwrap());
            }
            "resilience" => {
                let r = resiliencefig::run_scaled(scale);
                println!("{}", r.render());
                write_json("BENCH_resilience", serde_json::to_value(&r).unwrap());
            }
            "serve" => {
                let r = servefig::run(0x5eed);
                println!("{}", r.render());
                write_json("BENCH_serve", serde_json::to_value(&r).unwrap());
                if !r.gate_passed {
                    eprintln!(
                        "serve: balanced scenario failed the fairness gate (jain >= {:.2})",
                        servefig::JAIN_GATE
                    );
                    std::process::exit(1);
                }
            }
            "chain" => {
                let r = chainfig::run_scaled(scale);
                println!("{}", r.render());
                write_json("BENCH_chain", serde_json::to_value(&r).unwrap());
                if !r.gate_passed {
                    eprintln!(
                        "chain: cached chain not faster than uncached, or node-local hits \
                         below {:.0}%, or tiny budget failed to spill through",
                        chainfig::GATE_LOCAL_PCT
                    );
                    std::process::exit(1);
                }
            }
            "obs" => {
                let r = obsfig::run_scaled(scale);
                println!("{}", r.render());
                write_json("BENCH_obs", serde_json::to_value(&r).unwrap());
                if !r.within_budget {
                    eprintln!(
                        "obs: telemetry overhead {:.2}% exceeds the {:.1}% budget",
                        r.overhead_pct, r.budget_pct
                    );
                    std::process::exit(1);
                }
            }
            "extras" => {
                let loc = extras::locality_ablation(scale);
                println!("{}", loc.render());
                write_json("extra_locality", serde_json::to_value(&loc).unwrap());
                let spec = extras::speculation_futility(scale);
                println!("{}", extras::render_speculation(&spec));
                write_json("extra_speculation", serde_json::to_value(&spec).unwrap());
                let dynp = extras::dynamic_intervals();
                println!("{}", extras::render_dynamic(&dynp));
                write_json("extra_dynamic", serde_json::to_value(&dynp).unwrap());
            }
            other => eprintln!("unknown figure: {other}"),
        }
    }
}
