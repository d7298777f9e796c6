//! `run all` and `repeat <n>`: one workload per process, each a child
//! running this same executable, and the repeatability table.

use crate::harness::{package_dir, Opts, Res};
use crate::stats;
use crate::workloads::NAMES;
use serde::Deserialize;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// The part of `BENCHMARK.json` this program reads.
#[derive(Debug, Deserialize)]
struct Contract {
    run_seconds: f64,
    end_to_end: Vec<Gate>,
}

#[derive(Debug, Deserialize)]
struct Gate {
    name: String,
    unit: String,
    better: String,
    bound: f64,
}

#[derive(Debug, Deserialize)]
struct ChildMetric {
    value: f64,
}

#[derive(Debug, Deserialize)]
struct ChildResult {
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, ChildMetric>,
}

fn contract() -> Res<Contract> {
    let path = package_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(serde_json::from_str(&text)?)
}

/// Run one workload in a child process. Its report is passed through
/// unless `quiet`; its result line is returned.
fn child(opts: &Opts, workload: &str, quiet: bool) -> Res<ChildResult> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    if let Some(dir) = &opts.data_dir {
        cmd.arg("--data-dir").arg(dir);
    }
    let out = cmd.stderr(Stdio::inherit()).output()?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (report, last) = text
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", text.trim_end()));
    if !quiet {
        println!("{report}");
    }
    let result: ChildResult = serde_json::from_str(last)
        .map_err(|e| format!("{workload}: no result line ({e}); exit {}", out.status))?;
    if !out.status.success() || !result.correct || result.failed > 0 {
        return Err(format!(
            "{workload}: output checks failed ({} failed ops; exit {})\n{report}",
            result.failed, out.status
        )
        .into());
    }
    Ok(result)
}

/// `run all`: every workload, untraced then traced.
pub fn run_all(opts: &Opts) -> Res<()> {
    for workload in NAMES {
        for trace in [false, true] {
            let opts = Opts {
                trace,
                ..opts.clone()
            };
            child(&opts, workload, false)?;
        }
    }
    println!("all workloads: outputs correct, failed_ops 0");
    Ok(())
}

/// `repeat <n>`: `n` sets of untraced runs, each set on another seed as
/// the accepting driver does, printed as the repeatability table.
/// Fails when a gated metric's spread leaves its bound.
pub fn repeat(opts: &Opts, sets: usize) -> Res<()> {
    if sets < 2 {
        return Err("repeat needs at least two sets".into());
    }
    let contract = contract()?;
    let opts = Opts {
        seconds: contract.run_seconds,
        trace: false,
        ..opts.clone()
    };
    let mut values: BTreeMap<(String, &str), Vec<f64>> = BTreeMap::new();
    for set in 0..sets {
        for workload in NAMES {
            let opts = Opts {
                seed: opts.seed + set as u64,
                ..opts.clone()
            };
            let result = child(&opts, workload, true)?;
            for gate in &contract.end_to_end {
                let m = result
                    .metrics
                    .get(&gate.name)
                    .ok_or_else(|| format!("{workload}: metric {} missing", gate.name))?;
                values
                    .entry((gate.name.clone(), workload))
                    .or_default()
                    .push(m.value);
            }
            eprintln!("set {}/{sets}: {workload} done", set + 1);
        }
    }

    println!("# Repeatability");
    println!();
    println!(
        "`repeat {sets}`: {sets} untraced runs of {} s per workload, seeds {}..={}, \
         on {} processor(s).",
        contract.run_seconds,
        opts.seed,
        opts.seed + sets as u64 - 1,
        crate::harness::nproc()
    );
    println!(
        "Spread is the distance between the first and third quartile \
         (`statistics.quantiles(values, n=4)`) as a share of the median; \
         max dev is the largest distance of any run from the median."
    );
    println!();
    println!(
        "| metric | workload | unit | better | median | q1 | q3 | spread | max dev | bound | |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    let mut out_of_bound = Vec::new();
    for gate in &contract.end_to_end {
        for workload in NAMES {
            let v = &values[&(gate.name.clone(), workload)];
            let median = stats::median(v);
            let (q1, q3) = stats::quartiles(v);
            let spread = stats::spread(v);
            let max_dev = v
                .iter()
                .map(|x| (x - median).abs() / median.abs())
                .fold(0.0, f64::max);
            // Set-up time is judged on its median only.
            let gated = gate.name != "setup_s";
            let verdict = if !gated {
                "not gated on spread"
            } else if spread > gate.bound {
                out_of_bound.push(format!("{} on {workload}", gate.name));
                "OUT OF BOUND"
            } else if spread > gate.bound / 3.0 {
                "within bound, above a third of it"
            } else {
                "ok"
            };
            println!(
                "| `{}` | `{workload}` | {} | {} | {median:.4} | {q1:.4} | {q3:.4} | {:.2} % | {:.2} % | {:.0} % | {verdict} |",
                gate.name,
                gate.unit,
                gate.better,
                100.0 * spread,
                100.0 * max_dev,
                100.0 * gate.bound
            );
        }
    }
    if out_of_bound.is_empty() {
        Ok(())
    } else {
        Err(format!("spread out of bound: {}", out_of_bound.join(", ")).into())
    }
}
