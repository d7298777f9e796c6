//! The repository's benchmark: four named workloads driven through the
//! public API, end-to-end and per-layer metrics, checked outputs.
//!
//! ```text
//! sentinel-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! sentinel-benchmark run <name|all> [--seed n] [--seconds s] [--traced] [--smoke]
//! sentinel-benchmark repeat <n> [--seed n]
//! ```
//!
//! A workload run prints every metric by name with its unit, then one
//! JSON object as the last line of standard output, and exits non-zero
//! when an output check failed.

mod gen;
mod harness;
mod layers;
mod repeat;
mod stats;
mod trace;
mod workloads;

use harness::{measure, Opts, Res, ResultLine};
use std::path::PathBuf;
use workloads::{
    cep_shared::CepShared, durable_ingest::DurableIngest, firing_cpu::FiringCpu,
    fraud_mixed::FraudMixed, NAMES,
};

const USAGE: &str = "usage:
  sentinel-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--data-dir <dir>]
  sentinel-benchmark run <name|all> [--seed <n>] [--seconds <s>] [--traced] [--smoke] [--data-dir <dir>]
  sentinel-benchmark repeat <n> [--seed <n>]
workloads: fraud_mixed cep_shared durable_ingest firing_cpu";

enum Command {
    Workload,
    RunAll,
    Repeat(usize),
}

fn parse(args: &[String]) -> Res<(Command, Opts)> {
    let mut opts = Opts {
        workload: String::new(),
        seed: gen::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
        data_dir: None,
        write_golden: false,
    };
    let mut command = Command::Workload;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}\n{USAGE}"))
        };
        match arg.as_str() {
            "run" => match value("a workload or `all`")?.as_str() {
                "all" => command = Command::RunAll,
                name => opts.workload = name.to_string(),
            },
            "repeat" => command = Command::Repeat(value("a count")?.parse()?),
            "--workload" => opts.workload = value("a name")?.clone(),
            "--seed" => opts.seed = value("a number")?.parse()?,
            "--seconds" => opts.seconds = value("a number")?.parse()?,
            "--trace" => opts.trace = value("0 or 1")? == "1",
            "--traced" => opts.trace = true,
            "--smoke" => opts.smoke = true,
            "--data-dir" => opts.data_dir = Some(PathBuf::from(value("a directory")?)),
            "--write-golden" => opts.write_golden = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}").into()),
        }
    }
    if opts.smoke {
        // Tiny rounds, checks only: a fraction of a second of them.
        opts.seconds = opts.seconds.min(0.2);
    }
    if matches!(command, Command::Workload) && !NAMES.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload `{}`\n{USAGE}", opts.workload).into());
    }
    Ok((command, opts))
}

fn run_workload(opts: &Opts) -> Res<ResultLine> {
    match opts.workload.as_str() {
        "fraud_mixed" => measure::<FraudMixed>(opts),
        "cep_shared" => measure::<CepShared>(opts),
        "durable_ingest" => measure::<DurableIngest>(opts),
        "firing_cpu" => measure::<FiringCpu>(opts),
        other => Err(format!("unknown workload `{other}`").into()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|(command, opts)| match command {
        Command::Workload => {
            let result = run_workload(&opts)?;
            println!("{}", serde_json::to_string(&result)?);
            if result.correct {
                Ok(())
            } else {
                Err("output checks failed".into())
            }
        }
        Command::RunAll => repeat::run_all(&opts),
        Command::Repeat(sets) => repeat::repeat(&opts, sets),
    });
    if let Err(e) = outcome {
        eprintln!("sentinel-benchmark: {e}");
        std::process::exit(1);
    }
}
