//! `otis-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! [--out DIR]`
//!
//! Prints a human-readable table, then, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.

use otis_perfbench::workload::{Scale, WorkloadId};
use otis_perfbench::{run, Options, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut options = Options {
        workload: WorkloadId::UniformTaildrop,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        scale: Scale::Full,
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(WorkloadId::from_name(value).ok_or_else(|| {
                    let names: Vec<&str> = WorkloadId::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (want {})", names.join("|"))
                })?);
            }
            "--seed" => options.seed = value.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                options.seconds = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(options.seconds.is_finite() && options.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other:?} (want 0|1)")),
                }
            }
            "--out" => options.out_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    options.workload = workload.ok_or("missing --workload")?;
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|options| run(&options));
    match outcome {
        Ok(outcome) => {
            print!("{}", outcome.table());
            println!("{}", outcome.json_line());
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("otis-perfbench: {message}");
            ExitCode::from(2)
        }
    }
}
