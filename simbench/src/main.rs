//! `simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints an env block and run notes, then the result line: one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Exits with
//! code 2 on a malformed command line.

use std::process::ExitCode;
use std::time::Duration;

use simbench::run::{run, RunArgs};
use simbench::workloads::{Kind, Size};

const USAGE: &str = "usage: simbench --workload <flood_epoch|harmonic_trials|quorum_stream> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

fn parse(args: &[String]) -> Result<(Kind, u64, u64, bool), String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok((
        kind.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.ok_or("--trace is required")?,
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (kind, seed, seconds, trace) = match parse(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let workers = kind.workers(cores);
    println!(
        "env: cores={cores} workers={workers} rustc=\"{}\" profile={} rev={}",
        env!("SIMBENCH_RUSTC"),
        env!("SIMBENCH_PROFILE"),
        env!("SIMBENCH_GIT_REV")
    );
    println!(
        "run: workload={} seed={seed} seconds={seconds} trace={}",
        kind.name(),
        u8::from(trace)
    );
    let report = run(&RunArgs {
        kind,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
        workers,
        size: Size::Full,
    });
    for note in &report.notes {
        println!("{note}");
    }
    let c = &report.counts;
    println!(
        "digest: {:016x} (first units: rounds={} sends={} collisions={} informs={} acked={} \
         delivered={} safety_violations={})",
        report.digest,
        c.rounds,
        c.sends,
        c.physical_collisions,
        c.informs,
        c.acked,
        c.delivered,
        c.safety_violations
    );
    println!("{}", report.json());
    ExitCode::SUCCESS
}
