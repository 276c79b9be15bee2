//! `hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--root <checkout>]`
//!
//! Prints the per-point table and digests, then, as the last line, one
//! JSON object with `correct`, `attempted`, `failed` and the metrics.
//! (`--one-pass` is the internal child mode: one pass, encoded report.)

use std::path::PathBuf;
use std::process::ExitCode;

use hostbench::metrics::{result_json, END_TO_END, PER_LAYER};
use hostbench::Options;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: hostbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--root <dir>]",
        hostbench::workloads::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut opts = Options {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut root = PathBuf::from(".");
    let mut one_pass = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--one-pass" {
            one_pass = true;
            continue;
        }
        let Some(v) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let bad = || usage(&format!("bad value {v:?} for {flag}"));
        match flag.as_str() {
            "--workload" => opts.workload = v.clone(),
            "--seed" => match v.parse() {
                Ok(s) => opts.seed = s,
                Err(_) => return bad(),
            },
            "--seconds" => match v.parse::<f64>() {
                Ok(s) if s >= 0.0 && s.is_finite() => opts.seconds = s,
                _ => return bad(),
            },
            "--trace" => match v.as_str() {
                "0" => opts.trace = false,
                "1" => opts.trace = true,
                _ => return bad(),
            },
            "--root" => root = PathBuf::from(v),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    if opts.workload.is_empty() {
        return usage("--workload is required");
    }
    if one_pass {
        return match hostbench::run_one(&opts, &root) {
            Ok(r) => {
                print!("{}", r.encode());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(1)
            }
        };
    }
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate own executable: {e}");
            return ExitCode::from(1);
        }
    };
    let report = match hostbench::run(&opts, &root, &exe) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    for line in &report.log {
        println!("{line}");
    }
    let names: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "{}",
        result_json(
            report.correct,
            report.attempted,
            report.failed,
            names,
            &report.metrics
        )
    );
    ExitCode::SUCCESS
}
