//! Command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//! Prints every metric by name and unit, then one JSON result line. Exits
//! non-zero when an outcome or counter check fails.

use std::process::ExitCode;

use septic_perfbench::report::json_line;
use septic_perfbench::{run, Config, Workload};

fn usage(why: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "{why}\nusage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("missing value for {flag}"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => match value.parse() {
                Ok(v) => seed = v,
                Err(_) => return usage("--seed takes an unsigned integer"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 && v <= 600.0 => seconds = v,
                _ => return usage("--seconds takes a number in (0, 600]"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload names one of the workloads");
    };
    let report = run(&Config::new(workload, seed, seconds, trace));
    for note in &report.notes {
        println!("# {note}");
    }
    for m in report.extra.iter().chain(&report.metrics) {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", json_line(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
