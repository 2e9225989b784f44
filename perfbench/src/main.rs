//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the checks that failed, and in untraced runs the measured host
//! speed with the unscaled end-to-end figures, on standard error and, as
//! the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        perfbench::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        match (args[i].as_str(), value) {
            ("--workload", Some(v)) => workload = Some(v.to_string()),
            ("--seed", Some(v)) => seed = v.parse::<u64>().ok(),
            ("--seconds", Some(v)) => {
                seconds = v.parse::<f64>().ok().filter(|s| *s > 0.0 && s.is_finite())
            }
            ("--trace", Some("0")) => trace = Some(false),
            ("--trace", Some("1")) => trace = Some(true),
            (flag, _) => return usage(&format!("bad argument {flag:?}")),
        }
        i += 2;
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required and must be valid");
    };
    let params = perfbench::Params {
        seed,
        seconds,
        trace,
        smoke: false,
    };
    let Some(outcome) = perfbench::run(&workload, &params) else {
        return usage(&format!("unknown workload {workload:?}"));
    };
    for failure in outcome.checks.failures() {
        eprintln!("check failed: {failure}");
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
