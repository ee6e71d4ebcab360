//! `vtm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--ladder <q/s,...> --reference <q/s>] [--inject-fault <check>]`
//!
//! Prints human-readable lines, then the JSON result as the last line of
//! standard output. Exits 1 without a result when an output check fails.

use std::process::ExitCode;

use vtm_benchmark::checks::Fault;
use vtm_benchmark::{run, Ctx};

struct Args {
    workload: String,
    trace: bool,
    ctx: Ctx,
}

fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse(args: &[String]) -> Result<Args, String> {
    let required = |flag: &str| value(args, flag).ok_or_else(|| format!("missing {flag}"));
    let number = |flag: &str, text: &str| -> Result<f64, String> {
        text.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v > 0.0)
            .ok_or_else(|| format!("{flag} needs a positive number, got {text:?}"))
    };
    let workload = required("--workload")?.to_string();
    let seed = required("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = number("--seconds", required("--seconds")?)?;
    let trace = match required("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let ladder = match value(args, "--ladder") {
        Some(list) => list
            .split(',')
            .map(|r| number("--ladder", r.trim()))
            .collect::<Result<Vec<_>, _>>()?,
        None => Vec::new(),
    };
    let reference = match value(args, "--reference") {
        Some(r) => number("--reference", r)?,
        None => 0.0,
    };
    if workload == "quote-open" {
        if ladder.is_empty() || !ladder.windows(2).all(|w| w[0] < w[1]) {
            return Err("quote-open needs --ladder with ascending rates".to_string());
        }
        if !ladder.contains(&reference) {
            return Err(
                "quote-open needs --reference set to one of the --ladder rates".to_string(),
            );
        }
    }
    let fault = Fault::parse(value(args, "--inject-fault").unwrap_or("none"))?;
    let work = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".bench_work")
        .join(format!("run-{}", std::process::id()));
    Ok(Args {
        workload,
        trace,
        ctx: Ctx {
            seed,
            seconds,
            ladder,
            reference,
            fault,
            work,
        },
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("vtm-benchmark: {err}");
            return ExitCode::from(2);
        }
    };
    let work = args.ctx.work.clone();
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("cannot create {}: {e}", work.display()))
        .and_then(|()| run(&args.workload, args.trace, &args.ctx));
    let _ = std::fs::remove_dir_all(&work);
    if let Some(parent) = work.parent() {
        // Succeeds only once no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("vtm-benchmark: {} failed: {err}", args.workload);
            ExitCode::FAILURE
        }
    }
}
