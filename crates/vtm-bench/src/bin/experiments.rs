//! The manifest-driven experiment runner: one binary for every figure,
//! ablation, trace-driven scenario experiment and the policy lifecycle.
//!
//! ```text
//! cargo run -p vtm-bench --release --bin experiments -- --list
//! cargo run -p vtm-bench --release --bin experiments -- --scenario highway
//! cargo run -p vtm-bench --release --bin experiments -- --scenario all --episodes 4
//! cargo run -p vtm-bench --release --bin experiments -- --figure fig2a --full
//! cargo run -p vtm-bench --release --bin experiments -- --all
//!
//! # policy lifecycle: train -> checkpoint -> serve
//! cargo run -p vtm-bench --release --bin experiments -- \
//!     train --env highway --episodes 24 --checkpoint results/policy_highway.vtm
//! cargo run -p vtm-bench --release --bin experiments -- \
//!     serve-bench --checkpoint results/policy_highway.vtm --env highway --sessions 64
//!
//! # audit journal: record a gateway run, then rebuild its exact state
//! cargo run -p vtm-bench --release --bin experiments -- \
//!     journal-demo --env highway --requests 512 --journal results/demo.vtmj
//! cargo run -p vtm-bench --release --bin experiments -- \
//!     replay --env highway --journal results/demo.vtmj --expect-digest 0x...
//! ```
//!
//! Each selected experiment prints its table and writes
//! `results/<name>.csv` + `results/<name>.json`; `serve-bench` writes
//! `results/BENCH_serve.json`.

use vtm_bench::chaos::{run_chaos, ChaosOptions, PLANS};
use vtm_bench::experiments::{find, manifest, ExperimentCtx};
use vtm_bench::journal_cli::{
    run_journal_demo, run_replay, JournalDemoOptions, ReplayCliOptions, SnapshotChoice,
};
use vtm_bench::lifecycle::{describe_checkpoint, train_to_checkpoint, TrainOptions};
use vtm_bench::load_bench::{run_length, run_load_bench, LoadBench, LoadRun};
use vtm_bench::obs_cli::{
    run_metrics_dump, run_slo_check, MetricsDumpOptions, SloOptions, SloStatus,
};
use vtm_bench::serve_bench::{run_serve_bench, BenchPrecision, ServeBenchOptions};
use vtm_core::registry::EnvRegistry;
use vtm_core::scenario::ScenarioKind;

fn usage() -> ! {
    eprintln!(
        "usage: experiments [--list] [--all] [--scenario <name>|all]... [--figure <name>|all]... \
         [--run <name>]... [--episodes N] [--full]"
    );
    eprintln!(
        "       experiments train [--env <preset>] [--episodes N] [--collectors N] \
         [--threads N] [--seed N] [--checkpoint <path>] [--resume <path>]"
    );
    eprintln!(
        "       experiments serve-bench [--env <preset>] [--checkpoint <path>] \
         [--sessions N] [--rounds N] [--repeats N] [--precision f64|f32|both]"
    );
    eprintln!(
        "       experiments gateway-bench [--env <preset>] [--checkpoint <path>] \
         [--duration-s S] [--sessions N] [--ingress N] [--executors N] \
         [--max-batch N] [--max-delay-us N] [--queue-capacity N] [--no-open-loop] \
         [--precision f64|f32|both]"
    );
    eprintln!(
        "       experiments fabric-bench [--env <preset>] [--checkpoint <path>] \
         [--shards N] [--arms a=90,b=10] [--duration-s S] [--sessions N] \
         [--ingress N] [--executors N] [--max-batch N] [--max-delay-us N] \
         [--queue-capacity N] [--no-open-loop]"
    );
    eprintln!(
        "       experiments journal-demo [--env <preset>] [--checkpoint <path>] \
         [--journal <path>] [--requests N] [--sessions N] [--snapshot-every N] \
         [--flush-every N]"
    );
    eprintln!(
        "       experiments replay [--env <preset>] [--checkpoint <path>] \
         [--journal <path>] [--snapshot auto|none|<path>] [--strict] \
         [--expect-digest <hex>]"
    );
    eprintln!(
        "       experiments chaos [--env <preset>] [--checkpoint <path>] \
         [--plan <name>]... [--requests N] [--sessions N] [--journal <path>]"
    );
    eprintln!(
        "       experiments metrics-dump [--sessions N] [--rounds N] \
         [--sample-every N] [--seed N] [--no-save]"
    );
    eprintln!(
        "       experiments slo-check [--bench gateway|fabric]... \
         [--current <dir>] [--baselines <dir>] [--qps-band F] [--warn-only]"
    );
    eprintln!("chaos plans: {}", PLANS.join(", "));
    eprintln!("known experiments:");
    for spec in manifest() {
        eprintln!("  {:<28} {}", spec.name, spec.description);
    }
    eprintln!(
        "environment presets: {}",
        EnvRegistry::builtin().names().join(", ")
    );
    std::process::exit(2);
}

fn select(selected: &mut Vec<&'static str>, name: &str) {
    match find(name) {
        Some(spec) => {
            if !selected.contains(&spec.name) {
                selected.push(spec.name);
            }
        }
        None => {
            eprintln!("error: unknown experiment `{name}`");
            usage();
        }
    }
}

/// Parses `--flag <value>` pairs for the lifecycle subcommands; exits with
/// usage on anything unknown.
fn flag_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> &'a str {
    *i += 1;
    match args.get(*i) {
        Some(v) => v,
        None => {
            eprintln!("error: {flag} needs a value");
            usage();
        }
    }
}

fn parse_count(value: &str, flag: &str) -> usize {
    match value.parse::<usize>() {
        Ok(n) => n,
        Err(_) => {
            eprintln!("error: {flag} needs a number, got `{value}`");
            usage();
        }
    }
}

fn parse_precision(value: &str) -> BenchPrecision {
    match BenchPrecision::parse(value) {
        Ok(p) => p,
        Err(err) => {
            eprintln!("error: {err}");
            usage();
        }
    }
}

fn main_train(args: &[String]) {
    let mut opts = TrainOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--env" => opts.env = flag_value(args, &mut i, "--env").to_string(),
            "--episodes" => {
                opts.episodes = parse_count(flag_value(args, &mut i, "--episodes"), "--episodes")
            }
            "--collectors" => {
                opts.collectors = Some(
                    parse_count(flag_value(args, &mut i, "--collectors"), "--collectors").max(1),
                )
            }
            "--threads" => {
                opts.threads = parse_count(flag_value(args, &mut i, "--threads"), "--threads")
            }
            "--seed" => {
                opts.seed = Some(parse_count(flag_value(args, &mut i, "--seed"), "--seed") as u64)
            }
            "--checkpoint" => {
                opts.checkpoint = flag_value(args, &mut i, "--checkpoint").into();
            }
            "--resume" => opts.resume = Some(flag_value(args, &mut i, "--resume").into()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown train argument `{other}`");
                usage();
            }
        }
        i += 1;
    }
    match train_to_checkpoint(&opts) {
        Ok(summary) => {
            println!(
                "trained {} episodes on `{}` (tail-8 mean return {:.2}, {} rounds total)",
                summary.episodes, opts.env, summary.tail_mean_return, summary.trained_rounds
            );
            match describe_checkpoint(&summary.checkpoint) {
                Ok(description) => println!("checkpoint {description}"),
                Err(err) => eprintln!("warning: {err}"),
            }
        }
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    }
}

fn main_serve_bench(args: &[String]) {
    let mut opts = ServeBenchOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--env" => opts.env = flag_value(args, &mut i, "--env").to_string(),
            "--checkpoint" => {
                opts.checkpoint = Some(flag_value(args, &mut i, "--checkpoint").into())
            }
            "--sessions" => {
                opts.sessions =
                    parse_count(flag_value(args, &mut i, "--sessions"), "--sessions").max(1)
            }
            "--rounds" => {
                opts.rounds = parse_count(flag_value(args, &mut i, "--rounds"), "--rounds").max(1)
            }
            "--repeats" => {
                opts.repeats =
                    parse_count(flag_value(args, &mut i, "--repeats"), "--repeats").max(1)
            }
            "--precision" => {
                opts.precision = parse_precision(flag_value(args, &mut i, "--precision"))
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown serve-bench argument `{other}`");
                usage();
            }
        }
        i += 1;
    }
    match run_serve_bench(&opts) {
        Ok(result) => {
            println!(
                "serve-bench `{}`: {} sessions x {} rounds — batched {:.0} quotes/s vs \
                 per-request {:.0} quotes/s ({:.2}x)",
                result.env,
                result.sessions,
                result.rounds,
                result.batched_qps,
                result.per_request_qps,
                result.speedup
            );
            if let (Some(qps), Some(speedup)) = (result.f32_batched_qps, result.f32_speedup) {
                println!(
                    "  f32 batched {:.0} quotes/s ({:.2}x vs f64 batched), max price err \
                     {:.2e}, argmax agree: {}",
                    qps,
                    speedup,
                    result.f32_max_price_err.unwrap_or(0.0),
                    result.f32_argmax_agree.unwrap_or(false)
                );
            }
            match result.save() {
                Ok(path) => println!("(saved to {})", path.display()),
                Err(err) => {
                    eprintln!("error: could not write BENCH_serve.json: {err}");
                    std::process::exit(1);
                }
            }
        }
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    }
}

/// `gateway-bench` and `fabric-bench`: one flag parser and one driver; the
/// subcommand picks the defaults, the compared shapes and the output file.
fn main_load_bench(bench: LoadBench, args: &[String]) {
    let mut opts = bench.options();
    let mut i = 0;
    while i < args.len() {
        match (args[i].as_str(), bench) {
            ("--env", _) => opts.env = flag_value(args, &mut i, "--env").to_string(),
            ("--checkpoint", _) => {
                opts.checkpoint = Some(flag_value(args, &mut i, "--checkpoint").into())
            }
            ("--duration-s", _) => {
                let value = flag_value(args, &mut i, "--duration-s");
                opts.duration_s = match value.parse::<f64>() {
                    Ok(s) if s > 0.0 && run_length(s).is_ok() => s,
                    _ => {
                        eprintln!(
                            "error: --duration-s needs a positive, finite number of seconds, \
                             got `{value}`"
                        );
                        usage();
                    }
                };
            }
            ("--sessions", _) => {
                opts.sessions =
                    parse_count(flag_value(args, &mut i, "--sessions"), "--sessions").max(1)
            }
            ("--shards", LoadBench::Fabric) => {
                opts.shards = parse_count(flag_value(args, &mut i, "--shards"), "--shards")
            }
            ("--arms", LoadBench::Fabric) => {
                let value = flag_value(args, &mut i, "--arms");
                opts.arms = match vtm_fabric::parse_arms(value) {
                    Ok(arms) => arms,
                    Err(err) => {
                        eprintln!("error: --arms: {err}");
                        usage();
                    }
                };
            }
            ("--ingress", _) => {
                opts.ingress = parse_count(flag_value(args, &mut i, "--ingress"), "--ingress")
            }
            ("--executors", _) => {
                opts.executors = parse_count(flag_value(args, &mut i, "--executors"), "--executors")
            }
            ("--max-batch", _) => {
                opts.max_batch =
                    parse_count(flag_value(args, &mut i, "--max-batch"), "--max-batch").max(1)
            }
            ("--max-delay-us", _) => {
                opts.max_delay_us =
                    parse_count(flag_value(args, &mut i, "--max-delay-us"), "--max-delay-us") as u64
            }
            ("--queue-capacity", _) => {
                opts.queue_capacity = parse_count(
                    flag_value(args, &mut i, "--queue-capacity"),
                    "--queue-capacity",
                )
                .max(1)
            }
            ("--no-open-loop", _) => opts.open_loop_factors.clear(),
            ("--precision", LoadBench::Gateway) => {
                opts.precision = parse_precision(flag_value(args, &mut i, "--precision"))
            }
            ("--help" | "-h", _) => usage(),
            (other, _) => {
                eprintln!("error: unknown {}-bench argument `{other}`", bench.name());
                usage();
            }
        }
        i += 1;
    }
    let result = match run_load_bench(bench, &opts) {
        Ok(result) => result,
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    };
    let arms: Vec<String> = result
        .arms
        .iter()
        .map(|a| format!("{}={}", a.name, a.percent))
        .collect();
    let shape = |run: &LoadRun| {
        format!(
            "{} (shards {}, executors {}, ingress {})",
            run.label, run.shards, run.executors, run.ingress
        )
    };
    println!(
        "{}-bench `{}` [{}]: {} {:.0} quotes/s, {} {:.0} quotes/s ({:.2}x)",
        bench.name(),
        result.env,
        arms.join(","),
        shape(&result.runs[0]),
        result.baseline_qps,
        shape(&result.runs[1]),
        result.scaled_qps,
        result.speedup
    );
    if let (Some(qps), Some(speedup)) = (result.f32_scaled_qps, result.f32_speedup) {
        println!("  f32 scaled {qps:.0} quotes/s ({speedup:.2}x vs f64 scaled)");
    }
    for run in &result.runs {
        let offered = run
            .offered_qps
            .map_or("closed loop".to_string(), |q| format!("offered {q:.0}/s"));
        println!(
            "  {:<18} {offered:>16} -> {:>8.0} quotes/s",
            run.label, run.achieved_qps
        );
        for gateway in &run.fabric.gateways {
            let t = &gateway.telemetry;
            println!(
                "    shard {}/{:<4} p50 {} us, p99 {} us, mean batch {:.1}, rejected {}",
                gateway.arm,
                gateway.shard,
                t.latency.p50_us(),
                t.latency.p99_us(),
                t.mean_batch_size,
                t.rejected
            );
        }
        for arm in run.fabric.arms.iter().filter(|arm| arm.quotes > 0) {
            println!(
                "    arm {:<10} {:>8} quotes, p50 {} us, p95 {} us, p99 {} us, revenue {:.1}",
                arm.name,
                arm.quotes,
                arm.latency.p50_us(),
                arm.latency.p95_us(),
                arm.latency.p99_us(),
                arm.revenue
            );
        }
    }
    match result.save() {
        Ok(path) => println!("(saved to {})", path.display()),
        Err(err) => {
            eprintln!("error: could not write BENCH_{}.json: {err}", bench.name());
            std::process::exit(1);
        }
    }
}

fn main_journal_demo(args: &[String]) {
    let mut opts = JournalDemoOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--env" => opts.env = flag_value(args, &mut i, "--env").to_string(),
            "--checkpoint" => {
                opts.checkpoint = Some(flag_value(args, &mut i, "--checkpoint").into())
            }
            "--journal" => opts.journal = flag_value(args, &mut i, "--journal").into(),
            "--requests" => {
                opts.requests =
                    parse_count(flag_value(args, &mut i, "--requests"), "--requests").max(1)
            }
            "--sessions" => {
                opts.sessions =
                    parse_count(flag_value(args, &mut i, "--sessions"), "--sessions").max(1)
            }
            "--snapshot-every" => {
                opts.snapshot_every = parse_count(
                    flag_value(args, &mut i, "--snapshot-every"),
                    "--snapshot-every",
                ) as u64
            }
            "--flush-every" => {
                opts.flush_every =
                    parse_count(flag_value(args, &mut i, "--flush-every"), "--flush-every") as u64
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown journal-demo argument `{other}`");
                usage();
            }
        }
        i += 1;
    }
    match run_journal_demo(&opts) {
        Ok(result) => {
            println!(
                "journal-demo `{}`: {} frames ({} bytes, {} snapshots) -> {}",
                result.env,
                result.frames,
                result.bytes,
                result.snapshots,
                result.journal.display()
            );
            println!("state digest 0x{:016x}", result.state_digest);
            println!(
                "replay with: experiments replay --env {} --journal {} \
                 --expect-digest 0x{:016x}",
                result.env,
                result.journal.display(),
                result.state_digest
            );
        }
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    }
}

/// Parses `--expect-digest` as hex (with or without `0x`) or decimal.
fn parse_digest(value: &str) -> u64 {
    let parsed = match value
        .strip_prefix("0x")
        .or_else(|| value.strip_prefix("0X"))
    {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => u64::from_str_radix(value, 16).or_else(|_| value.parse::<u64>()),
    };
    match parsed {
        Ok(digest) => digest,
        Err(_) => {
            eprintln!("error: --expect-digest needs a hex digest, got `{value}`");
            usage();
        }
    }
}

fn main_replay(args: &[String]) {
    let mut opts = ReplayCliOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--env" => opts.env = flag_value(args, &mut i, "--env").to_string(),
            "--checkpoint" => {
                opts.checkpoint = Some(flag_value(args, &mut i, "--checkpoint").into())
            }
            "--journal" => opts.journal = flag_value(args, &mut i, "--journal").into(),
            "--snapshot" => {
                opts.snapshot = match flag_value(args, &mut i, "--snapshot") {
                    "auto" => SnapshotChoice::Auto,
                    "none" => SnapshotChoice::None,
                    path => SnapshotChoice::Path(path.into()),
                }
            }
            "--strict" => opts.strict = true,
            "--expect-digest" => {
                opts.expect_digest = Some(parse_digest(flag_value(args, &mut i, "--expect-digest")))
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown replay argument `{other}`");
                usage();
            }
        }
        i += 1;
    }
    match run_replay(&opts) {
        Ok(result) => {
            match result.snapshot_frames {
                Some(frames) => println!(
                    "replayed {} of {} frames after restoring a {frames}-frame snapshot",
                    result.report.frames_applied, result.report.total_frames
                ),
                None => println!(
                    "replayed {} of {} frames from genesis",
                    result.report.frames_applied, result.report.total_frames
                ),
            }
            if result.report.truncated_tail > 0 {
                println!(
                    "recovered past a torn tail of {} bytes (incomplete final frame)",
                    result.report.truncated_tail
                );
            }
            println!("state digest 0x{:016x}", result.report.state_digest);
            match result.digest_matches {
                Some(true) => println!("digest check: OK"),
                Some(false) => {
                    eprintln!("error: digest check FAILED (state diverged from the recording)");
                    std::process::exit(1);
                }
                None => {}
            }
        }
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    }
}

fn main_chaos(args: &[String]) {
    let mut opts = ChaosOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--env" => opts.env = flag_value(args, &mut i, "--env").to_string(),
            "--checkpoint" => {
                opts.checkpoint = Some(flag_value(args, &mut i, "--checkpoint").into())
            }
            "--plan" => opts
                .plans
                .push(flag_value(args, &mut i, "--plan").to_string()),
            "--requests" => {
                opts.requests =
                    parse_count(flag_value(args, &mut i, "--requests"), "--requests").max(4)
            }
            "--sessions" => {
                opts.sessions =
                    parse_count(flag_value(args, &mut i, "--sessions"), "--sessions").max(1)
            }
            "--journal" => opts.journal = flag_value(args, &mut i, "--journal").into(),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown chaos argument `{other}`");
                usage();
            }
        }
        i += 1;
    }
    match run_chaos(&opts) {
        Ok(results) => {
            let mut failed = false;
            for r in &results {
                let replay = if r.replay_equivalent {
                    "replay OK"
                } else {
                    "replay DIVERGED"
                };
                println!(
                    "chaos `{}`: {} admitted / {} quoted / {} errored / {} rejected — \
                     panics {}, expired {}, journal retries {}, {replay}",
                    r.plan,
                    r.admitted,
                    r.quoted,
                    r.errored,
                    r.rejected,
                    r.stats.panics,
                    r.stats.expired,
                    r.stats.journal_retries,
                );
                for violation in &r.violations {
                    failed = true;
                    eprintln!("  VIOLATION: {violation}");
                }
            }
            if failed {
                eprintln!("error: chaos invariants violated");
                std::process::exit(1);
            }
            println!("all {} plan(s) passed", results.len());
        }
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    }
}

fn main_metrics_dump(args: &[String]) {
    let mut opts = MetricsDumpOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sessions" => {
                opts.sessions =
                    parse_count(flag_value(args, &mut i, "--sessions"), "--sessions").max(1)
            }
            "--rounds" => {
                opts.rounds = parse_count(flag_value(args, &mut i, "--rounds"), "--rounds").max(1)
            }
            "--sample-every" => {
                opts.sample_every =
                    parse_count(flag_value(args, &mut i, "--sample-every"), "--sample-every").max(1)
                        as u64
            }
            "--seed" => {
                opts.seed = parse_count(flag_value(args, &mut i, "--seed"), "--seed") as u64
            }
            "--no-save" => opts.save = false,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown metrics-dump argument `{other}`");
                usage();
            }
        }
        i += 1;
    }
    match run_metrics_dump(&opts) {
        Ok(result) => {
            print!("{}", result.stage_report);
            println!(
                "windowed delta: {} of {} completions in the second half",
                result.window_completed, result.completed
            );
            print!("{}", result.text);
            for path in &result.saved {
                println!("(saved to {})", path.display());
            }
            if !result.identity_ok {
                eprintln!("error: stage decomposition identity violated");
                std::process::exit(1);
            }
        }
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    }
}

fn main_slo_check(args: &[String]) {
    let mut opts = SloOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--bench" => opts
                .benches
                .push(flag_value(args, &mut i, "--bench").to_string()),
            "--current" => opts.current_dir = flag_value(args, &mut i, "--current").into(),
            "--baselines" => opts.baseline_dir = flag_value(args, &mut i, "--baselines").into(),
            "--qps-band" => {
                let value = flag_value(args, &mut i, "--qps-band");
                opts.qps_band = match value.parse::<f64>() {
                    Ok(f) if (0.0..1.0).contains(&f) => f,
                    _ => {
                        eprintln!("error: --qps-band expects a fraction in [0, 1), got `{value}`");
                        usage();
                    }
                }
            }
            "--warn-only" => opts.warn_only = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown slo-check argument `{other}`");
                usage();
            }
        }
        i += 1;
    }
    match run_slo_check(&opts) {
        Ok(report) => {
            for f in &report.findings {
                let status = match f.status {
                    SloStatus::Ok => "ok  ",
                    SloStatus::Warn => "WARN",
                    SloStatus::Fail => "FAIL",
                };
                println!(
                    "{status} {}/{:<16} baseline {:>10.1}  current {:>10.1}  ({:+.1}%)",
                    f.bench,
                    f.metric,
                    f.baseline,
                    f.current,
                    (f.ratio - 1.0) * 100.0
                );
            }
            if report.passed() {
                println!("slo-check: all enforced metrics within the noise band");
            } else if opts.warn_only {
                println!("slo-check: regressions found (warn-only mode, not failing)");
            } else {
                eprintln!("error: slo-check found throughput regressions beyond the band");
                std::process::exit(1);
            }
        }
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // Lifecycle subcommands take over the whole argument list.
    match args.first().map(String::as_str) {
        Some("train") => return main_train(&args[1..]),
        Some("serve-bench") => return main_serve_bench(&args[1..]),
        Some("gateway-bench") => return main_load_bench(LoadBench::Gateway, &args[1..]),
        Some("fabric-bench") => return main_load_bench(LoadBench::Fabric, &args[1..]),
        Some("journal-demo") => return main_journal_demo(&args[1..]),
        Some("replay") => return main_replay(&args[1..]),
        Some("chaos") => return main_chaos(&args[1..]),
        Some("metrics-dump") => return main_metrics_dump(&args[1..]),
        Some("slo-check") => return main_slo_check(&args[1..]),
        _ => {}
    }

    let ctx = ExperimentCtx::from_args(&args);
    let mut selected: Vec<&'static str> = Vec::new();

    let mut iter = args.iter().map(String::as_str);
    let mut listed = false;
    while let Some(arg) = iter.next() {
        match arg {
            "--list" => {
                for spec in manifest() {
                    println!("{:<28} {}", spec.name, spec.description);
                }
                listed = true;
            }
            "--all" => {
                for spec in manifest() {
                    select(&mut selected, spec.name);
                }
            }
            "--scenario" => match iter.next() {
                Some("all") => {
                    for kind in ScenarioKind::ALL {
                        select(&mut selected, &format!("scenario-{}", kind.name()));
                    }
                }
                Some(name) => select(&mut selected, &format!("scenario-{name}")),
                None => usage(),
            },
            "--figure" => match iter.next() {
                Some("all") => {
                    for spec in manifest() {
                        if spec.name.starts_with("fig") {
                            select(&mut selected, spec.name);
                        }
                    }
                }
                Some(name) => select(&mut selected, name),
                None => usage(),
            },
            "--run" => match iter.next() {
                Some(name) => select(&mut selected, name),
                None => usage(),
            },
            "--episodes" => {
                // The value itself is consumed by ExperimentCtx::from_args;
                // here we only validate it.
                if iter.next().and_then(|v| v.parse::<usize>().ok()).is_none() {
                    eprintln!("error: --episodes needs a positive count");
                    usage();
                }
            }
            "--full" => {}
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument `{other}`");
                usage();
            }
        }
    }

    if selected.is_empty() {
        if listed {
            return;
        }
        usage();
    }

    let total = selected.len();
    for (i, name) in selected.iter().enumerate() {
        let spec = find(name).expect("selected names come from the manifest");
        println!("=== [{}/{}] {} ===", i + 1, total, spec.name);
        let report = (spec.run)(&ctx);
        report.emit();
        println!();
    }
}
