//! The command end to end: every metric name a run prints is declared in
//! `BENCHMARK.json` (with its unit) and every declared name is printed,
//! and each output check fails the run — non-zero exit, no numbers — when
//! it is broken on purpose.
//!
//! Runs are short and use a light rate ladder so they pass on a loaded
//! machine; they are serialized so they do not disturb each other.

use std::process::Command;
use std::sync::Mutex;

use vtm_benchmark::WORKLOADS;
use vtm_obs::JsonValue;

static SERIAL: Mutex<()> = Mutex::new(());

struct Run {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

fn run(workload: &str, trace: u8, seconds: &str, extra: &[&str]) -> Run {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let out = Command::new(env!("CARGO_BIN_EXE_vtm-benchmark"))
        .args(["--workload", workload, "--seed", "3", "--seconds", seconds])
        .args(["--trace", &trace.to_string()])
        .args(["--ladder", "2000,4000", "--reference", "4000"])
        .args(extra)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark");
    Run {
        code: out.status.code(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

/// `(name, unit)` of the `end_to_end` or `per_layer` metrics declared in
/// the repository's `BENCHMARK.json`.
fn declared(kind: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    doc.get(kind)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn check_names(workload: &str, trace: u8, seconds: &str) {
    let run = run(workload, trace, seconds, &[]);
    assert_eq!(
        run.code,
        Some(0),
        "{workload} --trace {trace} failed: {}",
        run.stderr
    );
    let last = run.stdout.lines().last().expect("a result line");
    let result = JsonValue::parse(last).expect("the last line is JSON");
    assert_eq!(
        result.get("correct").and_then(JsonValue::as_bool),
        Some(true)
    );
    assert!(result.get("attempted").and_then(JsonValue::as_u64).unwrap() >= 1);
    assert!(result.get("failed").and_then(JsonValue::as_u64).is_some());
    let printed: Vec<(String, String)> = result
        .get("metrics")
        .and_then(JsonValue::as_object)
        .expect("a metrics object")
        .iter()
        .map(|(name, metric)| {
            assert!(metric.get("value").and_then(JsonValue::as_f64).is_some());
            let unit = metric.get("unit").and_then(JsonValue::as_str).unwrap();
            (name.clone(), unit.to_string())
        })
        .collect();
    let kind = if trace == 1 {
        "per_layer"
    } else {
        "end_to_end"
    };
    assert_eq!(printed, declared(kind), "{workload} --trace {trace}");
}

#[test]
fn the_declared_workloads_are_the_ones_the_command_runs() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn quote_closed_prints_exactly_the_declared_metrics() {
    check_names("quote-closed", 0, "2");
    check_names("quote-closed", 1, "2");
}

#[test]
fn quote_open_prints_exactly_the_declared_metrics() {
    check_names("quote-open", 0, "2");
    check_names("quote-open", 1, "2");
}

#[test]
fn train_prints_exactly_the_declared_metrics() {
    check_names("train", 0, "1");
    check_names("train", 1, "1");
}

fn assert_fails(workload: &str, trace: u8, fault: &str, message: &str) {
    let run = run(workload, trace, "2", &["--inject-fault", fault]);
    assert_eq!(run.code, Some(1), "{fault}: {}", run.stderr);
    assert!(run.stdout.is_empty(), "{fault}: printed {}", run.stdout);
    assert!(run.stderr.contains(message), "{fault}: {}", run.stderr);
}

#[test]
fn a_price_that_does_not_reprice_bit_equal_fails_the_run() {
    assert_fails("quote-closed", 0, "reprice", "was served");
    assert_fails("quote-open", 1, "reprice", "was served");
}

#[test]
fn books_that_do_not_balance_fail_the_run() {
    assert_fails("quote-closed", 0, "books", "submitted");
    assert_fails("quote-closed", 1, "books", "submitted");
}

#[test]
fn a_journal_that_does_not_replay_to_the_live_digest_fails_the_run() {
    assert_fails("quote-open", 0, "journal", "replays to digest");
}

#[test]
fn a_hand_driven_loop_that_differs_from_the_trainer_fails_the_run() {
    assert_fails("train", 1, "snapshot", "different policy");
}

#[test]
fn a_bad_invocation_exits_without_a_result() {
    let run = run("no-such-workload", 0, "1", &[]);
    assert_eq!(run.code, Some(1));
    assert!(run.stdout.is_empty());
    let run = run_bare(&["--workload", "train"]);
    assert_eq!(run, Some(2));
}

fn run_bare(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_vtm-benchmark"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .status()
        .expect("run the benchmark")
        .code()
}
