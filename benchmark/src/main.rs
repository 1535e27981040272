//! One perf ledger for the whole stack. See `benchmark/README.md`.
//!
//! ```text
//! booster-benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//!                   [--smoke] [--selfcheck] [--ledger <file>]
//!                   [--emit-manifest]
//! ```
//!
//! One workload runs in this process and prints, as the last line of
//! standard output, one JSON object `{correct, attempted, failed,
//! metrics}`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. `--workload all`, `--selfcheck` and
//! `--ledger` run the workloads as child processes of this executable.

mod api;
mod layers;
mod loadgen;
mod measure;
mod pipeline;
mod placement;
mod spec;
mod trace;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use measure::{Sheet, Stat};
use spec::{Better, Workload, END_TO_END, EXACT, PER_LAYER, RUN_SECONDS, WORKLOADS};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    selfcheck: bool,
    ledger: Option<String>,
    emit_manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        selfcheck: false,
        ledger: None,
        emit_manifest: false,
    };
    let mut seconds_given = false;
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => a.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--smoke" => a.smoke = true,
            "--selfcheck" => a.selfcheck = true,
            "--ledger" => a.ledger = Some(value("a file path")?),
            "--emit-manifest" => a.emit_manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    if a.smoke && !seconds_given {
        a.seconds = 0.8;
    }
    Ok(a)
}

fn json_number(v: f64) -> String {
    // JSON has no NaN or infinity; a metric that could not be measured
    // is reported as null and the run as incorrect.
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Check the sheet against the table it must fill, print the readable
/// rows, and return the contract's result line.
fn report(sheet: &mut Sheet, table: &[(&'static str, &'static str)]) -> String {
    for (name, _) in table {
        let measured = sheet.get(name).is_some_and(|s| s.value.is_finite());
        sheet.check(measured, &format!("metric {name} was measured"));
    }
    let reported: Vec<&str> = sheet.metrics.iter().map(|(name, _)| *name).collect();
    for name in reported {
        let known = table.iter().any(|(n, _)| *n == name);
        sheet.check(known, &format!("metric {name} is in the benchmark's table"));
    }
    let mut metrics = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let s = sheet.get(name).unwrap_or(Stat::single(f64::NAN));
        println!("metric {name} {} {unit} min {} max {} n {}", s.value, s.min, s.max, s.n);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(s.value)
        );
    }
    for (name, value) in &sheet.counts {
        println!("count {name} {value}");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        sheet.failed == 0,
        sheet.attempted,
        sheet.failed
    )
}

fn run_one(w: Workload, args: &Args) -> ExitCode {
    let w = if args.smoke { w.smoke() } else { w };
    placement::init();
    measure::settle_allocator();
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "# workload {} seed {} seconds {} trace {} smoke {} nproc {nproc}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke
    );
    let (mut sheet, table): (Sheet, Vec<_>) = if args.trace {
        let (sheet, rec) = layers::run(&w, args.seed, args.seconds);
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/{}.trace.json", w.name);
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, rec.chrome_json()));
        match written {
            Ok(()) => println!("# {} spans written to {path}", rec.len()),
            Err(e) => eprintln!("warning: trace file {path} not written: {e}"),
        }
        for m in &PER_LAYER {
            println!("# {} should move {}", m.name, m.moves);
        }
        (sheet, PER_LAYER.iter().map(|m| (m.name, m.unit)).collect())
    } else {
        let sheet = pipeline::run(&w, args.seed, args.seconds);
        (sheet, END_TO_END.iter().map(|m| (m.name, m.unit)).collect())
    };
    let line = report(&mut sheet, &table);
    println!("{line}");
    if sheet.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One `metric` row as a child printed it.
struct Row {
    name: String,
    value: f64,
    unit: String,
    min: f64,
    max: f64,
    n: u64,
}

/// What a child run printed: its metric rows, its counts, and whether
/// it exited cleanly.
struct ChildRun {
    workload: &'static str,
    trace: bool,
    ok: bool,
    metrics: Vec<Row>,
    counts: Vec<(String, u64)>,
}

fn run_child(w: &Workload, args: &Args, trace: bool) -> ChildRun {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()]);
    cmd.args(["--seconds", &args.seconds.to_string(), "--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child; its stderr (check failures) passes through.
    let out = cmd.stderr(std::process::Stdio::inherit()).output().expect("child process runs");
    let mut run = ChildRun {
        workload: w.name,
        trace,
        ok: out.status.success(),
        metrics: Vec::new(),
        counts: Vec::new(),
    };
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["metric", name, value, unit, "min", min, "max", max, "n", n] => {
                run.metrics.push(Row {
                    name: name.to_string(),
                    value: value.parse().unwrap_or(f64::NAN),
                    unit: unit.to_string(),
                    min: min.parse().unwrap_or(f64::NAN),
                    max: max.parse().unwrap_or(f64::NAN),
                    n: n.parse().unwrap_or(0),
                })
            }
            ["count", name, value] => {
                run.counts.push((name.to_string(), value.parse().unwrap_or(0)));
            }
            _ => {}
        }
    }
    println!("{:<16} trace {} {}", w.name, u8::from(trace), if run.ok { "ok" } else { "FAILED" });
    for Row { name, value, unit, min, max, n } in &run.metrics {
        println!("  {name:<36} {value:>14.4} {unit:<7} [{min:.4} .. {max:.4}] n={n}");
    }
    run
}

fn selected(args: &Args) -> Vec<Workload> {
    match args.workload.as_deref() {
        None | Some("all") => WORKLOADS.to_vec(),
        Some(name) => spec::workload(name).into_iter().collect(),
    }
}

/// The revision the ledger was measured at, as git names the checkout
/// this was run from.
fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(|| "unknown".into(), |out| String::from_utf8_lossy(&out.stdout).trim().into())
}

fn ledger_json(args: &Args, runs: &[ChildRun]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{{\n  \"schema\": 1,\n  \"rev\": \"{}\",\n  \"nproc\": {nproc},\n  \"seed\": {},\n  \"seconds\": {},\n  \"runs\": [",
        git_rev(),
        args.seed,
        args.seconds
    );
    for (i, r) in runs.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"workload\": \"{}\", \"trace\": {}, \"correct\": {}, \"metrics\": {{",
            r.workload,
            u8::from(r.trace),
            r.ok
        );
        for (j, Row { name, value, unit, min, max, n }) in r.metrics.iter().enumerate() {
            let sep = if j + 1 < r.metrics.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "      \"{name}\": {{\"value\": {}, \"min\": {}, \"max\": {}, \"n\": {n}, \"unit\": \"{unit}\"}}{sep}",
                json_number(*value),
                json_number(*min),
                json_number(*max)
            );
        }
        s.push_str("    }, \"counts\": {");
        for (j, (name, value)) in r.counts.iter().enumerate() {
            let sep = if j == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{name}\": {value}");
        }
        let sep = if i + 1 < runs.len() { "," } else { "" };
        let _ = writeln!(s, "}}}}{sep}");
    }
    s.push_str("  ]\n}\n");
    s
}

/// Run every selected workload once untraced and once traced, print the
/// tables, and optionally write the ledger file.
fn run_all(args: &Args) -> ExitCode {
    let mut runs = Vec::new();
    for w in selected(args) {
        runs.push(run_child(&w, args, false));
        runs.push(run_child(&w, args, true));
    }
    if let Some(path) = &args.ledger {
        if let Err(e) = std::fs::write(path, ledger_json(args, &runs)) {
            eprintln!("ledger {path} not written: {e}");
            return ExitCode::FAILURE;
        }
        println!("ledger written to {path}");
    }
    if runs.iter().all(|r| r.ok) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run the untraced matrix twice back to back and hold the second set
/// against the first with the benchmark's own bounds; deterministic
/// counts must repeat exactly.
fn selfcheck(args: &Args) -> ExitCode {
    let workloads = selected(args);
    let first: Vec<ChildRun> = workloads.iter().map(|w| run_child(w, args, false)).collect();
    let second: Vec<ChildRun> = workloads.iter().map(|w| run_child(w, args, false)).collect();
    let mut bad = 0;
    println!(
        "\n{:<16} {:<22} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "first", "second", "worse%", "bound%"
    );
    for (a, b) in first.iter().zip(&second) {
        if !(a.ok && b.ok) {
            println!("{:<16} a run failed its checks", a.workload);
            bad += 1;
        }
        for m in &END_TO_END {
            let find = |r: &ChildRun| r.metrics.iter().find(|x| x.name == m.name).map(|x| x.value);
            let (Some(x), Some(y)) = (find(a), find(b)) else {
                println!("{:<16} {:<22} missing", a.workload, m.name);
                bad += 1;
                continue;
            };
            let worse = match m.better {
                Better::Lower => (y - x) / x,
                Better::Higher => (x - y) / x,
            };
            // Both sets have the same seed, so a count must repeat exactly.
            let bound = if m.name == EXACT { 0.0 } else { m.bound };
            let within = worse <= bound;
            let verdict = if within { "" } else { "  OUT OF BOUND" };
            bad += u32::from(!within);
            println!(
                "{:<16} {:<22} {x:>12.4} {y:>12.4} {:>8.2} {:>7.1}{verdict}",
                a.workload,
                m.name,
                100.0 * worse,
                100.0 * bound
            );
        }
        if a.counts != b.counts {
            println!("{:<16} counts differ: {:?} vs {:?}", a.workload, a.counts, b.counts);
            bad += 1;
        }
    }
    if bad == 0 {
        println!("selfcheck: the two sets agree within the bounds; counts identical");
        ExitCode::SUCCESS
    } else {
        println!("selfcheck: {bad} disagreement(s)");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.emit_manifest {
        print!("{}", spec::manifest_json());
        return ExitCode::SUCCESS;
    }
    if args.selfcheck {
        return selfcheck(&args);
    }
    match args.workload.as_deref() {
        Some("all") => run_all(&args),
        Some(name) => match spec::workload(name) {
            Some(w) => run_one(w, &args),
            None => {
                let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!("unknown workload {name}; choose one of {names:?} or all");
                ExitCode::from(2)
            }
        },
        None => {
            eprintln!("--workload <name|all> is required");
            ExitCode::from(2)
        }
    }
}
