//! The repository benchmark: end-to-end and per-layer figures of the model
//! checker on three fixed workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paxos-bfs --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. The parent process schedules repetitions
//! for `--seconds`, each in a child process of its own (this same binary,
//! re-run with `--child <mode>`), checks every run against the workload's
//! pinned answer, and prints medians as one JSON object on its last line of
//! stdout. `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer ones. A summary with quartiles and sample counts goes to
//! stderr. See `perfbench/README.md`.

mod child;
mod metrics;
mod procfs;
mod replay;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use child::Mode;
use stats::{median, quartiles, relative_spread, Rng};
use workloads::Workload;

/// Scratch space, relative to the directory the benchmark runs from.
const WORK_DIR: &str = ".perfbench";

/// Fewest repetitions of each kind a run makes, however short `--seconds`.
fn minimum_runs(mode: Mode, trace: bool) -> usize {
    match (mode, trace) {
        (Mode::Run | Mode::Traced, false) => 3,
        _ => 1,
    }
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: Option<Mode>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut child = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--child" => {
                let name = value()?;
                child = Some(Mode::from_name(name).ok_or(format!("unknown child mode {name:?}"))?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        child,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match args.child {
        Some(mode) => {
            let work = std::env::current_dir()
                .expect("current directory")
                .join(WORK_DIR);
            print!(
                "{}",
                child::run(args.workload, mode, args.seed, &work).render()
            );
            ExitCode::SUCCESS
        }
        None => match orchestrate(&args) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

/// The repetitions of one kind and what they reported.
#[derive(Default)]
struct Samples {
    runs: usize,
    total_s: f64,
    last_s: f64,
}

/// Schedules child repetitions until `--seconds` is spent and each kind
/// has its minimum, then reduces them to medians. Each next repetition is
/// of the kind that has had the least time so far, so every kind gets a
/// similar share of the run; the seed breaks ties.
fn orchestrate(args: &Args) -> Result<String, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let work = root.join(WORK_DIR);
    let tmp = work.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;

    let (mut kinds, catalogue) = if args.trace {
        let mut kinds = vec![Mode::Run, Mode::Traced, Mode::Replay];
        if args.workload.sequential().is_some() {
            kinds.push(Mode::Sequential);
        }
        if args.workload.symmetric().is_some() {
            kinds.push(Mode::Symmetric);
        }
        (kinds, metrics::PER_LAYER)
    } else {
        (vec![Mode::Run, Mode::Traced], metrics::END_TO_END)
    };

    let mut rng = Rng::new(args.seed);
    let mut samples: BTreeMap<&'static str, Samples> = kinds
        .iter()
        .map(|m| (m.name(), Samples::default()))
        .collect();
    let mut metrics: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut attempted, mut failed) = (0, 0);
    let started = Instant::now();
    loop {
        rng.shuffle(&mut kinds);
        let short: Vec<Mode> = kinds
            .iter()
            .copied()
            .filter(|m| samples[m.name()].runs < minimum_runs(*m, args.trace))
            .collect();
        let candidates = if short.is_empty() { &kinds } else { &short };
        let mode = *candidates
            .iter()
            .min_by(|a, b| {
                samples[a.name()]
                    .total_s
                    .total_cmp(&samples[b.name()].total_s)
            })
            .expect("at least one kind");
        let next_s = samples[mode.name()].last_s;
        if short.is_empty() && started.elapsed().as_secs_f64() + next_s > args.seconds {
            break;
        }
        let t = Instant::now();
        let report = spawn_child(&exe, &root, &tmp, args.workload, mode, rng.next_u64())?;
        let entry = samples
            .get_mut(mode.name())
            .expect("every kind has an entry");
        entry.runs += 1;
        entry.last_s = t.elapsed().as_secs_f64();
        entry.total_s += entry.last_s;
        attempted += report.attempted;
        failed += report.failed;
        for (name, value) in report.metrics {
            metrics.entry(name).or_default().push(value);
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);

    let runs: usize = samples.values().map(|s| s.runs).sum();
    let mut values: BTreeMap<&str, f64> = metrics
        .iter()
        .map(|(name, v)| (*name, median(v).expect("a recorded metric has samples")))
        .collect();
    if args.trace {
        if let (Some(&plain), Some(&traced)) =
            (values.get("verdict_s"), values.get("traced_verdict_s"))
        {
            values.insert("trace.overhead_share", traced / plain - 1.0);
            let sequential = values.get("sequential_verdict_s").copied().unwrap_or(plain);
            values.insert("checker.pool_vs_seq", sequential / plain);
        }
    } else {
        values.insert(
            "correct_share",
            (attempted - failed) as f64 / attempted.max(1) as f64,
        );
    }
    let missing: Vec<&str> = catalogue
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| !values.contains_key(n))
        .collect();

    eprintln!(
        "perfbench {} seed {} trace {}: {runs} repetitions, {attempted} checker runs, {failed} failed, {:.1} s",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        started.elapsed().as_secs_f64()
    );
    for (name, unit) in catalogue {
        let samples = metrics.get(name).map_or(&[][..], Vec::as_slice);
        let (q1, q3) = quartiles(samples).unwrap_or((f64::NAN, f64::NAN));
        eprintln!(
            "  {name:<30} {:>16.6} {unit:<6} q1 {q1:.6} q3 {q3:.6} spread {:.4} n {}",
            values.get(name).copied().unwrap_or(f64::NAN),
            relative_spread(samples).unwrap_or(f64::NAN),
            samples.len()
        );
    }
    if !missing.is_empty() {
        eprintln!("perfbench: no samples for {}", missing.join(", "));
    }
    let correct = failed == 0 && missing.is_empty();
    Ok(metrics::result_line(
        correct, attempted, failed, catalogue, &values,
    ))
}

/// What one child reported.
struct ChildReport {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64)>,
}

fn spawn_child(
    exe: &Path,
    root: &Path,
    tmp: &Path,
    workload: Workload,
    mode: Mode,
    seed: u64,
) -> Result<ChildReport, String> {
    let output = Command::new(exe)
        .args(["--child", mode.name(), "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .current_dir(root)
        // Spill files of the store and frontier go to the temp directory.
        .env("TMPDIR", tmp)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut report = parse_child(&text)?;
    if !output.status.success() {
        // A panicking run counts as one failed attempt.
        eprintln!(
            "perfbench: {} child {} {}",
            workload.name(),
            mode.name(),
            output.status
        );
        report.attempted += 1;
        report.failed += 1;
    }
    Ok(report)
}

fn parse_child(text: &str) -> Result<ChildReport, String> {
    let known = |name: &str| {
        metrics::END_TO_END
            .iter()
            .chain(metrics::PER_LAYER)
            .map(|(n, _)| *n)
            .chain(metrics::INTERNAL.iter().copied())
            .find(|n| *n == name)
    };
    let mut report = ChildReport {
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for line in text.lines() {
        let mut words = line.splitn(3, ' ');
        match (words.next(), words.next(), words.next()) {
            (Some("metric"), Some(name), Some(value)) => {
                let name = known(name).ok_or(format!("child reported unknown metric {name}"))?;
                let value: f64 = value.parse().map_err(|e| format!("metric {name}: {e}"))?;
                report.metrics.push((name, value));
            }
            (Some("attempt"), Some("ok"), None) => report.attempted += 1,
            (Some("attempt"), Some("fail"), why) => {
                eprintln!("perfbench: wrong answer: {}", why.unwrap_or(""));
                report.attempted += 1;
                report.failed += 1;
            }
            _ => return Err(format!("unexpected child output line {line:?}")),
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args = parse_args(&strings(&[
            "--workload",
            "storage-ooc",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: Workload::StorageOoc,
                seed: 7,
                seconds: 20.0,
                trace: true,
                child: None
            }
        );
        assert!(parse_args(&strings(&["--seed", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--workload", "paxos-bfs", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--workload", "paxos-bfs", "--seconds", "0"])).is_err());
        assert!(parse_args(&strings(&["--workload", "paxos-bfs", "--bogus"])).is_err());
    }

    #[test]
    fn child_output_round_trips() {
        let text = "metric verdict_s 1.25\nmetric store.lookup_us 42\nattempt ok\nattempt fail paxos-bfs: got x\n";
        let report = parse_child(text).unwrap();
        assert_eq!(report.attempted, 2);
        assert_eq!(report.failed, 1);
        assert_eq!(
            report.metrics,
            vec![("verdict_s", 1.25), ("store.lookup_us", 42.0)]
        );
        assert!(parse_child("metric nonsense 1\n").is_err());
        assert!(parse_child("hello\n").is_err());
    }
}
