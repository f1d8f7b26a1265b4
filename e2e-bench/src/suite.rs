//! The modes a person runs: every workload in a child process each,
//! and the self-check that replays the driver's acceptance test.

use crate::layers::trace_path;
use crate::{report, spec, stats};
use safecross_tensor::kernel;
use std::collections::HashMap;
use std::process::Command;

/// Runs one workload in a child process (so `peak_rss_mb`, allocator
/// and kernel state are its own) and reads its result line back.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<report::Parsed, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = stdout.lines().last().and_then(report::parse_line);
    match parsed {
        Some(parsed) if output.status.success() && parsed.correct => Ok(parsed),
        _ => Err(format!(
            "{workload} seed {seed} failed ({}):\n{}{}",
            output.status,
            stdout,
            String::from_utf8_lossy(&output.stderr)
        )),
    }
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

fn print_host() {
    println!(
        "host: nproc={} kernel_threads={} isa={:?} rustc=\"{}\" git={}",
        std::thread::available_parallelism().map_or(1, usize::from),
        kernel::threads(),
        kernel::isa(),
        command_output("rustc", &["--version"]),
        command_output("git", &["rev-parse", "HEAD"]),
    );
}

fn print_metrics(workload: &str, parsed: &report::Parsed) {
    println!(
        "{workload}: ops_attempted={} ops_failed={}",
        parsed.attempted, parsed.failed
    );
    for (name, value) in &parsed.metrics {
        let unit = spec::unit_of(name).unwrap_or("?");
        println!("  {name:<36} {value:>16.4} {unit}");
    }
}

/// Every workload, one child each; with `traced`, the per-layer pass
/// as well.
pub fn run_suite(seed: u64, seconds: f64, traced: bool) -> Result<(), String> {
    print_host();
    for w in &spec::WORKLOADS {
        print_metrics(w.name, &run_child(w.name, seed, seconds, false)?);
        if traced {
            print_metrics(w.name, &run_child(w.name, seed, seconds, true)?);
            println!("  spans: {}", trace_path(w.name).display());
        }
    }
    Ok(())
}

/// The driver's acceptance test, run here: `runs` seeds per workload,
/// twice; every metric's interquartile spread (as a share of its
/// median) must stay within its bound in both sets, and the second
/// set's median may not be worse than the first's by more than the
/// bound. Spreads above a third of the bound are flagged.
pub fn run_selfcheck(seed: u64, seconds: f64, runs: usize) -> Result<(), String> {
    print_host();
    let mut failures = Vec::new();
    for w in &spec::WORKLOADS {
        let mut sets: Vec<HashMap<String, Vec<f64>>> = Vec::new();
        for set in 0..2 {
            let mut values: HashMap<String, Vec<f64>> = HashMap::new();
            for run in 0..runs {
                let parsed = run_child(w.name, seed + (set * runs + run) as u64, seconds, false)?;
                for (name, value) in parsed.metrics {
                    values.entry(name).or_default().push(value);
                }
            }
            sets.push(values);
        }
        println!("{}:", w.name);
        for m in &spec::END_TO_END {
            let (first, second) = (&sets[0][m.name], &sets[1][m.name]);
            let spreads = [
                stats::quartile_spread(first),
                stats::quartile_spread(second),
            ];
            let (a, b) = (stats::median(first), stats::median(second));
            let worse = if m.better == "higher" {
                (a - b) / a
            } else {
                (b - a) / a
            };
            let spread = spreads[0].max(spreads[1]);
            let verdict = if m.name != "setup_s" && spread > m.bound {
                failures.push(format!(
                    "{} {}: spread {spread:.4} > bound {}",
                    w.name, m.name, m.bound
                ));
                "SPREAD > BOUND"
            } else if worse > m.bound {
                failures.push(format!(
                    "{} {}: second median worse by {worse:.4}",
                    w.name, m.name
                ));
                "MEDIAN DRIFT > BOUND"
            } else if m.name != "setup_s" && spread > m.bound / 3.0 {
                "spread > bound/3"
            } else {
                "ok"
            };
            println!(
                "  {:<26} median {a:>12.4} / {b:>12.4} {:<5} spread {:.4} / {:.4}  drift {worse:+.4}  bound {:.2}  {verdict}",
                m.name, m.unit, spreads[0], spreads[1], m.bound
            );
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}
