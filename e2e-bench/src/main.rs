//! `e2e` — the SafeCross frame-path benchmark.
//!
//! ```text
//! e2e --workload <name> --seed <u64> --seconds <s> --trace <0|1>   one run, result as the last line
//! e2e [--seed <u64>] [--seconds <s>] [--trace]                     every workload, one child process each
//! e2e --selfcheck [runs] [--seconds <s>]                           spread of every end-to-end metric over `runs` seeds
//! e2e --manifest                                                   print BENCHMARK.json
//! ```
//!
//! Run from the repository root. See `README.md` beside this package
//! for what each workload and metric means.

mod fleet;
mod gen;
mod layers;
mod micro;
mod report;
mod solo;
mod spec;
mod stats;
mod suite;
mod trace;

use report::Outcome;
use safecross_tensor::{kernel, TensorRng};
use safecross_trafficsim::Weather;
use safecross_videoclass::SlowFastLite;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// What every workload needs: the seed, the footage, the models.
pub struct Ctx {
    pub seed: u64,
    pub pool: Arc<gen::FramePool>,
    /// One classifier per scene. Their weights are configuration, not
    /// input: the same for every seed.
    pub models: Vec<(Weather, SlowFastLite)>,
}

impl Ctx {
    /// Renders the footage unless the workload synthesises its own.
    fn new(seed: u64, footage: bool) -> Self {
        let mut rng = TensorRng::seed_from(0);
        let pool = if footage {
            gen::FramePool::render(seed)
        } else {
            gen::FramePool::empty()
        };
        Ctx {
            seed,
            pool: Arc::new(pool),
            models: Weather::ALL
                .iter()
                .map(|&w| (w, SlowFastLite::new(2, &mut rng)))
                .collect(),
        }
    }
}

/// The per-slice figures behind the quiet-quartile metrics, for
/// whoever wonders how noisy the host was.
fn print_slices(fps: &[f64], mean_ms: &[f64]) {
    let row = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("# slices frames_per_s: {}", row(fps));
    println!("# slices frame_age_mean_ms: {}", row(mean_ms));
}

/// The untraced run of `solo_closed`: every end-to-end metric.
fn solo_end_to_end(ctx: &Ctx, seconds: f64) -> Outcome {
    let setup_s = solo::setup_s(ctx);
    report::reset_peak_rss();
    let pass = solo::run_untraced(ctx, seconds);
    let peak_rss_mb = report::peak_rss_mb();
    print_slices(&pass.slice_fps, &pass.slice_mean_ms);
    let mut outcome = Outcome {
        correct: true,
        attempted: pass.frames,
        failed: 0,
        metrics: vec![
            ("frames_per_s", pass.frames_per_s()),
            (
                "frame_age_mean_ms",
                stats::quiet_quartile(&pass.slice_mean_ms, false),
            ),
            ("delivered_share", 1.0),
            ("healthy_delivered_share", 1.0),
            ("peak_rss_mb", peak_rss_mb),
            ("setup_s", setup_s),
        ],
        problems: Vec::new(),
    };
    let split = solo::split_verdicts(ctx, solo::check_frames(pass.frames));
    if let Err(problem) = solo::same_verdicts("process_frame vs split path", &pass.verdicts, &split)
    {
        outcome.fail(problem);
    }
    outcome
}

/// The untraced run of a fleet workload: every end-to-end metric.
fn fleet_end_to_end(ctx: &Ctx, shape: &fleet::Shape, seconds: f64) -> Outcome {
    let setup_s = fleet::setup_s(ctx, shape);
    let pass = fleet::run(ctx, shape, seconds, false);
    let of =
        |f: fn(&safecross_serve::FleetReport) -> f64| pass.slices.iter().map(f).collect::<Vec<_>>();
    print_slices(&of(|r| r.aggregate_fps), &of(fleet::mean_age_ms));
    let mut outcome = Outcome {
        correct: true,
        attempted: pass.fed(),
        failed: pass.lost,
        metrics: vec![
            ("frames_per_s", pass.quiet(true, |r| r.aggregate_fps)),
            ("frame_age_mean_ms", pass.quiet(false, fleet::mean_age_ms)),
            ("delivered_share", pass.delivered_share(|_| true)),
            (
                "healthy_delivered_share",
                pass.delivered_share(|i| pass.healthy[i]),
            ),
            (
                "peak_rss_mb",
                stats::quiet_quartile(&pass.slice_rss_mb, false),
            ),
            ("setup_s", setup_s),
        ],
        problems: Vec::new(),
    };
    for problem in pass.problems {
        outcome.fail(problem);
    }
    outcome
}

/// One run of one workload, as the driver asks for it.
fn run_one(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let shape = fleet::Shape::named(workload);
    if shape.is_none() && workload != "solo_closed" {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {workload:?}; one of {names:?}"));
    }
    let rendering = Instant::now();
    let ctx = Ctx::new(seed, workload != "zipf_overload");
    println!(
        "# {workload} seed={seed} seconds={seconds} trace={} nproc={} kernel_threads={} isa={:?} \
         pool_hash={:016x} render_s={:.2}",
        u8::from(traced),
        std::thread::available_parallelism().map_or(1, usize::from),
        kernel::threads(),
        kernel::isa(),
        ctx.pool.hash(),
        rendering.elapsed().as_secs_f64(),
    );
    Ok(match (shape, traced) {
        (None, false) => solo_end_to_end(&ctx, seconds),
        (None, true) => layers::solo_per_layer(&ctx, seconds),
        (Some(shape), false) => fleet_end_to_end(&ctx, &shape, seconds),
        (Some(shape), true) => layers::fleet_per_layer(&ctx, workload, &shape, seconds),
    })
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    selfcheck: Option<usize>,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(spec::RUN_SECONDS),
        traced: false,
        selfcheck: None,
        manifest: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                args.traced = match it.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            "--selfcheck" => {
                let runs = it.next_if(|v| v.parse::<usize>().is_ok());
                args.selfcheck = Some(runs.map_or(10, |v| v.parse().expect("checked")));
                if args.selfcheck < Some(2) {
                    return Err("--selfcheck needs at least 2 runs".to_owned());
                }
            }
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    if args.manifest {
        print!("{}", spec::manifest_json());
        return Ok(true);
    }
    // The program's own defaults are what is measured: a run under an
    // override would be filed against the wrong baseline.
    for var in [
        kernel::KERNEL_THREADS_ENV,
        kernel::KERNEL_ISA_ENV,
        "SAFECROSS_BENCH_QUICK",
    ] {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set; unset it — the benchmark measures the program's defaults"
            ));
        }
    }
    if let Some(runs) = args.selfcheck {
        suite::run_selfcheck(args.seed, args.seconds, runs)?;
        return Ok(true);
    }
    let Some(workload) = args.workload else {
        suite::run_suite(args.seed, args.seconds, args.traced)?;
        return Ok(true);
    };
    let outcome = run_one(&workload, args.seed, args.seconds, args.traced)?;
    for problem in &outcome.problems {
        eprintln!("check failed: {problem}");
    }
    if outcome.metrics.iter().any(|(_, v)| !v.is_finite()) {
        return Err("a metric is not a finite number".to_owned());
    }
    println!("{}", outcome.json_line());
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("e2e: {message}");
            ExitCode::from(2)
        }
    }
}
