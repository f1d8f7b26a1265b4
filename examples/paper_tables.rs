//! Regenerates every table and figure of the paper's evaluation (Sec. V)
//! — the one command behind `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run --release --example paper_tables -- <table1..table7|all>...
//! ```
//!
//! | argument | prints |
//! |---|---|
//! | `table1` | Table I, dataset overview |
//! | `table2` | Table II / Fig. 8, detection shoot-out + the morphology ablation |
//! | `table3` | Table III, per-scene accuracy |
//! | `table4` | Table IV, architecture comparison + the Fig. 5 summaries |
//! | `table5` | Table V, few-shot ablation + the K-shot sweep and MAML extension |
//! | `table6` | Table VI / Fig. 7, switch latency + the grouping ablation and timeline |
//! | `table7` | Sec. V-D, left-turn throughput + its telemetry snapshot |
//!
//! Everything is seeded: only Table II's per-frame times and the
//! telemetry snapshot's latency histograms are wall-clock. Tables go to
//! stdout, progress notes to stderr. The dataset (tables 1, 3, 4, 5, 7)
//! and the trained scene models (3, 5, 7) are built once however many
//! tables are asked for; `all` takes a few minutes. Performance is not
//! measured here — that is `e2e-bench/`.

use safecross::experiments::{
    fewshot_split, table1_dataset, table3_scene_accuracy, table4_architectures, table5_fewshot,
    table7_throughput_instrumented, ExperimentConfig, SceneAccuracyResult,
};
use safecross_dataset::Dataset;
use safecross_detect::{shootout, BgsDetector, DangerZone, Detector, ShootoutConfig};
use safecross_fewshot::{adapt, Maml, MamlConfig};
use safecross_modelswitch::{simulate_switch, GpuSpec, ModelDesc, SwitchStrategy, TimelinePhase};
use safecross_tensor::TensorRng;
use safecross_trafficsim::sim::DT;
use safecross_trafficsim::{RenderConfig, Renderer, Scenario, Simulator, VehicleKind, Weather};
use safecross_videoclass::{evaluate, C3dLite, SlowFastLite, TsnLite, VideoClassifier};
use std::cell::OnceCell;
use std::process::ExitCode;

type Table = fn(&Shared);

const TABLES: [(&str, Table); 7] = [
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("table5", table5),
    ("table6", table6),
    ("table7", table7),
];

/// The default-scale dataset and scene models, each built on first use.
struct Shared {
    cfg: ExperimentConfig,
    data: OnceCell<Dataset>,
    scene: OnceCell<SceneAccuracyResult>,
}

impl Shared {
    fn data(&self) -> &Dataset {
        self.data.get_or_init(|| {
            eprintln!(
                "[paper_tables] generating dataset (factor {})...",
                self.cfg.dataset_factor
            );
            table1_dataset(&self.cfg)
        })
    }

    fn scene(&self) -> &SceneAccuracyResult {
        let data = self.data();
        self.scene.get_or_init(|| {
            eprintln!("[paper_tables] training daytime model + few-shot scene adaptation...");
            table3_scene_accuracy(data, &self.cfg)
        })
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted: Option<Vec<Table>> = if args.iter().any(|a| a == "all") {
        Some(TABLES.iter().map(|&(_, run)| run).collect())
    } else {
        args.iter()
            .map(|a| {
                TABLES
                    .iter()
                    .find(|(name, _)| name == a)
                    .map(|&(_, run)| run)
            })
            .collect()
    };
    let Some(wanted) = wanted.filter(|w| !w.is_empty()) else {
        let names: Vec<&str> = TABLES.iter().map(|&(name, _)| name).collect();
        eprintln!("usage: paper_tables <{}|all>...", names.join("|"));
        return ExitCode::FAILURE;
    };
    let shared = Shared {
        cfg: ExperimentConfig::default(),
        data: OnceCell::new(),
        scene: OnceCell::new(),
    };
    for run in wanted {
        run(&shared);
    }
    ExitCode::SUCCESS
}

/// E1 — Table I: the dataset at a scaled version of the paper's counts.
fn table1(shared: &Shared) {
    println!(
        "\n=== Table I: overview of dataset (scaled x{}) ===",
        shared.cfg.dataset_factor
    );
    println!("{}", shared.data().stats());
    println!("(paper: 1966 daytime / 34 rain / 855 snow segments, 32 frames @ 30 Hz)\n");
}

/// E2 — Table II + Fig. 8: the four-method shoot-out on a scripted
/// blind-area scene (the hidden vehicle crosses the danger zone).
fn table2(_: &Shared) {
    let rows = shootout(&ShootoutConfig::default());
    println!("\n=== Table II: execution time of various detection methods ===");
    println!(
        "{:<24} {:>12} {:>10} {:>10} {:>8}",
        "Method", "Time/frame", "Detected", "DetRate", "FPRate"
    );
    for r in &rows {
        println!(
            "{:<24} {:>9.2} ms {:>10} {:>9.0}% {:>7.0}%",
            r.name,
            r.mean_ms_per_frame,
            if r.detected { "Yes" } else { "No" },
            100.0 * r.detection_rate,
            100.0 * r.false_positive_rate
        );
    }
    println!("(paper: BGS 0.74 ms Yes | sparse OF 6.43 ms No | dense OF 224.20 ms Yes | YOLOv3 256.40 ms No)");

    // Ablation: dynamic-background BGS with and without morphology.
    println!("\n--- Ablation: BGS morphological opening ---");
    for (label, with_morph) in [("with opening", true), ("without opening", false)] {
        let mut sim = Simulator::new(Scenario::new(Weather::Snow, true, 0.0), 5);
        let mut renderer = Renderer::new(RenderConfig::default(), Weather::Snow, 5);
        let zone = DangerZone::from_scene(renderer.camera(), sim.intersection(), VehicleKind::Van);
        let mut det = if with_morph {
            BgsDetector::new(320, 240)
        } else {
            BgsDetector::new(320, 240).without_morphology()
        };
        let mut false_pos = 0;
        for _ in 0..40 {
            sim.step(DT);
            let frame = renderer.render(&sim);
            // Empty lane: every detection is a false positive.
            if det.detect(&frame, &zone) {
                false_pos += 1;
            }
        }
        println!("  {label}: {false_pos}/40 false positives on snow noise");
    }
    println!();
}

/// E3 — Table III: the daytime SlowFast model trained from scratch, rain
/// and snow models adapted from it with few-shot learning.
fn table3(shared: &Shared) {
    println!("\n=== Table III: accuracy of different scenes video classification ===");
    print!("{}", shared.scene());
    println!("(paper: daytime 0.9630/0.9667 | snow 0.9416/0.9510 | rain 0.8518/0.8636)\n");
}

/// E4 — Table IV: SlowFast-lite, C3D-lite and TSN-lite trained on the
/// same daytime split, plus their summaries (Fig. 5 stand-in).
fn table4(shared: &Shared) {
    let data = shared.data();
    eprintln!("[paper_tables] training three architectures on the daytime split...");
    let result = table4_architectures(data, &shared.cfg);
    println!("\n=== Table IV: accuracy of different classification methods (daytime) ===");
    print!("{result}");
    println!("(paper: slowfast 0.9630/0.9667 | c3d 0.9644/0.9340 | tsn 0.8855/0.7538)\n");

    let mut rng = TensorRng::seed_from(0);
    let slowfast = SlowFastLite::new(2, &mut rng);
    let c3d = C3dLite::new(2, &mut rng);
    let tsn = TsnLite::new(2, &mut rng);
    println!("--- architecture summaries (Fig. 5 stand-in) ---");
    println!(
        "{}\n{}\n{}\n",
        slowfast.describe(),
        c3d.describe(),
        tsn.describe()
    );
}

/// E5 — Table V: for snow and rain, one model *with* few-shot adaptation
/// from the daytime model and one *without* (from scratch on the same
/// tiny support set), then the shot-count sweep and the MAML extension.
fn table5(shared: &Shared) {
    let (cfg, data) = (&shared.cfg, shared.data());
    let daytime = &shared.scene().models[&Weather::Daytime];

    let result = table5_fewshot(data, daytime, cfg);
    println!("\n=== Table V: accuracy of few shot learning ===");
    print!("{result}");
    println!(
        "(paper: snow 0.9416/0.9510 vs 0.8889/0.8648 | rain 0.8518/0.8636 vs 0.5455/0.5833)\n"
    );

    // Ablation: shot count K vs adapted accuracy on snow.
    println!("--- Ablation: shots per class (snow) ---");
    let mut rng = TensorRng::seed_from(cfg.seed + 5);
    for k in [1usize, 2, 4] {
        let (support, test) = fewshot_split(data, Weather::Snow, k, &mut rng);
        let batch = data.batch(&support);
        let mut adapted = adapt(daytime, &batch, cfg.adapt_steps, 0.05);
        let eval = evaluate(&mut adapted, data, &test);
        println!(
            "  K={k}: top1 {:.4}  mean_class {:.4}  (n={})",
            eval.top1, eval.mean_class, eval.samples
        );
    }
    println!();

    // Extension (paper Sec. III-D): full MAML meta-training on daytime
    // episodes before adaptation, compared against plain transfer.
    println!("--- Extension: MAML meta-initialisation vs plain transfer (rain) ---");
    let mut rng = TensorRng::seed_from(cfg.seed + 7);
    let day_idx = data.indices_of_weather(Weather::Daytime);
    let mut meta_model = daytime.clone();
    let maml = Maml::new(MamlConfig {
        meta_iterations: 6,
        meta_batch: 2,
        inner_steps: 2,
        k_shot: 3,
        query_per_class: 3,
        outer_lr: 0.005,
        ..MamlConfig::default()
    });
    let losses = maml.meta_train(&mut meta_model, data, &day_idx, cfg.seed + 8);
    println!(
        "  meta-training query loss: {:.3} -> {:.3}",
        losses.first().expect("at least one meta iteration"),
        losses.last().expect("at least one meta iteration")
    );
    let (support, test) = fewshot_split(data, Weather::Rain, 3, &mut rng);
    let batch = data.batch(&support);
    for (label, base) in [
        ("plain daytime transfer", daytime),
        ("MAML meta-init", &meta_model),
    ] {
        let mut adapted = adapt(base, &batch, cfg.adapt_steps, 0.05);
        let eval = evaluate(&mut adapted, data, &test);
        println!("  {label:<24} -> {eval}");
    }
    println!();
}

/// E6 — Table VI + Fig. 7: stop-and-start vs PipeSwitch switch latency,
/// the grouping-granularity ablation and the pipeline timeline. Pure
/// simulation: byte-identical on every run.
fn table6(_: &Shared) {
    let gpu = GpuSpec::rtx_2080_ti();
    let models = [
        ("Slowfast 4x16,R50", ModelDesc::slowfast_r50()),
        ("ResNet152", ModelDesc::resnet152()),
        ("Inception v3", ModelDesc::inception_v3()),
    ];

    println!("\n=== Table VI: comparison between different models switching ===");
    println!("{:<20} {:>14} {:>14}", "", "End-start", "Pipeswitch");
    for (label, model) in &models {
        let cold = simulate_switch(&gpu, model, &SwitchStrategy::StopAndStart);
        let pipe = simulate_switch(&gpu, model, &SwitchStrategy::PipelinedOptimal);
        println!(
            "{:<20} {:>11.2} ms {:>11.2} ms",
            label, cold.switch_overhead_ms, pipe.switch_overhead_ms
        );
    }
    println!("(paper: slowfast 5614.75/6.06 | resnet152 4081.15/5.30 | inception 3612.25/4.32)\n");

    println!("--- Ablation: PipeSwitch grouping granularity (ResNet152) ---");
    let resnet = ModelDesc::resnet152();
    for (label, strategy) in [
        ("per-layer", SwitchStrategy::PipelinedPerLayer),
        ("groups of 8", SwitchStrategy::PipelinedGrouped(8)),
        ("groups of 32", SwitchStrategy::PipelinedGrouped(32)),
        (
            "single group",
            SwitchStrategy::PipelinedGrouped(resnet.num_layers()),
        ),
        ("optimal (pruned DP)", SwitchStrategy::PipelinedOptimal),
    ] {
        let r = simulate_switch(&gpu, &resnet, &strategy);
        println!(
            "  {:<20} {:>4} groups  total {:>8.2} ms  overhead {:>6.2} ms",
            label, r.groups, r.total_ms, r.switch_overhead_ms
        );
    }

    // Fig. 7: the pipelined transmission/execution timeline (first 6
    // groups of the optimal SlowFast schedule).
    println!("\n--- Fig. 7: PipeSwitch timeline (slowfast, optimal groups) ---");
    let report = simulate_switch(&gpu, &models[0].1, &SwitchStrategy::PipelinedOptimal);
    for e in report.timeline.iter().take(12) {
        let phase = match e.phase {
            TimelinePhase::Setup => "setup",
            TimelinePhase::Transmit => "xmit ",
            TimelinePhase::Compute => "exec ",
        };
        println!(
            "  group {:>2} {}  {:>8.3} -> {:>8.3} ms",
            e.group, phase, e.start_ms, e.end_ms
        );
    }
    println!("  ... ({} groups total)\n", report.groups);
}

/// E7 — Sec. V-D: the paper's blind-zone test set (63 segments: 32 safe,
/// 31 danger) classified with the trained scene models.
fn table7(shared: &Shared) {
    let (report, snapshot) = table7_throughput_instrumented(&shared.scene().models, &shared.cfg);
    println!("\n=== Sec. V-D: left-turn throughput with blind zones ===");
    println!("{report}");
    println!("(paper: 63 segments, accuracy 1.0, 32/63 immediate turns = +~50% throughput)\n");
    println!("--- telemetry snapshot (throughput study) ---");
    println!("{snapshot}");
}
