//! Detection shoot-out: a quick Table II / Fig. 8 run.
//!
//! Compares background subtraction, sparse and dense optical flow, and
//! the YOLO-lite grid detector on a scripted blind-area scene and prints
//! per-method timing, hit/miss, and false-positive rates. The full-size
//! run is `cargo run --release --example paper_tables -- table2`; this
//! example uses the small YOLO profile so it finishes quickly even in
//! debug builds.
//!
//! Run with: `cargo run --release --example detection_shootout`

use safecross_detect::{shootout, ShootoutConfig, YoloProfile};

fn main() {
    println!("=== Detection method shoot-out (Table II, quick profile) ===\n");
    let config = ShootoutConfig {
        yolo_profile: YoloProfile::Small,
        yolo_epochs: 6,
        ..ShootoutConfig::default()
    };
    println!(
        "scene: occluded intersection, hidden vehicle crossing the danger zone\n\
         legacy camera degradation: 3x3 blur + sigma {} sensor noise\n",
        config.legacy_noise
    );
    let rows = shootout(&config);
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
    println!(
        "\npaper Table II: BGS 0.74 ms Yes | sparse OF 6.43 ms No | dense OF 224.20 ms Yes | YOLOv3 256.40 ms No"
    );
    println!("(`paper_tables table2` uses the paper-size YOLO profile for faithful timing ratios)");
}
