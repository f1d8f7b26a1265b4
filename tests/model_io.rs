//! Weight persistence across crates: train -> save -> load -> identical
//! behaviour, plus the model-switching payload derived from real models.

use safecross_dataset::{DatasetSpec, SegmentGenerator};
use safecross_modelswitch::{simulate_switch, GpuSpec, ModelDesc, SwitchStrategy};
use safecross_nn::{load_grouped, save_grouped, Mode};
use safecross_tensor::TensorRng;
use safecross_videoclass::{train, SlowFastLite, TrainConfig, VideoClassifier};

fn trained_model() -> (SlowFastLite, safecross_dataset::Dataset) {
    let spec = DatasetSpec {
        daytime_segments: 8,
        rain_segments: 0,
        snow_segments: 0,
        ..DatasetSpec::tiny()
    };
    let data = SegmentGenerator::new(50).generate_dataset(&spec);
    let mut rng = TensorRng::seed_from(3);
    let mut model = SlowFastLite::new(2, &mut rng);
    let all: Vec<usize> = (0..data.len()).collect();
    train(
        &mut model,
        &data,
        &all,
        &TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        },
    );
    (model, data)
}

#[test]
fn save_load_roundtrip_preserves_behaviour() {
    let (mut model, data) = trained_model();
    let path = std::env::temp_dir().join(format!("safecross_weights_{}.scnn", std::process::id()));
    save_grouped(&path, model.name(), &model.state_groups()).expect("save");

    let mut rng = TensorRng::seed_from(77); // different init
    let mut restored = SlowFastLite::new(2, &mut rng);
    let (_, state) = load_grouped(&path).expect("load");
    restored.load_state_dict(&state);
    std::fs::remove_file(&path).ok();

    let (clip, _) = data.batch(&[0, 1]);
    let original = model.forward(&clip, Mode::Eval);
    let reloaded = restored.forward(&clip, Mode::Eval);
    assert!(
        original.allclose(&reloaded, 1e-5),
        "restored model diverges: {original:?} vs {reloaded:?}"
    );
}

#[test]
fn switch_payload_matches_real_model_size() {
    let (model, _) = trained_model();
    let sizes: Vec<(String, usize)> = model
        .state_dict()
        .iter()
        .map(|(n, t)| (n.clone(), t.len()))
        .collect();
    let desc = ModelDesc::from_state_sizes("slowfast_lite", &sizes, 1.0e9);
    assert_eq!(desc.total_bytes(), model.num_parameters() * 4 + buffer_bytes(&model));
    // Even the lite model switches in pipelined mode far faster than a
    // cold start.
    let gpu = GpuSpec::rtx_2080_ti();
    let pipe = simulate_switch(&gpu, &desc, &SwitchStrategy::PipelinedOptimal);
    let cold = simulate_switch(&gpu, &desc, &SwitchStrategy::StopAndStart);
    assert!(pipe.total_ms < cold.total_ms / 50.0);
}

fn buffer_bytes(model: &SlowFastLite) -> usize {
    model.buffers().iter().map(|(_, t)| t.len() * 4).sum()
}

#[test]
fn grouped_checkpoints_roundtrip_bit_identically() {
    // A grouped save must read back with its manifest intact and with
    // entries that restore the model's behaviour bit for bit.
    let (mut model, data) = trained_model();
    let path = std::env::temp_dir().join(format!("safecross_groups_{}.scnn", std::process::id()));
    let groups = model.state_groups();
    let manifest = save_grouped(&path, model.name(), &groups).expect("save");
    assert_eq!(
        manifest.groups.iter().map(|g| g.name.as_str()).collect::<Vec<_>>(),
        ["fast1", "fast2", "slow1", "slow2", "head"],
    );

    let (read_manifest, flat) = load_grouped(&path).expect("load");
    std::fs::remove_file(&path).ok();
    assert_eq!(read_manifest, manifest);
    let mut restored = SlowFastLite::new(2, &mut TensorRng::seed_from(123));
    restored.load_state_dict(&flat);
    let (clip, _) = data.batch(&[0, 1]);
    let original = model.forward(&clip, Mode::Eval);
    let reloaded = restored.forward(&clip, Mode::Eval);
    assert_eq!(
        original.data(), reloaded.data(),
        "grouped roundtrip must preserve behaviour bit-for-bit"
    );
}
