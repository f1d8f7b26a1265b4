//! The content-addressed model store end-to-end: a switched-to
//! checkpoint loads back from the store bit-for-bit, and a fleet of
//! sessions holds each unique layer group exactly once.

use safecross_modelswitch::{GpuSpec, ModelRegistry, ModelSwitcher, SwitchStrategy};
use safecross_nn::Mode;
use safecross_serve::{FleetServer, ServeConfig, StreamSpec};
use safecross_tensor::{Tensor, TensorRng};
use safecross_trafficsim::Weather;
use safecross_videoclass::{SlowFastLite, VideoClassifier};

fn checkpoint(seed: u64) -> SlowFastLite {
    let mut rng = TensorRng::seed_from(seed);
    let mut model = SlowFastLite::new(2, &mut rng);
    // Non-trivial batch-norm statistics so buffers matter too.
    let clip = rng.uniform(&[1, 1, 32, 16, 16], 0.0, 1.0);
    model.forward(&clip, Mode::Train);
    model
}

/// Perturbs only the classifier head, leaving the trunk byte-identical
/// to the source — the shape of a few-shot-adapted checkpoint.
fn with_adapted_head(base: &SlowFastLite, delta: f32) -> SlowFastLite {
    let mut out = base.clone();
    let mut params = out.params_mut();
    let head_weight = params.last_mut().expect("model has parameters");
    let bump = Tensor::full(head_weight.value.dims(), delta);
    head_weight.value.add_scaled(&bump, 1.0);
    out
}

#[test]
fn switch_activation_is_bit_identical_to_direct_checkpoint_load() {
    let stored = checkpoint(5);
    let store = ModelRegistry::new();
    store.register_model("daytime", &stored.state_groups());

    let switcher = ModelSwitcher::new(
        GpuSpec::rtx_2080_ti(),
        11_000_000_000,
        SwitchStrategy::PipelinedOptimal,
    );
    switcher.attach_store(&store);
    switcher.register_from_store("daytime", 36.0e9).expect("stored checkpoint");
    switcher.switch_to("daytime").expect("fits the empty pool");
    assert_eq!(switcher.active().as_deref(), Some("daytime"));

    // The switch moved the checkpoint's real group bytes; the weights
    // that classify are the ones a consumer loads from the store.
    let mut from_store = SlowFastLite::new(2, &mut TensorRng::seed_from(123));
    from_store.load_state_dict(&store.state_dict("daytime").expect("stored"));

    let mut rng = TensorRng::seed_from(7);
    let clip = rng.uniform(&[2, 1, 32, 16, 16], 0.0, 1.0);
    let mut original = stored.clone();
    let want = original.forward(&clip, Mode::Eval);
    let via_store = from_store.forward(&clip, Mode::Eval);
    assert_eq!(want.data(), via_store.data(), "store-resolved weights diverge");
}

#[test]
fn fleet_stores_each_unique_group_exactly_once() {
    // Three weather checkpoints sharing a trunk (only the head was
    // adapted), served to four streams.
    let daytime = checkpoint(11);
    let rain = with_adapted_head(&daytime, 0.25);
    let snow = with_adapted_head(&daytime, -0.5);

    let mut fleet = FleetServer::new(ServeConfig::default()).expect("valid config");
    fleet.register_model(Weather::Daytime, daytime).expect("no streams yet");
    fleet.register_model(Weather::Rain, rain).expect("no streams yet");
    fleet.register_model(Weather::Snow, snow).expect("no streams yet");
    let handles: Vec<_> = (0..4)
        .map(|_| fleet.open_stream(StreamSpec::new()).expect("models registered"))
        .collect();

    let store = fleet.model_store();
    assert_eq!(store.model_count(), 3, "one stored model per weather, not per stream");
    // 5 stage groups per model; fast1/fast2/slow1/slow2 are shared
    // across all three checkpoints, each head is unique: 4 + 3.
    assert_eq!(store.unique_groups(), 7);
    assert!(store.dedup_bytes() > 0, "shared trunk groups must dedup");
    assert_eq!(
        store.logical_bytes(),
        store.stored_bytes() + store.dedup_bytes()
    );

    // Refcounts: every shared trunk group is referenced by exactly the
    // three model names (streams add no references of their own).
    let manifest = store.manifest("daytime").expect("registered");
    for g in &manifest.groups {
        let expected = if g.name == "head" { 1 } else { 3 };
        assert_eq!(store.group_refs(g.hash), expected, "group {} refcount", g.name);
    }

    // Every session holds the same store handle as the fleet.
    for handle in handles {
        let session = handle.session(&fleet);
        assert_eq!(session.model_store().unique_groups(), 7);
        assert_eq!(session.model_store().model_count(), 3);
    }
}

#[test]
fn private_sessions_pay_for_their_own_copies() {
    // The counter-case proving the fleet numbers above come from
    // sharing: two standalone sessions registering the same checkpoints
    // each hold a private store with its own blobs.
    use safecross::{SafeCross, SafeCrossConfig};

    let daytime = checkpoint(17);
    let rain = with_adapted_head(&daytime, 0.125);
    let mut a = SafeCross::try_new(SafeCrossConfig::default()).expect("valid");
    let mut b = SafeCross::try_new(SafeCrossConfig::default()).expect("valid");
    for sc in [&mut a, &mut b] {
        sc.register_model(Weather::Daytime, daytime.clone());
        sc.register_model(Weather::Rain, rain.clone());
    }
    // Within one session the shared trunk still dedups (4 trunk groups
    // + 2 heads), but each session stores its own 6 unique groups.
    assert_eq!(a.model_store().unique_groups(), 6);
    assert_eq!(b.model_store().unique_groups(), 6);
    assert!(a.model_store().dedup_bytes() > 0);
}
