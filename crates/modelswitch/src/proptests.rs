//! Property-based tests over the switching schedule.

use crate::gpu::GpuSpec;
use crate::model_desc::{LayerDesc, ModelDesc};
use crate::schedule::{optimal_groups, simulate_switch, SwitchStrategy};
use crate::store::ModelRegistry;
use proptest::prelude::*;
use safecross_tensor::Tensor;

fn arb_model() -> impl Strategy<Value = ModelDesc> {
    proptest::collection::vec((1_000usize..5_000_000, 1.0e6f64..5.0e8), 1..24).prop_map(
        |layers| {
            let descs = layers
                .into_iter()
                .enumerate()
                .map(|(i, (bytes, flops))| LayerDesc {
                    name: format!("l{i}"),
                    param_bytes: bytes,
                    flops,
                })
                .collect::<Vec<_>>();
            let n = descs.len();
            ModelDesc::new("prop", descs, n)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn optimal_never_worse_than_any_fixed_grouping(model in arb_model(), g in 1usize..8) {
        let gpu = GpuSpec::rtx_2080_ti();
        let optimal = simulate_switch(&gpu, &model, &SwitchStrategy::PipelinedOptimal);
        let fixed = simulate_switch(&gpu, &model, &SwitchStrategy::PipelinedGrouped(g));
        let per_layer = simulate_switch(&gpu, &model, &SwitchStrategy::PipelinedPerLayer);
        prop_assert!(optimal.total_ms <= fixed.total_ms + 1e-6,
            "optimal {} > grouped({g}) {}", optimal.total_ms, fixed.total_ms);
        prop_assert!(optimal.total_ms <= per_layer.total_ms + 1e-6);
    }

    #[test]
    fn optimal_groups_partition_the_layers(model in arb_model()) {
        let gpu = GpuSpec::rtx_2080_ti();
        let sizes = optimal_groups(&gpu, &model);
        prop_assert_eq!(sizes.iter().sum::<usize>(), model.num_layers());
        prop_assert!(sizes.iter().all(|&s| s > 0));
    }

    #[test]
    fn pipelined_always_beats_stop_and_start(model in arb_model()) {
        let gpu = GpuSpec::rtx_2080_ti();
        let cold = simulate_switch(&gpu, &model, &SwitchStrategy::StopAndStart);
        let pipe = simulate_switch(&gpu, &model, &SwitchStrategy::PipelinedOptimal);
        prop_assert!(pipe.total_ms < cold.total_ms);
    }

    #[test]
    fn makespan_at_least_transmission_and_compute_lower_bounds(model in arb_model()) {
        // The schedule cannot beat physics: it must carry every byte over
        // the link and run every FLOP on the device.
        let gpu = GpuSpec::rtx_2080_ti();
        let pipe = simulate_switch(&gpu, &model, &SwitchStrategy::PipelinedOptimal);
        let min_transmit = model.total_bytes() as f64 / gpu.bandwidth_bytes_per_ms;
        let min_compute = model.total_flops() * gpu.batch_size as f64 / gpu.flops_per_ms;
        let makespan = pipe.total_ms - gpu.ipc_roundtrip_ms;
        prop_assert!(makespan + 1e-6 >= min_transmit, "{makespan} < {min_transmit}");
        prop_assert!(makespan + 1e-6 >= min_compute, "{makespan} < {min_compute}");
    }

    #[test]
    fn timeline_events_are_disjoint_per_resource(model in arb_model()) {
        let gpu = GpuSpec::rtx_2080_ti();
        let report = simulate_switch(&gpu, &model, &SwitchStrategy::PipelinedOptimal);
        let mut last_transmit_end = 0.0f64;
        let mut last_compute_end = 0.0f64;
        for e in &report.timeline {
            match e.phase {
                crate::schedule::TimelinePhase::Transmit => {
                    prop_assert!(e.start_ms >= last_transmit_end - 1e-9);
                    last_transmit_end = e.end_ms;
                }
                crate::schedule::TimelinePhase::Compute => {
                    prop_assert!(e.start_ms >= last_compute_end - 1e-9);
                    last_compute_end = e.end_ms;
                }
                crate::schedule::TimelinePhase::Setup => {}
            }
            prop_assert!(e.end_ms >= e.start_ms);
        }
    }

    // The invariants above are stated over hand-written descriptors.
    // The registry path derives descriptors from real grouped weights
    // (one timeline layer per manifest group, real byte sizes), and the
    // same physics must hold there.
    #[test]
    fn manifest_derived_descriptors_respect_timeline_invariants(
        groups in proptest::collection::vec(
            proptest::collection::vec(64usize..4096, 1..4),
            1..8,
        ),
        flops in 1.0e6f64..5.0e9,
    ) {
        let store = ModelRegistry::new();
        let grouped: Vec<(String, Vec<(String, Tensor)>)> = groups
            .iter()
            .enumerate()
            .map(|(gi, elems)| {
                let tensors = elems
                    .iter()
                    .enumerate()
                    .map(|(pi, &n)| {
                        (format!("g{gi}.p{pi}"), Tensor::full(&[n], (gi * 31 + pi) as f32))
                    })
                    .collect();
                (format!("g{gi}"), tensors)
            })
            .collect();
        let manifest = store.register_model("prop", &grouped);
        let model = store.shared_model_desc("prop", flops).expect("registered");

        // Descriptor faithfully mirrors the manifest.
        prop_assert_eq!(model.num_layers(), manifest.groups.len());
        for (layer, g) in model.layers.iter().zip(&manifest.groups) {
            prop_assert_eq!(layer.param_bytes, g.bytes);
        }
        prop_assert_eq!(model.total_bytes(), manifest.total_bytes());
        prop_assert!((model.total_flops() - flops).abs() < flops * 1e-9);

        let gpu = GpuSpec::rtx_2080_ti();
        let pipe = simulate_switch(&gpu, &model, &SwitchStrategy::PipelinedOptimal);
        let cold = simulate_switch(&gpu, &model, &SwitchStrategy::StopAndStart);
        prop_assert!(pipe.total_ms < cold.total_ms);

        // Makespan >= bytes/bandwidth and compute lower bounds.
        let min_transmit = model.total_bytes() as f64 / gpu.bandwidth_bytes_per_ms;
        let min_compute = model.total_flops() * gpu.batch_size as f64 / gpu.flops_per_ms;
        let makespan = pipe.total_ms - gpu.ipc_roundtrip_ms;
        prop_assert!(makespan + 1e-6 >= min_transmit, "{} < {}", makespan, min_transmit);
        prop_assert!(makespan + 1e-6 >= min_compute, "{} < {}", makespan, min_compute);

        // Transmit ordering stays serial on the PCIe resource.
        let mut last_transmit_end = 0.0f64;
        for e in &pipe.timeline {
            if e.phase == crate::schedule::TimelinePhase::Transmit {
                prop_assert!(e.start_ms >= last_transmit_end - 1e-9);
                last_transmit_end = e.end_ms;
            }
        }
    }

    // LRU eviction under registration churn: pinned checkpoints are
    // untouchable, the accounting identity `logical = stored + dedup`
    // holds at every step, eviction totals are consistent, and whenever
    // an unpinned candidate exists the store settles under its ceiling.
    #[test]
    fn lru_eviction_respects_pins_and_accounting(
        ceiling_groups in 2usize..6,
        ops in proptest::collection::vec((0usize..24, 0usize..4, any::<bool>()), 1..64),
    ) {
        const ELEMS: usize = 64; // one group = 256 bytes stored
        let store = ModelRegistry::new();
        let pinned = "pinned-base";
        store.register_model(
            pinned,
            &[("g".to_owned(), vec![("g.w".to_owned(), Tensor::full(&[ELEMS], 0.5))])],
        );
        store.pin_model(pinned);
        let ceiling = ceiling_groups * ELEMS * 4;
        store.set_memory_ceiling(Some(ceiling));

        for (id, variant, read_back) in ops {
            let name = format!("m{id}");
            // Distinct (id, variant) contents churn blobs; same pairs dedup.
            let groups = vec![(
                "g".to_owned(),
                vec![("g.w".to_owned(), Tensor::full(&[ELEMS], (id * 7 + variant) as f32 + 1.0))],
            )];
            store.register_model(&name, &groups);
            if read_back {
                // Touch via the read path so LRU order reflects reads too.
                prop_assert!(store.state_dict(&name).is_some() || !store.contains(&name));
            }

            prop_assert!(store.contains(pinned), "pinned checkpoint evicted");
            prop_assert!(
                store.logical_bytes() == store.stored_bytes() + store.dedup_bytes(),
                "accounting identity broke under churn"
            );
            // The pinned model is the only possible hold-out, so the
            // store can exceed the ceiling by at most its own bytes.
            prop_assert!(
                store.stored_bytes() <= ceiling.max(ELEMS * 4),
                "stored {} exceeds ceiling {} with evictable candidates present",
                store.stored_bytes(),
                ceiling
            );
        }

        // Eviction totals stay consistent with what remains resident.
        prop_assert!(store.evicted_bytes() <= store.evictions() as usize * ELEMS * 4);
        let dict = store.state_dict(pinned).expect("pinned model readable");
        prop_assert_eq!(dict[0].1.data()[0], 0.5);
    }
}
