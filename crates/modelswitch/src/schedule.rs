//! Switch-latency simulation and optimal model-aware grouping.

use crate::gpu::GpuSpec;
use crate::model_desc::ModelDesc;

/// How the runtime brings the standby model onto the GPU.
#[derive(Debug, Clone, PartialEq)]
pub enum SwitchStrategy {
    /// Kill the resident task, cold-start a new worker (CUDA context,
    /// library load, module construction), transmit everything, then
    /// compute. The paper's "End-start" baseline.
    StopAndStart,
    /// Pipelined transmission/execution with one group per layer —
    /// maximum overlap, maximum per-group overhead.
    PipelinedPerLayer,
    /// Pipelined with fixed-size groups of `n` layers (ablation).
    PipelinedGrouped(usize),
    /// Pipelined with the paper's optimal model-aware grouping, found by
    /// a Pareto-pruned dynamic programme.
    PipelinedOptimal,
}

/// What a timeline entry describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimelinePhase {
    /// Cold-start setup (context init, library load, module build).
    Setup,
    /// PCIe transmission of one group.
    Transmit,
    /// Kernel execution of one group.
    Compute,
}

/// One scheduled interval (for the Fig. 7-style trace).
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEvent {
    /// Phase of this interval.
    pub phase: TimelinePhase,
    /// Group index (0 for setup).
    pub group: usize,
    /// Start time, ms from the switch request.
    pub start_ms: f64,
    /// End time, ms.
    pub end_ms: f64,
}

/// The result of simulating one switch.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchReport {
    /// Total task completion time: request to first inference result, ms.
    pub total_ms: f64,
    /// Switching overhead: `total_ms` minus the warm-model inference
    /// time — the quantity Table VI reports.
    pub switch_overhead_ms: f64,
    /// Number of transmission groups used.
    pub groups: usize,
    /// The full schedule (paper Fig. 7).
    pub timeline: Vec<TimelineEvent>,
}

/// Pipeline completion for a contiguous grouping. Transmissions are
/// serial on the PCIe link; group `g`'s kernels may only start after its
/// transmission finishes and group `g-1`'s kernels finish.
fn pipeline_makespan(
    gpu: &GpuSpec,
    group_bytes: &[usize],
    group_flops: &[f64],
    timeline: Option<&mut Vec<TimelineEvent>>,
) -> f64 {
    let mut trans_end = 0.0f64;
    let mut comp_end = 0.0f64;
    let mut events = Vec::new();
    for (g, (&bytes, &flops)) in group_bytes.iter().zip(group_flops).enumerate() {
        let t0 = trans_end;
        trans_end += gpu.transmit_ms(bytes);
        events.push(TimelineEvent {
            phase: TimelinePhase::Transmit,
            group: g,
            start_ms: t0,
            end_ms: trans_end,
        });
        let c0 = comp_end.max(trans_end);
        comp_end = c0 + gpu.compute_ms(flops);
        events.push(TimelineEvent {
            phase: TimelinePhase::Compute,
            group: g,
            start_ms: c0,
            end_ms: comp_end,
        });
    }
    if let Some(out) = timeline {
        *out = events;
    }
    comp_end
}

/// Finds the grouping (contiguous partition of layers) minimising the
/// pipeline makespan, using a dynamic programme over prefix states with
/// Pareto-dominance pruning — the "pruning method" the paper cites for
/// model-aware grouping.
///
/// Returns group sizes (layer counts per group).
pub(crate) fn optimal_groups(gpu: &GpuSpec, model: &ModelDesc) -> Vec<usize> {
    let n = model.layers.len();
    // Prefix sums for O(1) group cost queries.
    let mut bytes_prefix = vec![0usize; n + 1];
    let mut flops_prefix = vec![0f64; n + 1];
    for (i, l) in model.layers.iter().enumerate() {
        bytes_prefix[i + 1] = bytes_prefix[i] + l.param_bytes;
        flops_prefix[i + 1] = flops_prefix[i] + l.flops;
    }
    #[derive(Clone)]
    struct State {
        trans_end: f64,
        comp_end: f64,
        // Group boundaries chosen so far (end indices).
        cuts: Vec<usize>,
    }
    // dp[i] = Pareto states covering layers [0, i).
    let mut dp: Vec<Vec<State>> = vec![Vec::new(); n + 1];
    dp[0].push(State {
        trans_end: 0.0,
        comp_end: 0.0,
        cuts: Vec::new(),
    });
    let push_pareto = |set: &mut Vec<State>, s: State| {
        const EPS: f64 = 1e-9;
        if set
            .iter()
            .any(|o| o.trans_end <= s.trans_end + EPS && o.comp_end <= s.comp_end + EPS)
        {
            return;
        }
        set.retain(|o| !(s.trans_end <= o.trans_end + EPS && s.comp_end <= o.comp_end + EPS));
        set.push(s);
    };
    for i in 0..n {
        let states = dp[i].clone();
        for s in states {
            for j in i + 1..=n {
                let bytes = bytes_prefix[j] - bytes_prefix[i];
                let flops = flops_prefix[j] - flops_prefix[i];
                let trans_end = s.trans_end + gpu.transmit_ms(bytes);
                let comp_end = s.comp_end.max(trans_end) + gpu.compute_ms(flops);
                let mut cuts = s.cuts.clone();
                cuts.push(j);
                push_pareto(
                    &mut dp[j],
                    State {
                        trans_end,
                        comp_end,
                        cuts,
                    },
                );
            }
        }
    }
    let best = dp[n]
        .iter()
        .min_by(|a, b| a.comp_end.total_cmp(&b.comp_end))
        .expect("non-empty model always has a grouping");
    let mut sizes = Vec::with_capacity(best.cuts.len());
    let mut prev = 0;
    for &c in &best.cuts {
        sizes.push(c - prev);
        prev = c;
    }
    sizes
}

fn group_by_sizes(model: &ModelDesc, sizes: &[usize]) -> (Vec<usize>, Vec<f64>) {
    let mut bytes = Vec::with_capacity(sizes.len());
    let mut flops = Vec::with_capacity(sizes.len());
    let mut idx = 0;
    for &sz in sizes {
        let end = (idx + sz).min(model.layers.len());
        bytes.push(model.layers[idx..end].iter().map(|l| l.param_bytes).sum());
        flops.push(model.layers[idx..end].iter().map(|l| l.flops).sum());
        idx = end;
    }
    (bytes, flops)
}

/// Simulates one model switch under the given strategy.
///
/// The reported `total_ms` runs from the client's switch request to the
/// completion of the first inference pass on the new model (the paper's
/// measurement protocol); `switch_overhead_ms` subtracts the warm-model
/// inference time, which is what Table VI tabulates.
pub fn simulate_switch(gpu: &GpuSpec, model: &ModelDesc, strategy: &SwitchStrategy) -> SwitchReport {
    let warm_inference: f64 = gpu.compute_ms(model.total_flops());
    match strategy {
        SwitchStrategy::StopAndStart => {
            let setup = gpu.context_init_ms
                + gpu.library_load_ms
                + gpu.module_init_ms * model.module_count as f64;
            let transmit = gpu.transmit_ms(model.total_bytes());
            let compute = gpu.compute_ms(model.total_flops());
            let total = gpu.ipc_roundtrip_ms + setup + transmit + compute;
            let timeline = vec![
                TimelineEvent {
                    phase: TimelinePhase::Setup,
                    group: 0,
                    start_ms: 0.0,
                    end_ms: setup,
                },
                TimelineEvent {
                    phase: TimelinePhase::Transmit,
                    group: 0,
                    start_ms: setup,
                    end_ms: setup + transmit,
                },
                TimelineEvent {
                    phase: TimelinePhase::Compute,
                    group: 0,
                    start_ms: setup + transmit,
                    end_ms: setup + transmit + compute,
                },
            ];
            SwitchReport {
                total_ms: total,
                switch_overhead_ms: total - warm_inference,
                groups: 1,
                timeline,
            }
        }
        SwitchStrategy::PipelinedPerLayer => {
            let sizes = vec![1usize; model.layers.len()];
            pipelined_report(gpu, model, &sizes, warm_inference)
        }
        SwitchStrategy::PipelinedGrouped(n) => {
            assert!(*n > 0, "group size must be positive");
            let full = model.layers.len() / n;
            let mut sizes = vec![*n; full];
            let rem = model.layers.len() - full * n;
            if rem > 0 {
                sizes.push(rem);
            }
            pipelined_report(gpu, model, &sizes, warm_inference)
        }
        SwitchStrategy::PipelinedOptimal => {
            let sizes = optimal_groups(gpu, model);
            pipelined_report(gpu, model, &sizes, warm_inference)
        }
    }
}

fn pipelined_report(
    gpu: &GpuSpec,
    model: &ModelDesc,
    sizes: &[usize],
    warm_inference: f64,
) -> SwitchReport {
    let (bytes, flops) = group_by_sizes(model, sizes);
    let mut timeline = Vec::new();
    let makespan = pipeline_makespan(gpu, &bytes, &flops, Some(&mut timeline));
    let total = gpu.ipc_roundtrip_ms + makespan;
    SwitchReport {
        total_ms: total,
        switch_overhead_ms: total - warm_inference,
        groups: sizes.len(),
        timeline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model_desc::LayerDesc;

    fn toy_model(layers: usize) -> ModelDesc {
        ModelDesc::new(
            "toy",
            (0..layers)
                .map(|i| LayerDesc {
                    name: format!("l{i}"),
                    param_bytes: 1_000_000,
                    flops: 0.5e9,
                })
                .collect(),
            layers,
        )
    }

    #[test]
    fn pipelined_beats_stop_and_start_by_orders_of_magnitude() {
        let gpu = GpuSpec::rtx_2080_ti();
        for model in [
            ModelDesc::resnet152(),
            ModelDesc::inception_v3(),
            ModelDesc::slowfast_r50(),
        ] {
            let cold = simulate_switch(&gpu, &model, &SwitchStrategy::StopAndStart);
            let pipe = simulate_switch(&gpu, &model, &SwitchStrategy::PipelinedOptimal);
            assert!(
                cold.switch_overhead_ms > 100.0 * pipe.switch_overhead_ms,
                "{}: cold {:.1} vs pipe {:.2}",
                model.name,
                cold.switch_overhead_ms,
                pipe.switch_overhead_ms
            );
            // Table VI shape: cold in seconds, pipelined below 10 ms.
            assert!(cold.switch_overhead_ms > 2000.0, "{}", model.name);
            assert!(
                pipe.switch_overhead_ms < 10.0,
                "{}: {:.2} ms",
                model.name,
                pipe.switch_overhead_ms
            );
        }
    }

    #[test]
    fn table6_orderings_hold() {
        let gpu = GpuSpec::rtx_2080_ti();
        let cold = |m: &ModelDesc| simulate_switch(&gpu, m, &SwitchStrategy::StopAndStart).total_ms;
        let sf = cold(&ModelDesc::slowfast_r50());
        let rn = cold(&ModelDesc::resnet152());
        let iv = cold(&ModelDesc::inception_v3());
        assert!(sf > rn && rn > iv, "cold: sf {sf:.0} rn {rn:.0} iv {iv:.0}");
    }

    #[test]
    fn optimal_grouping_never_worse_than_per_layer_or_single() {
        let gpu = GpuSpec::rtx_2080_ti();
        let model = toy_model(24);
        let optimal = simulate_switch(&gpu, &model, &SwitchStrategy::PipelinedOptimal);
        let per_layer = simulate_switch(&gpu, &model, &SwitchStrategy::PipelinedPerLayer);
        let single = simulate_switch(&gpu, &model, &SwitchStrategy::PipelinedGrouped(24));
        assert!(optimal.total_ms <= per_layer.total_ms + 1e-6);
        assert!(optimal.total_ms <= single.total_ms + 1e-6);
    }

    #[test]
    fn single_group_has_no_overlap() {
        let gpu = GpuSpec::rtx_2080_ti();
        let model = toy_model(8);
        let report = simulate_switch(&gpu, &model, &SwitchStrategy::PipelinedGrouped(8));
        assert_eq!(report.groups, 1);
        // With one group, compute starts only after the full transmission.
        let transmit_end = report
            .timeline
            .iter()
            .find(|e| e.phase == TimelinePhase::Transmit)
            .unwrap()
            .end_ms;
        let compute_start = report
            .timeline
            .iter()
            .find(|e| e.phase == TimelinePhase::Compute)
            .unwrap()
            .start_ms;
        assert!((compute_start - transmit_end).abs() < 1e-9);
    }

    #[test]
    fn pipelining_overlaps_transmit_and_compute() {
        let gpu = GpuSpec::rtx_2080_ti();
        let model = toy_model(8);
        let report = simulate_switch(&gpu, &model, &SwitchStrategy::PipelinedPerLayer);
        // Compute of group 0 starts before the last transmission ends.
        let last_transmit_end = report
            .timeline
            .iter()
            .filter(|e| e.phase == TimelinePhase::Transmit)
            .map(|e| e.end_ms)
            .fold(0.0, f64::max);
        let first_compute_start = report
            .timeline
            .iter()
            .find(|e| e.phase == TimelinePhase::Compute)
            .unwrap()
            .start_ms;
        assert!(first_compute_start < last_transmit_end);
    }

    #[test]
    fn timeline_is_causally_consistent() {
        let gpu = GpuSpec::rtx_2080_ti();
        let model = ModelDesc::inception_v3();
        let report = simulate_switch(&gpu, &model, &SwitchStrategy::PipelinedOptimal);
        let mut trans_cursor: f64 = 0.0;
        let mut comp_cursor: f64 = 0.0;
        let mut trans_end_by_group = std::collections::HashMap::new();
        for e in &report.timeline {
            match e.phase {
                TimelinePhase::Transmit => {
                    assert!(e.start_ms >= trans_cursor - 1e-9);
                    trans_cursor = e.end_ms;
                    trans_end_by_group.insert(e.group, e.end_ms);
                }
                TimelinePhase::Compute => {
                    assert!(e.start_ms >= comp_cursor - 1e-9);
                    // A group computes only after its own transmission.
                    assert!(e.start_ms >= trans_end_by_group[&e.group] - 1e-9);
                    comp_cursor = e.end_ms;
                }
                TimelinePhase::Setup => {}
            }
        }
    }

    #[test]
    fn grouping_covers_every_layer_exactly_once() {
        let gpu = GpuSpec::rtx_2080_ti();
        for model in [ModelDesc::resnet152(), ModelDesc::slowfast_r50()] {
            let sizes = optimal_groups(&gpu, &model);
            assert_eq!(sizes.iter().sum::<usize>(), model.num_layers());
            assert!(sizes.iter().all(|&s| s > 0));
        }
    }

    #[test]
    fn optimal_grouping_balances_overhead_and_overlap() {
        // With noticeable per-transfer overhead, optimal grouping uses
        // fewer groups than per-layer but more than one.
        let gpu = GpuSpec::rtx_2080_ti();
        let model = ModelDesc::resnet152();
        let sizes = optimal_groups(&gpu, &model);
        assert!(sizes.len() > 1, "should pipeline");
        assert!(
            sizes.len() < model.num_layers(),
            "should merge tiny layers: {} groups",
            sizes.len()
        );
    }
}
