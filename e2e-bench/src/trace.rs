//! Tracing from outside the program: spans around the calls the
//! benchmark makes into each layer, and around the two seams a fleet
//! run exposes ([`FaultHook::before_batch`], [`LearnHook::observe`]).
//!
//! Spans live in memory preallocated before the run and are written as
//! JSON lines afterwards, so recording costs one clock read and one
//! push — a cost the untraced pass never pays and
//! `telemetry.overhead_share` reports.

use safecross_serve::{
    FaultHook, HarvestSample, LearnHook, Promotion, PromotionOutcome, WorkerAction,
};
use safecross_tensor::kernel::{self, GemmObserverFn};
use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// "No parent" / "no request" marker in a [`Span`].
pub const NONE: u32 = u32::MAX;

/// One timed interval. `request` groups the spans of one frame as
/// `(stream, sequence number)`.
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same log, or [`NONE`].
    pub parent: u32,
    pub request: (u32, u64),
}

/// A fixed-capacity span log: pushes past the capacity are counted,
/// never reallocated, so tracing cannot stall the run it observes.
pub struct SpanLog {
    spans: Vec<Span>,
    pub dropped: u64,
}

impl SpanLog {
    pub fn with_capacity(capacity: usize) -> Self {
        SpanLog {
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Appends a span, returning its index for children to cite.
    pub fn push(&mut self, span: Span) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NONE;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Writes span logs as JSON lines; ids are `<log>.<index>` so parents
/// stay unique across the per-shard logs of one fleet run.
pub fn write_jsonl(path: &Path, logs: &[&SpanLog]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (l, log) in logs.iter().enumerate() {
        for (i, s) in log.spans().iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_owned()
            } else {
                format!("\"{l}.{}\"", s.parent)
            };
            let request = if s.request.0 == NONE {
                "null".to_owned()
            } else {
                format!("\"{}:{}\"", s.request.0, s.request.1)
            };
            writeln!(
                out,
                "{{\"id\": \"{l}.{i}\", \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \
                 \"parent\": {parent}, \"request\": {request}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
            )?;
        }
    }
    out.flush()
}

/// One shard's view of a traced fleet run.
struct ShardLog {
    log: SpanLog,
    /// The batch being executed.
    open: Option<OpenBatch>,
    /// `(execution ms, clips)` of every closed batch.
    batches: Vec<(f64, u32)>,
}

/// A batch between its `before_batch` and the next one on its shard.
struct OpenBatch {
    /// Its `serve.batch` span, or [`NONE`] once the log is full.
    span: u32,
    start_ns: u64,
    /// When the shard last reported a clip of this batch classified.
    end_ns: u64,
    clips: u32,
}

thread_local! {
    /// Which shard the current thread last announced itself as in
    /// `before_batch`; `observe` carries no shard index of its own.
    static SHARD: Cell<usize> = const { Cell::new(0) };
}

/// The benchmark's [`FaultHook`] + [`LearnHook`]: never faults, never
/// promotes, only reads the clock. A batch's execution is the interval
/// from `before_batch` to the last `observe` the same shard makes
/// before its next batch.
pub struct FleetTracer {
    origin: Instant,
    shards: Vec<Mutex<ShardLog>>,
}

impl FleetTracer {
    pub fn new(origin: Instant, shards: usize, spans_per_shard: usize) -> Arc<Self> {
        Arc::new(FleetTracer {
            origin,
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(ShardLog {
                        log: SpanLog::with_capacity(spans_per_shard),
                        open: None,
                        batches: Vec::with_capacity(spans_per_shard),
                    })
                })
                .collect(),
        })
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn close(shard: &mut ShardLog) {
        if let Some(batch) = shard.open.take().filter(|b| b.clips > 0) {
            shard
                .batches
                .push(((batch.end_ns - batch.start_ns) as f64 / 1e6, batch.clips));
        }
    }

    /// Closes every open batch and hands back `(execution ms, clips)`
    /// per batch plus the span logs, shard by shard.
    pub fn finish(&self) -> (Vec<(f64, u32)>, Vec<SpanLog>) {
        let mut batches = Vec::new();
        let mut logs = Vec::new();
        for shard in &self.shards {
            let mut shard = shard.lock().expect("tracer shard poisoned");
            Self::close(&mut shard);
            batches.append(&mut shard.batches);
            logs.push(std::mem::replace(&mut shard.log, SpanLog::with_capacity(0)));
        }
        (batches, logs)
    }
}

impl FaultHook for FleetTracer {
    fn before_batch(&self, worker: usize, _batches_done: u64) -> WorkerAction {
        SHARD.set(worker);
        let now = self.now_ns();
        let mut shard = self.shards[worker].lock().expect("tracer shard poisoned");
        Self::close(&mut shard);
        let span = shard.log.push(Span {
            name: "serve.batch",
            start_ns: now,
            end_ns: now,
            parent: NONE,
            request: (NONE, 0),
        });
        shard.open = Some(OpenBatch {
            span,
            start_ns: now,
            end_ns: now,
            clips: 0,
        });
        WorkerAction::Continue
    }
}

impl LearnHook for FleetTracer {
    fn observe(&self, sample: HarvestSample<'_>) {
        let now = self.now_ns();
        let mut guard = self.shards[SHARD.get()]
            .lock()
            .expect("tracer shard poisoned");
        let shard = &mut *guard;
        let Some(batch) = &mut shard.open else {
            return;
        };
        batch.end_ns = now;
        batch.clips += 1;
        if batch.span != NONE {
            shard.log.spans[batch.span as usize].end_ns = now;
        }
        shard.log.push(Span {
            name: "videoclass.classify",
            start_ns: batch.start_ns,
            end_ns: now,
            parent: batch.span,
            request: (sample.stream as u32, sample.seq),
        });
    }

    fn take_promotions(&self, _shard: usize, _shard_count: usize) -> Vec<Promotion> {
        Vec::new()
    }

    fn promotion_result(&self, _promotion: &Promotion, _outcome: PromotionOutcome) {}
}

/// Totals over every f32 GEMM the kernel layer ran while the guard
/// returned by [`GemmTotals::observe`] was alive.
#[derive(Default)]
pub struct GemmTotals {
    calls: AtomicU64,
    flops: AtomicU64,
    nanos: AtomicU64,
}

impl GemmTotals {
    /// Registers an observer feeding `totals`; dropping the returned
    /// handle unregisters it.
    pub fn observe(totals: &Arc<GemmTotals>) -> Arc<GemmObserverFn> {
        let sink = Arc::clone(totals);
        let observer: Arc<GemmObserverFn> = Arc::new(move |sample| {
            sink.calls.fetch_add(1, Ordering::Relaxed);
            sink.flops.fetch_add(sample.flops(), Ordering::Relaxed);
            sink.nanos
                .fetch_add((sample.elapsed_ms * 1e6) as u64, Ordering::Relaxed);
        });
        kernel::register_gemm_observer(&observer);
        observer
    }

    /// `(calls, flops, busy ms)` so far.
    pub fn read(&self) -> (u64, u64, f64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.flops.load(Ordering::Relaxed),
            self.nanos.load(Ordering::Relaxed) as f64 / 1e6,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safecross::Verdict;
    use safecross_tensor::Tensor;
    use safecross_trafficsim::Weather;

    #[test]
    fn span_log_counts_overflow_instead_of_growing() {
        let mut log = SpanLog::with_capacity(1);
        let span = Span {
            name: "a",
            start_ns: 0,
            end_ns: 1,
            parent: NONE,
            request: (NONE, 0),
        };
        assert_eq!(log.push(span), 0);
        assert_eq!(log.push(span), NONE);
        assert_eq!((log.spans().len(), log.dropped), (1, 1));
    }

    #[test]
    fn tracer_attributes_observes_to_the_open_batch() {
        let tracer = FleetTracer::new(Instant::now(), 2, 16);
        let clip = Tensor::zeros(&[1, 2, 2, 2]);
        let verdict = Verdict {
            class: safecross_dataset::Class::Safe,
            confidence: 1.0,
            weather: Weather::Daytime,
        };
        let sample = |seq| HarvestSample {
            stream: 3,
            weather: Weather::Daytime,
            seq,
            verdict,
            clip: &clip,
        };
        tracer.before_batch(1, 0);
        tracer.observe(sample(0));
        tracer.observe(sample(1));
        tracer.before_batch(1, 1);
        tracer.observe(sample(2));
        let (batches, logs) = tracer.finish();
        assert_eq!(batches.iter().map(|b| b.1).collect::<Vec<_>>(), vec![2, 1]);
        assert!(logs[0].spans().is_empty());
        let spans = logs[1].spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[4].parent, 3);
        assert_eq!(spans[4].request, (3, 2));
        assert!(spans[0].end_ns >= spans[0].start_ns);
    }
}
