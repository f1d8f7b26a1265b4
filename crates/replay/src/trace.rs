//! The versioned binary trace format.
//!
//! A trace is the complete input of one fleet run — configuration, RNG
//! seed and model build recipe, every stream's frames with their
//! arrival timestamps — plus the outputs the run produced (per-stream
//! verdicts and switch logs, bit-exact) and a snapshot of the telemetry
//! journal. Layout (all integers little-endian):
//!
//! ```text
//! magic "SCRT" | u32 version = 3
//! records: u8 tag | u32 payload len | payload
//!   tag 1 CONFIG  (exactly one, first record)
//!   tag 2 FRAME   stream u32 | index u32 | arrival_us u64
//!                 | w u32 | h u32 | enc u8 (0 raw, 1 RLE) | pixels
//!   tag 3 VERDICT stream u32 | class u8 | confidence bits u32
//!                 | weather u8
//!   tag 4 SWITCH  stream u32 | model str | frame u64
//!                 | latency/setup/transmit/compute as f64 bits
//!   tag 5 EVENT   seq u64 | name str | field count u32 | fields
//!   tag 0 TRAILER u64 FNV-1a hash of every preceding byte (last record)
//! ```
//!
//! The version word is 3: v1 and v2 CONFIG records carried three
//! scheduler settings (a batch linger, priority on/off, priority hold);
//! the serving layer no longer waits on a linger at all, and the other
//! two are its constants. No trace in either was
//! ever checked in, so the reader rejects them — like any version it
//! does not know — with a typed error instead of misparsing. The
//! trailer hash makes corruption
//! — truncation, bit flips, a partial upload out of an RSU — a typed
//! [`TraceError`], never a panic or a silently wrong replay.
//!
//! The hash is not a signature, so a trace with a valid trailer is still
//! untrusted: every count the reader allocates for is first bounded by
//! the payload bytes left to hold that many items, a frame's `w × h` by
//! what its pixel payload can decode to, and the stream count (which no
//! per-stream bytes back) by [`MAX_STREAMS`].

use safecross::{SafeCrossConfig, Verdict};
use safecross_serve::ServeConfig;
use safecross_telemetry::{Event, Value};
use safecross_tensor::ContentHasher;
use safecross_trafficsim::Weather;
use safecross_vision::GrayFrame;
use std::fmt;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;
use std::time::Duration;

const MAGIC: &[u8; 4] = b"SCRT";
/// Current trace format version.
pub const TRACE_VERSION: u32 = 3;
/// Oldest version this reader still decodes.
pub const MIN_TRACE_VERSION: u32 = 3;

const TAG_TRAILER: u8 = 0;
const TAG_CONFIG: u8 = 1;
const TAG_FRAME: u8 = 2;
const TAG_VERDICT: u8 = 3;
const TAG_SWITCH: u8 = 4;
const TAG_EVENT: u8 = 5;

const ENC_RAW: u8 = 0;
const ENC_RLE: u8 = 1;

/// Most streams a CONFIG record may declare. The reader allocates three
/// empty per-stream lists up front and nothing in the record backs the
/// count with bytes, so it is capped outright: 65 536 streams (6× the
/// largest soak in `tests/`) cost under 5 MB before the first frame.
const MAX_STREAMS: usize = 1 << 16;

/// Errors produced while reading a trace.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The byte stream ended before a complete record.
    Truncated {
        /// Bytes the reader needed.
        needed: usize,
        /// Bytes that were left.
        available: usize,
    },
    /// The bytes are not a SafeCross trace or are structurally invalid.
    Format(String),
    /// The trace was written in a format version this reader does not
    /// decode — older or newer than [`TRACE_VERSION`].
    UnsupportedVersion(u32),
    /// The trailer hash does not match the content — the trace was
    /// corrupted after it was written.
    HashMismatch {
        /// Hash recorded in the trailer.
        expected: u64,
        /// Hash of the bytes actually present.
        computed: u64,
    },
    /// The byte stream has no trailer record — it was truncated at a
    /// record boundary or never finished writing.
    MissingTrailer,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "i/o error: {e}"),
            TraceError::Truncated { needed, available } => {
                write!(
                    f,
                    "truncated trace: needed {needed} bytes, {available} left"
                )
            }
            TraceError::Format(m) => write!(f, "invalid trace: {m}"),
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "trace version {v} is outside what this reader decodes \
                     ({MIN_TRACE_VERSION}..={TRACE_VERSION})"
                )
            }
            TraceError::HashMismatch { expected, computed } => write!(
                f,
                "trace content hash mismatch: trailer {expected:#018x}, computed {computed:#018x}"
            ),
            TraceError::MissingTrailer => write!(f, "trace has no trailer record"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// How the models of a recorded run were built: the
/// [`TensorRng`](safecross_tensor::TensorRng) seed and the weather
/// order. Replay reconstructs bit-identical weights by drawing one
/// model per weather, in order, from a single generator seeded with
/// `seed` — the same convention the equivalence tests use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelSpec {
    /// Seed of the shared `TensorRng`.
    pub seed: u64,
    /// Output classes per model.
    pub classes: usize,
    /// Weathers in model-construction (and registration) order.
    pub weathers: Vec<Weather>,
}

/// One recorded input frame with its arrival timestamp (microseconds
/// since the run's start).
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedFrame {
    /// Arrival time, µs from run start.
    pub arrival_us: u64,
    /// The camera frame.
    pub frame: GrayFrame,
}

/// The outputs a recorded run produced, per stream.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecordedOutputs {
    /// Per-stream verdict sequences.
    pub verdicts: Vec<Vec<Verdict>>,
    /// Per-stream switch logs.
    pub switches: Vec<Vec<RecordedSwitch>>,
}

/// One switch-log entry, stored with bit-exact latency figures.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedSwitch {
    /// Model switched to.
    pub model: String,
    /// Frame index the swap was attributed to.
    pub frame: u64,
    /// End-to-end latency, ms.
    pub latency_ms: f64,
    /// Setup phase, ms.
    pub setup_ms: f64,
    /// Transmit phase, ms.
    pub transmit_ms: f64,
    /// Compute phase, ms.
    pub compute_ms: f64,
}

/// A complete recorded fleet run. Equality between traces is byte
/// equality of [`Trace::to_bytes`] — the format is canonical.
#[derive(Debug, Clone)]
pub struct Trace {
    /// The fleet configuration of the recorded run.
    pub serve: ServeConfig,
    /// How the shared models were built.
    pub models: ModelSpec,
    /// Per-stream input frames with arrival timestamps.
    pub streams: Vec<Vec<RecordedFrame>>,
    /// The outputs the recorded run produced (empty for an input-only
    /// trace, e.g. one produced by the minimizer).
    pub outputs: RecordedOutputs,
    /// Telemetry journal snapshot bridged into the trace.
    pub events: Vec<Event>,
}

impl Trace {
    /// Total recorded frames across all streams.
    pub fn frame_count(&self) -> usize {
        self.streams.iter().map(Vec::len).sum()
    }

    /// Serialises the trace to bytes (current-version layout, trailer
    /// hash last).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        push_record(&mut out, TAG_CONFIG, &encode_config(self));
        for (stream, frames) in self.streams.iter().enumerate() {
            for (index, rf) in frames.iter().enumerate() {
                push_record(
                    &mut out,
                    TAG_FRAME,
                    &encode_frame(stream as u32, index as u32, rf),
                );
            }
        }
        for (stream, verdicts) in self.outputs.verdicts.iter().enumerate() {
            for v in verdicts {
                push_record(&mut out, TAG_VERDICT, &encode_verdict(stream as u32, v));
            }
        }
        for (stream, switches) in self.outputs.switches.iter().enumerate() {
            for s in switches {
                push_record(&mut out, TAG_SWITCH, &encode_switch(stream as u32, s));
            }
        }
        for e in &self.events {
            push_record(&mut out, TAG_EVENT, &encode_event(e));
        }
        let mut hasher = ContentHasher::new();
        hasher.update(&out);
        push_record(&mut out, TAG_TRAILER, &hasher.finish().to_le_bytes());
        out
    }

    /// Parses a trace from bytes, verifying the trailer hash first.
    ///
    /// # Errors
    ///
    /// Any [`TraceError`]: truncation, corruption (hash mismatch),
    /// structural problems, or an unsupported version.
    pub fn from_bytes(bytes: &[u8]) -> Result<Trace, TraceError> {
        let mut r = Reader::new(bytes);
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(TraceError::Format(
                "bad magic (not a SafeCross trace)".into(),
            ));
        }
        let version = r.take_u32()?;
        if !(MIN_TRACE_VERSION..=TRACE_VERSION).contains(&version) {
            return Err(TraceError::UnsupportedVersion(version));
        }
        // The trailer record has a fixed shape (tag + u32 len 8 + u64
        // hash = 13 bytes) and is always last, so it is located from
        // the END of the stream — never by walking record boundaries,
        // which a corrupted length field would derail. The content
        // hash is verified before any payload byte is trusted: a bit
        // flip anywhere in the content is a HashMismatch, not a
        // scan gone wrong.
        const TRAILER_LEN: usize = 1 + 4 + 8;
        if r.remaining() < TRAILER_LEN {
            return Err(TraceError::MissingTrailer);
        }
        let trailer_at = bytes.len() - TRAILER_LEN;
        let trailer = &bytes[trailer_at..];
        if trailer[0] != TAG_TRAILER
            || u32::from_le_bytes(trailer[1..5].try_into().expect("4 bytes")) != 8
        {
            return Err(TraceError::MissingTrailer);
        }
        let expected = u64::from_le_bytes(trailer[5..].try_into().expect("8 bytes"));
        let mut hasher = ContentHasher::new();
        hasher.update(&bytes[..trailer_at]);
        let computed = hasher.finish();
        if computed != expected {
            return Err(TraceError::HashMismatch { expected, computed });
        }
        // Second pass: decode payloads (now known intact).
        let mut config: Option<(ServeConfig, ModelSpec, usize)> = None;
        let mut frames: Vec<(u32, u32, RecordedFrame)> = Vec::new();
        let mut verdicts: Vec<(u32, Verdict)> = Vec::new();
        let mut switches: Vec<(u32, RecordedSwitch)> = Vec::new();
        let mut events: Vec<Event> = Vec::new();
        while r.pos < trailer_at {
            let tag = r.take_u8()?;
            let len = r.take_u32()? as usize;
            let payload = r.take(len)?;
            let mut p = Reader::new(payload);
            match tag {
                TAG_CONFIG => {
                    if config.is_some() {
                        return Err(TraceError::Format("duplicate CONFIG record".into()));
                    }
                    config = Some(decode_config(&mut p)?);
                }
                TAG_FRAME => {
                    let (stream, index, rf) = decode_frame(&mut p)?;
                    frames.push((stream, index, rf));
                }
                TAG_VERDICT => verdicts.push(decode_verdict(&mut p)?),
                TAG_SWITCH => switches.push(decode_switch(&mut p)?),
                TAG_EVENT => events.push(decode_event(&mut p)?),
                other => return Err(TraceError::Format(format!("unknown record tag {other}"))),
            }
            if p.remaining() != 0 {
                return Err(TraceError::Format(format!(
                    "record tag {tag} has {} undecoded payload bytes",
                    p.remaining()
                )));
            }
        }
        let (serve, models, n_streams) =
            config.ok_or_else(|| TraceError::Format("missing CONFIG record".into()))?;
        let mut streams: Vec<Vec<RecordedFrame>> = vec![Vec::new(); n_streams];
        for (stream, index, rf) in frames {
            let slot = streams
                .get_mut(stream as usize)
                .ok_or_else(|| TraceError::Format(format!("frame for unknown stream {stream}")))?;
            if index as usize != slot.len() {
                return Err(TraceError::Format(format!(
                    "stream {stream} frame index {index} out of order (expected {})",
                    slot.len()
                )));
            }
            slot.push(rf);
        }
        let mut outputs = RecordedOutputs {
            verdicts: vec![Vec::new(); n_streams],
            switches: vec![Vec::new(); n_streams],
        };
        for (stream, v) in verdicts {
            outputs
                .verdicts
                .get_mut(stream as usize)
                .ok_or_else(|| TraceError::Format(format!("verdict for unknown stream {stream}")))?
                .push(v);
        }
        for (stream, s) in switches {
            outputs
                .switches
                .get_mut(stream as usize)
                .ok_or_else(|| TraceError::Format(format!("switch for unknown stream {stream}")))?
                .push(s);
        }
        Ok(Trace {
            serve,
            models,
            streams,
            outputs,
            events,
        })
    }

    /// Writes the trace to a file.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] on any filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), TraceError> {
        let mut f = File::create(path)?;
        f.write_all(&self.to_bytes())?;
        Ok(())
    }

    /// Reads a trace from a file.
    ///
    /// # Errors
    ///
    /// Any [`TraceError`], including corruption detected by the trailer.
    pub fn load(path: &Path) -> Result<Trace, TraceError> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        Trace::from_bytes(&bytes)
    }
}

/// Encodes `weather` as its index in [`Weather::ALL`].
pub(crate) fn weather_code(weather: Weather) -> u8 {
    Weather::ALL
        .iter()
        .position(|&w| w == weather)
        .expect("Weather::ALL is exhaustive") as u8
}

pub(crate) fn weather_from_code(code: u8) -> Result<Weather, TraceError> {
    Weather::ALL
        .get(code as usize)
        .copied()
        .ok_or_else(|| TraceError::Format(format!("unknown weather code {code}")))
}

fn push_record(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn encode_config(trace: &Trace) -> Vec<u8> {
    let mut p = Vec::new();
    let sc = &trace.serve;
    p.extend_from_slice(&(sc.shards as u32).to_le_bytes());
    p.extend_from_slice(&(sc.batch_max as u32).to_le_bytes());
    p.extend_from_slice(&(sc.queue_capacity as u32).to_le_bytes());
    let deadline_us = sc.frame_deadline.map_or(u64::MAX, |d| d.as_micros() as u64);
    p.extend_from_slice(&deadline_us.to_le_bytes());
    p.push(sc.shedding as u8);
    p.push(sc.telemetry as u8);
    let st = &sc.stream;
    p.extend_from_slice(&(st.frame_width as u32).to_le_bytes());
    p.extend_from_slice(&(st.frame_height as u32).to_le_bytes());
    p.extend_from_slice(&(st.segment_frames as u32).to_le_bytes());
    p.extend_from_slice(&(st.scene_window as u32).to_le_bytes());
    p.extend_from_slice(&st.min_confidence.to_bits().to_le_bytes());
    p.push(st.telemetry as u8);
    let pp = &st.preprocess;
    p.extend_from_slice(&pp.bgs_alpha.to_bits().to_le_bytes());
    p.extend_from_slice(&pp.bgs_threshold.to_bits().to_le_bytes());
    p.extend_from_slice(&(pp.morph_radius as u32).to_le_bytes());
    p.extend_from_slice(&(pp.grid_width as u32).to_le_bytes());
    p.extend_from_slice(&(pp.grid_height as u32).to_le_bytes());
    p.extend_from_slice(&trace.models.seed.to_le_bytes());
    p.extend_from_slice(&(trace.models.classes as u32).to_le_bytes());
    p.extend_from_slice(&(trace.models.weathers.len() as u32).to_le_bytes());
    for &w in &trace.models.weathers {
        p.push(weather_code(w));
    }
    p.extend_from_slice(&(trace.streams.len() as u32).to_le_bytes());
    p
}

fn decode_config(p: &mut Reader<'_>) -> Result<(ServeConfig, ModelSpec, usize), TraceError> {
    let shards = p.take_u32()? as usize;
    let batch_max = p.take_u32()? as usize;
    let queue_capacity = p.take_u32()? as usize;
    let deadline_us = p.take_u64()?;
    let frame_deadline = if deadline_us == u64::MAX {
        None
    } else {
        Some(Duration::from_micros(deadline_us))
    };
    let shedding = p.take_u8()? != 0;
    let telemetry = p.take_u8()? != 0;
    let frame_width = p.take_u32()? as usize;
    let frame_height = p.take_u32()? as usize;
    let segment_frames = p.take_u32()? as usize;
    let scene_window = p.take_u32()? as usize;
    let min_confidence = f32::from_bits(p.take_u32()?);
    let stream_telemetry = p.take_u8()? != 0;
    let mut stream = SafeCrossConfig {
        frame_width,
        frame_height,
        segment_frames,
        scene_window,
        min_confidence,
        telemetry: stream_telemetry,
        ..SafeCrossConfig::default()
    };
    stream.preprocess.bgs_alpha = f32::from_bits(p.take_u32()?);
    stream.preprocess.bgs_threshold = f32::from_bits(p.take_u32()?);
    stream.preprocess.morph_radius = p.take_u32()? as usize;
    stream.preprocess.grid_width = p.take_u32()? as usize;
    stream.preprocess.grid_height = p.take_u32()? as usize;
    let seed = p.take_u64()?;
    let classes = p.take_u32()? as usize;
    let n_weathers = p.take_count(1, "weather")?;
    let mut weathers = Vec::with_capacity(n_weathers);
    for _ in 0..n_weathers {
        weathers.push(weather_from_code(p.take_u8()?)?);
    }
    let n_streams = p.take_u32()? as usize;
    if n_streams > MAX_STREAMS {
        return Err(TraceError::Format(format!(
            "stream count {n_streams} exceeds the format's limit of {MAX_STREAMS}"
        )));
    }
    let serve = ServeConfig {
        shards,
        batch_max,
        queue_capacity,
        frame_deadline,
        shedding,
        stream,
        telemetry,
    };
    Ok((
        serve,
        ModelSpec {
            seed,
            classes,
            weathers,
        },
        n_streams,
    ))
}

/// Run-length encodes `pixels` as (run, value) byte pairs, or `None`
/// when RLE would not be smaller (high-entropy frames).
fn rle_encode(pixels: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(pixels.len() / 2);
    let mut i = 0;
    while i < pixels.len() {
        let v = pixels[i];
        let mut run = 1usize;
        while run < 255 && i + run < pixels.len() && pixels[i + run] == v {
            run += 1;
        }
        out.push(run as u8);
        out.push(v);
        if out.len() >= pixels.len() {
            return None;
        }
        i += run;
    }
    Some(out)
}

fn rle_decode(data: &[u8], expected: usize) -> Result<Vec<u8>, TraceError> {
    if !data.len().is_multiple_of(2) {
        return Err(TraceError::Format("odd RLE payload length".into()));
    }
    let mut out = Vec::with_capacity(expected);
    for pair in data.chunks_exact(2) {
        let (run, v) = (pair[0] as usize, pair[1]);
        if run == 0 {
            return Err(TraceError::Format("zero-length RLE run".into()));
        }
        out.extend(std::iter::repeat_n(v, run));
    }
    if out.len() != expected {
        return Err(TraceError::Format(format!(
            "RLE decoded {} pixels, frame needs {expected}",
            out.len()
        )));
    }
    Ok(out)
}

fn encode_frame(stream: u32, index: u32, rf: &RecordedFrame) -> Vec<u8> {
    let mut p = Vec::new();
    p.extend_from_slice(&stream.to_le_bytes());
    p.extend_from_slice(&index.to_le_bytes());
    p.extend_from_slice(&rf.arrival_us.to_le_bytes());
    p.extend_from_slice(&(rf.frame.width() as u32).to_le_bytes());
    p.extend_from_slice(&(rf.frame.height() as u32).to_le_bytes());
    match rle_encode(rf.frame.pixels()) {
        Some(rle) => {
            p.push(ENC_RLE);
            p.extend_from_slice(&rle);
        }
        None => {
            p.push(ENC_RAW);
            p.extend_from_slice(rf.frame.pixels());
        }
    }
    p
}

fn decode_frame(p: &mut Reader<'_>) -> Result<(u32, u32, RecordedFrame), TraceError> {
    let stream = p.take_u32()?;
    let index = p.take_u32()?;
    let arrival_us = p.take_u64()?;
    let width = p.take_u32()? as usize;
    let height = p.take_u32()? as usize;
    let enc = p.take_u8()?;
    let rest = p.take(p.remaining())?;
    // `w × h` is two untrusted words: accept it only if it is a real
    // frame (`GrayFrame` refuses an empty one) and this payload decodes
    // to exactly that many pixels (RAW is a byte each) or at least could
    // (an RLE pair is two bytes for a run of at most 255), so the
    // decoded buffer is never sized beyond 127.5× the payload.
    let area = width.checked_mul(height).filter(|&n| n > 0);
    let pixels = match (enc, area) {
        (ENC_RAW, Some(n)) if n == rest.len() => rest.to_vec(),
        (ENC_RLE, Some(n)) if n <= (rest.len() / 2).saturating_mul(255) => rle_decode(rest, n)?,
        (ENC_RAW | ENC_RLE, _) => {
            return Err(TraceError::Format(format!(
                "{width}x{height} frame cannot come from a {}-byte payload",
                rest.len()
            )))
        }
        (other, _) => {
            return Err(TraceError::Format(format!(
                "unknown frame encoding {other}"
            )))
        }
    };
    Ok((
        stream,
        index,
        RecordedFrame {
            arrival_us,
            frame: GrayFrame::from_pixels(width, height, pixels),
        },
    ))
}

fn encode_verdict(stream: u32, v: &Verdict) -> Vec<u8> {
    let mut p = Vec::new();
    p.extend_from_slice(&stream.to_le_bytes());
    p.push(v.class.index() as u8);
    p.extend_from_slice(&v.confidence.to_bits().to_le_bytes());
    p.push(weather_code(v.weather));
    p
}

fn decode_verdict(p: &mut Reader<'_>) -> Result<(u32, Verdict), TraceError> {
    use safecross_dataset::Class;
    let stream = p.take_u32()?;
    let class_idx = p.take_u8()? as usize;
    if class_idx > 1 {
        return Err(TraceError::Format(format!(
            "unknown class index {class_idx}"
        )));
    }
    let confidence = f32::from_bits(p.take_u32()?);
    let weather = weather_from_code(p.take_u8()?)?;
    Ok((
        stream,
        Verdict {
            class: Class::from_index(class_idx),
            confidence,
            weather,
        },
    ))
}

fn encode_switch(stream: u32, s: &RecordedSwitch) -> Vec<u8> {
    let mut p = Vec::new();
    p.extend_from_slice(&stream.to_le_bytes());
    push_str(&mut p, &s.model);
    p.extend_from_slice(&s.frame.to_le_bytes());
    for v in [s.latency_ms, s.setup_ms, s.transmit_ms, s.compute_ms] {
        p.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    p
}

fn decode_switch(p: &mut Reader<'_>) -> Result<(u32, RecordedSwitch), TraceError> {
    let stream = p.take_u32()?;
    let model = p.take_str()?;
    let frame = p.take_u64()?;
    let latency_ms = f64::from_bits(p.take_u64()?);
    let setup_ms = f64::from_bits(p.take_u64()?);
    let transmit_ms = f64::from_bits(p.take_u64()?);
    let compute_ms = f64::from_bits(p.take_u64()?);
    Ok((
        stream,
        RecordedSwitch {
            model,
            frame,
            latency_ms,
            setup_ms,
            transmit_ms,
            compute_ms,
        },
    ))
}

const FIELD_U64: u8 = 0;
const FIELD_F64: u8 = 1;
const FIELD_STR: u8 = 2;
/// Fewest bytes an event field can occupy: its name's length word, the
/// type byte, and the smallest value (an empty string's length word).
const MIN_FIELD: usize = 4 + 1 + 4;

fn encode_event(e: &Event) -> Vec<u8> {
    let mut p = Vec::new();
    p.extend_from_slice(&e.seq.to_le_bytes());
    push_str(&mut p, &e.name);
    p.extend_from_slice(&(e.fields.len() as u32).to_le_bytes());
    for (name, value) in &e.fields {
        push_str(&mut p, name);
        match value {
            Value::U64(v) => {
                p.push(FIELD_U64);
                p.extend_from_slice(&v.to_le_bytes());
            }
            Value::F64(v) => {
                p.push(FIELD_F64);
                p.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                p.push(FIELD_STR);
                push_str(&mut p, s);
            }
        }
    }
    p
}

fn decode_event(p: &mut Reader<'_>) -> Result<Event, TraceError> {
    let seq = p.take_u64()?;
    let name = p.take_str()?;
    let n_fields = p.take_count(MIN_FIELD, "event field")?;
    let mut fields = Vec::with_capacity(n_fields);
    for _ in 0..n_fields {
        let fname = p.take_str()?;
        let value = match p.take_u8()? {
            FIELD_U64 => Value::U64(p.take_u64()?),
            FIELD_F64 => Value::F64(f64::from_bits(p.take_u64()?)),
            FIELD_STR => Value::Str(p.take_str()?),
            other => return Err(TraceError::Format(format!("unknown field type {other}"))),
        };
        fields.push((fname, value));
    }
    Ok(Event { seq, name, fields })
}

/// A bounds-checked cursor over a byte slice.
#[derive(Clone)]
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        if self.remaining() < n {
            return Err(TraceError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn take_u8(&mut self) -> Result<u8, TraceError> {
        Ok(self.take(1)?[0])
    }

    fn take_u32(&mut self) -> Result<u32, TraceError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn take_u64(&mut self) -> Result<u64, TraceError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads the count of a list whose items occupy at least `min_item`
    /// bytes each and rejects it unless the bytes left could hold that
    /// many, so no allocation is sized from a count the payload cannot
    /// back.
    fn take_count(&mut self, min_item: usize, what: &str) -> Result<usize, TraceError> {
        let count = self.take_u32()? as usize;
        if count > self.remaining() / min_item {
            return Err(TraceError::Format(format!(
                "{what} count {count} cannot fit in the {} bytes left",
                self.remaining()
            )));
        }
        Ok(count)
    }

    fn take_str(&mut self) -> Result<String, TraceError> {
        let len = self.take_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| TraceError::Format("non-UTF-8 string".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rle_round_trips_and_only_wins_on_runs() {
        let flat = vec![7u8; 1000];
        let rle = rle_encode(&flat).expect("flat frame compresses");
        assert!(rle.len() < flat.len());
        assert_eq!(rle_decode(&rle, 1000).unwrap(), flat);
        // Alternating pixels cannot compress: every run is length 1.
        let noisy: Vec<u8> = (0..100).map(|i| (i % 2) as u8 * 255).collect();
        assert!(rle_encode(&noisy).is_none());
    }

    const TRAILER_LEN: usize = 1 + 4 + 8;

    /// Appends the trailer record a writer would: the content is then
    /// intact as far as the reader's first pass can tell.
    fn sealed(mut content: Vec<u8>) -> Vec<u8> {
        let mut hasher = ContentHasher::new();
        hasher.update(&content);
        push_record(&mut content, TAG_TRAILER, &hasher.finish().to_le_bytes());
        content
    }

    fn tiny_trace() -> Trace {
        Trace {
            serve: ServeConfig {
                shards: 3,
                ..ServeConfig::default()
            },
            models: ModelSpec {
                seed: 11,
                classes: 2,
                weathers: vec![Weather::Daytime],
            },
            streams: vec![vec![RecordedFrame {
                arrival_us: 0,
                frame: GrayFrame::filled(4, 4, 90),
            }]],
            outputs: RecordedOutputs::default(),
            events: Vec::new(),
        }
    }

    #[test]
    fn other_versions_are_a_typed_error() {
        // v1 and v2 (CONFIG records with the three retired scheduler
        // fields) and anything newer: rejected by the version word,
        // before a single record is parsed.
        let mut content = tiny_trace().to_bytes();
        content.truncate(content.len() - TRAILER_LEN);
        for version in [1, 2, TRACE_VERSION + 1] {
            content[4..8].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                Trace::from_bytes(&sealed(content.clone())),
                Err(TraceError::UnsupportedVersion(v)) if v == version
            ));
        }
    }

    /// A trace holding the one record `tag | payload`, validly sealed.
    fn one_record(tag: u8, payload: &[u8]) -> Vec<u8> {
        let mut content = MAGIC.to_vec();
        content.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        push_record(&mut content, tag, payload);
        sealed(content)
    }

    fn format_error(bytes: &[u8]) -> String {
        match Trace::from_bytes(bytes) {
            Err(TraceError::Format(m)) => m,
            other => panic!("expected a format error, got {other:?}"),
        }
    }

    #[test]
    fn huge_counts_in_a_sealed_trace_are_typed_errors() {
        // The trailer hash is valid in every case, so the second pass
        // trusts the content; each count below would size an allocation
        // of 4–240 GB (abort) or overflow a capacity (panic).
        let huge = u32::MAX.to_le_bytes();

        // CONFIG ends `… | n_weathers | one code per weather | n_streams`.
        let config = encode_config(&tiny_trace());
        let end = config.len();
        let mut weathers = config.clone();
        weathers[end - 9..end - 5].copy_from_slice(&huge);
        assert!(format_error(&one_record(TAG_CONFIG, &weathers)).contains("weather count"));
        let mut streams = config;
        streams[end - 4..].copy_from_slice(&huge);
        assert!(format_error(&one_record(TAG_CONFIG, &streams)).contains("stream count"));

        // EVENT: seq, empty name, then the field count.
        let mut event = vec![0u8; 8 + 4];
        event.extend_from_slice(&huge);
        assert!(format_error(&one_record(TAG_EVENT, &event)).contains("event field count"));

        // FRAME: stream, index, arrival, w, h, encoding, pixels.
        let frame = |w: u32, h: u32, enc: u8, pixels: &[u8]| {
            let mut p = vec![0u8; 4 + 4 + 8];
            p.extend_from_slice(&w.to_le_bytes());
            p.extend_from_slice(&h.to_le_bytes());
            p.push(enc);
            p.extend_from_slice(pixels);
            one_record(TAG_FRAME, &p)
        };
        for bytes in [
            frame(u32::MAX, u32::MAX, ENC_RLE, &[255, 0]),
            frame(1 << 16, 1 << 16, ENC_RLE, &[255, 0]),
            frame(u32::MAX, u32::MAX, ENC_RAW, &[0; 4]),
            frame(0, 0, ENC_RAW, &[]),
        ] {
            assert!(bytes.len() < 64);
            assert!(format_error(&bytes).contains("cannot come from"));
        }
        // The bound is tight: one full run is a valid 255-pixel frame.
        let ok = frame(255, 1, ENC_RLE, &[255, 7]);
        assert!(matches!(
            Trace::from_bytes(&ok),
            Err(TraceError::Format(m)) if m.contains("missing CONFIG")
        ));
    }

    #[test]
    fn weather_codes_cover_all() {
        for &w in &Weather::ALL {
            assert_eq!(weather_from_code(weather_code(w)).unwrap(), w);
        }
        assert!(weather_from_code(9).is_err());
    }
}
