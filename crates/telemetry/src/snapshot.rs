//! Snapshot export: one struct, two renderings (human table via
//! `Display`, machine trajectory via [`Snapshot::to_json_lines`]).

use crate::journal::Event;
use crate::metrics::HistogramSnapshot;
use std::fmt;

/// A point-in-time view of a whole [`crate::Registry`].
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Journalled events, oldest first.
    pub events: Vec<Event>,
    /// Events the bounded journal discarded before this snapshot.
    pub events_dropped: u64,
}

impl Snapshot {
    /// Counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Renders the snapshot as JSON lines: one object per metric and
    /// per event, so a trajectory file can append
    /// snapshots without a JSON parser on either side.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!(
                "{{\"type\":\"counter\",\"name\":{},\"value\":{value}}}\n",
                json_string(name)
            ));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!(
                "{{\"type\":\"gauge\",\"name\":{},\"value\":{}}}\n",
                json_string(name),
                json_f64(*value)
            ));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "{{\"type\":\"histogram\",\"name\":{},\"count\":{},\"sum_ms\":{},\"min_ms\":{},\"max_ms\":{},\"mean_ms\":{},\"p50_ms\":{},\"p95_ms\":{},\"p99_ms\":{}}}\n",
                json_string(name),
                h.count,
                json_f64(h.sum_ms),
                json_f64(h.min_ms),
                json_f64(h.max_ms),
                json_f64(h.mean_ms()),
                json_f64(h.p50_ms),
                json_f64(h.p95_ms),
                json_f64(h.p99_ms),
            ));
        }
        for event in &self.events {
            let mut fields = String::new();
            for (k, v) in &event.fields {
                fields.push_str(&format!(",{}:{}", json_string(k), v.to_json()));
            }
            out.push_str(&format!(
                "{{\"type\":\"event\",\"seq\":{},\"name\":{}{fields}}}\n",
                event.seq,
                json_string(&event.name)
            ));
        }
        if self.events_dropped > 0 {
            out.push_str(&format!(
                "{{\"type\":\"meta\",\"events_dropped\":{}}}\n",
                self.events_dropped
            ));
        }
        out
    }
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.counters.is_empty() {
            writeln!(f, "counters:")?;
            for (name, value) in &self.counters {
                writeln!(f, "  {name:<32} {value:>12}")?;
            }
        }
        if !self.gauges.is_empty() {
            writeln!(f, "gauges:")?;
            for (name, value) in &self.gauges {
                writeln!(f, "  {name:<32} {value:>12.3}")?;
            }
        }
        if !self.histograms.is_empty() {
            writeln!(
                f,
                "histograms (ms):                      count      mean       p50       p95       p99       max"
            )?;
            for (name, h) in &self.histograms {
                writeln!(
                    f,
                    "  {name:<32} {:>9} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
                    h.count,
                    h.mean_ms(),
                    h.p50_ms,
                    h.p95_ms,
                    h.p99_ms,
                    h.max_ms
                )?;
            }
        }
        if !self.events.is_empty() {
            writeln!(f, "events ({} dropped):", self.events_dropped)?;
            for event in &self.events {
                write!(f, "  #{:<5} {}", event.seq, event.name)?;
                for (k, v) in &event.fields {
                    write!(f, " {k}={v}")?;
                }
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

/// Quotes and escapes `s` as a JSON string literal.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Registry, Value};

    fn sample() -> Snapshot {
        let r = Registry::new();
        r.counter("frames").add(42);
        r.gauge("queue.high_water").set(7.0);
        for v in [1.0, 2.0, 3.0] {
            r.histogram("stage_ms").observe_ms(v);
        }
        r.event(
            "switch",
            vec![
                ("model".into(), Value::from("snow")),
                ("latency_ms".into(), Value::F64(3.25)),
            ],
        );
        r.snapshot()
    }

    #[test]
    fn display_mentions_every_section() {
        let text = format!("{}", sample());
        assert!(text.contains("counters:"));
        assert!(text.contains("frames"));
        assert!(text.contains("queue.high_water"));
        assert!(text.contains("stage_ms"));
        assert!(text.contains("switch"));
        assert!(text.contains("model=snow"));
    }

    #[test]
    fn json_lines_are_one_object_per_line() {
        let json = sample().to_json_lines();
        for line in json.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(json.contains("\"type\":\"counter\""));
        assert!(json.contains("\"name\":\"frames\",\"value\":42"));
        assert!(json.contains("\"type\":\"histogram\""));
        assert!(json.contains("\"type\":\"event\""));
        assert!(json.contains("\"model\":\"snow\""));
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("tab\tok"), "\"tab\\tok\"");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn lookup_helpers() {
        let s = sample();
        assert_eq!(s.counter("frames"), Some(42));
        assert_eq!(s.gauge("queue.high_water"), Some(7.0));
        assert_eq!(s.histogram("stage_ms").map(|h| h.count), Some(3));
        assert!(s.counter("nope").is_none());
    }
}
