//! What one run hands back, and the one-line JSON form of it that the
//! driver (and this binary's own suite modes) read.

use crate::spec;

/// The result of one workload run.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Frames fed to the system while measuring.
    pub attempted: u64,
    /// Frames the system lost outside its contract: shed where the
    /// workload allows no shedding, or unaccounted for anywhere.
    /// Designed shedding under overload is reported by
    /// `delivered_share`, not here.
    pub failed: u64,
    /// Metric values by name, in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Why `correct` is false, for the human reading stderr.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records a failed output check.
    pub fn fail(&mut self, problem: String) {
        self.correct = false;
        self.problems.push(problem);
    }

    /// The driver's result line. Values print with every digit `f64`
    /// needs to round-trip.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = spec::unit_of(name).expect("metric is in the tables");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A result line read back from a child run.
pub struct Parsed {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

/// Parses a line [`Outcome::json_line`] wrote. Not a JSON parser: it
/// reads exactly the shape this binary prints.
pub fn parse_line(line: &str) -> Option<Parsed> {
    let field = |key: &str| -> Option<&str> {
        let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let correct = field("correct")?.parse().ok()?;
    let attempted = field("attempted")?.parse().ok()?;
    let failed = field("failed")?.parse().ok()?;
    let body = &line[line.find("\"metrics\": {")? + 12..];
    let mut metrics = Vec::new();
    for entry in body.split("\"}").filter(|e| e.contains("{\"value\": ")) {
        let name_start = entry.find('"')? + 1;
        let name_end = name_start + entry[name_start..].find('"')?;
        let value_start = entry.find("{\"value\": ")? + 10;
        let value_end = value_start + entry[value_start..].find(',')?;
        metrics.push((
            entry[name_start..name_end].to_owned(),
            entry[value_start..value_end].parse().ok()?,
        ));
    }
    Some(Parsed {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// Restarts `VmHWM` from the current resident set, so that a peak
/// belongs to what ran since. Best effort: where the kernel refuses,
/// peaks stay cumulative, which is still a true upper bound.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// This process's peak resident set (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let outcome = Outcome {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: vec![("frames_per_s", 1234.567891234), ("setup_s", 0.001953125)],
            problems: Vec::new(),
        };
        let line = outcome.json_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1234, \"failed\": 0, \"metrics\": {\"frames_per_s\": {\"value\": 1234.567891234, \"unit\": \"1/s\"}"));
        let parsed = parse_line(&line).expect("own output parses");
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (1234, 0));
        assert_eq!(
            parsed.metrics,
            vec![
                ("frames_per_s".to_owned(), 1234.567891234),
                ("setup_s".to_owned(), 0.001953125)
            ]
        );
        assert!(parse_line("warming up").is_none());
    }

    #[test]
    fn peak_rss_reads_this_process() {
        assert!(peak_rss_mb() > 1.0);
        // A reset never raises the peak, and a large allocation made
        // (and touched) after it shows.
        let before = peak_rss_mb();
        reset_peak_rss();
        assert!(peak_rss_mb() <= before);
        let block = vec![1u8; 64 << 20];
        assert!(std::hint::black_box(&block).iter().all(|&b| b == 1));
        assert!(peak_rss_mb() > 48.0);
    }
}
