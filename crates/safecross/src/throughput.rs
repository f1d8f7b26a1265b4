//! The Sec. V-D left-turn throughput analysis.
//!
//! The paper builds a test set of 63 blind-zone segments (31 with a car
//! in the blind area — class 0, must wait — and 32 without — class 1,
//! may turn), classifies them with SafeCross, and counts how many
//! immediate turns the system unlocks. A driver without SafeCross cannot
//! verify an occluded lane and must wait out every blind-zone situation,
//! so every correctly-predicted "safe" verdict is throughput gained:
//! the paper reports 32/63 ≈ +50%.

use crate::errors::SafeCrossError;
use crate::framework::SafeCross;
use safecross_dataset::{Class, Dataset};
use std::fmt;

/// The outcome of the throughput study.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputReport {
    /// Blind-zone segments evaluated.
    pub segments: usize,
    /// Ground-truth safe segments (empty blind zone).
    pub truth_safe: usize,
    /// Ground-truth danger segments (occupied blind zone).
    pub truth_danger: usize,
    /// Safe segments correctly released for an immediate turn.
    pub correct_turns: usize,
    /// Danger segments correctly held back.
    pub correct_waits: usize,
    /// Danger segments wrongly released (the safety-critical error).
    pub unsafe_turns: usize,
    /// Safe segments wrongly held (lost throughput only).
    pub missed_turns: usize,
}

impl ThroughputReport {
    /// Classification accuracy on the blind-zone test set.
    pub fn accuracy(&self) -> f64 {
        if self.segments == 0 {
            return 0.0;
        }
        (self.correct_turns + self.correct_waits) as f64 / self.segments as f64
    }

    /// Throughput gain over the always-wait baseline: the fraction of
    /// blind-zone encounters converted into immediate turns.
    pub fn throughput_gain(&self) -> f64 {
        if self.segments == 0 {
            return 0.0;
        }
        self.correct_turns as f64 / self.segments as f64
    }

    /// Whether the system kept the paper's safety guarantee (zero unsafe
    /// releases).
    pub fn is_safe(&self) -> bool {
        self.unsafe_turns == 0
    }
}

impl fmt::Display for ThroughputReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "blind-zone segments: {} ({} safe / {} danger)",
            self.segments, self.truth_safe, self.truth_danger
        )?;
        writeln!(
            f,
            "verdicts: {} correct turns, {} correct waits, {} unsafe turns, {} missed turns",
            self.correct_turns, self.correct_waits, self.unsafe_turns, self.missed_turns
        )?;
        writeln!(f, "accuracy: {:.4}", self.accuracy())?;
        write!(
            f,
            "left-turn throughput gain vs always-wait: +{:.0}% ({}/{})",
            100.0 * self.throughput_gain(),
            self.correct_turns,
            self.segments
        )
    }
}

/// Runs the study: classify every blind-area segment in `indices` with
/// the system's scene models and tally turns against ground truth.
///
/// Ground truth for a blind-zone segment is *blind-zone occupancy* (the
/// paper's class definition in Sec. V-D), not general danger: a car in
/// the blind area means wait.
///
/// # Errors
///
/// [`SafeCrossError::NoModel`] if a segment's weather has no registered
/// model.
pub fn throughput_study(
    system: &mut SafeCross,
    data: &Dataset,
    indices: &[usize],
) -> Result<ThroughputReport, SafeCrossError> {
    let mut report = ThroughputReport {
        segments: 0,
        truth_safe: 0,
        truth_danger: 0,
        correct_turns: 0,
        correct_waits: 0,
        unsafe_turns: 0,
        missed_turns: 0,
    };
    for &i in indices {
        let seg = data.get(i);
        if !seg.label.blind_area {
            continue; // the study only concerns blind-zone scenes
        }
        let truth_danger = seg.label.class == Class::Danger;
        let verdict = system.classify_clip(&seg.clip, seg.weather)?;
        report.segments += 1;
        if truth_danger {
            report.truth_danger += 1;
        } else {
            report.truth_safe += 1;
        }
        match (verdict.class, truth_danger) {
            (Class::Safe, false) => report.correct_turns += 1,
            (Class::Danger, true) => report.correct_waits += 1,
            (Class::Safe, true) => report.unsafe_turns += 1,
            (Class::Danger, false) => report.missed_turns += 1,
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(ct: usize, cw: usize, ut: usize, mt: usize) -> ThroughputReport {
        ThroughputReport {
            segments: ct + cw + ut + mt,
            truth_safe: ct + mt,
            truth_danger: cw + ut,
            correct_turns: ct,
            correct_waits: cw,
            unsafe_turns: ut,
            missed_turns: mt,
        }
    }

    #[test]
    fn paper_numbers_give_fifty_percent() {
        // The paper's result: 32 correct turns, 31 correct waits, 0 errors.
        let r = report(32, 31, 0, 0);
        assert_eq!(r.segments, 63);
        assert!((r.accuracy() - 1.0).abs() < 1e-9);
        assert!((r.throughput_gain() - 32.0 / 63.0).abs() < 1e-9);
        assert!(r.is_safe());
        let text = format!("{r}");
        assert!(text.contains("+51%") || text.contains("+50%"), "{text}");
    }

    #[test]
    fn unsafe_turns_break_the_guarantee() {
        let r = report(30, 28, 2, 3);
        assert!(!r.is_safe());
        assert!(r.accuracy() < 1.0);
    }

    #[test]
    fn empty_report_is_zero() {
        let r = report(0, 0, 0, 0);
        assert_eq!(r.accuracy(), 0.0);
        assert_eq!(r.throughput_gain(), 0.0);
    }
}
