//! Typed errors for the public SafeCross API.
//!
//! Recoverable conditions — a bad configuration, a clip for a scene with
//! no registered model, a switch the MS runtime rejected — surface as
//! values instead of panics, so a deployment can degrade (fall back to
//! the daytime model, skip a clip, keep serving) rather than abort.

use safecross_modelswitch::SwitchError;
use safecross_trafficsim::Weather;
use std::fmt;

/// A [`SafeCrossConfig`](crate::SafeCrossConfig) value the orchestrator
/// cannot run with.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `segment_frames` must be at least 2: a single-frame "clip" has no
    /// temporal axis for the classifier to pool over.
    SegmentTooShort {
        /// The rejected value.
        segment_frames: usize,
    },
    /// `scene_window` must be positive — the detector votes over it.
    EmptySceneWindow,
    /// `min_confidence` must be a finite value in `[0, 1]`.
    BadConfidence {
        /// The rejected value.
        min_confidence: f32,
    },
    /// Frame dimensions must both be nonzero.
    EmptyFrame {
        /// The rejected width.
        frame_width: usize,
        /// The rejected height.
        frame_height: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::SegmentTooShort { segment_frames } => {
                write!(f, "segment_frames must be >= 2, got {segment_frames}")
            }
            ConfigError::EmptySceneWindow => write!(f, "scene_window must be > 0"),
            ConfigError::BadConfidence { min_confidence } => {
                write!(f, "min_confidence must be in [0, 1], got {min_confidence}")
            }
            ConfigError::EmptyFrame {
                frame_width,
                frame_height,
            } => {
                write!(
                    f,
                    "frame dimensions must be nonzero, got {frame_width}x{frame_height}"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// A recoverable failure from a [`SafeCross`](crate::SafeCross)
/// operation.
#[derive(Debug, Clone, PartialEq)]
pub enum SafeCrossError {
    /// The configuration was rejected (see [`ConfigError`]).
    Config(ConfigError),
    /// A clip was submitted for a scene with no registered model.
    NoModel {
        /// The scene the clip was meant for.
        weather: Weather,
        /// Scenes that *do* have a model, sorted by label.
        registered: Vec<Weather>,
    },
    /// The MS runtime refused a model switch.
    Switch(SwitchError),
}

impl fmt::Display for SafeCrossError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SafeCrossError::Config(e) => write!(f, "invalid configuration: {e}"),
            SafeCrossError::NoModel {
                weather,
                registered,
            } => {
                write!(f, "no model registered for {weather} (registered: ")?;
                for (i, w) in registered.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{w}")?;
                }
                write!(f, ")")
            }
            SafeCrossError::Switch(e) => write!(f, "model switch failed: {e}"),
        }
    }
}

impl std::error::Error for SafeCrossError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SafeCrossError::Config(e) => Some(e),
            SafeCrossError::Switch(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for SafeCrossError {
    fn from(e: ConfigError) -> Self {
        SafeCrossError::Config(e)
    }
}

impl From<SwitchError> for SafeCrossError {
    fn from(e: SwitchError) -> Self {
        SafeCrossError::Switch(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_actionable() {
        let e = ConfigError::SegmentTooShort { segment_frames: 1 };
        assert!(e.to_string().contains(">= 2"));
        let e = SafeCrossError::NoModel {
            weather: Weather::Snow,
            registered: vec![Weather::Daytime, Weather::Rain],
        };
        let s = e.to_string();
        assert!(
            s.contains("snow") && s.contains("daytime") && s.contains("rain"),
            "{s}"
        );
    }

    #[test]
    fn sources_chain() {
        use std::error::Error;
        let e = SafeCrossError::from(ConfigError::EmptySceneWindow);
        assert!(e.source().is_some());
        let e = SafeCrossError::NoModel {
            weather: Weather::Snow,
            registered: Vec::new(),
        };
        assert!(e.source().is_none());
    }
}
