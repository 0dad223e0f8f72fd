//! Error type for dataset generation and slicing.

use std::fmt;

/// Errors produced while building or slicing the synthetic dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// A builder parameter was outside its valid range.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable description of the requirement.
        requirement: &'static str,
    },
    /// A recording is too short to produce even one analysis window.
    RecordingTooShort {
        /// Number of samples in the recording.
        samples: usize,
        /// Number of samples required for one window.
        required: usize,
    },
    /// A DSP routine failed while deriving labels or features.
    Dsp(ppg_dsp::DspError),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::InvalidParameter { name, requirement } => {
                write!(f, "invalid dataset parameter `{name}` ({requirement})")
            }
            DataError::RecordingTooShort { samples, required } => {
                write!(
                    f,
                    "recording too short: {samples} samples, {required} required"
                )
            }
            DataError::Dsp(e) => write!(f, "dsp error: {e}"),
        }
    }
}

impl std::error::Error for DataError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DataError::Dsp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ppg_dsp::DspError> for DataError {
    fn from(e: ppg_dsp::DspError) -> Self {
        DataError::Dsp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = DataError::InvalidParameter {
            name: "subjects",
            requirement: "must be 1..=15",
        };
        assert!(e.to_string().contains("subjects"));
        let e = DataError::RecordingTooShort {
            samples: 10,
            required: 256,
        };
        assert!(e.to_string().contains("256"));
    }

    #[test]
    fn dsp_error_is_wrapped_with_source() {
        use std::error::Error;
        let e: DataError = ppg_dsp::DspError::EmptyInput { op: "mae" }.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("mae"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DataError>();
    }
}
