use dronet_nn::NnError;
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Errors produced by the detection pipeline.
#[derive(Debug)]
pub enum DetectError {
    /// The underlying network failed.
    Network(NnError),
    /// The network's output does not match its region-head configuration.
    BadNetworkOutput {
        /// What the decoder expected, e.g. channel count.
        expected: String,
        /// What it found.
        actual: String,
    },
    /// A configuration value was out of range.
    BadConfig {
        /// Name of the offending parameter.
        param: &'static str,
        /// Description of the problem.
        msg: String,
    },
    /// The network given to the detector has no region head.
    MissingRegionHead,
    /// A frame arrived corrupt: truncated, the wrong shape, or carrying
    /// non-finite pixel values. Recoverable — the supervisor skips or
    /// retries the frame instead of aborting the run.
    CorruptFrame {
        /// Arrival index of the offending frame.
        frame_index: usize,
        /// Description of the corruption.
        msg: String,
    },
    /// A pipeline stage crashed (panicked) and was isolated by the
    /// supervisor; the stage is restarted rather than taking the process
    /// down.
    StageFailed {
        /// Name of the stage, e.g. `"detect"` or `"source"`.
        stage: &'static str,
        /// The panic payload or failure description.
        msg: String,
    },
    /// A pipeline stage exceeded its deadline.
    Timeout {
        /// Name of the stage, e.g. `"detect"` or `"source"`.
        stage: &'static str,
        /// How long the stage actually ran.
        elapsed: Duration,
        /// The configured per-stage deadline.
        limit: Duration,
    },
}

impl fmt::Display for DetectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectError::Network(e) => write!(f, "network failure: {e}"),
            DetectError::BadNetworkOutput { expected, actual } => {
                write!(
                    f,
                    "network output mismatch: expected {expected}, got {actual}"
                )
            }
            DetectError::BadConfig { param, msg } => write!(f, "bad {param}: {msg}"),
            DetectError::MissingRegionHead => {
                write!(f, "detector requires a network ending in a region layer")
            }
            DetectError::CorruptFrame { frame_index, msg } => {
                write!(f, "corrupt frame {frame_index}: {msg}")
            }
            DetectError::StageFailed { stage, msg } => {
                write!(f, "{stage} stage failed: {msg}")
            }
            DetectError::Timeout {
                stage,
                elapsed,
                limit,
            } => {
                write!(
                    f,
                    "{stage} stage exceeded its {limit:?} deadline (ran {elapsed:?})"
                )
            }
        }
    }
}

impl Error for DetectError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DetectError::Network(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NnError> for DetectError {
    fn from(e: NnError) -> Self {
        DetectError::Network(e)
    }
}

/// Renders a `catch_unwind` payload as text so a panic can be carried
/// inside [`DetectError::StageFailed`].
pub fn panic_payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

impl DetectError {
    /// Whether the supervisor may retry the frame that produced this error
    /// (transient data corruption rather than structural misconfiguration).
    pub fn is_recoverable(&self) -> bool {
        matches!(
            self,
            DetectError::Network(_)
                | DetectError::BadNetworkOutput { .. }
                | DetectError::CorruptFrame { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_bounds_and_display() {
        fn assert_bounds<T: Send + Sync + 'static>() {}
        assert_bounds::<DetectError>();
        assert!(DetectError::MissingRegionHead
            .to_string()
            .contains("region"));
        let e = DetectError::StageFailed {
            stage: "detect",
            msg: "boom".into(),
        };
        assert!(e.to_string().contains("detect stage failed"));
        let e = DetectError::Timeout {
            stage: "detect",
            elapsed: Duration::from_millis(70),
            limit: Duration::from_millis(20),
        };
        assert!(e.to_string().contains("deadline"));
        let e = DetectError::CorruptFrame {
            frame_index: 3,
            msg: "truncated".into(),
        };
        assert!(e.to_string().contains("corrupt frame 3"));
    }

    #[test]
    fn source_chains() {
        let e = DetectError::from(NnError::MissingForwardCache { layer_index: 2 });
        assert!(e.source().is_some());
        // Non-wrapping variants terminate the chain.
        assert!(DetectError::MissingRegionHead.source().is_none());
        assert!(DetectError::StageFailed {
            stage: "detect",
            msg: "x".into()
        }
        .source()
        .is_none());
    }

    #[test]
    fn recoverability_classification() {
        assert!(DetectError::CorruptFrame {
            frame_index: 0,
            msg: String::new()
        }
        .is_recoverable());
        assert!(DetectError::BadNetworkOutput {
            expected: String::new(),
            actual: String::new()
        }
        .is_recoverable());
        assert!(!DetectError::MissingRegionHead.is_recoverable());
        assert!(!DetectError::Timeout {
            stage: "detect",
            elapsed: Duration::ZERO,
            limit: Duration::ZERO
        }
        .is_recoverable());
    }
}
