use std::fmt;
use std::time::Duration;

/// A frames-per-second value.
///
/// Newtype so FPS numbers cannot be confused with other `f64` metrics when
/// they flow through the scoring code.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Fps(pub f64);

impl Fps {
    /// FPS corresponding to a per-frame latency.
    pub fn from_latency(latency: Duration) -> Self {
        let secs = latency.as_secs_f64();
        if secs > 0.0 {
            Fps(1.0 / secs)
        } else {
            Fps(f64::INFINITY)
        }
    }
}

impl fmt::Display for Fps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} FPS", self.0)
    }
}

impl From<f64> for Fps {
    fn from(v: f64) -> Self {
        Fps(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fps_from_latency() {
        assert!((Fps::from_latency(Duration::from_millis(50)).0 - 20.0).abs() < 1e-9);
        assert_eq!(Fps::from_latency(Duration::ZERO).0, f64::INFINITY);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Fps(9.5).to_string(), "9.50 FPS");
    }
}
