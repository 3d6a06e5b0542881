use std::fmt;
use std::time::{Duration, Instant};

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

/// Measures sustained frame rate over a stream of processed frames.
///
/// # Example
///
/// ```
/// use dronet_metrics::FpsMeter;
/// use std::time::Duration;
///
/// let mut meter = FpsMeter::new();
/// meter.record(Duration::from_millis(100));
/// meter.record(Duration::from_millis(100));
/// assert!((meter.fps().0 - 10.0).abs() < 0.5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FpsMeter {
    frame_times: Vec<Duration>,
    started: Option<Instant>,
}

impl FpsMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        FpsMeter::default()
    }

    /// Marks the start of a frame; pair with [`FpsMeter::stop`].
    pub fn start(&mut self) {
        self.started = Some(Instant::now());
    }

    /// Marks the end of a frame started with [`FpsMeter::start`], recording
    /// the elapsed time. Does nothing when `start` was not called.
    pub fn stop(&mut self) {
        if let Some(t0) = self.started.take() {
            self.frame_times.push(t0.elapsed());
        }
    }

    /// Records an externally measured frame latency.
    pub fn record(&mut self, latency: Duration) {
        self.frame_times.push(latency);
    }

    /// Number of recorded frames.
    pub fn frames(&self) -> usize {
        self.frame_times.len()
    }

    /// Mean per-frame latency (zero when no frames are recorded).
    pub fn mean_latency(&self) -> Duration {
        if self.frame_times.is_empty() {
            return Duration::ZERO;
        }
        let total: Duration = self.frame_times.iter().sum();
        total / self.frame_times.len() as u32
    }

    /// Latency at the given percentile (e.g. `0.99`), zero when empty.
    ///
    /// `p` is clamped into `[0, 1]` (NaN clamps to 0), so callers feeding
    /// computed fractions never panic or index out of bounds.
    pub fn percentile_latency(&self, p: f64) -> Duration {
        if self.frame_times.is_empty() {
            return Duration::ZERO;
        }
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) };
        let mut sorted = self.frame_times.clone();
        sorted.sort();
        let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
        sorted[idx]
    }

    /// Sustained frame rate implied by the mean latency.
    pub fn fps(&self) -> Fps {
        Fps::from_latency(self.mean_latency())
    }

    /// Clears all recorded frames.
    pub fn reset(&mut self) {
        self.frame_times.clear();
        self.started = None;
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
    fn meter_statistics() {
        let mut m = FpsMeter::new();
        for ms in [10u64, 20, 30, 40] {
            m.record(Duration::from_millis(ms));
        }
        assert_eq!(m.frames(), 4);
        assert_eq!(m.mean_latency(), Duration::from_millis(25));
        assert!((m.fps().0 - 40.0).abs() < 0.5);
        assert_eq!(m.percentile_latency(1.0), Duration::from_millis(40));
        assert_eq!(m.percentile_latency(0.0), Duration::from_millis(10));
        m.reset();
        assert_eq!(m.frames(), 0);
        assert_eq!(m.mean_latency(), Duration::ZERO);
    }

    #[test]
    fn start_stop_measures_elapsed() {
        let mut m = FpsMeter::new();
        m.start();
        std::thread::sleep(Duration::from_millis(5));
        m.stop();
        assert_eq!(m.frames(), 1);
        assert!(m.mean_latency() >= Duration::from_millis(4));
        // stop without start is a no-op
        m.stop();
        assert_eq!(m.frames(), 1);
    }

    #[test]
    fn out_of_range_percentiles_clamp() {
        assert_eq!(FpsMeter::new().percentile_latency(1.5), Duration::ZERO);
        assert_eq!(FpsMeter::new().percentile_latency(0.5), Duration::ZERO);
        let mut m = FpsMeter::new();
        for ms in [10u64, 20, 30] {
            m.record(Duration::from_millis(ms));
        }
        assert_eq!(m.percentile_latency(1.5), Duration::from_millis(30));
        assert_eq!(m.percentile_latency(-0.3), Duration::from_millis(10));
        assert_eq!(m.percentile_latency(f64::NAN), Duration::from_millis(10));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Fps(9.5).to_string(), "9.50 FPS");
    }
}
