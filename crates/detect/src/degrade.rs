//! Graceful degradation: the paper's accuracy-vs-FPS knob as a runtime
//! policy.
//!
//! Tables 2–4 of the paper sweep input resolution from 352 to 608 and pick
//! one point at deployment time. On an overloaded board the better answer
//! is to *move along that ladder at runtime*: when the camera sustainably
//! outpaces compute (queue full, frames dropping), downshift the detector
//! to the next-smaller input size; when the load clears and stays clear,
//! upshift back. [`DegradeController`] implements that hysteresis as a
//! deterministic state machine over per-frame hot/calm verdicts, and
//! [`DegradeController::step`] is the workspace's one brownout step: both
//! `detect::Supervisor` (hot when a camera at the nominal rate would have
//! dropped frames) and serve's replicas (hot when a job is still queued
//! at the tick or one was shed since the last) call it, then conform
//! later frames to the size it returns. A rung is a frame size: the
//! network is fully convolutional, and [`crate::Detector`] runs at the
//! size of the frames it is given, so a shift builds no detector.

use crate::{DetectError, Result};
use dronet_obs::{Counter, Gauge, HealthCell};

/// Configuration of the degradation state machine.
#[derive(Debug, Clone)]
pub struct DegradeConfig {
    /// The resolution ladder, ascending (e.g. the paper's 352–608 sweep;
    /// see `dronet_core::zoo::resolution_ladder`). The controller starts
    /// at the largest rung.
    pub ladder: Vec<usize>,
    /// Consecutive overloaded windows before a downshift.
    pub overload_windows: u32,
    /// Consecutive calm windows before an upshift.
    pub calm_windows: u32,
    /// Windows to hold still after any shift (cooldown) before acting
    /// again, so one burst cannot slam the ladder end to end.
    pub cooldown_windows: u32,
    /// Frames per observation window.
    pub window_frames: u32,
}

impl DegradeConfig {
    /// A config over `ladder` with moderately patient hysteresis.
    pub fn over_ladder(ladder: Vec<usize>) -> Self {
        DegradeConfig {
            ladder,
            overload_windows: 2,
            calm_windows: 4,
            cooldown_windows: 1,
            window_frames: 8,
        }
    }
}

/// Where a controller's shifts are published. Each caller names its own
/// metrics (`degrade.*` / `detect.input_size` in detect,
/// `serve.brownout_*` / `serve.input_resolution` in serve).
#[derive(Debug, Clone)]
pub struct ShiftMetrics {
    /// Counts downshifts.
    pub downshifts: Counter,
    /// Counts upshifts.
    pub upshifts: Counter,
    /// The current input size.
    pub input_size: Gauge,
}

/// The degradation state machine: consumes hot/calm verdicts, shifts
/// rungs; the caller conforms its frames to the rung.
#[derive(Debug, Clone)]
pub struct DegradeController {
    config: DegradeConfig,
    rung: usize,
    frames_in_window: u32,
    window_hot: bool,
    hot_streak: u32,
    calm_streak: u32,
    cooldown: u32,
}

impl DegradeController {
    /// Builds a controller.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::BadConfig`] for an empty or unsorted ladder,
    /// or a zero window size.
    pub fn new(config: DegradeConfig) -> Result<Self> {
        if config.ladder.is_empty() {
            return Err(DetectError::BadConfig {
                param: "ladder",
                msg: "resolution ladder must not be empty".to_string(),
            });
        }
        if !config.ladder.windows(2).all(|w| w[0] < w[1]) {
            return Err(DetectError::BadConfig {
                param: "ladder",
                msg: format!("ladder {:?} must be strictly ascending", config.ladder),
            });
        }
        if config.window_frames == 0 {
            return Err(DetectError::BadConfig {
                param: "window_frames",
                msg: "observation window must be at least one frame".to_string(),
            });
        }
        Ok(DegradeController {
            rung: config.ladder.len() - 1,
            config,
            frames_in_window: 0,
            window_hot: false,
            hot_streak: 0,
            calm_streak: 0,
            cooldown: 0,
        })
    }

    /// The current input size.
    pub fn current(&self) -> usize {
        self.config.ladder[self.rung]
    }

    /// Whether the controller sits below the top of its ladder.
    pub fn is_degraded(&self) -> bool {
        self.rung + 1 < self.config.ladder.len()
    }

    /// The one brownout step: feeds one frame's verdict, `hot` when it
    /// saw overload, and at a window boundary applies the shift the
    /// hysteresis asks for — counts it, publishes the new input size, and
    /// degrades `health` on a downshift. One hot frame marks its whole
    /// window hot. Returns the new input size, to which the caller
    /// conforms the frames it runs.
    ///
    /// The "frame" need not be a camera frame: the serving layer feeds one
    /// verdict per supervisor tick, so `window_frames` becomes
    /// ticks-per-window there.
    pub fn step(
        &mut self,
        hot: bool,
        metrics: &ShiftMetrics,
        health: &HealthCell,
    ) -> Option<usize> {
        self.window_hot |= hot;
        self.frames_in_window += 1;
        if self.frames_in_window < self.config.window_frames {
            return None;
        }
        self.frames_in_window = 0;
        let hot = std::mem::replace(&mut self.window_hot, false);
        let from = self.current();
        let size = self.observe_window(hot)?;
        if size < from {
            metrics.downshifts.inc();
            health.degrade();
        } else {
            metrics.upshifts.inc();
        }
        metrics.input_size.set(size as f64);
        Some(size)
    }

    /// Folds one whole observation window into the hysteresis streaks.
    /// Equivalent to `window_frames` calls to [`DegradeController::step`]
    /// whose combined hotness is `hot`. Returns the new input size on a
    /// shift.
    fn observe_window(&mut self, hot: bool) -> Option<usize> {
        if hot {
            self.hot_streak += 1;
            self.calm_streak = 0;
        } else {
            self.calm_streak += 1;
            self.hot_streak = 0;
        }
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return None;
        }
        if hot && self.hot_streak >= self.config.overload_windows && self.rung > 0 {
            self.rung -= 1;
            self.hot_streak = 0;
            self.cooldown = self.config.cooldown_windows;
            return Some(self.current());
        }
        if !hot
            && self.calm_streak >= self.config.calm_windows
            && self.rung + 1 < self.config.ladder.len()
        {
            self.rung += 1;
            self.calm_streak = 0;
            self.cooldown = self.config.cooldown_windows;
            return Some(self.current());
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dronet_obs::{Health, Registry};

    fn controller(overload_windows: u32, calm_windows: u32, cooldown: u32) -> DegradeController {
        DegradeController::new(DegradeConfig {
            ladder: vec![352, 416, 480, 544, 608],
            overload_windows,
            calm_windows,
            cooldown_windows: cooldown,
            window_frames: 2,
        })
        .unwrap()
    }

    /// Shift metrics and a health cell on a throwaway registry.
    fn sinks(obs: &Registry) -> (ShiftMetrics, HealthCell) {
        let metrics = ShiftMetrics {
            downshifts: obs.counter("down"),
            upshifts: obs.counter("up"),
            input_size: obs.gauge("input"),
        };
        (metrics, HealthCell::new(obs.gauge("health")))
    }

    /// Runs `windows` whole windows of uniform load, returning the sizes
    /// shifted to.
    fn run_windows(c: &mut DegradeController, windows: u32, hot: bool) -> Vec<usize> {
        let (metrics, health) = sinks(&Registry::new());
        (0..windows * 2)
            .filter_map(|_| c.step(hot, &metrics, &health))
            .collect()
    }

    #[test]
    fn validates_config() {
        assert!(DegradeController::new(DegradeConfig::over_ladder(vec![])).is_err());
        assert!(DegradeController::new(DegradeConfig {
            ladder: vec![416, 352],
            ..DegradeConfig::over_ladder(vec![352, 416])
        })
        .is_err());
        assert!(DegradeController::new(DegradeConfig {
            window_frames: 0,
            ..DegradeConfig::over_ladder(vec![352, 416])
        })
        .is_err());
    }

    #[test]
    fn sustained_overload_walks_down_the_whole_ladder() {
        let mut c = controller(1, 4, 0);
        assert_eq!(c.current(), 608);
        let sizes = run_windows(&mut c, 10, true);
        assert_eq!(c.current(), 352, "bottom of the ladder");
        assert_eq!(
            sizes,
            vec![544, 480, 416, 352],
            "four downshifts, then pinned at 352"
        );
        assert!(c.is_degraded());
        // Pinned at the bottom: further overload emits nothing.
        assert!(run_windows(&mut c, 5, true).is_empty());
    }

    #[test]
    fn calm_recovers_with_hysteresis() {
        let mut c = controller(1, 3, 0);
        run_windows(&mut c, 3, true);
        assert!(c.current() < 608);
        let start = c.current();
        // Two calm windows: not enough.
        assert!(run_windows(&mut c, 2, false).is_empty());
        assert_eq!(c.current(), start);
        // The third calm window upshifts one rung.
        assert_eq!(run_windows(&mut c, 1, false), vec![start + 64]);
    }

    #[test]
    fn one_hot_frame_marks_the_whole_window() {
        let (metrics, health) = sinks(&Registry::new());
        let mut c = controller(1, 4, 0);
        assert!(c.step(true, &metrics, &health).is_none(), "mid-window");
        assert_eq!(c.step(false, &metrics, &health), Some(544));
    }

    #[test]
    fn cooldown_spaces_out_shifts() {
        let mut c = controller(1, 2, 2);
        let sizes = run_windows(&mut c, 6, true);
        // Shift, two cooldown windows, shift, two cooldown, shift.
        assert_eq!(sizes.len(), 2, "cooldown limits to one shift per 3 windows");
    }

    #[test]
    fn observe_window_is_equivalent_to_a_window_of_frames() {
        // Drive one controller frame-by-frame and a twin window-by-window
        // with the same hot/calm sequence; they must stay in lockstep.
        let (metrics, health) = sinks(&Registry::new());
        let mut by_frame = controller(2, 3, 1);
        let mut by_window = controller(2, 3, 1);
        let pattern = [
            true, true, true, false, false, false, false, true, false, false, false, false,
        ];
        for &hot in &pattern {
            let mut frame_size = None;
            for _ in 0..2 {
                if let Some(size) = by_frame.step(hot, &metrics, &health) {
                    frame_size = Some(size);
                }
            }
            let window_size = by_window.observe_window(hot);
            assert_eq!(frame_size, window_size);
            assert_eq!(by_frame.current(), by_window.current());
        }
    }

    #[test]
    fn step_publishes_each_shift_and_degrades_on_the_way_down() {
        let obs = Registry::new();
        let (metrics, health) = sinks(&obs);
        let mut c = controller(1, 1, 0);
        assert_eq!(c.step(true, &metrics, &health), None, "mid-window");
        assert_eq!(c.step(false, &metrics, &health), Some(544));
        assert_eq!(health.get(), Health::Degraded);
        health.recover();
        c.step(false, &metrics, &health);
        assert_eq!(c.step(false, &metrics, &health), Some(608));
        assert_eq!(health.get(), Health::Healthy, "upshifts never degrade");
        let snap = obs.snapshot();
        assert_eq!(
            (snap.counter("down"), snap.counter("up")),
            (Some(1), Some(1))
        );
        assert_eq!(snap.gauge("input"), Some(608.0));
    }

    #[test]
    fn upshift_stops_at_the_top() {
        let mut c = controller(1, 1, 0);
        assert!(run_windows(&mut c, 5, false).is_empty(), "already at 608");
        assert!(!c.is_degraded());
    }
}
