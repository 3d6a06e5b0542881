//! Graceful degradation: the paper's accuracy-vs-FPS knob as a runtime
//! policy.
//!
//! Tables 2–4 of the paper sweep input resolution from 352 to 608 and pick
//! one point at deployment time. On an overloaded board the better answer
//! is to *move along that ladder at runtime*: when the camera sustainably
//! outpaces compute (queue full, frames dropping), downshift the detector
//! to the next-smaller input size; when the load clears and stays clear,
//! upshift back. [`DegradeController`] implements that hysteresis as a
//! deterministic state machine over per-frame load observations, and
//! [`DegradeController::step`] is the workspace's one brownout step: both
//! `detect::Supervisor` (estimated camera drops per frame) and serve's
//! replicas (queue depth + admission drops per tick) call it, then conform
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
    /// Queue depth at or above which a window counts as overloaded even
    /// without drops.
    pub overload_queue: f64,
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
            overload_queue: 1.0,
            overload_windows: 2,
            calm_windows: 4,
            cooldown_windows: 1,
            window_frames: 8,
        }
    }
}

/// A resolution change requested by the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeAction {
    /// Overload: run at this smaller input size.
    Downshift(usize),
    /// Recovered: run at this larger input size.
    Upshift(usize),
}

impl DegradeAction {
    /// The target input size of either action.
    pub fn target(self) -> usize {
        match self {
            DegradeAction::Downshift(s) | DegradeAction::Upshift(s) => s,
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

/// The degradation state machine: consumes load observations, emits
/// actions; the caller conforms its frames to the rung.
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

    /// Feeds one processed frame's load observation: the queue depth at
    /// dequeue time and how many frames were dropped since the previous
    /// observation. Returns a shift request at window boundaries when the
    /// hysteresis thresholds are met; the caller then runs at
    /// [`DegradeAction::target`].
    ///
    /// The "frame" need not be a camera frame: the serving layer feeds one
    /// observation per supervisor tick (queue depth + admission-shed delta),
    /// so `window_frames` becomes ticks-per-window there.
    pub fn observe_frame(&mut self, queue_depth: f64, drops_delta: u64) -> Option<DegradeAction> {
        if drops_delta > 0 || queue_depth >= self.config.overload_queue {
            self.window_hot = true;
        }
        self.frames_in_window += 1;
        if self.frames_in_window < self.config.window_frames {
            return None;
        }
        self.frames_in_window = 0;
        let hot = std::mem::replace(&mut self.window_hot, false);
        self.observe_window(hot)
    }

    /// The one brownout step: feeds one observation (see
    /// [`DegradeController::observe_frame`]) and applies the shift it asks
    /// for — counts it, publishes the new input size, and degrades `health`
    /// on a downshift. Returns the new input size, to which the caller
    /// conforms the frames it runs.
    pub fn step(
        &mut self,
        queue_depth: f64,
        drops_delta: u64,
        metrics: &ShiftMetrics,
        health: &HealthCell,
    ) -> Option<usize> {
        let action = self.observe_frame(queue_depth, drops_delta)?;
        match action {
            DegradeAction::Downshift(_) => {
                metrics.downshifts.inc();
                health.degrade();
            }
            DegradeAction::Upshift(_) => metrics.upshifts.inc(),
        }
        metrics.input_size.set(action.target() as f64);
        Some(action.target())
    }

    /// Folds one whole observation window into the hysteresis streaks.
    /// Equivalent to `window_frames` calls to
    /// [`DegradeController::observe_frame`] whose combined hotness is `hot`.
    fn observe_window(&mut self, hot: bool) -> Option<DegradeAction> {
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
            return Some(DegradeAction::Downshift(self.current()));
        }
        if !hot
            && self.calm_streak >= self.config.calm_windows
            && self.rung + 1 < self.config.ladder.len()
        {
            self.rung += 1;
            self.calm_streak = 0;
            self.cooldown = self.config.cooldown_windows;
            return Some(DegradeAction::Upshift(self.current()));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(overload_windows: u32, calm_windows: u32, cooldown: u32) -> DegradeController {
        DegradeController::new(DegradeConfig {
            ladder: vec![352, 416, 480, 544, 608],
            overload_queue: 1.0,
            overload_windows,
            calm_windows,
            cooldown_windows: cooldown,
            window_frames: 2,
        })
        .unwrap()
    }

    /// Runs `windows` whole windows of uniform load, returning emitted actions.
    fn run_windows(
        c: &mut DegradeController,
        windows: u32,
        queue: f64,
        drops: u64,
    ) -> Vec<DegradeAction> {
        let mut actions = Vec::new();
        for _ in 0..windows * 2 {
            if let Some(a) = c.observe_frame(queue, drops) {
                actions.push(a);
            }
        }
        actions
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
        let actions = run_windows(&mut c, 10, 0.0, 3);
        assert_eq!(c.current(), 352, "bottom of the ladder");
        assert_eq!(actions.len(), 4, "four downshifts, then pinned at 352");
        assert!(actions
            .iter()
            .all(|a| matches!(a, DegradeAction::Downshift(_))));
        assert!(c.is_degraded());
        // Pinned at the bottom: further overload emits nothing.
        assert!(run_windows(&mut c, 5, 9.0, 9).is_empty());
    }

    #[test]
    fn calm_recovers_with_hysteresis() {
        let mut c = controller(1, 3, 0);
        run_windows(&mut c, 3, 2.0, 0); // queue-depth overload, no drops
        assert!(c.current() < 608);
        let start = c.current();
        // Two calm windows: not enough.
        assert!(run_windows(&mut c, 2, 0.0, 0).is_empty());
        assert_eq!(c.current(), start);
        // The third calm window upshifts one rung.
        let actions = run_windows(&mut c, 1, 0.0, 0);
        assert_eq!(actions, vec![DegradeAction::Upshift(start + 64)]);
    }

    #[test]
    fn one_hot_frame_marks_the_whole_window() {
        let mut c = controller(1, 4, 0);
        assert!(c.observe_frame(0.0, 5).is_none(), "mid-window");
        let a = c.observe_frame(0.0, 0);
        assert_eq!(a, Some(DegradeAction::Downshift(544)));
    }

    #[test]
    fn cooldown_spaces_out_shifts() {
        let mut c = controller(1, 2, 2);
        let actions = run_windows(&mut c, 6, 0.0, 1);
        // Shift, two cooldown windows, shift, two cooldown, shift.
        assert_eq!(
            actions.len(),
            2,
            "cooldown limits to one shift per 3 windows"
        );
    }

    #[test]
    fn observe_window_is_equivalent_to_a_window_of_frames() {
        // Drive one controller frame-by-frame and a twin window-by-window
        // with the same hot/calm sequence; they must stay in lockstep.
        let mut by_frame = controller(2, 3, 1);
        let mut by_window = controller(2, 3, 1);
        let pattern = [
            true, true, true, false, false, false, false, true, false, false, false, false,
        ];
        for &hot in &pattern {
            let drops = u64::from(hot);
            let mut frame_action = None;
            for _ in 0..2 {
                if let Some(a) = by_frame.observe_frame(0.0, drops) {
                    frame_action = Some(a);
                }
            }
            let window_action = by_window.observe_window(hot);
            assert_eq!(frame_action, window_action);
            assert_eq!(by_frame.current(), by_window.current());
        }
    }

    #[test]
    fn step_publishes_each_shift_and_degrades_on_the_way_down() {
        let obs = dronet_obs::Registry::new();
        let metrics = ShiftMetrics {
            downshifts: obs.counter("down"),
            upshifts: obs.counter("up"),
            input_size: obs.gauge("input"),
        };
        let health = HealthCell::new(obs.gauge("health"));
        let mut c = controller(1, 1, 0);
        assert_eq!(c.step(0.0, 1, &metrics, &health), None, "mid-window");
        assert_eq!(c.step(0.0, 0, &metrics, &health), Some(544));
        assert_eq!(health.get(), dronet_obs::Health::Degraded);
        health.recover();
        c.step(0.0, 0, &metrics, &health);
        assert_eq!(c.step(0.0, 0, &metrics, &health), Some(608));
        assert_eq!(
            health.get(),
            dronet_obs::Health::Healthy,
            "upshifts never degrade"
        );
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
        assert!(run_windows(&mut c, 5, 0.0, 0).is_empty(), "already at 608");
        assert!(!c.is_degraded());
    }
}
