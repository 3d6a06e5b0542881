use crate::checkpoint::{Checkpoint, CheckpointError, CheckpointStore, OptimizerState};
use crate::crash::{TrainFault, TrainFaultPlan};
use crate::sentry::{DivergenceSentry, SentryConfig};
use crate::{LrSchedule, Sgd, YoloLoss, YoloLossConfig};
use dronet_data::augment::{AugmentConfig, Augmenter};
use dronet_data::dataset::VehicleDataset;
use dronet_metrics::BBox;
use dronet_nn::{Network, NnError};
use dronet_obs::{Gauge, Health, HealthCell, RecoveryClock, Registry, RestartBudget};
use dronet_tensor::Tensor;
use rand::rngs::SplitMix64;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt;

/// LR multiplier applied on every sentry rollback (cumulative).
const LR_BACKOFF: f32 = 0.5;
/// Floor for the cumulative LR scale.
const MIN_LR_SCALE: f32 = 1e-3;
/// Under a sentry, the global gradient norm (over the raw accumulated
/// gradients) is clipped to this value.
const GRAD_CLIP: f64 = 1e4;

/// Training-run configuration.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training split.
    pub epochs: usize,
    /// Images per optimizer step.
    pub batch_size: usize,
    /// Learning-rate schedule (per batch).
    pub schedule: LrSchedule,
    /// SGD momentum.
    pub momentum: f32,
    /// SGD weight decay.
    pub weight_decay: f32,
    /// Loss scales/thresholds.
    pub loss: YoloLossConfig,
    /// Whether to apply training-time augmentation.
    pub augment: bool,
    /// RNG seed for shuffling, augmentation and weight init.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 8,
            schedule: LrSchedule::Burnin {
                lr: 1e-3,
                burnin: 20,
                power: 4.0,
            },
            momentum: 0.9,
            weight_decay: 5e-4,
            loss: YoloLossConfig::default(),
            augment: true,
            seed: 0,
        }
    }
}

/// Errors of the resumable training loop.
#[derive(Debug)]
pub enum TrainError {
    /// A forward/backward/configuration error from the network.
    Nn(NnError),
    /// Checkpoint storage or recovery failed.
    Checkpoint(CheckpointError),
    /// The run was aborted mid-step by the crash hook of
    /// [`Trainer::train_resumable_with`] — nothing was checkpointed for
    /// the aborted step, exactly like a process kill.
    Aborted {
        /// Global step at which the abort struck.
        step: u64,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Nn(e) => write!(f, "training failed: {e}"),
            TrainError::Checkpoint(e) => write!(f, "checkpointing failed: {e}"),
            TrainError::Aborted { step } => {
                write!(f, "training aborted (crash hook) at step {step}")
            }
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Nn(e) => Some(e),
            TrainError::Checkpoint(e) => Some(e),
            TrainError::Aborted { .. } => None,
        }
    }
}

impl From<NnError> for TrainError {
    fn from(e: NnError) -> Self {
        TrainError::Nn(e)
    }
}

impl From<CheckpointError> for TrainError {
    fn from(e: CheckpointError) -> Self {
        TrainError::Checkpoint(e)
    }
}

impl From<dronet_tensor::TensorError> for TrainError {
    fn from(e: dronet_tensor::TensorError) -> Self {
        TrainError::Nn(NnError::from(e))
    }
}

/// One entry of the training run's black-box event tail.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainEvent {
    /// Global step when the event fired.
    pub step: u64,
    /// Event kind: `"resume"`, `"checkpoint"`, `"best"`, `"trip"`,
    /// `"rollback"`, `"recover"` or `"halt"`.
    pub kind: &'static str,
    /// Human-readable context.
    pub detail: String,
}

/// Maximum events retained in [`TrainReport::events`] (oldest dropped).
pub const TRAIN_EVENT_TAIL: usize = 64;

/// Outcome of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean total loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Total optimizer steps taken (the final global step).
    pub batches: usize,
    /// Images consumed (including augmented repeats).
    pub images_seen: usize,
    /// Step of the checkpoint this run resumed from, when it did.
    pub resumed_from_step: Option<u64>,
    /// Checkpoints written during the run (rotating + best + final).
    pub checkpoints_written: usize,
    /// Divergence-sentry trips observed.
    pub sentry_trips: usize,
    /// Rollbacks performed (each consumed retry budget).
    pub rollbacks: usize,
    /// Cumulative LR backoff multiplier at the end of the run (1.0 = the
    /// sentry never backed off).
    pub final_lr_scale: f32,
    /// Health at the end of the run; [`Health::Halted`] means the
    /// sentry stopped the run early.
    pub final_health: Health,
    /// Why the run halted, when it did.
    pub halt_reason: Option<String>,
    /// Black-box tail of the last [`TRAIN_EVENT_TAIL`] notable events
    /// (checkpoints, trips, rollbacks…), mirroring
    /// `detect::SupervisorReport::black_box`.
    pub events: Vec<TrainEvent>,
}

impl Default for TrainReport {
    fn default() -> Self {
        TrainReport {
            epoch_losses: Vec::new(),
            batches: 0,
            images_seen: 0,
            resumed_from_step: None,
            checkpoints_written: 0,
            sentry_trips: 0,
            rollbacks: 0,
            final_lr_scale: 1.0,
            final_health: Health::Healthy,
            halt_reason: None,
            events: Vec::new(),
        }
    }
}

impl TrainReport {
    /// Whether the loss decreased from the first to the last epoch.
    pub fn improved(&self) -> bool {
        match (self.epoch_losses.first(), self.epoch_losses.last()) {
            (Some(first), Some(last)) => last < first,
            _ => false,
        }
    }
}

/// Batch training loop for region-head detection networks.
///
/// Mirrors the paper's training stage: Darknet-style SGD over the vehicle
/// dataset with the YOLO loss. Data order and augmentation are derived
/// per-(seed, epoch, batch) — not from one long-lived RNG — so a run can
/// be killed at any step and resumed **bit-identically** from a
/// [`CheckpointStore`] snapshot (see [`Trainer::train_resumable`]).
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
    obs: Registry,
    sentry: Option<SentryConfig>,
    fault_plan: Option<TrainFaultPlan>,
}

/// Mutable state of the loop; exactly what a [`Checkpoint`] captures,
/// plus run-local bookkeeping that survives rollbacks (budgets, events).
struct LoopState {
    step: u64,
    epoch: usize,
    batch_in_epoch: usize,
    images_seen: usize,
    epoch_losses: Vec<f32>,
    epoch_loss: f32,
    epoch_batches: usize,
    best_loss: f32,
    lr_scale: f32,
    rollbacks: RestartBudget,
    trips: u64,
    health: HealthCell,
    recovery: RecoveryClock,
    checkpoints_written: usize,
    resumed_from: Option<u64>,
    events: Vec<TrainEvent>,
    attempts: u64,
    halt_reason: Option<String>,
}

impl LoopState {
    fn fresh(health_gauge: Gauge, sentry: Option<&SentryConfig>) -> Self {
        LoopState {
            step: 0,
            epoch: 0,
            batch_in_epoch: 0,
            images_seen: 0,
            epoch_losses: Vec::new(),
            epoch_loss: 0.0,
            epoch_batches: 0,
            best_loss: f32::INFINITY,
            lr_scale: 1.0,
            rollbacks: RestartBudget::new(sentry.map_or(0, |s| u64::from(s.max_rollbacks))),
            trips: 0,
            health: HealthCell::new(health_gauge),
            recovery: RecoveryClock::new(sentry.map_or(u64::MAX, |s| s.recover_after)),
            checkpoints_written: 0,
            resumed_from: None,
            events: Vec::new(),
            attempts: 0,
            halt_reason: None,
        }
    }

    fn push_event(&mut self, step: u64, kind: &'static str, detail: String) {
        if self.events.len() == TRAIN_EVENT_TAIL {
            self.events.remove(0);
        }
        self.events.push(TrainEvent { step, kind, detail });
    }

    /// Restores the checkpoint-captured position and history; budgets,
    /// events and the attempt counter are deliberately left alone (they
    /// are monotonic across rollbacks).
    fn restore_position(&mut self, c: &Checkpoint) {
        self.step = c.step;
        self.epoch = c.epoch as usize;
        self.batch_in_epoch = c.batch_in_epoch as usize;
        self.images_seen = c.images_seen as usize;
        self.best_loss = c.best_loss;
        self.epoch_losses = c.epoch_losses.clone();
        self.epoch_loss = c.epoch_loss_partial;
        self.epoch_batches = c.epoch_batches_partial as usize;
    }

    /// Halts the run (the sentry gave up) and reports it.
    fn halt(mut self, reason: String) -> TrainReport {
        self.health.halt();
        self.push_event(self.step, "halt", reason.clone());
        self.halt_reason = Some(reason);
        self.into_report()
    }

    fn into_report(self) -> TrainReport {
        TrainReport {
            epoch_losses: self.epoch_losses,
            batches: self.step as usize,
            images_seen: self.images_seen,
            resumed_from_step: self.resumed_from,
            checkpoints_written: self.checkpoints_written,
            sentry_trips: self.trips as usize,
            rollbacks: self.rollbacks.spent as usize,
            final_lr_scale: self.lr_scale,
            final_health: self.health.get(),
            halt_reason: self.halt_reason,
            events: self.events,
        }
    }
}

// Per-epoch shuffle and per-batch augmentation seeds are *derived* with
// the SplitMix64 hash rather than drawn from one long-lived stream, so a
// run resumed at any step reproduces them.
fn epoch_shuffle_seed(seed: u64, epoch: usize) -> u64 {
    SplitMix64::mix(seed ^ SplitMix64::mix(epoch as u64 ^ 0x5EED_E50C))
}

fn batch_augment_seed(seed: u64, epoch: usize, batch_in_epoch: usize) -> u64 {
    let position = ((epoch as u64) << 32) | batch_in_epoch as u64;
    SplitMix64::mix(seed ^ SplitMix64::mix(position) ^ 0xA0A0)
}

impl Trainer {
    /// Creates a trainer.
    ///
    /// # Panics
    ///
    /// Panics when epochs or batch size are zero.
    pub fn new(config: TrainConfig) -> Self {
        assert!(config.epochs > 0, "epochs must be positive");
        assert!(config.batch_size > 0, "batch size must be positive");
        Trainer {
            config,
            obs: Registry::noop(),
            sentry: None,
            fault_plan: None,
        }
    }

    /// Attaches telemetry: every run records step/epoch latency histograms
    /// (`train.step`, `train.epoch`), last-value gauges (`train.loss`,
    /// `train.lr`, `train.grad_norm`, `train.health`) and `train.steps` /
    /// `train.images` / `train.checkpoints` / `train.sentry.trips` /
    /// `train.rollbacks` counters into `obs`. The gradient norm is only
    /// computed when the registry is live or a sentry is armed, so
    /// unobserved training pays nothing for it.
    pub fn with_observability(mut self, obs: &Registry) -> Self {
        self.obs = obs.clone();
        self
    }

    /// Arms the divergence sentry: non-finite losses/gradients and EWMA
    /// loss spikes roll the run back to the last good checkpoint with LR
    /// backoff, under `config.max_rollbacks` budget; the budget exhausted
    /// (or no [`CheckpointStore`] to roll back to) halts the run with
    /// [`Health::Halted`] instead of erroring.
    ///
    /// # Panics
    ///
    /// Panics when the sentry configuration is out of range.
    pub fn with_sentry(mut self, config: SentryConfig) -> Self {
        // Validate eagerly so a bad config fails at construction.
        let _ = DivergenceSentry::new(config.clone());
        self.sentry = Some(config);
        self
    }

    /// Injects a deterministic [`TrainFaultPlan`] (chaos testing): the
    /// scheduled step attempts observe a poisoned loss or gradient,
    /// exercising the sentry's trip/rollback machinery on demand.
    pub fn with_fault_plan(mut self, plan: TrainFaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The trainer's configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains `net` on the dataset's training split.
    ///
    /// The network must end in a region layer (its configuration defines
    /// the loss); weights are (re-)initialised from the configured seed so
    /// runs are reproducible.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadLayerConfig`] when the network has no region
    /// head, and propagates forward/backward errors.
    pub fn train(
        &self,
        net: &mut Network,
        dataset: &VehicleDataset,
    ) -> Result<TrainReport, NnError> {
        self.train_with(net, dataset, |_, _| {})
    }

    /// Like [`Trainer::train`] but invokes `on_epoch(epoch_index,
    /// mean_loss)` after every epoch (for logging/metrics hooks).
    ///
    /// # Errors
    ///
    /// See [`Trainer::train`].
    pub fn train_with(
        &self,
        net: &mut Network,
        dataset: &VehicleDataset,
        mut on_epoch: impl FnMut(usize, f32),
    ) -> Result<TrainReport, NnError> {
        self.run(net, dataset, None, &mut on_epoch, &mut |_, _| true)
            .map_err(|e| match e {
                TrainError::Nn(e) => e,
                other => unreachable!("no store, no crash hook: {other}"),
            })
    }

    /// Crash-safe training: checkpoints into `store` every `every_steps`
    /// optimizer steps (plus a base snapshot at step 0, a `best.drcp` at
    /// every improved epoch and a final snapshot), and **resumes** from
    /// [`CheckpointStore::latest_valid`] when the store already holds an
    /// intact snapshot. The resumed run replays the remaining steps
    /// bit-identically to an uninterrupted run of the same total length.
    ///
    /// # Errors
    ///
    /// Propagates network errors ([`TrainError::Nn`]) and storage errors
    /// ([`TrainError::Checkpoint`]); a corrupt snapshot in the store is
    /// *not* an error (recovery skips it), only an unreadable directory
    /// or an architecture-mismatched recovered snapshot is.
    ///
    /// # Panics
    ///
    /// Panics when `every_steps` is zero.
    pub fn train_resumable(
        &self,
        net: &mut Network,
        dataset: &VehicleDataset,
        store: &CheckpointStore,
        every_steps: u64,
    ) -> Result<TrainReport, TrainError> {
        self.train_resumable_with(net, dataset, store, every_steps, |_, _| {}, |_, _| true)
    }

    /// [`Trainer::train_resumable`] with hooks: `on_epoch(epoch, mean)`
    /// after every epoch, and `on_step(step, loss) -> bool` after every
    /// accepted optimizer step — returning `false` **simulates a crash**:
    /// the run returns [`TrainError::Aborted`] immediately without
    /// checkpointing, exactly as a power loss would leave the store.
    ///
    /// # Errors
    ///
    /// See [`Trainer::train_resumable`]; plus [`TrainError::Aborted`]
    /// from the crash hook.
    ///
    /// # Panics
    ///
    /// Panics when `every_steps` is zero.
    pub fn train_resumable_with(
        &self,
        net: &mut Network,
        dataset: &VehicleDataset,
        store: &CheckpointStore,
        every_steps: u64,
        mut on_epoch: impl FnMut(usize, f32),
        mut on_step: impl FnMut(u64, f32) -> bool,
    ) -> Result<TrainReport, TrainError> {
        assert!(every_steps > 0, "checkpoint cadence must be positive");
        self.run(
            net,
            dataset,
            Some((store, every_steps)),
            &mut on_epoch,
            &mut on_step,
        )
    }

    fn run(
        &self,
        net: &mut Network,
        dataset: &VehicleDataset,
        ckpt: Option<(&CheckpointStore, u64)>,
        on_epoch: &mut dyn FnMut(usize, f32),
        on_step: &mut dyn FnMut(u64, f32) -> bool,
    ) -> Result<TrainReport, TrainError> {
        let region_cfg = net
            .layers()
            .last()
            .and_then(|l| l.as_region())
            .map(|r| r.config().clone())
            .ok_or_else(|| NnError::BadLayerConfig {
                layer: "region",
                msg: "training requires a network ending in a region layer".to_string(),
            })?;
        let loss = YoloLoss::new(region_cfg, self.config.loss);
        let (_, in_h, in_w) = net.input_chw();
        if in_h != in_w {
            return Err(TrainError::Nn(NnError::BadLayerConfig {
                layer: "net",
                msg: format!("trainer expects square inputs, got {in_h}x{in_w}"),
            }));
        }
        let input = in_h;

        let mut rng = rand::rngs::StdRng::seed_from_u64(self.config.seed);
        net.init_weights(&mut rng);
        let mut opt = Sgd::with_hyperparams(
            self.config.schedule.lr_at(0).max(1e-9),
            self.config.momentum,
            self.config.weight_decay,
        );

        let train_scenes = dataset.train();
        if train_scenes.is_empty() {
            return Err(TrainError::Nn(NnError::BadLayerConfig {
                layer: "net",
                msg: "training split is empty".to_string(),
            }));
        }

        let step_hist = self.obs.histogram("train.step");
        let epoch_hist = self.obs.histogram("train.epoch");
        let loss_gauge = self.obs.gauge("train.loss");
        let lr_gauge = self.obs.gauge("train.lr");
        let grad_gauge = self.obs.gauge("train.grad_norm");
        let steps_counter = self.obs.counter("train.steps");
        let images_counter = self.obs.counter("train.images");
        let trips_counter = self.obs.counter("train.sentry.trips");
        let rollbacks_counter = self.obs.counter("train.rollbacks");
        let ckpt_counter = self.obs.counter("train.checkpoints");

        let mut sentry = self.sentry.clone().map(DivergenceSentry::new);
        let mut st = LoopState::fresh(self.obs.gauge("train.health"), self.sentry.as_ref());

        // --- Resume, or anchor a base snapshot for the sentry. ---
        if let Some((store, _)) = ckpt {
            let recovery = store.latest_valid()?;
            if let Some((path, c)) = recovery.checkpoint {
                self.restore_from(net, &mut opt, sentry.as_mut(), &c)?;
                st.restore_position(&c);
                st.lr_scale = c.lr_scale;
                st.rollbacks.spent = c.rollbacks;
                st.trips = c.trips;
                st.resumed_from = Some(c.step);
                st.push_event(
                    c.step,
                    "resume",
                    format!(
                        "from {} ({} corrupt snapshot(s) skipped)",
                        path.display(),
                        recovery.rejected.len()
                    ),
                );
            } else {
                self.write_checkpoint(store, net, &opt, &mut st, sentry.as_ref(), &ckpt_counter)?;
            }
        }

        let batch_size = self.config.batch_size;
        'training: while st.epoch < self.config.epochs {
            let epoch_span = epoch_hist.start();
            let mut order: Vec<usize> = (0..train_scenes.len()).collect();
            let mut epoch_rng =
                rand::rngs::StdRng::seed_from_u64(epoch_shuffle_seed(self.config.seed, st.epoch));
            order.shuffle(&mut epoch_rng);
            let chunk_count = order.len().div_ceil(batch_size);

            while st.batch_in_epoch < chunk_count {
                let start = st.batch_in_epoch * batch_size;
                let end = (start + batch_size).min(order.len());
                let chunk = &order[start..end];

                let step_span = step_hist.start();
                let mut images: Vec<Tensor> = Vec::with_capacity(chunk.len());
                let mut truths: Vec<Vec<(BBox, usize)>> = Vec::with_capacity(chunk.len());
                let mut augmenter = self.config.augment.then(|| {
                    Augmenter::new(
                        AugmentConfig::default(),
                        batch_augment_seed(self.config.seed, st.epoch, st.batch_in_epoch),
                    )
                });
                for &idx in chunk {
                    let scene = &train_scenes[idx];
                    let annotated: Vec<(BBox, usize)> = scene
                        .annotations
                        .iter()
                        .map(|a| (a.bbox, a.class))
                        .collect();
                    if let Some(aug) = augmenter.as_mut() {
                        let (img, annotated) = aug.apply_with_classes(&scene.image, &annotated);
                        images.push(img.resize(input, input).to_tensor());
                        truths.push(annotated);
                    } else {
                        images.push(scene.image.resize(input, input).to_tensor());
                        truths.push(annotated);
                    }
                }
                let batch = Tensor::stack_batch(&images)?;
                let output = net.forward_train(&batch)?;
                let (breakdown, grad) = loss.evaluate_with_classes(&output, &truths)?;
                net.backward(&grad)?;

                let fault = self
                    .fault_plan
                    .as_ref()
                    .and_then(|p| p.fault_for(st.attempts as usize));
                st.attempts += 1;
                if matches!(fault, Some(TrainFault::NanGrad)) {
                    let mut poisoned = false;
                    net.visit_params_mut(|_, g| {
                        if !poisoned && !g.is_empty() {
                            g[0] = f32::NAN;
                            poisoned = true;
                        }
                    });
                }

                // One pass over the gradients serves telemetry, the
                // sentry's finite check and global-norm clipping;
                // unobserved, sentry-less training skips it.
                let mut grad_norm = 0.0f64;
                if self.obs.is_enabled() || sentry.is_some() {
                    let mut sq = 0.0f64;
                    net.visit_params_mut(|_, g| {
                        sq += g.iter().map(|&v| f64::from(v) * f64::from(v)).sum::<f64>();
                    });
                    grad_norm = sq.sqrt();
                    grad_gauge.set(grad_norm);
                }

                let mut step_loss = breakdown.total() / chunk.len() as f32;
                match fault {
                    Some(TrainFault::NanLoss) => step_loss = f32::NAN,
                    Some(TrainFault::SpikeLoss(factor)) => step_loss *= factor,
                    _ => {}
                }

                if let Some(sentry_ref) = sentry.as_mut() {
                    let trip = sentry_ref
                        .check_grad_norm(grad_norm)
                        .or_else(|| sentry_ref.check_loss(st.step, step_loss));
                    if let Some(reason) = trip {
                        step_span.stop();
                        epoch_span.stop();
                        trips_counter.inc();
                        st.trips += 1;
                        st.push_event(st.step, "trip", reason.to_string());
                        let Some((store, _)) = ckpt else {
                            let why = format!("sentry tripped ({reason}) with no checkpoint store");
                            return Ok(st.halt(why));
                        };
                        if st.rollbacks.is_exhausted() {
                            let max = sentry_ref.config().max_rollbacks;
                            let why = format!("rollback budget ({max}) exhausted after {reason}");
                            return Ok(st.halt(why));
                        }
                        let Some((_, good)) = store.latest_valid()?.checkpoint else {
                            return Ok(st.halt("no intact checkpoint to roll back to".to_string()));
                        };
                        self.restore_from(net, &mut opt, sentry.as_mut(), &good)?;
                        st.restore_position(&good);
                        st.rollbacks.spend();
                        rollbacks_counter.inc();
                        st.lr_scale = (st.lr_scale * LR_BACKOFF).max(MIN_LR_SCALE);
                        st.recovery.fault(&st.health);
                        st.push_event(
                            good.step,
                            "rollback",
                            format!("to step {} with lr scale {}", good.step, st.lr_scale),
                        );
                        net.zero_grads();
                        continue 'training;
                    }
                    if grad_norm > GRAD_CLIP {
                        let scale = (GRAD_CLIP / grad_norm) as f32;
                        net.visit_params_mut(|_, g| {
                            for v in g.iter_mut() {
                                *v *= scale;
                            }
                        });
                    }
                }

                let lr = self.config.schedule.lr_at(st.step as usize).max(1e-9) * st.lr_scale;
                opt.set_learning_rate(lr);
                opt.step(net, chunk.len());
                net.zero_grads();

                step_span.stop();
                loss_gauge.set(f64::from(step_loss));
                lr_gauge.set(f64::from(lr));
                steps_counter.inc();
                images_counter.add(chunk.len() as u64);

                st.epoch_loss += step_loss;
                st.epoch_batches += 1;
                st.step += 1;
                st.batch_in_epoch += 1;
                st.images_seen += chunk.len();

                // Train has no ladder: it is always at the top.
                if st.recovery.clean(&st.health, true) {
                    let detail = format!("{} clean steps", st.recovery.streak);
                    st.push_event(st.step, "recover", detail);
                }

                if let Some((store, every)) = ckpt {
                    if st.step.is_multiple_of(every) {
                        self.write_checkpoint(
                            store,
                            net,
                            &opt,
                            &mut st,
                            sentry.as_ref(),
                            &ckpt_counter,
                        )?;
                    }
                }

                if !on_step(st.step, step_loss) {
                    return Err(TrainError::Aborted { step: st.step });
                }
            }

            let mean = st.epoch_loss / st.epoch_batches.max(1) as f32;
            st.epoch_losses.push(mean);
            st.epoch_loss = 0.0;
            st.epoch_batches = 0;
            let finished = st.epoch;
            st.epoch += 1;
            st.batch_in_epoch = 0;
            epoch_span.stop();
            if let Some((store, _)) = ckpt {
                if mean < st.best_loss {
                    st.best_loss = mean;
                    let snapshot = self.capture(net, &opt, &st, sentry.as_ref())?;
                    store.save_best(&snapshot)?;
                    st.checkpoints_written += 1;
                    ckpt_counter.inc();
                    st.push_event(st.step, "best", format!("epoch mean {mean}"));
                }
            }
            on_epoch(finished, mean);
        }

        // Final snapshot so a completed run's store reflects its end state
        // (resume-after-completion is a no-op that returns the history).
        if let Some((store, every)) = ckpt {
            if !st.step.is_multiple_of(every) || st.step == 0 {
                self.write_checkpoint(store, net, &opt, &mut st, sentry.as_ref(), &ckpt_counter)?;
            }
        }
        Ok(st.into_report())
    }

    fn capture(
        &self,
        net: &Network,
        opt: &Sgd,
        st: &LoopState,
        sentry: Option<&DivergenceSentry>,
    ) -> Result<Checkpoint, CheckpointError> {
        let mut c = Checkpoint::capture(net, OptimizerState::Sgd(opt.state()))?;
        c.step = st.step;
        c.epoch = st.epoch as u64;
        c.batch_in_epoch = st.batch_in_epoch as u64;
        c.images_seen = st.images_seen as u64;
        c.best_loss = st.best_loss;
        c.lr_scale = st.lr_scale;
        c.ewma_loss = sentry.and_then(|s| s.ewma());
        c.rollbacks = st.rollbacks.spent;
        c.trips = st.trips;
        c.epoch_losses = st.epoch_losses.clone();
        c.epoch_loss_partial = st.epoch_loss;
        c.epoch_batches_partial = st.epoch_batches as u64;
        Ok(c)
    }

    fn write_checkpoint(
        &self,
        store: &CheckpointStore,
        net: &Network,
        opt: &Sgd,
        st: &mut LoopState,
        sentry: Option<&DivergenceSentry>,
        ckpt_counter: &dronet_obs::Counter,
    ) -> Result<(), CheckpointError> {
        let snapshot = self.capture(net, opt, st, sentry)?;
        let path = store.save(&snapshot)?;
        st.checkpoints_written += 1;
        ckpt_counter.inc();
        st.push_event(st.step, "checkpoint", path.display().to_string());
        Ok(())
    }

    /// Restores network weights, optimizer state and sentry EWMA from a
    /// recovered checkpoint, validating the optimizer layout against the
    /// network before touching anything.
    fn restore_from(
        &self,
        net: &mut Network,
        opt: &mut Sgd,
        sentry: Option<&mut DivergenceSentry>,
        c: &Checkpoint,
    ) -> Result<(), TrainError> {
        let state = match &c.optimizer {
            OptimizerState::Sgd(s) => s.clone(),
            OptimizerState::None => crate::SgdState::default(),
        };
        if !state.velocity.is_empty() {
            let mut lens = Vec::new();
            net.visit_params_mut(|p, _| lens.push(p.len()));
            let got: Vec<usize> = state.velocity.iter().map(Vec::len).collect();
            if lens != got {
                return Err(TrainError::Checkpoint(CheckpointError::Malformed {
                    section: "OPTIMIZER",
                    msg: format!(
                        "momentum layout {got:?} does not match network parameter groups {lens:?}"
                    ),
                }));
            }
        }
        c.restore_network(net)?;
        opt.restore_state(state);
        if let Some(s) = sentry {
            s.restore_ewma(c.ewma_loss);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dronet_data::scene::SceneConfig;
    use dronet_nn::{Activation, Conv2d, Layer, MaxPool2d, RegionConfig, RegionLayer};

    /// Goldens captured before `mix` moved to the shared
    /// `rand::rngs::SplitMix64`: data order and augmentation of a resumed
    /// run must match checkpoints written by earlier builds.
    #[test]
    fn derived_seeds_are_bit_stable() {
        assert_eq!(epoch_shuffle_seed(7, 0), 0xF252_1BBF_DF09_14E6);
        assert_eq!(epoch_shuffle_seed(0xDEAD_BEEF, 3), 0x9415_2F49_FDBA_5DAB);
        assert_eq!(batch_augment_seed(7, 0, 0), 0x216C_9DA0_0F1C_16C1);
        assert_eq!(batch_augment_seed(0xDEAD_BEEF, 3, 5), 0x38CE_D3B3_DECB_3A23);
    }

    /// A deliberately tiny detector so the test trains in seconds.
    fn micro_net(input: usize) -> Network {
        let mut net = Network::new(3, input, input);
        net.push(Layer::conv(
            Conv2d::new(3, 8, 3, 1, 1, Activation::Leaky, true).unwrap(),
        ));
        net.push(Layer::max_pool(MaxPool2d::new(2, 2).unwrap()));
        net.push(Layer::conv(
            Conv2d::new(8, 16, 3, 1, 1, Activation::Leaky, true).unwrap(),
        ));
        net.push(Layer::max_pool(MaxPool2d::new(2, 2).unwrap()));
        net.push(Layer::conv(
            Conv2d::new(16, 16, 3, 1, 1, Activation::Leaky, true).unwrap(),
        ));
        net.push(Layer::max_pool(MaxPool2d::new(2, 2).unwrap()));
        net.push(Layer::conv(
            Conv2d::new(16, 12, 1, 1, 0, Activation::Linear, false).unwrap(),
        ));
        net.push(Layer::region(
            RegionLayer::new(RegionConfig {
                anchors: vec![(0.8, 0.8), (2.0, 2.0)],
                classes: 1,
            })
            .unwrap(),
        ));
        net
    }

    fn tiny_dataset() -> VehicleDataset {
        VehicleDataset::generate(
            SceneConfig {
                width: 48,
                height: 48,
                min_vehicles: 2,
                max_vehicles: 5,
                ..SceneConfig::default()
            },
            12,
            0.75,
            7,
        )
    }

    fn fresh_store(name: &str) -> CheckpointStore {
        let dir =
            std::env::temp_dir().join(format!("dronet-trainer-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        CheckpointStore::open(&dir).unwrap()
    }

    fn weights_bytes(net: &Network) -> Vec<u8> {
        let mut buf = Vec::new();
        dronet_nn::weights::save(net, &mut buf).unwrap();
        buf
    }

    #[test]
    fn training_reduces_loss() {
        let mut net = micro_net(48);
        let dataset = tiny_dataset();
        let config = TrainConfig {
            epochs: 6,
            batch_size: 3,
            augment: false,
            schedule: LrSchedule::Constant { lr: 2e-3 },
            ..TrainConfig::default()
        };
        let report = Trainer::new(config).train(&mut net, &dataset).unwrap();
        assert_eq!(report.epoch_losses.len(), 6);
        assert!(
            report.improved(),
            "loss did not improve: {:?}",
            report.epoch_losses
        );
        assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
        assert_eq!(report.images_seen, 6 * 9);
        assert_eq!(report.final_health, Health::Healthy);
        assert_eq!(report.final_lr_scale, 1.0);
        assert_eq!(report.resumed_from_step, None);
    }

    #[test]
    fn epoch_callback_fires() {
        let mut net = micro_net(48);
        let dataset = tiny_dataset();
        let config = TrainConfig {
            epochs: 2,
            batch_size: 4,
            augment: true,
            ..TrainConfig::default()
        };
        let mut calls = Vec::new();
        Trainer::new(config)
            .train_with(&mut net, &dataset, |e, l| calls.push((e, l)))
            .unwrap();
        assert_eq!(calls.len(), 2);
        assert_eq!(calls[0].0, 0);
        assert_eq!(calls[1].0, 1);
    }

    #[test]
    fn observed_training_records_step_telemetry() {
        let mut net = micro_net(48);
        let dataset = tiny_dataset();
        let config = TrainConfig {
            epochs: 2,
            batch_size: 4,
            augment: false,
            ..TrainConfig::default()
        };
        let obs = Registry::new();
        let report = Trainer::new(config)
            .with_observability(&obs)
            .train(&mut net, &dataset)
            .unwrap();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("train.steps"), Some(report.batches as u64));
        assert_eq!(
            snap.counter("train.images"),
            Some(report.images_seen as u64)
        );
        assert_eq!(
            snap.histogram("train.step").unwrap().count,
            report.batches as u64
        );
        assert_eq!(snap.histogram("train.epoch").unwrap().count, 2);
        let loss = snap.gauge("train.loss").unwrap();
        assert!(loss.is_finite() && loss > 0.0);
        assert!(snap.gauge("train.lr").unwrap() > 0.0);
        assert!(snap.gauge("train.grad_norm").unwrap() >= 0.0);
        assert_eq!(snap.gauge("train.health"), Some(0.0));
    }

    #[test]
    fn observability_does_not_change_training() {
        let dataset = tiny_dataset();
        let config = TrainConfig {
            epochs: 2,
            batch_size: 4,
            ..TrainConfig::default()
        };
        let mut a = micro_net(48);
        let mut b = micro_net(48);
        let ra = Trainer::new(config.clone())
            .train(&mut a, &dataset)
            .unwrap();
        let rb = Trainer::new(config)
            .with_observability(&Registry::new())
            .train(&mut b, &dataset)
            .unwrap();
        assert_eq!(ra.epoch_losses, rb.epoch_losses);
    }

    #[test]
    fn training_is_reproducible() {
        let dataset = tiny_dataset();
        let config = TrainConfig {
            epochs: 2,
            batch_size: 4,
            ..TrainConfig::default()
        };
        let mut a = micro_net(48);
        let mut b = micro_net(48);
        let ra = Trainer::new(config.clone())
            .train(&mut a, &dataset)
            .unwrap();
        let rb = Trainer::new(config).train(&mut b, &dataset).unwrap();
        assert_eq!(ra.epoch_losses, rb.epoch_losses);
    }

    #[test]
    fn resumable_run_without_crash_matches_plain_run() {
        let dataset = tiny_dataset();
        let config = TrainConfig {
            epochs: 2,
            batch_size: 4,
            augment: true,
            ..TrainConfig::default()
        };
        let mut a = micro_net(48);
        let ra = Trainer::new(config.clone())
            .train(&mut a, &dataset)
            .unwrap();
        let store = fresh_store("plain-match");
        let mut b = micro_net(48);
        let rb = Trainer::new(config)
            .train_resumable(&mut b, &dataset, &store, 2)
            .unwrap();
        assert_eq!(ra.epoch_losses, rb.epoch_losses);
        assert_eq!(weights_bytes(&a), weights_bytes(&b));
        assert!(rb.checkpoints_written > 0);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn checkpoints_rotate_and_best_exists() {
        let dataset = tiny_dataset();
        let config = TrainConfig {
            epochs: 3,
            batch_size: 3,
            augment: false,
            schedule: LrSchedule::Constant { lr: 2e-3 },
            ..TrainConfig::default()
        };
        let store = fresh_store("rotation").keep_last(2);
        let mut net = micro_net(48);
        let report = Trainer::new(config)
            .train_resumable(&mut net, &dataset, &store, 2)
            .unwrap();
        assert!(report.checkpoints_written >= 3);
        assert!(store.snapshots().unwrap().len() <= 2);
        assert!(store.load_best().unwrap().is_some());
        let rec = store.latest_valid().unwrap();
        assert_eq!(rec.checkpoint.unwrap().1.step, report.batches as u64);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn network_without_region_head_is_rejected() {
        let mut net = Network::new(3, 48, 48);
        net.push(Layer::conv(
            Conv2d::new(3, 8, 3, 1, 1, Activation::Leaky, true).unwrap(),
        ));
        let err = Trainer::new(TrainConfig::default())
            .train(&mut net, &tiny_dataset())
            .unwrap_err();
        assert!(err.to_string().contains("region"));
    }

    #[test]
    #[should_panic(expected = "epochs must be positive")]
    fn zero_epochs_panics() {
        Trainer::new(TrainConfig {
            epochs: 0,
            ..TrainConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "checkpoint cadence")]
    fn zero_cadence_panics() {
        let store = fresh_store("zero-cadence");
        let _ = Trainer::new(TrainConfig::default()).train_resumable(
            &mut micro_net(48),
            &tiny_dataset(),
            &store,
            0,
        );
    }
}
