//! End-to-end crash-safe training: a run killed mid-epoch and resumed from
//! its checkpoint store must replay **bit-identically** to an
//! uninterrupted run; a torn or bit-flipped store must always recover the
//! newest intact snapshot; and the divergence sentry must turn injected
//! NaNs into rollbacks (or a clean halt), never a panic or a wasted run.

use dronet::core::zoo;
use dronet::data::dataset::VehicleDataset;
use dronet::data::scene::SceneConfig;
use dronet::nn::{weights, Network};
use dronet::obs::Health;
use dronet::train::crash::{write_checkpoint_with_fault, TrainFault, TrainFaultPlan, WriteFault};
use dronet::train::{
    Checkpoint, CheckpointStore, LrSchedule, OptimizerState, SentryConfig, TrainConfig, TrainError,
    Trainer,
};

fn micro_net() -> Network {
    zoo::micro_dronet(48, vec![(1.5, 1.5)]).unwrap()
}

fn tiny_dataset() -> VehicleDataset {
    VehicleDataset::generate(
        SceneConfig {
            width: 48,
            height: 48,
            min_vehicles: 2,
            max_vehicles: 4,
            ..SceneConfig::default()
        },
        12,
        0.75,
        11,
    )
}

fn config(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 3,
        augment: true,
        schedule: LrSchedule::Constant { lr: 1e-3 },
        seed: 42,
        ..TrainConfig::default()
    }
}

fn fresh_store(name: &str) -> CheckpointStore {
    let dir = std::env::temp_dir().join(format!("dronet-resume-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    CheckpointStore::open(&dir).unwrap()
}

fn weight_bytes(net: &Network) -> Vec<u8> {
    let mut buf = Vec::new();
    weights::save(net, &mut buf).unwrap();
    buf
}

/// The headline guarantee: train 4 epochs straight, versus train the same
/// config until a simulated power loss mid-epoch, then resume. Loss curves
/// and final weights must agree to the bit.
#[test]
fn crash_and_resume_is_bit_identical_to_a_straight_run() {
    let dataset = tiny_dataset();

    let mut straight_net = micro_net();
    let straight = Trainer::new(config(4))
        .train(&mut straight_net, &dataset)
        .unwrap();

    let store = fresh_store("bitident");
    let mut crashed_net = micro_net();
    // 12 scenes in 9 train images at batch 3 => 3 steps/epoch, 12 total.
    // Kill at step 5 (mid-epoch 2); checkpoints land every 2 steps.
    let err = Trainer::new(config(4))
        .train_resumable_with(
            &mut crashed_net,
            &dataset,
            &store,
            2,
            |_, _| {},
            |step, _| step != 5,
        )
        .unwrap_err();
    assert!(matches!(err, TrainError::Aborted { step: 5 }), "{err}");

    // "Reboot": fresh network object, same trainer config, same store.
    let mut resumed_net = micro_net();
    let resumed = Trainer::new(config(4))
        .train_resumable(&mut resumed_net, &dataset, &store, 2)
        .unwrap();

    assert_eq!(resumed.resumed_from_step, Some(4), "newest intact snapshot");
    assert_eq!(resumed.epoch_losses, straight.epoch_losses);
    assert_eq!(resumed.batches, straight.batches);
    assert_eq!(resumed.images_seen, straight.images_seen);
    assert_eq!(
        weight_bytes(&resumed_net),
        weight_bytes(&straight_net),
        "resumed weights must match the straight run bit-for-bit"
    );
    std::fs::remove_dir_all(store.dir()).ok();
}

/// Resuming a store whose run already completed is a no-op that returns
/// the recorded history instead of re-training.
#[test]
fn resume_after_completion_returns_history_without_training() {
    let dataset = tiny_dataset();
    let store = fresh_store("completed");
    let mut net = micro_net();
    let first = Trainer::new(config(2))
        .train_resumable(&mut net, &dataset, &store, 2)
        .unwrap();
    let before = weight_bytes(&net);

    let mut net2 = micro_net();
    let second = Trainer::new(config(2))
        .train_resumable(&mut net2, &dataset, &store, 2)
        .unwrap();
    assert_eq!(second.resumed_from_step, Some(first.batches as u64));
    assert_eq!(second.epoch_losses, first.epoch_losses);
    assert_eq!(second.batches, first.batches);
    assert_eq!(weight_bytes(&net2), before);
    std::fs::remove_dir_all(store.dir()).ok();
}

/// A checkpoint write killed at **every possible byte offset** leaves the
/// store recoverable to the previous intact snapshot: the torn temp file
/// is never visible, and recovery never errors or regresses.
#[test]
fn kill_at_every_offset_always_recovers_the_previous_snapshot() {
    let store = fresh_store("kill-offsets");
    let mut anchor = Checkpoint {
        step: 1,
        weights: vec![0xAB; 64],
        ..Checkpoint::default()
    };
    anchor.optimizer = OptimizerState::None;
    store.save(&anchor).unwrap();

    let victim = Checkpoint {
        step: 2,
        weights: vec![0xCD; 64],
        ..Checkpoint::default()
    };
    let total = victim.to_bytes().len() as u64;
    for offset in 0..total {
        let err = write_checkpoint_with_fault(&store, &victim, &WriteFault::KillAt { offset })
            .expect_err("a killed write must report the crash");
        assert!(err.to_string().contains("injected crash"), "{err}");
        let rec = store.latest_valid().unwrap();
        let (_, got) = rec.checkpoint.expect("anchor must survive");
        assert_eq!(got, anchor, "kill at byte {offset} lost the anchor");
    }
    // Reopening the store sweeps the accumulated crash debris.
    let reopened = CheckpointStore::open(store.dir()).unwrap();
    assert_eq!(reopened.snapshots().unwrap().len(), 1);
    std::fs::remove_dir_all(store.dir()).ok();
}

/// Torn files at the final name and post-write bit rot are both detected
/// and skipped by recovery, with the rejection reported per file.
#[test]
fn torn_and_bit_flipped_snapshots_are_skipped_with_typed_errors() {
    let store = fresh_store("torn-flip");
    let anchor = Checkpoint {
        step: 10,
        weights: vec![1, 2, 3, 4],
        ..Checkpoint::default()
    };
    store.save(&anchor).unwrap();

    let newer = Checkpoint {
        step: 11,
        weights: vec![5, 6, 7, 8],
        ..Checkpoint::default()
    };
    let torn_len = newer.to_bytes().len() as u64 / 2;
    write_checkpoint_with_fault(&store, &newer, &WriteFault::TornAt { offset: torn_len }).unwrap();
    let newest = Checkpoint {
        step: 12,
        weights: vec![9, 9, 9, 9],
        ..Checkpoint::default()
    };
    write_checkpoint_with_fault(&store, &newest, &WriteFault::FlipBit { byte: 40, bit: 3 })
        .unwrap();

    let rec = store.latest_valid().unwrap();
    let (_, got) = rec.checkpoint.expect("anchor must survive");
    assert_eq!(got, anchor);
    assert_eq!(rec.rejected.len(), 2, "both corrupt snapshots reported");
    std::fs::remove_dir_all(store.dir()).ok();
}

/// An injected NaN loss trips the sentry, rolls back to the last good
/// checkpoint with LR backoff, and the run still completes healthily and
/// converges — the transient costs a rollback, not the training run.
#[test]
fn sentry_rolls_back_on_injected_nan_and_still_converges() {
    let dataset = tiny_dataset();
    let store = fresh_store("sentry-nan");
    let mut net = micro_net();
    let report = Trainer::new(config(6))
        .with_sentry(SentryConfig {
            recover_after: 2,
            ..SentryConfig::default()
        })
        .with_fault_plan(TrainFaultPlan::once_at(7, TrainFault::NanLoss))
        .train_resumable(&mut net, &dataset, &store, 2)
        .unwrap();

    assert_eq!(report.sentry_trips, 1);
    assert_eq!(report.rollbacks, 1);
    assert!(report.final_lr_scale < 1.0, "{}", report.final_lr_scale);
    assert_eq!(report.final_health, Health::Healthy, "recovered");
    assert_eq!(report.halt_reason, None);
    assert_eq!(report.epoch_losses.len(), 6, "run completed all epochs");
    assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
    assert!(
        report.events.iter().any(|e| e.kind == "trip")
            && report.events.iter().any(|e| e.kind == "rollback"),
        "event tail must record the incident: {:?}",
        report.events
    );
    std::fs::remove_dir_all(store.dir()).ok();
}

/// NaN gradients (as opposed to NaN losses) take the same rollback path.
#[test]
fn sentry_catches_poisoned_gradients() {
    let dataset = tiny_dataset();
    let store = fresh_store("sentry-grad");
    let mut net = micro_net();
    let report = Trainer::new(config(3))
        .with_sentry(SentryConfig::default())
        .with_fault_plan(TrainFaultPlan::once_at(4, TrainFault::NanGrad))
        .train_resumable(&mut net, &dataset, &store, 2)
        .unwrap();
    assert_eq!(report.sentry_trips, 1);
    assert_eq!(report.rollbacks, 1);
    assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
    std::fs::remove_dir_all(store.dir()).ok();
}

/// With a zero rollback budget the sentry halts instead of looping: the
/// run ends early with `Halted`, a reason, and the event tail — it does
/// not error and does not retry forever.
#[test]
fn exhausted_rollback_budget_halts_the_run() {
    let dataset = tiny_dataset();
    let store = fresh_store("sentry-halt");
    let mut net = micro_net();
    let report = Trainer::new(config(4))
        .with_sentry(SentryConfig {
            max_rollbacks: 0,
            ..SentryConfig::default()
        })
        .with_fault_plan(TrainFaultPlan::once_at(3, TrainFault::NanLoss))
        .train_resumable(&mut net, &dataset, &store, 2)
        .unwrap();
    assert_eq!(report.final_health, Health::Halted);
    assert!(report.halt_reason.is_some(), "halt must carry a reason");
    assert_eq!(report.rollbacks, 0);
    assert!(
        report.batches < 12,
        "halted before the configured run length"
    );
    assert!(report.events.iter().any(|e| e.kind == "halt"));
    std::fs::remove_dir_all(store.dir()).ok();
}
