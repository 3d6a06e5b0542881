//! Crash injection for the checkpoint store and the training loop,
//! modeled on `detect::fault`: deterministic, typed, and aimed at proving
//! the recovery paths rather than hoping for them.
//!
//! Two fault families:
//!
//! * [`WriteFault`] — kills a checkpoint write at an arbitrary byte offset
//!   (the temp file is left torn, exactly like a power loss), writes a
//!   torn file *directly at the final name* (modelling a legacy non-atomic
//!   writer or post-rename sector loss), or flips a bit in a finished
//!   file. Driven through [`write_checkpoint_with_fault`].
//! * [`TrainFault`]/[`TrainFaultPlan`] — per-step-attempt poisoning of the
//!   observed loss or the accumulated gradients inside
//!   [`crate::Trainer`], to trip the divergence sentry on demand. The plan
//!   is indexed by a monotonic *attempt* counter that keeps advancing
//!   across sentry rollbacks, so an injected fault fires once and the
//!   replayed step runs clean — mirroring how a real transient (bad DMA,
//!   cosmic bit flip) does not re-occur deterministically after a restart.

use crate::checkpoint::{Checkpoint, CheckpointError, CheckpointStore};
use dronet_nn::weights::atomic_write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A fault injected into one checkpoint write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteFault {
    /// The process dies after `offset` bytes of the temp file are written:
    /// no rename happens, the torn temp file is left behind as crash
    /// debris. Visible snapshots are untouched.
    KillAt {
        /// Byte offset at which the simulated power loss strikes.
        offset: u64,
    },
    /// A torn prefix of `offset` bytes is written **directly at the final
    /// snapshot name**, as a non-atomic writer crashing mid-write would
    /// leave it. `latest_valid` must detect and skip it.
    TornAt {
        /// Length of the torn prefix.
        offset: u64,
    },
    /// The write completes atomically, then one bit is flipped in place —
    /// modelling storage bit rot after a successful save.
    FlipBit {
        /// Byte index to corrupt (wrapped into the file length).
        byte: u64,
        /// Bit index within that byte (0–7).
        bit: u8,
    },
}

/// Writes `ckpt` into `store` under an injected [`WriteFault`].
///
/// `KillAt` returns [`CheckpointError::InjectedCrash`] — from the caller's
/// point of view the process died mid-write. `TornAt` and `FlipBit` return
/// the path of the (corrupt) visible file, like a writer that believed it
/// succeeded.
///
/// # Errors
///
/// [`CheckpointError::InjectedCrash`] for `KillAt`; real I/O errors pass
/// through.
pub fn write_checkpoint_with_fault(
    store: &CheckpointStore,
    ckpt: &Checkpoint,
    fault: &WriteFault,
) -> Result<PathBuf, CheckpointError> {
    let bytes = ckpt.to_bytes();
    let path = store.snapshot_path(ckpt.step);
    match fault {
        WriteFault::KillAt { offset } => {
            let cut = (*offset).min(bytes.len() as u64) as usize;
            let mut tmp_name = path.as_os_str().to_owned();
            tmp_name.push(format!(".tmp-{}", std::process::id()));
            let tmp = PathBuf::from(tmp_name);
            // A real crash leaves whatever the page cache flushed; writing
            // the prefix then stopping is the deterministic equivalent.
            std::fs::write(&tmp, &bytes[..cut])?;
            Err(CheckpointError::InjectedCrash {
                at_byte: cut as u64,
            })
        }
        WriteFault::TornAt { offset } => {
            let cut = (*offset).min(bytes.len() as u64) as usize;
            std::fs::write(&path, &bytes[..cut])?;
            Ok(path)
        }
        WriteFault::FlipBit { byte, bit } => {
            atomic_write(&path, &bytes)?;
            flip_bit_in_file(&path, *byte, *bit)?;
            Ok(path)
        }
    }
}

/// Flips bit `bit % 8` of byte `byte % len` of the file at `path`.
///
/// # Errors
///
/// [`CheckpointError::Io`] on read/write failure, or
/// [`CheckpointError::Malformed`] for an empty file.
pub fn flip_bit_in_file(path: &Path, byte: u64, bit: u8) -> Result<(), CheckpointError> {
    let mut bytes = std::fs::read(path)?;
    if bytes.is_empty() {
        return Err(CheckpointError::Malformed {
            section: "file",
            msg: "cannot flip a bit in an empty file".to_string(),
        });
    }
    let idx = (byte % bytes.len() as u64) as usize;
    bytes[idx] ^= 1u8 << (bit % 8);
    std::fs::write(path, &bytes)?;
    Ok(())
}

/// One injectable training-step fault.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainFault {
    /// The observed loss becomes NaN (e.g. an fp overflow in the loss
    /// reduction) — trips the sentry's non-finite check.
    NanLoss,
    /// The observed loss is multiplied by this factor — trips the sentry's
    /// EWMA spike detector when large enough.
    SpikeLoss(f32),
    /// One accumulated gradient value is poisoned to NaN before the
    /// optimizer step — trips the sentry's gradient check.
    NanGrad,
}

/// A deterministic schedule of [`TrainFault`]s, indexed by the trainer's
/// monotonic step-*attempt* counter (which keeps counting across sentry
/// rollbacks). Cheap to clone; clones share the schedule.
#[derive(Debug, Clone)]
pub struct TrainFaultPlan {
    slots: Arc<Vec<Option<TrainFault>>>,
}

impl TrainFaultPlan {
    /// A hand-written schedule: `slots[i]` is the fault (if any) for step
    /// attempt `i`; attempts beyond the schedule are fault-free.
    pub fn from_schedule(slots: Vec<Option<TrainFault>>) -> Self {
        TrainFaultPlan {
            slots: Arc::new(slots),
        }
    }

    /// A plan injecting a single fault at step attempt `attempt`.
    pub fn once_at(attempt: usize, fault: TrainFault) -> Self {
        let mut slots = vec![None; attempt + 1];
        slots[attempt] = Some(fault);
        TrainFaultPlan::from_schedule(slots)
    }

    /// A plan that never injects anything.
    pub fn none() -> Self {
        TrainFaultPlan::from_schedule(Vec::new())
    }

    /// The fault scheduled for step attempt `attempt`, if any.
    pub fn fault_for(&self, attempt: usize) -> Option<&TrainFault> {
        self.slots.get(attempt).and_then(|s| s.as_ref())
    }

    /// Number of scheduled (non-empty) faults.
    pub fn injected(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_indexes_by_attempt() {
        let plan = TrainFaultPlan::once_at(3, TrainFault::NanLoss);
        assert_eq!(plan.fault_for(0), None);
        assert_eq!(plan.fault_for(3), Some(&TrainFault::NanLoss));
        assert_eq!(plan.fault_for(4), None, "past the schedule: clean");
        assert_eq!(plan.injected(), 1);
        assert_eq!(TrainFaultPlan::none().injected(), 0);
    }

    #[test]
    fn flip_bit_round_trips() {
        let dir = std::env::temp_dir().join(format!("dronet-flip-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.bin");
        std::fs::write(&path, [0b0000_0000u8, 0b1111_1111]).unwrap();
        flip_bit_in_file(&path, 1, 0).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            vec![0b0000_0000, 0b1111_1110]
        );
        flip_bit_in_file(&path, 1, 0).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            vec![0b0000_0000, 0b1111_1111]
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
