//! The camera pump: the producer thread behind [`crate::Supervisor::run`].
//!
//! A [`FrameSource`] is drained on its own thread into a single-slot
//! buffer, as in the paper's deployment: a frame arriving while the
//! consumer is still busy with the buffered one is lost, and the pump
//! records exactly which.

use crate::error::panic_payload_message;
use crate::source::FrameSource;
use crate::Result;
use dronet_obs::{Gauge, Registry, Tracer};
use dronet_tensor::Tensor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// What comes off the camera buffer.
pub(crate) enum Pumped {
    /// The source's item with its arrival index: a frame that made it into
    /// the buffer, or a per-frame acquisition failure (never dropped — the
    /// producer blocks until the consumer has seen it, so fault ledgers
    /// stay exact).
    Item(usize, Result<Tensor>),
    /// The source panicked; nothing more will arrive.
    Crashed(String),
}

/// The drop list is only ever pushed to, so it is valid at every step and a
/// panicking holder cannot leave it torn: recover instead of propagating.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Consumer-side handle to the producer thread.
pub(crate) struct CameraPump {
    rx: Receiver<Pumped>,
    producer: JoinHandle<()>,
    dropped_ids: Arc<Mutex<Vec<u64>>>,
    queue_depth: Gauge,
}

impl CameraPump {
    /// Starts draining `source`. The producer times acquisition into
    /// `pipeline.preprocess`, counts drops into `pipeline.dropped`, mirrors
    /// buffer occupancy in `pipeline.queue_depth`, and writes
    /// `camera.frame` / `camera.drop` instants under each frame's id.
    pub fn spawn<S>(mut source: S, obs: &Registry, tracer: &Tracer) -> Self
    where
        S: FrameSource + Send + 'static,
    {
        let preprocess = obs.histogram("pipeline.preprocess");
        let dropped_counter = obs.counter("pipeline.dropped");
        let queue_depth = obs.gauge("pipeline.queue_depth");
        let dropped_ids = Arc::new(Mutex::new(Vec::new()));
        let (tx, rx) = sync_channel(1);
        let producer = std::thread::spawn({
            let queue_depth = queue_depth.clone();
            let dropped_ids = Arc::clone(&dropped_ids);
            let tracer = tracer.clone();
            move || {
                for index in 0.. {
                    let acquire = preprocess.start();
                    let item = match catch_unwind(AssertUnwindSafe(|| source.next_frame())) {
                        Ok(Some(item)) => {
                            acquire.stop();
                            item
                        }
                        Ok(None) => {
                            acquire.cancel();
                            break;
                        }
                        Err(payload) => {
                            acquire.cancel();
                            let _ = tx.send(Pumped::Crashed(panic_payload_message(payload)));
                            break;
                        }
                    };
                    let frame_id = index as u64;
                    match item {
                        Ok(frame) => match tx.try_send(Pumped::Item(index, Ok(frame))) {
                            Ok(()) => {
                                queue_depth.add(1.0);
                                tracer.instant_frame("camera.frame", frame_id);
                            }
                            Err(TrySendError::Full(_)) => {
                                dropped_counter.inc();
                                tracer.instant_frame("camera.drop", frame_id);
                                lock_recover(&dropped_ids).push(frame_id);
                            }
                            Err(TrySendError::Disconnected(_)) => break,
                        },
                        Err(e) => {
                            if tx.send(Pumped::Item(index, Err(e))).is_err() {
                                break;
                            }
                            queue_depth.add(1.0);
                        }
                    }
                }
                // tx drops here, closing the stream.
            }
        });
        CameraPump {
            rx,
            producer,
            dropped_ids,
            queue_depth,
        }
    }

    /// The next buffered item, waiting at most `timeout`. `Disconnected` is
    /// the end of the stream.
    pub fn recv(&self, timeout: Duration) -> std::result::Result<Pumped, RecvTimeoutError> {
        let item = self.rx.recv_timeout(timeout)?;
        if matches!(item, Pumped::Item(..)) {
            self.queue_depth.sub(1.0);
        }
        Ok(item)
    }

    /// Frames lost at the buffer so far.
    pub fn drops(&self) -> usize {
        lock_recover(&self.dropped_ids).len()
    }

    /// Current buffer occupancy (0 or 1).
    pub fn queue_depth(&self) -> f64 {
        self.queue_depth.get()
    }

    /// Closes the buffer and returns the ids of the frames it dropped, in
    /// drop order. With `join` the producer is reclaimed first, so the list
    /// is final; without, a producer possibly wedged inside the camera is
    /// abandoned (it exits on its next send against the closed channel).
    pub fn finish(self, join: bool) -> Vec<u64> {
        drop(self.rx);
        if join {
            // Source panics are caught inside the loop, so this cannot fail.
            let _ = self.producer.join();
        }
        let mut ids = lock_recover(&self.dropped_ids);
        std::mem::take(&mut *ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IterSource;
    use dronet_tensor::Shape;

    #[test]
    fn poisoned_drop_list_is_recovered_not_propagated() {
        let frames: Vec<_> = (0..3)
            .map(|_| Tensor::zeros(Shape::nchw(1, 1, 2, 2)))
            .collect();
        let pump = CameraPump::spawn(IterSource::new(frames), &Registry::noop(), &Tracer::noop());
        // Frame 0 always makes the buffer; wait until the producer is done
        // so the drop list (frames 1 and 2) is final.
        let wait = Duration::from_secs(10);
        let Ok(Pumped::Item(0, Ok(_))) = pump.recv(wait) else {
            panic!("frame 0 is always delivered");
        };
        while pump.recv(wait).is_ok() {}
        let ids = Arc::clone(&pump.dropped_ids);
        let holder = std::thread::spawn(move || {
            let _guard = ids.lock().unwrap();
            panic!("poison the drop list");
        });
        assert!(holder.join().is_err());
        assert!(pump.dropped_ids.is_poisoned());
        let dropped = pump.drops();
        assert_eq!(pump.finish(true).len(), dropped);
    }
}
