//! The persistent kernel pool: helper threads that outlive the calls they
//! help, and [`for_each`], the one primitive every parallel kernel of the
//! workspace runs on. With [`crate::dispatch`] this is the only module of
//! the crate that may use `unsafe`.
//!
//! # Protocol
//!
//! There is one slot and so one job at a time. A caller publishes its drain
//! closure — "take items off my queue until it is empty" — in the slot
//! under the pool's mutex and bumps a generation counter. A helper that
//! sees a generation it has not seen takes the task *and counts itself in
//! `active` under that same mutex*. The caller drains too, then retracts the
//! slot — after which no helper can join — and waits for `active == 0`.
//! Only helpers that actually started are waited for: one that is parked or
//! descheduled costs the call nothing, the others take more items. A caller
//! that finds the slot taken (another thread's forward, a call from inside
//! an item) runs its items alone and never blocks.
//!
//! Helpers are created by the first call that shares work out, never
//! before, and spin on the generation for [`SPIN`] after each task before
//! they park on a condvar: the gap between two layers of one forward is
//! microseconds, and an idle process burns nothing.

#![allow(unsafe_code)] // one lifetime erasure; see `Pool::share`

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How long a helper watches for the next task before it parks. Waking a
/// parked thread costs tens of microseconds on this class of machine, a
/// spinning one joins in under one; consecutive layers publish within
/// microseconds of each other, consecutive camera frames do not.
const SPIN: Duration = Duration::from_micros(200);

/// A published drain closure, its lifetime erased (see [`Pool::share`]).
type Task = &'static (dyn Fn() + Sync);
type Payload = Box<dyn Any + Send>;

struct Pool {
    state: Mutex<State>,
    /// Mirrors `State::generation` for helpers to watch without the lock. A
    /// hint only: what it announces is read under the lock.
    generation: AtomicU64,
    /// Parked helpers wait here for a generation they have not seen.
    wake: Condvar,
    /// The caller of the job in flight waits here for `active == 0`.
    joined: Condvar,
}

struct State {
    /// The drain closure of the job in flight, until its caller retracts it.
    task: Option<Task>,
    /// Bumped with every publication: a helper takes each task at most once.
    generation: u64,
    /// A job is in flight: published, and its helpers not yet all back.
    busy: bool,
    /// Helpers inside `task`.
    active: usize,
    /// The first panic a helper caught during the job in flight.
    panic: Option<Payload>,
    /// Helper threads created so far.
    helpers: usize,
    /// Helpers waiting on `wake`.
    parked: usize,
}

/// The pool of the process. (Tests make their own, to have helpers to
/// themselves.)
static POOL: Pool = Pool::new();

/// Runs `f` over every item of `items`, on the calling thread and on
/// whichever helpers show up; returns when every item is done. A panic in
/// `f`, on whichever thread, resurfaces here once no thread is inside `f`.
///
/// At most `worker_count()` threads work, the caller included — with one
/// worker, or one item, no other thread is involved (or ever created).
pub(crate) fn for_each<T: Send>(items: Vec<T>, f: impl Fn(T) + Sync) {
    POOL.for_each(super::worker_count(), items, f);
}

impl Pool {
    const fn new() -> Pool {
        Pool {
            state: Mutex::new(State {
                task: None,
                generation: 0,
                busy: false,
                active: 0,
                panic: None,
                helpers: 0,
                parked: 0,
            }),
            generation: AtomicU64::new(0),
            wake: Condvar::new(),
            joined: Condvar::new(),
        }
    }

    /// [`for_each`] on this pool, with at most `workers` threads working.
    fn for_each<T: Send>(&'static self, workers: usize, mut items: Vec<T>, f: impl Fn(T) + Sync) {
        // The caller's first item never enters the queue: however quick the
        // helpers are, the calling thread works too.
        let Some(first) = items.pop() else { return };
        let helpers = workers.saturating_sub(1).min(items.len());
        let queue = Mutex::new(VecDeque::from(items));
        // Helpers take from the front and the caller from the back, so that
        // neighbouring items — neighbouring memory, for the kernels — are
        // not worked on at the same moment until the two ends meet.
        let drain = |from_front: bool| loop {
            // The guard lives to the end of this statement only: the lock
            // is released before the item runs, so a panicking item cannot
            // poison it.
            let item = match queue.lock().expect("no item runs under the lock") {
                mut queue if from_front => queue.pop_front(),
                mut queue => queue.pop_back(),
            };
            match item {
                Some(item) => f(item),
                None => break,
            }
        };
        let task = || drain(true);
        let mine = || {
            f(first);
            drain(false);
        };
        if helpers == 0 {
            mine();
        } else {
            self.share(helpers, &task, mine);
        }
    }

    /// Nothing that can panic runs under this lock, and every update leaves
    /// the state valid at every step, so a poisoned lock is still good.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `mine` on the calling thread while up to `helpers` pool threads
    /// run `task`; returns when all of them are out of `task`.
    fn share(&'static self, helpers: usize, task: &(dyn Fn() + Sync), mine: impl FnOnce()) {
        let mut state = self.lock();
        if state.busy {
            drop(state);
            return mine();
        }
        state.busy = true;
        while state.helpers < helpers {
            let name = format!("dronet-kernel-{}", state.helpers + 1);
            let spawned = std::thread::Builder::new()
                .name(name)
                .spawn(move || self.help());
            // A thread the OS refuses is a smaller pool, not an error: the
            // caller drains whatever nobody else takes.
            if spawned.is_err() {
                break;
            }
            state.helpers += 1;
        }
        // SAFETY: the erased reference must not be used after `task`'s
        // borrow ends, which is no earlier than this function's return or
        // unwinding. Copies of it exist in two places only. One is
        // `state.task`, which `Join::drop` clears. The others are on the
        // stacks of helpers that copied it out of `state.task` while
        // incrementing `state.active` *under the same lock* (`next_task`),
        // and that decrement `active` only after their last use of it
        // (`help`). `Join::drop` clears the slot under that lock — so no
        // helper can take a copy afterwards — and then waits for
        // `active == 0`; it runs before this function returns or unwinds,
        // because `Join` is constructed before anything that can panic
        // (nothing between here and there can). `busy` keeps a second
        // caller from publishing until then, so `active` counts the copies
        // of this task and no other.
        let task: Task = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Task>(task) };
        state.task = Some(task);
        state.generation += 1;
        self.generation.store(state.generation, Ordering::Release);
        if state.parked > 0 {
            self.wake.notify_all();
        }
        drop(state);
        let mut helper_panic = None;
        let join = Join {
            pool: self,
            helper_panic: &mut helper_panic,
        };
        mine();
        drop(join);
        if let Some(payload) = helper_panic {
            panic::resume_unwind(payload);
        }
    }

    /// A helper thread's life.
    fn help(&self) {
        let mut seen = 0;
        loop {
            let task = self.next_task(&mut seen);
            let outcome = panic::catch_unwind(AssertUnwindSafe(task));
            let mut state = self.lock();
            if let Err(payload) = outcome {
                state.panic.get_or_insert(payload);
            }
            state.active -= 1;
            if state.active == 0 {
                self.joined.notify_one();
            }
        }
    }

    /// Waits — spinning for [`SPIN`], then parked — for a published task of
    /// a generation later than `seen`, and counts the helper into it.
    fn next_task(&self, seen: &mut u64) -> Task {
        loop {
            let deadline = Instant::now() + SPIN;
            while self.generation.load(Ordering::Acquire) == *seen && Instant::now() < deadline {
                std::hint::spin_loop();
            }
            let mut state = self.lock();
            state.parked += 1;
            while state.generation == *seen {
                state = self
                    .wake
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            state.parked -= 1;
            *seen = state.generation;
            // A task already retracted was finished without this helper.
            if let Some(task) = state.task {
                state.active += 1;
                return task;
            }
        }
    }
}

/// Ends a job on drop — on unwinding too: retracts the task, waits until no
/// helper is inside it, and hands over what the helpers caught.
struct Join<'a> {
    pool: &'a Pool,
    helper_panic: &'a mut Option<Payload>,
}

impl Drop for Join<'_> {
    fn drop(&mut self) {
        let mut state = self.pool.lock();
        state.task = None;
        while state.active > 0 {
            state = self
                .pool
                .joined
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        *self.helper_panic = state.panic.take();
        state.busy = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
    use std::thread;

    /// A pool no other test shares, so every call on it gets the slot.
    fn private_pool() -> &'static Pool {
        Box::leak(Box::new(Pool::new()))
    }

    fn on_helper() -> bool {
        let thread = thread::current();
        thread
            .name()
            .is_some_and(|n| n.starts_with("dronet-kernel-"))
    }

    /// Blocks until `flag` is set. The deadline only turns a hang — the
    /// thread that should set it never came — into a failure.
    fn wait_for(flag: &AtomicBool) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !flag.load(SeqCst) {
            assert!(Instant::now() < deadline, "nobody set the flag");
            thread::yield_now();
        }
    }

    /// A call whose items only finish once a helper has run one.
    fn needs_a_helper(pool: &'static Pool) {
        let helped = AtomicBool::new(false);
        pool.for_each(3, (0..8).collect(), |_: usize| match on_helper() {
            true => helped.store(true, SeqCst),
            false => wait_for(&helped),
        });
    }

    #[test]
    fn a_panic_on_any_thread_resurfaces_in_the_caller_once_everyone_is_out() {
        for panic_on_helper in [true, false] {
            let pool = private_pool();
            // Borrowed from this frame: a helper that outlived the call
            // would still be counting into them.
            let (helper_in, entered, left) = (
                AtomicBool::new(false),
                AtomicUsize::new(0),
                AtomicUsize::new(0),
            );
            let call = || {
                pool.for_each(3, (0..8).collect(), |item: usize| {
                    if on_helper() {
                        entered.fetch_add(1, SeqCst);
                        helper_in.store(true, SeqCst);
                        // Still at work when the caller has nothing left to
                        // do but join (or unwind).
                        thread::sleep(Duration::from_millis(20));
                        left.fetch_add(1, SeqCst);
                        assert!(!panic_on_helper, "share {item} failed on a helper");
                    } else {
                        wait_for(&helper_in);
                        assert!(panic_on_helper, "share {item} failed on the caller");
                    }
                });
            };
            let payload = panic::catch_unwind(AssertUnwindSafe(call)).expect_err("must panic");
            let message = payload
                .downcast_ref::<String>()
                .expect("a formatted message");
            let culprit = if panic_on_helper { "helper" } else { "caller" };
            assert!(message.contains(culprit), "{message}");
            assert!(entered.load(SeqCst) > 0);
            assert_eq!(
                entered.load(SeqCst),
                left.load(SeqCst),
                "a helper is still inside"
            );
            // The helpers survived and the slot is free again.
            needs_a_helper(pool);
        }
    }

    /// The hand-off under contention: most calls find the slot taken and run
    /// alone, the rest race their retraction against joining helpers.
    #[test]
    fn concurrent_callers_all_get_the_sequential_answer() {
        let pool = private_pool();
        thread::scope(|scope| {
            for caller in 0..8usize {
                scope.spawn(move || {
                    for call in 0..200usize {
                        let mut buffer = [0usize; 97];
                        let len = 1 + (caller * 37 + call * 11) % 97;
                        let items: Vec<_> = buffer[..len].iter_mut().enumerate().collect();
                        pool.for_each(3, items, |(i, slot)| *slot = i * i + call);
                        for (i, &value) in buffer.iter().enumerate() {
                            let want = if i < len { i * i + call } else { 0 };
                            assert_eq!(value, want, "caller {caller} call {call} slot {i}");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn a_call_from_inside_an_item_runs_inline() {
        let pool = private_pool();
        let total = AtomicUsize::new(0);
        pool.for_each(3, (0..4).collect(), |_: usize| {
            let outer = thread::current().id();
            pool.for_each(3, (1..=5).collect(), |inner: usize| {
                assert_eq!(thread::current().id(), outer, "the slot is taken");
                total.fetch_add(inner, SeqCst);
            });
        });
        assert_eq!(total.load(SeqCst), 4 * 15);
    }

    #[test]
    fn helpers_are_created_by_the_first_shared_call_and_park_when_idle() {
        let pool = private_pool();
        let me = thread::current().id();
        let on_caller = |_: usize| assert_eq!(thread::current().id(), me);
        // One worker, or one item, involves nobody else.
        pool.for_each(1, (0..8).collect(), on_caller);
        pool.for_each(3, vec![0], on_caller);
        pool.for_each(3, Vec::new(), on_caller);
        assert_eq!(pool.lock().helpers, 0);

        needs_a_helper(pool);
        assert_eq!(pool.lock().helpers, 2);
        // Well past the spin bound, nobody is left watching.
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            thread::sleep(Duration::from_millis(50));
            let state = pool.lock();
            if state.parked == state.helpers {
                break;
            }
            assert!(Instant::now() < deadline, "{} parked", state.parked);
        }
        // And parked helpers are woken by the next call.
        needs_a_helper(pool);
    }
}
