//! Per-executor scratch reuse for pool-parallel hot loops.
//!
//! Parallel staging buffers (conv gather rows, im2col panels) used to be
//! allocated inside every task closure because tasks run on whichever
//! executor claims them. [`ScratchArena`] keeps one buffer slot per
//! executor instead: a task asks for "my" slot via [`current_executor`]
//! (a thread-local hint set by the pool's worker threads), falls through
//! to any free slot under contention, and only as a last resort builds a
//! fresh temporary. Reuse is purely an allocation-traffic optimization —
//! correctness never depends on which slot (or temporary) a task gets.

use std::cell::Cell;
use std::sync::Mutex;

thread_local! {
    static EXECUTOR: Cell<usize> = const { Cell::new(0) };
}

/// Tags the current thread with its pool executor slot (worker threads
/// only; everyone else keeps the default 0).
pub(crate) fn set_executor(slot: usize) {
    EXECUTOR.with(|c| c.set(slot));
}

/// The calling thread's executor slot within its [`WorkPool`]: `0` for any
/// thread that is not a pool worker (including dispatching callers and
/// contended-inline fallbacks), `1..threads` for the pool's persistent
/// workers. A scheduling *hint* for [`ScratchArena`] slot selection — not
/// a correctness token, and not unique across distinct pools.
///
/// [`WorkPool`]: crate::WorkPool
pub fn current_executor() -> usize {
    EXECUTOR.with(|c| c.get())
}

/// A fixed set of lazily reused scratch buffers, one per pool executor.
///
/// [`with`](Self::with) hands the closure a `&mut T` from the slot hinted
/// by [`current_executor`], trying the other slots on contention and
/// falling back to a fresh `T::default()` when every slot is busy (e.g.
/// several contended-inline callers all hinting slot 0). Buffers keep
/// whatever state the last task left in them — callers must reset (or
/// size) the buffer themselves, exactly as they would a fresh one.
///
/// # Example
///
/// ```
/// use pim_par::{ScratchArena, WorkPool};
///
/// let pool = WorkPool::new(4);
/// let rows: ScratchArena<Vec<f32>> = ScratchArena::new(pool.threads());
/// pool.run(64, |i| {
///     rows.with(|buf| {
///         buf.clear();
///         buf.resize(128, i as f32); // task-local staging, no per-task alloc
///     });
/// });
/// ```
pub struct ScratchArena<T> {
    slots: Vec<Mutex<T>>,
}

impl<T: Default> ScratchArena<T> {
    /// An arena of `slots` buffers (min 1), each starting at `T::default()`.
    /// Size it to the pool's executor count ([`WorkPool::threads`]).
    ///
    /// [`WorkPool::threads`]: crate::WorkPool::threads
    pub fn new(slots: usize) -> Self {
        Self {
            slots: (0..slots.max(1))
                .map(|_| Mutex::new(T::default()))
                .collect(),
        }
    }

    /// Number of buffer slots.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Grows the arena to at least `slots` buffers (existing buffers keep
    /// their contents). Call before a fan-out when the pool width may have
    /// changed since construction.
    pub fn ensure_slots(&mut self, slots: usize) {
        while self.slots.len() < slots {
            self.slots.push(Mutex::new(T::default()));
        }
    }

    /// Runs `f` with exclusive access to a scratch buffer: the hinted slot
    /// when free, any other free slot under contention, or a fresh
    /// temporary when all slots are busy (or poisoned by a panicked task).
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let n = self.slots.len();
        let hint = current_executor() % n;
        for offset in 0..n {
            if let Ok(mut slot) = self.slots[(hint + offset) % n].try_lock() {
                return f(&mut slot);
            }
        }
        f(&mut T::default())
    }
}

impl<T: Default> Default for ScratchArena<T> {
    fn default() -> Self {
        Self::new(1)
    }
}

/// Clones as a *fresh* arena of the same width: scratch contents are
/// disposable by contract, so a cloned owner starts with empty buffers.
impl<T: Default> Clone for ScratchArena<T> {
    fn clone(&self) -> Self {
        Self::new(self.slots.len())
    }
}

impl<T> std::fmt::Debug for ScratchArena<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScratchArena")
            .field("slots", &self.slots.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuses_the_hinted_slot() {
        let arena: ScratchArena<Vec<u32>> = ScratchArena::new(2);
        arena.with(|v| v.push(7));
        // Same thread, same hint → same buffer, previous contents visible.
        arena.with(|v| assert_eq!(v, &[7]));
    }

    #[test]
    fn contended_slots_fall_through() {
        let arena: ScratchArena<Vec<u32>> = ScratchArena::new(2);
        arena.with(|a| {
            a.push(1);
            // Re-entrant use while slot 0 is held lands on slot 1.
            arena.with(|b| {
                assert!(b.is_empty());
                b.push(2);
                // Both busy → fresh temporary.
                arena.with(|c| assert!(c.is_empty()));
            });
        });
    }

    #[test]
    fn zero_slots_is_floored_at_one() {
        let arena: ScratchArena<Vec<u8>> = ScratchArena::new(0);
        assert_eq!(arena.slots(), 1);
        arena.with(|v| v.push(1));
    }

    #[test]
    fn clone_starts_fresh() {
        let arena: ScratchArena<Vec<u8>> = ScratchArena::new(3);
        arena.with(|v| v.push(9));
        let copy = arena.clone();
        assert_eq!(copy.slots(), 3);
        copy.with(|v| assert!(v.is_empty()));
    }
}
