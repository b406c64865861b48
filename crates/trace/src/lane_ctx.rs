//! Thread-local lane context: lets the task runtime tell the communication
//! layer which worker thread is executing, so records carry the right
//! [`crate::event::Lane`] without threading an id through every call.
//! Next to it sits each OS thread's recording slot, which picks the trace
//! sink buffer the thread records into.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The next recording slot to hand out. A plain counter: it publishes no
/// other data, so `Relaxed` suffices.
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static CURRENT_THREAD: Cell<usize> = const { Cell::new(0) };
    static SLOT: usize = NEXT_SLOT.fetch_add(1, Ordering::Relaxed);
}

/// Sets the worker-thread index of the current OS thread (task-runtime
/// workers call this once at startup; plain MPI ranks leave it at 0).
pub fn set_current_thread(t: usize) {
    CURRENT_THREAD.with(|c| c.set(t));
}

/// Worker-thread index of the current OS thread.
pub fn current_thread() -> usize {
    CURRENT_THREAD.with(|c| c.get())
}

/// Recording slot of the current OS thread: taken from a process-wide
/// counter the first time the thread asks, so threads that start recording
/// one after another hold consecutive slots. Unlike [`current_thread`],
/// which restarts at 0 on every rank, it is unique to the thread.
pub(crate) fn thread_slot() -> usize {
    SLOT.with(|s| *s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_to_zero() {
        assert_eq!(current_thread(), 0);
    }

    #[test]
    fn set_is_thread_local() {
        set_current_thread(3);
        assert_eq!(current_thread(), 3);
        std::thread::spawn(|| {
            assert_eq!(current_thread(), 0);
            set_current_thread(7);
            assert_eq!(current_thread(), 7);
        })
        .join()
        .unwrap();
        assert_eq!(current_thread(), 3);
        set_current_thread(0);
    }

    #[test]
    fn slots_are_stable_per_thread_and_distinct_across_threads() {
        let mine = thread_slot();
        assert_eq!(thread_slot(), mine);
        let theirs = std::thread::spawn(thread_slot).join().unwrap();
        assert_ne!(theirs, mine);
    }
}
