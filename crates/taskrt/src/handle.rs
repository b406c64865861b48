//! Data regions and dependency declarations — the `in`/`out`/`inout`
//! clauses of OmpSs's `task` construct.
//!
//! [`Shared<T>`] is the storage a task operates on. Access goes through
//! checked read/write guards: the dependency graph is what *schedules*
//! conflicting tasks apart; the guards *verify* the annotations were right
//! (a wrong `in` where `inout` was needed panics instead of blocking or
//! racing). The region is a `std::sync::RwLock` taken only with
//! `try_read`/`try_write`, so the check needs no `unsafe`, and a region is
//! `Sync` only when its value is.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};

static NEXT_HANDLE: AtomicU64 = AtomicU64::new(1);

/// Identifier of a data region, used by the dependency tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Handle(pub u64);

impl Handle {
    /// Mints a fresh handle not backed by any [`Shared`] storage: a pure
    /// *dependency slot*. The tracker only needs identity, so a bare handle
    /// participates in the OmpSs ordering rules exactly like a `Shared`
    /// region's handle while the data it stands for can live anywhere — a
    /// `Shared` buffer, a worker arena, or the network (see
    /// `crate::graph::SlotArena`).
    pub fn fresh() -> Handle {
        Handle(NEXT_HANDLE.fetch_add(1, Ordering::Relaxed))
    }

    /// `in` dependency on this slot.
    pub fn dep_in(self) -> Dep {
        Dep {
            handle: self,
            access: Access::In,
        }
    }

    /// `out` dependency on this slot.
    pub fn dep_out(self) -> Dep {
        Dep {
            handle: self,
            access: Access::Out,
        }
    }

    /// `inout` dependency on this slot.
    pub fn dep_inout(self) -> Dep {
        Dep {
            handle: self,
            access: Access::InOut,
        }
    }
}

/// Access mode of a task on a data region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Read-only (`in` clause): orders after the region's last writer.
    In,
    /// Write-only (`out` clause): orders after the last writer and all
    /// readers since (anti-dependency).
    Out,
    /// Read-write (`inout` clause): same ordering as `Out`.
    InOut,
}

impl Access {
    /// True when the access writes the region.
    pub fn writes(self) -> bool {
        matches!(self, Access::Out | Access::InOut)
    }
}

/// One dependency declaration of a task.
#[derive(Debug, Clone, Copy)]
pub struct Dep {
    /// Region.
    pub handle: Handle,
    /// Mode.
    pub access: Access,
}

struct SharedInner<T> {
    handle: Handle,
    value: RwLock<T>,
}

/// A task-shared data region with verified reader/writer discipline.
///
/// A region is shared across worker threads only if its value is `Sync`,
/// so two `in` tasks cannot race through a `Cell`:
///
/// ```compile_fail
/// fn assert_sync<T: Sync>() {}
/// assert_sync::<fftx_taskrt::Shared<std::cell::Cell<u8>>>();
/// ```
pub struct Shared<T> {
    inner: Arc<SharedInner<T>>,
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Shared<T> {
    /// Wraps `value` in a new region with a fresh handle.
    pub fn new(value: T) -> Self {
        Shared {
            inner: Arc::new(SharedInner {
                handle: Handle(NEXT_HANDLE.fetch_add(1, Ordering::Relaxed)),
                value: RwLock::new(value),
            }),
        }
    }

    /// The region's dependency handle.
    pub fn handle(&self) -> Handle {
        self.inner.handle
    }

    /// `in` dependency on this region.
    pub fn dep_in(&self) -> Dep {
        Dep {
            handle: self.handle(),
            access: Access::In,
        }
    }

    /// `out` dependency on this region.
    pub fn dep_out(&self) -> Dep {
        Dep {
            handle: self.handle(),
            access: Access::Out,
        }
    }

    /// `inout` dependency on this region.
    pub fn dep_inout(&self) -> Dep {
        Dep {
            handle: self.handle(),
            access: Access::InOut,
        }
    }

    /// Acquires shared read access. A lock poisoned by a panicking task
    /// (one a retry may re-run) is recovered: the retry overwrites what
    /// the failed attempt left.
    ///
    /// # Panics
    /// Panics if a writer currently holds the region — that means a task's
    /// dependency annotations were wrong.
    pub fn read(&self) -> ReadGuard<'_, T> {
        match self.inner.value.try_read() {
            Ok(g) => ReadGuard(g),
            Err(TryLockError::Poisoned(p)) => ReadGuard(p.into_inner()),
            Err(TryLockError::WouldBlock) => panic!(
                "Shared: read while a writer is active — missing in/inout dependency \
                 (handle {:?})",
                self.inner.handle
            ),
        }
    }

    /// Acquires exclusive write access, recovering a poisoned lock like
    /// [`Shared::read`].
    ///
    /// # Panics
    /// Panics if any reader or writer holds the region.
    pub fn write(&self) -> WriteGuard<'_, T> {
        match self.inner.value.try_write() {
            Ok(g) => WriteGuard(g),
            Err(TryLockError::Poisoned(p)) => WriteGuard(p.into_inner()),
            Err(TryLockError::WouldBlock) => panic!(
                "Shared: write while a reader or writer is active — missing out/inout \
                 dependency (handle {:?})",
                self.inner.handle
            ),
        }
    }

    /// Consumes the region and returns the inner value if this is the last
    /// clone; otherwise returns `Err(self)`.
    pub fn try_unwrap(self) -> Result<T, Self> {
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => Ok(inner
                .value
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)),
            Err(inner) => Err(Shared { inner }),
        }
    }
}

/// Shared read guard; derefs to `&T`.
pub struct ReadGuard<'a, T>(RwLockReadGuard<'a, T>);

impl<T> Deref for ReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// Exclusive write guard; derefs to `&mut T`.
pub struct WriteGuard<'a, T>(RwLockWriteGuard<'a, T>);

impl<T> Deref for WriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for WriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_unique() {
        let a = Shared::new(0u32);
        let b = Shared::new(0u32);
        assert_ne!(a.handle(), b.handle());
        assert_eq!(a.handle(), a.clone().handle());
    }

    #[test]
    fn read_write_roundtrip() {
        let s = Shared::new(vec![1, 2, 3]);
        {
            let mut w = s.write();
            w.push(4);
        }
        let r = s.read();
        assert_eq!(*r, vec![1, 2, 3, 4]);
    }

    #[test]
    fn multiple_readers_allowed() {
        let s = Shared::new(5u64);
        let r1 = s.read();
        let r2 = s.read();
        assert_eq!(*r1 + *r2, 10);
    }

    #[test]
    #[should_panic(expected = "missing out/inout dependency")]
    fn write_under_reader_panics() {
        let s = Shared::new(0u8);
        let _r = s.read();
        let _w = s.write();
    }

    #[test]
    #[should_panic(expected = "missing in/inout dependency")]
    fn read_under_writer_panics() {
        let s = Shared::new(0u8);
        let _w = s.write();
        let _r = s.read();
    }

    #[test]
    fn guards_release_on_drop() {
        let s = Shared::new(0u8);
        drop(s.write());
        drop(s.read());
        drop(s.write());
    }

    #[test]
    fn dep_constructors() {
        let s = Shared::new(());
        assert_eq!(s.dep_in().access, Access::In);
        assert_eq!(s.dep_out().access, Access::Out);
        assert_eq!(s.dep_inout().access, Access::InOut);
        assert!(Access::Out.writes() && Access::InOut.writes() && !Access::In.writes());
        assert_eq!(s.dep_in().handle, s.handle());
    }

    #[test]
    fn a_lock_poisoned_by_a_panicking_task_is_recovered() {
        let s = Shared::new(1u32);
        let t = s.clone();
        let _ = std::thread::spawn(move || {
            let _w = t.write();
            panic!("attempt failed while writing");
        })
        .join();
        *s.write() = 2;
        assert_eq!(*s.read(), 2);
        assert_eq!(s.try_unwrap().ok(), Some(2));
    }

    #[test]
    fn try_unwrap_returns_value_when_unique() {
        let s = Shared::new(7i32);
        assert_eq!(s.try_unwrap().ok(), Some(7));
        let s = Shared::new(7i32);
        let s2 = s.clone();
        assert!(s.try_unwrap().is_err());
        assert_eq!(*s2.read(), 7);
    }

    #[test]
    fn concurrent_readers_from_threads() {
        let s = Shared::new(42u64);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let s = s.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        assert_eq!(*s.read(), 42);
                    }
                });
            }
        });
    }
}
