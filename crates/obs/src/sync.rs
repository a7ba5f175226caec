//! Lock access that ignores poisoning.
//!
//! A `std::sync` lock is poisoned when its holder panics, and every later
//! `lock()` then returns an error. The workspace's critical sections leave
//! their data consistent even when a panic unwinds through them: the serve
//! broker contains a worker's panic and keeps answering requests, and the
//! kernel pool drains its queue while its thread is already unwinding. So
//! a poisoned lock carries no information here, and these helpers take
//! the guard either way, never panicking on poison.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks `m`, ignoring poisoning.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Takes a shared guard on `l`, ignoring poisoning.
pub fn read<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Takes the exclusive guard on `l`, ignoring poisoning.
pub fn write<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn no_poisoning_after_panic() {
        let m = Arc::new(Mutex::new(1));
        let l = Arc::new(RwLock::new(2));
        let (m2, l2) = (Arc::clone(&m), Arc::clone(&l));
        let died = thread::spawn(move || {
            let _g = lock(&m2);
            let _w = write(&l2);
            panic!("poison attempt");
        })
        .join();
        assert!(died.is_err());
        assert!(m.is_poisoned() && l.is_poisoned());
        *lock(&m) += 10;
        assert_eq!(*lock(&m), 11, "mutex must stay usable after a panic");
        *write(&l) += 10;
        assert_eq!(*read(&l), 12, "rwlock must stay usable after a panic");
    }
}
