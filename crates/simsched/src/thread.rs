//! Shimmed thread spawn/join.
//!
//! Passthrough to `std::thread` normally. Inside a model-checked body the
//! spawned thread is registered with the scheduler (spawn and join are
//! scheduling points; the child parks before running any user code until
//! the schedule grants it a first slice) while still running on a real OS
//! thread underneath.

use std::io;

/// Handle to a shimmed spawned thread; mirrors `std::thread::JoinHandle`.
pub struct JoinHandle<T> {
    inner: std::thread::JoinHandle<T>,
    #[cfg(simsched)]
    sim_tid: Option<usize>,
}

impl<T> JoinHandle<T> {
    /// Wait for the thread to finish, returning its result (or its panic
    /// payload). Under the model checker, joining is a scheduling point
    /// enabled only once the target thread has finished — a join that can
    /// never be enabled shows up as a reported deadlock.
    pub fn join(self) -> std::thread::Result<T> {
        #[cfg(simsched)]
        if let Some(target) = self.sim_tid {
            if crate::sched::in_model() {
                crate::sched::yield_op(crate::sched::Op::Join { target });
            }
        }
        self.inner.join()
    }

    /// Whether the thread has exited.
    pub fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }
}

/// A readable message from a panic payload (a `catch_unwind` error or a
/// join's `Err`): the `panic!` text, or a placeholder for a non-string one.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Spawn a thread running `f`; shimmed equivalent of `std::thread::spawn`.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    Builder::new().spawn(f).expect("simsched: thread spawn failed")
}

/// Thread factory mirroring the `std::thread::Builder` subset the pool uses.
#[derive(Default)]
pub struct Builder {
    name: Option<String>,
}

impl Builder {
    /// New builder with default settings.
    pub fn new() -> Builder {
        Builder { name: None }
    }

    /// Name the thread (shows up in panic messages and debuggers).
    pub fn name(mut self, name: String) -> Builder {
        self.name = Some(name);
        self
    }

    /// Spawn the thread.
    pub fn spawn<F, T>(self, f: F) -> io::Result<JoinHandle<T>>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        #[cfg(simsched)]
        if crate::sched::in_model() {
            let (sim_tid, inner) = crate::sched::spawn_sim(self.name, f)?;
            return Ok(JoinHandle {
                inner,
                sim_tid: Some(sim_tid),
            });
        }
        let mut b = std::thread::Builder::new();
        if let Some(name) = self.name {
            b = b.name(name);
        }
        Ok(JoinHandle {
            inner: b.spawn(f)?,
            #[cfg(simsched)]
            sim_tid: None,
        })
    }
}
