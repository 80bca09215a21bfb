//! Turn-taking ranks for the timed runs.
//!
//! The reference host gives the benchmark two vCPUs whose capacity comes
//! and goes: for minutes at a time two busy threads run at half speed each
//! (two concurrent single-threaded probes each slow down 2×, one alone does
//! not), and neither the steal clock nor the process's CPU time shows it.
//! Two ranks solving side by side then measure the host's state, not the
//! program: the same `cold-1m` run read 0.31 s and 0.62 s per solve a few
//! minutes apart. So in the timed runs the ranks take turns: a rank computes
//! only while it holds the job's single token, and it puts the token down
//! for every collective call. At most one rank computes at any moment, and
//! a solve's wall time is the sum of its ranks' work plus the collectives,
//! which one core delivers the same way in either state of the host.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use geographer_parcomm::{Comm, CommStats, Wire};

/// A one-token semaphore over a socket pair, shared by the ranks of one job:
/// thread ranks share it by reference, forked ranks inherit its descriptors.
/// Taking the token reads the one byte in flight; giving it back writes it.
pub struct Turn {
    give: UnixStream,
    take: UnixStream,
}

impl Turn {
    pub fn new() -> std::io::Result<Turn> {
        let (mut give, take) = UnixStream::pair()?;
        give.write_all(&[1])?;
        Ok(Turn { give, take })
    }

    // An I/O error here would mean the job's own socket pair broke; the
    // ranks then go on without turns rather than hang.
    fn take(&self) {
        let mut byte = [0u8];
        let _ = (&self.take).read_exact(&mut byte);
    }

    fn give(&self) {
        let _ = (&self.give).write_all(&[1]);
    }
}

/// A `Comm` that delegates every call to `inner` with the rank's turn put
/// down for the call's duration. Made by taking the turn; dropping it (also
/// while unwinding) gives the turn back if it holds it.
pub struct TurnComm<'a, C> {
    inner: &'a C,
    turn: &'a Turn,
    held: AtomicBool,
}

impl<'a, C: Comm> TurnComm<'a, C> {
    pub fn new(inner: &'a C, turn: &'a Turn) -> Self {
        turn.take();
        TurnComm {
            inner,
            turn,
            held: AtomicBool::new(true),
        }
    }

    fn aside<R>(&self, f: impl FnOnce() -> R) -> R {
        self.held.store(false, Ordering::Relaxed);
        self.turn.give();
        let r = f();
        self.turn.take();
        self.held.store(true, Ordering::Relaxed);
        r
    }

    /// A barrier that returns the instant every rank had reached it, read
    /// before this rank waits for its turn: the common start of what
    /// follows on every rank.
    pub fn barrier_instant(&self) -> Instant {
        self.aside(|| {
            self.inner.barrier();
            Instant::now()
        })
    }
}

impl<C> Drop for TurnComm<'_, C> {
    fn drop(&mut self) {
        if self.held.load(Ordering::Relaxed) {
            self.turn.give();
        }
    }
}

impl<C: Comm> Comm for TurnComm<'_, C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn barrier(&self) {
        self.aside(|| self.inner.barrier())
    }
    fn allgather<T: Wire>(&self, local: Vec<T>) -> Vec<Vec<T>> {
        self.aside(|| self.inner.allgather(local))
    }
    fn alltoallv<T: Wire>(&self, sends: Vec<Vec<T>>) -> Vec<Vec<T>> {
        self.aside(|| self.inner.alltoallv(sends))
    }
    fn stats(&self) -> CommStats {
        self.inner.stats()
    }
    fn allreduce<T, F>(&self, value: T, combine: F) -> T
    where
        T: Wire,
        F: Fn(T, T) -> T,
    {
        self.aside(|| self.inner.allreduce(value, combine))
    }
    fn allreduce_sum_f64(&self, buf: &mut [f64]) {
        self.aside(|| self.inner.allreduce_sum_f64(buf))
    }
    fn allreduce_max_f64(&self, buf: &mut [f64]) {
        self.aside(|| self.inner.allreduce_max_f64(buf))
    }
    fn allreduce_min_f64(&self, buf: &mut [f64]) {
        self.aside(|| self.inner.allreduce_min_f64(buf))
    }
    fn allreduce_sum_u64(&self, buf: &mut [u64]) {
        self.aside(|| self.inner.allreduce_sum_u64(buf))
    }
    fn exscan_sum_u64(&self, value: u64) -> u64 {
        self.aside(|| self.inner.exscan_sum_u64(value))
    }
    fn broadcast<T: Wire>(&self, root: usize, value: Option<T>) -> T {
        self.aside(|| self.inner.broadcast(root, value))
    }
}
