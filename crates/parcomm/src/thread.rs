//! Threads-as-ranks communicator.
//!
//! [`run_spmd`] launches `p` OS threads, each holding a [`ThreadComm`] with
//! a distinct rank, and runs the same closure on all of them — the SPMD
//! model of an `mpirun -np p` job. Collectives synchronize with a
//! sense-reversing barrier and move payloads through shared, type-erased
//! slots.
//!
//! Unlike the first iteration of this crate (which derived every collective
//! from a p-wide allgather), each collective now runs its native algorithm
//! with the volumes of its MPI counterpart (DESIGN.md §4):
//!
//! * reductions and scans use **recursive doubling** — `⌈log₂ p⌉` rounds of
//!   pairwise exchange, `O(m·log p)` received bytes per rank instead of the
//!   allgather's `O(m·p)`;
//! * **broadcast** is a single deposit: the root writes one slot and the
//!   `p−1` peers read it (no gather);
//! * **alltoallv** uses a `p×p` mailbox matrix, so every send vector is
//!   *moved* from sender to receiver exactly once, never cloned;
//! * **allgather** keeps the one-round deposit-and-read-all schedule, which
//!   is already volume-optimal for its semantics.
//!
//! Every rank records `(ops, rounds, received bytes)` per collective kind
//! into its own [`StatsCell`]; [`ThreadComm::stats`] aggregates them into
//! the per-op [`CommStats`] the α–β cost model consumes.

use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::stats::{Collective, CommStats, StatsCell};
use crate::wire::Wire;
use crate::Comm;

/// Sentinel for "no rank has poisoned the communicator".
const NOT_POISONED: usize = usize::MAX;

/// A reusable (sense-reversing) barrier for `n` participants, with a
/// poison flag that aborts every present and future wait.
///
/// The poison path is the fix for the rank-failure hang: a rank that
/// panics mid-collective never arrives at the barrier its peers are
/// blocked in, and before the fix those peers waited forever (and
/// `run_spmd`'s in-order joins never completed). Poisoning wakes every
/// waiter and turns their wait into a panic, so the whole SPMD job
/// unwinds and the *original* panic can be propagated.
#[derive(Debug)]
struct Barrier {
    n: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
    /// Rank of the first poisoner, or [`NOT_POISONED`].
    poisoned: AtomicUsize,
}

#[derive(Debug)]
struct BarrierState {
    waiting: usize,
    generation: u64,
}

impl Barrier {
    fn new(n: usize) -> Self {
        Barrier {
            n,
            state: Mutex::new(BarrierState { waiting: 0, generation: 0 }),
            cv: Condvar::new(),
            poisoned: AtomicUsize::new(NOT_POISONED),
        }
    }

    fn check_poison(&self) {
        let p = self.poisoned.load(Ordering::Acquire);
        if p != NOT_POISONED {
            // Deliberate fail-loud abort — poisoning unparks peers of a dead rank; run_spmd re-propagates the first panic (DESIGN.md §10).
            panic!("SPMD aborted: rank {p} panicked while peers were in a collective");
        }
    }

    fn wait(&self) {
        let mut st = self.state.lock();
        self.check_poison();
        let gen = st.generation;
        st.waiting += 1;
        if st.waiting == self.n {
            st.waiting = 0;
            st.generation = st.generation.wrapping_add(1);
            self.cv.notify_all();
        } else {
            while st.generation == gen {
                self.cv.wait(&mut st);
                // Re-check under the lock: a poisoner wakes all waiters
                // without advancing the generation.
                self.check_poison();
            }
        }
    }

    /// Mark the barrier dead on behalf of `rank` and wake every waiter.
    /// Idempotent; only the first poisoner is recorded.
    fn poison(&self, rank: usize) {
        let _ = self.poisoned.compare_exchange(
            NOT_POISONED,
            rank,
            Ordering::Release,
            Ordering::Relaxed,
        );
        // Take the state lock before notifying so a waiter cannot slip
        // between its poison check and its `cv.wait` and miss the wakeup.
        let _guard = self.state.lock();
        self.cv.notify_all();
    }
}

type Slot = Mutex<Option<Box<dyn Any + Send>>>;

/// Shared state of one communicator instance.
#[derive(Debug)]
struct CommCore {
    size: usize,
    barrier: Barrier,
    /// One payload slot per rank (reductions, gathers, broadcast).
    slots: Vec<Slot>,
    /// `p×p` mailbox matrix for alltoallv: entry `s·p + d` carries what
    /// rank `s` sends to rank `d`, moved in and moved out.
    mail: Vec<Slot>,
    /// One counter cell per rank; each rank writes only its own.
    stats: Vec<StatsCell>,
}

/// One rank's handle into a threads-as-ranks communicator.
#[derive(Debug, Clone)]
pub struct ThreadComm {
    core: Arc<CommCore>,
    rank: usize,
}

impl ThreadComm {
    /// Create handles for all `size` ranks of a fresh communicator.
    /// (Usually you want [`run_spmd`] instead.)
    pub fn create(size: usize) -> Vec<ThreadComm> {
        assert!(size > 0, "communicator needs at least one rank");
        let core = Arc::new(CommCore {
            size,
            barrier: Barrier::new(size),
            slots: (0..size).map(|_| Mutex::new(None)).collect(),
            mail: (0..size * size).map(|_| Mutex::new(None)).collect(),
            stats: (0..size).map(|_| StatsCell::default()).collect(),
        });
        (0..size).map(|rank| ThreadComm { core: Arc::clone(&core), rank }).collect()
    }

    fn deposit<T: Send + 'static>(&self, value: T) {
        *self.core.slots[self.rank].lock() = Some(Box::new(value));
    }

    fn peek<T: Clone + 'static, R>(&self, rank: usize, f: impl FnOnce(&T) -> R) -> R {
        let guard = self.core.slots[rank].lock();
        // Infallible — peek always follows the deposit barrier of the same collective round.
        let boxed = guard.as_ref().expect("peer slot must be filled");
        // Fail-loud SPMD-contract check — ranks disagreeing on T must not silently reinterpret bytes.
        let value = boxed.downcast_ref::<T>().expect("collective type mismatch");
        f(value)
    }

    fn record(&self, kind: Collective, rounds: u64, received_bytes: u64) {
        self.core.stats[self.rank].record(kind, rounds, received_bytes);
    }

    /// Core recursive-doubling (butterfly) schedule shared by every
    /// allreduce variant.
    ///
    /// `p` is folded to the largest power of two `q ≤ p` first (the extra
    /// ranks pre-reduce into their partner and receive the result back at
    /// the end), then `log₂ q` pairwise exchange rounds run among the first
    /// `q` ranks. `combine` is always applied in rank order — lower rank's
    /// partial first — so every rank finishes with the bitwise-identical
    /// value of one fixed reduction tree.
    ///
    /// `msg_bytes` is the payload size of one exchanged message. Counts are
    /// recorded *at entry* (they are deterministic functions of `p` and the
    /// payload size), so a rank that exits the collective can snapshot the
    /// stats without racing slower peers' bookkeeping.
    fn butterfly<T, F>(&self, kind: Collective, value: T, msg_bytes: u64, combine: F) -> T
    where
        T: Clone + Send + 'static,
        F: Fn(T, T) -> T,
    {
        let p = self.core.size;
        if p == 1 {
            self.record(kind, 0, 0);
            return value;
        }
        let r = self.rank;
        let q = prev_power_of_two(p);
        let extra = p - q;
        let log_q = q.trailing_zeros() as u64;
        let rounds = log_q + if extra > 0 { 2 } else { 0 };
        let my_exchanges = if r >= q {
            1 // receives the finished result in the unfold round only
        } else {
            log_q + u64::from(r < extra)
        };
        self.record(kind, rounds, my_exchanges * msg_bytes);
        let mut acc = value;

        // Fold step: ranks q..p send their contribution to rank r−q.
        if extra > 0 {
            if r >= q {
                self.deposit(acc.clone());
            }
            self.barrier();
            if r < extra {
                let theirs = self.peek::<T, _>(r + q, |t| t.clone());
                acc = combine(acc, theirs);
            }
            self.barrier();
        }

        // Butterfly among ranks 0..q.
        let mut gap = 1;
        while gap < q {
            if r < q {
                self.deposit(acc.clone());
            }
            self.barrier();
            if r < q {
                let partner = r ^ gap;
                let theirs = self.peek::<T, _>(partner, |t| t.clone());
                acc = if partner < r { combine(theirs, acc) } else { combine(acc, theirs) };
            }
            self.barrier();
            gap <<= 1;
        }

        // Unfold step: ranks 0..extra hand the result back to r+q.
        if extra > 0 {
            if r < extra {
                self.deposit(acc.clone());
            }
            self.barrier();
            if r >= q {
                acc = self.peek::<T, _>(r - q, |t| t.clone());
            }
            self.barrier();
        }
        acc
    }

    /// Element-wise butterfly reduction of a slice, in place.
    fn butterfly_slice<T, F>(&self, kind: Collective, buf: &mut [T], op: F)
    where
        T: Copy + Send + 'static,
        F: Fn(T, T) -> T,
    {
        let msg_bytes = std::mem::size_of_val(buf) as u64;
        let out = self.butterfly(kind, buf.to_vec(), msg_bytes, |mut lower, higher| {
            for (x, t) in lower.iter_mut().zip(higher) {
                *x = op(*x, t);
            }
            lower
        });
        buf.copy_from_slice(&out);
    }
}

/// Largest power of two `≤ n` (`n ≥ 1`).
fn prev_power_of_two(n: usize) -> usize {
    debug_assert!(n >= 1);
    1 << (usize::BITS - 1 - n.leading_zeros())
}

impl Comm for ThreadComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.core.size
    }

    fn barrier(&self) {
        self.core.barrier.wait();
    }

    fn allgather<T: Wire>(&self, local: Vec<T>) -> Vec<Vec<T>> {
        let p = self.core.size;
        self.deposit(local);
        self.barrier();
        let mut out = Vec::with_capacity(p);
        let mut received = 0u64;
        for r in 0..p {
            out.push(self.peek::<Vec<T>, _>(r, |v| v.clone()));
            if r != self.rank {
                received += (out[r].len() * std::mem::size_of::<T>()) as u64;
            }
        }
        // Record before the exit barrier so peers' post-collective
        // snapshots see this rank's contribution; then nobody may
        // overwrite a slot until everyone has read all of them.
        self.record(Collective::Allgather, u64::from(p > 1), received);
        self.barrier();
        out
    }

    fn alltoallv<T: Wire>(&self, sends: Vec<Vec<T>>) -> Vec<Vec<T>> {
        let p = self.core.size;
        assert_eq!(sends.len(), p, "one send buffer per rank");
        // Move each send vector into its (sender, receiver) mailbox.
        for (d, v) in sends.into_iter().enumerate() {
            *self.core.mail[self.rank * p + d].lock() = Some(Box::new(v));
        }
        self.barrier();
        // Take ownership of what every sender deposited for this rank:
        // each vector is moved exactly once end to end.
        let mut out = Vec::with_capacity(p);
        let mut received = 0u64;
        for s in 0..p {
            let boxed = self.core.mail[s * p + self.rank]
                .lock()
                .take()
                // geo-analyze: allow(panic-in-spmd): infallible — every sender filled its row before the barrier above.
                .expect("mailbox must be filled");
            // geo-analyze: allow(panic-in-spmd): fail-loud SPMD-contract check — ranks disagreeing on T must not silently reinterpret bytes.
            let v = *boxed.downcast::<Vec<T>>().expect("collective type mismatch");
            if s != self.rank {
                received += (v.len() * std::mem::size_of::<T>()) as u64;
            }
            out.push(v);
        }
        self.record(Collective::Alltoallv, u64::from(p > 1), received);
        self.barrier();
        out
    }

    fn allreduce<T, F>(&self, value: T, combine: F) -> T
    where
        T: Wire,
        F: Fn(T, T) -> T,
    {
        let esz = std::mem::size_of::<T>() as u64;
        self.butterfly(Collective::Allreduce, value, esz, combine)
    }

    fn allreduce_sum_f64(&self, buf: &mut [f64]) {
        self.butterfly_slice(Collective::Allreduce, buf, |a, b| a + b);
    }

    fn allreduce_max_f64(&self, buf: &mut [f64]) {
        self.butterfly_slice(Collective::Allreduce, buf, f64::max);
    }

    fn allreduce_min_f64(&self, buf: &mut [f64]) {
        self.butterfly_slice(Collective::Allreduce, buf, f64::min);
    }

    fn allreduce_sum_u64(&self, buf: &mut [u64]) {
        self.butterfly_slice(Collective::Allreduce, buf, |a, b| a.wrapping_add(b));
    }

    fn exscan_sum_u64(&self, value: u64) -> u64 {
        // Hillis–Steele distributed scan: at distance `gap`, every rank
        // passes its inclusive partial down-stream; rank r accumulates
        // from r−gap. ⌈log₂ p⌉ rounds, 8 received bytes per active round.
        let p = self.core.size;
        if p == 1 {
            self.record(Collective::Exscan, 0, 0);
            return 0;
        }
        let r = self.rank;
        // Rank r receives in every round whose gap (1, 2, 4, …) is ≤ r.
        let rounds = usize::BITS as u64 - (p - 1).leading_zeros() as u64;
        let my_receives = (0..rounds).filter(|&d| (1usize << d) <= r).count() as u64;
        self.record(Collective::Exscan, rounds, my_receives * 8);
        let mut exclusive = 0u64;
        let mut inclusive = value;
        let mut gap = 1;
        while gap < p {
            self.deposit(inclusive);
            self.barrier();
            if r >= gap {
                let theirs = self.peek::<u64, _>(r - gap, |&t| t);
                exclusive += theirs;
                inclusive += theirs;
            }
            self.barrier();
            gap <<= 1;
        }
        exclusive
    }

    fn broadcast<T: Wire>(&self, root: usize, value: Option<T>) -> T {
        // Single deposit: the root writes its slot once; the p−1 peers
        // read it. The root takes its own value back out of the slot after
        // the read phase, so nothing is cloned on the root path.
        debug_assert!(root < self.core.size);
        if self.core.size == 1 {
            self.record(Collective::Broadcast, 0, 0);
            // geo-analyze: allow(panic-in-spmd): fail-loud API-contract check — the root must supply a value; a silent default would broadcast garbage.
            return value.expect("root must supply a value");
        }
        let received =
            if self.rank == root { 0 } else { std::mem::size_of::<T>() as u64 };
        self.record(Collective::Broadcast, 1, received);
        if self.rank == root {
            // geo-analyze: allow(panic-in-spmd): fail-loud API-contract check — the root must supply a value; a silent default would broadcast garbage.
            self.deposit(value.expect("root must supply a value"));
        }
        self.barrier();
        let out = if self.rank == root {
            None
        } else {
            Some(self.peek::<T, _>(root, |t| t.clone()))
        };
        self.barrier();
        match out {
            Some(v) => v,
            None => {
                let boxed =
                    // geo-analyze: allow(panic-in-spmd): infallible — the root deposited before the barrier and only the root takes.
                    self.core.slots[root].lock().take().expect("root slot present");
                // geo-analyze: allow(panic-in-spmd): infallible — the root reclaims the exact value it deposited.
                *boxed.downcast::<T>().expect("collective type mismatch")
            }
        }
    }

    fn stats(&self) -> CommStats {
        CommStats::aggregate(self.core.size, &self.core.stats)
    }
}

/// Poisons the communicator's barrier if its rank unwinds, so peers
/// blocked in collectives abort instead of waiting forever for a rank
/// that will never arrive.
struct PoisonOnPanic {
    core: Arc<CommCore>,
    rank: usize,
}

impl Drop for PoisonOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.core.barrier.poison(self.rank);
        }
    }
}

/// Run `f` as an SPMD program on `p` ranks (threads) and return the
/// per-rank results, indexed by rank.
///
/// If any rank panics, the communicator is poisoned so surviving ranks
/// abort out of their collectives (instead of deadlocking on the dead
/// rank's barrier/mailbox), and the **first** panic is re-propagated from
/// this call with its original payload. Ranks that were aborted by the
/// poison unwind with a secondary "SPMD aborted" panic that is joined and
/// discarded.
pub fn run_spmd<R, F>(p: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(ThreadComm) -> R + Sync,
{
    let comms = ThreadComm::create(p);
    let core = Arc::clone(&comms[0].core);
    let joined: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                scope.spawn(move || {
                    let guard =
                        PoisonOnPanic { core: Arc::clone(&comm.core), rank: comm.rank };
                    let out = f(comm);
                    // Reached only on success; a panic in `f` drops the
                    // guard while unwinding and poisons the barrier.
                    std::mem::forget(guard);
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let first_panicker = core.barrier.poisoned.load(Ordering::Acquire);
    let mut payloads: Vec<(usize, Box<dyn Any + Send>)> = Vec::new();
    let mut results = Vec::with_capacity(p);
    for (rank, r) in joined.into_iter().enumerate() {
        match r {
            Ok(v) => results.push(v),
            Err(payload) => payloads.push((rank, payload)),
        }
    }
    if let Some(pos) = payloads.iter().position(|(r, _)| *r == first_panicker) {
        // Re-raise the original panic, not the secondary aborts it caused.
        std::panic::resume_unwind(payloads.swap_remove(pos).1);
    }
    if let Some((_, payload)) = payloads.into_iter().next() {
        std::panic::resume_unwind(payload);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::OpStats;

    #[test]
    fn allgather_collects_everyone() {
        let results = run_spmd(4, |c| {
            let all = c.allgather(vec![c.rank() as u64; c.rank() + 1]);
            all.iter().map(|v| v.len()).collect::<Vec<_>>()
        });
        for r in results {
            assert_eq!(r, vec![1, 2, 3, 4]);
        }
    }

    #[test]
    fn allreduce_sum_matches_serial() {
        let results = run_spmd(5, |c| {
            let mut buf = vec![c.rank() as f64, 1.0];
            c.allreduce_sum_f64(&mut buf);
            buf
        });
        for r in results {
            assert_eq!(r, vec![0.0 + 1.0 + 2.0 + 3.0 + 4.0, 5.0]);
        }
    }

    #[test]
    fn allreduce_min_max_over_many_rank_counts() {
        for p in 1..=9 {
            let results = run_spmd(p, |c| {
                let mut mx = vec![c.rank() as f64, -(c.rank() as f64)];
                c.allreduce_max_f64(&mut mx);
                let mut mn = vec![c.rank() as f64];
                c.allreduce_min_f64(&mut mn);
                (mx, mn)
            });
            for (mx, mn) in results {
                assert_eq!(mx, vec![(p - 1) as f64, 0.0], "p={p}");
                assert_eq!(mn, vec![0.0], "p={p}");
            }
        }
    }

    #[test]
    fn allreduce_identical_bits_on_every_rank() {
        // The butterfly applies one fixed reduction tree: all ranks must
        // produce bitwise-identical sums even for non-associative f64 data.
        for p in [2usize, 3, 5, 6, 7, 8] {
            let results = run_spmd(p, |c| {
                let mut buf: Vec<f64> =
                    (0..17).map(|i| 0.1 * (c.rank() * 31 + i) as f64).collect();
                c.allreduce_sum_f64(&mut buf);
                buf
            });
            for r in &results[1..] {
                assert_eq!(
                    r.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    results[0].iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "p={p}: ranks disagree bitwise"
                );
            }
        }
    }

    #[test]
    fn alltoallv_routes_correctly() {
        // Rank s sends the value 100*s + r to rank r.
        let results = run_spmd(4, |c| {
            let sends: Vec<Vec<u64>> =
                (0..4).map(|r| vec![100 * c.rank() as u64 + r as u64]).collect();
            c.alltoallv(sends)
        });
        for (r, recv) in results.iter().enumerate() {
            for (s, v) in recv.iter().enumerate() {
                assert_eq!(v, &vec![100 * s as u64 + r as u64]);
            }
        }
    }

    #[test]
    fn alltoallv_with_empty_buffers() {
        let results = run_spmd(3, |c| {
            // Only rank 0 sends anything, and only to rank 2.
            let mut sends: Vec<Vec<u8>> = vec![vec![]; 3];
            if c.rank() == 0 {
                sends[2] = vec![42];
            }
            c.alltoallv(sends)
        });
        assert_eq!(results[2][0], vec![42]);
        assert!(results[0].iter().all(|v| v.is_empty()));
        assert!(results[1].iter().all(|v| v.is_empty()));
    }

    #[test]
    fn exscan_is_exclusive_prefix() {
        let results = run_spmd(4, |c| c.exscan_sum_u64(10 * (c.rank() as u64 + 1)));
        assert_eq!(results, vec![0, 10, 30, 60]);
    }

    #[test]
    fn exscan_nonpower_of_two() {
        for p in [3usize, 5, 6, 7] {
            let results = run_spmd(p, |c| c.exscan_sum_u64(c.rank() as u64 + 1));
            let expected: Vec<u64> =
                (0..p as u64).map(|r| (1..=r).sum::<u64>()).collect();
            assert_eq!(results, expected, "p={p}");
        }
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let results = run_spmd(4, |c| {
            let v = if c.rank() == 2 { Some(vec![7u32, 8]) } else { None };
            c.broadcast(2, v)
        });
        for r in results {
            assert_eq!(r, vec![7, 8]);
        }
    }

    #[test]
    fn generic_allreduce_max() {
        let results = run_spmd(6, |c| c.allreduce(c.rank() as u64, u64::max));
        assert!(results.iter().all(|&m| m == 5));
    }

    #[test]
    fn generic_allreduce_tuple_minmax() {
        // The fused (min, max) reduction the quantile searches use.
        let results = run_spmd(5, |c| {
            let v = c.rank() as u64 * 10;
            c.allreduce((v, v), |a, b| (a.0.min(b.0), a.1.max(b.1)))
        });
        assert!(results.iter().all(|&mm| mm == (0, 40)));
    }

    #[test]
    fn repeated_collectives_do_not_deadlock_or_cross() {
        let results = run_spmd(3, |c| {
            let mut acc = 0u64;
            for round in 0..50u64 {
                let mut buf = vec![round + c.rank() as u64];
                c.allreduce_sum_u64(&mut buf);
                acc = acc.wrapping_add(buf[0]);
            }
            acc
        });
        assert!(results.windows(2).all(|w| w[0] == w[1]));
    }

    /// `stats()` aggregates every rank's cells, and collectives record at
    /// entry. Fence the snapshot with barriers (which record nothing) so
    /// that no peer is still short of the previous collective or already
    /// inside the next one while it is taken.
    fn quiet_stats(c: &ThreadComm) -> CommStats {
        c.barrier();
        let s = c.stats();
        c.barrier();
        s
    }

    #[test]
    fn stats_break_down_by_collective() {
        let results = run_spmd(2, |c| {
            let before = quiet_stats(&c);
            let _ = c.allgather(vec![0u64; 4]);
            let mut buf = vec![0.0f64; 4];
            c.allreduce_sum_f64(&mut buf);
            let _ = c.exscan_sum_u64(1);
            let _ = c.broadcast(0, if c.rank() == 0 { Some(3u64) } else { None });
            let _ = c.alltoallv(vec![vec![1u8], vec![2u8]]);
            quiet_stats(&c).since(&before)
        });
        let d = results[0];
        assert_eq!(d.ranks, 2);
        // allgather: each rank receives the peer's 32 bytes in one round.
        assert_eq!(d.op(Collective::Allgather), OpStats { ops: 1, rounds: 1, bytes: 64 });
        // allreduce at p=2: one butterfly round, 32 bytes per rank.
        assert_eq!(d.op(Collective::Allreduce), OpStats { ops: 1, rounds: 1, bytes: 64 });
        // exscan at p=2: one round, only rank 1 receives 8 bytes.
        assert_eq!(d.op(Collective::Exscan), OpStats { ops: 1, rounds: 1, bytes: 8 });
        // broadcast: only the non-root receives.
        assert_eq!(d.op(Collective::Broadcast), OpStats { ops: 1, rounds: 1, bytes: 8 });
        // alltoallv: each rank receives 1 off-rank byte.
        assert_eq!(d.op(Collective::Alltoallv), OpStats { ops: 1, rounds: 1, bytes: 2 });
        assert_eq!(d.collectives(), 5);
    }

    #[test]
    fn butterfly_allreduce_beats_allgather_volume_by_2x() {
        // The ISSUE-2 acceptance bound: p = 8, 4096-element f64 buffer —
        // per-rank received bytes of the native allreduce must be at least
        // 2× below the allgather-derived baseline.
        let (p, m) = (8usize, 4096usize);
        let results = run_spmd(p, |c| {
            let s0 = quiet_stats(&c);
            let mut buf = vec![1.0f64; m];
            c.allreduce_sum_f64(&mut buf);
            let s1 = quiet_stats(&c);
            let _ = c.allgather(vec![1.0f64; m]);
            let s2 = quiet_stats(&c);
            (s1.since(&s0), s2.since(&s1))
        });
        let (reduce, gather) = &results[0];
        let reduce_per_rank = reduce.op(Collective::Allreduce).bytes / p as u64;
        let gather_per_rank = gather.op(Collective::Allgather).bytes / p as u64;
        // Exactly log₂(8) = 3 exchange rounds of 4096·8 bytes each...
        assert_eq!(reduce.op(Collective::Allreduce).rounds, 3);
        assert_eq!(reduce_per_rank, 3 * (m as u64) * 8);
        // ...versus (p−1)·m·8 for the gather-everything baseline.
        assert_eq!(gather_per_rank, 7 * (m as u64) * 8);
        assert!(
            gather_per_rank >= 2 * reduce_per_rank,
            "allreduce must receive ≥2× fewer bytes than the allgather \
             baseline ({reduce_per_rank} vs {gather_per_rank})"
        );
    }

    #[test]
    fn single_rank_thread_comm_works() {
        let results = run_spmd(1, |c| {
            let mut buf = vec![3.0];
            c.allreduce_sum_f64(&mut buf);
            let ex = c.exscan_sum_u64(9);
            let bc = c.broadcast(0, Some(4u32));
            (buf[0], ex, bc)
        });
        assert_eq!(results, vec![(3.0, 0, 4)]);
    }

    #[test]
    fn barrier_reusable_many_times() {
        run_spmd(4, |c| {
            for _ in 0..200 {
                c.barrier();
            }
        });
    }

    #[test]
    fn panicking_rank_unblocks_peers_and_propagates_the_original_panic() {
        // Regression: rank 2 dies *before* entering the collective its
        // peers are already blocked in. Without poisoning, ranks 0/1/3
        // wait forever for a deposit that never comes and the job hangs.
        let err = std::panic::catch_unwind(|| {
            run_spmd(4, |c| {
                if c.rank() == 2 {
                    panic!("rank 2 exploded");
                }
                let mut buf = vec![1.0];
                c.allreduce_sum_f64(&mut buf);
                buf[0]
            })
        })
        .expect_err("the job must fail, not hang");
        let msg = err
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert_eq!(
            msg, "rank 2 exploded",
            "the original panic must propagate, not the secondary aborts"
        );
    }

    #[test]
    fn panicking_rank_mid_collective_sequence_aborts_cleanly() {
        // The panicker completes one collective first, so peers are
        // mid-stream with live mailbox state when the poison lands.
        let err = std::panic::catch_unwind(|| {
            run_spmd(3, |c| {
                let mut buf = vec![c.rank() as f64];
                c.allreduce_sum_f64(&mut buf);
                if c.rank() == 0 {
                    panic!("late failure");
                }
                c.barrier();
                let all = c.allgather(vec![c.rank() as u64]);
                all.len()
            })
        })
        .expect_err("the job must fail, not hang");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "late failure");
    }
}
