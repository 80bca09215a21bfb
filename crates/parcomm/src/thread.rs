//! Threads-as-ranks transport.
//!
//! [`run_spmd`] launches `p` OS threads, each holding a [`ThreadComm`] with
//! a distinct rank, and runs the same closure on all of them — the SPMD
//! model of an `mpirun -np p` job. The collectives are the
//! [engine](crate::engine)'s; a `ThreadComm` is the in-memory mailbox
//! [`Transport`] under them:
//!
//! * a message is the sender's typed value, moved into the receiver's
//!   mailbox as a `Box<dyn Any + Send>` — thread ranks never serialize;
//! * each (sender, receiver) pair has one FIFO, and the receiver checks
//!   every message's tag (collective kind and call sequence number) and
//!   payload type, so a rank that runs ahead may post the next
//!   collective's messages early and a desynchronized one fails loudly;
//! * sends never block; a `recv` waits on the receiving rank's condition
//!   variable;
//! * [`Comm::barrier`](crate::Comm::barrier) is a sense-reversing barrier.
//!
//! A rank that panics poisons the communicator: every rank blocked in a
//! barrier or a `recv`, now or later, wakes and aborts instead of waiting
//! for a message that will never come.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::engine::{Tag, Transport};
use crate::stats::{Collective, StatsCell};
use crate::wire::Wire;

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

/// One message in flight: its tag and the sender's value, moved as is.
struct Msg {
    tag: Tag,
    value: Box<dyn Any + Send>,
}

impl std::fmt::Debug for Msg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Msg").field("tag", &self.tag).finish_non_exhaustive()
    }
}

/// One rank's mailbox and counters.
#[derive(Debug)]
struct RankState {
    /// Messages to this rank: `inbox[s]` is the FIFO from rank `s`.
    inbox: Mutex<Vec<VecDeque<Msg>>>,
    /// Signalled when a message arrives or the communicator is poisoned.
    arrived: Condvar,
    /// Collective calls this rank has opened.
    calls: AtomicU64,
    stats: StatsCell,
}

/// Shared state of one communicator instance.
#[derive(Debug)]
struct CommCore {
    barrier: Barrier,
    ranks: Vec<RankState>,
}

impl CommCore {
    /// Poison the communicator on behalf of `rank`: abort every present
    /// and future barrier wait and `recv`.
    fn poison(&self, rank: usize) {
        self.barrier.poison(rank);
        for state in &self.ranks {
            // Lock before notifying, as `Barrier::poison` does, so a
            // receiver cannot miss the wakeup between its check and wait.
            let _guard = state.inbox.lock();
            state.arrived.notify_all();
        }
    }
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
            barrier: Barrier::new(size),
            ranks: (0..size)
                .map(|_| RankState {
                    inbox: Mutex::new((0..size).map(|_| VecDeque::new()).collect()),
                    arrived: Condvar::new(),
                    calls: AtomicU64::new(0),
                    stats: StatsCell::default(),
                })
                .collect(),
        });
        (0..size).map(|rank| ThreadComm { core: Arc::clone(&core), rank }).collect()
    }

    fn state(&self) -> &RankState {
        &self.core.ranks[self.rank]
    }

    /// Block until rank `from` has posted a message to this rank, then
    /// take it, checking its tag and payload type.
    fn take<V: 'static>(&self, from: usize, tag: Tag) -> V {
        let state = self.state();
        let mut inbox = state.inbox.lock();
        let msg = loop {
            // Checked under the lock: a poisoner wakes receivers without
            // posting anything.
            self.core.barrier.check_poison();
            if let Some(msg) = inbox[from].pop_front() {
                break msg;
            }
            state.arrived.wait(&mut inbox);
        };
        drop(inbox);
        if msg.tag != tag {
            // Fail-loud SPMD-contract check — the ranks issued different collectives; reading on would mix their payloads.
            panic!(
                "rank {}: message from rank {from} carries {:?}, expected {tag:?}",
                self.rank, msg.tag
            );
        }
        // Fail-loud SPMD-contract check — ranks disagreeing on V must not silently reinterpret a payload.
        *msg.value.downcast::<V>().unwrap_or_else(|_| panic!("collective type mismatch"))
    }
}

impl Transport for ThreadComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.core.ranks.len()
    }

    fn barrier(&self) {
        self.core.barrier.wait();
    }

    fn open(&self, kind: Collective) -> Tag {
        Tag { kind, seq: self.state().calls.fetch_add(1, Ordering::Relaxed) + 1 }
    }

    fn send<V: Wire>(&self, to: usize, tag: Tag, value: V) {
        let dest = &self.core.ranks[to];
        dest.inbox.lock()[self.rank].push_back(Msg { tag, value: Box::new(value) });
        dest.arrived.notify_one();
    }

    fn recv<V: Wire>(&self, from: usize, tag: Tag) -> V {
        self.take(from, tag)
    }

    fn with_stats<R>(&self, f: impl FnOnce(&StatsCell) -> R) -> R {
        f(&self.state().stats)
    }
}

/// Poisons the communicator if its rank unwinds, so peers blocked in
/// collectives abort instead of waiting forever for a rank that will
/// never arrive.
struct PoisonOnPanic {
    core: Arc<CommCore>,
    rank: usize,
}

impl Drop for PoisonOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.core.poison(self.rank);
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
                    // guard while unwinding and poisons the communicator.
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
    use crate::stats::{Collective, CommStats, OpStats};
    use crate::{run_spmd, Comm};

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

    #[test]
    fn stats_break_down_by_collective() {
        let views = run_spmd(2, |c| {
            let before = c.stats();
            let _ = c.allgather(vec![0u64; 4]);
            let mut buf = vec![0.0f64; 4];
            c.allreduce_sum_f64(&mut buf);
            let _ = c.exscan_sum_u64(1);
            let _ = c.broadcast(0, if c.rank() == 0 { Some(3u64) } else { None });
            let _ = c.alltoallv(vec![vec![1u8], vec![2u8]]);
            c.stats().since(&before)
        });
        // Each rank sees only its own received bytes: the exscan and the
        // broadcast deliver to rank 1 alone.
        assert_eq!(views[0].ranks, 1);
        assert_eq!(views[0].op(Collective::Exscan), OpStats { ops: 1, rounds: 1, bytes: 0 });
        assert_eq!(views[1].op(Collective::Exscan), OpStats { ops: 1, rounds: 1, bytes: 8 });
        let d = CommStats::from_rank_views(&views);
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
        // p = 8, 4096-element f64 buffer: the per-rank received bytes of
        // the butterfly allreduce must be at least 2× below those of an
        // allgather of the same buffer.
        let (p, m) = (8usize, 4096usize);
        let views = run_spmd(p, |c| {
            let s0 = c.stats();
            let mut buf = vec![1.0f64; m];
            c.allreduce_sum_f64(&mut buf);
            let s1 = c.stats();
            let _ = c.allgather(vec![1.0f64; m]);
            (s1.since(&s0), c.stats().since(&s1))
        });
        for (reduce, gather) in &views {
            let reduce_per_rank = reduce.op(Collective::Allreduce).bytes;
            let gather_per_rank = gather.op(Collective::Allgather).bytes;
            // Exactly log₂(8) = 3 exchange rounds of 4096·8 bytes each...
            assert_eq!(reduce.op(Collective::Allreduce).rounds, 3);
            assert_eq!(reduce_per_rank, 3 * (m as u64) * 8);
            // ...versus (p−1) ring steps of m·8 bytes for the allgather.
            assert_eq!(gather.op(Collective::Allgather).rounds, 7);
            assert_eq!(gather_per_rank, 7 * (m as u64) * 8);
            assert!(
                gather_per_rank >= 2 * reduce_per_rank,
                "allreduce must receive ≥2× fewer bytes than the allgather \
                 ({reduce_per_rank} vs {gather_per_rank})"
            );
        }
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
