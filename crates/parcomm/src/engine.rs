//! The collective engine: every [`Comm`] collective, written once over a
//! point-to-point [`Transport`].
//!
//! A backend provides only point-to-point messaging — `send`, `recv` and
//! `sendrecv` of one typed payload to or from a peer rank, a barrier, a
//! call-sequence counter, and this rank's [`StatsCell`] — and the blanket
//! `impl<X: Transport> Comm for X` below turns that into the MPI-shaped
//! collectives, the way MPICH writes its collectives once over
//! point-to-point messages (Thakur, Rabenseifner & Gropp, IJHPCA 2005):
//!
//! * **allreduce** (generic and the four slice reductions) — recursive
//!   doubling (butterfly). `p` is folded to the largest power of two
//!   `q ≤ p` first (ranks `q..p` pre-reduce into rank `r−q` and receive
//!   the result back at the end), then `log₂ q` pairwise exchanges run
//!   among the first `q` ranks. `combine` is always applied in rank order
//!   — lower rank's partial first — so every rank finishes with the
//!   bitwise-identical value of one fixed reduction tree;
//! * **exscan** — Hillis–Steele: `⌈log₂ p⌉` rounds, rank `r` receiving
//!   from `r − gap`;
//! * **broadcast** — the root sends its value to each peer (one round);
//! * **allgather** and **alltoallv** — a ring of `p−1` steps: step `d`
//!   sends to `r+d` and receives from `r−d`.
//!
//! Because every backend runs this one code, backends agree bitwise at
//! equal `p` by construction, and their counters agree too. Each
//! collective records, into this rank's cell, one op, its round count (a
//! deterministic function of `p`) and the payload bytes this rank
//! received, counted by the single rule [`Wire::payload_bytes`] — never
//! by what a transport puts on its wire. [`Comm::stats`] is therefore a
//! per-rank view on every backend (`ranks = 1`); combine the ranks' views
//! with [`CommStats::from_rank_views`] for job-wide numbers.

use crate::stats::{Collective, CommStats, StatsCell};
use crate::wire::Wire;
use crate::Comm;

/// What every message of one collective call carries besides its payload:
/// the collective kind and the rank's call sequence number. The SPMD
/// contract makes both identical on every rank for the same call, so a
/// receiver that finds a different tag has met a desynchronized peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tag {
    /// The collective the message belongs to.
    pub kind: Collective,
    /// The communicator's call counter at that collective.
    pub seq: u64,
}

/// Point-to-point messaging between the ranks of one communicator — all a
/// backend implements; the collectives come from the engine.
///
/// Messages between each (sender, receiver) pair arrive in the order they
/// were sent, and `recv` checks each one against the tag it expects.
pub trait Transport {
    /// This rank's id in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of ranks.
    fn size(&self) -> usize;

    /// Block until every rank has entered the barrier.
    fn barrier(&self);

    /// Open one collective call of `kind`: advance the call counter and
    /// return the tag every message of the call carries.
    fn open(&self, kind: Collective) -> Tag;

    /// Send `value` to rank `to` (never this rank).
    fn send<V: Wire>(&self, to: usize, tag: Tag, value: V);

    /// Receive the next message from rank `from`, which must carry `tag`.
    fn recv<V: Wire>(&self, from: usize, tag: Tag) -> V;

    /// Send `value` to `to` and receive from `from` as one step; `to ==
    /// from` is a pairwise exchange. A transport whose sends can block
    /// overrides this so that no pair or ring of such steps deadlocks.
    fn sendrecv<V: Wire>(&self, to: usize, tag: Tag, value: V, from: usize) -> V {
        self.send(to, tag, value);
        self.recv(from, tag)
    }

    /// Run `f` on this rank's counter cell.
    fn with_stats<R>(&self, f: impl FnOnce(&StatsCell) -> R) -> R;
}

/// An element-wise combine of two equal-length vectors, lower rank's first.
fn elementwise<T: Copy>(op: impl Fn(T, T) -> T) -> impl Fn(Vec<T>, Vec<T>) -> Vec<T> {
    move |mut lower, higher| {
        for (x, y) in lower.iter_mut().zip(higher) {
            *x = op(*x, y);
        }
        lower
    }
}

impl<X: Transport> Comm for X {
    fn rank(&self) -> usize {
        Transport::rank(self)
    }

    fn size(&self) -> usize {
        Transport::size(self)
    }

    fn barrier(&self) {
        Transport::barrier(self)
    }

    fn allgather<T: Wire>(&self, local: Vec<T>) -> Vec<Vec<T>> {
        let (p, r) = (Transport::size(self), Transport::rank(self));
        let tag = self.open(Collective::Allgather);
        let mut out = vec![Vec::new(); p];
        let mut received = 0;
        for d in 1..p {
            let (to, from) = ((r + d) % p, (r + p - d) % p);
            let got: Vec<T> = self.sendrecv(to, tag, local.clone(), from);
            received += got.payload_bytes();
            out[from] = got;
        }
        out[r] = local;
        self.with_stats(|c| c.record(tag.kind, (p - 1) as u64, received));
        out
    }

    fn alltoallv<T: Wire>(&self, mut sends: Vec<Vec<T>>) -> Vec<Vec<T>> {
        let (p, r) = (Transport::size(self), Transport::rank(self));
        assert_eq!(sends.len(), p, "one send buffer per rank");
        let tag = self.open(Collective::Alltoallv);
        let mut out = vec![Vec::new(); p];
        out[r] = std::mem::take(&mut sends[r]);
        let mut received = 0;
        for d in 1..p {
            let (to, from) = ((r + d) % p, (r + p - d) % p);
            let got: Vec<T> = self.sendrecv(to, tag, std::mem::take(&mut sends[to]), from);
            received += got.payload_bytes();
            out[from] = got;
        }
        self.with_stats(|c| c.record(tag.kind, (p - 1) as u64, received));
        out
    }

    fn stats(&self) -> CommStats {
        self.with_stats(StatsCell::snapshot)
    }

    fn allreduce<T, F>(&self, value: T, combine: F) -> T
    where
        T: Wire,
        F: Fn(T, T) -> T,
    {
        let (p, r) = (Transport::size(self), Transport::rank(self));
        let tag = self.open(Collective::Allreduce);
        let q = 1usize << p.ilog2();
        let extra = p - q;
        let rounds = u64::from(q.trailing_zeros()) + if extra > 0 { 2 } else { 0 };
        let mut received = 0;
        let mut acc = value;
        if r >= q {
            // Folded out: contribute to rank r−q, then take the result back.
            self.send(r - q, tag, acc);
            acc = self.recv(r - q, tag);
            received += acc.payload_bytes();
        } else {
            if r < extra {
                let theirs: T = self.recv(r + q, tag);
                received += theirs.payload_bytes();
                acc = combine(acc, theirs);
            }
            let mut gap = 1;
            while gap < q {
                let partner = r ^ gap;
                let theirs: T = self.sendrecv(partner, tag, acc.clone(), partner);
                received += theirs.payload_bytes();
                acc = if partner < r { combine(theirs, acc) } else { combine(acc, theirs) };
                gap <<= 1;
            }
            if r < extra {
                self.send(r + q, tag, acc.clone());
            }
        }
        self.with_stats(|c| c.record(tag.kind, rounds, received));
        acc
    }

    fn allreduce_sum_f64(&self, buf: &mut [f64]) {
        buf.copy_from_slice(&self.allreduce(buf.to_vec(), elementwise(|a, b| a + b)));
    }

    fn allreduce_max_f64(&self, buf: &mut [f64]) {
        buf.copy_from_slice(&self.allreduce(buf.to_vec(), elementwise(f64::max)));
    }

    fn allreduce_min_f64(&self, buf: &mut [f64]) {
        buf.copy_from_slice(&self.allreduce(buf.to_vec(), elementwise(f64::min)));
    }

    fn allreduce_sum_u64(&self, buf: &mut [u64]) {
        buf.copy_from_slice(&self.allreduce(buf.to_vec(), elementwise(u64::wrapping_add)));
    }

    fn exscan_sum_u64(&self, value: u64) -> u64 {
        let (p, r) = (Transport::size(self), Transport::rank(self));
        let tag = self.open(Collective::Exscan);
        let (mut exclusive, mut inclusive) = (0u64, value);
        let (mut gap, mut rounds, mut received) = (1, 0, 0);
        while gap < p {
            // Send downstream first: the sends form a DAG toward higher
            // ranks, so blocking sends cannot cycle.
            if r + gap < p {
                self.send(r + gap, tag, inclusive);
            }
            if r >= gap {
                let theirs: u64 = self.recv(r - gap, tag);
                received += theirs.payload_bytes();
                exclusive += theirs;
                inclusive += theirs;
            }
            gap <<= 1;
            rounds += 1;
        }
        self.with_stats(|c| c.record(tag.kind, rounds, received));
        exclusive
    }

    fn broadcast<T: Wire>(&self, root: usize, value: Option<T>) -> T {
        let (p, r) = (Transport::size(self), Transport::rank(self));
        debug_assert!(root < p);
        let tag = self.open(Collective::Broadcast);
        let (out, received) = if r == root {
            // geo-analyze: allow(panic-in-spmd): fail-loud API-contract check — the root must supply a value; a silent default would broadcast garbage.
            let v = value.expect("root must supply a value");
            for s in (0..p).filter(|&s| s != root) {
                self.send(s, tag, v.clone());
            }
            (v, 0)
        } else {
            let v: T = self.recv(root, tag);
            let bytes = v.payload_bytes();
            (v, bytes)
        };
        self.with_stats(|c| c.record(tag.kind, u64::from(p > 1), received));
        out
    }
}
