//! Processes-as-ranks transport: the real-wires SPMD backend.
//!
//! [`run_spmd_proc`] forks `p` worker **OS processes** and runs the same
//! closure on all of them, exactly like [`run_spmd`](crate::run_spmd) does
//! with threads — except nothing is shared: every message crosses a
//! process boundary through Unix-domain sockets, so the α–β numbers the
//! substrate reports can be *measured* against real kernel round-trips
//! instead of modeled from counters alone.
//!
//! The substrate has three layers:
//!
//! * **Rendezvous** — the parent forks workers that meet in a private
//!   socket directory: each rank binds its own listener, dials every
//!   lower rank (with retry until the peer has bound), and both sides
//!   exchange a `HELLO` frame carrying the rank id and a per-job token,
//!   yielding a full mesh of per-peer streams. A control socketpair per
//!   rank (created before the fork) carries the final result or panic
//!   back to the parent.
//! * **Framing** — every message is `[magic, kind, seq, len]` +
//!   payload. `kind` is the collective, `seq` a per-communicator call
//!   counter: because SPMD ranks issue collectives in identical order, a
//!   mismatch means the streams desynchronized and the worker fails loudly
//!   instead of deserializing garbage. Payloads are [`Wire`]-encoded.
//! * **Transport** — [`ProcComm`] implements [`Transport`]: `send`,
//!   `recv` and `sendrecv` of one encoded frame. The collectives on top
//!   are the [engine](crate::engine)'s, the same code the thread backend
//!   runs, so results are **bitwise-equal** to the thread backend at the
//!   same `p` by construction, and so are the per-rank counters.
//!
//! Failure semantics (the part a shared-memory simulation cannot give
//! you): a rank that panics reports through its control socket and exits;
//! a rank that *dies* (kill -9, `process::exit`) just disappears — its
//! sockets close, peers' blocking reads return EOF, and they panic with a
//! "peer hung up" error that propagates the failure instead of hanging
//! the job. The parent additionally enforces a deadline
//! (`GEO_PROC_TIMEOUT_SECS`, default 120 s) and SIGKILLs stragglers, so a
//! genuinely hung worker also becomes a clean [`ProcError`].
//!
//! Deadlock avoidance on the wire: frames at or below [`EAGER_MAX`] bytes
//! are written eagerly (they fit the socket buffer, so the write cannot
//! block) and read afterwards; larger pairwise exchanges fall back to a
//! rank-ordered rendezvous (lower rank writes first while the higher rank
//! drains), and larger ring steps overlap the write on a scoped thread —
//! the same eager/rendezvous split real MPI implementations use.

#![cfg(unix)]

use std::cell::Cell;
use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime};

use crate::engine::{Tag, Transport};
use crate::stats::{Collective, StatsCell};
use crate::wire::{from_wire, to_wire, Wire};

/// Largest frame payload written eagerly (before reading): must stay
/// comfortably under the kernel's default Unix-socket buffer so an eager
/// write can never block against an un-drained peer.
const EAGER_MAX: usize = 64 * 1024;

/// Seconds a job may run before the parent kills the workers
/// (override with `GEO_PROC_TIMEOUT_SECS`).
const DEFAULT_TIMEOUT_SECS: f64 = 120.0;

/// Seconds the mesh rendezvous may take before a worker gives up.
const RENDEZVOUS_TIMEOUT_SECS: f64 = 20.0;

/// Raw process primitives, declared directly against the platform libc
/// that std already links (the workspace builds offline; no `libc` crate).
mod sys {
    extern "C" {
        pub fn fork() -> i32;
        pub fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
        pub fn kill(pid: i32, sig: i32) -> i32;
    }

    pub const SIGKILL: i32 = 9;

    /// Decode a `waitpid` status into a human-readable failure, or `None`
    /// for a clean zero exit.
    pub fn failure_of(status: i32) -> Option<String> {
        if status & 0x7f == 0 {
            let code = (status >> 8) & 0xff;
            (code != 0).then(|| format!("exited with code {code}"))
        } else {
            Some(format!("killed by signal {}", status & 0x7f))
        }
    }
}

/// Why a multi-process SPMD job failed.
#[derive(Debug)]
pub enum ProcError {
    /// The workers could not be spawned or the rendezvous directory could
    /// not be set up.
    Spawn(io::Error),
    /// A rank died, panicked, or broke the protocol; `detail` carries the
    /// panic message or exit status.
    RankFailed {
        /// The failing rank.
        rank: usize,
        /// Panic message, exit status, or protocol violation.
        detail: String,
    },
    /// A rank did not report a result before the job deadline and was
    /// killed.
    Timeout {
        /// The first rank that missed the deadline.
        rank: usize,
        /// The deadline that was enforced.
        seconds: f64,
    },
    /// A [`crate::CheckedComm`] lockstep check failed: the ranks diverged
    /// from the single SPMD call sequence (different collective, element
    /// count, or root). Carries the typed report instead of the frame
    /// desync / timeout the divergence would otherwise decay into.
    Protocol {
        /// The first rank whose report reached the parent.
        rank: usize,
        /// The structured divergence report (identical on every rank).
        error: crate::checked::ProtocolError,
    },
}

impl std::fmt::Display for ProcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcError::Spawn(e) => write!(f, "failed to spawn SPMD workers: {e}"),
            ProcError::RankFailed { rank, detail } => {
                write!(f, "SPMD rank {rank} failed: {detail}")
            }
            ProcError::Timeout { rank, seconds } => {
                write!(f, "SPMD rank {rank} missed the {seconds}s job deadline and was killed")
            }
            ProcError::Protocol { rank, error } => {
                write!(f, "SPMD rank {rank} reported a protocol violation: {error}")
            }
        }
    }
}

impl std::error::Error for ProcError {}

/// Frame kinds on the wire (one byte).
mod kind {
    pub const HELLO: u8 = 1;
    pub const BARRIER: u8 = 2;
    pub const ALLGATHER: u8 = 3;
    pub const ALLREDUCE: u8 = 4;
    pub const BROADCAST: u8 = 5;
    pub const EXSCAN: u8 = 6;
    pub const ALLTOALLV: u8 = 7;
    pub const PROBE: u8 = 8;
    pub const RESULT: u8 = 9;
    pub const PANIC: u8 = 10;
    /// A worker's `CheckedComm` lockstep check failed: the payload is a
    /// wire-encoded [`crate::checked::ProtocolError`], not a panic string.
    pub const PROTOCOL: u8 = 11;
}

/// Length-prefixed framing over a stream: `[magic u32][kind u8][pad ×3]
/// [seq u64][len u64]` followed by `len` payload bytes.
mod frame {
    use super::*;

    const MAGIC: u32 = 0x47454F46; // "GEOF"
    pub const HEADER: usize = 24;
    /// Upper bound on a single frame payload (8 GiB): a corrupt length
    /// fails fast instead of attempting a matching allocation.
    const MAX_LEN: u64 = 1 << 33;

    pub fn write(stream: &UnixStream, kind: u8, seq: u64, payload: &[u8]) -> io::Result<()> {
        let mut head = [0u8; HEADER];
        head[..4].copy_from_slice(&MAGIC.to_le_bytes());
        head[4] = kind;
        head[8..16].copy_from_slice(&seq.to_le_bytes());
        head[16..24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        let mut w = stream;
        if payload.len() <= EAGER_MAX {
            // One buffer, one write: eager frames must hit the socket in a
            // single syscall so the "cannot block" reasoning holds.
            let mut buf = Vec::with_capacity(HEADER + payload.len());
            buf.extend_from_slice(&head);
            buf.extend_from_slice(payload);
            w.write_all(&buf)
        } else {
            w.write_all(&head)?;
            w.write_all(payload)
        }
    }

    /// Little-endian u32 at byte `off` of a header. Infallible by
    /// construction: callers pass compile-time offsets inside the
    /// fixed-size `[u8; HEADER]`.
    pub fn field_u32(head: &[u8; HEADER], off: usize) -> u32 {
        let mut b = [0u8; 4];
        b.copy_from_slice(&head[off..off + 4]);
        u32::from_le_bytes(b)
    }

    /// Little-endian u64 at byte `off` of a header.
    pub fn field_u64(head: &[u8; HEADER], off: usize) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&head[off..off + 8]);
        u64::from_le_bytes(b)
    }

    /// Read one frame, requiring `kind` and `seq` to match what the SPMD
    /// call order predicts.
    pub fn read(stream: &UnixStream, kind: u8, seq: u64) -> io::Result<Vec<u8>> {
        let mut r = stream;
        let mut head = [0u8; HEADER];
        r.read_exact(&mut head)?;
        let magic = field_u32(&head, 0);
        let got_kind = head[4];
        let got_seq = field_u64(&head, 8);
        let len = field_u64(&head, 16);
        if magic != MAGIC || got_kind != kind || got_seq != seq || len > MAX_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "frame desync: got (magic {magic:#x}, kind {got_kind}, seq {got_seq}, \
                     len {len}), expected (kind {kind}, seq {seq})"
                ),
            ));
        }
        let mut payload = vec![0u8; len as usize];
        r.read_exact(&mut payload)?;
        Ok(payload)
    }
}

/// One rank's handle into a processes-as-ranks communicator: a full mesh
/// of per-peer Unix-domain streams plus this rank's counters.
#[derive(Debug)]
pub struct ProcComm {
    rank: usize,
    size: usize,
    /// `peers[s]` is the stream to rank `s` (`None` at `s == rank`).
    peers: Vec<Option<UnixStream>>,
    /// Collective call counter; stamped into every frame of a call.
    seq: Cell<u64>,
    stats: StatsCell,
}

impl ProcComm {
    /// Worker-side rendezvous: bind own listener, dial every lower rank,
    /// accept every higher rank, handshake with `HELLO{rank}` frames
    /// carrying the job token.
    fn connect(dir: &Path, rank: usize, size: usize, job: u64) -> io::Result<ProcComm> {
        let deadline = Instant::now() + Duration::from_secs_f64(RENDEZVOUS_TIMEOUT_SECS);
        let sock = |r: usize| dir.join(format!("r{r}.sock"));
        let mut peers: Vec<Option<UnixStream>> = (0..size).map(|_| None).collect();
        let listener = UnixListener::bind(sock(rank))?;
        listener.set_nonblocking(true)?;
        // Dial lower ranks, retrying until the peer has bound its path.
        #[allow(clippy::needless_range_loop)] // `s` is a rank id, not just an index
        for s in 0..rank {
            let stream = loop {
                match UnixStream::connect(sock(s)) {
                    Ok(st) => break st,
                    Err(e) => {
                        if Instant::now() >= deadline {
                            return Err(io::Error::new(
                                e.kind(),
                                format!("rank {rank}: rendezvous with rank {s} timed out: {e}"),
                            ));
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            };
            frame::write(&stream, kind::HELLO, job, &to_wire(&(rank as u64)))?;
            peers[s] = Some(stream);
        }
        // Accept higher ranks; the hello tells us which one dialed in.
        for _ in rank + 1..size {
            let stream = loop {
                match listener.accept() {
                    Ok((st, _)) => break st,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if Instant::now() >= deadline {
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                format!("rank {rank}: rendezvous accept timed out"),
                            ));
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => return Err(e),
                }
            };
            stream.set_nonblocking(false)?;
            stream.set_read_timeout(Some(deadline.saturating_duration_since(Instant::now())))?;
            let hello = frame::read(&stream, kind::HELLO, job)?;
            let s = from_wire::<u64>(&hello) as usize;
            if s <= rank || s >= size || peers[s].is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("rank {rank}: bogus hello from rank {s}"),
                ));
            }
            stream.set_read_timeout(None)?;
            peers[s] = Some(stream);
        }
        Ok(ProcComm { rank, size, peers, seq: Cell::new(0), stats: StatsCell::default() })
    }

    fn peer(&self, r: usize) -> &UnixStream {
        // Infallible — the mesh is full except s == rank, and no collective addresses self.
        self.peers[r].as_ref().unwrap_or_else(|| panic!("rank {} has no stream to {r}", self.rank))
    }

    /// Next collective sequence number (stamped into this call's frames).
    fn next_seq(&self) -> u64 {
        let s = self.seq.get() + 1;
        self.seq.set(s);
        s
    }

    fn send_frame(&self, to: usize, k: u8, seq: u64, payload: &[u8]) {
        frame::write(self.peer(to), k, seq, payload).unwrap_or_else(|e| {
            // Deliberate fail-loud abort — a wire fault means a peer died; the parent reports a ProcError (DESIGN.md §10).
            panic!("rank {}: send to rank {to} failed (kind {k}, seq {seq}): {e}", self.rank)
        });
    }

    fn recv_frame(&self, from: usize, k: u8, seq: u64) -> Vec<u8> {
        frame::read(self.peer(from), k, seq).unwrap_or_else(|e| {
            let why = if e.kind() == io::ErrorKind::UnexpectedEof {
                "peer hung up mid-collective (rank died?)".to_string()
            } else {
                e.to_string()
            };
            // Deliberate fail-loud abort — EOF here is the designed dead-peer signal; the parent reports a ProcError (DESIGN.md §10).
            panic!("rank {}: recv from rank {from} failed (kind {k}, seq {seq}): {why}", self.rank)
        })
    }

    /// Symmetric pairwise exchange with `peer` (both sides send
    /// same-kind frames). Eager for small payloads; rank-ordered
    /// write-then-read rendezvous for large ones, so neither side can
    /// block forever against a full socket buffer.
    fn exchange(&self, peer: usize, k: u8, seq: u64, payload: &[u8]) -> Vec<u8> {
        if payload.len() <= EAGER_MAX || self.rank < peer {
            self.send_frame(peer, k, seq, payload);
            self.recv_frame(peer, k, seq)
        } else {
            let got = self.recv_frame(peer, k, seq);
            self.send_frame(peer, k, seq, payload);
            got
        }
    }

    /// Send `payload` to `to` while receiving from `from` (a ring step, or
    /// a pairwise exchange when `to == from`). Large payloads overlap the
    /// write on a scoped thread because a ring of blocking writes can
    /// cycle.
    fn sendrecv_frame(&self, to: usize, k: u8, seq: u64, payload: &[u8], from: usize) -> Vec<u8> {
        if payload.len() <= EAGER_MAX {
            self.send_frame(to, k, seq, payload);
            self.recv_frame(from, k, seq)
        } else {
            let to_stream = self.peer(to);
            let me = self.rank;
            std::thread::scope(|sc| {
                sc.spawn(move || {
                    frame::write(to_stream, k, seq, payload).unwrap_or_else(|e| {
                        // Deliberate fail-loud abort — same dead-peer policy as send_frame() (DESIGN.md §10).
                        panic!("rank {me}: send to rank {to} failed (kind {k}, seq {seq}): {e}")
                    });
                });
                self.recv_frame(from, k, seq)
            })
        }
    }

    /// Raw pairwise exchange with rank `rank ^ 1`, outside the collective
    /// bookkeeping: the calibration probe [`measure_alpha_beta`] uses this
    /// to time exactly one frame each way with no serialization overhead.
    pub fn probe_exchange(&self, payload: &[u8]) -> Vec<u8> {
        assert!(self.size >= 2, "probe needs a partner rank");
        let partner = self.rank ^ 1;
        let seq = self.next_seq();
        self.exchange(partner, kind::PROBE, seq, payload)
    }
}

/// The frame kind of a collective's messages.
fn frame_kind(c: Collective) -> u8 {
    match c {
        Collective::Allgather => kind::ALLGATHER,
        Collective::Allreduce => kind::ALLREDUCE,
        Collective::Broadcast => kind::BROADCAST,
        Collective::Exscan => kind::EXSCAN,
        Collective::Alltoallv => kind::ALLTOALLV,
    }
}

impl Transport for ProcComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn barrier(&self) {
        // Dissemination barrier: ⌈log₂ p⌉ rounds of 0-byte frames; rank r
        // talks to r±gap for doubling gaps. It records no stats.
        let p = self.size;
        let seq = self.next_seq();
        let mut gap = 1;
        while gap < p {
            let to = (self.rank + gap) % p;
            let from = (self.rank + p - gap) % p;
            let _ = self.sendrecv_frame(to, kind::BARRIER, seq, &[], from);
            gap <<= 1;
        }
    }

    fn open(&self, kind: Collective) -> Tag {
        Tag { kind, seq: self.next_seq() }
    }

    fn send<V: Wire>(&self, to: usize, tag: Tag, value: V) {
        self.send_frame(to, frame_kind(tag.kind), tag.seq, &to_wire(&value));
    }

    fn recv<V: Wire>(&self, from: usize, tag: Tag) -> V {
        from_wire(&self.recv_frame(from, frame_kind(tag.kind), tag.seq))
    }

    fn sendrecv<V: Wire>(&self, to: usize, tag: Tag, value: V, from: usize) -> V {
        let got = self.sendrecv_frame(to, frame_kind(tag.kind), tag.seq, &to_wire(&value), from);
        from_wire(&got)
    }

    fn with_stats<R>(&self, f: impl FnOnce(&StatsCell) -> R) -> R {
        f(&self.stats)
    }
}

/// Monotone job counter, so concurrent/nested jobs in one process get
/// distinct rendezvous directories.
static JOB_COUNTER: AtomicU64 = AtomicU64::new(0);

fn job_timeout() -> f64 {
    std::env::var("GEO_PROC_TIMEOUT_SECS")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
        .unwrap_or(DEFAULT_TIMEOUT_SECS)
}

/// Worker body after the fork: rendezvous, run `f`, report the result (or
/// the panic message) over the control socket, and exit without returning
/// into the caller's stack.
fn child_main<R, F>(ctrl: UnixStream, dir: PathBuf, rank: usize, size: usize, job: u64, f: F) -> !
where
    R: Wire,
    F: Fn(ProcComm) -> R,
{
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let comm = ProcComm::connect(&dir, rank, size, job)
            // Deliberate fail-loud abort — caught by this catch_unwind and reported to the parent as a PANIC frame.
            .unwrap_or_else(|e| panic!("rank {rank}: rendezvous failed: {e}"));
        f(comm)
    }));
    let code = match outcome {
        Ok(v) => {
            let _ = frame::write(&ctrl, kind::RESULT, job, &to_wire(&v));
            0
        }
        Err(payload) => {
            // A CheckedComm lockstep report crosses the control socket
            // typed, not flattened to a panic string.
            if let Some(pe) = payload.downcast_ref::<crate::checked::ProtocolError>() {
                let _ = frame::write(&ctrl, kind::PROTOCOL, job, &to_wire(pe));
                102
            } else {
                let msg: &str = if let Some(s) = payload.downcast_ref::<&str>() {
                    s
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s
                } else {
                    "worker panicked (non-string payload)"
                };
                let _ = frame::write(&ctrl, kind::PANIC, job, msg.as_bytes());
                101
            }
        }
    };
    std::process::exit(code)
}

/// Run `f` as an SPMD program on `p` ranks, each a forked **worker
/// process**, and return the per-rank results indexed by rank.
///
/// The closure is inherited through `fork`, so like [`run_spmd`]
/// (crate::run_spmd) it can capture arbitrary borrowed data — but all
/// rank-to-rank communication goes over Unix-domain sockets and the
/// result crosses back to the parent [`Wire`]-encoded. Any rank that
/// panics, dies, or hangs turns into an `Err` here instead of a deadlock:
/// peers of a dead rank fail on EOF, and the parent SIGKILLs the job at
/// the `GEO_PROC_TIMEOUT_SECS` deadline (default 120 s).
pub fn run_spmd_proc<R, F>(p: usize, f: F) -> Result<Vec<R>, ProcError>
where
    R: Wire,
    F: Fn(ProcComm) -> R,
{
    assert!(p > 0, "communicator needs at least one rank");
    let job = JOB_COUNTER.fetch_add(1, Ordering::Relaxed);
    let token = {
        let nanos = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64)
            .unwrap_or(0);
        (std::process::id() as u64) << 32 ^ job << 8 ^ nanos
    };
    let dir = std::env::temp_dir().join(format!("geo-spmd-{}-{job}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(ProcError::Spawn)?;

    let mut parents: Vec<UnixStream> = Vec::with_capacity(p);
    let mut pids: Vec<i32> = Vec::with_capacity(p);
    let kill_all = |pids: &[i32]| {
        for &pid in pids {
            // SAFETY: plain kill(2) on a pid this parent forked and has
            // not yet reaped; on an already-dead pid it is a harmless
            // ESRCH. No memory is touched.
            unsafe {
                sys::kill(pid, sys::SIGKILL);
            }
        }
        for &pid in pids {
            let mut status = 0i32;
            // SAFETY: waitpid(2) on a child of this process; the status
            // out-pointer refers to a live i32 on this stack frame.
            unsafe {
                sys::waitpid(pid, &mut status, 0);
            }
        }
    };
    for rank in 0..p {
        let (pa, ch) = match UnixStream::pair() {
            Ok(pair) => pair,
            Err(e) => {
                kill_all(&pids);
                let _ = std::fs::remove_dir_all(&dir);
                return Err(ProcError::Spawn(e));
            }
        };
        // SAFETY: direct fork(2). The child never returns into the
        // caller's stack: it drops the inherited parent-side endpoints
        // and diverges into `child_main`, which ends in process::exit —
        // so no foreign Drop impls or locks from the parent run in the
        // child, and the parent side only inspects the returned pid.
        let pid = unsafe { sys::fork() };
        if pid < 0 {
            kill_all(&pids);
            let _ = std::fs::remove_dir_all(&dir);
            return Err(ProcError::Spawn(io::Error::last_os_error()));
        }
        if pid == 0 {
            // Worker: close the inherited parent-side endpoints of ranks
            // forked before us, keep only our child end, and never return.
            drop(std::mem::take(&mut parents));
            drop(pa);
            child_main(ch, dir, rank, p, token, f)
        }
        parents.push(pa);
        drop(ch);
        pids.push(pid);
    }

    // Collect one result or panic frame per rank, under a job deadline.
    let timeout = job_timeout();
    let deadline = Instant::now() + Duration::from_secs_f64(timeout);
    let mut failure: Option<ProcError> = None;
    let mut payloads: Vec<Option<Vec<u8>>> = (0..p).map(|_| None).collect();
    for (rank, ctrl) in parents.iter().enumerate() {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            failure.get_or_insert(ProcError::Timeout { rank, seconds: timeout });
            continue;
        }
        // `set_read_timeout` rejects a zero duration; remaining > 0 here.
        if ctrl.set_read_timeout(Some(remaining)).is_err() {
            failure.get_or_insert(ProcError::RankFailed {
                rank,
                detail: "control socket unusable".into(),
            });
            continue;
        }
        let mut head = [0u8; frame::HEADER];
        let outcome = (&mut (&*ctrl)).read_exact(&mut head).and_then(|()| {
            let k = head[4];
            let len = frame::field_u64(&head, 16) as usize;
            let mut payload = vec![0u8; len];
            (&mut (&*ctrl)).read_exact(&mut payload)?;
            Ok((k, payload))
        });
        match outcome {
            Ok((k, payload)) if k == kind::RESULT => payloads[rank] = Some(payload),
            Ok((k, payload)) if k == kind::PANIC => {
                failure.get_or_insert(ProcError::RankFailed {
                    rank,
                    detail: String::from_utf8_lossy(&payload).into_owned(),
                });
            }
            Ok((k, payload)) if k == kind::PROTOCOL => {
                failure.get_or_insert(ProcError::Protocol { rank, error: from_wire(&payload) });
            }
            Ok((k, _)) => {
                failure.get_or_insert(ProcError::RankFailed {
                    rank,
                    detail: format!("protocol violation: unexpected frame kind {k}"),
                });
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                failure.get_or_insert(ProcError::Timeout { rank, seconds: timeout });
            }
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                failure.get_or_insert(ProcError::RankFailed {
                    rank,
                    detail: "worker process died without reporting a result".into(),
                });
            }
            Err(e) => {
                failure.get_or_insert(ProcError::RankFailed { rank, detail: e.to_string() });
            }
        }
    }

    if failure.is_some() {
        // Stragglers may be blocked on a dead peer; put the job down hard.
        kill_all(&pids);
    } else {
        for (rank, &pid) in pids.iter().enumerate() {
            let mut status = 0i32;
            // SAFETY: waitpid(2) on a child this parent forked and has
            // not reaped; the status out-pointer is a live stack i32.
            let r = unsafe { sys::waitpid(pid, &mut status, 0) };
            if r == pid {
                if let Some(detail) = sys::failure_of(status) {
                    failure.get_or_insert(ProcError::RankFailed { rank, detail });
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(e) = failure {
        return Err(e);
    }
    Ok(payloads
        .into_iter()
        // Infallible — reached only when `failure` is None, which requires a RESULT frame from every rank.
        .map(|b| from_wire::<R>(&b.expect("result frame present for every rank")))
        .collect())
}

/// Measured α–β constants of the process substrate, from wire-level
/// probes.
#[derive(Debug, Clone)]
pub struct MeasuredAlphaBeta {
    /// Seconds per synchronization round (one pairwise exchange):
    /// intercept of the probe line.
    pub alpha: f64,
    /// Seconds per payload byte received by a rank: slope of the probe
    /// line in the bandwidth-bound regime.
    pub beta: f64,
    /// Raw probe table: `(message bytes, seconds per exchange)`.
    pub samples: Vec<(u64, f64)>,
}

/// Measure α (per-round latency) and β (per-byte cost) of the real
/// socket substrate with a two-rank ping-pong and streaming probe:
/// `reps` timed pairwise exchanges at each message size; α comes from the
/// small-message plateau, β from the slope between the largest sizes.
pub fn measure_alpha_beta(reps: usize) -> Result<MeasuredAlphaBeta, ProcError> {
    assert!(reps >= 1);
    let sizes: [usize; 6] = [8, 1024, 8192, 65536, 262144, 1048576];
    let mut results = run_spmd_proc(2, |c| {
        let mut samples: Vec<(u64, f64)> = Vec::new();
        for &s in &sizes {
            let payload = vec![0u8; s];
            for _ in 0..3 {
                let _ = c.probe_exchange(&payload);
            }
            let t = Instant::now();
            for _ in 0..reps {
                let _ = c.probe_exchange(&payload);
            }
            samples.push((s as u64, t.elapsed().as_secs_f64() / reps as f64));
        }
        samples
    })?;
    let samples = results.remove(0);
    let (s_lo, t_lo) = samples[samples.len() - 2];
    let (s_hi, t_hi) = samples[samples.len() - 1];
    let beta = ((t_hi - t_lo) / (s_hi - s_lo) as f64).max(0.0);
    let alpha = samples
        .iter()
        .take(2)
        .map(|&(s, t)| (t - beta * s as f64).max(0.0))
        .sum::<f64>()
        / 2.0;
    Ok(MeasuredAlphaBeta { alpha, beta, samples })
}

#[cfg(test)]
mod tests {
    use super::{measure_alpha_beta, run_spmd_proc, ProcError};
    use crate::{Collective, Comm, CommStats};

    #[test]
    fn proc_allreduce_sum_matches_serial() {
        let results = run_spmd_proc(4, |c| {
            let mut buf = vec![c.rank() as f64, 1.0];
            c.allreduce_sum_f64(&mut buf);
            buf
        })
        .expect("job runs");
        for r in results {
            assert_eq!(r, vec![6.0, 4.0]);
        }
    }

    /// Every collective kind once, on shapes that stress the schedules:
    /// non-associative f64 sums, uneven and empty allgather contributions,
    /// empty alltoallv buffers, a non-zero broadcast root. Floats come back
    /// as their bits, with this rank's counters for the whole sequence.
    #[allow(clippy::type_complexity)]
    fn every_collective<C: Comm>(
        c: &C,
    ) -> ((Vec<u64>, Vec<u64>, Vec<u64>), (Vec<u64>, (u64, u64), u64), (Vec<Vec<u32>>, Vec<Vec<u16>>, Vec<u64>), CommStats)
    {
        let (p, r) = (c.size(), c.rank());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let before = c.stats();
        let mut sum: Vec<f64> = (0..9).map(|i| 0.1 * (r * 13 + i) as f64).collect();
        c.allreduce_sum_f64(&mut sum);
        let mut max: Vec<f64> = (0..3).map(|i| (r as f64 - i as f64) * 0.3).collect();
        c.allreduce_max_f64(&mut max);
        let mut min = max.iter().map(|x| -x * 1.7).collect::<Vec<f64>>();
        c.allreduce_min_f64(&mut min);
        let mut counts = vec![r as u64, u64::MAX - r as u64, 1];
        c.allreduce_sum_u64(&mut counts);
        let (top, total) = c.allreduce((((r * 7) % p) as u64, 0.1 * r as f64 + 0.3), |a, b| {
            (a.0.max(b.0), a.1 + b.1)
        });
        let ex = c.exscan_sum_u64(r as u64 + 3);
        let gathered = c.allgather(vec![r as u32; (r * 3) % 4]);
        let sends = (0..p)
            .map(|d| if (r + d) % 2 == 0 { Vec::new() } else { vec![(100 * r + d) as u16; d] })
            .collect();
        let routed = c.alltoallv(sends);
        let root = p - 1;
        let bcast = c.broadcast(root, (r == root).then(|| vec![7u64, 8, 9]));
        (
            (bits(&sum), bits(&max), bits(&min)),
            (counts, (top, total.to_bits()), ex),
            (gathered, routed, bcast),
            c.stats().since(&before),
        )
    }

    #[test]
    fn proc_collectives_match_thread_comm_bitwise() {
        // One engine under both transports: bitwise-identical results and
        // identical per-rank counters, power-of-two and non-power-of-two
        // rank counts alike.
        for p in [1usize, 2, 3, 5] {
            let thread = crate::run_spmd(p, |c| every_collective(&c));
            let procs = run_spmd_proc(p, |c| every_collective(&c)).expect("job runs");
            assert_eq!(thread.len(), p);
            for (r, (t, q)) in thread.iter().zip(&procs).enumerate() {
                assert_eq!(t.0, q.0, "p={p} rank {r}: f64 reductions disagree bitwise");
                assert_eq!(t.1, q.1, "p={p} rank {r}: u64/generic reductions or exscan disagree");
                assert_eq!(t.2, q.2, "p={p} rank {r}: allgather/alltoallv/broadcast disagree");
                assert_eq!(t.3, q.3, "p={p} rank {r}: per-rank counters disagree");
                assert_eq!(t.3.collectives(), 9);
                assert_eq!(t.1 .2, (0..r as u64).map(|s| s + 3).sum::<u64>());
                assert_eq!(t.2 .2, vec![7, 8, 9]);
            }
            // Ring allgather and alltoallv take p−1 steps on every backend.
            let rounds = thread[0].3.op(Collective::Allgather).rounds;
            assert_eq!(rounds, p as u64 - 1, "p={p}");
        }
    }

    #[test]
    fn proc_allgather_and_alltoallv_route_correctly() {
        let results = run_spmd_proc(4, |c| {
            let all = c.allgather(vec![c.rank() as u64; c.rank() + 1]);
            let sends: Vec<Vec<u64>> =
                (0..4).map(|d| vec![100 * c.rank() as u64 + d as u64]).collect();
            let recv = c.alltoallv(sends);
            (all, recv)
        })
        .expect("job runs");
        for (r, (all, recv)) in results.iter().enumerate() {
            assert_eq!(all.iter().map(|v| v.len()).collect::<Vec<_>>(), vec![1, 2, 3, 4]);
            for (s, v) in recv.iter().enumerate() {
                assert_eq!(v, &vec![100 * s as u64 + r as u64]);
            }
        }
    }

    #[test]
    fn proc_broadcast_and_barrier() {
        let results = run_spmd_proc(3, |c| {
            c.barrier();
            let v = c.broadcast(1, (c.rank() == 1).then(|| vec![5u32, 6]));
            c.barrier();
            v
        })
        .expect("job runs");
        for r in results {
            assert_eq!(r, vec![5, 6]);
        }
    }

    #[test]
    fn proc_single_rank_works() {
        let results = run_spmd_proc(1, |c| {
            let mut buf = vec![3.0];
            c.allreduce_sum_f64(&mut buf);
            (buf[0], c.exscan_sum_u64(9), c.broadcast(0, Some(4u32)))
        })
        .expect("job runs");
        assert_eq!(results, vec![(3.0, 0, 4)]);
    }

    #[test]
    fn proc_large_payload_exchange() {
        // Above EAGER_MAX: exercises the rank-ordered rendezvous and the
        // scoped-thread ring path.
        let n = 40_000; // 320 KB of f64 per message
        let results = run_spmd_proc(2, |c| {
            let mut buf = vec![1.5f64; n];
            c.allreduce_sum_f64(&mut buf);
            let all = c.allgather(vec![c.rank() as u64; n]);
            (buf[0], all[1][0])
        })
        .expect("job runs");
        for (sum, g) in results {
            assert_eq!(sum, 3.0);
            assert_eq!(g, 1);
        }
    }

    #[test]
    fn proc_panicking_rank_is_a_clean_error_not_a_hang() {
        let err = run_spmd_proc(3, |c| {
            if c.rank() == 1 {
                panic!("rank 1 exploded");
            }
            let mut buf = vec![1.0];
            c.allreduce_sum_f64(&mut buf);
            buf[0]
        })
        .expect_err("job must fail");
        let msg = err.to_string();
        assert!(msg.contains("exploded") || msg.contains("rank"), "unhelpful error: {msg}");
    }

    #[test]
    fn proc_killed_rank_is_a_clean_error_not_a_hang() {
        // A worker that dies without unwinding (exit ≈ kill -9 as far as
        // peers can tell: sockets close, no panic report).
        let err = run_spmd_proc(3, |c| {
            if c.rank() == 2 {
                std::process::exit(7);
            }
            let mut buf = vec![1.0];
            c.allreduce_sum_f64(&mut buf);
            buf[0]
        })
        .expect_err("job must fail");
        match err {
            ProcError::RankFailed { .. } | ProcError::Timeout { .. } => {}
            other => panic!("unexpected error shape: {other}"),
        }
    }

    #[test]
    fn proc_stats_are_per_rank_views() {
        let results = run_spmd_proc(2, |c| {
            let before = c.stats();
            let mut buf = vec![0.0f64; 4];
            c.allreduce_sum_f64(&mut buf);
            let d = c.stats().since(&before);
            (d.op(Collective::Allreduce).rounds, d.op(Collective::Allreduce).bytes)
        })
        .expect("job runs");
        for (rounds, bytes) in results {
            assert_eq!(rounds, 1, "p=2 butterfly is one round");
            // Four f64 payload elements; the frame's length prefix is not
            // counted.
            assert_eq!(bytes, 32);
        }
    }

    #[test]
    fn measured_alpha_beta_is_sane() {
        let m = measure_alpha_beta(20).expect("calibration runs");
        assert!(m.alpha > 0.0 && m.alpha < 0.1, "alpha {} out of range", m.alpha);
        assert!(m.beta >= 0.0 && m.beta < 1e-4, "beta {} out of range", m.beta);
        assert_eq!(m.samples.len(), 6);
    }
}
