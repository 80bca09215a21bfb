//! The traced run's instruments: a [`Comm`] wrapper that records one span
//! per collective from outside the backend, the layer span recorder the
//! replay writes into, the post-solve busy/wait derivation, and the Chrome
//! trace-event export with its nesting check.
//!
//! Nothing here adds a collective inside a solve. Timestamps are
//! nanoseconds since one `origin` instant taken before the ranks launch;
//! the monotonic clock is shared by threads and forked processes alike, so
//! the ranks' timestamps are directly comparable.

use std::cell::RefCell;
use std::time::Instant;

use geographer_parcomm::{Collective, Comm, CommStats, OpStats, Wire};

/// Collective kinds the wrapper reports: the five counted by `CommStats`
/// plus `barrier`, which `CommStats` does not count.
pub const KINDS: [&str; 6] = [
    "allgather",
    "allreduce",
    "broadcast",
    "exscan",
    "alltoallv",
    "barrier",
];
const BARRIER: u8 = 5;

fn kind_index(kind: Collective) -> u8 {
    match kind {
        Collective::Allgather => 0,
        Collective::Allreduce => 1,
        Collective::Broadcast => 2,
        Collective::Exscan => 3,
        Collective::Alltoallv => 4,
    }
}

/// Layer span names, in the order their ids are exported.
pub const LAYERS: [&str; 10] = [
    "planner",
    "planner.validate",
    "sfc.index",
    "dsort.sort",
    "dsort.rebalance",
    "kmeans",
    "pipeline.writeback",
    "hierarchy",
    "refine",
    "planner.assembly",
];
/// Span ids past the layers: `LAYERS.len() + kind` is a collective span.
pub const PLANNER_METRICS: u32 = LAYERS.len() as u32 + KINDS.len() as u32;

/// Display name of a span id.
pub fn span_name(id: u32) -> &'static str {
    let l = LAYERS.len() as u32;
    if id < l {
        LAYERS[id as usize]
    } else if id < PLANNER_METRICS {
        KINDS[(id - l) as usize]
    } else {
        "planner.metrics"
    }
}

/// Span id of a layer name (the names of [`LAYERS`] plus `planner.metrics`).
pub fn layer_id(name: &str) -> u32 {
    match LAYERS.iter().position(|&n| n == name) {
        Some(i) => i as u32,
        None => PLANNER_METRICS,
    }
}

/// One recorded interval: `(span id, start ns, end ns)`.
pub type Span = (u32, u64, u64);

/// `Comm` wrapper: delegates every method to `inner` and records, per
/// call, its kind and this rank's entry/exit times, plus layer spans the
/// replay opens through [`TraceComm::span`].
pub struct TraceComm<'a, C: Comm> {
    inner: &'a C,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
}

impl<'a, C: Comm> TraceComm<'a, C> {
    pub fn new(inner: &'a C, origin: Instant) -> Self {
        TraceComm {
            inner,
            origin,
            spans: RefCell::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a layer span named `name`.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let t0 = self.now();
        let out = f();
        let t1 = self.now();
        self.spans.borrow_mut().push((layer_id(name), t0, t1));
        out
    }

    /// Take every span recorded so far (in completion order).
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.borrow_mut())
    }

    fn timed<R>(&self, kind: u8, f: impl FnOnce() -> R) -> R {
        let t0 = self.now();
        let out = f();
        let t1 = self.now();
        self.spans
            .borrow_mut()
            .push((LAYERS.len() as u32 + kind as u32, t0, t1));
        out
    }
}

impl<C: Comm> Comm for TraceComm<'_, C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn barrier(&self) {
        self.timed(BARRIER, || self.inner.barrier())
    }
    fn allgather<T: Wire>(&self, local: Vec<T>) -> Vec<Vec<T>> {
        self.timed(kind_index(Collective::Allgather), || {
            self.inner.allgather(local)
        })
    }
    fn alltoallv<T: Wire>(&self, sends: Vec<Vec<T>>) -> Vec<Vec<T>> {
        self.timed(kind_index(Collective::Alltoallv), || {
            self.inner.alltoallv(sends)
        })
    }
    fn stats(&self) -> CommStats {
        self.inner.stats()
    }
    fn allreduce<T, F>(&self, value: T, combine: F) -> T
    where
        T: Wire,
        F: Fn(T, T) -> T,
    {
        self.timed(kind_index(Collective::Allreduce), || {
            self.inner.allreduce(value, combine)
        })
    }
    fn allreduce_sum_f64(&self, buf: &mut [f64]) {
        self.timed(kind_index(Collective::Allreduce), || {
            self.inner.allreduce_sum_f64(buf)
        })
    }
    fn allreduce_max_f64(&self, buf: &mut [f64]) {
        self.timed(kind_index(Collective::Allreduce), || {
            self.inner.allreduce_max_f64(buf)
        })
    }
    fn allreduce_min_f64(&self, buf: &mut [f64]) {
        self.timed(kind_index(Collective::Allreduce), || {
            self.inner.allreduce_min_f64(buf)
        })
    }
    fn allreduce_sum_u64(&self, buf: &mut [u64]) {
        self.timed(kind_index(Collective::Allreduce), || {
            self.inner.allreduce_sum_u64(buf)
        })
    }
    fn exscan_sum_u64(&self, value: u64) -> u64 {
        self.timed(kind_index(Collective::Exscan), || {
            self.inner.exscan_sum_u64(value)
        })
    }
    fn broadcast<T: Wire>(&self, root: usize, value: Option<T>) -> T {
        self.timed(kind_index(Collective::Broadcast), || {
            self.inner.broadcast(root, value)
        })
    }
}

/// Is span id `id` a collective of kind index `kind`?
fn collective_kind(id: u32) -> Option<usize> {
    let l = LAYERS.len() as u32;
    (l..PLANNER_METRICS)
        .contains(&id)
        .then(|| (id - l) as usize)
}

/// Per-kind wrapper call counts among `spans`, optionally dropping the
/// last `skip_last_allgather` allgather (the planner's uncounted assembly).
pub fn call_counts(spans: &[Span], skip_last_allgather: bool) -> [u64; 6] {
    let mut calls = [0u64; 6];
    for &(id, _, _) in spans {
        if let Some(k) = collective_kind(id) {
            calls[k] += 1;
        }
    }
    if skip_last_allgather && calls[0] > 0 {
        calls[0] -= 1;
    }
    calls
}

/// Exact agreement of the wrapper's call counts (and the solve-phase
/// counter delta it observed) with a plan's `CommStats`, kind by kind.
pub fn check_counts(
    calls: &[u64; 6],
    observed: &CommStats,
    plan: &CommStats,
) -> Result<(), String> {
    for kind in Collective::ALL {
        let i = kind_index(kind) as usize;
        let (o, p): (OpStats, OpStats) = (observed.op(kind), plan.op(kind));
        if calls[i] != p.ops || o != p {
            return Err(format!(
                "{}: wrapper saw {} calls ({:?}), plan counted {:?}",
                kind.name(),
                calls[i],
                o,
                p
            ));
        }
    }
    Ok(())
}

/// Busy and wait seconds per collective kind, derived after the solve from
/// every rank's spans (`per_rank[r]` = rank r's spans, same call sequence on
/// every rank). For call i, the last rank to enter defines its start:
/// a rank's wait is the time from its own entry to that start, its busy
/// time the rest. Both are averaged over ranks and summed over calls.
pub fn busy_wait(per_rank: &[Vec<Span>]) -> Result<([f64; 6], [f64; 6]), String> {
    let calls: Vec<Vec<(usize, u64, u64)>> = per_rank
        .iter()
        .map(|s| {
            let mut c: Vec<(usize, u64, u64)> = s
                .iter()
                .filter_map(|&(id, a, b)| collective_kind(id).map(|k| (k, a, b)))
                .collect();
            c.sort_by_key(|&(_, a, _)| a);
            c
        })
        .collect();
    let (mut busy, mut wait) = ([0.0; 6], [0.0; 6]);
    let n = calls[0].len();
    if calls.iter().any(|c| c.len() != n) {
        return Err("ranks recorded different collective counts".into());
    }
    let p = calls.len() as f64;
    for i in 0..n {
        let kind = calls[0][i].0;
        if calls.iter().any(|c| c[i].0 != kind) {
            return Err(format!("collective #{i} differs in kind across ranks"));
        }
        let start = calls.iter().map(|c| c[i].1).max().unwrap_or(0);
        for c in &calls {
            wait[kind] += (start - c[i].1) as f64 * 1e-9 / p;
            busy[kind] += c[i].2.saturating_sub(start) as f64 * 1e-9 / p;
        }
    }
    Ok((busy, wait))
}

/// Total seconds per layer span id for one rank's spans.
pub fn layer_seconds(spans: &[Span], id: u32) -> f64 {
    spans
        .iter()
        .filter(|s| s.0 == id)
        .map(|s| (s.2 - s.1) as f64 * 1e-9)
        .sum()
}

/// Share of the `planner` span not covered by its direct children.
pub fn unattributed_frac(spans: &[Span]) -> f64 {
    let planner = layer_id("planner");
    let Some(&(_, a, b)) = spans.iter().find(|s| s.0 == planner) else {
        return 1.0;
    };
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.0 != planner && s.1 >= a && s.2 <= b)
        .map(|s| (s.1, s.2))
        .collect();
    // Direct children only: drop every span that lies inside another.
    kids.sort_by(|x, y| x.0.cmp(&y.0).then(y.1.cmp(&x.1)));
    let mut covered = 0u64;
    let mut reach = a;
    for (s, e) in kids {
        if e <= reach {
            continue;
        }
        covered += e - s.max(reach);
        reach = e;
    }
    1.0 - covered as f64 / (b - a).max(1) as f64
}

/// Chrome trace-event JSON of every rank's spans (`pid` = rank).
pub fn chrome_json(per_rank: &[Vec<Span>]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (rank, spans) in per_rank.iter().enumerate() {
        for &(id, a, b) in spans {
            if !first {
                out.push(',');
            }
            first = false;
            let cat = if collective_kind(id).is_some() {
                "parcomm"
            } else {
                "layer"
            };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":{rank},\"tid\":0}}",
                span_name(id),
                a / 1000,
                a % 1000,
                (b - a) / 1000,
                (b - a) % 1000,
            ));
        }
    }
    out.push_str("]}");
    out
}

/// Parse a Chrome export back and check that every rank's spans nest:
/// any two spans of one pid are either disjoint or one contains the other.
/// Returns the number of events checked.
pub fn check_export(text: &str) -> Result<usize, String> {
    let v = geographer_analyze::json::parse(text)?;
    let events = v
        .get("traceEvents")
        .and_then(|e| e.items())
        .ok_or("no traceEvents array")?;
    let mut by_pid: Vec<Vec<(i64, i64)>> = Vec::new();
    for e in events {
        let num = |k: &str| match e.get(k) {
            Some(geographer_analyze::json::Value::Num(x)) => Ok(*x),
            _ => Err(format!("event without numeric `{k}`")),
        };
        if !matches!(e.get("ph"), Some(geographer_analyze::json::Value::Str(s)) if s == "X") {
            return Err("event is not a complete (\"X\") event".into());
        }
        let pid = num("pid")? as usize;
        let ts = (num("ts")? * 1000.0).round() as i64;
        let dur = (num("dur")? * 1000.0).round() as i64;
        if by_pid.len() <= pid {
            by_pid.resize(pid + 1, Vec::new());
        }
        by_pid[pid].push((ts, ts + dur));
    }
    for (pid, spans) in by_pid.iter_mut().enumerate() {
        spans.sort_by(|x, y| x.0.cmp(&y.0).then(y.1.cmp(&x.1)));
        let mut stack: Vec<i64> = Vec::new();
        for &(s, e) in spans.iter() {
            while stack.last().is_some_and(|&end| end <= s) {
                stack.pop();
            }
            if let Some(&end) = stack.last() {
                if e > end {
                    return Err(format!(
                        "pid {pid}: span [{s}, {e}] ns overlaps its parent ending at {end}"
                    ));
                }
            }
            stack.push(e);
        }
    }
    Ok(events.len())
}
