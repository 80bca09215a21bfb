//! Small shared pieces: order statistics, the assignment digest, the
//! output checks, resident-memory probes, and the provenance block.

use std::process::Command;

/// Median (mean of the middle pair for an even count); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]`; 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (i, frac) = (pos.floor() as usize, pos - pos.floor());
    match v.get(i + 1) {
        Some(&next) => v[i] + frac * (next - v[i]),
        None => v[i],
    }
}

/// FNV-1a digest of an assignment: equal digests ⇔ (almost surely) equal
/// outputs, so any later change of output is visible in the printed digest.
pub fn digest(assignment: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in assignment {
        for byte in b.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The output checks every solve passes or fails:
/// the assignment has length n, every id is < k, no block is empty, and
/// at every level of `arities` (`[k]` for a flat plan) each group weighs
/// at most `max((1+ε)·t, t + w_max)`, `t` = its parent's weight / arity —
/// for a flat plan exactly `max((1+ε)·avg, avg + w_max)`.
pub fn check_assignment(
    assignment: &[u32],
    weights: &[f64],
    arities: &[usize],
    epsilon: f64,
) -> Result<(), String> {
    let k: usize = arities.iter().product();
    if assignment.len() != weights.len() {
        return Err(format!(
            "assignment has length {}, want {}",
            assignment.len(),
            weights.len()
        ));
    }
    if let Some(&b) = assignment.iter().find(|&&b| b as usize >= k) {
        return Err(format!("block id {b} is not < k = {k}"));
    }
    let mut block_w = vec![0.0f64; k];
    let mut count = vec![0usize; k];
    for (&b, &w) in assignment.iter().zip(weights) {
        block_w[b as usize] += w;
        count[b as usize] += 1;
    }
    if let Some(b) = count.iter().position(|&c| c == 0) {
        return Err(format!("block {b} is empty"));
    }
    let w_max = weights.iter().copied().fold(0.0, f64::max);
    // Group weights per level, coarsest first; level l has Π_{i≤l} arity_i
    // groups and block b lies in group b / (Π_{i>l} arity_i).
    let mut parent = vec![block_w.iter().sum::<f64>()];
    for (l, &arity) in arities.iter().enumerate() {
        let stride: usize = arities[l + 1..].iter().product();
        let groups: Vec<f64> = (0..parent.len() * arity)
            .map(|g| block_w[g * stride..(g + 1) * stride].iter().sum())
            .collect();
        for (g, &w) in groups.iter().enumerate() {
            let t = parent[g / arity] / arity as f64;
            let floor = ((1.0 + epsilon) * t).max(t + w_max);
            if w > floor * (1.0 + 1e-12) {
                return Err(format!(
                    "level {l} group {g} weighs {w}, above its floor {floor}"
                ));
            }
        }
        parent = groups;
    }
    Ok(())
}

fn status_kib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with(field)).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<f64>().ok())
            })
        })
        .unwrap_or(0.0)
}

/// Reset this process's peak-RSS mark to its current RSS and return that
/// RSS in MiB (the baseline the solving work's peak is measured above).
pub fn reset_peak_rss_mib() -> f64 {
    // Writing 5 to clear_refs resets VmHWM (Linux ≥ 4.0); without it the
    // peak includes input generation, which only makes the figure larger.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    status_kib("VmRSS:") / 1024.0
}

extern "C" {
    /// glibc: return free heap memory, of every arena, to the OS.
    fn malloc_trim(pad: usize) -> i32;
    /// glibc: set malloc tunable `param` to `value`.
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_ARENA_MAX` tunable.
const M_ARENA_MAX: i32 = -8;

/// Serve every thread from one heap arena. Thread ranks otherwise land in
/// arenas of their own, and how the allocator spreads them decides a job's
/// peak (one `cold-1m` run's jobs read from about 150 to 195 MiB); with
/// the ranks taking turns, one arena costs no contention.
pub fn one_heap_arena() {
    // SAFETY: mallopt takes two integers and only updates malloc's own
    // settings, under its lock; it is called before any rank starts.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

/// Give the heap memory freed so far back to the OS, so that a later peak
/// measures what the next job allocates, not what the allocator kept.
pub fn trim_heap() {
    // SAFETY: malloc_trim takes no pointers and only unmaps or shrinks free
    // heap regions; glibc locks each arena while trimming it.
    unsafe {
        malloc_trim(0);
    }
}

/// Peak RSS of this process since the last reset, in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn cache_size(level: &str) -> String {
    (0..8)
        .map(|i| format!("/sys/devices/system/cpu/cpu0/cache/index{i}"))
        .find(|d| std::fs::read_to_string(format!("{d}/level")).is_ok_and(|l| l.trim() == level))
        .and_then(|d| std::fs::read_to_string(format!("{d}/size")).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Seconds the hypervisor took the host's CPUs away from it since boot
/// (the `steal` column of `/proc/stat`, summed over CPUs). Printed with
/// every result: steal makes wall times noisy without any code change.
pub fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Number of CPUs this process may use.
fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// One-line JSON provenance block of a result.
pub fn provenance(workload: &str, seed: u64, ranks: usize, trace: bool) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = nproc();
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"trace\":{trace},\"ranks\":{ranks},\"nproc\":{nproc},\"oversubscribed\":{},\"git_revision\":{},\"rustc\":{},\"cpu\":{},\"l2\":{},\"l3\":{}}}",
        json_str(workload),
        ranks > nproc,
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        json_str(&command_line("rustc", &["-V"])),
        json_str(&cpu),
        json_str(&cache_size("2")),
        json_str(&cache_size("3")),
    )
}

/// The result line's JSON: `metrics` are `(name, value, unit)`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}
