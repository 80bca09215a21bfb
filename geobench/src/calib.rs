//! The host-speed reference: a fixed kernel, part of the benchmark and not
//! of the program, timed between the solves of every timed run.
//!
//! The reference host's speed for this kind of code drifts by up to 2×
//! over tens of minutes (its vCPUs share cores and caches with other
//! tenants), while a latency-bound probe barely notices. The kernel
//! therefore does what the solvers do, over as many points as the run's
//! meshes have, so that its data sits at the same level of the memory
//! hierarchy: a Lloyd round of k-means assignment over 2D points
//! (independent distance evaluations), a sort of random keys, and gathers
//! along a random graph. Its median time over a run measures the host's
//! speed during that run; the run's timing metrics are scaled by it.

use std::hint::black_box;
use std::time::Instant;

/// Centers of the kernel's k-means round.
const K: usize = 16;
/// Neighbours per point of its random graph.
const DEG: usize = 6;
/// Kernel seconds per 2^17 points on the host the metrics are scaled to.
/// Scaled metrics read in seconds of a host where one pass over n points
/// takes `NOMINAL_S · n / 2^17`, about the reference host's speed. The
/// constant never changes, so scaled figures stay comparable across
/// commits.
pub const NOMINAL_S: f64 = 0.01;

pub struct Calibration {
    n: usize,
    xs: Vec<f64>,
    ys: Vec<f64>,
    keys: Vec<u64>,
    sorted: Vec<u64>,
    adj: Vec<u32>,
}

/// SplitMix64: the kernel's fixed input stream.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Calibration {
    /// The kernel over `n` points (at least `K · 97`).
    pub fn new(n: usize) -> Calibration {
        let n = n.max(K * 97);
        let mut s = 0x5EED_u64;
        let unit = |s: &mut u64| (mix(s) >> 11) as f64 / (1u64 << 53) as f64;
        let xs: Vec<f64> = (0..n).map(|_| unit(&mut s)).collect();
        let ys: Vec<f64> = (0..n).map(|_| unit(&mut s)).collect();
        let keys = (0..n).map(|_| mix(&mut s)).collect();
        let adj = (0..n * DEG)
            .map(|_| (mix(&mut s) % n as u64) as u32)
            .collect();
        Calibration {
            n,
            xs,
            ys,
            keys,
            sorted: Vec::with_capacity(n),
            adj,
        }
    }

    /// One pass of the kernel; returns a checksum so nothing is elided.
    fn kernel(&mut self) -> f64 {
        let mut cx = [0.0f64; K];
        let mut cy = [0.0f64; K];
        for c in 0..K {
            cx[c] = self.xs[c * 97];
            cy[c] = self.ys[c * 97];
        }
        let (mut sx, mut sy, mut cnt) = ([0.0f64; K], [0.0f64; K], [0u32; K]);
        for (&x, &y) in self.xs.iter().zip(&self.ys) {
            let (mut best, mut bd) = (0, f64::INFINITY);
            for c in 0..K {
                let d = (x - cx[c]).mul_add(x - cx[c], (y - cy[c]) * (y - cy[c]));
                if d < bd {
                    (best, bd) = (c, d);
                }
            }
            sx[best] += x;
            sy[best] += y;
            cnt[best] += 1;
        }
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.keys);
        self.sorted.sort_unstable();
        let mut acc = 0.0;
        for (v, nbrs) in self.adj.chunks_exact(DEG).enumerate() {
            for &u in nbrs {
                acc += (self.xs[u as usize] - self.xs[v]).abs();
            }
        }
        let centers: f64 = (0..K).map(|c| (sx[c] + sy[c]) / cnt[c].max(1) as f64).sum();
        centers + acc + (self.sorted[self.n / 2] >> 40) as f64
    }

    /// Seconds one pass of the kernel takes now.
    pub fn pass(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.kernel());
        t.elapsed().as_secs_f64()
    }

    /// The factor that takes the times of a run whose kernel passes took
    /// `median_s` (their median) to the host the metrics are scaled to.
    pub fn scale(&self, median_s: f64) -> f64 {
        NOMINAL_S * (self.n as f64 / (1 << 17) as f64) / median_s
    }
}
