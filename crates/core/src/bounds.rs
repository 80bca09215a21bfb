//! Hamerly-style distance bounds, adapted to effective distances
//! (Sec. 4.3 of the paper, with corrected relaxation formulas).
//!
//! For each point `p` with assigned cluster `c = A(p)` we keep
//!
//! * `ub(p)` — an upper bound on `effdist(p, c) = dist(p, center(c))/I(c)`;
//! * `lb(p)` — a lower bound on the smallest effective distance from `p`
//!   to any *other* cluster.
//!
//! If `ub(p) < lb(p)`, no other cluster can beat the current assignment and
//! the whole inner loop over centers is skipped (Algorithm 1, line 9).
//!
//! When center `c` moves by `δ(c)` and its influence changes from `I` to
//! `I'`, the true effective distances change; the bounds must be *relaxed*
//! to remain valid:
//!
//! * new own distance: `dist'/I' ≤ (dist + δ)/I' = (dist/I)·(I/I') + δ/I'`,
//!   so `ub' = ub·(I/I') + δ/I'`;
//! * for every other cluster `c'`:
//!   `dist'/I' ≥ (dist − δ(c'))/I'(c') ≥ lb·min_ratio − max_shift`
//!   with `min_ratio = min_{c'} I(c')/I'(c')` and
//!   `max_shift = max_{c'} δ(c')/I'(c')`, so
//!   `lb' = max(0, lb·min_ratio − max_shift)`.
//!
//! The paper's Eqs. (4)–(5) print the opposite signs (they would *tighten*
//! the bounds on movement, making the skip unsound); see DESIGN.md,
//! errata 2–3. The property tests below verify the versions here against
//! brute force.
//!
//! The solver does not sweep the bound arrays after an update. It keeps
//! the refilled [`Relaxation`] pending and the next assignment pass applies
//! it, through [`Relaxation::relax_point`], to exactly the points it visits,
//! just before their Hamerly test. That is exact: the active set only
//! grows, at most one relaxation is pending at a time, and a never-visited
//! point's `(ub, lb) = (∞, 0)` is a fixed point of every relaxation.

/// Per-cluster relaxation inputs for one update step.
#[derive(Debug, Clone)]
pub struct Relaxation {
    /// Per-cluster `I_old/I_new` (1.0 when influence unchanged).
    pub ratio: Vec<f64>,
    /// Per-cluster `δ/I_new` (0.0 when the center did not move).
    pub shift: Vec<f64>,
}

impl Relaxation {
    /// Empty relaxation scratch with room for `k` clusters, to be refilled
    /// in place by [`Relaxation::set_influence_only`] /
    /// [`Relaxation::set_movement`] every iteration — the solver owns one
    /// and the update loops allocate nothing.
    pub fn with_capacity(k: usize) -> Self {
        Relaxation { ratio: Vec::with_capacity(k), shift: Vec::with_capacity(k) }
    }

    /// Relaxation for an influence-only change (no center movement).
    pub fn influence_only(old_influence: &[f64], new_influence: &[f64]) -> Self {
        let mut r = Relaxation::with_capacity(old_influence.len());
        r.set_influence_only(old_influence, new_influence);
        r
    }

    /// Refill as an influence-only relaxation, reusing the buffers.
    pub fn set_influence_only(&mut self, old_influence: &[f64], new_influence: &[f64]) {
        debug_assert_eq!(old_influence.len(), new_influence.len());
        self.ratio.clear();
        self.ratio.extend(old_influence.iter().zip(new_influence).map(|(o, n)| o / n));
        self.shift.clear();
        self.shift.resize(old_influence.len(), 0.0);
    }

    /// Relaxation for center movement `delta[c]` combined with an influence
    /// change.
    pub fn movement(
        delta: &[f64],
        old_influence: &[f64],
        new_influence: &[f64],
    ) -> Self {
        let mut r = Relaxation::with_capacity(delta.len());
        r.set_movement(delta, old_influence, new_influence);
        r
    }

    /// Refill as a movement relaxation, reusing the buffers.
    pub fn set_movement(
        &mut self,
        delta: &[f64],
        old_influence: &[f64],
        new_influence: &[f64],
    ) {
        debug_assert_eq!(delta.len(), old_influence.len());
        debug_assert_eq!(delta.len(), new_influence.len());
        self.ratio.clear();
        self.ratio.extend(old_influence.iter().zip(new_influence).map(|(o, n)| o / n));
        self.shift.clear();
        self.shift.extend(delta.iter().zip(new_influence).map(|(d, n)| d / n));
    }

    /// The scalar pair used for the lower bound: worst-case ratio and shift
    /// over all clusters.
    pub fn lb_scalars(&self) -> (f64, f64) {
        let min_ratio = self.ratio.iter().copied().fold(f64::INFINITY, f64::min);
        let max_shift = self.shift.iter().copied().fold(0.0, f64::max);
        (min_ratio, max_shift)
    }

    /// Relax one point's `(ub, lb)` whose own cluster is `c`; `scalars` is
    /// [`Relaxation::lb_scalars`], hoisted by the caller.
    #[inline]
    pub fn relax_point(&self, scalars: (f64, f64), c: usize, ub: f64, lb: f64) -> (f64, f64) {
        let (min_ratio, max_shift) = scalars;
        (ub * self.ratio[c] + self.shift[c], (lb * min_ratio - max_shift).max(0.0))
    }

    /// Relax the bound arrays in place. `assignment[p]` selects the own
    /// cluster of point `p`. Only the first `active` points are touched
    /// (the sampling initialization keeps trailing points inactive).
    pub fn apply(&self, ub: &mut [f64], lb: &mut [f64], assignment: &[u32], active: usize) {
        let scalars = self.lb_scalars();
        for p in 0..active {
            (ub[p], lb[p]) = self.relax_point(scalars, assignment[p] as usize, ub[p], lb[p]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn influence_only_has_zero_shift() {
        let r = Relaxation::influence_only(&[1.0, 2.0], &[2.0, 1.0]);
        assert_eq!(r.ratio, vec![0.5, 2.0]);
        assert_eq!(r.shift, vec![0.0, 0.0]);
        let (mr, ms) = r.lb_scalars();
        assert_eq!(mr, 0.5);
        assert_eq!(ms, 0.0);
    }

    #[test]
    fn movement_combines_delta_and_influence() {
        let r = Relaxation::movement(&[0.5, 0.0], &[1.0, 1.0], &[2.0, 1.0]);
        assert_eq!(r.ratio, vec![0.5, 1.0]);
        assert_eq!(r.shift, vec![0.25, 0.0]);
    }

    #[test]
    fn apply_respects_assignment_and_active_window() {
        let r = Relaxation::movement(&[1.0, 0.0], &[1.0, 1.0], &[1.0, 1.0]);
        let mut ub = vec![2.0, 2.0, 2.0];
        let mut lb = vec![3.0, 3.0, 3.0];
        let assignment = vec![0, 1, 0];
        r.apply(&mut ub, &mut lb, &assignment, 2);
        // Point 0 in cluster 0 (moved by 1): ub grows.
        assert_eq!(ub[0], 3.0);
        // Point 1 in cluster 1 (stationary): ub unchanged.
        assert_eq!(ub[1], 2.0);
        // lb shrinks by the max shift for everyone active.
        assert_eq!(lb[0], 2.0);
        assert_eq!(lb[1], 2.0);
        // Inactive point untouched.
        assert_eq!(ub[2], 2.0);
        assert_eq!(lb[2], 3.0);
    }

    #[test]
    fn lb_never_negative() {
        let r = Relaxation::movement(&[100.0], &[1.0], &[1.0]);
        let mut ub = vec![1.0];
        let mut lb = vec![0.5];
        r.apply(&mut ub, &mut lb, &[0], 1);
        assert_eq!(lb[0], 0.0);
    }

    #[test]
    fn relax_point_matches_apply_and_fixes_unvisited_bounds() {
        use geographer_geometry::SplitMix64;
        let mut rng = SplitMix64::new(7);
        let k = 4;
        let n = 50;
        let assignment: Vec<u32> = (0..n).map(|i| (i % k) as u32).collect();
        for round in 0..20 {
            let old: Vec<f64> = (0..k).map(|_| 0.5 + rng.next_f64()).collect();
            let new: Vec<f64> = (0..k).map(|_| 0.5 + rng.next_f64()).collect();
            let r = if round % 2 == 0 {
                Relaxation::influence_only(&old, &new)
            } else {
                let delta: Vec<f64> = (0..k).map(|_| rng.next_f64() * 0.1).collect();
                Relaxation::movement(&delta, &old, &new)
            };
            let mut ub: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
            let mut lb: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
            let expect: Vec<(f64, f64)> = (0..n)
                .map(|p| r.relax_point(r.lb_scalars(), assignment[p] as usize, ub[p], lb[p]))
                .collect();
            r.apply(&mut ub, &mut lb, &assignment, n);
            for p in 0..n {
                assert_eq!(ub[p].to_bits(), expect[p].0.to_bits(), "ub, point {p}");
                assert_eq!(lb[p].to_bits(), expect[p].1.to_bits(), "lb, point {p}");
            }
            // A never-visited point's bounds pass through unchanged, so a
            // relaxation deferred until its first visit is exact.
            for c in 0..k {
                let (u, l) = r.relax_point(r.lb_scalars(), c, f64::INFINITY, 0.0);
                assert_eq!(u, f64::INFINITY);
                assert_eq!(l.to_bits(), 0.0f64.to_bits());
            }
        }
    }

    /// Brute-force soundness on random perturbations: after relaxing, the
    /// bounds still bracket the true effective distances.
    #[test]
    fn bounds_stay_sound_under_random_updates() {
        use geographer_geometry::{Point, SplitMix64};
        let mut rng = SplitMix64::new(42);
        let k = 5usize;
        let n = 60usize;
        let points: Vec<Point<2>> =
            (0..n).map(|_| Point::new([rng.next_f64(), rng.next_f64()])).collect();
        let mut centers: Vec<Point<2>> =
            (0..k).map(|_| Point::new([rng.next_f64(), rng.next_f64()])).collect();
        let mut infl = vec![1.0f64; k];

        // Exact initial bounds.
        let eff = |p: &Point<2>, c: &Point<2>, i: f64| p.dist(c) / i;
        let mut assignment = vec![0u32; n];
        let mut ub = vec![0.0f64; n];
        let mut lb = vec![0.0f64; n];
        for p in 0..n {
            let mut best = (f64::INFINITY, 0usize);
            let mut second = f64::INFINITY;
            for c in 0..k {
                let e = eff(&points[p], &centers[c], infl[c]);
                if e < best.0 {
                    second = best.0;
                    best = (e, c);
                } else if e < second {
                    second = e;
                }
            }
            assignment[p] = best.1 as u32;
            ub[p] = best.0;
            lb[p] = second;
        }

        for _round in 0..30 {
            // Random center movement + influence perturbation.
            let old_infl = infl.clone();
            let mut delta = vec![0.0f64; k];
            for c in 0..k {
                let dx = (rng.next_f64() - 0.5) * 0.1;
                let dy = (rng.next_f64() - 0.5) * 0.1;
                let moved = Point::new([centers[c][0] + dx, centers[c][1] + dy]);
                delta[c] = centers[c].dist(&moved);
                centers[c] = moved;
                infl[c] *= 1.0 + (rng.next_f64() - 0.5) * 0.1;
            }
            let relax = Relaxation::movement(&delta, &old_infl, &infl);
            relax.apply(&mut ub, &mut lb, &assignment, n);

            for p in 0..n {
                let own = assignment[p] as usize;
                let true_own = eff(&points[p], &centers[own], infl[own]);
                assert!(
                    ub[p] >= true_own - 1e-9,
                    "ub violated: {} < {true_own}",
                    ub[p]
                );
                let true_second = (0..k)
                    .filter(|&c| c != own)
                    .map(|c| eff(&points[p], &centers[c], infl[c]))
                    .fold(f64::INFINITY, f64::min);
                assert!(
                    lb[p] <= true_second + 1e-9,
                    "lb violated: {} > {true_second}",
                    lb[p]
                );
            }
        }
    }
}
