//! Tier-1 perf gate: the k-means assignment hot path must stay inside a
//! generous envelope of the committed `BENCH_scale.json` baseline.
//!
//! The gate instance is the committed `gate` block — n = 100k, p = 1,
//! k = 8, seed 77, default config — re-solved here and compared as
//! assignment ns/point. The envelope is deliberately loose (2.5× in
//! release, a further 20× under debug assertions, where tier-1 runs):
//! it exists to catch order-of-magnitude regressions — an accidental
//! O(n·k) reintroduction, a lost pruning bound, a per-iteration
//! allocation storm — not scheduler noise on a busy machine.
//!
//! The same instance's deterministic work counters are held exactly
//! against the committed `gate_counters` block: they catch a lost
//! pruning bound or an extra balance round that costs far less than the
//! wall envelope can see.

use geographer::Config;
use geographer_bench::{solve_plan_view, PlanRecipe, PlanRun, Tool};
use geographer_mesh::density::sample_by_density;
use geographer_planner::MeshView;

/// Pull `"key": <float>` out of `block`, no serde in the workspace.
fn json_f64(block: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\":");
    let at = block.find(&pat).unwrap_or_else(|| panic!("no {key} in {block}"));
    let rest = block[at + pat.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().unwrap_or_else(|e| panic!("parse {key}: {e}"))
}

/// The committed `BENCH_scale.json` and its top-level block `key`.
fn committed_block(key: &str) -> String {
    let baseline = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_scale.json"
    ))
    .expect("committed BENCH_scale.json at the repo root");
    let at = baseline
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("baseline has a {key} block"));
    baseline[at..baseline[at..].find('}').unwrap() + at + 1].to_string()
}

/// The gate instance: n uniform points, seed 77, its unit weights.
fn gate_instance(n: usize) -> (Vec<geographer_geometry::Point<2>>, Vec<f64>) {
    (sample_by_density(n, 77, |_| 1.0), vec![1.0f64; n])
}

#[test]
fn assignment_ns_per_point_within_committed_envelope() {
    let gate = committed_block("gate");
    let committed_ns = json_f64(&gate, "assignment_ns_per_point");
    let n = json_f64(&gate, "n") as usize;
    assert!(committed_ns > 0.0 && n > 0, "gate block sane: {gate}");

    let k = 8;
    let cfg = Config::default();
    let (points, weights) = gate_instance(n);
    let view = MeshView { points: &points, weights: &weights, graph: None };
    // First-solve warmup (page faults, lazy binding) stays out of the
    // measured run, mirroring how the baseline was produced.
    let _ = solve_plan_view(
        view,
        &PlanRecipe::flat("warmup", Tool::Geographer, k, cfg.clone()),
        1,
        None,
    );
    let run = solve_plan_view(
        view,
        &PlanRecipe::flat("gate", Tool::Geographer, k, cfg.clone()),
        1,
        None,
    );
    let assign_s = run.plan.stats.expect("stats").assignment_seconds;
    let now_ns = PlanRun::<2>::ns_per_point(assign_s, n);

    // Release envelope 2.5×; debug builds of this workspace measure
    // roughly 15–20× slower on the same path, so widen accordingly
    // rather than gating on an unoptimized build's noise.
    let envelope = if cfg!(debug_assertions) { 2.5 * 20.0 } else { 2.5 };
    assert!(
        now_ns <= committed_ns * envelope,
        "assignment hot path regressed: {now_ns:.1} ns/point vs committed \
         {committed_ns:.1} ns/point (envelope {envelope}×)"
    );
}

#[test]
fn work_counters_equal_committed_gate_counters() {
    let gate = committed_block("gate");
    let counters = committed_block("gate_counters");
    let n = json_f64(&gate, "n") as usize;
    let (points, weights) = gate_instance(n);
    let view = MeshView { points: &points, weights: &weights, graph: None };
    let run = solve_plan_view(
        view,
        &PlanRecipe::flat("gate", Tool::Geographer, 8, Config::default()),
        1,
        None,
    );
    let st = run.plan.stats.expect("stats");
    for (key, now) in [
        ("movement_iterations", st.movement_iterations),
        ("balance_iterations", st.balance_iterations),
        ("distance_evals", st.distance_evals),
        ("hamerly_skips", st.hamerly_skips),
        ("bbox_breaks", st.bbox_breaks),
        ("points_visited", st.points_visited),
    ] {
        // Counters are far below 2^53, so the f64 parse is exact.
        let committed = json_f64(&counters, key) as u64;
        assert_eq!(now, committed, "gate counter `{key}` drifted from BENCH_scale.json");
    }
}
