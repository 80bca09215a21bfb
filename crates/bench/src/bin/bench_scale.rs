//! Scaling benchmark: the full Geographer pipeline on uniform random
//! point sets at n ∈ {100k, 1M, 4M} and p ∈ {1, 4, 8}, emitting
//! `BENCH_scale.json` with *per-phase and per-assignment nanoseconds per
//! point* — the numbers the tier-1 perf gate
//! (`crates/bench/tests/perf_gate.rs`) holds the assignment hot path
//! accountable against.
//!
//! The instances are raw point clouds (no Delaunay graph — triangulating
//! 4M points is not what this benchmark measures), solved through the
//! planner exactly like every other bench. Per-phase seconds are the
//! maximum across ranks of each rank's own pipeline timings; ns/point
//! divides by the *global* n, so the figure is comparable across p.
//! `assignment` is the wall time spent inside k-means assignment passes
//! (kernel + block-weight accumulation), max-reduced across ranks.
//!
//! Two reference blocks quantify the SoA kernel against the pre-PR
//! array-of-structs path, which is kept bitwise-identical precisely so
//! the speedup is measurable on the same machine, instance, and
//! iteration count:
//!
//! * `kernel_reference` — sampling off, a fixed handful of movement
//!   iterations over the full point set: every assignment pass runs the
//!   restructured kernel, so this isolates the kernel itself.
//! * `pipeline_reference` — the default configuration. Sampling-init
//!   rounds deliberately take the AoS path in both configs (random
//!   access beats gather/scatter on shuffled actives), so the end-to-end
//!   ratio is the kernel win diluted by that shared, identical cost.
//!
//! The gate and reference figures are minima over [`REPEATS`] runs per
//! configuration — on a shared VM a single measurement is at the mercy
//! of whichever run catches a noisy window, and the minimum estimates
//! the undisturbed cost.
//!
//! ```console
//! $ cargo run --release -p geographer_bench --bin bench_scale
//! $ cargo run --release -p geographer_bench --bin bench_scale -- --smoke
//! ```

use std::fmt::Write as _;

use geographer::{balanced_kmeans, Config};
use geographer_bench::{solve_plan_view, write_bench_json, PlanRecipe, PlanRun, Tool};
use geographer_geometry::Point;
use geographer_mesh::density::sample_by_density;
use geographer_parcomm::SelfComm;
use geographer_planner::MeshView;

/// Repeats for the gate and reference measurements, reporting the
/// minimum per configuration: on a shared VM the minimum is the
/// noise-robust estimator of the undisturbed cost.
const REPEATS: usize = 3;

/// The SoA-vs-AoS reference instance: n = 1M (the acceptance size) when
/// the run includes it, otherwise the largest size present (smoke).
fn reference_n(sizes: &[usize]) -> usize {
    if sizes.contains(&1_000_000) { 1_000_000 } else { *sizes.last().unwrap() }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sizes: &[usize] =
        if smoke { &[100_000] } else { &[100_000, 1_000_000, 4_000_000] };
    let ps = [1usize, 4, 8];
    let k = 8;
    let seed = 77;
    let cfg = Config::default();

    // The first solve in a process pays one-time costs the later ones
    // don't (heap-growth page faults, lazy binding, VM frequency ramp) —
    // measured at up to 2× the steady-state assignment time. Burn them
    // on a small instance that never gets reported.
    {
        let n = 50_000;
        let points = sample_by_density(n, seed, |_| 1.0);
        let weights = vec![1.0f64; n];
        let view = MeshView { points: &points, weights: &weights, graph: None };
        let _ = solve_plan_view(
            view,
            &PlanRecipe::flat("warmup", Tool::Geographer, k, cfg.clone()),
            1,
            None,
        );
    }

    let mut runs = String::new();
    let mut first = true;
    let mut gate_kmeans_ns = 0.0f64;
    let mut gate_assign_ns = 0.0f64;
    let mut gate_counters = String::new();
    let mut pipeline_json = String::new();
    for &n in sizes {
        // Uniform density ⇒ every rejection-sampling attempt accepts:
        // O(n) generation, same RNG family as the mesh benches.
        let points = sample_by_density(n, seed, |_| 1.0);
        let weights = vec![1.0f64; n];
        let view = MeshView { points: &points, weights: &weights, graph: None };
        for p in ps {
            let recipe = PlanRecipe::flat("scale", Tool::Geographer, k, cfg.clone());
            let run = solve_plan_view(view, &recipe, p, None);
            let ph = run.phase_max.expect("flat stateful solve reports phase timings");
            let st = run.plan.stats.expect("geographer solve reports stats");
            let npp = |s: f64| PlanRun::<2>::ns_per_point(s, n);
            if n == sizes[0] && p == 1 {
                // Min over REPEATS: the machine this baseline is meant
                // for is a noisy shared VM, and the minimum is the
                // noise-robust estimator of the undisturbed cost — the
                // gate envelope is anchored to it.
                let (mut kmeans_s, mut assign_s) =
                    (ph.kmeans, st.assignment_seconds);
                for _ in 1..REPEATS {
                    let r = solve_plan_view(view, &recipe, p, None);
                    kmeans_s = kmeans_s.min(r.phase_max.unwrap().kmeans);
                    assign_s =
                        assign_s.min(r.plan.stats.unwrap().assignment_seconds);
                }
                gate_kmeans_ns = npp(kmeans_s);
                gate_assign_ns = npp(assign_s);
                // Deterministic work counters of the gate instance: the
                // perf gate holds them exactly.
                gate_counters = format!(
                    "{{\"movement_iterations\": {}, \"balance_iterations\": {}, \
                     \"distance_evals\": {}, \"hamerly_skips\": {}, \
                     \"bbox_breaks\": {}, \"points_visited\": {}}}",
                    st.movement_iterations,
                    st.balance_iterations,
                    st.distance_evals,
                    st.hamerly_skips,
                    st.bbox_breaks,
                    st.points_visited,
                );
            }
            let _ = write!(
                runs,
                "{}    {{\"n\": {}, \"p\": {}, \"k\": {}, \
                 \"wall_serialized_s\": {:.4}, \"wall_max_rank_s\": {:.4}, \
                 \"total_ns_per_point\": {:.1},\n     \"phases\": {{\
                 \"sfc_index\": {{\"seconds\": {:.4}, \"ns_per_point\": {:.1}}}, \
                 \"redistribute\": {{\"seconds\": {:.4}, \"ns_per_point\": {:.1}}}, \
                 \"kmeans\": {{\"seconds\": {:.4}, \"ns_per_point\": {:.1}}}, \
                 \"writeback\": {{\"seconds\": {:.4}, \"ns_per_point\": {:.1}}}}},\n     \
                 \"assignment\": {{\"seconds\": {:.4}, \"ns_per_point\": {:.1}}}}}",
                if first { "" } else { ",\n" },
                n,
                p,
                k,
                run.wall_seconds,
                run.wall_max_rank_s,
                npp(ph.total()),
                ph.sfc_index,
                npp(ph.sfc_index),
                ph.redistribute,
                npp(ph.redistribute),
                ph.kmeans,
                npp(ph.kmeans),
                ph.writeback,
                npp(ph.writeback),
                st.assignment_seconds,
                npp(st.assignment_seconds),
            );
            first = false;
            eprintln!(
                "n={n} p={p}: wall(serialized)={:.2}s max-rank={:.2}s \
                 kmeans={:.1} ns/pt assign={:.1} ns/pt total={:.1} ns/pt",
                run.wall_seconds,
                run.wall_max_rank_s,
                npp(ph.kmeans),
                npp(st.assignment_seconds),
                npp(ph.total()),
            );
        }

        // Pipeline reference at n = 1M (the ISSUE 7 acceptance size; the
        // largest size in smoke runs), single rank: the pre-PR AoS
        // kernel under the default config, same machine and instance.
        // Alternating AoS/SoA repeats, min per config — on a shared VM a
        // single pair is at the mercy of whichever run catches a noisy
        // window.
        if n == reference_n(sizes) {
            let (mut soa_s, mut aos_s) = (f64::INFINITY, f64::INFINITY);
            for rep in 0..REPEATS {
                let aos = solve_plan_view(
                    view,
                    &PlanRecipe::flat(
                        "scale-aos",
                        Tool::Geographer,
                        k,
                        Config { soa_kernel: false, ..cfg.clone() },
                    ),
                    1,
                    None,
                );
                let soa = solve_plan_view(
                    view,
                    &PlanRecipe::flat("scale-soa", Tool::Geographer, k, cfg.clone()),
                    1,
                    None,
                );
                if rep == 0 {
                    assert_eq!(
                        soa.plan.assignment, aos.plan.assignment,
                        "SoA and AoS kernels must produce identical partitions"
                    );
                }
                soa_s = soa_s.min(soa.plan.stats.unwrap().assignment_seconds);
                aos_s = aos_s.min(aos.plan.stats.unwrap().assignment_seconds);
            }
            let _ = write!(
                pipeline_json,
                "{{\"n\": {}, \"p\": 1, \"repeats\": {REPEATS}, \
                 \"assignment_s_soa\": {:.4}, \
                 \"assignment_s_aos\": {:.4}, \"soa_speedup\": {:.2}}}",
                n,
                soa_s,
                aos_s,
                aos_s / soa_s.max(1e-12),
            );
            eprintln!(
                "pipeline reference n={n}: soa={soa_s:.3}s aos={aos_s:.3}s \
                 speedup={:.2}x",
                aos_s / soa_s.max(1e-12)
            );
        }
    }

    // Kernel reference at n = 1M: sampling off, every assignment pass a
    // full-set identity round — the regime the SoA restructuring
    // targets and the acceptance evidence for its speedup. Fixed
    // centers and iteration budget keep the two configs on
    // bitwise-identical trajectories.
    let kernel_json = {
        let n = reference_n(sizes);
        let points = sample_by_density(n, seed, |_| 1.0);
        let weights = vec![1.0f64; n];
        let centers: Vec<Point<2>> =
            (0..k).map(|i| points[i * n / k + n / (2 * k)]).collect();
        let kcfg = |soa| Config {
            soa_kernel: soa,
            sampling_init: false,
            max_iterations: 5,
            ..Config::default()
        };
        let (mut soa_s, mut aos_s) = (f64::INFINITY, f64::INFINITY);
        let mut rounds = 0;
        for rep in 0..REPEATS {
            let aos = balanced_kmeans(
                &SelfComm,
                &points,
                &weights,
                k,
                centers.clone(),
                &kcfg(false),
            );
            let soa = balanced_kmeans(
                &SelfComm,
                &points,
                &weights,
                k,
                centers.clone(),
                &kcfg(true),
            );
            if rep == 0 {
                assert_eq!(
                    soa.assignment, aos.assignment,
                    "SoA and AoS kernels must produce identical partitions"
                );
            }
            rounds = soa.stats.balance_iterations;
            soa_s = soa_s.min(soa.stats.assignment_seconds);
            aos_s = aos_s.min(aos.stats.assignment_seconds);
        }
        eprintln!(
            "kernel reference n={n}: soa={soa_s:.3}s aos={aos_s:.3}s \
             speedup={:.2}x over {rounds} assignment rounds",
            aos_s / soa_s.max(1e-12),
        );
        format!(
            "{{\"n\": {}, \"p\": 1, \"sampling_init\": false, \
             \"movement_iterations\": 5, \"assignment_rounds\": {rounds}, \
             \"repeats\": {REPEATS}, \
             \"assignment_s_soa\": {:.4}, \"assignment_s_aos\": {:.4}, \
             \"soa_speedup\": {:.2}}}",
            n,
            soa_s,
            aos_s,
            aos_s / soa_s.max(1e-12),
        )
    };

    let json = format!(
        "{{\n  \"bench\": \"scale\",\n  \"tool\": \"Geographer\",\n  \
         \"mesh\": {{\"kind\": \"uniform_random\", \"seed\": {seed}}},\n  \
         \"k\": {k}, \"epsilon\": {:.2},\n  \
         \"gate\": {{\"n\": {}, \"p\": 1, \"repeats\": {REPEATS}, \
         \"kmeans_ns_per_point\": {:.1}, \
         \"assignment_ns_per_point\": {:.1}}},\n  \
         \"gate_counters\": {gate_counters},\n  \
         \"kernel_reference\": {kernel_json},\n  \
         \"pipeline_reference\": {pipeline_json},\n  \
         \"runs\": [\n{runs}\n  ]\n}}\n",
        cfg.epsilon,
        sizes[0],
        gate_kmeans_ns,
        gate_assign_ns,
    );
    // Smoke runs (CI) must not clobber the committed full-scale baseline.
    let path = write_bench_json("scale", smoke, &json);
    println!("{json}");
    println!("wrote {path}");
}
