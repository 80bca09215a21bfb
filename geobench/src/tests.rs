//! The benchmark's self-test: its catalogue matches `BENCHMARK.json`, its
//! sources pass the workspace analyzer, its checks reject bad output, and
//! the traced run's agreement checks hold on small instances of every
//! workload shape, on both SPMD backends.

use std::path::Path;
use std::time::Instant;

use geographer_analyze::json::{parse, Value};
use geographer_mesh::{delaunay_unit_square, families::bubbles_like};
use geographer_mesh::{DynamicWorkload, Mesh};
use geographer_parcomm::{run_spmd, run_spmd_proc, Comm};
use geographer_planner::{MeshView, PlanState, Planner};

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::trace::check_export;
use crate::traced::{traced_rank, RankOut};
use crate::turn::{Turn, TurnComm};
use crate::util::{check_assignment, quantile};
use crate::workload::Kind;

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn out_dir() -> std::path::PathBuf {
    manifest_dir().join("out/test")
}

fn strings(v: &Value, key: &str) -> Vec<String> {
    v.items()
        .unwrap_or(&[])
        .iter()
        .map(|m| match m.get(key) {
            Some(Value::Str(s)) => s.clone(),
            _ => String::new(),
        })
        .collect()
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let text = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json")).unwrap();
    let v = parse(&text).unwrap();
    let workloads = v.get("workloads").unwrap();
    assert_eq!(
        strings(workloads, "name"),
        ["cold-1m", "warm-drift", "refine-hier"]
    );
    for w in strings(workloads, "name") {
        assert!(Kind::parse(&w).is_some(), "{w}");
    }
    for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = v.get(key).unwrap();
        let want = |i: usize| -> Vec<String> {
            catalogue
                .iter()
                .map(|m| [m.0, m.1, m.2][i].to_string())
                .collect()
        };
        assert_eq!(strings(listed, "name"), want(0), "{key} names");
        assert_eq!(strings(listed, "unit"), want(1), "{key} units");
        assert_eq!(strings(listed, "better"), want(2), "{key} directions");
    }
}

#[test]
fn sources_pass_the_workspace_analyzer() {
    for entry in std::fs::read_dir(manifest_dir().join("src")).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).unwrap();
        let found =
            geographer_analyze::analyze_source(&format!("crates/geobench/src/{name}"), &text);
        assert!(found.is_empty(), "{found:?}");
    }
    // The analyzer scopes D5 (no unwrap/expect/panic!) to `impl Comm`
    // blocks in parcomm's own files; check the wrappers' as if they were.
    for file in ["src/trace.rs", "src/turn.rs"] {
        let text = std::fs::read_to_string(manifest_dir().join(file)).unwrap();
        let found: Vec<_> =
            geographer_analyze::analyze_source("crates/parcomm/src/checked.rs", &text)
                .into_iter()
                .filter(|v| v.rule == "panic-in-spmd")
                .collect();
        assert!(found.is_empty(), "{file}: {found:?}");
    }
}

/// Four warm-drift steps on `c`: per step the assignment and `Plan::comm`,
/// or the error.
fn warm_chain<C: Comm>(mesh: &Mesh<2>, drift: &DynamicWorkload, c: &C) -> Vec<(Vec<u32>, String)> {
    let mut state: Option<PlanState<2>> = None;
    let mut out = Vec::new();
    for step in 0..4 {
        let points = drift.points_at(step);
        let view = MeshView {
            points: &points,
            weights: &mesh.weights,
            graph: Some(&mesh.graph),
        };
        match Planner::try_solve(&Kind::WarmDrift.spec(view), state.as_ref(), c) {
            Ok(plan) => {
                out.push((plan.assignment.clone(), format!("{:?}", plan.comm)));
                state = plan.state;
            }
            Err(e) => out.push((Vec::new(), e.to_string())),
        }
    }
    out
}

/// The turn-taking wrapper changes when ranks compute, never what: a warm
/// chain through it equals the chain without it, step by step and on both
/// backends, `Plan::comm` included.
#[test]
fn turn_taking_ranks_solve_exactly_as_free_ranks() {
    let mesh = delaunay_unit_square(3_000, 5);
    let drift = Kind::drift(&mesh, mesh.points.clone());
    let threads_free = run_spmd(2, |c| warm_chain(&mesh, &drift, &c));
    let turn = Turn::new().unwrap();
    let threads_turn = run_spmd(2, |c| warm_chain(&mesh, &drift, &TurnComm::new(&c, &turn)));
    let procs_free = run_spmd_proc(2, |c| warm_chain(&mesh, &drift, &c));
    let turn = Turn::new().unwrap();
    let procs_turn = run_spmd_proc(2, |c| warm_chain(&mesh, &drift, &TurnComm::new(&c, &turn)));
    assert!(threads_free[0].iter().all(|(a, _)| a.len() == 3_000));
    assert_eq!(threads_turn, threads_free);
    assert_eq!(procs_turn.unwrap(), procs_free.unwrap());
}

#[test]
fn output_check_rejects_bad_assignments() {
    let w = vec![1.0; 8];
    assert!(check_assignment(&[0, 0, 1, 1, 2, 2, 3, 3], &w, &[4], 0.0).is_ok());
    assert!(
        check_assignment(&[0, 0, 1, 1, 2, 2, 3], &w, &[4], 0.0).is_err(),
        "length"
    );
    assert!(
        check_assignment(&[0, 0, 1, 1, 2, 2, 3, 4], &w, &[4], 0.0).is_err(),
        "id >= k"
    );
    assert!(
        check_assignment(&[0, 0, 0, 1, 1, 2, 2, 2], &w, &[4], 0.5).is_err(),
        "empty block"
    );
    // avg 2, w_max 1: a block of 3 meets the floor avg + w_max, 4 does not.
    assert!(check_assignment(&[0, 0, 0, 1, 2, 2, 3, 3], &w, &[4], 0.0).is_ok());
    assert!(
        check_assignment(&[0, 0, 0, 0, 1, 2, 3, 3], &w, &[4], 0.0).is_err(),
        "overweight"
    );
    // Hierarchy [2, 2]: halves {0,1} and {2,3} must each balance first.
    assert!(
        check_assignment(&[0, 1, 0, 1, 0, 1, 2, 3], &w, &[2, 2], 0.0).is_err(),
        "level 0"
    );
    assert!(check_assignment(&[0, 1, 0, 1, 2, 3, 2, 3], &w, &[2, 2], 0.0).is_ok());
}

#[test]
fn export_check_rejects_overlapping_spans() {
    let ev = |ts: &str, dur: &str| {
        format!("{{\"name\":\"x\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":0,\"tid\":0}}")
    };
    let doc = |evs: &[String]| format!("{{\"traceEvents\":[{}]}}", evs.join(","));
    assert_eq!(
        check_export(&doc(&[ev("0", "10"), ev("2.5", "7.5"), ev("10", "1")])),
        Ok(3)
    );
    assert!(check_export(&doc(&[ev("0", "10"), ev("5", "6")])).is_err());
}

#[test]
fn quantiles_interpolate() {
    assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
    assert_eq!(
        quantile(
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0],
            0.9
        ),
        10.0
    );
}

fn assert_clean(kind: Kind, ranks: &[RankOut]) {
    for (values, errors, [attempted, failed, _]) in ranks {
        assert!(errors.is_empty(), "{kind:?}: {errors:?}");
        assert_eq!(*failed, 0, "{kind:?}");
        assert!(*attempted >= 3, "{kind:?}");
        assert_eq!(values.len(), PER_LAYER.len());
    }
}

#[test]
fn traced_cold_run_replays_the_planner_on_thread_ranks() {
    let mesh = delaunay_unit_square(6_000, 3);
    let origin = Instant::now();
    let kind = Kind::Cold1m;
    let ranks = run_spmd(2, |c| {
        traced_rank(kind, &mesh, None, &c, origin, 0.0, &out_dir())
    });
    assert_clean(kind, &ranks);
}

#[test]
fn traced_hierarchical_run_replays_the_planner() {
    let mesh = bubbles_like(4_000, 3);
    let origin = Instant::now();
    let kind = Kind::RefineHier;
    let ranks = run_spmd(1, |c| {
        traced_rank(kind, &mesh, None, &c, origin, 0.0, &out_dir())
    });
    assert_clean(kind, &ranks);
}

#[test]
fn traced_drift_chain_replays_the_planner_on_process_ranks() {
    let mesh = delaunay_unit_square(3_000, 3);
    let drift = Kind::drift(&mesh, mesh.points.clone());
    let origin = Instant::now();
    let kind = Kind::WarmDrift;
    let ranks = run_spmd_proc(2, |c| {
        traced_rank(kind, &mesh, Some(&drift), &c, origin, 0.0, &out_dir())
    })
    .unwrap();
    assert_clean(kind, &ranks);
}
