//! The traced run that reports the per-layer metrics.
//!
//! It is separate from the timed runs. Each traced step solves once with
//! `Planner::try_solve` on the plain communicator (the untraced sample)
//! and once by [`replay`] through the layer functions on a [`TraceComm`]
//! (the traced sample). The replay must reproduce the planner's assignment
//! and state bitwise, and the wrapper's collective calls, rounds and bytes
//! must equal `Plan::comm` kind by kind; the first traced step also runs
//! the planner itself on the wrapper and holds it to the same equality.
//! The last step's spans are written as a Chrome trace and parsed back.

use std::path::Path;
use std::time::Instant;

use geographer::KMeansStats;
use geographer_graph::coarsen::{contract, heavy_edge_matching, WeightedCsrGraph};
use geographer_graph::{relabel_free_migration, CsrGraph};
use geographer_mesh::{DynamicWorkload, Mesh};
use geographer_parcomm::{Collective, Comm};
use geographer_planner::{MeshView, PlanState, Planner};
use geographer_refine::MultilevelConfig;

use crate::metrics::PER_LAYER;
use crate::replay::{replay, Replayed};
use crate::trace::{
    busy_wait, call_counts, check_counts, check_export, chrome_json, layer_id, layer_seconds,
    unattributed_frac, Span, TraceComm, KINDS,
};
use crate::util::median;
use crate::workload::{check_solve, run_digest, Kind, CHAIN_STEPS, K};

/// Fewest traced steps of a cold workload's traced run.
const MIN_STEPS: usize = 2;

/// Per-layer samples, one per traced step, keyed by metric name.
struct Samples(Vec<Vec<f64>>);

impl Samples {
    fn add(&mut self, name: &str, v: f64) {
        match PER_LAYER.iter().position(|m| m.0 == name) {
            Some(i) => self.0[i].push(v),
            None => unreachable!("unknown per-layer metric {name}"),
        }
    }
}

/// What a rank reports: per-layer values in [`PER_LAYER`] order (from
/// rank 0), errors, and `[attempted, failed, digest]`.
pub type RankOut = (Vec<f64>, Vec<String>, [u64; 3]);

/// Block-respecting heavy-edge coarsening of `g` under `labels`, as the
/// multilevel V-cycle builds it: seconds in matching and contraction,
/// levels, and the coarsest level's vertex count.
fn coarsen_probe(g: &CsrGraph, weights: &[f64], labels: &[u32]) -> [f64; 4] {
    let cfg = MultilevelConfig::default();
    let mut cur = WeightedCsrGraph::from_csr(g, weights.to_vec());
    let mut labels = labels.to_vec();
    let (mut match_s, mut contract_s, mut levels) = (0.0, 0.0, 1usize);
    while cur.n() > cfg.coarsest_vertices && levels < cfg.max_levels {
        let t = Instant::now();
        let mate = heavy_edge_matching(&cur, Some(&labels));
        match_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let c = contract(&cur, &mate);
        contract_s += t.elapsed().as_secs_f64();
        if c.coarse.n() as f64 > 0.95 * cur.n() as f64 {
            break;
        }
        let mut coarse = vec![0u32; c.coarse.n()];
        for (v, &cv) in c.coarse_of_fine.iter().enumerate() {
            coarse[cv as usize] = labels[v];
        }
        (cur, labels, levels) = (c.coarse, coarse, levels + 1);
    }
    [match_s, contract_s, levels as f64, cur.n() as f64]
}

fn max_over(all: &[Vec<Span>], f: impl Fn(&[Span]) -> f64) -> f64 {
    all.iter().map(|s| f(s)).fold(0.0, f64::max)
}

/// Record one traced step's per-layer samples: `all` holds every rank's
/// spans, `stats` the rank-reduced k-means counters of `rep`.
fn record(
    s: &mut Samples,
    all: &[Vec<Span>],
    n: f64,
    rep: &Replayed,
    stats: &KMeansStats,
    hierarchical: bool,
) -> Result<(), String> {
    let (p, comm, dsort_bytes) = (all.len(), &rep.comm, rep.dsort_bytes);
    let secs = |name: &str| max_over(all, |sp| layer_seconds(sp, layer_id(name)));
    s.add(
        "planner.self_s",
        max_over(all, |sp| {
            ["planner.validate", "planner.assembly", "planner.metrics"]
                .iter()
                .map(|l| layer_seconds(sp, layer_id(l)))
                .sum()
        }),
    );
    s.add("sfc.index_s", secs("sfc.index"));
    s.add("sfc.ns_per_point", secs("sfc.index") * 1e9 / n);
    s.add("dsort.sort_s", secs("dsort.sort"));
    s.add("dsort.rebalance_s", secs("dsort.rebalance"));
    s.add("dsort.bytes", dsort_bytes as f64);
    s.add("pipeline.writeback_s", secs("pipeline.writeback"));
    let kmeans_s = secs("kmeans");
    s.add("kmeans.s", kmeans_s);
    s.add("kmeans.assignment_s", stats.assignment_seconds);
    s.add(
        "kmeans.other_s",
        if kmeans_s > 0.0 {
            kmeans_s - stats.assignment_seconds
        } else {
            0.0
        },
    );
    s.add(
        "kmeans.movement_iterations",
        stats.movement_iterations as f64,
    );
    s.add("kmeans.balance_iterations", stats.balance_iterations as f64);
    s.add("kmeans.distance_evals", stats.distance_evals as f64);
    s.add("kmeans.points_visited", stats.points_visited as f64);
    s.add("kmeans.skip_rate", stats.skip_rate());
    s.add("kmeans.bbox_breaks", stats.bbox_breaks as f64);
    s.add("hierarchy.s", secs("hierarchy"));
    s.add(
        "hierarchy.balance_iterations",
        if hierarchical {
            stats.balance_iterations as f64
        } else {
            0.0
        },
    );
    s.add("refine.s", secs("refine"));
    s.add("trace.unattributed_frac", max_over(all, unattributed_frac));

    let calls = call_counts(&all[0], p > 1);
    let (busy, wait) = busy_wait(all)?;
    for (i, kind) in KINDS.iter().enumerate() {
        s.add(&format!("parcomm.{kind}.calls"), calls[i] as f64);
        s.add(&format!("parcomm.{kind}.busy_s"), busy[i]);
        s.add(&format!("parcomm.{kind}.wait_s"), wait[i]);
    }
    for kind in Collective::ALL {
        let op = comm.op(kind);
        s.add(&format!("parcomm.{}.rounds", kind.name()), op.rounds as f64);
        s.add(&format!("parcomm.{}.bytes", kind.name()), op.bytes as f64);
    }
    Ok(())
}

/// The traced run on one rank (an SPMD call: every rank runs it).
pub fn traced_rank<C: Comm>(
    kind: Kind,
    mesh: &Mesh<2>,
    drift: Option<&DynamicWorkload>,
    c: &C,
    origin: Instant,
    budget: f64,
    out_dir: &Path,
) -> RankOut {
    let tc = TraceComm::new(c, origin);
    let p = c.size();
    let n = mesh.points.len() as f64;
    let weights = &mesh.weights;
    let mut s = Samples(vec![Vec::new(); PER_LAYER.len()]);
    let (mut untraced, mut traced, mut migration) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut errors) = (0u64, 0u64, Vec::new());
    let mut state: Option<PlanState<2>> = None;
    let mut prev: Option<Vec<u32>> = None;
    let mut unrefined: Option<Vec<u32>> = None;
    let mut last_spans: Vec<Vec<Span>> = Vec::new();
    let mut digests = Vec::new();
    let start = Instant::now();
    let steps = if drift.is_some() {
        CHAIN_STEPS
    } else {
        usize::MAX
    };
    for step in 0..steps {
        let drifted = drift.map(|d| d.points_at(step));
        let view = MeshView {
            points: drifted.as_deref().unwrap_or(&mesh.points),
            weights,
            graph: Some(&mesh.graph),
        };
        let spec = kind.spec(view);

        c.barrier();
        let t = Instant::now();
        let res = Planner::try_solve(&spec, state.as_ref(), c);
        let mut wall = [t.elapsed().as_secs_f64()];
        c.allreduce_max_f64(&mut wall);
        attempted += 1;
        let plan = match (check_solve(kind, &res, weights), res) {
            (Ok(d), Ok(plan)) => {
                digests.push(d);
                plan
            }
            (checked, _) => {
                failed += 1;
                errors.push(format!(
                    "step {step}: {}",
                    checked.err().unwrap_or_default()
                ));
                break;
            }
        };
        let mut step_errors: Vec<String> = Vec::new();
        if step > 0 {
            untraced.push(wall[0]);
            c.barrier();
            tc.take_spans();
            let t = Instant::now();
            let rep = replay(&spec, state.as_ref(), &tc);
            let mut wall = [t.elapsed().as_secs_f64()];
            c.allreduce_max_f64(&mut wall);
            traced.push(wall[0]);
            let spans = tc.take_spans();
            attempted += 1;
            let rep = match rep {
                Ok(rep) => rep,
                Err(e) => {
                    failed += 1;
                    errors.push(format!("step {step}: replay: {e}"));
                    break;
                }
            };
            if rep.assignment != plan.assignment {
                step_errors.push("replay assignment differs from Planner::try_solve".into());
            }
            if format!(
                "{:?}",
                (Some(&rep.state), &rep.levels, rep.imbalance.to_bits())
            ) != format!(
                "{:?}",
                (plan.state.as_ref(), &plan.levels, plan.imbalance.to_bits())
            ) {
                step_errors.push("replay state or metrics differ from Planner::try_solve".into());
            }
            if let Err(e) = check_counts(&call_counts(&spans, p > 1), &rep.comm, &plan.comm) {
                step_errors.push(format!("replay collectives: {e}"));
            }
            if step == 1 {
                // The planner itself on the wrapper: same output, and the
                // wrapper's calls equal its Plan::comm exactly.
                c.barrier();
                let wrapped = Planner::try_solve(&spec, state.as_ref(), &tc);
                let ws = tc.take_spans();
                attempted += 1;
                match wrapped {
                    Ok(w) if w.assignment == plan.assignment => {
                        if let Err(e) = check_counts(&call_counts(&ws, p > 1), &w.comm, &plan.comm)
                        {
                            step_errors.push(format!("planner on the wrapper: {e}"));
                        }
                    }
                    _ => step_errors.push("planner on the wrapper: different outcome".into()),
                }
            }
            let all: Vec<Vec<Span>> = c.allgather(spans);
            let stats = rep.stats.reduce(c);
            if let Err(e) = record(&mut s, &all, n, &rep, &stats, kind == Kind::RefineHier) {
                step_errors.push(e);
            }
            if let Some(levels) = &rep.refine {
                let before: u64 = levels.iter().map(|r| r.cut_before).sum();
                let after: u64 = levels.iter().map(|r| r.cut_after).sum();
                s.add("refine.cut_before", before as f64);
                s.add("refine.cut_after", after as f64);
                s.add(
                    "refine.gain_frac",
                    (before - after) as f64 / before.max(1) as f64,
                );
                s.add(
                    "refine.moves",
                    levels.iter().map(|r| r.moves).sum::<usize>() as f64,
                );
                s.add(
                    "refine.rounds",
                    levels.iter().map(|r| r.rounds).sum::<usize>() as f64,
                );
            }
            if let Some(prev) = &prev {
                migration.push(
                    relabel_free_migration(prev, &plan.assignment, weights, K).point_fraction,
                );
            }
            unrefined = Some(rep.unrefined);
            last_spans = all;
        }
        failed += step_errors.len().min(1) as u64;
        errors.extend(step_errors.into_iter().map(|e| format!("step {step}: {e}")));
        if drift.is_some() {
            // The chain warm-starts each step from the previous plan.
            prev = Some(plan.assignment);
            state = plan.state;
        } else {
            let mut elapsed = [start.elapsed().as_secs_f64()];
            c.allreduce_max_f64(&mut elapsed);
            if step >= MIN_STEPS && elapsed[0] >= budget {
                break;
            }
        }
    }

    let mut values: Vec<f64> = s.0.iter().map(|v| median(v)).collect();
    let mut set = |name: &str, v: f64| {
        if let Some(i) = PER_LAYER.iter().position(|m| m.0 == name) {
            values[i] = v;
        }
    };
    set(
        "migration_frac",
        migration.iter().fold(0.0, |a, b| a + b) / migration.len().max(1) as f64,
    );
    set(
        "trace.overhead_frac",
        median(&traced) / median(&untraced) - 1.0,
    );
    if let (Kind::RefineHier, Some(labels)) = (kind, &unrefined) {
        let [m, ct, l, v] = coarsen_probe(&mesh.graph, weights, labels);
        set("graph.match_s", m);
        set("graph.contract_s", ct);
        set("graph.levels", l);
        set("graph.coarsest_vertices", v);
    }
    if c.rank() == 0 && !last_spans.is_empty() {
        if let Err(e) = export(kind, &last_spans, out_dir) {
            failed += 1;
            errors.push(format!("trace export: {e}"));
        }
    }
    (
        values,
        errors,
        [attempted, failed, run_digest(kind, &digests)],
    )
}

/// Write the Chrome trace of one step and check it parses back with
/// properly nested spans on every rank.
fn export(kind: Kind, all: &[Vec<Span>], dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("trace-{}.json", kind.name()));
    std::fs::write(&path, chrome_json(all)).map_err(|e| e.to_string())?;
    let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
    let events = check_export(&text)?;
    let want: usize = all.iter().map(|s| s.len()).sum();
    if events != want {
        return Err(format!("{events} events parsed back, {want} written"));
    }
    eprintln!("trace: {} ({events} events)", path.display());
    Ok(())
}
