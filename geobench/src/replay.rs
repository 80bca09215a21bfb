//! The traced solve: `Planner::try_solve` replayed through the functions
//! the planner and core call across crate boundaries, each inside a layer
//! span. The replay must be the same program — the traced run requires its
//! assignment to equal `Planner::try_solve`'s bitwise — so every step below
//! mirrors the planner (`crates/planner/src/solve.rs`) and the cold and
//! warm pipelines (`crates/core/src/{pipeline,repartition}.rs`) in order,
//! including their collectives and phase barriers. Only the spec shapes
//! the benchmark's workloads use are replayed.

use geographer::{
    balanced_kmeans, balanced_kmeans_warm, global_bbox, partition_hierarchical_spmd,
    repartition_hierarchical_spmd, validate_k, Config, KMeansStats, PreviousPartition,
};
use geographer_dsort::{rebalance, sample_sort_by_key};
use geographer_geometry::Point;
use geographer_graph::{evaluate_levels, imbalance_with_targets, LevelMetrics};
use geographer_parcomm::{Comm, CommStats, Wire, WireCursor};
use geographer_planner::{refine_hierarchy_multilevel, PlanSpec, PlanState, RefineMode};
use geographer_refine::RefineReport;
use geographer_sfc::HilbertMapper;

use crate::trace::TraceComm;

/// Bits per axis of the pipeline's bootstrap Hilbert curve (the core
/// pipeline's `PIPELINE_SFC_BITS`).
const SFC_BITS: u32 = 16;

/// What one replayed solve produced, in the shape of the `Plan` fields
/// the traced run compares and reports.
pub struct Replayed {
    pub assignment: Vec<u32>,
    pub state: PlanState<2>,
    pub stats: KMeansStats,
    /// Solve-phase counters (the same window `Plan::comm` covers).
    pub comm: CommStats,
    /// Bytes received during the sort/redistribute phase.
    pub dsort_bytes: u64,
    /// Leaf assignment before refinement.
    pub unrefined: Vec<u32>,
    pub refine: Option<Vec<RefineReport>>,
    pub levels: Option<Vec<LevelMetrics>>,
    pub imbalance: f64,
}

/// A point on its way through the sort, as the core pipeline tags it.
#[derive(Clone, Copy)]
struct Tagged {
    key: u64,
    id: u64,
    coords: [f64; 2],
    weight: f64,
}

impl Wire for Tagged {
    fn wire_write(&self, out: &mut Vec<u8>) {
        self.key.wire_write(out);
        self.id.wire_write(out);
        self.coords.wire_write(out);
        self.weight.wire_write(out);
    }
    fn wire_read(r: &mut WireCursor<'_>) -> Self {
        Tagged {
            key: u64::wire_read(r),
            id: u64::wire_read(r),
            coords: <[f64; 2]>::wire_read(r),
            weight: f64::wire_read(r),
        }
    }
}

/// The core pipeline's phase-boundary snapshot (barrier, read, barrier).
fn phase_snapshot<C: Comm>(comm: &C) -> CommStats {
    comm.barrier();
    let s = comm.stats();
    comm.barrier();
    s
}

struct Solved {
    local: Vec<u32>,
    state: PlanState<2>,
    stats: KMeansStats,
    dsort_bytes: u64,
}

/// Replay `Planner::try_solve(spec, state, comm)` under layer spans.
pub fn replay<C: Comm>(
    spec: &PlanSpec<'_, 2>,
    state: Option<&PlanState<2>>,
    comm: &TraceComm<'_, C>,
) -> Result<Replayed, String> {
    comm.span("planner", || replay_planner(spec, state, comm))
}

fn replay_planner<C: Comm>(
    spec: &PlanSpec<'_, 2>,
    state: Option<&PlanState<2>>,
    comm: &TraceComm<'_, C>,
) -> Result<Replayed, String> {
    let n = spec.mesh.points.len();
    let (p, r) = (comm.size(), comm.rank());
    let (lo, hi) = (r * n / p, (r + 1) * n / p);
    let (points, weights) = comm
        .span("planner.validate", || {
            spec.validate(state)
                .map(|_| (&spec.mesh.points[lo..hi], &spec.mesh.weights[lo..hi]))
        })
        .map_err(|e| e.to_string())?;
    let cfg = &spec.config;

    let before = comm.stats();
    let solved = match (&spec.hierarchy, state) {
        (Some(h), prev) => comm.span("hierarchy", || {
            let res = match prev {
                Some(PlanState::Hierarchical(prev)) => {
                    repartition_hierarchical_spmd(comm, points, weights, prev, h, cfg)
                }
                _ => partition_hierarchical_spmd(comm, points, weights, h, cfg),
            };
            Solved {
                local: res.assignment,
                state: PlanState::Hierarchical(res.previous),
                stats: res.stats,
                dsort_bytes: 0,
            }
        }),
        (None, _) if !spec.tool.is_stateful() => {
            return Err("the replay covers the Geographer tool only".into())
        }
        (None, Some(PlanState::Flat(prev))) => {
            warm_pipeline(comm, points, weights, prev, spec.k, cfg)
        }
        (None, _) => cold_pipeline(comm, points, weights, spec.k, cfg),
    };
    let comm_used = comm.stats().since(&before);

    let mut assignment: Vec<u32> = comm.span("planner.assembly", || {
        if p == 1 {
            solved.local
        } else {
            comm.allgather(solved.local).into_iter().flatten().collect()
        }
    });
    let unrefined = assignment.clone();

    let refine = match (&spec.refine, &spec.hierarchy, spec.mesh.graph) {
        (RefineMode::None, _, _) => None,
        (RefineMode::Multilevel(mcfg), Some(h), Some(g)) => Some(comm.span("refine", || {
            refine_hierarchy_multilevel(g, &mut assignment, spec.mesh.weights, h, mcfg)
        })),
        _ => {
            return Err(
                "the replay covers no-refinement and hierarchical multilevel specs only".into(),
            )
        }
    };

    let (imbalance, levels) = comm.span("planner.metrics", || {
        let fractions = spec.leaf_fractions();
        let imbalance =
            imbalance_with_targets(&assignment, spec.mesh.weights, spec.k, fractions.as_deref());
        let levels = match (&spec.hierarchy, spec.mesh.graph) {
            (Some(h), Some(g)) => Some(evaluate_levels(g, &assignment, &h.level_groups())),
            _ => None,
        };
        (imbalance, levels)
    });

    Ok(Replayed {
        assignment,
        state: solved.state,
        stats: solved.stats,
        comm: comm_used,
        dsort_bytes: solved.dsort_bytes,
        unrefined,
        refine,
        levels,
        imbalance,
    })
}

/// The cold pipeline: Hilbert index, sort + rebalance, k-means from
/// centers along the curve, write-back to the input order.
fn cold_pipeline<C: Comm>(
    comm: &TraceComm<'_, C>,
    points: &[Point<2>],
    weights: &[f64],
    k: usize,
    cfg: &Config,
) -> Solved {
    cfg.validate();
    phase_snapshot(comm);
    let local_n = points.len() as u64;
    let (tagged, id_offset, global_n) = comm.span("sfc.index", || {
        let bb = global_bbox(comm, points);
        let mapper = HilbertMapper::new(bb, SFC_BITS);
        let id_offset = comm.exscan_sum_u64(local_n);
        let global_n = comm.allreduce(local_n, |a, b| a + b);
        validate_k(k, global_n);
        let tagged: Vec<Tagged> = points
            .iter()
            .zip(weights)
            .enumerate()
            .map(|(i, (p, &w))| Tagged {
                key: mapper.key_of(p),
                id: id_offset + i as u64,
                coords: *p.coords(),
                weight: w,
            })
            .collect();
        (tagged, id_offset, global_n)
    });
    let after_index = phase_snapshot(comm);

    let sorted = comm.span("dsort.sort", || sample_sort_by_key(comm, tagged, |t| t.key));
    let sorted = comm.span("dsort.rebalance", || rebalance(comm, sorted));
    let after_sort = phase_snapshot(comm);

    let out = comm.span("kmeans", || {
        let mut sorted_points: Vec<Point<2>> = Vec::with_capacity(sorted.len());
        let mut sorted_weights: Vec<f64> = Vec::with_capacity(sorted.len());
        for t in &sorted {
            sorted_points.push(Point::new(t.coords));
            sorted_weights.push(t.weight);
        }
        let centers = initial_centers(comm, &sorted_points, k, global_n);
        balanced_kmeans(comm, &sorted_points, &sorted_weights, k, centers, cfg)
    });
    phase_snapshot(comm);

    let local = comm.span("pipeline.writeback", || {
        route_back(comm, &sorted, &out.assignment, id_offset, local_n as usize)
    });
    phase_snapshot(comm);

    Solved {
        local,
        state: PlanState::Flat(PreviousPartition {
            centers: out.centers,
            influence: out.influence,
        }),
        stats: out.stats,
        dsort_bytes: after_sort.since(&after_index).bytes(),
    }
}

/// The warm pipeline: k-means resumed from the previous centers and
/// influences on the unsorted shard (no Hilbert bootstrap).
fn warm_pipeline<C: Comm>(
    comm: &TraceComm<'_, C>,
    points: &[Point<2>],
    weights: &[f64],
    prev: &PreviousPartition<2>,
    k: usize,
    cfg: &Config,
) -> Solved {
    cfg.validate();
    let warm_cfg = Config {
        sampling_init: false,
        ..cfg.clone()
    };
    phase_snapshot(comm);
    let out = comm.span("kmeans", || {
        let global_n = comm.allreduce(points.len() as u64, |a, b| a + b);
        validate_k(k, global_n);
        balanced_kmeans_warm(
            comm,
            points,
            weights,
            k,
            prev.centers.clone(),
            prev.influence.clone(),
            &warm_cfg,
        )
    });
    phase_snapshot(comm);
    Solved {
        local: out.assignment,
        state: PlanState::Flat(PreviousPartition {
            centers: out.centers,
            influence: out.influence,
        }),
        stats: out.stats,
        dsort_bytes: 0,
    }
}

/// Initial centers at global sorted positions `i·n/k + n/(2k)`.
fn initial_centers<C: Comm>(
    comm: &C,
    sorted: &[Point<2>],
    k: usize,
    global_n: u64,
) -> Vec<Point<2>> {
    let my_offset = comm.exscan_sum_u64(sorted.len() as u64);
    let my_end = my_offset + sorted.len() as u64;
    let mut mine: Vec<(u64, [f64; 2])> = Vec::new();
    for i in 0..k as u64 {
        let pos = (i * global_n) / k as u64 + global_n / (2 * k as u64);
        let pos = pos.min(global_n.saturating_sub(1));
        if pos >= my_offset && pos < my_end {
            mine.push((i, *sorted[(pos - my_offset) as usize].coords()));
        }
    }
    let mut all: Vec<(u64, [f64; 2])> = comm.allgather(mine).into_iter().flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    all.dedup_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, c)| Point::new(c)).collect()
}

/// Route `(original id, block)` pairs back to the ranks that own the ids
/// in the input distribution.
fn route_back<C: Comm>(
    comm: &C,
    sorted: &[Tagged],
    blocks: &[u32],
    my_id_offset: u64,
    my_input_len: usize,
) -> Vec<u32> {
    let offsets: Vec<u64> = comm
        .allgather(vec![my_id_offset])
        .into_iter()
        .map(|v| v[0])
        .collect();
    // Owner = the last rank whose offset is <= id.
    let owner_of = |id: u64| offsets.partition_point(|&o| o <= id) - 1;
    let mut sends: Vec<Vec<(u64, u32)>> = vec![Vec::new(); comm.size()];
    for (t, &b) in sorted.iter().zip(blocks) {
        sends[owner_of(t.id)].push((t.id, b));
    }
    let mut assignment = vec![u32::MAX; my_input_len];
    for (id, b) in comm.alltoallv(sends).into_iter().flatten() {
        assignment[(id - my_id_offset) as usize] = b;
    }
    assignment
}
