//! The three workloads: their inputs (generated from the seed, before any
//! timing), their plan specs, and the per-solve output check.

use geographer::{Config, HierarchySpec};
use geographer_geometry::Point;
use geographer_graph::{evaluate_levels, LevelMetrics};
use geographer_mesh::{
    delaunay_unit_square, families::bubbles_like, DynamicWorkload, Mesh, Scenario,
};
use geographer_planner::{MeshView, Plan, PlanError, PlanSpec, RefineMode, Tool};
use geographer_refine::MultilevelConfig;

use crate::util::{check_assignment, digest};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Repeated cold flat solves of a 1M-vertex Delaunay mesh, 2 thread ranks.
    Cold1m,
    /// A warm-started 120-step cluster-drift chain, 2 forked process ranks.
    WarmDrift,
    /// Repeated cold hierarchical solves with multilevel refinement, 1 rank.
    RefineHier,
}

/// Blocks of every workload.
pub const K: usize = 16;
/// Steps of one warm-drift chain (step 0 is the cold bootstrap).
pub const CHAIN_STEPS: usize = 120;
/// Seed of the drift scenario's attractor paths. The run's seed draws the
/// mesh; the drift itself is part of the workload's definition, because
/// the attractor paths decide the chain's dynamics (a different path per
/// seed varies the median step time by a third). This path's clusters
/// collide late in the chain, which gives the workload its latency tail.
pub const DRIFT_SEED: u64 = 7;

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "cold-1m" => Some(Kind::Cold1m),
            "warm-drift" => Some(Kind::WarmDrift),
            "refine-hier" => Some(Kind::RefineHier),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Cold1m => "cold-1m",
            Kind::WarmDrift => "warm-drift",
            Kind::RefineHier => "refine-hier",
        }
    }

    /// SPMD ranks the workload solves with.
    pub fn ranks(self) -> usize {
        match self {
            Kind::RefineHier => 1,
            _ => 2,
        }
    }

    /// Jobs of a run (for warm-drift, chains of one group): each launches
    /// the ranks, so each gives one setup sample. A cold workload has one
    /// job per input variant.
    pub fn jobs(self) -> usize {
        match self {
            Kind::Cold1m => 4,
            Kind::WarmDrift => 2,
            Kind::RefineHier => 8,
        }
    }

    /// Timed work of a run asked to measure for `seconds`: timed solves
    /// per job on a cold workload, groups of chains on warm-drift, at
    /// least one. It grows with `seconds` but never depends on the run's
    /// own timing, so a slow host does not change which inputs a run
    /// solves. At `--seconds 10` a run takes 25–45 s on the reference
    /// host, input generation and the reference kernel included.
    pub fn work(self, seconds: f64) -> usize {
        // Seconds of `--seconds` per unit of work.
        let unit = match self {
            Kind::Cold1m => 2.5,
            Kind::WarmDrift => 20.0,
            Kind::RefineHier => 5.0,
        };
        ((seconds / unit).round() as usize).max(1)
    }

    /// Arities of the plan's block hierarchy (`[k]` when flat).
    pub fn arities(self) -> Vec<usize> {
        match self {
            Kind::RefineHier => vec![2, 8],
            _ => vec![K],
        }
    }

    /// Meshes a timed run draws from its seed; job `j` solves mesh
    /// `j mod meshes`. Pooling several random meshes keeps a run's figures
    /// from hanging on one of them: on `refine-hier` the time of one
    /// mesh's solves varies by about a fifth from seed to seed. `cold-1m`
    /// solves one mesh, whose million points already average that out (and
    /// whose generation takes seconds).
    pub fn meshes(self) -> usize {
        match self {
            Kind::Cold1m => 1,
            Kind::WarmDrift => 2,
            Kind::RefineHier => 8,
        }
    }

    /// Generated input mesh `i` of a run with seed `seed` (the step-0 mesh
    /// for warm-drift). Mesh 0 is drawn from `seed` itself.
    pub fn input(self, seed: u64, i: usize) -> Mesh<2> {
        let seed = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        match self {
            Kind::Cold1m => delaunay_unit_square(1_000_000, seed),
            Kind::RefineHier => bubbles_like(100_000, seed),
            Kind::WarmDrift => delaunay_unit_square(200_000, seed),
        }
    }

    /// The warm-drift scenario over `mesh`'s topology with step-0 `points`.
    pub fn drift(mesh: &Mesh<2>, points: Vec<Point<2>>) -> DynamicWorkload {
        let base = Mesh {
            points,
            weights: mesh.weights.clone(),
            graph: mesh.graph.clone(),
        };
        DynamicWorkload::new(
            base,
            Scenario::ClusterDrift {
                clusters: 8,
                speed: 0.002,
            },
            DRIFT_SEED,
        )
    }

    /// The points of a run's job `j` (a cold job, or a warm-drift chain's
    /// step 0): the mesh under symmetry `j mod 8` of the unit square. Each
    /// is the same mesh — the graph is unchanged — but the Hilbert order,
    /// the initial centers, and so the solver's iteration counts differ, so
    /// a run's figures pool several inputs instead of one.
    pub fn job_points(points: &[Point<2>], j: usize) -> Vec<Point<2>> {
        points
            .iter()
            .map(|p| {
                let (x, y) = (p[0], p[1]);
                Point::new(match j % 8 {
                    0 => [x, y],
                    1 => [y, x],
                    2 => [1.0 - x, y],
                    3 => [x, 1.0 - y],
                    4 => [1.0 - x, 1.0 - y],
                    5 => [1.0 - y, 1.0 - x],
                    6 => [y, 1.0 - x],
                    _ => [1.0 - y, x],
                })
            })
            .collect()
    }

    /// The plan every solve of the workload runs.
    pub fn spec<'a>(self, mesh: MeshView<'a, 2>) -> PlanSpec<'a, 2> {
        match self {
            Kind::RefineHier => {
                PlanSpec::hierarchical(mesh, HierarchySpec::uniform(&[2, 8]), Config::default())
                    .with_refine(RefineMode::Multilevel(MultilevelConfig::default()))
            }
            _ => PlanSpec::flat(mesh, Tool::Geographer, K, Config::default()),
        }
    }
}

/// Quality of one finished assignment: leaf edge cut, leaf max
/// communication volume, and the level-0 total communication volume (for
/// a flat plan level 0 is the leaf level).
#[derive(Debug, Clone, Copy, Default)]
pub struct Quality {
    pub edge_cut: f64,
    pub max_comm_volume: f64,
    pub internode_volume: f64,
}

impl Quality {
    pub fn of_levels(levels: &[LevelMetrics]) -> Quality {
        let (top, leaf) = (&levels[0], &levels[levels.len() - 1]);
        Quality {
            edge_cut: leaf.edge_cut as f64,
            max_comm_volume: leaf.max_comm_volume as f64,
            internode_volume: top.total_comm_volume as f64,
        }
    }

    /// Quality of a plan: its own per-level metrics when it has them,
    /// else the flat metrics evaluated on the mesh graph.
    pub fn of_plan(plan: &Plan<2>, mesh: &MeshView<'_, 2>) -> Quality {
        match (&plan.levels, mesh.graph) {
            (Some(levels), _) => Quality::of_levels(levels),
            (None, Some(g)) => {
                let identity: Vec<u32> = (0..plan.k as u32).collect();
                Quality::of_levels(&evaluate_levels(g, &plan.assignment, &[identity]))
            }
            (None, None) => Quality::default(),
        }
    }
}

/// Check one solve's outcome (see [`check_assignment`]) plus the solver's
/// own `balance_achieved` flag; returns the assignment digest.
pub fn check_solve(
    kind: Kind,
    res: &Result<Plan<2>, PlanError>,
    weights: &[f64],
) -> Result<u64, String> {
    let plan = res.as_ref().map_err(|e| e.to_string())?;
    check_assignment(
        &plan.assignment,
        weights,
        &kind.arities(),
        Config::default().epsilon,
    )?;
    match plan.stats {
        Some(s) if s.balance_achieved => Ok(digest(&plan.assignment)),
        Some(_) => Err("solver reports balance_achieved = false".into()),
        None => Err("plan carries no solver stats".into()),
    }
}

/// The per-workload assignment digest printed with every result, from the
/// digests of one pass over the workload's inputs (a cold workload's
/// repeated solves of one input; a chain's steps in order).
pub fn run_digest(kind: Kind, digests: &[u64]) -> u64 {
    match kind {
        Kind::WarmDrift => digests.iter().fold(0u64, |h, &d| h.rotate_left(5) ^ d),
        _ => digests.first().copied().unwrap_or(0),
    }
}
