//! The timed (untraced) runs that report the end-to-end metrics.
//!
//! Every run launches its SPMD ranks several times ("jobs"). A job's setup
//! runs from the launch to the moment its first timed solve may start:
//! thread spawn or fork plus socket rendezvous, plus the first solve every
//! launch pays (a discarded warm-up on the cold workloads, the cold
//! bootstrap on the warm chain). Within a job the ranks stay resident;
//! each timed solve starts after a barrier and ends when every rank is done.
//! The ranks take turns (see [`crate::turn`]): a solve's wall time is the
//! sum of its ranks' work plus the collectives.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

use geographer_mesh::{DynamicWorkload, Mesh};
use geographer_parcomm::{run_spmd, run_spmd_proc, Comm, Wire, WireCursor};
use geographer_planner::{MeshView, PlanState, Planner};

use crate::calib::Calibration;
use crate::metrics::END_TO_END;
use crate::turn::{Turn, TurnComm};
use crate::util::{median, peak_rss_mib, quantile, reset_peak_rss_mib, steal_seconds, trim_heap};
use crate::workload::{check_solve, run_digest, Kind, Quality, CHAIN_STEPS};

/// Solves during which the hypervisor stole, summed over the host's CPUs,
/// more than this share of the solve's wall time measure the neighbours,
/// not the program: on the reference VM a solve's wall time grows by about
/// 1.3 × the seconds stolen, in bursts that last minutes. Such solves are
/// still checked but left out of the timing figures, unless they are most
/// of a run's solves.
const STEAL_LIMIT: f64 = 0.05;

/// Setup samples of a warm-drift run: a chain gives one, so the run adds
/// jobs that only launch the ranks and bootstrap.
const SETUPS: usize = 8;

/// One job's record (per rank; rank 0's quality is the evaluated one).
#[derive(Clone, Default)]
struct JobRec {
    setup: f64,
    walls: Vec<f64>,
    /// Per timed solve: the CPU seconds the hypervisor stole from the host
    /// during it, over its wall time (0 for chain steps, too short for the
    /// 10 ms steal clock).
    stolen: Vec<f64>,
    /// Digest of every solve of the job, the untimed first one included;
    /// 0 marks a failed solve.
    digests: Vec<u64>,
    /// Input of every solve of a cold job, as `mesh * 8 + variant` (empty
    /// for a chain).
    variants: Vec<usize>,
    /// Reference-kernel passes timed during the job (rank 0 only).
    calib: Vec<f64>,
    errors: Vec<String>,
    imbalance: Vec<f64>,
    /// Per timed solve: edge cut, max comm volume, level-0 volume
    /// (evaluated on rank 0 only).
    quality: Vec<[f64; 3]>,
    rss_mib: f64,
}

impl Wire for JobRec {
    fn wire_write(&self, out: &mut Vec<u8>) {
        self.setup.wire_write(out);
        self.walls.wire_write(out);
        self.stolen.wire_write(out);
        self.digests.wire_write(out);
        self.variants.wire_write(out);
        self.calib.wire_write(out);
        self.errors.wire_write(out);
        self.imbalance.wire_write(out);
        self.quality.wire_write(out);
        self.rss_mib.wire_write(out);
    }
    fn wire_read(r: &mut WireCursor<'_>) -> Self {
        JobRec {
            setup: f64::wire_read(r),
            walls: Vec::wire_read(r),
            stolen: Vec::wire_read(r),
            digests: Vec::wire_read(r),
            variants: Vec::wire_read(r),
            calib: Vec::wire_read(r),
            errors: Vec::wire_read(r),
            imbalance: Vec::wire_read(r),
            quality: Vec::wire_read(r),
            rss_mib: f64::wire_read(r),
        }
    }
}

/// A run's outcome, ready to print.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub digest: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

fn check_into(
    kind: Kind,
    res: &Result<geographer_planner::Plan<2>, geographer_planner::PlanError>,
    weights: &[f64],
    rec: &mut JobRec,
) {
    match check_solve(kind, res, weights) {
        Ok(d) => rec.digests.push(d),
        Err(e) => {
            rec.digests.push(0);
            rec.errors.push(e);
        }
    }
}

/// One cold-workload job on thread ranks: a warm-up solve of variant
/// `first` (see [`Kind::job_points`]), then `count` timed solves of
/// variants `first`, `first + 1`, … (mod 8). The first timed solve repeats
/// the warm-up's input; the others widen the run's sample of inputs.
fn cold_job(
    kind: Kind,
    calib: &Mutex<Calibration>,
    mesh: &Mesh<2>,
    mesh_id: usize,
    first: usize,
    count: usize,
) -> Vec<JobRec> {
    let turn = Turn::new().expect("socket pair for the ranks' turns");
    let launch = Instant::now();
    run_spmd(kind.ranks(), |c| {
        let c = TurnComm::new(&c, &turn);
        let mut rec = JobRec::default();
        let solve = |v: usize, rec: &mut JobRec, timed: bool| {
            // Input generation: before the solve's barrier, untimed.
            let points = Kind::job_points(&mesh.points, v);
            let view = MeshView {
                points: &points,
                weights: &mesh.weights,
                graph: Some(&mesh.graph),
            };
            let spec = kind.spec(view);
            if timed && c.rank() == 0 {
                if let Ok(mut k) = calib.lock() {
                    rec.calib.push(k.pass());
                }
            }
            let t = c.barrier_instant();
            let steal = steal_seconds();
            let res = Planner::try_solve(&spec, None, &c);
            let mut buf = [t.elapsed().as_secs_f64(), steal_seconds() - steal];
            c.allreduce_max_f64(&mut buf);
            check_into(kind, &res, &mesh.weights, rec);
            rec.variants.push(mesh_id * 8 + v % 8);
            if timed {
                rec.walls.push(buf[0]);
                rec.stolen.push(buf[1] / buf[0]);
                rec.imbalance
                    .push(res.as_ref().map_or(f64::INFINITY, |p| p.imbalance));
                if let (Ok(plan), 0) = (&res, c.rank()) {
                    let q = Quality::of_plan(plan, &view);
                    rec.quality
                        .push([q.edge_cut, q.max_comm_volume, q.internode_volume]);
                }
            }
        };
        solve(first, &mut rec, false);
        rec.setup = c.barrier_instant().duration_since(launch).as_secs_f64();
        for v in first..first + count {
            solve(v, &mut rec, true);
        }
        rec
    })
}

/// One warm-drift chain on forked process ranks: a cold bootstrap on the
/// step-0 mesh, then `steps − 1` timed steps, each warm-started from the
/// previous plan's state on the drifted points. With `steps` = 1 the job
/// only sets up.
fn drift_chain(
    kind: Kind,
    calib: &Mutex<Calibration>,
    drift: &DynamicWorkload,
    steps: usize,
) -> Result<Vec<JobRec>, String> {
    let turn = Turn::new().map_err(|e| format!("socket pair for the ranks' turns: {e}"))?;
    let launch = Instant::now();
    run_spmd_proc(kind.ranks(), |c| {
        let c = TurnComm::new(&c, &turn);
        let base_rss = reset_peak_rss_mib();
        let mut rec = JobRec::default();
        let weights = &drift.base.weights;
        let mut state: Option<PlanState<2>> = None;
        for step in 0..steps {
            // Input generation: before the step's barrier, untimed.
            let points = drift.points_at(step);
            let view = MeshView {
                points: &points,
                weights,
                graph: Some(&drift.base.graph),
            };
            let spec = kind.spec(view);
            if step % 4 == 1 && c.rank() == 0 {
                if let Ok(mut k) = calib.lock() {
                    rec.calib.push(k.pass());
                }
            }
            let t = c.barrier_instant();
            let res = Planner::try_solve(&spec, state.as_ref(), &c);
            let mut buf = [t.elapsed().as_secs_f64()];
            c.allreduce_max_f64(&mut buf);
            check_into(kind, &res, weights, &mut rec);
            if step == 0 {
                rec.setup = c.barrier_instant().duration_since(launch).as_secs_f64();
            } else {
                rec.walls.push(buf[0]);
                rec.stolen.push(0.0);
                rec.imbalance
                    .push(res.as_ref().map_or(f64::INFINITY, |p| p.imbalance));
            }
            if step + 1 == steps {
                // Repeat the last (tail) step from the same state, untimed: it
                // must reproduce the step bitwise.
                let again = Planner::try_solve(&spec, state.as_ref(), &c);
                if check_solve(kind, &again, weights).ok() != rec.digests.last().copied() {
                    rec.errors
                        .push(format!("re-solving step {step} changed its output"));
                    rec.digests.pop();
                    rec.digests.push(0);
                }
            }
            match &res {
                Ok(plan) => {
                    if step > 0 && c.rank() == 0 {
                        let q = Quality::of_plan(plan, &view);
                        rec.quality
                            .push([q.edge_cut, q.max_comm_volume, q.internode_volume]);
                    }
                    state = plan.state.clone();
                }
                // A failed step restarts the chain cold.
                Err(_) => state = None,
            }
        }
        rec.rss_mib = peak_rss_mib() - base_rss;
        rec
    })
    .map_err(|e| format!("process ranks failed: {e}"))
}

/// Run `kind`, with as much timed work as takes about `seconds` on the
/// reference host (see [`Kind::work`]), and gather the end-to-end metrics.
/// Job `j` solves mesh `j mod meshes.len()`, starting from input variant
/// `j`. A cold run has [`Kind::jobs`] jobs, one per variant, each with the
/// same number of timed solves, so each variant is solved equally often.
/// A warm-drift run solves its chains in groups of [`Kind::jobs`], then
/// launches set-up-only jobs until it has [`SETUPS`] setup samples. The
/// work does not depend on how fast the host runs, so neither does the mix
/// of inputs behind a run's figures.
pub fn run(kind: Kind, meshes: &[Mesh<2>], seconds: f64) -> Outcome {
    let mut jobs: Vec<Vec<JobRec>> = Vec::new();
    let mut errors = Vec::new();
    let mut crashed = 0u64;
    let calib = Mutex::new(Calibration::new(meshes[0].points.len()));
    let (chains, per_job) = match kind {
        Kind::WarmDrift => (kind.jobs() * kind.work(seconds), 0),
        _ => (0, kind.work(seconds)),
    };
    let n_jobs = match kind {
        Kind::WarmDrift => chains.max(SETUPS),
        _ => kind.jobs(),
    };
    for j in 0..n_jobs {
        // Every job starts from the same resident floor: the input plus
        // nothing the previous job freed. Thread ranks share this process,
        // so its peak above the floor is the job's.
        trim_heap();
        let base_rss = reset_peak_rss_mib();
        let mesh_id = j % meshes.len();
        let mesh = &meshes[mesh_id];
        let result = match kind {
            Kind::WarmDrift => {
                let drift = Kind::drift(mesh, Kind::job_points(&mesh.points, j));
                let steps = if j < chains { CHAIN_STEPS } else { 1 };
                drift_chain(kind, &calib, &drift, steps)
            }
            _ => catch_unwind(AssertUnwindSafe(|| {
                cold_job(kind, &calib, mesh, mesh_id, j, per_job)
            }))
            .map(|mut recs| {
                recs[0].rss_mib = peak_rss_mib() - base_rss;
                recs
            })
            .map_err(|_| "a rank panicked".to_string()),
        };
        match result {
            Ok(recs) => jobs.push(recs),
            Err(e) => {
                crashed += 1;
                errors.push(e);
            }
        }
    }
    let calib = calib.into_inner().unwrap_or_else(|e| e.into_inner());
    summarize(kind, jobs, errors, crashed, &calib)
}

fn summarize(
    kind: Kind,
    jobs: Vec<Vec<JobRec>>,
    mut errors: Vec<String>,
    crashed: u64,
    reference: &Calibration,
) -> Outcome {
    let mut attempted = crashed;
    let mut failed = crashed;
    let (mut walls, mut stolen, mut setups, mut imbalance) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut quality: Vec<[f64; 3]> = Vec::new();
    let mut first_job: Option<Vec<u64>> = None;
    let mut first_of: BTreeMap<usize, u64> = BTreeMap::new();
    let mut peaks = Vec::new();
    let mut passes = Vec::new();
    for ranks in &jobs {
        let lead = &ranks[0];
        // A solve fails if any rank's check failed, or if the ranks or the
        // jobs of the run disagree on its output.
        let n_solves = lead.digests.len();
        let mut digests = lead.digests.clone();
        for r in ranks {
            errors.extend(r.errors.iter().cloned());
            for (d, &rd) in digests.iter_mut().zip(&r.digests) {
                if rd != *d {
                    *d = 0;
                }
            }
        }
        attempted += n_solves as u64;
        // Every solve of an input must match the run's first solve of it
        // (a chain checks its own repeat, see `drift_chain`).
        for (i, &d) in digests.iter().enumerate() {
            let first = lead
                .variants
                .get(i)
                .map(|&v| *first_of.entry(v).or_insert(d));
            if d == 0 || first.is_some_and(|f| f != d) {
                failed += 1;
                if d != 0 {
                    errors.push(format!(
                        "solve {i} disagrees bitwise with the run's first solve of its input"
                    ));
                }
            }
        }
        first_job.get_or_insert(digests);
        setups.push(ranks.iter().map(|r| r.setup).fold(0.0, f64::max));
        peaks.push(ranks.iter().map(|r| r.rss_mib).sum::<f64>());
        eprintln!(
            "job: setup {:.3} s, peak {:.1} MiB, solves {:?}",
            setups[setups.len() - 1],
            peaks[peaks.len() - 1],
            lead.walls
                .iter()
                .map(|w| (w * 1e3).round() / 1e3)
                .collect::<Vec<_>>()
        );
        walls.extend_from_slice(&lead.walls);
        passes.extend_from_slice(&lead.calib);
        stolen.extend_from_slice(&lead.stolen);
        imbalance.extend_from_slice(&lead.imbalance);
        quality.extend_from_slice(&lead.quality);
    }
    let clean: Vec<f64> = walls
        .iter()
        .zip(&stolen)
        .filter(|(_, &s)| s <= STEAL_LIMIT)
        .map(|(&w, _)| w)
        .collect();
    eprintln!(
        "timed solves: {} over {} jobs, {} of them disturbed by host steal",
        walls.len(),
        jobs.len(),
        walls.len() - clean.len()
    );
    if clean.len() >= 3 && 2 * clean.len() >= walls.len() {
        walls = clean;
    }
    let scale = reference.scale(median(&passes));
    eprintln!(
        "host speed: reference kernel median {:.5} s over {} passes, scale {scale:.4}; \
         unscaled solve p50 {:.4} s, setup {:.4} s",
        median(&passes),
        passes.len(),
        median(&walls),
        median(&setups)
    );
    // Not a metric: on warm-drift it hangs on how hard the seed's mesh
    // makes the late collision steps (see README.md).
    eprintln!("solve p90 (scaled): {:.4} s", scale * quantile(&walls, 0.9));
    let digest = run_digest(kind, first_job.as_deref().unwrap_or(&[]));
    let mean = |i: usize| quality.iter().map(|q| q[i]).sum::<f64>() / quality.len().max(1) as f64;
    let values = [
        scale * median(&walls),
        scale * median(&setups),
        peaks.iter().copied().fold(0.0, f64::max),
        mean(0),
        mean(1),
        mean(2),
        1.0 + imbalance.iter().copied().fold(0.0, f64::max),
        1.0 - failed as f64 / attempted.max(1) as f64,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.0.to_string(), v, m.1))
        .collect();
    Outcome {
        attempted,
        failed,
        errors,
        digest,
        metrics,
    }
}
