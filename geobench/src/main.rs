//! `geobench`: the repository benchmark. Runs one workload through
//! `Planner::try_solve` and prints its metrics as the last line of stdout:
//!
//! ```text
//! cargo run --release --manifest-path geobench/Cargo.toml -- \
//!     --workload cold-1m --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` runs the timed workload and reports the end-to-end metrics;
//! `--trace 1` runs the traced replay and reports the per-layer metrics.
//! See README.md for the workloads, metrics, and checks.

mod calib;
mod metrics;
mod replay;
#[cfg(test)]
mod tests;
mod timed;
mod trace;
mod traced;
mod turn;
mod util;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use geographer_parcomm::{run_spmd, run_spmd_proc};

use crate::metrics::PER_LAYER;
use crate::workload::Kind;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("geobench: {e}");
            return ExitCode::from(2);
        }
    };
    let kind = args.kind;
    // One busy thread per rank: graph coarsening would otherwise split its
    // loops over every core (see `turn` for why the timed runs keep to one).
    std::env::set_var("RAYON_NUM_THREADS", "1");
    util::one_heap_arena();
    println!(
        "provenance {}",
        util::provenance(kind.name(), args.seed, kind.ranks(), args.trace)
    );
    // The traced run replays the solves of mesh 0 only.
    let t = Instant::now();
    let count = if args.trace { 1 } else { kind.meshes() };
    let meshes: Vec<_> = (0..count).map(|i| kind.input(args.seed, i)).collect();
    let mesh = &meshes[0];
    eprintln!(
        "input: {count} mesh(es) of n = {} generated in {:.2} s (excluded from every metric)",
        mesh.points.len(),
        t.elapsed().as_secs_f64()
    );

    let (steal, t_run) = (util::steal_seconds(), Instant::now());
    let (attempted, failed, errors, digest, metrics) = if args.trace {
        let origin = Instant::now();
        let out_dir = Path::new("geobench/out");
        let ranks: Result<Vec<traced::RankOut>, String> = match kind {
            Kind::WarmDrift => {
                let drift = Kind::drift(mesh, mesh.points.clone());
                run_spmd_proc(kind.ranks(), |c| {
                    traced::traced_rank(kind, mesh, Some(&drift), &c, origin, args.seconds, out_dir)
                })
                .map_err(|e| format!("process ranks failed: {e}"))
            }
            _ => catch_unwind(AssertUnwindSafe(|| {
                run_spmd(kind.ranks(), |c| {
                    traced::traced_rank(kind, mesh, None, &c, origin, args.seconds, out_dir)
                })
            }))
            .map_err(|_| "a rank panicked".to_string()),
        };
        match ranks {
            Ok(ranks) => {
                let errors: Vec<String> = ranks.iter().flat_map(|r| r.1.clone()).collect();
                let [attempted, _, digest] = ranks[0].2;
                let failed = ranks.iter().map(|r| r.2[1]).max().unwrap_or(0);
                let metrics: Vec<(String, f64, &str)> = PER_LAYER
                    .iter()
                    .zip(&ranks[0].0)
                    .map(|(m, &v)| (m.0.to_string(), v, m.1))
                    .collect();
                (attempted, failed, errors, digest, metrics)
            }
            Err(e) => (1, 1, vec![e], 0, Vec::new()),
        }
    } else {
        let o = timed::run(kind, &meshes, args.seconds);
        (o.attempted, o.failed, o.errors, o.digest, o.metrics)
    };

    for e in &errors {
        eprintln!("error: {e}");
    }
    println!(
        "host {{\"run_s\":{:.3},\"steal_s\":{:.2}}}",
        t_run.elapsed().as_secs_f64(),
        util::steal_seconds() - steal
    );
    println!("digest {} {digest:016x}", kind.name());
    for (name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    let correct = failed == 0 && errors.is_empty() && attempted > 0;
    println!(
        "{}",
        util::result_json(correct, attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}
