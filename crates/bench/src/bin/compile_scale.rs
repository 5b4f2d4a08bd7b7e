//! Compile-path scaling: how the `RobustCompiler`'s WRP/ERP search behaves
//! as the parameter space grows in dimensionality and grid resolution.
//!
//! For each (dims, steps) configuration over Q2 (10-way join) the binary runs
//! WRP and ERP once each and records optimizer calls, wall time, plan count,
//! and the geometric claimed coverage (computed
//! from region corners — no full-grid cell enumeration anywhere on this
//! path: the headline configuration's grid has hundreds of thousands of
//! cells, which enumeration-based coverage/weights would visit per plan).
//!
//! ```text
//! cargo run -p rld-bench --release --bin compile_scale            # full sweep
//! cargo run -p rld-bench --release --bin compile_scale -- --quick # CI subset
//! ```
//!
//! Emits `BENCH_compile_scale.json` with one record per
//! (dims, steps, solver).

use rld_bench::json::{write_bench_json, BenchMeta, Json};
use rld_bench::print_table;
use rld_core::prelude::*;
use std::time::Instant;

/// Uncertainty level of every dimension: ±40% intervals, wide enough that
/// the optimal plan changes across the space and the search must partition.
const UNCERTAINTY: u32 = 4;

/// Robustness threshold ε: tight enough to force real partitioning work.
const EPSILON: f64 = 0.1;

struct RunRecord {
    dims: usize,
    steps: usize,
    solver: &'static str,
    calls: usize,
    plans: usize,
    wall_ms: f64,
    coverage: f64,
    weight_sum: f64,
}

fn run_solver(
    query: &Query,
    dims: usize,
    steps: usize,
    solver: LogicalSolverSpec,
) -> (LogicalCompilation, f64) {
    let compiler = RobustCompiler::new(query.clone())
        .with_selectivity_dims(dims, UNCERTAINTY)
        .with_grid_steps(steps)
        .with_solver(solver)
        .with_epsilon(EPSILON);
    let start = Instant::now();
    let compilation = compiler.compile_logical().expect("compile");
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    (compilation, wall_ms)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let query = Query::q2_ten_way_join();

    // The acceptance configuration is the ≥4-dimension, ≥15-step space; the
    // smaller points show the scaling trend, the larger ones where WRP's
    // call count explodes and ERP's early termination pays.
    let sweep: Vec<(usize, usize)> = if quick {
        vec![(2, 15), (3, 15), (4, 15)]
    } else {
        vec![(2, 15), (3, 15), (4, 15), (4, 21), (5, 15), (6, 9)]
    };

    let solvers = [
        LogicalSolverSpec::Wrp,
        LogicalSolverSpec::Erp(ErpConfig::default()),
    ];
    let mut records: Vec<RunRecord> = Vec::new();
    for &(dims, steps) in &sweep {
        for solver in solvers {
            let (compilation, wall_ms) = run_solver(&query, dims, steps, solver);
            // Geometric coverage and §5.2 weights: both derived from region
            // corners via the disjoint box decomposition.
            let coverage = compilation.solution.claimed_coverage(&compilation.space);
            let weight_sum: f64 = compilation
                .solution
                .plan_weights(&compilation.space, OccurrenceModel::Normal)
                .iter()
                .sum();
            records.push(RunRecord {
                dims,
                steps,
                solver: compilation.solver,
                calls: compilation.stats.optimizer_calls,
                plans: compilation.solution.len(),
                wall_ms,
                coverage,
                weight_sum,
            });
        }
    }

    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            vec![
                r.dims.to_string(),
                r.steps.to_string(),
                r.solver.to_string(),
                r.calls.to_string(),
                r.plans.to_string(),
                format!("{:.1}", r.wall_ms),
                format!("{:.3}", r.coverage),
                format!("{:.3}", r.weight_sum),
            ]
        })
        .collect();
    print_table(
        "compile_scale — WRP/ERP over growing Q2 parameter spaces",
        &[
            "dims", "steps", "solver", "calls", "plans", "wall ms", "coverage", "weight",
        ],
        &rows,
    );

    let data = Json::obj([
        ("query", Json::str(query.name.clone())),
        ("epsilon", Json::Num(EPSILON)),
        ("uncertainty", Json::uint(UNCERTAINTY as u64)),
        (
            "runs",
            Json::Arr(
                records
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("dims", Json::uint(r.dims as u64)),
                            ("steps", Json::uint(r.steps as u64)),
                            ("solver", Json::str(r.solver)),
                            ("optimizer_calls", Json::uint(r.calls as u64)),
                            ("plans", Json::uint(r.plans as u64)),
                            ("wall_ms", Json::Num(r.wall_ms)),
                            ("coverage", Json::Num(r.coverage)),
                            ("weight_sum", Json::Num(r.weight_sum)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let meta = BenchMeta::new().scenario("compile-scale-sweep");
    match write_bench_json("compile_scale", &meta, data) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(err) => eprintln!("\ncould not write JSON: {err}"),
    }
}
