//! Compile-path scaling: how the `RobustCompiler`'s WRP/ERP search behaves
//! as the parameter space grows in dimensionality and grid resolution.
//!
//! For each (dims, steps) configuration over Q2 (10-way join) the binary runs
//! WRP and ERP once each and records optimizer calls, plan count, regions
//! examined, the plan-cost evaluations of §4.2 weight assignment, the
//! solution fingerprint, wall time, and the geometric claimed coverage
//! (computed from region corners — no full-grid cell enumeration anywhere on
//! this path: the headline configuration's grid has hundreds of thousands of
//! cells, which enumeration-based coverage/weights would visit per plan).
//!
//! ```text
//! cargo run -p rld-bench --release --bin compile_scale                    # full sweep
//! cargo run -p rld-bench --release --bin compile_scale -- --quick         # CI subset
//! cargo run -p rld-bench --release --bin compile_scale -- --quick --check # CI gate
//! ```
//!
//! Emits `BENCH_compile_scale.json` with one record per
//! (dims, steps, solver). `--check` first compares this run against the
//! *committed* `BENCH_compile_scale.json`: at every point both contain, the
//! optimizer calls, plans, regions examined, cost evaluations and solution
//! fingerprint must be equal. The search is deterministic, so any drift is a
//! behaviour change; wall time is not gated.

use rld_bench::json::{write_bench_json, BenchMeta, Json};
use rld_bench::print_table;
use rld_core::prelude::*;
use std::time::Instant;

/// Uncertainty level of every dimension: ±40% intervals, wide enough that
/// the optimal plan changes across the space and the search must partition.
const UNCERTAINTY: u32 = 4;

/// Robustness threshold ε: tight enough to force real partitioning work.
const EPSILON: f64 = 0.1;

/// The committed reference counters `--check` compares against.
const BASELINE_PATH: &str = "BENCH_compile_scale.json";

/// The per-point fields `--check` requires to be equal to the baseline.
const GATED: [&str; 5] = [
    "optimizer_calls",
    "plans",
    "regions_examined",
    "cost_evaluations",
    "fingerprint",
];

struct RunRecord {
    dims: usize,
    steps: usize,
    solver: &'static str,
    calls: usize,
    plans: usize,
    regions: usize,
    cost_evaluations: usize,
    fingerprint: u64,
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
    let check = std::env::args().any(|a| a == "--check");
    // Read the committed baseline *before* this run overwrites it.
    let baseline_text = check.then(|| std::fs::read_to_string(BASELINE_PATH));
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
                regions: compilation.stats.regions_examined,
                cost_evaluations: compilation.stats.cost_evaluations,
                fingerprint: compilation.solution.fingerprint(),
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
                r.regions.to_string(),
                r.cost_evaluations.to_string(),
                format!("{:.1}", r.wall_ms),
                format!("{:.3}", r.coverage),
                format!("{:.3}", r.weight_sum),
            ]
        })
        .collect();
    print_table(
        "compile_scale — WRP/ERP over growing Q2 parameter spaces",
        &[
            "dims",
            "steps",
            "solver",
            "calls",
            "plans",
            "regions",
            "cost evals",
            "wall ms",
            "coverage",
            "weight",
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
                            ("regions_examined", Json::uint(r.regions as u64)),
                            ("cost_evaluations", Json::uint(r.cost_evaluations as u64)),
                            // Hex: a u64 does not survive a JSON f64.
                            ("fingerprint", Json::str(format!("{:016x}", r.fingerprint))),
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
    match write_bench_json("compile_scale", &meta, data.clone()) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(err) => eprintln!("\ncould not write JSON: {err}"),
    }

    if let Some(baseline_text) = baseline_text {
        check_against_baseline(baseline_text, &data);
    }
}

/// The counter gate. Points are matched by (dims, steps, solver); points
/// present on only one side are skipped, so a full sweep checks against the
/// committed quick one. Every [`GATED`] field of a matched point must be
/// exactly equal.
fn check_against_baseline(baseline_text: std::io::Result<String>, current: &Json) {
    let fail = |msg: String| -> ! {
        eprintln!("counter gate: {msg}");
        std::process::exit(2);
    };
    let text =
        baseline_text.unwrap_or_else(|err| fail(format!("cannot read {BASELINE_PATH}: {err}")));
    let baseline = Json::parse(&text)
        .unwrap_or_else(|err| fail(format!("{BASELINE_PATH} is not valid JSON: {err}")));
    let runs_of = |doc: &Json| -> Vec<Json> {
        doc.get("runs")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default()
    };
    let key_of = |p: &Json| -> Option<(u64, u64, String)> {
        Some((
            p.get("dims")?.as_f64()? as u64,
            p.get("steps")?.as_f64()? as u64,
            p.get("solver")?.as_str()?.to_string(),
        ))
    };
    let current_runs = runs_of(current);
    let mut compared = 0usize;
    let mut skipped = 0usize;
    let mut drift: Vec<String> = Vec::new();
    for base in runs_of(baseline.get("data").unwrap_or(&Json::Null)) {
        let Some(key) = key_of(&base) else { continue };
        let Some(cur) = current_runs
            .iter()
            .find(|p| key_of(p).as_ref() == Some(&key))
        else {
            skipped += 1;
            continue;
        };
        compared += 1;
        for field in GATED {
            let (b, c) = (base.get(field), cur.get(field));
            if b.is_none() || b != c {
                drift.push(format!(
                    "{} dims × {} steps {}: {field} changed from {b:?} to {c:?}",
                    key.0, key.1, key.2
                ));
            }
        }
    }
    if skipped > 0 {
        println!("counter gate: {skipped} baseline point(s) not in this run's sweep — skipped");
    }
    if compared == 0 {
        fail(format!(
            "{BASELINE_PATH} contains no comparable sweep points"
        ));
    }
    if drift.is_empty() {
        println!("counter gate: all {compared} matched points equal to {BASELINE_PATH}");
    } else {
        eprintln!("counter gate FAILED:");
        for d in &drift {
            eprintln!("  - {d}");
        }
        std::process::exit(1);
    }
}
