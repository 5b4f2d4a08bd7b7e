//! Traced runs (`--trace 1`): one metric per layer, taken by timing, from
//! here, the calls into each crate's public functions, and by reading the
//! statistics the program already returns (`SearchStats`,
//! `PhysicalSearchStats`, `RunMetrics`, `StageTimings`). Nothing inside the
//! program is instrumented.
//! Compile-time layers are measured on the workload's own compile, the
//! runtime layers on its stream.

use crate::checks::{conservation, oracle, repeats, RunSignature};
use crate::measure::{median, repeat_for, timed};
use crate::workloads::{set_up, Setup, WorkloadName};
use crate::{metric, Metric, Outcome};
use rld_core::engine::OnlineClassifier;
use rld_core::paramspace::GridPoint;
use rld_core::prelude::*;
use std::hint::black_box;
use std::result::Result;

/// Grid points `query.optimize_us` samples from the parameter space.
const OPTIMIZE_SAMPLE: usize = 64;
/// Least wall time the compile pieces and each micro-timing (optimizer,
/// classifier, simulator tick) accumulate before their median is taken.
const MICRO_SECS: f64 = 0.2;

/// Run one workload traced.
pub fn run(name: WorkloadName, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let setup = set_up(name, seed).map_err(|e| format!("set-up of {}: {e}", name.name()))?;
    measure(&setup, seed, seconds)
}

/// Measure every per-layer metric of a set-up, spending about `seconds` on
/// the runtime layers.
pub fn measure(setup: &Setup, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let compile = compile_layers(setup, &mut out)?;
    let optimize_us = optimize_us(setup, seed)?;
    let runtime = runtime_layers(setup, seconds, &mut out)?;
    let (classify_ns, uncovered) = classify(setup)?;

    let s = &runtime.stages;
    let run_ms = runtime.traced_ms;
    out.notes.push(format!(
        "compile shares of core.compile_ms {:.3} ms: logical {:.1}%, physical {:.1}%, \
         paramspace {:.1}%",
        compile.compile_ms,
        100.0 * compile.solve_ms / compile.compile_ms,
        100.0 * compile.physical_ms / compile.compile_ms,
        100.0 * (compile.build_space_ms + compile.support_ms + compile.coverage_ms)
            / compile.compile_ms,
    ));
    out.notes.push(format!(
        "runtime shares of exec.run_ms {run_ms:.3} ms: evaluate {:.1}%, window {:.1}%, \
         generate {:.1}%, engine route {:.2}%, engine policy tick {:.2}%, \
         fold {:.2}%, dispatch {:.2}%; tracing overhead {:.4}x",
        100.0 * s.evaluate_ms / run_ms,
        100.0 * s.window_ms / run_ms,
        100.0 * s.generate_ms / run_ms,
        100.0 * s.route_ms / run_ms,
        100.0 * runtime.policy_tick_us * runtime.counters.batches as f64 / 1e3 / run_ms,
        100.0 * s.fold_ms / run_ms,
        100.0 * s.dispatch_ms / run_ms,
        runtime.traced_ms / runtime.untraced_ms,
    ));

    let c = &runtime.counters;
    let stats = &compile.logical;
    out.metrics = vec![
        metric("logical.solve_ms", compile.solve_ms, "ms"),
        count("logical.optimizer_calls", stats.optimizer_calls as u64),
        count("logical.regions_examined", stats.regions_examined as u64),
        metric(
            "logical.plans_per_call",
            stats.distinct_plans as f64 / stats.optimizer_calls.max(1) as f64,
            "ratio",
        ),
        metric("query.optimize_us", optimize_us, "us"),
        metric("paramspace.build_space_ms", compile.build_space_ms, "ms"),
        metric("paramspace.support_model_ms", compile.support_ms, "ms"),
        metric("paramspace.coverage_ms", compile.coverage_ms, "ms"),
        metric("physical.solve_ms", compile.physical_ms, "ms"),
        count(
            "physical.dfs_expanded",
            compile.physical.nodes_expanded as u64,
        ),
        count("physical.dfs_pruned", compile.physical.nodes_pruned as u64),
        metric("core.compile_ms", compile.compile_ms, "ms"),
        metric("exec.run_ms", run_ms, "ms"),
        count("exec.batches", c.batches),
        count("exec.tuples_arrived", c.arrived),
        count("exec.tuples_processed", c.processed),
        count("exec.tuples_produced", c.produced),
        count("exec.tuples_lost", c.lost),
        metric("common.evaluate_ms", s.evaluate_ms, "ms"),
        metric("common.window_ms", s.window_ms, "ms"),
        metric("workloads.generate_ms", s.generate_ms, "ms"),
        metric("engine.route_ms", s.route_ms, "ms"),
        metric("exec.dispatch_ms", s.dispatch_ms, "ms"),
        metric("exec.fold_ms", s.fold_ms, "ms"),
        metric("exec.shard_idle_ms", s.shard_idle_ms.iter().sum(), "ms"),
        metric("engine.policy_tick_us", runtime.policy_tick_us, "us"),
        metric("engine.classify_ns", classify_ns, "ns"),
        metric("engine.uncovered_tick_fraction", uncovered, "ratio"),
        count("engine.plan_switches", c.plan_switches),
        count("engine.migrations", c.migrations),
        count(
            "engine.work_vector_recomputes",
            runtime.work_vector_recomputes,
        ),
        metric(
            "trace.overhead_ratio",
            runtime.traced_ms / runtime.untraced_ms,
            "ratio",
        ),
    ];
    Ok(out)
}

fn count(name: &'static str, value: u64) -> Metric {
    metric(name, value as f64, "count")
}

/// Medians of the compile pipeline's steps, each timed separately in the
/// order `RobustCompiler::compile_in` runs them, plus one full compile.
struct CompileLayers {
    build_space_ms: f64,
    solve_ms: f64,
    support_ms: f64,
    physical_ms: f64,
    coverage_ms: f64,
    compile_ms: f64,
    logical: SearchStats,
    physical: PhysicalSearchStats,
}

fn compile_layers(setup: &Setup, out: &mut Outcome) -> Result<CompileLayers, String> {
    let compiler = setup.config.compiler(setup.query.clone());
    let physical_solver: PhysicalSolverSpec = setup.config.physical_strategy.into();
    let err = |e: RldError| e.to_string();
    let mut steps: [Vec<f64>; 6] = Default::default();
    let mut first = None;
    let mut last = None;
    repeat_for(MICRO_SECS, || {
        let (space, space_ms) = timed(|| compiler.build_space());
        let space = space.map_err(err)?;
        let (logical, solve_ms) = timed(|| compiler.compile_logical_in(space));
        let logical = logical.map_err(err)?;
        let (support, support_ms) =
            timed(|| logical.support_model(&setup.query, setup.config.occurrence));
        let support = support.map_err(err)?;
        let (physical, physical_ms) = timed(|| physical_solver.generate(&support, &setup.cluster));
        let (_, physical_stats) = physical.map_err(err)?;
        let (coverage, coverage_ms) = timed(|| logical.solution.claimed_coverage(&logical.space));
        let (deployment, compile_ms) = timed(|| compiler.compile(&setup.cluster));
        let deployment = deployment.map_err(err)?;
        for (v, ms) in steps.iter_mut().zip([
            space_ms,
            solve_ms,
            support_ms,
            physical_ms,
            coverage_ms,
            compile_ms,
        ]) {
            v.push(ms);
        }
        // The compile's work counters repeat exactly, in the pieces and in
        // the full compile.
        let work = |s: &SearchStats, p: &PhysicalSearchStats| {
            (
                s.optimizer_calls,
                s.regions_examined,
                s.distinct_plans,
                p.nodes_expanded,
                p.nodes_pruned,
            )
        };
        let this = work(&logical.stats, &physical_stats);
        let full = work(&deployment.logical_stats, &deployment.physical_stats);
        let first = *first.get_or_insert_with(|| {
            out.notes.push(format!(
                "compile: {} optimizer calls, {} plans, coverage {coverage:.4}",
                logical.stats.optimizer_calls, logical.stats.distinct_plans
            ));
            this
        });
        out.checks.record(if this == first && full == first {
            Ok(())
        } else {
            Err(format!(
                "compile counters: {this:?} / full compile {full:?} != first {first:?}"
            ))
        });
        last = Some((logical.stats, physical_stats));
        Ok(())
    })?;
    let (logical, physical) = last.expect("at least one compile");
    let [build_space_ms, solve_ms, support_ms, physical_ms, coverage_ms, compile_ms] =
        steps.map(|v| median(&v));
    Ok(CompileLayers {
        build_space_ms,
        solve_ms,
        support_ms,
        physical_ms,
        coverage_ms,
        compile_ms,
        logical,
        physical,
    })
}

/// Median microseconds of one `JoinOrderOptimizer::optimize` call over a
/// seeded sample of the parameter space's grid points.
fn optimize_us(setup: &Setup, seed: u64) -> Result<f64, String> {
    let space = setup
        .config
        .compiler(setup.query.clone())
        .build_space()
        .map_err(|e| e.to_string())?;
    let shape = space.grid_shape();
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let snapshots: Vec<StatsSnapshot> = (0..OPTIMIZE_SAMPLE)
        .map(|_| {
            let idx = shape
                .iter()
                .map(|&n| (next() % n as u64) as usize)
                .collect();
            space.snapshot_at(&GridPoint::new(idx))
        })
        .collect();
    let optimizer = JoinOrderOptimizer::new(setup.query.clone());
    let mut per_call_us = Vec::new();
    repeat_for(MICRO_SECS, || {
        let (plans, ms) = timed(|| {
            snapshots
                .iter()
                .map(|s| optimizer.optimize(black_box(s)))
                .collect::<Result<Vec<_>, RldError>>()
        });
        black_box(plans.map_err(|e| e.to_string())?);
        per_call_us.push(ms * 1e3 / OPTIMIZE_SAMPLE as f64);
        Ok(())
    })?;
    Ok(median(&per_call_us))
}

/// What the runtime layers measured.
struct RuntimeLayers {
    /// Median wall milliseconds of a traced `run_report`.
    traced_ms: f64,
    /// Median wall milliseconds of an untraced `run_report`.
    untraced_ms: f64,
    /// Field-wise medians of the traced runs' stage timings.
    stages: StageTimings,
    counters: RunSignature,
    work_vector_recomputes: u64,
    /// Median `Simulator::run` wall microseconds per batch.
    policy_tick_us: f64,
}

fn runtime_layers(setup: &Setup, seconds: f64, out: &mut Outcome) -> Result<RuntimeLayers, String> {
    let stream = &setup.stream;
    let workload = stream.workload.as_ref();
    let run_once = |traced: bool| {
        let mut strategy = stream.deploy(&setup.deployment);
        let (report, ms) = timed(|| {
            stream
                .executor
                .run_report(workload, strategy.as_mut(), traced)
        });
        report.map(|r| (r, ms)).map_err(|e| e.to_string())
    };
    // Warm-up, and the reference every later run must repeat.
    let (first, _) = run_once(true)?;
    let signature = RunSignature::of(&first);
    let (mut traced_ms, mut untraced_ms, mut stages) = (Vec::new(), Vec::new(), Vec::new());
    repeat_for(seconds, || {
        for traced in [false, true] {
            let (report, ms) = run_once(traced)?;
            out.checks.record(conservation(&report.metrics));
            out.checks
                .record(repeats(&signature, &RunSignature::of(&report)));
            out.attempted += report.metrics.tuples_arrived;
            out.failed += report.metrics.tuples_lost;
            if traced {
                traced_ms.push(ms);
                stages.push(report.stage_timings.ok_or("no stage timings")?);
            } else {
                untraced_ms.push(ms);
            }
        }
        Ok(())
    })?;

    // The simulator oracle, and the policy loop's cost per tick.
    let simulator = stream
        .simulator(&setup.query, &setup.cluster)
        .map_err(|e| e.to_string())?;
    let mut strategy = stream.deploy(&setup.deployment);
    let (sim_metrics, sim_trace) = simulator
        .run_traced(workload, strategy.as_mut())
        .map_err(|e| e.to_string())?;
    let col_trace = first.trace.as_ref().ok_or("traced run without a trace")?;
    out.checks.record(oracle(
        (&first.metrics, col_trace),
        (&sim_metrics, &sim_trace),
    ));
    let mut tick_us = Vec::new();
    repeat_for(MICRO_SECS, || {
        let mut strategy = stream.deploy(&setup.deployment);
        let (metrics, ms) = timed(|| simulator.run(workload, strategy.as_mut()));
        let metrics = metrics.map_err(|e| e.to_string())?;
        tick_us.push(ms * 1e3 / metrics.batches.max(1) as f64);
        Ok(())
    })?;

    let field = |f: fn(&StageTimings) -> f64| median(&stages.iter().map(f).collect::<Vec<_>>());
    let idle: Vec<f64> = stages
        .iter()
        .map(|s| s.shard_idle_ms.iter().sum())
        .collect();
    let stages = StageTimings {
        generate_ms: field(|s| s.generate_ms),
        route_ms: field(|s| s.route_ms),
        dispatch_ms: field(|s| s.dispatch_ms),
        evaluate_ms: field(|s| s.evaluate_ms),
        fold_ms: field(|s| s.fold_ms),
        window_ms: field(|s| s.window_ms),
        shard_idle_ms: vec![median(&idle)],
        ..StageTimings::default()
    };
    Ok(RuntimeLayers {
        traced_ms: median(&traced_ms),
        untraced_ms: median(&untraced_ms),
        stages,
        counters: signature,
        work_vector_recomputes: first.metrics.work_vector_recomputes,
        policy_tick_us: median(&tick_us),
    })
}

/// Replay the workload's ground-truth statistics, one snapshot per tick,
/// through a fresh `OnlineClassifier` over the compiled solution. Returns
/// the median nanoseconds per `classify` call and the fraction of ticks no
/// robust region covers.
fn classify(setup: &Setup) -> Result<(f64, f64), String> {
    let (d, stream) = (&setup.deployment, &setup.stream);
    let mut classifier = OnlineClassifier::new(d.space.clone(), d.logical.clone())
        .with_cost_model(CostModel::new(setup.query.clone()));
    let ticks = (stream.sim.duration_secs / stream.sim.tick_secs).ceil() as usize;
    let snapshots: Vec<StatsSnapshot> = (0..ticks)
        .map(|k| stream.workload.stats_at(k as f64 * stream.sim.tick_secs))
        .collect();
    let uncovered = snapshots
        .iter()
        .filter(|s| !classifier.robustly_covered(s))
        .count();
    let mut per_call_ns = Vec::new();
    repeat_for(MICRO_SECS, || {
        let (_, ms) = timed(|| {
            for s in &snapshots {
                black_box(classifier.classify(black_box(s)));
            }
        });
        per_call_ns.push(ms * 1e6 / ticks.max(1) as f64);
        Ok(())
    })?;
    Ok((median(&per_call_ns), uncovered as f64 / ticks.max(1) as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::set_up_with_horizon;

    /// Every count-type per-layer metric repeats exactly for a fixed seed,
    /// on every workload, and every per-layer metric is reported.
    #[test]
    fn count_metrics_repeat_exactly_for_a_fixed_seed() {
        for name in WorkloadName::ALL {
            let counts = || {
                let setup = set_up_with_horizon(name, 11, 120.0).unwrap();
                let out = measure(&setup, 11, 0.0).unwrap();
                assert!(out.checks.passed(), "{:?}", out.checks.failures());
                assert_eq!(out.metrics.len(), 32);
                out.metrics
                    .into_iter()
                    .filter(|m| m.unit == "count")
                    .collect::<Vec<_>>()
            };
            let first = counts();
            assert_eq!(first.len(), 12, "{}", name.name());
            assert!(first
                .iter()
                .any(|m| m.name == "logical.optimizer_calls" && m.value > 0.0));
            assert_eq!(first, counts(), "{}", name.name());
        }
    }
}
