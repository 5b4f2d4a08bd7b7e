//! Live pipeline: the same robust deployment on both execution backends.
//!
//! ```text
//! cargo run --release --example live_pipeline
//! ```
//!
//! Compiles RLD's robust deployment for the paper's Q1 stock-monitoring
//! query once, then runs it twice against the identical bullish/bearish
//! workload and seed:
//!
//! 1. on the **simulator** — work is an abstract scalar, latency is modelled
//!    queueing + service time, and
//! 2. on the **columnar executor** — real predicates evaluated and real
//!    windows probed over generated stock-tick tuples, as struct-of-arrays
//!    batches through fused operator chains, latency measured on the wall
//!    clock.
//!
//! Because both backends share the backend-neutral runtime core, the policy
//! decisions are identical (same plan per batch, same switches); what
//! changes is what is *measured*. The example ends by printing the
//! selectivities the dataplane actually observed next to the workload's
//! ground truth — the executor's operators really did filter and join every
//! tuple.

use rld_core::prelude::*;

fn main() -> Result<()> {
    let query = Query::q1_stock_monitoring();
    let cluster = Cluster::homogeneous(4, runtime_capacity(&query, 4, 3.0))?;
    let workload = StockWorkload::default_config();
    let sim_config = SimConfig {
        duration_secs: 120.0,
        ..SimConfig::default()
    };

    println!("compiling the robust deployment for {} ...", query.name);
    let deployment = RldConfig::default()
        .with_uncertainty(3)
        .compiler(query.clone())
        .compile(&cluster)?;
    println!(
        "  {} robust logical plans, physical plan uses {} nodes\n",
        deployment.logical.len(),
        deployment.physical.used_nodes()
    );

    // Backend 1: the discrete-tick simulator.
    let simulator = Simulator::new(query.clone(), cluster.clone(), sim_config)?;
    let mut rld = deployment.deploy();
    let simulated = simulator.run(&workload, &mut rld)?;

    // Backend 2: the columnar executor — real tuples, real operator state.
    let executor = ColumnarExecutor::new(
        query.clone(),
        cluster.clone(),
        ColumnarConfig::from_sim(sim_config),
    )?;
    let mut rld = deployment.deploy();
    let report = executor.run_report(&workload, &mut rld, false)?;
    let executed = &report.metrics;

    println!("backend    batches  switches  processed  avg latency");
    println!(
        "simulate   {:>7}  {:>8}  {:>9}  {:>8.1} ms (modelled)",
        simulated.batches,
        simulated.plan_switches,
        simulated.tuples_processed,
        simulated.avg_tuple_processing_ms
    );
    println!(
        "columnar   {:>7}  {:>8}  {:>9}  {:>8.2} ms (wall clock)",
        executed.batches,
        executed.plan_switches,
        executed.tuples_processed,
        executed.avg_tuple_processing_ms
    );
    println!(
        "\nexecutor throughput: {:.0} driving tuples per wall second ({:.2} s wall for {:.0} s virtual)",
        report.tuples_per_sec, report.wall_secs, sim_config.duration_secs
    );

    // Same seed, same core → same policy decisions on both backends.
    assert_eq!(simulated.batches, executed.batches);
    assert_eq!(simulated.plan_switches, executed.plan_switches);

    // The compile-time point estimates next to what the dataplane really
    // measured (a run-average over the bullish and bearish regimes).
    println!("\noperator               estimate   observed (run average)");
    for op in &query.operators {
        let observed = report.observed_stats.selectivity(op.id).unwrap_or(f64::NAN);
        println!(
            "{:<22} {:>8.3}   {:>8.3}",
            op.name, op.selectivity_estimate, observed
        );
    }
    Ok(())
}
