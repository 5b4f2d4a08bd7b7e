//! The differential-testing oracle: the discrete-tick simulator and the
//! columnar executor drive the same `RuntimeCore`, so per seed the two
//! backends must replay **identical policy decisions** — the same routed
//! plan for every batch, the same migrations — and agree on every
//! virtually-accounted counter, fault-free and faulted.
//!
//! What is deliberately *not* asserted: wall-clock measurements (latency,
//! busy time) and modelled-vs-executed production. The deterministic
//! surface is the policy trace plus the virtual counters; the columnar
//! dataplane is tick-synchronous, so for it even `tuples_processed` and
//! `tuples_produced` are exact per seed.

use proptest::prelude::*;
use rld_core::prelude::*;
use rld_tests::fixtures::{build_strategy, q1, sim_config, test_cluster};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Fault-free: both backends make identical policy decisions and agree
    /// on every virtual counter, at any monitor smoothing; nothing is lost
    /// on either.
    #[test]
    fn fault_free_backends_agree_on_the_whole_policy_surface(
        seed in 1u64..u32::MAX as u64,
        duration_ticks in 20u32..40,
        alpha_pct in 30u32..100,
    ) {
        let query = q1();
        let cluster = test_cluster(&query);
        let config = SimConfig {
            monitor_alpha: alpha_pct as f64 / 100.0,
            ..sim_config(seed, duration_ticks as f64)
        };
        // Regime switches well inside the horizon, so RLD/HYB genuinely
        // re-classify and the traces are not trivially constant.
        let workload = StockWorkload::new(10.0, RatePattern::Constant(1.0));

        let simulator = Simulator::new(query.clone(), cluster.clone(), config).unwrap();
        let columnar = ColumnarExecutor::new(
            query.clone(),
            cluster.clone(),
            ColumnarConfig::from_sim(config),
        )
        .unwrap();

        for name in ["RLD", "HYB", "DYN"] {
            let mut s = build_strategy(name, &query, &cluster);
            let (sim_m, sim_t) = simulator.run_traced(&workload, s.as_mut()).unwrap();
            let mut s = build_strategy(name, &query, &cluster);
            let (col_m, col_t) = columnar.run_traced(&workload, s.as_mut()).unwrap();

            // One policy trace, two backends.
            prop_assert_eq!(&sim_t.routes, &col_t.routes, "{}: routes", name);
            prop_assert_eq!(&sim_t.migrations, &col_t.migrations, "{}: migrations", name);

            prop_assert_eq!(sim_m.tuples_arrived, col_m.tuples_arrived, "{}", name);
            prop_assert_eq!(sim_m.batches, col_m.batches, "{}", name);
            prop_assert_eq!(sim_m.migrations, col_m.migrations, "{}", name);
            prop_assert_eq!(sim_m.plan_switches, col_m.plan_switches, "{}", name);
            prop_assert_eq!(
                sim_m.work_vector_recomputes,
                col_m.work_vector_recomputes,
                "{}", name
            );
            prop_assert_eq!(sim_m.tuples_lost, 0u64, "{}", name);
            prop_assert_eq!(col_m.tuples_lost, 0u64, "{}", name);
            prop_assert_eq!(col_m.tuples_processed, col_m.tuples_arrived, "{}", name);
        }
    }

    /// Faulted: the policy surface (routes, migrations, reroutes, fault
    /// events, downtime) stays identical across both backends, and so does
    /// the virtually-accounted loss — batches routed into a down pipeline
    /// are dropped at ingest on both.
    #[test]
    fn faulted_backends_share_the_policy_surface(
        seed in 1u64..u32::MAX as u64,
        victim in 0usize..4,
    ) {
        let query = q1();
        let cluster = test_cluster(&query);
        let config = sim_config(seed, 40.0);
        let workload = StockWorkload::new(10.0, RatePattern::Constant(1.0));
        let faults = || {
            FaultPlan::node_crash(NodeId::new(victim), 10.0, 25.0, RecoverySemantic::Lost)
                .unwrap()
        };

        let simulator = Simulator::new(query.clone(), cluster.clone(), config)
            .unwrap()
            .with_faults(faults())
            .unwrap();
        let columnar = ColumnarExecutor::new(
            query.clone(),
            cluster.clone(),
            ColumnarConfig::from_sim(config),
        )
        .unwrap()
        .with_faults(faults())
        .unwrap();

        for name in ["RLD", "HYB"] {
            let mut s = build_strategy(name, &query, &cluster);
            let (sim_m, sim_t) = simulator.run_traced(&workload, s.as_mut()).unwrap();
            let mut s = build_strategy(name, &query, &cluster);
            let (col_m, col_t) = columnar.run_traced(&workload, s.as_mut()).unwrap();

            prop_assert_eq!(&sim_t.routes, &col_t.routes, "{}: routes", name);
            prop_assert_eq!(&sim_t.migrations, &col_t.migrations, "{}: migrations", name);

            prop_assert_eq!(sim_m.tuples_arrived, col_m.tuples_arrived, "{}", name);
            prop_assert_eq!(sim_m.fault_events, col_m.fault_events, "{}", name);
            prop_assert_eq!(sim_m.reroutes, col_m.reroutes, "{}", name);
            prop_assert!(
                (sim_m.downtime_node_secs - col_m.downtime_node_secs).abs() < 1e-9,
                "{}: downtime {} vs {}",
                name, sim_m.downtime_node_secs, col_m.downtime_node_secs
            );
            prop_assert_eq!(sim_m.tuples_lost, col_m.tuples_lost, "{}", name);

            // Conservation: the columnar dataplane has no in-flight backlog,
            // so every arrival is processed or lost by the horizon.
            prop_assert_eq!(
                col_m.tuples_processed + col_m.tuples_lost,
                col_m.tuples_arrived,
                "columnar conservation ({})", name
            );
        }
    }
}

/// The columnar dataplane is tick-synchronous, so *everything* virtual —
/// including the produced-tuple count and timeline — is bit-identical
/// across repeated runs.
#[test]
fn columnar_results_are_bit_deterministic_per_seed() {
    let query = q1();
    let cluster = test_cluster(&query);
    let config = sim_config(42, 60.0);
    let workload = StockWorkload::new(10.0, RatePattern::Constant(2.0));
    let columnar = ColumnarExecutor::new(
        query.clone(),
        cluster.clone(),
        ColumnarConfig::from_sim(config),
    )
    .unwrap();

    let run = || {
        let mut s = build_strategy("HYB", &query, &cluster);
        columnar.run_traced(&workload, s.as_mut()).unwrap()
    };
    let (a, a_trace) = run();
    let (b, b_trace) = run();
    assert_eq!(a_trace, b_trace);
    assert_eq!(a.tuples_arrived, b.tuples_arrived);
    assert_eq!(a.tuples_processed, b.tuples_processed);
    assert_eq!(a.tuples_lost, b.tuples_lost);
    assert_eq!(a.tuples_produced, b.tuples_produced);
    assert_eq!(a.produced_timeline, b.produced_timeline);
    assert_eq!(a.batches, b.batches);
    assert_eq!(a.migrations, b.migrations);
    assert!(a.tuples_produced > 0, "{a:?}");
}

/// The shard count is an execution detail, not an experiment parameter:
/// driving generation draws from per-(tick, row) substreams and window
/// partitions sum their integer match counts exactly, so per seed the
/// policy trace, every virtual counter, *and* the observed per-operator
/// selectivities are bit-identical at any shard count — fault-free and
/// under a Lost-semantics crash.
#[test]
fn columnar_results_are_invariant_across_shard_counts() {
    let query = q1();
    let cluster = test_cluster(&query);
    let config = sim_config(1234, 60.0);
    let workload = StockWorkload::new(10.0, RatePattern::Constant(2.0));
    let run = |shards: usize, faulted: bool| {
        let cfg = ColumnarConfig {
            shards,
            ..ColumnarConfig::from_sim(config)
        };
        let mut exec = ColumnarExecutor::new(query.clone(), cluster.clone(), cfg).unwrap();
        if faulted {
            exec = exec
                .with_faults(
                    FaultPlan::node_crash(NodeId::new(1), 15.0, 35.0, RecoverySemantic::Lost)
                        .unwrap(),
                )
                .unwrap();
        }
        let mut s = build_strategy("HYB", &query, &cluster);
        exec.run_report(&workload, s.as_mut(), true).unwrap()
    };
    for faulted in [false, true] {
        let baseline = run(1, faulted);
        if !faulted {
            // Q1's 5-way join is brutally selective at this rate; a handful
            // of survivors is expected, zero would make the test vacuous.
            assert!(baseline.metrics.tuples_produced > 0);
        }
        for shards in [2usize, 8] {
            let r = run(shards, faulted);
            let label = format!("shards={shards} faulted={faulted}");
            assert_eq!(baseline.trace, r.trace, "{label}: policy trace");
            assert_eq!(
                baseline.metrics.tuples_arrived, r.metrics.tuples_arrived,
                "{label}: arrived"
            );
            assert_eq!(
                baseline.metrics.tuples_processed, r.metrics.tuples_processed,
                "{label}: processed"
            );
            assert_eq!(
                baseline.metrics.tuples_produced, r.metrics.tuples_produced,
                "{label}: produced"
            );
            assert_eq!(
                baseline.metrics.tuples_lost, r.metrics.tuples_lost,
                "{label}: lost"
            );
            assert_eq!(
                baseline.metrics.produced_timeline, r.metrics.produced_timeline,
                "{label}: produced timeline"
            );
            assert_eq!(
                baseline.observed_stats, r.observed_stats,
                "{label}: observed selectivities"
            );
        }
    }
}

/// Under `Replay` the columnar crash preserves window state, under `Lost`
/// it clears it, while the ingest-level loss floor stays identical between
/// the two semantics (routing is policy-deterministic and ignores the
/// semantic).
#[test]
fn columnar_recovery_semantics_only_differ_in_window_state() {
    let query = q1();
    let cluster = test_cluster(&query);
    let config = sim_config(7, 120.0);
    let workload = StockWorkload::new(10.0, RatePattern::Constant(2.0));
    let run = |semantic: RecoverySemantic| {
        let columnar = ColumnarExecutor::new(
            query.clone(),
            cluster.clone(),
            ColumnarConfig::from_sim(config),
        )
        .unwrap()
        .with_faults(FaultPlan::node_crash(NodeId::new(0), 30.0, 60.0, semantic).unwrap())
        .unwrap();
        let mut s = build_strategy("ROD", &query, &cluster);
        columnar.run(&workload, s.as_mut()).unwrap()
    };
    let lost = run(RecoverySemantic::Lost);
    let replay = run(RecoverySemantic::Replay);
    assert_eq!(lost.tuples_arrived, replay.tuples_arrived);
    assert_eq!(lost.tuples_lost, replay.tuples_lost);
    assert_eq!(
        lost.tuples_processed, replay.tuples_processed,
        "processing is ingest-gated, not state-gated"
    );
    assert!(
        replay.tuples_produced >= lost.tuples_produced,
        "a preserved window can only produce more: replay {} vs lost {}",
        replay.tuples_produced,
        lost.tuples_produced
    );
}

/// Sanity for the oracle itself: different seeds produce different arrival
/// sequences, so the agreement above is not vacuous.
#[test]
fn different_seeds_differ() {
    let query = q1();
    let cluster = test_cluster(&query);
    let workload = StockWorkload::default_config();
    let arrivals = |seed: u64| {
        let sim_config = SimConfig {
            duration_secs: 30.0,
            seed,
            ..SimConfig::default()
        };
        let simulator = Simulator::new(query.clone(), cluster.clone(), sim_config).unwrap();
        let mut strategy = build_strategy("ROD", &query, &cluster);
        simulator
            .run(&workload, strategy.as_mut())
            .unwrap()
            .tuples_arrived
    };
    assert_ne!(arrivals(1), arrivals(2));
}
