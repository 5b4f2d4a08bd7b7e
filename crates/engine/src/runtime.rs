//! The backend-neutral runtime core.
//!
//! Two execution backends drive the same policy machinery: the discrete-tick
//! [`crate::simulator::Simulator`] (work is an abstract scalar, queueing is
//! modelled) and the columnar executor in `rld-exec` (real tuples flow
//! through real operator state on shard workers). Everything that *defines
//! the runtime's behaviour* — as opposed to how work is costed — lives here,
//! so the two backends can never diverge on policy:
//!
//! * [`DistributionStrategy`] dispatch order (fault notification →
//!   adaptation → routing),
//! * the [`StatisticsMonitor`] sampling/smoothing of the ground truth,
//! * [`ArrivalProcess`] seeding and Poisson sampling,
//! * [`PlanRouter`] plan routing with cached derived state,
//! * [`FaultPlan`] application bookkeeping (event cursor, crash/recovery
//!   accounting), and
//! * [`MetricsAccumulator`] → [`RunMetrics`] assembly.
//!
//! A backend owns only what is genuinely backend-specific — the simulator
//! its [`crate::node::SimNode`] queue model, the columnar executor its shard
//! workers and rings — and reports those totals through [`BackendTotals`]
//! when it asks the core to [`finish`](RuntimeCore::finish) the run.
//!
//! With [`RuntimeCore::with_trace`] the core additionally records every
//! per-batch routing decision and every migration, so tests can assert that
//! both backends make bit-identical policy decisions under the same seed.

use crate::faults::{FaultEvent, FaultPlan};
use crate::metrics::{MetricsAccumulator, RunMetrics};
use crate::monitor::StatisticsMonitor;
use crate::simulator::SimConfig;
use crate::stages::{ArrivalProcess, PlanRouter, RoutedBatch};
use crate::strategy::{DistributionStrategy, RuntimeContext};
use rld_common::{NodeId, OperatorId, Query, Result, StatsSnapshot};
use rld_physical::{Cluster, MigrationDecision};
use rld_query::CostModel;

/// One recorded per-batch routing decision.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteRecord {
    /// 1-based index of the non-empty batch this decision routed.
    pub batch: u64,
    /// Virtual time of the batch's tick.
    pub t_secs: f64,
    /// Signature of the logical plan the batch flowed through.
    pub plan: String,
}

/// One recorded operator migration.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationRecord {
    /// Virtual time of the migration's tick.
    pub t_secs: f64,
    /// The migrated operator.
    pub operator: OperatorId,
    /// Source node.
    pub from: NodeId,
    /// Target node.
    pub to: NodeId,
}

/// The policy decisions a run made, recorded when tracing is enabled —
/// the cross-backend agreement oracle: a fault-free simulator run and
/// executor run with the same seed must produce identical traces.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunTrace {
    /// Every per-batch routing decision, in batch order.
    pub routes: Vec<RouteRecord>,
    /// Every migration decision, in decision order.
    pub migrations: Vec<MigrationRecord>,
}

/// The backend-specific totals a backend reports when finishing a run: how
/// much work was done and how busy the nodes were, in whatever unit the
/// backend measures work (abstract cost units for the simulator, wall
/// milliseconds of busy time for the columnar executor).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BackendTotals {
    /// Driving tuples fully processed within the horizon (after any crash
    /// retraction the backend applies).
    pub tuples_processed: u64,
    /// Total query-processing work done.
    pub query_work: f64,
    /// Total overhead work done (migrations + classification).
    pub overhead_work: f64,
    /// Mean node utilization over the run, in `[0, 1]`.
    pub mean_utilization: f64,
    /// Maximum backlog observed on any node.
    pub max_backlog: f64,
    /// The nominal capacity integral of the run (denominator of the
    /// availability fraction); zero disables the fraction.
    pub capacity_total: f64,
}

/// The backend-neutral control plane of one run: strategy dispatch context,
/// monitor, arrivals, plan routing, fault cursor and metrics accumulation.
pub struct RuntimeCore {
    query: Query,
    cost_model: CostModel,
    config: SimConfig,
    faults: FaultPlan,
    monitor: StatisticsMonitor,
    monitored: StatsSnapshot,
    arrivals: ArrivalProcess,
    router: PlanRouter,
    acc: MetricsAccumulator,
    fault_idx: usize,
    tuples_arrived: u64,
    batches: u64,
    faults_applied: u64,
    tuples_lost: f64,
    reroutes: u64,
    downtime_node_secs: f64,
    available_capacity_integral: f64,
    pending_recoveries: Vec<f64>,
    recovery_durations: Vec<f64>,
    trace: Option<RunTrace>,
}

impl RuntimeCore {
    /// Create the core for one run of one strategy. Validates the
    /// configuration, the query, and the fault plan against the cluster
    /// size; seeds the arrival process per (seed, strategy name) exactly as
    /// every backend must.
    pub fn new(
        query: Query,
        num_nodes: usize,
        config: SimConfig,
        faults: FaultPlan,
        strategy_name: &str,
    ) -> Result<Self> {
        config.validate()?;
        query.validate()?;
        faults.validate_for(num_nodes)?;
        let monitor = StatisticsMonitor::new(
            query.default_stats(),
            config.monitor_period_secs,
            config.monitor_alpha,
        );
        let monitored = monitor.current().clone();
        let arrivals = ArrivalProcess::new(config.seed, strategy_name);
        Ok(Self {
            cost_model: CostModel::new(query.clone()),
            query,
            config,
            faults,
            monitor,
            monitored,
            arrivals,
            router: PlanRouter::new(),
            acc: MetricsAccumulator::new(),
            fault_idx: 0,
            tuples_arrived: 0,
            batches: 0,
            faults_applied: 0,
            tuples_lost: 0.0,
            reroutes: 0,
            downtime_node_secs: 0.0,
            available_capacity_integral: 0.0,
            pending_recoveries: Vec::new(),
            recovery_durations: Vec::new(),
            trace: None,
        })
    }

    /// Enable decision tracing: every routing and migration decision is
    /// recorded into the [`RunTrace`] returned by [`Self::finish`].
    pub fn with_trace(mut self) -> Self {
        self.trace = Some(RunTrace::default());
        self
    }

    /// The query under execution.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The cost model over the query.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// The run configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The fault plan applied during the run.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// The strategy-dispatch context at virtual time `t`.
    pub fn context<'a>(&'a self, t_secs: f64, cluster: &'a Cluster) -> RuntimeContext<'a> {
        RuntimeContext {
            t_secs,
            query: &self.query,
            cost_model: &self.cost_model,
            cluster,
        }
    }

    /// The next fault event due by the start of the tick at `t`, advancing
    /// the event cursor. Backends call this in a loop and apply each event
    /// to their node representation.
    pub fn next_fault_due(&mut self, t_secs: f64) -> Option<FaultEvent> {
        let events = self.faults.events();
        if self.fault_idx < events.len() && events[self.fault_idx].at_secs <= t_secs + 1e-9 {
            let event = events[self.fault_idx];
            self.fault_idx += 1;
            self.faults_applied += 1;
            Some(event)
        } else {
            None
        }
    }

    /// Account a crash the backend just applied: `tuples_lost` in-flight
    /// tuples were discarded, and the crash opens a recovery window that the
    /// next accepted batch's completion closes.
    pub fn note_crash(&mut self, t_secs: f64, tuples_lost: f64) {
        self.tuples_lost += tuples_lost;
        self.pending_recoveries.push(t_secs);
    }

    /// Offer the ground truth at `t` to the statistics monitor; the
    /// monitored snapshot is refreshed only when the monitor sampled.
    pub fn observe(&mut self, t_secs: f64, truth: &StatsSnapshot) {
        if self.monitor.observe(t_secs, truth) {
            self.monitored.clone_from(self.monitor.current());
        }
    }

    /// The monitor's (stale, smoothed) view of the statistics.
    pub fn monitored(&self) -> &StatsSnapshot {
        &self.monitored
    }

    /// Sample the driving-stream arrivals of one tick at the ground truth's
    /// input rate, counting the tick's batch when it is non-empty.
    pub fn sample_arrivals(&mut self, truth: &StatsSnapshot) -> u64 {
        let rate = self.cost_model.input_rate(self.query.driving_stream, truth);
        let n = self.arrivals.sample_batch(rate, self.config.tick_secs);
        if n > 0 {
            self.tuples_arrived += n;
            self.batches += 1;
        }
        n
    }

    /// Route one non-empty batch through the strategy: ask it for the
    /// logical plan and derive (or reuse) the per-node work vectors. Records
    /// the decision when tracing.
    pub fn route(
        &mut self,
        strategy: &mut dyn DistributionStrategy,
        truth: &StatsSnapshot,
        num_nodes: usize,
        t_secs: f64,
    ) -> Result<&RoutedBatch> {
        self.router.route(
            strategy,
            &self.cost_model,
            &self.monitored,
            truth,
            num_nodes,
        )?;
        if let Some(trace) = self.trace.as_mut() {
            trace.routes.push(RouteRecord {
                batch: self.batches,
                t_secs,
                plan: self
                    .router
                    .current_plan()
                    .map(|p| p.signature())
                    .unwrap_or_default(),
            });
        }
        Ok(self.router.current())
    }

    /// The logical plan of the most recent [`Self::route`] call, if any —
    /// a shared handle, so a backend can execute it without cloning.
    pub fn current_plan(&self) -> Option<&std::sync::Arc<rld_query::LogicalPlan>> {
        self.router.current_plan()
    }

    /// Account a batch the backend dropped because its pipeline crossed a
    /// down node — the fault plane's loud re-route signal.
    pub fn note_dropped_batch(&mut self, n_tuples: u64) {
        self.reroutes += 1;
        self.tuples_lost += n_tuples as f64;
    }

    /// Record migration decisions into the trace (the backend charges their
    /// cost in its own units).
    pub fn note_migrations(&mut self, t_secs: f64, decisions: &[MigrationDecision]) {
        if let Some(trace) = self.trace.as_mut() {
            for d in decisions {
                trace.migrations.push(MigrationRecord {
                    t_secs,
                    operator: d.operator,
                    from: d.from,
                    to: d.to,
                });
            }
        }
    }

    /// Record one accepted batch: `tuples` driving tuples with the given
    /// per-tuple latency, producing `produced` result tuples at
    /// `completion_secs`. The first accepted batch after a crash closes
    /// every pending crash-recovery window at its completion time.
    pub fn record_batch(
        &mut self,
        tuples: u64,
        latency_ms: f64,
        produced: u64,
        completion_secs: f64,
    ) {
        self.acc
            .record_batch(tuples, latency_ms, produced, completion_secs);
        for crash_at in self.pending_recoveries.drain(..) {
            self.recovery_durations.push(completion_secs - crash_at);
        }
    }

    /// Account one node's availability over one tick of `dt` seconds.
    /// Backends call this per node, in node order, every tick.
    pub fn account_node(&mut self, dt_secs: f64, up: bool, effective_capacity: f64) {
        if !up {
            self.downtime_node_secs += dt_secs;
        }
        self.available_capacity_integral += effective_capacity * dt_secs;
    }

    /// Tuple-weighted latency percentiles (0–100) of everything recorded so
    /// far, answered from one sorted pass.
    pub fn latency_percentiles(&self, ps: &[f64]) -> Vec<f64> {
        self.acc.percentiles_latency_ms(ps)
    }

    /// Number of non-empty batches so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Driving tuples arrived so far.
    pub fn tuples_arrived(&self) -> u64 {
        self.tuples_arrived
    }

    /// Assemble the run's metrics. Crashes no accepted batch ever completed
    /// after count as unrecovered through the end of the horizon.
    pub fn finish(
        mut self,
        strategy: &dyn DistributionStrategy,
        totals: BackendTotals,
    ) -> (RunMetrics, Option<RunTrace>) {
        let duration = self.config.duration_secs;
        for crash_at in self.pending_recoveries.drain(..) {
            self.recovery_durations.push(duration - crash_at);
        }
        let metrics = RunMetrics {
            system: strategy.name().to_string(),
            duration_secs: duration,
            tuples_arrived: self.tuples_arrived,
            tuples_processed: totals.tuples_processed,
            tuples_produced: self.acc.produced_by(duration),
            avg_tuple_processing_ms: self.acc.mean_latency_ms(),
            p95_tuple_processing_ms: self.acc.percentiles_latency_ms(&[95.0])[0],
            produced_timeline: self.acc.timeline(duration),
            migrations: strategy.migrations(),
            plan_switches: strategy.plan_switches(),
            query_work: totals.query_work,
            overhead_work: totals.overhead_work,
            mean_utilization: totals.mean_utilization,
            max_backlog: totals.max_backlog,
            batches: self.batches,
            work_vector_recomputes: self.router.recomputes(),
            fault_events: self.faults_applied,
            downtime_node_secs: self.downtime_node_secs,
            tuples_lost: self.tuples_lost.round() as u64,
            reroutes: self.reroutes,
            mean_recovery_secs: if self.recovery_durations.is_empty() {
                0.0
            } else {
                self.recovery_durations.iter().sum::<f64>() / self.recovery_durations.len() as f64
            },
            capacity_available_fraction: if totals.capacity_total > 0.0 {
                (self.available_capacity_integral / totals.capacity_total).clamp(0.0, 1.0)
            } else {
                1.0
            },
        };
        (metrics, self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::RecoverySemantic;
    use crate::strategies::RodStrategy;
    use rld_physical::RodPlanner;

    fn fixture() -> (Query, Cluster, RodStrategy) {
        let q = Query::q1_stock_monitoring();
        let cluster = Cluster::homogeneous(3, 1e9).unwrap();
        let plan = RodPlanner::new()
            .plan(&q, &q.default_stats(), &cluster, 1.0)
            .unwrap();
        let rod = RodStrategy::new(plan.logical, plan.physical);
        (q, cluster, rod)
    }

    #[test]
    fn core_validates_its_inputs() {
        let (q, _, _) = fixture();
        let bad = SimConfig {
            tick_secs: 0.0,
            ..SimConfig::default()
        };
        assert!(RuntimeCore::new(q.clone(), 3, bad, FaultPlan::none(), "ROD").is_err());
        let plan = FaultPlan::node_crash(NodeId::new(9), 1.0, 2.0, RecoverySemantic::Lost).unwrap();
        assert!(RuntimeCore::new(q.clone(), 3, SimConfig::default(), plan, "ROD").is_err());
        assert!(RuntimeCore::new(q, 3, SimConfig::default(), FaultPlan::none(), "ROD").is_ok());
    }

    #[test]
    fn fault_cursor_yields_due_events_once() {
        let (q, _, _) = fixture();
        let plan =
            FaultPlan::node_crash(NodeId::new(0), 5.0, 10.0, RecoverySemantic::Lost).unwrap();
        let mut core = RuntimeCore::new(q, 3, SimConfig::default(), plan, "ROD").unwrap();
        assert!(core.next_fault_due(0.0).is_none());
        let crash = core.next_fault_due(5.0).unwrap();
        assert_eq!(crash.at_secs, 5.0);
        assert!(core.next_fault_due(5.0).is_none(), "recovery not due yet");
        let recover = core.next_fault_due(10.0).unwrap();
        assert_eq!(recover.at_secs, 10.0);
        assert!(core.next_fault_due(1e9).is_none());
    }

    #[test]
    fn trace_records_routes_and_migrations() {
        let (q, _cluster, mut rod) = fixture();
        let mut core =
            RuntimeCore::new(q.clone(), 3, SimConfig::default(), FaultPlan::none(), "ROD")
                .unwrap()
                .with_trace();
        let truth = q.default_stats();
        let n = loop {
            let n = core.sample_arrivals(&truth);
            if n > 0 {
                break n;
            }
        };
        assert!(n > 0);
        core.route(&mut rod, &truth, 3, 0.0).unwrap();
        core.note_migrations(
            1.0,
            &[MigrationDecision {
                operator: OperatorId::new(0),
                from: NodeId::new(0),
                to: NodeId::new(1),
                state_bytes: 64,
            }],
        );
        let (_, trace) = core.finish(&rod, BackendTotals::default());
        let trace = trace.expect("trace enabled");
        assert_eq!(trace.routes.len(), 1);
        assert_eq!(trace.routes[0].batch, 1);
        assert!(!trace.routes[0].plan.is_empty());
        assert_eq!(trace.migrations.len(), 1);
        assert_eq!(trace.migrations[0].operator, OperatorId::new(0));
    }

    #[test]
    fn recovery_windows_close_at_batch_completion() {
        let (q, _, rod) = fixture();
        let mut core = RuntimeCore::new(
            q,
            3,
            SimConfig {
                duration_secs: 100.0,
                ..SimConfig::default()
            },
            FaultPlan::none(),
            "ROD",
        )
        .unwrap();
        core.note_crash(10.0, 5.0);
        core.record_batch(10, 2000.0, 3, 14.0);
        core.note_crash(50.0, 0.0);
        let (m, _) = core.finish(&rod, BackendTotals::default());
        // First crash recovered at 14 s (4 s), second never (100 - 50 = 50 s).
        assert!((m.mean_recovery_secs - 27.0).abs() < 1e-9, "{m:?}");
        assert_eq!(m.tuples_lost, 5);
        assert_eq!(m.fault_events, 0);
    }
}
