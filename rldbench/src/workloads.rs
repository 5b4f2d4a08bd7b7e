//! The benchmark workloads and their set-up.
//!
//! A set-up goes from the workload's definition (query, cluster sizing,
//! compiler configuration, arrivals, fault plan) to something ready to run:
//! a compiled [`Deployment`] and a columnar executor pinned to
//! [`PINNED_SHARDS`] shard. Everything is rebuilt from
//! scratch on every call, so timing [`set_up`] times the whole set-up.

use rld_core::prelude::*;
use std::time::Instant;

/// Shard count of every columnar run. One shard runs the shard core inline
/// on the coordinator thread, so a run uses one core whatever the machine,
/// and a number means the same on a 2-core and a 64-core box.
pub const PINNED_SHARDS: usize = 1;

/// Virtual horizon of one `stream-q1` run (≈1.5M driving tuples, 3000
/// batches).
pub const Q1_HORIZON_SECS: f64 = 3000.0;
/// Virtual horizon of one `stream-q2` run (≈450k driving tuples, 3600
/// batches, the node-1 outage from ⅓ to ⅔ of it).
pub const Q2_HORIZON_SECS: f64 = 3600.0;
/// Rebalance period of the hybrid strategy's migration fallback, as in the
/// scenario layer's default line-up.
const HYBRID_REBALANCE_SECS: f64 = 5.0;

/// A benchmark workload, selected by name on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    /// Q1 stock monitoring under RLD on the columnar dataplane, fault-free.
    StreamQ1,
    /// Q2 regime switches under HYB with a node crash, columnar dataplane.
    StreamQ2,
}

impl WorkloadName {
    /// Every workload, in presentation order.
    pub const ALL: [WorkloadName; 2] = [WorkloadName::StreamQ1, WorkloadName::StreamQ2];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadName::StreamQ1 => "stream-q1",
            WorkloadName::StreamQ2 => "stream-q2",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> std::result::Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let known: Vec<&str> = Self::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload '{name}' (known: {})", known.join(", "))
            })
    }

    /// The virtual horizon of one stream run.
    pub fn horizon_secs(self) -> f64 {
        match self {
            WorkloadName::StreamQ1 => Q1_HORIZON_SECS,
            WorkloadName::StreamQ2 => Q2_HORIZON_SECS,
        }
    }
}

/// Which runtime strategy a stream deploys from its compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Robust classification over one robust placement.
    Rld,
    /// RLD plus migration when the statistics leave every robust region.
    Hybrid,
}

/// A stream to run: arrivals, fault plan, strategy and the executor.
pub struct Stream {
    /// The workload generating arrivals and ground-truth statistics.
    pub workload: Box<dyn Workload>,
    /// Tick, horizon and seed of the run.
    pub sim: SimConfig,
    /// Node faults applied during the run.
    pub faults: FaultPlan,
    /// The strategy deployed from the compile.
    pub strategy: StrategyKind,
    /// The columnar executor, pinned to [`PINNED_SHARDS`].
    pub executor: ColumnarExecutor,
}

impl Stream {
    /// A fresh runtime strategy deployed from the compile, so every run
    /// starts from the same state.
    pub fn deploy(&self, deployment: &Deployment) -> Box<dyn DistributionStrategy> {
        match self.strategy {
            StrategyKind::Rld => Box::new(deployment.deploy()),
            StrategyKind::Hybrid => Box::new(deployment.deploy_hybrid(HYBRID_REBALANCE_SECS)),
        }
    }

    /// The simulator over the same query, cluster, seed and faults: the
    /// reference the columnar run's policy decisions must equal.
    pub fn simulator(&self, query: &Query, cluster: &Cluster) -> Result<Simulator> {
        Simulator::new(query.clone(), cluster.clone(), self.sim)?.with_faults(self.faults.clone())
    }
}

/// Everything one workload needs, ready to run.
pub struct Setup {
    /// The query under test.
    pub query: Query,
    /// The homogeneous cluster, sized by [`runtime_capacity`].
    pub cluster: Cluster,
    /// The compile-time configuration.
    pub config: RldConfig,
    /// The compiled deployment.
    pub deployment: Deployment,
    /// Wall milliseconds of the compile inside this set-up.
    pub compile_ms: f64,
    /// The stream to run.
    pub stream: Stream,
}

/// Build a workload from its definition to ready-to-run, with the workload's
/// own stream horizon.
pub fn set_up(name: WorkloadName, seed: u64) -> Result<Setup> {
    set_up_with_horizon(name, seed, name.horizon_secs())
}

/// [`set_up`] with an explicit stream horizon (the tests use short ones).
pub fn set_up_with_horizon(name: WorkloadName, seed: u64, horizon_secs: f64) -> Result<Setup> {
    let (query, nodes, config) = match name {
        WorkloadName::StreamQ1 => (
            Query::q1_stock_monitoring(),
            4,
            RldConfig::default().with_uncertainty(3),
        ),
        WorkloadName::StreamQ2 => (Query::q2_ten_way_join(), 10, runtime_rld_config()),
    };
    let cluster = Cluster::homogeneous(nodes, runtime_capacity(&query, nodes, 3.0))?;
    let start = Instant::now();
    let deployment = config.compiler(query.clone()).compile(&cluster)?;
    let compile_ms = start.elapsed().as_secs_f64() * 1e3;
    let stream = stream_for(name, &query, &cluster, seed, horizon_secs)?;
    Ok(Setup {
        query,
        cluster,
        config,
        deployment,
        compile_ms,
        stream,
    })
}

/// The stream a set-up runs.
fn stream_for(
    name: WorkloadName,
    query: &Query,
    cluster: &Cluster,
    seed: u64,
    horizon_secs: f64,
) -> Result<Stream> {
    let sim = SimConfig {
        duration_secs: horizon_secs,
        seed,
        ..SimConfig::default()
    };
    let (workload, faults, strategy) = match name {
        WorkloadName::StreamQ1 => (
            Box::new(StockWorkload::new(60.0, RatePattern::Constant(5.0))) as Box<dyn Workload>,
            FaultPlan::none(),
            StrategyKind::Rld,
        ),
        WorkloadName::StreamQ2 => (
            Box::new(regime_switching_workload(
                query,
                90.0,
                RatePattern::Periodic {
                    period_secs: 10.0,
                    high_scale: 2.0,
                    low_scale: 0.5,
                },
            )) as Box<dyn Workload>,
            FaultPlan::node_crash(
                NodeId::new(1),
                horizon_secs / 3.0,
                horizon_secs * 2.0 / 3.0,
                RecoverySemantic::Lost,
            )?,
            StrategyKind::Hybrid,
        ),
    };
    let config = ColumnarConfig {
        shards: PINNED_SHARDS,
        ..ColumnarConfig::from_sim(sim)
    };
    let executor = ColumnarExecutor::new(query.clone(), cluster.clone(), config)?
        .with_faults(faults.clone())?;
    Ok(Stream {
        workload,
        sim,
        faults,
        strategy,
        executor,
    })
}
