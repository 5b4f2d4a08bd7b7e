//! Output checks. Each returns `Err` with a one-line reason on a mismatch;
//! a run that records any failure reports `"correct": false` and exits 1.

use rld_core::compiler::SolverStats;
use rld_core::prelude::*;
use std::result::Result;

/// Collects check failures over a run.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Record one check's outcome; returns whether it passed.
    pub fn record(&mut self, outcome: Result<(), String>) -> bool {
        match outcome {
            Ok(()) => true,
            Err(reason) => {
                self.failures.push(reason);
                false
            }
        }
    }

    /// Every failure recorded so far.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

fn expect_eq<T: PartialEq + std::fmt::Debug>(what: &str, a: T, b: T) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what}: {a:?} != {b:?}"))
    }
}

/// Every arrived driving tuple is either processed or lost.
pub fn conservation(m: &RunMetrics) -> Result<(), String> {
    if m.tuples_processed + m.tuples_lost == m.tuples_arrived {
        Ok(())
    } else {
        Err(format!(
            "conservation: processed {} + lost {} != arrived {}",
            m.tuples_processed, m.tuples_lost, m.tuples_arrived
        ))
    }
}

/// The deterministic outputs of one columnar run: counters and the
/// selectivities the dataplane observed.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSignature {
    /// Driving tuples arrived.
    pub arrived: u64,
    /// Driving tuples processed.
    pub processed: u64,
    /// Result tuples produced.
    pub produced: u64,
    /// Driving tuples lost to faults.
    pub lost: u64,
    /// Batches (ticks) routed.
    pub batches: u64,
    /// Plan switches.
    pub plan_switches: u64,
    /// Migrations.
    pub migrations: u64,
    /// Observed statistics, as `(key, value bits)` so NaN compares equal to
    /// itself and `-0.0` differs from `0.0`.
    pub observed: Vec<(String, u64)>,
}

impl RunSignature {
    /// The signature of a columnar run.
    pub fn of(report: &ExecReport) -> Self {
        let m = &report.metrics;
        Self {
            arrived: m.tuples_arrived,
            processed: m.tuples_processed,
            produced: m.tuples_produced,
            lost: m.tuples_lost,
            batches: m.batches,
            plan_switches: m.plan_switches,
            migrations: m.migrations,
            observed: report
                .observed_stats
                .iter()
                .map(|(k, v)| (format!("{k:?}"), v.to_bits()))
                .collect(),
        }
    }
}

/// A repeated run of the same workload and seed reproduced the first one
/// exactly: produced tuples, observed selectivities and every counter.
pub fn repeats(first: &RunSignature, other: &RunSignature) -> Result<(), String> {
    expect_eq("repeat: tuples_produced", first.produced, other.produced)?;
    expect_eq(
        "repeat: observed selectivities",
        &first.observed,
        &other.observed,
    )?;
    expect_eq("repeat: run counters", first, other)
}

/// The columnar run's policy decisions, arrivals and losses equal the
/// simulator's on the same scenario and seed.
pub fn oracle(
    columnar: (&RunMetrics, &RunTrace),
    simulator: (&RunMetrics, &RunTrace),
) -> Result<(), String> {
    let ((cm, ct), (sm, st)) = (columnar, simulator);
    expect_eq("oracle: routes", ct.routes.len(), st.routes.len())?;
    if ct.routes != st.routes {
        let at = ct.routes.iter().zip(&st.routes).position(|(a, b)| a != b);
        return Err(format!("oracle: routes differ first at batch {at:?}"));
    }
    expect_eq("oracle: migrations", &ct.migrations, &st.migrations)?;
    expect_eq(
        "oracle: tuples_arrived",
        cm.tuples_arrived,
        sm.tuples_arrived,
    )?;
    expect_eq("oracle: tuples_lost", cm.tuples_lost, sm.tuples_lost)
}

/// A repeated compile produced the same solution with the same search work.
pub fn same_compile(first: &SolverStats, other: &SolverStats) -> Result<(), String> {
    expect_eq(
        "compile: solution_fingerprint",
        first.solution_fingerprint,
        other.solution_fingerprint,
    )?;
    expect_eq(
        "compile: optimizer_calls",
        first.optimizer_calls,
        other.optimizer_calls,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{set_up_with_horizon, WorkloadName};
    use rld_core::engine::MigrationRecord;

    /// A short real stream-q2 run (crash included) on both backends.
    fn sample() -> (ExecReport, RunMetrics, RunTrace, SolverStats) {
        let setup = set_up_with_horizon(WorkloadName::StreamQ2, 7, 60.0).unwrap();
        let stream = &setup.stream;
        let mut strategy = stream.deploy(&setup.deployment);
        let report = stream
            .executor
            .run_report(stream.workload.as_ref(), strategy.as_mut(), true)
            .unwrap();
        let mut strategy = stream.deploy(&setup.deployment);
        let (sim_m, sim_t) = stream
            .simulator(&setup.query, &setup.cluster)
            .unwrap()
            .run_traced(stream.workload.as_ref(), strategy.as_mut())
            .unwrap();
        (report, sim_m, sim_t, setup.deployment.solver_stats)
    }

    #[test]
    fn every_check_passes_on_real_outputs_and_fires_on_a_mismatch() {
        let (report, sim_m, sim_t, stats) = sample();
        let m = &report.metrics;
        let trace = report.trace.clone().unwrap();
        assert!(m.plan_switches > 0 && !trace.routes.is_empty());

        // Conservation.
        assert_eq!(conservation(m), Ok(()));
        let mut broken = m.clone();
        broken.tuples_lost += 1;
        assert!(conservation(&broken).is_err());
        let mut broken = m.clone();
        broken.tuples_processed -= 1;
        assert!(conservation(&broken).is_err());

        // Repeats: produced tuples, observed selectivities, counters.
        let sig = RunSignature::of(&report);
        assert_eq!(repeats(&sig, &sig.clone()), Ok(()));
        let mut other = sig.clone();
        other.produced += 1;
        assert!(repeats(&sig, &other)
            .unwrap_err()
            .contains("tuples_produced"));
        let mut other = sig.clone();
        other.observed[0].1 ^= 1;
        assert!(repeats(&sig, &other).unwrap_err().contains("observed"));
        let mut other = sig.clone();
        other.migrations += 1;
        assert!(repeats(&sig, &other).is_err());

        // Simulator oracle: routes, migrations, arrivals, losses.
        assert_eq!(oracle((m, &trace), (&sim_m, &sim_t)), Ok(()));
        let mut t = sim_t.clone();
        t.routes.pop();
        assert!(oracle((m, &trace), (&sim_m, &t)).is_err());
        let mut t = sim_t.clone();
        t.routes[1].plan.push('x');
        assert!(oracle((m, &trace), (&sim_m, &t))
            .unwrap_err()
            .contains("batch Some(1)"));
        let mut t = sim_t.clone();
        t.migrations.push(MigrationRecord {
            t_secs: 1.0,
            operator: OperatorId::new(0),
            from: NodeId::new(0),
            to: NodeId::new(1),
        });
        assert!(oracle((m, &trace), (&sim_m, &t)).is_err());
        let mut sm = sim_m.clone();
        sm.tuples_arrived += 1;
        assert!(oracle((m, &trace), (&sm, &sim_t)).is_err());
        let mut sm = sim_m.clone();
        sm.tuples_lost += 1;
        assert!(oracle((m, &trace), (&sm, &sim_t)).is_err());

        // Compile repeats.
        assert_eq!(same_compile(&stats, &stats), Ok(()));
        let mut other = stats;
        other.solution_fingerprint ^= 1;
        assert!(same_compile(&stats, &other).is_err());
        let mut other = stats;
        other.optimizer_calls += 1;
        assert!(same_compile(&stats, &other).is_err());
    }

    #[test]
    fn checks_collect_failures() {
        let mut checks = Checks::default();
        assert!(checks.record(Ok(())));
        assert!(checks.passed());
        assert!(!checks.record(Err("x".into())));
        assert!(!checks.passed());
        assert_eq!(checks.failures(), ["x".to_string()]);
    }
}
