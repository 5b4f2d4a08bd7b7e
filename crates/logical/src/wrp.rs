//! Weight-driven Robust Partitioning (WRP, Algorithm 2).
//!
//! WRP recursively partitions the parameter space: for each sub-space it asks
//! the black-box optimizer for the optimal plans at the corners, accepts the
//! sub-space when the bottom-corner plan is ε-robust across it (Definition 1
//! via the corner bound), and otherwise splits the sub-space at the highest-
//! weight interior point (the §4.2 weight function) and recurses. Unlike
//! ERP it has no early-termination rule, so it keeps refining until every
//! sub-space is robust — the behaviour whose cost explosion motivates ERP.
//!
//! Sub-spaces are probed in FIFO order: the full space first, then the
//! children of each split in the order the split produced them. The optimizer
//! calls, the aging counter and the solution therefore depend only on the
//! configuration, never on timing.

use crate::robustness::RobustnessChecker;
use crate::solution::RobustLogicalSolution;
use crate::stats::SearchStats;
use crate::LogicalPlanGenerator;
use rld_common::Result;
use rld_paramspace::{DistanceMetric, GridPoint, ParameterSpace, Region, WeightMap};
use rld_query::{LogicalPlan, Optimizer};
use std::collections::VecDeque;
use std::time::Instant;

/// Termination rule for the shared partitioning engine.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AgingTermination {
    /// Stop once this many consecutive optimizer probes yield no new plan.
    pub threshold: usize,
}

/// Outcome flags shared by WRP / ERP.
pub(crate) struct PartitionOutcome {
    pub solution: RobustLogicalSolution,
    pub stats: SearchStats,
}

/// Everything the search loop needs to know about one probed region.
struct RegionEval {
    robust: bool,
    opt_lo: LogicalPlan,
    opt_hi: LogicalPlan,
    /// Child sub-regions to enqueue (empty when robust or single-cell).
    children: Vec<Region>,
    /// Whether a partitioning step was performed.
    partitioned: bool,
    /// Plan-cost evaluations the weight assignment made.
    cost_evaluations: usize,
}

/// Probe one region: corner optima, the corner-bound robustness verdict, and
/// — when not robust — the weight-driven split.
fn evaluate_region<O: Optimizer>(
    checker: &RobustnessChecker<'_, O>,
    metric: DistanceMetric,
    region: &Region,
) -> Result<RegionEval> {
    let space = checker.space();
    let opt_lo = checker.optimal_plan_at(&region.pnt_lo())?;
    let opt_hi = checker.optimal_plan_at(&region.pnt_hi())?;
    let robust = checker.is_robust_in_region(&opt_lo, region)?;
    let mut children = Vec::new();
    let mut partitioned = false;
    let mut cost_evaluations = 0;
    if !robust && !region.is_single_cell() {
        partitioned = true;
        // Cost both corner plans on one snapshot, moved from point to point.
        let optimizer = checker.optimizer();
        let mut snapshot = space.snapshot_at(&region.pnt_lo());
        let costs = |g: &GridPoint| {
            space.move_snapshot_to(&mut snapshot, g);
            cost_evaluations += 2;
            Ok([
                optimizer.plan_cost(&opt_lo, &snapshot)?,
                optimizer.plan_cost(&opt_hi, &snapshot)?,
            ])
        };
        let weights = WeightMap::assign(space, region, costs, metric)?;
        let partition_point = weights
            .max_weight_interior_point(region)
            .unwrap_or_else(|| region.centre());
        let mut parts = region.split_at(&partition_point);
        if parts.len() == 1 && parts[0] == *region {
            // Degenerate partition point: fall back to bisection so
            // the search always makes progress.
            parts = region.bisect();
        }
        children = parts.into_iter().filter(|p| p != region).collect();
    }
    Ok(RegionEval {
        robust,
        opt_lo,
        opt_hi,
        children,
        partitioned,
        cost_evaluations,
    })
}

/// Shared partitioning engine used by both WRP (no aging termination) and
/// ERP (aging termination per Theorem 1). The budget and aging checks run
/// before every region, so they gate every optimizer call exactly.
pub(crate) fn partition_search<O: Optimizer>(
    checker: &RobustnessChecker<'_, O>,
    termination: Option<AgingTermination>,
    max_calls: Option<usize>,
    metric: DistanceMetric,
) -> Result<PartitionOutcome> {
    // rld-allow(D2): compile-time solver wall-ms, reported in SolveStats only — never a tuple result
    let start = Instant::now();
    let space = checker.space();
    let calls_before = checker.optimizer_calls();
    let mut solution = RobustLogicalSolution::new();
    let mut queue: VecDeque<Region> = VecDeque::from([Region::full(space)]);

    let mut aging_counter = 0usize;
    let mut partitions = 0usize;
    let mut examined = 0usize;
    let mut cost_evaluations = 0usize;
    let mut terminated_early = false;

    while let Some(region) = queue.pop_front() {
        if let Some(budget) = max_calls {
            if checker.optimizer_calls() - calls_before >= budget {
                terminated_early = true;
                break;
            }
        }
        if let Some(term) = termination {
            if aging_counter > term.threshold {
                terminated_early = true;
                break;
            }
        }
        examined += 1;
        let eval = evaluate_region(checker, metric, &region)?;
        cost_evaluations += eval.cost_evaluations;

        let mut discovered = false;
        if eval.robust {
            discovered |= solution.add(eval.opt_lo.clone(), region.clone());
            if eval.opt_hi != eval.opt_lo {
                // The top-corner optimum is within ε of opt_lo here, but it is
                // still a distinct plan worth remembering for its own cell.
                discovered |= solution.add(eval.opt_hi, single_cell(&region.pnt_hi()));
            }
        } else {
            // Record what we learned at the corners even when the sub-space
            // itself is not yet robust.
            discovered |= solution.add(eval.opt_lo, single_cell(&region.pnt_lo()));
            discovered |= solution.add(eval.opt_hi, single_cell(&region.pnt_hi()));
            if eval.partitioned {
                partitions += 1;
            }
            queue.extend(eval.children);
        }

        if discovered {
            aging_counter = 0;
        } else {
            aging_counter += 1;
        }
    }

    let stats = SearchStats {
        optimizer_calls: checker.optimizer_calls() - calls_before,
        distinct_plans: solution.len(),
        regions_examined: examined,
        partitions,
        cost_evaluations,
        terminated_early,
        elapsed_micros: start.elapsed().as_micros() as u64,
    };
    Ok(PartitionOutcome { solution, stats })
}

fn single_cell(p: &GridPoint) -> Region {
    Region::new(p.indices.clone(), p.indices.clone())
}

/// Weight-driven Robust Partitioning (Algorithm 2): partition until every
/// sub-space has a robust plan, with no early termination.
pub struct WeightedRobustPartitioning<'a, O: Optimizer> {
    checker: RobustnessChecker<'a, O>,
    metric: DistanceMetric,
}

impl<'a, O: Optimizer> WeightedRobustPartitioning<'a, O> {
    /// Create a WRP generator for the given optimizer, space and ε.
    pub fn new(optimizer: &'a O, space: &'a ParameterSpace, epsilon: f64) -> Self {
        Self {
            checker: RobustnessChecker::new(optimizer, space, epsilon),
            metric: DistanceMetric::default(),
        }
    }

    /// Use a specific distance metric for the weight function.
    pub fn with_metric(mut self, metric: DistanceMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Access the underlying robustness checker.
    pub fn checker(&self) -> &RobustnessChecker<'a, O> {
        &self.checker
    }
}

impl<'a, O: Optimizer> LogicalPlanGenerator for WeightedRobustPartitioning<'a, O> {
    fn name(&self) -> &'static str {
        "WRP"
    }

    fn generate(&self) -> Result<(RobustLogicalSolution, SearchStats)> {
        let out = partition_search(&self.checker, None, None, self.metric)?;
        Ok((out.solution, out.stats))
    }

    fn generate_with_budget(
        &self,
        max_calls: usize,
    ) -> Result<(RobustLogicalSolution, SearchStats)> {
        let out = partition_search(&self.checker, None, Some(max_calls), self.metric)?;
        Ok((out.solution, out.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::CoverageEvaluator;
    use crate::exhaustive::ExhaustiveSearch;
    use rld_common::{Query, RldError, StatsSnapshot, UncertaintyLevel};
    use rld_query::JoinOrderOptimizer;

    fn setup(steps: usize, u: u32) -> (Query, ParameterSpace) {
        let q = Query::q1_stock_monitoring();
        let est = q
            .selectivity_estimates(2, UncertaintyLevel::new(u))
            .unwrap();
        let space = ParameterSpace::from_estimates(&est, q.default_stats(), steps).unwrap();
        (q, space)
    }

    #[test]
    fn wrp_terminates_and_covers_most_of_the_space() {
        let (q, space) = setup(9, 3);
        let opt = JoinOrderOptimizer::new(q.clone());
        let wrp = WeightedRobustPartitioning::new(&opt, &space, 0.2);
        let (solution, stats) = wrp.generate().unwrap();
        assert!(!solution.is_empty());
        assert!(stats.optimizer_calls > 0);
        let ev = CoverageEvaluator::new(q.clone(), space.clone(), 0.2).unwrap();
        let cov = ev.true_coverage(&solution).unwrap();
        assert!(cov > 0.8, "true coverage too low: {cov}");
        assert_eq!(wrp.name(), "WRP");
    }

    #[test]
    fn wrp_uses_fewer_calls_than_exhaustive() {
        let (q, space) = setup(9, 3);
        let opt_wrp = JoinOrderOptimizer::new(q.clone());
        let opt_es = JoinOrderOptimizer::new(q);
        let wrp = WeightedRobustPartitioning::new(&opt_wrp, &space, 0.2);
        let es = ExhaustiveSearch::new(&opt_es, &space);
        let (_, wrp_stats) = wrp.generate().unwrap();
        let (_, es_stats) = es.generate().unwrap();
        assert!(
            wrp_stats.optimizer_calls < es_stats.optimizer_calls,
            "WRP calls {} >= ES calls {}",
            wrp_stats.optimizer_calls,
            es_stats.optimizer_calls
        );
    }

    #[test]
    fn looser_epsilon_needs_fewer_calls() {
        let (q, space) = setup(9, 3);
        let opt_tight = JoinOrderOptimizer::new(q.clone());
        let opt_loose = JoinOrderOptimizer::new(q);
        let tight = WeightedRobustPartitioning::new(&opt_tight, &space, 0.05);
        let loose = WeightedRobustPartitioning::new(&opt_loose, &space, 0.5);
        let (_, tight_stats) = tight.generate().unwrap();
        let (_, loose_stats) = loose.generate().unwrap();
        assert!(loose_stats.optimizer_calls <= tight_stats.optimizer_calls);
    }

    /// An optimizer whose `plan_cost` fails at one statistics snapshot.
    struct FailingAt {
        inner: JoinOrderOptimizer,
        bad: StatsSnapshot,
    }

    impl Optimizer for FailingAt {
        fn optimize(&self, stats: &StatsSnapshot) -> Result<LogicalPlan> {
            self.inner.optimize(stats)
        }
        fn plan_cost(&self, plan: &LogicalPlan, stats: &StatsSnapshot) -> Result<f64> {
            if *stats == self.bad {
                return Err(RldError::Runtime("cost model failure".into()));
            }
            self.inner.plan_cost(plan, stats)
        }
        fn query(&self) -> &Query {
            self.inner.query()
        }
        fn call_count(&self) -> usize {
            self.inner.call_count()
        }
        fn reset_calls(&self) {
            self.inner.reset_calls()
        }
    }

    #[test]
    fn weight_cost_errors_fail_the_search() {
        // [2, 3] is inside the first split's weighted region but never a
        // corner the search optimizes at: only weight assignment costs it.
        let (q, space) = setup(9, 3);
        let opt = FailingAt {
            inner: JoinOrderOptimizer::new(q),
            bad: space.snapshot_at(&GridPoint::new(vec![2, 3])),
        };
        let wrp = WeightedRobustPartitioning::new(&opt, &space, 0.05);
        assert!(matches!(wrp.generate(), Err(RldError::Runtime(_))));
    }

    #[test]
    fn budget_caps_calls() {
        let (q, space) = setup(9, 3);
        let opt = JoinOrderOptimizer::new(q);
        let wrp = WeightedRobustPartitioning::new(&opt, &space, 0.05);
        let (_, stats) = wrp.generate_with_budget(4).unwrap();
        assert!(stats.optimizer_calls <= 5);
    }
}
