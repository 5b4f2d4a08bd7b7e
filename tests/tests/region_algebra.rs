//! Property tests for the geometric region algebra and the partitioning
//! engine: the corner-based (cell-free) computations must agree with
//! cell-enumeration ground truth on random region sets, and ERP must be WRP
//! stopped early.

use proptest::prelude::*;
use rld_core::paramspace::{GridPoint, RegionSet, WeightMap};
use rld_core::prelude::*;
use std::collections::HashSet;

/// A tiny deterministic generator (splitmix64) so the region sets derive
/// from the proptest-supplied seed without extra dependencies.
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random set of axis-aligned regions inside a `dims`-dimensional
/// `steps`-step grid.
fn random_regions(seed: u64, dims: usize, steps: usize, count: usize) -> Vec<Region> {
    let mut state = seed;
    (0..count)
        .map(|_| {
            let mut lo = Vec::with_capacity(dims);
            let mut hi = Vec::with_capacity(dims);
            for _ in 0..dims {
                let a = (next_u64(&mut state) % steps as u64) as usize;
                let b = (next_u64(&mut state) % steps as u64) as usize;
                lo.push(a.min(b));
                hi.push(a.max(b));
            }
            Region::new(lo, hi)
        })
        .collect()
}

fn enumerate(regions: &[Region]) -> HashSet<GridPoint> {
    let mut cells = HashSet::new();
    for region in regions {
        for cell in region.cells() {
            cells.insert(cell);
        }
    }
    cells
}

fn space_nd(dims: usize, steps: usize) -> ParameterSpace {
    let estimates: Vec<_> = (0..dims)
        .map(|i| {
            StatisticEstimate::new(
                StatKey::Selectivity(OperatorId::new(i)),
                0.5,
                UncertaintyLevel::new(3),
            )
        })
        .collect();
    ParameterSpace::from_estimates(&estimates, StatsSnapshot::new(), steps).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Corner-based union volume equals the number of enumerated cells.
    #[test]
    fn union_volume_matches_cell_enumeration(
        seed in 0u64..10_000,
        dims in 1usize..4,
        count in 0usize..8,
    ) {
        let regions = random_regions(seed, dims, 7, count);
        let set = RegionSet::from_regions(&regions);
        prop_assert_eq!(set.volume(), enumerate(&regions).len() as u128);
        // The decomposition's boxes are pairwise disjoint.
        for (i, a) in set.boxes().iter().enumerate() {
            for b in &set.boxes()[i + 1..] {
                prop_assert!(!a.overlaps(b), "{} overlaps {}", a, b);
            }
        }
    }

    /// Geometric intersection and subtraction match set algebra on cells.
    #[test]
    fn intersect_subtract_match_cell_sets(
        seed in 0u64..10_000,
        dims in 1usize..4,
        count_a in 1usize..5,
        count_b in 1usize..5,
    ) {
        let regions_a = random_regions(seed, dims, 6, count_a);
        let regions_b = random_regions(seed.wrapping_add(1), dims, 6, count_b);
        let sa = RegionSet::from_regions(&regions_a);
        let sb = RegionSet::from_regions(&regions_b);
        let ea = enumerate(&regions_a);
        let eb = enumerate(&regions_b);
        let inter: HashSet<_> = ea.intersection(&eb).cloned().collect();
        let diff: HashSet<_> = ea.difference(&eb).cloned().collect();
        let union: HashSet<_> = ea.union(&eb).cloned().collect();
        prop_assert_eq!(sa.intersect(&sb).volume(), inter.len() as u128);
        prop_assert_eq!(sa.subtract(&sb).volume(), diff.len() as u128);
        prop_assert_eq!(sa.union(&sb).volume(), union.len() as u128);
        // Membership agrees cell by cell on the union's support.
        for cell in &union {
            prop_assert_eq!(sa.contains(cell), ea.contains(cell));
            prop_assert_eq!(sb.contains(cell), eb.contains(cell));
        }
    }

    /// The geometric plan weight (disjoint boxes × separable per-axis
    /// probabilities) equals the per-cell probability sum, for both
    /// occurrence models.
    #[test]
    fn geometric_plan_weight_matches_cell_sum(
        seed in 0u64..10_000,
        dims in 1usize..3,
        count in 1usize..6,
    ) {
        let steps = 7;
        let space = space_nd(dims, steps);
        let regions = random_regions(seed, dims, steps, count);
        for model in [OccurrenceModel::Normal, OccurrenceModel::Uniform] {
            let geometric = model.plan_weight(&space, &regions);
            let by_cells: f64 = enumerate(&regions)
                .iter()
                .map(|c| model.cell_probability(&space, c))
                .sum();
            prop_assert!(
                (geometric - by_cells).abs() < 1e-9,
                "model {:?}: geometric {} vs cells {}",
                model,
                geometric,
                by_cells
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// ERP is WRP stopped early: both run the same FIFO partitioning search
    /// and ERP only adds the aging-counter stop, so its solution is an
    /// entry-wise prefix of WRP's (same plans in the same order, each entry's
    /// regions a prefix of WRP's) and it never spends more calls or regions.
    #[test]
    fn erp_is_wrp_stopped_early(
        query_seed in 0u64..500,
        n_ops in 4usize..7,
        eps_idx in 0usize..4,
    ) {
        let epsilon = [0.05, 0.1, 0.15, 0.3][eps_idx];
        let query = Query::n_way_join(n_ops, query_seed);
        let compile = |solver: LogicalSolverSpec| {
            RobustCompiler::new(query.clone())
                .with_selectivity_dims(2, 3)
                .with_grid_steps(9)
                .with_solver(solver)
                .with_epsilon(epsilon)
                .compile_logical()
                .unwrap()
        };
        let wrp = compile(LogicalSolverSpec::Wrp);
        let erp = compile(LogicalSolverSpec::Erp(ErpConfig::default()));
        let (wrp_entries, erp_entries) = (wrp.solution.entries(), erp.solution.entries());
        prop_assert!(erp_entries.len() <= wrp_entries.len());
        for (e, w) in erp_entries.iter().zip(wrp_entries) {
            prop_assert_eq!(&e.plan, &w.plan);
            prop_assert!(e.regions.len() <= w.regions.len());
            prop_assert_eq!(&e.regions[..], &w.regions[..e.regions.len()]);
        }
        prop_assert!(erp.stats.optimizer_calls <= wrp.stats.optimizer_calls);
        prop_assert!(erp.stats.regions_examined <= wrp.stats.regions_examined);
    }
}

/// The classifier's claimed coverage and the support model's physical
/// coverage are pure functions of region geometry: spot-check them against a
/// brute-force cell count on one deterministic configuration.
#[test]
fn solution_coverage_matches_brute_force() {
    let query = Query::q1_stock_monitoring();
    let deployment = RobustCompiler::new(query)
        .with_selectivity_dims(2, 3)
        .with_epsilon(0.2)
        .compile(&Cluster::homogeneous(4, 1e12).unwrap())
        .unwrap();
    let space = &deployment.space;
    let mut covered = 0usize;
    for cell in space.iter_grid() {
        if deployment.logical.entries().iter().any(|e| e.covers(&cell)) {
            covered += 1;
        }
    }
    let brute = covered as f64 / space.total_cells() as f64;
    assert!((deployment.claimed_coverage - brute).abs() < 1e-12);
}

/// Golden counters for the sequential WRP/ERP search on Q2 (U = 4, 15 grid
/// steps, ε = 0.1): optimizer calls, plans, regions examined, partitions,
/// the plan-cost evaluations of §4.2 weight assignment, early termination
/// and the solution fingerprint. Any change to the FIFO visiting order, the
/// optimum memo, the aging rule or the weight tabulation shows up here. (WRP
/// at four dimensions, 860 calls, is gated by `compile_scale --check`.)
#[test]
fn partition_search_counters_are_pinned() {
    let erp = LogicalSolverSpec::Erp(ErpConfig::default());
    let golden = [
        (
            2,
            LogicalSolverSpec::Wrp,
            38,
            11,
            31,
            8,
            2090,
            false,
            0x705d_1f85_3e8d_e5af,
        ),
        (2, erp, 38, 11, 31, 8, 2090, false, 0x705d_1f85_3e8d_e5af),
        (
            3,
            LogicalSolverSpec::Wrp,
            159,
            25,
            111,
            21,
            29608,
            false,
            0xa0fb_f640_f4c5_720b,
        ),
        (3, erp, 55, 10, 36, 9, 18564, true, 0x8806_17b0_ab88_0132),
        (4, erp, 101, 20, 62, 16, 191482, true, 0x4542_e62f_33a6_d0fe),
    ];
    for (dims, solver, calls, plans, examined, partitions, evaluations, early, fingerprint) in
        golden
    {
        let out = RobustCompiler::new(Query::q2_ten_way_join())
            .with_selectivity_dims(dims, 4)
            .with_grid_steps(15)
            .with_solver(solver)
            .with_epsilon(0.1)
            .compile_logical()
            .unwrap();
        let got = (
            out.stats.optimizer_calls,
            out.solution.len(),
            out.stats.regions_examined,
            out.stats.partitions,
            out.stats.cost_evaluations,
            out.stats.terminated_early,
            out.solution.fingerprint(),
        );
        assert_eq!(
            got,
            (
                calls,
                plans,
                examined,
                partitions,
                evaluations,
                early,
                fingerprint
            ),
            "{} at {dims} dims",
            out.solver
        );
    }
}

/// The Q2 set-up compile of the runtime configuration (4 dimensions × 7
/// steps, U = 5, ERP, ε = 0.1). Its 7⁴-cell space is under
/// `WeightMap::MAX_EXACT_CELLS`, so every region it partitions is weighted
/// exactly, at one plan-cost evaluation per corner plan per cell.
#[test]
fn runtime_q2_compile_counters_are_pinned() {
    let out = runtime_rld_config()
        .compiler(Query::q2_ten_way_join())
        .compile_logical()
        .unwrap();
    assert!(out.space.total_cells() <= WeightMap::MAX_EXACT_CELLS);
    let got = (
        out.stats.optimizer_calls,
        out.stats.cost_evaluations,
        out.solution.fingerprint(),
    );
    assert_eq!(got, (182, 10_558, 974_545_463_634_652_821));
}
