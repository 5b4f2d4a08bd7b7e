//! Weight assignment for parameter-space points (§4.2 of the paper).
//!
//! The partitioning algorithms need to pick "good" partition points — points
//! where a *new* robust plan is likely to be found. The paper assigns each
//! point a weight that
//!
//! * **increases** with the slope of the known plans' cost functions at that
//!   point (Principle 2: near the margin of a plan's robust region the cost
//!   surface is steep), and
//! * **decreases** with the point's distance from the sub-space's bottom-left
//!   corner `pntLo` (Principle 1: nearby points likely share a robust plan).
//!
//! Formally, per dimension `i`:
//!
//! ```text
//! weight_i(pnt) = min(slope_i(pnt, lp_opt@pntHi), slope_i(pnt, lp_opt@pntLo)) / dist_i(pnt, pntLo)
//! ```
//!
//! and the point's weight is the sum over dimensions. The plan costs are
//! supplied as a closure over grid points so that this crate does not depend
//! on the query/cost-model crate.

use crate::region::Region;
use crate::space::{GridPoint, ParameterSpace};
use rld_common::Result;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Distance metric used in the denominator of the weight function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum DistanceMetric {
    /// Sum of per-dimension index distances (the paper's default choice).
    #[default]
    Manhattan,
    /// Square root of the sum of squared per-dimension index distances.
    Euclidean,
}

impl DistanceMetric {
    /// Distance between two grid points in index units.
    pub fn grid_distance(&self, a: &GridPoint, b: &GridPoint) -> f64 {
        match self {
            DistanceMetric::Manhattan => a
                .indices
                .iter()
                .zip(&b.indices)
                .map(|(x, y)| x.abs_diff(*y) as f64)
                .sum(),
            DistanceMetric::Euclidean => a
                .indices
                .iter()
                .zip(&b.indices)
                .map(|(x, y)| (x.abs_diff(*y) as f64).powi(2))
                .sum::<f64>()
                .sqrt(),
        }
    }
}

/// Weights assigned to the grid points of one region.
///
/// Backed by a `BTreeMap` keyed on grid coordinates so that every iteration
/// order — and therefore every maximum-weight tie-break and partition-point
/// choice downstream — is a pure function of the map's *contents*, never of
/// hash seeding or insertion order (determinism lint D1).
#[derive(Debug, Clone, Default)]
pub struct WeightMap {
    weights: BTreeMap<GridPoint, f64>,
}

impl WeightMap {
    /// Maximum number of grid points that are weighted exactly; larger
    /// regions are sub-sampled on a coarse lattice (every k-th index per
    /// dimension). Weighting is not cheap next to the optimizer calls it is
    /// meant to save (§4.2). On the Q2 set-up compile (4 dimensions × 7
    /// steps, ERP) the 182 optimizer calls take ≈ 0.1 ms, while weight
    /// assignment took ≈ 40 of the 45 ms compile when it costed both corner
    /// plans ≈ 15 times per cell, and still takes most of the ≈ 6 ms logical
    /// search at once per cell. The cap bounds that work per region.
    pub const MAX_EXACT_CELLS: usize = 4096;

    /// Assign weights to the grid points of `region` in `space`.
    ///
    /// `costs` returns, at a grid point, the costs of the optimal plans at
    /// the region's `pntLo` and `pntHi` corners, in that order. Slopes are
    /// estimated with central finite differences on the grid (one-sided at
    /// the region's edges). Regions with more than
    /// [`WeightMap::MAX_EXACT_CELLS`] cells are weighted on a sub-sampled
    /// lattice.
    ///
    /// Evaluation contract: `costs` is called exactly once per lattice cell,
    /// into a dense table indexed by the cell's flat lattice offset, and the
    /// finite differences read their neighbours from that table. In an
    /// exactly weighted region every neighbour is a lattice cell, so
    /// weighting `n` cells makes exactly `n` calls (`2·n` plan costs). On a
    /// sub-sampled lattice a neighbour between lattice points is evaluated
    /// where it is read and not stored. The first error `costs` returns is
    /// returned.
    pub fn assign<F>(
        space: &ParameterSpace,
        region: &Region,
        mut costs: F,
        metric: DistanceMetric,
    ) -> Result<Self>
    where
        F: FnMut(&GridPoint) -> Result<[f64; 2]>,
    {
        let lattice = Lattice::of(region);
        let mut cursor = Cursor::new(region);
        let mut table = Vec::with_capacity(lattice.cells());
        loop {
            table.push(costs(&cursor.point)?);
            if !cursor.advance(&lattice) {
                break;
            }
        }
        let pnt_lo = region.pnt_lo();
        let mut weights = BTreeMap::new();
        let mut cursor = Cursor::new(region);
        loop {
            let mut total = 0.0;
            for dim in 0..space.num_dims() {
                let [slope_lo, slope_hi] = lattice.slopes(&table, &mut cursor, dim, &mut costs)?;
                let slope = slope_lo.min(slope_hi).abs();
                let dist = (cursor.point.indices[dim].abs_diff(region.lo[dim]) as f64).max(1.0);
                total += slope / dist;
            }
            // Normalize by overall distance so the chosen metric matters for
            // multi-dimensional spaces; add 1 to avoid division by zero at pntLo.
            let overall = metric.grid_distance(&cursor.point, &pnt_lo) + 1.0;
            weights.insert(cursor.point.clone(), total / overall);
            if !cursor.advance(&lattice) {
                break;
            }
        }
        Ok(Self { weights })
    }

    /// Weight of a grid point (0 if the point was not assigned).
    pub fn get(&self, p: &GridPoint) -> f64 {
        self.weights.get(p).copied().unwrap_or(0.0)
    }

    /// Number of weighted points.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The grid point with the maximum weight, breaking ties deterministically
    /// by grid coordinates. Returns `None` for an empty map.
    pub fn max_weight_point(&self) -> Option<GridPoint> {
        self.weights
            .iter()
            .max_by(|(pa, wa), (pb, wb)| {
                wa.partial_cmp(wb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| pa.indices.cmp(&pb.indices))
            })
            .map(|(p, _)| p.clone())
    }

    /// The interior grid point (strictly between a region's corners along at
    /// least one dimension where the region is wider than one cell) with the
    /// maximum weight. Falls back to [`WeightMap::max_weight_point`] when the
    /// region has no interior. Partitioning at a corner makes no progress,
    /// so the partitioning algorithms prefer interior maxima.
    pub fn max_weight_interior_point(&self, region: &Region) -> Option<GridPoint> {
        let interior: Vec<(&GridPoint, &f64)> = self
            .weights
            .iter()
            .filter(|(p, _)| {
                p.indices
                    .iter()
                    .zip(region.lo.iter().zip(&region.hi))
                    .any(|(x, (l, h))| h > l && x < h && x >= l)
                    && p.indices != region.hi
            })
            .collect();
        if interior.is_empty() {
            return self.max_weight_point();
        }
        interior
            .into_iter()
            .max_by(|(pa, wa), (pb, wb)| {
                wa.partial_cmp(wb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| pa.indices.cmp(&pb.indices))
            })
            .map(|(p, _)| p.clone())
    }

    /// Merge another weight map into this one; on a point both maps weigh,
    /// `other`'s weight wins.
    pub fn merge(&mut self, other: WeightMap) {
        self.weights.extend(other.weights);
    }
}

/// The weighted lattice of one region: per-dimension strided index lists,
/// always including the hi edge, thin enough that the lattice stays near
/// [`WeightMap::MAX_EXACT_CELLS`] cells.
struct Lattice {
    axes: Vec<Vec<usize>>,
    /// Flat-offset step of each dimension (last dimension fastest, the
    /// order [`Cursor::advance`] visits cells in).
    pitch: Vec<usize>,
}

impl Lattice {
    fn of(region: &Region) -> Self {
        // Pick a per-dimension stride so the sampled lattice stays below the
        // cap. Volumes are compared in u128 so high-dimensional regions do
        // not overflow the product.
        let mut stride = 1usize;
        while region
            .lo
            .iter()
            .zip(&region.hi)
            .map(|(l, h)| ((h - l) / stride + 1) as u128)
            .product::<u128>()
            > WeightMap::MAX_EXACT_CELLS as u128
        {
            stride += 1;
        }
        // Enumerate the lattice directly instead of iterating every cell of
        // the region and filtering — the latter is O(cells) and collapses on
        // high-dimensional spaces even when only 4096 points are weighted.
        let axes: Vec<Vec<usize>> = region
            .lo
            .iter()
            .zip(&region.hi)
            .map(|(l, h)| {
                let mut axis: Vec<usize> = (*l..=*h).step_by(stride).collect();
                if *axis.last().expect("non-empty axis") != *h {
                    axis.push(*h);
                }
                axis
            })
            .collect();
        let mut pitch = vec![1usize; axes.len()];
        for d in (1..axes.len()).rev() {
            pitch[d - 1] = pitch[d] * axes[d].len();
        }
        Self { axes, pitch }
    }

    fn cells(&self) -> usize {
        self.axes.iter().map(Vec::len).product()
    }

    /// Central finite-difference slopes of both corner plans along `dim` at
    /// the cursor's cell, clamped to the region's bounds (one-sided
    /// differences at the edges).
    fn slopes<F>(
        &self,
        table: &[[f64; 2]],
        cursor: &mut Cursor,
        dim: usize,
        costs: &mut F,
    ) -> Result<[f64; 2]>
    where
        F: FnMut(&GridPoint) -> Result<[f64; 2]>,
    {
        let axis = &self.axes[dim];
        let (lo_idx, hi_idx) = (axis[0], axis[axis.len() - 1]);
        if hi_idx == lo_idx {
            return Ok([0.0; 2]);
        }
        let idx = cursor.point.indices[dim];
        let below = idx.max(lo_idx + 1) - 1;
        let above = (idx + 1).min(hi_idx);
        let [below_lo, below_hi] = self.costs_at(table, cursor, dim, below, costs)?;
        let [above_lo, above_hi] = self.costs_at(table, cursor, dim, above, costs)?;
        let run = (above - below) as f64;
        Ok([(above_lo - below_lo) / run, (above_hi - below_hi) / run])
    }

    /// Both plans' costs at the cursor's cell moved to index `target` along
    /// `dim`: read from `table` when that point is on the lattice, evaluated
    /// through `costs` otherwise.
    fn costs_at<F>(
        &self,
        table: &[[f64; 2]],
        cursor: &mut Cursor,
        dim: usize,
        target: usize,
        costs: &mut F,
    ) -> Result<[f64; 2]>
    where
        F: FnMut(&GridPoint) -> Result<[f64; 2]>,
    {
        let axis = &self.axes[dim];
        let pos = cursor.odometer[dim];
        let offset = if axis[pos] == target {
            Some(cursor.offset)
        } else if pos > 0 && axis[pos - 1] == target {
            Some(cursor.offset - self.pitch[dim])
        } else if axis.get(pos + 1) == Some(&target) {
            Some(cursor.offset + self.pitch[dim])
        } else {
            None
        };
        if let Some(offset) = offset {
            return Ok(table[offset]);
        }
        let idx = cursor.point.indices[dim];
        cursor.point.indices[dim] = target;
        let out = costs(&cursor.point);
        cursor.point.indices[dim] = idx;
        out
    }
}

/// A walk over a [`Lattice`] in flat-offset order: the per-dimension axis
/// positions, the flat offset they name and the grid point at it.
struct Cursor {
    odometer: Vec<usize>,
    offset: usize,
    point: GridPoint,
}

impl Cursor {
    fn new(region: &Region) -> Self {
        Self {
            odometer: vec![0; region.lo.len()],
            offset: 0,
            point: region.pnt_lo(),
        }
    }

    /// Step to the next cell (last dimension fastest); `false` once every
    /// cell has been visited.
    fn advance(&mut self, lattice: &Lattice) -> bool {
        for d in (0..self.odometer.len()).rev() {
            self.odometer[d] += 1;
            if self.odometer[d] < lattice.axes[d].len() {
                self.point.indices[d] = lattice.axes[d][self.odometer[d]];
                self.offset += 1;
                return true;
            }
            self.odometer[d] = 0;
            self.point.indices[d] = lattice.axes[d][0];
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rld_common::{
        OperatorId, RldError, StatKey, StatisticEstimate, StatsSnapshot, UncertaintyLevel,
    };

    /// The closure-per-neighbour weight assignment `WeightMap::assign`
    /// replaced: every finite difference evaluates both corner plans at both
    /// neighbours. Kept as the ground truth the tabulated version must
    /// reproduce bit for bit.
    mod reference {
        use super::super::{DistanceMetric, WeightMap};
        use crate::region::Region;
        use crate::space::{GridPoint, ParameterSpace};
        use std::collections::BTreeMap;

        pub fn assign<FLo, FHi>(
            space: &ParameterSpace,
            region: &Region,
            cost_lo_plan: FLo,
            cost_hi_plan: FHi,
            metric: DistanceMetric,
        ) -> WeightMap
        where
            FLo: Fn(&GridPoint) -> f64,
            FHi: Fn(&GridPoint) -> f64,
        {
            let mut stride = 1usize;
            while region
                .lo
                .iter()
                .zip(&region.hi)
                .map(|(l, h)| ((h - l) / stride + 1) as u128)
                .product::<u128>()
                > WeightMap::MAX_EXACT_CELLS as u128
            {
                stride += 1;
            }
            let lattice: Vec<Vec<usize>> = region
                .lo
                .iter()
                .zip(&region.hi)
                .map(|(l, h)| {
                    let mut axis: Vec<usize> = (*l..=*h).step_by(stride).collect();
                    if *axis.last().expect("non-empty axis") != *h {
                        axis.push(*h);
                    }
                    axis
                })
                .collect();
            let mut weights = BTreeMap::new();
            let pnt_lo = region.pnt_lo();
            let mut odometer = vec![0usize; lattice.len()];
            loop {
                let cell = GridPoint::new(
                    odometer
                        .iter()
                        .zip(&lattice)
                        .map(|(i, axis)| axis[*i])
                        .collect(),
                );
                let mut total = 0.0;
                for dim in 0..space.num_dims() {
                    let slope_lo = dimension_slope(region, &cell, dim, &cost_lo_plan);
                    let slope_hi = dimension_slope(region, &cell, dim, &cost_hi_plan);
                    let slope = slope_lo.min(slope_hi).abs();
                    let dist = (cell.indices[dim].abs_diff(pnt_lo.indices[dim]) as f64).max(1.0);
                    total += slope / dist;
                }
                let overall = metric.grid_distance(&cell, &pnt_lo) + 1.0;
                weights.insert(cell, total / overall);
                let mut advanced = false;
                for d in (0..odometer.len()).rev() {
                    odometer[d] += 1;
                    if odometer[d] < lattice[d].len() {
                        advanced = true;
                        break;
                    }
                    odometer[d] = 0;
                }
                if !advanced {
                    break;
                }
            }
            WeightMap { weights }
        }

        fn dimension_slope<F>(region: &Region, cell: &GridPoint, dim: usize, cost: &F) -> f64
        where
            F: Fn(&GridPoint) -> f64,
        {
            let lo_idx = region.lo[dim];
            let hi_idx = region.hi[dim];
            if hi_idx == lo_idx {
                return 0.0;
            }
            let below = cell.indices[dim].max(lo_idx + 1) - 1;
            let above = (cell.indices[dim] + 1).min(hi_idx);
            if above == below {
                return 0.0;
            }
            let mut p_below = cell.clone();
            p_below.indices[dim] = below;
            let mut p_above = cell.clone();
            p_above.indices[dim] = above;
            (cost(&p_above) - cost(&p_below)) / (above - below) as f64
        }
    }

    fn space_nd(dims: usize, steps: usize) -> ParameterSpace {
        let estimates: Vec<StatisticEstimate> = (0..dims)
            .map(|d| {
                StatisticEstimate::new(
                    StatKey::Selectivity(OperatorId::new(d)),
                    0.5,
                    UncertaintyLevel::new(4),
                )
            })
            .collect();
        ParameterSpace::from_estimates(&estimates, StatsSnapshot::new(), steps).unwrap()
    }

    fn space_2d(steps: usize) -> ParameterSpace {
        space_nd(2, steps)
    }

    /// A quadratic cost surface whose slope grows along both axes.
    fn quadratic_cost(p: &GridPoint) -> f64 {
        let x = p.indices[0] as f64;
        let y = p.indices[1] as f64;
        x * x + y * y + x * y
    }

    /// Weigh `region` with the costs `lo` and `hi` of the two corner plans.
    fn assign_with(
        space: &ParameterSpace,
        region: &Region,
        lo: impl Fn(&GridPoint) -> f64,
        hi: impl Fn(&GridPoint) -> f64,
    ) -> WeightMap {
        WeightMap::assign(
            space,
            region,
            |g| Ok([lo(g), hi(g)]),
            DistanceMetric::default(),
        )
        .unwrap()
    }

    /// splitmix64 step, so generated regions and surfaces derive from one seed.
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A smooth, convex cost surface with per-dimension coefficients.
    fn smooth(p: &GridPoint) -> f64 {
        p.indices
            .iter()
            .enumerate()
            .map(|(d, x)| (d + 1) as f64 * (*x as f64).powi(2) + *x as f64 / 3.0)
            .sum()
    }

    /// A seeded random field with plateaus, so weight ties occur and the
    /// maximum-weight tie-break is exercised.
    fn rough(seed: u64, p: &GridPoint) -> f64 {
        let h = p.indices.iter().fold(seed, |h, x| mix(h ^ *x as u64));
        (h % 16) as f64 * 0.75 + p.indices.iter().sum::<usize>() as f64
    }

    /// Assert the tabulated `assign` reproduces the reference bit for bit on
    /// `region`, and that an exactly weighted region costs one `costs` call
    /// per cell. Returns whether the region was sub-sampled.
    fn check_equivalence(region: &Region, seed: u64) -> bool {
        let steps = region.hi.iter().max().unwrap() + 1;
        let space = space_nd(region.dims(), steps.max(2));
        let rough_at = |p: &GridPoint| rough(seed, p);
        for metric in [DistanceMetric::Manhattan, DistanceMetric::Euclidean] {
            let expected = reference::assign(&space, region, smooth, rough_at, metric);
            let mut calls = 0usize;
            let got = WeightMap::assign(
                &space,
                region,
                |g| {
                    calls += 1;
                    Ok([smooth(g), rough_at(g)])
                },
                metric,
            )
            .unwrap();
            assert_eq!(got.len(), expected.len(), "{region}");
            for ((pg, wg), (pe, we)) in got.weights.iter().zip(&expected.weights) {
                assert_eq!(pg, pe, "{region}");
                assert_eq!(wg.to_bits(), we.to_bits(), "{region} at {pg}");
            }
            assert_eq!(
                got.max_weight_interior_point(region),
                expected.max_weight_interior_point(region),
                "{region}"
            );
            if region.cell_count() <= WeightMap::MAX_EXACT_CELLS {
                assert_eq!(calls, region.cell_count(), "{region}");
            } else {
                assert!(calls >= got.len(), "{region}");
            }
        }
        region.cell_count() > WeightMap::MAX_EXACT_CELLS
    }

    /// A region of `dims` dimensions whose axis widths (cells per axis) are
    /// drawn from {1, 2, 3–9, 10–80}: small enough to be weighted exactly at
    /// low dimension, large enough to need the sub-sampled lattice at high.
    fn random_region(dims: usize, seed: u64) -> Region {
        let mut h = seed;
        let mut lo = Vec::with_capacity(dims);
        let mut hi = Vec::with_capacity(dims);
        for _ in 0..dims {
            h = mix(h);
            let width = match h % 4 {
                0 => 1,
                1 => 2,
                2 => 3 + (h >> 8) as usize % 7,
                _ => 10 + (h >> 8) as usize % 71,
            };
            let start = (h >> 32) as usize % 5;
            lo.push(start);
            hi.push(start + width - 1);
        }
        Region::new(lo, hi)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The tabulated assignment is bit-identical to the
        /// closure-per-neighbour reference on random 1–5-dimensional regions.
        #[test]
        fn tabulated_assign_matches_reference(dims in 1usize..6, seed in 0u64..u64::MAX) {
            check_equivalence(&random_region(dims, seed), seed);
        }
    }

    #[test]
    fn equivalence_covers_exact_and_subsampled_lattices() {
        // Widths 1 and 2 next to long axes, on both sides of the cap; the
        // last two sub-sample with stride 2 and stride > 2.
        let regions = [
            Region::new(vec![0], vec![0]),
            Region::new(vec![3], vec![4]),
            Region::new(vec![0, 2, 1], vec![0, 3, 40]),
            Region::new(vec![1, 0, 0, 0, 0], vec![2, 0, 6, 6, 6]),
            Region::new(vec![0, 0], vec![99, 99]),
            Region::new(vec![0, 4, 0, 0, 1], vec![1, 4, 30, 30, 30]),
            Region::new(vec![0], vec![5000]),
        ];
        let subsampled: Vec<bool> = regions
            .iter()
            .enumerate()
            .map(|(i, r)| check_equivalence(r, i as u64))
            .collect();
        assert_eq!(
            subsampled,
            [false, false, false, false, true, true, true],
            "the fixed regions must straddle MAX_EXACT_CELLS"
        );
    }

    #[test]
    fn cost_errors_propagate() {
        let s = space_2d(9);
        let r = Region::full(&s);
        let bad = GridPoint::new(vec![4, 5]);
        let out = WeightMap::assign(
            &s,
            &r,
            |g| {
                if *g == bad {
                    Err(RldError::Runtime("cost model failure".into()))
                } else {
                    Ok([quadratic_cost(g); 2])
                }
            },
            DistanceMetric::default(),
        );
        assert!(matches!(out, Err(RldError::Runtime(_))));
    }

    #[test]
    fn distance_metrics() {
        let a = GridPoint::new(vec![0, 0]);
        let b = GridPoint::new(vec![3, 4]);
        assert_eq!(DistanceMetric::Manhattan.grid_distance(&a, &b), 7.0);
        assert!((DistanceMetric::Euclidean.grid_distance(&a, &b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn assign_covers_whole_region() {
        let s = space_2d(9);
        let r = Region::full(&s);
        let w = assign_with(&s, &r, quadratic_cost, quadratic_cost);
        assert_eq!(w.len(), r.cell_count());
        assert!(!w.is_empty());
        // Every cell got a finite non-negative weight.
        for c in r.cells() {
            let v = w.get(&c);
            assert!(v.is_finite() && v >= 0.0);
        }
    }

    #[test]
    fn max_weight_point_prefers_high_slope_near_lo() {
        let s = space_2d(9);
        let r = Region::full(&s);
        let w = assign_with(&s, &r, quadratic_cost, quadratic_cost);
        let best = w.max_weight_point().unwrap();
        assert!(r.contains(&best));
        // The weight at the best point must be at least the weight elsewhere.
        for c in r.cells() {
            assert!(w.get(&best) >= w.get(&c));
        }
    }

    #[test]
    fn interior_point_avoids_hi_corner() {
        let s = space_2d(5);
        let r = Region::full(&s);
        let w = assign_with(&s, &r, quadratic_cost, quadratic_cost);
        let p = w.max_weight_interior_point(&r).unwrap();
        assert_ne!(p.indices, r.hi, "interior selection must not pick pntHi");
        assert!(r.contains(&p));
    }

    #[test]
    fn single_cell_region_falls_back() {
        let s = space_2d(5);
        let r = Region::new(vec![2, 2], vec![2, 2]);
        let w = assign_with(&s, &r, quadratic_cost, quadratic_cost);
        assert_eq!(w.len(), 1);
        assert_eq!(
            w.max_weight_interior_point(&r).unwrap(),
            GridPoint::new(vec![2, 2])
        );
    }

    #[test]
    fn min_of_two_plan_slopes_is_used() {
        let s = space_2d(5);
        let r = Region::full(&s);
        // One plan is completely flat: the min() should zero out all weights.
        let w = assign_with(&s, &r, |_| 1.0, quadratic_cost);
        for c in r.cells() {
            assert_eq!(w.get(&c), 0.0);
        }
    }

    #[test]
    fn merge_extends_map() {
        let s = space_2d(5);
        let left = Region::new(vec![0, 0], vec![4, 1]);
        let right = Region::new(vec![0, 2], vec![4, 4]);
        let mut w = assign_with(&s, &left, quadratic_cost, quadratic_cost);
        let w2 = assign_with(&s, &right, quadratic_cost, quadratic_cost);
        let before = w.len();
        w.merge(w2);
        assert_eq!(w.len(), before + right.cell_count());
    }

    #[test]
    fn unknown_point_has_zero_weight() {
        let w = WeightMap::default();
        assert_eq!(w.get(&GridPoint::new(vec![0, 0])), 0.0);
        assert!(w.max_weight_point().is_none());
    }
}
