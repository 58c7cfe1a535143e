//! Uniform-grid spatial index over floor-plan points.
//!
//! Enterprise-scale deployments (tens of APs, hundreds of clients) turn the
//! pairwise carrier-sense / interference sweeps of the simulator into the
//! bottleneck: every antenna asking "who can I hear?" against every active
//! transmitter is O(n²) per round.  Radio interaction is short-range, though
//! — beyond the environment's interaction range (see
//! `Environment::interaction_range_m`) a transmitter is far below the
//! receiver sensitivity floor — so the index buckets points into a uniform
//! grid of cells and answers *neighbourhood* queries by scanning only the
//! cells overlapping the query disc: O(k) per query for bounded density.
//!
//! Determinism contract: [`SpatialIndex::neighbors_within`] returns ids in
//! **ascending insertion order**, and membership is decided by the exact
//! predicate `distance(p, q) <= radius`.  A caller that folds over the
//! returned ids therefore reproduces a brute-force scan over the insertion
//! list — same subset, same order, bit-identical floating-point sums — which
//! is what lets the simulator swap scan implementations without perturbing a
//! single figure (see `proptest_scale.rs` for the property tests).

use midas_channel::geometry::{Point, Rect};

/// A uniform-grid spatial index over 2-D points.
///
/// Points may fall outside the nominal bounds (generators clamp antennas to
/// the region, but callers are not required to): they are binned into the
/// nearest edge cell, and queries clamp their cell window the same way, so
/// no point is ever missed.
#[derive(Debug, Clone)]
pub struct SpatialIndex {
    bounds: Rect,
    cell_m: f64,
    cols: usize,
    rows: usize,
    /// `cells[row * cols + col]` holds the ids of the points binned there.
    cells: Vec<Vec<u32>>,
    points: Vec<Point>,
    /// Indices of the currently occupied cells, so [`SpatialIndex::clear`]
    /// touches O(occupied) cells instead of sweeping the whole grid.
    touched: Vec<u32>,
}

impl SpatialIndex {
    /// Creates an empty index over `bounds` with the given cell size.
    ///
    /// The natural cell size is the dominant query radius (the carrier-sense
    /// / interaction range): a radius-`r` query then touches at most a 3×3
    /// cell window.  The cell size is clamped below so a tiny value cannot
    /// allocate an unbounded grid, and a non-finite cell size (an infinite
    /// interaction range, i.e. "no truncation") is sized from the bounding
    /// box instead: `cols`/`rows` would otherwise collapse to a degenerate
    /// one-cell grid whose query windows divide ∞/∞ into NaN cell
    /// coordinates — every lookup then funnels through cell (0, 0) and the
    /// index silently degrades to a linear scan.
    pub fn new(bounds: Rect, cell_m: f64) -> Self {
        let cell_m = if cell_m.is_finite() {
            cell_m.max(1.0)
        } else {
            bounds.width().max(bounds.height()).max(1.0)
        };
        let cols = (bounds.width() / cell_m).ceil() as usize + 1;
        let rows = (bounds.height() / cell_m).ceil() as usize + 1;
        SpatialIndex {
            bounds,
            cell_m,
            cols,
            rows,
            cells: vec![Vec::new(); cols * rows],
            points: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Builds an index over `bounds` containing all of `points`.
    pub fn from_points(bounds: Rect, cell_m: f64, points: &[Point]) -> Self {
        let mut index = SpatialIndex::new(bounds, cell_m);
        for &p in points {
            index.insert(p);
        }
        index
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The indexed points, in insertion (id) order.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Cell coordinate along one axis, clamped into the grid.
    fn axis_cell(&self, coord: f64, min: f64, count: usize) -> usize {
        let raw = (coord - min) / self.cell_m;
        raw.floor().clamp(0.0, (count - 1) as f64) as usize
    }

    fn cell_of(&self, p: &Point) -> (usize, usize) {
        (
            self.axis_cell(p.x, self.bounds.min.x, self.cols),
            self.axis_cell(p.y, self.bounds.min.y, self.rows),
        )
    }

    /// Inserts a point and returns its id (ids are dense, in insertion order).
    pub fn insert(&mut self, p: Point) -> usize {
        let id = self.points.len();
        let (col, row) = self.cell_of(&p);
        let cell_idx = row * self.cols + col;
        let cell = &mut self.cells[cell_idx];
        if cell.is_empty() {
            self.touched.push(cell_idx as u32);
        }
        cell.push(id as u32);
        self.points.push(p);
        id
    }

    /// Empties the index while keeping every allocation (grid, per-cell id
    /// lists, point list).  Only the occupied cells are visited, so a
    /// clear-and-refill round costs O(points), not O(grid cells) — this is
    /// what lets the simulator keep one persistent index per purpose instead
    /// of rebuilding (and reallocating) it every round.
    pub fn clear(&mut self) {
        for &c in &self.touched {
            self.cells[c as usize].clear();
        }
        self.touched.clear();
        self.points.clear();
    }

    /// Bytes of heap the index currently retains (capacities, not lengths).
    /// Stable across clear/refill cycles once warm, which the steady-state
    /// allocation tests assert.
    pub fn heap_footprint_bytes(&self) -> usize {
        self.cells.capacity() * std::mem::size_of::<Vec<u32>>()
            + self
                .cells
                .iter()
                .map(|c| c.capacity() * std::mem::size_of::<u32>())
                .sum::<usize>()
            + self.points.capacity() * std::mem::size_of::<Point>()
            + self.touched.capacity() * std::mem::size_of::<u32>()
    }

    /// Ids of every indexed point within `radius` of `p` (inclusive), in
    /// ascending id order.
    ///
    /// An infinite radius degrades gracefully to "every point" — the cell
    /// window clamps to the whole grid — so callers can use one code path
    /// whether or not a finite interaction range is configured.
    pub fn neighbors_within(&self, p: &Point, radius: f64) -> Vec<usize> {
        let mut ids = Vec::new();
        self.neighbors_within_into(p, radius, &mut ids);
        ids
    }

    /// Allocation-free variant of [`SpatialIndex::neighbors_within`]: clears
    /// `out` and fills it with the matching ids in ascending id order.  The
    /// round loop reuses one scratch buffer across every query of a round.
    pub fn neighbors_within_into(&self, p: &Point, radius: f64, out: &mut Vec<usize>) {
        debug_assert!(radius >= 0.0, "negative query radius");
        out.clear();
        let col_lo = self.axis_cell(p.x - radius, self.bounds.min.x, self.cols);
        let col_hi = self.axis_cell(p.x + radius, self.bounds.min.x, self.cols);
        let row_lo = self.axis_cell(p.y - radius, self.bounds.min.y, self.rows);
        let row_hi = self.axis_cell(p.y + radius, self.bounds.min.y, self.rows);
        for row in row_lo..=row_hi {
            for col in col_lo..=col_hi {
                for &id in &self.cells[row * self.cols + col] {
                    if self.points[id as usize].distance(p) <= radius {
                        out.push(id as usize);
                    }
                }
            }
        }
        out.sort_unstable();
    }

    /// Reference implementation of [`SpatialIndex::neighbors_within`]: a
    /// linear scan over the insertion list.  Used by the equivalence property
    /// tests and usable by callers that want the brute-force path explicitly.
    pub fn brute_force_within(points: &[Point], p: &Point, radius: f64) -> Vec<usize> {
        points
            .iter()
            .enumerate()
            .filter(|(_, q)| q.distance(p) <= radius)
            .map(|(id, _)| id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_channel::SimRng;

    fn random_points(n: usize, region: &Rect, rng: &mut SimRng) -> Vec<Point> {
        (0..n)
            .map(|_| {
                Point::new(
                    rng.uniform_range(region.min.x - 5.0, region.max.x + 5.0),
                    rng.uniform_range(region.min.y - 5.0, region.max.y + 5.0),
                )
            })
            .collect()
    }

    #[test]
    fn neighborhood_matches_brute_force_on_random_points() {
        let region = Rect::new(Point::new(0.0, 0.0), 80.0, 60.0);
        let mut rng = SimRng::new(1);
        for trial in 0..20 {
            let pts = random_points(64, &region, &mut rng);
            let index = SpatialIndex::from_points(region, 12.0, &pts);
            for _ in 0..10 {
                let q = Point::new(
                    rng.uniform_range(-10.0, 90.0),
                    rng.uniform_range(-10.0, 70.0),
                );
                let r = rng.uniform_range(0.0, 50.0);
                assert_eq!(
                    index.neighbors_within(&q, r),
                    SpatialIndex::brute_force_within(&pts, &q, r),
                    "trial {trial}: query {q:?} radius {r}"
                );
            }
        }
    }

    #[test]
    fn infinite_radius_returns_every_point_in_insertion_order() {
        let region = Rect::new(Point::new(0.0, 0.0), 40.0, 40.0);
        let mut rng = SimRng::new(2);
        let pts = random_points(17, &region, &mut rng);
        let index = SpatialIndex::from_points(region, 8.0, &pts);
        let all = index.neighbors_within(&Point::new(20.0, 20.0), f64::INFINITY);
        assert_eq!(all, (0..17).collect::<Vec<_>>());
    }

    #[test]
    fn zero_radius_finds_exact_duplicates_only() {
        let region = Rect::new(Point::new(0.0, 0.0), 10.0, 10.0);
        let mut index = SpatialIndex::new(region, 2.0);
        let p = Point::new(3.0, 3.0);
        index.insert(p);
        index.insert(Point::new(3.5, 3.0));
        index.insert(p);
        assert_eq!(index.neighbors_within(&p, 0.0), vec![0, 2]);
    }

    #[test]
    fn points_outside_bounds_are_still_found() {
        let region = Rect::new(Point::new(0.0, 0.0), 20.0, 20.0);
        let mut index = SpatialIndex::new(region, 5.0);
        let outside = Point::new(-8.0, 27.0);
        index.insert(outside);
        let near_edge = Point::new(-6.0, 24.0);
        assert_eq!(index.neighbors_within(&near_edge, 5.0), vec![0]);
        assert!(index
            .neighbors_within(&Point::new(10.0, 10.0), 5.0)
            .is_empty());
    }

    #[test]
    fn infinite_cell_size_is_sized_from_the_bounding_box() {
        // Regression: an infinite cell size (ScanMode::Indexed with an
        // infinite interaction range) used to build a degenerate one-cell
        // grid whose query windows computed ∞/∞ = NaN cell coordinates.
        // The cell size now falls back to the bounding-box extent, so the
        // grid stays well-formed and queries keep matching brute force.
        let region = Rect::new(Point::new(0.0, 0.0), 60.0, 40.0);
        let mut rng = SimRng::new(9);
        let pts = random_points(40, &region, &mut rng);
        for cell in [f64::INFINITY, f64::NAN] {
            let index = SpatialIndex::from_points(region, cell, &pts);
            assert!(
                index.cols >= 2 && index.rows >= 2,
                "degenerate {}x{} grid for cell {cell}",
                index.cols,
                index.rows
            );
            for radius in [0.0, 10.0, f64::INFINITY] {
                let q = Point::new(30.0, 20.0);
                assert_eq!(
                    index.neighbors_within(&q, radius),
                    SpatialIndex::brute_force_within(&pts, &q, radius),
                    "cell {cell} radius {radius}"
                );
            }
        }
    }

    #[test]
    fn tiny_cell_sizes_are_clamped() {
        let region = Rect::new(Point::new(0.0, 0.0), 100.0, 100.0);
        let index = SpatialIndex::new(region, 1e-9);
        // The clamp keeps the grid at ~100x100 cells rather than 1e11 x 1e11.
        assert!(index.cols <= 102 && index.rows <= 102);
    }

    #[test]
    fn clear_then_refill_matches_a_fresh_index_without_growing() {
        let region = Rect::new(Point::new(0.0, 0.0), 80.0, 60.0);
        let mut rng = SimRng::new(7);
        let mut reused = SpatialIndex::new(region, 12.0);
        let mut footprint_after_warmup = None;
        let pts = random_points(48, &region, &mut rng);
        for trial in 0..10 {
            reused.clear();
            for &p in &pts {
                reused.insert(p);
            }
            let fresh = SpatialIndex::from_points(region, 12.0, &pts);
            let q = Point::new(rng.uniform_range(0.0, 80.0), rng.uniform_range(0.0, 60.0));
            let r = rng.uniform_range(0.0, 40.0);
            let mut into = Vec::new();
            reused.neighbors_within_into(&q, r, &mut into);
            assert_eq!(into, fresh.neighbors_within(&q, r), "trial {trial}");
            // Footprint must stabilise after the first fill: same point
            // count, same cells — clearing retains every allocation.
            if trial == 1 {
                footprint_after_warmup = Some(reused.heap_footprint_bytes());
            } else if trial > 1 {
                assert_eq!(
                    reused.heap_footprint_bytes(),
                    footprint_after_warmup.unwrap(),
                    "trial {trial}: index grew after warm-up"
                );
            }
        }
    }

    #[test]
    fn incremental_insert_ids_are_dense_and_ordered() {
        let region = Rect::new(Point::new(0.0, 0.0), 30.0, 30.0);
        let mut index = SpatialIndex::new(region, 10.0);
        for i in 0..5 {
            let id = index.insert(Point::new(i as f64 * 6.0, 15.0));
            assert_eq!(id, i);
        }
        assert_eq!(index.len(), 5);
        assert_eq!(
            index.neighbors_within(&Point::new(12.0, 15.0), 6.5),
            vec![1, 2, 3]
        );
    }
}
