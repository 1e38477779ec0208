//! The deterministic fault plan: a seedable, *position-keyed* map from
//! physical cell coordinates to hardware faults.
//!
//! Every fault decision is a pure function of `(seed, row, col, epoch)`
//! through a splitmix64-style keyed hash — never of iteration order,
//! thread count, or call sequence. That is what lets the PR-1
//! determinism contract extend to fault injection: two runs that touch
//! the same cells at the same logical epochs observe byte-identical
//! faults regardless of how the work was chunked over workers.
//!
//! Three fault populations compose (§VIII-H, and MEMHD's worn-row
//! motivation):
//!
//! * **stuck-at cells** — a cell permanently reads 0 or 1, drawn
//!   per-cell at [`FaultPlanSpec::stuck_rate`];
//! * **dead rows** — an entire word/match line is gone (driver or
//!   select failure), drawn per-row at [`FaultPlanSpec::dead_row_rate`];
//!   a dead row reads all-zeros;
//! * **variation flips** — transient per-read bit flips at
//!   [`FaultPlanSpec::flip_rate`], keyed by the read *epoch* so a
//!   re-read at a different epoch redraws them (the property
//!   majority-vote healing exploits).

use std::collections::{BTreeMap, BTreeSet};

/// Salt lanes separating the fault populations in the keyed hash.
const SALT_STUCK: u64 = 0x5EED_57AC_0000_0001;
const SALT_STUCK_VALUE: u64 = 0x5EED_57AC_0000_0002;
const SALT_DEAD: u64 = 0x5EED_DEAD_0000_0003;
pub(crate) const SALT_FLIP: u64 = 0x5EED_F11F_0000_0004;

/// splitmix64 finalizer: a high-quality 64-bit mixing function.
#[inline]
pub(crate) fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Keyed position hash: fold the coordinates through splitmix lanes.
#[inline]
fn mix(seed: u64, salt: u64, a: u64, b: u64, c: u64) -> u64 {
    splitmix(
        splitmix(splitmix(splitmix(seed ^ salt).wrapping_add(a)).wrapping_add(b)).wrapping_add(c),
    )
}

/// Map a hash to a uniform f64 in `[0, 1)` (53 mantissa bits — exact).
#[inline]
fn unit(h: u64) -> f64 {
    // Cast is exact: after `>> 11` only 53 bits remain, all representable.
    (h >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
}

/// Geometry and fault rates of one [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlanSpec {
    /// RNG seed: all fault draws are keyed off this (and only this).
    pub seed: u64,
    /// Physical rows covered by the plan.
    pub rows: usize,
    /// Physical columns (bits per row) covered by the plan.
    pub cols: usize,
    /// Per-cell probability of a permanent stuck-at fault (split
    /// evenly between stuck-at-0 and stuck-at-1).
    pub stuck_rate: f64,
    /// Per-row probability that the whole row is dead (reads zeros).
    pub dead_row_rate: f64,
    /// Per-read, per-cell probability of a transient variation flip.
    pub flip_rate: f64,
}

impl FaultPlanSpec {
    /// A fault-free plan over `rows × cols` (useful as a baseline and
    /// as a builder starting point).
    #[must_use]
    pub fn clean(rows: usize, cols: usize) -> Self {
        Self {
            seed: 0,
            rows,
            cols,
            stuck_rate: 0.0,
            dead_row_rate: 0.0,
            flip_rate: 0.0,
        }
    }

    fn validate(&self) -> Result<(), FaultError> {
        if self.rows == 0 || self.cols == 0 {
            return Err(FaultError::InvalidSpec {
                name: "rows/cols",
                reason: "geometry must be non-zero",
            });
        }
        for (name, rate) in [
            ("stuck_rate", self.stuck_rate),
            ("dead_row_rate", self.dead_row_rate),
            ("flip_rate", self.flip_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(FaultError::InvalidSpec {
                    name,
                    reason: "rates must be in [0, 1]",
                });
            }
        }
        Ok(())
    }
}

/// Everything that can go wrong building a fault plan or forcing a fault into it.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultError {
    /// A [`FaultPlanSpec`] parameter is out of range.
    InvalidSpec {
        /// Which parameter.
        name: &'static str,
        /// Why it was rejected.
        reason: &'static str,
    },
    /// A coordinate fell outside the plan's geometry.
    OutOfRange {
        /// What overran (`"row"` / `"col"`).
        what: &'static str,
        /// The offending index.
        index: usize,
        /// The exclusive bound.
        bound: usize,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidSpec { name, reason } => {
                write!(f, "invalid fault plan spec `{name}`: {reason}")
            }
            Self::OutOfRange { what, index, bound } => {
                write!(f, "{what} {index} out of range (bound {bound})")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// A deterministic, seedable fault plan over a `rows × cols` cell array.
///
/// The plan is *virtual*: it stores only the spec (plus any forced
/// faults) and answers point queries by
/// keyed hashing, so a plan over a full 1k×1k block costs a few dozen
/// bytes. See the [crate docs](crate) for the determinism argument.
///
/// ```rust
/// use dual_fault::{FaultPlan, FaultPlanSpec};
///
/// let mut spec = FaultPlanSpec::clean(64, 128);
/// spec.seed = 42;
/// spec.stuck_rate = 0.01;
/// let plan = FaultPlan::new(spec).unwrap();
/// // Point queries are pure functions of (seed, row, col):
/// assert_eq!(plan.stuck_at(3, 7), plan.stuck_at(3, 7));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    spec: FaultPlanSpec,
    /// Explicitly forced stuck cells (tests, targeted experiments).
    forced_stuck: BTreeMap<(usize, usize), bool>,
    /// Explicitly forced dead rows.
    forced_dead: BTreeSet<usize>,
}

impl FaultPlan {
    /// Build a plan from a spec.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidSpec`] when the geometry is empty
    /// or a rate is outside `[0, 1]`.
    pub fn new(spec: FaultPlanSpec) -> Result<Self, FaultError> {
        spec.validate()?;
        Ok(Self {
            spec,
            forced_stuck: BTreeMap::new(),
            forced_dead: BTreeSet::new(),
        })
    }

    /// A fault-free plan (baseline runs).
    ///
    /// # Panics
    ///
    /// Panics if the geometry is zero (`FaultPlanSpec::clean` with
    /// non-zero dimensions never fails validation).
    #[must_use]
    pub fn fault_free(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "geometry must be non-zero");
        Self {
            spec: FaultPlanSpec::clean(rows, cols),
            forced_stuck: BTreeMap::new(),
            forced_dead: BTreeSet::new(),
        }
    }

    /// The plan's spec.
    #[must_use]
    pub fn spec(&self) -> &FaultPlanSpec {
        &self.spec
    }

    /// Rows covered.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.spec.rows
    }

    /// Columns covered.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.spec.cols
    }

    /// Force a stuck-at fault at one cell (targeted experiments).
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::OutOfRange`] when the cell is outside the
    /// plan's geometry.
    pub fn with_stuck_cell(
        mut self,
        row: usize,
        col: usize,
        bit: bool,
    ) -> Result<Self, FaultError> {
        self.check(row, col)?;
        self.forced_stuck.insert((row, col), bit);
        Ok(self)
    }

    /// Force a dead row.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::OutOfRange`] when the row is outside the
    /// plan's geometry.
    pub fn with_dead_row(mut self, row: usize) -> Result<Self, FaultError> {
        if row >= self.spec.rows {
            return Err(FaultError::OutOfRange {
                what: "row",
                index: row,
                bound: self.spec.rows,
            });
        }
        self.forced_dead.insert(row);
        Ok(self)
    }

    fn check(&self, row: usize, col: usize) -> Result<(), FaultError> {
        if row >= self.spec.rows {
            return Err(FaultError::OutOfRange {
                what: "row",
                index: row,
                bound: self.spec.rows,
            });
        }
        if col >= self.spec.cols {
            return Err(FaultError::OutOfRange {
                what: "col",
                index: col,
                bound: self.spec.cols,
            });
        }
        Ok(())
    }

    /// The permanent stuck-at fault at `(row, col)`, if any.
    /// Out-of-range coordinates are fault-free by definition.
    #[must_use]
    pub fn stuck_at(&self, row: usize, col: usize) -> Option<bool> {
        if row >= self.spec.rows || col >= self.spec.cols {
            return None;
        }
        if let Some(&bit) = self.forced_stuck.get(&(row, col)) {
            return Some(bit);
        }
        if self.spec.stuck_rate <= 0.0 {
            return None;
        }
        let h = mix(self.spec.seed, SALT_STUCK, row as u64, col as u64, 0);
        if unit(h) < self.spec.stuck_rate {
            let v = mix(self.spec.seed, SALT_STUCK_VALUE, row as u64, col as u64, 0);
            Some(v & 1 == 1)
        } else {
            None
        }
    }

    /// Whether row `row` is dead (whole-row failure; reads zeros).
    #[must_use]
    pub fn is_dead_row(&self, row: usize) -> bool {
        if row >= self.spec.rows {
            return false;
        }
        if self.forced_dead.contains(&row) {
            return true;
        }
        self.spec.dead_row_rate > 0.0
            && unit(mix(self.spec.seed, SALT_DEAD, row as u64, 0, 0)) < self.spec.dead_row_rate
    }

    /// Whether a transient variation flip hits `(row, col)` at read
    /// `epoch`. Distinct epochs redraw independently — the property
    /// majority-vote re-read healing relies on.
    #[must_use]
    pub fn flips(&self, row: usize, col: usize, epoch: u64) -> bool {
        self.spec.flip_rate > 0.0
            && unit(mix(
                self.spec.seed,
                SALT_FLIP,
                row as u64,
                col as u64,
                epoch,
            )) < self.spec.flip_rate
    }

    /// The value a *read* of cell `(row, col)` observes at `epoch`,
    /// given the persistently-stored value `stored`: a dead row reads 0
    /// and a stuck cell its stuck value, then a transient variation
    /// flip may invert the sense.
    #[must_use]
    pub fn read_bit(&self, row: usize, col: usize, stored: bool, epoch: u64) -> bool {
        let persistent = !self.is_dead_row(row) && self.stuck_at(row, col).unwrap_or(stored);
        persistent ^ self.flips(row, col, epoch)
    }

    /// Number of permanently faulty cells in row `row` (stuck cells;
    /// `cols` for a dead row). O(cols) — hot paths keep a
    /// [`crate::RowMasks`] per row and read [`crate::RowMasks::fault_count`].
    #[must_use]
    pub fn row_fault_count(&self, row: usize) -> usize {
        if row >= self.spec.rows {
            return 0;
        }
        if self.is_dead_row(row) {
            return self.spec.cols;
        }
        (0..self.spec.cols)
            .filter(|&c| self.stuck_at(row, c).is_some())
            .count()
    }

    /// Census of the plan's permanent faults over its full geometry:
    /// `(stuck_cells, dead_rows)`. O(rows × cols) — bench/report use.
    #[must_use]
    pub fn census(&self) -> (u64, u64) {
        let mut stuck = 0u64;
        let mut dead = 0u64;
        for r in 0..self.spec.rows {
            if self.is_dead_row(r) {
                dead += 1;
                continue;
            }
            for c in 0..self.spec.cols {
                if self.stuck_at(r, c).is_some() {
                    stuck += 1;
                }
            }
        }
        (stuck, dead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64, stuck: f64, dead: f64, flip: f64) -> FaultPlan {
        let mut spec = FaultPlanSpec::clean(256, 256);
        spec.seed = seed;
        spec.stuck_rate = stuck;
        spec.dead_row_rate = dead;
        spec.flip_rate = flip;
        FaultPlan::new(spec).unwrap()
    }

    #[test]
    fn spec_validation_rejects_bad_rates() {
        let mut spec = FaultPlanSpec::clean(4, 4);
        spec.stuck_rate = 1.5;
        assert!(matches!(
            FaultPlan::new(spec),
            Err(FaultError::InvalidSpec {
                name: "stuck_rate",
                ..
            })
        ));
        assert!(matches!(
            FaultPlan::new(FaultPlanSpec::clean(0, 4)),
            Err(FaultError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn fault_free_plan_is_transparent() {
        let p = FaultPlan::fault_free(32, 32);
        for r in 0..32 {
            assert!(!p.is_dead_row(r));
            for c in 0..32 {
                assert_eq!(p.stuck_at(r, c), None);
                assert!(!p.flips(r, c, 7));
                assert!(p.read_bit(r, c, true, 0));
                assert!(!p.read_bit(r, c, false, 0));
            }
        }
        assert_eq!(p.census(), (0, 0));
    }

    #[test]
    fn draws_are_position_keyed_and_seed_sensitive() {
        let a = plan(1, 0.1, 0.05, 0.02);
        let b = plan(1, 0.1, 0.05, 0.02);
        let c = plan(2, 0.1, 0.05, 0.02);
        assert_eq!(a, b);
        let census_a = a.census();
        assert_eq!(census_a, b.census(), "same seed, same faults");
        assert_ne!(census_a, c.census(), "different seed, different draw");
        // Point queries never depend on query order.
        let fwd: Vec<_> = (0..64).map(|i| a.stuck_at(i, i)).collect();
        let rev: Vec<_> = (0..64).rev().map(|i| a.stuck_at(i, i)).collect();
        assert_eq!(fwd, rev.into_iter().rev().collect::<Vec<_>>());
    }

    #[test]
    fn rates_are_hit_approximately() {
        let p = plan(99, 0.05, 0.0, 0.0);
        let (stuck, dead) = p.census();
        let cells = 256.0 * 256.0;
        let frac = stuck as f64 / cells;
        assert!(dead == 0);
        assert!((frac - 0.05).abs() < 0.01, "stuck fraction {frac}");
        // Stuck values split roughly evenly between 0 and 1.
        let ones = (0..256)
            .flat_map(|r| (0..256).map(move |c| (r, c)))
            .filter(|&(r, c)| p.stuck_at(r, c) == Some(true))
            .count() as f64;
        assert!((ones / stuck as f64 - 0.5).abs() < 0.05);
    }

    #[test]
    fn forced_faults_override_the_draw() {
        let p = FaultPlan::fault_free(8, 8)
            .with_stuck_cell(1, 2, true)
            .unwrap()
            .with_dead_row(5)
            .unwrap();
        assert_eq!(p.stuck_at(1, 2), Some(true));
        assert!(p.is_dead_row(5));
        assert_eq!(p.stuck_at(0, 0), None);
        assert!(!p.read_bit(5, 3, true, 0), "dead rows read zeros");
        assert!(p.read_bit(1, 2, false, 0), "stuck-at-1 reads 1");
        assert!(
            p.read_bit(0, 0, true, 0),
            "healthy cells read what they hold"
        );
        assert!(p.clone().with_dead_row(9).is_err());
        assert!(p.with_stuck_cell(0, 99, false).is_err());
    }

    #[test]
    fn flips_redraw_per_epoch() {
        let p = plan(3, 0.0, 0.0, 0.5);
        let per_epoch: Vec<bool> = (0..64).map(|e| p.flips(10, 10, e)).collect();
        assert!(per_epoch.iter().any(|&f| f));
        assert!(per_epoch.iter().any(|&f| !f));
        // Same epoch, same draw.
        assert_eq!(p.flips(10, 10, 5), p.flips(10, 10, 5));
    }
}
