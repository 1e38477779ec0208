//! Decayed mini-batch k-means over packed hypervectors.
//!
//! The streaming counterpart of `dual_cluster::HammingKMeans`: instead
//! of sweeping a frozen dataset to convergence, the model folds one
//! micro-batch at a time into per-centroid
//! [`CentroidAccumulator`]s, fading history between batches with an
//! exponential `decay`, and re-binarizes each touched center by
//! majority vote — the identical vote (and tie-break) the batch solver
//! uses, because both call the same accumulator.
//!
//! Following MEMHD's multi-centroid memory, each of the `k` clusters
//! may own several **sub-centroids**; assignment searches the flat
//! sub-centroid set with [`search::assign_batch`] and reports both
//! the winning sub-centroid and its cluster. Sub-centroid slot `s` belongs
//! to cluster `s % k`, so seeding slots in order round-robins the
//! clusters: every cluster receives its first center before any
//! cluster receives its second.
//!
//! # Batch equivalence
//!
//! With `decay == 1.0`, one sub-centroid per cluster, and pre-seeded
//! centers, a single [`OnlineKMeans::observe_batch`] from a fresh model
//! computes exactly one `dual_cluster::hamming_lloyd_step`: same
//! labels, same majority votes, bit for bit (integer counts are exact
//! in `f64`). The property suite pins this.
//!
//! # Lazy decay
//!
//! A batch hands points to few of the slots, yet every slot decays.
//! A slot that gets no points keeps its counts and owes the decay
//! instead, as long as an exact vote certificate proves that its vote
//! cannot change; a slot that gets points, or whose certificate fails,
//! first pays every decay it owes, so its counts are bit for bit the
//! eagerly decayed ones. The counts are never read while they owe:
//! [`OnlineKMeans::accumulators`] settles on read and the engine
//! settles in place before it captures a checkpoint.

use std::borrow::Cow;

use crate::error::StreamError;
use dual_cluster::CentroidAccumulator;
use dual_hdc::{search, Hypervector};

/// What one observed micro-batch did to the model.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BatchUpdate {
    /// Per input point, in order: `(sub_centroid, hamming_distance)`.
    pub assignments: Vec<(usize, usize)>,
    /// Sub-centroid slots seeded from this batch's points.
    pub seeded: usize,
    /// Non-empty slots whose majority vote stands after this batch:
    /// the centers the chip rewrites, and what the engine's
    /// `charge_update` prices. A slot whose vote provably did not move
    /// counts here without a host rewrite, so this is not the number
    /// of centers the host recomputed.
    pub rebinarized: usize,
}

/// Proof that a slot's majority vote survives decays it has not yet
/// applied, taken right after the slot voted.
///
/// For a fixed `γ > 0` the rounded product `x·γ` is monotone in `x`
/// (subnormals, ±0 and ±∞ included), and doubling is exact or
/// overflows, which is monotone too. So while `lo_one`, `hi_zero` and
/// `weight` take the very multiplies the counts owe, every count that
/// voted 1 stays `≥ lo_one` and every non-NaN count that voted 0 stays
/// `≤ hi_zero` (a NaN count votes 0 for good), and the vote `2·c > w`
/// of every count is unchanged while `2·lo_one > w` and
/// `!(2·hi_zero > w)` both hold.
#[derive(Debug, Clone, Copy)]
struct Certificate {
    /// The lowest count that voted 1 (`+∞` when none did).
    lo_one: f64,
    /// The highest non-NaN count that voted 0 (`−∞` when none did).
    hi_zero: f64,
    /// The slot's weight.
    weight: f64,
}

impl Certificate {
    /// The certificate of `acc`'s current vote.
    fn of(acc: &CentroidAccumulator) -> Self {
        let weight = acc.weight();
        let (lo_one, hi_zero) = vote_bounds(acc.counts(), weight);
        Self {
            lo_one,
            hi_zero,
            weight,
        }
    }

    /// Apply one decay by `factor`: `Some(voted)` while the slot's vote
    /// provably stands, `voted` telling whether the slot still holds
    /// mass (`!(w <= 0)`, the vote `majority` casts); `None` when the
    /// slot must settle and vote again.
    fn fade(&mut self, factor: f64) -> Option<bool> {
        self.lo_one *= factor;
        self.hi_zero *= factor;
        self.weight *= factor;
        // An empty slot stays empty: `w ≤ 0` survives any positive
        // factor, whatever its bounds say.
        if self.weight <= 0.0 {
            Some(false)
        } else {
            // `hi_zero` is never NaN, and a NaN weight already fails the
            // first compare, so `<=` here is `!(2·hi_zero > w)`.
            (2.0 * self.lo_one > self.weight && 2.0 * self.hi_zero <= self.weight).then_some(true)
        }
    }
}

/// `(lowest count voting 1, highest non-NaN count voting 0)` under the
/// vote `2·c > weight`, with `+∞`/`−∞` when no count votes that way.
/// A NaN count fails both `2·c > weight` and `c > hi`, so it drops out
/// of both bounds.
///
/// Each bound is its own pass of eight independent lanes of branch-free
/// selects, so each compiles to packed compares, blends and min/max: a
/// branchy scan costs about as much as the decays it lets a slot skip.
/// One pass updating both bounds reads the counts once, but LLVM
/// shuffled its sixteen lanes between scalar registers and it ran
/// four times slower.
fn vote_bounds(counts: &[f64], weight: f64) -> (f64, f64) {
    const LANES: usize = 8;
    let (chunks, tail) = counts.as_chunks::<LANES>();
    let mut lo = [f64::INFINITY; LANES];
    for chunk in chunks {
        for (l, &c) in lo.iter_mut().zip(chunk) {
            let one = if 2.0 * c > weight { c } else { f64::INFINITY };
            *l = if one < *l { one } else { *l };
        }
    }
    let mut hi = [f64::NEG_INFINITY; LANES];
    for chunk in chunks {
        for (h, &c) in hi.iter_mut().zip(chunk) {
            let zero = if 2.0 * c > weight {
                f64::NEG_INFINITY
            } else {
                c
            };
            *h = if zero > *h { zero } else { *h };
        }
    }
    let mut lo_one = lo.into_iter().fold(f64::INFINITY, f64::min);
    let mut hi_zero = hi.into_iter().fold(f64::NEG_INFINITY, f64::max);
    for &c in tail {
        if 2.0 * c > weight {
            lo_one = lo_one.min(c);
        } else if c > hi_zero {
            hi_zero = c;
        }
    }
    (lo_one, hi_zero)
}

/// A slot's laziness: the decays it owes and, once it has voted, the
/// certificate of that vote.
#[derive(Debug, Clone, Copy, Default)]
struct Lazy {
    /// Decays owed; `u64` so it cannot wrap. Stays 0 at `decay == 1.0`,
    /// where a decay is a no-op.
    pending: u64,
    /// `None` for a slot that has not voted since it was seeded or
    /// restored: a restored center need not be its accumulator's vote.
    cert: Option<Certificate>,
}

/// Apply `pending` decays to `acc`, one pass each, so the counts carry
/// exactly the bits of that many [`CentroidAccumulator::decay`] calls.
fn settle_slot(acc: &mut CentroidAccumulator, pending: u64, decay: f64) {
    for _ in 0..pending {
        acc.decay(decay);
    }
}

/// Online decayed mini-batch k-means state: `k × centroids_per_cluster`
/// sub-centroid slots, one decayed accumulator per slot, and the
/// centroid storage the assignment step searches.
///
/// Equality compares the settled state: two models whose counts agree
/// once every owed decay is applied are equal, however many decays
/// each still owes.
#[derive(Debug, Clone)]
pub struct OnlineKMeans {
    dim: usize,
    k: usize,
    centroids_per_cluster: usize,
    decay: f64,
    /// Seeded sub-centroids in slot order: the single source of truth
    /// for "what does the chip currently store".
    centroids: Vec<Hypervector>,
    /// Accumulators in slot order; slot `s` still owes
    /// `lazy[s].pending` decays.
    accumulators: Vec<CentroidAccumulator>,
    lazy: Vec<Lazy>,
    batches_observed: u64,
}

impl PartialEq for OnlineKMeans {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim
            && self.k == other.k
            && self.centroids_per_cluster == other.centroids_per_cluster
            && self.decay == other.decay
            && self.centroids == other.centroids
            && self.batches_observed == other.batches_observed
            && self.accumulators() == other.accumulators()
    }
}

impl OnlineKMeans {
    /// A model for `dim`-bit hypervectors with `k` clusters of
    /// `centroids_per_cluster` sub-centroids each and forgetting factor
    /// `decay`. No slot is seeded yet; the first observed batches (or
    /// [`OnlineKMeans::seed`]) fill them.
    ///
    /// `shards` is validated but unused: assignment is one flat search
    /// over every slot, and the engine senses and quarantines per shard
    /// from its own config.
    ///
    /// # Panics
    ///
    /// Panics when any count is zero or `decay` is outside `(0, 1]`
    /// (the engine validates its config before constructing the model).
    #[must_use]
    pub fn new(
        dim: usize,
        k: usize,
        centroids_per_cluster: usize,
        decay: f64,
        shards: usize,
    ) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert!(k > 0, "k must be positive");
        assert!(
            centroids_per_cluster > 0,
            "centroids_per_cluster must be positive"
        );
        assert!(
            decay > 0.0 && decay <= 1.0,
            "decay must be in (0, 1], got {decay}"
        );
        assert!(shards > 0, "shard count must be positive");
        Self {
            dim,
            k,
            centroids_per_cluster,
            decay,
            centroids: Vec::new(),
            accumulators: Vec::new(),
            lazy: Vec::new(),
            batches_observed: 0,
        }
    }

    /// Hypervector dimensionality `D`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total sub-centroid slots (`k × centroids_per_cluster`).
    #[must_use]
    pub fn slots(&self) -> usize {
        self.k * self.centroids_per_cluster
    }

    /// Slots seeded so far.
    #[must_use]
    pub fn seeded(&self) -> usize {
        self.centroids.len()
    }

    /// Whether every slot holds a centroid.
    #[must_use]
    fn is_fully_seeded(&self) -> bool {
        self.seeded() == self.slots()
    }

    /// Micro-batches folded in so far.
    #[must_use]
    pub fn batches_observed(&self) -> u64 {
        self.batches_observed
    }

    /// Per-slot accumulators in slot order, for snapshotting, with
    /// every owed decay applied: borrowed when no slot owes one, else
    /// a settled copy.
    #[must_use]
    pub fn accumulators(&self) -> Cow<'_, [CentroidAccumulator]> {
        if self.lazy.iter().all(|l| l.pending == 0) {
            return Cow::Borrowed(&self.accumulators);
        }
        let mut settled = self.accumulators.clone();
        for (acc, lazy) in settled.iter_mut().zip(&self.lazy) {
            settle_slot(acc, lazy.pending, self.decay);
        }
        Cow::Owned(settled)
    }

    /// Apply every owed decay in place, so the next
    /// [`OnlineKMeans::accumulators`] borrows instead of copying.
    /// Certificates stay valid: they took the same decays.
    pub(crate) fn settle(&mut self) {
        for (acc, lazy) in self.accumulators.iter_mut().zip(&mut self.lazy) {
            settle_slot(acc, lazy.pending, self.decay);
            lazy.pending = 0;
        }
    }

    /// Rebuild a model from previously exported state — the
    /// snapshot-restore path. `centroids` and `accumulators` are the
    /// seeded slots in slot order; their contents are taken verbatim so
    /// the restored model continues bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] when `dim`, `k` or
    /// `centroids_per_cluster` is zero or `decay` is outside `(0, 1]`,
    /// and [`StreamError::CentroidShape`] when the centroid and
    /// accumulator lists disagree in length, exceed the slot count, or
    /// carry a dimensionality other than `dim`.
    pub fn restore(
        dim: usize,
        k: usize,
        centroids_per_cluster: usize,
        decay: f64,
        centroids: Vec<Hypervector>,
        accumulators: Vec<CentroidAccumulator>,
        batches_observed: u64,
    ) -> Result<Self, StreamError> {
        for (name, value) in [
            ("dim", dim),
            ("k", k),
            ("centroids_per_cluster", centroids_per_cluster),
        ] {
            if value == 0 {
                return Err(StreamError::InvalidConfig {
                    name,
                    reason: "must be positive",
                });
            }
        }
        if !(decay > 0.0 && decay <= 1.0) {
            return Err(StreamError::InvalidConfig {
                name: "decay",
                reason: "must be in (0, 1]",
            });
        }
        // `new`'s shard count is validated but unused; any positive one.
        let mut model = Self::new(dim, k, centroids_per_cluster, decay, 1);
        if centroids.len() != accumulators.len() {
            return Err(StreamError::CentroidShape {
                reason: "restored centroid and accumulator counts differ",
            });
        }
        if centroids.len() > model.slots() {
            return Err(StreamError::CentroidShape {
                reason: "more restored centroids than sub-centroid slots",
            });
        }
        if centroids.iter().any(|c| c.dim() != dim) {
            return Err(StreamError::CentroidShape {
                reason: "restored centroid dimensionality differs from engine dim",
            });
        }
        if accumulators.iter().any(|a| a.dim() != dim) {
            return Err(StreamError::CentroidShape {
                reason: "restored accumulator dimensionality differs from engine dim",
            });
        }
        model.lazy = vec![Lazy::default(); centroids.len()];
        model.centroids = centroids;
        model.accumulators = accumulators;
        model.batches_observed = batches_observed;
        Ok(model)
    }

    /// The cluster that sub-centroid slot `s` belongs to (`s % k`).
    #[must_use]
    pub fn cluster_of(&self, sub_centroid: usize) -> usize {
        sub_centroid % self.k
    }

    /// Current sub-centroids in slot order (a prefix of the full slot
    /// set until seeding completes).
    #[must_use]
    pub fn centroids(&self) -> &[Hypervector] {
        &self.centroids
    }

    /// Current centers grouped per cluster: `clusters()[c]` holds the
    /// seeded sub-centroids of cluster `c` in slot order.
    #[must_use]
    pub fn clusters(&self) -> Vec<Vec<Hypervector>> {
        let mut out = vec![Vec::new(); self.k];
        for (s, hv) in self.centroids.iter().enumerate() {
            out[self.cluster_of(s)].push(hv.clone());
        }
        out
    }

    /// Seed slots from explicit centers, in slot order, after any
    /// already-seeded slots.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::CentroidShape`] when a center's
    /// dimensionality differs from the model's or more centers arrive
    /// than free slots remain.
    pub fn seed(&mut self, centers: &[Hypervector]) -> Result<(), StreamError> {
        if self.seeded() + centers.len() > self.slots() {
            return Err(StreamError::CentroidShape {
                reason: "more seed centroids than sub-centroid slots",
            });
        }
        if centers.iter().any(|c| c.dim() != self.dim) {
            return Err(StreamError::CentroidShape {
                reason: "seed centroid dimensionality differs from engine dim",
            });
        }
        for c in centers {
            self.centroids.push(c.clone());
            self.accumulators.push(CentroidAccumulator::new(self.dim));
            self.lazy.push(Lazy::default());
        }
        Ok(())
    }

    /// Fold one micro-batch into the model.
    ///
    /// Pipeline, in deterministic order:
    ///
    /// 1. **Seed** — while unseeded slots remain, the batch's leading
    ///    points are copied into them (round-robin over clusters by the
    ///    slot layout).
    /// 2. **Assign** — every point (seeds included) goes to its nearest
    ///    sub-centroid via [`search::assign_batch`]; `threads` workers
    ///    chunk the queries, bit-identically for every thread count.
    /// 3. **Update** — one slot at a time, in slot order:
    ///    - **decay** — the accumulator fades by the forgetting factor
    ///      (a no-op at `decay == 1.0`). Empty batches skip this:
    ///      logical time advances with data, not with ticks;
    ///    - **accumulate** — the slot's assigned points fold in, in
    ///      point order;
    ///    - **re-binarize** — an accumulator holding mass majority-votes
    ///      the slot's new center.
    ///
    ///    Assignment reads only the centers, so decaying each slot here
    ///    rather than all of them before the search changes no bit. A
    ///    slot with no points whose vote certificate holds skips all
    ///    three and owes the decay instead (see the module docs); its
    ///    center and its count in [`BatchUpdate::rebinarized`] are the
    ///    ones the eager update would give.
    ///
    /// # Panics
    ///
    /// Panics on a hypervector dimensionality mismatch (the engine
    /// encodes with the geometry the model was built from).
    pub fn observe_batch(&mut self, encoded: &[Hypervector], threads: usize) -> BatchUpdate {
        self.observe(encoded, threads, None)
    }

    /// [`OnlineKMeans::observe_batch`] with a fault-injected *sense*
    /// stage: the assignment step searches the centroid array as seen
    /// through `views` instead of the pristine storage.
    ///
    /// `views[slot]` is the (possibly corrupted) hypervector the match
    /// lines observe for the slot, or `None` when the slot is
    /// unavailable (its shard is dead) and must be excluded from
    /// assignment; it covers exactly the slots seeded before this
    /// call. Slots seeded *by this batch* are sensed pristine — they
    /// were written this tick and the first faulty read happens on the
    /// next batch. If every slot is excluded the model falls back to
    /// the pristine storage (total array loss is outside the
    /// degradation model).
    ///
    /// The accumulate and re-binarize stages always run against the
    /// pristine storage: corruption is a read-path phenomenon, and the
    /// majority rewrite is exactly the mechanism that heals stored
    /// centers.
    ///
    /// # Panics
    ///
    /// As [`OnlineKMeans::observe_batch`]; additionally if `views` does
    /// not hold one entry per already-seeded slot or a view has a
    /// different dimensionality.
    pub fn observe_batch_sensed(
        &mut self,
        encoded: &[Hypervector],
        threads: usize,
        views: Vec<Option<Hypervector>>,
    ) -> BatchUpdate {
        self.observe(encoded, threads, Some(views))
    }

    /// The one body behind both public entry points: `views` of `None`
    /// searches the pristine storage, `Some` the sensed array.
    fn observe(
        &mut self,
        encoded: &[Hypervector],
        threads: usize,
        views: Option<Vec<Option<Hypervector>>>,
    ) -> BatchUpdate {
        if encoded.is_empty() {
            return BatchUpdate::default();
        }
        assert!(
            encoded.iter().all(|h| h.dim() == self.dim),
            "batch hypervector dimensionality differs from model dim"
        );
        let mut update = BatchUpdate::default();
        let pre_seeded = self.seeded();
        self.seed_from(encoded, &mut update);
        let sensed = views.and_then(|views| self.compact_views(views, pre_seeded));
        update.assignments = match sensed {
            None => search::assign_batch(encoded, &self.centroids, threads),
            Some((sensed, map)) => search::assign_batch(encoded, &sensed, threads)
                .into_iter()
                .map(|(i, d)| (map[i], d))
                .collect(),
        };
        self.fold(encoded, &mut update);
        update
    }

    /// Compact the available sensed slots (plus, pristine, the slots
    /// seeded after the sense pass) into a dense candidate array and
    /// the map from its indices back to global slots. `None` when no
    /// slot is available.
    fn compact_views(
        &self,
        views: Vec<Option<Hypervector>>,
        pre_seeded: usize,
    ) -> Option<(Vec<Hypervector>, Vec<usize>)> {
        assert!(
            views.len() == pre_seeded,
            "sensed views must cover exactly the already-seeded slots"
        );
        let fresh = self.centroids[pre_seeded..].iter().cloned().map(Some);
        let mut sensed = Vec::with_capacity(self.centroids.len());
        let mut map = Vec::with_capacity(self.centroids.len());
        for (slot, view) in views.into_iter().chain(fresh).enumerate() {
            if let Some(hv) = view {
                assert!(
                    hv.dim() == self.dim,
                    "sensed centroid dimensionality differs from model dim"
                );
                map.push(slot);
                sensed.push(hv);
            }
        }
        (!sensed.is_empty()).then_some((sensed, map))
    }

    /// Stage 1: copy the batch's leading points into unseeded slots.
    fn seed_from(&mut self, encoded: &[Hypervector], update: &mut BatchUpdate) {
        for p in encoded {
            if self.is_fully_seeded() {
                break;
            }
            self.centroids.push(p.clone());
            self.accumulators.push(CentroidAccumulator::new(self.dim));
            self.lazy.push(Lazy::default());
            update.seeded += 1;
        }
    }

    /// Stage 3, one slot at a time while its counts are in cache: a
    /// slot with no points whose certificate holds only owes the
    /// decay; any other slot pays every decay it owes, folds in its
    /// assigned points in point order, majority-rewrites its center
    /// and certifies the new vote.
    fn fold(&mut self, encoded: &[Hypervector], update: &mut BatchUpdate) {
        // The batch bucketed by winning slot, point order kept within a
        // slot.
        let mut members: Vec<Vec<&Hypervector>> = vec![Vec::new(); self.accumulators.len()];
        for (p, &(slot, _)) in encoded.iter().zip(&update.assignments) {
            members[slot].push(p);
        }
        let owed = u64::from(self.decay < 1.0);
        let slots = self.accumulators.iter_mut().zip(&mut self.lazy);
        for ((slot, (acc, lazy)), points) in slots.enumerate().zip(members) {
            lazy.pending += owed;
            if points.is_empty() {
                if let Some(voted) = lazy.cert.as_mut().and_then(|c| c.fade(self.decay)) {
                    update.rebinarized += usize::from(voted);
                    continue;
                }
            }
            settle_slot(acc, lazy.pending, self.decay);
            lazy.pending = 0;
            for p in points {
                acc.add(p);
            }
            lazy.cert = Some(Certificate::of(acc));
            if let Some(center) = acc.majority() {
                self.centroids[slot] = center;
                update.rebinarized += 1;
            }
        }
        self.batches_observed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dual_cluster::hamming_lloyd_step;
    use dual_hdc::random_hypervector;

    fn pool(n: usize, dim: usize, seed: u64) -> Vec<Hypervector> {
        (0..n)
            .map(|i| random_hypervector(dim, seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect()
    }

    #[test]
    fn seeds_from_leading_points_then_assigns() {
        let points = pool(10, 64, 3);
        let mut m = OnlineKMeans::new(64, 2, 2, 0.9, 2);
        let up = m.observe_batch(&points, 1);
        assert_eq!(up.seeded, 4);
        assert!(m.is_fully_seeded());
        assert_eq!(up.assignments.len(), 10);
        // The seed points assign to their own slots at distance 0.
        for (i, &(slot, d)) in up.assignments.iter().take(4).enumerate() {
            assert_eq!((slot, d), (i, 0));
        }
        assert_eq!(m.batches_observed(), 1);
    }

    #[test]
    fn slot_layout_round_robins_clusters() {
        let m = OnlineKMeans::new(8, 3, 2, 1.0, 1);
        let clusters: Vec<usize> = (0..m.slots()).map(|s| m.cluster_of(s)).collect();
        assert_eq!(clusters, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn undecayed_single_batch_matches_one_lloyd_step() {
        let points = pool(40, 128, 7);
        let centers = pool(3, 128, 99);
        let (labels, votes) = hamming_lloyd_step(&points, &centers, 1);

        let mut m = OnlineKMeans::new(128, 3, 1, 1.0, 2);
        m.seed(&centers).unwrap();
        let up = m.observe_batch(&points, 1);
        assert_eq!(up.seeded, 0);
        let got_labels: Vec<usize> = up.assignments.iter().map(|&(s, _)| s).collect();
        assert_eq!(got_labels, labels);
        for (slot, vote) in votes.iter().enumerate() {
            match vote {
                Some(v) => assert_eq!(&m.centroids()[slot], v, "slot {slot}"),
                None => assert_eq!(&m.centroids()[slot], &centers[slot], "slot {slot}"),
            }
        }
    }

    #[test]
    fn decay_lets_fresh_mass_win() {
        // One stale center pinned at all-ones by early batches, then a
        // flood of zeros: with strong decay the center must flip.
        let ones = Hypervector::from_bitvec(dual_hdc::BitVec::ones(32));
        let zeros = Hypervector::zeros(32);
        let mut m = OnlineKMeans::new(32, 1, 1, 0.2, 1);
        m.seed(std::slice::from_ref(&ones)).unwrap();
        m.observe_batch(&[ones.clone(), ones.clone()], 1);
        assert_eq!(m.centroids()[0], ones);
        for _ in 0..4 {
            m.observe_batch(&[zeros.clone(), zeros.clone()], 1);
        }
        assert_eq!(m.centroids()[0], zeros);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut m = OnlineKMeans::new(16, 2, 1, 0.5, 1);
        m.seed(&pool(2, 16, 1)).unwrap();
        let before = m.clone();
        let up = m.observe_batch(&[], 4);
        assert_eq!(up, BatchUpdate::default());
        assert_eq!(m, before);
    }

    #[test]
    fn seed_rejects_bad_shapes() {
        let mut m = OnlineKMeans::new(16, 2, 1, 1.0, 1);
        assert!(matches!(
            m.seed(&pool(3, 16, 1)),
            Err(StreamError::CentroidShape { .. })
        ));
        assert!(matches!(
            m.seed(&pool(1, 8, 1)),
            Err(StreamError::CentroidShape { .. })
        ));
        assert!(m.seed(&pool(2, 16, 1)).is_ok());
    }

    #[test]
    fn clusters_group_sub_centroids_by_slot_layout() {
        let mut m = OnlineKMeans::new(16, 2, 2, 1.0, 1);
        m.seed(&pool(3, 16, 5)).unwrap(); // partial seeding: slots 0..3
        let clusters = m.clusters();
        assert_eq!(clusters.len(), 2);
        assert_eq!(clusters[0].len(), 2); // slots 0 and 2
        assert_eq!(clusters[1].len(), 1); // slot 1
        assert_eq!(clusters[0][0], m.centroids()[0]);
        assert_eq!(clusters[0][1], m.centroids()[2]);
    }

    /// The pristine view of every slot seeded so far.
    fn pristine(m: &OnlineKMeans) -> Vec<Option<Hypervector>> {
        m.centroids().iter().cloned().map(Some).collect()
    }

    #[test]
    fn sensed_identity_matches_plain_observe() {
        let points = pool(30, 64, 21);
        let mut plain = OnlineKMeans::new(64, 3, 2, 0.7, 2);
        let mut sensed = plain.clone();
        for chunk in points.chunks(10) {
            let a = plain.observe_batch(chunk, 2);
            let views = pristine(&sensed);
            let b = sensed.observe_batch_sensed(chunk, 2, views);
            assert_eq!(a, b);
        }
        assert_eq!(plain, sensed);
    }

    #[test]
    fn sensed_exclusion_masks_slots_from_assignment() {
        let centers = pool(4, 64, 33);
        let mut m = OnlineKMeans::new(64, 4, 1, 1.0, 2);
        m.seed(&centers).unwrap();
        // Query exactly center 1, but sense slot 1 as unavailable: the
        // point must land on some other slot.
        let mut views = pristine(&m);
        views[1] = None;
        let up = m.observe_batch_sensed(std::slice::from_ref(&centers[1]), 1, views);
        assert_ne!(up.assignments[0].0, 1);
        // With every slot excluded, assignment falls back to pristine.
        let mut m2 = OnlineKMeans::new(64, 4, 1, 1.0, 2);
        m2.seed(&centers).unwrap();
        let up2 = m2.observe_batch_sensed(std::slice::from_ref(&centers[1]), 1, vec![None; 4]);
        assert_eq!(up2.assignments[0], (1, 0));
    }

    #[test]
    fn sensed_whole_shard_masked_with_more_shards_than_survivors() {
        // 8 slots over 4 shards of 2; shards 0, 1 and 3 are dead, so
        // the 2 survivors are searched and the winners map back to
        // global slots 4 and 5.
        let centers = pool(8, 64, 51);
        let mut m = OnlineKMeans::new(64, 8, 1, 1.0, 4);
        m.seed(&centers).unwrap();
        let mut views = pristine(&m);
        for slot in [0, 1, 2, 3, 6, 7] {
            views[slot] = None;
        }
        let queries = [centers[0].clone(), centers[5].clone(), centers[4].clone()];
        let up = m.observe_batch_sensed(&queries, 2, views);
        let survivors = &centers[4..6];
        let want: Vec<(usize, usize)> = search::assign_batch(&queries, survivors, 1)
            .into_iter()
            .map(|(i, d)| (4 + i, d))
            .collect();
        assert_eq!(up.assignments, want);
        assert_eq!(up.assignments[1], (5, 0));
        assert_eq!(up.assignments[2], (4, 0));
    }

    #[test]
    fn sensed_corruption_degrades_then_rebinarize_heals_storage() {
        // Sense slot 0 as all-zeros: a query equal to slot 0's stored
        // ones-vector gets misrouted, but storage stays pristine.
        let ones = Hypervector::from_bitvec(dual_hdc::BitVec::ones(32));
        let zeros = Hypervector::zeros(32);
        let mut m = OnlineKMeans::new(32, 2, 1, 1.0, 1);
        m.seed(&[ones.clone(), zeros.clone()]).unwrap();
        let views = vec![Some(zeros.clone()), Some(zeros.clone())];
        let up = m.observe_batch_sensed(std::slice::from_ref(&ones), 1, views);
        // Both sensed slots look identical (all zeros); tie-break low.
        assert_eq!(up.assignments[0].0, 0);
        assert_eq!(m.centroids()[0], ones, "storage is not corrupted");
    }

    /// The update stage by stage, as `observe` ran it before the
    /// per-slot fold: every accumulator decayed, the batch assigned,
    /// every point added, then every slot voted. The oracle for `fold`.
    fn reference_observe(
        m: &mut OnlineKMeans,
        encoded: &[Hypervector],
        views: Option<Vec<Option<Hypervector>>>,
    ) -> BatchUpdate {
        let mut update = BatchUpdate::default();
        let pre_seeded = m.seeded();
        m.seed_from(encoded, &mut update);
        for acc in &mut m.accumulators {
            acc.decay(m.decay);
        }
        update.assignments = match views.and_then(|v| m.compact_views(v, pre_seeded)) {
            None => search::assign_batch(encoded, &m.centroids, 1),
            Some((sensed, map)) => search::assign_batch(encoded, &sensed, 1)
                .into_iter()
                .map(|(i, d)| (map[i], d))
                .collect(),
        };
        for (p, &(slot, _)) in encoded.iter().zip(&update.assignments) {
            m.accumulators[slot].add(p);
        }
        for (slot, acc) in m.accumulators.iter().enumerate() {
            if let Some(center) = acc.majority() {
                m.centroids[slot] = center;
                update.rebinarized += 1;
            }
        }
        m.batches_observed += 1;
        update
    }

    /// A model's whole state with every `f64` as its bits, so −0.0 and
    /// NaN counts compare exactly (derived `==` reads NaN ≠ NaN).
    fn state_bits(m: &OnlineKMeans) -> (Vec<Hypervector>, Vec<Vec<u64>>, u64) {
        let accumulators = m
            .accumulators()
            .iter()
            .map(|a| {
                let weight = std::iter::once(a.weight());
                a.counts()
                    .iter()
                    .copied()
                    .chain(weight)
                    .map(f64::to_bits)
                    .collect()
            })
            .collect();
        (m.centroids().to_vec(), accumulators, m.batches_observed())
    }

    #[test]
    fn fused_update_matches_the_stage_by_stage_reference() {
        let dim = 70;
        let points = pool(48, dim, 77);
        let specials = [-0.0, 5e-324, f64::NAN, -2.2e-308, 1.5];
        let weights = [2.0, -0.0, 5e-324, f64::NAN, 3.0, 0.5];
        for decay in [0.3, 0.95, 1.0] {
            // Fresh: the first batches seed only part of the 12 slots.
            let fresh = OnlineKMeans::new(dim, 3, 4, decay, 2);
            // Restored: six seeded slots whose accumulators hold −0.0,
            // subnormal and NaN counts and weights.
            let accumulators = (0..6)
                .map(|s| {
                    let counts = (0..dim).map(|i| specials[(i + s) % 5]).collect();
                    CentroidAccumulator::from_parts(counts, weights[s])
                })
                .collect();
            let restored =
                OnlineKMeans::restore(dim, 3, 4, decay, pool(6, dim, 5), accumulators, 9).unwrap();
            for (name, start) in [("fresh", fresh), ("restored", restored)] {
                let (mut got, mut want) = (start.clone(), start);
                let batches = [&points[..5], &points[5..9], &points[9..30], &points[30..]];
                for (b, batch) in batches.into_iter().enumerate() {
                    // Every other batch is sensed, with slot 0 masked out
                    // and slot 1 read with a flipped bit.
                    let views = (b % 2 == 1).then(|| {
                        let mut views = pristine(&got);
                        views[0] = None;
                        if let Some(hv) = &mut views[1] {
                            hv.bits_mut().flip(0);
                        }
                        views
                    });
                    let up = match views.clone() {
                        None => got.observe_batch(batch, 2),
                        Some(views) => got.observe_batch_sensed(batch, 2, views),
                    };
                    let tag = format!("{name} decay={decay} batch={b}");
                    assert_eq!(up, reference_observe(&mut want, batch, views), "{tag}");
                    assert_eq!(state_bits(&got), state_bits(&want), "{tag}");
                }
            }
        }
    }

    /// `restore` with one degenerate parameter must fail closed.
    fn restore_geometry(dim: usize, k: usize, per: usize, decay: f64) -> Result<(), &'static str> {
        match OnlineKMeans::restore(dim, k, per, decay, Vec::new(), Vec::new(), 0) {
            Ok(_) => Ok(()),
            Err(StreamError::InvalidConfig { name, .. }) => Err(name),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn restore_rejects_zero_dim() {
        assert_eq!(restore_geometry(0, 2, 1, 0.9), Err("dim"));
    }

    #[test]
    fn restore_rejects_zero_k() {
        assert_eq!(restore_geometry(16, 0, 1, 0.9), Err("k"));
    }

    #[test]
    fn restore_rejects_zero_centroids_per_cluster() {
        assert_eq!(
            restore_geometry(16, 2, 0, 0.9),
            Err("centroids_per_cluster")
        );
    }

    #[test]
    fn restore_rejects_decay_outside_the_unit_interval() {
        for decay in [0.0, -0.0, -0.5, 1.0 + f64::EPSILON, f64::INFINITY] {
            assert_eq!(restore_geometry(16, 2, 1, decay), Err("decay"), "{decay}");
        }
        assert_eq!(restore_geometry(16, 2, 1, 1.0), Ok(()));
    }

    #[test]
    fn restore_rejects_nan_decay() {
        assert_eq!(restore_geometry(16, 2, 1, f64::NAN), Err("decay"));
    }

    /// The `x` whose product with `decay` rounds to `y` (one exists
    /// when both sit in one binade, as `x·decay` then steps by less
    /// than an ulp).
    fn preimage(y: f64, decay: f64) -> f64 {
        let mut x = y / decay;
        while x * decay < y {
            x = x.next_up();
        }
        while x * decay > y {
            x = x.next_down();
        }
        assert_eq!((x * decay).to_bits(), y.to_bits(), "no preimage of {y}");
        x
    }

    #[test]
    fn untouched_near_tie_slot_revotes_like_the_reference() {
        // After its first (eager) vote slot 0 holds `c` and `w`, which
        // vote 1 (`2c` is one ulp above `w`); one more decay rounds the
        // two to a tie, which votes 0. Slot 0 gets no points in the
        // second batch, so only a failed certificate can flip it.
        let decay = 0.95;
        let c = f64::from_bits(0x4004_2e3a_f51e_de45); // 0x1.42e3af51ede45p+1
        let w = f64::from_bits(0x4014_2e3a_f51e_de44); // 0x1.42e3af51ede44p+2
        assert!(2.0 * c > w);
        assert_eq!((2.0 * (c * decay)).to_bits(), (w * decay).to_bits());

        let dim = 64;
        let mut counts = vec![0.0; dim];
        counts[5] = preimage(c, decay);
        let ones = Hypervector::from_bitvec(dual_hdc::BitVec::ones(dim));
        let accumulators = vec![
            CentroidAccumulator::from_parts(counts, preimage(w, decay)),
            CentroidAccumulator::new(dim),
        ];
        let centers = vec![Hypervector::zeros(dim), ones.clone()];
        let start = OnlineKMeans::restore(dim, 2, 1, decay, centers, accumulators, 0).unwrap();
        let (mut got, mut want) = (start.clone(), start);
        for b in 0..2 {
            // Every point lands on slot 1: slot 0 is untouched.
            let batch = [ones.clone(), ones.clone()];
            let up = got.observe_batch(&batch, 1);
            assert_eq!(up, reference_observe(&mut want, &batch, None), "batch {b}");
            assert_eq!(state_bits(&got), state_bits(&want), "batch {b}");
            assert_eq!(got.centroids()[0].bits().get(5), b == 0, "batch {b}");
        }
    }

    #[test]
    fn lazy_long_run_matches_the_reference() {
        // 64 slots and 2–5-point batches: most slots sit untouched for
        // many batches while they owe decays.
        let dim = 70; // not a multiple of the 8-lane certificate scan
        let (k, per) = (16, 4);
        let points = pool(160, dim, 404);
        let tiny = 1e-320; // subnormal: underflows to empty under decay 0.3
        let accumulator = |s: usize| {
            let (counts, weight): (Vec<f64>, f64) = match s % 8 {
                // Votes from restored special weights.
                0 => ((0..dim).map(|i| i as f64 * 0.1).collect(), f64::NAN),
                1 => {
                    let c = [f64::INFINITY, 1e308, 0.5, -0.0];
                    ((0..dim).map(|i| c[i % 4]).collect(), f64::INFINITY)
                }
                // Subnormal mass whose vote flips as it rounds away.
                2 => (
                    (0..dim).map(|i| tiny * (i % 7) as f64 / 6.0).collect(),
                    tiny,
                ),
                // Exact ties (`2c == w`) beside clear votes and −0.0.
                3 => {
                    let c = [2.0, 3.0, 1.0, -0.0];
                    ((0..dim).map(|i| c[(i + s) % 4]).collect(), 4.0)
                }
                // An empty slot of −0.0s.
                4 => (vec![-0.0; dim], -0.0),
                // Counts one ulp either side of half the weight.
                5 => {
                    let half: f64 = 1.85;
                    let c = [half.next_up(), half, half.next_down()];
                    ((0..dim).map(|i| c[i % 3]).collect(), 3.7)
                }
                _ => (
                    (0..dim).map(|i| ((i * 7 + s) % 10) as f64 * 0.3).collect(),
                    2.9,
                ),
            };
            CentroidAccumulator::from_parts(counts, weight)
        };
        let accumulators: Vec<_> = (0..k * per).map(accumulator).collect();
        let centers = pool(k * per, dim, 505);
        for decay in [0.3, 0.95, 1.0, 1.0 - f64::EPSILON / 2.0] {
            let start =
                OnlineKMeans::restore(dim, k, per, decay, centers.clone(), accumulators.clone(), 0)
                    .unwrap();
            let (mut got, mut want) = (start.clone(), start);
            let mut owed = 0;
            let mut rest = &points[..];
            for b in 0..40 {
                let (batch, tail) = rest.split_at(2 + b % 4);
                rest = tail;
                let tag = format!("decay={decay} batch={b}");
                let up = got.observe_batch(batch, 1);
                assert_eq!(up, reference_observe(&mut want, batch, None), "{tag}");
                assert_eq!(state_bits(&got), state_bits(&want), "{tag}");
                owed += got.lazy.iter().filter(|l| l.pending > 0).count();
            }
            assert_eq!(
                owed > 0,
                decay < 1.0,
                "decay={decay}: {owed} owed slot-batches"
            );
        }
    }

    #[test]
    fn restore_mid_stream_continues_like_the_uninterrupted_run() {
        let dim = 96;
        let points = pool(120, dim, 606);
        let mut gold = OnlineKMeans::new(dim, 8, 4, 0.9, 1);
        for batch in points[..60].chunks(3) {
            gold.observe_batch(batch, 1);
        }
        assert!(gold.lazy.iter().any(|l| l.pending > 0));
        let mut resumed = OnlineKMeans::restore(
            dim,
            8,
            4,
            0.9,
            gold.centroids().to_vec(),
            gold.accumulators().into_owned(),
            gold.batches_observed(),
        )
        .unwrap();
        assert_eq!(resumed, gold, "equality reads the settled state");
        for batch in points[60..].chunks(3) {
            assert_eq!(
                resumed.observe_batch(batch, 1),
                gold.observe_batch(batch, 1)
            );
        }
        assert_eq!(state_bits(&resumed), state_bits(&gold));
    }

    #[test]
    fn observe_is_deterministic_across_thread_counts() {
        let points = pool(50, 96, 13);
        let mut gold = OnlineKMeans::new(96, 3, 2, 0.8, 3);
        gold.observe_batch(&points[..25], 1);
        gold.observe_batch(&points[25..], 1);
        for threads in [0usize, 2, 3, 8] {
            let mut m = OnlineKMeans::new(96, 3, 2, 0.8, 3);
            m.observe_batch(&points[..25], threads);
            m.observe_batch(&points[25..], threads);
            assert_eq!(m, gold, "threads={threads}");
        }
    }
}
