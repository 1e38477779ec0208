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
//! sub-centroid set with [`search::assign_sharded`] and reports both
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
    /// Sub-centroids re-binarized by majority vote.
    pub rebinarized: usize,
}

/// Online decayed mini-batch k-means state: `k × centroids_per_cluster`
/// sub-centroid slots, one decayed accumulator per slot, and the
/// centroid storage the assignment step searches `shards` ways.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineKMeans {
    dim: usize,
    k: usize,
    centroids_per_cluster: usize,
    decay: f64,
    /// Seeded sub-centroids in slot order: the single source of truth
    /// for "what does the chip currently store".
    centroids: Vec<Hypervector>,
    shards: usize,
    accumulators: Vec<CentroidAccumulator>,
    batches_observed: u64,
}

impl OnlineKMeans {
    /// A model for `dim`-bit hypervectors with `k` clusters of
    /// `centroids_per_cluster` sub-centroids each, forgetting factor
    /// `decay`, and assignment sharded `shards` ways. No slot is seeded
    /// yet; the first observed batches (or [`OnlineKMeans::seed`]) fill
    /// them.
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
            shards,
            accumulators: Vec::new(),
            batches_observed: 0,
        }
    }

    /// Hypervector dimensionality `D`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of clusters `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Sub-centroids per cluster.
    #[must_use]
    pub fn centroids_per_cluster(&self) -> usize {
        self.centroids_per_cluster
    }

    /// Forgetting factor applied between batches.
    #[must_use]
    pub fn decay(&self) -> f64 {
        self.decay
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
    pub fn is_fully_seeded(&self) -> bool {
        self.seeded() == self.slots()
    }

    /// Micro-batches folded in so far.
    #[must_use]
    pub fn batches_observed(&self) -> u64 {
        self.batches_observed
    }

    /// Per-slot accumulators in slot order, for snapshotting.
    #[must_use]
    pub fn accumulators(&self) -> &[CentroidAccumulator] {
        &self.accumulators
    }

    /// Rebuild a model from previously exported state — the
    /// snapshot-restore path. `centroids` and `accumulators` are the
    /// seeded slots in slot order; their contents are taken verbatim so
    /// the restored model continues bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::CentroidShape`] when the centroid and
    /// accumulator lists disagree in length, exceed the slot count, or
    /// carry a dimensionality other than `dim`.
    ///
    /// # Panics
    ///
    /// As [`OnlineKMeans::new`] for degenerate geometry parameters.
    // Eight scalars of exported state, not a config soup: a builder or
    // params struct would just re-spell `EngineSnapshot` here.
    #[allow(clippy::too_many_arguments)]
    pub fn restore(
        dim: usize,
        k: usize,
        centroids_per_cluster: usize,
        decay: f64,
        shards: usize,
        centroids: Vec<Hypervector>,
        accumulators: Vec<CentroidAccumulator>,
        batches_observed: u64,
    ) -> Result<Self, StreamError> {
        let mut model = Self::new(dim, k, centroids_per_cluster, decay, shards);
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
    /// 2. **Decay** — every accumulator fades by the forgetting factor
    ///    (a no-op at `decay == 1.0`). Empty batches skip this: logical
    ///    time advances with data, not with ticks.
    /// 3. **Assign** — every point (seeds included) goes to its nearest
    ///    sub-centroid via [`search::assign_sharded`]; `threads` workers
    ///    chunk the queries, bit-identically for every thread count.
    /// 4. **Accumulate** — points fold into their winner's accumulator
    ///    in point order.
    /// 5. **Re-binarize** — every accumulator holding mass majority-votes
    ///    its slot's new center.
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
        self.decay_all();
        let sensed = views.and_then(|views| self.compact_views(views, pre_seeded));
        update.assignments = match sensed {
            None => search::assign_sharded(encoded, &self.centroids, self.shards, threads),
            Some((sensed, map)) => search::assign_sharded(encoded, &sensed, self.shards, threads)
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
            update.seeded += 1;
        }
    }

    /// Stage 2: fade every accumulator by the forgetting factor.
    fn decay_all(&mut self) {
        for acc in &mut self.accumulators {
            acc.decay(self.decay);
        }
    }

    /// Stages 4–5: fold assigned points into their winners'
    /// accumulators and majority-rewrite every touched center.
    fn fold(&mut self, encoded: &[Hypervector], update: &mut BatchUpdate) {
        for (p, &(slot, _)) in encoded.iter().zip(&update.assignments) {
            self.accumulators[slot].add(p);
        }
        for (slot, acc) in self.accumulators.iter().enumerate() {
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
    use dual_hdc::ops::random_hypervector;

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
        // 8 slots over 4 shards of 2; shards 0, 1 and 3 are dead, so 2
        // survivors are searched 4 ways (one candidate per shard) and
        // the winners map back to global slots 4 and 5.
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
