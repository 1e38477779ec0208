//! Shard-level quarantine: the state machine the streaming engine
//! drives when a shard keeps producing faulty reads.
//!
//! A shard moves `Healthy → Quarantined → Healthy` (probation) on the
//! logical tick clock with an exponentially growing backoff, and
//! lands in `Dead` once its retry budget is spent. All transitions
//! are pure functions of `(state, tick)` — no wall time — so the
//! machine replays identically under any thread count.

/// Health of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Serving traffic.
    Healthy,
    /// Benched until `until_tick`; `retries_used` quarantines so far.
    Quarantined {
        /// First tick at which the shard may serve again.
        until_tick: u64,
        /// Quarantine trips consumed (drives the backoff exponent).
        retries_used: u32,
    },
    /// Retry budget exhausted; permanently out of rotation.
    Dead,
}

/// Retry/backoff budget for the quarantine machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineConfig {
    /// Quarantine trips before a shard is declared dead.
    pub retry_budget: u32,
    /// Backoff after the first trip, in logical ticks.
    pub base_backoff_ticks: u64,
    /// Backoff multiplier per successive trip (≥ 1).
    pub backoff_factor: u64,
}

impl Default for QuarantineConfig {
    fn default() -> Self {
        Self {
            retry_budget: 3,
            base_backoff_ticks: 4,
            backoff_factor: 2,
        }
    }
}

impl QuarantineConfig {
    /// Backoff for the `trips`-th quarantine (1-based), saturating.
    #[must_use]
    pub fn backoff(&self, trips: u32) -> u64 {
        let factor = self.backoff_factor.max(1);
        let mut ticks = self.base_backoff_ticks.max(1);
        for _ in 1..trips {
            ticks = ticks.saturating_mul(factor);
        }
        ticks
    }
}

/// Counters exported by the machine (mirrored into `dual_obs` by the
/// engine: `fault.quarantined`, `fault.requeued`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuarantineStats {
    /// Quarantine trips recorded.
    pub quarantined: u64,
    /// Shards released back to probation (work requeued).
    pub requeued: u64,
    /// Shards declared dead.
    pub dead: u64,
}

/// The quarantine state machine over a fixed shard population.
#[derive(Debug, Clone)]
pub struct Quarantine {
    shards: Vec<ShardHealth>,
    trips: Vec<u32>,
    config: QuarantineConfig,
    stats: QuarantineStats,
}

impl Quarantine {
    /// A machine over `shards` healthy shards.
    #[must_use]
    pub fn new(shards: usize, config: QuarantineConfig) -> Self {
        Self {
            shards: vec![ShardHealth::Healthy; shards],
            trips: vec![0; shards],
            config,
            stats: QuarantineStats::default(),
        }
    }

    /// Rebuild a machine mid-flight from previously exported state —
    /// the snapshot-restore path. `shards`, `trips`, and `stats` are
    /// taken verbatim, so backoff clocks and retry budgets continue
    /// exactly where the snapshotted machine stood.
    ///
    /// # Panics
    ///
    /// Panics when `shards` and `trips` disagree in length (the caller
    /// validates decoded snapshots before reconstructing).
    #[must_use]
    pub fn restore(
        config: QuarantineConfig,
        shards: Vec<ShardHealth>,
        trips: Vec<u32>,
        stats: QuarantineStats,
    ) -> Self {
        assert_eq!(
            shards.len(),
            trips.len(),
            "shard and trip vectors must be index-aligned"
        );
        Self {
            shards,
            trips,
            config,
            stats,
        }
    }

    /// Per-shard health machines in shard order, for snapshotting.
    #[must_use]
    pub fn health_states(&self) -> &[ShardHealth] {
        &self.shards
    }

    /// Per-shard quarantine trip counts in shard order, for
    /// snapshotting.
    #[must_use]
    pub fn trip_counts(&self) -> &[u32] {
        &self.trips
    }

    /// The retry/backoff budget the machine was built with.
    #[must_use]
    pub fn config(&self) -> QuarantineConfig {
        self.config
    }

    /// Shard population.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the machine tracks zero shards.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Current health of `shard` (out-of-range reads as `Dead`).
    #[must_use]
    pub fn health(&self, shard: usize) -> ShardHealth {
        self.shards.get(shard).copied().unwrap_or(ShardHealth::Dead)
    }

    /// Whether `shard` may serve at `tick`.
    #[must_use]
    pub fn is_serving(&self, shard: usize) -> bool {
        matches!(self.health(shard), ShardHealth::Healthy)
    }

    /// Bench `shard` at `tick`. Consumes one retry; the shard comes
    /// back after an exponentially growing backoff, or dies once the
    /// budget is spent. Returns the new health.
    pub fn quarantine(&mut self, shard: usize, tick: u64) -> ShardHealth {
        let Some(state) = self.shards.get_mut(shard) else {
            return ShardHealth::Dead;
        };
        if *state == ShardHealth::Dead {
            return ShardHealth::Dead;
        }
        let trips = self.trips[shard] + 1;
        self.trips[shard] = trips;
        self.stats.quarantined += 1;
        *state = if trips > self.config.retry_budget {
            self.stats.dead += 1;
            ShardHealth::Dead
        } else {
            ShardHealth::Quarantined {
                until_tick: tick.saturating_add(self.config.backoff(trips)),
                retries_used: trips,
            }
        };
        *state
    }

    /// Advance the clock: release every quarantined shard whose
    /// backoff expired at or before `tick`, returning the released
    /// shard indices in ascending order (the engine requeues their
    /// pending work).
    pub fn tick(&mut self, tick: u64) -> Vec<usize> {
        let mut released = Vec::new();
        for (i, state) in self.shards.iter_mut().enumerate() {
            if let ShardHealth::Quarantined { until_tick, .. } = *state {
                if tick >= until_tick {
                    *state = ShardHealth::Healthy;
                    self.stats.requeued += 1;
                    released.push(i);
                }
            }
        }
        released
    }

    /// Shards currently benched.
    #[must_use]
    pub fn quarantined_count(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| matches!(s, ShardHealth::Quarantined { .. }))
            .count()
    }

    /// Shards permanently dead.
    #[must_use]
    pub fn dead_count(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| matches!(s, ShardHealth::Dead))
            .count()
    }

    /// Counter totals so far.
    #[must_use]
    pub fn stats(&self) -> QuarantineStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially() {
        let cfg = QuarantineConfig::default();
        assert_eq!(cfg.backoff(1), 4);
        assert_eq!(cfg.backoff(2), 8);
        assert_eq!(cfg.backoff(3), 16);
    }

    #[test]
    fn quarantine_then_release_then_death() {
        let mut q = Quarantine::new(
            2,
            QuarantineConfig {
                retry_budget: 2,
                base_backoff_ticks: 3,
                backoff_factor: 2,
            },
        );
        assert!(q.is_serving(0));
        // Trip 1 at tick 10: benched until 13.
        assert_eq!(
            q.quarantine(0, 10),
            ShardHealth::Quarantined {
                until_tick: 13,
                retries_used: 1
            }
        );
        assert!(!q.is_serving(0));
        assert!(q.tick(12).is_empty(), "not yet");
        assert_eq!(q.tick(13), vec![0], "released");
        assert!(q.is_serving(0));
        // Trip 2 at tick 20: backoff doubles to 6.
        assert_eq!(
            q.quarantine(0, 20),
            ShardHealth::Quarantined {
                until_tick: 26,
                retries_used: 2
            }
        );
        assert_eq!(q.tick(26), vec![0]);
        // Trip 3 exceeds the budget: dead.
        assert_eq!(q.quarantine(0, 30), ShardHealth::Dead);
        assert_eq!(q.quarantine(0, 31), ShardHealth::Dead, "stays dead");
        assert!(q.tick(1000).is_empty(), "dead shards never release");
        assert_eq!(q.dead_count(), 1);
        let stats = q.stats();
        assert_eq!(stats.quarantined, 3);
        assert_eq!(stats.requeued, 2);
        assert_eq!(stats.dead, 1);
    }

    #[test]
    fn out_of_range_is_dead() {
        let mut q = Quarantine::new(1, QuarantineConfig::default());
        assert_eq!(q.health(5), ShardHealth::Dead);
        assert_eq!(q.quarantine(5, 0), ShardHealth::Dead);
        assert!(!q.is_serving(5));
    }
}
