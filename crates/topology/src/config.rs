//! Declarative tenant configuration: who runs, under which stream
//! tunables, and how much chip energy they may spend per tick.

use crate::error::TopologyError;
use dual_stream::{BackpressurePolicy, StreamConfig};

/// A tenant's ingest quota, priced in chip energy.
///
/// Each topology tick grants `budget_pj_per_tick` picojoules of
/// credit (see `dual_pim::EnergyBudget`); while the tenant's meter has
/// spent more than its granted credit, the scheduler defers its
/// `tick()` and `escalation` decides what happens to pushes arriving
/// at the full-throttle gate:
///
/// * [`BackpressurePolicy::Block`] — no escalation: pushes keep the
///   engine's own configured policy (lossless; an inline flush may
///   still spend energy, which is why over-budget ticks defer).
/// * [`BackpressurePolicy::DropOldest`] — pushes shed the stalest
///   buffered point once the ring fills (counted as
///   `topology.quota.shed`).
/// * [`BackpressurePolicy::Reject`] — pushes are refused at the
///   admission gate before touching the engine (counted as
///   `topology.quota.rejected`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuotaSpec {
    /// Credit granted per topology tick, picojoules. `f64::INFINITY`
    /// disables quota enforcement for the tenant.
    pub budget_pj_per_tick: f64,
    /// Push policy applied while the tenant is over budget.
    pub escalation: BackpressurePolicy,
}

impl QuotaSpec {
    /// No quota: infinite credit, no escalation ever triggers.
    #[must_use]
    pub fn unlimited() -> Self {
        Self {
            budget_pj_per_tick: f64::INFINITY,
            escalation: BackpressurePolicy::Block,
        }
    }

    /// A quota of `budget_pj_per_tick` picojoules per tick with the
    /// default [`BackpressurePolicy::Reject`] escalation.
    #[must_use]
    pub fn per_tick(budget_pj_per_tick: f64) -> Self {
        Self {
            budget_pj_per_tick,
            escalation: BackpressurePolicy::Reject,
        }
    }

    /// The same quota with a different over-budget push policy.
    #[must_use]
    pub fn with_escalation(mut self, escalation: BackpressurePolicy) -> Self {
        self.escalation = escalation;
        self
    }

    /// Reject NaN and negative budgets (infinity is valid: unlimited).
    pub(crate) fn validate(&self) -> Result<(), TopologyError> {
        if self.budget_pj_per_tick.is_nan() {
            return Err(TopologyError::InvalidQuota {
                reason: "budget_pj_per_tick must not be NaN",
            });
        }
        if self.budget_pj_per_tick < 0.0 {
            return Err(TopologyError::InvalidQuota {
                reason: "budget_pj_per_tick must be non-negative",
            });
        }
        Ok(())
    }
}

impl Default for QuotaSpec {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// One tenant's declaration: a name, the stream tunables of its
/// isolated engine, and its admission quota. A `Vec<TenantSpec>` *is*
/// the topology config — build a service from one with
/// [`crate::Topology::build`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Unique tenant name: non-empty, `[A-Za-z0-9_-]` only.
    pub name: String,
    /// Stream-engine tunables for the tenant's isolated engine.
    pub stream: StreamConfig,
    /// Admission quota.
    pub quota: QuotaSpec,
}

impl TenantSpec {
    /// A tenant named `name` running `stream`, with no quota.
    #[must_use]
    pub fn new(name: impl Into<String>, stream: StreamConfig) -> Self {
        Self {
            name: name.into(),
            stream,
            quota: QuotaSpec::unlimited(),
        }
    }

    /// The same tenant with an explicit quota.
    #[must_use]
    pub fn with_quota(mut self, quota: QuotaSpec) -> Self {
        self.quota = quota;
        self
    }
}

/// Check the naming rules shared by registration and reload.
pub(crate) fn validate_name(name: &str) -> Result<(), TopologyError> {
    if name.is_empty() {
        return Err(TopologyError::InvalidName {
            reason: "name must not be empty",
        });
    }
    if !name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return Err(TopologyError::InvalidName {
            reason: "name may only contain ASCII letters, digits, '_' and '-'",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quota_validation_rejects_nan_and_negative() {
        assert!(QuotaSpec::per_tick(f64::NAN).validate().is_err());
        assert!(QuotaSpec::per_tick(-1.0).validate().is_err());
        assert!(QuotaSpec::per_tick(0.0).validate().is_ok());
        assert!(QuotaSpec::unlimited().validate().is_ok());
    }

    #[test]
    fn names_are_metric_key_safe() {
        assert!(validate_name("tenant-a_1").is_ok());
        assert!(validate_name("").is_err());
        assert!(validate_name("a.b").is_err());
        assert!(validate_name("a b").is_err());
        assert!(validate_name("tenant.\"x\"").is_err());
    }

    #[test]
    fn spec_builders_compose() {
        let spec = TenantSpec::new("a", StreamConfig::new(3))
            .with_quota(QuotaSpec::per_tick(10.0).with_escalation(BackpressurePolicy::DropOldest));
        assert_eq!(spec.name, "a");
        assert_eq!(spec.quota.budget_pj_per_tick, 10.0);
        assert_eq!(spec.quota.escalation, BackpressurePolicy::DropOldest);
        assert_eq!(QuotaSpec::default(), QuotaSpec::unlimited());
    }
}
