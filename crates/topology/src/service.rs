//! The topology service: N named tenants, each an isolated
//! [`StreamEngine`], behind energy-priced admission control and a
//! deterministic fair-share scheduler.

use crate::config::{validate_name, QuotaSpec, TenantSpec};
use crate::error::TopologyError;
use dual_hdc::Encoder;
use dual_obs::{Key, Registry};
use dual_pim::{CostModel, EnergyBudget, StreamBatchCost};
use dual_snap::TenantCheckpoint;
use dual_stream::{
    BackpressurePolicy, FaultConfig, FaultStatus, PushOutcome, StreamEngine, StreamSnapshot,
};
use dual_trace::{AlertEngine, AlertRule, Event, Recorder, TraceError};

/// Ring capacity of the service-level flight recorder: admission and
/// scheduling events are per-tenant-per-tick, so a deeper ring than
/// the per-engine default keeps a useful window over many tenants.
const SERVICE_TRACE_CAPACITY: usize = 1024;

/// One hosted tenant: its engine plus its admission ledger.
#[derive(Debug)]
struct Tenant<E> {
    name: String,
    engine: StreamEngine<E>,
    budget: EnergyBudget,
    quota: QuotaSpec,
}

impl<E: Encoder + Sync> Tenant<E> {
    /// Chip energy this tenant's meter has spent so far, picojoules.
    fn spent_pj(&self) -> f64 {
        self.engine.meter().total().energy_pj()
    }

    /// Is the tenant past its granted credit right now?
    fn over_budget(&self) -> bool {
        self.budget.over(self.spent_pj())
    }
}

/// What happened to a pushed point at the admission gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The tenant was within budget; the engine's own configured
    /// backpressure policy applied.
    InBudget(PushOutcome),
    /// The tenant was over budget; its quota's escalation policy
    /// applied instead (Block escalation also lands here — the engine
    /// keeps its configured policy but the ledger flagged the push).
    Escalated(PushOutcome),
    /// The tenant was over budget under a
    /// [`BackpressurePolicy::Reject`] escalation: the point was
    /// refused at the gate and never reached the engine.
    QuotaRejected,
}

impl Admission {
    /// The engine-level outcome, when the push reached the engine.
    #[must_use]
    pub fn outcome(&self) -> Option<PushOutcome> {
        match self {
            Self::QuotaRejected => None,
            Self::InBudget(o) | Self::Escalated(o) => Some(*o),
        }
    }
}

/// One tenant's slice of a topology tick.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantTick {
    /// Tenant name.
    pub name: String,
    /// True when the scheduler skipped the tenant's `tick()` because
    /// it was over budget (its logical clock did not advance).
    pub deferred: bool,
    /// Micro-batch costs the tenant committed this tick.
    pub costs: Vec<StreamBatchCost>,
}

/// Everything one [`Topology::tick`] did, tenants in scheduled order.
#[derive(Debug, Clone, PartialEq)]
pub struct TickReport {
    /// The topology tick that just completed (1-based).
    pub tick: u64,
    /// Per-tenant outcomes, in the rotated round-robin order they ran.
    pub entries: Vec<TenantTick>,
}

/// Exact fixed-order aggregates over every tenant's cost ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologyTotals {
    /// Sum of per-tenant meter energies, folded in registration order.
    pub energy_pj: f64,
    /// Sum of per-tenant meter latencies, folded in registration order.
    pub time_ns: f64,
    /// Micro-batches committed across all tenants.
    pub batches: u64,
    /// Points across all committed batches.
    pub points: u64,
}

/// One tenant's externally visible state.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStatus {
    /// Tenant name.
    pub name: String,
    /// The engine's consistent between-batches view.
    pub snapshot: StreamSnapshot,
    /// Fault/healing state, `None` when injection is off.
    pub fault: Option<FaultStatus>,
    /// Quota credit rate, pJ per topology tick (`+inf` = unlimited).
    pub quota_rate_pj: f64,
    /// Credit granted so far, picojoules.
    pub granted_pj: f64,
    /// Energy spent so far, picojoules.
    pub spent_pj: f64,
    /// Scheduler ticks skipped while over budget.
    pub deferred_ticks: u64,
    /// Pushes refused at the admission gate.
    pub quota_rejected: u64,
    /// Buffered points shed by quota escalation.
    pub quota_shed: u64,
}

/// A consistent view of the whole service, tenants sorted by name.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologySnapshot {
    /// Topology logical time.
    pub tick: u64,
    /// Per-tenant status, sorted by tenant name.
    pub tenants: Vec<TenantStatus>,
}

/// The multi-tenant topology service (see the crate docs for the
/// isolation and determinism contracts).
#[derive(Debug)]
pub struct Topology<E> {
    /// Registration order — also the scheduling base order and the
    /// fold order for [`Topology::totals`].
    tenants: Vec<Tenant<E>>,
    tick: u64,
    /// Service-level metrics (`topology.*`), separate from every
    /// tenant's private registry.
    obs: Registry,
    /// Service-level flight recorder: admission gate and scheduler
    /// decisions on the topology tick clock.
    trace: Recorder,
    /// Service-level alert rules, evaluated against `obs` every tick.
    alerts: AlertEngine,
}

impl<E: Encoder + Sync> Default for Topology<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Encoder + Sync> Topology<E> {
    /// An empty service at tick 0.
    #[must_use]
    pub fn new() -> Self {
        Self {
            tenants: Vec::new(),
            tick: 0,
            obs: Registry::new(),
            trace: Recorder::new(SERVICE_TRACE_CAPACITY),
            alerts: AlertEngine::default(),
        }
    }

    /// Build a service from a declarative tenant list, constructing
    /// each tenant's encoder from its spec. Tenants register (and
    /// therefore schedule) in list order.
    ///
    /// # Errors
    ///
    /// Any error [`Topology::add_tenant`] can raise, for any spec.
    pub fn build<F>(specs: Vec<TenantSpec>, mut make_encoder: F) -> Result<Self, TopologyError>
    where
        F: FnMut(&TenantSpec) -> E,
    {
        let mut topo = Self::new();
        for spec in specs {
            let encoder = make_encoder(&spec);
            topo.add_tenant(spec, encoder)?;
        }
        Ok(topo)
    }

    /// Register a tenant with the paper's nominal cost model and no
    /// fault injection.
    ///
    /// # Errors
    ///
    /// See [`Topology::add_tenant_with`].
    pub fn add_tenant(&mut self, spec: TenantSpec, encoder: E) -> Result<(), TopologyError> {
        self.add_tenant_with(spec, encoder, CostModel::paper(), None)
    }

    /// Register a tenant with an explicit chip cost model and,
    /// optionally, its own deterministic fault-injection stack. The
    /// tenant owns an isolated engine: its own obs registry, its own
    /// quarantine machinery, its own snapshot WAL.
    ///
    /// # Errors
    ///
    /// [`TopologyError::InvalidName`] / [`TopologyError::DuplicateTenant`]
    /// for bad names, [`TopologyError::InvalidQuota`] for bad quotas,
    /// and [`TopologyError::Stream`] when the engine config is
    /// rejected.
    pub fn add_tenant_with(
        &mut self,
        spec: TenantSpec,
        encoder: E,
        cost: CostModel,
        fault: Option<FaultConfig>,
    ) -> Result<(), TopologyError> {
        validate_name(&spec.name)?;
        spec.quota.validate()?;
        if self.tenants.iter().any(|t| t.name == spec.name) {
            return Err(TopologyError::DuplicateTenant { name: spec.name });
        }
        let mut engine = StreamEngine::with_cost_model(encoder, spec.stream, cost)?;
        if let Some(f) = fault {
            engine = engine.with_fault_injection(f)?;
        }
        self.tenants.push(Tenant {
            name: spec.name,
            engine,
            budget: EnergyBudget::per_tick(spec.quota.budget_pj_per_tick),
            quota: spec.quota,
        });
        self.obs
            .gauge(Key::TopoTenants, count_f64(self.tenants.len()));
        Ok(())
    }

    /// Offer one point to `tenant`'s ingest ring through the admission
    /// gate. Within budget the engine's configured policy applies; over
    /// budget the quota's escalation policy does (see [`QuotaSpec`]).
    ///
    /// # Errors
    ///
    /// [`TopologyError::UnknownTenant`], plus any engine push error
    /// (wrong feature count, a NaN or ±∞ feature, encode failures from
    /// an inline flush).
    pub fn push(&mut self, tenant: &str, features: &[f64]) -> Result<Admission, TopologyError> {
        let t = find_mut(&mut self.tenants, tenant)?;
        // Every branch refuses a malformed point the same way, the
        // over-budget `Reject` one included, which never pushes it.
        t.engine.validate_point(features)?;
        if !t.over_budget() {
            return Ok(Admission::InBudget(t.engine.push(features)?));
        }
        match t.quota.escalation {
            BackpressurePolicy::Reject => {
                t.engine.obs_registry().add(Key::TopoQuotaRejected, 1);
                self.obs.add(Key::TopoQuotaRejected, 1);
                self.trace.emit(
                    self.tick,
                    Event::TenantReject {
                        tenant: t.name.clone(),
                        shed: false,
                    },
                );
                Ok(Admission::QuotaRejected)
            }
            BackpressurePolicy::DropOldest => {
                let outcome = t
                    .engine
                    .push_policed(features, BackpressurePolicy::DropOldest)?;
                if outcome == PushOutcome::AcceptedDroppedOldest {
                    t.engine.obs_registry().add(Key::TopoQuotaShed, 1);
                    self.obs.add(Key::TopoQuotaShed, 1);
                    self.trace.emit(
                        self.tick,
                        Event::TenantReject {
                            tenant: t.name.clone(),
                            shed: true,
                        },
                    );
                }
                Ok(Admission::Escalated(outcome))
            }
            BackpressurePolicy::Block => Ok(Admission::Escalated(t.engine.push(features)?)),
        }
    }

    /// Advance the topology clock one tick: grant every tenant its
    /// credit, then drive tenant `tick()`s in a fixed round-robin
    /// rotation keyed by `(tick, tenant-id)` — tenant `tick % n` runs
    /// first. Over-budget tenants are deferred (their engines' logical
    /// clocks freeze) and counted under `topology.quota.deferred`.
    ///
    /// Deterministic: every tenant engine is synchronous and
    /// bit-identical across `DUAL_THREADS` values, and the rotation
    /// depends only on the tick counter and registration order.
    ///
    /// # Errors
    ///
    /// Propagates the first engine tick error (encode-stage failures).
    pub fn tick(&mut self) -> Result<TickReport, TopologyError> {
        self.tick += 1;
        self.obs.tick(1);
        let n = self.tenants.len();
        let mut entries = Vec::with_capacity(n);
        if n == 0 {
            self.alerts.eval(self.tick, &self.obs, &mut self.trace);
            return Ok(TickReport {
                tick: self.tick,
                entries,
            });
        }
        for t in &mut self.tenants {
            t.budget.grant_tick();
        }
        let start = usize::try_from(self.tick % len_u64(n)).unwrap_or(0);
        for i in 0..n {
            let idx = (start + i) % n;
            let Some(t) = self.tenants.get_mut(idx) else {
                // Unreachable: idx < n by construction.
                continue;
            };
            if t.over_budget() {
                t.engine.obs_registry().add(Key::TopoDeferred, 1);
                self.obs.add(Key::TopoDeferred, 1);
                self.trace.emit(
                    self.tick,
                    Event::TenantDefer {
                        tenant: t.name.clone(),
                    },
                );
                entries.push(TenantTick {
                    name: t.name.clone(),
                    deferred: true,
                    costs: Vec::new(),
                });
            } else {
                let costs = t.engine.tick()?;
                self.obs.add(Key::TopoScheduled, 1);
                self.trace.emit(
                    self.tick,
                    Event::TenantAdmit {
                        tenant: t.name.clone(),
                    },
                );
                entries.push(TenantTick {
                    name: t.name.clone(),
                    deferred: false,
                    costs,
                });
            }
        }
        self.alerts.eval(self.tick, &self.obs, &mut self.trace);
        Ok(TickReport {
            tick: self.tick,
            entries,
        })
    }

    /// Flush every buffered point of one tenant through its pipeline,
    /// regardless of quota (drain is an operator action, and the spend
    /// still lands on the tenant's ledger).
    ///
    /// # Errors
    ///
    /// [`TopologyError::UnknownTenant`]; engine encode errors.
    pub fn drain(&mut self, tenant: &str) -> Result<Vec<StreamBatchCost>, TopologyError> {
        let t = find_mut(&mut self.tenants, tenant)?;
        Ok(t.engine.drain()?)
    }

    /// [`Topology::drain`] for every tenant, in registration order.
    ///
    /// # Errors
    ///
    /// Stops at the first tenant whose drain fails.
    pub fn drain_all(&mut self) -> Result<Vec<(String, Vec<StreamBatchCost>)>, TopologyError> {
        let mut out = Vec::with_capacity(self.tenants.len());
        for t in &mut self.tenants {
            out.push((t.name.clone(), t.engine.drain()?));
        }
        Ok(out)
    }

    /// Capture one tenant into a named, framed checkpoint blob
    /// (`DTNP` wrapping the engine's `DSNP` snapshot; see
    /// [`dual_snap::TenantCheckpoint`]). Feed it back through
    /// [`Topology::reload`] — on this or a fresh topology.
    ///
    /// # Errors
    ///
    /// [`TopologyError::UnknownTenant`].
    pub fn checkpoint(&mut self, tenant: &str) -> Result<Vec<u8>, TopologyError> {
        let tick = self.tick;
        let t = find_mut(&mut self.tenants, tenant)?;
        let blob = TenantCheckpoint {
            name: t.name.clone(),
            topology_tick: tick,
            engine_blob: t.engine.checkpoint(),
        }
        .encode();
        self.obs.add(Key::TopoCheckpoints, 1);
        Ok(blob)
    }

    /// Restore one tenant's engine from a checkpoint previously cut by
    /// [`Topology::checkpoint`], with the paper's cost model and no
    /// fault stack.
    ///
    /// # Errors
    ///
    /// See [`Topology::reload_with`].
    pub fn reload(&mut self, tenant: &str, encoder: E, bytes: &[u8]) -> Result<(), TopologyError> {
        self.reload_with(tenant, encoder, bytes, CostModel::paper(), None)
    }

    /// [`Topology::reload`] with an explicit cost model and, for
    /// checkpoints cut under fault injection, the re-supplied
    /// [`FaultConfig`] (it must fingerprint-match the snapshot).
    ///
    /// The blob must be addressed to `tenant` — restoring another
    /// tenant's checkpoint fails with [`TopologyError::WrongTenant`]
    /// before any state changes. The tenant's quota ledger carries
    /// over untouched: reloading does not refund spent energy beyond
    /// what the restored meter itself says.
    ///
    /// # Errors
    ///
    /// [`TopologyError::UnknownTenant`], [`TopologyError::Snapshot`]
    /// on decode failures, [`TopologyError::WrongTenant`] on a name
    /// mismatch, [`TopologyError::Stream`] on restore mismatches.
    pub fn reload_with(
        &mut self,
        tenant: &str,
        encoder: E,
        bytes: &[u8],
        cost: CostModel,
        fault: Option<FaultConfig>,
    ) -> Result<(), TopologyError> {
        let cp = TenantCheckpoint::decode(bytes)?;
        let t = find_mut(&mut self.tenants, tenant)?;
        if cp.name != t.name {
            return Err(TopologyError::WrongTenant {
                expected: t.name.clone(),
                got: cp.name,
            });
        }
        t.engine = StreamEngine::restore_with(encoder, &cp.engine_blob, cost, fault)?;
        Ok(())
    }

    /// Exact aggregates over every tenant's ledger, folded in
    /// registration order. Because each tenant's meter is itself a
    /// commit-order fold, re-summing the per-tenant ledgers in the
    /// same order reproduces these totals bit-for-bit — the invariant
    /// `tenant_sweep` asserts.
    #[must_use]
    pub fn totals(&self) -> TopologyTotals {
        let mut energy_pj = 0.0f64;
        let mut time_ns = 0.0f64;
        let mut batches = 0u64;
        let mut points = 0u64;
        for t in &self.tenants {
            energy_pj += t.engine.meter().total().energy_pj();
            time_ns += t.engine.meter().total().time_ns();
            batches += t.engine.meter().batches();
            points += t.engine.meter().points();
        }
        TopologyTotals {
            energy_pj,
            time_ns,
            batches,
            points,
        }
    }

    /// One tenant's externally visible state.
    ///
    /// # Errors
    ///
    /// [`TopologyError::UnknownTenant`].
    pub fn status(&self, tenant: &str) -> Result<TenantStatus, TopologyError> {
        let t = find(&self.tenants, tenant)?;
        Ok(tenant_status(t))
    }

    /// A consistent view of the whole service, tenants sorted by name
    /// (so renders are independent of registration order).
    #[must_use]
    pub fn snapshot(&self) -> TopologySnapshot {
        let mut tenants: Vec<TenantStatus> = self.tenants.iter().map(tenant_status).collect();
        tenants.sort_by(|a, b| a.name.cmp(&b.name));
        TopologySnapshot {
            tick: self.tick,
            tenants,
        }
    }

    /// Byte-stable merged JSON: the topology's own stable metrics plus
    /// every tenant's stable obs snapshot namespaced under
    /// `tenant.<name>.*`, tenants in sorted-name order. Byte-identical
    /// across `DUAL_THREADS` values for the same push/tick schedule.
    #[must_use]
    pub fn stable_json(&self) -> String {
        use std::fmt::Write as _;
        let mut names: Vec<&str> = self.tenants.iter().map(|t| t.name.as_str()).collect();
        names.sort_unstable();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"tick\":{},\"topology\":{}",
            self.tick,
            self.obs.stable_snapshot().to_json()
        );
        out.push_str(",\"tenants\":{");
        for (i, name) in names.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let Ok(t) = find(&self.tenants, name) else {
                continue; // Unreachable: names came from self.tenants.
            };
            let prefix = format!("tenant.{name}.");
            let _ = write!(
                out,
                "\"{name}\":{}",
                t.engine
                    .obs_registry()
                    .stable_snapshot()
                    .to_json_namespaced(&prefix)
            );
        }
        out.push_str("}}");
        out
    }

    /// Borrow one tenant's engine (for seeding centroids, reading the
    /// model, or inspecting its WAL).
    ///
    /// # Errors
    ///
    /// [`TopologyError::UnknownTenant`].
    pub fn engine(&self, tenant: &str) -> Result<&StreamEngine<E>, TopologyError> {
        Ok(&find(&self.tenants, tenant)?.engine)
    }

    /// Mutably borrow one tenant's engine. Admission and scheduling
    /// invariants live in the ledgers, not the engine, so direct
    /// engine access (seeding, manual pushes in tests) stays safe —
    /// energy spent here still lands on the tenant's meter.
    ///
    /// # Errors
    ///
    /// [`TopologyError::UnknownTenant`].
    pub fn engine_mut(&mut self, tenant: &str) -> Result<&mut StreamEngine<E>, TopologyError> {
        Ok(&mut find_mut(&mut self.tenants, tenant)?.engine)
    }

    /// Tenant names in registration (= scheduling base) order.
    #[must_use]
    pub fn tenant_names(&self) -> Vec<&str> {
        self.tenants.iter().map(|t| t.name.as_str()).collect()
    }

    /// Number of registered tenants.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// True when no tenant is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Topology logical time (ticks completed).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// The service-level metrics registry (`topology.*` keys): tenant
    /// gauge, scheduled/deferred tick counters, aggregate quota
    /// counters, checkpoint counts.
    #[must_use]
    pub fn obs_registry(&self) -> &Registry {
        &self.obs
    }

    /// Install service-level alert rules, replacing any previous set.
    /// Rules are evaluated against the service registry (`topology.*`
    /// keys) at the end of every [`Topology::tick`]; raise/clear
    /// transitions land in the service flight recorder as
    /// [`Event::Alert`] records on the topology tick clock.
    ///
    /// # Errors
    ///
    /// [`TopologyError::InvalidAlert`] for empty/duplicate names,
    /// non-finite thresholds, or `clear > threshold`.
    pub fn set_alerts(&mut self, rules: Vec<AlertRule>) -> Result<(), TopologyError> {
        self.alerts = AlertEngine::new(rules).map_err(|e| match e {
            TraceError::InvalidRule { rule, reason } => {
                TopologyError::InvalidAlert { rule, reason }
            }
            TraceError::RestoreShape { reason } => TopologyError::InvalidAlert {
                rule: String::new(),
                reason,
            },
        })?;
        Ok(())
    }

    /// The service-level flight recorder: admission gate refusals,
    /// scheduler admit/defer decisions, and alert transitions, all on
    /// the topology tick clock.
    #[must_use]
    pub fn trace(&self) -> &Recorder {
        &self.trace
    }

    /// Named recorder streams for the merged exporters: the service
    /// recorder first (as `"topology"`), then every tenant's engine
    /// recorder in sorted-name order — independent of registration
    /// order, so renders are byte-stable.
    fn trace_streams(&self) -> Vec<(&str, &Recorder)> {
        let mut tenants: Vec<(&str, &Recorder)> = self
            .tenants
            .iter()
            .map(|t| (t.name.as_str(), t.engine.trace()))
            .collect();
        tenants.sort_unstable_by_key(|(name, _)| *name);
        let mut streams = Vec::with_capacity(tenants.len() + 1);
        streams.push(("topology", &self.trace));
        streams.extend(tenants);
        streams
    }

    /// Byte-stable Chrome `trace_event` document merging the service
    /// recorder and every tenant's flight recorder — one viewer
    /// process per stream, `"topology"` first, tenants in sorted-name
    /// order. Load it in `chrome://tracing` or Perfetto.
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        dual_trace::chrome_trace(&self.trace_streams())
    }

    /// Byte-stable compact trace report over the same stream set as
    /// [`Topology::chrome_trace`] (see [`dual_trace::report_json`]).
    /// Byte-identical across `DUAL_THREADS` values for the same
    /// push/tick schedule.
    #[must_use]
    pub fn trace_report(&self) -> String {
        dual_trace::report_json(&self.trace_streams())
    }

    /// Prometheus exposition text for the whole service: every metric
    /// rendered once per registry with a `tenant` label — the service
    /// registry as `tenant="topology"` first, then each tenant's
    /// registry under its own name, in sorted-name order.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut regs: Vec<(&str, &Registry)> = self
            .tenants
            .iter()
            .map(|t| (t.name.as_str(), t.engine.obs_registry()))
            .collect();
        regs.sort_unstable_by_key(|(name, _)| *name);
        let mut streams = Vec::with_capacity(regs.len() + 1);
        streams.push(("topology", &self.obs));
        streams.extend(regs);
        dual_obs::to_prometheus_merged("tenant", &streams)
    }
}

fn tenant_status<E: Encoder + Sync>(t: &Tenant<E>) -> TenantStatus {
    let reg = t.engine.obs_registry();
    TenantStatus {
        name: t.name.clone(),
        snapshot: t.engine.snapshot(),
        fault: t.engine.fault_status(),
        quota_rate_pj: t.budget.rate_pj(),
        granted_pj: t.budget.granted_pj(),
        spent_pj: t.spent_pj(),
        deferred_ticks: reg.counter(Key::TopoDeferred),
        quota_rejected: reg.counter(Key::TopoQuotaRejected),
        quota_shed: reg.counter(Key::TopoQuotaShed),
    }
}

fn find<'a, E>(tenants: &'a [Tenant<E>], name: &str) -> Result<&'a Tenant<E>, TopologyError> {
    tenants
        .iter()
        .find(|t| t.name == name)
        .ok_or_else(|| TopologyError::UnknownTenant { name: name.into() })
}

fn find_mut<'a, E>(
    tenants: &'a mut [Tenant<E>],
    name: &str,
) -> Result<&'a mut Tenant<E>, TopologyError> {
    tenants
        .iter_mut()
        .find(|t| t.name == name)
        .ok_or_else(|| TopologyError::UnknownTenant { name: name.into() })
}

/// Small-count `usize` → `f64` for the tenant gauge (tenant counts are
/// tiny; the clamp only guards the type conversion).
fn count_f64(n: usize) -> f64 {
    f64::from(u32::try_from(n).unwrap_or(u32::MAX))
}

/// `usize` → `u64`, lossless on every supported target.
fn len_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}
