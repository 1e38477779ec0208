//! # dual-topology — multi-tenant topology service over StreamEngines
//!
//! One process, N named tenants, one chip-cost story. Each tenant is a
//! fully isolated [`dual_stream::StreamEngine`] — its own obs
//! [`dual_obs::Registry`], its own fault-quarantine stack, its own
//! snapshot WAL — hosted behind a source→engine→sink pipeline the
//! [`Topology`] drives. The service owns four things the engines
//! themselves cannot:
//!
//! 1. **Admission control** — per-tenant ingest quotas priced in chip
//!    energy: each topology tick grants a tenant
//!    [`QuotaSpec::budget_pj_per_tick`] picojoules of credit (a
//!    `dual_pim::EnergyBudget` ledger); while the tenant's
//!    `StreamMeter` has spent past its credit, pushes escalate through
//!    the familiar ring policies (Block = stay lossless, DropOldest =
//!    shed stalest, Reject = refuse at the gate).
//! 2. **Deterministic fair-share scheduling** — [`Topology::tick`]
//!    drives tenant `tick()`s in a fixed round-robin rotation keyed by
//!    `(tick, tenant-id)`; over-budget tenants defer (their logical
//!    clocks freeze — energy-priced time dilation). Every engine is
//!    synchronous and bit-identical across `DUAL_THREADS` values, so
//!    the whole topology is too.
//! 3. **Lifecycle** — per-tenant [`Topology::drain`] /
//!    [`Topology::checkpoint`] / [`Topology::reload`] (named `DTNP`
//!    frames over `dual-snap`), and a merged [`Topology::stable_json`]
//!    export namespacing each tenant's stable metrics under
//!    `tenant.<name>.*`.
//! 4. **Cross-tenant observability** — a service-level flight
//!    recorder ([`Topology::trace`]) capturing admission refusals,
//!    scheduler admit/defer decisions, and [`Topology::set_alerts`]
//!    rule transitions on the topology tick clock; merged byte-stable
//!    exports over every tenant's recorder
//!    ([`Topology::chrome_trace`] / [`Topology::trace_report`]) and a
//!    tenant-labelled Prometheus exposition
//!    ([`Topology::to_prometheus`]).
//!
//! ## Isolation contract
//!
//! Tenants share *nothing* but the scheduler and the chip cost model:
//! a fault storm, quota exhaustion, or drain in one tenant cannot
//! change another tenant's centroids, energy ledger, or obs snapshot
//! (proven by `tests/tests/topology.rs` and the `tenant_sweep` bench).
//! Per-tenant energy ledgers sum *exactly* (bit-for-bit) to
//! [`Topology::totals`], which folds them in registration order.
//!
//! ## Quickstart
//!
//! ```rust
//! use dual_hdc::HdMapper;
//! use dual_stream::StreamConfig;
//! use dual_topology::{QuotaSpec, TenantSpec, Topology};
//!
//! let specs = vec![
//!     TenantSpec::new("alice", StreamConfig::new(4)),
//!     TenantSpec::new("bob", StreamConfig::new(2)).with_quota(QuotaSpec::per_tick(50_000.0)),
//! ];
//! let mut topo = Topology::build(specs, |spec| {
//!     HdMapper::builder(1000, 3).seed(7).build().expect("valid encoder")
//! })
//! .expect("valid topology");
//!
//! topo.push("alice", &[0.1, 0.2, 0.3]).expect("known tenant");
//! topo.push("bob", &[1.0, 1.0, 1.0]).expect("known tenant");
//! let report = topo.tick().expect("tick");
//! assert_eq!(report.entries.len(), 2);
//! let json = topo.stable_json();
//! assert!(json.contains("\"tenant.alice.stream.ingested\":1"));
//! ```

#![forbid(unsafe_code)]
// Operator errors must surface as typed `TopologyError`s, never
// aborts: the panic lints are denied outright in lib code (tests are
// exempt via .clippy.toml).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![warn(missing_docs)]

mod config;
mod error;
mod service;

pub use config::{QuotaSpec, TenantSpec};
pub use error::TopologyError;
pub use service::{
    Admission, TenantStatus, TenantTick, TickReport, Topology, TopologySnapshot, TopologyTotals,
};

#[cfg(test)]
mod tests {
    use super::*;
    use dual_hdc::HdMapper;
    use dual_obs::Key;
    use dual_stream::{BackpressurePolicy, PushOutcome, StreamConfig, StreamError};

    fn encoder() -> HdMapper {
        HdMapper::builder(256, 3)
            .seed(7)
            .build()
            .expect("valid encoder")
    }

    fn small_config() -> StreamConfig {
        let mut cfg = StreamConfig::new(2);
        cfg.capacity = 8;
        cfg.max_batch = 4;
        cfg.max_ticks = 2;
        cfg.shards = 1;
        cfg
    }

    fn point(i: usize) -> Vec<f64> {
        let v = i as f64;
        vec![v * 0.1, v * 0.2, 1.0 - v * 0.05]
    }

    #[test]
    fn push_refuses_non_finite_features_with_a_typed_error() {
        let mut topo = Topology::new();
        topo.add_tenant(TenantSpec::new("a", small_config()), encoder())
            .unwrap();
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                topo.push("a", &[0.0, 1.0, x]),
                Err(TopologyError::Stream(StreamError::NonFiniteFeature {
                    index: 2
                }))
            ));
        }
        assert_eq!(topo.engine("a").unwrap().pending(), 0);

        // Over budget with a `Reject` escalation, the gate refuses a
        // malformed point with the same errors and counts no rejection.
        let mut topo = Topology::new();
        topo.add_tenant(
            TenantSpec::new("a", small_config()).with_quota(QuotaSpec::per_tick(0.0)),
            encoder(),
        )
        .unwrap();
        for i in 0..4 {
            topo.push("a", &point(i)).unwrap();
        }
        topo.tick().unwrap();
        assert_eq!(topo.push("a", &point(9)).unwrap(), Admission::QuotaRejected);
        assert!(matches!(
            topo.push("a", &[f64::NAN, 0.0, 0.0]),
            Err(TopologyError::Stream(StreamError::NonFiniteFeature {
                index: 0
            }))
        ));
        assert!(matches!(
            topo.push("a", &[0.0, 1.0]),
            Err(TopologyError::Stream(StreamError::FeatureLength {
                expected: 3,
                got: 2
            }))
        ));
        assert_eq!(topo.status("a").unwrap().quota_rejected, 1);
        assert_eq!(topo.obs_registry().counter(Key::TopoQuotaRejected), 1);
    }

    #[test]
    fn registration_enforces_names_and_uniqueness() {
        let mut topo = Topology::new();
        topo.add_tenant(TenantSpec::new("a", small_config()), encoder())
            .unwrap();
        assert!(matches!(
            topo.add_tenant(TenantSpec::new("a", small_config()), encoder()),
            Err(TopologyError::DuplicateTenant { .. })
        ));
        assert!(matches!(
            topo.add_tenant(TenantSpec::new("a.b", small_config()), encoder()),
            Err(TopologyError::InvalidName { .. })
        ));
        assert!(matches!(
            topo.add_tenant(
                TenantSpec::new("c", small_config()).with_quota(QuotaSpec::per_tick(f64::NAN)),
                encoder()
            ),
            Err(TopologyError::InvalidQuota { .. })
        ));
        assert_eq!(topo.len(), 1);
        assert_eq!(topo.tenant_names(), vec!["a"]);
        assert_eq!(
            topo.obs_registry().gauge_value(Key::TopoTenants).to_bits(),
            1.0f64.to_bits()
        );
    }

    #[test]
    fn unknown_tenants_are_typed_errors_everywhere() {
        let mut topo: Topology<HdMapper> = Topology::new();
        assert!(matches!(
            topo.push("ghost", &[0.0; 3]),
            Err(TopologyError::UnknownTenant { .. })
        ));
        assert!(matches!(
            topo.drain("ghost"),
            Err(TopologyError::UnknownTenant { .. })
        ));
        assert!(matches!(
            topo.checkpoint("ghost"),
            Err(TopologyError::UnknownTenant { .. })
        ));
        assert!(matches!(
            topo.status("ghost"),
            Err(TopologyError::UnknownTenant { .. })
        ));
        assert!(matches!(
            topo.engine("ghost"),
            Err(TopologyError::UnknownTenant { .. })
        ));
    }

    #[test]
    fn in_budget_pushes_use_engine_policy() {
        let mut topo = Topology::new();
        topo.add_tenant(TenantSpec::new("a", small_config()), encoder())
            .unwrap();
        let adm = topo.push("a", &point(0)).unwrap();
        assert_eq!(adm, Admission::InBudget(PushOutcome::Accepted));
        assert_eq!(adm.outcome(), Some(PushOutcome::Accepted));
    }

    #[test]
    fn over_budget_reject_refuses_at_the_gate() {
        let mut topo = Topology::new();
        // Zero credit per tick: over budget the moment anything spends.
        topo.add_tenant(
            TenantSpec::new("a", small_config()).with_quota(QuotaSpec::per_tick(0.0)),
            encoder(),
        )
        .unwrap();
        for i in 0..4 {
            assert_eq!(
                topo.push("a", &point(i)).unwrap(),
                Admission::InBudget(PushOutcome::Accepted)
            );
        }
        // Tick: batch is cut (spend > 0), tenant now over budget.
        let report = topo.tick().unwrap();
        assert!(!report.entries[0].deferred);
        assert!(!report.entries[0].costs.is_empty());
        let adm = topo.push("a", &point(9)).unwrap();
        assert_eq!(adm, Admission::QuotaRejected);
        assert_eq!(adm.outcome(), None);
        let status = topo.status("a").unwrap();
        assert_eq!(status.quota_rejected, 1);
        assert!(status.spent_pj > status.granted_pj);
        // The refused point never reached the ring.
        assert_eq!(topo.engine("a").unwrap().pending(), 0);
        // Subsequent ticks defer the engine (clock frozen).
        let before = topo.engine("a").unwrap().now();
        let report = topo.tick().unwrap();
        assert!(report.entries[0].deferred);
        assert_eq!(topo.engine("a").unwrap().now(), before);
        assert_eq!(topo.status("a").unwrap().deferred_ticks, 1);
    }

    #[test]
    fn over_budget_drop_oldest_sheds_only_on_eviction() {
        let mut topo = Topology::new();
        topo.add_tenant(
            TenantSpec::new("a", small_config()).with_quota(
                QuotaSpec::per_tick(0.0).with_escalation(BackpressurePolicy::DropOldest),
            ),
            encoder(),
        )
        .unwrap();
        for i in 0..4 {
            topo.push("a", &point(i)).unwrap();
        }
        topo.tick().unwrap(); // spend; now over budget forever
                              // Ring has room: escalated pushes still accept without loss.
        let adm = topo.push("a", &point(4)).unwrap();
        assert_eq!(adm, Admission::Escalated(PushOutcome::Accepted));
        assert_eq!(topo.status("a").unwrap().quota_shed, 0);
        // Fill the ring (capacity 8, emptied by the tick's cut), then
        // overflow it: the stalest buffered point is shed.
        for i in 5..13 {
            topo.push("a", &point(i)).unwrap();
        }
        let shed = topo.status("a").unwrap().quota_shed;
        assert!(shed > 0, "overflow under DropOldest escalation must shed");
        assert_eq!(topo.engine("a").unwrap().pending(), 8);
    }

    #[test]
    fn block_escalation_keeps_the_engine_policy() {
        let mut topo = Topology::new();
        topo.add_tenant(
            TenantSpec::new("a", small_config())
                .with_quota(QuotaSpec::per_tick(0.0).with_escalation(BackpressurePolicy::Block)),
            encoder(),
        )
        .unwrap();
        for i in 0..4 {
            topo.push("a", &point(i)).unwrap();
        }
        topo.tick().unwrap();
        let adm = topo.push("a", &point(4)).unwrap();
        assert_eq!(adm, Admission::Escalated(PushOutcome::Accepted));
        let status = topo.status("a").unwrap();
        assert_eq!(status.quota_shed, 0);
        assert_eq!(status.quota_rejected, 0);
    }

    #[test]
    fn scheduler_rotates_start_tenant_by_tick() {
        let mut topo = Topology::new();
        for name in ["a", "b", "c"] {
            topo.add_tenant(TenantSpec::new(name, small_config()), encoder())
                .unwrap();
        }
        // Tick 1 starts at index 1 % 3 = 1 ("b"), tick 2 at "c", …
        let r1 = topo.tick().unwrap();
        let order1: Vec<&str> = r1.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(order1, vec!["b", "c", "a"]);
        let r2 = topo.tick().unwrap();
        let order2: Vec<&str> = r2.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(order2, vec!["c", "a", "b"]);
        assert_eq!(topo.now(), 2);
    }

    #[test]
    fn totals_are_the_exact_registration_order_fold() {
        let mut topo = Topology::new();
        for name in ["a", "b", "c"] {
            topo.add_tenant(TenantSpec::new(name, small_config()), encoder())
                .unwrap();
        }
        for i in 0..6 {
            for name in ["a", "b", "c"] {
                topo.push(name, &point(i)).unwrap();
            }
        }
        for _ in 0..4 {
            topo.tick().unwrap();
        }
        let totals = topo.totals();
        let mut energy = 0.0f64;
        let mut time = 0.0f64;
        for name in ["a", "b", "c"] {
            let m = topo.engine(name).unwrap().meter();
            energy += m.total().energy_pj();
            time += m.total().time_ns();
        }
        assert_eq!(totals.energy_pj.to_bits(), energy.to_bits());
        assert_eq!(totals.time_ns.to_bits(), time.to_bits());
        assert!(totals.batches > 0 && totals.points == 18);
    }

    #[test]
    fn checkpoint_reload_round_trips_one_tenant() {
        let mut topo = Topology::new();
        topo.add_tenant(TenantSpec::new("a", small_config()), encoder())
            .unwrap();
        topo.add_tenant(TenantSpec::new("b", small_config()), encoder())
            .unwrap();
        for i in 0..8 {
            topo.push("a", &point(i)).unwrap();
            topo.push("b", &point(i + 3)).unwrap();
        }
        for _ in 0..3 {
            topo.tick().unwrap();
        }
        let blob = topo.checkpoint("a").unwrap();
        let before = topo.engine("a").unwrap().snapshot();
        // Mutate "a" past the checkpoint, then reload it.
        for i in 0..5 {
            topo.push("a", &point(i)).unwrap();
        }
        topo.drain("a").unwrap();
        assert_ne!(topo.engine("a").unwrap().snapshot(), before);
        topo.reload("a", encoder(), &blob).unwrap();
        assert_eq!(topo.engine("a").unwrap().snapshot(), before);
        // Reloading "a"'s blob into "b" is refused by name.
        assert!(matches!(
            topo.reload("b", encoder(), &blob),
            Err(TopologyError::WrongTenant { .. })
        ));
        // Garbage fails closed.
        assert!(matches!(
            topo.reload("a", encoder(), b"DTNPgarbage"),
            Err(TopologyError::Snapshot(_))
        ));
        assert_eq!(topo.obs_registry().counter(Key::TopoCheckpoints), 1);
    }

    #[test]
    fn stable_json_namespaces_tenants_in_sorted_order() {
        let mut topo = Topology::new();
        // Register out of sorted order on purpose.
        for name in ["zeta", "alpha"] {
            topo.add_tenant(TenantSpec::new(name, small_config()), encoder())
                .unwrap();
        }
        topo.push("zeta", &point(1)).unwrap();
        topo.tick().unwrap();
        let json = topo.stable_json();
        assert!(json.starts_with("{\"tick\":1,\"topology\":{"));
        assert!(json.contains("\"tenant.zeta.stream.ingested\":1"));
        assert!(json.contains("\"tenant.alpha.stream.ingested\":0"));
        let alpha = json.find("\"alpha\":").expect("alpha present");
        let zeta = json.find("\"zeta\":").expect("zeta present");
        assert!(alpha < zeta, "tenants must render in sorted-name order");
        // Byte-stable: an identical run renders identical bytes.
        let mut again = Topology::new();
        for name in ["zeta", "alpha"] {
            again
                .add_tenant(TenantSpec::new(name, small_config()), encoder())
                .unwrap();
        }
        again.push("zeta", &point(1)).unwrap();
        again.tick().unwrap();
        assert_eq!(json, again.stable_json());
    }

    #[test]
    fn service_trace_records_admission_and_scheduling() {
        use dual_trace::Event;
        let mut topo = Topology::new();
        topo.add_tenant(
            TenantSpec::new("a", small_config()).with_quota(QuotaSpec::per_tick(0.0)),
            encoder(),
        )
        .unwrap();
        for i in 0..4 {
            topo.push("a", &point(i)).unwrap();
        }
        topo.tick().unwrap(); // scheduled: admit; spend makes it over budget
        assert_eq!(topo.push("a", &point(9)).unwrap(), Admission::QuotaRejected);
        topo.tick().unwrap(); // over budget: defer
        let kinds: Vec<(&str, u64)> = topo
            .trace()
            .events()
            .map(|r| (r.event.kind(), r.tick))
            .collect();
        assert_eq!(
            kinds,
            vec![
                ("tenant.admit", 1),
                ("tenant.reject", 1),
                ("tenant.defer", 2),
            ]
        );
        let names: Vec<&str> = topo
            .trace()
            .events()
            .filter_map(|r| match &r.event {
                Event::TenantAdmit { tenant }
                | Event::TenantDefer { tenant }
                | Event::TenantReject { tenant, .. } => Some(tenant.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(names, vec!["a", "a", "a"]);
    }

    #[test]
    fn quota_shed_is_traced_as_a_shedding_reject() {
        use dual_trace::Event;
        let mut topo = Topology::new();
        topo.add_tenant(
            TenantSpec::new("a", small_config()).with_quota(
                QuotaSpec::per_tick(0.0).with_escalation(BackpressurePolicy::DropOldest),
            ),
            encoder(),
        )
        .unwrap();
        for i in 0..4 {
            topo.push("a", &point(i)).unwrap();
        }
        topo.tick().unwrap();
        for i in 4..14 {
            topo.push("a", &point(i)).unwrap();
        }
        let sheds = topo
            .trace()
            .events()
            .filter(|r| matches!(r.event, Event::TenantReject { shed: true, .. }))
            .count();
        assert_eq!(
            u64::try_from(sheds).unwrap(),
            topo.status("a").unwrap().quota_shed
        );
        assert!(sheds > 0);
    }

    #[test]
    fn service_alerts_fire_on_topology_counters() {
        use dual_trace::{AlertRule, Event, Signal};
        let mut topo = Topology::new();
        topo.add_tenant(
            TenantSpec::new("a", small_config()).with_quota(QuotaSpec::per_tick(0.0)),
            encoder(),
        )
        .unwrap();
        topo.set_alerts(vec![AlertRule::edge(
            "deferral-storm",
            Signal::Delta(Key::TopoDeferred),
            1.0,
        )])
        .unwrap();
        for i in 0..4 {
            topo.push("a", &point(i)).unwrap();
        }
        topo.tick().unwrap(); // scheduled: no deferrals yet
        assert_eq!(topo.trace().alerts_raised(), 0);
        topo.tick().unwrap(); // deferred: delta 1 >= threshold
        assert_eq!(topo.trace().alerts_raised(), 1);
        let raised: Vec<(String, bool)> = topo
            .trace()
            .events()
            .filter_map(|r| match &r.event {
                Event::Alert { rule, raised, .. } => Some((rule.clone(), *raised)),
                _ => None,
            })
            .collect();
        assert_eq!(raised, vec![("deferral-storm".to_owned(), true)]);
        // Invalid rules are refused with a typed error.
        assert!(matches!(
            topo.set_alerts(vec![AlertRule {
                name: "bad".to_owned(),
                signal: Signal::Gauge(Key::TopoTenants),
                threshold: 1.0,
                clear: 2.0,
            }]),
            Err(TopologyError::InvalidAlert { .. })
        ));
    }

    #[test]
    fn merged_trace_exports_order_streams_by_name() {
        let mut topo = Topology::new();
        for name in ["zeta", "alpha"] {
            topo.add_tenant(TenantSpec::new(name, small_config()), encoder())
                .unwrap();
        }
        topo.push("zeta", &point(1)).unwrap();
        topo.tick().unwrap();
        let chrome = topo.chrome_trace();
        let topo_pos = chrome.find("\"args\":{\"name\":\"topology\"}").unwrap();
        let alpha_pos = chrome.find("\"args\":{\"name\":\"alpha\"}").unwrap();
        let zeta_pos = chrome.find("\"args\":{\"name\":\"zeta\"}").unwrap();
        assert!(topo_pos < alpha_pos && alpha_pos < zeta_pos);
        let report = topo.trace_report();
        assert!(report.contains("\"name\": \"topology\""));
        assert!(report.contains("\"kind\":\"tenant.admit\""));
        // Byte-stable: an identical schedule renders identical bytes.
        let mut again = Topology::new();
        for name in ["zeta", "alpha"] {
            again
                .add_tenant(TenantSpec::new(name, small_config()), encoder())
                .unwrap();
        }
        again.push("zeta", &point(1)).unwrap();
        again.tick().unwrap();
        assert_eq!(report, again.trace_report());
        assert_eq!(chrome, again.chrome_trace());
    }

    #[test]
    fn prometheus_export_namespaces_tenants() {
        let mut topo = Topology::new();
        for name in ["zeta", "alpha"] {
            topo.add_tenant(TenantSpec::new(name, small_config()), encoder())
                .unwrap();
        }
        topo.push("zeta", &point(1)).unwrap();
        topo.tick().unwrap();
        let prom = topo.to_prometheus();
        assert!(prom.contains("# TYPE dual_topology_tenants gauge"));
        assert!(prom.contains("dual_topology_tenants{tenant=\"topology\"} 2"));
        assert!(prom.contains("dual_stream_ingested_total{tenant=\"zeta\"} 1"));
        assert!(prom.contains("dual_stream_ingested_total{tenant=\"alpha\"} 0"));
        // Within a metric family: service first, tenants sorted.
        let t = prom
            .find("dual_topology_scheduled_ticks_total{tenant=\"topology\"}")
            .unwrap();
        let a = prom
            .find("dual_topology_scheduled_ticks_total{tenant=\"alpha\"}")
            .unwrap();
        let z = prom
            .find("dual_topology_scheduled_ticks_total{tenant=\"zeta\"}")
            .unwrap();
        assert!(t < a && a < z);
        assert_eq!(prom, topo.to_prometheus(), "render is pure");
    }

    #[test]
    fn drain_ignores_quota_but_charges_the_ledger() {
        let mut topo = Topology::new();
        topo.add_tenant(
            TenantSpec::new("a", small_config()).with_quota(QuotaSpec::per_tick(0.0)),
            encoder(),
        )
        .unwrap();
        for i in 0..4 {
            topo.push("a", &point(i)).unwrap();
        }
        topo.tick().unwrap(); // over budget now
        for i in 0..3 {
            // Rejected at the gate, so hand-feed the engine directly.
            assert_eq!(topo.push("a", &point(i)).unwrap(), Admission::QuotaRejected);
            topo.engine_mut("a").unwrap().push(&point(i)).unwrap();
        }
        let costs = topo.drain("a").unwrap();
        assert!(!costs.is_empty());
        assert_eq!(topo.engine("a").unwrap().pending(), 0);
        let status = topo.status("a").unwrap();
        assert!(status.spent_pj > status.granted_pj);
    }
}
