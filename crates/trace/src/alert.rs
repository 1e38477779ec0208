//! Tick-clock alerting: declarative threshold rules with hysteresis,
//! evaluated against a `dual_obs::Registry` on the logical tick clock.
//!
//! No wall clock, no sampling jitter: a rule watches one deterministic
//! signal (a counter's absolute value, its per-evaluation delta, or a
//! gauge), latches when the value reaches `threshold`, and re-arms when
//! it falls back to `clear`. Both transitions record an
//! [`Event::Alert`] in the flight recorder, so alert history replays
//! bit-identically from a dual-snap checkpoint on every `DUAL_THREADS`
//! setting.

use crate::error::TraceError;
use crate::event::Event;
use crate::recorder::Recorder;
use dual_obs::{Key, Registry};

/// Which deterministic value a rule watches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Signal {
    /// A counter's absolute value.
    Counter(Key),
    /// A counter's increase since the previous evaluation — the
    /// "rising edge" / rate-per-tick shape (e.g. quarantine trips this
    /// tick, quota defers per scheduler pass).
    Delta(Key),
    /// A gauge's current value (e.g. ring occupancy).
    Gauge(Key),
}

impl Signal {
    /// Stable wire tag for checkpointing.
    #[must_use]
    pub fn wire(self) -> (u8, Key) {
        match self {
            Self::Counter(k) => (0, k),
            Self::Delta(k) => (1, k),
            Self::Gauge(k) => (2, k),
        }
    }

    /// Inverse of [`Signal::wire`]; `None` for unknown tags.
    #[must_use]
    pub fn from_wire(tag: u8, key: Key) -> Option<Self> {
        match tag {
            0 => Some(Self::Counter(key)),
            1 => Some(Self::Delta(key)),
            2 => Some(Self::Gauge(key)),
            _ => None,
        }
    }
}

/// One declarative alert rule. Fires (records a raised
/// [`Event::Alert`]) when the signal reaches `threshold` while armed;
/// re-arms (records a cleared alert) when it falls to `clear` or
/// below. `clear <= threshold` is the hysteresis band that keeps a
/// value oscillating around the threshold from spamming transitions.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Unique rule name, surfaced in the alert events.
    pub name: String,
    /// The deterministic value to watch.
    pub signal: Signal,
    /// Raise when `value >= threshold`.
    pub threshold: f64,
    /// Re-arm when `value <= clear`.
    pub clear: f64,
}

impl AlertRule {
    /// A rule with `clear == threshold` (no hysteresis band).
    #[must_use]
    pub fn edge(name: &str, signal: Signal, threshold: f64) -> Self {
        Self {
            name: name.to_owned(),
            signal,
            threshold,
            clear: threshold,
        }
    }

    fn validate(&self) -> Result<(), TraceError> {
        if self.name.is_empty() {
            return Err(TraceError::InvalidRule {
                rule: self.name.clone(),
                reason: "name must be non-empty",
            });
        }
        if !self.threshold.is_finite() || !self.clear.is_finite() {
            return Err(TraceError::InvalidRule {
                rule: self.name.clone(),
                reason: "threshold and clear must be finite",
            });
        }
        if self.clear > self.threshold {
            return Err(TraceError::InvalidRule {
                rule: self.name.clone(),
                reason: "clear must not exceed threshold",
            });
        }
        Ok(())
    }
}

/// Per-rule evaluation state, checkpointable alongside the recorder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlertRuleState {
    /// True while raised (waiting for the value to fall to `clear`).
    pub latched: bool,
    /// Previous sample, the baseline for [`Signal::Delta`].
    pub last: f64,
}

/// Evaluates a fixed rule list against a registry, recording alert
/// transitions into a [`Recorder`].
#[derive(Debug, Clone)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    states: Vec<AlertRuleState>,
}

impl Default for AlertEngine {
    /// An engine with no rules: every evaluation is a no-op.
    fn default() -> Self {
        Self {
            rules: Vec::new(),
            states: Vec::new(),
        }
    }
}

impl AlertEngine {
    /// An engine over `rules`, all armed. Rejects invalid rules and
    /// duplicate names.
    pub fn new(rules: Vec<AlertRule>) -> Result<Self, TraceError> {
        for (i, r) in rules.iter().enumerate() {
            r.validate()?;
            if rules[..i].iter().any(|p| p.name == r.name) {
                return Err(TraceError::InvalidRule {
                    rule: r.name.clone(),
                    reason: "duplicate rule name",
                });
            }
        }
        let states = vec![
            AlertRuleState {
                latched: false,
                last: 0.0,
            };
            rules.len()
        ];
        Ok(Self { rules, states })
    }

    /// Rebuild from checkpointed per-rule states (paired with the rule
    /// list in declaration order).
    pub fn from_states(
        rules: Vec<AlertRule>,
        states: Vec<AlertRuleState>,
    ) -> Result<Self, TraceError> {
        let mut engine = Self::new(rules)?;
        if states.len() != engine.rules.len() {
            return Err(TraceError::RestoreShape {
                reason: "alert state count != rule count",
            });
        }
        engine.states = states;
        Ok(engine)
    }

    /// The rule list, in evaluation order.
    #[must_use]
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// Per-rule states, parallel to [`AlertEngine::rules`].
    #[must_use]
    pub fn states(&self) -> &[AlertRuleState] {
        &self.states
    }

    /// Count of currently latched (raised, uncleared) rules.
    #[must_use]
    pub fn latched(&self) -> u64 {
        self.states.iter().filter(|s| s.latched).count() as u64
    }

    /// `u64 → f64` for threshold comparison; exact below `2^53`, far
    /// beyond any realistic event count.
    #[expect(
        clippy::cast_precision_loss,
        reason = "exact below 2^53, far beyond any realistic event count"
    )]
    fn counter_f64(reg: &Registry, key: Key) -> f64 {
        reg.counter(key) as f64
    }

    fn sample(reg: &Registry, signal: Signal, last: f64) -> f64 {
        match signal {
            Signal::Counter(k) => Self::counter_f64(reg, k),
            Signal::Delta(k) => Self::counter_f64(reg, k) - last,
            Signal::Gauge(k) => reg.gauge_value(k),
        }
    }

    /// Evaluate every rule at `tick`, recording raise/clear transitions
    /// into `rec`. Returns how many rules raised this evaluation.
    pub fn eval(&mut self, tick: u64, reg: &Registry, rec: &mut Recorder) -> u64 {
        let mut raised = 0;
        for (rule, state) in self.rules.iter().zip(self.states.iter_mut()) {
            let value = Self::sample(reg, rule.signal, state.last);
            if let Signal::Delta(_) = rule.signal {
                state.last += value;
            }
            if !state.latched && value >= rule.threshold {
                state.latched = true;
                raised += 1;
                rec.emit(
                    tick,
                    Event::Alert {
                        rule: rule.name.clone(),
                        value,
                        raised: true,
                    },
                );
            } else if state.latched && value <= rule.clear {
                state.latched = false;
                rec.emit(
                    tick,
                    Event::Alert {
                        rule: rule.name.clone(),
                        value,
                        raised: false,
                    },
                );
            }
        }
        raised
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dual_obs::Key;

    fn recorder() -> Recorder {
        Recorder::new(64)
    }

    fn alerts(rec: &Recorder) -> Vec<(String, bool)> {
        rec.events()
            .filter_map(|r| match &r.event {
                Event::Alert { rule, raised, .. } => Some((rule.clone(), *raised)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn rising_edge_fires_once_until_cleared() {
        let reg = Registry::new();
        let mut rec = recorder();
        let mut eng = AlertEngine::new(vec![AlertRule::edge(
            "quarantine-edge",
            Signal::Delta(Key::FaultQuarantined),
            1.0,
        )])
        .expect("valid rule");

        assert_eq!(eng.eval(0, &reg, &mut rec), 0, "quiet registry");
        reg.add(Key::FaultQuarantined, 2);
        assert_eq!(eng.eval(1, &reg, &mut rec), 1, "edge fires");
        assert_eq!(eng.eval(2, &reg, &mut rec), 0, "delta fell to 0: clears");
        reg.add(Key::FaultQuarantined, 1);
        assert_eq!(eng.eval(3, &reg, &mut rec), 1, "new edge fires again");
        assert_eq!(
            alerts(&rec),
            vec![
                ("quarantine-edge".to_owned(), true),
                ("quarantine-edge".to_owned(), false),
                ("quarantine-edge".to_owned(), true),
            ]
        );
    }

    #[test]
    fn hysteresis_band_suppresses_flapping() {
        let reg = Registry::new();
        let mut rec = recorder();
        let mut eng = AlertEngine::new(vec![AlertRule {
            name: "occupancy".to_owned(),
            signal: Signal::Gauge(Key::StreamRingOccupancy),
            threshold: 0.9,
            clear: 0.5,
        }])
        .expect("valid rule");

        for (tick, v, fired) in [
            (0, 0.95, 1u64),
            (1, 0.8, 0),
            (2, 0.92, 0),
            (3, 0.4, 0),
            (4, 0.95, 1),
        ] {
            reg.gauge(Key::StreamRingOccupancy, v);
            assert_eq!(eng.eval(tick, &reg, &mut rec), fired, "tick {tick}");
        }
        let seen = alerts(&rec);
        assert_eq!(
            seen,
            vec![
                ("occupancy".to_owned(), true),
                ("occupancy".to_owned(), false),
                ("occupancy".to_owned(), true),
            ],
            "dips inside the band neither clear nor re-fire"
        );
    }

    #[test]
    fn invalid_rules_are_rejected() {
        assert!(AlertEngine::new(vec![AlertRule {
            name: "bad".to_owned(),
            signal: Signal::Counter(Key::StreamIngested),
            threshold: 1.0,
            clear: 2.0,
        }])
        .is_err());
        assert!(AlertEngine::new(vec![
            AlertRule::edge("dup", Signal::Counter(Key::StreamIngested), 1.0),
            AlertRule::edge("dup", Signal::Counter(Key::StreamBatches), 1.0),
        ])
        .is_err());
        assert!(AlertEngine::new(vec![AlertRule::edge(
            "",
            Signal::Counter(Key::StreamIngested),
            1.0
        )])
        .is_err());
        assert!(AlertEngine::new(vec![AlertRule::edge(
            "nan",
            Signal::Counter(Key::StreamIngested),
            f64::NAN
        )])
        .is_err());
    }

    #[test]
    fn states_round_trip() {
        let reg = Registry::new();
        let mut rec = recorder();
        let rules = vec![AlertRule::edge(
            "edge",
            Signal::Delta(Key::StreamIngested),
            5.0,
        )];
        let mut eng = AlertEngine::new(rules.clone()).expect("valid");
        reg.add(Key::StreamIngested, 7);
        eng.eval(0, &reg, &mut rec);
        let restored =
            AlertEngine::from_states(rules, eng.states().to_vec()).expect("shape matches");
        assert_eq!(restored.states(), eng.states());
        assert_eq!(restored.latched(), 1);
    }
}
