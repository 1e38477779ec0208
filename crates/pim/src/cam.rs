//! Content-addressable search: match-line discharge timing, sampling
//! schedules, Hamming window detection and the staged nearest-value
//! search (§IV-A, Fig. 4).
//!
//! A CAM row discharges its match line (ML) through every mismatching
//! cell in parallel, so the discharge *time* encodes the mismatch count:
//! more mismatches → more pull-down paths → faster discharge. DUAL's
//! sense amplifier samples the ML at a set of timestamps and infers the
//! Hamming distance of the window from the first sample at which the
//! row reads as discharged.

/// Hyperbolic ML discharge-time model: `t(m) = τ / m` for `m ≥ 1`
/// mismatches (each mismatching cell adds one pull-down path of equal
/// conductance); a fully matching row never discharges.
///
/// τ is calibrated so that a 7-bit window's worst case (7 mismatches)
/// discharges at the paper's first sampling point, 200 ps — making the
/// non-linear sample spacing come out at the documented 200 ps/100 ps
/// cadence (Fig. 4c).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlDischargeModel {
    /// Discharge time constant in picoseconds (`t(1) = τ`).
    pub tau_ps: f64,
}

impl MlDischargeModel {
    /// The paper-calibrated model (τ = 1400 ps ⇒ t(7) = 200 ps).
    #[must_use]
    pub fn paper() -> Self {
        Self { tau_ps: 1400.0 }
    }

    /// Discharge time for `mismatches` mismatching cells;
    /// `f64::INFINITY` for a perfect match.
    #[must_use]
    pub fn discharge_time_ps(&self, mismatches: u32) -> f64 {
        if mismatches == 0 {
            f64::INFINITY
        } else {
            self.tau_ps / f64::from(mismatches)
        }
    }
}

impl Default for MlDischargeModel {
    fn default() -> Self {
        Self::paper()
    }
}

/// When the sense amplifier samples the match line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SamplingSchedule {
    /// Equally spaced samples — the conventional approach, which cannot
    /// distinguish high mismatch counts on long windows because the
    /// discharge curve flattens (Fig. 4c); reliable only up to 4-bit
    /// windows.
    Linear {
        /// Sample period in picoseconds.
        period_ps: f64,
    },
    /// DUAL's schedule: one sample exactly at each discharge level of
    /// the hyperbolic curve, enabling 7-bit windows.
    NonLinear,
}

impl SamplingSchedule {
    /// The paper's non-linear schedule.
    #[must_use]
    pub fn paper() -> Self {
        Self::NonLinear
    }

    /// The conventional linear schedule at a 200 ps period.
    #[must_use]
    pub fn linear_200ps() -> Self {
        Self::Linear { period_ps: 200.0 }
    }

    /// The sampling timestamps (ascending, picoseconds) for a window of
    /// `window_bits` bits.
    #[must_use]
    pub fn sample_times_ps(&self, model: MlDischargeModel, window_bits: u32) -> Vec<f64> {
        match *self {
            Self::Linear { period_ps } => {
                // Fixed-period samples until even a single-mismatch row
                // (the slowest discharger) has been observed.
                let n = (model.discharge_time_ps(1) / period_ps).ceil() as u32;
                let _ = window_bits;
                (1..=n.max(1)).map(|k| period_ps * f64::from(k)).collect()
            }
            Self::NonLinear => {
                // One sample per distinguishable mismatch count, highest
                // count (fastest discharge) first in time.
                let mut times: Vec<f64> = (1..=window_bits)
                    .map(|m| model.discharge_time_ps(m))
                    .collect();
                times.sort_by(f64::total_cmp);
                times
            }
        }
    }

    /// Largest window width for which every mismatch count lands in its
    /// own sampling interval (i.e. the search is exact).
    #[must_use]
    pub fn max_resolvable_bits(&self, model: MlDischargeModel) -> u32 {
        for bits in 1..=16 {
            if !self.resolves_exactly(model, bits) {
                return bits - 1;
            }
        }
        16
    }

    fn resolves_exactly(&self, model: MlDischargeModel, window_bits: u32) -> bool {
        (1..=window_bits).all(|m| match self.detect(model, m, window_bits) {
            Detection::Exact(got) => u32::from(got) == m,
            Detection::Ambiguous { .. } => false,
        })
    }

    /// Simulate detection of a row with `mismatches` mismatching cells
    /// in a `window_bits`-wide window.
    #[must_use]
    pub fn detect(&self, model: MlDischargeModel, mismatches: u32, window_bits: u32) -> Detection {
        debug_assert!(mismatches <= window_bits);
        if mismatches == 0 {
            return Detection::Exact(0);
        }
        let t = model.discharge_time_ps(mismatches);
        let times = self.sample_times_ps(model, window_bits);
        // The row is seen as discharged at the first sample ≥ t. Every
        // mismatch count whose discharge time falls in the same sampling
        // interval is indistinguishable; the sense logic reports the
        // *smallest* count consistent with the observation (conservative
        // distance estimate).
        let eps = 1e-9;
        let sample_idx = times.iter().position(|&s| s + eps >= t);
        let Some(idx) = sample_idx else {
            // Discharged after the last sample: indistinguishable from a
            // perfect match.
            return Detection::Ambiguous { lo: 0, hi: 1 };
        };
        let lower_bound = if idx == 0 { 0.0 } else { times[idx - 1] };
        let candidates: Vec<u32> = (1..=window_bits)
            .filter(|&m| {
                let tm = model.discharge_time_ps(m);
                tm <= times[idx] + eps && tm > lower_bound + eps
            })
            .collect();
        match candidates.as_slice() {
            [only] => Detection::Exact(*only as u8),
            [] => Detection::Exact(mismatches as u8),
            // Candidates are generated in ascending mismatch order, so
            // the interval bounds are simply the first and last entries.
            [first, .., last] => Detection::Ambiguous {
                lo: *first as u8,
                hi: *last as u8,
            },
        }
    }
}

/// Result of sensing one CAM row during Hamming computing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detection {
    /// The mismatch count was uniquely determined.
    Exact(u8),
    /// Several mismatch counts share the sampling interval; the hardware
    /// would report an arbitrary value in `[lo, hi]`.
    Ambiguous {
        /// Smallest count consistent with the observation.
        lo: u8,
        /// Largest count consistent with the observation.
        hi: u8,
    },
}

impl Detection {
    /// The count the sense logic reports (for ambiguous observations the
    /// conservative lower bound, matching a real sense amp that latches
    /// at the sampling edge).
    #[must_use]
    pub fn reported(self) -> u8 {
        match self {
            Self::Exact(c) => c,
            Self::Ambiguous { lo, .. } => lo,
        }
    }
}

/// Staged nearest-value search over integer rows (§IV-A2).
///
/// The hardware weights the bitlines of each 4-bit group by significance
/// (0.8 V / 0.4 V / 0.2 V / 0.1 V) and scans groups MSB-first, keeping
/// after each stage only the rows whose group matches the query most
/// closely; ties carry into the next stage and the final tie-break takes
/// the lowest row index.
///
/// With `query = 0` (or all-ones) the greedy stage-wise scan is *exact*
/// minimum (maximum) search — the mode DUAL uses to find the smallest
/// distance — because disjoint, significance-ordered bit groups make
/// lexicographic and numeric order coincide. For arbitrary queries it is
/// the hardware's approximation of nearest-absolute search.
///
/// Returns `(row_index, row_value)` of the winner, or `None` when
/// `active` selects no rows.
#[must_use]
pub fn nearest_search(
    values: &[u64],
    active: &[bool],
    query: u64,
    bits: u32,
    stage_bits: u32,
) -> Option<(usize, u64)> {
    assert_eq!(values.len(), active.len(), "active mask length mismatch");
    assert!((1..=8).contains(&stage_bits), "stage width 1..=8");
    let mut alive: Vec<usize> = (0..values.len()).filter(|&i| active[i]).collect();
    if alive.is_empty() {
        return None;
    }
    let n_stages = bits.div_ceil(stage_bits);
    for stage in 0..n_stages {
        let hi = bits - stage * stage_bits;
        let lo = hi.saturating_sub(stage_bits);
        let width = hi - lo;
        let mask = if width >= 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let q_nib = (query >> lo) & mask;
        // Weighted match score: matching bit of significance k within the
        // group scores 2^k (the voltage ladder).
        let score = |v: u64| -> u64 {
            let nib = (v >> lo) & mask;
            !(nib ^ q_nib) & mask
        };
        // `alive` is never emptied: `retain` keeps every row achieving
        // the maximum, and at least one row does.
        let Some(best) = alive.iter().map(|&i| score(values[i])).max() else {
            break;
        };
        alive.retain(|&i| score(values[i]) == best);
        if alive.len() == 1 {
            break;
        }
    }
    let idx = alive.into_iter().min()?;
    Some((idx, values[idx]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn discharge_is_hyperbolic() {
        let m = MlDischargeModel::paper();
        assert_eq!(m.discharge_time_ps(0), f64::INFINITY);
        assert!((m.discharge_time_ps(7) - 200.0).abs() < 1e-9);
        assert!((m.discharge_time_ps(1) - 1400.0).abs() < 1e-9);
        assert!(m.discharge_time_ps(2) < m.discharge_time_ps(1));
    }

    #[test]
    fn nonlinear_schedule_resolves_seven_bits() {
        let model = MlDischargeModel::paper();
        let s = SamplingSchedule::paper();
        assert!(s.max_resolvable_bits(model) >= 7);
        for m in 0..=7u32 {
            assert_eq!(s.detect(model, m, 7), Detection::Exact(m as u8));
        }
    }

    #[test]
    fn nonlinear_first_sample_is_200ps() {
        let model = MlDischargeModel::paper();
        let times = SamplingSchedule::paper().sample_times_ps(model, 7);
        assert!((times[0] - 200.0).abs() < 1e-9);
        // Average later spacing is ~100 ps for the early samples
        // (233, 280, 350 ps…), the paper's "200/100 ps" cadence.
        assert!(times[1] - times[0] < 120.0);
    }

    #[test]
    fn linear_schedule_caps_at_four_bits() {
        // Fig. 4c: linear sampling works for 4-bit windows but cannot
        // separate the fast dischargers of a 7-bit window.
        let model = MlDischargeModel::paper();
        let s = SamplingSchedule::linear_200ps();
        let cap = s.max_resolvable_bits(model);
        assert!(cap < 7, "linear cap {cap} should be below 7");
        // And on a 7-bit window, some counts are ambiguous.
        let amb = (1..=7).any(|m| !matches!(s.detect(model, m, 7), Detection::Exact(_)));
        assert!(amb);
    }

    #[test]
    fn detection_reported_is_conservative() {
        let d = Detection::Ambiguous { lo: 4, hi: 6 };
        assert_eq!(d.reported(), 4);
        assert_eq!(Detection::Exact(3).reported(), 3);
    }

    #[test]
    fn nearest_search_min_is_exact() {
        // Query 0 ⇒ minimum search, the clustering primitive (§V-C).
        let values = vec![9, 4, 17, 4, 30];
        let active = vec![true; 5];
        let (idx, v) = nearest_search(&values, &active, 0, 8, 4).unwrap();
        assert_eq!(v, 4);
        assert_eq!(idx, 1, "lowest index wins ties");
    }

    #[test]
    fn nearest_search_respects_active_mask() {
        let values = vec![1, 2, 3];
        let active = vec![false, true, true];
        let (idx, v) = nearest_search(&values, &active, 0, 8, 4).unwrap();
        assert_eq!((idx, v), (1, 2));
        assert!(nearest_search(&values, &[false; 3], 0, 8, 4).is_none());
    }

    #[test]
    fn nearest_search_exact_match_query() {
        let values = vec![0b1010, 0b0110, 0b1111];
        let active = vec![true; 3];
        let (idx, _) = nearest_search(&values, &active, 0b0110, 4, 4).unwrap();
        assert_eq!(idx, 1);
    }

    #[test]
    fn stage_count() {
        assert_eq!(crate::nearest_stages(12), 3);
        assert_eq!(crate::nearest_stages(13), 4);
        assert_eq!(crate::nearest_stages(4), 1);
    }

    proptest! {
        #[test]
        fn prop_min_search_finds_global_minimum(values in proptest::collection::vec(0u64..4096, 1..64)) {
            let active = vec![true; values.len()];
            let (_, v) = nearest_search(&values, &active, 0, 12, 4).unwrap();
            prop_assert_eq!(v, *values.iter().min().unwrap());
        }

        #[test]
        fn prop_max_search_finds_global_maximum(values in proptest::collection::vec(0u64..4096, 1..64)) {
            let active = vec![true; values.len()];
            let (_, v) = nearest_search(&values, &active, 4095, 12, 4).unwrap();
            prop_assert_eq!(v, *values.iter().max().unwrap());
        }

        #[test]
        fn prop_exact_query_always_found(values in proptest::collection::vec(0u64..256, 1..32),
                                         pick in 0usize..32) {
            let active = vec![true; values.len()];
            let q = values[pick % values.len()];
            let (_, v) = nearest_search(&values, &active, q, 8, 4).unwrap();
            prop_assert_eq!(v, q);
        }

        #[test]
        fn prop_nonlinear_detection_exact_for_any_window(w in 1u32..=7, m in 0u32..=7) {
            prop_assume!(m <= w);
            let model = MlDischargeModel::paper();
            let d = SamplingSchedule::paper().detect(model, m, w);
            prop_assert_eq!(d, Detection::Exact(m as u8));
        }
    }
}
