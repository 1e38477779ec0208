//! Monte-Carlo verification of search robustness under device/process
//! variation (§IV-A2, §VIII-A, §VIII-H).
//!
//! The nearest-value search weights the bitlines of a 4-bit group with a
//! binary voltage ladder (0.8/0.4/0.2/0.1 V). Cell-current variation
//! perturbs each bit's contribution; the search stays exact only while
//! the worst-case perturbation is smaller than half the smallest score
//! gap (the LSB voltage). The paper verified with 5000 Monte-Carlo runs
//! that 4-bit stages survive 10 % technology variation with margin —
//! and that wider stages (up to 8 bits are *electrically* possible at
//! nominal conditions) do not.

#![deny(clippy::as_conversions)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Normal};

/// Configuration of one Monte-Carlo search-margin experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloConfig {
    /// Number of trials (paper: 5000).
    pub trials: u32,
    /// Fractional device variation (paper: 0.10).
    pub variation: f64,
    /// Bits compared in one stage (paper design point: 4).
    pub stage_bits: u32,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl MonteCarloConfig {
    /// The paper's experiment: 5000 trials, 10 % variation, 4-bit stage.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            trials: 5000,
            variation: 0.10,
            stage_bits: 4,
            seed: 0xD0A1,
        }
    }
}

/// Outcome of a Monte-Carlo search-margin run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloResult {
    /// Trials where the noisy comparison preserved the correct ordering.
    pub correct: u32,
    /// Total trials.
    pub trials: u32,
}

impl MonteCarloResult {
    /// Fraction of exact trials.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.trials == 0 {
            1.0
        } else {
            f64::from(self.correct) / f64::from(self.trials)
        }
    }

    /// Fraction of trials the variation corrupted — the transient
    /// per-read flip rate this variation level implies, suitable for
    /// `dual_fault::FaultPlanSpec::flip_rate`.
    #[must_use]
    pub fn flip_rate(&self) -> f64 {
        1.0 - self.accuracy()
    }
}

/// Voltage ladder for a stage of `bits` bits, MSB first
/// (0.8 V halving downward, §IV-A2 / Fig. 4d).
#[must_use]
pub fn voltage_ladder(bits: u32) -> Vec<f64> {
    (0..bits).map(|k| 0.8 / f64::from(1u32 << k)).collect()
}

/// Run the Monte-Carlo experiment: in each trial, two rows whose stage
/// scores differ by exactly one LSB (the hardest case) are compared
/// with per-bitline Gaussian current noise of `variation/5` relative
/// standard deviation (the ±variation corner treated as a 5σ bound);
/// the trial is correct when the noisy scores preserve the ordering.
#[must_use]
pub fn run_monte_carlo(config: MonteCarloConfig) -> MonteCarloResult {
    let ladder = voltage_ladder(config.stage_bits);
    let sigma_per_bit = config.variation / 5.0;
    let mut rng = StdRng::seed_from_u64(config.seed);
    #[expect(
        clippy::expect_used,
        reason = "Normal::new(0.0, 1.0) only fails on a non-finite/negative sigma; the literal 1.0 cannot fail"
    )]
    let normal = Normal::new(0.0, 1.0).expect("unit normal");
    let mut correct = 0u32;
    for _ in 0..config.trials {
        // Row A matches everything; row B misses only the LSB: nominal
        // score gap = lsb.
        let noisy = |drop_lsb: bool, rng: &mut StdRng| -> f64 {
            ladder
                .iter()
                .enumerate()
                .map(|(k, &v)| {
                    if drop_lsb && k + 1 == ladder.len() {
                        0.0
                    } else {
                        v * (1.0 + sigma_per_bit * normal.sample(rng))
                    }
                })
                .sum()
        };
        let a = noisy(false, &mut rng);
        let b = noisy(true, &mut rng);
        if a > b {
            correct += 1;
        }
    }
    MonteCarloResult {
        correct,
        trials: config.trials,
    }
}

/// Largest stage width that stays exact (≥ 99.9 % of trials correct)
/// under the given variation — the design-space sweep behind the
/// paper's choice of 4 bits at 10 % variation.
#[must_use]
pub fn max_safe_stage_bits(variation: f64, trials: u32, seed: u64) -> u32 {
    let mut best = 1;
    for bits in 1..=8 {
        let res = run_monte_carlo(MonteCarloConfig {
            trials,
            variation,
            stage_bits: bits,
            seed,
        });
        if res.accuracy() >= 0.999 {
            best = bits;
        } else {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_matches_fig4d() {
        let l = voltage_ladder(4);
        assert_eq!(l, vec![0.8, 0.4, 0.2, 0.1]);
    }

    #[test]
    fn four_bit_stage_is_exact_at_ten_percent_variation() {
        // The paper's claim: exact nearest search over 5000 MC trials at
        // 10 % variation with 4-bit stages.
        let res = run_monte_carlo(MonteCarloConfig::paper());
        assert!(
            res.accuracy() >= 0.999,
            "accuracy {} below margin",
            res.accuracy()
        );
    }

    #[test]
    fn eight_bit_stage_fails_at_ten_percent_variation() {
        let res = run_monte_carlo(MonteCarloConfig {
            stage_bits: 8,
            ..MonteCarloConfig::paper()
        });
        assert!(
            res.accuracy() < 0.99,
            "8-bit stages should lose margin, got {}",
            res.accuracy()
        );
    }

    #[test]
    fn safe_width_is_four_at_paper_conditions() {
        let w = max_safe_stage_bits(0.10, 3000, 7);
        assert!((4..=5).contains(&w), "safe width {w}");
    }

    #[test]
    fn wider_stages_possible_at_low_variation() {
        // §IV-A2: "in a nominal voltage/process technology, we can
        // increase the number of bits up to 8-bits".
        let w = max_safe_stage_bits(0.01, 2000, 7);
        assert!(
            w >= 7,
            "nominal conditions should allow wide stages, got {w}"
        );
    }

    #[test]
    fn accuracy_of_empty_run_is_one() {
        let r = MonteCarloResult {
            correct: 0,
            trials: 0,
        };
        assert_eq!(r.accuracy(), 1.0);
    }
}
