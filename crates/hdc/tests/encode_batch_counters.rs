//! `Encoder::encode_batch` accounting against the process-global
//! recorder: a good batch adds `rows.len()` to `hdc.encoded`, a batch
//! with a bad row adds nothing. One test in its own binary, like
//! `assign_batch_counters.rs`: exact totals can only be pinned where
//! nothing else encodes concurrently.

use dual_hdc::{Encoder, HdMapper, HdcError, LshEncoder};
use dual_obs::Key;

fn rows(n: usize, n_features: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..n_features)
                .map(|j| ((i * n_features + j) as f64 * 0.37).sin())
                .collect()
        })
        .collect()
}

fn pin(name: &str, encoder: &impl Encoder, reg: &dual_obs::Registry) {
    let m = encoder.n_features();
    // Below, at and across the tile width, and the empty batch.
    for n in [0usize, 1, 3, 4, 16, 17, 40] {
        let before = reg.counter(Key::HdcEncoded);
        let out = encoder.encode_batch(&rows(n, m)).unwrap();
        assert_eq!(out.len(), n, "{name} n={n}");
        assert_eq!(
            reg.counter(Key::HdcEncoded) - before,
            n as u64,
            "{name} n={n}"
        );
    }
    // A bad row in the last tile: the full tiles before it are not
    // encoded either.
    for bad_at in [0usize, 16, 39] {
        let mut batch = rows(40, m);
        batch[bad_at].pop();
        let before = reg.counter(Key::HdcEncoded);
        assert_eq!(
            encoder.encode_batch(&batch),
            Err(HdcError::FeatureLength {
                expected: m,
                got: m - 1
            }),
            "{name} bad_at={bad_at}"
        );
        assert_eq!(
            reg.counter(Key::HdcEncoded),
            before,
            "{name} bad_at={bad_at}"
        );
    }
    let before = reg.counter(Key::HdcEncoded);
    let _ = encoder.encode(&rows(1, m)[0]).unwrap();
    assert!(encoder.encode(&[]).is_err());
    assert_eq!(reg.counter(Key::HdcEncoded) - before, 1, "{name} single");
}

#[test]
fn a_good_batch_counts_its_rows_once_and_a_bad_one_counts_nothing() {
    let reg = dual_obs::install_global();
    pin("mapper", &HdMapper::new(130, 5, 1).unwrap(), reg);
    pin("lsh", &LshEncoder::new(130, 5, 1).unwrap(), reg);
}
