//! Quality pipeline across crates: encoders × algorithms on the
//! workload surrogates (small scales so the suite stays fast).

use dual_bench::{quality, quality_dataset, BenchError, Representation, BENCH_SEED};
use dual_cluster::ClusterError;
use dual_core::baseline::Algorithm;
use dual_data::Workload;

#[test]
fn hierarchical_hd_tracks_euclidean_baseline() -> Result<(), BenchError> {
    let ds = quality_dataset(Workload::Sensor, 150);
    let base = quality(
        &ds,
        Algorithm::Hierarchical,
        Representation::Baseline,
        BENCH_SEED,
    )?;
    let hd = quality(
        &ds,
        Algorithm::Hierarchical,
        Representation::HdMapper { dim: 2000 },
        BENCH_SEED,
    )?;
    assert!(base > 0.7, "baseline should be competent: {base}");
    assert!(hd >= base - 0.06, "hd {hd} vs baseline {base}");
    Ok(())
}

#[test]
fn hd_mapper_beats_lsh_on_magnitude_structured_data() -> Result<(), BenchError> {
    // The Fig. 10b-d claim, on the MNIST surrogate (which carries
    // collinear/magnitude cluster structure like real image data).
    let ds = quality_dataset(Workload::Mnist, 180);
    let hd = quality(
        &ds,
        Algorithm::Hierarchical,
        Representation::HdMapper { dim: 2000 },
        BENCH_SEED,
    )?;
    let lsh = quality(
        &ds,
        Algorithm::Hierarchical,
        Representation::Lsh { dim: 2000 },
        BENCH_SEED,
    )?;
    assert!(hd >= lsh, "hd {hd} < lsh {lsh}");
    Ok(())
}

#[test]
fn kmeans_binary_quality_is_reasonable() -> Result<(), BenchError> {
    let ds = quality_dataset(Workload::Facial, 150);
    let hd = quality(
        &ds,
        Algorithm::KMeans,
        Representation::HdMapper { dim: 2000 },
        BENCH_SEED,
    )?;
    assert!(hd > 0.6, "binary k-means quality {hd}");
    Ok(())
}

#[test]
fn dbscan_chain_quality_is_reasonable() -> Result<(), BenchError> {
    let ds = quality_dataset(Workload::Isolet, 160);
    let base = quality(&ds, Algorithm::Dbscan, Representation::Baseline, BENCH_SEED)?;
    let hd = quality(
        &ds,
        Algorithm::Dbscan,
        Representation::HdMapper { dim: 2000 },
        BENCH_SEED,
    )?;
    assert!(hd >= base - 0.15, "hd chain {hd} vs baseline {base}");
    Ok(())
}

#[test]
fn quality_is_deterministic_given_seed() -> Result<(), BenchError> {
    let ds = quality_dataset(Workload::Gesture, 120);
    let a = quality(
        &ds,
        Algorithm::Hierarchical,
        Representation::HdMapper { dim: 1000 },
        7,
    )?;
    let b = quality(
        &ds,
        Algorithm::Hierarchical,
        Representation::HdMapper { dim: 1000 },
        7,
    )?;
    assert_eq!(a, b);
    Ok(())
}

#[test]
fn kmeans_on_fewer_points_than_clusters_is_an_error() {
    // Sensor has more clusters than two points can seed: every k-means
    // representation must fail closed, not panic.
    let ds = quality_dataset(Workload::Sensor, 2);
    for repr in [
        Representation::Baseline,
        Representation::HdMapper { dim: 512 },
    ] {
        let err = quality(&ds, Algorithm::KMeans, repr, BENCH_SEED).unwrap_err();
        assert!(
            matches!(
                err,
                BenchError::Cluster(ClusterError::TooFewPoints { got: 2, .. })
            ),
            "{repr:?}: {err:?}"
        );
    }
}
