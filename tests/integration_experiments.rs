//! Experiment-harness integration: the shared pipeline helpers produce
//! coherent figure/table rows on a miniature dataset (no full paper
//! grids here — those run via the release binaries).

use mpcp_benchmark::{BenchConfig, DatasetSpec};
use mpcp_core::splits;
use mpcp_experiments::{comparison_figure, render_table, store_path, Prepared};
use mpcp_ml::Learner;
use mpcp_simnet::SimTime;

/// Build a `Prepared` around the miniature test dataset, with a split we
/// control (node 3 is the "odd unseen" test allocation).
fn tiny_prepared() -> Prepared {
    let spec = DatasetSpec::tiny_for_tests();
    let library = spec.library(None);
    let data = spec.generate(&library, &BenchConfig::quick());
    Prepared {
        spec,
        library,
        data,
        split: splits::Split {
            train_full: vec![2, 4],
            train_small: vec![2],
            test: vec![3],
        },
    }
}

#[test]
fn comparison_rows_cover_the_requested_panels() {
    let prepared = tiny_prepared();
    let rows = comparison_figure(&prepared, &Learner::knn(), &[3], &[1, 2]);
    // 2 ppn x 3 msizes.
    assert_eq!(rows.len(), 2 * prepared.spec.msizes.len());
    for r in rows {
        assert!(r.norm_default >= 1.0 - 1e-12);
        assert!(r.norm_predicted >= 1.0 - 1e-12);
        assert!(r.best_us > 0.0);
        assert_eq!(r.nodes, 3);
    }
}

#[test]
fn train_records_respect_split_size() {
    let prepared = tiny_prepared();
    let full = prepared.train_records(false);
    let small = prepared.train_records(true);
    let test = prepared.test_records();
    assert!(small.len() < full.len());
    assert!(!test.is_empty());
    // No leakage: test nodes never appear in training.
    assert!(full.iter().all(|r| r.nodes != 3));
    assert!(test.iter().all(|r| r.nodes == 3));
}

#[test]
fn evaluate_learner_is_consistent_with_manual_pipeline() {
    let prepared = tiny_prepared();
    let evals = prepared.evaluate_learner(&Learner::knn(), false);
    let manual = {
        let selector = prepared.train_selector(&Learner::knn(), false);
        mpcp_core::evaluate(
            &selector,
            &prepared.test_records(),
            &prepared.library,
            prepared.spec.coll,
        )
    };
    assert_eq!(evals.len(), manual.len());
    for (a, b) in evals.iter().zip(&manual) {
        assert_eq!(a.predicted_uid, b.predicted_uid);
        assert_eq!(a.best_uid, b.best_uid);
    }
}

#[test]
fn render_table_handles_ragged_rows() {
    let out = render_table(&["x", "y"], &[vec!["1".into()], vec!["22".into(), "3".into()]]);
    assert!(out.contains("22"));
}

#[test]
fn prepared_datasets_resume_from_their_store() {
    // Two default-size chunks, so a torn second chunk leaves the first.
    let spec = DatasetSpec {
        msizes: vec![16, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10],
        ..DatasetSpec::tiny_for_tests()
    };
    let dir = std::env::temp_dir().join(format!("mpcp_prepared_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let first = Prepared::load_in(spec.clone(), &dir, false).expect("fresh store");
    assert_eq!(first.data.chunks_total, 2);
    assert_eq!(first.data.chunks_resumed, 0);
    assert!(first.data.total_bench > SimTime::ZERO);

    let again = Prepared::load_in(spec.clone(), &dir, false).expect("complete store");
    assert_eq!(again.data.chunks_resumed, again.data.chunks_total);
    assert_eq!(again.data.records, first.data.records);
    assert_eq!(again.data.faults, first.data.faults);
    assert_eq!(again.data.total_bench, first.data.total_bench);

    // A kill mid-append leaves a torn last chunk: it is measured again.
    let store = store_path(&dir, spec.id, false);
    let bytes = std::fs::read(&store).expect("store bytes");
    std::fs::write(&store, &bytes[..bytes.len() - 10]).expect("truncate store");
    let healed = Prepared::load_in(spec, &dir, false).expect("torn store");
    assert_eq!(healed.data.chunks_resumed, 1);
    assert_eq!(healed.data.records, first.data.records);
    assert_eq!(healed.data.total_bench, first.data.total_bench);
    assert_eq!(std::fs::read(&store).expect("store bytes"), bytes);
    std::fs::remove_dir_all(&dir).ok();
}
