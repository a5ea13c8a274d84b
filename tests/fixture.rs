//! Shared train-once fixture for the integration suite.
//!
//! Several integration tests used to regenerate the tiny benchmark
//! grid and retrain identical selectors in every `#[test]` fn. This
//! module does each expensive step exactly once per test binary:
//!
//! * [`dataset`] benchmarks the tiny grid once (no faults) and hands
//!   out a `&'static` reference;
//! * [`trained`] trains a selector once per `(learner, node split)`,
//!   **saves it as a binary artifact and loads it back from disk** —
//!   so every consumer of the fixture also exercises the PR 5
//!   persistence path — then caches the artifact bytes and serves
//!   later calls via [`SelectorArtifact::from_bytes`].
//!
//! Each `[[test]]` binary compiles its own copy of this module, so the
//! caches are per-binary, not cross-process; that is exactly the
//! granularity at which the old redundancy lived.

#![allow(dead_code)] // not every test binary uses every helper

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

use mpcp_benchmark::{BenchConfig, CampaignReport, DatasetSpec};
use mpcp_collectives::MpiLibrary;
use mpcp_core::{splits, ArtifactMeta, Selector, SelectorArtifact, TrainOptions};
use mpcp_ml::Learner;

/// The canonical tiny dataset spec shared by the integration tests.
pub fn spec() -> &'static DatasetSpec {
    static SPEC: OnceLock<DatasetSpec> = OnceLock::new();
    SPEC.get_or_init(DatasetSpec::tiny_for_tests)
}

/// The library under test for [`spec`].
pub fn library() -> &'static MpiLibrary {
    static LIB: OnceLock<MpiLibrary> = OnceLock::new();
    LIB.get_or_init(|| spec().library(None))
}

/// The tiny grid, benchmarked exactly once per test binary.
pub fn dataset() -> &'static CampaignReport {
    static DATA: OnceLock<CampaignReport> = OnceLock::new();
    DATA.get_or_init(|| spec().generate(library(), &BenchConfig::quick()))
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mpcp_fixture_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("fixture scratch dir");
    dir
}

/// A selector trained on [`dataset`] restricted to `train_nodes`
/// (empty slice = all records), persisted through `Selector::save` /
/// `Selector::load` on first use and decoded from the cached artifact
/// bytes on every use after that.
///
/// Returns the whole [`SelectorArtifact`] so callers get the coverage
/// report and provenance manifest alongside the selector.
pub fn trained(learner: &Learner, train_nodes: &[u32]) -> SelectorArtifact {
    static CACHE: OnceLock<Mutex<HashMap<String, Vec<u8>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = format!("{}@{:?}", learner.name(), train_nodes);

    let mut map = cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let bytes = map.entry(key.clone()).or_insert_with(|| {
        let data = dataset();
        let records = if train_nodes.is_empty() {
            data.records.clone()
        } else {
            splits::filter_records(&data.records, train_nodes)
        };
        let s = spec();
        let lib = library();
        let (selector, report) = Selector::train_with_report(
            learner,
            &records,
            lib.configs(s.coll),
            &TrainOptions::default(),
        )
        .unwrap_or_else(|e| panic!("fixture: training {key} failed: {e}"));
        let meta = ArtifactMeta::capture(
            s.coll,
            &format!("{} {}", lib.name, lib.version),
            &s.machine.name,
            Some(s.seed),
            &TrainOptions::default(),
        );
        // Dogfood the on-disk path once: save, load back, keep bytes.
        let path = scratch_dir().join(format!("{}.mpcp", key.replace(['[', ']', ',', ' '], "_")));
        selector.save(&path, &report, &meta).expect("fixture: save artifact");
        Selector::load(&path).expect("fixture: reload artifact");
        let bytes = std::fs::read(&path).expect("fixture: read artifact bytes");
        std::fs::remove_file(&path).ok();
        bytes
    });
    SelectorArtifact::from_bytes(bytes).expect("fixture: cached artifact decodes")
}
