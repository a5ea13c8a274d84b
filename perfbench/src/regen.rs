//! Table IV regeneration: campaign → store read-back → one selector per
//! (learner, Table III training set) → evaluation against the library
//! default. Also the traced replay that times the layers inside a
//! campaign cell one public call at a time.

use std::path::Path;

use mpcp_benchmark::noise::cell_stream;
use mpcp_benchmark::repro::summarize;
use mpcp_benchmark::{
    run_campaign, BenchConfig, CampaignConfig, CampaignStore, DatasetSpec, NoiseModel, Record,
    RetryPolicy,
};
use mpcp_collectives::MpiLibrary;
use mpcp_core::splits::{filter_records, paper_split};
use mpcp_core::{evaluate_report, mean_speedup, Selector, TrainOptions, TrainReport};
use mpcp_ml::persist::fnv1a64;
use mpcp_ml::Learner;
use mpcp_simnet::{Simulator, Topology};

use crate::trace::Trace;

/// Threads the campaign runs on: one, so a regeneration's time depends
/// on one core's speed, not on how two cores' slow spells line up.
const CAMPAIGN_THREADS: usize = 1;

/// A dataset grid with its library and Table III split.
pub struct Dataset {
    pub spec: DatasetSpec,
    pub library: MpiLibrary,
    pub bench: BenchConfig,
    pub train_large: Vec<u32>,
    pub train_small: Vec<u32>,
    pub test: Vec<u32>,
}

impl Dataset {
    /// Build the library and restrict the machine's Table III split to
    /// the spec's node counts.
    pub fn new(spec: DatasetSpec) -> Dataset {
        let library = spec.library(None);
        let bench = BenchConfig::paper_default(&spec.machine.name);
        let split = paper_split(&spec.machine.name);
        let keep = |nodes: &[u32]| -> Vec<u32> {
            nodes
                .iter()
                .copied()
                .filter(|n| spec.nodes.contains(n))
                .collect()
        };
        Dataset {
            train_large: keep(&split.train_full),
            train_small: keep(&split.train_small),
            test: keep(&split.test),
            spec,
            library,
            bench,
        }
    }

    pub fn cells(&self) -> u64 {
        self.spec.sample_count(&self.library) as u64
    }
}

/// One regeneration pass.
pub struct Regen {
    pub secs: f64,
    /// Wall time of `run_campaign` alone.
    pub campaign_secs: f64,
    /// Mean of the six (learner, training set) Table IV speed-ups.
    pub t4_speedup: f64,
    pub records: Vec<Record>,
    /// FNV-1a of the store file, for bitwise comparison across commits.
    pub digest: u64,
    pub store_bytes: u64,
    /// Cells lost to faults or simulation errors.
    pub lost: u64,
    pub eval_instances: u64,
    pub eval_skipped: u64,
    /// The XGBoost selector trained on the large set: the served model.
    pub served: (Selector, TrainReport),
    /// Correctness failures found during the pass.
    pub failures: Vec<String>,
}

/// The learners of Table IV, with the span each one's fit is timed by.
const LEARNERS: [(&str, LearnerFn); 3] = [
    ("core.train.knn", Learner::knn),
    ("core.train.gam", Learner::gam),
    ("core.train.xgboost", Learner::xgboost),
];

type LearnerFn = fn() -> Learner;

/// Regenerate one Table IV row from the spec, through a store at `store`.
pub fn regen_pass(ds: &Dataset, store: &Path, trace: &mut Trace) -> Result<Regen, String> {
    let t0 = std::time::Instant::now();
    let pass = trace.enter("regen", 0);
    let cfg = CampaignConfig {
        threads: CAMPAIGN_THREADS,
        ..CampaignConfig::default()
    };
    let campaign_t0 = std::time::Instant::now();
    let report = trace
        .time("campaign.run", 0, || {
            run_campaign(
                &ds.spec,
                &ds.library,
                &ds.bench,
                None,
                &RetryPolicy::default(),
                &cfg,
                store,
            )
        })
        .map_err(|e| format!("campaign: {e}"))?;
    let campaign_secs = campaign_t0.elapsed().as_secs_f64();
    let (_, chunks) = trace
        .time("store.load", 0, || CampaignStore::load(store))
        .map_err(|e| format!("store read-back: {e}"))?;
    let records: Vec<Record> = trace.time("store.to_records", 0, || {
        chunks.iter().flat_map(|c| c.to_records()).collect()
    });

    let mut failures = Vec::new();
    if !same_records(&records, &report.records) {
        failures.push("store read-back differs from the campaign's records".to_string());
    }
    let faults = report.faults;
    let lost = (faults.cells_failed + faults.cells_timed_out + faults.sim_errors) as u64;
    if lost > 0 {
        failures.push(format!(
            "campaign lost {lost} cell(s): {}",
            faults.summary()
        ));
    }

    let configs = ds.library.configs(ds.spec.coll);
    let test = filter_records(&records, &ds.test);
    let mut speedups = Vec::with_capacity(6);
    let mut served = None;
    let (mut eval_instances, mut eval_skipped) = (0u64, 0u64);
    for (set, nodes) in [("large", &ds.train_large), ("small", &ds.train_small)] {
        let train = filter_records(&records, nodes);
        for (span, learner) in LEARNERS {
            let learner = learner();
            let (selector, train_report) = trace
                .time(span, 0, || {
                    Selector::train_with_report(&learner, &train, configs, &TrainOptions::default())
                })
                .map_err(|e| format!("{} on the {set} set: {e}", learner.name()))?;
            let eval = trace.time("core.evaluate", 0, || {
                evaluate_report(&selector, &test, &ds.library, ds.spec.coll)
            });
            let skipped = (eval.skipped_no_best
                + eval.skipped_missing_default
                + eval.skipped_missing_predicted) as u64;
            eval_instances += eval.instances as u64;
            eval_skipped += skipped;
            if skipped > 0 || eval.evals.is_empty() {
                failures.push(format!(
                    "{} on the {set} set: {skipped} of {} test instance(s) skipped",
                    learner.name(),
                    eval.instances
                ));
            }
            speedups.push(mean_speedup(&eval.evals));
            if set == "large" && matches!(learner, Learner::Xgb(_)) {
                served = Some((selector, train_report));
            }
        }
    }
    trace.exit(pass);
    let secs = t0.elapsed().as_secs_f64();

    let bytes = std::fs::read(store).map_err(|e| format!("reading {}: {e}", store.display()))?;
    Ok(Regen {
        secs,
        campaign_secs,
        t4_speedup: speedups.iter().sum::<f64>() / speedups.len() as f64,
        records,
        digest: fnv1a64(&bytes),
        store_bytes: bytes.len() as u64,
        lost,
        eval_instances,
        eval_skipped,
        served: served.expect("the learner table includes XGBoost"),
        failures,
    })
}

/// Field-by-field equality with floats compared bit for bit.
fn same_records(a: &[Record], b: &[Record]) -> bool {
    let key = |r: &Record| {
        (
            r.nodes,
            r.ppn,
            r.msize,
            r.uid,
            r.alg_id,
            r.excluded,
            r.runtime.to_bits(),
            r.base.to_bits(),
            r.reps,
        )
    };
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| key(x) == key(y))
}

/// Counts from the traced layer replay (its times are in the spans).
pub struct Replay {
    pub events: u64,
    pub reps: u64,
}

/// Re-measure every cell sequentially through the layers' public calls
/// (`AlgorithmConfig::build`, `Simulator::run`, `repro::summarize`),
/// each in its own span, and check the result against the campaign's
/// records bit for bit.
pub fn replay_layers(
    ds: &Dataset,
    records: &[Record],
    trace: &mut Trace,
) -> Result<Replay, String> {
    let configs = ds.library.configs(ds.spec.coll);
    let grid = ds.spec.cell_grid(&ds.library);
    if records.len() as u64 != grid.len() {
        return Err(format!(
            "{} records for {} cells",
            records.len(),
            grid.len()
        ));
    }
    let noise = NoiseModel::default();
    let root = trace.enter("replay", 0);
    let mut out = Replay { events: 0, reps: 0 };
    for g in 0..grid.topo_groups() {
        let (nodes, ppn) = grid.group(g);
        let topo = Topology::new(nodes, ppn);
        let sim = Simulator::new(&ds.spec.machine.model, &topo);
        for cell in grid.group_cells(g) {
            let span = trace.enter("replay.cell", cell.id);
            let cfg = &configs[cell.uid as usize];
            let progs = trace.time("collectives.build", cell.id, || {
                cfg.build(&topo, cell.msize)
            });
            let run = trace
                .time("simnet.run", cell.id, || sim.run(&progs))
                .map_err(|e| format!("cell {}: {e}", cell.id))?;
            let mut stream = cell_stream(ds.spec.seed, cell.uid, nodes, ppn, cell.msize);
            let m = trace.time("repro.summarize", cell.id, || {
                summarize(run.makespan(), &ds.bench, &noise, &mut stream)
            });
            trace.exit(span);
            out.events += run.events;
            out.reps += u64::from(m.reps);
            let r = &records[cell.id as usize];
            let same = r.uid == cell.uid
                && r.msize == cell.msize
                && r.runtime.to_bits() == m.median_secs.to_bits()
                && r.base.to_bits() == m.base.as_secs_f64().to_bits()
                && r.reps == m.reps;
            if !same {
                return Err(format!(
                    "layer replay of cell {} differs from the campaign",
                    cell.id
                ));
            }
        }
    }
    trace.exit(root);
    Ok(out)
}
