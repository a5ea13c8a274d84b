//! Work-stealing parallel campaign runner over the fault-aware
//! measurement path.
//!
//! A campaign is a dataset grid measured chunk by chunk into a
//! checkpointed [`crate::store::CampaignStore`]. This runner is the
//! only code that measures a grid: [`DatasetSpec::generate`] and
//! [`DatasetSpec::generate_with_faults`] run it with no store, keeping
//! the records in memory. The runner owns its
//! threads (`std::thread::scope`, no pool dependency) and steals work at
//! **chunk** granularity:
//!
//! * The canonical cell order ([`crate::cells::CellGrid`]) is cut into
//!   fixed-size chunks of `checkpoint_every` cells. Chunk indices are
//!   dealt round-robin onto per-worker deques.
//! * A worker pops its own deque from the front; when empty, it steals
//!   from the *back* of the most-loaded victim (classic Chase–Lev
//!   shape, here with plain mutexed deques — contention is one lock op
//!   per chunk, and a chunk is thousands of simulator runs).
//! * Finished chunks are sent to the committer, which buffers
//!   out-of-order arrivals and appends to the store strictly in chunk
//!   order. Each append is flushed — the frame boundary is the
//!   checkpoint a crash resumes from.
//!
//! # Why N threads ≡ 1 thread, byte for byte
//!
//! Scheduling decides only *who* measures a chunk and *when* — never
//! what the chunk contains. Every cell's noise and fault streams are
//! derived from `(campaign seed, cell coordinates)` alone
//! ([`crate::noise::cell_stream`], [`crate::fault::fault_stream`] — the
//! PR 3 salting pattern, extended here to the whole campaign), each
//! chunk is a pure function of its cell-id range, and the committer
//! serializes chunks in index order. The store bytes are therefore a
//! pure function of `(header, grid)`, which the differential
//! determinism suite (`tests/campaign_determinism.rs`) pins at 1/2/4/8
//! threads. Nothing wall-clock-derived is ever written (enforced
//! statically by the `no-wallclock-in-deterministic` lint rule).

use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};

use mpcp_collectives::{AlgorithmConfig, MpiLibrary};
use mpcp_simnet::{Machine, SimTime, Simulator, Topology};

use crate::cells::{measure_grid_cell, CellGrid, CellMeasurement};
use crate::datasets::DatasetSpec;
use crate::fault::{FaultPlan, FaultSummary, RetryPolicy};
use crate::noise::NoiseModel;
use crate::record::Record;
use crate::repro::BenchConfig;
use crate::store::{fate, CampaignStore, ChunkData, StoreError, StoreHeader};

/// Default checkpoint granularity: cells per committed chunk.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 256;

/// How a campaign run is executed (what it *measures* lives in the
/// dataset spec and the store header, never here — these knobs must not
/// influence result bytes except through the chunk size).
#[derive(Clone, Copy, Debug)]
pub struct CampaignConfig {
    /// Worker threads (clamped to >= 1). Does not affect result bytes.
    pub threads: usize,
    /// Cells per chunk / checkpoint (clamped to >= 1). Part of the
    /// store header: two stores are only byte-comparable at equal
    /// chunk size.
    pub checkpoint_every: u64,
    /// Resume from an existing store file instead of starting fresh.
    pub resume: bool,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig { threads: 1, checkpoint_every: DEFAULT_CHECKPOINT_EVERY, resume: false }
    }
}

/// What a campaign run did.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// All measured records, in canonical cell order (resumed chunks
    /// included).
    pub records: Vec<Record>,
    /// Merged fault accounting across the whole store.
    pub faults: FaultSummary,
    /// Total simulated benchmark time across the whole store.
    pub total_bench: SimTime,
    /// Cells in the campaign grid.
    pub cells_total: u64,
    /// Cells recovered from the store instead of re-measured.
    pub cells_resumed: u64,
    /// Chunks in the campaign grid.
    pub chunks_total: u64,
    /// Chunks recovered from the store.
    pub chunks_resumed: u64,
    /// Chunks stolen off another worker's deque this run.
    pub steals: u64,
}

impl CampaignReport {
    /// Upper bound on benchmarking time: `#records × budget` (the
    /// paper's "3 hours" bound for SuperMUC-NG).
    pub fn budget_bound(&self, bench: &BenchConfig) -> SimTime {
        SimTime(self.records.len() as u64 * bench.budget.picos())
    }
}

/// Per-worker chunk deques plus the steal counter.
struct StealQueues {
    queues: Vec<Mutex<VecDeque<u64>>>,
    steals: AtomicU64,
}

impl StealQueues {
    /// Deal the chunk range round-robin onto `workers` deques, so every
    /// worker starts with a spread of the remaining work.
    fn deal(first_chunk: u64, total_chunks: u64, workers: usize) -> StealQueues {
        let mut queues: Vec<VecDeque<u64>> = (0..workers).map(|_| VecDeque::new()).collect();
        for (i, chunk) in (first_chunk..total_chunks).enumerate() {
            queues[i % workers].push_back(chunk);
        }
        StealQueues {
            queues: queues.into_iter().map(Mutex::new).collect(),
            steals: AtomicU64::new(0),
        }
    }

    /// Next chunk for worker `w`: own deque front first, then steal
    /// from the back of the most-loaded victim.
    fn next(&self, w: usize) -> Option<u64> {
        let own = self
            .queues[w]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front();
        if own.is_some() {
            return own;
        }
        loop {
            // Pick the victim with the most remaining chunks.
            let mut victim = None;
            let mut most = 0usize;
            for (v, q) in self.queues.iter().enumerate() {
                if v == w {
                    continue;
                }
                let len = q.lock().unwrap_or_else(|e| e.into_inner()).len();
                if len > most {
                    most = len;
                    victim = Some(v);
                }
            }
            let v = victim?;
            // The victim may have drained between the scan and the
            // steal; rescan rather than give up.
            let stolen = self.queues[v]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_back();
            if stolen.is_some() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                mpcp_obs::counter_add!("campaign.steals", 1);
                return stolen;
            }
        }
    }
}

/// Measure one chunk: the contiguous cell-id range
/// `[index·chunk_size, min((index+1)·chunk_size, |grid|))`, walked in
/// canonical order. Pure function of `(grid, seed, configs, machine,
/// bench, plan, retry, index)` — the determinism anchor.
#[allow(clippy::too_many_arguments)]
fn measure_chunk(
    grid: &CellGrid,
    configs: &[AlgorithmConfig],
    machine: &Machine,
    seed: u64,
    bench: &BenchConfig,
    noise: &NoiseModel,
    plan: Option<&FaultPlan>,
    retry: &RetryPolicy,
    index: u64,
    chunk_size: u64,
) -> ChunkData {
    let start = index * chunk_size;
    let end = (start + chunk_size).min(grid.len());
    let mut chunk = ChunkData { index, start, ..ChunkData::default() };
    let mut span = mpcp_obs::span("campaign.chunk").attr("index", index);
    let mut id = start;
    while id < end {
        // One simulator per (nodes, ppn) run — cells are topo-major, so
        // equal-topology cells are contiguous within the chunk.
        let head = grid.cell(id);
        let mut run_span = mpcp_obs::span("measure")
            .attr("nodes", head.nodes)
            .attr("ppn", head.ppn);
        let run_start = id;
        let topo = Topology::new(head.nodes, head.ppn);
        let sim = Simulator::new(&machine.model, &topo);
        while id < end {
            let cell = grid.cell(id);
            if cell.nodes != head.nodes || cell.ppn != head.ppn {
                break;
            }
            let cfg = &configs[cell.uid as usize];
            chunk.nodes.push(cell.nodes);
            chunk.ppn.push(cell.ppn);
            chunk.msizes.push(cell.msize);
            chunk.uids.push(cell.uid);
            match measure_grid_cell(&sim, &topo, cfg, cell, seed, bench, noise, plan, retry) {
                CellMeasurement::Measured { record, result } => {
                    chunk.fates.push(fate::OK);
                    chunk.alg_ids.push(record.alg_id);
                    chunk.excluded.push(u8::from(record.excluded));
                    chunk.runtimes.push(record.runtime);
                    chunk.bases.push(record.base);
                    chunk.reps.push(record.reps);
                    chunk.retries += u64::from(result.attempts - 1);
                    chunk.retry_picos += result.retry_overhead.picos();
                    chunk.consumed_picos += result.consumed.picos();
                }
                CellMeasurement::Lost(result) => {
                    chunk.fates.push(match result.outcome {
                        crate::fault::CellOutcome::TimedOut => fate::TIMED_OUT,
                        _ => {
                            mpcp_obs::counter_add!("bench.cells_failed", 1);
                            fate::FAILED
                        }
                    });
                    chunk.retries += u64::from(result.attempts - 1);
                    chunk.retry_picos += result.retry_overhead.picos();
                    chunk.consumed_picos += result.consumed.picos();
                }
                CellMeasurement::SimError(e) => {
                    chunk.fates.push(fate::SIM_ERROR);
                    eprintln!(
                        "warning: campaign cell {} ({} n={} ppn={} m={}): {e}",
                        cell.id,
                        cfg.label(),
                        cell.nodes,
                        cell.ppn,
                        cell.msize
                    );
                }
            }
            id += 1;
        }
        run_span.set_attr("cells", id - run_start);
    }
    span.set_attr("cells", chunk.cells());
    span.set_attr("ok", chunk.ok_cells());
    chunk
}

/// Run (or resume) a campaign over `spec`'s grid into the store at
/// `store_path`.
///
/// With `cfg.resume` the store is opened and every committed chunk is
/// recovered (a torn tail from a crash is truncated away); otherwise
/// the file is created fresh. The remaining chunks are measured on
/// `cfg.threads` work-stealing workers and committed strictly in chunk
/// order, so the final file is byte-identical regardless of thread
/// count or interruption history.
pub fn run_campaign(
    spec: &DatasetSpec,
    library: &MpiLibrary,
    bench: &BenchConfig,
    plan: Option<&FaultPlan>,
    retry: &RetryPolicy,
    cfg: &CampaignConfig,
    store_path: &Path,
) -> Result<CampaignReport, StoreError> {
    let chunk_size = cfg.checkpoint_every.max(1);
    let header = StoreHeader::new(
        spec.id,
        spec.coll.mpi_name(),
        spec.lib.name(),
        spec.lib.version(),
        &spec.machine.name,
        spec.seed,
        spec.nodes.clone(),
        spec.ppn.clone(),
        spec.msizes.clone(),
        library.configs(spec.coll).len(),
        chunk_size,
        bench,
        retry,
        plan,
    );
    let (mut store, resumed) = if cfg.resume {
        CampaignStore::open_or_create(store_path, header)?
    } else {
        (CampaignStore::create(store_path, header)?, Vec::new())
    };
    run_chunks(spec, library, bench, plan, retry, cfg.threads, chunk_size, &resumed, |chunk| {
        store.append(chunk)
    })
}

/// Measure every chunk of `spec`'s grid after the `resumed` prefix on
/// `threads` work-stealing workers and hand each to `commit` strictly
/// in chunk order; a commit error stops the run. [`run_campaign`]
/// commits into its store, [`DatasetSpec::generate_with_faults`] keeps
/// the records in memory only.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_chunks<E>(
    spec: &DatasetSpec,
    library: &MpiLibrary,
    bench: &BenchConfig,
    plan: Option<&FaultPlan>,
    retry: &RetryPolicy,
    threads: usize,
    chunk_size: u64,
    resumed: &[ChunkData],
    mut commit: impl FnMut(&ChunkData) -> Result<(), E>,
) -> Result<CampaignReport, E> {
    let threads = threads.max(1);
    let configs = library.configs(spec.coll);
    let grid = spec.cell_grid(library);
    let cells_total = grid.len();
    let chunks_total = cells_total.div_ceil(chunk_size);

    let mut span = mpcp_obs::span("campaign.run")
        .attr("dataset", spec.id)
        .attr("threads", threads)
        .attr("chunks", chunks_total);
    let wall = mpcp_obs::maybe_now();

    let chunks_resumed = resumed.len() as u64;
    let cells_resumed: u64 = resumed.iter().map(ChunkData::cells).sum();
    mpcp_obs::counter_add!("campaign.cells_resumed", cells_resumed);

    let mut records: Vec<Record> = Vec::new();
    let mut faults = FaultSummary::default();
    let mut consumed_picos = 0u64;
    for chunk in resumed {
        records.extend(chunk.to_records());
        faults.merge(&chunk.summary());
        consumed_picos += chunk.consumed_picos;
    }

    let noise = NoiseModel::default();
    let queues = StealQueues::deal(chunks_resumed, chunks_total, threads);
    let mut commit_error: Option<E> = None;
    if chunks_resumed < chunks_total {
        let (tx, rx) = mpsc::channel::<(u64, ChunkData)>();
        std::thread::scope(|scope| {
            for w in 0..threads {
                let tx = tx.clone();
                let queues = &queues;
                let grid = &grid;
                let machine = &spec.machine;
                let noise = &noise;
                scope.spawn(move || {
                    while let Some(index) = queues.next(w) {
                        let chunk = measure_chunk(
                            grid, configs, machine, spec.seed, bench, noise, plan, retry,
                            index, chunk_size,
                        );
                        // A send error means the committer stopped
                        // (commit failure); stop measuring.
                        if tx.send((index, chunk)).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            // Committer: buffer out-of-order chunks, commit in order.
            let mut pending: BTreeMap<u64, ChunkData> = BTreeMap::new();
            let mut next = chunks_resumed;
            'commit: while let Ok((index, chunk)) = rx.recv() {
                pending.insert(index, chunk);
                while let Some(chunk) = pending.remove(&next) {
                    if let Err(e) = commit(&chunk) {
                        commit_error = Some(e);
                        break 'commit;
                    }
                    mpcp_obs::counter_add!("campaign.chunks", 1);
                    mpcp_obs::counter_add!("campaign.cells", chunk.cells());
                    records.extend(chunk.to_records());
                    faults.merge(&chunk.summary());
                    consumed_picos += chunk.consumed_picos;
                    next += 1;
                }
            }
            // Dropping rx unblocks any worker parked in send().
            drop(rx);
        });
    }
    if let Some(e) = commit_error {
        return Err(e);
    }

    let steals = queues.steals.load(Ordering::Relaxed);
    span.set_attr("records", records.len());
    span.set_attr("steals", steals);
    span.set_attr("cells_resumed", cells_resumed);
    if let Some(t0) = wall {
        let secs = t0.elapsed().as_secs_f64();
        let fresh = cells_total - cells_resumed;
        if secs > 0.0 && fresh > 0 {
            mpcp_obs::gauge_set!("campaign.cells_per_sec", fresh as f64 / secs);
        }
    }

    Ok(CampaignReport {
        records,
        faults,
        total_bench: SimTime(consumed_picos),
        cells_total,
        cells_resumed,
        chunks_total,
        chunks_resumed,
        steals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mpcp_campaign_{name}_{}", std::process::id()))
    }

    #[test]
    fn resume_on_a_complete_store_is_a_no_op() {
        let spec = DatasetSpec::tiny_for_tests();
        let lib = spec.library(None);
        let bench = BenchConfig::quick();
        let path = tmp("noop_resume");
        let cfg = CampaignConfig { threads: 1, checkpoint_every: 7, resume: false };
        let first = run_campaign(&spec, &lib, &bench, None, &RetryPolicy::default(), &cfg, &path)
            .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let again = run_campaign(
            &spec,
            &lib,
            &bench,
            None,
            &RetryPolicy::default(),
            &CampaignConfig { resume: true, ..cfg },
            &path,
        )
        .unwrap();
        assert_eq!(again.cells_resumed, again.cells_total);
        assert_eq!(again.chunks_resumed, again.chunks_total);
        assert_eq!(again.records, first.records);
        assert_eq!(again.faults, first.faults);
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunk_size_one_and_oversized_both_work() {
        let spec = DatasetSpec::tiny_for_tests();
        let lib = spec.library(None);
        let bench = BenchConfig::quick();
        for (name, every) in [("one", 1u64), ("huge", 10_000u64)] {
            let path = tmp(name);
            let cfg = CampaignConfig { threads: 3, checkpoint_every: every, resume: false };
            let report =
                run_campaign(&spec, &lib, &bench, None, &RetryPolicy::default(), &cfg, &path)
                    .unwrap();
            assert_eq!(report.records.len(), spec.sample_count(&lib));
            std::fs::remove_file(&path).ok();
        }
    }
}
