//! Batched request serving: a bounded queue drained by worker threads
//! through [`Selector::select_batch`].
//!
//! Individual misses pay per-model dispatch once per query; under
//! concurrent load it is cheaper to drain whatever has queued up,
//! group it by shard, and push each group through the selector's
//! batched argmin kernel in one call. Results land in the same
//! per-shard LRU cache the scalar path uses, so a batch miss warms
//! later [`PredictionService::select`] calls and vice versa.
//!
//! [`Selector::select_batch`]: mpcp_core::Selector::select_batch

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use mpcp_core::{Instance, Selection};

use crate::{lock, PredictionService, ServeError, ServiceSnapshot, ShardKey};

/// Worker-pool knobs.
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// Worker threads draining the queue (floored at 1).
    pub workers: usize,
    /// Most requests a worker takes per drain (floored at 1).
    pub max_batch: usize,
    /// Admission cap: jobs waiting in the queue beyond which
    /// [`BatchServer::submit`] rejects with [`ServeError::Overloaded`]
    /// instead of queueing (floored at 1). Bounding the queue is what
    /// lets callers shed to a fallback decision under overload rather
    /// than letting latency grow without limit.
    pub max_queue: usize,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig { workers: 2, max_batch: 64, max_queue: 1024 }
    }
}

/// Sentinel for [`Job::submitted_ns`] when telemetry was off at
/// submit time (the telemetry clock may legitimately read 0).
const UNSTAMPED: u64 = u64::MAX;

struct Job {
    key: ShardKey,
    instance: Instance,
    reply: mpsc::Sender<Result<Selection, ServeError>>,
    /// Telemetry-clock reading at submit, [`UNSTAMPED`] if telemetry
    /// was disabled — the anchor for queue-wait and end-to-end latency
    /// attribution.
    submitted_ns: u64,
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// Test hook run by each worker at the top of every drain iteration —
/// lets regression tests wedge the workers deliberately (to prove the
/// queue cap holds and [`Ticket::wait_timeout`] fires) without the
/// workers holding the queue lock while stalled.
type WorkerGate = Arc<dyn Fn() + Send + Sync>;

struct Inner {
    service: Arc<PredictionService>,
    state: Mutex<QueueState>,
    cv: Condvar,
    max_queue: usize,
    gate: Option<WorkerGate>,
}

/// A pending reply from [`BatchServer::submit`].
pub struct Ticket {
    rx: mpsc::Receiver<Result<Selection, ServeError>>,
}

impl Ticket {
    /// Block until the batch worker answers. A worker that died (or a
    /// server shut down) before replying is [`ServeError::Disconnected`].
    pub fn wait(self) -> Result<Selection, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Disconnected))
    }

    /// Like [`Ticket::wait`], but give up after `timeout` with
    /// [`ServeError::Timeout`]. The daemon reply path uses this so a
    /// wedged worker turns into a typed error on the wire instead of a
    /// connection that hangs forever.
    pub fn wait_timeout(self, timeout: std::time::Duration) -> Result<Selection, ServeError> {
        match self.rx.recv_timeout(timeout) {
            Ok(reply) => reply,
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ServeError::Timeout),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServeError::Disconnected),
        }
    }
}

/// A worker pool answering queued selection requests in batches.
///
/// Dropping the server (or calling [`BatchServer::shutdown`]) stops
/// accepting new work, drains what is already queued, and joins the
/// workers — no request that was accepted is silently dropped.
pub struct BatchServer {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl BatchServer {
    /// Spawn `cfg.workers` threads, named `mpcp-batch-{i}`, serving
    /// queries against `service`.
    ///
    /// # Panics
    /// Panics if the OS cannot create a worker thread, as
    /// `std::thread::spawn` does.
    pub fn start(service: Arc<PredictionService>, cfg: BatchConfig) -> BatchServer {
        BatchServer::start_inner(service, cfg, None)
    }

    /// [`BatchServer::start`] with a test-only hook each worker runs at
    /// the top of every drain iteration. Regression tests use it to
    /// stall the workers on purpose; production code must not.
    #[doc(hidden)]
    pub fn start_with_gate(
        service: Arc<PredictionService>,
        cfg: BatchConfig,
        gate: Arc<dyn Fn() + Send + Sync>,
    ) -> BatchServer {
        BatchServer::start_inner(service, cfg, Some(gate))
    }

    fn start_inner(
        service: Arc<PredictionService>,
        cfg: BatchConfig,
        gate: Option<WorkerGate>,
    ) -> BatchServer {
        let inner = Arc::new(Inner {
            service,
            state: Mutex::new(QueueState { jobs: VecDeque::new(), shutdown: false }),
            cv: Condvar::new(),
            max_queue: cfg.max_queue.max(1),
            gate,
        });
        let max_batch = cfg.max_batch.max(1);
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("mpcp-batch-{i}"))
                    .spawn(move || worker_loop(&inner, max_batch))
                    .unwrap_or_else(|e| panic!("cannot spawn batch worker {i}: {e}"))
            })
            .collect();
        BatchServer { inner, workers }
    }

    /// Enqueue one request; the returned [`Ticket`] resolves when a
    /// worker has served the batch containing it.
    ///
    /// Admission is bounded: once `max_queue` jobs are already waiting,
    /// the request is rejected with [`ServeError::Overloaded`] instead
    /// of queued. Rejection is the caller's cue to shed — answer from
    /// the library-default fallback rather than stack latency onto an
    /// already-behind queue.
    pub fn submit(&self, key: ShardKey, instance: Instance) -> Result<Ticket, ServeError> {
        let (tx, rx) = mpsc::channel();
        let submitted_ns = self
            .inner
            .service
            .telemetry()
            .map_or(UNSTAMPED, crate::telemetry::ServiceTelemetry::now_ns);
        {
            let mut st = lock(&self.inner.state);
            if st.shutdown {
                return Err(ServeError::Disconnected);
            }
            if st.jobs.len() >= self.inner.max_queue {
                mpcp_obs::counter_add!("serve.queue_rejected", 1);
                return Err(ServeError::Overloaded);
            }
            st.jobs.push_back(Job { key, instance, reply: tx, submitted_ns });
            mpcp_obs::gauge_set!("serve.queue_depth", st.jobs.len() as f64);
        }
        self.inner.cv.notify_one();
        Ok(Ticket { rx })
    }

    /// [`BatchServer::submit`] + [`Ticket::wait`] in one call.
    pub fn query(&self, key: ShardKey, instance: Instance) -> Result<Selection, ServeError> {
        self.submit(key, instance)?.wait()
    }

    /// Stop accepting work, drain the queue, and join the workers.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        lock(&self.inner.state).shutdown = true;
        self.inner.cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for BatchServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn worker_loop(inner: &Inner, max_batch: usize) {
    loop {
        if let Some(gate) = &inner.gate {
            gate();
        }
        let batch: Vec<Job> = {
            let mut st = lock(&inner.state);
            loop {
                if !st.jobs.is_empty() {
                    break;
                }
                if st.shutdown {
                    return;
                }
                st = inner
                    .cv
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            let n = st.jobs.len().min(max_batch);
            let drained: Vec<Job> = st.jobs.drain(..n).collect();
            mpcp_obs::gauge_set!("serve.queue_depth", st.jobs.len() as f64);
            drained
        };
        mpcp_obs::hist_record!("serve.batch_size", batch.len() as u64);
        serve_one_batch(&inner.service, batch);
    }
}

/// Serve a drained batch: group by shard, answer cache hits directly,
/// and push each shard's misses through one `select_batch` call.
///
/// The whole batch resolves against **one** routing snapshot, so every
/// group sees the same shard set even if an artifact publication lands
/// mid-batch.
fn serve_one_batch(service: &PredictionService, jobs: Vec<Job>) {
    let snapshot = service.snapshot();
    let mut groups: HashMap<ShardKey, Vec<Job>> = HashMap::new();
    for j in jobs {
        groups.entry(j.key.clone()).or_default().push(j);
    }
    for (key, group) in groups {
        serve_shard_group(&snapshot, &key, group);
    }
}

fn serve_shard_group(snapshot: &ServiceSnapshot, key: &ShardKey, jobs: Vec<Job>) {
    let Some(shard) = snapshot.shard(key) else {
        let e = ServeError::UnknownShard { key: key.clone() };
        for j in jobs {
            let _ = j.reply.send(Err(e.clone()));
        }
        return;
    };
    // Latency attribution: queue-wait is recorded per job as it is
    // picked up; the cache-probe pass and the batched compute call are
    // timed per group (windowed histograms plus trace spans), and each
    // reply records the job's end-to-end submit→reply latency.
    let tel = shard.telemetry.get();
    let probe_start = tel.map_or(0, crate::telemetry::ShardTelemetry::now_ns);
    let mut misses: Vec<Job> = Vec::new();
    {
        let _probe_span = mpcp_obs::span("serve.batch.cache_probe").attr("jobs", jobs.len());
        for j in jobs {
            if let (Some(tl), false) = (tel, j.submitted_ns == UNSTAMPED) {
                let now = tl.now_ns();
                tl.record_queue_wait(now, now.saturating_sub(j.submitted_ns));
            }
            if let Err(e) = shard.check_collective(&j.instance) {
                let _ = j.reply.send(Err(e));
                continue;
            }
            if let Some(sel) = shard.cache_lookup(&j.instance) {
                // ORDERING: Relaxed — monotonic stat counter; readers
                // only ever sum it, nothing is published under it.
                shard.hits.fetch_add(1, Ordering::Relaxed);
                mpcp_obs::counter_add!("serve.cache_hits", 1);
                if let (Some(tl), false) = (tel, j.submitted_ns == UNSTAMPED) {
                    let now = tl.now_ns();
                    tl.record_batch_done(now, now.saturating_sub(j.submitted_ns), true);
                }
                let _ = j.reply.send(Ok(sel));
            } else {
                // ORDERING: Relaxed — monotonic stat counter, as above.
                shard.misses.fetch_add(1, Ordering::Relaxed);
                mpcp_obs::counter_add!("serve.cache_misses", 1);
                misses.push(j);
            }
        }
    }
    if let Some(tl) = tel {
        let now = tl.now_ns();
        tl.record_batch_probe(now, now.saturating_sub(probe_start));
    }
    if misses.is_empty() {
        return;
    }
    // Collapse duplicate instances before computing: N identical queued
    // misses must cost exactly one `select_batch` row and one LRU
    // insert, with that one result fanned out to every waiting reply.
    let mut unique: Vec<Instance> = Vec::with_capacity(misses.len());
    let mut index_of: HashMap<(u64, u32, u32), usize> = HashMap::new();
    let mut slot: Vec<usize> = Vec::with_capacity(misses.len());
    for j in &misses {
        let k = (j.instance.msize, j.instance.nodes, j.instance.ppn);
        let next = unique.len();
        let idx = *index_of.entry(k).or_insert(next);
        if idx == next {
            unique.push(j.instance);
        }
        slot.push(idx);
    }
    let deduped = misses.len() - unique.len();
    if deduped > 0 {
        mpcp_obs::counter_add!("serve.batch.dedup_saved", deduped as u64);
    }
    let t = mpcp_obs::maybe_now();
    let compute_start = tel.map_or(0, crate::telemetry::ShardTelemetry::now_ns);
    let best = {
        let _compute_span =
            mpcp_obs::span("serve.batch.compute").attr("batch", unique.len());
        shard.selector.select_batch(&unique)
    };
    mpcp_obs::record_elapsed(shard.latency_metric, t);
    if let Some(tl) = tel {
        let now = tl.now_ns();
        tl.record_batch_compute(now, now.saturating_sub(compute_start));
    }
    // Resolve each distinct instance once — including its single cache
    // insert — then fan the per-row result out to all of its waiters.
    let mut results: Vec<Result<Selection, ServeError>> = Vec::with_capacity(unique.len());
    for (inst, (uid, pred)) in unique.iter().zip(best) {
        // `select_batch` marks an all-non-finite instance with the
        // `u32::MAX` sentinel; surface it as the same typed error the
        // scalar path returns (and as the degraded-selection instant
        // event the flight recorder triggers on).
        if uid == u32::MAX || !pred.is_finite() {
            mpcp_obs::event("serve.degraded.no_finite")
                .attr("msize", inst.msize)
                .attr("nodes", inst.nodes)
                .attr("ppn", inst.ppn)
                .emit();
            results.push(Err(ServeError::NoFinitePrediction { instance: *inst }));
            continue;
        }
        let sel = Selection { uid, predicted_us: Some(pred), degraded: false };
        shard.cache_insert(inst, sel);
        results.push(Ok(sel));
    }
    for (j, idx) in misses.into_iter().zip(slot) {
        let reply = results.get(idx).cloned().unwrap_or(Err(ServeError::Disconnected));
        if let (Some(tl), false, true) = (tel, j.submitted_ns == UNSTAMPED, reply.is_ok()) {
            let now = tl.now_ns();
            tl.record_batch_done(now, now.saturating_sub(j.submitted_ns), false);
        }
        let _ = j.reply.send(reply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::PoisonError;
    use std::time::Duration;

    /// A latch the worker gate blocks on until the test releases it —
    /// the "deliberately stalled worker" from the regression briefs.
    struct Gate {
        open: Mutex<bool>,
        cv: Condvar,
    }

    impl Gate {
        fn new() -> Arc<Gate> {
            Arc::new(Gate { open: Mutex::new(false), cv: Condvar::new() })
        }

        fn release(&self) {
            *lock(&self.open) = true;
            self.cv.notify_all();
        }

        fn as_fn(self: &Arc<Gate>) -> Arc<dyn Fn() + Send + Sync> {
            let g = Arc::clone(self);
            Arc::new(move || {
                let mut open = lock(&g.open);
                while !*open {
                    open = g.cv.wait(open).unwrap_or_else(PoisonError::into_inner);
                }
            })
        }
    }

    fn fixture_service() -> (Arc<PredictionService>, ShardKey, mpcp_collectives::Collective) {
        let artifact = crate::test_artifact();
        let coll = artifact.meta.collective;
        let svc = Arc::new(PredictionService::new(64));
        let key = svc.insert_artifact(artifact);
        (svc, key, coll)
    }

    #[test]
    fn stalled_worker_cannot_grow_queue_past_cap() {
        let (svc, key, coll) = fixture_service();
        let gate = Gate::new();
        let server = BatchServer::start_with_gate(
            Arc::clone(&svc),
            BatchConfig { workers: 1, max_batch: 64, max_queue: 4 },
            gate.as_fn(),
        );
        // The lone worker is wedged in the gate, so nothing drains:
        // exactly `max_queue` submissions are admitted and every one
        // past the cap is a typed rejection, not unbounded growth.
        let insts: Vec<Instance> =
            (0..8).map(|i| Instance::new(coll, 64 + i as u64 * 8, 2, 1)).collect();
        let tickets: Vec<Ticket> = insts[..4]
            .iter()
            .map(|i| server.submit(key.clone(), *i).expect("under cap admits"))
            .collect();
        for i in &insts[4..] {
            assert!(matches!(
                server.submit(key.clone(), *i),
                Err(ServeError::Overloaded)
            ));
        }
        // Releasing the worker serves everything that was admitted.
        gate.release();
        for (t, i) in tickets.into_iter().zip(&insts[..4]) {
            let got = t.wait().expect("admitted job is served");
            let want = svc.select_uncached(&key, i).expect("oracle");
            assert_eq!(got.uid, want.uid);
            assert_eq!(
                got.predicted_us.map(f64::to_bits),
                want.predicted_us.map(f64::to_bits)
            );
        }
        server.shutdown();
    }

    #[test]
    fn wait_timeout_fires_against_wedged_worker() {
        let (svc, key, coll) = fixture_service();
        let gate = Gate::new();
        let server = BatchServer::start_with_gate(
            Arc::clone(&svc),
            BatchConfig { workers: 1, max_batch: 8, max_queue: 8 },
            gate.as_fn(),
        );
        let inst = Instance::new(coll, 256, 2, 1);
        let ticket = server.submit(key.clone(), inst).expect("admitted");
        assert_eq!(
            ticket.wait_timeout(Duration::from_millis(50)),
            Err(ServeError::Timeout),
            "a wedged worker must surface as Timeout, not a hang"
        );
        // Un-wedge so shutdown can join the worker; a live worker then
        // answers well within a generous deadline.
        gate.release();
        let sel = server
            .submit(key, inst)
            .expect("admitted")
            .wait_timeout(Duration::from_secs(30))
            .expect("live worker answers in time");
        assert!(!sel.degraded);
        server.shutdown();
    }

    #[test]
    fn duplicate_misses_cost_one_computed_row() {
        let (svc, key, coll) = fixture_service();
        let gate = Gate::new();
        let server = BatchServer::start_with_gate(
            Arc::clone(&svc),
            BatchConfig { workers: 1, max_batch: 64, max_queue: 64 },
            gate.as_fn(),
        );
        // Queue N identical cold misses while the worker is wedged, so
        // they all land in one drained batch.
        const N: usize = 8;
        let inst = Instance::new(coll, 4096, 4, 2);
        // This counter is only bumped by the miss-dedupe path, and no
        // other test in this binary queues duplicate instances, so the
        // delta is exact. Recording is off by default in tests, and goes
        // back off when this test ends, passed or failed.
        let _recording = mpcp_obs::set_enabled_scoped(true);
        let dedup_before = mpcp_obs::metrics::counter("serve.batch.dedup_saved").get();
        let tickets: Vec<Ticket> = (0..N)
            .map(|_| server.submit(key.clone(), inst).expect("admitted"))
            .collect();
        gate.release();
        let replies: Vec<Selection> =
            tickets.into_iter().map(|t| t.wait().expect("served")).collect();
        // Every waiter got the same answer, bit for bit.
        for r in &replies[1..] {
            assert_eq!(r.uid, replies[0].uid);
            assert_eq!(
                r.predicted_us.map(f64::to_bits),
                replies[0].predicted_us.map(f64::to_bits)
            );
        }
        assert_eq!(
            mpcp_obs::metrics::counter("serve.batch.dedup_saved").get() - dedup_before,
            (N - 1) as u64,
            "N identical queued misses must collapse to one computed row"
        );
        let stats = svc.stats();
        assert_eq!(stats.shards[0].inserts, 1, "one cache insert for N duplicate misses");
        assert_eq!(stats.misses(), N as u64, "all N probed as misses before the compute");
        server.shutdown();
    }
}
