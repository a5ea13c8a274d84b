//! Wire selection: the served selector behind `NetServer`, driven by
//! closed-loop `NetClient` connections, plus the traced in-process
//! replay of the serving layers on the same query stream.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mpcp_collectives::Collective;
use mpcp_core::{ArtifactMeta, Instance, Selection, Selector, SelectorArtifact, TrainReport};
use mpcp_serve::{
    BatchConfig, BatchServer, NetClient, NetConfig, NetServer, PredictionService, Reply, ShardKey,
    ShedFn,
};
use mpcp_simnet::Topology;

use crate::regen::Dataset;
use crate::stats::{best_share, median, LatencyHist};
use crate::trace::Trace;

/// Closed-loop connections, one client thread each (one per core).
pub const CONNECTIONS: usize = 2;
/// Per-shard result cache of the served model (the daemon's default).
pub const CACHE_CELLS: usize = 4096;
/// Reply deadline; a request beyond it counts as failed.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Replies checked against in-process `Selector::select` before timing.
const PRECHECK_QUERIES: u64 = 200;
/// During timing, one cold-stream reply in this many is kept and checked
/// against `Selector::select` afterwards.
const COLD_CHECK_EVERY: u64 = 32;

/// Smallest message size of the cold stream. The served model is trained
/// on 1 B–16 KiB; below 16 B there are too few distinct sizes, and cells
/// drawn there would keep hitting the cache.
const COLD_MIN_MSIZE: u64 = 16;

/// Where a workload's queries come from.
pub enum Stream {
    /// A fixed cell list, cycled; each connection starts at its own offset.
    Cycle(Vec<Instance>),
    /// Fresh cells inside the served model's training range: m
    /// log-uniform, nodes and ppn uniform, each over an inclusive range.
    /// The space is far larger than the cache.
    Cold {
        coll: Collective,
        seed: u64,
        msize: (u64, u64),
        nodes: (u32, u32),
        ppn: (u32, u32),
    },
}

impl Stream {
    /// The cold stream over a dataset's grid: m from 16 B to its largest
    /// message, nodes and ppn from its smallest to its largest count.
    pub fn cold(ds: &Dataset, seed: u64) -> Stream {
        let span = |v: &[u32]| {
            (
                v.iter().copied().min().unwrap_or(1),
                v.iter().copied().max().unwrap_or(1),
            )
        };
        let max_msize = ds.spec.msizes.iter().copied().max().unwrap_or(1);
        Stream::Cold {
            coll: ds.spec.coll,
            seed,
            msize: (COLD_MIN_MSIZE.min(max_msize), max_msize),
            nodes: span(&ds.spec.nodes),
            ppn: span(&ds.spec.ppn),
        }
    }

    /// Query `i` of stream `lane` (each connection is one lane).
    pub fn query(&self, lane: u64, i: u64) -> Instance {
        match self {
            Stream::Cycle(cells) => cells[cycle_index(cells.len(), lane, i)],
            Stream::Cold {
                coll,
                seed,
                msize,
                nodes,
                ppn,
            } => {
                let h1 = mix(mix(seed ^ lane.rotate_left(40)) ^ i);
                let (h2, h3) = (mix(h1), mix(h1 ^ 1));
                // 53 random bits → u in [0, 1); m = lo · ((hi + 1) / lo)^u.
                let u = (h1 >> 11) as f64 / (1u64 << 53) as f64;
                let (lo, hi) = (msize.0 as f64, msize.1 as f64 + 1.0);
                let m = ((lo * (hi / lo).powf(u)) as u64).clamp(msize.0, msize.1);
                let uniform = |h: u64, (a, b): (u32, u32)| a + (h % u64::from(b - a + 1)) as u32;
                Instance::new(*coll, m, uniform(h2, *nodes), uniform(h3, *ppn))
            }
        }
    }
}

/// Position of query `i` of `lane` in a cycle of `n` cells.
fn cycle_index(n: usize, lane: u64, i: u64) -> usize {
    let n = n as u64;
    (lane.wrapping_mul(n / CONNECTIONS as u64).wrapping_add(i) % n) as usize
}

/// SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The served model's artifact bytes. The manifest is fixed so the
/// bytes depend only on the model.
pub fn artifact_bytes(ds: &Dataset, served: &(Selector, TrainReport)) -> Vec<u8> {
    let meta = ArtifactMeta {
        collective: ds.spec.coll,
        library: format!("{} {}", ds.library.name, ds.library.version),
        machine: ds.spec.machine.name.clone(),
        git_sha: String::new(),
        seed: Some(ds.spec.seed),
        min_samples: 1,
        created_unix: 0,
    };
    served.0.to_artifact_bytes(&served.1, &meta)
}

/// A running daemon over one decoded artifact.
pub struct Daemon {
    pub svc: Arc<PredictionService>,
    pub key: ShardKey,
    pub server: NetServer,
    pub decode_secs: f64,
}

/// Decode the artifact and serve it on an ephemeral localhost port.
pub fn start_daemon(ds: &Dataset, bytes: &[u8]) -> Result<Daemon, String> {
    let t = Instant::now();
    let artifact = SelectorArtifact::from_bytes(bytes).map_err(|e| format!("artifact: {e}"))?;
    let decode_secs = t.elapsed().as_secs_f64();
    let svc = Arc::new(PredictionService::new(CACHE_CELLS));
    let key = svc.insert_artifact(artifact);
    // Shed to the library's own decision logic, as `mpcp served` does.
    let shed: ShedFn = {
        let (key, coll, lib) = (key.clone(), ds.spec.coll, ds.spec.library(None));
        Arc::new(move |k: &ShardKey, inst: &Instance| {
            if *k != key || inst.coll != coll {
                return None;
            }
            let uid = lib.default_choice(coll, inst.msize, &Topology::new(inst.nodes, inst.ppn));
            Some(Selection {
                uid: u32::try_from(uid).ok()?,
                predicted_us: None,
                degraded: true,
            })
        })
    };
    let cfg = NetConfig {
        batch: BatchConfig {
            workers: CONNECTIONS,
            ..BatchConfig::default()
        },
        reply_timeout: REPLY_TIMEOUT,
        ..NetConfig::default()
    };
    let server = NetServer::start(Arc::clone(&svc), shed, cfg)
        .map_err(|e| format!("starting the daemon: {e}"))?;
    Ok(Daemon {
        svc,
        key,
        server,
        decode_secs,
    })
}

/// Requests completed inside one timing window.
#[derive(Default)]
pub struct Window {
    ok: u64,
    lat: LatencyHist,
}

/// What wire chunks measured.
#[derive(Default)]
pub struct WireRun {
    pub attempted: u64,
    pub failed: u64,
    pub windows: Vec<Window>,
    pub window_secs: f64,
    pub failures: Vec<String>,
}

/// Wire metrics pooled over the busiest windows.
pub struct WireStats {
    /// Completed non-failed replies per second.
    pub qps: f64,
    /// Round-trip percentiles, µs; a failed request counts as the
    /// reply deadline, missing every latency limit.
    pub p50_us: f64,
    pub p99_us: f64,
    /// Requests the percentiles are over.
    pub samples: usize,
}

impl WireRun {
    pub fn merge(&mut self, other: WireRun) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.windows.extend(other.windows);
        self.window_secs = other.window_secs;
        self.failures.extend(other.failures);
    }

    /// Pool the [`best_share`] of windows that completed the most
    /// requests.
    pub fn best_stats(&self) -> WireStats {
        let mut order: Vec<&Window> = self.windows.iter().collect();
        order.sort_by_key(|w| std::cmp::Reverse(w.ok));
        order.truncate(best_share(order.len()));
        let deadline_us = REPLY_TIMEOUT.as_secs_f64() * 1e6;
        let mut lat = LatencyHist::default();
        for w in &order {
            lat.add(&w.lat);
        }
        let ok: u64 = order.iter().map(|w| w.ok).sum();
        WireStats {
            qps: ok as f64 / (order.len() as f64 * self.window_secs),
            p50_us: lat.percentile_us(0.50, deadline_us).unwrap_or(deadline_us),
            p99_us: lat.percentile_us(0.99, deadline_us).unwrap_or(deadline_us),
            samples: lat.len(),
        }
    }
}

/// Expected in-process answer per cell of a cycled stream (empty for a
/// cold stream, whose replies are sampled and checked afterwards).
fn expected_cycle(selector: &Selector, stream: &Stream) -> Vec<(u32, f64)> {
    match stream {
        Stream::Cycle(cells) => cells.iter().map(|c| selector.select(c)).collect(),
        Stream::Cold { .. } => Vec::new(),
    }
}

fn same_answer(sel: &Selection, want: (u32, f64)) -> bool {
    sel.uid == want.0 && sel.predicted_us.map(f64::to_bits) == Some(want.1.to_bits())
}

/// Before timing: a sample of wire replies must equal in-process
/// `Selector::select`, each request getting exactly its own reply.
pub fn precheck(daemon: &Daemon, selector: &Selector, stream: &Stream) -> Result<(), String> {
    let mut client = connect(daemon)?;
    for i in 0..PRECHECK_QUERIES {
        let inst = stream.query(CONNECTIONS as u64, i);
        let want = selector.select(&inst);
        match round_trip(&mut client, &daemon.key, &inst) {
            Ok((sel, false)) if !sel.degraded && same_answer(&sel, want) => {}
            other => {
                return Err(format!(
                    "wire reply for {inst} was {other:?}, in-process {want:?}"
                ))
            }
        }
    }
    Ok(())
}

fn connect(daemon: &Daemon) -> Result<NetClient, String> {
    let client =
        NetClient::connect(daemon.server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    client
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| format!("connect: {e}"))?;
    Ok(client)
}

/// One request and its reply; the reply must carry the request's id.
fn round_trip(
    client: &mut NetClient,
    key: &ShardKey,
    inst: &Instance,
) -> Result<(Selection, bool), String> {
    let id = client
        .send_select(key, inst)
        .map_err(|e| format!("send: {e}"))?;
    let (got, reply) = client.recv().map_err(|e| format!("recv: {e}"))?;
    if got != id {
        return Err(format!("reply id {got} for request {id}"));
    }
    match reply {
        Reply::Selection { selection, shed } => Ok((selection, shed)),
        Reply::Error { code, message } => Err(format!("error {code}: {message}")),
        Reply::ShutdownAck => Err("shutdown ack for a select".to_string()),
    }
}

/// Drive the daemon closed-loop from [`CONNECTIONS`] clients: warm up
/// for `warm`, then time `windows` windows of `window` each. Query ids
/// continue from `first_query` so repeated chunks see fresh cold cells.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    daemon: &Daemon,
    selector: &Selector,
    stream: &Stream,
    first_query: u64,
    warm: Duration,
    windows: usize,
    window: Duration,
    trace: &mut Trace,
) -> Result<(WireRun, u64), String> {
    let expected = expected_cycle(selector, stream);
    let mut clients = (0..CONNECTIONS)
        .map(|_| connect(daemon))
        .collect::<Result<Vec<_>, String>>()?;
    let start = Instant::now() + warm;
    let end = start + window * windows as u32;
    struct Lane {
        windows: Vec<Window>,
        attempted: u64,
        failed: u64,
        next_query: u64,
        kept: Vec<(Instance, Selection)>,
        errors: Vec<String>,
    }
    let lanes = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(lane, client)| {
                let (expected, key) = (&expected, &daemon.key);
                let mut lane_trace = trace.for_thread(lane as u32 + 1);
                scope.spawn(move || {
                    let mut out = Lane {
                        windows: (0..windows).map(|_| Window::default()).collect(),
                        attempted: 0,
                        failed: 0,
                        next_query: first_query,
                        kept: Vec::new(),
                        errors: Vec::new(),
                    };
                    loop {
                        let i = out.next_query;
                        out.next_query += 1;
                        let inst = stream.query(lane as u64, i);
                        let t = Instant::now();
                        let span = lane_trace.enter("net.round_trip", (lane as u64) << 48 | i);
                        let reply = round_trip(client, key, &inst);
                        lane_trace.exit(span);
                        let done = Instant::now();
                        if done >= end {
                            break;
                        }
                        let ok = match &reply {
                            Ok((sel, false)) if !sel.degraded => {
                                if expected.is_empty() {
                                    if i.is_multiple_of(COLD_CHECK_EVERY) {
                                        out.kept.push((inst, *sel));
                                    }
                                    true
                                } else {
                                    let want =
                                        expected[cycle_index(expected.len(), lane as u64, i)];
                                    let same = same_answer(sel, want);
                                    if !same && out.errors.len() < 3 {
                                        out.errors.push(format!("wire reply for {inst} differs"));
                                    }
                                    same
                                }
                            }
                            Ok(_) => false,
                            Err(e) => {
                                if out.errors.len() < 3 {
                                    out.errors.push(e.clone());
                                }
                                false
                            }
                        };
                        if done < start {
                            continue;
                        }
                        let w = &mut out.windows
                            [((done - start).as_nanos() / window.as_nanos()) as usize];
                        out.attempted += 1;
                        if ok {
                            w.ok += 1;
                            w.lat.record_ns((done - t).as_nanos() as u64);
                        } else {
                            out.failed += 1;
                            w.lat.record_failed();
                        }
                    }
                    (out, lane_trace)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<(Lane, Trace)>>()
    });

    let mut run = WireRun {
        window_secs: window.as_secs_f64(),
        ..WireRun::default()
    };
    let mut next_query = first_query;
    let mut merged: Vec<Window> = (0..windows).map(|_| Window::default()).collect();
    for (lane, lane_trace) in lanes {
        run.attempted += lane.attempted;
        run.failed += lane.failed;
        next_query = next_query.max(lane.next_query);
        run.failures.extend(lane.errors);
        for (inst, sel) in lane.kept {
            if !same_answer(&sel, selector.select(&inst)) {
                run.failures.push(format!(
                    "wire reply for {inst} differs from Selector::select"
                ));
            }
        }
        for (m, w) in merged.iter_mut().zip(lane.windows) {
            m.ok += w.ok;
            m.lat.add(&w.lat);
        }
        trace.absorb(lane_trace);
    }
    run.windows = merged;
    Ok((run, next_query))
}

/// Per-layer serving numbers from the in-process replay.
pub struct ServeLayers {
    pub core_select_us: f64,
    pub batch_rows_per_s: f64,
    pub serve_select_us: f64,
    pub batch_query_us: f64,
}

/// Time the serving layers one public call at a time on `n` rounds of
/// the workload's stream. Each round calls, on fresh stream queries,
/// `Selector::select`, `Selector::select_batch` (on 1 row in even
/// rounds and 2 in odd ones: with two closed-loop connections those are
/// the batches `BatchServer` forms), `PredictionService::select` (on the
/// served, already warm service) and `BatchServer::query`. Interleaving
/// the layers round by round lets them see the same machine.
pub fn replay_layers(
    svc: &Arc<PredictionService>,
    key: &ShardKey,
    selector: &Selector,
    stream: &Stream,
    n: u64,
    trace: &mut Trace,
) -> Result<ServeLayers, String> {
    let p50_us = |trace: &Trace, name: &str| {
        let d = trace.durations(name);
        median(&d).map_or(0.0, |ns| ns / 1e3)
    };
    let root = trace.enter("replay.serve", 0);
    let server = BatchServer::start(
        Arc::clone(svc),
        BatchConfig {
            workers: CONNECTIONS,
            ..BatchConfig::default()
        },
    );
    // A lane of its own, so the replay's cold cells are fresh and the
    // service keeps missing (inserting and evicting) as on the wire.
    let lane = CONNECTIONS as u64 + 1;
    let mut batch_rows = 0u64;
    for i in 0..n {
        let q: Vec<Instance> = (5 * i..5 * i + 5).map(|j| stream.query(lane, j)).collect();
        std::hint::black_box(trace.time("core.select", i, || selector.select(&q[0])));
        let rows = &q[1..2 + (i % 2) as usize];
        let batch = trace.time("ml.select_batch", i, || selector.select_batch(rows));
        if batch.len() != rows.len() {
            return Err("select_batch returned the wrong number of rows".to_string());
        }
        batch_rows += rows.len() as u64;
        trace
            .time("serve.select", i, || svc.select(key, &q[3]))
            .map_err(|e| format!("PredictionService::select: {e}"))?;
        trace
            .time("batch.query", i, || server.query(key.clone(), q[4]))
            .map_err(|e| format!("BatchServer::query: {e}"))?;
    }
    server.shutdown();
    trace.exit(root);
    let batch_secs = trace.durations("ml.select_batch").iter().sum::<f64>() * 1e-9;
    Ok(ServeLayers {
        core_select_us: p50_us(trace, "core.select"),
        batch_rows_per_s: batch_rows as f64 / batch_secs,
        serve_select_us: p50_us(trace, "serve.select"),
        batch_query_us: p50_us(trace, "batch.query"),
    })
}
