//! The mpcp benchmark: regenerate a Table IV row and answer selection
//! queries over the wire, on one of two workloads, and print every
//! metric as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-cold --seed 1 --seconds 12 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- manifest > BENCHMARK.json
//! cargo run --release --manifest-path perfbench/Cargo.toml -- spread runs.jsonl
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with in-memory spans around every layer call and prints the
//! per-layer metrics, writing the spans to `perfbench/out/`.

mod host;
mod metrics;
mod regen;
mod stats;
mod trace;
mod wire;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use mpcp_benchmark::{DatasetSpec, LibKind};
use mpcp_collectives::Collective;
use mpcp_core::Instance;
use mpcp_simnet::Machine;

use metrics::Outcome;
use regen::{regen_pass, replay_layers, Dataset, Regen};
use stats::{best_median, median, percentile_is_valid};
use trace::Trace;
use wire::{Daemon, Stream, WireRun};

/// What a workload stresses.
#[derive(Clone, Copy)]
enum Kind {
    /// Table IV regenerations, with short wire chunks serving the
    /// regenerated selector on the test cells between them.
    Regen(fn(u64) -> DatasetSpec),
    /// Set-ups, each regenerating the served model, with long wire
    /// chunks of fresh queries between them.
    Serve,
}

struct Workload {
    name: &'static str,
    why: &'static str,
    kind: Kind,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "regen-allreduce",
        why: "d2 shape up to 4 MiB: long segment trains, so the simulator does nearly all the work; its wire stream cycles 12 cells, all cache hits",
        kind: Kind::Regen(allreduce_spec),
    },
    Workload {
        name: "serve-cold",
        why: "63-model Bcast XGBoost selector on fresh cells in its training range, far more than the cache holds; each set-up regenerates d1: many cheap cells",
        kind: Kind::Serve,
    },
];

/// d2's shape (Allreduce, Open MPI, Hydra) on a Table III sub-grid,
/// small enough that a run times dozens of regenerations.
fn allreduce_spec(seed: u64) -> DatasetSpec {
    DatasetSpec {
        id: "d2",
        coll: Collective::Allreduce,
        lib: LibKind::OpenMpi,
        machine: Machine::hydra(),
        nodes: vec![4, 7, 8],
        ppn: vec![1, 2],
        msizes: vec![16, 1 << 10, 16 << 10, 256 << 10, 1 << 20, 4 << 20],
        seed,
    }
}

/// d1's shape (Bcast, Open MPI, Hydra) with small messages, on the same
/// node counts.
fn bcast_spec(seed: u64) -> DatasetSpec {
    DatasetSpec {
        id: "d1",
        coll: Collective::Bcast,
        lib: LibKind::OpenMpi,
        machine: Machine::hydra(),
        nodes: vec![4, 7, 8],
        ppn: vec![1, 4],
        msizes: vec![1, 16, 256, 1 << 10, 4 << 10, 16 << 10],
        seed,
    }
}

/// Fewest rounds a run times. A round is one regeneration — a pass on
/// regen-*, a whole set-up on serve-* — and one wire chunk; a regen
/// round also times one set-up. Rounds repeat until the run's time is
/// up, so every timing draws its samples from the whole run, and
/// `setup_s`, `regen_s` and the wire metrics are each the best quarter
/// of them (see [`best_median`]).
const MIN_ROUNDS: usize = 12;
/// Wire timing window.
const WINDOW: Duration = Duration::from_millis(20);
/// Timed windows per wire chunk: a regen run spends most of a round
/// regenerating, a serve run on the wire.
const REGEN_CHUNK_WINDOWS: usize = 5;
const SERVE_CHUNK_WINDOWS: usize = 30;
/// Untimed wire traffic before each chunk's first window (connections,
/// caches).
const WARM: Duration = Duration::from_millis(50);
/// Queries per layer in the traced serving replay.
const REPLAY_QUERIES: u64 = 2000;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(metrics::RUN_SECONDS);
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced: traced.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest(&workload_table()));
            Ok(())
        }
        Some("spread") => spread(&argv[1..]),
        _ => parse_args(&argv).and_then(|a| run(&a)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn workload_table() -> Vec<(&'static str, &'static str)> {
    WORKLOADS.iter().map(|w| (w.name, w.why)).collect()
}

/// Scratch space inside the checkout: campaign stores and traces.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run(args: &Args) -> Result<(), String> {
    metrics::check_registry(&workload_table())?;
    let dir = out_dir().join(format!("{}-{}", args.workload.name, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut trace = Trace::new(args.traced);
    let outcome = run_workload(args, &dir.join("campaign.store"), &mut trace);
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = outcome?;
    if args.traced {
        let path = out_dir().join(format!("trace-{}.json", args.workload.name));
        std::fs::write(&path, trace.to_chrome_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "perfbench: {} spans written to {}",
            trace.spans().len(),
            path.display()
        );
    }
    for f in &outcome.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let line = outcome.result_line(args.traced)?;
    for (name, value) in &outcome.values {
        eprintln!("  {name:<28} {value}");
    }
    println!("{line}");
    if outcome.failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} correctness check(s) failed",
            outcome.failures.len()
        ))
    }
}

/// Per-layer results gathered while the workload runs.
#[derive(Default)]
struct Layers {
    /// Regeneration passes after the first, timed without and with
    /// spans.
    passes_off: Vec<f64>,
    passes_on: Vec<f64>,
    /// Traced passes, the warm-up pass included: the per-pass layer
    /// times divide the spans' totals by it.
    traced_passes: usize,
    /// From the first traced pass: its numbers, its campaign wall time,
    /// and the layer replay run right after it.
    store_bytes: u64,
    campaign_secs: f64,
    replay: Option<regen::Replay>,
    decode_secs: Vec<f64>,
    artifact_bytes: u64,
}

/// A run in progress: the outcome so far and the layer numbers.
struct Run<'a> {
    args: &'a Args,
    store: &'a Path,
    out: Outcome,
    layers: Layers,
    digest: Option<u64>,
    /// The disabled trace untraced calls record into.
    off: Trace,
}

impl Run<'_> {
    /// One regeneration pass, traced or not; checks it reproduces the
    /// first pass's store bit for bit. The first pass is the warm-up
    /// and is not timed.
    fn pass(&mut self, ds: &Dataset, trace: Option<&mut Trace>) -> Result<Regen, String> {
        let traced = trace.is_some();
        let r = match trace {
            Some(trace) => {
                let r = regen_pass(ds, self.store, trace)?;
                // The replay runs right after the campaign it is compared
                // with, so both see the same machine.
                if self.layers.replay.is_none() {
                    self.layers.replay = Some(replay_layers(ds, &r.records, trace)?);
                    self.layers.store_bytes = r.store_bytes;
                    self.layers.campaign_secs = r.campaign_secs;
                }
                self.layers.traced_passes += 1;
                r
            }
            None => regen_pass(ds, self.store, &mut self.off)?,
        };
        self.out.attempted += ds.cells() + r.eval_instances;
        self.out.failed += r.lost + r.eval_skipped;
        self.out.failures.extend(r.failures.iter().cloned());
        let first = self.digest.is_none();
        match self.digest {
            None => {
                self.digest = Some(r.digest);
                self.out.set("t4_speedup", r.t4_speedup);
                eprintln!(
                    "perfbench: {} store fnv1a {:016x} ({} bytes), t4_speedup {}",
                    ds.spec.id, r.digest, r.store_bytes, r.t4_speedup
                );
            }
            Some(d) if d != r.digest => self
                .out
                .failures
                .push("a repeated pass wrote a different store".to_string()),
            Some(_) => {}
        }
        if !first {
            if traced {
                &mut self.layers.passes_on
            } else {
                &mut self.layers.passes_off
            }
            .push(r.secs);
        }
        Ok(r)
    }

    /// Encode the served model and start the daemon on it.
    fn serve(&mut self, ds: &Dataset, r: &Regen) -> Result<Daemon, String> {
        let bytes = wire::artifact_bytes(ds, &r.served);
        self.layers.artifact_bytes = bytes.len() as u64;
        let daemon = wire::start_daemon(ds, &bytes)?;
        self.layers.decode_secs.push(daemon.decode_secs);
        Ok(daemon)
    }

    /// The `i`-th repeated pass: traced runs alternate untraced and
    /// traced passes, so tracing overhead is measured under the same
    /// conditions.
    fn repeat_pass(&mut self, ds: &Dataset, i: usize, trace: &mut Trace) -> Result<Regen, String> {
        let traced = self.args.traced && i.is_multiple_of(2);
        self.pass(ds, traced.then_some(trace))
    }
}

/// Run a workload; everything it does, set-up included, counts towards
/// `args.seconds`, which is exceeded only to reach [`MIN_ROUNDS`]. First
/// a warm-up regeneration, untimed, and the daemon serving its model;
/// then rounds (see [`MIN_ROUNDS`]) until the time is up.
fn run_workload(args: &Args, store: &Path, trace: &mut Trace) -> Result<Outcome, String> {
    let mut run = Run {
        args,
        store,
        out: Outcome::default(),
        layers: Layers::default(),
        digest: None,
        off: Trace::new(false),
    };
    let t0 = Instant::now();
    let seconds = args.seconds as f64;
    let spec = match args.workload.kind {
        Kind::Regen(spec) => spec,
        Kind::Serve => bcast_spec,
    };
    let ds = Dataset::new(spec(args.seed));
    let regen = run.repeat_pass(&ds, 0, trace)?;
    let daemon = run.serve(&ds, &regen)?;
    let selector = &regen.served.0;
    let (stream, chunk_windows) = match args.workload.kind {
        Kind::Regen(_) => (Stream::Cycle(test_cells(&ds)), REGEN_CHUNK_WINDOWS),
        Kind::Serve => (Stream::cold(&ds, args.seed), SERVE_CHUNK_WINDOWS),
    };
    if let Err(e) = wire::precheck(&daemon, selector, &stream) {
        run.out.failures.push(e);
    }

    let before = daemon.svc.stats();
    let (mut wire_off, mut wire_on) = (WireRun::default(), WireRun::default());
    let (mut setups, mut rounds) = (Vec::new(), Vec::new());
    let mut next_query = 0;
    for i in 1.. {
        let round = Instant::now();
        match args.workload.kind {
            Kind::Regen(spec) => {
                run.repeat_pass(&ds, i, trace)?;
                let t = Instant::now();
                let ds = Dataset::new(spec(args.seed));
                let daemon = run.serve(&ds, &regen)?;
                setups.push(t.elapsed().as_secs_f64());
                drop(daemon);
            }
            Kind::Serve => {
                let t = Instant::now();
                let ds = Dataset::new(spec(args.seed));
                let r = run.repeat_pass(&ds, i, trace)?;
                let daemon = run.serve(&ds, &r)?;
                setups.push(t.elapsed().as_secs_f64());
                drop(daemon);
            }
        }
        // Traced runs alternate untraced and traced rounds, passes and
        // wire chunks alike, so tracing overhead is measured under the
        // same conditions.
        let traced = run.args.traced && i % 2 == 0;
        let t = if traced { &mut *trace } else { &mut run.off };
        let (w, next) = wire::drive(
            &daemon,
            selector,
            &stream,
            next_query,
            WARM,
            chunk_windows,
            WINDOW,
            t,
        )?;
        next_query = next;
        if traced { &mut wire_on } else { &mut wire_off }.merge(w);
        rounds.push(round.elapsed().as_secs_f64());
        // The memory of one unit of work: the warm-up regeneration, the
        // serving daemon, and a round's set-up and wire chunk.
        if i == 1 && !args.traced {
            run.out.set("peak_rss_mb", host::peak_rss_mib()?);
        }
        let next_end = t0.elapsed().as_secs_f64() + med(&rounds)?;
        if i >= MIN_ROUNDS && next_end > seconds {
            break;
        }
    }
    let after = daemon.svc.stats();
    let hits = (after.hits() - before.hits()) as f64;
    let total = hits + (after.misses() - before.misses()) as f64;
    let hit_ratio = if total > 0.0 { hits / total } else { 0.0 };
    let net = daemon.server.join();
    run.out.set("setup_s", best(&setups)?);
    let passes = &run.layers.passes_off;
    let times: Vec<String> = passes.iter().map(|p| format!("{p:.3}")).collect();
    eprintln!("perfbench: regen passes: {} s", times.join(" "));
    run.out.set("regen_s", best(passes)?);
    for w in [&mut wire_off, &mut wire_on] {
        run.out.attempted += w.attempted;
        run.out.failed += w.failed;
        run.out.failures.append(&mut w.failures);
    }
    let stats = wire_off.best_stats();
    if !percentile_is_valid(stats.samples, 0.99) {
        run.out.failures.push(format!(
            "{} wire samples are too few for a p99",
            stats.samples
        ));
    }
    eprintln!(
        "perfbench: wire {} requests in {} windows of {:?}; {} samples in the busiest quarter, {} failed",
        wire_off.attempted,
        wire_off.windows.len(),
        WINDOW,
        stats.samples,
        wire_off.failed
    );
    run.out.set("wire_qps", stats.qps);
    run.out.set("wire_p50_us", stats.p50_us);
    run.out.set("wire_p99_us", stats.p99_us);
    if !args.traced {
        return Ok(run.out);
    }

    // Traced run: the serving layers one public call at a time.
    let serve = wire::replay_layers(
        &daemon.svc,
        &daemon.key,
        selector,
        &stream,
        REPLAY_QUERIES,
        trace,
    )?;
    let l = &run.layers;
    let self_s = trace.self_seconds();
    let self_of = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    let per_pass = |name: &str| self_of(name) / l.traced_passes.max(1) as f64;
    let replay = l.replay.as_ref().ok_or("no traced regeneration pass ran")?;
    let campaign_s = l.campaign_secs;
    let sim_s = self_of("simnet.run");
    let overhead_pct = match args.workload.kind {
        Kind::Regen(_) => (best(&l.passes_on)? / best(&l.passes_off)? - 1.0) * 100.0,
        Kind::Serve => (stats.qps / wire_on.best_stats().qps - 1.0) * 100.0,
    };
    let o = &mut run.out;
    o.set("simnet.run_s", sim_s);
    o.set("simnet.events", replay.events as f64);
    o.set("simnet.events_per_s", replay.events as f64 / sim_s);
    o.set(
        "simnet.max_run_s",
        trace.durations("simnet.run").last().copied().unwrap_or(0.0) * 1e-9,
    );
    o.set("collectives.build_s", self_of("collectives.build"));
    o.set("repro.summarize_s", self_of("repro.summarize"));
    o.set("repro.reps", replay.reps as f64);
    o.set("campaign.cells_per_s", ds.cells() as f64 / campaign_s);
    o.set("store.bytes", l.store_bytes as f64);
    o.set(
        "store.load_s",
        per_pass("store.load") + per_pass("store.to_records"),
    );
    o.set("core.train_s.knn", per_pass("core.train.knn"));
    o.set("core.train_s.gam", per_pass("core.train.gam"));
    o.set("core.train_s.xgboost", per_pass("core.train.xgboost"));
    o.set("core.evaluate_s", per_pass("core.evaluate"));
    o.set("core.eval_skipped", regen.eval_skipped as f64);
    o.set("artifact.bytes", l.artifact_bytes as f64);
    o.set("artifact.decode_s", med(&l.decode_secs)?);
    o.set("core.select_us", serve.core_select_us);
    o.set("ml.select_batch_rows_per_s", serve.batch_rows_per_s);
    o.set("serve.select_us", serve.serve_select_us);
    o.set("serve.hit_ratio", hit_ratio);
    o.set("batch.query_us", serve.batch_query_us);
    o.set(
        "net.overhead_us",
        med(&trace.durations("net.round_trip"))? / 1e3 - serve.serve_select_us,
    );
    o.set("net.requests", net.requests as f64);
    o.set("net.shed", net.shed as f64);
    o.set("net.errors", net.errors as f64);
    o.set("trace_overhead_pct", overhead_pct);
    Ok(run.out)
}

fn med(values: &[f64]) -> Result<f64, String> {
    median(values).ok_or_else(|| "no samples".to_string())
}

fn best(values: &[f64]) -> Result<f64, String> {
    best_median(values).ok_or_else(|| "no samples".to_string())
}

/// The Table IV test cells of a dataset, in a fixed order.
fn test_cells(ds: &Dataset) -> Vec<Instance> {
    let mut cells = Vec::new();
    for &n in &ds.test {
        for &p in &ds.spec.ppn {
            for &m in &ds.spec.msizes {
                cells.push(Instance::new(ds.spec.coll, m, n, p));
            }
        }
    }
    cells
}

/// Per-metric median, quartiles and spread (interquartile distance over
/// median) across result lines, as the benchmark's acceptance rule
/// computes them.
fn spread(files: &[String]) -> Result<(), String> {
    let mut values: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for f in files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("reading {f}: {e}"))?;
        for line in text.lines().filter(|l| l.starts_with('{')) {
            let doc = mpcp_obs::json::parse(line).map_err(|e| format!("{f}: {e}"))?;
            if let Some(mpcp_obs::json::JsonValue::Obj(m)) = doc.get("metrics") {
                for (name, v) in m {
                    if let Some(x) = v.get("value").and_then(|x| x.as_f64()) {
                        values.entry(name.clone()).or_default().push(x);
                    }
                }
            }
        }
    }
    println!(
        "{:<28} {:>4} {:>14} {:>14} {:>14} {:>8}",
        "metric", "n", "q1", "median", "q3", "spread"
    );
    for (name, v) in &values {
        match stats::quartiles(v) {
            Some([q1, q2, q3]) => println!(
                "{name:<28} {:>4} {q1:>14.6} {q2:>14.6} {q3:>14.6} {:>8.4}",
                v.len(),
                stats::spread(v).unwrap_or(f64::NAN)
            ),
            None => println!("{name:<28} {:>4} (needs two values)", v.len()),
        }
    }
    Ok(())
}
