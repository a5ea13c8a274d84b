//! Golden makespan table: the simulator's exact output over a fixed grid.
//!
//! Every registered broadcast, allreduce and alltoall configuration (the
//! Open MPI and Intel MPI lists, deduplicated by algorithm kind) runs on
//! five topologies at six message sizes on the Hydra model, plus one
//! skewed-start run per configuration. Each row records the makespan in
//! picoseconds, the event count and an FNV-1a digest of the per-rank
//! finish times. The committed table (`golden_makespans.txt`) is the
//! bitwise oracle for engine optimisations: a faster engine must
//! reproduce every row exactly.
//!
//! Regenerate (only when the cost model or a schedule changes on
//! purpose, never to absorb an engine change):
//!
//! ```text
//! cargo test --release -p mpcp-collectives --test golden_makespans \
//!     -- --ignored --nocapture print_golden_table
//! ```
//!
//! It prints the table and writes it to
//! `target/tmp/golden_makespans.txt`, ready to copy over the committed one.

use std::fmt::Write as _;

use mpcp_collectives::{registry, AlgKind, Collective};
use mpcp_simnet::{Machine, SimResult, SimTime, Simulator, Topology};

/// `(nodes, ppn)` of the grid.
const TOPOLOGIES: [(u32, u32); 5] = [(2, 1), (4, 2), (7, 2), (8, 8), (16, 8)];

/// Message sizes of the grid (bytes): 0, 16 B, 1 KiB, 16 KiB, 256 KiB,
/// 4 MiB.
const SIZES: [u64; 6] = [0, 16, 1 << 10, 16 << 10, 256 << 10, 4 << 20];

/// The skewed-start run of every configuration.
const SKEW_TOPOLOGY: (u32, u32) = (7, 2);
const SKEW_SIZE: u64 = 16 << 10;

const TABLE: &str = include_str!("golden_makespans.txt");

/// Every registered configuration of the paper's three collectives, in
/// registry order, each algorithm kind once.
fn kinds() -> Vec<AlgKind> {
    let mut kinds: Vec<AlgKind> = Vec::new();
    for coll in [Collective::Bcast, Collective::Allreduce, Collective::Alltoall] {
        for cfg in registry::open_mpi(coll).into_iter().chain(registry::intel(coll)) {
            if !kinds.contains(&cfg.kind) {
                kinds.push(cfg.kind);
            }
        }
    }
    kinds
}

/// A deterministic start offset pattern: ranks start 0–3 µs late in
/// 250 ns steps.
fn skewed_starts(topo: &Topology) -> Vec<SimTime> {
    (0..u64::from(topo.size())).map(|r| SimTime((r * 7 % 13) * 250_000)).collect()
}

fn finish_digest(r: &SimResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in &r.finish {
        for b in t.picos().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn label(kind: AlgKind) -> String {
    let params = kind.param_string();
    let coll = kind.collective().mpi_name();
    if params.is_empty() {
        format!("{coll}:{}", kind.family())
    } else {
        format!("{coll}:{}({params})", kind.family())
    }
}

/// One table row: `label topology size makespan_ps events finish_fnv`.
fn row(kind: AlgKind, (nodes, ppn): (u32, u32), msize: u64, skewed: bool) -> String {
    let machine = Machine::hydra();
    let topo = Topology::new(nodes, ppn);
    let sim = Simulator::new(&machine.model, &topo);
    let progs = kind.build(&topo, msize);
    let r = if skewed {
        sim.run_with_skew(&progs, &skewed_starts(&topo))
    } else {
        sim.run(&progs)
    }
    .unwrap_or_else(|e| panic!("{} on {nodes}x{ppn} m={msize}: {e}", label(kind)));
    let shape = if skewed { format!("{nodes}x{ppn}+skew") } else { format!("{nodes}x{ppn}") };
    format!(
        "{}\t{shape}\t{msize}\t{}\t{}\t{:016x}",
        label(kind),
        r.makespan().picos(),
        r.events,
        finish_digest(&r)
    )
}

/// Every grid cell as `(kind, topology, size, skewed)`, in table order.
fn cells() -> Vec<(AlgKind, (u32, u32), u64, bool)> {
    let mut cells = Vec::new();
    for kind in kinds() {
        for &topo in &TOPOLOGIES {
            for &m in &SIZES {
                cells.push((kind, topo, m, false));
            }
        }
        cells.push((kind, SKEW_TOPOLOGY, SKEW_SIZE, true));
    }
    cells
}

/// Compute rows on a few threads (the grid holds multi-million-event
/// cells); the result is in `cells()` order.
fn compute_rows() -> Vec<String> {
    let cells = cells();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(4);
    let mut rows = vec![String::new(); cells.len()];
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let cells = &cells;
                s.spawn(move || {
                    let mine = cells.iter().enumerate().skip(t).step_by(threads);
                    mine.map(|(i, &(k, topo, m, skewed))| (i, row(k, topo, m, skewed)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for w in workers {
            for (i, r) in w.join().expect("a golden-table worker panicked") {
                rows[i] = r;
            }
        }
    });
    rows
}

fn render(rows: &[String]) -> String {
    let mut out = String::new();
    out.push_str("# Golden simulator output (Hydra model); see golden_makespans.rs.\n");
    out.push_str("# label\ttopology\tbytes\tmakespan_ps\tevents\tfinish_fnv\n");
    for r in rows {
        let _ = writeln!(out, "{r}");
    }
    out
}

#[test]
fn simulator_output_matches_the_golden_table() {
    let want: Vec<&str> = TABLE.lines().filter(|l| !l.starts_with('#')).collect();
    let got = compute_rows();
    assert_eq!(want.len(), got.len(), "the grid changed shape; regenerate the table on purpose");
    let diffs: Vec<String> = want
        .iter()
        .zip(&got)
        .filter(|(w, g)| **w != g.as_str())
        .map(|(w, g)| format!("  want {w}\n   got {g}"))
        .collect();
    assert!(
        diffs.is_empty(),
        "{} of {} rows differ from the golden table:\n{}",
        diffs.len(),
        got.len(),
        diffs.iter().take(20).cloned().collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn the_grid_covers_the_heavy_segmented_cells() {
    let cells = cells();
    let seg_1k = cells
        .iter()
        .filter(|(k, topo, m, _)| {
            label(*k).contains("seg=1K") && *topo == (16, 8) && *m == 4 << 20
        })
        .count();
    assert!(seg_1k >= 10, "only {seg_1k} 1 KiB-segment 4 MiB cells on 16x8");
    assert!(cells.iter().any(|c| c.3), "no skewed-start run");
}

#[test]
#[ignore = "regenerates the golden table; run on purpose"]
fn print_golden_table() {
    let table = render(&compute_rows());
    print!("{table}");
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_makespans.txt");
    std::fs::write(&path, &table).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    eprintln!("wrote {}", path.display());
}
