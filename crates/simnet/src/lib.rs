//! # mpcp-simnet — discrete-event cluster interconnect simulator
//!
//! This crate provides the *machine substrate* for the CLUSTER 2020
//! reproduction "Predicting MPI Collective Communication Performance Using
//! Machine Learning". The paper benchmarks MPI collective algorithms on
//! real clusters (Hydra, Jupiter, SuperMUC-NG); here, the cluster is
//! replaced by a deterministic discrete-event simulation with a flow-level
//! network model:
//!
//! * per-node NIC resources with one or more **rails** (dual-rail
//!   OmniPath on Hydra), FIFO bandwidth sharing on both the transmit and
//!   receive side,
//! * a shared-memory channel per node for intra-node messages,
//! * LogGP-style CPU overheads (`o_send`, `o_recv`) and wire latency,
//! * an **eager/rendezvous** protocol switch at a configurable threshold,
//! * per-byte local-reduction cost for reduction collectives.
//!
//! Collective algorithms are expressed as per-rank [`Program`]s — compact
//! instruction sequences with a segment-loop construct so that deeply
//! segmented schedules (4 MiB broadcast in 1 KiB segments) stay O(1) in
//! memory per rank. The [`Simulator`] executes all rank programs to
//! completion and reports per-rank finish times.
//!
//! The simulation is *exactly deterministic*: all measurement noise is
//! layered on top by the `mpcp-benchmark` crate.
//!
//! ```
//! use mpcp_simnet::{Machine, Topology, Simulator, Program, Instr};
//!
//! // Two nodes, one process each; rank 0 sends 4 KiB to rank 1.
//! let machine = Machine::hydra();
//! let topo = Topology::new(2, 1);
//! let programs = vec![
//!     Program::from_instrs(vec![Instr::send(1, 4096, 0)]),
//!     Program::from_instrs(vec![Instr::recv(0, 4096, 0)]),
//! ];
//! let result = Simulator::new(&machine.model, &topo).run(&programs).unwrap();
//! assert!(result.makespan().as_secs_f64() > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod engine;
pub mod error;
pub mod machine;
pub mod model;
pub mod program;
pub mod queue;
pub mod resource;
pub mod stats;
pub mod time;
pub mod topology;
pub mod util;

pub use engine::Simulator;
pub use error::SimError;
pub use machine::Machine;
pub use model::NetworkModel;
pub use program::{Instr, LoopBytes, Program, SegInstr};
pub use stats::SimResult;
pub use time::SimTime;
pub use topology::{Rank, Topology};
