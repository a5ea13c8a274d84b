//! The discrete-event simulation engine.
//!
//! The engine executes one [`Program`] per rank with MPI-like semantics:
//!
//! * **Eager** messages (≤ eager threshold) are buffered: the sender's
//!   blocking `Send` completes once the payload has been injected into the
//!   sender-side resource (NIC rail or memory channel); the payload then
//!   drains at the receiver and is matched against posted receives, or
//!   parked in an unexpected-message queue (a later match pays an extra
//!   copy).
//! * **Rendezvous** messages (&gt; eager threshold) first exchange a
//!   request-to-send / clear-to-send control round trip; the payload only
//!   moves once the receive is posted, and the sender stays engaged until
//!   injection finishes (synchronous-send behaviour).
//! * Nonblocking `ISend`/`IRecv` operations complete in the background and
//!   are collected by `WaitAll`.
//!
//! Bandwidth contention is modelled with per-node FIFO resources (NIC
//! transmit, NIC receive, shared-memory channels); see
//! [`crate::resource::FifoResource`]. One deliberate approximation keeps
//! the event count low: a message's receive-side drain slot is reserved at
//! injection time rather than at wire arrival, so two messages arriving
//! nearly simultaneously from different sources are drained in
//! *reservation* order, which can differ from arrival order by at most the
//! sender-side queueing difference. Collective schedules are insensitive
//! to this reordering.
//!
//! The engine is exactly deterministic: events at equal times run in the
//! order they were scheduled (see [`crate::queue::RadixQueue`]), and no
//! randomness exists below the benchmark layer. A thread's runs reuse one
//! set of buffers (event queue, message slab, matching queues, resources),
//! and cost conversions are hoisted out of the event loop; neither changes
//! a single picosecond of the result, which the golden makespan table in
//! `mpcp-collectives`' tests pins.

use std::cell::Cell;

use crate::error::SimError;
use crate::model::NetworkModel;
use crate::program::{Instr, LoopBytes, Program, SegInstr, Tag};
use crate::queue::{MatchQueue, RadixQueue};
use crate::resource::FifoResource;
use crate::stats::SimResult;
use crate::time::SimTime;
use crate::topology::{Rank, Topology};
use crate::util::match_key;

/// A configured simulator for one machine model and topology.
///
/// `run` may be called many times with different programs; each run is
/// independent.
pub struct Simulator<'m> {
    model: &'m NetworkModel,
    topo: Topology,
}

impl<'m> Simulator<'m> {
    /// Create a simulator for `model` and `topo`.
    pub fn new(model: &'m NetworkModel, topo: &Topology) -> Self {
        Simulator { model, topo: topo.clone() }
    }

    /// Execute one program per rank, all starting at t = 0.
    pub fn run(&self, programs: &[Program]) -> Result<SimResult, SimError> {
        self.run_skewed(programs, None)
    }

    /// Execute with per-rank start offsets (process skew injection).
    pub fn run_with_skew(
        &self,
        programs: &[Program],
        starts: &[SimTime],
    ) -> Result<SimResult, SimError> {
        self.run_skewed(programs, Some(starts))
    }

    fn run_skewed(
        &self,
        programs: &[Program],
        starts: Option<&[SimTime]>,
    ) -> Result<SimResult, SimError> {
        let p = self.topo.size();
        if programs.len() != p as usize {
            return Err(SimError::ProgramCountMismatch { programs: programs.len(), ranks: p });
        }
        if let Some(s) = starts {
            if s.len() != p as usize {
                return Err(SimError::ProgramCountMismatch { programs: s.len(), ranks: p });
            }
        }
        for (r, prog) in programs.iter().enumerate() {
            prog.validate(r as Rank, p)
                .map_err(|reason| SimError::InvalidProgram { rank: r as Rank, reason })?;
        }
        let mut span = mpcp_obs::span("simulate")
            .attr("nodes", self.topo.nodes())
            .attr("ranks", p);
        let wall = mpcp_obs::maybe_now();
        let mut scratch = SCRATCH.try_with(Cell::take).ok().flatten().unwrap_or_default();
        scratch.reset(p as usize, self.topo.nodes() as usize, self.model);
        let result = Exec::new(self.model, &self.topo, programs, starts, &mut scratch).run();
        // Ignored only during thread teardown, when the buffers are dropped.
        let _ = SCRATCH.try_with(|s| s.set(Some(scratch)));
        if let Ok(r) = &result {
            mpcp_obs::counter_add!("simnet.runs", 1);
            mpcp_obs::counter_add!("simnet.events", r.events);
            mpcp_obs::counter_add!("simnet.messages", r.messages);
            mpcp_obs::counter_add!("simnet.bytes_inter", r.bytes_inter);
            mpcp_obs::counter_add!("simnet.bytes_intra", r.bytes_intra);
            mpcp_obs::hist_record!("simnet.run.events", r.events);
            span.set_attr("events", r.events);
            span.set_attr("messages", r.messages);
            span.set_attr("bytes_inter", r.bytes_inter);
            span.set_attr("bytes_intra", r.bytes_intra);
            span.set_attr("sim_us", r.makespan().as_micros_f64());
        }
        mpcp_obs::record_elapsed("simnet.run.wall_ns", wall);
        result
    }
}

// ---------------------------------------------------------------------------
// internal execution state
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// Rank CPU becomes free; fetch and issue the next instruction.
    Advance { rank: Rank },
    /// A completion for the rank's current blocking instruction.
    CurDone { rank: Rank },
    /// A completion for a nonblocking operation.
    NbDone { rank: Rank },
    /// Sender-side injection finished.
    SenderDone { msg: u32 },
    /// Payload fully drained at the receiver node.
    Delivery { msg: u32 },
    /// Rendezvous request-to-send reached the receiver.
    RtsArrive { msg: u32 },
    /// Rendezvous clear-to-send reached the sender.
    CtsArrive { msg: u32 },
}

struct Msg {
    src: Rank,
    dst: Rank,
    bytes: u64,
    tag: Tag,
    /// Source and destination share a node.
    intra: bool,
    /// Blocking send: sender-side completion unblocks the current instr.
    send_counts: bool,
    /// Matched receive was blocking (set at match time).
    recv_counts: bool,
    rendezvous: bool,
}

struct PostedRecv {
    bytes: u64,
    counts_current: bool,
}

/// Buffers that one thread's runs reuse, so a run allocates only its
/// result and per-rank interpreter state.
#[derive(Default)]
struct Scratch {
    queue: RadixQueue<EventKind>,
    /// Per node: NIC transmit, NIC receive and shared-memory resources.
    nic_tx: Vec<FifoResource>,
    nic_rx: Vec<FifoResource>,
    mem: Vec<FifoResource>,
    msgs: Vec<Msg>,
    free_msgs: Vec<u32>,
    /// Per rank: posted-but-unmatched receives, keyed by (src, tag).
    posted: Vec<MatchQueue<PostedRecv>>,
    /// Per rank: arrived-but-unmatched messages (eager payloads or
    /// rendezvous RTS).
    arrived: Vec<MatchQueue<u32>>,
}

impl Scratch {
    /// Empty every buffer and size it for `ranks` ranks on `nodes` nodes
    /// of `model`.
    fn reset(&mut self, ranks: usize, nodes: usize, model: &NetworkModel) {
        reset_pool(&mut self.nic_tx, nodes, model.rails);
        reset_pool(&mut self.nic_rx, nodes, model.rails);
        reset_pool(&mut self.mem, nodes, model.mem_channels);
        self.queue.clear();
        self.msgs.clear();
        self.free_msgs.clear();
        for q in &mut self.posted {
            q.clear();
        }
        for q in &mut self.arrived {
            q.clear();
        }
        if self.posted.len() < ranks {
            self.posted.resize_with(ranks, MatchQueue::default);
            self.arrived.resize_with(ranks, MatchQueue::default);
        }
    }
}

/// Make the first `n` resources of `pool` idle `servers`-server ones.
fn reset_pool(pool: &mut Vec<FifoResource>, n: usize, servers: u32) {
    if pool.first().is_some_and(|r| r.servers() != servers as usize) {
        pool.clear();
    }
    for r in pool.iter_mut().take(n) {
        r.reset();
    }
    if pool.len() < n {
        pool.resize_with(n, || FifoResource::new(servers));
    }
}

thread_local! {
    static SCRATCH: Cell<Option<Box<Scratch>>> = const { Cell::new(None) };
}

/// A per-byte cost of the model memoised on its last byte count.
/// Segment loops ask for one size over and over; the costs are pure, so
/// the memo returns exactly what a fresh conversion would.
struct Memo {
    cost: fn(&NetworkModel, u64) -> SimTime,
    bytes: u64,
    time: SimTime,
}

impl Memo {
    fn new(model: &NetworkModel, cost: fn(&NetworkModel, u64) -> SimTime) -> Self {
        Memo { cost, bytes: 0, time: cost(model, 0) }
    }

    #[inline]
    fn get(&mut self, model: &NetworkModel, bytes: u64) -> SimTime {
        if bytes != self.bytes {
            self.bytes = bytes;
            self.time = (self.cost)(model, bytes);
        }
        self.time
    }
}

/// Per-rank interpreter state.
struct RankState<'p> {
    pc: usize,
    body: Option<&'p [SegInstr]>,
    loop_bytes: LoopBytes,
    loop_iters: u32,
    loop_iter: u32,
    loop_pc: usize,
    /// Completions the current blocking instruction still needs.
    pending_current: u8,
    /// Nonblocking operations in flight.
    outstanding: u32,
    waiting_all: bool,
    finished: bool,
    finish_time: SimTime,
}

impl<'p> RankState<'p> {
    fn new() -> Self {
        RankState {
            pc: 0,
            body: None,
            loop_bytes: LoopBytes::Fixed(0),
            loop_iters: 0,
            loop_iter: 0,
            loop_pc: 0,
            pending_current: 0,
            outstanding: 0,
            waiting_all: false,
            finished: false,
            finish_time: SimTime::ZERO,
        }
    }
}

/// An instruction with loop bytes/tags resolved.
enum RInstr {
    Send { peer: Rank, bytes: u64, tag: Tag, blocking: bool },
    Recv { peer: Rank, bytes: u64, tag: Tag, blocking: bool },
    SendRecv { s_peer: Rank, s_bytes: u64, s_tag: Tag, r_peer: Rank, r_bytes: u64, r_tag: Tag },
    Compute { bytes: u64 },
    WaitAll,
}

struct Exec<'m, 'p, 's> {
    model: &'m NetworkModel,
    topo: &'p Topology,
    programs: &'p [Program],
    ranks: Vec<RankState<'p>>,
    scratch: &'s mut Scratch,
    o_send: SimTime,
    o_recv: SimTime,
    alpha_inter: SimTime,
    alpha_intra: SimTime,
    rail_time: Memo,
    mem_time: Memo,
    reduce_time: Memo,
    unexpected_time: Memo,
    events: u64,
    delivered: u64,
    bytes_inter: u64,
    bytes_intra: u64,
    recv_bytes: Vec<u64>,
    sent_bytes: Vec<u64>,
    starts: Vec<SimTime>,
    error: Option<SimError>,
}

impl<'m, 'p, 's> Exec<'m, 'p, 's> {
    fn new(
        model: &'m NetworkModel,
        topo: &'p Topology,
        programs: &'p [Program],
        starts: Option<&[SimTime]>,
        scratch: &'s mut Scratch,
    ) -> Self {
        let p = topo.size() as usize;
        let starts: Vec<SimTime> = match starts {
            Some(s) => s.to_vec(),
            None => vec![SimTime::ZERO; p],
        };
        Exec {
            model,
            topo,
            programs,
            ranks: (0..p).map(|_| RankState::new()).collect(),
            scratch,
            o_send: model.o_send_t(),
            o_recv: model.o_recv_t(),
            alpha_inter: model.alpha_inter_t(),
            alpha_intra: model.alpha_intra_t(),
            rail_time: Memo::new(model, NetworkModel::rail_time),
            mem_time: Memo::new(model, NetworkModel::mem_time),
            reduce_time: Memo::new(model, NetworkModel::reduce_time),
            unexpected_time: Memo::new(model, NetworkModel::unexpected_time),
            events: 0,
            delivered: 0,
            bytes_inter: 0,
            bytes_intra: 0,
            recv_bytes: vec![0; p],
            sent_bytes: vec![0; p],
            starts,
            error: None,
        }
    }

    #[inline]
    fn push_event(&mut self, time: SimTime, kind: EventKind) {
        self.scratch.queue.push(time, kind);
    }

    #[inline]
    fn alpha(&self, intra: bool) -> SimTime {
        if intra {
            self.alpha_intra
        } else {
            self.alpha_inter
        }
    }

    fn alloc_msg(&mut self, msg: Msg) -> u32 {
        let msgs = &mut self.scratch.msgs;
        if let Some(id) = self.scratch.free_msgs.pop() {
            msgs[id as usize] = msg;
            id
        } else {
            msgs.push(msg);
            (msgs.len() - 1) as u32
        }
    }

    #[inline]
    fn free_msg(&mut self, id: u32) {
        self.scratch.free_msgs.push(id);
    }

    #[inline]
    fn msg(&self, id: u32) -> &Msg {
        &self.scratch.msgs[id as usize]
    }

    fn run(&mut self) -> Result<SimResult, SimError> {
        for r in 0..self.topo.size() {
            self.push_event(self.starts[r as usize], EventKind::Advance { rank: r });
        }
        while let Some((t, kind)) = self.scratch.queue.pop() {
            self.events += 1;
            match kind {
                EventKind::Advance { rank } | EventKind::CurDone { rank } => {
                    if matches!(kind, EventKind::CurDone { .. }) {
                        let st = &mut self.ranks[rank as usize];
                        debug_assert!(st.pending_current > 0);
                        st.pending_current -= 1;
                        if st.pending_current > 0 {
                            continue;
                        }
                    }
                    self.advance(rank, t);
                }
                EventKind::NbDone { rank } => {
                    let st = &mut self.ranks[rank as usize];
                    debug_assert!(st.outstanding > 0);
                    st.outstanding -= 1;
                    if st.waiting_all && st.outstanding == 0 {
                        st.waiting_all = false;
                        self.advance(rank, t);
                    }
                }
                EventKind::SenderDone { msg } => self.on_sender_done(msg, t),
                EventKind::Delivery { msg } => self.on_delivery(msg, t),
                EventKind::RtsArrive { msg } => self.on_rts(msg, t),
                EventKind::CtsArrive { msg } => self.on_cts(msg, t),
            }
            if self.error.is_some() {
                break;
            }
        }
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let blocked: Vec<Rank> = (0..self.topo.size())
            .filter(|&r| !self.ranks[r as usize].finished)
            .collect();
        if !blocked.is_empty() {
            return Err(SimError::Deadlock { blocked });
        }
        Ok(SimResult {
            finish: self.ranks.iter().map(|r| r.finish_time).collect(),
            start: std::mem::take(&mut self.starts),
            events: self.events,
            messages: self.delivered,
            bytes_inter: self.bytes_inter,
            bytes_intra: self.bytes_intra,
            recv_bytes: std::mem::take(&mut self.recv_bytes),
            sent_bytes: std::mem::take(&mut self.sent_bytes),
        })
    }

    /// Fetch the next resolved instruction for `rank`, handling loop state.
    fn fetch_next(&mut self, rank: Rank) -> Option<RInstr> {
        let st = &mut self.ranks[rank as usize];
        loop {
            if let Some(body) = st.body {
                if st.loop_pc >= body.len() {
                    st.loop_iter += 1;
                    st.loop_pc = 0;
                    if st.loop_iter >= st.loop_iters {
                        st.body = None;
                        st.pc += 1;
                        continue;
                    }
                }
                let k = st.loop_iter;
                let b = st.loop_bytes.bytes_at(k, st.loop_iters);
                let si = body[st.loop_pc];
                st.loop_pc += 1;
                return Some(match si {
                    SegInstr::Send { peer, tag_base } => {
                        RInstr::Send { peer, bytes: b, tag: tag_base + k, blocking: true }
                    }
                    SegInstr::Recv { peer, tag_base } => {
                        RInstr::Recv { peer, bytes: b, tag: tag_base + k, blocking: true }
                    }
                    SegInstr::IRecv { peer, tag_base } => {
                        RInstr::Recv { peer, bytes: b, tag: tag_base + k, blocking: false }
                    }
                    SegInstr::ISend { peer, tag_base } => {
                        RInstr::Send { peer, bytes: b, tag: tag_base + k, blocking: false }
                    }
                    SegInstr::WaitAll => RInstr::WaitAll,
                    SegInstr::SendRecv { send_peer, send_tag_base, recv_peer, recv_tag_base } => {
                        RInstr::SendRecv {
                            s_peer: send_peer,
                            s_bytes: b,
                            s_tag: send_tag_base + k,
                            r_peer: recv_peer,
                            r_bytes: b,
                            r_tag: recv_tag_base + k,
                        }
                    }
                    SegInstr::Compute => RInstr::Compute { bytes: b },
                });
            }
            let instrs = self.programs[rank as usize].instrs();
            if st.pc >= instrs.len() {
                return None;
            }
            match &instrs[st.pc] {
                Instr::Send { peer, bytes, tag } => {
                    st.pc += 1;
                    return Some(RInstr::Send { peer: *peer, bytes: *bytes, tag: *tag, blocking: true });
                }
                Instr::Recv { peer, bytes, tag } => {
                    st.pc += 1;
                    return Some(RInstr::Recv { peer: *peer, bytes: *bytes, tag: *tag, blocking: true });
                }
                Instr::ISend { peer, bytes, tag } => {
                    st.pc += 1;
                    return Some(RInstr::Send { peer: *peer, bytes: *bytes, tag: *tag, blocking: false });
                }
                Instr::IRecv { peer, bytes, tag } => {
                    st.pc += 1;
                    return Some(RInstr::Recv { peer: *peer, bytes: *bytes, tag: *tag, blocking: false });
                }
                Instr::SendRecv { send_peer, send_bytes, send_tag, recv_peer, recv_bytes, recv_tag } => {
                    st.pc += 1;
                    return Some(RInstr::SendRecv {
                        s_peer: *send_peer,
                        s_bytes: *send_bytes,
                        s_tag: *send_tag,
                        r_peer: *recv_peer,
                        r_bytes: *recv_bytes,
                        r_tag: *recv_tag,
                    });
                }
                Instr::Compute { bytes } => {
                    st.pc += 1;
                    return Some(RInstr::Compute { bytes: *bytes });
                }
                Instr::WaitAll => {
                    st.pc += 1;
                    return Some(RInstr::WaitAll);
                }
                Instr::Loop { iters, bytes, body } => {
                    st.body = Some(body);
                    st.loop_bytes = *bytes;
                    st.loop_iters = *iters;
                    st.loop_iter = 0;
                    st.loop_pc = 0;
                    // Loop re-enters at top; body items resolved there.
                }
            }
        }
    }

    /// Issue instructions for `rank` starting at `now` until it blocks or
    /// finishes. Cheap nonblocking instructions continue inline without
    /// queue traffic.
    fn advance(&mut self, rank: Rank, mut now: SimTime) {
        loop {
            let Some(instr) = self.fetch_next(rank) else {
                let st = &mut self.ranks[rank as usize];
                st.finished = true;
                st.finish_time = now;
                return;
            };
            match instr {
                RInstr::Compute { bytes } => {
                    // Must yield a real event: continuing inline would let
                    // later instructions mutate matching state (post
                    // receives, reserve resources) at the *current* event
                    // time while claiming a future logical time, breaking
                    // causality for any message arriving in between.
                    let dur = self.reduce_time.get(self.model, bytes);
                    self.push_event(now + dur, EventKind::Advance { rank });
                    return;
                }
                RInstr::WaitAll => {
                    let st = &mut self.ranks[rank as usize];
                    if st.outstanding > 0 {
                        st.waiting_all = true;
                        return;
                    }
                }
                RInstr::Send { peer, bytes, tag, blocking } => {
                    let cpu_done = now + self.o_send;
                    self.start_send(rank, peer, bytes, tag, blocking, cpu_done);
                    if blocking {
                        self.ranks[rank as usize].pending_current = 1;
                        return;
                    }
                    // ISend: CPU cost serializes posts; injection proceeds
                    // in the background.
                    self.ranks[rank as usize].outstanding += 1;
                    now = cpu_done;
                }
                RInstr::Recv { peer, bytes, tag, blocking } => {
                    if blocking {
                        self.ranks[rank as usize].pending_current = 1;
                        self.post_recv(rank, peer, bytes, tag, true, now);
                        return;
                    }
                    self.ranks[rank as usize].outstanding += 1;
                    self.post_recv(rank, peer, bytes, tag, false, now);
                }
                RInstr::SendRecv { s_peer, s_bytes, s_tag, r_peer, r_bytes, r_tag } => {
                    self.ranks[rank as usize].pending_current = 2;
                    let cpu_done = now + self.o_send;
                    self.start_send(rank, s_peer, s_bytes, s_tag, true, cpu_done);
                    self.post_recv(rank, r_peer, r_bytes, r_tag, true, now);
                    return;
                }
            }
            if self.error.is_some() {
                return;
            }
        }
    }

    /// Begin a send whose CPU posting completes at `ready`. For eager
    /// messages the payload is injected immediately; rendezvous messages
    /// first fly an RTS to the receiver.
    fn start_send(
        &mut self,
        src: Rank,
        dst: Rank,
        bytes: u64,
        tag: Tag,
        send_counts: bool,
        ready: SimTime,
    ) {
        let intra = self.topo.same_node(src, dst);
        let eager = if intra {
            self.model.is_eager_intra(bytes)
        } else {
            self.model.is_eager_inter(bytes)
        };
        let id = self.alloc_msg(Msg {
            src,
            dst,
            bytes,
            tag,
            intra,
            send_counts,
            recv_counts: false,
            rendezvous: !eager,
        });
        if eager {
            self.inject(id, ready);
        } else {
            self.push_event(ready + self.alpha(intra), EventKind::RtsArrive { msg: id });
        }
    }

    /// Reserve transfer resources for message `id` starting no earlier
    /// than `ready`; schedules sender-side completion and delivery.
    fn inject(&mut self, id: u32, ready: SimTime) {
        let (src, dst, bytes, intra) = {
            let m = self.msg(id);
            (m.src, m.dst, m.bytes, m.intra)
        };
        let src_node = self.topo.node_of(src) as usize;
        if intra {
            let dur = self.mem_time.get(self.model, bytes);
            let (_, copy_end) = self.scratch.mem[src_node].reserve(ready, dur);
            self.push_event(copy_end, EventKind::SenderDone { msg: id });
            self.push_event(copy_end + self.alpha_intra, EventKind::Delivery { msg: id });
        } else {
            let dst_node = self.topo.node_of(dst) as usize;
            let dur = self.rail_time.get(self.model, bytes);
            let (_, tx_end) = self.scratch.nic_tx[src_node].reserve(ready, dur);
            let arrival = tx_end + self.alpha_inter;
            let (_, rx_end) = self.scratch.nic_rx[dst_node].reserve(arrival, dur);
            self.push_event(tx_end, EventKind::SenderDone { msg: id });
            self.push_event(rx_end, EventKind::Delivery { msg: id });
        }
    }

    /// Post a receive: match an already-arrived message, grant a waiting
    /// rendezvous, or park the posting.
    fn post_recv(
        &mut self,
        rank: Rank,
        src: Rank,
        bytes: u64,
        tag: Tag,
        counts_current: bool,
        now: SimTime,
    ) {
        let key = match_key(src, tag);
        let Some(id) = self.scratch.arrived[rank as usize].pop(key) else {
            self.scratch.posted[rank as usize].push(key, PostedRecv { bytes, counts_current });
            return;
        };
        let (mbytes, rendezvous, intra) = {
            let m = self.msg(id);
            (m.bytes, m.rendezvous, m.intra)
        };
        if mbytes != bytes {
            self.error = Some(SimError::SizeMismatch { src, dst: rank, tag, sent: mbytes, expected: bytes });
            return;
        }
        if rendezvous {
            // RTS was waiting: grant the transfer now.
            self.scratch.msgs[id as usize].recv_counts = counts_current;
            self.push_event(now + self.alpha(intra), EventKind::CtsArrive { msg: id });
        } else {
            // Eager payload already buffered: pay the unexpected copy.
            let copy = self.unexpected_time.get(self.model, bytes);
            self.finish_recv(id, rank, counts_current, now + self.o_recv + copy);
        }
    }

    fn on_sender_done(&mut self, id: u32, t: SimTime) {
        let (src, bytes, counts) = {
            let m = self.msg(id);
            (m.src, m.bytes, m.send_counts)
        };
        self.sent_bytes[src as usize] += bytes;
        let st = &mut self.ranks[src as usize];
        if counts {
            debug_assert!(st.pending_current > 0);
            st.pending_current -= 1;
            if st.pending_current == 0 {
                self.advance(src, t);
            }
        } else {
            debug_assert!(st.outstanding > 0);
            st.outstanding -= 1;
            if st.waiting_all && st.outstanding == 0 {
                st.waiting_all = false;
                self.advance(src, t);
            }
        }
    }

    /// Match an arrived eager payload or rendezvous RTS against the
    /// receiver's posted receives, or park it; `None` if it was parked.
    fn match_posted(&mut self, id: u32) -> Option<PostedRecv> {
        let (src, dst, bytes, tag) = {
            let m = self.msg(id);
            (m.src, m.dst, m.bytes, m.tag)
        };
        let key = match_key(src, tag);
        let Some(posted) = self.scratch.posted[dst as usize].pop(key) else {
            self.scratch.arrived[dst as usize].push(key, id);
            return None;
        };
        if posted.bytes != bytes {
            self.error =
                Some(SimError::SizeMismatch { src, dst, tag, sent: bytes, expected: posted.bytes });
            return None;
        }
        Some(posted)
    }

    fn on_delivery(&mut self, id: u32, t: SimTime) {
        let (dst, rendezvous, recv_counts) = {
            let m = self.msg(id);
            (m.dst, m.rendezvous, m.recv_counts)
        };
        if rendezvous {
            // Receive was matched at RTS/CTS time; complete it now.
            self.finish_recv(id, dst, recv_counts, t + self.o_recv);
        } else if let Some(posted) = self.match_posted(id) {
            self.finish_recv(id, dst, posted.counts_current, t + self.o_recv);
        }
    }

    fn on_rts(&mut self, id: u32, t: SimTime) {
        if let Some(posted) = self.match_posted(id) {
            let m = &mut self.scratch.msgs[id as usize];
            m.recv_counts = posted.counts_current;
            let intra = m.intra;
            self.push_event(t + self.alpha(intra), EventKind::CtsArrive { msg: id });
        }
    }

    fn on_cts(&mut self, id: u32, t: SimTime) {
        // Clear-to-send back at the sender: move the payload.
        self.inject(id, t);
    }

    /// Account a completed receive and route its completion (blocking →
    /// `CurDone`, nonblocking → `NbDone`) at time `done`.
    fn finish_recv(&mut self, id: u32, dst: Rank, counts_current: bool, done: SimTime) {
        let (bytes, intra) = {
            let m = self.msg(id);
            (m.bytes, m.intra)
        };
        self.delivered += 1;
        self.recv_bytes[dst as usize] += bytes;
        if intra {
            self.bytes_intra += bytes;
        } else {
            self.bytes_inter += bytes;
        }
        let kind = if counts_current {
            EventKind::CurDone { rank: dst }
        } else {
            EventKind::NbDone { rank: dst }
        };
        self.push_event(done, kind);
        self.free_msg(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::program::{Instr, SegInstr, TAG_STRIDE};

    /// A round-numbers model for hand-computable assertions:
    /// alpha_inter = 1 us, 1 GB/s rails (1 ns/byte), o = 0.1 us.
    pub(crate) fn test_model() -> NetworkModel {
        NetworkModel {
            alpha_inter: 1e-6,
            beta_rail: 1e-9,
            rails: 1,
            alpha_intra: 0.2e-6,
            beta_mem: 0.25e-9,
            mem_channels: 2,
            o_send: 0.1e-6,
            o_recv: 0.1e-6,
            eager_inter: 4096,
            eager_intra: 16384,
            gamma_reduce: 0.5e-9,
            beta_unexpected: 0.0,
        }
    }

    fn run2(programs: Vec<Program>, nodes: u32, ppn: u32) -> SimResult {
        let model = test_model();
        let topo = Topology::new(nodes, ppn);
        Simulator::new(&model, &topo).run(&programs).unwrap()
    }

    #[test]
    fn eager_ping_has_expected_latency() {
        // 1000-byte eager message across nodes:
        // o_s(0.1) + tx(1.0) + alpha(1.0) + rx(1.0) + o_r(0.1) = 3.2 us
        let r = run2(
            vec![
                Program::from_instrs(vec![Instr::send(1, 1000, 0)]),
                Program::from_instrs(vec![Instr::recv(0, 1000, 0)]),
            ],
            2,
            1,
        );
        let us = r.finish[1].as_micros_f64();
        assert!((us - 3.2).abs() < 1e-6, "got {us}");
        // Sender unblocks after injection, before remote delivery:
        // o_s + tx = 1.1 us.
        let s = r.finish[0].as_micros_f64();
        assert!((s - 1.1).abs() < 1e-6, "got {s}");
        assert_eq!(r.messages, 1);
        assert_eq!(r.bytes_inter, 1000);
        assert_eq!(r.bytes_intra, 0);
    }

    #[test]
    fn intra_node_ping_uses_memory_channel() {
        // 1000 bytes intra-node: o_s + copy(0.25us) + alpha_intra(0.2) + o_r
        let r = run2(
            vec![
                Program::from_instrs(vec![Instr::send(1, 1000, 0)]),
                Program::from_instrs(vec![Instr::recv(0, 1000, 0)]),
            ],
            1,
            2,
        );
        let us = r.finish[1].as_micros_f64();
        assert!((us - (0.1 + 0.25 + 0.2 + 0.1)).abs() < 1e-6, "got {us}");
        assert_eq!(r.bytes_intra, 1000);
    }

    #[test]
    fn rendezvous_waits_for_receiver() {
        // Message above eager threshold; receiver posts late after a
        // compute of 100us. Total must exceed 100us.
        let bytes = 100_000; // > 4096 eager
        let r = run2(
            vec![
                Program::from_instrs(vec![Instr::send(1, bytes, 0)]),
                Program::from_instrs(vec![
                    Instr::Compute { bytes: 200_000 }, // 100 us
                    Instr::recv(0, bytes, 0),
                ]),
            ],
            2,
            1,
        );
        let recv_done = r.finish[1].as_micros_f64();
        // compute(100) + cts(1.0) + tx(100) + alpha(1) + rx(100) + o_r(0.1)
        let expected = 100.0 + 1.0 + 100.0 + 1.0 + 100.0 + 0.1;
        assert!((recv_done - expected).abs() < 0.2, "got {recv_done} want {expected}");
        // Blocking rendezvous send completes only after injection, which
        // cannot begin before the receive is posted.
        assert!(r.finish[0].as_micros_f64() > 100.0);
    }

    #[test]
    fn eager_send_completes_locally_even_if_recv_late() {
        let r = run2(
            vec![
                Program::from_instrs(vec![Instr::send(1, 100, 0)]),
                Program::from_instrs(vec![
                    Instr::Compute { bytes: 2_000_000 }, // 1000 us
                    Instr::recv(0, 100, 0),
                ]),
            ],
            2,
            1,
        );
        assert!(r.finish[0].as_micros_f64() < 2.0);
        assert!(r.finish[1].as_micros_f64() >= 1000.0);
    }

    #[test]
    fn deadlock_is_detected() {
        let err = Simulator::new(&test_model(), &Topology::new(2, 1))
            .run(&[
                Program::from_instrs(vec![Instr::recv(1, 10, 0)]),
                Program::from_instrs(vec![Instr::recv(0, 10, 0)]),
            ])
            .unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
    }

    #[test]
    fn size_mismatch_is_detected() {
        let err = Simulator::new(&test_model(), &Topology::new(2, 1))
            .run(&[
                Program::from_instrs(vec![Instr::send(1, 10, 0)]),
                Program::from_instrs(vec![Instr::recv(0, 20, 0)]),
            ])
            .unwrap_err();
        assert!(matches!(err, SimError::SizeMismatch { .. }));
    }

    #[test]
    fn program_count_mismatch() {
        let err = Simulator::new(&test_model(), &Topology::new(2, 1))
            .run(&[Program::empty()])
            .unwrap_err();
        assert!(matches!(err, SimError::ProgramCountMismatch { .. }));
    }

    #[test]
    fn nic_contention_serializes_single_rail() {
        // Two ranks on node 0 each send 4000 eager bytes to node 1.
        // Single rail: the two injections serialize (~8 us of wire time).
        let r = run2(
            vec![
                Program::from_instrs(vec![Instr::send(2, 4000, 0)]),
                Program::from_instrs(vec![Instr::send(3, 4000, 1)]),
                Program::from_instrs(vec![Instr::recv(0, 4000, 0)]),
                Program::from_instrs(vec![Instr::recv(1, 4000, 1)]),
            ],
            2,
            2,
        );
        let last = r.makespan().as_micros_f64();
        // Serialized: o_s + 2*tx(4) + alpha + rx(4) + o_r ~ 13.2 us for the
        // second flow. Parallel rails would give ~9.2 us.
        assert!(last > 12.0, "expected NIC serialization, got {last}");
    }

    #[test]
    fn dual_rail_parallelizes() {
        let mut model = test_model();
        model.rails = 2;
        let topo = Topology::new(2, 2);
        let programs = vec![
            Program::from_instrs(vec![Instr::send(2, 4000, 0)]),
            Program::from_instrs(vec![Instr::send(3, 4000, 1)]),
            Program::from_instrs(vec![Instr::recv(0, 4000, 0)]),
            Program::from_instrs(vec![Instr::recv(1, 4000, 1)]),
        ];
        let r = Simulator::new(&model, &topo).run(&programs).unwrap();
        let last = r.makespan().as_micros_f64();
        assert!(last < 10.0, "expected rail parallelism, got {last}");
    }

    #[test]
    fn segmentation_pipelines_a_relay() {
        // 0 -> 1 -> 2 relay of 64 KiB (rendezvous-free via small segments).
        let m = 65536u64;
        let unsegmented = {
            let model = test_model();
            let topo = Topology::new(3, 1);
            // One big rendezvous hop at a time.
            Simulator::new(&model, &topo)
                .run(&[
                    Program::from_instrs(vec![Instr::send(1, m, 0)]),
                    Program::from_instrs(vec![Instr::recv(0, m, 0), Instr::send(2, m, 1)]),
                    Program::from_instrs(vec![Instr::recv(1, m, 1)]),
                ])
                .unwrap()
                .makespan()
        };
        let segmented = {
            let model = test_model();
            let topo = Topology::new(3, 1);
            let seg = 2048u64;
            Simulator::new(&model, &topo)
                .run(&[
                    Program::from_instrs(vec![Instr::seg_loop(m, seg, vec![SegInstr::Send {
                        peer: 1,
                        tag_base: 0,
                    }])]),
                    Program::from_instrs(vec![Instr::seg_loop(m, seg, vec![
                        SegInstr::Recv { peer: 0, tag_base: 0 },
                        SegInstr::Send { peer: 2, tag_base: TAG_STRIDE },
                    ])]),
                    Program::from_instrs(vec![Instr::seg_loop(m, seg, vec![SegInstr::Recv {
                        peer: 1,
                        tag_base: TAG_STRIDE,
                    }])]),
                ])
                .unwrap()
                .makespan()
        };
        assert!(
            segmented.as_secs_f64() < 0.8 * unsegmented.as_secs_f64(),
            "segmented {segmented} vs unsegmented {unsegmented}"
        );
    }

    #[test]
    fn isend_waitall_exchange() {
        // Full exchange among 4 ranks with nonblocking ops.
        let p = 4u32;
        let programs: Vec<Program> = (0..p)
            .map(|r| {
                let mut instrs = Vec::new();
                for peer in 0..p {
                    if peer != r {
                        instrs.push(Instr::IRecv { peer, bytes: 512, tag: r });
                    }
                }
                for peer in 0..p {
                    if peer != r {
                        instrs.push(Instr::ISend { peer, bytes: 512, tag: peer });
                    }
                }
                instrs.push(Instr::WaitAll);
                Program::from_instrs(instrs)
            })
            .collect();
        let r = run2(programs, 2, 2);
        assert_eq!(r.messages, (p * (p - 1)) as u64);
        for rank in 0..p as usize {
            assert_eq!(r.recv_bytes[rank], 512 * (p as u64 - 1));
            assert_eq!(r.sent_bytes[rank], 512 * (p as u64 - 1));
        }
    }

    #[test]
    fn sendrecv_ring_rotation() {
        // 4 ranks rotate a token around a ring with SendRecv.
        let p = 4u32;
        let programs: Vec<Program> = (0..p)
            .map(|r| {
                Program::from_instrs(vec![Instr::SendRecv {
                    send_peer: (r + 1) % p,
                    send_bytes: 256,
                    send_tag: 7,
                    recv_peer: (r + p - 1) % p,
                    recv_bytes: 256,
                    recv_tag: 7,
                }])
            })
            .collect();
        let r = run2(programs, 2, 2);
        assert_eq!(r.messages, p as u64);
    }

    #[test]
    fn skewed_start_delays_completion() {
        let model = test_model();
        let topo = Topology::new(2, 1);
        let programs = vec![
            Program::from_instrs(vec![Instr::send(1, 100, 0)]),
            Program::from_instrs(vec![Instr::recv(0, 100, 0)]),
        ];
        let sim = Simulator::new(&model, &topo);
        let base = sim.run(&programs).unwrap().makespan();
        let skewed = sim
            .run_with_skew(&programs, &[SimTime::from_micros_f64(50.0), SimTime::ZERO])
            .unwrap();
        assert!(skewed.makespan().as_micros_f64() >= base.as_micros_f64() + 49.0);
    }

    #[test]
    fn fixed_loop_runs_each_iteration() {
        let r = run2(
            vec![
                Program::from_instrs(vec![Instr::fixed_loop(5, 128, vec![SegInstr::Send {
                    peer: 1,
                    tag_base: 0,
                }])]),
                Program::from_instrs(vec![Instr::fixed_loop(5, 128, vec![SegInstr::Recv {
                    peer: 0,
                    tag_base: 0,
                }])]),
            ],
            2,
            1,
        );
        assert_eq!(r.messages, 5);
        assert_eq!(r.recv_bytes[1], 5 * 128);
    }

    #[test]
    fn unexpected_messages_match_on_late_post() {
        // Rank 1 computes first, so three eager sends queue unexpectedly,
        // then all three receives match in order.
        let r = run2(
            vec![
                Program::from_instrs(vec![
                    Instr::send(1, 64, 0),
                    Instr::send(1, 64, 1),
                    Instr::send(1, 64, 2),
                ]),
                Program::from_instrs(vec![
                    Instr::Compute { bytes: 1_000_000 },
                    Instr::recv(0, 64, 2),
                    Instr::recv(0, 64, 0),
                    Instr::recv(0, 64, 1),
                ]),
            ],
            2,
            1,
        );
        assert_eq!(r.messages, 3);
    }

    #[test]
    fn zero_byte_messages_synchronize() {
        // Barrier-style token: costs latency + overheads only.
        let r = run2(
            vec![
                Program::from_instrs(vec![Instr::send(1, 0, 0)]),
                Program::from_instrs(vec![Instr::recv(0, 0, 0)]),
            ],
            2,
            1,
        );
        let us = r.finish[1].as_micros_f64();
        // o_s + alpha + o_r = 1.2 us (zero wire time).
        assert!((us - 1.2).abs() < 1e-6, "got {us}");
        assert_eq!(r.bytes_inter, 0);
        assert_eq!(r.messages, 1);
    }

    #[test]
    fn intra_node_rendezvous_handshakes() {
        // Above the intra-node eager limit (16384 in the test model):
        // the send must wait for the receive to be posted.
        let bytes = 60_000u64;
        let r = run2(
            vec![
                Program::from_instrs(vec![Instr::send(1, bytes, 0)]),
                Program::from_instrs(vec![
                    Instr::Compute { bytes: 400_000 }, // 200 us
                    Instr::recv(0, bytes, 0),
                ]),
            ],
            1,
            2,
        );
        // Sender cannot complete before the receiver posts at 200 us.
        assert!(r.finish[0].as_micros_f64() > 200.0);
    }

    #[test]
    fn waitall_with_nothing_outstanding_is_free() {
        let r = run2(
            vec![
                Program::from_instrs(vec![Instr::WaitAll, Instr::send(1, 8, 0)]),
                Program::from_instrs(vec![Instr::WaitAll, Instr::recv(0, 8, 0), Instr::WaitAll]),
            ],
            2,
            1,
        );
        assert_eq!(r.messages, 1);
    }

    #[test]
    fn mem_channels_limit_intra_node_concurrency() {
        // 4 concurrent intra-node copies on 2 channels take ~2x the
        // time of 2 copies.
        let mut model = test_model();
        model.mem_channels = 2;
        let topo = Topology::new(1, 8);
        let mk = |pairs: &[(u32, u32)]| -> Vec<Program> {
            let mut progs = vec![Vec::new(); 8];
            for (i, &(s, d)) in pairs.iter().enumerate() {
                progs[s as usize].push(Instr::send(d, 8000, i as u32));
                progs[d as usize].push(Instr::recv(s, 8000, i as u32));
            }
            progs.into_iter().map(Program::from_instrs).collect()
        };
        let sim = Simulator::new(&model, &topo);
        let two = sim.run(&mk(&[(0, 1), (2, 3)])).unwrap().makespan();
        let four = sim.run(&mk(&[(0, 1), (2, 3), (4, 5), (6, 7)])).unwrap().makespan();
        assert!(four.as_secs_f64() > 1.7 * two.as_secs_f64() - 1e-6,
            "two {two} four {four}");
    }

    #[test]
    fn nonblocking_ops_inside_segment_loops() {
        // Two producers feed one consumer per segment; the consumer
        // posts both receives nonblocking and collects them together.
        let r = run2(
            vec![
                Program::from_instrs(vec![Instr::seg_loop(8192, 2048, vec![SegInstr::Send {
                    peer: 2,
                    tag_base: 0,
                }])]),
                Program::from_instrs(vec![Instr::seg_loop(8192, 2048, vec![SegInstr::Send {
                    peer: 2,
                    tag_base: TAG_STRIDE,
                }])]),
                Program::from_instrs(vec![Instr::seg_loop(8192, 2048, vec![
                    SegInstr::IRecv { peer: 0, tag_base: 0 },
                    SegInstr::IRecv { peer: 1, tag_base: TAG_STRIDE },
                    SegInstr::WaitAll,
                ])]),
            ],
            3,
            1,
        );
        assert_eq!(r.messages, 8);
        assert_eq!(r.recv_bytes[2], 2 * 8192);
    }

    #[test]
    fn isend_inside_segment_loop_pipelines() {
        // A relay that forwards nonblocking can overlap its receive of
        // segment k+1 with the injection of segment k.
        let r = run2(
            vec![
                Program::from_instrs(vec![Instr::seg_loop(65536, 1024, vec![SegInstr::Send {
                    peer: 1,
                    tag_base: 0,
                }])]),
                Program::from_instrs(vec![
                    Instr::seg_loop(65536, 1024, vec![
                        SegInstr::Recv { peer: 0, tag_base: 0 },
                        SegInstr::ISend { peer: 2, tag_base: TAG_STRIDE },
                    ]),
                    Instr::WaitAll,
                ]),
                Program::from_instrs(vec![Instr::seg_loop(65536, 1024, vec![SegInstr::Recv {
                    peer: 1,
                    tag_base: TAG_STRIDE,
                }])]),
            ],
            3,
            1,
        );
        assert_eq!(r.recv_bytes[2], 65536);
        assert_eq!(r.messages, 2 * 64);
    }

    #[test]
    fn real_machine_models_run() {
        for machine in Machine::all() {
            let topo = Topology::new(2, 2);
            let programs = vec![
                Program::from_instrs(vec![Instr::send(2, 1 << 20, 0)]),
                Program::empty(),
                Program::from_instrs(vec![Instr::recv(0, 1 << 20, 0)]),
                Program::empty(),
            ];
            let r = Simulator::new(&machine.model, &topo).run(&programs).unwrap();
            assert!(r.makespan().as_secs_f64() > 0.0, "{}", machine.name);
        }
    }
}
