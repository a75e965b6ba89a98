//! The MIMD engine: local program counters + L0 instruction stores (§4.3).
//!
//! Each node executes its own [`MimdProgram`] out of a private L0
//! instruction store under a local PC, with an in-order
//! fetch/register-read/execute pipeline over the operand-storage buffers.
//! Loads and stores are routed from the node across the mesh to the memory
//! interface — the per-element routing cost that makes the **M**
//! configuration lose to **S-O-D** on streaming kernels (§5.3) — and
//! `Send`/`Recv` give fine-grain ALU-ALU synchronization.

use std::collections::VecDeque;

use dlp_common::{Coord, DlpError, SimStats, Tick, Value};
use trips_isa::{
    MemSpace, MimdInst, MimdOp, MimdProgram, OpClass, OpRole, Opcode, REG_NODE_COUNT, REG_NODE_ID,
    REG_RECORDS,
};
use trips_noc::Endpoint;

use crate::equeue::CalendarQueue;
use crate::{EngineArena, Machine};

/// Per-node execution state.
#[derive(Clone)]
struct NodeState {
    regs: [Value; 32],
    pc: usize,
    halted: bool,
    /// Set while blocked on a `Recv` whose message has not arrived.
    blocked_recv: Option<usize /* src node rank */>,
}

impl NodeState {
    fn new() -> Self {
        NodeState { regs: [Value::ZERO; 32], pc: 0, halted: false, blocked_recv: None }
    }
}

/// In-flight messages `src rank -> dst rank`: FIFO of (arrival tick, value).
///
/// A flat table indexed `src * n_ranks + dst`, so every `Send`/`Recv` is a
/// dense array access instead of a hash lookup.
#[derive(Default)]
struct Channels {
    queues: Vec<VecDeque<(Tick, Value)>>,
    n_ranks: usize,
}

impl Channels {
    /// Size the table for `n_ranks` and empty every channel, retaining
    /// each queue's allocation from prior runs.
    fn reset(&mut self, n_ranks: usize) {
        for q in &mut self.queues {
            q.clear();
        }
        self.queues.resize_with(n_ranks * n_ranks, VecDeque::new);
        self.n_ranks = n_ranks;
    }

    fn get_mut(&mut self, src: usize, dst: usize) -> &mut VecDeque<(Tick, Value)> {
        &mut self.queues[src * self.n_ranks + dst]
    }
}

/// The ready queue: nodes keyed by (tick they may proceed, rank). The
/// calendar queue's internal sequence number only refines ties *after*
/// `(tick, rank)` — and entries carrying the same `(tick, rank)` are
/// value-identical — so the pop order is exactly the old binary heap's
/// `(tick, rank)` order, independent of push order.
type ReadyQueue = CalendarQueue<usize, ()>;

/// Recyclable storage for one MIMD run, owned by an
/// [`EngineArena`](crate::EngineArena). Rebuilt per run; the allocations
/// (node states, channel table, ready-queue buckets, rank/coord tables)
/// carry over.
#[derive(Default)]
pub(crate) struct MimdScratch {
    queue: ReadyQueue,
    channels: Channels,
    nodes: Vec<NodeState>,
    /// Participating node indices in rank order.
    ranks: Vec<usize>,
    coords: Vec<Coord>,
    /// Where `Send dst` routes to, precomputed per destination rank.
    send_coords: Vec<Coord>,
}

/// Outcome of executing one instruction.
enum Step {
    /// Node continues; next instruction may start at this tick.
    Continue(Tick),
    /// Node executed `halt`.
    Halted,
    /// Node is blocked on a `Recv`; it will be re-queued by a send/arrival.
    BlockedRecv,
}

impl Machine {
    /// Run the array in MIMD mode: node `i` (row-major) executes
    /// `programs[i]`; nodes beyond the slice or with empty programs idle.
    ///
    /// Register conventions are preloaded per participating node before
    /// start: `r30` = node rank, `r31` = participating node count, `r29` =
    /// `records`. `Send`/`Recv` address peers by **rank** (position among
    /// participating nodes).
    ///
    /// # Example
    ///
    /// ```
    /// use trips_sim::{Machine, MechanismSet};
    /// use trips_isa::{MimdAsm, MemSpace, Opcode, REG_NODE_ID};
    /// use dlp_common::{GridShape, TimingParams, Value};
    ///
    /// // Every node stores (100 + rank) at word rank.
    /// let mut asm = MimdAsm::new();
    /// asm.alui(Opcode::Add, 1, REG_NODE_ID, 100);
    /// asm.st(MemSpace::Smc, REG_NODE_ID, 0, 1);
    /// asm.halt();
    /// let prog = asm.assemble()?;
    ///
    /// let mut m = Machine::new(GridShape::new(4, 4), TimingParams::default(),
    ///                          MechanismSet::mimd());
    /// m.stage_smc(0..64)?;
    /// let stats = m.run_mimd(&vec![prog; 16], 16)?;
    /// assert_eq!(m.memory().read(7).as_u64(), 107);
    /// assert!(stats.cycles() > 0);
    /// # Ok::<(), dlp_common::DlpError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// * [`DlpError::Unsupported`] — machine lacks local PCs, or a program
    ///   uses the L0 data store / SMC without those mechanisms.
    /// * [`DlpError::CapacityExceeded`] — a program exceeds the L0
    ///   instruction store.
    /// * [`DlpError::Watchdog`] — runaway execution (livelock).
    /// * [`DlpError::MalformedProgram`] — deadlock (a `Recv` that can never
    ///   be satisfied) or a node that never halts.
    pub fn run_mimd(
        &mut self,
        programs: &[MimdProgram],
        records: u64,
    ) -> Result<SimStats, DlpError> {
        let mut arena = EngineArena::new();
        self.run_mimd_in(programs, records, &mut arena)
    }

    /// As [`Machine::run_mimd`], reusing `arena`'s scratch storage —
    /// bit-identical statistics, but a caller running many programs (a
    /// sweep worker) allocates nothing once the arena has warmed up.
    ///
    /// # Errors
    ///
    /// As [`Machine::run_mimd`].
    pub fn run_mimd_in(
        &mut self,
        programs: &[MimdProgram],
        records: u64,
        arena: &mut EngineArena,
    ) -> Result<SimStats, DlpError> {
        let n_active = programs.iter().filter(|p| !p.is_empty()).count() as u64;
        self.run_mimd_with_conventions_in(
            programs,
            &|rank| (rank as u64, n_active, records),
            arena,
        )
    }

    /// [`Machine::run_mimd`] with caller-supplied register conventions:
    /// `conventions(global_rank)` returns `(r30, r31, r29)` for that node —
    /// the hook partitioned execution uses to give each partition local
    /// ranks and its own record count.
    ///
    /// # Errors
    ///
    /// As [`Machine::run_mimd`].
    pub fn run_mimd_with_conventions(
        &mut self,
        programs: &[MimdProgram],
        conventions: &dyn Fn(usize) -> (u64, u64, u64),
    ) -> Result<SimStats, DlpError> {
        let mut arena = EngineArena::new();
        self.run_mimd_with_conventions_in(programs, conventions, &mut arena)
    }

    /// As [`Machine::run_mimd_with_conventions`], reusing `arena`'s
    /// scratch storage.
    ///
    /// # Errors
    ///
    /// As [`Machine::run_mimd`].
    pub fn run_mimd_with_conventions_in(
        &mut self,
        programs: &[MimdProgram],
        conventions: &dyn Fn(usize) -> (u64, u64, u64),
        arena: &mut EngineArena,
    ) -> Result<SimStats, DlpError> {
        if !self.mechanisms().local_pc {
            return Err(DlpError::Unsupported {
                what: "MIMD execution without local program counters".into(),
            });
        }
        let cap = self.params().core.l0_inst_capacity;
        for p in programs {
            if p.len() > cap {
                return Err(DlpError::CapacityExceeded {
                    resource: "L0 instruction-store entries",
                    needed: p.len(),
                    available: cap,
                });
            }
            for inst in p.insts() {
                match inst.op {
                    MimdOp::Lut if !self.mechanisms().l0_data_store => {
                        return Err(DlpError::Unsupported {
                            what: "lut instruction without the L0 data store".into(),
                        })
                    }
                    MimdOp::Ld(MemSpace::Smc) | MimdOp::St(MemSpace::Smc)
                        if !self.mechanisms().smc =>
                    {
                        return Err(DlpError::Unsupported {
                            what: "SMC memory access without the SMC mechanism".into(),
                        })
                    }
                    _ => {}
                }
            }
        }

        let mut stats = self.begin_run();
        let n = programs.len().min(self.grid().nodes());
        let s = &mut arena.mimd;
        // Participating nodes in rank order.
        s.ranks.clear();
        s.ranks.extend((0..n).filter(|&i| !programs[i].is_empty()));
        if s.ranks.is_empty() {
            return Ok(stats);
        }
        let n_ranks = s.ranks.len();

        // Setup block: broadcast programs into the L0 instruction stores.
        let longest = programs.iter().map(MimdProgram::len).max().unwrap_or(0);
        let start = stats.ticks + self.fetch_ticks(longest);
        stats.blocks_fetched = 1;

        s.nodes.clear();
        s.nodes.resize_with(n_ranks, NodeState::new);
        for (rank, st) in s.nodes.iter_mut().enumerate() {
            let (node_id, node_count, recs) = conventions(rank);
            st.regs[REG_NODE_ID as usize] = Value::from_u64(node_id);
            st.regs[REG_NODE_COUNT as usize] = Value::from_u64(node_count);
            st.regs[REG_RECORDS as usize] = Value::from_u64(recs);
            stats.iterations = stats.iterations.max(recs);
        }
        s.coords.clear();
        for &i in &s.ranks {
            s.coords.push(self.grid().coord(i));
        }
        s.send_coords.clear();
        for d in 0..n_ranks {
            s.send_coords.push(self.grid().coord_of_rank(d, n_ranks));
        }

        s.channels.reset(n_ranks);
        // A failed previous run may have left entries queued.
        s.queue.clear();
        for rank in 0..n_ranks {
            s.queue.push(start, rank, ());
        }
        let mut last_tick = start;
        let mut max_drain = start;
        let mut steps: u64 = 0;
        // The step budget follows from the watchdog: with every
        // instruction advancing its node's tick by at least one cycle, a
        // rank can be popped at most once per distinct tick in
        // `0..=watchdog_ticks`. Exceeding it means a zero-latency livelock
        // the tick check alone would never catch.
        let step_budget =
            (n_ranks as u64).saturating_mul(self.watchdog_ticks.saturating_add(1));

        while let Some((t, rank, ())) = s.queue.pop() {
            if t > self.watchdog_ticks || steps > step_budget {
                return Err(DlpError::Watchdog {
                    ticks: t,
                    context: format!(
                        "mimd rank {rank} at pc {} ({steps} steps, budget {step_budget} = \
                         {n_ranks} ranks x (watchdog {} + 1))",
                        s.nodes[rank].pc,
                        self.watchdog_ticks
                    ),
                });
            }
            if let Some(fatal) = self.fault.fatal() {
                return Err(fatal.to_error());
            }
            steps += 1;
            if s.nodes[rank].halted {
                continue;
            }
            let pc = s.nodes[rank].pc;
            let prog = &programs[s.ranks[rank]];
            if pc >= prog.len() {
                return Err(DlpError::MalformedProgram {
                    detail: format!("mimd node rank {rank} ran off the end of its program"),
                });
            }
            let inst = prog.insts()[pc];
            stats.mimd_fetches += 1;
            last_tick = last_tick.max(t);

            let step = self.step_inst(
                rank,
                s.coords[rank],
                t,
                inst,
                &mut s.nodes,
                &mut s.channels,
                &mut s.queue,
                &s.send_coords,
                &mut stats,
                &mut max_drain,
            );
            match step {
                Step::Continue(next_t) => {
                    last_tick = last_tick.max(next_t);
                    s.queue.push(next_t, rank, ());
                }
                Step::Halted => {}
                Step::BlockedRecv => {}
            }
        }

        // A fault escalated by the last step has no successor pop to
        // observe it — catch it before declaring the run complete.
        if let Some(fatal) = self.fault.fatal() {
            return Err(fatal.to_error());
        }

        if let Some(rank) = s.nodes.iter().position(|st| !st.halted) {
            return Err(DlpError::MalformedProgram {
                detail: format!("mimd deadlock: node rank {rank} never halted"),
            });
        }

        stats.ticks = last_tick.max(max_drain);
        let net = self.router.stats();
        stats.net_msgs = net.msgs;
        stats.net_hops = net.hops;
        stats.record_faults(self.fault.take_stats());
        Ok(stats)
    }

    /// Execute one instruction for node `rank` at tick `t`, mutating the
    /// node state (registers, pc) and returning when the node may proceed.
    ///
    /// `Send` wakes its destination directly (pushing onto `queue`) when
    /// that node is blocked on the matching channel; a blocked node's
    /// channel is always empty, so the arriving message is necessarily the
    /// queue front the old post-step scan would have found.
    #[allow(clippy::too_many_arguments)]
    fn step_inst(
        &mut self,
        rank: usize,
        coord: Coord,
        t: Tick,
        inst: MimdInst,
        nodes: &mut [NodeState],
        channels: &mut Channels,
        queue: &mut ReadyQueue,
        send_coords: &[Coord],
        stats: &mut SimStats,
        max_drain: &mut Tick,
    ) -> Step {
        let alu = self.params().ops.int_alu;
        let ra = nodes[rank].regs[inst.ra as usize];
        let rb = nodes[rank].regs[inst.rb as usize];
        let rd_old = nodes[rank].regs[inst.rd as usize];
        let imm = inst.imm;
        let useful = inst.role == OpRole::Useful;

        macro_rules! count {
            ($useful:expr) => {
                if $useful {
                    stats.useful_ops += 1;
                } else {
                    stats.overhead_ops += 1;
                }
            };
        }

        match inst.op {
            MimdOp::Alu(op) | MimdOp::AluI(op) => {
                let rhs =
                    if matches!(inst.op, MimdOp::AluI(_)) { Value::from_i64(imm) } else { rb };
                // `Sel rd, ra, rb`: rd = ra(predicate) ? rb : rd_old.
                let v = if matches!(op, Opcode::Sel) {
                    trips_isa::exec::eval(Opcode::Sel, rhs, rd_old, ra)
                } else {
                    let (_, needs_r, _) = op.ports();
                    trips_isa::exec::eval(op, ra, if needs_r { rhs } else { Value::ZERO }, Value::ZERO)
                };
                nodes[rank].regs[inst.rd as usize] = v;
                nodes[rank].pc += 1;
                count!(useful && op.class() != OpClass::Mov);
                Step::Continue(t + op.latency(&self.params().ops))
            }
            MimdOp::Li => {
                nodes[rank].regs[inst.rd as usize] = Value::from_u64(imm as u64);
                nodes[rank].pc += 1;
                count!(false);
                Step::Continue(t + self.params().ops.mov)
            }
            MimdOp::Ld(space) => {
                let addr = ra.as_u64().wrapping_add(imm as u64);
                stats.loads += 1;
                let row = coord.row;
                let req = self.router.send_faulty(
                    Endpoint::Node(coord),
                    Endpoint::MemPort(row),
                    t + alu,
                    &mut self.fault,
                );
                let served = match space {
                    MemSpace::Smc => {
                        stats.smc_accesses += 1;
                        self.smc[row as usize].access_faulty(addr, req, &mut self.fault)
                    }
                    MemSpace::L1 => {
                        stats.l1_accesses += 1;
                        let (t2, hit) = self.l1[row as usize].access_faulty(addr, req, &mut self.fault);
                        if !hit {
                            stats.l1_misses += 1;
                        }
                        t2
                    }
                };
                let back = self.router.send_faulty(
                    Endpoint::MemPort(row),
                    Endpoint::Node(coord),
                    served,
                    &mut self.fault,
                );
                // The loaded value lands in the node's operand storage; a
                // parity flip there is re-latched from the network buffer.
                let back = self.fault.operand_write(back);
                stats.mem_stall_node_cycles += (back - t) / 2;
                nodes[rank].regs[inst.rd as usize] = self.mem.read(addr);
                nodes[rank].pc += 1;
                Step::Continue(back)
            }
            MimdOp::St(space) => {
                let addr = ra.as_u64().wrapping_add(imm as u64);
                stats.stores += 1;
                self.mem.write(addr, rb);
                let row = coord.row;
                let req = self.router.send_faulty(
                    Endpoint::Node(coord),
                    Endpoint::MemPort(row),
                    t + alu,
                    &mut self.fault,
                );
                let drained = match space {
                    MemSpace::Smc => {
                        let t2 = self.stb[row as usize].push_faulty(addr, req, &mut self.fault);
                        self.smc[row as usize].store_faulty(addr, t2, &mut self.fault)
                    }
                    MemSpace::L1 => {
                        stats.l1_accesses += 1;
                        let (t2, hit) = self.l1[row as usize].access_faulty(addr, req, &mut self.fault);
                        if !hit {
                            stats.l1_misses += 1;
                        }
                        t2
                    }
                };
                *max_drain = (*max_drain).max(drained);
                nodes[rank].pc += 1;
                // Stores retire into the buffer; the node moves on.
                Step::Continue(t + alu)
            }
            MimdOp::Lut => {
                let idx = ra.as_u64().wrapping_add(imm as u64);
                stats.l0_accesses += 1;
                nodes[rank].regs[inst.rd as usize] =
                    self.l0_data.get(idx as usize).copied().unwrap_or(Value::ZERO);
                nodes[rank].pc += 1;
                Step::Continue(t + self.params().mem.l0_latency)
            }
            MimdOp::Jmp => {
                nodes[rank].pc = imm as usize;
                count!(false);
                Step::Continue(t + alu)
            }
            MimdOp::Bez | MimdOp::Bnz => {
                let taken = if matches!(inst.op, MimdOp::Bez) { !ra.is_true() } else { ra.is_true() };
                nodes[rank].pc = if taken { imm as usize } else { nodes[rank].pc + 1 };
                count!(false);
                Step::Continue(t + alu)
            }
            MimdOp::Send => {
                let dst = (imm as usize).min(nodes.len().saturating_sub(1));
                let arrive = self.router.send_faulty(
                    Endpoint::Node(coord),
                    Endpoint::Node(send_coords[dst]),
                    t + alu,
                    &mut self.fault,
                );
                // The message parks in the receiver's operand buffer; a
                // flipped entry is re-latched before it becomes visible.
                let arrive = self.fault.operand_write(arrive);
                channels.get_mut(rank, dst).push_back((arrive, ra));
                if nodes[dst].blocked_recv == Some(rank) {
                    // The receiver blocked on an empty channel; this message
                    // is the front, so it proceeds at the arrival tick.
                    nodes[dst].blocked_recv = None;
                    queue.push(arrive, dst, ());
                }
                nodes[rank].pc += 1;
                count!(false);
                Step::Continue(t + alu)
            }
            MimdOp::Recv => {
                let src = imm as usize;
                if src >= nodes.len() {
                    // No such peer: block forever (reported as a deadlock).
                    nodes[rank].blocked_recv = Some(src);
                    return Step::BlockedRecv;
                }
                let q = channels.get_mut(src, rank);
                match q.front().copied() {
                    Some((arrive, v)) if arrive <= t => {
                        q.pop_front();
                        let _ = arrive;
                        nodes[rank].regs[inst.rd as usize] = v;
                        nodes[rank].pc += 1;
                        count!(false);
                        Step::Continue(t + alu)
                    }
                    Some((arrive, _)) => {
                        // In flight but not yet arrived: retry at arrival.
                        queue.push(arrive, rank, ());
                        Step::BlockedRecv
                    }
                    None => {
                        nodes[rank].blocked_recv = Some(src);
                        Step::BlockedRecv
                    }
                }
            }
            MimdOp::Halt => {
                nodes[rank].halted = true;
                Step::Halted
            }
        }
    }
}

trait RankCoord {
    fn coord_of_rank(&self, rank: usize, _n_ranks: usize) -> Coord;
}

impl RankCoord for dlp_common::GridShape {
    /// Ranks are assigned in row-major grid order over participating nodes;
    /// with every node participating (the common case) rank == linear index.
    fn coord_of_rank(&self, rank: usize, _n_ranks: usize) -> Coord {
        self.coord(rank.min(self.nodes() - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlp_common::{GridShape, TimingParams};
    use trips_isa::MimdAsm;

    use crate::MechanismSet;

    fn machine(mech: MechanismSet) -> Machine {
        Machine::new(GridShape::new(8, 8), TimingParams::default(), mech)
    }

    fn single(asm: MimdAsm) -> Vec<MimdProgram> {
        vec![asm.assemble().unwrap()]
    }

    #[test]
    fn requires_local_pc() {
        let mut m = machine(MechanismSet::simd());
        let mut asm = MimdAsm::new();
        asm.halt();
        assert!(matches!(
            m.run_mimd(&single(asm), 1),
            Err(DlpError::Unsupported { .. })
        ));
    }

    #[test]
    fn computes_a_loop() {
        // Sum 1..=10 into r1, store at word 100.
        let mut asm = MimdAsm::new();
        asm.li(1, 0);
        asm.li(2, 10);
        asm.label("top");
        asm.alu(Opcode::Add, 1, 1, 2);
        asm.alui(Opcode::Sub, 2, 2, 1);
        asm.bnz(2, "top");
        asm.li(3, 100);
        asm.st(MemSpace::Smc, 3, 0, 1);
        asm.halt();
        let mut m = machine(MechanismSet::mimd());
        m.stage_smc(0..1024).unwrap();
        let stats = m.run_mimd(&single(asm), 1).unwrap();
        assert_eq!(m.memory().read(100).as_u64(), 55);
        assert_eq!(stats.stores, 1);
        assert!(stats.mimd_fetches > 20, "loop iterations fetch repeatedly");
    }

    #[test]
    fn node_conventions_are_preloaded() {
        // Each node stores its rank at word (200 + rank).
        let mut asm = MimdAsm::new();
        asm.li(1, 200);
        asm.alu(Opcode::Add, 1, 1, REG_NODE_ID);
        asm.st(MemSpace::Smc, 1, 0, REG_NODE_ID);
        asm.halt();
        let prog = asm.assemble().unwrap();
        let progs = vec![prog; 4];
        let mut m = machine(MechanismSet::mimd());
        m.stage_smc(0..1024).unwrap();
        m.run_mimd(&progs, 4).unwrap();
        for r in 0..4u64 {
            assert_eq!(m.memory().read(200 + r).as_u64(), r, "rank {r}");
        }
    }

    #[test]
    fn send_recv_synchronizes() {
        // Node 0 sends 42 to node 1; node 1 stores what it receives.
        let mut a0 = MimdAsm::new();
        a0.li(1, 42);
        a0.send(1, 1);
        a0.halt();
        let mut a1 = MimdAsm::new();
        a1.recv(2, 0);
        a1.li(3, 300);
        a1.st(MemSpace::Smc, 3, 0, 2);
        a1.halt();
        let progs = vec![a0.assemble().unwrap(), a1.assemble().unwrap()];
        let mut m = machine(MechanismSet::mimd());
        m.stage_smc(0..1024).unwrap();
        m.run_mimd(&progs, 1).unwrap();
        assert_eq!(m.memory().read(300).as_u64(), 42);
    }

    #[test]
    fn arena_reuse_is_bit_identical() {
        // Heterogeneous runs threaded through one arena must match
        // fresh-arena runs exactly.
        let sum_prog = || {
            let mut asm = MimdAsm::new();
            asm.li(1, 0);
            asm.li(2, 10);
            asm.label("top");
            asm.alu(Opcode::Add, 1, 1, 2);
            asm.alui(Opcode::Sub, 2, 2, 1);
            asm.bnz(2, "top");
            asm.li(3, 100);
            asm.st(MemSpace::Smc, 3, 0, 1);
            asm.halt();
            asm.assemble().unwrap()
        };
        let rank_prog = || {
            let mut asm = MimdAsm::new();
            asm.li(1, 200);
            asm.alu(Opcode::Add, 1, 1, REG_NODE_ID);
            asm.st(MemSpace::Smc, 1, 0, REG_NODE_ID);
            asm.halt();
            asm.assemble().unwrap()
        };
        let mut arena = EngineArena::new();

        let mut m = machine(MechanismSet::mimd());
        m.stage_smc(0..1024).unwrap();
        let fresh = m.run_mimd(&[sum_prog()], 1).unwrap();
        let mut m = machine(MechanismSet::mimd());
        m.stage_smc(0..1024).unwrap();
        let reused = m.run_mimd_in(&[sum_prog()], 1, &mut arena).unwrap();
        assert_eq!(fresh, reused, "single-rank: arena == fresh");

        let mut m = machine(MechanismSet::mimd());
        m.stage_smc(0..1024).unwrap();
        let fresh4 = m.run_mimd(&vec![rank_prog(); 4], 4).unwrap();
        let mut m = machine(MechanismSet::mimd());
        m.stage_smc(0..1024).unwrap();
        let reused4 = m.run_mimd_in(&vec![rank_prog(); 4], 4, &mut arena).unwrap();
        assert_eq!(fresh4, reused4, "4-rank after 1-rank: arena == fresh");

        // Shrinking back down must not see rank 1..3's stale state.
        let mut m = machine(MechanismSet::mimd());
        m.stage_smc(0..1024).unwrap();
        let again = m.run_mimd_in(&[sum_prog()], 1, &mut arena).unwrap();
        assert_eq!(fresh, again, "arena reused across rank counts");
    }

    #[test]
    fn unmatched_recv_deadlocks_cleanly() {
        let mut asm = MimdAsm::new();
        asm.recv(1, 0); // nobody ever sends
        asm.halt();
        let mut m = machine(MechanismSet::mimd());
        assert!(matches!(
            m.run_mimd(&single(asm), 1),
            Err(DlpError::MalformedProgram { .. })
        ));
    }

    #[test]
    fn lut_requires_l0_mechanism() {
        let mut asm = MimdAsm::new();
        asm.lut(1, 0, 0);
        asm.halt();
        let mut m = machine(MechanismSet::mimd());
        assert!(m.run_mimd(&single(asm), 1).is_err());

        let mut asm = MimdAsm::new();
        asm.li(1, 3);
        asm.lut(2, 1, 0);
        asm.li(3, 400);
        asm.st(MemSpace::Smc, 3, 0, 2);
        asm.halt();
        let mut m = machine(MechanismSet::mimd_l0());
        m.load_l0_table(&(0..8).map(|i| Value::from_u64(i * 7)).collect::<Vec<_>>()).unwrap();
        m.stage_smc(0..1024).unwrap();
        let stats = m.run_mimd(&single(asm), 1).unwrap();
        assert_eq!(m.memory().read(400).as_u64(), 21);
        assert_eq!(stats.l0_accesses, 1);
    }

    #[test]
    fn watchdog_catches_livelock() {
        // `jmp 0` spins forever; a lowered watchdog turns that into a
        // clean error instead of an unbounded simulation. The error
        // context reports the watchdog-derived step budget.
        let mut asm = MimdAsm::new();
        asm.label("spin");
        asm.jmp("spin");
        asm.halt();
        let mut m = machine(MechanismSet::mimd());
        m.set_watchdog(10_000);
        match m.run_mimd(&single(asm), 1) {
            Err(DlpError::Watchdog { context, .. }) => {
                assert!(
                    context.contains("budget 10001"),
                    "context should carry the derived step budget (1 rank x (10000 + 1)): {context}"
                );
            }
            other => panic!("expected watchdog, got {other:?}"),
        }
    }

    #[test]
    fn oversized_program_rejected() {
        let mut asm = MimdAsm::new();
        for _ in 0..1000 {
            asm.li(1, 0);
        }
        asm.halt();
        let mut m = machine(MechanismSet::mimd());
        assert!(matches!(
            m.run_mimd(&single(asm), 1),
            Err(DlpError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn variable_work_finishes_at_slowest_node() {
        // Node 0 loops 1 time; node 1 loops 100 times.
        let make = |n: i64| {
            let mut asm = MimdAsm::new();
            asm.li(1, n);
            asm.label("top");
            asm.alui(Opcode::Sub, 1, 1, 1);
            asm.bnz(1, "top");
            asm.halt();
            asm.assemble().unwrap()
        };
        let mut m = machine(MechanismSet::mimd());
        let fast = m.run_mimd(&[make(1)], 1).unwrap();
        let mut m2 = machine(MechanismSet::mimd());
        let slow = m2.run_mimd(&[make(1), make(100)], 1).unwrap();
        assert!(slow.ticks > fast.ticks);
    }
}
