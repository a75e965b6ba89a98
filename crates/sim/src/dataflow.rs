//! The block-atomic dataflow engine (baseline, S, S-O, S-O-D machines).
//!
//! A [`DataflowBlock`] is mapped onto the array and executed for `N`
//! iterations. Three regimes are modeled, selected by the machine's
//! [`MechanismSet`]:
//!
//! * **Baseline** — every iteration is a fresh block instance, re-fetched
//!   and re-mapped through the pipelined block-fetch engine, with up to
//!   `baseline_frames` instances in flight concurrently (TRIPS frames) and
//!   constants re-read from the register file each instance. Functional
//!   units, the operand mesh, register banks and memory ports are shared
//!   across in-flight instances, so contention is modeled faithfully.
//! * **Instruction revitalization** — the block is fetched once; between
//!   iterations the block control broadcasts a revitalize signal (fixed
//!   delay) that resets reservation-station status bits. Iterations are
//!   serial (the broadcast is a barrier), which is why the scheduler
//!   unrolls aggressively to amortize it (§4.3).
//! * **Operand revitalization** — additionally, operands marked persistent
//!   (and persistent register reads) survive revitalization, so constants
//!   are delivered once per kernel.
//!
//! Events are dispatched through a [`CalendarQueue`] in `(tick, seq)`
//! order — the determinism contract in DESIGN.md — with all per-run
//! tables held in a recyclable [`DataflowScratch`] so repeated runs
//! through one [`EngineArena`](crate::EngineArena) allocate nothing in
//! steady state.

use std::collections::HashMap;

use dlp_common::{Coord, DlpError, SimStats, Tick, Value};
use trips_isa::{DataflowBlock, MemSpace, OpClass, OpRole, Opcode, Port, Slot, Target};
use trips_mem::Throttle;
use trips_noc::Endpoint;

use crate::equeue::CalendarQueue;
use crate::{EngineArena, Machine};

/// Reservation-station runtime state for one instruction in one frame.
#[derive(Clone, Default)]
struct RsState {
    /// Operand values present at [Left, Right, Pred].
    ops: [Option<Value>; 3],
    executed: bool,
}

fn port_idx(p: Port) -> usize {
    match p {
        Port::Left => 0,
        Port::Right => 1,
        Port::Pred => 2,
    }
}

/// A [`Target`] with every per-event lookup resolved at block-map time:
/// port targets carry the destination's dense instruction index (no
/// slot-hash lookup on delivery) and register targets carry their bank
/// column.
#[derive(Clone, Copy)]
enum ResolvedTarget {
    /// An operand port of instruction `inst`, which lives on `node`.
    Port { inst: usize, node: Coord, port: Port },
    /// Architectural register `reg`, written through the bank above
    /// `bank_col`.
    Reg { reg: u16, bank_col: u8 },
}

/// Events, dispatched in (tick, sequence) order.
enum Ev {
    /// An operand arrives at an instruction port.
    Operand { inst: usize, port: Port, value: Value },
    /// A bookkeeping completion (store drain, register-write arrival) that
    /// extends the iteration's completion tick without enabling anything.
    Quiesce,
}

/// Reserve an issue slot at cycle granularity on a per-tick [`Throttle`].
fn reserve_cycle(t: &mut Throttle, now: Tick) -> Tick {
    (t.reserve(now / 2) * 2).max(now)
}

/// Per-frame bookkeeping.
struct Frame {
    rs: Vec<RsState>,
    executed: usize,
    /// Outstanding events belonging to this frame.
    pending: usize,
    /// Latest event tick seen for this frame (the iteration's completion).
    last_tick: Tick,
    /// The kernel iteration this frame is running.
    iter: u64,
}

impl Frame {
    fn new(len: usize) -> Self {
        Frame { rs: vec![RsState::default(); len], executed: 0, pending: 0, last_tick: 0, iter: 0 }
    }

    /// Restore the pristine `Frame::new` state, retaining the `rs`
    /// allocation.
    fn reset(&mut self, len: usize) {
        self.rs.clear();
        self.rs.resize(len, RsState::default());
        self.executed = 0;
        self.pending = 0;
        self.last_tick = 0;
        self.iter = 0;
    }
}

/// Recyclable storage for one dataflow run, owned by an
/// [`EngineArena`](crate::EngineArena). Every table is rebuilt per run
/// (the contents depend on the block and machine) but the allocations —
/// including the calendar queue's bucket ring — carry over, so a sweep
/// worker's steady state is allocation-free.
#[derive(Default)]
pub(crate) struct DataflowScratch {
    /// The scheduler: `(frame, event)` pairs in `(tick, seq)` order.
    events: CalendarQueue<(), (usize, Ev)>,
    frames: Vec<Frame>,
    /// Which ports of each instruction must be filled before issue.
    required: Vec<[bool; 3]>,
    /// Every instruction's resolved targets, flattened: instruction `i`
    /// owns `resolved[span.0..span.1]` for `span = resolved_span[i]`, in
    /// the same order as `insts()[i].targets` (so LMW word `k` still
    /// maps to target `k`).
    resolved: Vec<ResolvedTarget>,
    resolved_span: Vec<(u32, u32)>,
    /// Port destinations of register reads, flattened like `resolved`.
    reg_read_dsts: Vec<(usize, Port, Coord)>,
    reg_read_span: Vec<(u32, u32)>,
    /// Dense grid index of each instruction's node, for issue throttling.
    inst_node: Vec<usize>,
    /// Per-node issue throttles, indexed by dense grid index.
    node_issue: Vec<Throttle>,
    reg_bank_ports: Vec<Throttle>,
    /// Slot → dense instruction index (setup-time only: the hot paths go
    /// through the pre-resolved tables above).
    idx_of: HashMap<Slot, usize>,
    /// Fingerprint of the last block this scratch validated —
    /// `(block address, block length, grid, slots per node)`. Validation
    /// is O(block) of hashing, so a sweep re-running one prepared (and
    /// already-validated) block across many cells pays it once per
    /// worker instead of once per run. Pre-seeded by
    /// [`EngineArena::mark_dataflow_block_validated`](crate::EngineArena::mark_dataflow_block_validated)
    /// for blocks a scheduler already validated.
    pub(crate) validated: Option<(usize, usize, dlp_common::GridShape, usize)>,
}

impl DataflowScratch {
    /// Validate `block` for `m`'s shape (memoized on [`Self::validated`])
    /// and rebuild every block-shape table: slot index, required-port
    /// issue conditions, resolved targets, register-read destinations,
    /// and per-instruction node indices.
    fn build_tables(
        &mut self,
        block: &DataflowBlock,
        m: &Machine,
    ) -> Result<(), DlpError> {
        let s = self;
        let fingerprint = (
            std::ptr::from_ref(block) as usize,
            block.len(),
            m.grid(),
            m.params().core.rs_slots_per_node,
        );
        if s.validated != Some(fingerprint) {
            block.validate(m.grid(), m.params().core.rs_slots_per_node)?;
            s.validated = Some(fingerprint);
        }
        let mech = m.mechanisms();
        for inst in block.insts() {
            match inst.op {
                Opcode::Lut if !mech.l0_data_store => {
                    return Err(DlpError::Unsupported {
                        what: "lut instruction without the L0 data store".into(),
                    })
                }
                Opcode::Load(MemSpace::Smc) | Opcode::Store(MemSpace::Smc) | Opcode::Lmw
                    if !mech.smc =>
                {
                    return Err(DlpError::Unsupported {
                        what: "SMC memory access without the SMC mechanism".into(),
                    })
                }
                _ => {}
            }
        }

        s.idx_of.clear();
        for (i, inst) in block.insts().iter().enumerate() {
            s.idx_of.insert(inst.slot, i);
        }

        // `required` doubles as the fed-port table while it is built:
        // first mark which ports are fed, then rewrite each entry into
        // the issue condition in place.
        s.required.clear();
        s.required.resize(block.len(), [false; 3]);
        {
            let idx_of = &s.idx_of;
            let fed = &mut s.required;
            let mut mark = |t: &Target| {
                if let Target::Port { slot, port } = t {
                    fed[idx_of[slot]][port_idx(*port)] = true;
                }
            };
            for inst in block.insts() {
                for t in &inst.targets {
                    mark(t);
                }
            }
            for rr in block.reg_reads() {
                for t in &rr.targets {
                    mark(t);
                }
            }
        }
        for (i, inst) in block.insts().iter().enumerate() {
            let fed = s.required[i];
            let (l, r, p) = inst.op.ports();
            s.required[i] = [
                l && (fed[0] || !matches!(inst.op, Opcode::Lut)),
                // A store's immediate is an address offset, so its right
                // port (the stored value) still comes from the network.
                r && (inst.imm.is_none() || matches!(inst.op, Opcode::Store(_))),
                p,
            ];
        }

        let banks = m.params().core.reg_banks.max(1);
        let reg_cols = m.grid().cols();
        {
            let idx_of = &s.idx_of;
            let resolve = |t: &Target| match *t {
                Target::Port { slot, port } => {
                    ResolvedTarget::Port { inst: idx_of[&slot], node: slot.node, port }
                }
                Target::Reg(reg) => {
                    let bank_col = ((reg % banks as u16) as u8).min(reg_cols - 1);
                    ResolvedTarget::Reg { reg, bank_col }
                }
            };
            s.resolved.clear();
            s.resolved_span.clear();
            for inst in block.insts() {
                let start = s.resolved.len() as u32;
                s.resolved.extend(inst.targets.iter().map(resolve));
                s.resolved_span.push((start, s.resolved.len() as u32));
            }
            s.reg_read_dsts.clear();
            s.reg_read_span.clear();
            for rr in block.reg_reads() {
                let start = s.reg_read_dsts.len() as u32;
                s.reg_read_dsts.extend(rr.targets.iter().filter_map(|t| match *t {
                    Target::Port { slot, port } => Some((idx_of[&slot], port, slot.node)),
                    Target::Reg(_) => None,
                }));
                s.reg_read_span.push((start, s.reg_read_dsts.len() as u32));
            }
        }
        let grid = m.grid();
        s.inst_node.clear();
        s.inst_node.extend(block.insts().iter().map(|inst| grid.index(inst.slot.node)));
        Ok(())
    }
}

struct Engine<'a> {
    m: &'a mut Machine,
    block: &'a DataflowBlock,
    s: &'a mut DataflowScratch,
    stats: SimStats,
}

impl<'a> Engine<'a> {
    fn new(
        m: &'a mut Machine,
        block: &'a DataflowBlock,
        n_frames: usize,
        s: &'a mut DataflowScratch,
    ) -> Result<Self, DlpError> {
        s.build_tables(block, m)?;

        // A failed previous run may have left events queued; every other
        // table below is rebuilt unconditionally.
        s.events.clear();

        let banks = m.params().core.reg_banks.max(1);
        let reads_per = m.params().core.reg_reads_per_bank_per_cycle.max(1);
        s.node_issue.clear();
        s.node_issue.resize(m.grid().nodes(), Throttle::new(1));
        s.reg_bank_ports.clear();
        s.reg_bank_ports.resize(banks as usize, Throttle::new(reads_per));

        s.frames.truncate(n_frames);
        for f in &mut s.frames {
            f.reset(block.len());
        }
        while s.frames.len() < n_frames {
            s.frames.push(Frame::new(block.len()));
        }

        Ok(Engine { block, s, stats: SimStats::new(), m })
    }

    fn push(&mut self, frame: usize, tick: Tick, ev: Ev) {
        self.s.frames[frame].pending += 1;
        self.s.events.push(tick, (), (frame, ev));
    }

    /// Seed one iteration's initial activity at `start` on `frame`.
    fn seed_iteration(&mut self, frame: usize, start: Tick, iter: u64, first: bool) {
        let block = self.block;
        self.s.frames[frame].iter = iter;
        self.s.frames[frame].last_tick = self.s.frames[frame].last_tick.max(start);
        let op_revit = self.m.mechanisms().operand_revitalization;
        // Register reads.
        let banks = self.s.reg_bank_ports.len() as u16;
        let reg_cols = self.m.grid().cols();
        for (ri, rr) in block.reg_reads().iter().enumerate() {
            if !first && op_revit && rr.persistent {
                continue; // value survived revitalization
            }
            let bank = (rr.reg % banks) as usize;
            let inject = reserve_cycle(&mut self.s.reg_bank_ports[bank], start);
            self.stats.reg_reads += 1;
            let bank_col = (bank as u8).min(reg_cols - 1);
            let value = self.m.regs[rr.reg as usize];
            let (span_start, span_end) = self.s.reg_read_span[ri];
            for k in span_start..span_end {
                let (inst, port, node) = self.s.reg_read_dsts[k as usize];
                let arrive = self.m.router.send_faulty(
                    Endpoint::RegBank(bank_col),
                    Endpoint::Node(node),
                    inject,
                    &mut self.m.fault,
                );
                let arrive = self.m.fault.operand_write(arrive);
                self.push(frame, arrive, Ev::Operand { inst, port, value });
            }
        }
        // Source instructions with no required operands (MovI, Iter,
        // constant-indexed Lut) fire at iteration start.
        for i in 0..block.len() {
            if self.s.frames[frame].rs[i].executed {
                continue;
            }
            if self.ready(frame, i) {
                self.execute(frame, i, start);
            }
        }
    }

    fn ready(&self, frame: usize, i: usize) -> bool {
        let rs = &self.s.frames[frame].rs[i];
        !rs.executed && (0..3).all(|p| !self.s.required[i][p] || rs.ops[p].is_some())
    }

    /// Issue and execute instruction `i` of `frame`, whose operands became
    /// complete at `t`; schedules all downstream events.
    #[allow(clippy::too_many_lines)]
    fn execute(&mut self, frame: usize, i: usize, t: Tick) {
        let block = self.block;
        let inst = &block.insts()[i];
        let node = inst.slot.node;
        let node_idx = self.s.inst_node[i];
        let issue = reserve_cycle(&mut self.s.node_issue[node_idx], t);
        self.s.frames[frame].rs[i].executed = true;
        self.s.frames[frame].executed += 1;

        let lat = inst.op.latency(&self.m.params().ops);
        let rs = &self.s.frames[frame].rs[i];
        let l = rs.ops[0].unwrap_or(Value::ZERO);
        let r = rs.ops[1].or(inst.imm).unwrap_or(Value::ZERO);
        let p = rs.ops[2].unwrap_or(Value::ZERO);
        let iter = self.s.frames[frame].iter;

        // Metric accounting.
        match inst.op {
            Opcode::Load(_) | Opcode::Lmw => self.stats.loads += 1,
            Opcode::Store(_) => self.stats.stores += 1,
            Opcode::Lut => self.stats.l0_accesses += 1,
            _ => {}
        }
        let countable = !inst.op.is_mem() && inst.op.class() != OpClass::Mov;
        if countable && inst.role == OpRole::Useful {
            self.stats.useful_ops += 1;
        } else {
            self.stats.overhead_ops += 1;
        }

        let row = node.row;
        match inst.op {
            Opcode::MovI => {
                let v = inst.imm.unwrap_or(Value::ZERO);
                self.fan_out(frame, i, issue + lat, v);
            }
            Opcode::Iter => {
                self.fan_out(frame, i, issue + lat, Value::from_u64(iter));
            }
            Opcode::Nop => {}
            Opcode::Lut => {
                let index = l.as_u64().wrapping_add(inst.imm.map_or(0, |v| v.as_u64()));
                let v = self.m.l0_data.get(index as usize).copied().unwrap_or(Value::ZERO);
                let done = issue + self.m.params().mem.l0_latency;
                self.fan_out(frame, i, done, v);
            }
            Opcode::Load(space) => {
                let addr = l.as_u64().wrapping_add(inst.imm.map_or(0, |v| v.as_u64()));
                let handoff = issue + lat;
                let req = self.m.router.send_faulty(
                    Endpoint::Node(node),
                    Endpoint::MemPort(row),
                    handoff,
                    &mut self.m.fault,
                );
                let served = match space {
                    MemSpace::Smc => {
                        self.stats.smc_accesses += 1;
                        self.m.smc[row as usize].access_faulty(addr, req, &mut self.m.fault)
                    }
                    MemSpace::L1 => {
                        self.stats.l1_accesses += 1;
                        let (t2, hit) =
                            self.m.l1[row as usize].access_faulty(addr, req, &mut self.m.fault);
                        if !hit {
                            self.stats.l1_misses += 1;
                        }
                        t2
                    }
                };
                let back = self.m.router.send_faulty(
                    Endpoint::MemPort(row),
                    Endpoint::Node(node),
                    served,
                    &mut self.m.fault,
                );
                let v = self.m.mem.read(addr);
                self.fan_out(frame, i, back, v);
            }
            Opcode::Lmw => {
                let addr = l.as_u64();
                let n = inst.imm.map_or(0, |v| v.as_u64()) as u32;
                let handoff = issue + lat;
                let req = self.m.router.send_faulty(
                    Endpoint::Node(node),
                    Endpoint::MemPort(row),
                    handoff,
                    &mut self.m.fault,
                );
                self.stats.smc_accesses += 1;
                self.stats.lmw_words += u64::from(n);
                let served = self.m.smc[row as usize].access_wide_faulty(
                    addr,
                    n,
                    req,
                    &mut self.m.fault,
                );
                // The streaming channel delivers word k straight to target k.
                let (span_start, span_end) = self.s.resolved_span[i];
                for (k, ti) in (span_start..span_end).enumerate() {
                    let tgt = self.s.resolved[ti as usize];
                    let v = self.m.mem.read(addr + k as u64);
                    self.deliver(frame, tgt, Endpoint::MemPort(row), served, v);
                }
            }
            Opcode::Store(space) => {
                let addr = l.as_u64().wrapping_add(inst.imm.map_or(0, |v| v.as_u64()));
                self.m.mem.write(addr, r);
                let handoff = issue + lat;
                let req = self.m.router.send_faulty(
                    Endpoint::Node(node),
                    Endpoint::MemPort(row),
                    handoff,
                    &mut self.m.fault,
                );
                let drained = match space {
                    MemSpace::Smc => {
                        let t2 = self.m.stb[row as usize].push_faulty(addr, req, &mut self.m.fault);
                        self.m.smc[row as usize].store_faulty(addr, t2, &mut self.m.fault)
                    }
                    MemSpace::L1 => {
                        self.stats.l1_accesses += 1;
                        let (t2, hit) =
                            self.m.l1[row as usize].access_faulty(addr, req, &mut self.m.fault);
                        if !hit {
                            self.stats.l1_misses += 1;
                        }
                        t2
                    }
                };
                self.push(frame, drained, Ev::Quiesce);
            }
            _ => {
                let v = trips_isa::exec::eval(inst.op, l, r, p);
                self.fan_out(frame, i, issue + lat, v);
            }
        }
    }

    /// Route instruction `i`'s result to all its targets at `t`.
    fn fan_out(&mut self, frame: usize, i: usize, t: Tick, v: Value) {
        let node = self.block.insts()[i].slot.node;
        let (span_start, span_end) = self.s.resolved_span[i];
        for ti in span_start..span_end {
            let tgt = self.s.resolved[ti as usize];
            self.deliver(frame, tgt, Endpoint::Node(node), t, v);
        }
        if span_start == span_end {
            self.push(frame, t, Ev::Quiesce);
        }
    }

    fn deliver(&mut self, frame: usize, tgt: ResolvedTarget, from: Endpoint, t: Tick, v: Value) {
        match tgt {
            ResolvedTarget::Port { inst, node, port } => {
                let arrive =
                    self.m.router.send_faulty(from, Endpoint::Node(node), t, &mut self.m.fault);
                // The destination reservation station is an operand store:
                // a flipped entry is detected by parity and re-latched.
                let arrive = self.m.fault.operand_write(arrive);
                self.push(frame, arrive, Ev::Operand { inst, port, value: v });
            }
            ResolvedTarget::Reg { reg, bank_col } => {
                let arrive =
                    self.m.router.send_faulty(from, Endpoint::RegBank(bank_col), t, &mut self.m.fault);
                self.m.regs[reg as usize] = v;
                self.stats.reg_writes += 1;
                self.push(frame, arrive, Ev::Quiesce);
            }
        }
    }

    /// Reset a frame's reservation stations for its next iteration.
    /// `keep_persistent` preserves operand-revitalized values.
    fn reset_frame(&mut self, frame: usize, keep_persistent: bool) {
        let op_revit = keep_persistent && self.m.mechanisms().operand_revitalization;
        for (i, state) in self.s.frames[frame].rs.iter_mut().enumerate() {
            state.executed = false;
            let persist = self.block.insts()[i].persistent;
            for (pi, port) in [Port::Left, Port::Right, Port::Pred].into_iter().enumerate() {
                if !(op_revit && persist.contains(port)) {
                    state.ops[pi] = None;
                }
            }
        }
        self.s.frames[frame].executed = 0;
    }
}

impl Machine {
    /// Execute `block` for `iterations` kernel iterations and return the
    /// run's statistics (including any pending setup cost).
    ///
    /// The regime (pipelined baseline refetch vs serial instruction
    /// revitalization) follows the machine's [`crate::MechanismSet`]; see the
    /// module docs.
    ///
    /// # Errors
    ///
    /// * [`DlpError::MalformedProgram`] — the block fails validation or
    ///   deadlocks (an unfed port).
    /// * [`DlpError::Unsupported`] — the block uses a mechanism (SMC, L0)
    ///   the machine does not have.
    /// * [`DlpError::Watchdog`] — the run exceeded the machine's watchdog
    ///   (see [`Machine::set_watchdog`]).
    pub fn run_dataflow(
        &mut self,
        block: &DataflowBlock,
        iterations: u64,
    ) -> Result<SimStats, DlpError> {
        let mut arena = EngineArena::new();
        self.run_dataflow_in(block, iterations, &mut arena)
    }

    /// As [`Machine::run_dataflow`], reusing `arena`'s scratch storage —
    /// bit-identical statistics, but a caller running many blocks (a
    /// sweep worker) allocates nothing once the arena has warmed up.
    ///
    /// # Errors
    ///
    /// As [`Machine::run_dataflow`].
    pub fn run_dataflow_in(
        &mut self,
        block: &DataflowBlock,
        iterations: u64,
        arena: &mut EngineArena,
    ) -> Result<SimStats, DlpError> {
        if self.mechanisms().local_pc {
            return Err(DlpError::Unsupported {
                what: "dataflow blocks on a machine configured for MIMD (local PCs)".into(),
            });
        }
        let base = self.begin_run();
        let inst_revit = self.mechanisms().inst_revitalization;
        let n_frames = if inst_revit {
            1
        } else {
            (self.params().fetch.baseline_frames.max(1) as usize).min(iterations.max(1) as usize)
        };
        let revitalize_delay = self.params().fetch.revitalize_delay;

        let mut engine = Engine::new(self, block, n_frames, &mut arena.dataflow)?;
        engine.stats = base;
        engine.stats.iterations = iterations;
        if iterations == 0 {
            return Ok(engine.stats);
        }

        // Seed the initial frames through the (pipelined) fetch engine:
        // map latency once, then throughput-limited block streaming.
        let per_fetch = if inst_revit {
            engine.m.fetch_ticks(block.len())
        } else {
            engine.m.fetch_ticks_baseline(block.len())
        };
        let mut fetch_done = engine.stats.ticks + engine.m.params().fetch.map_overhead;
        let mut next_iter: u64 = 0;
        for frame in 0..n_frames {
            fetch_done += per_fetch;
            engine.stats.blocks_fetched += 1;
            engine.seed_iteration(frame, fetch_done, next_iter, true);
            next_iter += 1;
            if next_iter >= iterations {
                break;
            }
        }

        // Event loop across all in-flight frames.
        let mut done_iters: u64 = 0;
        let mut final_tick: Tick = fetch_done;
        while let Some((tick, (), (frame, ev))) = engine.s.events.pop() {
            if tick > engine.m.watchdog_ticks {
                return Err(DlpError::Watchdog {
                    ticks: tick,
                    context: format!(
                        "dataflow block '{}' ({done_iters}/{iterations} iterations done)",
                        block.name()
                    ),
                });
            }
            if let Some(fatal) = engine.m.fault.fatal() {
                return Err(fatal.to_error());
            }
            engine.s.frames[frame].pending -= 1;
            engine.s.frames[frame].last_tick = engine.s.frames[frame].last_tick.max(tick);
            match ev {
                Ev::Operand { inst, port, value } => {
                    engine.s.frames[frame].rs[inst].ops[port_idx(port)] = Some(value);
                    if engine.ready(frame, inst) {
                        engine.execute(frame, inst, tick);
                    }
                }
                Ev::Quiesce => {}
            }
            if engine.s.frames[frame].pending == 0 {
                // Iteration complete (or deadlocked).
                if engine.s.frames[frame].executed != block.len() {
                    return Err(DlpError::MalformedProgram {
                        detail: format!(
                            "block {}: iteration {} stalled with {}/{} instructions executed",
                            block.name(),
                            engine.s.frames[frame].iter,
                            engine.s.frames[frame].executed,
                            block.len()
                        ),
                    });
                }
                done_iters += 1;
                let t = engine.s.frames[frame].last_tick;
                final_tick = final_tick.max(t);
                if next_iter < iterations {
                    let start = if inst_revit {
                        engine.stats.revitalizations += 1;
                        engine.reset_frame(frame, true);
                        t + revitalize_delay
                    } else {
                        fetch_done += per_fetch;
                        engine.stats.blocks_fetched += 1;
                        engine.reset_frame(frame, false);
                        t.max(fetch_done)
                    };
                    engine.seed_iteration(frame, start, next_iter, false);
                    next_iter += 1;
                }
            }
        }

        // A fault escalated by the very last event has no successor pop to
        // observe it — catch it before declaring the run complete.
        if let Some(fatal) = engine.m.fault.fatal() {
            return Err(fatal.to_error());
        }

        if done_iters != iterations {
            return Err(DlpError::MalformedProgram {
                detail: format!(
                    "block {}: completed {done_iters}/{iterations} iterations",
                    block.name()
                ),
            });
        }

        let mut stats = engine.stats;
        stats.ticks = final_tick;
        let net = self.router.stats();
        stats.net_msgs = net.msgs;
        stats.net_hops = net.hops;
        stats.record_faults(self.fault.take_stats());
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlp_common::{Coord, GridShape, TimingParams};
    use trips_isa::{PlacedInst, PortSet, RegRead, Slot};

    use crate::MechanismSet;

    fn machine(mech: MechanismSet) -> Machine {
        Machine::new(GridShape::new(8, 8), TimingParams::default(), mech)
    }

    fn slot(r: u8, c: u8, i: u16) -> Slot {
        Slot::new(Coord::new(r, c), i)
    }

    /// in -> add(imm 5) -> reg0, one source movi.
    fn tiny_block() -> DataflowBlock {
        let s0 = slot(0, 0, 0);
        let s1 = slot(0, 1, 0);
        let mut a = PlacedInst::new(s0, Opcode::MovI);
        a.imm = Some(Value::from_u64(10));
        a.targets = vec![Target::port(s1, Port::Left)];
        let mut b = PlacedInst::new(s1, Opcode::Add);
        b.imm = Some(Value::from_u64(5));
        b.targets = vec![Target::Reg(0)];
        DataflowBlock::new("tiny", vec![a, b], vec![])
    }

    #[test]
    fn computes_correct_value() {
        let mut m = machine(MechanismSet::baseline());
        let stats = m.run_dataflow(&tiny_block(), 1).unwrap();
        assert_eq!(m.reg(0).as_u64(), 15);
        assert_eq!(stats.iterations, 1);
        assert!(stats.ticks > 0);
        assert_eq!(stats.useful_ops, 1); // the add
    }

    #[test]
    fn arena_reuse_is_bit_identical() {
        // The same arena threaded through heterogeneous runs (different
        // blocks, frame counts, mechanism sets) must not perturb any
        // statistic relative to fresh-arena runs.
        let mut arena = EngineArena::new();
        let mut m = machine(MechanismSet::baseline());
        let fresh_base = m.run_dataflow(&tiny_block(), 10).unwrap();
        let mut m = machine(MechanismSet::baseline());
        let arena_base = m.run_dataflow_in(&tiny_block(), 10, &mut arena).unwrap();
        assert_eq!(fresh_base, arena_base, "baseline: arena == fresh");

        let mut m = machine(MechanismSet::simd());
        let fresh_revit = m.run_dataflow(&const_block(false), 20).unwrap();
        let mut m = machine(MechanismSet::simd());
        let arena_revit = m.run_dataflow_in(&const_block(false), 20, &mut arena).unwrap();
        assert_eq!(fresh_revit, arena_revit, "revitalized: arena == fresh");

        // And back to the first block: stale tables must not leak.
        let mut m = machine(MechanismSet::baseline());
        let again = m.run_dataflow_in(&tiny_block(), 10, &mut arena).unwrap();
        assert_eq!(fresh_base, again, "arena reused across blocks");
    }

    #[test]
    fn iter_opcode_produces_indices() {
        // iter -> store to addr iter (order-independent check).
        let s0 = slot(0, 0, 0);
        let s1 = slot(0, 1, 0);
        let s2 = slot(0, 2, 0);
        let mut a = PlacedInst::new(s0, Opcode::Iter);
        a.targets = vec![Target::port(s1, Port::Left), Target::port(s2, Port::Right)];
        let mut addr = PlacedInst::new(s1, Opcode::Add);
        addr.imm = Some(Value::from_u64(100));
        addr.targets = vec![Target::port(s2, Port::Left)];
        let st = PlacedInst::new(s2, Opcode::Store(MemSpace::L1));
        let blk = DataflowBlock::new("it", vec![a, addr, st], vec![]);
        let mut m = machine(MechanismSet::simd_operand());
        // SIMD machine without SMC ops: store via L1 is fine.
        let stats = m.run_dataflow(&blk, 5).unwrap();
        for i in 0..5u64 {
            assert_eq!(m.memory().read(100 + i).as_u64(), i, "iteration {i}");
        }
        assert_eq!(stats.revitalizations, 4);
        assert_eq!(stats.blocks_fetched, 1);
    }

    #[test]
    fn baseline_refetches_every_iteration() {
        let mut m = machine(MechanismSet::baseline());
        let stats = m.run_dataflow(&tiny_block(), 10).unwrap();
        assert_eq!(stats.blocks_fetched, 10);
        assert_eq!(stats.revitalizations, 0);
    }

    #[test]
    fn baseline_pipelines_blocks_across_frames() {
        // With 8 frames in flight, 64 iterations should take far less than
        // 64 × (single-iteration latency).
        let mut m = machine(MechanismSet::baseline());
        let one = m.run_dataflow(&tiny_block(), 1).unwrap();
        let mut m2 = machine(MechanismSet::baseline());
        let many = m2.run_dataflow(&tiny_block(), 64).unwrap();
        assert!(
            many.ticks < one.ticks * 40,
            "64 iterations ({}) should pipeline, not serialize ({} each)",
            many.ticks,
            one.ticks
        );
    }

    #[test]
    fn frames_are_bounded_by_iteration_count() {
        // A 2-iteration run must not seed 8 frames' worth of fetches.
        let mut m = machine(MechanismSet::baseline());
        let stats = m.run_dataflow(&tiny_block(), 2).unwrap();
        assert_eq!(stats.blocks_fetched, 2);
    }

    #[test]
    fn revitalization_avoids_refetch_and_is_faster_per_fetch() {
        let mut m = machine(MechanismSet::simd());
        let revit = m.run_dataflow(&tiny_block(), 50).unwrap();
        assert_eq!(revit.blocks_fetched, 1);
        assert_eq!(revit.revitalizations, 49);
    }

    /// A block with a register-read constant: iter + r5 -> store at iter.
    fn const_block(persistent: bool) -> DataflowBlock {
        let s0 = slot(0, 0, 0);
        let s1 = slot(0, 1, 0);
        let s2 = slot(0, 2, 0);
        let s3 = slot(0, 3, 0);
        let mut it = PlacedInst::new(s0, Opcode::Iter);
        it.targets = vec![Target::port(s1, Port::Left), Target::port(s3, Port::Left)];
        let mut add = PlacedInst::new(s1, Opcode::Add);
        add.targets = vec![Target::port(s2, Port::Right)];
        if persistent {
            add.persistent = PortSet::EMPTY.with(Port::Right);
        }
        let mut addr = PlacedInst::new(s3, Opcode::Add);
        addr.imm = Some(Value::from_u64(200));
        addr.targets = vec![Target::port(s2, Port::Left)];
        let st = PlacedInst::new(s2, Opcode::Store(MemSpace::L1));
        let rr = RegRead { reg: 5, targets: vec![Target::port(s1, Port::Right)], persistent };
        DataflowBlock::new("const", vec![it, add, addr, st], vec![rr])
    }

    #[test]
    fn operand_revitalization_reads_register_once() {
        let mut m = machine(MechanismSet::simd());
        m.set_reg(5, Value::from_u64(100));
        let s = m.run_dataflow(&const_block(false), 20).unwrap();
        assert_eq!(s.reg_reads, 20);
        assert_eq!(m.memory().read(200 + 19).as_u64(), 119);

        let mut m = machine(MechanismSet::simd_operand());
        m.set_reg(5, Value::from_u64(100));
        let s = m.run_dataflow(&const_block(true), 20).unwrap();
        assert_eq!(s.reg_reads, 1, "persistent constant read once");
        assert_eq!(m.memory().read(200 + 19).as_u64(), 119);
    }

    /// iter -> load(smc or l1) from addr iter -> store to 300+iter.
    fn load_store_block(space: MemSpace) -> DataflowBlock {
        let s0 = slot(2, 0, 0);
        let s1 = slot(2, 1, 0);
        let s2 = slot(2, 2, 0);
        let s3 = slot(2, 3, 0);
        let mut it = PlacedInst::new(s0, Opcode::Iter);
        it.targets = vec![Target::port(s1, Port::Left), Target::port(s3, Port::Left)];
        let mut ld = PlacedInst::new(s1, Opcode::Load(space));
        ld.targets = vec![Target::port(s2, Port::Right)];
        let mut addr = PlacedInst::new(s3, Opcode::Add);
        addr.imm = Some(Value::from_u64(300));
        addr.targets = vec![Target::port(s2, Port::Left)];
        let st = PlacedInst::new(s2, Opcode::Store(space));
        DataflowBlock::new("ldst", vec![it, ld, addr, st], vec![])
    }

    #[test]
    fn loads_read_staged_memory() {
        let mut m = machine(MechanismSet::simd());
        for i in 0..8u64 {
            m.memory_mut().write(i, Value::from_u64(i * 11));
        }
        m.stage_smc(0..8).unwrap();
        let s = m.run_dataflow(&load_store_block(MemSpace::Smc), 8).unwrap();
        for i in 0..8u64 {
            assert_eq!(m.memory().read(300 + i).as_u64(), i * 11);
        }
        assert_eq!(s.loads, 8);
        assert!(s.smc_accesses >= 8);
    }

    #[test]
    fn l1_loads_work_on_baseline_with_frames() {
        let mut m = machine(MechanismSet::baseline());
        for i in 0..16u64 {
            m.memory_mut().write(i, Value::from_u64(1000 + i));
        }
        let s = m.run_dataflow(&load_store_block(MemSpace::L1), 16).unwrap();
        for i in 0..16u64 {
            assert_eq!(m.memory().read(300 + i).as_u64(), 1000 + i, "iteration {i}");
        }
        assert!(s.l1_accesses >= 16);
    }

    #[test]
    fn smc_ops_rejected_without_mechanism() {
        let mut m = machine(MechanismSet::baseline());
        assert!(matches!(
            m.run_dataflow(&load_store_block(MemSpace::Smc), 1),
            Err(DlpError::Unsupported { .. })
        ));
    }

    #[test]
    fn lmw_fans_words_across_row() {
        // movi(addr 0) -> lmw 4 words -> 4 adders, summed pairwise to reg0.
        let sa = slot(3, 0, 0);
        let sl = slot(3, 0, 1);
        let t0 = slot(3, 1, 0);
        let t1 = slot(3, 2, 0);
        let t2 = slot(3, 1, 1);
        let t3 = slot(3, 2, 1);
        let mut addr = PlacedInst::new(sa, Opcode::MovI);
        addr.imm = Some(Value::from_u64(0));
        addr.targets = vec![Target::port(sl, Port::Left)];
        let mut lmw = PlacedInst::new(sl, Opcode::Lmw);
        lmw.imm = Some(Value::from_u64(4));
        lmw.targets = vec![
            Target::port(t0, Port::Left),
            Target::port(t0, Port::Right),
            Target::port(t1, Port::Left),
            Target::port(t1, Port::Right),
        ];
        let mut a0 = PlacedInst::new(t0, Opcode::Add);
        a0.targets = vec![Target::port(t2, Port::Left)];
        let mut a1 = PlacedInst::new(t1, Opcode::Add);
        a1.targets = vec![Target::port(t2, Port::Right)];
        let mut a2 = PlacedInst::new(t2, Opcode::Add);
        a2.targets = vec![Target::port(t3, Port::Left)];
        let mut fin = PlacedInst::new(t3, Opcode::Mov);
        fin.targets = vec![Target::Reg(0)];
        let blk = DataflowBlock::new("lmw", vec![addr, lmw, a0, a1, a2, fin], vec![]);

        let mut m = machine(MechanismSet::simd());
        for i in 0..4u64 {
            m.memory_mut().write(i, Value::from_u64(i + 1)); // 1+2+3+4 = 10
        }
        m.stage_smc(0..8).unwrap();
        let s = m.run_dataflow(&blk, 1).unwrap();
        assert_eq!(m.reg(0).as_u64(), 10);
        assert_eq!(s.lmw_words, 4);
        assert_eq!(s.loads, 1, "one LMW counts as one load instruction");
    }

    #[test]
    fn lut_reads_l0_table() {
        let s0 = slot(0, 0, 0);
        let s1 = slot(0, 1, 0);
        let mut it = PlacedInst::new(s0, Opcode::Iter);
        it.targets = vec![Target::port(s1, Port::Left)];
        let mut lut = PlacedInst::new(s1, Opcode::Lut);
        lut.targets = vec![Target::Reg(0)];
        let blk = DataflowBlock::new("lut", vec![it, lut], vec![]);

        let mut m = machine(MechanismSet::simd_operand_l0());
        let table: Vec<Value> = (0..16).map(|i| Value::from_u64(i * i)).collect();
        m.load_l0_table(&table).unwrap();
        let s = m.run_dataflow(&blk, 4).unwrap();
        assert_eq!(m.reg(0).as_u64(), 9); // 3*3
        assert_eq!(s.l0_accesses, 4);
    }

    #[test]
    fn lut_rejected_without_l0() {
        let s0 = slot(0, 0, 0);
        let s1 = slot(0, 1, 0);
        let mut it = PlacedInst::new(s0, Opcode::Iter);
        it.targets = vec![Target::port(s1, Port::Left)];
        let mut lut = PlacedInst::new(s1, Opcode::Lut);
        lut.targets = vec![Target::Reg(0)];
        let blk = DataflowBlock::new("lut", vec![it, lut], vec![]);
        let mut m = machine(MechanismSet::simd());
        assert!(matches!(m.run_dataflow(&blk, 1), Err(DlpError::Unsupported { .. })));
    }

    #[test]
    fn mimd_machine_rejects_dataflow() {
        let mut m = machine(MechanismSet::mimd());
        assert!(matches!(
            m.run_dataflow(&tiny_block(), 1),
            Err(DlpError::Unsupported { .. })
        ));
    }

    #[test]
    fn sel_merges_in_dataflow() {
        // p = iter < 2 ; sel(p, 111, 222) -> store at 400+iter.
        let si = slot(0, 0, 0);
        let sc = slot(0, 1, 0);
        let sa = slot(1, 0, 0);
        let sb = slot(1, 1, 0);
        let ss = slot(1, 2, 0);
        let sd = slot(1, 3, 0);
        let st = slot(1, 4, 0);
        let mut it = PlacedInst::new(si, Opcode::Iter);
        it.targets = vec![Target::port(sc, Port::Left), Target::port(sd, Port::Left)];
        let mut cmp = PlacedInst::new(sc, Opcode::Tltu);
        cmp.imm = Some(Value::from_u64(2));
        cmp.targets = vec![Target::port(ss, Port::Pred)];
        let mut va = PlacedInst::new(sa, Opcode::MovI);
        va.imm = Some(Value::from_u64(111));
        va.targets = vec![Target::port(ss, Port::Left)];
        let mut vb = PlacedInst::new(sb, Opcode::MovI);
        vb.imm = Some(Value::from_u64(222));
        vb.targets = vec![Target::port(ss, Port::Right)];
        let mut sel = PlacedInst::new(ss, Opcode::Sel);
        sel.targets = vec![Target::port(st, Port::Right)];
        let mut addr = PlacedInst::new(sd, Opcode::Add);
        addr.imm = Some(Value::from_u64(400));
        addr.targets = vec![Target::port(st, Port::Left)];
        let stv = PlacedInst::new(st, Opcode::Store(MemSpace::L1));
        let blk = DataflowBlock::new("sel", vec![it, cmp, va, vb, sel, addr, stv], vec![]);

        let mut m = machine(MechanismSet::simd());
        m.run_dataflow(&blk, 4).unwrap();
        assert_eq!(m.memory().read(400).as_u64(), 111);
        assert_eq!(m.memory().read(401).as_u64(), 111);
        assert_eq!(m.memory().read(402).as_u64(), 222);
        assert_eq!(m.memory().read(403).as_u64(), 222);
    }
}
