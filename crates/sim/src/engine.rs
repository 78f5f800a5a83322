//! The cycle-level execution engine.
//!
//! The engine executes a *scheduled* program exactly the way the paper's
//! machine model does (§3.3, §4.2): one VLIW instruction (bundle) is issued
//! per cycle in program order; the compiler's schedule already guarantees
//! that data dependences and structural hazards are respected *assuming* the
//! latencies it used (L1/L2 hits, stride-one vector accesses, the
//! compile-time vector length).  Whenever reality differs — a cache miss, a
//! non-unit-stride vector access, a value arriving from a previous block —
//! the whole machine stalls until the hazard clears, which is precisely the
//! "processor is stalled at run-time" behaviour the paper describes and the
//! reason VLIW is so sensitive to non-deterministic latencies (§5.1).
//!
//! Two entry points exist:
//!
//! * [`Simulator::run_lowered`] — the hot path.  It consumes the
//!   pre-resolved [`LoweredProgram`] of `vmv_sched::lower`: the scoreboard
//!   is a plain `Vec<u64>` indexed by register slot, branch targets are
//!   block indices, read/write sets and latency metadata are baked into
//!   each operation, and bundles are contiguous array slices.  Nothing is
//!   hashed, allocated or string-compared per dynamic operation.
//! * [`Simulator::run`] — convenience wrapper that lowers a
//!   [`ScheduledProgram`] and runs it.  [`Simulator::run_reference`] keeps
//!   the original string-keyed interpretation loop as the differential
//!   oracle: `tests/lowered_differential.rs` proves both produce identical
//!   [`RunStats`] cycle for cycle.

use std::collections::HashMap;
use std::sync::Arc;

use vmv_isa::{LatencyDescriptor, Op, Reg, NO_SLOT};
use vmv_machine::MachineConfig;
use vmv_mem::{transfer_cycles, AccessKind, MemoryHierarchy, MemoryModel};
use vmv_sched::{lower, LoweredProgram, ScheduledProgram};

use crate::exec::{execute_lowered, execute_op, ExecOutcome, LoweredOutcome, MemAccess};
use crate::memimage::MemImage;
use crate::profile::{
    BatchProfiler, BatchSink, Binding, Cause, NoBatchProfile, Profile, ProfileStatics,
};
use crate::regfile::RegFiles;
use crate::stats::RunStats;
use crate::trace::{NoTrace, Trace, TraceRecorder, TraceSink};

/// Simulator construction options.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Memory timing model (perfect vs realistic, Fig. 5a vs 5b).
    pub memory_model: MemoryModel,
    /// Size of the flat data memory image in bytes, at most
    /// [`vmv_mem::ADDRESS_LIMIT`] (4 GiB): the caches' 32-bit tags are
    /// exact only for addresses below it.
    pub mem_size: usize,
    /// Hard cap on simulated cycles (guards against runaway programs).
    pub max_cycles: u64,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            memory_model: MemoryModel::Realistic,
            mem_size: 8 * 1024 * 1024,
            max_cycles: 2_000_000_000,
        }
    }
}

/// Errors produced while running a program.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The program branched to a label that does not exist.
    UnknownLabel(String),
    /// The program could not be lowered to executable form (bad register
    /// indices, malformed branches, ... — caught before execution starts).
    Lower(String),
    /// The cycle limit was exceeded.
    CycleLimit(u64),
    /// A malformed operation reached the simulator.
    Exec(String),
    /// The program fell off the end without executing `halt`.
    FellOffEnd,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnknownLabel(l) => write!(f, "branch to unknown label '{l}'"),
            SimError::Lower(e) => write!(f, "lowering failed: {e}"),
            SimError::CycleLimit(c) => write!(f, "cycle limit of {c} exceeded"),
            SimError::Exec(e) => write!(f, "{e}"),
            SimError::FellOffEnd => write!(f, "program ended without executing halt"),
        }
    }
}
impl std::error::Error for SimError {}

impl From<vmv_sched::LowerError> for SimError {
    fn from(e: vmv_sched::LowerError) -> SimError {
        match e {
            vmv_sched::LowerError::UnknownLabel { label, .. } => SimError::UnknownLabel(label),
            other => SimError::Lower(other.to_string()),
        }
    }
}

/// The simulator: machine state plus timing state.
pub struct Simulator {
    machine: MachineConfig,
    hierarchy: MemoryHierarchy,
    options: SimOptions,
    /// Flat data memory (functional contents).
    pub mem: MemImage,
    /// Architectural registers.
    pub regs: RegFiles,
}

impl Simulator {
    /// Build a simulator.  Panics, before allocating anything, when
    /// `options.mem_size` exceeds [`vmv_mem::ADDRESS_LIMIT`].
    pub fn new(machine: &MachineConfig, options: SimOptions) -> Self {
        if options.mem_size as u64 > vmv_mem::ADDRESS_LIMIT {
            panic!(
                "a memory image of {} bytes exceeds the {} byte cap the caches model exactly",
                options.mem_size,
                vmv_mem::ADDRESS_LIMIT
            );
        }
        Simulator {
            machine: machine.clone(),
            hierarchy: MemoryHierarchy::for_machine(options.memory_model, machine),
            options,
            mem: MemImage::new(options.mem_size),
            regs: RegFiles::for_machine(machine),
        }
    }

    /// Convenience constructor with default options and the given memory model.
    pub fn with_model(machine: &MachineConfig, model: MemoryModel) -> Self {
        Simulator::new(
            machine,
            SimOptions {
                memory_model: model,
                ..SimOptions::default()
            },
        )
    }

    /// The machine configuration being simulated.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Run a scheduled program to completion and return the statistics.
    ///
    /// Lowers the program (pre-resolving labels, register slots and latency
    /// metadata) and executes the lowered form.  Callers running the same
    /// schedule many times should lower once with [`vmv_sched::lower()`] and
    /// call [`Simulator::run_lowered`] directly.
    pub fn run(&mut self, program: &ScheduledProgram) -> Result<RunStats, SimError> {
        let lowered = lower(program, &self.machine)?;
        self.run_lowered(&lowered)
    }

    /// Run a lowered program to completion: the array-indexed hot path.
    pub fn run_lowered(&mut self, program: &LoweredProgram) -> Result<RunStats, SimError> {
        self.run_lowered_with(program, &mut NoTrace, &mut NoBatchProfile)
    }

    /// Run a lowered program to completion *and* record its timing trace
    /// (block sequence, memory accesses, VL updates, and what this run's
    /// hierarchy priced) for later retiming with
    /// [`crate::replay::replay_batch`] — of this schedule or of any other
    /// schedule of the same program.  With `statics`, also attribute
    /// every simulated cycle to a [`Cause`]: the [`RunStats`] stay
    /// bit-identical to [`Simulator::run_lowered`], and the profile sums
    /// exactly to them (see [`Profile::check_against`]).
    pub fn run_lowered_recording(
        &mut self,
        program: &LoweredProgram,
        statics: Option<&Arc<ProfileStatics>>,
    ) -> Result<(RunStats, Trace, Option<Profile>), SimError> {
        let mut recorder = TraceRecorder::new(
            program,
            self.regs.vl,
            self.options.memory_model,
            &self.machine,
        );
        let (stats, profile) = match statics {
            None => (
                self.run_lowered_with(program, &mut recorder, &mut NoBatchProfile)?,
                None,
            ),
            Some(statics) => {
                // Profiled as a batch of one.
                let mut prof = BatchProfiler::new(statics, 1);
                let stats = self.run_lowered_with(program, &mut recorder, &mut prof)?;
                let profile = prof.finish().pop().expect("one profile per variant");
                profile.record_obs();
                (stats, Some(profile))
            }
        };
        vmv_obs::incr(vmv_obs::Counter::TraceRecords);
        let trace = recorder.finish(stats.memory);
        Ok((stats, trace, profile))
    }

    /// The lowered-engine loop, generic over a [`TraceSink`] observer and a
    /// [`BatchSink`] that sees this run as a batch of one.  The
    /// non-observing instantiations ([`NoTrace`], [`NoBatchProfile`])
    /// monomorphise to exactly the previous hot path — the sink hooks are
    /// empty inline functions, and the work of *computing* profile hook
    /// arguments (echo pricing, binding scans, op indices) is gated on
    /// `P::ENABLED`, a monomorphisation-time constant.
    fn run_lowered_with<S: TraceSink, P: BatchSink>(
        &mut self,
        program: &LoweredProgram,
        sink: &mut S,
        prof: &mut P,
    ) -> Result<RunStats, SimError> {
        let mut stats = RunStats::default();
        // Make sure every declared region appears in the statistics, even if
        // it executes zero cycles.
        for region in &program.regions {
            stats.region_mut(region.id);
        }
        // Per-region accumulators as a tiny linear-scan table (programs have
        // a handful of regions): no tree lookup per executed block.  Merged
        // into the BTreeMap-backed RunStats on exit.
        let mut region_acc: Vec<(vmv_isa::RegionId, crate::stats::RegionStats)> = Vec::new();
        let mut region_idx = 0usize;

        // Scoreboard: cycle at which each register slot's latest value is
        // ready.  A plain array — slots were resolved at lowering time.
        let mut ready: Vec<u64> = vec![0; program.total_slots()];
        // Cycle at which the single L2 vector-cache port becomes free.
        let mut l2_port_free: u64 = 0;

        let mut cycle: u64 = 0;
        let mut block_idx = 0usize;

        // Split borrows once: the inner loop works on the individual fields
        // so the register file, the flat memory and the hierarchy are
        // independently borrowed locals instead of `&mut self` projections
        // the optimiser must re-derive per operation.
        let max_cycles = self.options.max_cycles;
        let port_elems = self.machine.l2_port_elems;
        let Simulator {
            regs,
            mem,
            hierarchy,
            ..
        } = self;

        'blocks: while block_idx < program.blocks.len() {
            sink.block(block_idx as u32);
            prof.begin_block(block_idx as u32);
            let block = &program.blocks[block_idx];
            let region = block.region;
            let block_start_cycle = cycle;
            let mut ops_executed = 0u64;
            let mut micro_ops = 0u64;
            let mut stall_cycles = 0u64;
            let mut next_block = block_idx + 1;
            let mut halted = false;

            // Issue time of one operation's bundle: every source operand
            // ready, the L2 vector port free.
            macro_rules! issue_of {
                ($op:expr, $issue:expr) => {{
                    for &slot in $op.read_slots() {
                        $issue = $issue.max(ready[slot as usize]);
                    }
                    if $op.is_vector_memory {
                        $issue = $issue.max(l2_port_free);
                    }
                }};
            }
            // Execute one operation at its bundle's issue time: functional
            // effects, completion latency into the scoreboard, port
            // occupancy, statistics and the control-flow decision.  `$opi`
            // is the op's global index (only evaluated when profiling).
            macro_rules! exec_at {
                ($op:expr, $opi:expr, $issue:expr) => {{
                    let mut mem_access: Option<MemAccess> = None;
                    let outcome = execute_lowered($op, regs, mem, &mut mem_access)
                        .map_err(|e| SimError::Exec(e.to_string()))?;
                    sink.op($op, &mem_access, regs);
                    let mut cause = Cause::RawStall;

                    // Determine the actual completion latency.
                    let latency = match &mem_access {
                        Some(access) => {
                            if access.is_vector {
                                l2_port_free = $issue
                                    + transfer_cycles(access.stride, access.elems, port_elems)
                                        as u64;
                                if P::ENABLED {
                                    prof.vec_port_all($opi);
                                }
                            }
                            let (lat, echo) = Self::memory_latency_echo(hierarchy, access);
                            sink.latency(lat);
                            if P::ENABLED {
                                cause = Cause::wait_for_echo(&echo);
                            }
                            lat
                        }
                        None => {
                            if $op.reads_vl {
                                // (vl-1)/lanes tail (Fig. 3b); lane counts
                                // are powers of two on every real machine —
                                // shift instead of hardware division.
                                let vl = regs.effective_vl();
                                let lanes = $op.lanes.max(1) as u32;
                                let tail = if lanes.is_power_of_two() {
                                    (vl - 1) >> lanes.trailing_zeros()
                                } else {
                                    (vl - 1) / lanes
                                };
                                $op.flow as u32 + tail
                            } else {
                                $op.flow as u32
                            }
                        }
                    } as u64;

                    if $op.dst_slot != NO_SLOT {
                        ready[$op.dst_slot as usize] = $issue + latency;
                        if P::ENABLED {
                            prof.write_all($opi, $op.dst_slot, cause);
                        }
                    }
                    let _ = cause;

                    ops_executed += 1;
                    micro_ops += if $op.reads_vl {
                        $op.micro_ops_unit as u64 * regs.effective_vl() as u64
                    } else {
                        $op.micro_ops_unit as u64
                    };

                    match outcome {
                        LoweredOutcome::Normal => {}
                        LoweredOutcome::BranchTaken(target) => next_block = target as usize,
                        LoweredOutcome::Halt => halted = true,
                    }
                }};
            }

            // Profiling: attribute a bundle's stall to the first read slot
            // (program order) that is still busy at the issue cycle — the
            // blame side table in the recorder turns the slot into a cause
            // — or to the L2 vector port when no slot explains it.
            macro_rules! profile_bundle {
                ($bundle:expr, $b:expr, $issue:expr) => {
                    if P::ENABLED {
                        let stall = $issue - cycle;
                        let binding = if stall == 0 {
                            Binding::None
                        } else {
                            let mut found = Binding::Port;
                            'scan: for op in $bundle {
                                for &slot in op.read_slots() {
                                    if ready[slot as usize] == $issue {
                                        found = Binding::Slot(slot);
                                        break 'scan;
                                    }
                                }
                            }
                            found
                        };
                        prof.bundle(0, $b, cycle, stall, binding);
                    }
                };
            }

            for b in block.first_bundle..block.first_bundle + block.bundle_count {
                let bundle = program.bundle_ops(b);
                let op_base = if P::ENABLED {
                    program.bundle_bounds[b as usize]
                } else {
                    0
                };
                // In-order issue: the bundle stalls until every source
                // operand of every operation in it is ready.
                let mut issue = cycle;
                if let [op] = bundle {
                    // The dominant narrow-issue case: one operation — fuse
                    // the issue scan and the execution into a single pass.
                    issue_of!(op, issue);
                    stall_cycles += issue - cycle;
                    profile_bundle!(bundle, b, issue);
                    exec_at!(op, op_base, issue);
                } else {
                    for op in bundle {
                        issue_of!(op, issue);
                    }
                    stall_cycles += issue - cycle;
                    profile_bundle!(bundle, b, issue);
                    for (i, op) in bundle.iter().enumerate() {
                        exec_at!(op, op_base + i as u32, issue);
                    }
                }

                cycle = issue + 1;
                if cycle - block_start_cycle > max_cycles || cycle > max_cycles {
                    return Err(SimError::CycleLimit(max_cycles));
                }
            }

            // Even an empty block consumes a fetch cycle.
            if block.bundle_count == 0 {
                cycle += 1;
            }

            if region_idx >= region_acc.len() || region_acc[region_idx].0 != region {
                region_idx = match region_acc.iter().position(|(id, _)| *id == region) {
                    Some(i) => i,
                    None => {
                        region_acc.push((region, crate::stats::RegionStats::default()));
                        region_acc.len() - 1
                    }
                };
            }
            let r = &mut region_acc[region_idx].1;
            r.cycles += cycle - block_start_cycle;
            r.stall_cycles += stall_cycles;
            r.instructions += (block.bundle_count as u64).max(1);
            r.operations += ops_executed;
            r.micro_ops += micro_ops;

            if halted {
                for (id, acc) in &region_acc {
                    stats.region_mut(*id).add(acc);
                }
                stats.memory = hierarchy.stats();
                // One fold per completed run (and only on the lowered
                // engine, so differential runs don't double-count).
                stats.memory.record_obs();
                vmv_obs::incr(vmv_obs::Counter::SimRuns);
                return Ok(stats);
            }
            if next_block >= program.blocks.len() {
                break 'blocks;
            }
            block_idx = next_block;
        }

        Err(SimError::FellOffEnd)
    }

    /// Run a scheduled program through the original string-keyed
    /// interpretation loop (hash-map scoreboard, label-map branch
    /// resolution, per-operation metadata re-derivation).
    ///
    /// Retained as the differential oracle for the lowered engine — the
    /// semantics the hot path must reproduce cycle for cycle — and for
    /// inspecting schedules that deliberately fail lowering.
    pub fn run_reference(&mut self, program: &ScheduledProgram) -> Result<RunStats, SimError> {
        let labels = program.label_map();
        let mut stats = RunStats::default();
        // Make sure every declared region appears in the statistics, even if
        // it executes zero cycles.
        for region in &program.regions {
            stats.region_mut(region.id);
        }

        // Scoreboard: cycle at which each register's latest value is ready.
        let mut ready: HashMap<Reg, u64> = HashMap::new();
        // Cycle at which the single L2 vector-cache port becomes free.
        let mut l2_port_free: u64 = 0;

        let mut cycle: u64 = 0;
        let mut block_idx = 0usize;

        'blocks: while block_idx < program.blocks.len() {
            let block = &program.blocks[block_idx];
            let region = block.region;
            let block_start_cycle = cycle;
            let mut ops_executed = 0u64;
            let mut micro_ops = 0u64;
            let mut stall_cycles = 0u64;
            let mut next_block = block_idx + 1;
            let mut halted = false;

            for bundle in &block.bundles {
                // In-order issue: the bundle stalls until every source
                // operand of every operation in it is ready.
                let mut issue = cycle;
                for op in bundle {
                    for r in op.reads() {
                        if let Some(&t) = ready.get(&r) {
                            issue = issue.max(t);
                        }
                    }
                    if op.opcode.is_vector_memory() {
                        issue = issue.max(l2_port_free);
                    }
                }
                stall_cycles += issue - cycle;

                for op in bundle {
                    let result = execute_op(op, &mut self.regs, &mut self.mem)
                        .map_err(|e| SimError::Exec(e.to_string()))?;

                    // Determine the actual completion latency.
                    let latency = match &result.mem {
                        Some(access) => Self::memory_latency_echo(&mut self.hierarchy, access).0,
                        None => self.compute_latency(op),
                    } as u64;

                    if let Some(d) = op.writes() {
                        ready.insert(d, issue + latency);
                    }
                    if let Some(access) = &result.mem {
                        if access.is_vector {
                            let port_elems = self.machine.l2_port_elems;
                            l2_port_free = issue
                                + transfer_cycles(access.stride, access.elems, port_elems) as u64;
                        }
                    }

                    let vl = if op.opcode.reads_vl() {
                        self.regs.effective_vl()
                    } else {
                        1
                    };
                    ops_executed += 1;
                    micro_ops += op.opcode.micro_ops(vl);

                    match result.outcome {
                        ExecOutcome::Normal => {}
                        ExecOutcome::BranchTaken(target) => {
                            next_block = *labels
                                .get(target.as_str())
                                .ok_or_else(|| SimError::UnknownLabel(target.clone()))?;
                        }
                        ExecOutcome::Halt => halted = true,
                    }
                }

                cycle = issue + 1;
                if cycle - block_start_cycle > self.options.max_cycles
                    || cycle > self.options.max_cycles
                {
                    return Err(SimError::CycleLimit(self.options.max_cycles));
                }
            }

            // Even an empty block consumes a fetch cycle.
            if block.bundles.is_empty() {
                cycle += 1;
            }

            let r = stats.region_mut(region);
            r.cycles += cycle - block_start_cycle;
            r.stall_cycles += stall_cycles;
            r.instructions += block.bundles.len().max(1) as u64;
            r.operations += ops_executed;
            r.micro_ops += micro_ops;

            if halted {
                stats.memory = self.hierarchy.stats();
                return Ok(stats);
            }
            if next_block >= program.blocks.len() {
                break 'blocks;
            }
            block_idx = next_block;
        }

        Err(SimError::FellOffEnd)
    }

    /// Completion latency of a non-memory operation, using the *actual*
    /// vector length currently in the VL register.
    fn compute_latency(&self, op: &Op) -> u32 {
        let flow = self.machine.latencies.flow_latency(op.opcode.lat_class());
        if op.opcode.reads_vl() {
            let vl = self.regs.effective_vl();
            LatencyDescriptor::vector(flow, vl, self.machine.effective_lanes(op.opcode))
                .result_latency()
        } else {
            LatencyDescriptor::scalar(flow).result_latency()
        }
    }

    /// Completion latency of a memory operation against a borrowed
    /// hierarchy (the engines' split-borrow hot loops), and the access's
    /// [`vmv_mem::AccessEcho`] (the profiler's wait cause).
    #[inline]
    fn memory_latency_echo(
        hierarchy: &mut MemoryHierarchy,
        access: &MemAccess,
    ) -> (u32, vmv_mem::AccessEcho) {
        let kind = if access.is_store {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        let (timing, echo) = if access.is_vector {
            hierarchy.vector_access_echoed(access.base, access.stride, access.elems, kind)
        } else {
            hierarchy.scalar_access_echoed(access.base, access.bytes, kind)
        };
        (timing.latency, echo)
    }

    /// Memory-hierarchy statistics accumulated so far.
    pub fn memory_stats(&self) -> vmv_mem::MemStats {
        self.hierarchy.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmv_isa::ProgramBuilder;
    use vmv_machine::presets;
    use vmv_sched::compile;

    fn run_on(
        machine: &MachineConfig,
        model: MemoryModel,
        program: &vmv_isa::Program,
        init: impl FnOnce(&mut Simulator),
    ) -> (RunStats, Simulator) {
        let compiled = compile(program, machine).expect("compiles");
        let mut sim = Simulator::with_model(machine, model);
        init(&mut sim);
        let stats = sim.run(&compiled.program).expect("runs");
        (stats, sim)
    }

    #[test]
    fn straight_line_arithmetic_executes_functionally() {
        let mut b = ProgramBuilder::new("arith");
        let out = b.imm(0x100);
        let x = b.imm(21);
        let y = b.ri();
        b.muli(y, x, 2);
        b.st32(out, 0, y);
        b.halt();
        let p = b.finish();
        let machine = presets::vliw(2);
        let (stats, sim) = run_on(&machine, MemoryModel::Perfect, &p, |_| {});
        assert_eq!(sim.mem.read_u32(0x100), 42);
        assert!(stats.cycles() > 0);
        assert_eq!(stats.total().operations, 5);
    }

    #[test]
    fn loop_executes_the_right_number_of_iterations() {
        let mut b = ProgramBuilder::new("loop");
        let out = b.imm(0x200);
        let acc = b.ri();
        b.li(acc, 0);
        b.counted_loop("sum", 10, |b, _| {
            b.addi(acc, acc, 3);
        });
        b.st32(out, 0, acc);
        b.halt();
        let p = b.finish();
        let machine = presets::vliw(2);
        let (stats, sim) = run_on(&machine, MemoryModel::Perfect, &p, |_| {});
        assert_eq!(sim.mem.read_u32(0x200), 30);
        // The loop body block executes 10 times.
        assert!(stats.total().instructions >= 10);
    }

    #[test]
    fn vector_sad_kernel_computes_the_reference_sum() {
        let mut b = ProgramBuilder::new("sad");
        let a_base = b.imm(0x1000);
        let b_base = b.imm(0x2000);
        let out = b.imm(0x3000);
        b.begin_region(1, "sad");
        b.setvl(16);
        b.setvs(8);
        let v1 = b.rv();
        let v2 = b.rv();
        b.vload(v1, a_base, 0);
        b.vload(v2, b_base, 0);
        let acc = b.ra();
        b.acc_clear(acc);
        b.vsad_acc(acc, v1, v2);
        let sum = b.ri();
        b.acc_reduce(sum, acc);
        b.end_region();
        b.st32(out, 0, sum);
        b.halt();
        let p = b.finish();

        let machine = presets::vector2(2);
        let data_a: Vec<u8> = (0..128).map(|i| (i * 3 % 251) as u8).collect();
        let data_b: Vec<u8> = (0..128).map(|i| (i * 7 % 241) as u8).collect();
        let expect: u32 = data_a
            .iter()
            .zip(&data_b)
            .map(|(&x, &y)| (x as i32 - y as i32).unsigned_abs())
            .sum();

        let (stats, sim) = run_on(&machine, MemoryModel::Perfect, &p, |sim| {
            sim.mem.write_u8_slice(0x1000, &data_a);
            sim.mem.write_u8_slice(0x2000, &data_b);
        });
        assert_eq!(sim.mem.read_u32(0x3000), expect);
        assert!(stats.regions[&vmv_isa::RegionId(1)].cycles > 0);
        assert!(stats.regions[&vmv_isa::RegionId(1)].micro_ops >= 160);
    }

    #[test]
    fn realistic_memory_is_slower_than_perfect() {
        let mut b = ProgramBuilder::new("memwalk");
        let base = b.imm(0x1000);
        let acc = b.ri();
        b.li(acc, 0);
        let ptr = b.ri();
        b.mov(ptr, base);
        b.counted_loop("walk", 64, |b, _| {
            let t = b.ri();
            b.ld32s(t, ptr, 0);
            b.add(acc, acc, t);
            b.addi(ptr, ptr, 256); // new cache line every iteration
        });
        let out = b.imm(0x40000);
        b.st32(out, 0, acc);
        b.halt();
        let p = b.finish();

        let machine = presets::vliw(2);
        let (perfect, _) = run_on(&machine, MemoryModel::Perfect, &p, |_| {});
        let (realistic, _) = run_on(&machine, MemoryModel::Realistic, &p, |_| {});
        assert!(
            realistic.cycles() > perfect.cycles() * 3,
            "cold misses must dominate: {} vs {}",
            realistic.cycles(),
            perfect.cycles()
        );
        assert!(realistic.total().stall_cycles > 0);
    }

    #[test]
    fn non_unit_stride_vector_access_stalls_the_machine() {
        let build = |stride: i64| {
            let mut b = ProgramBuilder::new("stride");
            let base = b.imm(0x1000);
            b.begin_region(1, "loads");
            b.setvl(16);
            b.setvs(stride);
            let v = b.rv();
            b.vload(v, base, 0);
            let v2 = b.rv();
            b.vload(v2, base, 4096);
            let acc = b.ra();
            b.acc_clear(acc);
            b.vsad_acc(acc, v, v2);
            let s = b.ri();
            b.acc_reduce(s, acc);
            b.end_region();
            let out = b.imm(0x8000);
            b.st32(out, 0, s);
            b.halt();
            b.finish()
        };
        let machine = presets::vector2(2);
        let (unit, _) = run_on(&machine, MemoryModel::Perfect, &build(8), |_| {});
        let (strided, _) = run_on(&machine, MemoryModel::Perfect, &build(640), |_| {});
        assert!(
            strided.cycles() > unit.cycles(),
            "strided {} should exceed unit {}",
            strided.cycles(),
            unit.cycles()
        );
        assert!(strided.total().stall_cycles > unit.total().stall_cycles);
    }

    #[test]
    fn unknown_branch_target_is_an_error() {
        // Construct a scheduled program by hand with a bogus target.
        use vmv_sched::{ScheduledBlock, ScheduledProgram};
        let machine = presets::vliw(2);
        let mut sim = Simulator::with_model(&machine, MemoryModel::Perfect);
        let sp = ScheduledProgram {
            name: "bogus".into(),
            blocks: vec![ScheduledBlock {
                label: "entry".into(),
                region: vmv_isa::RegionId::SCALAR,
                bundles: vec![vec![
                    vmv_isa::Op::new(vmv_isa::Opcode::Jump).with_target("nowhere")
                ]],
                positions: vec![0],
            }],
            regions: vec![],
        };
        assert!(matches!(sim.run(&sp), Err(SimError::UnknownLabel(_))));
    }

    #[test]
    fn program_without_halt_is_detected() {
        let mut b = ProgramBuilder::new("nohalt");
        let x = b.imm(1);
        b.addi(x, x, 1);
        let p = b.finish();
        let machine = presets::vliw(2);
        let compiled = compile(&p, &machine).unwrap();
        let mut sim = Simulator::with_model(&machine, MemoryModel::Perfect);
        assert!(matches!(
            sim.run(&compiled.program),
            Err(SimError::FellOffEnd)
        ));
    }

    #[test]
    fn wider_issue_reduces_cycles_for_parallel_code() {
        let mut b = ProgramBuilder::new("ilp");
        let base = b.imm(0x1000);
        let out = b.imm(0x2000);
        // 16 independent add chains.
        let mut results = Vec::new();
        for i in 0..16 {
            let t = b.ri();
            b.li(t, i);
            let u = b.ri();
            b.muli(u, t, 3);
            let v = b.ri();
            b.addi(v, u, 7);
            results.push(v);
        }
        let _ = base;
        for (i, r) in results.iter().enumerate() {
            b.st32(out, 4 * i as i64, *r);
        }
        b.halt();
        let p = b.finish();
        let narrow = presets::vliw(2);
        let wide = presets::vliw(8);
        let (n, _) = run_on(&narrow, MemoryModel::Perfect, &p, |_| {});
        let (w, simw) = run_on(&wide, MemoryModel::Perfect, &p, |_| {});
        assert!(w.cycles() < n.cycles());
        assert_eq!(simw.mem.read_u32(0x2000 + 4 * 5), 5 * 3 + 7);
    }

    #[test]
    fn oversized_memory_images_are_refused_before_allocation() {
        // One byte past the cap, 1 TiB and `usize::MAX` bytes: each must
        // panic with the cap's message before any allocation — allocating
        // first would abort or report a capacity overflow instead.
        let machine = presets::vliw(2);
        for mem_size in [vmv_mem::ADDRESS_LIMIT as usize + 1, 1 << 40, usize::MAX] {
            let options = SimOptions {
                mem_size,
                ..SimOptions::default()
            };
            let refused = std::panic::catch_unwind(|| Simulator::new(&machine, options))
                .err()
                .and_then(|e| e.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(
                refused.contains("exceeds the 4294967296 byte cap"),
                "{mem_size}: {refused:?}"
            );
        }
    }
}
