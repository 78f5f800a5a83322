//! Register allocation: mapping the builder's virtual registers onto the
//! architectural register files of Table 2.
//!
//! The allocator performs a control-flow aware liveness analysis followed by
//! a linear scan over live intervals, one register class at a time.  The
//! hand-written kernels are sized to fit the (large) register files of the
//! modeled machines, so spilling is not implemented; over-pressure is
//! reported as a structured error naming the class and the demand, which the
//! kernel test-suite turns into a hard failure.
//!
//! Every table is dense.  A register numbering (`RegNumbering`) gives each
//! register of the program a number — class base plus register index, each
//! class sized by the largest index the program uses, so builder code (which
//! numbers every class from zero) leaves no gaps.  Liveness runs over one
//! `u64` bitset row per block and set (uses, defs, live-in, live-out); live
//! intervals and the rename table are `Vec`s indexed by register number.
//! Within a class, number order is index order, so the scan's
//! `(start, number)` sort is the `(start, index)` order of the virtual
//! registers.
//!
//! Only the scan and the rename read the machine.  The numbering, the
//! intervals and the scan order depend on the program alone, so a program
//! compiled for many machines computes them once (`Liveness`, held by
//! [`crate::Analysis`]).

use std::collections::VecDeque;
use std::ops::Range;

use vmv_isa::{Op, Program, Reg, RegClass};
use vmv_machine::MachineConfig;

/// Register classes the allocator assigns, in numbering order.
const ALLOCATABLE: [RegClass; 4] = [RegClass::Int, RegClass::Simd, RegClass::Vec, RegClass::Acc];

/// Marker for "no entry" in the dense tables.
const NONE: u32 = u32::MAX;

/// Direct-indexed numbering of the registers some code uses: register `i`
/// of class `c` is number `base[c] + i`, each class sized by the largest
/// index the code uses of it.  Code with sparse indices costs table space up
/// to its largest index.  The two control registers always have numbers,
/// because vector operations read them implicitly.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RegNumbering {
    /// First number of each class in `RegClass` order, then the total.
    base: [usize; 6],
}

impl RegNumbering {
    /// Number the registers `ops` name as destination or source.
    pub(crate) fn of<'a>(ops: impl IntoIterator<Item = &'a Op>) -> Self {
        let mut extent = [0usize; 5];
        extent[RegClass::Ctrl as usize] = 2;
        for op in ops {
            for r in op.dst.iter().chain(&op.srcs) {
                let e = &mut extent[r.class as usize];
                *e = (*e).max(r.index as usize + 1);
            }
        }
        let mut base = [0usize; 6];
        for c in 0..5 {
            base[c + 1] = base[c] + extent[c];
        }
        RegNumbering { base }
    }

    /// How many numbers there are (the length of a table indexed by them).
    pub(crate) fn len(&self) -> usize {
        self.base[5]
    }

    /// The number of `r`, which must be one of the numbered registers.
    pub(crate) fn number(&self, r: Reg) -> usize {
        self.base[r.class as usize] + r.index as usize
    }

    /// The numbers of `class`, in index order.
    fn class_range(&self, class: RegClass) -> Range<usize> {
        self.base[class as usize]..self.base[class as usize + 1]
    }
}

/// Error returned when a program needs more registers of some class than the
/// machine provides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegAllocError {
    pub class: RegClass,
    /// The class's peak demand: the largest number of its live intervals
    /// that overlap at one position.
    pub required: usize,
    pub available: usize,
    pub program: String,
}

impl std::fmt::Display for RegAllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "program '{}' needs {} live {:?} registers but the machine provides {}",
            self.program, self.required, self.class, self.available
        )
    }
}

impl std::error::Error for RegAllocError {}

/// Result of a successful allocation, in dense form.
#[derive(Debug, Clone)]
pub struct Allocation {
    regs: RegNumbering,
    /// Physical index per register number (`NONE` for control registers and
    /// for numbers the program does not use).
    physical: Vec<u32>,
    /// Peak number of simultaneously live registers per allocatable class.
    peak: [usize; 4],
}

impl Allocation {
    /// The physical register virtual register `r` was renamed to; `None`
    /// for control registers and for registers the program does not use.
    pub fn physical(&self, r: Reg) -> Option<Reg> {
        let n = self.regs.number(r);
        if !self.regs.class_range(r.class).contains(&n) {
            return None;
        }
        (self.physical[n] != NONE).then_some(Reg::new(r.class, self.physical[n]))
    }

    /// Peak number of simultaneously live `class` registers (0 for control
    /// registers, which are never allocated).
    pub fn peak(&self, class: RegClass) -> usize {
        ALLOCATABLE
            .iter()
            .position(|&c| c == class)
            .map_or(0, |c| self.peak[c])
    }
}

/// Allocate the virtual registers of `program` onto the register files of
/// `machine`, returning a new program with every register renamed.
pub fn allocate(
    program: &Program,
    machine: &MachineConfig,
) -> Result<(Program, Allocation), RegAllocError> {
    Liveness::of(program).allocate(program, machine)
}

/// The machine-independent half of allocation for one program: its register
/// numbering, every register's live interval, and each allocatable class's
/// live registers in scan order.
#[derive(Debug, Clone)]
pub(crate) struct Liveness {
    regs: RegNumbering,
    /// `(start, end)` per register number (see [`live_intervals`]).
    intervals: Vec<(u32, u32)>,
    /// The live registers of each `ALLOCATABLE` class, by `(start, number)`.
    order: [Vec<u32>; 4],
}

impl Liveness {
    /// Number `program`'s registers and compute their live intervals.
    pub(crate) fn of(program: &Program) -> Liveness {
        let regs = RegNumbering::of(program.blocks.iter().flat_map(|b| &b.ops));
        let intervals = live_intervals(program, &regs);
        let order = ALLOCATABLE.map(|class| {
            let mut order: Vec<u32> = regs
                .class_range(class)
                .filter(|&n| intervals[n].0 <= intervals[n].1)
                .map(|n| n as u32)
                .collect();
            order.sort_unstable_by_key(|&n| (intervals[n as usize].0, n));
            order
        });
        Liveness {
            regs,
            intervals,
            order,
        }
    }

    /// The machine half: linear-scan the intervals against `machine`'s
    /// register files and rename `program`, which must be the program the
    /// liveness was computed for.
    pub(crate) fn allocate(
        &self,
        program: &Program,
        machine: &MachineConfig,
    ) -> Result<(Program, Allocation), RegAllocError> {
        let regs = self.regs;
        let mut physical = vec![NONE; regs.len()];
        let mut peak = [0usize; 4];

        for (c, class) in ALLOCATABLE.into_iter().enumerate() {
            let available = machine.regs.count(class) as usize;

            // Linear scan.  The free list is a FIFO so that a just-released
            // physical register is not immediately reused: immediate reuse
            // would introduce tight WAR/WAW dependences that needlessly
            // serialise the schedule (the classic allocate-before-schedule
            // phase-ordering hazard); cycling round-robin through the large
            // Table 2 register files keeps the reuse distance long.  Once
            // the file is exhausted the scan keeps counting live intervals
            // without assigning, so an over-pressure error reports the
            // class's whole peak.
            let mut active: Vec<(u32, u32)> = Vec::new(); // (end, phys index)
            let mut free: VecDeque<u32> = (0..available as u32).collect();
            for &n in &self.order[c] {
                let (start, end) = self.intervals[n as usize];
                active.retain(|&(e, phys)| {
                    if e < start {
                        if phys != NONE {
                            free.push_back(phys);
                        }
                        false
                    } else {
                        true
                    }
                });
                let phys = free.pop_front().unwrap_or(NONE);
                active.push((end, phys));
                peak[c] = peak[c].max(active.len());
                physical[n as usize] = phys;
            }
            if peak[c] > available {
                return Err(RegAllocError {
                    class,
                    required: peak[c],
                    available,
                    program: program.name.clone(),
                });
            }
        }

        // Rewrite the program with the mapping (control registers unchanged).
        let mut out = program.clone();
        for op in out.blocks.iter_mut().flat_map(|b| &mut b.ops) {
            for r in op.dst.iter_mut().chain(&mut op.srcs) {
                if r.class != RegClass::Ctrl {
                    r.index = physical[regs.number(*r)];
                }
            }
        }

        Ok((
            out,
            Allocation {
                regs,
                physical,
                peak,
            },
        ))
    }
}

/// The allocatable registers `op` reads (its explicit sources; the implicit
/// `VL`/`VS` reads are control registers).
fn allocatable_reads(op: &Op) -> impl Iterator<Item = Reg> + '_ {
    op.srcs
        .iter()
        .copied()
        .filter(|r| r.class != RegClass::Ctrl)
}

/// The allocatable register `op` writes, if any.
fn allocatable_write(op: &Op) -> Option<Reg> {
    op.dst.filter(|r| r.class != RegClass::Ctrl)
}

fn set_bit(bits: &mut [u64], n: usize) {
    bits[n / 64] |= 1 << (n % 64);
}

fn has_bit(bits: &[u64], n: usize) -> bool {
    bits[n / 64] >> (n % 64) & 1 != 0
}

/// The numbers whose bits are set in `bits`, in increasing order.
fn members(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
}

/// Compute a conservative live interval (over a linearisation of the blocks
/// in program order) for every numbered register, as `(start, end)`; a
/// register the program never names keeps the empty `(NONE, 0)`.
///
/// The interval of a register spans from its first definition/use to its last
/// use, extended to cover every block in which the register is live-in or
/// live-out (which correctly handles values that live around loop back
/// edges).
fn live_intervals(program: &Program, regs: &RegNumbering) -> Vec<(u32, u32)> {
    // Block boundaries in the linearisation.
    let mut block_start = Vec::with_capacity(program.blocks.len());
    let mut block_end = Vec::with_capacity(program.blocks.len());
    let mut pos = 0u32;
    for block in &program.blocks {
        block_start.push(pos);
        pos += block.ops.len().max(1) as u32;
        block_end.push(pos - 1);
    }

    // Per-block use/def rows (uses before defs), `words` u64s per block.
    let nblocks = program.blocks.len();
    let words = regs.len().div_ceil(64);
    let row = |b: usize| b * words..(b + 1) * words;
    let mut uses = vec![0u64; nblocks * words];
    let mut defs = vec![0u64; nblocks * words];
    for (b, block) in program.blocks.iter().enumerate() {
        let (used, defined) = (&mut uses[row(b)], &mut defs[row(b)]);
        for op in &block.ops {
            for r in allocatable_reads(op) {
                let n = regs.number(r);
                if !has_bit(defined, n) {
                    set_bit(used, n);
                }
            }
            if let Some(d) = allocatable_write(op) {
                set_bit(defined, regs.number(d));
            }
        }
    }

    // CFG successors.
    let labels = program.label_map();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); nblocks];
    for (b, block) in program.blocks.iter().enumerate() {
        let mut falls_through = true;
        if let Some(term) = block.ops.last() {
            if term.opcode.is_branch() {
                if let Some(target) = &term.target {
                    if let Some(&t) = labels.get(target.as_str()) {
                        succs[b].push(t);
                    }
                }
                falls_through = term.opcode.is_cond_branch();
            } else if term.opcode == vmv_isa::Opcode::Halt {
                falls_through = false;
            }
        }
        if falls_through && b + 1 < nblocks {
            succs[b].push(b + 1);
        }
    }

    // Iterative backward liveness.
    let mut live_in = vec![0u64; nblocks * words];
    let mut live_out = vec![0u64; nblocks * words];
    let mut out = vec![0u64; words];
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..nblocks).rev() {
            out.fill(0);
            for &s in &succs[b] {
                for (o, &i) in out.iter_mut().zip(&live_in[row(s)]) {
                    *o |= i;
                }
            }
            for (w, &o) in out.iter().enumerate() {
                let at = b * words + w;
                let inn = (o & !defs[at]) | uses[at];
                if inn != live_in[at] || o != live_out[at] {
                    live_in[at] = inn;
                    live_out[at] = o;
                    changed = true;
                }
            }
        }
    }

    // Build intervals.
    let mut intervals = vec![(NONE, 0u32); regs.len()];
    let mut touch = |n: usize, at: u32| {
        let iv = &mut intervals[n];
        iv.0 = iv.0.min(at);
        iv.1 = iv.1.max(at);
    };
    for (b, block) in program.blocks.iter().enumerate() {
        for (i, op) in block.ops.iter().enumerate() {
            let at = block_start[b] + i as u32;
            for r in allocatable_reads(op).chain(allocatable_write(op)) {
                touch(regs.number(r), at);
            }
        }
        for n in members(&live_in[row(b)]) {
            touch(n, block_start[b]);
        }
        for n in members(&live_out[row(b)]) {
            touch(n, block_end[b]);
        }
    }
    intervals
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmv_isa::ProgramBuilder;
    use vmv_machine::presets;

    #[test]
    fn simple_program_allocates_within_file_size() {
        let mut b = ProgramBuilder::new("simple");
        let x = b.imm(1);
        let y = b.imm(2);
        let z = b.ri();
        b.add(z, x, y);
        b.halt();
        let p = b.finish();
        let machine = presets::vliw(2);
        let (alloc_p, alloc) = allocate(&p, &machine).unwrap();
        // All registers are now physical (index < 64).
        for (_, op) in alloc_p.iter_ops() {
            for r in op.srcs.iter().chain(op.dst.iter()) {
                if r.class == RegClass::Int {
                    assert!(r.index < 64);
                }
            }
        }
        assert!(alloc.peak(RegClass::Int) <= 3);
    }

    #[test]
    fn registers_are_reused_after_death() {
        // 100 short-lived temporaries must fit in 64 registers.
        let mut b = ProgramBuilder::new("reuse");
        let base = b.imm(0x1000);
        for i in 0..100 {
            let t = b.ri();
            b.ld32s(t, base, 4 * i);
            b.st32(base, 4 * i, t);
        }
        b.halt();
        let p = b.finish();
        let machine = presets::vliw(2);
        let (_, alloc) = allocate(&p, &machine).expect("temporaries die immediately");
        assert!(alloc.peak(RegClass::Int) < 10);
    }

    #[test]
    fn loop_carried_values_stay_allocated_across_the_loop() {
        let mut b = ProgramBuilder::new("loop");
        let acc = b.ri();
        b.li(acc, 0);
        let step = b.imm(3);
        b.counted_loop("l", 10, |b, _cnt| {
            b.add(acc, acc, step);
        });
        let out = b.imm(0x2000);
        b.st32(out, 0, acc);
        b.halt();
        let p = b.finish();
        let machine = presets::vliw(2);
        let (alloc_p, alloc) = allocate(&p, &machine).unwrap();
        // acc and step must have distinct physical registers (both live
        // across the loop body).
        let acc_phys = alloc.physical(acc).unwrap();
        let step_phys = alloc.physical(step).unwrap();
        assert_ne!(acc_phys, step_phys);
        assert!(vmv_isa::verify_program(&alloc_p).is_empty());
    }

    #[test]
    fn over_pressure_is_reported_as_error() {
        // 70 registers all live at the same time cannot fit in a 64-entry file.
        let mut b = ProgramBuilder::new("pressure");
        let regs: Vec<_> = (0..70).map(|i| b.imm(i)).collect();
        let sum = b.ri();
        b.li(sum, 0);
        for r in &regs {
            b.add(sum, sum, *r);
        }
        b.halt();
        let p = b.finish();
        let machine = presets::vliw(2);
        let err = allocate(&p, &machine).unwrap_err();
        assert_eq!(err.class, RegClass::Int);
        // The 70 immediates and `sum` are all live where `sum` is defined.
        assert_eq!(err.required, 71);
        assert_eq!(err.available, 64);

        // The reported demand is the true peak: a file big enough for the
        // program measures the same number.
        let mut roomy = machine.clone();
        roomy.regs.int = 512;
        let (_, alloc) = allocate(&p, &roomy).unwrap();
        assert_eq!(alloc.peak(RegClass::Int), err.required);
    }

    #[test]
    fn vector_registers_fit_the_smaller_vector_file() {
        let mut b = ProgramBuilder::new("vec");
        let base = b.imm(0x1000);
        b.setvl(8);
        b.setvs(8);
        let vs: Vec<_> = (0..10).map(|_| b.rv()).collect();
        for (i, v) in vs.iter().enumerate() {
            b.vload(*v, base, (i * 64) as i64);
        }
        let acc = b.ra();
        b.acc_clear(acc);
        for pair in vs.chunks(2) {
            if pair.len() == 2 {
                b.vsad_acc(acc, pair[0], pair[1]);
            }
        }
        b.halt();
        let p = b.finish();
        let machine = presets::vector1(2); // 20 vector registers
        let (_, alloc) = allocate(&p, &machine).unwrap();
        assert!(alloc.peak(RegClass::Vec) <= 20);
    }

    #[test]
    fn control_registers_are_left_untouched() {
        let mut b = ProgramBuilder::new("ctrl");
        b.setvl(4);
        b.setvs(8);
        let base = b.imm(0);
        let v = b.rv();
        b.vload(v, base, 0);
        b.halt();
        let p = b.finish();
        let machine = presets::vector2(2);
        let (alloc_p, alloc) = allocate(&p, &machine).unwrap();
        let setvl = alloc_p
            .iter_ops()
            .map(|(_, o)| o)
            .find(|o| o.opcode == vmv_isa::Opcode::SetVL)
            .unwrap();
        assert_eq!(setvl.dst, Some(Reg::vl()));
        assert_eq!(alloc.physical(Reg::vl()), None);
        assert_eq!(alloc.peak(RegClass::Ctrl), 0);
    }

    /// A straight-line program over hand-picked virtual registers.
    fn sparse_program() -> Program {
        let (a, b, c) = (Reg::int(7), Reg::int(70_000), Reg::int(1_000));
        let mut p = Program::new("sparse");
        let mut block = vmv_isa::BasicBlock::new("entry", vmv_isa::RegionId::SCALAR);
        block.ops = vec![
            Op::new(vmv_isa::Opcode::MovI).with_dst(a).with_imm(1),
            Op::new(vmv_isa::Opcode::MovI).with_dst(b).with_imm(2),
            Op::new(vmv_isa::Opcode::IAdd)
                .with_dst(c)
                .with_srcs(&[a, b]),
            Op::new(vmv_isa::Opcode::Store(vmv_isa::MemWidth::B4))
                .with_srcs(&[a, c])
                .with_imm(0),
            Op::new(vmv_isa::Opcode::Halt),
        ];
        p.blocks.push(block);
        p
    }

    #[test]
    fn sparse_virtual_indices_are_allocated() {
        let p = sparse_program();
        let machine = presets::vliw(2);
        let (alloc_p, alloc) = allocate(&p, &machine).unwrap();
        let (a, b, c) = (Reg::int(7), Reg::int(70_000), Reg::int(1_000));
        // FIFO free list in (start, index) order: a, b, then c.
        assert_eq!(alloc.physical(a), Some(Reg::int(0)));
        assert_eq!(alloc.physical(b), Some(Reg::int(1)));
        assert_eq!(alloc.physical(c), Some(Reg::int(2)));
        // Unused indices between and beyond the used ones have no mapping.
        assert_eq!(alloc.physical(Reg::int(8)), None);
        assert_eq!(alloc.physical(Reg::int(70_001)), None);
        assert_eq!(alloc.peak(RegClass::Int), 3);
        let add = &alloc_p.blocks[0].ops[2];
        assert_eq!(add.dst, Some(Reg::int(2)));
        assert_eq!(add.srcs, vec![Reg::int(0), Reg::int(1)]);
    }

    #[test]
    fn a_class_with_no_registers_is_handled() {
        // The program names no µSIMD, vector or accumulator register.
        let p = sparse_program();
        let machine = presets::vliw(2);
        assert_eq!(machine.regs.simd, 0);
        let (_, alloc) = allocate(&p, &machine).unwrap();
        for class in [RegClass::Simd, RegClass::Vec, RegClass::Acc] {
            assert_eq!(alloc.peak(class), 0);
            assert_eq!(alloc.physical(Reg::new(class, 0)), None);
        }

        // A program that does name one fails on a machine whose file for
        // that class is empty.
        let mut b = ProgramBuilder::new("simd_on_vliw");
        let s = b.rs();
        let base = b.imm(0x1000);
        b.pload(s, base, 0);
        b.halt();
        let err = allocate(&b.finish(), &machine).unwrap_err();
        assert_eq!(
            (err.class, err.required, err.available),
            (RegClass::Simd, 1, 0)
        );
    }
}
