//! Cycle-attribution profiling: explain *every* simulated cycle.
//!
//! The engines report opaque `cycles`/`stall_cycles` totals per region;
//! this module attributes each of those cycles to a closed [`Cause`] —
//! useful issue, issue-width/unit-pool limit, control transfer, latency
//! shadow, RAW wait, per-level memory wait, L2-port conflict — aggregated
//! per op, per bundle, per block and per region, plus a capped timeline of
//! bundle issue events for Chrome-trace rendering.
//!
//! The contract, enforced by `tests/lowered_differential.rs` across the
//! full 120-case matrix for both profiled engines (lowered and batched
//! replay):
//!
//! * the ten cause buckets sum **exactly** to `RunStats` total cycles;
//! * the six stall causes (indices [`STALL_BASE`]..) sum **exactly** to
//!   `stall_cycles` — globally and per region;
//! * enabling profiling never changes `RunStats` (the [`NoProfile`] /
//!   [`NoBatchProfile`] sinks monomorphise to the unprofiled hot paths).
//!
//! # How attribution works
//!
//! Every bundle issue spends exactly one cycle; its class is *static*
//! (determined by the schedule and the machine, computed once in
//! [`ProfileStatics::build`]): an empty bundle is a latency shadow the
//! scheduler inserted, a branch/halt-only bundle is control, a bundle at
//! the issue-width or unit-pool ceiling is issue-limited, anything else is
//! useful issue.  Stall cycles are *dynamic*: when a bundle issues late,
//! the first read slot (in program order) whose readiness equals the issue
//! cycle *binds* the stall, and a per-slot side table — what kind of
//! operation last wrote the slot, and which op it was — converts the
//! binding into a cause (RAW for fixed-latency producers, a per-level
//! memory wait for loads/stores, priced from the [`vmv_mem::AccessEcho`])
//! and blames the producing op.  A stall no slot explains is an L2
//! vector-port conflict.  The replay engine tracks a strict subset of the
//! slots, but an untracked slot is provably never the binder (its readiness
//! is below the bundle's base cycle whenever a stall exists), so both
//! engines derive identical profiles.

use std::sync::Arc;

use vmv_isa::{FuClass, RegionId};
use vmv_machine::MachineConfig;
use vmv_mem::{AccessEcho, ServedBy};
use vmv_sched::LoweredProgram;

use crate::stats::RunStats;

/// Number of attribution causes.
pub const N_CAUSES: usize = 10;
/// Index of the first *stall* cause; causes below are issue-cycle classes.
pub const STALL_BASE: usize = 4;
/// Number of stall causes (`N_CAUSES - STALL_BASE`).
pub const N_STALLS: usize = N_CAUSES - STALL_BASE;
/// Cap on recorded timeline events, keeping profiles (and their goldens)
/// small; [`Profile::events_seen`] still counts every issue.
pub const TIMELINE_CAP: usize = 256;
/// Sentinel "no producing op known" in the blame side table.
const NO_PRODUCER: u32 = u32::MAX;

/// Where one simulated cycle went.  Indices 0..[`STALL_BASE`] classify
/// *issue* cycles (every bundle spends exactly one); indices
/// [`STALL_BASE`].. classify *stall* cycles and sum to `stall_cycles`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Cause {
    /// Useful issue: a bundle below every width/unit/control limit.
    Issue = 0,
    /// Issue cycle of a bundle at the issue-width or unit-pool ceiling.
    IssueLimit = 1,
    /// Issue cycle of a control-only bundle (branch/halt), or the fetch
    /// cycle of an empty block.
    Control = 2,
    /// An empty bundle: a latency shadow the scheduler inserted to cover
    /// an in-flight result.
    LatencyShadow = 3,
    /// Stall on a RAW dependence whose producer is a fixed-latency or
    /// VL-dependent compute operation (cross-block latency, chaining).
    RawStall = 4,
    /// Stall waiting on a scalar/µSIMD access served by the L1.
    WaitL1 = 5,
    /// Stall waiting on an access served by the L2 vector cache.
    WaitL2 = 6,
    /// Stall waiting on an access that missed to the L3.
    WaitL3 = 7,
    /// Stall waiting on an access that went to main memory.
    WaitMem = 8,
    /// Stall waiting for the single L2 vector port to come free.
    L2Port = 9,
}

impl Cause {
    pub const ALL: [Cause; N_CAUSES] = [
        Cause::Issue,
        Cause::IssueLimit,
        Cause::Control,
        Cause::LatencyShadow,
        Cause::RawStall,
        Cause::WaitL1,
        Cause::WaitL2,
        Cause::WaitL3,
        Cause::WaitMem,
        Cause::L2Port,
    ];

    /// Stable snake_case name — the JSON profile key.
    pub fn name(self) -> &'static str {
        match self {
            Cause::Issue => "issue",
            Cause::IssueLimit => "issue_limit",
            Cause::Control => "control",
            Cause::LatencyShadow => "latency_shadow",
            Cause::RawStall => "raw",
            Cause::WaitL1 => "wait_l1",
            Cause::WaitL2 => "wait_l2",
            Cause::WaitL3 => "wait_l3",
            Cause::WaitMem => "wait_mem",
            Cause::L2Port => "l2_port",
        }
    }

    /// The wait cause for an access served by `level`.
    pub fn wait_for(level: ServedBy) -> Cause {
        match level {
            ServedBy::L1 => Cause::WaitL1,
            ServedBy::L2 => Cause::WaitL2,
            ServedBy::L3 => Cause::WaitL3,
            ServedBy::Mem => Cause::WaitMem,
        }
    }

    /// The wait cause of one priced access: the deepest level it touched.
    pub fn wait_for_echo(echo: &AccessEcho) -> Cause {
        Cause::wait_for(echo.deepest())
    }
}

/// Timeline lane names, indexed by [`BundleProfile::lane`]: the dominant
/// resource of a bundle, used as the Chrome-trace thread name.
pub const LANE_NAMES: [&str; 6] = ["int", "usimd", "vector", "l1port", "l2port", "ctrl"];

/// What bound one bundle's stall, found by the engine's scoreboard scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Binding {
    /// No stall this issue.
    None,
    /// The first read slot (program order) whose readiness equals the
    /// issue cycle.
    Slot(u16),
    /// No slot explains the stall: the L2 vector port was busy.
    Port,
}

/// Observer of one engine's cycle accounting.  Like
/// [`crate::trace::TraceSink`], the disabled implementation
/// ([`NoProfile`]) must monomorphise away entirely; engines additionally
/// gate the work of *computing* hook arguments (echo pricing, binding
/// scans, op indices) on [`ProfileSink::ENABLED`].
pub trait ProfileSink {
    /// Whether this sink observes anything (drives engine-side gating).
    const ENABLED: bool;
    /// A block is about to execute.
    fn begin_block(&mut self, block: u32);
    /// A bundle issued: its stall-free base cycle, its stall, and what
    /// bound the stall.  Called once per dynamic bundle, in issue order.
    fn bundle(&mut self, bundle: u32, base: u64, stall: u64, binding: Binding);
    /// Operation `op` wrote scoreboard slot `slot`; a stall bound to the
    /// slot later is attributed to `cause` and blamed on `op`.
    fn write(&mut self, op: u32, slot: u16, cause: Cause);
    /// Operation `op` occupied the L2 vector port.
    fn vec_port(&mut self, op: u32);
}

/// The non-profiling sink: every hook is an empty inline function.
pub struct NoProfile;

impl ProfileSink for NoProfile {
    const ENABLED: bool = false;
    #[inline(always)]
    fn begin_block(&mut self, _block: u32) {}
    #[inline(always)]
    fn bundle(&mut self, _bundle: u32, _base: u64, _stall: u64, _binding: Binding) {}
    #[inline(always)]
    fn write(&mut self, _op: u32, _slot: u16, _cause: Cause) {}
    #[inline(always)]
    fn vec_port(&mut self, _op: u32) {}
}

/// Observer of the batched replay walk: the per-variant analogue of
/// [`ProfileSink`].  One hook call covers all K variants where the
/// observation is variant-independent (writes, port occupancy); the
/// per-variant hooks take the variant index.
pub trait BatchSink {
    const ENABLED: bool;
    fn begin_block(&mut self, block: u32);
    /// Bundle issue of variant `kk`.
    fn bundle(&mut self, kk: usize, bundle: u32, base: u64, stall: u64, binding: Binding);
    /// A write whose blame cause is identical across variants.
    fn write_all(&mut self, op: u32, slot: u16, cause: Cause);
    /// A memory write whose wait level differs per variant: `causes[kk]`
    /// is variant `kk`'s cause.
    fn write_k(&mut self, op: u32, slot: u16, causes: &[Cause]);
    /// `op` occupied the L2 vector port (all variants).
    fn vec_port_all(&mut self, op: u32);
}

/// The non-profiling batch sink.
pub struct NoBatchProfile;

impl BatchSink for NoBatchProfile {
    const ENABLED: bool = false;
    #[inline(always)]
    fn begin_block(&mut self, _block: u32) {}
    #[inline(always)]
    fn bundle(&mut self, _kk: usize, _bundle: u32, _base: u64, _stall: u64, _binding: Binding) {}
    #[inline(always)]
    fn write_all(&mut self, _op: u32, _slot: u16, _cause: Cause) {}
    #[inline(always)]
    fn write_k(&mut self, _op: u32, _slot: u16, _causes: &[Cause]) {}
    #[inline(always)]
    fn vec_port_all(&mut self, _op: u32) {}
}

/// Everything attribution needs that is *static* in the schedule: bundle
/// issue classes, bundle→block/lane maps, block geometry and regions, op
/// display names.  Depends on the same schedule-relevant machine fields as
/// lowering (issue width, unit pools), so one `ProfileStatics` serves
/// every memory variant of a `Prepared` — the compile-cache sharing rule.
#[derive(Debug)]
pub struct ProfileStatics {
    pub total_slots: usize,
    /// Static issue-cycle class of each bundle (one of indices
    /// 0..[`STALL_BASE`]).
    pub bundle_class: Vec<Cause>,
    /// Owning block of each bundle.
    pub bundle_block: Vec<u32>,
    /// Timeline lane of each bundle (index into [`LANE_NAMES`]).
    pub bundle_lane: Vec<u8>,
    pub block_first_bundle: Vec<u32>,
    pub block_bundle_count: Vec<u32>,
    pub block_region: Vec<RegionId>,
    /// Declared regions, in declaration order.
    pub regions: Vec<(RegionId, String)>,
    /// Owning bundle of each op (ops are flattened in issue order).
    pub op_bundle: Vec<u32>,
    /// Display name of each op's opcode.
    pub op_name: Vec<String>,
}

impl ProfileStatics {
    pub fn build(program: &LoweredProgram, machine: &MachineConfig) -> ProfileStatics {
        let n_bundles = program.bundle_bounds.len().saturating_sub(1);
        let mut bundle_class = vec![Cause::Issue; n_bundles];
        let mut bundle_block = vec![0u32; n_bundles];
        let mut bundle_lane = vec![5u8; n_bundles];
        let mut op_bundle = Vec::with_capacity(program.ops.len());
        let mut op_name = Vec::with_capacity(program.ops.len());

        for (blk, block) in program.blocks.iter().enumerate() {
            for b in block.first_bundle..block.first_bundle + block.bundle_count {
                bundle_block[b as usize] = blk as u32;
                let ops = program.bundle_ops(b);
                for op in ops {
                    op_bundle.push(b);
                    op_name.push(format!("{:?}", op.opcode));
                }
                let control_only = !ops.is_empty()
                    && ops
                        .iter()
                        .all(|op| op.opcode.is_branch() || op.opcode == vmv_isa::Opcode::Halt);
                bundle_class[b as usize] = if ops.is_empty() {
                    Cause::LatencyShadow
                } else if control_only {
                    Cause::Control
                } else if at_resource_limit(ops, machine) {
                    Cause::IssueLimit
                } else {
                    Cause::Issue
                };
                // Lane: the bundle's most specialised resource — memory
                // ports over compute units — so stalls land on the lane of
                // the unit that explains them.
                let mut lane = 5u8;
                for op in ops {
                    if op.opcode.is_branch() || op.opcode == vmv_isa::Opcode::Halt {
                        continue;
                    }
                    let l = match op.opcode.fu_class() {
                        FuClass::MemL2 => 4,
                        FuClass::MemL1 => 3,
                        FuClass::Vector => 2,
                        FuClass::Simd => 1,
                        FuClass::Int => 0,
                    };
                    lane = if lane == 5 { l } else { lane.max(l).min(4) };
                }
                bundle_lane[b as usize] = lane;
            }
        }

        ProfileStatics {
            total_slots: program.total_slots(),
            bundle_class,
            bundle_block,
            bundle_lane,
            block_first_bundle: program.blocks.iter().map(|b| b.first_bundle).collect(),
            block_bundle_count: program.blocks.iter().map(|b| b.bundle_count).collect(),
            block_region: program.blocks.iter().map(|b| b.region).collect(),
            regions: program
                .regions
                .iter()
                .map(|r| (r.id, r.name.clone()))
                .collect(),
            op_bundle,
            op_name,
        }
    }

    /// Number of static bundles.
    pub fn bundles(&self) -> usize {
        self.bundle_class.len()
    }

    /// Number of static ops.
    pub fn ops(&self) -> usize {
        self.op_bundle.len()
    }
}

/// Whether a bundle saturates the issue width or any functional-unit pool.
fn at_resource_limit(ops: &[vmv_sched::LoweredOp], machine: &MachineConfig) -> bool {
    if ops.len() >= machine.issue_width {
        return true;
    }
    let mut counts = [0usize; 5];
    for op in ops {
        let i = match op.opcode.fu_class() {
            FuClass::Int => 0,
            FuClass::Simd => 1,
            FuClass::Vector => 2,
            FuClass::MemL1 => 3,
            FuClass::MemL2 => 4,
        };
        counts[i] += 1;
    }
    for (i, class) in [
        FuClass::Int,
        FuClass::Simd,
        FuClass::Vector,
        FuClass::MemL1,
        FuClass::MemL2,
    ]
    .into_iter()
    .enumerate()
    {
        if counts[i] > 0 && counts[i] >= machine.units(class) {
            return true;
        }
    }
    false
}

/// One recorded bundle issue of the (capped) timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineEvent {
    pub bundle: u32,
    /// Stall-free issue cycle; the bundle actually issued at
    /// `base + stall`.
    pub base: u64,
    pub stall: u64,
    /// Stall cause index (meaningful only when `stall > 0`).
    pub cause: u8,
}

/// Per-region attributed cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionProfile {
    pub id: u32,
    pub name: String,
    pub causes: [u64; N_CAUSES],
}

/// Per-block attributed cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockProfile {
    pub block: u32,
    pub region: u32,
    pub visits: u64,
    pub causes: [u64; N_CAUSES],
}

/// Per-bundle attribution: the static issue class expanded by visit count,
/// plus the dynamic stall causes bound at this bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BundleProfile {
    pub bundle: u32,
    pub block: u32,
    pub lane: u8,
    pub class: Cause,
    /// Times the bundle issued (== its block's visits).
    pub issues: u64,
    /// Stall cycles bound at this bundle, by cause (index - STALL_BASE).
    pub stalls: [u64; N_STALLS],
}

/// Per-op attribution: stall cycles *blamed on* this op as the producer
/// whose in-flight result (or port occupancy) bound the stall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpProfile {
    pub op: u32,
    pub bundle: u32,
    pub opcode: String,
    pub stalls: [u64; N_STALLS],
}

/// The finished attribution of one run.  Identical (PartialEq) across the
/// lowered engine and batched replay of the same run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    /// Total cycles per cause; sums to `RunStats` cycles.
    pub causes: [u64; N_CAUSES],
    pub regions: Vec<RegionProfile>,
    pub blocks: Vec<BlockProfile>,
    pub bundles: Vec<BundleProfile>,
    pub ops: Vec<OpProfile>,
    /// First [`TIMELINE_CAP`] bundle issues.
    pub timeline: Vec<TimelineEvent>,
    /// Total bundle issues observed (timeline truncated when larger than
    /// `timeline.len()`).
    pub events_seen: u64,
}

impl Profile {
    /// Attributed total cycles (all ten causes).
    pub fn total_cycles(&self) -> u64 {
        self.causes.iter().sum()
    }

    /// Attributed stall cycles (causes [`STALL_BASE`]..).
    pub fn stall_cycles(&self) -> u64 {
        self.causes[STALL_BASE..].iter().sum()
    }

    /// Whether the timeline dropped events past [`TIMELINE_CAP`].
    pub fn timeline_truncated(&self) -> bool {
        self.events_seen > self.timeline.len() as u64
    }

    /// Fold this profile into the process-wide vmv-obs counters: one
    /// `profile_runs` tick plus the six stall-cause totals.
    pub fn record_obs(&self) {
        use vmv_obs::Counter;
        const STALL_COUNTERS: [Counter; N_STALLS] = [
            Counter::ProfileStallRaw,
            Counter::ProfileStallWaitL1,
            Counter::ProfileStallWaitL2,
            Counter::ProfileStallWaitL3,
            Counter::ProfileStallWaitMem,
            Counter::ProfileStallL2Port,
        ];
        vmv_obs::incr(Counter::ProfileRuns);
        for (i, c) in STALL_COUNTERS.into_iter().enumerate() {
            let v = self.causes[STALL_BASE + i];
            if v != 0 {
                vmv_obs::add(c, v);
            }
        }
    }

    /// The sum-exactly engine contract: attributed cycles equal `stats`
    /// cycles and attributed stalls equal `stats` stall cycles, in total
    /// and per region.
    pub fn check_against(&self, stats: &RunStats) -> Result<(), String> {
        let total = stats.total();
        if self.total_cycles() != total.cycles {
            return Err(format!(
                "attributed cycles {} != RunStats cycles {}",
                self.total_cycles(),
                total.cycles
            ));
        }
        if self.stall_cycles() != total.stall_cycles {
            return Err(format!(
                "attributed stalls {} != RunStats stall_cycles {}",
                self.stall_cycles(),
                total.stall_cycles
            ));
        }
        for r in &self.regions {
            let rs = stats
                .regions
                .get(&RegionId(r.id))
                .copied()
                .unwrap_or_default();
            let cycles: u64 = r.causes.iter().sum();
            let stalls: u64 = r.causes[STALL_BASE..].iter().sum();
            if cycles != rs.cycles || stalls != rs.stall_cycles {
                return Err(format!(
                    "region {}: attributed {cycles}/{stalls} != RunStats {}/{}",
                    r.id, rs.cycles, rs.stall_cycles
                ));
            }
        }
        for (&id, rs) in &stats.regions {
            if rs.cycles > 0 && !self.regions.iter().any(|r| r.id == id.0) {
                return Err(format!("RunStats region {} missing from profile", id.0));
            }
        }
        Ok(())
    }
}

/// Accumulates a [`Profile`] while an engine runs.  The dynamic state is
/// deliberately minimal — per-block visit counts, per-bundle/per-op stall
/// accumulators, the per-slot blame side table and the capped timeline —
/// because every issue-cycle class is static per bundle and expands as
/// `class × visits` at [`ProfileRecorder::finish`]; this is what lets the
/// replay engine keep its segment-skipping while profiling.
pub struct ProfileRecorder {
    statics: Arc<ProfileStatics>,
    visits: Vec<u64>,
    bundle_stalls: Vec<[u64; N_STALLS]>,
    op_stalls: Vec<[u64; N_STALLS]>,
    /// Stall cause a binding to this slot resolves to (what last wrote it).
    cause_of: Vec<u8>,
    /// Op blamed when a stall binds to this slot.
    producer: Vec<u32>,
    /// Op blamed for L2-port stalls (the last port occupant).
    port_producer: u32,
    timeline: Vec<TimelineEvent>,
    events_seen: u64,
}

impl ProfileRecorder {
    pub fn new(statics: Arc<ProfileStatics>) -> ProfileRecorder {
        ProfileRecorder {
            visits: vec![0; statics.block_first_bundle.len()],
            bundle_stalls: vec![[0; N_STALLS]; statics.bundles()],
            op_stalls: vec![[0; N_STALLS]; statics.ops()],
            cause_of: vec![Cause::RawStall as u8; statics.total_slots],
            producer: vec![NO_PRODUCER; statics.total_slots],
            port_producer: NO_PRODUCER,
            timeline: Vec::new(),
            events_seen: 0,
            statics,
        }
    }

    /// Assemble the profile: expand static issue classes by visit counts,
    /// fold bundles into blocks and blocks into regions.
    pub fn finish(self) -> Profile {
        let s = &self.statics;
        let n_blocks = s.block_first_bundle.len();
        let mut causes = [0u64; N_CAUSES];
        let mut block_causes = vec![[0u64; N_CAUSES]; n_blocks];
        let mut bundles = Vec::with_capacity(s.bundles());

        for b in 0..s.bundles() {
            let blk = s.bundle_block[b] as usize;
            let issues = self.visits[blk];
            let class = s.bundle_class[b];
            causes[class as usize] += issues;
            block_causes[blk][class as usize] += issues;
            let stalls = self.bundle_stalls[b];
            for (i, &v) in stalls.iter().enumerate() {
                causes[STALL_BASE + i] += v;
                block_causes[blk][STALL_BASE + i] += v;
            }
            bundles.push(BundleProfile {
                bundle: b as u32,
                block: blk as u32,
                lane: s.bundle_lane[b],
                class,
                issues,
                stalls,
            });
        }
        // An empty block still consumes a fetch cycle per visit: control.
        for (blk, bc) in block_causes.iter_mut().enumerate().take(n_blocks) {
            if s.block_bundle_count[blk] == 0 {
                causes[Cause::Control as usize] += self.visits[blk];
                bc[Cause::Control as usize] += self.visits[blk];
            }
        }

        let blocks: Vec<BlockProfile> = (0..n_blocks)
            .map(|blk| BlockProfile {
                block: blk as u32,
                region: s.block_region[blk].0,
                visits: self.visits[blk],
                causes: block_causes[blk],
            })
            .collect();

        // Regions: every declared region (even if it never ran) plus any
        // block region, sorted by id — mirrors RunStats' BTreeMap order.
        let mut ids: Vec<u32> = s.regions.iter().map(|(id, _)| id.0).collect();
        for r in &s.block_region {
            ids.push(r.0);
        }
        ids.sort_unstable();
        ids.dedup();
        let regions = ids
            .into_iter()
            .map(|id| {
                let mut c = [0u64; N_CAUSES];
                for (blk, bc) in block_causes.iter().enumerate().take(n_blocks) {
                    if s.block_region[blk].0 == id {
                        for (i, v) in c.iter_mut().enumerate() {
                            *v += bc[i];
                        }
                    }
                }
                let name = s
                    .regions
                    .iter()
                    .find(|(rid, _)| rid.0 == id)
                    .map(|(_, n)| n.clone())
                    .unwrap_or_default();
                RegionProfile {
                    id,
                    name,
                    causes: c,
                }
            })
            .collect();

        let ops = self
            .op_stalls
            .iter()
            .enumerate()
            .map(|(i, &stalls)| OpProfile {
                op: i as u32,
                bundle: s.op_bundle[i],
                opcode: s.op_name[i].clone(),
                stalls,
            })
            .collect();

        Profile {
            causes,
            regions,
            blocks,
            bundles,
            ops,
            timeline: self.timeline,
            events_seen: self.events_seen,
        }
    }
}

impl ProfileSink for ProfileRecorder {
    const ENABLED: bool = true;

    #[inline]
    fn begin_block(&mut self, block: u32) {
        self.visits[block as usize] += 1;
    }

    #[inline]
    fn bundle(&mut self, bundle: u32, base: u64, stall: u64, binding: Binding) {
        self.events_seen += 1;
        let mut cause = 0u8;
        if stall > 0 {
            let (c, producer) = match binding {
                Binding::Slot(slot) => (self.cause_of[slot as usize], self.producer[slot as usize]),
                // `Binding::None` with a positive stall cannot happen (the
                // issue cycle is the max over slot readiness and the port
                // cursor); fold it into the port arm defensively.
                Binding::Port | Binding::None => (Cause::L2Port as u8, self.port_producer),
            };
            cause = c;
            self.bundle_stalls[bundle as usize][c as usize - STALL_BASE] += stall;
            if producer != NO_PRODUCER {
                self.op_stalls[producer as usize][c as usize - STALL_BASE] += stall;
            }
        }
        if self.timeline.len() < TIMELINE_CAP {
            self.timeline.push(TimelineEvent {
                bundle,
                base,
                stall,
                cause,
            });
        }
    }

    #[inline]
    fn write(&mut self, op: u32, slot: u16, cause: Cause) {
        self.cause_of[slot as usize] = cause as u8;
        self.producer[slot as usize] = op;
    }

    #[inline]
    fn vec_port(&mut self, op: u32) {
        self.port_producer = op;
    }
}

/// K per-variant recorders driven by the single fused batched-replay walk:
/// batch attribution costs one extra pass over the K timing states, not K
/// extra walks.
pub struct BatchProfiler {
    recs: Vec<ProfileRecorder>,
}

impl BatchProfiler {
    pub fn new(statics: &Arc<ProfileStatics>, k: usize) -> BatchProfiler {
        BatchProfiler {
            recs: (0..k)
                .map(|_| ProfileRecorder::new(statics.clone()))
                .collect(),
        }
    }

    pub fn finish(self) -> Vec<Profile> {
        self.recs.into_iter().map(ProfileRecorder::finish).collect()
    }
}

impl BatchSink for BatchProfiler {
    const ENABLED: bool = true;

    #[inline]
    fn begin_block(&mut self, block: u32) {
        for rec in &mut self.recs {
            rec.begin_block(block);
        }
    }

    #[inline]
    fn bundle(&mut self, kk: usize, bundle: u32, base: u64, stall: u64, binding: Binding) {
        self.recs[kk].bundle(bundle, base, stall, binding);
    }

    #[inline]
    fn write_all(&mut self, op: u32, slot: u16, cause: Cause) {
        for rec in &mut self.recs {
            rec.write(op, slot, cause);
        }
    }

    #[inline]
    fn write_k(&mut self, op: u32, slot: u16, causes: &[Cause]) {
        for (rec, &cause) in self.recs.iter_mut().zip(causes) {
            rec.write(op, slot, cause);
        }
    }

    #[inline]
    fn vec_port_all(&mut self, op: u32) {
        for rec in &mut self.recs {
            rec.vec_port(op);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cause_names_are_unique_snake_case_and_ordered() {
        let mut seen = std::collections::HashSet::new();
        for (i, c) in Cause::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i, "ALL order matches discriminants");
            assert!(seen.insert(c.name()), "duplicate cause name {}", c.name());
            assert!(c
                .name()
                .chars()
                .all(|ch| ch.is_ascii_lowercase() || ch == '_' || ch.is_ascii_digit()));
        }
        assert_eq!(N_CAUSES, Cause::ALL.len());
        assert_eq!(N_STALLS, 6);
        // Stall causes start exactly at STALL_BASE.
        assert_eq!(Cause::ALL[STALL_BASE], Cause::RawStall);
    }

    #[test]
    fn wait_cause_follows_the_deepest_level() {
        assert_eq!(Cause::wait_for(ServedBy::L1), Cause::WaitL1);
        assert_eq!(Cause::wait_for(ServedBy::Mem), Cause::WaitMem);
    }
}
