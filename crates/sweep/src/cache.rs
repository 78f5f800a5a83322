//! Schedule keys: each benchmark program is scheduled **once** per unique
//! `(benchmark, ISA variant, machine as that variant's code sees it)`, and
//! the resulting lowered schedule serves every run of that key, which may
//! vary only memory-system parameters, the memory model, or fields no
//! operation of the program reads.
//!
//! The machine part of the key is the schedule fingerprint of the
//! machine's ISA-visible view ([`MachineConfig::schedule_view`]): scalar
//! code has no µSIMD or vector operation and µSIMD code no vector
//! operation, so chaining or the vector-cache latency cannot change their
//! schedules.  The machine's own schedule fingerprint stays a component of
//! the run key ([`crate::full_fingerprint`]), so runs that share a schedule
//! are still stored apart.  A sweep over cache geometries or memory
//! latencies therefore pays the scheduler once per architecture point, and
//! one that crosses every ISA with chaining schedules the scalar and µSIMD
//! programs once per pair.
//!
//! Nothing is memoized here: neither programs nor traces.  The executor
//! groups a sweep's jobs by [`CompileCache::key_for`], compiles each
//! group's schedule on its first job's machine when the group starts and
//! drops it when the group finishes; the hit/miss counters are derived from
//! the group sizes.

use vmv_core::sched::LoweredProgram;
use vmv_core::{ExperimentError, ProgramRunner};
use vmv_kernels::{Benchmark, IsaVariant};
use vmv_machine::MachineConfig;

use crate::fingerprint::schedule_fingerprint;

/// Cache key: benchmark, the ISA variant it is compiled in, and the
/// schedule fingerprint of the machine as that variant's code sees it.
pub type CacheKey = (Benchmark, IsaVariant, String);

/// The schedule-key namespace (the name predates group-scoped programs,
/// when it also held every compiled program until the sweep returned).
pub struct CompileCache;

/// Schedule counters of one sweep, derived from its groups: each group of
/// K jobs is one miss (its one schedule) and K − 1 hits, whether or not it
/// compiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounters {
    /// Jobs served by their group's schedule.
    pub hits: u64,
    /// Schedules attempted (one per group).
    pub misses: u64,
}

impl CompileCache {
    /// The key `(benchmark, machine)` is scheduled under.
    pub fn key_for(benchmark: Benchmark, machine: &MachineConfig) -> CacheKey {
        (
            benchmark,
            vmv_core::variant_for(machine),
            schedule_fingerprint(&machine.schedule_view()),
        )
    }
}

/// Compile `runner`'s program for `machine`, lower the schedule and, when
/// `certify` is set, certify it with the static verifier
/// (`vmv_verify::verify_compiled`): a schedule with error diagnostics is a
/// compile error.  Only the lowered program is returned; the compiled form
/// is dropped here, before anything simulates.
pub(crate) fn compile(
    runner: &ProgramRunner,
    machine: &MachineConfig,
    certify: bool,
) -> Result<LoweredProgram, ExperimentError> {
    let (compiled, lowered) = runner.compile(machine)?;
    if certify {
        let diags = vmv_verify::verify_compiled(&compiled.program, &lowered, machine);
        if vmv_verify::has_errors(&diags) {
            let joined = diags
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("; ");
            return Err(ExperimentError::Compile(format!(
                "schedule failed static verification: {joined}"
            )));
        }
    }
    Ok(lowered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{run_sweep, ExecOptions};
    use crate::spec::expand_axes;
    use crate::specfile::AxisSpec;
    use vmv_machine::presets;

    /// One GSM_DEC sweep at `workers`, asserting the derived counters:
    /// one miss per distinct schedule key, and every other job a hit.
    fn assert_one_schedule_per_key(points: &[crate::spec::SweepPoint], workers: usize) {
        let opts = ExecOptions {
            benchmarks: vec![Benchmark::GsmDec],
            workers,
            ..ExecOptions::default()
        };
        let report = run_sweep(points, &opts, None).unwrap();
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        let keys: std::collections::HashSet<_> = points
            .iter()
            .map(|p| CompileCache::key_for(Benchmark::GsmDec, &p.machine))
            .collect();
        assert_eq!(report.cache.misses, keys.len() as u64, "workers {workers}");
        assert_eq!(
            report.cache.hits,
            (points.len() - keys.len()) as u64,
            "workers {workers}"
        );
    }

    #[test]
    fn memory_variants_share_one_schedule() {
        // Four memory variants of one machine: one schedule, three hits.
        let points = expand_axes(vec![
            AxisSpec::L2Size(vec![64 * 1024, 256 * 1024]),
            AxisSpec::MemLatency(vec![100, 500]),
        ])
        .points;
        assert_eq!(points.len(), 4);
        for workers in [1, 2] {
            assert_one_schedule_per_key(&points, workers);
        }
    }

    #[test]
    fn schedule_relevant_changes_recompile() {
        let base = presets::vector2(2);
        let mut big_l2 = base.clone();
        big_l2.memory.l2_size *= 4;
        let mut slow_dram = base.clone();
        slow_dram.memory.mem_latency = 100;
        let mut wide = base.clone();
        wide.vector_lanes = 8;
        let key = |b, m: &MachineConfig| CompileCache::key_for(b, m);

        // Memory-only changes share a key ...
        let base_key = key(Benchmark::GsmDec, &base);
        assert_eq!(key(Benchmark::GsmDec, &big_l2), base_key);
        assert_eq!(key(Benchmark::GsmDec, &slow_dram), base_key);
        // ... lane-count and benchmark changes do not.
        assert_ne!(key(Benchmark::GsmDec, &wide), base_key);
        assert_ne!(key(Benchmark::GsmEnc, &base), base_key);
    }

    #[test]
    fn concurrent_lookups_schedule_exactly_once() {
        // Two lane counts with four memory variants each: two schedules
        // however the workers race for the groups.
        let points = expand_axes(vec![
            AxisSpec::VectorLanes(vec![2, 4]),
            AxisSpec::MemLatency(vec![100, 200, 300, 400]),
        ])
        .points;
        assert_eq!(points.len(), 8);
        for workers in [1, 2] {
            assert_one_schedule_per_key(&points, workers);
        }
    }
}
