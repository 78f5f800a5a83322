//! Compile memoization: each benchmark program is scheduled **once** per
//! unique `(benchmark, ISA variant, schedule-relevant machine fields)` and
//! the resulting [`Prepared`] (static schedule + memory image + checks) is
//! shared across every run that only varies memory-system parameters or the
//! memory model.
//!
//! A sweep over cache geometries or memory latencies therefore pays the
//! scheduler exactly once per architecture point, no matter how many memory
//! variants it simulates.
//!
//! The shared [`Prepared`] also memoizes the **execution trace**: the first
//! run of a cached entry executes and records, and every later memory
//! variant is retimed from that trace by the batched replay walk (see
//! `vmv_sim::replay_batch`), skipping functional execution entirely.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use vmv_core::{prepare, ExperimentError, Prepared};
use vmv_kernels::{Benchmark, IsaVariant};
use vmv_machine::MachineConfig;

use crate::fingerprint::schedule_fingerprint;

/// Cache key: benchmark, the ISA variant it is compiled in, and the
/// schedule-relevant machine fields.
pub type CacheKey = (Benchmark, IsaVariant, String);

/// One cache slot.  The per-slot mutex serialises compilation of the *same*
/// key (so a key is scheduled exactly once even under contention) while
/// distinct keys compile fully in parallel.
type Slot = Arc<Mutex<Option<Result<Arc<Prepared>, String>>>>;

/// Thread-safe compile cache.
pub struct CompileCache {
    slots: Mutex<HashMap<CacheKey, Slot>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Certify each freshly compiled schedule with the static verifier
    /// (`vmv_verify::verify_compiled`) before caching it.
    verify: bool,
}

impl Default for CompileCache {
    fn default() -> Self {
        CompileCache {
            slots: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            // Every dev/test sweep certifies its schedules for free; release
            // sweeps opt in via `sweep --verify`.
            verify: cfg!(debug_assertions),
        }
    }
}

/// Counters exposed for reporting and for the exactly-one-schedule tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups served from an already-compiled entry.
    pub hits: u64,
    /// Lookups that had to run the scheduler (== number of schedules).
    pub misses: u64,
}

impl CompileCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Force schedule certification on (or off) regardless of build profile.
    pub fn set_verify(&mut self, on: bool) {
        self.verify = on;
    }

    /// The key this cache files `(benchmark, machine)` under.
    pub fn key_for(benchmark: Benchmark, machine: &MachineConfig) -> CacheKey {
        (
            benchmark,
            vmv_core::variant_for(machine),
            schedule_fingerprint(machine),
        )
    }

    /// Fetch the compiled program for `(benchmark, machine)`, scheduling it
    /// on a miss.  Concurrent requests for the same key block until the
    /// first finishes; errors are cached too (a machine that cannot compile
    /// a benchmark fails fast on every retry).
    pub fn get_or_compile(
        &self,
        benchmark: Benchmark,
        machine: &MachineConfig,
    ) -> Result<Arc<Prepared>, ExperimentError> {
        let key = Self::key_for(benchmark, machine);
        let slot: Slot = {
            let mut slots = self.slots.lock().unwrap();
            slots.entry(key).or_default().clone()
        };
        let mut guard = slot.lock().unwrap();
        match &*guard {
            Some(Ok(prepared)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                vmv_obs::incr(vmv_obs::Counter::CacheHits);
                Ok(Arc::clone(prepared))
            }
            Some(Err(msg)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                vmv_obs::incr(vmv_obs::Counter::CacheHits);
                Err(ExperimentError::Compile(msg.clone()))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                vmv_obs::incr(vmv_obs::Counter::CacheMisses);
                let result = prepare(benchmark, machine).map(Arc::new).and_then(|p| {
                    if self.verify {
                        let diags =
                            vmv_verify::verify_compiled(&p.compiled.program, &p.lowered, machine);
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
                    Ok(p)
                });
                *guard = Some(match &result {
                    Ok(prepared) => Ok(Arc::clone(prepared)),
                    Err(e) => Err(e.to_string()),
                });
                result
            }
        }
    }

    /// Current hit/miss counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct keys ever compiled (or attempted).
    pub fn len(&self) -> usize {
        self.slots.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmv_machine::presets;

    #[test]
    fn memory_variants_share_one_schedule() {
        let cache = CompileCache::new();
        let base = presets::vector2(2);
        let mut big_l2 = base.clone();
        big_l2.memory.l2_size *= 4;
        let mut slow_dram = base.clone();
        slow_dram.memory.mem_latency = 100;

        for machine in [&base, &big_l2, &slow_dram, &base] {
            cache.get_or_compile(Benchmark::GsmDec, machine).unwrap();
        }
        let c = cache.counters();
        assert_eq!(c.misses, 1, "one schedule for four memory-variant lookups");
        assert_eq!(c.hits, 3);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn memory_variants_share_one_trace() {
        use vmv_mem::MemoryModel;
        let cache = CompileCache::new();
        let machine = presets::vector2(2);
        let prepared = cache.get_or_compile(Benchmark::GsmDec, &machine).unwrap();
        assert!(
            !prepared.has_trace(),
            "nothing recorded before the first run"
        );

        // First run executes and records; the second memory variant replays
        // the same trace and must agree bit-for-bit with a fresh execution.
        let perfect = vmv_core::simulate(&prepared, &machine, MemoryModel::Perfect).unwrap();
        assert!(prepared.has_trace(), "first run records the trace");
        let replayed = vmv_core::simulate(&prepared, &machine, MemoryModel::Realistic).unwrap();
        let executed =
            vmv_core::simulate_fresh(&prepared, &machine, MemoryModel::Realistic).unwrap();
        assert_eq!(replayed.stats, executed.stats);
        assert_ne!(
            perfect.stats.cycles(),
            replayed.stats.cycles(),
            "the memory model must still matter under replay"
        );

        // The cache hands out the same Arc, so the trace rides along.
        let again = cache.get_or_compile(Benchmark::GsmDec, &machine).unwrap();
        assert!(again.has_trace());
    }

    #[test]
    fn schedule_relevant_changes_recompile() {
        let cache = CompileCache::new();
        let base = presets::vector2(2);
        let mut wide = base.clone();
        wide.vector_lanes = 8;
        cache.get_or_compile(Benchmark::GsmDec, &base).unwrap();
        cache.get_or_compile(Benchmark::GsmDec, &wide).unwrap();
        cache.get_or_compile(Benchmark::GsmEnc, &base).unwrap();
        assert_eq!(cache.counters().misses, 3);
    }

    #[test]
    fn concurrent_lookups_schedule_exactly_once() {
        let cache = CompileCache::new();
        let machine = presets::usimd(2);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    cache.get_or_compile(Benchmark::GsmDec, &machine).unwrap();
                });
            }
        });
        let c = cache.counters();
        assert_eq!(c.misses, 1, "eight concurrent lookups, one schedule");
        assert_eq!(c.hits, 7);
    }
}
