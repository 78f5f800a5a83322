//! # vmv-core — reproduction of the paper's evaluation
//!
//! Drives the whole stack (kernels → static scheduler → cycle-level
//! simulator) across the ten processor configurations of Table 2 and
//! rebuilds every figure and table of the evaluation section:
//! Table 1 (vector regions / %vectorisation), Figure 1 (scalar vs vector
//! region scalability), Figures 5a/5b (vector-region speed-ups under
//! perfect and realistic memory), Figure 6 (whole-application speed-ups),
//! Figure 7 (normalised operation counts) and Table 3 (OPC / µOPC /
//! speed-up per region class).

#![forbid(unsafe_code)]

pub mod experiment;
pub mod figures;

/// The earlier name of [`simulate`], kept for callers that pin it.
pub use experiment::simulate as simulate_fresh;
pub use experiment::{
    catch_quietly, default_workers, prepare, run_one, simulate, simulate_batch, simulate_schedule,
    variant_for, variant_from_name, workers_capped, ExperimentError, Prepared, ProgramRun,
    ProgramRunner, Recording, RunOutcome, Schedule, ScheduleRun, Suite, TraceFrom,
};
pub use figures::{
    chart_average, fig1, fig1_summary, fig5, fig6, fig7, fig7_summary, render_chart, render_fig1,
    render_fig7, render_table1, render_table3, table1, table3, Fig1Series, Fig1Summary, Fig7Row,
    Fig7Summary, SpeedupChart, Table1Row, Table3Row,
};
/// The scheduler crate: [`Prepared`] and [`Schedule`] carry its compiled and
/// lowered programs.
pub use vmv_sched as sched;
/// The simulator crate: [`Prepared`] and [`RunOutcome`] carry its types, and
/// [`Prepared::simulator`] hands out its engine.
pub use vmv_sim as sim;

#[cfg(test)]
mod tests {
    use super::*;
    use vmv_kernels::Benchmark;
    use vmv_machine::presets;
    use vmv_mem::MemoryModel;

    #[test]
    fn single_run_is_functionally_correct_on_every_isa() {
        for machine in [presets::vliw(2), presets::usimd(2), presets::vector2(2)] {
            let outcome = run_one(Benchmark::GsmDec, &machine, MemoryModel::Perfect).unwrap();
            assert!(
                outcome.check_failures.is_empty(),
                "{}: {:?}",
                machine.name,
                outcome.check_failures
            );
            assert!(outcome.stats.cycles() > 0);
        }
    }

    #[test]
    fn usimd_and_vector_outperform_the_same_width_vliw() {
        let vliw = run_one(Benchmark::GsmEnc, &presets::vliw(2), MemoryModel::Perfect).unwrap();
        let usimd = run_one(Benchmark::GsmEnc, &presets::usimd(2), MemoryModel::Perfect).unwrap();
        let vector = run_one(
            Benchmark::GsmEnc,
            &presets::vector2(2),
            MemoryModel::Perfect,
        )
        .unwrap();
        assert!(usimd.stats.cycles() < vliw.stats.cycles());
        assert!(vector.stats.cycles() < usimd.stats.cycles());
        // and the vector ISA fetches fewer operations (paper §5.3)
        assert!(vector.stats.total().operations < usimd.stats.total().operations);
    }

    #[test]
    fn memory_variants_share_one_trace() {
        // A two-variant batch executes and records the first variant and
        // retimes the second from that trace; each must agree bit-for-bit
        // with a lone (non-recording) execution of the same variant.
        let machine = presets::vector2(2);
        let prepared = prepare(Benchmark::GsmDec, &machine).unwrap();
        let models = [MemoryModel::Perfect, MemoryModel::Realistic];
        let variants: Vec<_> = models.iter().map(|&model| (&machine, model)).collect();
        let batch = simulate_batch(&prepared, &variants).unwrap();
        for (outcome, model) in batch.iter().zip(models) {
            let alone = simulate(&prepared, &machine, model).unwrap();
            assert_eq!(outcome.stats, alone.stats, "{model:?}");
            assert_eq!(outcome.check_failures, alone.check_failures, "{model:?}");
        }
        assert_ne!(
            batch[0].stats.cycles(),
            batch[1].stats.cycles(),
            "the memory model must still matter under replay"
        );
    }

    #[test]
    fn variant_names_round_trip_through_the_decoder() {
        use vmv_kernels::IsaVariant;
        for v in IsaVariant::ALL {
            assert_eq!(variant_from_name(v.name()), Some(v));
            assert_eq!(variant_from_name(&v.name().to_ascii_uppercase()), Some(v));
        }
        assert_eq!(variant_from_name("mmx"), None);
        assert_eq!(variant_from_name(""), None);
    }

    #[test]
    fn a_panicking_suite_job_is_reported_not_raised() {
        // 48 KB of 4-way 32-byte L1 lines is 384 sets: the cache model
        // panics when the second machine's hierarchy is built.
        let mut bad = presets::vector2(2);
        bad.memory.l1_size = 48 * 1024;
        let machines = [presets::vector2(2), bad];
        for workers in [1, 2] {
            let err = Suite::run_with_threads(&machines, MemoryModel::Perfect, workers)
                .expect_err("the 48 KB machine cannot run");
            let text = err.to_string();
            assert!(
                text.contains("L1 cache (49152 B"),
                "workers {workers}: {text}"
            );
        }
    }

    #[test]
    fn caught_panics_become_their_message() {
        assert_eq!(catch_quietly(|| 7), Ok(7));
        assert_eq!(
            catch_quietly::<()>(|| panic!("static")),
            Err("panicked: static".to_string())
        );
        // Nested catches: the inner one reports, the outer one returns.
        let nested = catch_quietly(|| catch_quietly::<()>(|| panic!("{}", 6 * 7)));
        assert_eq!(nested, Ok(Err("panicked: 42".to_string())));
        // A caught panic on a helper thread stays on that thread.
        let joined = std::thread::spawn(|| catch_quietly(|| -> u8 { panic!("helper") }))
            .join()
            .expect("the panic was caught");
        assert_eq!(joined, Err("panicked: helper".to_string()));
    }

    #[test]
    fn small_suite_builds_figures() {
        let machines = vec![presets::vliw(2), presets::usimd(2), presets::vector2(2)];
        let suite = Suite::run(&machines, MemoryModel::Perfect).unwrap();
        assert!(suite.failed().is_empty());
        assert_eq!(suite.outcomes.len(), 3 * Benchmark::ALL.len());
        // The per-benchmark table-1 style fraction is well defined.
        for o in &suite.outcomes {
            let f = o.stats.vectorization_fraction();
            assert!((0.0..=1.0).contains(&f));
        }
    }
}
