//! How much list scheduling block placement reuse saves, counted by the
//! `vmv-obs` recorder.  The recorder is process-wide, so this test has a
//! binary of its own.
//!
//! The vector JPEG_DEC program on 36 vector machines (3 issue widths × 2
//! vector-unit counts × 3 lane counts × chaining, the vector machines of
//! the benchmark's `structural` workload at seed 1) is 36 schedules.
//! Compiled one by one, they list-schedule 181,368 operations.  Most of
//! them sit in scalar blocks, such as the 4,740-operation IDCT block,
//! which only the issue width (and the register files it brings) can
//! change.  Through one `ProgramRunner` those blocks are scheduled once
//! per view, so at least 80 % of the work goes.

use vector_usimd_vliw as vmv;

use vmv::core::ProgramRunner;
use vmv::kernels::{Benchmark, IsaVariant};
use vmv::machine::MachineConfig;
use vmv::sweep::SpecFile;

/// `sched_ops_placed` of `compile_all`, from a reset recorder.
fn ops_placed(compile_all: impl FnOnce()) -> u64 {
    vmv_obs::reset();
    compile_all();
    vmv_obs::snapshot()
        .counter("sched_ops_placed")
        .expect("the recorder counts placed operations")
}

#[test]
fn one_runner_schedules_scalar_blocks_once_per_view() {
    let spec = SpecFile::parse(
        r#"{"name": "grid", "axes": [
            {"axis": "isa", "values": ["vector"]},
            {"axis": "issue_width", "values": [2, 4, 8]},
            {"axis": "vector_units", "values": [1, 4]},
            {"axis": "vector_lanes", "values": [2, 4, 8]},
            {"axis": "chaining", "values": [true, false]}]}"#,
    )
    .unwrap();
    let points = spec.lower().unwrap().spec.expand().points;
    let machines: Vec<MachineConfig> = points.into_iter().map(|p| p.machine).collect();
    assert_eq!(machines.len(), 36);
    let program = Benchmark::JpegDec.build(IsaVariant::Vector).program;

    vmv_obs::set_enabled(true);
    let alone = ops_placed(|| {
        for machine in &machines {
            vmv::sched::compile(&program, machine).unwrap();
        }
    });
    let shared = ops_placed(|| {
        let mut runner = ProgramRunner::new(Benchmark::JpegDec, IsaVariant::Vector, 0);
        for machine in &machines {
            runner.compile(machine).unwrap();
        }
    });
    vmv_obs::set_enabled(false);

    assert_eq!(alone, 181_368, "one schedule per machine");
    assert!(
        shared * 5 <= alone,
        "one runner placed {shared} operations, more than 20 % of {alone}"
    );
}
