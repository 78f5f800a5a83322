//! Seeded mutation harness for the source-position certification
//! (`vmv_verify::verify_positions`): every kernel's schedule on a vector
//! preset certifies clean, and swapping the positions of a dependent pair
//! (a register producer and its consumer, or a store and a later memory
//! access), duplicating a position or desynchronising the lowered copy is
//! rejected.

use vector_usimd_vliw as vmv;
use vmv::kernels::rng::SmallRng;
use vmv::kernels::Benchmark;
use vmv::machine::presets;
use vmv::sched::ScheduledProgram;
use vmv::verify::{has_errors, verify_compiled, verify_positions, Check, Diagnostic};

/// `(block, earlier, later)` traversal indices of pairs that conflict in
/// source order: each read with its last source-order writer, and each
/// memory access with the last store before it.
fn dependent_pairs(program: &ScheduledProgram) -> Vec<(usize, usize, usize)> {
    let mut pairs = Vec::new();
    for (b, block) in program.blocks.iter().enumerate() {
        let flat: Vec<_> = block.bundles.iter().flatten().collect();
        let mut by_position: Vec<usize> = (0..flat.len()).collect();
        by_position.sort_by_key(|&t| block.positions[t]);
        let mut last_write = std::collections::HashMap::new();
        let mut last_store = None;
        for t in by_position {
            let op = flat[t];
            for r in op.reads() {
                if let Some(&w) = last_write.get(&r) {
                    pairs.push((b, w, t));
                }
            }
            if let Some(d) = op.writes() {
                last_write.insert(d, t);
            }
            if op.opcode.is_memory() {
                if let Some(s) = last_store {
                    pairs.push((b, s, t));
                }
                if op.opcode.is_store() {
                    last_store = Some(t);
                }
            }
        }
    }
    pairs
}

fn has_check(diags: &[Diagnostic], check: Check) -> bool {
    diags.iter().any(|d| d.check == check)
}

#[test]
fn reordered_dependences_and_broken_permutations_are_rejected() {
    let machine = presets::vector2(4);
    let mut rng = SmallRng::seed_from_u64(0x9051_7104);
    for benchmark in Benchmark::ALL {
        let prepared = vmv::core::prepare(benchmark, &machine).unwrap();
        let schedule = &prepared.compiled.program;
        assert!(
            verify_compiled(schedule, &prepared.lowered, &machine).is_empty(),
            "{}: the clean schedule certifies",
            benchmark.name()
        );
        let pairs = dependent_pairs(schedule);
        assert!(pairs.len() > 20, "{}: test premise", benchmark.name());

        for _ in 0..20 {
            let (b, earlier, later) = pairs[rng.gen_range_i64(0, pairs.len() as i64 - 1) as usize];
            let mut swapped = schedule.clone();
            swapped.blocks[b].positions.swap(earlier, later);
            let diags = verify_positions(&swapped, &prepared.lowered);
            assert!(
                has_errors(&diags) && has_check(&diags, Check::Hazard),
                "{}: swapping a dependent pair in block {b} must be a hazard: {diags:?}",
                benchmark.name()
            );

            let mut duplicated = schedule.clone();
            let positions = &mut duplicated.blocks[b].positions;
            positions[later] = positions[earlier];
            let diags = verify_compiled(&duplicated, &prepared.lowered, &machine);
            assert!(
                diags
                    .iter()
                    .any(|d| d.check == Check::Layout && d.message.contains("not a permutation")),
                "{}: a duplicated position in block {b} must be rejected: {diags:?}",
                benchmark.name()
            );
        }

        // The lowered copy is what recordings and replays read: it must
        // match the certified schedule.
        let mut lowered = prepared.lowered.clone();
        lowered.ops[0].pos = u32::MAX;
        let diags = verify_positions(schedule, &lowered);
        assert!(
            has_check(&diags, Check::Layout),
            "{}: desynchronised lowered positions: {diags:?}",
            benchmark.name()
        );
    }
}

#[test]
fn the_diagnostic_names_both_operations_of_the_reordered_pair() {
    // Swap the first store-and-access pair of JPEG_ENC: the load now
    // precedes the store in source order, and the rendering (pinned) says
    // which operation runs early and which conflict it breaks.
    let machine = presets::vliw(2);
    let prepared = vmv::core::prepare(Benchmark::JpegEnc, &machine).unwrap();
    let schedule = &prepared.compiled.program;
    let (b, earlier, later) = dependent_pairs(schedule)
        .into_iter()
        .find(|&(b, e, _)| {
            let flat: Vec<_> = schedule.blocks[b].bundles.iter().flatten().collect();
            flat[e].opcode.is_store()
        })
        .expect("JPEG_ENC accesses memory after a store");
    let mut swapped = schedule.clone();
    swapped.blocks[b].positions.swap(earlier, later);
    let diags = verify_positions(&swapped, &prepared.lowered);
    let hazard = diags
        .iter()
        .find(|d| d.check == Check::Hazard)
        .unwrap_or_else(|| panic!("{diags:?}"));
    assert_eq!(
        hazard.to_string(),
        "error[hazard] block 'dct_blk_head_11', bundle 23: 'store_b2 r39 r44 #0' runs \
         before 'load_b2_signed r6 r40 #0', which precedes it in source order (store \
         after a memory access)"
    );
}
