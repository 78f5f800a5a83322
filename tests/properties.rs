//! Property-style tests across the crate boundaries: the packed arithmetic,
//! the accumulators and small generated Vector-µSIMD programs must agree
//! with straightforward Rust computations for arbitrary inputs.
//!
//! The inputs are drawn from the workspace's own deterministic PRNG
//! (`vmv_kernels::rng::SmallRng`) instead of an external property-testing
//! crate, so the workspace stays dependency-free.  Every case is seeded, so
//! a failure reproduces exactly.

use vector_usimd_vliw as vmv;
use vmv::isa::packed::{self, Elem, Sat};
use vmv::isa::{Accumulator, ProgramBuilder};
use vmv::kernels::rng::SmallRng;
use vmv::mem::MemoryModel;
use vmv::sim::Simulator;

const CASES: u64 = 64;

fn rand_u64(rng: &mut SmallRng) -> u64 {
    rng.next_u64()
}

fn rand_vec_u8(rng: &mut SmallRng, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

fn rand_vec_i16(rng: &mut SmallRng, n: usize, lo: i64, hi: i64) -> Vec<i16> {
    (0..n).map(|_| rng.gen_range_i64(lo, hi) as i16).collect()
}

#[test]
fn packed_saturating_add_matches_lane_wise_model() {
    let mut rng = SmallRng::seed_from_u64(0x5AD0);
    for case in 0..CASES {
        let a = rand_u64(&mut rng);
        let b = rand_u64(&mut rng);
        let r = packed::padd(Elem::B, Sat::Unsigned, a, b);
        for i in 0..8 {
            let x = packed::lane_u(a, Elem::B, i) as u16;
            let y = packed::lane_u(b, Elem::B, i) as u16;
            assert_eq!(
                packed::lane_u(r, Elem::B, i),
                (x + y).min(255) as u64,
                "case {case}: a={a:#x} b={b:#x} lane {i}"
            );
        }
    }
}

#[test]
fn packed_sad_matches_scalar_sum() {
    let mut rng = SmallRng::seed_from_u64(0x5AD1);
    for case in 0..CASES {
        let a = rand_u64(&mut rng);
        let b = rand_u64(&mut rng);
        let expect: u64 = (0..8)
            .map(|i| {
                let x = packed::lane_u(a, Elem::B, i) as i64;
                let y = packed::lane_u(b, Elem::B, i) as i64;
                (x - y).unsigned_abs()
            })
            .sum();
        assert_eq!(
            packed::psad_u8(a, b),
            expect,
            "case {case}: a={a:#x} b={b:#x}"
        );
    }
}

#[test]
fn pack_unpack_roundtrip() {
    // Widening the low and high halves and packing them back must be the
    // identity on unsigned bytes.
    let mut rng = SmallRng::seed_from_u64(0x5AD2);
    for case in 0..CASES {
        for w in [rand_u64(&mut rng), rand_u64(&mut rng)] {
            let lo = packed::pwiden_lo_u(Elem::B, w);
            let hi = packed::pwiden_hi_u(Elem::B, w);
            assert_eq!(
                packed::ppack(Elem::H, packed::Sign::Unsigned, lo, hi),
                w,
                "case {case}: w={w:#x}"
            );
        }
    }
}

#[test]
fn accumulator_mac_matches_i64_model() {
    let mut rng = SmallRng::seed_from_u64(0x5AD3);
    for case in 0..CASES {
        let a = rand_vec_i16(&mut rng, 4, i16::MIN as i64, i16::MAX as i64);
        let b = rand_vec_i16(&mut rng, 4, i16::MIN as i64, i16::MAX as i64);
        let wa = packed::pack_i16x4([a[0], a[1], a[2], a[3]]);
        let wb = packed::pack_i16x4([b[0], b[1], b[2], b[3]]);
        let mut acc = Accumulator::zero();
        acc.mac_i16(wa, wb);
        let expect: i64 = (0..4).map(|i| a[i] as i64 * b[i] as i64).sum();
        assert_eq!(acc.reduce(), expect, "case {case}: a={a:?} b={b:?}");
    }
}

#[test]
fn simulated_vector_add_matches_rust() {
    let mut rng = SmallRng::seed_from_u64(0x5AD4);
    for case in 0..8 {
        let data_a = rand_vec_u8(&mut rng, 128);
        let data_b = rand_vec_u8(&mut rng, 128);

        let mut b = ProgramBuilder::new("prop_vadd");
        let a_ptr = b.imm(0x1000);
        let b_ptr = b.imm(0x2000);
        let o_ptr = b.imm(0x3000);
        b.setvl(16);
        b.setvs(8);
        let x = b.rv();
        let y = b.rv();
        b.vload(x, a_ptr, 0);
        b.vload(y, b_ptr, 0);
        let s = b.rv();
        b.vadd(Elem::B, Sat::Unsigned, s, x, y);
        b.vstore(o_ptr, 0, s);
        b.halt();
        let program = b.finish();

        let machine = vmv::machine::presets::vector2(2);
        let compiled = vmv::sched::compile(&program, &machine).unwrap();
        let mut sim = Simulator::with_model(&machine, MemoryModel::Perfect);
        sim.mem.write_u8_slice(0x1000, &data_a);
        sim.mem.write_u8_slice(0x2000, &data_b);
        sim.run(&compiled.program).unwrap();
        let out = sim.mem.read_u8_slice(0x3000, 128);
        let expect: Vec<u8> = data_a
            .iter()
            .zip(&data_b)
            .map(|(&p, &q)| p.saturating_add(q))
            .collect();
        assert_eq!(out, expect, "case {case}");
    }
}

#[test]
fn touched_line_closed_forms_match_the_naive_walk() {
    // The memory hierarchy enumerates the cache lines of a constant-stride
    // vector access through closed forms (contiguous range / arithmetic
    // sequence); the naive per-element walk is the retained oracle.  For
    // random base/stride/elems and every realistic line size, the two must
    // produce the same line *set* (the closed forms emit distinct lines in
    // a canonical order; the naive walk dedups in first-touch order).
    use vmv::mem::lines;
    let mut rng = SmallRng::seed_from_u64(0x11E5);
    for case in 0..512 {
        let line = [32u64, 64, 128][rng.gen_range_i64(0, 2) as usize];
        let base = rng.gen_range_i64(0, 1 << 20) as u64;
        let stride = match case % 4 {
            0 => 8,                                     // unit stride
            1 => rng.gen_range_i64(-64, 64),            // small strides (and 0)
            2 => rng.gen_range_i64(1, 8) * line as i64, // line-multiple strides
            _ => rng.gen_range_i64(-2048, 2048),        // arbitrary odd strides
        };
        let elems = rng.gen_range_i64(1, 16) as u32;

        let mut expect = Vec::new();
        lines::collect_naive(base, stride, elems, line, &mut expect);
        let Some(walk) = lines::classify(base, stride, elems, line) else {
            continue; // no closed form: the hierarchy walks `collect_naive`
        };
        let mut scratch = Vec::new();
        walk.for_each(|blk| scratch.push(blk));
        assert_eq!(walk.count() as usize, scratch.len());

        let mut got = scratch.clone();
        got.sort_unstable();
        got.dedup();
        let mut want = expect.clone();
        want.sort_unstable();
        assert_eq!(
            got, want,
            "case {case}: base={base:#x} stride={stride} elems={elems} line={line}"
        );
        assert_eq!(
            scratch.len(),
            expect.len(),
            "case {case}: closed form must emit distinct lines only"
        );
    }
}

#[test]
fn swar_packed_ops_match_the_lanewise_reference() {
    // Every SWAR fast path in vmv_isa::packed against its retained
    // one-lane-at-a-time reference, on random words.
    use vmv::isa::packed::{lanewise, Sign};
    let mut rng = SmallRng::seed_from_u64(0x57A2);
    for case in 0..CASES * 4 {
        let a = rand_u64(&mut rng);
        let b = rand_u64(&mut rng);
        for e in [Elem::B, Elem::H, Elem::W] {
            for sat in [Sat::Wrap, Sat::Signed, Sat::Unsigned] {
                assert_eq!(
                    packed::padd(e, sat, a, b),
                    lanewise::padd(e, sat, a, b),
                    "case {case}: padd {e:?} {sat:?} a={a:#x} b={b:#x}"
                );
                assert_eq!(
                    packed::psub(e, sat, a, b),
                    lanewise::psub(e, sat, a, b),
                    "case {case}: psub {e:?} {sat:?} a={a:#x} b={b:#x}"
                );
            }
            for sign in [Sign::Signed, Sign::Unsigned] {
                assert_eq!(packed::pmin(e, sign, a, b), lanewise::pmin(e, sign, a, b));
                assert_eq!(packed::pmax(e, sign, a, b), lanewise::pmax(e, sign, a, b));
            }
            assert_eq!(packed::pavg_u(e, a, b), lanewise::pavg_u(e, a, b));
            assert_eq!(packed::pabsdiff_u(e, a, b), lanewise::pabsdiff_u(e, a, b));
            assert_eq!(packed::pcmp_eq(e, a, b), lanewise::pcmp_eq(e, a, b));
            assert_eq!(packed::pcmp_gt(e, a, b), lanewise::pcmp_gt(e, a, b));
            let amount = (rng.next_u64() % (e.bits() as u64 + 2)) as u32;
            assert_eq!(
                packed::pshl(e, a, amount),
                lanewise::pshl(e, a, amount),
                "case {case}: pshl {e:?} by {amount}"
            );
            assert_eq!(packed::pshr_l(e, a, amount), lanewise::pshr_l(e, a, amount));
            assert_eq!(packed::pshr_a(e, a, amount), lanewise::pshr_a(e, a, amount));
            assert_eq!(packed::splat(e, a), lanewise::splat(e, a));
        }
        assert_eq!(packed::psad_u8(a, b), lanewise::psad_u8(a, b));
    }
}

#[test]
fn quantisation_is_exact_for_random_coefficients() {
    // The same reciprocal-multiplication quantisation through the
    // reference implementation and through the simulated µSIMD kernel.
    let mut rng = SmallRng::seed_from_u64(0x5AD5);
    for case in 0..8 {
        let coefs = rand_vec_i16(&mut rng, 64, -2000, 1999);
        let recips = vmv::kernels::data::quant_reciprocals(50);
        let expect = vmv::kernels::reference::quantize(&coefs, &recips);

        let mut b = ProgramBuilder::new("prop_quant");
        b.begin_region(1, "quant");
        vmv::kernels::patterns::pixel::emit_quantize(
            &mut b,
            vmv::kernels::IsaVariant::Usimd,
            &vmv::kernels::patterns::pixel::QuantParams {
                coef_addr: 0x1000,
                recip_addr: 0x2000,
                out_addr: 0x3000,
                n: 64,
            },
        );
        b.end_region();
        b.halt();
        let program = b.finish();
        let machine = vmv::machine::presets::usimd(2);
        let compiled = vmv::sched::compile(&program, &machine).unwrap();
        let mut sim = Simulator::with_model(&machine, MemoryModel::Perfect);
        sim.mem.write_i16_slice(0x1000, &coefs);
        sim.mem.write_i16_slice(0x2000, &recips);
        sim.run(&compiled.program).unwrap();
        assert_eq!(sim.mem.read_i16_slice(0x3000, 64), expect, "case {case}");
    }
}
