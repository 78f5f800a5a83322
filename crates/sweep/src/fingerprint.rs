//! Canonical, content-derived fingerprints of machine configurations.
//!
//! Three textual fingerprints exist in the crate:
//!
//! * the **schedule fingerprint** covers every field the static scheduler
//!   can read (ISA family, issue width, functional units, lanes, cache
//!   ports, register files, operation latencies, chaining).  It is a
//!   component of the full fingerprint, so run keys depend on it.  The
//!   compile key ([`crate::CompileCache::key_for`]) is the schedule
//!   fingerprint of the machine's ISA-visible view
//!   ([`vmv_machine::MachineConfig::schedule_view`]), which leaves out the
//!   fields no operation of the machine's ISA family reads;
//! * the **full fingerprint** additionally covers the memory-hierarchy
//!   parameters — together with benchmark, variant and memory model it
//!   derives the stable run key of the result store;
//! * the **spec fingerprint** ([`crate::specfile::SpecFile::fingerprint`])
//!   hashes a whole experiment definition (canonical axes + constraints)
//!   via the same [`fnv1a64`] — the identity a result store's header line
//!   carries.
//!
//! The configuration *name* is deliberately excluded from both: renaming a
//! configuration must never change what is cached or re-run.

use vmv_machine::{IsaSupport, MachineConfig};

fn isa_tag(isa: IsaSupport) -> &'static str {
    match isa {
        IsaSupport::Vliw => "vliw",
        IsaSupport::Usimd => "usimd",
        IsaSupport::Vector => "vector",
    }
}

/// The schedule-relevant machine fields as a canonical string.
pub fn schedule_fingerprint(m: &MachineConfig) -> String {
    let l = &m.latencies;
    format!(
        "isa={};iw={};iu={};su={};vu={};lanes={};l1p={};l2p={};l2pe={};\
         regs={},{},{},{};lat={},{},{},{},{},{},{},{},{},{},{};chain={}",
        isa_tag(m.isa),
        m.issue_width,
        m.int_units,
        m.simd_units,
        m.vector_units,
        m.vector_lanes,
        m.l1_ports,
        m.l2_ports,
        m.l2_port_elems,
        m.regs.int,
        m.regs.simd,
        m.regs.vec,
        m.regs.acc,
        l.int_alu,
        l.int_mul,
        l.int_div,
        l.load_l1,
        l.store,
        l.branch,
        l.simd_alu,
        l.simd_mul,
        l.vec_alu,
        l.vec_mul,
        l.vec_mem,
        m.chaining,
    )
}

/// Schedule fingerprint plus the memory-hierarchy parameters.
pub fn full_fingerprint(m: &MachineConfig) -> String {
    let mem = &m.memory;
    format!(
        "{};mem=l1:{},{},{},{};l2:{},{},{},{},{};l3:{},{},{},{};dram:{}",
        schedule_fingerprint(m),
        mem.l1_size,
        mem.l1_assoc,
        mem.l1_line,
        mem.l1_latency,
        mem.l2_size,
        mem.l2_assoc,
        mem.l2_line,
        mem.l2_latency,
        mem.l2_banks,
        mem.l3_size,
        mem.l3_assoc,
        mem.l3_line,
        mem.l3_latency,
        mem.mem_latency,
    )
}

/// 64-bit FNV-1a hash, the stable content hash behind run keys.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in data {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmv_machine::presets;

    #[test]
    fn name_does_not_affect_fingerprints() {
        let a = presets::vector2(2);
        let mut b = a.clone();
        b.name = "renamed".to_string();
        assert_eq!(schedule_fingerprint(&a), schedule_fingerprint(&b));
        assert_eq!(full_fingerprint(&a), full_fingerprint(&b));
    }

    #[test]
    fn memory_parameters_only_affect_the_full_fingerprint() {
        let a = presets::vector2(2);
        let mut b = a.clone();
        b.memory.l2_size *= 2;
        b.memory.mem_latency = 100;
        assert_eq!(schedule_fingerprint(&a), schedule_fingerprint(&b));
        assert_ne!(full_fingerprint(&a), full_fingerprint(&b));
    }

    #[test]
    fn schedule_relevant_fields_change_the_schedule_fingerprint() {
        let a = presets::vector2(2);
        for mutate in [
            (|m: &mut vmv_machine::MachineConfig| m.vector_lanes = 8) as fn(&mut _),
            |m| m.issue_width = 4,
            |m| m.latencies.vec_mem = 9,
            |m| m.chaining = false,
            |m| m.regs.vec = 64,
        ] {
            let mut b = a.clone();
            mutate(&mut b);
            assert_ne!(schedule_fingerprint(&a), schedule_fingerprint(&b));
        }
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned: a silent change to the hash would orphan existing stores.
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
