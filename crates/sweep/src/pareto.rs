//! Pareto analysis: performance (total cycles across the swept benchmarks)
//! against an abstract hardware-cost model, and the frontier of designs no
//! other design beats on both.

use vmv_machine::MachineConfig;

use crate::spec::SweepPoint;
use crate::store::RunRecord;

/// Abstract hardware cost of a configuration, in arbitrary "area units".
///
/// The model only has to be *monotone* in every resource so the Pareto
/// frontier is meaningful — the weights are rough relative areas in the
/// spirit of the paper's argument (§4.2/§6) that a 2-issue vector machine is
/// much cheaper than an 8-issue superscalar of similar media performance:
///
/// * issue slots (decode/bypass grow superlinearly: `0.75·w·log2(w)`),
/// * functional units (int 1, µSIMD 1.5, vector unit 2 plus 0.75 per lane),
/// * cache ports (L1 port 1, L2 vector port 0.5 plus 0.25 per element),
/// * register-file bits (1 unit per 2 Kbit, vector registers at MAX_VL
///   elements of 64 bits),
/// * cache capacity (1 unit per 16 KB of L1, per 64 KB of L2, per 256 KB of
///   L3).
pub fn hardware_cost(m: &MachineConfig) -> f64 {
    let w = m.issue_width as f64;
    let issue = 0.75 * w * w.log2().max(1.0);
    let units = m.int_units as f64
        + 1.5 * m.simd_units as f64
        + m.vector_units as f64 * (2.0 + 0.75 * m.vector_lanes as f64);
    let ports = m.l1_ports as f64 + m.l2_ports as f64 * (0.5 + 0.25 * m.l2_port_elems as f64);
    let reg_bits = (m.regs.int as f64 + m.regs.simd as f64) * 64.0
        + m.regs.vec as f64 * vmv_isa::MAX_VL as f64 * 64.0
        + m.regs.acc as f64 * 128.0;
    let regs = reg_bits / 2048.0;
    let caches = m.memory.l1_size as f64 / (16.0 * 1024.0)
        + m.memory.l2_size as f64 / (64.0 * 1024.0)
        + m.memory.l3_size as f64 / (256.0 * 1024.0);
    issue + units + ports + regs + caches
}

/// One design point in cost/cycles space.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoEntry {
    pub name: String,
    pub cost: f64,
    /// Total cycles across every benchmark recorded for this design.
    pub cycles: u64,
    /// Benchmarks aggregated into `cycles`.
    pub benchmarks: usize,
    pub on_frontier: bool,
}

/// Indices of the non-dominated points of `(cost, cycles)` pairs.  A point
/// is dominated if another is no worse on both axes and strictly better on
/// at least one.
pub fn frontier_indices(points: &[(f64, u64)]) -> Vec<usize> {
    let mut out = Vec::new();
    'candidate: for (i, &(cost_i, cyc_i)) in points.iter().enumerate() {
        for (j, &(cost_j, cyc_j)) in points.iter().enumerate() {
            if i == j {
                continue;
            }
            let no_worse = cost_j <= cost_i && cyc_j <= cyc_i;
            let better = cost_j < cost_i || cyc_j < cyc_i;
            if no_worse && better {
                continue 'candidate;
            }
        }
        out.push(i);
    }
    out
}

/// Aggregate records per design point and mark the Pareto frontier.
/// Records are joined to points by their content-derived run key (never by
/// display name), so records written under older point names still count;
/// duplicate keys (e.g. `cat`-merged shard files) count once; records whose
/// keys match none of `points` are ignored.
/// Entries are sorted by cost ascending (ties by name) so the frontier
/// reads as a cost/performance curve.  Only points with at least one
/// *functionally correct* record participate; a point missing some
/// benchmarks still appears (its `benchmarks` count says how many) but is
/// never marked `on_frontier` — its cycle total is incomparable to fully
/// measured points, so the frontier is computed only over the points with
/// the maximum benchmark coverage.
pub fn pareto_report(points: &[SweepPoint], records: &[RunRecord]) -> Vec<ParetoEntry> {
    let mut cycles = vec![0u64; points.len()];
    let mut benchmarks = vec![0usize; points.len()];
    for (i, r) in crate::store::matched_records(points, records) {
        cycles[i] += r.cycles;
        benchmarks[i] += 1;
    }
    let mut entries: Vec<ParetoEntry> = Vec::new();
    for (i, p) in points.iter().enumerate() {
        if benchmarks[i] > 0 {
            entries.push(ParetoEntry {
                name: p.name.clone(),
                cost: hardware_cost(&p.machine),
                cycles: cycles[i],
                benchmarks: benchmarks[i],
                on_frontier: false,
            });
        }
    }
    // Only fully measured points compete for the frontier: a point that
    // failed some benchmarks has an artificially low cycle total.
    let full_coverage = entries.iter().map(|e| e.benchmarks).max().unwrap_or(0);
    let complete: Vec<usize> = (0..entries.len())
        .filter(|&i| entries[i].benchmarks == full_coverage)
        .collect();
    let coords: Vec<(f64, u64)> = complete
        .iter()
        .map(|&i| (entries[i].cost, entries[i].cycles))
        .collect();
    for i in frontier_indices(&coords) {
        entries[complete[i]].on_frontier = true;
    }
    entries.sort_by(|a, b| {
        a.cost
            .partial_cmp(&b.cost)
            .unwrap()
            .then_with(|| a.name.cmp(&b.name))
    });
    entries
}

/// Render the report as a text table ("*" marks the frontier).
pub fn render_pareto(entries: &[ParetoEntry], max_rows: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<2} {:<40} {:>10} {:>14} {:>7}\n",
        "", "design point", "cost", "cycles", "benchs"
    ));
    let frontier = entries.iter().filter(|e| e.on_frontier).count();
    for e in entries.iter().take(max_rows) {
        out.push_str(&format!(
            "{:<2} {:<40} {:>10.1} {:>14} {:>7}\n",
            if e.on_frontier { "*" } else { "" },
            e.name,
            e.cost,
            e.cycles,
            e.benchmarks
        ));
    }
    if entries.len() > max_rows {
        out.push_str(&format!("   ... {} more rows\n", entries.len() - max_rows));
    }
    out.push_str(&format!(
        "{} design points, {} on the cost/cycles Pareto frontier\n",
        entries.len(),
        frontier
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmv_machine::presets;

    #[test]
    fn frontier_on_a_hand_built_set() {
        // (cost, cycles): A(1,100) B(2,90) C(2,80) D(3,80) E(0.5,200)
        // A: nothing cheaper&faster -> frontier.
        // B: dominated by C (same cost, fewer cycles).
        // C: frontier.  D: dominated by C (cheaper, same cycles).
        // E: cheapest -> frontier.
        let pts = vec![(1.0, 100u64), (2.0, 90), (2.0, 80), (3.0, 80), (0.5, 200)];
        assert_eq!(frontier_indices(&pts), vec![0, 2, 4]);
    }

    #[test]
    fn duplicate_points_both_survive() {
        // Identical coordinates dominate each other weakly but not strictly.
        let pts = vec![(1.0, 100u64), (1.0, 100)];
        assert_eq!(frontier_indices(&pts), vec![0, 1]);
    }

    #[test]
    fn cost_model_is_monotone_in_resources() {
        let base = presets::vector1(2);
        let cost = hardware_cost(&base);
        let mut more_lanes = base.clone();
        more_lanes.vector_lanes = 8;
        let mut more_cache = base.clone();
        more_cache.memory.l2_size *= 2;
        let mut wider = presets::vector1(4);
        wider.vector_units = base.vector_units;
        assert!(hardware_cost(&more_lanes) > cost);
        assert!(hardware_cost(&more_cache) > cost);
        assert!(hardware_cost(&wider) > cost);
        // The paper's cost argument: 2-issue Vector2 is far cheaper than an
        // 8-issue µSIMD machine.
        assert!(hardware_cost(&presets::vector2(2)) < hardware_cost(&presets::usimd(8)));
    }

    #[test]
    fn report_aggregates_and_sorts_by_cost() {
        use crate::spec::expand_axes;
        use crate::specfile::AxisSpec;
        use crate::store::run_key;
        use vmv_kernels::Benchmark;

        let points = expand_axes(vec![AxisSpec::VectorUnits(vec![1, 2])]).points;
        let mut records = Vec::new();
        for (i, p) in points.iter().enumerate() {
            for bench in [Benchmark::GsmDec, Benchmark::GsmEnc] {
                records.push(RunRecord {
                    key: run_key(
                        bench,
                        vmv_core::variant_for(&p.machine),
                        &p.machine,
                        p.model,
                    ),
                    // Records are joined by key, so an outdated display
                    // name must not matter.
                    config: format!("old-name-{i}"),
                    benchmark: bench.name().to_string(),
                    variant: "vector".to_string(),
                    model: "Realistic".to_string(),
                    cycles: 1000 * (i as u64 + 1),
                    stall_cycles: 0,
                    operations: 10,
                    micro_ops: 40,
                    vector_cycles: 500,
                    check_ok: true,
                });
            }
        }
        // A duplicate key (merged shard files) must count once, and a
        // record whose key matches no point must be ignored.
        records.push(records[0].clone());
        records.push(RunRecord {
            key: "0000000000000000".to_string(),
            cycles: 1_000_000,
            ..records[0].clone()
        });
        // A failed-check record must not contribute either.
        records.push(RunRecord {
            check_ok: false,
            cycles: 1,
            ..records[2].clone()
        });
        let report = pareto_report(&points, &records);
        assert_eq!(report.len(), 2);
        assert!(report[0].cost < report[1].cost);
        assert_eq!(
            report.iter().map(|e| e.cycles).collect::<Vec<_>>(),
            vec![2000, 4000]
        );
        assert!(report.iter().all(|e| e.benchmarks == 2));
        // Cheap-and-fast here: vu1 dominates vu2 (frontier of one).
        assert!(report[0].on_frontier);
        assert!(!report[1].on_frontier);

        // A partially measured point (one benchmark missing) must never win
        // the frontier on its artificially low total, even when cheaper.
        // records[1..4] = point 0's GSM_ENC only, plus both of point 1's.
        let partial = pareto_report(&points, &records[1..4]);
        assert_eq!(partial[0].benchmarks, 1, "vu1 lost its GSM_DEC record");
        assert!(
            !partial[0].on_frontier,
            "incomplete point must not dominate"
        );
        assert!(partial[1].on_frontier, "the fully measured point wins");
    }
}
