//! Per-axis sensitivity: how much does each swept axis move performance,
//! holding every other axis fixed?
//!
//! For an axis `A`, the records are grouped by `(benchmark, all labels
//! except A's)`.  Within each group the configurations differ only in `A`,
//! so `max(cycles) / min(cycles)` is the swing attributable to `A` for that
//! slice of the design space.  The summary reports the mean and worst swing
//! across groups — the axes that matter most for the workload rise to the
//! top.

use std::collections::BTreeMap;

use crate::spec::SweepPoint;
use crate::store::RunRecord;

/// Sensitivity summary of one axis.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisSensitivity {
    pub axis: String,
    /// Groups with at least two distinct values of this axis.
    pub groups: usize,
    /// Mean of max/min cycle ratios across groups (1.0 = no effect).
    pub mean_swing: f64,
    /// Largest max/min cycle ratio seen in any group.
    pub max_swing: f64,
}

/// Compute the per-axis sensitivity of `records` over the design `points`.
/// Axes are returned sorted by `mean_swing` descending.  Failed-check
/// records are excluded.  Records are joined to points by their
/// content-derived run key (never by display name); duplicate keys count
/// once and unmatched records are ignored, as in
/// [`crate::pareto::pareto_report`].
pub fn sensitivity(points: &[SweepPoint], records: &[RunRecord]) -> Vec<AxisSensitivity> {
    let axes: Vec<String> = match points.first() {
        Some(p) => p.labels.iter().map(|(a, _)| a.clone()).collect(),
        None => return Vec::new(),
    };

    // Join each record to its point index (shared policy: content-keyed,
    // failed checks dropped, duplicate keys count once).
    let matched = crate::store::matched_records(points, records);

    let mut out = Vec::new();
    for axis in &axes {
        // group key -> cycles of the group's members.
        let mut groups: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for &(i, r) in &matched {
            let mut key = format!("bench={}", r.benchmark);
            for (a, v) in points[i].labels.iter() {
                if a != axis {
                    key.push_str(&format!(";{a}={v}"));
                }
            }
            groups.entry(key).or_default().push(r.cycles);
        }
        let mut swings = Vec::new();
        for cycles in groups.values() {
            if cycles.len() < 2 {
                continue;
            }
            let max = *cycles.iter().max().unwrap() as f64;
            let min = *cycles.iter().min().unwrap() as f64;
            if min > 0.0 {
                swings.push(max / min);
            }
        }
        if swings.is_empty() {
            continue;
        }
        let mean = swings.iter().sum::<f64>() / swings.len() as f64;
        let max = swings.iter().cloned().fold(f64::MIN, f64::max);
        out.push(AxisSensitivity {
            axis: axis.clone(),
            groups: swings.len(),
            mean_swing: mean,
            max_swing: max,
        });
    }
    out.sort_by(|a, b| b.mean_swing.partial_cmp(&a.mean_swing).unwrap());
    out
}

/// Render the summary as a text table.
pub fn render_sensitivity(rows: &[AxisSensitivity]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>8} {:>12} {:>12}\n",
        "axis", "groups", "mean swing", "max swing"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:>8} {:>11.3}x {:>11.3}x\n",
            r.axis, r.groups, r.mean_swing, r.max_swing
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::expand_axes;
    use crate::specfile::AxisSpec;

    #[test]
    fn detects_the_axis_that_drives_cycles() {
        // lanes ∈ {1, 4} doubles performance; dram ∈ {100, 500} does nothing
        // (synthetic records).
        let points = expand_axes(vec![
            AxisSpec::VectorLanes(vec![1, 4]),
            AxisSpec::MemLatency(vec![100, 500]),
        ])
        .points;
        let mut records = Vec::new();
        for p in &points {
            let lanes = p.machine.vector_lanes;
            records.push(RunRecord {
                key: crate::store::run_key(
                    vmv_kernels::Benchmark::GsmDec,
                    vmv_core::variant_for(&p.machine),
                    &p.machine,
                    p.model,
                ),
                config: p.name.clone(),
                benchmark: "GSM_DEC".to_string(),
                variant: "vector".to_string(),
                model: "Realistic".to_string(),
                cycles: if lanes == 1 { 2000 } else { 1000 },
                stall_cycles: 0,
                operations: 1,
                micro_ops: 1,
                vector_cycles: 0,
                check_ok: true,
            });
        }
        let s = sensitivity(&points, &records);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].axis, "vector_lanes");
        assert!((s[0].mean_swing - 2.0).abs() < 1e-9);
        assert_eq!(s[0].groups, 2, "one group per dram value");
        assert_eq!(s[1].axis, "mem_latency");
        assert!((s[1].mean_swing - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs_are_safe() {
        assert!(sensitivity(&[], &[]).is_empty());
        let points = expand_axes(vec![AxisSpec::VectorLanes(vec![1, 2])]).points;
        assert!(sensitivity(&points, &[]).is_empty());
    }
}
