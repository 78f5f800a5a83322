//! Expansion of a lowered sweep spec into named, deduplicated design
//! points: the cartesian product of its machine axes, filtered by its
//! constraints.
//!
//! Each axis value applies itself to a draft machine (`Draft`) — the
//! structural machine parameters ([`GenParams`]), the memory-hierarchy
//! parameters, the latency table and the memory model.  Structural axes (ISA, issue width, vector
//! units, lanes, port width) feed the Table 2 scaling rules of
//! [`vmv_machine::gen`], so dependent resources (register files, cache
//! ports, functional units) stay consistent at every point — the sweep
//! explores *plausible* machines, not arbitrary field combinations.  The
//! axes, their labels and their constraints are the data of
//! [`crate::specfile`]; a [`SweepSpec`] only comes from
//! [`SpecFile::lower`](crate::specfile::SpecFile::lower).

use std::collections::HashSet;

use vmv_machine::{gen, GenParams, LatencyTable, MachineConfig, MemoryParams};
use vmv_mem::MemoryModel;

use crate::fingerprint::full_fingerprint;
use crate::specfile::{AxisSpec, ConstraintSpec};

/// The mutable state an axis value applies itself to.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Draft {
    pub gen: GenParams,
    pub memory: MemoryParams,
    pub latencies: LatencyTable,
    pub model: MemoryModel,
}

impl Default for Draft {
    fn default() -> Self {
        Draft {
            gen: GenParams::default(),
            memory: MemoryParams::default(),
            latencies: LatencyTable::default(),
            model: MemoryModel::Realistic,
        }
    }
}

/// One expanded design point: a concrete machine, a memory model, and the
/// axis labels it was built from.
#[derive(Clone)]
pub struct SweepPoint {
    /// Stable human-readable name ("vector/4w/vu2/ln4/…").
    pub name: String,
    pub machine: MachineConfig,
    pub model: MemoryModel,
    /// `(axis name, value label)` in axis order, for sensitivity analysis.
    pub labels: Vec<(String, String)>,
}

/// Summary of an expansion: the surviving points plus what was filtered.
pub struct Expansion {
    pub points: Vec<SweepPoint>,
    /// Raw cartesian-product size before constraints and deduplication.
    pub raw: usize,
    /// Points rejected by a constraint predicate.
    pub rejected: usize,
    /// Points dropped because an identical (machine, model) already existed.
    pub duplicates: usize,
}

/// The machine half of a validated spec file: its machine axes in
/// declaration order (axes apply in that order; later axes win when two
/// touch the same field) and its constraints.  Every axis not declared
/// keeps the default draft's value: the paper's 2-issue Vector1 machine
/// under the realistic memory model.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    pub(crate) axes: Vec<AxisSpec>,
    pub(crate) constraints: Vec<ConstraintSpec>,
}

impl SweepSpec {
    /// Number of points the cartesian product would produce before
    /// constraints and deduplication: at most
    /// [`MAX_RAW_POINTS`](crate::specfile::MAX_RAW_POINTS), which lowering
    /// enforces.
    pub fn raw_size(&self) -> usize {
        self.axes.iter().map(AxisSpec::len).product()
    }

    /// Expand the cartesian product into named, deduplicated, constraint-
    /// filtered design points.  Expansion is deterministic: points appear in
    /// odometer order over the axes as declared.
    pub fn expand(&self) -> Expansion {
        let raw = self.raw_size();
        let mut points = Vec::new();
        let mut seen: HashSet<String> = HashSet::new();
        let mut rejected = 0usize;
        let mut duplicates = 0usize;
        // Each value's label is formatted once, not once per point.
        let labels: Vec<Vec<String>> = self.axes.iter().map(AxisSpec::labels).collect();

        // Odometer over axis value indices (last axis spins fastest).
        let mut idx = vec![0usize; self.axes.len()];
        'outer: loop {
            let mut draft = Draft::default();
            let mut point_labels = Vec::with_capacity(self.axes.len());
            for ((axis, values), &i) in self.axes.iter().zip(&labels).zip(&idx) {
                axis.apply(i, &mut draft);
                point_labels.push((axis.name().to_string(), values[i].clone()));
            }

            // Memory axes feed the generator so geometry travels with the
            // structural parameters; latency overrides apply on top.
            draft.gen.memory = draft.memory;
            let mut machine = gen::generate(&draft.gen);
            machine.latencies = draft.latencies;
            let name = if point_labels.is_empty() {
                machine.name.clone()
            } else {
                point_labels
                    .iter()
                    .map(|(_, l)| l.as_str())
                    .collect::<Vec<_>>()
                    .join("/")
            };
            machine.name = name.clone();

            if self.constraints.iter().all(|c| c.admits(&machine)) {
                let fingerprint = format!("{}|{:?}", full_fingerprint(&machine), draft.model);
                if seen.insert(fingerprint) {
                    points.push(SweepPoint {
                        name,
                        machine,
                        model: draft.model,
                        labels: point_labels,
                    });
                } else {
                    duplicates += 1;
                }
            } else {
                rejected += 1;
            }

            // Advance the odometer.
            for pos in (0..idx.len()).rev() {
                idx[pos] += 1;
                if idx[pos] < self.axes[pos].len() {
                    continue 'outer;
                }
                idx[pos] = 0;
            }
            break;
        }
        Expansion {
            points,
            raw,
            rejected,
            duplicates,
        }
    }
}

/// Deterministic shard assignment for distributed sweeps: keep every design
/// point whose index in the deduplicated expansion is congruent to `shard`
/// modulo `count`.  Expansion order is deterministic (odometer order), so
/// separate machines running the same spec with `--shard 0/4 … 3/4` produce
/// disjoint, collectively exhaustive point sets whose result files compose
/// with `merge_from` / `sweep --merge`.
pub fn shard_points(points: &[SweepPoint], shard: usize, count: usize) -> Vec<SweepPoint> {
    assert!(count >= 1, "shard count must be at least 1");
    assert!(shard < count, "shard index {shard} out of range 0..{count}");
    points
        .iter()
        .enumerate()
        .filter(|(i, _)| i % count == shard)
        .map(|(_, p)| p.clone())
        .collect()
}

/// Parse an `I/N` shard assignment with `0 <= I < N` — the one parser behind
/// the CLI `--shard` flag and the spec-file `defaults.shard` field.
pub fn parse_shard(s: &str) -> Result<(usize, usize), String> {
    let err = || format!("expected a shard assignment I/N with 0 <= I < N, got '{s}'");
    let (i, n) = s.split_once('/').ok_or_else(err)?;
    let i: usize = i.trim().parse().map_err(|_| err())?;
    let n: usize = n.trim().parse().map_err(|_| err())?;
    if n >= 1 && i < n {
        Ok((i, n))
    } else {
        Err(err())
    }
}

/// Expand `axes` with no constraints, as a spec file declaring them would.
#[cfg(test)]
pub(crate) fn expand_axes(axes: Vec<AxisSpec>) -> Expansion {
    let spec = crate::specfile::SpecFile {
        name: "test".to_string(),
        axes,
        constraints: Vec::new(),
        defaults: Default::default(),
    };
    spec.lower().expect("valid axes").spec.expand()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane_axes() -> Vec<AxisSpec> {
        vec![
            AxisSpec::IssueWidth(vec![2, 4]),
            AxisSpec::VectorUnits(vec![1, 2]),
            AxisSpec::VectorLanes(vec![2, 4, 8]),
        ]
    }

    #[test]
    fn expansion_is_the_cartesian_product() {
        let e = expand_axes(lane_axes());
        assert_eq!(e.raw, 2 * 2 * 3);
        assert_eq!(e.points.len(), 12);
        assert_eq!(e.rejected, 0);
        assert_eq!(e.duplicates, 0);
        // Odometer order: last axis fastest.
        assert_eq!(e.points[0].name, "2w/vu1/ln2");
        assert_eq!(e.points[1].name, "2w/vu1/ln4");
        assert_eq!(e.points[11].name, "4w/vu2/ln8");
        // Structural scaling applied: the 4-issue points get Table 2's
        // larger register files.
        assert_eq!(e.points[0].machine.regs.vec, 20);
        assert_eq!(e.points[11].machine.regs.vec, 32);
    }

    #[test]
    fn names_are_unique_and_labels_match_axes() {
        let e = expand_axes(lane_axes());
        let names: HashSet<_> = e.points.iter().map(|p| p.name.clone()).collect();
        assert_eq!(names.len(), e.points.len());
        for p in &e.points {
            assert_eq!(p.labels.len(), 3);
            assert_eq!(p.labels[0].0, "issue_width");
            assert_eq!(p.labels[2].0, "vector_lanes");
        }
    }

    #[test]
    fn constraints_filter_points() {
        let spec = crate::specfile::SpecFile {
            name: "budget".to_string(),
            axes: lane_axes(),
            constraints: vec![ConstraintSpec::LaneBudget { max: 4 }],
            defaults: Default::default(),
        };
        let e = spec.lower().unwrap().spec.expand();
        // Surviving combos: vu1×{2,4}, vu2×{2} per width.
        assert_eq!(e.points.len(), 2 * 3);
        assert_eq!(e.rejected, 12 - 6);
        assert!(e
            .points
            .iter()
            .all(|p| p.machine.vector_units as u32 * p.machine.vector_lanes <= 4));
    }

    #[test]
    fn identical_configurations_are_deduplicated() {
        // Lanes do not exist on a scalar VLIW machine: every lane value
        // produces the same machine, so only the first survives.
        let e = expand_axes(vec![
            AxisSpec::Isa(vec![vmv_machine::IsaSupport::Vliw]),
            AxisSpec::VectorLanes(vec![2, 4, 8]),
        ]);
        assert_eq!(e.raw, 3);
        assert_eq!(e.points.len(), 1);
        assert_eq!(e.duplicates, 2);
    }

    #[test]
    fn memory_axes_do_not_change_the_schedule_relevant_fields() {
        let e = expand_axes(vec![
            AxisSpec::L2Size(vec![128 * 1024, 256 * 1024]),
            AxisSpec::MemLatency(vec![100, 500]),
        ]);
        assert_eq!(e.points.len(), 4);
        let first = crate::fingerprint::schedule_fingerprint(&e.points[0].machine);
        for p in &e.points {
            assert_eq!(crate::fingerprint::schedule_fingerprint(&p.machine), first);
        }
    }

    #[test]
    fn cache_geometry_axes_vary_memory_without_touching_the_schedule() {
        let e = expand_axes(vec![
            AxisSpec::L1Assoc(vec![2, 4]),
            AxisSpec::L2Assoc(vec![4, 8]),
            AxisSpec::L1Line(vec![32, 64]),
            AxisSpec::L2Line(vec![64, 128]),
            AxisSpec::L2Banks(vec![2, 4]),
        ]);
        assert_eq!(e.points.len(), 32);
        assert_eq!(e.duplicates, 0, "every geometry must be a distinct point");
        let schedule = crate::fingerprint::schedule_fingerprint(&e.points[0].machine);
        let mut geometries = HashSet::new();
        for p in &e.points {
            assert_eq!(
                crate::fingerprint::schedule_fingerprint(&p.machine),
                schedule,
                "geometry axes must never force a reschedule"
            );
            let m = &p.machine.memory;
            geometries.insert((m.l1_assoc, m.l2_assoc, m.l1_line, m.l2_line, m.l2_banks));
        }
        assert_eq!(geometries.len(), 32);
        assert_eq!(e.points[0].labels[0].0, "l1_assoc");
        assert_eq!(e.points[0].labels[4].0, "l2_banks");
    }

    #[test]
    fn geometry_axes_travel_through_the_generator() {
        // The memory parameters reach gen::generate itself, so a direct
        // GenParams user sees the same machine as the sweep expansion.
        let e = expand_axes(vec![AxisSpec::L2Banks(vec![8]), AxisSpec::L1Line(vec![64])]);
        let from_spec = &e.points[0].machine;
        let mut params = vmv_machine::GenParams::default();
        params.memory.l2_banks = 8;
        params.memory.l1_line = 64;
        let direct = gen::generate(&params);
        assert_eq!(direct.memory, from_spec.memory);
        assert_eq!(direct.memory.l2_banks, 8);
    }

    #[test]
    fn chaining_axis_toggles_the_schedule_relevant_flag() {
        let e = expand_axes(vec![AxisSpec::Chaining(vec![true, false])]);
        assert_eq!(e.points.len(), 2);
        assert!(e.points[0].machine.chaining);
        assert!(!e.points[1].machine.chaining);
        assert_eq!(e.points[0].name, "chain");
        assert_eq!(e.points[1].name, "nochain");
        // Chaining changes what the scheduler may overlap, so the two points
        // must not share a compile-cache entry.
        assert_ne!(
            crate::fingerprint::schedule_fingerprint(&e.points[0].machine),
            crate::fingerprint::schedule_fingerprint(&e.points[1].machine)
        );
    }

    #[test]
    fn shards_partition_the_expansion() {
        let points = expand_axes(lane_axes()).points;
        let n = 3;
        let mut union: Vec<String> = Vec::new();
        let mut sizes = Vec::new();
        for shard in 0..n {
            let part = shard_points(&points, shard, n);
            sizes.push(part.len());
            union.extend(part.iter().map(|p| p.name.clone()));
        }
        // Disjoint and collectively exhaustive, in deterministic order.
        let all: Vec<String> = points.iter().map(|p| p.name.clone()).collect();
        let mut sorted_union = union.clone();
        sorted_union.sort();
        let mut sorted_all = all.clone();
        sorted_all.sort();
        assert_eq!(sorted_union, sorted_all);
        assert_eq!(union.len(), points.len());
        // Balanced to within one point.
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        // Deterministic: same call, same result.
        assert_eq!(
            shard_points(&points, 1, n)
                .iter()
                .map(|p| p.name.clone())
                .collect::<Vec<_>>(),
            shard_points(&points, 1, n)
                .iter()
                .map(|p| p.name.clone())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic]
    fn shard_index_out_of_range_panics() {
        let points = expand_axes(lane_axes()).points;
        shard_points(&points, 2, 2);
    }

    #[test]
    fn empty_spec_expands_to_the_default_draft() {
        let e = expand_axes(Vec::new());
        assert_eq!(e.points.len(), 1);
        assert_eq!(e.points[0].model, MemoryModel::Realistic);
        assert_eq!(e.points[0].machine.vector_units, 1);
    }
}
