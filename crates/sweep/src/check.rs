//! Spec-file lint and pre-flight checking (`sweep --check`, `verify --spec`):
//! parse + expand + compile + certify, without executing a single cycle.
//!
//! The lint pass reports spec mistakes the parser cannot see — constraint
//! sets that reject every design point, cache geometries the memory model
//! cannot build, axis values that survive no constraint (dead weight in the
//! file), and expansions that collapse onto duplicate machines.  The check
//! pass then compiles every distinct
//! schedule the spec can reach and certifies each with the static verifier
//! (`vmv_verify::verify_compiled`), so a checked-in spec is known to
//! execute before any sweep time is spent on it.

use std::collections::{HashMap, HashSet};

use vmv_core::ProgramRunner;
use vmv_mem::geometry_error;
use vmv_verify::{has_errors, Check, Diagnostic};

use crate::cache::{compile, CompileCache};
use crate::spec::SweepPoint;
use crate::specfile::{AxisSpec, SpecFile};

/// Outcome of [`check_spec`].
pub struct SpecCheck {
    /// Lint findings plus any compile/certification failures.
    pub diagnostics: Vec<Diagnostic>,
    /// Design points the spec expands to (after constraints and dedup).
    pub points: usize,
    /// Distinct schedules compiled and certified.
    pub schedules: usize,
}

/// Lint a spec file without compiling anything.  Every cache geometry a
/// design point would build must pass [`geometry_error`]: each distinct
/// rejected geometry is one error naming the first point that uses it.
/// The spec is expanded twice — once as declared and once with the constraints stripped — and
/// every declared axis value is checked for *liveness*: a value that
/// survives in no design point is either **dead** (the constraints reject
/// every point using it) or **redundant** (every point using it collapses
/// onto a point of an earlier value, e.g. a `vector_lanes` axis on a
/// scalar-only sweep).  A value that is merely redundant *under some*
/// settings of the other axes (the idiomatic cross-ISA sweep) still
/// survives somewhere and is not flagged — the expansion's silent
/// deduplication exists precisely for that shape.
pub fn lint(spec: &SpecFile) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let lowered = match spec.lower() {
        Ok(l) => l,
        Err(e) => {
            diags.push(Diagnostic::error(Check::Spec, "spec", e.to_string()));
            return diags;
        }
    };
    let expansion = lowered.spec.expand();
    if expansion.points.is_empty() {
        diags.push(Diagnostic::error(
            Check::Spec,
            "constraints",
            format!(
                "the constraints reject all {} design points; the sweep is unsatisfiable",
                expansion.raw
            ),
        ));
        return diags;
    }
    diags.extend(geometry_errors(&expansion.points));

    // Labels that survive in the constrained expansion, and in the
    // constraint-free universe (to tell "dead" apart from "redundant").
    let live: HashSet<&(String, String)> = expansion
        .points
        .iter()
        .flat_map(|p| p.labels.iter())
        .collect();
    let universe_points = if spec.constraints.is_empty() {
        Vec::new()
    } else {
        let mut unconstrained = spec.clone();
        unconstrained.constraints.clear();
        match unconstrained.lower() {
            Ok(l) => l.spec.expand().points,
            Err(_) => Vec::new(),
        }
    };
    let universe_live: HashSet<&(String, String)> = universe_points
        .iter()
        .flat_map(|p| p.labels.iter())
        .collect();

    for (k, axis) in spec.axes.iter().enumerate() {
        if let AxisSpec::Benchmarks(_) = axis {
            continue; // the benchmarks pseudo-axis selects jobs, not machines
        }
        let name = axis.name();
        for label in axis.labels() {
            let key = (name.to_string(), label);
            if live.contains(&key) {
                continue;
            }
            let label = &key.1;
            let message = if universe_live.contains(&key) {
                format!(
                    "value '{label}' of axis '{name}' is dead: every design point \
                     using it is rejected by the constraints"
                )
            } else {
                format!(
                    "value '{label}' of axis '{name}' is redundant: every design point \
                     using it duplicates a point of an earlier value"
                )
            };
            diags.push(Diagnostic::warning(
                Check::Spec,
                format!("axes[{k}]"),
                message,
            ));
        }
    }
    diags
}

/// One error per distinct `(level, size, ways, line)` cache geometry that
/// `points` would build and the cache model rejects, naming the first point
/// that uses it.
fn geometry_errors(points: &[SweepPoint]) -> Vec<Diagnostic> {
    let mut seen = HashSet::new();
    let mut diags = Vec::new();
    for point in points {
        let m = &point.machine.memory;
        for (level, size, ways, line) in [
            ("L1", m.l1_size, m.l1_assoc, m.l1_line),
            ("L2", m.l2_size, m.l2_assoc, m.l2_line),
            ("L3", m.l3_size, m.l3_assoc, m.l3_line),
        ] {
            let Some(why) = geometry_error(size, ways, line) else {
                continue;
            };
            if seen.insert((level, size, ways, line)) {
                diags.push(Diagnostic::error(
                    Check::Spec,
                    format!("point '{}'", point.name),
                    format!(
                        "the {level} cache ({size} B, {ways}-way, {line} B lines) \
                         cannot be built: {why}"
                    ),
                ));
            }
        }
    }
    diags
}

/// Lint a spec, then, unless the lint found an error, compile and certify
/// every distinct schedule it can reach — one compile per
/// [`CompileCache::key_for`] key, on the first point that reaches it,
/// exactly as a real sweep would share them.  Each program is built and
/// analysed once, through one [`ProgramRunner`] per `(benchmark, ISA
/// variant)`, and each schedule is dropped as soon as it is certified.
pub fn check_spec(spec: &SpecFile) -> SpecCheck {
    let mut diagnostics = lint(spec);
    let mut points = 0;
    let mut schedules = 0;
    if let Ok(lowered) = spec.lower() {
        let expansion = lowered.spec.expand();
        points = expansion.points.len();
        if !has_errors(&diagnostics) {
            let mut seen = HashSet::new();
            let mut runners = HashMap::new();
            for point in &expansion.points {
                for &benchmark in &lowered.benchmarks {
                    let key = CompileCache::key_for(benchmark, &point.machine);
                    let program = (key.0, key.1);
                    if !seen.insert(key) {
                        continue;
                    }
                    let runner = runners
                        .entry(program)
                        .or_insert_with(|| ProgramRunner::new(program.0, program.1, 0));
                    if let Err(e) = compile(runner, &point.machine, true) {
                        diagnostics.push(Diagnostic::error(
                            Check::Spec,
                            format!("point '{}', benchmark {}", point.name, benchmark.name()),
                            e.to_string(),
                        ));
                    }
                }
            }
            schedules = seen.len();
        }
    }
    SpecCheck {
        diagnostics,
        points,
        schedules,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specfile::ConstraintSpec;
    use vmv_kernels::Benchmark;
    use vmv_verify::Severity;

    #[test]
    fn demo_spec_is_clean() {
        let check = check_spec(&SpecFile::demo());
        assert!(
            check.diagnostics.is_empty(),
            "demo spec must lint and certify clean: {:?}",
            check.diagnostics
        );
        assert!(check.points > 0);
        assert!(check.schedules > 0);
    }

    #[test]
    fn unsatisfiable_constraints_are_an_error() {
        let mut spec = SpecFile::demo();
        spec.constraints = vec![ConstraintSpec::MaxCost { max: 0.0 }];
        let diags = lint(&spec);
        assert!(has_errors(&diags));
        assert!(
            diags[0].to_string().contains("unsatisfiable"),
            "{}",
            diags[0]
        );
    }

    #[test]
    fn dead_axis_values_are_flagged() {
        let mut spec = SpecFile::demo();
        // A lane budget of 8 kills every point of the lanes-16 value
        // (vector_units >= 1), and of vector_units=4 with lanes > 2, but
        // lanes 16 is dead outright.
        spec.constraints = vec![ConstraintSpec::LaneBudget { max: 8 }];
        let diags = lint(&spec);
        let dead: Vec<_> = diags
            .iter()
            .filter(|d| d.severity == Severity::Warning && d.message.contains("is dead"))
            .collect();
        assert!(
            dead.iter()
                .any(|d| d.location == "axes[2]" && d.message.contains("'ln16'")),
            "expected the 16-lane value to be dead: {dead:?}"
        );
    }

    #[test]
    fn fully_redundant_values_warn() {
        // vector_lanes is meaningless on a scalar VLIW machine: every lane
        // value beyond the first collapses onto the same machine.
        let spec = SpecFile {
            name: "dup".into(),
            axes: vec![
                AxisSpec::Isa(vec![vmv_machine::IsaSupport::Vliw]),
                AxisSpec::VectorLanes(vec![2, 4, 8]),
            ],
            constraints: vec![],
            defaults: Default::default(),
        };
        let diags = lint(&spec);
        let redundant: Vec<_> = diags
            .iter()
            .filter(|d| d.severity == Severity::Warning && d.message.contains("redundant"))
            .collect();
        assert_eq!(redundant.len(), 2, "{diags:?}");
        assert!(redundant[0].message.contains("'ln4'"), "{}", redundant[0]);
        assert!(redundant[1].message.contains("'ln8'"), "{}", redundant[1]);
    }

    #[test]
    fn conditionally_redundant_values_stay_quiet() {
        // vector_units matters on the vector ISA even though the usimd
        // points collapse — the idiomatic cross-ISA sweep must lint clean.
        let spec = SpecFile {
            name: "cross".into(),
            axes: vec![
                AxisSpec::Isa(vec![
                    vmv_machine::IsaSupport::Usimd,
                    vmv_machine::IsaSupport::Vector,
                ]),
                AxisSpec::VectorUnits(vec![1, 2]),
            ],
            constraints: vec![],
            defaults: Default::default(),
        };
        let diags = lint(&spec);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unbuildable_cache_geometries_are_errors() {
        // 48 KB of 4-way 32-byte lines is 384 sets, and 96-byte L2 lines
        // are not a power of two: three of the four points would panic the
        // cache model.  Each bad geometry is named once, at its first point.
        let spec = SpecFile {
            name: "geometry".into(),
            axes: vec![
                AxisSpec::L1Size(vec![16 * 1024, 48 * 1024]),
                AxisSpec::L2Line(vec![64, 96]),
                AxisSpec::Benchmarks(vec![Benchmark::GsmDec]),
            ],
            constraints: vec![],
            defaults: Default::default(),
        };
        let check = check_spec(&spec);
        let errors: Vec<_> = check
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert_eq!(errors.len(), 2, "one error per geometry: {errors:?}");
        assert_eq!(errors[0].location, "point 'l1:16K/l2ln96'");
        assert!(errors[0].message.contains("L2 cache"), "{}", errors[0]);
        assert!(errors[0].message.contains("line size"), "{}", errors[0]);
        assert_eq!(errors[1].location, "point 'l1:48K/l2ln64'");
        assert!(errors[1].message.contains("L1 cache"), "{}", errors[1]);
        assert!(
            errors[1].message.contains("number of sets"),
            "{}",
            errors[1]
        );
        assert_eq!(check.points, 4);
        assert_eq!(check.schedules, 0, "a spec with errors compiles nothing");
    }
}
