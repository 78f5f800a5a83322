//! Spec-file lint and pre-flight checking (`sweep --check`, `verify --spec`):
//! parse + expand + compile + certify, without executing a single cycle.
//!
//! The lint pass reports spec mistakes the parser cannot see — constraint
//! sets that reject every design point, axis values that survive no
//! constraint (dead weight in the file), and expansions that collapse onto
//! duplicate machines.  The check pass then compiles every distinct
//! schedule the spec can reach and certifies each with the static verifier
//! (`vmv_verify::verify_compiled`), so a checked-in spec is known to
//! execute before any sweep time is spent on it.

use std::collections::HashSet;

use vmv_verify::{has_errors, Check, Diagnostic};

use crate::cache::{compile, CompileCache};
use crate::specfile::SpecFile;

/// Outcome of [`check_spec`].
pub struct SpecCheck {
    /// Lint findings plus any compile/certification failures.
    pub diagnostics: Vec<Diagnostic>,
    /// Design points the spec expands to (after constraints and dedup).
    pub points: usize,
    /// Distinct schedules compiled and certified.
    pub schedules: usize,
}

/// Lint a spec file without compiling anything.  The spec is expanded
/// twice — once as declared and once with the constraints stripped — and
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

    for (k, axis_spec) in spec.axes.iter().enumerate() {
        let Some(axis) = axis_spec.lower() else {
            continue; // the benchmarks pseudo-axis selects jobs, not machines
        };
        for value in &axis.values {
            let key = (axis.name.clone(), value.label.clone());
            if live.contains(&key) {
                continue;
            }
            let message = if universe_live.contains(&key) {
                format!(
                    "value '{}' of axis '{}' is dead: every design point \
                     using it is rejected by the constraints",
                    value.label, axis.name
                )
            } else {
                format!(
                    "value '{}' of axis '{}' is redundant: every design point \
                     using it duplicates a point of an earlier value",
                    value.label, axis.name
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

/// Lint a spec, then compile and certify every distinct schedule it can
/// reach — one compile per `(benchmark, ISA variant, schedule fingerprint)`
/// key, shared across all memory-only variants, exactly as a real sweep
/// would share them.  Each program is dropped as soon as it is certified.
pub fn check_spec(spec: &SpecFile) -> SpecCheck {
    let mut diagnostics = lint(spec);
    let mut points = 0;
    let mut schedules = 0;
    if !has_errors(&diagnostics) {
        if let Ok(lowered) = spec.lower() {
            let expansion = lowered.spec.expand();
            points = expansion.points.len();
            let mut seen = HashSet::new();
            for point in &expansion.points {
                for &benchmark in &lowered.benchmarks {
                    if !seen.insert(CompileCache::key_for(benchmark, &point.machine)) {
                        continue;
                    }
                    if let Err(e) = compile(benchmark, &point.machine, true) {
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
    use crate::specfile::{AxisSpec, ConstraintSpec};
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
}
