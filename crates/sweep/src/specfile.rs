//! Sweep specifications as data: the one description of a sweep.
//!
//! A [`SpecFile`] holds named axes ([`AxisSpec`]) and named constraints
//! ([`ConstraintSpec`]) as plain values, so an experiment is a checked-in
//! JSON file instead of a Rust binary.  Each axis kind's value labels and
//! machine change, and each constraint's predicate, are written once, here.
//! Lowering ([`SpecFile::lower`]) validates the spec and splits the
//! `benchmarks` job subset from the machine axes and constraints, which
//! [`SweepSpec::expand`] turns into named, deduplicated design points.
//!
//! The canonical serialization ([`SpecFile::canonical`]) is deterministic
//! (fixed key order, compact rendering), which makes the content hash
//! ([`SpecFile::fingerprint`]) well-defined: two spec files describing the
//! same experiment hash identically regardless of formatting.  The
//! fingerprint covers only the *semantic* parts (axes + constraints) — the
//! display name and the execution defaults (threads, shard, output path)
//! can change without orphaning existing result stores.
//!
//! ```text
//! {
//!   "name": "latency_tolerance",
//!   "axes": [
//!     {"axis": "chaining", "values": [true, false]},
//!     {"axis": "mem_latency", "values": [100, 300, 500]},
//!     {"axis": "benchmarks", "values": ["GSM_DEC", "GSM_ENC"]}
//!   ],
//!   "constraints": [{"constraint": "lane_budget", "max": 32}],
//!   "defaults": {"threads": 2, "out": "latency.jsonl"}
//! }
//! ```

use vmv_kernels::Benchmark;
use vmv_machine::{gen, IsaSupport, MachineConfig};
use vmv_mem::MemoryModel;

use crate::fingerprint::fnv1a64;
use crate::json::{Json, JsonError};
use crate::pareto::hardware_cost;
use crate::spec::{parse_shard, Draft, SweepSpec};

/// One serializable sweep axis: a machine/memory knob plus the values to
/// sweep, or the benchmark subset to run at every design point.
#[derive(Debug, Clone, PartialEq)]
pub enum AxisSpec {
    /// ISA family (`"vliw"`, `"usimd"`, `"vector"`).
    Isa(Vec<IsaSupport>),
    /// Issue width (must be one of [`gen::GEN_WIDTHS`]).
    IssueWidth(Vec<usize>),
    /// Number of vector functional units.
    VectorUnits(Vec<usize>),
    /// Parallel lanes per vector unit.
    VectorLanes(Vec<u32>),
    /// Width of the L2 vector-cache port in 64-bit elements.
    L2PortElems(Vec<u32>),
    /// L1 data-cache size in bytes.
    L1Size(Vec<usize>),
    /// L2 vector-cache size in bytes.
    L2Size(Vec<usize>),
    /// L1 associativity (ways).
    L1Assoc(Vec<usize>),
    /// L2 associativity (ways).
    L2Assoc(Vec<usize>),
    /// L1 line size in bytes.
    L1Line(Vec<usize>),
    /// L2 line size in bytes.
    L2Line(Vec<usize>),
    /// Interleaved L2 banks.
    L2Banks(Vec<usize>),
    /// L2 hit latency in cycles (kept in lock-step with the scheduler's
    /// assumed vector-memory latency).
    L2Latency(Vec<u32>),
    /// Main-memory latency in cycles.
    MemLatency(Vec<u32>),
    /// Memory model (`"perfect"`, `"realistic"`).
    MemoryModel(Vec<MemoryModel>),
    /// Vector chaining on/off (the §3.3 ablation).
    Chaining(Vec<bool>),
    /// Benchmark subset to run at every design point.  Not a cartesian
    /// dimension: it selects the jobs, not the machine.
    Benchmarks(Vec<Benchmark>),
}

/// Axis names in the order `--print-spec` documents them.
const AXIS_NAMES: &[&str] = &[
    "isa",
    "issue_width",
    "vector_units",
    "vector_lanes",
    "l2_port_elems",
    "l1_size",
    "l2_size",
    "l1_assoc",
    "l2_assoc",
    "l1_line",
    "l2_line",
    "l2_banks",
    "l2_latency",
    "mem_latency",
    "memory_model",
    "chaining",
    "benchmarks",
];

impl AxisSpec {
    /// The axis name as it appears in spec files (and in point labels).
    pub fn name(&self) -> &'static str {
        match self {
            AxisSpec::Isa(_) => "isa",
            AxisSpec::IssueWidth(_) => "issue_width",
            AxisSpec::VectorUnits(_) => "vector_units",
            AxisSpec::VectorLanes(_) => "vector_lanes",
            AxisSpec::L2PortElems(_) => "l2_port_elems",
            AxisSpec::L1Size(_) => "l1_size",
            AxisSpec::L2Size(_) => "l2_size",
            AxisSpec::L1Assoc(_) => "l1_assoc",
            AxisSpec::L2Assoc(_) => "l2_assoc",
            AxisSpec::L1Line(_) => "l1_line",
            AxisSpec::L2Line(_) => "l2_line",
            AxisSpec::L2Banks(_) => "l2_banks",
            AxisSpec::L2Latency(_) => "l2_latency",
            AxisSpec::MemLatency(_) => "mem_latency",
            AxisSpec::MemoryModel(_) => "memory_model",
            AxisSpec::Chaining(_) => "chaining",
            AxisSpec::Benchmarks(_) => "benchmarks",
        }
    }

    /// Number of values declared on this axis.
    pub fn len(&self) -> usize {
        match self {
            AxisSpec::Isa(v) => v.len(),
            AxisSpec::IssueWidth(v) => v.len(),
            AxisSpec::VectorUnits(v) => v.len(),
            AxisSpec::VectorLanes(v) => v.len(),
            AxisSpec::L2PortElems(v) => v.len(),
            AxisSpec::L1Size(v) => v.len(),
            AxisSpec::L2Size(v) => v.len(),
            AxisSpec::L1Assoc(v) => v.len(),
            AxisSpec::L2Assoc(v) => v.len(),
            AxisSpec::L1Line(v) => v.len(),
            AxisSpec::L2Line(v) => v.len(),
            AxisSpec::L2Banks(v) => v.len(),
            AxisSpec::L2Latency(v) => v.len(),
            AxisSpec::MemLatency(v) => v.len(),
            AxisSpec::MemoryModel(v) => v.len(),
            AxisSpec::Chaining(v) => v.len(),
            AxisSpec::Benchmarks(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Canonical JSON: `{"axis": <name>, "values": [...]}`.
    pub fn to_json(&self) -> Json {
        fn nums<T: Copy + Into<f64>>(values: &[T]) -> Json {
            Json::Arr(values.iter().map(|&v| Json::num(v)).collect())
        }
        fn sizes(values: &[usize]) -> Json {
            Json::Arr(values.iter().map(|&v| Json::u64(v as u64)).collect())
        }
        let values = match self {
            AxisSpec::Isa(v) => Json::Arr(v.iter().map(|&i| Json::str(isa_name(i))).collect()),
            AxisSpec::IssueWidth(v)
            | AxisSpec::VectorUnits(v)
            | AxisSpec::L1Size(v)
            | AxisSpec::L2Size(v)
            | AxisSpec::L1Assoc(v)
            | AxisSpec::L2Assoc(v)
            | AxisSpec::L1Line(v)
            | AxisSpec::L2Line(v)
            | AxisSpec::L2Banks(v) => sizes(v),
            AxisSpec::VectorLanes(v)
            | AxisSpec::L2PortElems(v)
            | AxisSpec::L2Latency(v)
            | AxisSpec::MemLatency(v) => nums(v),
            AxisSpec::MemoryModel(v) => {
                Json::Arr(v.iter().map(|&m| Json::str(model_name(m))).collect())
            }
            AxisSpec::Chaining(v) => Json::Arr(v.iter().map(|&b| Json::Bool(b)).collect()),
            AxisSpec::Benchmarks(v) => Json::Arr(v.iter().map(|&b| Json::str(b.name())).collect()),
        };
        Json::Obj(vec![
            ("axis".into(), Json::str(self.name())),
            ("values".into(), values),
        ])
    }

    /// Parse one `{"axis": ..., "values": [...]}` object.  `context` is the
    /// position in the axes array, for error messages.
    fn from_json(v: &Json, context: usize) -> Result<AxisSpec, SpecError> {
        let obj_err = |msg: String| SpecError {
            message: format!("axes[{context}]: {msg}"),
        };
        let name = v
            .get("axis")
            .and_then(Json::as_str)
            .ok_or_else(|| obj_err("expected an object with an \"axis\" name field".into()))?;
        let range_values;
        let values: &[Json] = match v.get("values") {
            Some(Json::Arr(items)) => items,
            Some(range @ Json::Obj(_)) => {
                range_values = expand_range(name, range)?;
                &range_values
            }
            _ => {
                return Err(obj_err(format!(
                    "axis '{name}' needs a \"values\" array or a \
                     {{\"from\": .., \"to\": .., \"step\": ..}} range"
                )))
            }
        };
        let val_err = |i: usize, what: &str, got: &Json| SpecError {
            message: format!(
                "axis '{name}', value {}: expected {what}, got {}",
                i + 1,
                got.render()
            ),
        };
        fn ints<T: TryFrom<u64>>(
            values: &[Json],
            what: &str,
            err: &impl Fn(usize, &str, &Json) -> SpecError,
        ) -> Result<Vec<T>, SpecError> {
            values
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    v.as_u64()
                        .filter(|&n| n > 0)
                        .and_then(|n| T::try_from(n).ok())
                        .ok_or_else(|| err(i, what, v))
                })
                .collect()
        }
        let spec = match name {
            "isa" => AxisSpec::Isa(
                values
                    .iter()
                    .enumerate()
                    .map(|(i, v)| {
                        v.as_str()
                            .and_then(isa_from_name)
                            .ok_or_else(|| val_err(i, "one of \"vliw\", \"usimd\", \"vector\"", v))
                    })
                    .collect::<Result<_, _>>()?,
            ),
            "issue_width" => {
                let widths: Vec<usize> = ints(values, "a positive integer issue width", &val_err)?;
                if let Some(w) = widths.iter().find(|w| !gen::GEN_WIDTHS.contains(w)) {
                    return Err(SpecError {
                        message: format!(
                            "axis 'issue_width': unsupported width {w} (supported: {:?})",
                            gen::GEN_WIDTHS
                        ),
                    });
                }
                AxisSpec::IssueWidth(widths)
            }
            "vector_units" => AxisSpec::VectorUnits(ints(values, "a positive integer", &val_err)?),
            "vector_lanes" => AxisSpec::VectorLanes(ints(values, "a positive integer", &val_err)?),
            "l2_port_elems" => AxisSpec::L2PortElems(ints(values, "a positive integer", &val_err)?),
            "l1_size" => AxisSpec::L1Size(ints(values, "a size in bytes", &val_err)?),
            "l2_size" => AxisSpec::L2Size(ints(values, "a size in bytes", &val_err)?),
            "l1_assoc" => AxisSpec::L1Assoc(ints(values, "a positive way count", &val_err)?),
            "l2_assoc" => AxisSpec::L2Assoc(ints(values, "a positive way count", &val_err)?),
            "l1_line" => AxisSpec::L1Line(ints(values, "a line size in bytes", &val_err)?),
            "l2_line" => AxisSpec::L2Line(ints(values, "a line size in bytes", &val_err)?),
            "l2_banks" => AxisSpec::L2Banks(ints(values, "a positive bank count", &val_err)?),
            "l2_latency" => AxisSpec::L2Latency(ints(values, "a latency in cycles", &val_err)?),
            "mem_latency" => AxisSpec::MemLatency(ints(values, "a latency in cycles", &val_err)?),
            "memory_model" => AxisSpec::MemoryModel(
                values
                    .iter()
                    .enumerate()
                    .map(|(i, v)| {
                        v.as_str()
                            .and_then(model_from_name)
                            .ok_or_else(|| val_err(i, "\"perfect\" or \"realistic\"", v))
                    })
                    .collect::<Result<_, _>>()?,
            ),
            "chaining" => AxisSpec::Chaining(
                values
                    .iter()
                    .enumerate()
                    .map(|(i, v)| v.as_bool().ok_or_else(|| val_err(i, "true or false", v)))
                    .collect::<Result<_, _>>()?,
            ),
            "benchmarks" => AxisSpec::Benchmarks(
                values
                    .iter()
                    .enumerate()
                    .map(|(i, v)| {
                        v.as_str().and_then(Benchmark::from_name).ok_or_else(|| {
                            let known: Vec<&str> =
                                Benchmark::ALL.iter().map(|b| b.name()).collect();
                            SpecError {
                                message: format!(
                                    "axis 'benchmarks', value {}: unknown benchmark {} \
                                     (known: {})",
                                    i + 1,
                                    v.render(),
                                    known.join(", ")
                                ),
                            }
                        })
                    })
                    .collect::<Result<_, _>>()?,
            ),
            unknown => {
                return Err(SpecError {
                    message: format!(
                        "axes[{context}]: unknown axis '{unknown}' (known axes: {})",
                        AXIS_NAMES.join(", ")
                    ),
                })
            }
        };
        if spec.is_empty() {
            return Err(SpecError {
                message: format!("axis '{name}' has no values"),
            });
        }
        Ok(spec)
    }

    /// The label of each value, as point names and sensitivity reports
    /// show it.  The `benchmarks` pseudo-axis labels its values with the
    /// benchmark names, though they never reach a point.
    pub(crate) fn labels(&self) -> Vec<String> {
        fn each<T: Copy>(values: &[T], label: impl Fn(T) -> String) -> Vec<String> {
            values.iter().map(|&v| label(v)).collect()
        }
        match self {
            AxisSpec::Isa(v) => each(v, |i| isa_name(i).to_string()),
            AxisSpec::IssueWidth(v) => each(v, |w| format!("{w}w")),
            AxisSpec::VectorUnits(v) => each(v, |n| format!("vu{n}")),
            AxisSpec::VectorLanes(v) => each(v, |n| format!("ln{n}")),
            AxisSpec::L2PortElems(v) => each(v, |n| format!("pe{n}")),
            AxisSpec::L1Size(v) => each(v, |b| format!("l1:{}K", b / 1024)),
            AxisSpec::L2Size(v) => each(v, |b| format!("l2:{}K", b / 1024)),
            AxisSpec::L1Assoc(v) => each(v, |n| format!("l1a{n}")),
            AxisSpec::L2Assoc(v) => each(v, |n| format!("l2a{n}")),
            AxisSpec::L1Line(v) => each(v, |b| format!("l1ln{b}")),
            AxisSpec::L2Line(v) => each(v, |b| format!("l2ln{b}")),
            AxisSpec::L2Banks(v) => each(v, |n| format!("bk{n}")),
            AxisSpec::L2Latency(v) => each(v, |c| format!("l2lat{c}")),
            AxisSpec::MemLatency(v) => each(v, |c| format!("dram{c}")),
            AxisSpec::MemoryModel(v) => each(v, |m| model_name(m).to_string()),
            AxisSpec::Chaining(v) => each(v, |on| if on { "chain" } else { "nochain" }.into()),
            AxisSpec::Benchmarks(v) => each(v, |b| b.name().to_string()),
        }
    }

    /// Apply value `i` of this axis to a draft machine.
    pub(crate) fn apply(&self, i: usize, d: &mut Draft) {
        match self {
            AxisSpec::Isa(v) => d.gen.isa = v[i],
            AxisSpec::IssueWidth(v) => d.gen.issue_width = v[i],
            AxisSpec::VectorUnits(v) => d.gen.vector_units = v[i],
            AxisSpec::VectorLanes(v) => d.gen.vector_lanes = v[i],
            AxisSpec::L2PortElems(v) => d.gen.l2_port_elems = v[i],
            AxisSpec::L1Size(v) => d.memory.l1_size = v[i],
            AxisSpec::L2Size(v) => d.memory.l2_size = v[i],
            AxisSpec::L1Assoc(v) => d.memory.l1_assoc = v[i],
            AxisSpec::L2Assoc(v) => d.memory.l2_assoc = v[i],
            AxisSpec::L1Line(v) => d.memory.l1_line = v[i],
            AxisSpec::L2Line(v) => d.memory.l2_line = v[i],
            AxisSpec::L2Banks(v) => d.memory.l2_banks = v[i],
            // The scheduler's assumed vector-memory latency moves in
            // lock-step with the L2 hit latency (the paper's Fig. 4 example).
            AxisSpec::L2Latency(v) => {
                d.memory.l2_latency = v[i];
                d.latencies.vec_mem = v[i];
            }
            AxisSpec::MemLatency(v) => d.memory.mem_latency = v[i],
            AxisSpec::MemoryModel(v) => d.model = v[i],
            // Overrides the ISA family's default via `GenParams::chaining`.
            AxisSpec::Chaining(v) => d.gen.chaining = Some(v[i]),
            // Selects the jobs, not the machine.
            AxisSpec::Benchmarks(_) => {}
        }
    }
}

/// Axes whose values are plain positive integers, and therefore accept the
/// `{"from": .., "to": .., "step": ..}` range shorthand in place of an
/// explicit `values` array.
const RANGE_AXES: &[&str] = &[
    "issue_width",
    "vector_units",
    "vector_lanes",
    "l2_port_elems",
    "l1_size",
    "l2_size",
    "l1_assoc",
    "l2_assoc",
    "l1_line",
    "l2_line",
    "l2_banks",
    "l2_latency",
    "mem_latency",
];

/// Expand the range shorthand into an explicit ascending value list:
/// `from, from+step, ...` up to and including `to` when the step lands on
/// it (`step` defaults to 1).  The canonical serialization always re-emits
/// the explicit array, so a range spec and its hand-written expansion
/// canonicalize — and fingerprint — identically.
fn expand_range(name: &str, range: &Json) -> Result<Vec<Json>, SpecError> {
    let err = |msg: String| SpecError {
        message: format!("axis '{name}': {msg}"),
    };
    if !RANGE_AXES.contains(&name) {
        return Err(err(format!(
            "range values apply only to integer axes ({})",
            RANGE_AXES.join(", ")
        )));
    }
    let fields = match range {
        Json::Obj(fields) => fields,
        _ => unreachable!("caller matched an object"),
    };
    for (key, _) in fields {
        if !matches!(key.as_str(), "from" | "to" | "step") {
            return Err(err(format!(
                "unknown range key '{key}' (known: from, to, step)"
            )));
        }
    }
    let int_field = |key: &str| -> Result<Option<u64>, SpecError> {
        match range.get(key) {
            None => Ok(None),
            Some(v) => v.as_u64().filter(|&n| n > 0).map(Some).ok_or_else(|| {
                err(format!(
                    "range \"{key}\" must be a positive integer, got {}",
                    v.render()
                ))
            }),
        }
    };
    let missing =
        || err("a range needs \"from\" and \"to\" (and an optional \"step\", default 1)".into());
    let from = int_field("from")?.ok_or_else(missing)?;
    let to = int_field("to")?.ok_or_else(missing)?;
    let step = int_field("step")?.unwrap_or(1);
    if from > to {
        return Err(err(format!(
            "range \"from\" ({from}) must not exceed \"to\" ({to})"
        )));
    }
    let count = (to - from) / step + 1;
    if count > 4096 {
        return Err(err(format!(
            "range expands to {count} values (max 4096); raise \"step\""
        )));
    }
    Ok((0..count).map(|i| Json::u64(from + i * step)).collect())
}

/// One serializable, named constraint: a predicate on design points.
#[derive(Debug, Clone, PartialEq)]
pub enum ConstraintSpec {
    /// Total lane budget: `vector_units × vector_lanes <= max`.
    LaneBudget { max: u32 },
    /// Abstract hardware-cost ceiling over [`hardware_cost`].
    MaxCost { max: f64 },
    /// Keep only Vector-ISA design points (useful when a structural axis
    /// also generates scalar machines).
    VectorIsaOnly,
}

const CONSTRAINT_NAMES: &[&str] = &["lane_budget", "max_cost", "vector_isa_only"];

impl ConstraintSpec {
    pub fn name(&self) -> &'static str {
        match self {
            ConstraintSpec::LaneBudget { .. } => "lane_budget",
            ConstraintSpec::MaxCost { .. } => "max_cost",
            ConstraintSpec::VectorIsaOnly => "vector_isa_only",
        }
    }

    /// Canonical JSON: `{"constraint": <name>, ...parameters}`.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("constraint".into(), Json::str(self.name()))];
        match self {
            ConstraintSpec::LaneBudget { max } => fields.push(("max".into(), Json::num(*max))),
            ConstraintSpec::MaxCost { max } => fields.push(("max".into(), Json::Num(*max))),
            ConstraintSpec::VectorIsaOnly => {}
        }
        Json::Obj(fields)
    }

    fn from_json(v: &Json, context: usize) -> Result<ConstraintSpec, SpecError> {
        let err = |msg: String| SpecError {
            message: format!("constraints[{context}]: {msg}"),
        };
        let name = v
            .get("constraint")
            .and_then(Json::as_str)
            .ok_or_else(|| err("expected an object with a \"constraint\" name field".into()))?;
        let max_field = |what: &str| {
            v.get("max")
                .and_then(Json::as_f64)
                .ok_or_else(|| err(format!("'{name}' needs a numeric \"max\" {what}")))
        };
        match name {
            "lane_budget" => {
                let max = max_field("lane budget")?;
                if max < 1.0 || max.fract() != 0.0 || max > u32::MAX as f64 {
                    return Err(err(format!(
                        "'lane_budget' max must be a positive integer, got {max}"
                    )));
                }
                Ok(ConstraintSpec::LaneBudget { max: max as u32 })
            }
            "max_cost" => Ok(ConstraintSpec::MaxCost {
                max: max_field("cost ceiling")?,
            }),
            "vector_isa_only" => Ok(ConstraintSpec::VectorIsaOnly),
            unknown => Err(err(format!(
                "unknown constraint '{unknown}' (known constraints: {})",
                CONSTRAINT_NAMES.join(", ")
            ))),
        }
    }

    /// Whether the design point `m` satisfies this constraint; expansion
    /// drops the points where it does not.
    pub(crate) fn admits(&self, m: &MachineConfig) -> bool {
        match *self {
            ConstraintSpec::LaneBudget { max } => {
                (m.vector_units as u64).saturating_mul(m.vector_lanes as u64) <= max as u64
            }
            ConstraintSpec::MaxCost { max } => hardware_cost(m) <= max,
            ConstraintSpec::VectorIsaOnly => matches!(m.isa, IsaSupport::Vector),
        }
    }
}

/// Execution defaults a spec file may carry.  Command-line flags override
/// them; none participates in the spec fingerprint.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpecDefaults {
    /// Worker threads (0 = one per core, capped at 16).
    pub threads: Option<usize>,
    /// `(shard index, shard count)` for distributed sweeps.
    pub shard: Option<(usize, usize)>,
    /// Result-store path.
    pub out: Option<String>,
}

impl SpecDefaults {
    fn is_empty(&self) -> bool {
        *self == SpecDefaults::default()
    }

    fn to_json(&self) -> Json {
        let mut fields = Vec::new();
        if let Some(threads) = self.threads {
            fields.push(("threads".into(), Json::u64(threads as u64)));
        }
        if let Some((i, n)) = self.shard {
            fields.push(("shard".into(), Json::str(format!("{i}/{n}"))));
        }
        if let Some(out) = &self.out {
            fields.push(("out".into(), Json::str(out)));
        }
        Json::Obj(fields)
    }

    fn from_json(v: &Json) -> Result<SpecDefaults, SpecError> {
        let fields = match v {
            Json::Obj(fields) => fields,
            _ => {
                return Err(SpecError {
                    message: "\"defaults\" must be an object".into(),
                })
            }
        };
        let mut defaults = SpecDefaults::default();
        for (key, value) in fields {
            match key.as_str() {
                "threads" => {
                    defaults.threads = Some(value.as_u64().ok_or_else(|| SpecError {
                        message: format!(
                            "defaults.threads must be a non-negative integer, got {}",
                            value.render()
                        ),
                    })? as usize)
                }
                "shard" => {
                    let parsed = parse_shard(value.as_str().unwrap_or_default());
                    defaults.shard = Some(parsed.map_err(|_| SpecError {
                        message: format!(
                            "defaults.shard must be \"I/N\" with 0 <= I < N, got {}",
                            value.render()
                        ),
                    })?);
                }
                "out" => {
                    defaults.out = Some(
                        value
                            .as_str()
                            .ok_or_else(|| SpecError {
                                message: format!(
                                    "defaults.out must be a path string, got {}",
                                    value.render()
                                ),
                            })?
                            .to_string(),
                    )
                }
                unknown => {
                    return Err(SpecError {
                        message: format!(
                            "defaults: unknown key '{unknown}' (known: threads, shard, out)"
                        ),
                    })
                }
            }
        }
        Ok(defaults)
    }
}

/// The most raw points a spec may expand to: the product of its machine
/// axes' lengths ([`SweepSpec::raw_size`], before constraints and
/// deduplication).  Expansion builds every raw point, so the cap keeps a
/// spec that asks for billions of them (three 4096-value ranges) from
/// hanging `sweep`, `verify` and `report` and exhausting memory; a spec at
/// the cap holds about 1.2 GB of design points (1.1 KiB each).
pub const MAX_RAW_POINTS: usize = 1 << 20;

/// Error parsing or validating a spec file, with an actionable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    pub message: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}
impl std::error::Error for SpecError {}

impl From<JsonError> for SpecError {
    fn from(e: JsonError) -> Self {
        SpecError {
            message: format!("not valid JSON: {e}"),
        }
    }
}

/// A validated [`SpecFile`] split for execution: the machine axes and
/// constraints to expand, and the benchmark subset every point runs.
pub struct LoweredSpec {
    pub spec: SweepSpec,
    pub benchmarks: Vec<Benchmark>,
}

/// A complete declarative sweep specification, loadable from (and
/// canonically serializable back to) JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecFile {
    /// Display name (store headers, reports).  Not part of the fingerprint.
    pub name: String,
    /// Axes in declaration order (the odometer order of the expansion).
    pub axes: Vec<AxisSpec>,
    /// Constraint predicates applied during expansion.
    pub constraints: Vec<ConstraintSpec>,
    /// Execution defaults (overridden by command-line flags).
    pub defaults: SpecDefaults,
}

impl SpecFile {
    /// Parse a spec file from JSON text and validate it.
    pub fn parse(text: &str) -> Result<SpecFile, SpecError> {
        SpecFile::from_json(&Json::parse(text)?)
    }

    /// Parse from an already-parsed JSON value and validate it.
    pub fn from_json(v: &Json) -> Result<SpecFile, SpecError> {
        let fields = match v {
            Json::Obj(fields) => fields,
            _ => {
                return Err(SpecError {
                    message: "a spec file must be a JSON object".into(),
                })
            }
        };
        for (key, _) in fields {
            if !matches!(key.as_str(), "name" | "axes" | "constraints" | "defaults") {
                return Err(SpecError {
                    message: format!(
                        "unknown top-level key '{key}' (known: name, axes, constraints, defaults)"
                    ),
                });
            }
        }
        let name = match v.get("name") {
            Some(n) => n
                .as_str()
                .ok_or_else(|| SpecError {
                    message: format!("\"name\" must be a string, got {}", n.render()),
                })?
                .to_string(),
            None => "unnamed".to_string(),
        };
        let axes = match v.get("axes") {
            Some(Json::Arr(items)) => items
                .iter()
                .enumerate()
                .map(|(i, a)| AxisSpec::from_json(a, i))
                .collect::<Result<Vec<_>, _>>()?,
            Some(other) => {
                return Err(SpecError {
                    message: format!("\"axes\" must be an array, got {}", other.render()),
                })
            }
            None => Vec::new(),
        };
        let constraints = match v.get("constraints") {
            Some(Json::Arr(items)) => items
                .iter()
                .enumerate()
                .map(|(i, c)| ConstraintSpec::from_json(c, i))
                .collect::<Result<Vec<_>, _>>()?,
            Some(other) => {
                return Err(SpecError {
                    message: format!("\"constraints\" must be an array, got {}", other.render()),
                })
            }
            None => Vec::new(),
        };
        let defaults = match v.get("defaults") {
            Some(d) => SpecDefaults::from_json(d)?,
            None => SpecDefaults::default(),
        };
        let spec = SpecFile {
            name,
            axes,
            constraints,
            defaults,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Structural validation shared by [`SpecFile::from_json`] and
    /// [`SpecFile::lower`] (the fields are public, so programmatic
    /// construction is re-checked at lowering time).
    pub fn validate(&self) -> Result<(), SpecError> {
        let mut seen = std::collections::HashSet::new();
        let (mut factors, mut raw) = (Vec::new(), Some(1usize));
        for axis in &self.axes {
            if !seen.insert(axis.name()) {
                return Err(SpecError {
                    message: format!(
                        "duplicate axis '{}' (each axis may appear once; merge its value lists)",
                        axis.name()
                    ),
                });
            }
            if axis.is_empty() {
                return Err(SpecError {
                    message: format!("axis '{}' has no values", axis.name()),
                });
            }
            if !matches!(axis, AxisSpec::Benchmarks(_)) {
                factors.push(axis.len().to_string());
                raw = raw.and_then(|n| n.checked_mul(axis.len()));
            }
        }
        if raw.is_none_or(|raw| raw > MAX_RAW_POINTS) {
            let product =
                raw.map_or_else(|| format!("more than {}", usize::MAX), |n| n.to_string());
            return Err(SpecError {
                message: format!(
                    "the machine axes expand to {} = {product} raw points \
                     (max {MAX_RAW_POINTS}); drop values or raise a range's \"step\"",
                    factors.join(" x ")
                ),
            });
        }
        Ok(())
    }

    /// The canonical JSON form: fixed key order, empty sections omitted.
    /// `parse(canonical.render())` is the identity, and formatting
    /// variations of the same spec canonicalize identically.
    pub fn canonical(&self) -> Json {
        let mut fields = vec![
            ("name".into(), Json::str(&self.name)),
            (
                "axes".into(),
                Json::Arr(self.axes.iter().map(AxisSpec::to_json).collect()),
            ),
        ];
        if !self.constraints.is_empty() {
            fields.push((
                "constraints".into(),
                Json::Arr(
                    self.constraints
                        .iter()
                        .map(ConstraintSpec::to_json)
                        .collect(),
                ),
            ));
        }
        if !self.defaults.is_empty() {
            fields.push(("defaults".into(), self.defaults.to_json()));
        }
        Json::Obj(fields)
    }

    /// The semantic content the fingerprint hashes: axes and constraints
    /// only.  Renaming a spec or changing its execution defaults must not
    /// orphan existing result stores.
    fn semantic(&self) -> Json {
        let mut fields = vec![(
            "axes".into(),
            Json::Arr(self.axes.iter().map(AxisSpec::to_json).collect()),
        )];
        if !self.constraints.is_empty() {
            fields.push((
                "constraints".into(),
                Json::Arr(
                    self.constraints
                        .iter()
                        .map(ConstraintSpec::to_json)
                        .collect(),
                ),
            ));
        }
        Json::Obj(fields)
    }

    /// Stable content hash of the experiment definition (16 hex digits):
    /// FNV-1a over the canonical rendering of the axes and constraints.
    pub fn fingerprint(&self) -> String {
        format!("{:016x}", fnv1a64(self.semantic().render().as_bytes()))
    }

    /// The self-describing header a result store produced by this spec
    /// carries as its first line.
    pub fn store_header(&self) -> crate::store::StoreHeader {
        crate::store::StoreHeader {
            name: self.name.clone(),
            fingerprint: self.fingerprint(),
            spec: self.canonical(),
        }
    }

    /// Validate the spec and split it for execution: the machine axes (in
    /// declaration order) and the constraints form the [`SweepSpec`], and
    /// the `benchmarks` pseudo-axis becomes the job subset (all six when
    /// absent).  This is the only way to get a [`SweepSpec`].
    pub fn lower(&self) -> Result<LoweredSpec, SpecError> {
        self.validate()?;
        let mut benchmarks = Benchmark::ALL.to_vec();
        let mut axes = Vec::with_capacity(self.axes.len());
        for axis in &self.axes {
            match axis {
                AxisSpec::Benchmarks(subset) => benchmarks = subset.clone(),
                machine => axes.push(machine.clone()),
            }
        }
        Ok(LoweredSpec {
            spec: SweepSpec {
                axes,
                constraints: self.constraints.clone(),
            },
            benchmarks,
        })
    }

    /// The built-in demonstration sweep (`sweep --demo`): 120 raw points —
    /// issue width × vector units × lanes × L2 size × DRAM latency — 112
    /// after the lane-budget constraint, GSM pair only.
    pub fn demo() -> SpecFile {
        SpecFile {
            name: "demo".to_string(),
            axes: vec![
                AxisSpec::IssueWidth(vec![2, 4]),
                AxisSpec::VectorUnits(vec![1, 2, 4]),
                AxisSpec::VectorLanes(vec![1, 2, 4, 8, 16]),
                AxisSpec::L2Size(vec![128 * 1024, 256 * 1024]),
                AxisSpec::MemLatency(vec![100, 500]),
                AxisSpec::Benchmarks(vec![Benchmark::GsmDec, Benchmark::GsmEnc]),
            ],
            constraints: vec![ConstraintSpec::LaneBudget { max: 32 }],
            defaults: SpecDefaults {
                threads: None,
                shard: None,
                out: Some("sweep_results.jsonl".to_string()),
            },
        }
    }
}

fn isa_name(isa: IsaSupport) -> &'static str {
    match isa {
        IsaSupport::Vliw => "vliw",
        IsaSupport::Usimd => "usimd",
        IsaSupport::Vector => "vector",
    }
}

fn isa_from_name(name: &str) -> Option<IsaSupport> {
    match name {
        "vliw" => Some(IsaSupport::Vliw),
        "usimd" => Some(IsaSupport::Usimd),
        "vector" => Some(IsaSupport::Vector),
        _ => None,
    }
}

fn model_name(model: MemoryModel) -> &'static str {
    match model {
        MemoryModel::Perfect => "perfect",
        MemoryModel::Realistic => "realistic",
    }
}

fn model_from_name(name: &str) -> Option<MemoryModel> {
    match name {
        "perfect" => Some(MemoryModel::Perfect),
        "realistic" => Some(MemoryModel::Realistic),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_spec_round_trips_through_canonical_json() {
        let demo = SpecFile::demo();
        let compact = demo.canonical().render();
        let pretty = demo.canonical().render_pretty();
        for text in [compact.as_str(), pretty.as_str()] {
            let back = SpecFile::parse(text).unwrap();
            assert_eq!(back, demo);
            assert_eq!(back.canonical().render(), compact);
            assert_eq!(back.fingerprint(), demo.fingerprint());
        }
    }

    #[test]
    fn fingerprint_ignores_name_and_defaults_but_not_axes() {
        let demo = SpecFile::demo();
        let mut renamed = demo.clone();
        renamed.name = "renamed".to_string();
        renamed.defaults = SpecDefaults {
            threads: Some(7),
            shard: Some((1, 4)),
            out: Some("elsewhere.jsonl".to_string()),
        };
        assert_eq!(renamed.fingerprint(), demo.fingerprint());

        let mut widened = demo.clone();
        widened.axes[0] = AxisSpec::IssueWidth(vec![2, 4, 8]);
        assert_ne!(widened.fingerprint(), demo.fingerprint());

        let mut unconstrained = demo.clone();
        unconstrained.constraints.clear();
        assert_ne!(unconstrained.fingerprint(), demo.fingerprint());
    }

    #[test]
    fn every_axis_variant_round_trips() {
        let spec = SpecFile {
            name: "everything".to_string(),
            axes: vec![
                AxisSpec::Isa(vec![
                    IsaSupport::Vliw,
                    IsaSupport::Usimd,
                    IsaSupport::Vector,
                ]),
                AxisSpec::IssueWidth(vec![2, 16]),
                AxisSpec::VectorUnits(vec![1, 2]),
                AxisSpec::VectorLanes(vec![4]),
                AxisSpec::L2PortElems(vec![4, 8]),
                AxisSpec::L1Size(vec![16 * 1024]),
                AxisSpec::L2Size(vec![256 * 1024]),
                AxisSpec::L1Assoc(vec![2, 4]),
                AxisSpec::L2Assoc(vec![4]),
                AxisSpec::L1Line(vec![32]),
                AxisSpec::L2Line(vec![64, 128]),
                AxisSpec::L2Banks(vec![2, 4]),
                AxisSpec::L2Latency(vec![5, 9]),
                AxisSpec::MemLatency(vec![100]),
                AxisSpec::MemoryModel(vec![MemoryModel::Perfect, MemoryModel::Realistic]),
                AxisSpec::Chaining(vec![true, false]),
                AxisSpec::Benchmarks(Benchmark::ALL.to_vec()),
            ],
            constraints: vec![
                ConstraintSpec::LaneBudget { max: 32 },
                ConstraintSpec::MaxCost { max: 250.5 },
                ConstraintSpec::VectorIsaOnly,
            ],
            defaults: SpecDefaults {
                threads: Some(0),
                shard: Some((0, 2)),
                out: Some("everything.jsonl".to_string()),
            },
        };
        let text = spec.canonical().render();
        let back = SpecFile::parse(&text).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.canonical().render(), text);
    }

    #[test]
    fn constraints_lower_to_working_predicates() {
        let spec = SpecFile {
            name: "constrained".to_string(),
            axes: vec![
                AxisSpec::Isa(vec![IsaSupport::Usimd, IsaSupport::Vector]),
                AxisSpec::VectorLanes(vec![2, 4, 8]),
            ],
            constraints: vec![
                ConstraintSpec::VectorIsaOnly,
                ConstraintSpec::LaneBudget { max: 4 },
            ],
            defaults: SpecDefaults::default(),
        };
        let e = spec.lower().unwrap().spec.expand();
        assert!(e.rejected > 0);
        for p in &e.points {
            assert!(matches!(p.machine.isa, IsaSupport::Vector));
            assert!(p.machine.vector_units as u32 * p.machine.vector_lanes <= 4);
        }
    }

    #[test]
    fn a_lane_budget_weighs_any_unit_count() {
        // A unit count past u32 once overflowed the budget's product.
        let spec = SpecFile::parse(
            r#"{"axes": [{"axis": "vector_units", "values": [1, 18446744073709549568]}],
                "constraints": [{"constraint": "lane_budget", "max": 16}]}"#,
        )
        .unwrap();
        let e = spec.lower().unwrap().spec.expand();
        assert_eq!((e.points.len(), e.rejected), (1, 1));
        assert_eq!(e.points[0].machine.vector_units, 1);
    }

    #[test]
    fn oversized_expansions_fail_before_any_point_is_built() {
        // Three 4096-value ranges ask for 2^36 raw points and six overflow
        // usize.  Each fails in `parse`, and again in `lower` when built in
        // code, with the product named; the benchmarks pseudo-axis does not
        // count.
        let range =
            |axis: &str| format!(r#"{{"axis": "{axis}", "values": {{"from": 1, "to": 4096}}}}"#);
        let names = [
            "mem_latency",
            "l2_latency",
            "l2_banks",
            "l1_size",
            "l2_size",
            "l1_assoc",
        ];
        let many = |k: usize| {
            let axes: Vec<String> = names[..k].iter().map(|a| range(a)).collect();
            format!(r#"{{"axes": [{}]}}"#, axes.join(", "))
        };
        let err = SpecFile::parse(&many(3)).unwrap_err();
        assert!(
            err.message
                .contains("4096 x 4096 x 4096 = 68719476736 raw points"),
            "{}",
            err.message
        );
        let err = SpecFile::parse(&many(6)).unwrap_err();
        assert!(
            err.message
                .contains(&format!("= more than {} raw points", usize::MAX)),
            "{}",
            err.message
        );
        let values: Vec<u32> = (1..=4096).collect();
        let mut spec = SpecFile {
            name: "huge".to_string(),
            axes: vec![
                AxisSpec::MemLatency(values.clone()),
                AxisSpec::L2Latency(values),
                AxisSpec::L2Banks((1..=4096).collect()),
                AxisSpec::Benchmarks(Benchmark::ALL.to_vec()),
            ],
            constraints: Vec::new(),
            defaults: SpecDefaults::default(),
        };
        match spec.lower() {
            Err(e) => assert!(e.message.contains("68719476736"), "{}", e.message),
            Ok(_) => panic!("a 2^36-point spec lowered"),
        }
        // At the cap it lowers; the benchmarks do not multiply it.
        spec.axes[0] = AxisSpec::MemLatency((1..=64).collect());
        spec.axes[1] = AxisSpec::L2Latency((1..=4).collect());
        let lowered = spec.lower().unwrap_or_else(|e| panic!("{}", e.message));
        assert_eq!(lowered.spec.raw_size(), MAX_RAW_POINTS);
    }

    #[test]
    fn range_sugar_expands_to_the_explicit_list() {
        let sugared = SpecFile::parse(
            r#"{"axes": [{"axis": "mem_latency",
                          "values": {"from": 100, "to": 500, "step": 200}}]}"#,
        )
        .unwrap();
        let explicit =
            SpecFile::parse(r#"{"axes": [{"axis": "mem_latency", "values": [100, 300, 500]}]}"#)
                .unwrap();
        assert_eq!(sugared, explicit);
        assert_eq!(sugared.fingerprint(), explicit.fingerprint());
        // Canonicalization re-emits the explicit array, and round-trips.
        let canonical = sugared.canonical().render();
        assert!(canonical.contains("[100,300,500]"), "{canonical}");
        assert_eq!(SpecFile::parse(&canonical).unwrap(), sugared);

        // A step that overshoots `to` stops at the last in-range value;
        // step defaults to 1.
        let overshoot = SpecFile::parse(
            r#"{"axes": [{"axis": "vector_lanes", "values": {"from": 1, "to": 6, "step": 4}}]}"#,
        )
        .unwrap();
        assert_eq!(overshoot.axes[0], AxisSpec::VectorLanes(vec![1, 5]));
        let dense =
            SpecFile::parse(r#"{"axes": [{"axis": "l2_banks", "values": {"from": 2, "to": 4}}]}"#)
                .unwrap();
        assert_eq!(dense.axes[0], AxisSpec::L2Banks(vec![2, 3, 4]));
    }

    #[test]
    fn range_sugar_still_applies_per_axis_validation() {
        // issue_width ranges pass through the supported-width check.
        let err = SpecFile::parse(
            r#"{"axes": [{"axis": "issue_width", "values": {"from": 2, "to": 8, "step": 2}}]}"#,
        )
        .unwrap_err();
        assert!(err.message.contains("unsupported width 6"), "{err}");
    }

    #[test]
    fn range_errors_are_actionable() {
        let cases: &[(&str, &str)] = &[
            (
                r#"{"axes": [{"axis": "isa", "values": {"from": 1, "to": 2}}]}"#,
                "range values apply only to integer axes",
            ),
            (
                r#"{"axes": [{"axis": "mem_latency", "values": {"from": 500, "to": 100}}]}"#,
                "\"from\" (500) must not exceed \"to\" (100)",
            ),
            (
                r#"{"axes": [{"axis": "mem_latency", "values": {"from": 1, "to": 9, "step": 0}}]}"#,
                "range \"step\" must be a positive integer, got 0",
            ),
            (
                r#"{"axes": [{"axis": "mem_latency", "values": {"from": 1, "to": 9, "by": 2}}]}"#,
                "unknown range key 'by' (known: from, to, step)",
            ),
            (
                r#"{"axes": [{"axis": "mem_latency", "values": {"from": 1}}]}"#,
                "a range needs \"from\" and \"to\"",
            ),
            (
                r#"{"axes": [{"axis": "mem_latency", "values": {"from": 1, "to": 100000}}]}"#,
                "max 4096",
            ),
            (
                r#"{"axes": [{"axis": "mem_latency", "values": 7}]}"#,
                "needs a \"values\" array or a {\"from\"",
            ),
        ];
        for (text, needle) in cases {
            let err = SpecFile::parse(text).expect_err(text);
            assert!(
                err.message.contains(needle),
                "error for {text:?} should mention {needle:?}, got: {}",
                err.message
            );
        }
    }

    #[test]
    fn parse_errors_are_actionable() {
        let cases: &[(&str, &str)] = &[
            (
                r#"{"axes": [{"axis": "l4_size", "values": [1]}]}"#,
                "unknown axis 'l4_size'",
            ),
            (
                r#"{"axes": [{"axis": "issue_width", "values": [2, "four"]}]}"#,
                "axis 'issue_width', value 2",
            ),
            (
                r#"{"axes": [{"axis": "issue_width", "values": [6]}]}"#,
                "unsupported width 6",
            ),
            (
                r#"{"axes": [{"axis": "vector_lanes", "values": [4]},
                            {"axis": "vector_lanes", "values": [8]}]}"#,
                "duplicate axis 'vector_lanes'",
            ),
            (
                r#"{"axes": [{"axis": "vector_lanes", "values": []}]}"#,
                "axis 'vector_lanes' has no values",
            ),
            (
                r#"{"axes": [{"axis": "benchmarks", "values": ["GSM"]}]}"#,
                "unknown benchmark \"GSM\"",
            ),
            (
                r#"{"constraints": [{"constraint": "budget"}]}"#,
                "unknown constraint 'budget'",
            ),
            (
                r#"{"constraints": [{"constraint": "lane_budget"}]}"#,
                "needs a numeric \"max\"",
            ),
            (
                r#"{"defaults": {"shard": "3/2"}}"#,
                "defaults.shard must be \"I/N\"",
            ),
            (r#"{"sweeps": []}"#, "unknown top-level key 'sweeps'"),
            (r#"[1, 2]"#, "must be a JSON object"),
            (r#"{"axes": "#, "not valid JSON"),
        ];
        for (text, needle) in cases {
            let err = SpecFile::parse(text).expect_err(text);
            assert!(
                err.message.contains(needle),
                "error for {text:?} should mention {needle:?}, got: {}",
                err.message
            );
            // Every message names known alternatives or the offending value.
        }
    }

    #[test]
    fn unknown_axis_error_lists_the_known_axes() {
        let err = SpecFile::parse(r#"{"axes": [{"axis": "nope", "values": [1]}]}"#).unwrap_err();
        for name in AXIS_NAMES {
            assert!(
                err.message.contains(name),
                "missing {name}: {}",
                err.message
            );
        }
    }

    #[test]
    fn benchmarks_axis_defaults_to_all_six() {
        let lowered = SpecFile::parse(r#"{"axes": [{"axis": "vector_lanes", "values": [2]}]}"#)
            .unwrap()
            .lower()
            .unwrap();
        assert_eq!(lowered.benchmarks, Benchmark::ALL.to_vec());
    }
}
