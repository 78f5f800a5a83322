//! Persisted cycle-attribution profiles: the `vmv-profile/1` schema.
//!
//! `sweep --profile` writes one canonical-JSON document per run key into a
//! profile directory next to the result store (by default
//! `<store>.profiles/<key>.json`).  Each document carries the full
//! [`vmv_sim::Profile`] of that run — per-cause cycle totals, per-region /
//! per-block breakdowns, the worst bundles and blamed producer ops, and
//! the capped bundle-issue timeline — plus enough run metadata to render a
//! report without re-opening the store.
//!
//! The document is written with [`Json::render`] (single line, insertion-
//! ordered keys), so byte-identical inputs produce byte-identical files
//! and the golden tests can pin them.  Parsing is name-keyed and ignores
//! unknown fields, the same backward-compatibility rule as `vmv-metrics/1`.

use std::io;
use std::path::{Path, PathBuf};

use vmv_obs::json::Json;
use vmv_sim::Profile;
// Re-exported so profile consumers (vmv-report) get the cause taxonomy and
// lane names from the same place they get the documents.
pub use vmv_sim::{Cause, LANE_NAMES, N_CAUSES, N_STALLS, STALL_BASE};

/// Schema tag of a persisted profile document.
pub const PROFILE_SCHEMA: &str = "vmv-profile/1";

/// Run metadata stamped into a profile document (mirrors the store row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileMeta {
    pub key: String,
    pub config: String,
    pub benchmark: String,
    pub variant: String,
    pub model: String,
}

/// Default profile directory for a store: `<store path>.profiles`.
pub fn default_dir(store_path: &Path) -> PathBuf {
    let mut os = store_path.as_os_str().to_os_string();
    os.push(".profiles");
    PathBuf::from(os)
}

/// File a run key's profile lives in.  Keys are 16 hex digits
/// ([`crate::store::run_key`]), so the name needs no escaping.
pub fn path_for(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{key}.json"))
}

fn causes_obj(causes: &[u64; N_CAUSES]) -> Json {
    Json::Obj(
        Cause::ALL
            .iter()
            .map(|c| (c.name().to_string(), Json::u64(causes[*c as usize])))
            .collect(),
    )
}

fn stalls_obj(stalls: &[u64; N_STALLS]) -> Json {
    Json::Obj(
        Cause::ALL[STALL_BASE..]
            .iter()
            .zip(stalls)
            .map(|(c, &v)| (c.name().to_string(), Json::u64(v)))
            .collect(),
    )
}

/// The canonical JSON document of one run's profile.
pub fn profile_json(meta: &ProfileMeta, profile: &Profile) -> Json {
    let regions = profile
        .regions
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("id".into(), Json::u64(r.id as u64)),
                ("name".into(), Json::str(&r.name)),
                ("causes".into(), causes_obj(&r.causes)),
            ])
        })
        .collect();
    // Blocks that never ran and bundles that never issued attribute zero
    // cycles by construction; dropping them keeps documents proportional
    // to the *executed* program without breaking the sum-exactly checks.
    let blocks = profile
        .blocks
        .iter()
        .filter(|b| b.visits > 0)
        .map(|b| {
            Json::Obj(vec![
                ("block".into(), Json::u64(b.block as u64)),
                ("region".into(), Json::u64(b.region as u64)),
                ("visits".into(), Json::u64(b.visits)),
                ("causes".into(), causes_obj(&b.causes)),
            ])
        })
        .collect();
    let bundles = profile
        .bundles
        .iter()
        .filter(|b| b.issues > 0)
        .map(|b| {
            Json::Obj(vec![
                ("bundle".into(), Json::u64(b.bundle as u64)),
                ("block".into(), Json::u64(b.block as u64)),
                ("lane".into(), Json::u64(b.lane as u64)),
                ("class".into(), Json::str(b.class.name())),
                ("issues".into(), Json::u64(b.issues)),
                ("stalls".into(), stalls_obj(&b.stalls)),
            ])
        })
        .collect();
    let ops = profile
        .ops
        .iter()
        .filter(|o| o.stalls.iter().any(|&v| v > 0))
        .map(|o| {
            Json::Obj(vec![
                ("op".into(), Json::u64(o.op as u64)),
                ("bundle".into(), Json::u64(o.bundle as u64)),
                ("opcode".into(), Json::str(&o.opcode)),
                ("stalls".into(), stalls_obj(&o.stalls)),
            ])
        })
        .collect();
    let timeline = profile
        .timeline
        .iter()
        .map(|e| {
            Json::Obj(vec![
                ("bundle".into(), Json::u64(e.bundle as u64)),
                ("base".into(), Json::u64(e.base)),
                ("stall".into(), Json::u64(e.stall)),
                (
                    "cause".into(),
                    Json::str(Cause::ALL[e.cause as usize].name()),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), Json::str(PROFILE_SCHEMA)),
        ("key".into(), Json::str(&meta.key)),
        ("config".into(), Json::str(&meta.config)),
        ("benchmark".into(), Json::str(&meta.benchmark)),
        ("variant".into(), Json::str(&meta.variant)),
        ("model".into(), Json::str(&meta.model)),
        ("cycles".into(), Json::u64(profile.total_cycles())),
        ("stall_cycles".into(), Json::u64(profile.stall_cycles())),
        ("causes".into(), causes_obj(&profile.causes)),
        ("regions".into(), Json::Arr(regions)),
        ("blocks".into(), Json::Arr(blocks)),
        ("bundles".into(), Json::Arr(bundles)),
        ("ops".into(), Json::Arr(ops)),
        ("timeline".into(), Json::Arr(timeline)),
        ("events_seen".into(), Json::u64(profile.events_seen)),
    ])
}

/// Write one profile into `dir` (created on demand), returning the path.
pub fn write_profile(dir: &Path, meta: &ProfileMeta, profile: &Profile) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = path_for(dir, &meta.key);
    let mut text = profile_json(meta, profile).render();
    text.push('\n');
    std::fs::write(&path, text)?;
    Ok(path)
}

/// A parsed `vmv-profile/1` document (the report-side view).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileDoc {
    pub meta: ProfileMeta,
    pub cycles: u64,
    pub stall_cycles: u64,
    pub causes: [u64; N_CAUSES],
    pub regions: Vec<DocRegion>,
    pub blocks: Vec<DocBlock>,
    pub bundles: Vec<DocBundle>,
    pub ops: Vec<DocOp>,
    pub timeline: Vec<DocEvent>,
    pub events_seen: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct DocRegion {
    pub id: u32,
    pub name: String,
    pub causes: [u64; N_CAUSES],
}

#[derive(Debug, Clone, PartialEq)]
pub struct DocBlock {
    pub block: u32,
    pub region: u32,
    pub visits: u64,
    pub causes: [u64; N_CAUSES],
}

#[derive(Debug, Clone, PartialEq)]
pub struct DocBundle {
    pub bundle: u32,
    pub block: u32,
    pub lane: u8,
    pub class: String,
    pub issues: u64,
    pub stalls: [u64; N_STALLS],
}

#[derive(Debug, Clone, PartialEq)]
pub struct DocOp {
    pub op: u32,
    pub bundle: u32,
    pub opcode: String,
    pub stalls: [u64; N_STALLS],
}

#[derive(Debug, Clone, PartialEq)]
pub struct DocEvent {
    pub bundle: u32,
    pub base: u64,
    pub stall: u64,
    pub cause: String,
}

impl ProfileDoc {
    /// Total stall cycles of one parsed stall object, across all causes.
    pub fn stall_total(stalls: &[u64; N_STALLS]) -> u64 {
        stalls.iter().sum()
    }
}

fn get_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

fn get_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn parse_causes(v: &Json, key: &str) -> Result<[u64; N_CAUSES], String> {
    let obj = v.get(key).ok_or_else(|| format!("missing {key:?}"))?;
    let mut out = [0u64; N_CAUSES];
    for c in Cause::ALL {
        // Name-keyed and defaulting to 0: a newer writer may add causes
        // this reader ignores, and an older file may lack newer ones.
        out[c as usize] = obj.get(c.name()).and_then(Json::as_u64).unwrap_or(0);
    }
    Ok(out)
}

fn parse_stalls(v: &Json, key: &str) -> Result<[u64; N_STALLS], String> {
    let obj = v.get(key).ok_or_else(|| format!("missing {key:?}"))?;
    let mut out = [0u64; N_STALLS];
    for (i, c) in Cause::ALL[STALL_BASE..].iter().enumerate() {
        out[i] = obj.get(c.name()).and_then(Json::as_u64).unwrap_or(0);
    }
    Ok(out)
}

fn arr<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match v.get(key) {
        Some(Json::Arr(items)) => Ok(items),
        _ => Err(format!("missing array field {key:?}")),
    }
}

/// Parse one `vmv-profile/1` document.
pub fn parse_profile(text: &str) -> Result<ProfileDoc, String> {
    let v = Json::parse(text).map_err(|e| format!("profile JSON: {e:?}"))?;
    let schema = get_str(&v, "schema")?;
    if schema != PROFILE_SCHEMA {
        return Err(format!("unsupported profile schema {schema:?}"));
    }
    let meta = ProfileMeta {
        key: get_str(&v, "key")?,
        config: get_str(&v, "config")?,
        benchmark: get_str(&v, "benchmark")?,
        variant: get_str(&v, "variant")?,
        model: get_str(&v, "model")?,
    };
    let mut regions = Vec::new();
    for r in arr(&v, "regions")? {
        regions.push(DocRegion {
            id: get_u64(r, "id")? as u32,
            name: get_str(r, "name")?,
            causes: parse_causes(r, "causes")?,
        });
    }
    let mut blocks = Vec::new();
    for b in arr(&v, "blocks")? {
        blocks.push(DocBlock {
            block: get_u64(b, "block")? as u32,
            region: get_u64(b, "region")? as u32,
            visits: get_u64(b, "visits")?,
            causes: parse_causes(b, "causes")?,
        });
    }
    let mut bundles = Vec::new();
    for b in arr(&v, "bundles")? {
        bundles.push(DocBundle {
            bundle: get_u64(b, "bundle")? as u32,
            block: get_u64(b, "block")? as u32,
            lane: get_u64(b, "lane")? as u8,
            class: get_str(b, "class")?,
            issues: get_u64(b, "issues")?,
            stalls: parse_stalls(b, "stalls")?,
        });
    }
    let mut ops = Vec::new();
    for o in arr(&v, "ops")? {
        ops.push(DocOp {
            op: get_u64(o, "op")? as u32,
            bundle: get_u64(o, "bundle")? as u32,
            opcode: get_str(o, "opcode")?,
            stalls: parse_stalls(o, "stalls")?,
        });
    }
    let mut timeline = Vec::new();
    for e in arr(&v, "timeline")? {
        timeline.push(DocEvent {
            bundle: get_u64(e, "bundle")? as u32,
            base: get_u64(e, "base")?,
            stall: get_u64(e, "stall")?,
            cause: get_str(e, "cause")?,
        });
    }
    Ok(ProfileDoc {
        meta,
        cycles: get_u64(&v, "cycles")?,
        stall_cycles: get_u64(&v, "stall_cycles")?,
        causes: parse_causes(&v, "causes")?,
        regions,
        blocks,
        bundles,
        ops,
        timeline,
        events_seen: get_u64(&v, "events_seen")?,
    })
}

/// Load and parse the profile of `key` from `dir`.
pub fn load_profile(dir: &Path, key: &str) -> Result<ProfileDoc, String> {
    let path = path_for(dir, key);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_profile(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Load every profile in `dir`, sorted by key.
pub fn load_all(dir: &Path) -> Result<Vec<ProfileDoc>, String> {
    let mut docs = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        docs.push(parse_profile(&text).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    docs.sort_by(|a, b| a.meta.key.cmp(&b.meta.key));
    Ok(docs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmv_kernels::Benchmark;
    use vmv_machine::presets;
    use vmv_mem::MemoryModel;

    fn demo_profile() -> (ProfileMeta, Profile) {
        let machine = presets::vector2(2);
        let prepared = vmv_core::prepare(Benchmark::GsmDec, &machine).unwrap();
        let vmv_core::ScheduleRun {
            outcomes,
            mut profiles,
            ..
        } = vmv_core::simulate_schedule(
            prepared.schedule(),
            &[(&machine, MemoryModel::Realistic)],
            vmv_core::TraceFrom::FirstRun,
            true,
        )
        .unwrap();
        let (outcome, profile) = (&outcomes[0], profiles.remove(0));
        profile.check_against(&outcome.stats).unwrap();
        let meta = ProfileMeta {
            key: crate::store::run_key(
                Benchmark::GsmDec,
                vmv_core::variant_for(&machine),
                &machine,
                MemoryModel::Realistic,
            ),
            config: machine.name.clone(),
            benchmark: Benchmark::GsmDec.name().to_string(),
            variant: outcome.variant.name().to_string(),
            model: format!("{:?}", MemoryModel::Realistic),
        };
        (meta, profile)
    }

    #[test]
    fn profile_document_round_trips() {
        let (meta, profile) = demo_profile();
        let text = profile_json(&meta, &profile).render();
        let doc = parse_profile(&text).unwrap();
        assert_eq!(doc.meta, meta);
        assert_eq!(doc.cycles, profile.total_cycles());
        assert_eq!(doc.stall_cycles, profile.stall_cycles());
        assert_eq!(doc.causes, profile.causes);
        assert_eq!(doc.timeline.len(), profile.timeline.len());
        assert_eq!(doc.events_seen, profile.events_seen);
        // The document's cause totals still satisfy the sum-exactly
        // contract after the round trip.
        assert_eq!(doc.causes.iter().sum::<u64>(), doc.cycles);
        assert_eq!(
            doc.causes[STALL_BASE..].iter().sum::<u64>(),
            doc.stall_cycles
        );
        // Rendering is canonical: a second render is byte-identical.
        assert_eq!(text, profile_json(&meta, &profile).render());
    }

    #[test]
    fn unknown_fields_and_causes_are_ignored() {
        let (meta, profile) = demo_profile();
        let mut text = profile_json(&meta, &profile).render();
        // Splice an unknown top-level field and an unknown cause name in:
        // a vmv-profile/1 reader must ignore both.
        text = text.replacen("{\"schema\"", "{\"future_field\":42,\"schema\"", 1);
        text = text.replacen("{\"issue\":", "{\"warp_drive\":7,\"issue\":", 1);
        let doc = parse_profile(&text).unwrap();
        assert_eq!(doc.causes, profile.causes);
    }

    #[test]
    fn default_dir_appends_profiles_suffix() {
        let dir = default_dir(Path::new("results/sweep.jsonl"));
        assert_eq!(dir, PathBuf::from("results/sweep.jsonl.profiles"));
    }
}
