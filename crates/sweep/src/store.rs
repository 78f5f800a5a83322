//! The JSONL result store: one run per line, each with a stable
//! content-derived key, so interrupted or extended sweeps resume
//! incrementally — runs whose keys are already on disk are skipped.
//!
//! The key hashes the benchmark, ISA variant, memory model and the *full*
//! machine fingerprint (every architectural and memory parameter, but not
//! the display name): the same design point always maps to the same key, on
//! any machine, in any session.

use std::collections::HashSet;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};

use vmv_kernels::{Benchmark, IsaVariant};
use vmv_machine::MachineConfig;
use vmv_mem::MemoryModel;

use crate::fingerprint::{fnv1a64, full_fingerprint};
use crate::json::{Json, JsonError};

/// Stable content-derived key of one run (16 hex digits).
pub fn run_key(
    benchmark: Benchmark,
    variant: IsaVariant,
    machine: &MachineConfig,
    model: MemoryModel,
) -> String {
    run_key_of(benchmark, variant, model, &full_fingerprint(machine))
}

/// [`run_key`] from the machine's [`full_fingerprint`], which a sweep
/// formats once per point for all of the point's benchmarks.
pub(crate) fn run_key_of(
    benchmark: Benchmark,
    variant: IsaVariant,
    model: MemoryModel,
    full_fingerprint: &str,
) -> String {
    let canonical = format!(
        "{}|{}|{:?}|{}",
        benchmark.name(),
        variant.name(),
        model,
        full_fingerprint
    );
    format!("{:016x}", fnv1a64(canonical.as_bytes()))
}

/// One persisted run: the measurement columns every analysis pass needs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    pub key: String,
    /// Design-point name (display only; never part of the key).
    pub config: String,
    pub benchmark: String,
    pub variant: String,
    pub model: String,
    pub cycles: u64,
    pub stall_cycles: u64,
    pub operations: u64,
    pub micro_ops: u64,
    /// Cycles spent in the vector regions.
    pub vector_cycles: u64,
    /// Whether every golden-output check passed.
    pub check_ok: bool,
}

impl RunRecord {
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("key".into(), Json::str(&self.key)),
            ("config".into(), Json::str(&self.config)),
            ("benchmark".into(), Json::str(&self.benchmark)),
            ("variant".into(), Json::str(&self.variant)),
            ("model".into(), Json::str(&self.model)),
            ("cycles".into(), Json::u64(self.cycles)),
            ("stall_cycles".into(), Json::u64(self.stall_cycles)),
            ("operations".into(), Json::u64(self.operations)),
            ("micro_ops".into(), Json::u64(self.micro_ops)),
            ("vector_cycles".into(), Json::u64(self.vector_cycles)),
            ("check_ok".into(), Json::Bool(self.check_ok)),
        ])
    }

    pub fn from_json(v: &Json) -> Option<RunRecord> {
        Some(RunRecord {
            key: v.get("key")?.as_str()?.to_string(),
            config: v.get("config")?.as_str()?.to_string(),
            benchmark: v.get("benchmark")?.as_str()?.to_string(),
            variant: v.get("variant")?.as_str()?.to_string(),
            model: v.get("model")?.as_str()?.to_string(),
            cycles: v.get("cycles")?.as_u64()?,
            stall_cycles: v.get("stall_cycles")?.as_u64()?,
            operations: v.get("operations")?.as_u64()?,
            micro_ops: v.get("micro_ops")?.as_u64()?,
            vector_cycles: v.get("vector_cycles")?.as_u64()?,
            check_ok: v.get("check_ok")?.as_bool()?,
        })
    }
}

/// Map every run key of `points × benchmarks` to the index of its design
/// point.  The analyses use this to join stored records to points by
/// *content* — display names can change between sweeps without orphaning
/// records.
pub fn point_key_index(
    points: &[crate::spec::SweepPoint],
    benchmarks: &[Benchmark],
) -> std::collections::HashMap<String, usize> {
    let mut map = std::collections::HashMap::new();
    for (i, p) in points.iter().enumerate() {
        let variant = vmv_core::variant_for(&p.machine);
        for &benchmark in benchmarks {
            map.insert(run_key(benchmark, variant, &p.machine, p.model), i);
        }
    }
    map
}

/// Join `records` to `points` by content-derived run key (over all six
/// benchmarks): failed-check records are dropped, duplicate keys (e.g.
/// `cat`-merged shard files) count once (first occurrence wins), and
/// records matching none of `points` are ignored.  Returns `(point index,
/// record)` pairs — the single join policy shared by the Pareto and
/// sensitivity analyses.
pub fn matched_records<'r>(
    points: &[crate::spec::SweepPoint],
    records: &'r [RunRecord],
) -> Vec<(usize, &'r RunRecord)> {
    let key_index = point_key_index(points, &Benchmark::ALL);
    let mut seen = std::collections::HashSet::new();
    records
        .iter()
        .filter(|r| r.check_ok)
        .filter_map(|r| key_index.get(&r.key).map(|&i| (i, r)))
        .filter(|(_, r)| seen.insert(r.key.as_str()))
        .collect()
}

/// The self-describing first line of a spec-driven JSONL store: the name,
/// content fingerprint and full canonical serialization of the spec that
/// produced the records.  Readers that only want records can ignore it (it
/// has no `key` field, so [`RunRecord::from_json`] rejects it), but any tool
/// holding just the file can recover *what experiment it answers*.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreHeader {
    /// Spec display name.
    pub name: String,
    /// Semantic content hash of the spec (16 hex digits).
    pub fingerprint: String,
    /// Canonical JSON of the spec itself.
    pub spec: Json,
}

/// Schema version tag of the header line.
const SPEC_HEADER_VERSION: u64 = 1;

impl StoreHeader {
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("spec_header".into(), Json::u64(SPEC_HEADER_VERSION)),
            ("name".into(), Json::str(&self.name)),
            ("fingerprint".into(), Json::str(&self.fingerprint)),
            ("spec".into(), self.spec.clone()),
        ])
    }

    pub fn from_json(v: &Json) -> Option<StoreHeader> {
        // An unknown version tag means unknown field semantics: treat the
        // line as opaque (the store reads as header-less) rather than
        // mis-parsing it as v1.
        v.get("spec_header")?
            .as_u64()
            .filter(|&version| version == SPEC_HEADER_VERSION)?;
        Some(StoreHeader {
            name: v.get("name")?.as_str()?.to_string(),
            fingerprint: v.get("fingerprint")?.as_str()?.to_string(),
            spec: v.get("spec")?.clone(),
        })
    }
}

/// Classification of one raw store line — the single reader shared by
/// [`ResultStore`] (whose bulk readers silently skip everything that is not
/// a record) and diagnosing consumers like `vmv-report`'s loader (which
/// reports line numbers and reasons for everything else).
///
/// A line is tried as a record first, then as a header: the two shapes are
/// disjoint (records carry `key`, headers carry `spec_header`), so the
/// order only matters for pathological lines carrying both, which read as
/// records — the interpretation that keeps data.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreLine {
    /// Empty or whitespace-only.
    Blank,
    /// A v1 spec header (meaningful only as the first line of a file).
    Header(StoreHeader),
    /// A well-formed run record.
    Record(RunRecord),
    /// Valid JSON, but neither a v1 header nor a complete run record
    /// (e.g. a future header version, or a record missing fields).
    Unrecognized(Json),
    /// Not valid JSON at all (e.g. a torn final line from a crash).
    Malformed(JsonError),
}

/// Classify one line of a JSONL result store.
pub fn classify_store_line(line: &str) -> StoreLine {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return StoreLine::Blank;
    }
    match Json::parse(trimmed) {
        Err(e) => {
            vmv_obs::incr(vmv_obs::Counter::StoreLinesMalformed);
            StoreLine::Malformed(e)
        }
        Ok(v) => {
            if let Some(r) = RunRecord::from_json(&v) {
                StoreLine::Record(r)
            } else if let Some(h) = StoreHeader::from_json(&v) {
                StoreLine::Header(h)
            } else {
                vmv_obs::incr(vmv_obs::Counter::StoreLinesUnrecognized);
                StoreLine::Unrecognized(v)
            }
        }
    }
}

/// Outcome of one [`ResultStore::merge_from`] invocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MergeStats {
    /// Records already in the destination store before the merge.
    pub existing: usize,
    /// Shard records examined.
    pub scanned: usize,
    /// Records appended to the destination.
    pub merged: usize,
    /// Shard records skipped because their key was already present.
    pub duplicates: usize,
    /// The spec header the destination ended up carrying: its own
    /// (configured or on disk), else the first shard header seen.
    pub reference_header: Option<StoreHeader>,
    /// `(shard path, its header)` for every shard whose spec fingerprint
    /// disagrees with the reference (records are still merged — keys are
    /// content-derived — but the mixture is worth a warning).
    pub mismatched_shards: Vec<(PathBuf, StoreHeader)>,
}

/// Outcome of one [`ResultStore::compact`] invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Records surviving compaction (one per distinct key, sorted).
    pub kept: usize,
    /// Superseded duplicates dropped.
    pub dropped: usize,
}

/// An append-only JSON Lines file of [`RunRecord`]s, optionally prefixed by
/// a [`StoreHeader`] line describing the spec that produced it.
pub struct ResultStore {
    path: PathBuf,
    /// Header written as the first line when this store creates its file.
    header: Option<StoreHeader>,
}

impl ResultStore {
    /// Open (or lazily create on first append) the store at `path`.
    pub fn open(path: impl AsRef<Path>) -> ResultStore {
        ResultStore {
            path: path.as_ref().to_path_buf(),
            header: None,
        }
    }

    /// Open a store that will stamp `header` as its first line when it
    /// creates (or first writes into an empty) file — the self-describing
    /// form every spec-driven sweep uses.
    pub fn with_header(path: impl AsRef<Path>, header: StoreHeader) -> ResultStore {
        ResultStore {
            path: path.as_ref().to_path_buf(),
            header: Some(header),
        }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The spec header on disk, if the file exists and starts with one.
    /// Only the first line is read.
    pub fn read_header(&self) -> std::io::Result<Option<StoreHeader>> {
        let file = match std::fs::File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let mut first = String::new();
        std::io::BufReader::new(file).read_line(&mut first)?;
        Ok(match classify_store_line(&first) {
            StoreLine::Header(h) => Some(h),
            _ => None,
        })
    }

    /// All run keys already persisted.  A missing file is an empty store;
    /// unparsable lines are skipped (a torn final line from an interrupted
    /// run must not poison the store).
    pub fn completed_keys(&self) -> std::io::Result<HashSet<String>> {
        Ok(self.load()?.into_iter().map(|r| r.key).collect())
    }

    /// Load every well-formed record.
    pub fn load(&self) -> std::io::Result<Vec<RunRecord>> {
        let file = match std::fs::File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut records = Vec::new();
        for line in std::io::BufReader::new(file).lines() {
            if let StoreLine::Record(r) = classify_store_line(&line?) {
                records.push(r);
            }
        }
        Ok(records)
    }

    /// Merge shard stores into this one: every record whose run key is not
    /// yet present (in this store or an earlier shard) is appended, in shard
    /// order.  The first record seen for a key wins — the same policy as
    /// [`matched_records`] — so merging is idempotent and order-stable.
    ///
    /// This is the multi-machine sharding story: each worker sweeps into its
    /// own JSONL file, and `merge` unions them by content-derived key.
    /// Spec headers travel with the merge: the destination's own header wins
    /// (configured via [`ResultStore::with_header`] or already on disk);
    /// an empty destination adopts the first shard header it sees; every
    /// shard whose header fingerprint disagrees with that reference is
    /// listed in [`MergeStats::mismatched_shards`] (its records still merge —
    /// keys are content-derived — but the mixture deserves a warning).
    pub fn merge_from(&self, shards: &[impl AsRef<Path>]) -> std::io::Result<MergeStats> {
        let mut seen = self.completed_keys()?;
        let existing = seen.len();
        let mut stats = MergeStats {
            existing,
            ..MergeStats::default()
        };
        stats.reference_header = match self.read_header()? {
            Some(on_disk) => Some(on_disk),
            None => self.header.clone(),
        };
        for shard in shards {
            let shard_store = ResultStore::open(shard.as_ref());
            if let Some(shard_header) = shard_store.read_header()? {
                match &stats.reference_header {
                    Some(r) if r.fingerprint != shard_header.fingerprint => stats
                        .mismatched_shards
                        .push((shard.as_ref().to_path_buf(), shard_header)),
                    Some(_) => {}
                    None => stats.reference_header = Some(shard_header),
                }
            }
            let mut fresh = Vec::new();
            for record in shard_store.load()? {
                stats.scanned += 1;
                if seen.insert(record.key.clone()) {
                    fresh.push(record);
                } else {
                    stats.duplicates += 1;
                }
            }
            stats.merged += fresh.len();
            // Append through a store carrying the reference header, so an
            // empty destination is stamped before its first record.
            ResultStore {
                path: self.path.clone(),
                header: stats.reference_header.clone(),
            }
            .append(&fresh)?;
        }
        vmv_obs::add(
            vmv_obs::Counter::StoreDuplicateKeys,
            stats.duplicates as u64,
        );
        Ok(stats)
    }

    /// Compact the store in place: drop superseded duplicate keys (the first
    /// record for a key is authoritative, matching the [`matched_records`]
    /// join policy; later duplicates — e.g. from `cat`-merged shards — are
    /// dropped) and rewrite the file sorted by run key.  A spec header on
    /// disk (or configured on this store) is preserved as the first line.
    /// The rewrite goes through a temporary file and an atomic rename, so a
    /// crash mid-compact never loses the store.
    pub fn compact(&self) -> std::io::Result<CompactStats> {
        let header = match self.read_header()? {
            Some(on_disk) => Some(on_disk),
            None => self.header.clone(),
        };
        let records = self.load()?;
        let scanned = records.len();
        let mut seen = HashSet::new();
        let mut kept: Vec<RunRecord> = records
            .into_iter()
            .filter(|r| seen.insert(r.key.clone()))
            .collect();
        kept.sort_by(|a, b| a.key.cmp(&b.key));

        let mut buf = String::new();
        if let Some(h) = &header {
            buf.push_str(&h.to_json().render());
            buf.push('\n');
        }
        for r in &kept {
            buf.push_str(&r.to_json().render());
            buf.push('\n');
        }
        let mut tmp = self.path.clone();
        let file_name = tmp
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "store".to_string());
        tmp.set_file_name(format!("{file_name}.compact.tmp"));
        std::fs::write(&tmp, buf.as_bytes())?;
        std::fs::rename(&tmp, &self.path)?;
        Ok(CompactStats {
            kept: kept.len(),
            dropped: scanned - kept.len(),
        })
    }

    /// Append records as JSON Lines (one `write` per batch, flushed).
    pub fn append(&self, records: &[RunRecord]) -> std::io::Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        if let Some(dir) = self.path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(&self.path)?;
        let torn = !ends_with_newline(&file)?;
        if torn && is_lone_unreadable_line(&file)? {
            // The file is nothing but a torn first line no reader accepts
            // (a crash while the first line, usually the header, was being
            // written): it is an empty store, so start it over and stamp
            // the header first.
            file.set_len(0)?;
        }
        let mut buf = String::new();
        if file.metadata()?.len() == 0 {
            // First write into this file: stamp the spec header line.
            if let Some(h) = &self.header {
                buf.push_str(&h.to_json().render());
                buf.push('\n');
            }
        } else if torn {
            // A torn final line (interrupted earlier run) must not swallow
            // the first new record: re-open on a fresh line.
            buf.push('\n');
        }
        for r in records {
            buf.push_str(&r.to_json().render());
            buf.push('\n');
        }
        file.write_all(buf.as_bytes())?;
        file.flush()?;
        vmv_obs::add(vmv_obs::Counter::StoreRecordsAppended, records.len() as u64);
        Ok(())
    }
}

/// Whether the file holds one unterminated line that neither
/// [`ResultStore::load`] nor [`ResultStore::read_header`] accepts.
fn is_lone_unreadable_line(file: &std::fs::File) -> std::io::Result<bool> {
    use std::io::{Seek, SeekFrom};
    let mut f = file;
    f.seek(SeekFrom::Start(0))?;
    let mut first = Vec::new();
    std::io::BufReader::new(f).read_until(b'\n', &mut first)?;
    Ok(first.last() != Some(&b'\n')
        && !matches!(
            classify_store_line(&String::from_utf8_lossy(&first)),
            StoreLine::Record(_) | StoreLine::Header(_)
        ))
}

/// Whether the file is empty or its last byte is `\n`.
fn ends_with_newline(file: &std::fs::File) -> std::io::Result<bool> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = file;
    let len = f.metadata()?.len();
    if len == 0 {
        return Ok(true);
    }
    f.seek(SeekFrom::Start(len - 1))?;
    let mut last = [0u8; 1];
    f.read_exact(&mut last)?;
    Ok(last[0] == b'\n')
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmv_machine::presets;

    fn record(key: &str, cycles: u64) -> RunRecord {
        RunRecord {
            key: key.to_string(),
            config: "2w +Vector2".to_string(),
            benchmark: "GSM_DEC".to_string(),
            variant: "vector".to_string(),
            model: "Realistic".to_string(),
            cycles,
            stall_cycles: 17,
            operations: 1000,
            micro_ops: 4000,
            vector_cycles: cycles / 2,
            check_ok: true,
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "vmv_sweep_store_{tag}_{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn run_keys_are_stable_and_content_derived() {
        let m = presets::vector2(2);
        let k1 = run_key(
            Benchmark::GsmDec,
            IsaVariant::Vector,
            &m,
            MemoryModel::Realistic,
        );
        let k2 = run_key(
            Benchmark::GsmDec,
            IsaVariant::Vector,
            &m,
            MemoryModel::Realistic,
        );
        assert_eq!(k1, k2);
        assert_eq!(k1.len(), 16);

        // The display name must not matter; real parameters must.
        let mut renamed = m.clone();
        renamed.name = "anything".to_string();
        assert_eq!(
            run_key(
                Benchmark::GsmDec,
                IsaVariant::Vector,
                &renamed,
                MemoryModel::Realistic
            ),
            k1
        );
        let mut bigger = m.clone();
        bigger.memory.l2_size *= 2;
        assert_ne!(
            run_key(
                Benchmark::GsmDec,
                IsaVariant::Vector,
                &bigger,
                MemoryModel::Realistic
            ),
            k1
        );
        assert_ne!(
            run_key(
                Benchmark::GsmDec,
                IsaVariant::Vector,
                &m,
                MemoryModel::Perfect
            ),
            k1
        );
        assert_ne!(
            run_key(
                Benchmark::GsmEnc,
                IsaVariant::Vector,
                &m,
                MemoryModel::Realistic
            ),
            k1
        );
    }

    #[test]
    fn jsonl_roundtrip_preserves_records_and_keys() {
        let path = temp_path("roundtrip");
        let store = ResultStore::open(&path);
        assert!(
            store.completed_keys().unwrap().is_empty(),
            "missing file = empty store"
        );

        let records = vec![
            record("aaaa000011112222", 123),
            record("bbbb000011112222", 456),
        ];
        store.append(&records).unwrap();
        store.append(&[record("cccc000011112222", 789)]).unwrap();

        let loaded = store.load().unwrap();
        assert_eq!(loaded.len(), 3);
        assert_eq!(loaded[0], records[0]);
        assert_eq!(loaded[2].cycles, 789);

        let keys = store.completed_keys().unwrap();
        assert!(keys.contains("aaaa000011112222"));
        assert!(keys.contains("cccc000011112222"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn merge_unions_shards_by_key_first_occurrence_wins() {
        let dest_path = temp_path("merge_dest");
        let shard_a = temp_path("merge_a");
        let shard_b = temp_path("merge_b");
        let dest = ResultStore::open(&dest_path);
        dest.append(&[record("aaaa000011112222", 1)]).unwrap();
        ResultStore::open(&shard_a)
            .append(&[
                record("aaaa000011112222", 999), // duplicate of dest: skipped
                record("bbbb000011112222", 2),
            ])
            .unwrap();
        ResultStore::open(&shard_b)
            .append(&[
                record("bbbb000011112222", 888), // duplicate of shard_a: skipped
                record("cccc000011112222", 3),
            ])
            .unwrap();

        let stats = dest.merge_from(&[&shard_a, &shard_b]).unwrap();
        assert_eq!(stats.existing, 1);
        assert_eq!(stats.scanned, 4);
        assert_eq!(stats.merged, 2);
        assert_eq!(stats.duplicates, 2);

        let records = dest.load().unwrap();
        assert_eq!(records.len(), 3);
        // First occurrence won everywhere.
        assert_eq!(records[0].cycles, 1);
        assert_eq!(records[1].cycles, 2);
        assert_eq!(records[2].cycles, 3);

        // Merging again is a no-op.
        let again = dest.merge_from(&[&shard_a, &shard_b]).unwrap();
        assert_eq!(again.merged, 0);
        assert_eq!(again.duplicates, 4);
        assert_eq!(dest.load().unwrap().len(), 3);
        for p in [&dest_path, &shard_a, &shard_b] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn compact_drops_duplicates_and_sorts_by_key() {
        let path = temp_path("compact");
        let store = ResultStore::open(&path);
        store
            .append(&[
                record("cccc000011112222", 3),
                record("aaaa000011112222", 1),
                record("cccc000011112222", 777), // superseded duplicate
                record("bbbb000011112222", 2),
            ])
            .unwrap();
        let stats = store.compact().unwrap();
        assert_eq!(stats.kept, 3);
        assert_eq!(stats.dropped, 1);

        let records = store.load().unwrap();
        let keys: Vec<_> = records.iter().map(|r| r.key.as_str()).collect();
        assert_eq!(
            keys,
            vec!["aaaa000011112222", "bbbb000011112222", "cccc000011112222"]
        );
        // The first record for the duplicate key survived.
        assert_eq!(records[2].cycles, 3);

        // Compacting an already-compact store changes nothing.
        let stats = store.compact().unwrap();
        assert_eq!(
            stats,
            CompactStats {
                kept: 3,
                dropped: 0
            }
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compact_of_missing_store_is_an_empty_store() {
        let path = temp_path("compact_missing");
        let store = ResultStore::open(&path);
        let stats = store.compact().unwrap();
        assert_eq!(
            stats,
            CompactStats {
                kept: 0,
                dropped: 0
            }
        );
        let _ = std::fs::remove_file(&path);
    }

    fn header(fingerprint: &str) -> StoreHeader {
        StoreHeader {
            name: "test_spec".to_string(),
            fingerprint: fingerprint.to_string(),
            spec: Json::Obj(vec![("axes".into(), Json::Arr(vec![]))]),
        }
    }

    #[test]
    fn header_is_stamped_once_and_invisible_to_record_readers() {
        let path = temp_path("header");
        let store = ResultStore::with_header(&path, header("00ff00ff00ff00ff"));
        assert_eq!(
            store.read_header().unwrap(),
            None,
            "missing file: no header"
        );
        store.append(&[record("aaaa000011112222", 1)]).unwrap();
        store.append(&[record("bbbb000011112222", 2)]).unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3, "header + two records");
        assert!(text.starts_with("{\"spec_header\":1,"));
        assert_eq!(
            text.matches("spec_header").count(),
            1,
            "the header is stamped exactly once"
        );

        // Record readers never see it; header readers round-trip it.
        assert_eq!(store.load().unwrap().len(), 2);
        assert_eq!(store.completed_keys().unwrap().len(), 2);
        let back = store.read_header().unwrap().unwrap();
        assert_eq!(back, header("00ff00ff00ff00ff"));
        // A header-less open of the same path still reads everything.
        let plain = ResultStore::open(&path);
        assert_eq!(plain.load().unwrap().len(), 2);
        assert_eq!(plain.read_header().unwrap().unwrap().name, "test_spec");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unknown_header_versions_read_as_headerless() {
        let path = temp_path("header_version");
        std::fs::write(
            &path,
            "{\"spec_header\":2,\"name\":\"future\",\"fingerprint\":\"00\",\"spec\":{}}\n",
        )
        .unwrap();
        let store = ResultStore::open(&path);
        assert_eq!(
            store.read_header().unwrap(),
            None,
            "a future header version must not be mis-parsed as v1"
        );
        assert!(store.load().unwrap().is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compact_preserves_the_header() {
        let path = temp_path("compact_header");
        let store = ResultStore::with_header(&path, header("1111222233334444"));
        store
            .append(&[
                record("cccc000011112222", 3),
                record("aaaa000011112222", 1),
                record("cccc000011112222", 777),
            ])
            .unwrap();
        // Compact through a plain open: the on-disk header must survive.
        let stats = ResultStore::open(&path).compact().unwrap();
        assert_eq!(
            stats,
            CompactStats {
                kept: 2,
                dropped: 1
            }
        );
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"spec_header\":1,"), "{text}");
        assert_eq!(
            ResultStore::open(&path).read_header().unwrap().unwrap(),
            header("1111222233334444")
        );
        assert_eq!(ResultStore::open(&path).load().unwrap().len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn merge_adopts_headers_and_counts_spec_mismatches() {
        let dest_path = temp_path("merge_header_dest");
        let shard_a = temp_path("merge_header_a");
        let shard_b = temp_path("merge_header_b");
        ResultStore::with_header(&shard_a, header("aaaaaaaaaaaaaaaa"))
            .append(&[record("aaaa000011112222", 1)])
            .unwrap();
        ResultStore::with_header(&shard_b, header("bbbbbbbbbbbbbbbb"))
            .append(&[record("bbbb000011112222", 2)])
            .unwrap();

        // An empty destination adopts the first shard's header; the second
        // shard then disagrees with it.
        let dest = ResultStore::open(&dest_path);
        let stats = dest.merge_from(&[&shard_a, &shard_b]).unwrap();
        assert_eq!(stats.merged, 2);
        assert_eq!(
            stats.reference_header.as_ref().unwrap().fingerprint,
            "aaaaaaaaaaaaaaaa"
        );
        assert_eq!(stats.mismatched_shards.len(), 1);
        assert_eq!(stats.mismatched_shards[0].0, shard_b);
        assert_eq!(stats.mismatched_shards[0].1.fingerprint, "bbbbbbbbbbbbbbbb");
        assert_eq!(
            dest.read_header().unwrap().unwrap().fingerprint,
            "aaaaaaaaaaaaaaaa"
        );
        assert_eq!(dest.load().unwrap().len(), 2);

        // Same-spec shards merge silently.
        let clean_path = temp_path("merge_header_clean");
        let clean = ResultStore::with_header(&clean_path, header("aaaaaaaaaaaaaaaa"));
        let stats = clean.merge_from(&[&shard_a]).unwrap();
        assert!(stats.mismatched_shards.is_empty());
        assert_eq!(
            clean.read_header().unwrap().unwrap().fingerprint,
            "aaaaaaaaaaaaaaaa"
        );
        for p in [&dest_path, &shard_a, &shard_b, &clean_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn classify_distinguishes_every_line_shape() {
        let r = record("aaaa000011112222", 5);
        assert_eq!(
            classify_store_line(&r.to_json().render()),
            StoreLine::Record(r)
        );
        let h = header("00ff00ff00ff00ff");
        assert_eq!(
            classify_store_line(&h.to_json().render()),
            StoreLine::Header(h)
        );
        assert_eq!(classify_store_line("   \t "), StoreLine::Blank);
        assert!(matches!(
            classify_store_line("{\"key\":\"trunc"),
            StoreLine::Malformed(_)
        ));
        // Valid JSON that is neither shape: a future header version and a
        // record missing its measurement columns.
        assert!(matches!(
            classify_store_line("{\"spec_header\":2,\"name\":\"future\"}"),
            StoreLine::Unrecognized(_)
        ));
        assert!(matches!(
            classify_store_line("{\"key\":\"aaaa000011112222\"}"),
            StoreLine::Unrecognized(_)
        ));
    }

    #[test]
    fn a_store_torn_at_any_byte_loads_complete_records_and_resumes_cleanly() {
        use crate::executor::{run_sweep, ExecOptions};
        use crate::specfile::SpecFile;
        let spec = SpecFile::parse(
            r#"{"name": "torn", "axes": [
                {"axis": "mem_latency", "values": [100, 200, 300]},
                {"axis": "benchmarks", "values": ["GSM_DEC"]}]}"#,
        )
        .unwrap();
        let lowered = spec.lower().unwrap();
        let points = lowered.spec.expand().points;
        let opts = ExecOptions::for_spec(&lowered, 1);
        let path = temp_path("crash");
        let sweep = || {
            let store = ResultStore::with_header(&path, spec.store_header());
            run_sweep(&points, &opts, Some(&store)).unwrap();
            store
        };

        let clean_store = sweep();
        let clean = std::fs::read(&path).unwrap();
        let clean_records = clean_store.load().unwrap();
        assert_eq!(clean_records.len(), 3);
        clean_store.compact().unwrap();
        let compacted = std::fs::read(&path).unwrap();
        // `(start, end)` of every line, newline excluded; line 0 is the
        // header.
        let mut lines = Vec::new();
        let mut start = 0;
        for (i, _) in clean.iter().enumerate().filter(|(_, &b)| b == b'\n') {
            lines.push((start, i));
            start = i + 1;
        }
        assert_eq!(lines.len(), 4);

        let store = ResultStore::open(&path);
        for cut in 0..=clean.len() {
            std::fs::write(&path, &clean[..cut]).unwrap();
            let complete = lines[1..].iter().filter(|&&(_, end)| end <= cut).count();
            assert_eq!(
                store.load().unwrap(),
                clean_records[..complete],
                "cut at byte {cut}"
            );
        }

        let cuts = lines
            .iter()
            .flat_map(|&(start, end)| [start, (start + end) / 2])
            .chain([clean.len()]);
        for cut in cuts {
            std::fs::write(&path, &clean[..cut]).unwrap();
            let store = sweep();
            let records = store.load().unwrap();
            assert_eq!(records, clean_records, "rerun after a cut at byte {cut}");
            let keys: HashSet<&str> = records.iter().map(|r| r.key.as_str()).collect();
            assert_eq!(keys.len(), records.len(), "duplicate keys, cut {cut}");
            assert_eq!(
                store.read_header().unwrap(),
                Some(spec.store_header()),
                "cut at byte {cut}"
            );
            store.compact().unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), compacted, "cut {cut}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_lines_are_skipped_and_do_not_swallow_appends() {
        let path = temp_path("torn");
        let store = ResultStore::open(&path);
        store.append(&[record("aaaa000011112222", 1)]).unwrap();
        // Simulate a crash mid-write.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"{\"key\":\"trunc").unwrap();
        }
        assert_eq!(store.load().unwrap().len(), 1);
        // An append after the torn line must start on a fresh line, so the
        // new record is recognised as completed on the next load.
        store.append(&[record("bbbb000011112222", 2)]).unwrap();
        let keys = store.completed_keys().unwrap();
        assert!(keys.contains("aaaa000011112222"));
        assert!(keys.contains("bbbb000011112222"));
        let _ = std::fs::remove_file(&path);
    }
}
