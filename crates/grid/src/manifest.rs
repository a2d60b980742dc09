//! Chunked manifest spill: the on-disk record stream of a grid run.
//!
//! A grid run's job records live in `shard-NNNNN.jsonl` files under the
//! run directory — one compact JSON record per line, ordered by global
//! job index — so a million-job run is never resident at once: writers
//! spill one shard at a time and readers stream line by line.
//!
//! Records deliberately carry *no spec*: the spec is reconstructable
//! from the [`GridSpec`](crate::GridSpec) plus the index, and *no
//! scheduling metadata* (wall time, worker), so shard bytes are
//! identical across runs and worker counts — resume diffs them
//! directly.
//!
//! While a shard is in flight, completed records stream into an
//! append-only `shard-NNNNN.partial.jsonl` checkpoint: each line is
//! `<16-hex FNV-1a of the JSON>\t<JSON>\n`, written in fsync'd batches
//! by [`PartialShardWriter`]. Each record is serialized once, straight
//! into the batch buffer, and the checksum is taken over that span in
//! place. A `kill -9` mid-shard can therefore tear
//! at most the last batch's tail; [`read_partial`] recovers the maximal
//! checksum-valid prefix and resume replays it as cache hits, then
//! [`PartialShardWriter::reopen`]s the file at that prefix and appends
//! only fresh results after it. When the shard completes it is promoted
//! to the plain `shard-NNNNN.jsonl` form via the usual atomic
//! tmp+rename — the tmp file and the run directory fsync'd, so the
//! promoted shard is durable — and only then is the partial removed.
//!
//! [`for_each_record`] is the one reader. It also migrates the legacy
//! single-file [`RunManifest`] format that
//! `fcdpm batch` writes: pointing it at a `*.json` manifest yields the
//! same record stream, with digests recomputed from the embedded specs.

use std::fs::File;
use std::io::{BufRead as _, BufReader, BufWriter, Write as _};
use std::path::{Path, PathBuf};

use fcdpm_runner::{JobOutcome, RunManifest};
use serde::{Deserialize, Serialize};

use crate::gen::spec_digest;

/// One job's record in a shard file: identity, cache key and outcome —
/// nothing scheduling-dependent, nothing reconstructable from the spec.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GridJobRecord {
    /// Global index in the expanded grid.
    pub index: u64,
    /// Deterministic job ID (index + spec digest).
    pub id: String,
    /// Full 64-bit FNV-1a spec digest, as 16 hex digits — the
    /// incremental-run cache key.
    pub digest: String,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// Executions the job took under the retry policy (1 = first try).
    pub attempts: u32,
}

// Hand-written so shard lines written before retry accounting existed
// (no `attempts` key) still parse: a missing count means the job ran
// exactly once.
impl Deserialize for GridJobRecord {
    fn deserialize(de: &mut serde::Deserializer<'_>) -> Result<Self, serde::Error> {
        use serde::de::field_or_missing;
        let (mut index, mut id, mut digest, mut outcome) = (None, None, None, None);
        let mut attempts: Option<Option<u32>> = None;
        de.begin_object()?;
        while let Some(key) = de.next_key()? {
            match &*key {
                "index" => de.field(&mut index, "index")?,
                "id" => de.field(&mut id, "id")?,
                "digest" => de.field(&mut digest, "digest")?,
                "outcome" => de.field(&mut outcome, "outcome")?,
                "attempts" => de.field(&mut attempts, "attempts")?,
                _ => de.skip_value()?,
            }
        }
        Ok(Self {
            index: field_or_missing(index, "index")?,
            id: field_or_missing(id, "id")?,
            digest: field_or_missing(digest, "digest")?,
            outcome: field_or_missing(outcome, "outcome")?,
            attempts: attempts.flatten().unwrap_or(1),
        })
    }
}

/// Renders a 64-bit digest as the 16-hex-digit on-disk form.
#[must_use]
pub fn digest_hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// The shard file name for shard `shard` (zero-padded so lexicographic
/// directory order is shard order).
#[must_use]
pub fn shard_file_name(shard: u64) -> String {
    format!("shard-{shard:05}.jsonl")
}

/// The in-flight checkpoint file name for shard `shard`.
#[must_use]
pub fn partial_file_name(shard: u64) -> String {
    format!("shard-{shard:05}.partial.jsonl")
}

/// Writes `contents` to `path` atomically: a sibling `.tmp` file is
/// written, fsync'd, and renamed into place, and the directory is
/// fsync'd after the rename, so readers never observe a half-written
/// artifact and a completed call survives power loss. This is the one
/// sanctioned way to produce a whole-file artifact inside a run
/// directory — the `atomic-artifact` analyze rule flags raw `fs::write`
/// calls there.
///
/// # Errors
///
/// Returns a message for I/O failures.
pub fn write_atomic(path: &Path, contents: &str) -> Result<(), String> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file =
        File::create(&tmp).map_err(|e| format!("cannot create `{}`: {e}", tmp.display()))?;
    file.write_all(contents.as_bytes())
        .and_then(|()| file.sync_all())
        .map_err(|e| format!("cannot write `{}`: {e}", tmp.display()))?;
    drop(file);
    publish(&tmp, path)
}

/// Renames the fsync'd `tmp` onto `path`, then fsyncs the containing
/// directory so the rename itself is durable.
fn publish(tmp: &Path, path: &Path) -> Result<(), String> {
    std::fs::rename(tmp, path)
        .map_err(|e| format!("cannot move `{}` into place: {e}", path.display()))?;
    let dir = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    File::open(dir)
        .and_then(|handle| handle.sync_all())
        .map_err(|e| format!("cannot sync `{}`: {e}", dir.display()))
}

/// Appends one checkpoint line to `batch`:
/// `<16-hex FNV-1a of the JSON>\t<JSON>\n`. The record is serialized
/// once, straight into the batch behind a placeholder checksum, and the
/// checksum is then computed over exactly those JSON bytes and written
/// into place — so a torn tail (or a bit flip) fails validation and
/// [`read_partial`] stops there.
fn push_checkpoint_line(batch: &mut Vec<u8>, record: &GridJobRecord) -> Result<(), String> {
    const SUM: usize = 16;
    let start = batch.len();
    batch.extend_from_slice(&[b'0'; SUM]);
    batch.push(b'\t');
    serde_json::to_writer(&mut *batch, record)
        .map_err(|e| format!("record {} does not serialize: {e}", record.index))?;
    let sum = digest_hex(fcdpm_runner::spec::fnv1a(&batch[start + SUM + 1..]));
    batch[start..start + SUM].copy_from_slice(sum.as_bytes());
    batch.push(b'\n');
    Ok(())
}

/// Append-only writer for a shard's in-flight checkpoint file.
///
/// Each [`append`](Self::append) writes a batch of checksummed record
/// lines and fsyncs, so after a `kill -9` the file holds every
/// previously appended batch intact plus at most one torn tail.
#[derive(Debug)]
pub struct PartialShardWriter {
    path: PathBuf,
    file: File,
}

impl PartialShardWriter {
    /// Creates (truncating) the checkpoint file for `shard` under `dir`.
    ///
    /// Call [`read_partial`] *before* this: creation truncates whatever
    /// a previous invocation left behind.
    ///
    /// # Errors
    ///
    /// Returns a message for I/O failures.
    pub fn create(dir: &Path, shard: u64) -> Result<Self, String> {
        let path = dir.join(partial_file_name(shard));
        let file =
            File::create(&path).map_err(|e| format!("cannot create `{}`: {e}", path.display()))?;
        Ok(Self { path, file })
    }

    /// Reopens the existing checkpoint file at `path` for appending
    /// after its first `valid_bytes` — the [`PartialRead::valid_bytes`]
    /// of a [`read_partial`] of the same file. Anything past that
    /// prefix (a torn tail) is cut off and the cut fsync'd before the
    /// first append; the valid records stay where they are.
    ///
    /// # Errors
    ///
    /// Returns a message for I/O failures, or when the file is shorter
    /// than `valid_bytes`.
    pub fn reopen(path: &Path, valid_bytes: u64) -> Result<Self, String> {
        let path = path.to_path_buf();
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| format!("cannot open `{}`: {e}", path.display()))?;
        let len = file
            .metadata()
            .map_err(|e| format!("cannot stat `{}`: {e}", path.display()))?
            .len();
        if len < valid_bytes {
            return Err(format!(
                "`{}` holds {len} bytes, fewer than its {valid_bytes}-byte valid prefix",
                path.display()
            ));
        }
        if len > valid_bytes {
            file.set_len(valid_bytes)
                .and_then(|()| file.sync_data())
                .map_err(|e| format!("cannot truncate `{}`: {e}", path.display()))?;
        }
        Ok(Self { path, file })
    }

    /// The checkpoint file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one fsync'd batch of checksummed record lines.
    ///
    /// # Errors
    ///
    /// Returns a message for I/O or serialization failures.
    pub fn append(&mut self, records: &[GridJobRecord]) -> Result<(), String> {
        if records.is_empty() {
            return Ok(());
        }
        let mut batch = Vec::new();
        for record in records {
            push_checkpoint_line(&mut batch, record)?;
        }
        self.file
            .write_all(&batch)
            .and_then(|()| self.file.sync_data())
            .map_err(|e| format!("cannot checkpoint `{}`: {e}", self.path.display()))
    }

    /// Appends the *front half* of one record's line — no newline, no
    /// complete checksum payload — then fsyncs. Crash-injection only:
    /// this simulates the torn tail a `kill -9` mid-batch leaves behind.
    ///
    /// # Errors
    ///
    /// Returns a message for I/O or serialization failures.
    #[doc(hidden)]
    pub fn append_torn(&mut self, record: &GridJobRecord) -> Result<(), String> {
        let mut line = Vec::new();
        push_checkpoint_line(&mut line, record)?;
        let torn = &line[..line.len() / 2];
        self.file
            .write_all(torn)
            .and_then(|()| self.file.sync_data())
            .map_err(|e| format!("cannot checkpoint `{}`: {e}", self.path.display()))
    }
}

/// What [`read_partial`] recovered from a checkpoint file.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialRead {
    /// Records in the maximal checksum-valid prefix, file order.
    pub records: Vec<GridJobRecord>,
    /// Bytes making up that valid prefix.
    pub valid_bytes: u64,
    /// Bytes past the valid prefix (0 = the file is clean).
    pub torn_bytes: u64,
    /// Line fragments past the valid prefix (≥ 1 whenever torn).
    pub torn_lines: u64,
}

/// Validating reader for a `shard-NNNNN.partial.jsonl` checkpoint:
/// returns the maximal prefix of lines whose per-line checksum matches
/// their JSON payload, and accounts for whatever torn tail follows.
/// Never yields a torn record — a line is either checksum-valid and
/// parsed whole, or it (and everything after it) is counted as torn.
///
/// # Errors
///
/// Returns a message when the file cannot be read (a *torn* file is not
/// an error — that is the case this reader exists for).
pub fn read_partial(path: &Path) -> Result<PartialRead, String> {
    let bytes =
        std::fs::read(path).map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
    let mut read = PartialRead {
        records: Vec::new(),
        valid_bytes: 0,
        torn_bytes: 0,
        torn_lines: 0,
    };
    let mut offset = 0usize;
    while offset < bytes.len() {
        let rest = &bytes[offset..];
        let line_end = rest.iter().position(|&b| b == b'\n');
        let line = &rest[..line_end.unwrap_or(rest.len())];
        let consumed = line.len() + usize::from(line_end.is_some());
        let record = validate_line(line);
        let Some(record) = record else { break };
        read.records.push(record);
        offset += consumed;
    }
    read.valid_bytes = offset as u64;
    read.torn_bytes = (bytes.len() - offset) as u64;
    read.torn_lines = bytes[offset..]
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .count() as u64;
    Ok(read)
}

/// Parses one checkpoint line if (and only if) its checksum matches.
fn validate_line(line: &[u8]) -> Option<GridJobRecord> {
    let text = std::str::from_utf8(line).ok()?;
    let (sum, json) = text.split_once('\t')?;
    if sum.len() != 16 || sum != digest_hex(fcdpm_runner::spec::fnv1a(json.as_bytes())) {
        return None;
    }
    serde_json::from_str(json).ok()
}

/// Checkpoint files under `dir`, in shard order.
///
/// # Errors
///
/// Returns a message when the directory cannot be listed.
pub fn partial_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    list_matching(dir, |name| {
        name.starts_with("shard-") && name.ends_with(".partial.jsonl")
    })
}

/// Directory entries whose file name satisfies `keep`, sorted.
fn list_matching(dir: &Path, keep: impl Fn(&str) -> bool) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list `{}`: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list `{}`: {e}", dir.display()))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if keep(name) {
            files.push(entry.path());
        }
    }
    files.sort();
    Ok(files)
}

/// Writes one shard's records as JSON lines (atomically: fsync'd temp
/// file, rename, fsync'd directory — so a crashed run never leaves a
/// half shard behind, and a returned shard is durable). Each record is
/// serialized once, straight into the file's write buffer.
///
/// # Errors
///
/// Returns a message for I/O or serialization failures.
pub fn write_shard(dir: &Path, shard: u64, records: &[GridJobRecord]) -> Result<PathBuf, String> {
    let path = dir.join(shard_file_name(shard));
    let tmp = dir.join(format!("{}.tmp", shard_file_name(shard)));
    let file = File::create(&tmp).map_err(|e| format!("cannot create `{}`: {e}", tmp.display()))?;
    let mut out = BufWriter::new(file);
    for record in records {
        serde_json::to_writer(&mut out, record)
            .map_err(|e| format!("record {} to `{}`: {e}", record.index, tmp.display()))?;
        out.write_all(b"\n")
            .map_err(|e| format!("cannot write `{}`: {e}", tmp.display()))?;
    }
    out.into_inner()
        .map_err(|e| e.into_error())
        .and_then(|file| file.sync_all())
        .map_err(|e| format!("cannot flush `{}`: {e}", tmp.display()))?;
    publish(&tmp, &path)?;
    Ok(path)
}

/// Reads one shard file into records (one shard is bounded by the
/// engine's shard size, so this is the largest unit ever resident).
/// Lines are read into one reused buffer and parsed in place, with no
/// value tree and no per-line allocation.
///
/// # Errors
///
/// Returns a message for I/O failures or malformed lines.
pub fn read_shard(path: &Path) -> Result<Vec<GridJobRecord>, String> {
    let file = File::open(path).map_err(|e| format!("cannot open `{}`: {e}", path.display()))?;
    let mut reader = BufReader::new(file);
    let mut records = Vec::new();
    let mut line = String::new();
    for lineno in 1.. {
        line.clear();
        let read = reader
            .read_line(&mut line)
            .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
        if read == 0 {
            break;
        }
        if line.trim().is_empty() {
            continue;
        }
        let record: GridJobRecord = serde_json::from_str(&line)
            .map_err(|e| format!("`{}` line {lineno}: {e}", path.display()))?;
        records.push(record);
    }
    Ok(records)
}

/// Promoted (final) shard files under `dir`, in shard order. In-flight
/// `*.partial.jsonl` checkpoints are deliberately excluded — they are
/// not part of the committed record stream.
///
/// # Errors
///
/// Returns a message when the directory cannot be listed.
pub fn shard_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    list_matching(dir, |name| {
        name.starts_with("shard-") && name.ends_with(".jsonl") && !name.contains(".partial.")
    })
}

/// Converts one legacy [`RunManifest`] job record into the chunked
/// form, recomputing the digest from the embedded spec.
fn migrate_record(record: &fcdpm_runner::JobRecord) -> GridJobRecord {
    GridJobRecord {
        index: record.index as u64,
        id: record.id.clone(),
        digest: digest_hex(spec_digest(&record.spec)),
        outcome: record.outcome.clone(),
        attempts: 1,
    }
}

/// Streams every record reachable from `path`, in index order, calling
/// `visit` once per record. Two layouts are accepted:
///
/// * a **run directory** holding chunked `shard-*.jsonl` files — shards
///   are read one at a time, so memory stays bounded by the shard size;
/// * a **legacy single-file manifest** (the `*.json` written by
///   `fcdpm batch`) — migrated on the fly to the same record stream.
///
/// # Errors
///
/// Returns a message when the path is neither layout, or on I/O or
/// parse failures.
pub fn for_each_record(path: &Path, mut visit: impl FnMut(GridJobRecord)) -> Result<(), String> {
    if path.is_dir() {
        let files = shard_files(path)?;
        if files.is_empty() {
            return Err(format!("`{}` holds no shard-*.jsonl files", path.display()));
        }
        for file in files {
            for record in read_shard(&file)? {
                visit(record);
            }
        }
        return Ok(());
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
    let legacy: RunManifest = serde_json::from_str(&text).map_err(|e| {
        format!(
            "`{}` is not a run directory and does not parse as a legacy RunManifest: {e}",
            path.display()
        )
    })?;
    for record in &legacy.records {
        visit(migrate_record(record));
    }
    Ok(())
}

/// [`for_each_record`] collected into memory — for tests and small runs
/// only; production paths stream.
///
/// # Errors
///
/// Same as [`for_each_record`].
pub fn read_records(path: &Path) -> Result<Vec<GridJobRecord>, String> {
    let mut records = Vec::new();
    for_each_record(path, |record| records.push(record))?;
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcdpm_runner::{JobSpec, PolicySpec, RunConfig, WorkloadSpec};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fcdpm-grid-manifest-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    fn record(index: u64) -> GridJobRecord {
        let spec = JobSpec::new(PolicySpec::Conv, WorkloadSpec::Experiment1(index));
        GridJobRecord {
            index,
            id: spec.id(usize::try_from(index).expect("small")),
            digest: digest_hex(spec_digest(&spec)),
            outcome: JobOutcome::Failed("not run".to_owned()),
            attempts: 1,
        }
    }

    #[test]
    fn chunked_shards_round_trip_in_order() {
        let dir = temp_dir("roundtrip");
        write_shard(&dir, 1, &[record(2), record(3)]).expect("writes");
        write_shard(&dir, 0, &[record(0), record(1)]).expect("writes");
        let back = read_records(&dir).expect("reads");
        assert_eq!(back.len(), 4);
        for (i, r) in back.iter().enumerate() {
            assert_eq!(r.index, i as u64, "records stream in shard order");
            assert_eq!(*r, record(i as u64), "round trip is lossless");
        }
        // Shard bytes are stable: rewriting produces identical files.
        let path = dir.join(shard_file_name(0));
        let first = std::fs::read(&path).expect("reads");
        write_shard(&dir, 0, &[record(0), record(1)]).expect("writes");
        assert_eq!(first, std::fs::read(&path).expect("reads"));
    }

    #[test]
    fn legacy_single_file_manifest_migrates() {
        let dir = temp_dir("legacy");
        let grid = fcdpm_runner::JobGrid::new(
            vec![PolicySpec::Conv, PolicySpec::FcDpm],
            vec![WorkloadSpec::Experiment1(0xDAC0_2007)],
        );
        let manifest = fcdpm_runner::run_grid(&grid, &RunConfig::with_workers(2));
        let path = dir.join("batch.manifest.json");
        std::fs::write(&path, manifest.to_json()).expect("writes");

        let migrated = read_records(&path).expect("migrates");
        assert_eq!(migrated.len(), manifest.records.len());
        for (old, new) in manifest.records.iter().zip(&migrated) {
            assert_eq!(new.index, old.index as u64);
            assert_eq!(new.id, old.id);
            assert_eq!(new.outcome, old.outcome);
            assert_eq!(new.digest, digest_hex(spec_digest(&old.spec)));
        }

        // And the migrated records round-trip through the chunked form.
        write_shard(&dir, 0, &migrated).expect("writes");
        let back = read_shard(&dir.join(shard_file_name(0))).expect("reads");
        assert_eq!(back, migrated);
    }

    #[test]
    fn legacy_records_without_attempts_parse_as_one_attempt() {
        let line =
            r#"{"index":0,"id":"job-0000","digest":"0000000000000000","outcome":{"Failed":"x"}}"#;
        let back: GridJobRecord = serde_json::from_str(line).expect("parses");
        assert_eq!(back.attempts, 1, "pre-retry records default to 1 attempt");
    }

    #[test]
    fn partial_checkpoint_round_trips_in_batches() {
        let dir = temp_dir("partial");
        let mut writer = PartialShardWriter::create(&dir, 7).expect("creates");
        writer.append(&[record(0), record(1)]).expect("appends");
        writer.append(&[record(2)]).expect("appends");
        writer.append(&[]).expect("empty batch is a no-op");
        drop(writer);
        let back = read_partial(&dir.join(partial_file_name(7))).expect("reads");
        assert_eq!(back.records, vec![record(0), record(1), record(2)]);
        assert_eq!(back.torn_bytes, 0);
        assert_eq!(back.torn_lines, 0);
        assert!(back.valid_bytes > 0);
    }

    #[test]
    fn reopen_cuts_the_torn_tail_and_appends_after_the_valid_prefix() {
        let dir = temp_dir("reopen");
        let mut writer = PartialShardWriter::create(&dir, 3).expect("creates");
        writer.append(&[record(0), record(1)]).expect("appends");
        writer.append_torn(&record(2)).expect("tears");
        drop(writer);
        let path = dir.join(partial_file_name(3));
        let torn = read_partial(&path).expect("reads");
        let prefix = std::fs::read(&path).expect("reads")[..torn.valid_bytes as usize].to_vec();

        let mut writer = PartialShardWriter::reopen(&path, torn.valid_bytes).expect("reopens");
        writer.append(&[record(2)]).expect("appends");
        drop(writer);
        let back = read_partial(&path).expect("reads");
        assert_eq!(back.records, vec![record(0), record(1), record(2)]);
        assert_eq!(back.torn_bytes, 0, "the torn tail is gone");
        let bytes = std::fs::read(&path).expect("reads");
        assert_eq!(
            &bytes[..prefix.len()],
            &prefix[..],
            "the prefix is untouched"
        );

        // A clean file reopens as is; a prefix past its end is an error.
        PartialShardWriter::reopen(&path, back.valid_bytes).expect("reopens clean");
        assert_eq!(std::fs::read(&path).expect("reads"), bytes);
        assert!(PartialShardWriter::reopen(&path, back.valid_bytes + 1).is_err());
        assert!(
            PartialShardWriter::reopen(&dir.join(partial_file_name(4)), 0).is_err(),
            "no file, no reopen"
        );
    }

    #[test]
    fn torn_tail_recovers_maximal_valid_prefix() {
        let dir = temp_dir("torn");
        let mut writer = PartialShardWriter::create(&dir, 0).expect("creates");
        writer.append(&[record(0), record(1)]).expect("appends");
        writer.append_torn(&record(2)).expect("tears");
        drop(writer);
        let back = read_partial(&dir.join(partial_file_name(0))).expect("reads");
        assert_eq!(back.records, vec![record(0), record(1)]);
        assert!(back.torn_bytes > 0, "the torn half-line is accounted for");
        assert_eq!(back.torn_lines, 1);
    }

    #[test]
    fn corrupted_line_invalidates_itself_and_everything_after() {
        let dir = temp_dir("corrupt");
        let mut writer = PartialShardWriter::create(&dir, 0).expect("creates");
        writer
            .append(&[record(0), record(1), record(2)])
            .expect("appends");
        drop(writer);
        let path = dir.join(partial_file_name(0));
        let mut bytes = std::fs::read(&path).expect("reads");
        // Flip one byte inside the second line's JSON payload.
        let first_nl = bytes.iter().position(|&b| b == b'\n').expect("line") + 1;
        bytes[first_nl + 30] ^= 0x01;
        std::fs::write(&path, &bytes).expect("writes");
        let back = read_partial(&path).expect("reads");
        assert_eq!(back.records, vec![record(0)], "stops at the bad checksum");
        assert_eq!(back.torn_lines, 2, "the flipped line and the one after");
    }

    #[test]
    fn partials_stay_out_of_the_committed_record_stream() {
        let dir = temp_dir("exclude");
        write_shard(&dir, 0, &[record(0)]).expect("writes");
        let mut writer = PartialShardWriter::create(&dir, 1).expect("creates");
        writer.append(&[record(1)]).expect("appends");
        drop(writer);
        assert_eq!(shard_files(&dir).expect("lists").len(), 1);
        assert_eq!(partial_files(&dir).expect("lists").len(), 1);
        let back = read_records(&dir).expect("reads");
        assert_eq!(back, vec![record(0)], "only promoted shards stream");
    }

    #[test]
    fn write_atomic_replaces_whole_files() {
        let dir = temp_dir("atomic");
        let path = dir.join("aggregate.json");
        write_atomic(&path, "first").expect("writes");
        write_atomic(&path, "second").expect("rewrites");
        assert_eq!(std::fs::read_to_string(&path).expect("reads"), "second");
        assert!(
            !dir.join("aggregate.json.tmp").exists(),
            "no tmp file survives"
        );
    }

    #[test]
    fn unreadable_paths_are_named_errors() {
        let dir = temp_dir("errors");
        assert!(read_records(&dir).unwrap_err().contains("no shard"));
        let bogus = dir.join("bogus.json");
        std::fs::write(&bogus, "not json").expect("writes");
        assert!(read_records(&bogus).unwrap_err().contains("legacy"));
        assert!(read_records(&dir.join("missing.json")).is_err());
    }
}
