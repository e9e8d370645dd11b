//! Crash-safe run journal for `FILTER`-step execution.
//!
//! A [`RunJournal`] lives in a run directory and records each completed
//! `FILTER` step durably: the step's output relation is snapshotted
//! (the same on-disk tuple encoding the spill path uses), then a record
//! naming the step and the snapshot's content hash is appended to the
//! journal's log. A process killed at *any* point — mid-snapshot,
//! mid-append, between steps — leaves a journal from which the next run
//! resumes: completed steps are replayed from their snapshots instead
//! of re-evaluated, and the final result is bitwise-identical to an
//! uninterrupted run.
//!
//! ## One log, two clients
//!
//! The journal is the second client of the catalog WAL's record log
//! ([`qf_storage::RecordLog`]): the same checksummed framing, append +
//! fsync + read-back verification, torn-tail replay, PID lock, orphan
//! sweep and retry loop. The run directory holds
//!
//! * `journal.lock` — the PID lock;
//! * `journal.log` — the framed record log. Its first record is a
//!   header carrying the two fingerprints below; every later record is
//!   one completed step, with `(step index, relation name)` as its
//!   payload and the snapshot's content hash as its `fp`. A later record
//!   for the same step wins (a step recomputed after a corrupt snapshot
//!   is recorded again);
//! * `step-<idx>.qfr` — one snapshot per recorded step.
//!
//! Two fingerprints guard against resuming the wrong work:
//!
//! * the **plan fingerprint** — a hash of the rendered plan text (or a
//!   strategy-tagged flock rendering for single-shot strategies); and
//! * the **catalog fingerprint** — [`qf_storage::Database::fingerprint`],
//!   a hash over every base relation's name, column names, and tuple
//!   content, in sorted-name order.
//!
//! Both are stored in the header when the journal is created and
//! validated on every subsequent open; a mismatch (edited query,
//! changed data) fails with a clean [`FlockError::Journal`] instead of
//! silently splicing stale step outputs into a different computation.
//!
//! Crash-consistency discipline:
//!
//! * snapshots are written to a temp name, fsynced, read back and
//!   verified, then renamed into place — a torn snapshot is never
//!   visible under its final name;
//! * the step record is appended (fsynced and read back) only *after*
//!   the rename, so every logged step has a durable snapshot;
//! * any damage to the log — a torn trailing record, a flipped byte
//!   anywhere — ends the trusted log at the first record that fails its
//!   checksum (the contiguous-prefix rule then discards everything
//!   after the damage): damage means "truncate and recompute", never a
//!   refused run;
//! * on load, every snapshot byte is frame-checksummed by the storage
//!   layer and the content hash is checked against the logged value;
//!   either failure surfaces as [`FlockError::SnapshotCorrupt`], which
//!   replay answers by truncating the replayable prefix — corruption is
//!   detected and recomputed, never propagated;
//! * `journal.lock` (holding the owner's PID) is taken on open, so two
//!   *processes* cannot resume the same run directory; locks left by
//!   dead processes are reclaimed, and a re-open from the owning process
//!   while the owner is live is allowed but read-only (recording on it
//!   fails typed);
//! * orphaned `*.tmp` files — a crash between snapshot write and rename
//!   — are swept on open;
//! * a torn or corrupt header means none of the journal's state can be
//!   trusted: the journal starts fresh and its own stale files (step
//!   snapshots, an earlier format's `journal.*` header) are removed —
//!   nothing else in the directory is touched (a
//!   *well-formed* header whose fingerprints mismatch is still a hard
//!   error — that's a different query or different data, not damage).
//!   A directory written in the earlier text format fails the first
//!   frame check the same way, so it is recomputed, not resumed.
//!
//! All file I/O goes through a [`Vfs`], so the chaos backend can
//! exercise every one of those paths deterministically.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use qf_engine::ExecContext;
use qf_storage::spill::{content_hash, read_relation_on, Fnv1a};
use qf_storage::{DirLock, RecordLog, Relation, StorageError, Vfs};

use crate::error::{FlockError, Result};
use crate::plan::QueryPlan;

const LOG_FILE: &str = "journal.log";
const LOCK_FILE: &str = "journal.lock";

/// Opens the header record's payload; the plan and catalog
/// fingerprints follow it.
const HEADER_MAGIC: &[u8] = b"qf-journal v2";

/// Fingerprint of arbitrary plan/strategy text (FNV-1a, process-stable).
pub fn fingerprint_text(text: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write(text.as_bytes());
    h.finish()
}

/// Fingerprint of a [`QueryPlan`]: a hash of its rendered Fig. 5-style
/// text, which covers every step's query, output name, and the flock's
/// filter condition.
pub fn plan_fingerprint(plan: &QueryPlan) -> u64 {
    fingerprint_text(&plan.render())
}

/// One completed step as recorded in `journal.log`.
#[derive(Debug, Clone)]
struct StepRecord {
    name: String,
    hash: u64,
}

/// A durable journal of completed `FILTER` steps in a run directory.
///
/// See the [module docs](self) for the format and crash-consistency
/// guarantees.
#[derive(Debug)]
pub struct RunJournal {
    log: RecordLog,
    completed: BTreeMap<usize, StepRecord>,
}

impl RunJournal {
    /// Open (or create) the journal in `dir` on `vfs`, validating that
    /// an existing journal was written for the same plan and catalog.
    pub fn open(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        plan_fp: u64,
        catalog_fp: u64,
    ) -> Result<RunJournal> {
        let journal_err = |e: StorageError| FlockError::Journal {
            detail: format!("journal directory {}: {e}", dir.display()),
        };
        let lock = DirLock::acquire(vfs, dir, LOCK_FILE).map_err(journal_err)?;
        let mut header = None;
        let mut completed = BTreeMap::new();
        let (mut log, _) = RecordLog::open(lock, LOG_FILE, 0, |_, hash, payload| {
            if header.is_none() {
                header = decode_header(payload);
                return Ok(header.is_some());
            }
            let Some((idx, name)) = decode_step(payload) else {
                return Ok(false);
            };
            completed.insert(idx, StepRecord { name, hash });
            Ok(true)
        })
        .map_err(journal_err)?;
        match header {
            Some((plan, catalog)) => check_fingerprints(plan, catalog, plan_fp, catalog_fp)?,
            None => {
                // No trusted header: a new directory, a torn first
                // append, damage, or an older format. Start fresh, then
                // remove the journal's own stale files — never anything
                // else in the directory.
                let mut payload = HEADER_MAGIC.to_vec();
                payload.extend_from_slice(&plan_fp.to_le_bytes());
                payload.extend_from_slice(&catalog_fp.to_le_bytes());
                log.append(0, &payload, || {}).map_err(journal_err)?;
                let vfs = log.vfs();
                for p in vfs.read_dir(dir).unwrap_or_default() {
                    let name = p.file_name().and_then(|n| n.to_str()).unwrap_or_default();
                    let stale =
                        name.starts_with("journal.") && name != LOCK_FILE && name != LOG_FILE;
                    if stale || is_snapshot_name(name) {
                        let _ = vfs.remove_file(&p);
                    }
                }
            }
        }
        Ok(RunJournal { log, completed })
    }

    /// Length of the contiguous completed prefix `0..n` (capped at
    /// `total`). Steps are journaled in plan order, so anything past a
    /// gap (which only a corrupted log can produce) is not trusted.
    pub fn contiguous_prefix(&self, total: usize) -> usize {
        let mut n = 0;
        while n < total && self.completed.contains_key(&n) {
            n += 1;
        }
        n
    }

    /// Load the snapshot of completed step `idx`, verifying its content
    /// hash against the logged value. Any integrity failure — a frame
    /// checksum caught by the storage layer, a missing snapshot, a
    /// name or content-hash mismatch — surfaces as
    /// [`FlockError::SnapshotCorrupt`] so replay can truncate the
    /// prefix instead of failing the run.
    pub fn load_step(&self, idx: usize) -> Result<Relation> {
        let rec = self
            .completed
            .get(&idx)
            .ok_or_else(|| FlockError::Journal {
                detail: format!("step {idx} is not recorded as completed"),
            })?;
        let path = self.snapshot_path(idx);
        let corrupt = |detail: String| FlockError::SnapshotCorrupt { step: idx, detail };
        let rel = match read_relation_on(self.log.vfs(), &path) {
            Ok(rel) => rel,
            Err(e)
                if e.is_corruption()
                    || matches!(e, StorageError::Malformed { .. })
                    || matches!(&e, StorageError::Io { kind, .. }
                        if *kind == std::io::ErrorKind::NotFound) =>
            {
                return Err(corrupt(format!("read snapshot {}: {e}", path.display())));
            }
            Err(e) => {
                return Err(FlockError::Journal {
                    detail: format!("read snapshot {}: {e}", path.display()),
                });
            }
        };
        // The content hash deliberately excludes the relation name (a
        // rename should not invalidate a journal written by the same
        // plan), so cross-check the journaled name separately.
        if rel.name() != rec.name {
            return Err(corrupt(format!(
                "snapshot {} holds relation `{}` but the journal expects `{}`",
                path.display(),
                rel.name(),
                rec.name
            )));
        }
        let got = content_hash(&rel);
        if got != rec.hash {
            return Err(corrupt(format!(
                "snapshot {} content hash {got:016x} does not match journaled {:016x}",
                path.display(),
                rec.hash
            )));
        }
        Ok(rel)
    }

    /// Durably record step `idx` as completed with output `rel`:
    /// publish the snapshot (temp + fsync + read-back + rename), then
    /// append its record. Both writes retry transient errors, each
    /// counted in `ctx`'s stats; a failed append restores the log to
    /// its trusted prefix. Any failure here leaves the journal exactly
    /// as it was — the step is simply not recorded — so callers can
    /// treat journaling as advisory and keep running.
    pub fn record_step(&mut self, idx: usize, rel: &Relation, ctx: &ExecContext) -> Result<()> {
        let hash = content_hash(rel);
        let mut payload = (idx as u64).to_le_bytes().to_vec();
        payload.extend_from_slice(rel.name().as_bytes());
        self.log
            .publish_relation(&self.snapshot_path(idx), rel, || ctx.note_io_retry())
            .and_then(|()| self.log.append(hash, &payload, || ctx.note_io_retry()))
            .map_err(|e| FlockError::Journal {
                detail: format!("record step {idx}: {e}"),
            })?;
        self.completed.insert(
            idx,
            StepRecord {
                name: rel.name().to_string(),
                hash,
            },
        );
        Ok(())
    }

    fn snapshot_path(&self, idx: usize) -> PathBuf {
        self.log.dir().join(format!("step-{idx}.qfr"))
    }
}

/// The header's `(plan, catalog)` fingerprints; `None` when the payload
/// is not a header.
fn decode_header(payload: &[u8]) -> Option<(u64, u64)> {
    let fps = payload.strip_prefix(HEADER_MAGIC)?;
    let (plan, catalog) = fps.split_first_chunk::<8>()?;
    Some((
        u64::from_le_bytes(*plan),
        u64::from_le_bytes(catalog.try_into().ok()?),
    ))
}

/// Is `name` a step snapshot, `step-<idx>.qfr`?
fn is_snapshot_name(name: &str) -> bool {
    name.strip_prefix("step-")
        .and_then(|rest| rest.strip_suffix(".qfr"))
        .is_some_and(|idx| !idx.is_empty() && idx.bytes().all(|b| b.is_ascii_digit()))
}

/// A step record's `(index, relation name)`; `None` when malformed.
fn decode_step(payload: &[u8]) -> Option<(usize, String)> {
    let (idx, name) = payload.split_first_chunk::<8>()?;
    let idx = usize::try_from(u64::from_le_bytes(*idx)).ok()?;
    Some((idx, String::from_utf8(name.to_vec()).ok()?))
}

/// A well-formed header must carry exactly this run's fingerprints; a
/// mismatch means the journal belongs to a different query or different
/// data and must not be resumed from.
fn check_fingerprints(
    got_plan: u64,
    got_catalog: u64,
    plan_fp: u64,
    catalog_fp: u64,
) -> Result<()> {
    let check = |label: &str, got: u64, expected: u64, what: &str| -> Result<()> {
        if got != expected {
            return Err(FlockError::Journal {
                detail: format!(
                    "{label} fingerprint mismatch: journal has {got:016x}, \
                     this run computes {expected:016x} — the {what} changed \
                     since the journal was written"
                ),
            });
        }
        Ok(())
    };
    check("plan", got_plan, plan_fp, "query or plan")?;
    check("catalog", got_catalog, catalog_fp, "input data")
}

#[cfg(test)]
mod tests {
    use super::*;
    use qf_storage::spill::write_relation;
    use qf_storage::vfs::real_fs;
    use qf_storage::{Database, Schema, Value};
    use std::fs;
    use std::io::Write as _;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qf-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn rel(name: &str, n: i64) -> Relation {
        Relation::from_rows(
            Schema::new(name, &["x"]),
            (0..n).map(|i| vec![Value::int(i)]).collect(),
        )
    }

    fn open(dir: &Path, plan_fp: u64, catalog_fp: u64) -> Result<RunJournal> {
        RunJournal::open(real_fs(), dir, plan_fp, catalog_fp)
    }

    /// Open the `(1, 2)` journal in `dir` and record `rels` as steps
    /// `0..`, returning the closed journal's log bytes.
    fn record(dir: &Path, rels: &[Relation]) -> Vec<u8> {
        let ctx = ExecContext::unbounded();
        let mut j = open(dir, 1, 2).unwrap();
        for (idx, r) in rels.iter().enumerate() {
            j.record_step(idx, r, &ctx).unwrap();
        }
        drop(j);
        fs::read(dir.join(LOG_FILE)).unwrap()
    }

    /// Framed size of the header record and of a step record naming a
    /// two-byte relation.
    const HEADER_LEN: usize = 28 + HEADER_MAGIC.len() + 16;
    const STEP_LEN: usize = 28 + 8 + 2;

    fn is_unrecorded(j: &RunJournal, idx: usize) -> bool {
        matches!(j.load_step(idx), Err(FlockError::Journal { .. }))
    }

    #[test]
    fn record_and_resume_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let (r0, r1) = (rel("s0", 5), rel("s1", 3));
        assert_eq!(open(&dir, 1, 2).unwrap().contiguous_prefix(10), 0);
        record(&dir, &[r0.clone(), r1.clone()]);
        let j = open(&dir, 1, 2).unwrap();
        assert_eq!(j.contiguous_prefix(10), 2);
        assert_eq!(j.load_step(0).unwrap().tuples(), r0.tuples());
        let got = j.load_step(1).unwrap();
        assert_eq!(got.tuples(), r1.tuples());
        assert_eq!(got.name(), "s1");
        assert_eq!(got.schema().columns(), r1.schema().columns());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let dir = tmp_dir("mismatch");
        open(&dir, 1, 2).unwrap();
        let plan_err = open(&dir, 9, 2).unwrap_err();
        assert!(
            plan_err.to_string().contains("plan fingerprint"),
            "{plan_err}"
        );
        let cat_err = open(&dir, 1, 9).unwrap_err();
        assert!(
            cat_err.to_string().contains("catalog fingerprint"),
            "{cat_err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_log_tail_is_ignored() {
        let dir = tmp_dir("torn");
        let trusted = record(&dir, &[rel("s0", 4)]);
        // Simulate a crash mid-append: part of a second record's frame.
        let mut f = fs::OpenOptions::new()
            .append(true)
            .open(dir.join(LOG_FILE))
            .unwrap();
        f.write_all(&[0x17; 13]).unwrap();
        drop(f);
        let j = open(&dir, 1, 2).unwrap();
        assert_eq!(j.contiguous_prefix(10), 1);
        assert!(is_unrecorded(&j, 1));
        // The torn tail was truncated away durably.
        assert_eq!(fs::read(dir.join(LOG_FILE)).unwrap(), trusted);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_snapshot_is_detected() {
        let dir = tmp_dir("corrupt");
        record(&dir, &[rel("s0", 4)]);
        // Overwrite the snapshot with a different (valid) relation: the
        // content hash no longer matches the journaled one.
        write_relation(&dir.join("step-0.qfr"), &rel("s0", 5)).unwrap();
        let err = open(&dir, 1, 2).unwrap().load_step(0).unwrap_err();
        assert!(err.to_string().contains("content hash"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gap_in_log_truncates_prefix() {
        let dir = tmp_dir("gap");
        let ctx = ExecContext::unbounded();
        let mut j = open(&dir, 1, 2).unwrap();
        j.record_step(0, &rel("s0", 2), &ctx).unwrap();
        j.record_step(2, &rel("s2", 2), &ctx).unwrap();
        assert_eq!(j.contiguous_prefix(5), 1);
        drop(j);
        // The gap survives the framed log: step 2 is durable but past it.
        let j = open(&dir, 1, 2).unwrap();
        assert_eq!(j.contiguous_prefix(5), 1);
        assert!(j.load_step(2).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_snapshot_is_typed_snapshot_corrupt() {
        let dir = tmp_dir("corrupt-typed");
        record(&dir, &[rel("s0", 4)]);
        // Flip one byte in the middle of the snapshot payload.
        let path = dir.join("step-0.qfr");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        fs::write(&path, &bytes).unwrap();
        let err = open(&dir, 1, 2).unwrap().load_step(0).unwrap_err();
        assert!(
            matches!(err, FlockError::SnapshotCorrupt { step: 0, .. }),
            "{err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_snapshot_is_typed_snapshot_corrupt() {
        let dir = tmp_dir("missing-snap");
        record(&dir, &[rel("s0", 4)]);
        fs::remove_file(dir.join("step-0.qfr")).unwrap();
        let err = open(&dir, 1, 2).unwrap().load_step(0).unwrap_err();
        assert!(
            matches!(err, FlockError::SnapshotCorrupt { step: 0, .. }),
            "{err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_interior_record_truncates_there() {
        let dir = tmp_dir("interior");
        let mut log = record(&dir, &[rel("s0", 2), rel("s1", 2), rel("s2", 2)]);
        assert_eq!(log.len(), HEADER_LEN + 3 * STEP_LEN);
        // Damage the middle record (step 1): its name byte changes, so
        // its checksum no longer matches.
        log[HEADER_LEN + STEP_LEN + 28 + 8] ^= 0x01;
        fs::write(dir.join(LOG_FILE), &log).unwrap();
        let j = open(&dir, 1, 2).unwrap();
        // Step 0 survives; steps 1 and 2 (from the damage on) do not.
        assert_eq!(j.contiguous_prefix(5), 1);
        assert!(is_unrecorded(&j, 2));
        assert_eq!(
            fs::read(dir.join(LOG_FILE)).unwrap().len(),
            HEADER_LEN + STEP_LEN
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn later_record_for_a_step_wins() {
        let dir = tmp_dir("rerecord");
        let ctx = ExecContext::unbounded();
        let mut j = open(&dir, 1, 2).unwrap();
        j.record_step(0, &rel("s0", 2), &ctx).unwrap();
        j.record_step(0, &rel("s0", 3), &ctx).unwrap();
        drop(j);
        let j = open(&dir, 1, 2).unwrap();
        assert_eq!(j.load_step(0).unwrap().tuples(), rel("s0", 3).tuples());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_byte_flip_in_the_journal_is_recovered() {
        let dir = tmp_dir("flip");
        let rels = [rel("s0", 3), rel("s1", 2), rel("s2", 4)];
        record(&dir, &rels);
        let pristine: Vec<(PathBuf, Vec<u8>)> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| {
                let p = e.unwrap().path();
                let bytes = fs::read(&p).unwrap();
                (p, bytes)
            })
            .collect();
        let restore = || {
            for (p, bytes) in &pristine {
                fs::write(p, bytes).unwrap();
            }
        };
        let log_len = fs::read(dir.join(LOG_FILE)).unwrap().len();
        for pos in 0..log_len {
            for mask in [0x80u8, 0x01] {
                restore();
                let mut log = fs::read(dir.join(LOG_FILE)).unwrap();
                log[pos] ^= mask;
                fs::write(dir.join(LOG_FILE), &log).unwrap();
                let j = open(&dir, 1, 2)
                    .unwrap_or_else(|e| panic!("byte {pos} ^ {mask:#x}: open failed: {e}"));
                let prefix = j.contiguous_prefix(10);
                assert!(prefix <= rels.len(), "byte {pos} ^ {mask:#x}");
                for (idx, want) in rels.iter().enumerate().take(prefix) {
                    match j.load_step(idx) {
                        Ok(got) => assert_eq!(
                            (got.name(), got.tuples()),
                            (want.name(), want.tuples()),
                            "byte {pos} ^ {mask:#x}: step {idx}"
                        ),
                        Err(FlockError::SnapshotCorrupt { .. }) => {}
                        Err(e) => panic!("byte {pos} ^ {mask:#x}: step {idx}: {e}"),
                    }
                }
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lock_held_by_live_foreign_process_is_rejected() {
        let dir = tmp_dir("lock-live");
        fs::create_dir_all(&dir).unwrap();
        // PID 1 (init) is always alive and never us.
        fs::write(dir.join(LOCK_FILE), "1").unwrap();
        let err = open(&dir, 1, 2).unwrap_err();
        assert!(
            err.to_string().contains("locked by running process"),
            "{err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_lock_from_dead_process_is_reclaimed() {
        let dir = tmp_dir("lock-stale");
        fs::create_dir_all(&dir).unwrap();
        // A PID far beyond pid_max: certainly not a running process.
        fs::write(dir.join(LOCK_FILE), "4999999").unwrap();
        let j = open(&dir, 1, 2).unwrap();
        // We now own the lock; its content is our PID.
        let holder = fs::read(dir.join(LOCK_FILE)).unwrap();
        assert_eq!(holder, std::process::id().to_string().as_bytes());
        drop(j);
        // Dropping the owner removes the lock.
        assert!(!dir.join(LOCK_FILE).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn same_process_reopen_is_reentrant_and_read_only() {
        let dir = tmp_dir("lock-reentrant");
        let ctx = ExecContext::unbounded();
        let mut owner = open(&dir, 1, 2).unwrap();
        owner.record_step(0, &rel("s0", 2), &ctx).unwrap();
        // Second open from the same process succeeds, sees the owner's
        // steps, but may not record: its appends would fight the owner's.
        let mut second = open(&dir, 1, 2).unwrap();
        assert_eq!(second.contiguous_prefix(5), 1);
        let err = second.record_step(1, &rel("s1", 2), &ctx).unwrap_err();
        assert!(matches!(err, FlockError::Journal { .. }), "{err}");
        assert!(err.to_string().contains("read-only"), "{err}");
        assert!(!dir.join("step-1.qfr").exists());
        // It does not own (and so does not remove) the lock when dropped.
        drop(second);
        assert!(dir.join(LOCK_FILE).exists());
        owner.record_step(1, &rel("s1", 2), &ctx).unwrap();
        drop(owner);
        assert!(!dir.join(LOCK_FILE).exists());
        assert_eq!(open(&dir, 1, 2).unwrap().contiguous_prefix(5), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn own_leftover_lock_without_a_live_owner_is_reclaimed() {
        let dir = tmp_dir("lock-leftover");
        fs::create_dir_all(&dir).unwrap();
        // A lock naming this process whose owner is gone (its removal
        // failed): the next open owns the directory again.
        fs::write(dir.join(LOCK_FILE), std::process::id().to_string()).unwrap();
        let mut j = open(&dir, 1, 2).unwrap();
        j.record_step(0, &rel("s0", 2), &ExecContext::unbounded())
            .unwrap();
        drop(j);
        assert!(!dir.join(LOCK_FILE).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Files a user keeps beside a journal: none is the journal's own.
    const FOREIGN_FILES: [&str; 4] = ["notes.txt", "wal.meta", "step-1.qfr.bak", "step-.qfr"];

    #[test]
    fn fresh_journal_leaves_unrelated_files_alone() {
        let dir = tmp_dir("foreign");
        fs::create_dir_all(&dir).unwrap();
        for name in FOREIGN_FILES {
            fs::write(dir.join(name), name).unwrap();
        }
        record(&dir, &[rel("s0", 2)]);
        assert_eq!(open(&dir, 1, 2).unwrap().contiguous_prefix(5), 1);
        for name in FOREIGN_FILES {
            assert_eq!(fs::read(dir.join(name)).unwrap(), name.as_bytes());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphaned_tmp_snapshots_are_swept_on_open() {
        let dir = tmp_dir("orphan");
        record(&dir, &[rel("s0", 2)]);
        // Simulate a crash between snapshot write and rename.
        fs::write(dir.join("step-1.qfr.tmp"), b"torn").unwrap();
        let j = open(&dir, 1, 2).unwrap();
        assert!(!dir.join("step-1.qfr.tmp").exists());
        assert_eq!(j.contiguous_prefix(5), 1); // real state untouched
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_header_starts_a_fresh_journal() {
        let dir = tmp_dir("torn-header");
        let log = record(&dir, &[rel("s0", 2)]);
        // Truncate the log inside the header record: nothing validates.
        fs::write(dir.join(LOG_FILE), &log[..HEADER_LEN / 2]).unwrap();
        for name in FOREIGN_FILES {
            fs::write(dir.join(name), name).unwrap();
        }
        let j = open(&dir, 1, 2).unwrap();
        // None of the journal's state survived — it restarted fresh —
        // and nothing else in the directory was touched.
        assert_eq!(j.contiguous_prefix(5), 0);
        assert!(!dir.join("step-0.qfr").exists());
        for name in FOREIGN_FILES {
            assert_eq!(fs::read(dir.join(name)).unwrap(), name.as_bytes());
        }
        drop(j);
        // And the rewritten header validates on the next open.
        open(&dir, 1, 2).unwrap();
        assert!(open(&dir, 9, 2).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn catalog_fingerprint_tracks_content_and_names() {
        let mut a = Database::new();
        a.insert(rel("r", 3));
        let fp_a = a.fingerprint();
        assert_eq!(fp_a, a.clone().fingerprint());
        let mut b = Database::new();
        b.insert(rel("r", 4)); // different content
        assert_ne!(fp_a, b.fingerprint());
        let mut c = Database::new();
        c.insert(rel("q", 3)); // different name
        assert_ne!(fp_a, c.fingerprint());
        let mut two = a.clone();
        two.insert(rel("z", 1));
        assert_ne!(fp_a, two.fingerprint());
    }
}
