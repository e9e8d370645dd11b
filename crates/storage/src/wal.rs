//! Durable catalog write-ahead log, on the workspace's one record log.
//!
//! The server catalog ([`Database`]) lives behind a lock in memory; this
//! module makes it the durable thing. Every catalog mutation — a bulk
//! `load`, a `gen`, a streaming `append` delta — is written to a log as
//! a checksummed, length-framed, fsynced record *before* it is
//! acknowledged, and a restarted process replays the log over the last
//! snapshot to recover exactly the acknowledged state.
//!
//! ## One log, two clients
//!
//! The log machinery is [`RecordLog`]: record framing, append + fsync +
//! **read-back verification**, repair of a failed append, torn-tail
//! replay, the PID lock and the orphaned-`*.tmp` sweep. It has two
//! clients: [`Wal`] (this catalog log) and the run journal in
//! `qf-core`, which records completed `FILTER` steps. A torn write or a
//! flipped bit *lies* — the writer sees success — so after every fsync
//! the log reads the bytes back and compares before acknowledging. An
//! append is therefore either durable exactly as written, or it fails
//! typed and the log is restored to its trusted prefix.
//!
//! All I/O goes through the [`Vfs`] seam, so [`crate::vfs::ChaosFs`]
//! fault-injects every path deterministically.
//!
//! ## On-disk layout (one directory per catalog)
//!
//! * `wal.lock` — PID lock; reclaimed when the owner is dead.
//! * `wal.meta` — `QFWAL v1\ngen <n>\n`; names the live generation.
//!   Absent until the first compaction (generation 0 has no snapshot).
//! * `snap-<gen>.manifest` — the generation's snapshot manifest:
//!   catalog fingerprint, the log sequence number the snapshot covers,
//!   and one `rel <idx> <content-hash> <name>` line per relation.
//! * `snap-<gen>-<idx>.qfr` — one framed, checksummed relation snapshot
//!   per catalog relation (the spill layer's encoding).
//! * `log-<gen>.wal` — the live log of records since the snapshot.
//!
//! ## Record format
//!
//! ```text
//! [u32 payload_len][u64 seq][u64 fp][payload][u64 fnv1a]
//! ```
//!
//! all little-endian; the checksum covers everything before it. `seq`
//! is monotone across the log's life (replay enforces contiguity). The
//! meaning of `fp` and the payload belong to the client: for the WAL,
//! `fp` is the catalog fingerprint *after* applying the record —
//! recovery verifies the replayed [`Database::fingerprint`] against it
//! record by record, so a replay that diverges from the original
//! application is caught immediately rather than served as wrong data.
//!
//! ## Recovery policy
//!
//! * A torn or checksum-failed **tail** record is expected (a crash
//!   mid-append): recovery truncates the log to the trusted prefix and
//!   continues.
//! * A corrupt **snapshot**, **manifest**, or **meta** is a hard typed
//!   error: those files were published atomically and read-back
//!   verified, so damage means the directory can no longer prove what
//!   was acknowledged — the WAL refuses to guess (see the README
//!   troubleshooting entry for recovering a corrupt data dir).
//!
//! ## Compaction
//!
//! When the live log exceeds [`WalOptions::compact_threshold`] bytes,
//! the catalog is snapshotted into the next generation (every file
//! read-back verified), the manifest is published, and then `wal.meta`
//! is renamed into place — the single commit point. Files of older
//! generations are removed best-effort afterwards and swept on open.

use std::io::{ErrorKind, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::catalog::Database;
use crate::error::{Result, StorageError};
use crate::relation::Relation;
use crate::spill::{read_relation_on, write_relation_on, Fnv1a};
use crate::tsv::read_tsv;
use crate::tuple::Tuple;
use crate::vfs::Vfs;

const LOCK_FILE: &str = "wal.lock";
const META_FILE: &str = "wal.meta";
const META_FORMAT: &str = "QFWAL v1";
const MANIFEST_FORMAT: &str = "QFWAL-SNAP v1";

/// Transient I/O errors absorbed per durable operation before giving up.
const MAX_IO_RETRIES: u32 = 3;

/// Fixed bytes around a record payload: 4 (length) + 8 (seq) + 8
/// (fingerprint) before it, 8 (checksum) after.
const RECORD_OVERHEAD: usize = 28;

/// Bytes of a record before the payload (length + seq + fingerprint).
const RECORD_HEADER: usize = 20;

/// Payload tag bytes.
const TAG_PUT: u8 = 0x01;
const TAG_APPEND: u8 = 0x02;
const TAG_RETRACT: u8 = 0x03;

/// A directory held under a PID lock file. [`DirLock::acquire`]
/// creates the directory, takes the lock and sweeps orphaned `*.tmp`
/// files; dropping the owning handle releases the lock.
#[derive(Debug)]
pub struct DirLock {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    /// The lock file this handle owns; `None` for a same-process
    /// re-open while another live handle owns it. Such a handle may
    /// read the directory but never writes it.
    owned: Option<PathBuf>,
}

impl Drop for DirLock {
    fn drop(&mut self) {
        if let Some(lock) = &self.owned {
            let mut held = held_locks();
            held.retain(|p| p != lock);
            let _ = self.vfs.remove_file(lock);
        }
    }
}

impl DirLock {
    /// Create `dir`, take its PID lock file `lock_name` (a dead owner's
    /// lock is reclaimed, a same-process re-open is reentrant and
    /// read-only, a live foreign owner is a hard error), and sweep
    /// orphaned `*.tmp` files — the leftovers of a crash between a temp
    /// write and its rename.
    pub fn acquire(vfs: Arc<dyn Vfs>, dir: &Path, lock_name: &str) -> Result<DirLock> {
        retried(|| vfs.create_dir_all(dir).map_err(StorageError::from))?;
        let owned = retried(|| acquire_pid_lock(&*vfs, &dir.join(lock_name)))?;
        if owned.is_some() {
            for p in vfs.read_dir(dir).unwrap_or_default() {
                if p.extension().is_some_and(|e| e == "tmp") {
                    let _ = vfs.remove_file(&p);
                }
            }
        }
        Ok(DirLock {
            vfs,
            dir: dir.to_path_buf(),
            owned,
        })
    }

    /// The filesystem backend the directory lives on.
    pub fn vfs(&self) -> &dyn Vfs {
        &*self.vfs
    }

    /// The locked directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// One framed, checksummed, read-back-verified record log in a
/// PID-locked directory. See the [module docs](self) for the format.
///
/// [`RecordLog::open`] replays the live log file and hands its trusted
/// prefix to the client; [`RecordLog::append`] makes one more record
/// durable. Dropping the log releases its [`DirLock`].
#[derive(Debug)]
pub struct RecordLog {
    lock: DirLock,
    /// The live log file.
    path: PathBuf,
    /// Sequence number of the last trusted record.
    last_seq: u64,
    /// In-memory copy of the trusted (acknowledged) log bytes; the
    /// repair path republishes exactly these after a failed append.
    log_buf: Vec<u8>,
    /// A failed append may have left unacknowledged bytes on disk; the
    /// next attempt must republish the trusted prefix first.
    dirty: bool,
    /// Repair failed: the on-disk log can no longer be trusted to match
    /// `log_buf`. Every further append fails typed until restart.
    poisoned: bool,
}

impl RecordLog {
    /// Make `name` in `lock`'s directory the live log and replay it.
    /// Records must continue contiguously from `start_seq`; `accept`
    /// sees each checksummed record's `(seq, fp, payload)` in order and
    /// returns `Ok(false)` to end the trusted prefix *before* that
    /// record (an undecodable payload), or an error to abort. Whatever
    /// follows the trusted prefix — a torn or corrupt tail — is
    /// truncated away durably (by the lock owner only). Returns the log
    /// and the number of records accepted.
    pub fn open(
        lock: DirLock,
        name: &str,
        start_seq: u64,
        mut accept: impl FnMut(u64, u64, &[u8]) -> Result<bool>,
    ) -> Result<(RecordLog, u64)> {
        let mut log = RecordLog {
            path: lock.dir.join(name),
            lock,
            last_seq: start_seq,
            log_buf: Vec::new(),
            dirty: false,
            poisoned: false,
        };
        if !log.lock.vfs.exists(&log.path) {
            return Ok((log, 0));
        }
        let bytes = retried(|| read_file_bytes(log.vfs(), &log.path))?;
        let mut trusted_len = 0;
        let mut accepted = 0;
        for (seq, fp, payload) in scan_log(&bytes, start_seq) {
            if !accept(seq, fp, payload)? {
                break;
            }
            trusted_len += RECORD_OVERHEAD + payload.len();
            log.last_seq = seq;
            accepted += 1;
        }
        log.log_buf = bytes[..trusted_len].to_vec();
        if trusted_len < bytes.len() && log.lock.owned.is_some() {
            // Torn tail (crash mid-append): republish the trusted
            // prefix so the file and `log_buf` agree again.
            publish_verified(log.vfs(), &log.path, &log.log_buf)?;
        }
        Ok((log, accepted))
    }

    /// Durably append one record: append it to the log, fsync, then
    /// read the log back and verify the bytes before acknowledging — a
    /// write that *lied* (torn stream, flipped bit) is caught here, the
    /// trusted prefix is republished, and the append fails typed.
    /// Transient errors are retried (each retry reported to
    /// `on_retry`).
    ///
    /// On success the record is durable: a process killed any time
    /// after this returns replays it. On failure the log is restored to
    /// its pre-call state (or poisoned if even that failed, failing all
    /// further appends).
    pub fn append(&mut self, fp: u64, payload: &[u8], on_retry: impl FnMut()) -> Result<()> {
        self.writable()?;
        let seq = self.last_seq + 1;
        let rec = encode_record(seq, fp, payload);
        let result = with_retries(on_retry, || {
            let attempt = self.try_append(&rec);
            self.dirty |= attempt.is_err();
            attempt
        });
        if let Err(e) = result {
            // Final failure: restore the trusted prefix so the log
            // never carries unacknowledged bytes.
            match publish_verified(self.vfs(), &self.path, &self.log_buf) {
                Ok(()) => self.dirty = false,
                Err(_) => self.poisoned = true,
            }
            return Err(e);
        }
        self.log_buf.extend_from_slice(&rec);
        self.last_seq = seq;
        self.dirty = false;
        Ok(())
    }

    /// One append attempt: repair if a previous attempt left junk,
    /// append + fsync, then read back and byte-compare.
    fn try_append(&mut self, rec: &[u8]) -> Result<()> {
        if self.dirty {
            publish_verified(self.vfs(), &self.path, &self.log_buf)?;
            self.dirty = false;
        }
        let mut f = self.vfs().append(&self.path)?;
        f.write_all(rec)?;
        f.flush()?;
        f.sync_all()?;
        drop(f);
        let on_disk = read_file_bytes(self.vfs(), &self.path)?;
        let expected_len = self.log_buf.len() + rec.len();
        if on_disk.len() != expected_len
            || on_disk[..self.log_buf.len()] != self.log_buf[..]
            || on_disk[self.log_buf.len()..] != rec[..]
        {
            return Err(corruption(
                &self.path,
                "read-back after append does not match the written bytes",
            ));
        }
        Ok(())
    }

    /// Switch to a fresh, empty live log `name` (the old one is now
    /// covered by a snapshot); sequence numbers continue.
    fn restart(&mut self, name: &str) {
        self.path = self.lock.dir.join(name);
        self.log_buf.clear();
        self.dirty = false;
    }

    /// May this handle write? Not after a failed repair (poisoned), and
    /// never on a handle that does not own the directory's lock.
    fn writable(&self) -> Result<()> {
        if self.poisoned {
            return Err(poisoned_err(&self.path));
        }
        if self.lock.owned.is_none() {
            return Err(StorageError::Io {
                kind: ErrorKind::PermissionDenied,
                detail: format!(
                    "{} is locked by another handle in this process; this handle is read-only",
                    self.lock.dir.display()
                ),
            });
        }
        Ok(())
    }

    /// Publish `rel` at `path` in the locked directory through a temp
    /// file that is written, fsynced and **read back** — decoded and
    /// compared by name and content hash — before the rename that makes
    /// it visible. Transient errors are retried (each reported to
    /// `on_retry`); on failure the temp file is removed.
    pub fn publish_relation(
        &self,
        path: &Path,
        rel: &Relation,
        on_retry: impl FnMut(),
    ) -> Result<()> {
        self.writable()?;
        let tmp = tmp_path(path);
        let vfs = self.vfs();
        let result = with_retries(on_retry, || {
            write_relation_on(vfs, &tmp, rel)?;
            let back = read_relation_on(vfs, &tmp)?;
            if back.name() != rel.name() || back.content_hash() != rel.content_hash() {
                return Err(corruption(
                    &tmp,
                    "read-back after snapshot write does not match the relation",
                ));
            }
            vfs.rename(&tmp, path)?;
            Ok(())
        });
        if result.is_err() {
            let _ = vfs.remove_file(&tmp);
        }
        result
    }

    /// The filesystem backend this log writes through.
    pub fn vfs(&self) -> &dyn Vfs {
        self.lock.vfs()
    }

    /// The locked directory.
    pub fn dir(&self) -> &Path {
        self.lock.dir()
    }
}

/// Options for [`Wal::open`].
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// Compact (snapshot + truncate the log) once the live log exceeds
    /// this many bytes. `u64::MAX` disables compaction.
    pub compact_threshold: u64,
}

impl Default for WalOptions {
    fn default() -> WalOptions {
        WalOptions {
            compact_threshold: 1 << 20,
        }
    }
}

/// One logged catalog mutation, with its inputs fully materialized as
/// TSV text so replay never depends on anything but the log (a `gen`
/// mutation is logged as the relations it produced, not the seed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Insert (or replace) whole relations: a `load` or a `gen`.
    Put {
        /// One TSV document (header + rows) per relation.
        relations: Vec<String>,
    },
    /// Merge a delta into one relation (set-semantics union): an
    /// `append`. The target relation is named by the TSV header.
    Append {
        /// The delta as one TSV document.
        tsv: String,
    },
    /// Remove a delta from one relation (set-semantics difference): a
    /// `retract`. The target relation is named by the TSV header.
    Retract {
        /// The delta as one TSV document.
        tsv: String,
    },
}

/// Live WAL counters, shared with the serving layer for `stats`
/// reporting. All values are "since open" except `wal_records` /
/// `wal_bytes`, which describe the live log (and reset on compaction).
#[derive(Debug, Default)]
pub struct WalCounters {
    /// Records in the live log (recovered + committed − compacted away).
    pub wal_records: AtomicU64,
    /// Bytes in the live log.
    pub wal_bytes: AtomicU64,
    /// Snapshot generations published since open.
    pub snapshots: AtomicU64,
    /// Compactions completed since open.
    pub compactions: AtomicU64,
    /// Records replayed from the log during open.
    pub recovered_records: AtomicU64,
    /// Wall-clock milliseconds spent recovering in open.
    pub recovery_ms: AtomicU64,
}

/// A plain snapshot of [`WalCounters`], for report structs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records in the live log.
    pub wal_records: u64,
    /// Bytes in the live log.
    pub wal_bytes: u64,
    /// Snapshot generations published since open.
    pub snapshots: u64,
    /// Compactions completed since open.
    pub compactions: u64,
    /// Records replayed from the log during open.
    pub recovered_records: u64,
    /// Milliseconds spent recovering in open.
    pub recovery_ms: u64,
}

impl WalCounters {
    /// Read every counter at once.
    pub fn stats(&self) -> WalStats {
        WalStats {
            wal_records: self.wal_records.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            recovered_records: self.recovered_records.load(Ordering::Relaxed),
            recovery_ms: self.recovery_ms.load(Ordering::Relaxed),
        }
    }
}

/// A durable write-ahead log for one catalog directory.
///
/// See the [module docs](self) for the format and guarantees.
#[derive(Debug)]
pub struct Wal {
    log: RecordLog,
    opts: WalOptions,
    /// Live snapshot generation (0 = no snapshot yet).
    generation: u64,
    counters: Arc<WalCounters>,
}

impl Wal {
    /// Open (or create) the WAL in `dir`, recovering the catalog it
    /// proves: load the live generation's snapshot, replay the log over
    /// it (validating checksums, sequence contiguity, and the stamped
    /// post-mutation fingerprint record by record), and truncate any
    /// torn tail. Returns the WAL handle and the recovered catalog.
    pub fn open(vfs: Arc<dyn Vfs>, dir: &Path, opts: WalOptions) -> Result<(Wal, Database)> {
        let start = Instant::now();
        let lock = DirLock::acquire(Arc::clone(&vfs), dir, LOCK_FILE)?;
        let meta_path = dir.join(META_FILE);
        let generation = if vfs.exists(&meta_path) {
            let text = retried(|| vfs.read_to_string(&meta_path).map_err(StorageError::from))?;
            parse_meta(&text).ok_or_else(|| corruption(&meta_path, "unparsable wal.meta"))?
        } else {
            // No meta means generation 0 — legal only if no snapshot was
            // ever published. Snapshot files without a meta naming them
            // mean the meta was lost: refuse to silently recover empty.
            if let Some(stray) = find_snapshot_file(&*vfs, dir) {
                return Err(corruption(
                    &meta_path,
                    &format!(
                        "wal.meta is missing but snapshot files exist (e.g. {})",
                        stray.display()
                    ),
                ));
            }
            0
        };
        sweep_generations(&*vfs, dir, |g| g != generation);
        let mut db = Database::new();
        let mut last_seq = 0u64;
        if generation > 0 {
            let manifest_path = dir.join(format!("snap-{generation}.manifest"));
            let text = retried(|| {
                vfs.read_to_string(&manifest_path)
                    .map_err(StorageError::from)
            })
            .map_err(|e| missing_as_corruption(&manifest_path, e))?;
            let manifest = parse_manifest(&text)
                .ok_or_else(|| corruption(&manifest_path, "unparsable snapshot manifest"))?;
            for (idx, hash, name) in &manifest.relations {
                let path = dir.join(format!("snap-{generation}-{idx}.qfr"));
                let rel = retried(|| read_relation_on(&*vfs, &path))
                    .map_err(|e| missing_as_corruption(&path, e))?;
                if rel.name() != name {
                    return Err(corruption(
                        &path,
                        &format!(
                            "snapshot holds relation `{}` but the manifest expects `{name}`",
                            rel.name()
                        ),
                    ));
                }
                let got = rel.content_hash();
                if got != *hash {
                    return Err(corruption(
                        &path,
                        &format!("content hash {got:016x} does not match manifest {hash:016x}"),
                    ));
                }
                db.insert(rel);
            }
            let got = db.fingerprint();
            if got != manifest.catalog_fp {
                return Err(corruption(
                    &manifest_path,
                    &format!(
                        "assembled snapshot fingerprint {got:016x} does not match manifest {:016x}",
                        manifest.catalog_fp
                    ),
                ));
            }
            last_seq = manifest.seq;
        }
        let log_name = format!("log-{generation}.wal");
        let (log, recovered) =
            RecordLog::open(lock, &log_name, last_seq, |seq, post_fp, payload| {
                let Some(record) = decode_payload(payload) else {
                    return Ok(false);
                };
                Wal::apply(&mut db, &record)?;
                let got = db.fingerprint();
                if got != post_fp {
                    return Err(StorageError::Corruption {
                        path: dir.join(&log_name).display().to_string(),
                        frame: seq,
                        detail: format!(
                            "replayed catalog fingerprint {got:016x} does not match the \
                         fingerprint {post_fp:016x} stamped at commit"
                        ),
                    });
                }
                Ok(true)
            })?;
        let counters = Arc::new(WalCounters::default());
        counters.wal_records.store(recovered, Ordering::Relaxed);
        counters
            .wal_bytes
            .store(log.log_buf.len() as u64, Ordering::Relaxed);
        counters
            .recovered_records
            .store(recovered, Ordering::Relaxed);
        counters
            .recovery_ms
            .store(start.elapsed().as_millis() as u64, Ordering::Relaxed);
        Ok((
            Wal {
                log,
                opts,
                generation,
                counters,
            },
            db,
        ))
    }

    /// The shared counters, for `stats` reporting.
    pub fn counters(&self) -> Arc<WalCounters> {
        Arc::clone(&self.counters)
    }

    /// The data directory this WAL lives in.
    pub fn dir(&self) -> &Path {
        self.log.dir()
    }

    /// Sequence number of the last durable record.
    pub fn last_seq(&self) -> u64 {
        self.log.last_seq
    }

    /// A failed commit could not be rolled back (the log repair itself
    /// failed), so the on-disk log may hold one complete record that
    /// was never acknowledged — its outcome is *indeterminate* until
    /// restart, exactly like a write that times out in flight. Every
    /// further mutation fails typed while poisoned; recovery on the
    /// next open resolves the ambiguity (the record is either there in
    /// full or truncated away).
    pub fn is_poisoned(&self) -> bool {
        self.log.poisoned
    }

    /// Apply one record to a catalog. This is the **only** mutation
    /// path — both live application and replay go through it, so a
    /// recovered catalog equals the served one by construction.
    pub fn apply(db: &mut Database, record: &WalRecord) -> Result<()> {
        match record {
            WalRecord::Put { relations } => {
                for tsv in relations {
                    let rel = read_tsv(std::io::Cursor::new(tsv.as_bytes()))?;
                    db.insert(rel);
                }
            }
            WalRecord::Append { tsv } => {
                let delta = read_tsv(std::io::Cursor::new(tsv.as_bytes()))?;
                apply_append(db, delta)?;
            }
            WalRecord::Retract { tsv } => {
                let delta = read_tsv(std::io::Cursor::new(tsv.as_bytes()))?;
                apply_retract(db, delta)?;
            }
        }
        Ok(())
    }

    /// Durably commit one record through [`RecordLog::append`] (append,
    /// fsync, read-back verify; the trusted prefix is restored on
    /// failure). `post_fp` is the catalog fingerprint after applying
    /// `record`; recovery re-derives and checks it.
    ///
    /// On success the record is durable: a process killed any time
    /// after this returns recovers a catalog containing it. On failure
    /// the log is restored to its pre-call state (or the WAL is
    /// poisoned if even that failed, failing all further mutations).
    pub fn commit(&mut self, record: &WalRecord, post_fp: u64) -> Result<()> {
        self.log.append(post_fp, &encode_payload(record), || {})?;
        self.counters.wal_records.fetch_add(1, Ordering::Relaxed);
        self.counters
            .wal_bytes
            .store(self.log.log_buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Compact if the live log has outgrown the threshold. `db` must be
    /// the catalog state as of [`Wal::last_seq`]. Returns whether a
    /// compaction ran. A failed compaction is typed but non-fatal: the
    /// old generation stays authoritative and the log keeps growing.
    pub fn maybe_compact(&mut self, db: &Database) -> Result<bool> {
        if self.log.poisoned || (self.log.log_buf.len() as u64) < self.opts.compact_threshold {
            return Ok(false);
        }
        self.compact(db)?;
        Ok(true)
    }

    /// Snapshot `db` into the next generation and truncate the log.
    /// Every snapshot file and the manifest are read-back verified
    /// *before* the `wal.meta` rename that commits the generation, so a
    /// crash or lying write anywhere in here leaves the old generation
    /// fully intact.
    pub fn compact(&mut self, db: &Database) -> Result<()> {
        self.log.writable()?;
        let next = self.generation + 1;
        let mut manifest = format!(
            "{MANIFEST_FORMAT}\ncatalog {:016x}\nseq {}\n",
            db.fingerprint(),
            self.log.last_seq
        );
        for (idx, rel) in db.iter().enumerate() {
            let path = self.dir().join(format!("snap-{next}-{idx}.qfr"));
            self.log.publish_relation(&path, rel, || {})?;
            manifest.push_str(&format!(
                "rel {idx} {:016x} {}\n",
                rel.content_hash(),
                rel.name()
            ));
        }
        let vfs = self.log.vfs();
        let manifest_path = self.dir().join(format!("snap-{next}.manifest"));
        publish_verified(vfs, &manifest_path, manifest.as_bytes())?;
        // The commit point: after this rename the new generation is
        // authoritative and the old one is garbage.
        let meta = format!("{META_FORMAT}\ngen {next}\n");
        publish_verified(vfs, &self.dir().join(META_FILE), meta.as_bytes())?;
        let old = self.generation;
        self.generation = next;
        self.log.restart(&format!("log-{next}.wal"));
        self.counters.snapshots.fetch_add(1, Ordering::Relaxed);
        self.counters.compactions.fetch_add(1, Ordering::Relaxed);
        self.counters.wal_records.store(0, Ordering::Relaxed);
        self.counters.wal_bytes.store(0, Ordering::Relaxed);
        // Old-generation files are unreferenced now; best-effort removal
        // (open sweeps whatever survives a crash here).
        sweep_generations(self.log.vfs(), self.log.dir(), |g| g == old);
        Ok(())
    }
}

/// Merge `delta` into the catalog under set semantics (tuples union;
/// the relation is created if absent). The delta's columns must match
/// the existing schema exactly.
fn apply_append(db: &mut Database, delta: Relation) -> Result<()> {
    let name = delta.name().to_string();
    if !db.contains(&name) {
        db.insert(delta);
        return Ok(());
    }
    let base = db.get(&name)?;
    if base.schema().columns() != delta.schema().columns() {
        return Err(StorageError::Malformed {
            detail: format!(
                "append to `{name}`: delta columns {:?} do not match existing columns {:?}",
                delta.schema().columns(),
                base.schema().columns()
            ),
        });
    }
    let mut tuples: Vec<Tuple> = base.tuples().to_vec();
    tuples.extend(delta.iter().cloned());
    let merged = Relation::from_tuples(base.schema().clone(), tuples);
    db.insert(merged);
    Ok(())
}

/// Remove `delta` from the catalog under set semantics (tuples
/// difference; retracting from an absent relation is a no-op, and
/// tuples not present are silently skipped — the difference is exact
/// either way). The delta's columns must match the existing schema.
fn apply_retract(db: &mut Database, delta: Relation) -> Result<()> {
    let name = delta.name().to_string();
    if !db.contains(&name) {
        return Ok(());
    }
    let base = db.get(&name)?;
    if base.schema().columns() != delta.schema().columns() {
        return Err(StorageError::Malformed {
            detail: format!(
                "retract from `{name}`: delta columns {:?} do not match existing columns {:?}",
                delta.schema().columns(),
                base.schema().columns()
            ),
        });
    }
    let remaining: Vec<Tuple> = base
        .tuples()
        .iter()
        .filter(|t| !delta.contains(t))
        .cloned()
        .collect();
    // `base` is sorted and deduplicated; filtering preserves that.
    let reduced = Relation::from_sorted_dedup(base.schema().clone(), remaining);
    db.insert(reduced);
    Ok(())
}

/// Lock files owned by live [`DirLock`]s of this process. A lock file
/// naming this process but missing here is a leftover whose removal
/// failed, not a live owner.
fn held_locks() -> MutexGuard<'static, Vec<PathBuf>> {
    static HELD: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());
    HELD.lock().unwrap_or_else(|e| e.into_inner())
}

/// Take a PID lock at `path`. Returns the lock path when this call
/// created (and therefore owns) the lock; `None` when a live handle of
/// *this* process owns it (reentrant — the earlier owner keeps
/// responsibility for removal). A lock held by a dead process, with
/// torn content, or left behind by this process with no live owner is
/// reclaimed; one held by a live foreign process is a hard error.
fn acquire_pid_lock(vfs: &dyn Vfs, path: &Path) -> Result<Option<PathBuf>> {
    let mut held = held_locks();
    for _ in 0..2 {
        match vfs.create_new(path) {
            Ok(mut f) => {
                let _ = f.write_all(std::process::id().to_string().as_bytes());
                let _ = f.flush();
                held.push(path.to_path_buf());
                return Ok(Some(path.to_path_buf()));
            }
            Err(e) if e.kind() == ErrorKind::AlreadyExists => {
                let holder = vfs
                    .read_to_string(path)
                    .ok()
                    .and_then(|s| s.trim().parse::<u32>().ok());
                let ours = holder == Some(std::process::id());
                match holder {
                    Some(_) if ours && held.iter().any(|p| p == path) => return Ok(None),
                    Some(pid) if !ours && process_alive(pid) => {
                        return Err(StorageError::Io {
                            kind: ErrorKind::AlreadyExists,
                            detail: format!(
                                "{} is locked by running process {pid}",
                                path.display()
                            ),
                        });
                    }
                    // Dead or missing owner, or torn content: reclaim.
                    _ => {
                        vfs.remove_file(path)?;
                    }
                }
            }
            Err(e) => return Err(StorageError::from(e)),
        }
    }
    Err(StorageError::Io {
        kind: ErrorKind::AlreadyExists,
        detail: format!(
            "could not acquire {} (lock keeps reappearing)",
            path.display()
        ),
    })
}

/// Is a process with this PID alive? Used for dead-owner lock reclaim.
#[cfg(unix)]
fn process_alive(pid: u32) -> bool {
    Path::new(&format!("/proc/{pid}")).exists()
}

/// Is a process with this PID alive? On platforms with no cheap
/// liveness probe this answers `true`: never steal a foreign lock.
#[cfg(not(unix))]
fn process_alive(_pid: u32) -> bool {
    true
}

/// Run `f`, absorbing up to [`MAX_IO_RETRIES`] transient I/O errors
/// with exponential backoff; `on_retry` is called once per absorbed
/// error (callers count them in their stats). The workspace's one
/// retry loop: every durable write and the spill path go through it.
pub fn with_retries<T>(mut on_retry: impl FnMut(), mut f: impl FnMut() -> Result<T>) -> Result<T> {
    let mut attempt = 0u32;
    loop {
        match f() {
            Err(e) if e.is_transient() && attempt < MAX_IO_RETRIES => {
                attempt += 1;
                on_retry();
                std::thread::sleep(std::time::Duration::from_millis(1 << attempt.min(4)));
            }
            other => return other,
        }
    }
}

/// [`with_retries`] for callers that do not count retries.
fn retried<T>(f: impl FnMut() -> Result<T>) -> Result<T> {
    with_retries(|| {}, f)
}

/// A file the live generation *names* but that cannot be found is
/// damage to the directory, not a plain I/O miss.
fn missing_as_corruption(path: &Path, e: StorageError) -> StorageError {
    match &e {
        StorageError::Io { kind, .. } if *kind == ErrorKind::NotFound => corruption(
            path,
            &format!("file named by the live generation is missing: {e}"),
        ),
        _ => e,
    }
}

fn poisoned_err(log: &Path) -> StorageError {
    StorageError::Io {
        kind: ErrorKind::Other,
        detail: format!(
            "log {} is poisoned after a failed log repair; restart to recover",
            log.display()
        ),
    }
}

fn corruption(path: &Path, detail: &str) -> StorageError {
    StorageError::Corruption {
        path: path.display().to_string(),
        frame: 0,
        detail: detail.to_string(),
    }
}

/// Read a whole file through the VFS.
fn read_file_bytes(vfs: &dyn Vfs, path: &Path) -> Result<Vec<u8>> {
    let mut f = vfs.open(path)?;
    let mut buf = Vec::new();
    f.read_to_end(&mut buf)?;
    Ok(buf)
}

/// Publish `bytes` at `path` via temp + fsync + **read-back verify** +
/// rename. The verification happens on the temp file, *before* the
/// rename that makes it visible — a lying write can never replace good
/// bytes with bad ones.
fn publish_verified(vfs: &dyn Vfs, path: &Path, bytes: &[u8]) -> Result<()> {
    let tmp = tmp_path(path);
    let result = retried(|| {
        let mut f = vfs.create(&tmp)?;
        f.write_all(bytes)?;
        f.flush()?;
        f.sync_all()?;
        drop(f);
        let back = read_file_bytes(vfs, &tmp)?;
        if back != bytes {
            return Err(corruption(
                &tmp,
                "read-back after write does not match the written bytes",
            ));
        }
        vfs.rename(&tmp, path)?;
        Ok(())
    });
    if result.is_err() {
        let _ = vfs.remove_file(&tmp);
    }
    result
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Parse `wal.meta`; `None` means torn/unparsable.
fn parse_meta(text: &str) -> Option<u64> {
    let mut lines = text.lines();
    if lines.next() != Some(META_FORMAT) {
        return None;
    }
    lines.next()?.strip_prefix("gen ")?.trim().parse().ok()
}

struct Manifest {
    catalog_fp: u64,
    seq: u64,
    /// `(file index, content hash, relation name)` per relation.
    relations: Vec<(u64, u64, String)>,
}

/// Parse a snapshot manifest; `None` means torn/unparsable.
fn parse_manifest(text: &str) -> Option<Manifest> {
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_FORMAT) {
        return None;
    }
    let catalog_fp =
        u64::from_str_radix(lines.next()?.strip_prefix("catalog ")?.trim(), 16).ok()?;
    let seq = lines.next()?.strip_prefix("seq ")?.trim().parse().ok()?;
    let mut relations = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let rest = line.strip_prefix("rel ")?;
        let mut parts = rest.splitn(3, ' ');
        let idx = parts.next()?.parse().ok()?;
        let hash = u64::from_str_radix(parts.next()?, 16).ok()?;
        let name = parts.next()?.to_string();
        relations.push((idx, hash, name));
    }
    Some(Manifest {
        catalog_fp,
        seq,
        relations,
    })
}

/// Does the directory hold any published snapshot manifest?
fn find_snapshot_file(vfs: &dyn Vfs, dir: &Path) -> Option<PathBuf> {
    vfs.read_dir(dir).ok()?.into_iter().find(|p| {
        p.file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("snap-") && n.ends_with(".manifest"))
    })
}

/// Best-effort removal of the WAL-managed files whose generation
/// `doomed` selects: on open, every generation but the live one
/// (leftovers of a crashed compaction or of the generation it
/// replaced); after a compaction, the generation it replaced.
fn sweep_generations(vfs: &dyn Vfs, dir: &Path, doomed: impl Fn(u64) -> bool) {
    let Ok(entries) = vfs.read_dir(dir) else {
        return;
    };
    for p in entries {
        let Some(name) = p.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if file_generation(name).is_some_and(&doomed) {
            let _ = vfs.remove_file(&p);
        }
    }
}

/// The generation a WAL-managed file belongs to, from its name:
/// `log-<g>.wal`, `snap-<g>.manifest`, `snap-<g>-<idx>.qfr`. `None`
/// for anything else (meta, lock, foreign files — never touched).
fn file_generation(name: &str) -> Option<u64> {
    if let Some(rest) = name.strip_prefix("log-") {
        return rest.strip_suffix(".wal")?.parse().ok();
    }
    if let Some(rest) = name.strip_prefix("snap-") {
        if let Some(g) = rest.strip_suffix(".manifest") {
            return g.parse().ok();
        }
        let body = rest.strip_suffix(".qfr")?;
        return body.split('-').next()?.parse().ok();
    }
    None
}

/// Frame one record: `[u32 len][u64 seq][u64 fp][payload][u64 fnv]`.
fn encode_record(seq: u64, fp: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_OVERHEAD + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&fp.to_le_bytes());
    out.extend_from_slice(payload);
    let mut h = Fnv1a::new();
    h.write(&out);
    out.extend_from_slice(&h.finish().to_le_bytes());
    out
}

/// Encode a record payload: a tag byte, then length-prefixed TSV
/// documents.
fn encode_payload(record: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    match record {
        WalRecord::Put { relations } => {
            out.push(TAG_PUT);
            out.extend_from_slice(&(relations.len() as u32).to_le_bytes());
            for tsv in relations {
                out.extend_from_slice(&(tsv.len() as u32).to_le_bytes());
                out.extend_from_slice(tsv.as_bytes());
            }
        }
        WalRecord::Append { tsv } => {
            out.push(TAG_APPEND);
            out.extend_from_slice(&(tsv.len() as u32).to_le_bytes());
            out.extend_from_slice(tsv.as_bytes());
        }
        WalRecord::Retract { tsv } => {
            out.push(TAG_RETRACT);
            out.extend_from_slice(&(tsv.len() as u32).to_le_bytes());
            out.extend_from_slice(tsv.as_bytes());
        }
    }
    out
}

/// Decode a record payload; `None` means malformed.
fn decode_payload(bytes: &[u8]) -> Option<WalRecord> {
    fn take_u32(rest: &mut &[u8]) -> Option<u32> {
        let (head, tail) = rest.split_at_checked(4)?;
        *rest = tail;
        Some(u32::from_le_bytes(head.try_into().ok()?))
    }
    fn take_str(rest: &mut &[u8]) -> Option<String> {
        let len = take_u32(rest)? as usize;
        let (head, tail) = rest.split_at_checked(len)?;
        *rest = tail;
        String::from_utf8(head.to_vec()).ok()
    }
    let (&tag, mut rest) = bytes.split_first()?;
    let record = match tag {
        TAG_PUT => {
            let n = take_u32(&mut rest)?;
            let mut relations = Vec::with_capacity(n.min(1024) as usize);
            for _ in 0..n {
                relations.push(take_str(&mut rest)?);
            }
            WalRecord::Put { relations }
        }
        TAG_APPEND => WalRecord::Append {
            tsv: take_str(&mut rest)?,
        },
        TAG_RETRACT => WalRecord::Retract {
            tsv: take_str(&mut rest)?,
        },
        _ => return None,
    };
    if !rest.is_empty() {
        return None;
    }
    Some(record)
}

/// Scan a log tolerantly, returning the `(seq, fp, payload)` records
/// of the checksummed prefix: any framing violation — a truncated
/// frame, a checksum mismatch, a sequence discontinuity — ends the
/// trusted prefix there. Sequence numbers must continue from
/// `start_seq` contiguously. Payloads are returned raw; decoding is the
/// client's.
fn scan_log(bytes: &[u8], start_seq: u64) -> Vec<(u64, u64, &[u8])> {
    let mut records = Vec::new();
    let mut off = 0usize;
    let mut seq = start_seq;
    loop {
        let remaining = bytes.len() - off;
        if remaining < RECORD_OVERHEAD {
            return records;
        }
        let payload_len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        if payload_len > remaining - RECORD_OVERHEAD {
            return records;
        }
        let body_end = off + RECORD_HEADER + payload_len;
        let mut h = Fnv1a::new();
        h.write(&bytes[off..body_end]);
        let stored = u64::from_le_bytes(bytes[body_end..body_end + 8].try_into().unwrap());
        if h.finish() != stored {
            return records;
        }
        let rec_seq = u64::from_le_bytes(bytes[off + 4..off + 12].try_into().unwrap());
        if rec_seq != seq + 1 {
            return records;
        }
        let fp = u64::from_le_bytes(bytes[off + 12..off + 20].try_into().unwrap());
        records.push((rec_seq, fp, &bytes[off + RECORD_HEADER..body_end]));
        seq = rec_seq;
        off = body_end + 8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{real_fs, ChaosFs, Fault, OpClass, RealFs, VfsFile};

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qf-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tsv(name: &str, rows: &[(i64, &str)]) -> String {
        let mut out = format!("{name}\tid\titem\n");
        for (id, item) in rows {
            out.push_str(&format!("{id}\t{item}\n"));
        }
        out
    }

    /// Apply `record` to `db` and commit it, returning the post-fp.
    fn commit(wal: &mut Wal, db: &mut Database, record: WalRecord) -> Result<u64> {
        let mut next = db.clone();
        Wal::apply(&mut next, &record)?;
        let fp = next.fingerprint();
        wal.commit(&record, fp)?;
        *db = next;
        Ok(fp)
    }

    #[test]
    fn empty_open_recovers_empty_catalog() {
        let dir = tmp("empty");
        let (wal, db) = Wal::open(real_fs(), &dir, WalOptions::default()).unwrap();
        assert!(db.is_empty());
        assert_eq!(wal.last_seq(), 0);
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn commit_then_reopen_recovers_acknowledged_state() {
        let dir = tmp("basic");
        let (mut wal, mut db) = Wal::open(real_fs(), &dir, WalOptions::default()).unwrap();
        commit(
            &mut wal,
            &mut db,
            WalRecord::Put {
                relations: vec![tsv("baskets", &[(1, "beer"), (2, "chips")])],
            },
        )
        .unwrap();
        let fp = commit(
            &mut wal,
            &mut db,
            WalRecord::Append {
                tsv: tsv("baskets", &[(3, "beer")]),
            },
        )
        .unwrap();
        drop(wal);
        let (wal, recovered) = Wal::open(real_fs(), &dir, WalOptions::default()).unwrap();
        assert_eq!(recovered.fingerprint(), fp);
        assert_eq!(recovered.get("baskets").unwrap().len(), 3);
        assert_eq!(wal.counters().stats().recovered_records, 2);
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_merges_under_set_semantics() {
        let mut db = Database::new();
        Wal::apply(
            &mut db,
            &WalRecord::Put {
                relations: vec![tsv("r", &[(1, "a"), (2, "b")])],
            },
        )
        .unwrap();
        // Duplicate (1, a) must not double under set semantics.
        Wal::apply(
            &mut db,
            &WalRecord::Append {
                tsv: tsv("r", &[(1, "a"), (3, "c")]),
            },
        )
        .unwrap();
        assert_eq!(db.get("r").unwrap().len(), 3);
        // Appending to a missing relation creates it.
        Wal::apply(
            &mut db,
            &WalRecord::Append {
                tsv: tsv("s", &[(9, "z")]),
            },
        )
        .unwrap();
        assert_eq!(db.get("s").unwrap().len(), 1);
        // A schema mismatch is typed, and the catalog is untouched.
        let err = Wal::apply(
            &mut db,
            &WalRecord::Append {
                tsv: "r\tother\n1\n".to_string(),
            },
        )
        .unwrap_err();
        assert!(matches!(err, StorageError::Malformed { .. }), "{err}");
        assert_eq!(db.get("r").unwrap().len(), 3);
    }

    #[test]
    fn retract_is_set_difference() {
        let mut db = Database::new();
        Wal::apply(
            &mut db,
            &WalRecord::Put {
                relations: vec![tsv("r", &[(1, "a"), (2, "b"), (3, "c")])],
            },
        )
        .unwrap();
        // Tuples absent from the base ((9, z)) are silently skipped —
        // the set difference is exact either way.
        Wal::apply(
            &mut db,
            &WalRecord::Retract {
                tsv: tsv("r", &[(2, "b"), (9, "z")]),
            },
        )
        .unwrap();
        assert_eq!(db.get("r").unwrap().len(), 2);
        assert!(!db.get("r").unwrap().is_empty());
        // Retracting from a missing relation is a no-op.
        Wal::apply(
            &mut db,
            &WalRecord::Retract {
                tsv: tsv("missing", &[(1, "a")]),
            },
        )
        .unwrap();
        assert!(!db.contains("missing"));
        // A schema mismatch is typed, and the catalog is untouched.
        let err = Wal::apply(
            &mut db,
            &WalRecord::Retract {
                tsv: "r\tother\n1\n".to_string(),
            },
        )
        .unwrap_err();
        assert!(matches!(err, StorageError::Malformed { .. }), "{err}");
        assert_eq!(db.get("r").unwrap().len(), 2);
        // Append then retract of the same delta round-trips the catalog.
        let fp = db.fingerprint();
        Wal::apply(
            &mut db,
            &WalRecord::Append {
                tsv: tsv("r", &[(7, "q")]),
            },
        )
        .unwrap();
        Wal::apply(
            &mut db,
            &WalRecord::Retract {
                tsv: tsv("r", &[(7, "q")]),
            },
        )
        .unwrap();
        assert_eq!(db.fingerprint(), fp);
    }

    #[test]
    fn append_equals_bulk_load() {
        let full = tsv("r", &[(1, "a"), (2, "b"), (3, "c"), (4, "d")]);
        let mut bulk = Database::new();
        Wal::apply(
            &mut bulk,
            &WalRecord::Put {
                relations: vec![full],
            },
        )
        .unwrap();
        let mut delta = Database::new();
        for chunk in [&[(1, "a"), (2, "b")][..], &[(3, "c")], &[(4, "d")]] {
            Wal::apply(
                &mut delta,
                &WalRecord::Append {
                    tsv: tsv("r", chunk),
                },
            )
            .unwrap();
        }
        assert_eq!(bulk.fingerprint(), delta.fingerprint());
    }

    #[test]
    fn record_roundtrip() {
        for record in [
            WalRecord::Put {
                relations: vec![tsv("a", &[(1, "x")]), tsv("b", &[])],
            },
            WalRecord::Append {
                tsv: tsv("a", &[(2, "y")]),
            },
            WalRecord::Retract {
                tsv: tsv("a", &[(1, "x")]),
            },
            WalRecord::Put { relations: vec![] },
        ] {
            let payload = encode_payload(&record);
            assert_eq!(decode_payload(&payload), Some(record));
        }
    }

    #[test]
    fn torn_tail_is_truncated_to_the_trusted_prefix() {
        let dir = tmp("torn");
        let (mut wal, mut db) = Wal::open(real_fs(), &dir, WalOptions::default()).unwrap();
        let fp1 = commit(
            &mut wal,
            &mut db,
            WalRecord::Put {
                relations: vec![tsv("r", &[(1, "a")])],
            },
        )
        .unwrap();
        let log = wal.log.path.clone();
        drop(wal);
        // Simulate a crash mid-append: half a record's worth of junk.
        let mut bytes = std::fs::read(&log).unwrap();
        let trusted = bytes.len();
        bytes.extend_from_slice(&[0x17; 13]);
        std::fs::write(&log, &bytes).unwrap();
        let (wal, recovered) = Wal::open(real_fs(), &dir, WalOptions::default()).unwrap();
        assert_eq!(recovered.fingerprint(), fp1);
        // The torn tail was truncated away durably.
        assert_eq!(std::fs::read(&log).unwrap().len(), trusted);
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_snapshots_and_truncates() {
        let dir = tmp("compact");
        let opts = WalOptions {
            compact_threshold: 1,
        };
        let (mut wal, mut db) = Wal::open(real_fs(), &dir, opts).unwrap();
        commit(
            &mut wal,
            &mut db,
            WalRecord::Put {
                relations: vec![tsv("r", &[(1, "a"), (2, "b")])],
            },
        )
        .unwrap();
        assert!(wal.maybe_compact(&db).unwrap());
        let stats = wal.counters().stats();
        assert_eq!((stats.snapshots, stats.compactions), (1, 1));
        assert_eq!(stats.wal_bytes, 0);
        // Mutations after compaction land in the new generation's log.
        let fp = commit(
            &mut wal,
            &mut db,
            WalRecord::Append {
                tsv: tsv("r", &[(3, "c")]),
            },
        )
        .unwrap();
        drop(wal);
        let (wal, recovered) = Wal::open(real_fs(), &dir, opts).unwrap();
        assert_eq!(recovered.fingerprint(), fp);
        assert_eq!(recovered.get("r").unwrap().len(), 3);
        assert_eq!(wal.counters().stats().recovered_records, 1);
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pid_lock_blocks_reclaims_and_reenters() {
        let dir = tmp("lock");
        let path = dir.join(LOCK_FILE);
        let acquire = || DirLock::acquire(real_fs(), &dir, LOCK_FILE);
        // Fresh acquire owns the lock.
        let owner = acquire().unwrap();
        assert_eq!(owner.owned, Some(path.clone()));
        // Same process re-enters without owning while the owner lives.
        assert_eq!(acquire().unwrap().owned, None);
        assert!(path.exists());
        drop(owner);
        assert!(!path.exists());
        // A live foreign holder is a hard error (PID 1 is always alive).
        std::fs::write(&path, "1").unwrap();
        let err = acquire().unwrap_err();
        assert!(
            err.to_string().contains("locked by running process"),
            "{err}"
        );
        // A dead holder is reclaimed, and so is this process's own
        // leftover (a lock whose removal failed) once no handle owns it.
        for holder in ["999999999".to_string(), std::process::id().to_string()] {
            std::fs::write(&path, holder).unwrap();
            assert_eq!(acquire().unwrap().owned, Some(path.clone()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reentrant_open_is_read_only() {
        let dir = tmp("reentrant");
        let (mut wal, mut db) = Wal::open(real_fs(), &dir, WalOptions::default()).unwrap();
        let put = |rows| WalRecord::Put {
            relations: vec![tsv("r", rows)],
        };
        commit(&mut wal, &mut db, put(&[(1, "a")])).unwrap();
        let (mut second, seen) = Wal::open(real_fs(), &dir, WalOptions::default()).unwrap();
        assert_eq!(seen.fingerprint(), db.fingerprint());
        let err = commit(&mut second, &mut seen.clone(), put(&[(2, "b")])).unwrap_err();
        assert!(err.to_string().contains("read-only"), "{err}");
        assert!(second.compact(&seen).is_err());
        drop(second);
        // The owner's log is untouched and keeps committing.
        let fp = commit(&mut wal, &mut db, put(&[(3, "c")])).unwrap();
        drop(wal);
        let (_, recovered) = Wal::open(real_fs(), &dir, WalOptions::default()).unwrap();
        assert_eq!(recovered.fingerprint(), fp);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_while_locked_by_live_process_fails() {
        let dir = tmp("locked-open");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(LOCK_FILE), "1").unwrap();
        let err = Wal::open(real_fs(), &dir, WalOptions::default()).unwrap_err();
        assert!(err.to_string().contains("locked"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_meta_with_snapshots_is_corruption() {
        let dir = tmp("lost-meta");
        let opts = WalOptions {
            compact_threshold: 1,
        };
        let (mut wal, mut db) = Wal::open(real_fs(), &dir, opts).unwrap();
        commit(
            &mut wal,
            &mut db,
            WalRecord::Put {
                relations: vec![tsv("r", &[(1, "a")])],
            },
        )
        .unwrap();
        wal.compact(&db).unwrap();
        drop(wal);
        std::fs::remove_file(dir.join(META_FILE)).unwrap();
        let err = Wal::open(real_fs(), &dir, opts).unwrap_err();
        assert!(err.is_corruption(), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_on_commit_fails_typed_and_preserves_state() {
        let dir = tmp("chaos-torn");
        let (mut wal, mut db) = Wal::open(real_fs(), &dir, WalOptions::default()).unwrap();
        commit(
            &mut wal,
            &mut db,
            WalRecord::Put {
                relations: vec![tsv("r", &[(1, "a")])],
            },
        )
        .unwrap();
        drop(wal);
        // Write #1 under the chaos fs is the lock's PID stamp; #2 is
        // the record append — tear that one.
        let fs = Arc::new(ChaosFs::quiet().with_fault(OpClass::Write, 2, Fault::TornWrite));
        let (mut wal, db2) = Wal::open(fs, &dir, WalOptions::default()).unwrap();
        assert_eq!(db2.fingerprint(), db.fingerprint());
        let fp_before = db.fingerprint();
        // The torn write lies (reports success); read-back verification
        // must catch it before the mutation is acknowledged.
        let err = commit(
            &mut wal,
            &mut db,
            WalRecord::Append {
                tsv: tsv("r", &[(2, "b")]),
            },
        )
        .unwrap_err();
        assert!(err.is_corruption(), "{err}");
        drop(wal);
        // And the log was repaired to the trusted prefix: recovery sees
        // exactly the acknowledged state.
        let (_, recovered) = Wal::open(real_fs(), &dir, WalOptions::default()).unwrap();
        assert_eq!(recovered.fingerprint(), fp_before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_matrix_commits_are_durable_or_typed() {
        // For a matrix of chaos seeds: drive a mutation sequence over a
        // faulty fs. Every commit must either succeed (and then be
        // recoverable) or fail typed; after a simulated crash the
        // recovered catalog must fingerprint-match the last
        // acknowledged mutation exactly.
        for seed in 0..24u64 {
            let dir = tmp(&format!("matrix-{seed}"));
            let fs: Arc<dyn Vfs> = Arc::new(ChaosFs::seeded(seed, 5));
            let opts = WalOptions {
                compact_threshold: 256,
            };
            let Ok((mut wal, mut db)) = Wal::open(Arc::clone(&fs), &dir, opts) else {
                // Open itself may fail typed under chaos; nothing was
                // acknowledged, so there is nothing to check.
                let _ = std::fs::remove_dir_all(&dir);
                continue;
            };
            let mut acked_fp = db.fingerprint();
            // A commit whose rollback also failed (poisoned WAL) is
            // *indeterminate*: the record may or may not be durable,
            // like a write that timed out in flight. At most one can
            // exist — poisoning blocks all further commits.
            let mut indeterminate_fp = None;
            for step in 0..6 {
                let record = if step == 0 {
                    WalRecord::Put {
                        relations: vec![tsv("r", &[(1, "a"), (2, "b")])],
                    }
                } else {
                    WalRecord::Append {
                        tsv: tsv("r", &[(10 + step, "x")]),
                    }
                };
                let mut next = db.clone();
                Wal::apply(&mut next, &record).unwrap();
                let fp = next.fingerprint();
                let was_poisoned = wal.is_poisoned();
                match wal.commit(&record, fp) {
                    Ok(()) => {
                        db = next;
                        acked_fp = fp;
                        let _ = wal.maybe_compact(&db);
                    }
                    Err(e) => {
                        // Typed failure; catalog unchanged.
                        let _ = e.to_string();
                        if wal.is_poisoned() && !was_poisoned {
                            indeterminate_fp = Some(fp);
                        }
                    }
                }
            }
            // "Crash": drop without any orderly shutdown, reopen on a
            // clean fs. Remove the lock first — the dropped Wal removes
            // it, but a poisoned/error path may have lost ownership.
            drop(wal);
            let _ = std::fs::remove_file(dir.join(LOCK_FILE));
            let (_, recovered) = Wal::open(real_fs(), &dir, opts)
                .unwrap_or_else(|e| panic!("seed {seed}: reopen failed: {e}"));
            assert!(
                recovered.fingerprint() == acked_fp
                    || indeterminate_fp == Some(recovered.fingerprint()),
                "seed {seed}: recovered catalog matches neither the last acknowledged \
                 mutation nor the single indeterminate one"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn every_byte_flip_in_the_log_is_caught() {
        let dir = tmp("flip");
        let (mut wal, mut db) = Wal::open(real_fs(), &dir, WalOptions::default()).unwrap();
        let mut acked = vec![db.fingerprint()];
        for record in [
            WalRecord::Put {
                relations: vec![tsv("r", &[(1, "a"), (2, "b")])],
            },
            WalRecord::Append {
                tsv: tsv("r", &[(3, "c")]),
            },
        ] {
            let mut next = db.clone();
            Wal::apply(&mut next, &record).unwrap();
            let fp = next.fingerprint();
            wal.commit(&record, fp).unwrap();
            db = next;
            acked.push(fp);
        }
        let log = wal.log.path.clone();
        drop(wal);
        let pristine = std::fs::read(&log).unwrap();
        for bit_byte in 0..pristine.len() {
            let mut corrupted = pristine.clone();
            corrupted[bit_byte] ^= 0x40;
            std::fs::write(&log, &corrupted).unwrap();
            // Tolerant recovery must land on an *acknowledged prefix* —
            // never wrong data.
            let (w, recovered) = Wal::open(real_fs(), &dir, WalOptions::default())
                .unwrap_or_else(|e| panic!("byte {bit_byte}: open failed: {e}"));
            assert!(
                acked.contains(&recovered.fingerprint()),
                "byte {bit_byte}: recovered a state that was never acknowledged"
            );
            drop(w);
            std::fs::write(&log, &pristine).unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The on-disk bytes of a fixed commit/compact/reopen script are
    /// pinned: any change to framing, payload encoding, manifests, meta
    /// or snapshots fails here. Each entry is (file name, length,
    /// FNV-1a of the contents).
    #[test]
    fn wal_bytes_are_pinned() {
        let dir = tmp("pinned");
        let opts = WalOptions {
            compact_threshold: 200,
        };
        let (mut wal, mut db) = Wal::open(real_fs(), &dir, opts).unwrap();
        let script = [
            WalRecord::Put {
                relations: vec![tsv("r", &[(1, "a"), (2, "b")]), tsv("s", &[(7, "z")])],
            },
            WalRecord::Append {
                tsv: tsv("r", &[(3, "c")]),
            },
            WalRecord::Retract {
                tsv: tsv("r", &[(1, "a")]),
            },
            // The log exceeds the threshold after this commit: it compacts.
            WalRecord::Append {
                tsv: tsv("s", &[(8, "y")]),
            },
            WalRecord::Retract {
                tsv: tsv("s", &[(7, "z")]),
            },
        ];
        for record in script {
            commit(&mut wal, &mut db, record).unwrap();
            wal.maybe_compact(&db).unwrap();
        }
        assert_eq!(wal.counters().stats().compactions, 1);
        drop(wal);
        let (wal, recovered) = Wal::open(real_fs(), &dir, opts).unwrap();
        drop(wal);
        let mut files: Vec<(String, usize, u64)> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let bytes = std::fs::read(&path).unwrap();
                let mut h = Fnv1a::new();
                h.write(&bytes);
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, bytes.len(), h.finish())
            })
            .collect();
        files.sort();
        let got: Vec<(&str, usize, u64)> =
            files.iter().map(|(n, l, h)| (n.as_str(), *l, *h)).collect();
        assert_eq!(
            got,
            vec![
                ("log-1.wal", 47, 0xbc4b_a162_db87_ec0f),
                ("snap-1-0.qfr", 44, 0x7cd0_d97b_ed37_cc87),
                ("snap-1-1.qfr", 44, 0x20ba_0839_9ef5_d672),
                ("snap-1.manifest", 95, 0xb0ff_7f1e_5b08_3acd),
                ("wal.meta", 15, 0x997e_c590_da29_1de6),
            ]
        );
        assert_eq!(recovered.fingerprint(), 0x5bf4_b869_4690_92fb);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The real filesystem, except that reading back a snapshot's temp
    /// file reads `substitute`: a well-framed relation file whose
    /// content differs from what was written.
    #[derive(Debug)]
    struct SwapReadBack {
        substitute: PathBuf,
    }

    impl Vfs for SwapReadBack {
        fn create(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
            RealFs.create(path)
        }
        fn create_new(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
            RealFs.create_new(path)
        }
        fn open(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            if name.starts_with("snap-") && name.ends_with(".qfr.tmp") {
                RealFs.open(&self.substitute)
            } else {
                RealFs.open(path)
            }
        }
        fn append(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
            RealFs.append(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            RealFs.rename(from, to)
        }
        fn remove_file(&self, path: &Path) -> std::io::Result<()> {
            RealFs.remove_file(path)
        }
        fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
            RealFs.create_dir_all(path)
        }
        fn remove_dir_all(&self, path: &Path) -> std::io::Result<()> {
            RealFs.remove_dir_all(path)
        }
        fn read_dir(&self, path: &Path) -> std::io::Result<Vec<PathBuf>> {
            RealFs.read_dir(path)
        }
        fn exists(&self, path: &Path) -> bool {
            RealFs.exists(path)
        }
    }

    /// Relations memoize their content hash, so both snapshot checks
    /// must hash a relation decoded from the bytes read back — never the
    /// in-memory relation that was written. An impostor with the same
    /// name and columns but other tuples is caught at compaction's
    /// read-back and at recovery.
    #[test]
    fn snapshot_checks_hash_the_relation_read_back() {
        let dir = tmp("readback");
        let elsewhere = tmp("readback-impostor");
        std::fs::create_dir_all(&elsewhere).unwrap();
        let opts = WalOptions {
            compact_threshold: 1,
        };
        let put = |rows| WalRecord::Put {
            relations: vec![tsv("r", rows)],
        };
        let mut impostor_db = Database::new();
        Wal::apply(&mut impostor_db, &put(&[(1, "a"), (2, "c")])).unwrap();
        let impostor = elsewhere.join("impostor.qfr");
        write_relation_on(&RealFs, &impostor, impostor_db.get("r").unwrap()).unwrap();

        let (mut wal, mut db) = Wal::open(real_fs(), &dir, opts).unwrap();
        commit(&mut wal, &mut db, put(&[(1, "a"), (2, "b")])).unwrap();
        assert_ne!(db.fingerprint(), impostor_db.fingerprint());
        drop(wal);
        let swapped: Arc<dyn Vfs> = Arc::new(SwapReadBack {
            substitute: impostor.clone(),
        });
        let (mut wal, recovered) = Wal::open(swapped, &dir, opts).unwrap();
        let err = wal.compact(&recovered).unwrap_err();
        assert!(
            err.to_string().contains("read-back after snapshot write"),
            "{err}"
        );
        drop(wal);

        let (mut wal, recovered) = Wal::open(real_fs(), &dir, opts).unwrap();
        wal.compact(&recovered).unwrap();
        drop(wal);
        std::fs::copy(&impostor, dir.join("snap-1-0.qfr")).unwrap();
        let err = Wal::open(real_fs(), &dir, opts).unwrap_err();
        assert!(err.is_corruption(), "{err}");
        assert!(err.to_string().contains("does not match manifest"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&elsewhere);
    }

    #[test]
    fn every_byte_flip_in_a_snapshot_is_caught() {
        let dir = tmp("snapflip");
        let opts = WalOptions {
            compact_threshold: 1,
        };
        let (mut wal, mut db) = Wal::open(real_fs(), &dir, opts).unwrap();
        commit(
            &mut wal,
            &mut db,
            WalRecord::Put {
                relations: vec![tsv("r", &[(1, "a"), (2, "b")])],
            },
        )
        .unwrap();
        wal.compact(&db).unwrap();
        drop(wal);
        let snap = dir.join("snap-1-0.qfr");
        let pristine = std::fs::read(&snap).unwrap();
        // Stride through the snapshot (it is a few hundred bytes; every
        // byte would be slow in debug builds for no extra coverage).
        for byte in (0..pristine.len()).step_by(3) {
            let mut corrupted = pristine.clone();
            corrupted[byte] ^= 0x01;
            std::fs::write(&snap, &corrupted).unwrap();
            let err = Wal::open(real_fs(), &dir, opts)
                .err()
                .unwrap_or_else(|| panic!("byte {byte}: corrupt snapshot accepted"));
            assert!(
                err.is_corruption() || matches!(err, StorageError::Malformed { .. }),
                "byte {byte}: {err}"
            );
            std::fs::write(&snap, &pristine).unwrap();
        }
        // Manifest flips: either rejected typed, or — when the flip
        // lands somewhere immaterial to content (e.g. a digit of the
        // `seq` line with no log to replay) — recovery still yields
        // exactly the acknowledged catalog. Never wrong data.
        let acked_fp = db.fingerprint();
        let manifest = dir.join("snap-1.manifest");
        let pristine_m = std::fs::read(&manifest).unwrap();
        for byte in 0..pristine_m.len() {
            let mut corrupted = pristine_m.clone();
            corrupted[byte] ^= 0x01;
            std::fs::write(&manifest, &corrupted).unwrap();
            match Wal::open(real_fs(), &dir, opts) {
                Err(_) => {}
                Ok((w, recovered)) => {
                    assert_eq!(
                        recovered.fingerprint(),
                        acked_fp,
                        "manifest byte {byte}: recovered an unacknowledged state"
                    );
                    drop(w);
                }
            }
            std::fs::write(&manifest, &pristine_m).unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
