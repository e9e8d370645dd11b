//! Out-of-core spill files: temp-file management and a compact,
//! integrity-checked on-disk tuple encoding.
//!
//! Operators that would otherwise trip their memory budget partition
//! state to disk (Grace-hash style) and continue instead of aborting;
//! the `FILTER`-step journal snapshots parameter relations with the same
//! encoding so a crashed run can resume. Both live on this format:
//!
//! * **Spill run** (`QFS2`): a header (magic, arity) followed by a
//!   sequence of encoded tuples. Runs written by the engine are sorted
//!   and deduplicated, so a k-way merge over runs reconstructs the
//!   canonical set order.
//! * **Relation snapshot** (`QFR2`): a spill run prefixed with the
//!   relation's schema (name, column names) and row count, used by the
//!   journal. [`write_relation`] fsyncs before returning so a
//!   `kill -9` immediately after cannot tear the snapshot.
//!
//! **End-to-end integrity.** Everything after the 4-byte magic flows
//! through checksummed *frames*: `varint(payload_len) · payload ·
//! FNV-1a(frame_index ‖ payload)`, at most [`FRAME_CAP`] payload bytes
//! each, closed by a zero-length terminator frame. Readers verify every
//! frame before serving a byte of it and fail with
//! [`StorageError::Corruption`] on any mismatch; a stream that ends
//! without its terminator (a torn write) is likewise corruption, never
//! a silently shorter relation. Flipping any single byte of a file is
//! detected. All file I/O goes through a [`Vfs`], so the chaos backend
//! ([`crate::vfs::ChaosFs`]) can prove those claims under injected
//! faults.
//!
//! Values are encoded as a tag byte plus a varint: integers as
//! zigzag-encoded LEB128, symbols as references into a **per-file string
//! dictionary** whose entries are emitted inline on first use. Interned
//! [`Symbol`] ids are *not* stable across processes, so readers re-intern
//! every dictionary string; a snapshot written by a killed run loads
//! correctly in the resuming process.

use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{Result, StorageError};
use crate::hash::FastMap;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::symbol::Symbol;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::vfs::{real_fs, RealFs, Vfs, VfsFile};

/// Magic bytes opening a spill run.
const RUN_MAGIC: &[u8; 4] = b"QFS2";
/// Magic bytes opening a relation snapshot.
const REL_MAGIC: &[u8; 4] = b"QFR2";

/// Maximum payload bytes per integrity frame. Also the reader's sanity
/// bound: a frame header claiming more is corruption by definition.
pub const FRAME_CAP: usize = 32 << 10;

/// Value tag: zigzag-varint integer.
const TAG_INT: u8 = 0;
/// Value tag: varint reference to an already-defined dictionary string.
const TAG_SYM_REF: u8 = 1;
/// Value tag: inline dictionary definition (varint length + UTF-8
/// bytes); the string is assigned the next dictionary id.
const TAG_SYM_DEF: u8 = 2;

/// Distinguishes sibling [`SpillDir`]s created in the same parent.
static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A managed directory for spill files.
///
/// Allocates uniquely named file paths for concurrent writers and
/// removes the whole directory (best effort) on drop. One `SpillDir` is
/// shared by every operator of a governed execution via the context.
/// All file I/O under the directory goes through its [`Vfs`].
#[derive(Debug)]
pub struct SpillDir {
    root: PathBuf,
    counter: AtomicU64,
    vfs: Arc<dyn Vfs>,
}

impl SpillDir {
    /// Create a fresh spill directory inside `parent` (the parent is
    /// created if missing), on the real filesystem.
    pub fn create(parent: &Path) -> Result<SpillDir> {
        SpillDir::create_on(real_fs(), parent)
    }

    /// [`SpillDir::create`] on an explicit [`Vfs`] backend.
    pub fn create_on(vfs: Arc<dyn Vfs>, parent: &Path) -> Result<SpillDir> {
        let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let root = parent.join(format!("qf-spill-{}-{seq}", std::process::id()));
        vfs.create_dir_all(&root)?;
        Ok(SpillDir {
            root,
            counter: AtomicU64::new(0),
            vfs,
        })
    }

    /// Create a fresh spill directory under the system temp directory.
    pub fn create_temp() -> Result<SpillDir> {
        SpillDir::create(&std::env::temp_dir())
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.root
    }

    /// The filesystem backend files in this directory are accessed
    /// through.
    pub fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
    }

    /// Allocate a unique file path for a new spill file. Thread-safe.
    pub fn alloc(&self, tag: &str) -> PathBuf {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        self.root.join(format!("{tag}-{n}.qfs"))
    }

    /// Open a writer on a freshly allocated path (through the vfs).
    pub fn writer(&self, tag: &str, arity: usize) -> Result<SpillWriter> {
        SpillWriter::create_on(&*self.vfs, self.alloc(tag), arity)
    }

    /// Open a reader on a file in this directory (through the vfs).
    pub fn reader(&self, path: &Path) -> Result<SpillReader> {
        SpillReader::open_on(&*self.vfs, path)
    }

    /// Remove a consumed (or partial) spill file. NotFound is not an
    /// error: retry paths discard files that may never have been born.
    pub fn remove(&self, path: &Path) -> Result<()> {
        match self.vfs.remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Number of files currently in the directory — the leak detector
    /// behind `ExecStats::spill_files_live`. Counted off the real
    /// filesystem (best effort, 0 on error) so it cannot itself fault.
    pub fn live_files(&self) -> u64 {
        std::fs::read_dir(&self.root)
            .map(|it| it.count() as u64)
            .unwrap_or(0)
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Handle to one finished spill file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillFile {
    /// Path of the file.
    pub path: PathBuf,
    /// Tuples written.
    pub rows: u64,
    /// Encoded size in bytes (including framing overhead).
    pub bytes: u64,
}

/// Buffered, framed, checksummed byte sink over a [`VfsFile`].
struct FrameWriter {
    file: Box<dyn VfsFile>,
    buf: Vec<u8>,
    frame: u64,
    bytes: u64,
}

impl FrameWriter {
    fn create(vfs: &dyn Vfs, path: &Path, magic: &[u8; 4]) -> Result<FrameWriter> {
        let mut file = vfs.create(path)?;
        file.write_all(magic)?;
        Ok(FrameWriter {
            file,
            buf: Vec::with_capacity(FRAME_CAP.min(4 << 10)),
            frame: 0,
            bytes: magic.len() as u64,
        })
    }

    fn put(&mut self, mut bytes: &[u8]) -> Result<()> {
        while !bytes.is_empty() {
            let room = FRAME_CAP - self.buf.len();
            let n = room.min(bytes.len());
            self.buf.extend_from_slice(&bytes[..n]);
            bytes = &bytes[n..];
            if self.buf.len() == FRAME_CAP {
                self.emit_frame()?;
            }
        }
        Ok(())
    }

    fn put_varint(&mut self, v: u64) -> Result<()> {
        let mut buf = [0u8; 10];
        let n = encode_varint(v, &mut buf);
        self.put(&buf[..n])
    }

    fn put_str(&mut self, s: &str) -> Result<()> {
        self.put_varint(s.len() as u64)?;
        self.put(s.as_bytes())
    }

    /// Write the buffered payload as one checksummed frame. The
    /// checksum covers the frame *index* too, so a frame cannot be
    /// replayed at a different position undetected.
    fn emit_frame(&mut self) -> Result<()> {
        let mut head = [0u8; 10];
        let n = encode_varint(self.buf.len() as u64, &mut head);
        let mut h = Fnv1a::new();
        h.write(&self.frame.to_le_bytes());
        h.write(&self.buf);
        self.file.write_all(&head[..n])?;
        self.file.write_all(&self.buf)?;
        self.file.write_all(&h.finish().to_le_bytes())?;
        self.bytes += n as u64 + self.buf.len() as u64 + 8;
        self.frame += 1;
        self.buf.clear();
        Ok(())
    }

    /// Flush the tail frame, write the zero-length terminator (whose
    /// absence lets readers detect torn files), and close. Returns the
    /// total bytes written.
    fn finish(mut self, sync: bool) -> Result<u64> {
        if !self.buf.is_empty() {
            self.emit_frame()?;
        }
        let mut h = Fnv1a::new();
        h.write(&self.frame.to_le_bytes());
        self.file.write_all(&[0])?;
        self.file.write_all(&h.finish().to_le_bytes())?;
        self.bytes += 9;
        self.file.flush()?;
        if sync {
            self.file.sync_all()?;
        }
        Ok(self.bytes)
    }
}

/// Verifying reader over a framed file: every frame's checksum is
/// checked before any of its bytes are served.
struct FrameReader {
    file: BufReader<Box<dyn VfsFile>>,
    path: PathBuf,
    buf: Vec<u8>,
    pos: usize,
    frame: u64,
    done: bool,
}

impl FrameReader {
    fn open(vfs: &dyn Vfs, path: &Path, magic: &[u8; 4]) -> Result<FrameReader> {
        let file = vfs.open(path)?;
        let mut r = FrameReader {
            file: BufReader::new(file),
            path: path.to_path_buf(),
            buf: Vec::new(),
            pos: 0,
            frame: 0,
            done: false,
        };
        let mut got = [0u8; 4];
        r.file
            .read_exact(&mut got)
            .map_err(|e| r.read_err(e, "magic"))?;
        if &got != magic {
            return Err(r.corrupt(format!("bad magic {got:02x?} (expected {:02x?})", magic)));
        }
        Ok(r)
    }

    fn corrupt(&self, detail: impl Into<String>) -> StorageError {
        StorageError::Corruption {
            path: self.path.display().to_string(),
            frame: self.frame,
            detail: detail.into(),
        }
    }

    /// Raw-read failure: unexpected EOF means a truncated/torn file
    /// (corruption); anything else is a plain I/O error.
    fn read_err(&self, e: std::io::Error, what: &str) -> StorageError {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            self.corrupt(format!("file ends mid-{what} (torn or truncated)"))
        } else {
            e.into()
        }
    }

    fn raw_exact(&mut self, out: &mut [u8], what: &str) -> Result<()> {
        self.file
            .read_exact(out)
            .map_err(|e| self.read_err(e, what))
    }

    fn raw_varint(&mut self, what: &str) -> Result<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        let mut byte = [0u8; 1];
        loop {
            self.raw_exact(&mut byte, what)?;
            if shift >= 64 {
                return Err(self.corrupt(format!("{what} varint overflows 64 bits")));
            }
            v |= u64::from(byte[0] & 0x7f) << shift;
            if byte[0] & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Load and verify the next frame. `false` at a clean end of stream
    /// (terminator frame seen); a stream that just stops is corruption.
    fn refill(&mut self) -> Result<bool> {
        if self.done {
            return Ok(false);
        }
        let len = self.raw_varint("frame header")? as usize;
        if len > FRAME_CAP {
            return Err(self.corrupt(format!("frame length {len} exceeds cap {FRAME_CAP}")));
        }
        let mut h = Fnv1a::new();
        h.write(&self.frame.to_le_bytes());
        let mut sum = [0u8; 8];
        if len == 0 {
            self.raw_exact(&mut sum, "terminator checksum")?;
            if u64::from_le_bytes(sum) != h.finish() {
                return Err(self.corrupt("terminator checksum mismatch"));
            }
            self.done = true;
            return Ok(false);
        }
        self.buf.resize(len, 0);
        self.pos = 0;
        let mut payload = std::mem::take(&mut self.buf);
        let res = self.raw_exact(&mut payload, "frame payload");
        self.buf = payload;
        res?;
        h.write(&self.buf);
        self.raw_exact(&mut sum, "frame checksum")?;
        if u64::from_le_bytes(sum) != h.finish() {
            return Err(self.corrupt("frame checksum mismatch"));
        }
        self.frame += 1;
        Ok(true)
    }

    /// Next payload byte, or `None` at the clean end of the stream.
    fn try_u8(&mut self) -> Result<Option<u8>> {
        while self.pos == self.buf.len() {
            if !self.refill()? {
                return Ok(None);
            }
        }
        let b = self.buf[self.pos];
        self.pos += 1;
        Ok(Some(b))
    }

    fn u8(&mut self) -> Result<u8> {
        self.try_u8()?
            .ok_or_else(|| self.corrupt("stream ends inside a value"))
    }

    fn exact(&mut self, out: &mut [u8]) -> Result<()> {
        let mut filled = 0;
        while filled < out.len() {
            if self.pos == self.buf.len() && !self.refill()? {
                return Err(self.corrupt("stream ends inside a value"));
            }
            let n = (out.len() - filled).min(self.buf.len() - self.pos);
            out[filled..filled + n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
            self.pos += n;
            filled += n;
        }
        Ok(())
    }
}

/// Sequential writer for a spill run.
pub struct SpillWriter {
    w: FrameWriter,
    path: PathBuf,
    arity: usize,
    dict: FastMap<Symbol, u64>,
    rows: u64,
}

impl SpillWriter {
    /// Create a spill run at `path` (real filesystem) for tuples of
    /// `arity` columns.
    pub fn create(path: PathBuf, arity: usize) -> Result<SpillWriter> {
        SpillWriter::create_on(&RealFs, path, arity)
    }

    /// [`SpillWriter::create`] on an explicit [`Vfs`] backend.
    pub fn create_on(vfs: &dyn Vfs, path: PathBuf, arity: usize) -> Result<SpillWriter> {
        let mut w = FrameWriter::create(vfs, &path, RUN_MAGIC)?;
        w.put_varint(arity as u64)?;
        Ok(SpillWriter {
            w,
            path,
            arity,
            dict: FastMap::default(),
            rows: 0,
        })
    }

    /// The path being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one tuple.
    ///
    /// # Panics
    /// Debug-asserts the tuple's arity matches the file's.
    pub fn write_tuple(&mut self, t: &Tuple) -> Result<()> {
        debug_assert_eq!(t.arity(), self.arity, "spill arity mismatch");
        for &v in t.values() {
            encode_value(&mut self.w, &mut self.dict, v)?;
        }
        self.rows += 1;
        Ok(())
    }

    /// Flush and close, returning the file handle.
    pub fn finish(self) -> Result<SpillFile> {
        let bytes = self.w.finish(false)?;
        Ok(SpillFile {
            path: self.path,
            rows: self.rows,
            bytes,
        })
    }
}

/// Encode one value with the per-file dictionary.
fn encode_value(w: &mut FrameWriter, dict: &mut FastMap<Symbol, u64>, v: Value) -> Result<()> {
    match v {
        Value::Int(i) => {
            w.put(&[TAG_INT])?;
            w.put_varint(zigzag(i))
        }
        Value::Sym(s) => match dict.get(&s) {
            Some(&id) => {
                w.put(&[TAG_SYM_REF])?;
                w.put_varint(id)
            }
            None => {
                let id = dict.len() as u64;
                dict.insert(s, id);
                w.put(&[TAG_SYM_DEF])?;
                w.put_str(s.as_str())
            }
        },
    }
}

/// Sequential reader over a spill run. Frames are verified as they are
/// crossed; a checksum mismatch or torn tail surfaces as
/// [`StorageError::Corruption`] from whichever read touches it.
pub struct SpillReader {
    r: FrameReader,
    arity: usize,
    dict: Vec<Symbol>,
}

impl SpillReader {
    /// Open a spill run (real filesystem), validating the header.
    pub fn open(path: &Path) -> Result<SpillReader> {
        SpillReader::open_on(&RealFs, path)
    }

    /// [`SpillReader::open`] on an explicit [`Vfs`] backend.
    pub fn open_on(vfs: &dyn Vfs, path: &Path) -> Result<SpillReader> {
        let mut r = FrameReader::open(vfs, path, RUN_MAGIC)?;
        let arity = read_varint(&mut r)? as usize;
        Ok(SpillReader {
            r,
            arity,
            dict: Vec::new(),
        })
    }

    /// Column count of the run's tuples.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Read the next tuple, or `None` at end of file.
    pub fn next_tuple(&mut self) -> Result<Option<Tuple>> {
        let Some(tag) = self.r.try_u8()? else {
            return Ok(None);
        };
        let mut values = Vec::with_capacity(self.arity);
        values.push(read_value(&mut self.r, tag, &mut self.dict)?);
        for _ in 1..self.arity {
            let tag = self.r.u8()?;
            values.push(read_value(&mut self.r, tag, &mut self.dict)?);
        }
        Ok(Some(Tuple::from(values)))
    }
}

/// Write `rel` as a crash-safe snapshot at `path` (schema + tuples,
/// framed + checksummed, fsynced). Returns the encoded size.
pub fn write_relation(path: &Path, rel: &Relation) -> Result<u64> {
    write_relation_on(&RealFs, path, rel)
}

/// [`write_relation`] on an explicit [`Vfs`] backend.
pub fn write_relation_on(vfs: &dyn Vfs, path: &Path, rel: &Relation) -> Result<u64> {
    let mut w = FrameWriter::create(vfs, path, REL_MAGIC)?;
    w.put_str(rel.name())?;
    w.put_varint(rel.schema().arity() as u64)?;
    for col in rel.schema().columns() {
        w.put_str(col)?;
    }
    w.put_varint(rel.len() as u64)?;
    let mut dict: FastMap<Symbol, u64> = FastMap::default();
    for t in rel.iter() {
        for &v in t.values() {
            encode_value(&mut w, &mut dict, v)?;
        }
    }
    w.finish(true)
}

/// Load a relation snapshot written by [`write_relation`], re-interning
/// every dictionary string into this process's interner.
pub fn read_relation(path: &Path) -> Result<Relation> {
    read_relation_on(&RealFs, path)
}

/// [`read_relation`] on an explicit [`Vfs`] backend.
pub fn read_relation_on(vfs: &dyn Vfs, path: &Path) -> Result<Relation> {
    let mut r = FrameReader::open(vfs, path, REL_MAGIC)?;
    let name = read_str(&mut r)?;
    let arity = read_varint(&mut r)? as usize;
    let mut columns = Vec::with_capacity(arity);
    for _ in 0..arity {
        columns.push(read_str(&mut r)?);
    }
    let rows = read_varint(&mut r)? as usize;
    let mut dict: Vec<Symbol> = Vec::new();
    let mut tuples = Vec::with_capacity(rows.min(1 << 20));
    for _ in 0..rows {
        let mut values = Vec::with_capacity(arity);
        for _ in 0..arity {
            let tag = r.u8()?;
            values.push(read_value(&mut r, tag, &mut dict)?);
        }
        tuples.push(Tuple::from(values));
    }
    // Drain to the terminator: a snapshot that keeps going after its
    // declared rows, or ends without its terminator, is corrupt.
    if r.try_u8()?.is_some() {
        return Err(r.corrupt("trailing data after final tuple"));
    }
    Ok(Relation::from_tuples(
        Schema::from_columns(name, columns),
        tuples,
    ))
}

/// Incremental FNV-1a hasher. Unlike [`crate::FastHasher`], its output
/// is specified byte-for-byte, so fingerprints written to a journal in
/// one process validate in another. It is also the frame checksum:
/// multiplication by an odd prime is a bijection mod 2^64, so any
/// single-byte change alters the digest — a flipped bit can never slip
/// through unnoticed.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Fresh hasher.
    pub fn new() -> Fnv1a {
        Fnv1a::default()
    }

    /// Absorb bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorb one value, stably across processes (symbols hash by their
    /// string content, never their intern id).
    pub fn write_value(&mut self, v: Value) {
        match v {
            Value::Int(i) => {
                self.write(&[TAG_INT]);
                self.write(&i.to_le_bytes());
            }
            Value::Sym(s) => {
                let bytes = s.as_str().as_bytes();
                self.write(&[TAG_SYM_DEF]);
                self.write(&(bytes.len() as u64).to_le_bytes());
                self.write(bytes);
            }
        }
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn encode_varint(mut v: u64, buf: &mut [u8; 10]) -> usize {
    let mut i = 0;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf[i] = byte;
            return i + 1;
        }
        buf[i] = byte | 0x80;
        i += 1;
    }
}

fn read_varint(r: &mut FrameReader) -> Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = r.u8()?;
        if shift >= 64 {
            return Err(StorageError::Malformed {
                detail: "varint overflows 64 bits".to_string(),
            });
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn read_value(r: &mut FrameReader, tag: u8, dict: &mut Vec<Symbol>) -> Result<Value> {
    match tag {
        TAG_INT => Ok(Value::Int(unzigzag(read_varint(r)?))),
        TAG_SYM_REF => {
            let id = read_varint(r)? as usize;
            dict.get(id)
                .copied()
                .map(Value::Sym)
                .ok_or_else(|| StorageError::Malformed {
                    detail: format!("spill file references undefined dictionary id {id}"),
                })
        }
        TAG_SYM_DEF => {
            let s = read_str(r)?;
            let sym = Symbol::intern(&s);
            dict.push(sym);
            Ok(Value::Sym(sym))
        }
        other => Err(StorageError::Malformed {
            detail: format!("unknown spill value tag {other}"),
        }),
    }
}

fn read_str(r: &mut FrameReader) -> Result<String> {
    let len = read_varint(r)? as usize;
    // A corrupt length should error, not attempt a huge allocation.
    if len > 1 << 30 {
        return Err(StorageError::Malformed {
            detail: format!("string length {len} exceeds sanity bound"),
        });
    }
    let mut buf = vec![0u8; len];
    r.exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| StorageError::Malformed {
        detail: "spill string is not valid UTF-8".to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_tuples(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                Tuple::from(vec![
                    Value::int(i - 5),
                    Value::str(&format!("item{}", i % 7)),
                    Value::int(i * 1_000_003),
                ])
            })
            .collect()
    }

    #[test]
    fn run_roundtrip_with_dictionary() {
        let dir = SpillDir::create_temp().unwrap();
        let tuples = mixed_tuples(100);
        let mut w = SpillWriter::create(dir.alloc("run"), 3).unwrap();
        for t in &tuples {
            w.write_tuple(t).unwrap();
        }
        let file = w.finish().unwrap();
        assert_eq!(file.rows, 100);
        // 7 distinct strings: the dictionary keeps the file far smaller
        // than 100 copies of the string data.
        assert!(file.bytes < 100 * 10 + 7 * 10 + 64, "{}", file.bytes);

        let mut r = SpillReader::open(&file.path).unwrap();
        assert_eq!(r.arity(), 3);
        let mut back = Vec::new();
        while let Some(t) = r.next_tuple().unwrap() {
            back.push(t);
        }
        assert_eq!(back, tuples);
    }

    #[test]
    fn empty_run_roundtrip() {
        let dir = SpillDir::create_temp().unwrap();
        let file = SpillWriter::create(dir.alloc("run"), 2)
            .unwrap()
            .finish()
            .unwrap();
        let mut r = SpillReader::open(&file.path).unwrap();
        assert!(r.next_tuple().unwrap().is_none());
    }

    #[test]
    fn extreme_integers_roundtrip() {
        let dir = SpillDir::create_temp().unwrap();
        let tuples = vec![
            Tuple::from([Value::int(i64::MIN)]),
            Tuple::from([Value::int(-1)]),
            Tuple::from([Value::int(0)]),
            Tuple::from([Value::int(i64::MAX)]),
        ];
        let mut w = SpillWriter::create(dir.alloc("run"), 1).unwrap();
        for t in &tuples {
            w.write_tuple(t).unwrap();
        }
        let file = w.finish().unwrap();
        let mut r = SpillReader::open(&file.path).unwrap();
        for t in &tuples {
            assert_eq!(r.next_tuple().unwrap().as_ref(), Some(t));
        }
    }

    #[test]
    fn multi_frame_run_roundtrip() {
        // Enough data to cross several FRAME_CAP boundaries.
        let dir = SpillDir::create_temp().unwrap();
        let tuples: Vec<Tuple> = (0..30_000i64)
            .map(|i| Tuple::from(vec![Value::int(i), Value::int(i * 7)]))
            .collect();
        let mut w = SpillWriter::create(dir.alloc("run"), 2).unwrap();
        for t in &tuples {
            w.write_tuple(t).unwrap();
        }
        let file = w.finish().unwrap();
        assert!(file.bytes as usize > 2 * FRAME_CAP, "{}", file.bytes);
        let mut r = SpillReader::open(&file.path).unwrap();
        let mut n = 0usize;
        while let Some(t) = r.next_tuple().unwrap() {
            assert_eq!(t, tuples[n]);
            n += 1;
        }
        assert_eq!(n, tuples.len());
    }

    #[test]
    fn relation_snapshot_roundtrip() {
        let dir = SpillDir::create_temp().unwrap();
        let rel = Relation::from_tuples(
            Schema::new("ok_s", &["s", "support"]),
            (0..50)
                .map(|i| Tuple::from(vec![Value::str(&format!("sym{i}")), Value::int(i)]))
                .collect(),
        );
        let path = dir.alloc("snap");
        write_relation(&path, &rel).unwrap();
        let back = read_relation(&path).unwrap();
        assert_eq!(back, rel);
        assert_eq!(back.name(), "ok_s");
        assert_eq!(back.content_hash(), rel.content_hash());
    }

    #[test]
    fn empty_relation_snapshot_roundtrip() {
        let dir = SpillDir::create_temp().unwrap();
        let rel = Relation::empty(Schema::new("nothing", &["x"]));
        let path = dir.alloc("snap");
        write_relation(&path, &rel).unwrap();
        assert_eq!(read_relation(&path).unwrap(), rel);
    }

    #[test]
    fn bad_magic_rejected() {
        let dir = SpillDir::create_temp().unwrap();
        let path = dir.alloc("junk");
        std::fs::write(&path, b"not a spill file").unwrap();
        assert!(matches!(
            SpillReader::open(&path),
            Err(StorageError::Corruption { .. })
        ));
        assert!(matches!(
            read_relation(&path),
            Err(StorageError::Corruption { .. })
        ));
    }

    #[test]
    fn truncated_snapshot_rejected() {
        let dir = SpillDir::create_temp().unwrap();
        let rel = Relation::from_tuples(
            Schema::new("r", &["a"]),
            (0..20).map(|i| Tuple::from([Value::int(i)])).collect(),
        );
        let path = dir.alloc("snap");
        write_relation(&path, &rel).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(
            read_relation(&path),
            Err(StorageError::Corruption { .. })
        ));
    }

    /// A file truncated exactly at a frame boundary loses its
    /// terminator and MUST be detected — a silently shorter relation
    /// would be a wrong answer.
    #[test]
    fn truncation_at_frame_boundary_rejected() {
        let dir = SpillDir::create_temp().unwrap();
        let mut w = SpillWriter::create(dir.alloc("run"), 1).unwrap();
        for i in 0..100 {
            w.write_tuple(&Tuple::from([Value::int(i)])).unwrap();
        }
        let file = w.finish().unwrap();
        let bytes = std::fs::read(&file.path).unwrap();
        // Drop exactly the 9-byte terminator: the remaining file is a
        // perfectly valid sequence of verified frames, just unfinished.
        std::fs::write(&file.path, &bytes[..bytes.len() - 9]).unwrap();
        let mut r = SpillReader::open(&file.path).unwrap();
        let err = loop {
            match r.next_tuple() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("torn run served as complete"),
                Err(e) => break e,
            }
        };
        assert!(err.is_corruption(), "{err}");
    }

    /// Acceptance criterion: flipping ANY single byte of a spill run is
    /// detected as `Corruption` — no silent wrong answers.
    #[test]
    fn every_single_byte_flip_in_a_run_is_detected() {
        let dir = SpillDir::create_temp().unwrap();
        let tuples = mixed_tuples(40);
        let mut w = SpillWriter::create(dir.alloc("run"), 3).unwrap();
        for t in &tuples {
            w.write_tuple(t).unwrap();
        }
        let file = w.finish().unwrap();
        let pristine = std::fs::read(&file.path).unwrap();
        let victim = dir.alloc("flipped");
        for i in 0..pristine.len() {
            let mut corrupt = pristine.clone();
            corrupt[i] ^= 0x40;
            std::fs::write(&victim, &corrupt).unwrap();
            let outcome = SpillReader::open(&victim).and_then(|mut r| {
                while r.next_tuple()?.is_some() {}
                Ok(())
            });
            match outcome {
                Err(e) if e.is_corruption() => {}
                other => panic!("flip at byte {i}/{} escaped: {other:?}", pristine.len()),
            }
        }
    }

    /// Same property for relation snapshots (journal payloads).
    #[test]
    fn every_single_byte_flip_in_a_snapshot_is_detected() {
        let dir = SpillDir::create_temp().unwrap();
        let rel = Relation::from_tuples(
            Schema::new("snap", &["s", "n"]),
            (0..30)
                .map(|i| Tuple::from(vec![Value::str(&format!("v{}", i % 5)), Value::int(i)]))
                .collect(),
        );
        let path = dir.alloc("snap");
        write_relation(&path, &rel).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let victim = dir.alloc("flipped");
        for i in 0..pristine.len() {
            let mut corrupt = pristine.clone();
            corrupt[i] ^= 0x01;
            std::fs::write(&victim, &corrupt).unwrap();
            match read_relation(&victim) {
                Err(e) if e.is_corruption() => {}
                other => panic!("flip at byte {i}/{} escaped: {other:?}", pristine.len()),
            }
        }
    }

    #[test]
    fn content_hash_is_content_sensitive() {
        let rel = |rows: &[(i64, &str)]| {
            Relation::from_tuples(
                Schema::new("r", &["n", "s"]),
                rows.iter()
                    .map(|&(n, s)| Tuple::from(vec![Value::int(n), Value::str(s)]))
                    .collect(),
            )
        };
        let a = rel(&[(1, "x"), (2, "y")]);
        let b = rel(&[(1, "x"), (2, "z")]);
        let c = rel(&[(1, "x")]);
        assert_ne!(a.content_hash(), b.content_hash());
        assert_ne!(a.content_hash(), c.content_hash());
        // Renaming the relation does not change the hash; renaming a
        // column does. Both sides are built fresh, so neither reads the
        // other's memo.
        let named = |name, cols: &[&str]| {
            Relation::from_tuples(Schema::new(name, cols), a.tuples().to_vec())
        };
        assert_eq!(named("other", &["n", "s"]).content_hash(), a.content_hash());
        assert_ne!(named("r", &["m", "s"]).content_hash(), a.content_hash());
    }

    #[test]
    fn spill_dir_cleans_up_on_drop() {
        let dir = SpillDir::create_temp().unwrap();
        let root = dir.path().to_path_buf();
        let mut w = SpillWriter::create(dir.alloc("run"), 1).unwrap();
        w.write_tuple(&Tuple::from([Value::int(1)])).unwrap();
        w.finish().unwrap();
        assert!(root.exists());
        drop(dir);
        assert!(!root.exists());
    }

    #[test]
    fn alloc_paths_are_unique() {
        let dir = SpillDir::create_temp().unwrap();
        let a = dir.alloc("x");
        let b = dir.alloc("x");
        assert_ne!(a, b);
    }

    #[test]
    fn dir_writer_reader_and_remove_track_live_files() {
        let dir = SpillDir::create_temp().unwrap();
        assert_eq!(dir.live_files(), 0);
        let mut w = dir.writer("run", 1).unwrap();
        w.write_tuple(&Tuple::from([Value::int(7)])).unwrap();
        let file = w.finish().unwrap();
        assert_eq!(dir.live_files(), 1);
        let mut r = dir.reader(&file.path).unwrap();
        assert_eq!(r.next_tuple().unwrap(), Some(Tuple::from([Value::int(7)])));
        drop(r);
        dir.remove(&file.path).unwrap();
        assert_eq!(dir.live_files(), 0);
        // Removing a never-born path is not an error (retry discards).
        dir.remove(&dir.alloc("ghost")).unwrap();
    }

    #[test]
    fn chaos_bit_flip_on_write_is_caught_on_read() {
        use crate::vfs::{ChaosFs, Fault, OpClass};
        let chaos = Arc::new(ChaosFs::quiet().with_fault(OpClass::Write, 2, Fault::BitFlip));
        let dir = SpillDir::create_on(chaos.clone(), &std::env::temp_dir()).unwrap();
        let mut w = dir.writer("run", 1).unwrap();
        for i in 0..50 {
            w.write_tuple(&Tuple::from([Value::int(i)])).unwrap();
        }
        let file = w.finish().unwrap(); // writer believes it succeeded
        assert!(chaos.injected() >= 1);
        // The flip may surface at open (header frame) or mid-read.
        let err = match dir.reader(&file.path) {
            Err(e) => e,
            Ok(mut r) => loop {
                match r.next_tuple() {
                    Ok(Some(_)) => {}
                    Ok(None) => panic!("flipped bit served as valid data"),
                    Err(e) => break e,
                }
            },
        };
        assert!(err.is_corruption(), "{err}");
    }

    #[test]
    fn chaos_torn_write_is_caught_on_read() {
        use crate::vfs::{ChaosFs, Fault, OpClass};
        let chaos = Arc::new(ChaosFs::quiet().with_fault(OpClass::Write, 3, Fault::TornWrite));
        let dir = SpillDir::create_on(chaos.clone(), &std::env::temp_dir()).unwrap();
        let rel = Relation::from_tuples(
            Schema::new("r", &["x"]),
            (0..200).map(|i| Tuple::from([Value::int(i)])).collect(),
        );
        let path = dir.alloc("snap");
        // The torn write lies all the way through fsync.
        write_relation_on(&**dir.vfs(), &path, &rel).unwrap();
        let err = read_relation(&path).unwrap_err();
        assert!(err.is_corruption(), "{err}");
    }
}
