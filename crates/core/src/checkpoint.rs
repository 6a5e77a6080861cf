//! Durable checkpoints: a versioned, endian-stable on-disk snapshot of a
//! factorization in flight.
//!
//! A checkpoint is *complete*: the assembled global factors, the
//! [`ConvergenceState`], and the full run configuration (shape, grid,
//! algorithm, solver, seed, policy). Because the engine's iterate
//! trajectory is a pure function of the factors (no hidden solver or
//! workspace state carries information between iterations — the property
//! pinned down by `tests/checkpoint_resume.rs`), a run resumed from a
//! checkpoint continues the **bit-identical** trajectory of the
//! uninterrupted run, on any machine with the same float semantics.
//!
//! ## Format (version 3)
//!
//! All multi-byte values are **little-endian**; floats are IEEE-754
//! `f64` bit patterns (so `NaN`/`±inf` round-trip exactly) — the
//! [`crate::wire`] vocabulary, shared with the serve protocol. The
//! header's records are each declared **once**, as the field lists
//! below ([`CheckpointMeta`], [`ConvergenceState`]), and every byte of a
//! file is read through the one bounded [`Reader`], so a length or
//! extent field cannot send the decoder past the bytes actually
//! present. See `docs/checkpoint-format.md` for the byte-level layout.
//! In outline:
//!
//! ```text
//! magic "NMFCKPT\0" | version u32 | header_len u64
//!   | header: meta | fingerprint u64 | convergence state | nblocks u64
//!             | (nr, nc) of every W block, then every Hᵀ block
//!   | header_sum u64
//!   | payload: per block, nr·nc f64s then block_sum u64
//! ```
//!
//! The factors are stored as **per-rank blocks** in the exact layout
//! [`ShardKey::layout`] assigns the run. The decoded [`Checkpoint`]
//! presents assembled factors: each block is decoded straight into its
//! rows of the assembled `W` or `Hᵀ`, which is what lets a checkpoint
//! taken on one grid resume on another ([`crate::regrid`],
//! `docs/elasticity.md`). One version in, one out: a file of any other
//! version (including version 2, which guarded the whole file with one
//! byte-serial hash) is [`NmfError::UnsupportedVersion`].
//!
//! Integrity fields:
//!
//! * `header_sum` and each `block_sum` are [`wire::checksum`]s, a
//!   four-lane word-wise sum that always detects a change confined to
//!   one word. [`inspect_checkpoint`] reads and verifies the header
//!   only; [`read_checkpoint`] verifies every block as it decodes it,
//!   and names the block that fails;
//! * the **config fingerprint** (FNV-1a over the serialized meta block)
//!   is also exposed via [`CheckpointMeta::fingerprint`] so callers can
//!   cheaply compare a checkpoint's configuration against a fresh one
//!   (e.g. `nmf_cli --resume` rejecting contradictory flags).
//!
//! Writes stream the blocks from the assembled factors through a
//! buffered sibling temp file, `fsync` it, rename it into place and
//! `fsync` the directory, so a crash mid-write leaves the previous
//! checkpoint intact rather than a torn file, and a crash after the
//! write returns cannot lose the new name.

use crate::config::{Algo, ConvergencePolicy, NmfConfig};
use crate::dist::{Part, ShardKey};
use crate::engine::ConvergenceState;
use crate::error::NmfError;
use crate::grid::Grid;
use crate::wire::{self, Reader, Wire};
use crate::{choice, record};
use nmf_matrix::Mat;
use nmf_nls::SolverKind;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// File magic: identifies the format before any parsing.
const MAGIC: &[u8; 8] = b"NMFCKPT\0";
/// The format version this build writes, and the only one it reads.
pub const FORMAT_VERSION: u32 = 3;
/// Magic, version word and `header_len`: what precedes the header.
const PREFIX_LEN: usize = MAGIC.len() + 4 + 8;
/// Payload bytes read at a time: a load never holds an image of the file.
const CHUNK: usize = 256 << 10;

/// Everything about the run a checkpoint captures besides the factors
/// and convergence state: the problem shape and the full configuration
/// needed to rebuild an identical session.
#[derive(Clone, Debug)]
pub struct CheckpointMeta {
    /// Global input shape the factors belong to.
    pub m: usize,
    pub n: usize,
    /// Virtual ranks of the run.
    pub ranks: usize,
    /// The algorithm as requested (grid captured separately).
    pub algo: Algo,
    /// The processor grid actually used.
    pub grid: Grid,
    /// The full run configuration (k, solver, seed, policy, ...).
    pub config: NmfConfig,
}

/// The assembled factors a file's blocks are cut from, by index.
const FACTORS: [&str; 2] = ["W", "H^T"];

impl CheckpointMeta {
    /// The file's blocks in order as `(factor, rank, rows)` — every
    /// rank's rows of `W`, then every rank's rows of `Hᵀ` — as the
    /// recorded run owns them. Lazy, so a header's rank count sizes
    /// nothing.
    fn blocks(&self) -> impl Iterator<Item = (usize, usize, Part)> + '_ {
        let key = ShardKey::of(self.algo, self.grid, self.ranks);
        let lay = move |r| key.layout(self.m, self.n, r);
        let ranks = 0..self.ranks;
        (ranks.clone().map(move |r| (0, r, lay(r).w))).chain(ranks.map(move |r| (1, r, lay(r).ht)))
    }

    /// FNV-1a fingerprint of the serialized configuration — equal iff
    /// two checkpoints describe the same problem and run configuration.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(&wire::encode(self))
    }

    /// The **relaxed** compatibility check of the regrid/elasticity
    /// contract (`docs/elasticity.md`): a checkpoint's factors can seed
    /// a session on *any* grid, scheme, or rank count, but only against
    /// the same data matrix — so only the input shape is pinned here.
    /// (`k` is carried in the checkpoint's own config and is immutable
    /// across a resume; the strict whole-config check remains
    /// [`fingerprint`](Self::fingerprint) equality.)
    pub fn check_compatible(&self, m: usize, n: usize) -> Result<(), NmfError> {
        if self.m != m {
            return Err(NmfError::CheckpointMismatch {
                field: "m (input rows)",
                expected: m,
                found: self.m,
            });
        }
        if self.n != n {
            return Err(NmfError::CheckpointMismatch {
                field: "n (input columns)",
                expected: n,
                found: self.n,
            });
        }
        Ok(())
    }
}

// The meta block (what the fingerprint covers). The header stores
// the two enum tags 32 bits wide, and always the grid actually used,
// whichever variant asked for it.
record!(CheckpointMeta as meta => {
    m: usize = meta.m,
    n: usize = meta.n,
    ranks: usize = meta.ranks,
    algo: u32 = u32::from(meta.algo.tag()),
    grid: Grid = match meta.algo { Algo::HpcGrid(g) => g, _ => meta.grid },
    k: usize = meta.config.k,
    max_iters: usize = meta.config.max_iters,
    solver: u32 = u32::from(meta.config.solver.tag()),
    seed: u64 = meta.config.seed,
    l2_w: f64 = meta.config.l2_w,
    l2_h: f64 = meta.config.l2_h,
    tol: Option<f64> = meta.config.tol,
    convergence: StoredPolicy = StoredPolicy(meta.config.convergence),
} => {
    let narrow = |tag: u32, what: &str| {
        u8::try_from(tag).map_err(|_| format!("unknown {what} tag {tag}"))
    };
    let algo = Algo::from_tag(narrow(algo, "algorithm")?, grid.pr, grid.pc)?;
    let solver = SolverKind::from_tag(narrow(solver, "solver")?)
        .ok_or_else(|| format!("unknown solver tag {solver}"))?;
    // The factor section is sliced by this triple: refuse one that does
    // not describe a grid of `ranks` ranks before anything is sized by it.
    let fits = match algo {
        Algo::Sequential => (ranks, grid.pr, grid.pc) == (1, 1, 1),
        Algo::Naive => ranks >= 1,
        _ => grid.pr.checked_mul(grid.pc) == Some(ranks),
    };
    if !fits {
        return Err(format!(
            "{} on {ranks} ranks contradicts grid {}x{}",
            algo.name(),
            grid.pr,
            grid.pc
        ));
    }
    let config = NmfConfig {
        k,
        max_iters,
        tol,
        convergence: convergence.0,
        solver,
        seed,
        l2_w,
        l2_h,
    };
    Ok(CheckpointMeta { m, n, ranks, algo, grid, config })
});

record!(Grid as g => { pr: usize = g.pr, pc: usize = g.pc } => {
    if pr == 0 || pc == 0 {
        Err(format!("invalid grid {pr}x{pc}"))
    } else {
        Ok(Grid::new(pr, pc))
    }
});

choice!(ConvergencePolicy: u8, "policy" {
    1 => MaxIters,
    2 => RelTol { tol },
    3 => WindowedBudget { window, tol, budget },
});

/// `config.convergence` as stored: one tag byte flattens the `Option`
/// and the enum — `0` is `None`, anything else is the policy's own tag.
struct StoredPolicy(Option<ConvergencePolicy>);

impl Wire for StoredPolicy {
    fn put(&self, out: &mut Vec<u8>) {
        match &self.0 {
            None => out.push(0),
            Some(policy) => policy.put(out),
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, wire::Error> {
        let mut probe = r.clone();
        if u8::get(&mut probe)? == 0 {
            *r = probe;
            return Ok(StoredPolicy(None));
        }
        ConvergencePolicy::get(r).map(|policy| StoredPolicy(Some(policy)))
    }
}

// Elapsed time and the policy's budget: whole nanoseconds as `u64`
// (saturating: 584 years).
record!(Duration as d => { nanos: u64 = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX) } => {
    Ok(Duration::from_nanos(nanos))
});

// Follows the fingerprint; the history's length is bounded by the bytes
// present like any other `f64` array.
record!(ConvergenceState {
    prev_objective,
    first_objective,
    iterations_done,
    objective_history,
    elapsed,
});

/// A parsed checkpoint: metadata, convergence state, and the assembled
/// global factors (`w` is `m×k`; `ht` is `n×k`, `H` transposed).
#[derive(Clone, Debug)]
pub struct Checkpoint {
    pub meta: CheckpointMeta,
    pub state: ConvergenceState,
    pub w: Mat,
    pub ht: Mat,
}

/// Serializes and writes a checkpoint to `path`, atomically and
/// durably (temp file, `fsync`, rename in the destination directory,
/// `fsync` of the directory). The blocks stream from `ck`'s factors; no
/// image of the file is built.
pub fn write_checkpoint(path: &Path, ck: &Checkpoint) -> Result<(), NmfError> {
    let tmp = tmp_sibling(path);
    let write = || -> std::io::Result<()> {
        let mut out = BufWriter::with_capacity(1 << 20, File::create(&tmp)?);
        encode(ck, &mut out)?;
        let f = out.into_inner().map_err(|e| e.into_error())?;
        f.sync_all()?;
        drop(f);
        rename_durably(&tmp, path)
    };
    write().map_err(|source| NmfError::Io {
        path: path.to_path_buf(),
        source,
    })
}

/// [`write_checkpoint`] with rotation: before the new file lands at
/// `path`, existing generations shift one slot down the chain
/// `path → path.1 → path.2 → … → path.keep` (the oldest falls off), so
/// the last `keep` superseded checkpoints stay recoverable — insurance
/// against a run that goes numerically bad *between* checkpoints, where
/// overwrite-in-place would have destroyed the only good state.
///
/// Every shift is a same-directory rename, made durable like the final
/// write's, and the final write is the usual temp-file + rename, so each
/// generation is atomically either its old content or its new one;
/// `keep == 0` is plain [`write_checkpoint`].
pub fn write_checkpoint_rotated(path: &Path, ck: &Checkpoint, keep: usize) -> Result<(), NmfError> {
    let io = |p: &Path| {
        let p = p.to_path_buf();
        move |source| NmfError::Io { path: p, source }
    };
    if keep > 0 && path.exists() {
        for i in (1..=keep).rev() {
            let from = if i == 1 {
                path.to_path_buf()
            } else {
                rotated_name(path, i - 1)
            };
            if from.exists() {
                let to = rotated_name(path, i);
                rename_durably(&from, &to).map_err(io(&from))?;
            }
        }
    }
    write_checkpoint(path, ck)
}

/// Renames `from` to `to` (same directory) and `fsync`s that directory,
/// so the new name survives a crash once this returns.
fn rename_durably(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::rename(from, to)?;
    let dir = match to.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// `path` with a rotation generation suffix: `run.ckpt` → `run.ckpt.3`.
fn rotated_name(path: &Path, generation: usize) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".{generation}"));
    path.with_file_name(name)
}

/// Everything `inspect_checkpoint` learns from a checkpoint's header
/// without reading the payload.
#[derive(Clone, Debug)]
pub struct CheckpointSummary {
    /// Format version of the file.
    pub version: u32,
    /// The full recorded metadata (shape, grid, algorithm, config).
    pub meta: CheckpointMeta,
    /// The config fingerprint stored in the file (verified against the
    /// meta block it covers).
    pub fingerprint: u64,
    /// Iterations completed when the checkpoint was taken.
    pub iterations_done: usize,
    /// Objective at the checkpoint.
    pub objective: f64,
    /// Wall-clock time recorded by the run so far.
    pub elapsed: Duration,
    /// Assembled shapes of the stored factors (`W`, then `Hᵀ`), from
    /// the header's block table. (The file stores per-rank blocks;
    /// these are their totals.)
    pub w_shape: (usize, usize),
    pub ht_shape: (usize, usize),
    /// Per-rank factor blocks in the file (the rank count); the payload
    /// holds this many `W` blocks and as many `Hᵀ` blocks.
    pub factor_blocks: usize,
    /// Total file size in bytes.
    pub file_bytes: usize,
}

/// Reads a checkpoint's versioned header — shape, rank `k`, algorithm,
/// grid, fingerprint, iteration count, block table — **and nothing
/// else**: 20 bytes, then `header_len + 8`, however large the payload.
/// The header's checksum is verified, so a damaged header is an error;
/// the payload's blocks are verified by [`read_checkpoint`], which names
/// the block that fails.
pub fn inspect_checkpoint(path: &Path) -> Result<CheckpointSummary, NmfError> {
    with_file(path, summarize)
}

/// Reads and validates a checkpoint from `path`: magic, version, header
/// checksum, config fingerprint, block table against the recorded
/// layout, payload length, and every block's checksum.
pub fn read_checkpoint(path: &Path) -> Result<Checkpoint, NmfError> {
    with_file(path, decode)
}

/// Opens the file at `path` and hands it, with its length, to `read`.
fn with_file<T>(
    path: &Path,
    read: impl FnOnce(&mut File, u64) -> Result<T, DecodeError>,
) -> Result<T, NmfError> {
    let open = || {
        let mut f = File::open(path)?;
        let len = f.metadata()?.len();
        read(&mut f, len)
    };
    open().map_err(|e: DecodeError| e.at(path))
}

fn summarize(src: &mut impl Read, file_bytes: u64) -> Result<CheckpointSummary, DecodeError> {
    let (header, _) = read_head(src, file_bytes)?;
    let [w_shape, ht_shape] = header.shapes;
    Ok(CheckpointSummary {
        version: FORMAT_VERSION,
        fingerprint: header.fingerprint,
        iterations_done: header.state.iterations_done,
        objective: header.state.prev_objective,
        elapsed: header.state.elapsed,
        w_shape,
        ht_shape,
        factor_blocks: header.meta.ranks,
        meta: header.meta,
        file_bytes: file_bytes as usize,
    })
}

/// Writes the prefix, the header and its sum, then every block straight
/// from the assembled factors, each followed by its sum.
fn encode(ck: &Checkpoint, out: &mut impl Write) -> std::io::Result<()> {
    let (m, n, k) = (ck.meta.m, ck.meta.n, ck.meta.config.k);
    debug_assert_eq!((ck.w.shape(), ck.ht.shape()), ((m, k), (n, k)));
    let mut header = wire::encode(&ck.meta);
    fnv1a(&header).put(&mut header);
    ck.state.put(&mut header);
    ck.meta.ranks.put(&mut header);
    for (_, _, rows) in ck.meta.blocks() {
        let nr = rows.len;
        Extent { nr, nc: k }.put(&mut header);
    }
    let mut head = Vec::with_capacity(PREFIX_LEN + header.len() + 8);
    head.extend_from_slice(MAGIC);
    FORMAT_VERSION.put(&mut head);
    header.len().put(&mut head);
    head.extend_from_slice(&header);
    wire::checksum(&header).put(&mut head);
    out.write_all(&head)?;

    // Slicing here and decoding in place on read are both plain row
    // copies at the same offsets, so the round trip is bit-exact.
    for (f, _, rows) in ck.meta.blocks() {
        let mat = [&ck.w, &ck.ht][f];
        let sum = wire::write_f64s(out, &mat.as_slice()[rows.offset * k..rows.end() * k])?;
        out.write_all(&wire::encode(&sum))?;
    }
    Ok(())
}

enum DecodeError {
    Io(std::io::Error),
    Corrupt(String),
    Version(u32),
    Fingerprint {
        expected: u64,
        found: u64,
    },
    Shape {
        field: &'static str,
        expected: usize,
        found: usize,
    },
}

impl From<std::io::Error> for DecodeError {
    fn from(e: std::io::Error) -> Self {
        DecodeError::Io(e)
    }
}

impl From<wire::Error> for DecodeError {
    fn from(e: wire::Error) -> Self {
        DecodeError::Corrupt(e.to_string())
    }
}

impl DecodeError {
    /// The caller-facing error for a failure decoding the file at `path`.
    fn at(self, path: &Path) -> NmfError {
        let path = path.to_path_buf();
        match self {
            DecodeError::Io(source) => NmfError::Io { path, source },
            DecodeError::Corrupt(reason) => NmfError::Corrupt { path, reason },
            DecodeError::Version(found) => NmfError::UnsupportedVersion {
                path,
                found,
                supported: FORMAT_VERSION,
            },
            DecodeError::Fingerprint { expected, found } => {
                NmfError::FingerprintMismatch { expected, found }
            }
            DecodeError::Shape {
                field,
                expected,
                found,
            } => NmfError::CheckpointMismatch {
                field,
                expected,
                found,
            },
        }
    }
}

/// Magic and version, checked, then `header_len`.
fn read_prefix(r: &mut Reader<'_>) -> Result<usize, DecodeError> {
    if r.take(MAGIC.len())? != MAGIC {
        return Err(DecodeError::Corrupt(
            "bad magic (not an NMF checkpoint)".to_string(),
        ));
    }
    // Before any checksum, so another version is named, not "corrupt".
    let version = u32::get(r)?;
    if version != FORMAT_VERSION {
        return Err(DecodeError::Version(version));
    }
    Ok(usize::get(r)?)
}

/// A verified, decoded header.
struct Header {
    meta: CheckpointMeta,
    /// The stored config fingerprint (verified against the meta block).
    fingerprint: u64,
    state: ConvergenceState,
    /// Totals of the block table: `W`'s rows and width, then `Hᵀ`'s.
    shapes: [(usize, usize); 2],
}

/// Reads and verifies the prefix, the header and `header_sum` from the
/// start of `src`, a file of `file_bytes`: 20 bytes, then
/// `header_len + 8` or what of them the file holds. Returns the header
/// and the length of the payload after it.
fn read_head(src: &mut impl Read, file_bytes: u64) -> Result<(Header, u64), DecodeError> {
    let mut head = Vec::new();
    src.by_ref()
        .take(PREFIX_LEN as u64)
        .read_to_end(&mut head)?;
    let header_len = read_prefix(&mut Reader::new(&head))?;
    let rest = (header_len as u64)
        .saturating_add(8)
        .min(file_bytes.saturating_sub(PREFIX_LEN as u64));
    head.reserve_exact(rest as usize);
    src.take(rest).read_to_end(&mut head)?;
    let mut r = Reader::new(&head[PREFIX_LEN..]);
    let header = r.take(header_len)?;
    if wire::checksum(header) != u64::get(&mut r)? {
        return Err(DecodeError::Corrupt(
            "header checksum mismatch (the header was truncated or altered)".to_string(),
        ));
    }
    let payload = file_bytes.saturating_sub(head.len() as u64);
    Ok((decode_header(header)?, payload))
}

fn decode_header(bytes: &[u8]) -> Result<Header, DecodeError> {
    let mut r = Reader::new(bytes);
    let meta = CheckpointMeta::get(&mut r)?;
    let actual_fp = fnv1a(&bytes[..bytes.len() - r.remaining()]);
    let fingerprint = u64::get(&mut r)?;
    if fingerprint != actual_fp {
        return Err(DecodeError::Fingerprint {
            expected: actual_fp,
            found: fingerprint,
        });
    }
    let state = ConvergenceState::get(&mut r)?;
    let nblocks = usize::get(&mut r)?;
    if nblocks != meta.ranks {
        return Err(DecodeError::Shape {
            field: "factor blocks",
            expected: meta.ranks,
            found: nblocks,
        });
    }
    // The table must be the recorded layout, extent for extent; each is
    // read first, so a rank count no bytes back fails at once.
    let k = meta.config.k;
    let mut shapes = [(0, 0); 2];
    for (f, rank, rows) in meta.blocks() {
        let Extent { nr, nc } = Extent::get(&mut r)?;
        if (nr, nc) != (rows.len, k) {
            return Err(DecodeError::Corrupt(format!(
                "{} block {rank} is {nr}x{nc} in the block table; the layout gives {}x{k}",
                FACTORS[f], rows.len
            )));
        }
        let total = &mut shapes[f];
        *total = (total.0 + nr, nc);
    }
    r.finish()?;
    Ok(Header {
        meta,
        fingerprint,
        state,
        shapes,
    })
}

fn decode(src: &mut impl Read, file_bytes: u64) -> Result<Checkpoint, DecodeError> {
    let (Header { meta, state, .. }, payload) = read_head(src, file_bytes)?;
    let (m, n, k) = (meta.m, meta.n, meta.config.k);
    // The payload must be exactly the blocks the table declares, each
    // followed by its sum, before `m`, `n` or `k` size anything.
    let need = meta.blocks().try_fold(0usize, |acc, (_, _, rows)| {
        (rows.len.checked_mul(k)?.checked_add(1)?.checked_mul(8)?).checked_add(acc)
    });
    if need.map(|bytes| bytes as u64) != Some(payload) {
        return Err(DecodeError::Corrupt(format!(
            "the payload holds {payload} bytes, not the {} blocks the header declares",
            2 * meta.ranks
        )));
    }
    // Each block streams through one small buffer straight into its rows
    // of the assembled factor, and is verified in the same pass.
    let mut factors = [Mat::zeros(m, k), Mat::zeros(n, k)];
    let mut buf = vec![0; CHUNK.min(payload as usize)];
    for (f, rank, rows) in meta.blocks() {
        let mut sum = wire::Checksum::default();
        let values = &mut factors[f].as_mut_slice()[rows.offset * k..rows.end() * k];
        for page in values.chunks_mut(buf.len() / 8) {
            let bytes = &mut buf[..8 * page.len()];
            src.read_exact(bytes)?;
            Reader::new(bytes).f64s_into(page, &mut sum)?;
        }
        src.read_exact(&mut buf[..8])?;
        if sum.finish() != wire::decode::<u64>(&buf[..8])? {
            return Err(DecodeError::Corrupt(format!(
                "{} block {rank}: checksum mismatch (the payload was altered)",
                FACTORS[f]
            )));
        }
    }
    let [w, ht] = factors;
    Ok(Checkpoint { meta, state, w, ht })
}

/// A block's entry in the header's block table.
struct Extent {
    nr: usize,
    nc: usize,
}

record!(Extent { nr, nc });

/// 64-bit FNV-1a over `bytes`: the config fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A unique temp-file path next to `path` (same filesystem, so the
/// rename is atomic).
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp.{}", std::process::id()));
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmf_matrix::rng::Fill;

    fn sample() -> Checkpoint {
        Checkpoint {
            meta: CheckpointMeta {
                m: 12,
                n: 9,
                ranks: 4,
                algo: Algo::Hpc2D,
                grid: Grid::new(2, 2),
                config: NmfConfig::new(3).with_max_iters(7).with_seed(5),
            },
            state: ConvergenceState {
                prev_objective: 42.5,
                first_objective: Some(99.0),
                iterations_done: 3,
                objective_history: vec![99.0, 60.0, 42.5],
                elapsed: Duration::from_millis(1234),
            },
            w: Mat::uniform(12, 3, 1),
            ht: Mat::uniform(9, 3, 2),
        }
    }

    fn decode(bytes: &[u8]) -> Result<Checkpoint, DecodeError> {
        super::decode(&mut &bytes[..], bytes.len() as u64)
    }

    fn summarize(bytes: &[u8], file_bytes: usize) -> Result<CheckpointSummary, DecodeError> {
        super::summarize(&mut &bytes[..], file_bytes as u64)
    }

    fn bytes_of(ck: &Checkpoint) -> Vec<u8> {
        let mut out = Vec::new();
        encode(ck, &mut out).expect("a Vec takes every write");
        out
    }

    /// Where the header ends (and `header_sum` starts).
    fn header_end(bytes: &[u8]) -> usize {
        PREFIX_LEN + wire::decode::<usize>(&bytes[12..PREFIX_LEN]).expect("header_len")
    }

    /// Re-stamps `header_sum` after a deliberate header edit.
    fn restamp_header(bytes: &mut [u8]) {
        let end = header_end(bytes);
        let sum = wire::checksum(&bytes[PREFIX_LEN..end]);
        bytes[end..end + 8].copy_from_slice(&wire::encode(&sum));
    }

    #[test]
    fn encode_decode_round_trips_bit_exactly() {
        let ck = sample();
        let back = decode(&bytes_of(&ck)).ok().expect("decodes");
        assert_eq!(back.w, ck.w);
        assert_eq!(back.ht, ck.ht);
        assert_eq!(back.state, ck.state);
        assert_eq!(back.meta.m, ck.meta.m);
        assert_eq!(back.meta.config.k, ck.meta.config.k);
        assert_eq!(back.meta.fingerprint(), ck.meta.fingerprint());
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = bytes_of(&sample());
        for cut in [5, 11, 40, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "truncation at {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn flipped_payload_byte_names_its_block() {
        let mut bytes = bytes_of(&sample());
        let len = bytes.len();
        bytes[len - 16] ^= 0x40; // inside the last Hᵀ block's values
        match decode(&bytes) {
            Err(DecodeError::Corrupt(why)) => assert!(why.contains("H^T block 3"), "{why}"),
            _ => panic!("a flipped payload byte must be corrupt"),
        }
    }

    #[test]
    fn absurd_factor_extent_is_corrupt_not_a_panic() {
        // Edit the last Hᵀ entry of the block table to claim 2^61 rows
        // and re-stamp the header's sum: the contract is a *decode
        // error*, never a panic or giant allocation.
        let mut bytes = bytes_of(&sample());
        let pos = header_end(&bytes) - 16;
        assert_eq!(wire::decode::<u64>(&bytes[pos..pos + 8]), Ok(2), "Hᵀ rows");
        assert_eq!(
            wire::decode::<u64>(&bytes[pos + 8..pos + 16]),
            Ok(3),
            "cols"
        );
        bytes[pos..pos + 8].copy_from_slice(&wire::encode(&(1u64 << 61)));
        restamp_header(&mut bytes);
        assert!(matches!(decode(&bytes), Err(DecodeError::Corrupt(_))));
    }

    #[test]
    fn older_versions_are_refused_with_a_typed_error() {
        // Nothing writes versions 1 or 2 any more and nothing reads
        // them: the version word alone decides, before any checksum.
        for old in [1u32, 2] {
            let mut bytes = MAGIC.to_vec();
            old.put(&mut bytes);
            bytes.extend_from_slice(&[0; 64]);
            assert!(matches!(decode(&bytes), Err(DecodeError::Version(v)) if v == old));
            let summary = summarize(&bytes, bytes.len());
            assert!(matches!(summary, Err(DecodeError::Version(v)) if v == old));
        }
        assert!(matches!(
            DecodeError::Version(2).at(Path::new("old.ckpt")),
            NmfError::UnsupportedVersion {
                found: 2,
                supported: 3,
                ..
            }
        ));
    }

    #[test]
    fn stores_one_block_per_rank_and_reassembles_bit_exactly() {
        let ck = sample();
        let bytes = bytes_of(&ck);
        let s = summarize(&bytes, bytes.len()).ok().expect("summarizes");
        assert_eq!(s.version, FORMAT_VERSION);
        assert_eq!(s.factor_blocks, ck.meta.ranks);
        // The block table's totals are the assembled shapes...
        assert_eq!(s.w_shape, (12, 3));
        assert_eq!(s.ht_shape, (9, 3));
        // ...and the payload is exactly the 8 blocks plus their sums.
        let payload = bytes.len() - header_end(&bytes) - 8;
        assert_eq!(payload, 8 * (12 * 3 + 9 * 3) + 8 * 8);
        let back = decode(&bytes).ok().expect("decodes");
        assert_eq!(back.w, ck.w);
        assert_eq!(back.ht, ck.ht);
    }

    #[test]
    fn block_count_must_match_the_recorded_ranks() {
        let mut bytes = bytes_of(&sample());
        // `nblocks` precedes the table's 8 extents of 16 bytes.
        let pos = header_end(&bytes) - 16 * 8 - 8;
        assert_eq!(wire::decode::<u64>(&bytes[pos..pos + 8]), Ok(4), "nblocks");
        bytes[pos..pos + 8].copy_from_slice(&wire::encode(&3u64));
        restamp_header(&mut bytes);
        assert!(matches!(
            decode(&bytes),
            Err(DecodeError::Shape {
                field: "factor blocks",
                expected: 4,
                found: 3
            })
        ));
    }

    #[test]
    fn summary_reads_the_header_only() {
        let ck = sample();
        let bytes = bytes_of(&ck);
        let s = summarize(&bytes, bytes.len()).ok().expect("summarizes");
        assert_eq!((s.meta.m, s.meta.n), (12, 9));
        assert_eq!(s.meta.config.k, 3);
        assert_eq!(s.iterations_done, 3);
        assert_eq!(s.fingerprint, ck.meta.fingerprint());

        // The header and its sum are all a summary needs...
        let head = &bytes[..header_end(&bytes) + 8];
        let s = summarize(head, bytes.len()).ok().expect("header intact");
        assert_eq!((s.w_shape, s.ht_shape), ((12, 3), (9, 3)));
        assert!(decode(head).is_err(), "...and all a load cannot do without");

        // A damaged header is an error, not a summary.
        let mut bad_meta = bytes.clone();
        bad_meta[PREFIX_LEN] ^= 0xff;
        assert!(summarize(&bad_meta, bytes.len()).is_err());
    }

    #[test]
    fn rotation_keeps_a_bounded_history() {
        let dir = std::env::temp_dir().join(format!("nmf-rot-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("run.ckpt");
        let mut ck = sample();
        for gen in 0..5 {
            ck.state.iterations_done = gen;
            write_checkpoint_rotated(&path, &ck, 2).expect("write");
        }
        // Newest at `path`, two generations behind it, nothing older.
        let newest = read_checkpoint(&path).expect("newest");
        assert_eq!(newest.state.iterations_done, 4);
        let g1 = read_checkpoint(&rotated_name(&path, 1)).expect("gen 1");
        assert_eq!(g1.state.iterations_done, 3);
        let g2 = read_checkpoint(&rotated_name(&path, 2)).expect("gen 2");
        assert_eq!(g2.state.iterations_done, 2);
        assert!(!rotated_name(&path, 3).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_depth_zero_is_plain_overwrite() {
        let dir = std::env::temp_dir().join(format!("nmf-rot0-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("run.ckpt");
        let ck = sample();
        write_checkpoint_rotated(&path, &ck, 0).expect("write");
        write_checkpoint_rotated(&path, &ck, 0).expect("overwrite");
        assert!(!rotated_name(&path, 1).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_unwritable_target_is_an_io_error() {
        let dir = std::env::temp_dir().join(format!("nmf-absent-{}", std::process::id()));
        let path = dir.join("run.ckpt");
        for keep in [0, 2] {
            let err = write_checkpoint_rotated(&path, &sample(), keep).expect_err("no such dir");
            assert!(matches!(err, NmfError::Io { .. }), "got {err:?}");
        }
    }

    #[test]
    fn infinities_round_trip() {
        let mut ck = sample();
        ck.state.prev_objective = f64::INFINITY;
        ck.state.first_objective = None;
        let back = decode(&bytes_of(&ck)).ok().expect("decodes");
        assert_eq!(back.state.prev_objective, f64::INFINITY);
        assert_eq!(back.state.first_objective, None);
    }
}
