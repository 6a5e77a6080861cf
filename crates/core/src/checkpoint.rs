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
//! ## Format (version 2)
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
//! magic "NMFCKPT\0" | version u32 | meta | fingerprint u64
//!   | convergence state | nblocks u64 | W blocks (rank order)
//!   | Hᵀ blocks (rank order) | checksum u64
//! ```
//!
//! The factors are stored as **per-rank blocks** in the exact layout
//! [`ShardKey::layouts`] assigns the run. The decoded
//! [`Checkpoint`] presents assembled factors — reading a file
//! reassembles the blocks through the [`crate::regrid`] globalizer, the
//! same path that lets a checkpoint taken on one grid resume on another
//! (see `docs/elasticity.md`). One version in, one out: a file of any
//! other version (including the retired version 1, which stored one
//! assembled pair) is [`NmfError::UnsupportedVersion`].
//!
//! Two integrity fields guard two failure classes:
//!
//! * the trailing **checksum** (FNV-1a over every preceding byte)
//!   detects corruption and truncation of the file as a whole;
//! * the **config fingerprint** (FNV-1a over the serialized meta block)
//!   is also exposed via [`CheckpointMeta::fingerprint`] so callers can
//!   cheaply compare a checkpoint's configuration against a fresh one
//!   (e.g. `nmf_cli --resume` rejecting contradictory flags).
//!
//! Writes go through a sibling temp file + rename, so a crash mid-write
//! leaves the previous checkpoint intact rather than a torn file.

use crate::config::{Algo, ConvergencePolicy, NmfConfig};
use crate::dist::{RankLayout, ShardKey};
use crate::engine::ConvergenceState;
use crate::error::NmfError;
use crate::grid::Grid;
use crate::regrid::GlobalFactors;
use crate::wire::{self, put_f64s, Reader, Wire};
use crate::{choice, record};
use nmf_matrix::Mat;
use nmf_nls::SolverKind;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// File magic: identifies the format before any parsing.
const MAGIC: &[u8; 8] = b"NMFCKPT\0";
/// The format version this build writes, and the only one it reads.
pub const FORMAT_VERSION: u32 = 2;
/// Magic plus version word: what precedes the meta block.
const HEADER_LEN: usize = MAGIC.len() + 4;

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

impl CheckpointMeta {
    /// What each rank of the recorded run owns: the slicing of the
    /// factor section.
    fn layouts(&self) -> Vec<RankLayout> {
        ShardKey::of(self.algo, self.grid, self.ranks).layouts(self.m, self.n)
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

// The meta block (what the fingerprint covers). The v2 header stores
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

/// Serializes and writes a checkpoint to `path`, atomically (temp file +
/// rename in the destination directory).
pub fn write_checkpoint(path: &Path, ck: &Checkpoint) -> Result<(), NmfError> {
    let io = |source| NmfError::Io {
        path: path.to_path_buf(),
        source,
    };
    let bytes = encode(ck);
    let tmp = tmp_sibling(path);
    let mut f = std::fs::File::create(&tmp).map_err(io)?;
    f.write_all(&bytes).map_err(io)?;
    f.sync_all().map_err(io)?;
    drop(f);
    std::fs::rename(&tmp, path).map_err(io)
}

/// [`write_checkpoint`] with rotation: before the new file lands at
/// `path`, existing generations shift one slot down the chain
/// `path → path.1 → path.2 → … → path.keep` (the oldest falls off), so
/// the last `keep` superseded checkpoints stay recoverable — insurance
/// against a run that goes numerically bad *between* checkpoints, where
/// overwrite-in-place would have destroyed the only good state.
///
/// Every shift is a same-directory rename and the final write is the
/// usual temp-file + rename, so each generation is atomically either its
/// old content or its new one; `keep == 0` is plain [`write_checkpoint`].
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
                std::fs::rename(&from, &to).map_err(io(&from))?;
            }
        }
    }
    write_checkpoint(path, ck)
}

/// `path` with a rotation generation suffix: `run.ckpt` → `run.ckpt.3`.
fn rotated_name(path: &Path, generation: usize) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".{generation}"));
    path.with_file_name(name)
}

/// Everything `inspect_checkpoint` learns from a checkpoint's header and
/// trailer without materializing the factor matrices.
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
    /// the block headers only — the payloads are skipped, not decoded.
    /// (The file stores per-rank blocks; these are their totals.)
    pub w_shape: (usize, usize),
    pub ht_shape: (usize, usize),
    /// Per-rank factor blocks in the file (the rank count).
    pub factor_blocks: usize,
    /// Whether the whole-file checksum verified. `false` means the
    /// payload is damaged even though the header still parsed; a full
    /// [`read_checkpoint`] of this file would fail.
    pub checksum_ok: bool,
    /// Total file size in bytes.
    pub file_bytes: usize,
}

/// Reads a checkpoint's versioned header — shape, rank `k`, algorithm,
/// grid, fingerprint, iteration count, checksum status — **without
/// loading the factors** (their payload bytes are skipped, never parsed
/// into matrices). This is the cheap pre-flight for tooling: a corrupted
/// *payload* is reported as `checksum_ok: false` in the summary rather
/// than an error, so an operator can still see what the damaged file
/// claimed to be; a header that itself fails to parse is an error.
pub fn inspect_checkpoint(path: &Path) -> Result<CheckpointSummary, NmfError> {
    summarize(&read_file(path)?).map_err(|e| e.at(path))
}

fn summarize(bytes: &[u8]) -> Result<CheckpointSummary, DecodeError> {
    let env = open_envelope(bytes)?;
    let Header {
        meta,
        fingerprint,
        state,
        mut r,
    } = read_header(env.body)?;

    let factor_blocks = read_block_count(&mut r)?;
    // Accumulate the assembled totals from the block headers alone: the
    // W parts (then the Hᵀ parts) tile their global matrix, so the row
    // counts sum to m (then n).
    let mut totals = [(0usize, 0usize); 2];
    for t in &mut totals {
        for _ in 0..factor_blocks {
            let Extent { nr, nc } = skip_block(&mut r)?;
            t.0 = (t.0.checked_add(nr))
                .ok_or_else(|| r.fail("factor block rows overflow their total"))?;
            t.1 = t.1.max(nc);
        }
    }

    Ok(CheckpointSummary {
        version: FORMAT_VERSION,
        meta,
        fingerprint,
        iterations_done: state.iterations_done,
        objective: state.prev_objective,
        elapsed: state.elapsed,
        w_shape: totals[0],
        ht_shape: totals[1],
        factor_blocks,
        checksum_ok: env.checksum_ok,
        file_bytes: bytes.len(),
    })
}

/// Reads and validates a checkpoint from `path`: magic, version, config
/// fingerprint, internal shape consistency, and whole-file checksum.
pub fn read_checkpoint(path: &Path) -> Result<Checkpoint, NmfError> {
    decode(&read_file(path)?, path).map_err(|e| e.at(path))
}

fn read_file(path: &Path) -> Result<Vec<u8>, NmfError> {
    std::fs::read(path).map_err(|source| NmfError::Io {
        path: path.to_path_buf(),
        source,
    })
}

fn encode(ck: &Checkpoint) -> Vec<u8> {
    let (m, n, k) = (ck.meta.m, ck.meta.n, ck.meta.config.k);
    debug_assert_eq!(ck.w.shape(), (m, k), "checkpoint W must be assembled m x k");
    debug_assert_eq!(
        ck.ht.shape(),
        (n, k),
        "checkpoint Ht must be assembled n x k"
    );
    let mut out = Vec::with_capacity(256 + 8 * (ck.w.len() + ck.ht.len()));
    out.extend_from_slice(MAGIC);
    FORMAT_VERSION.put(&mut out);

    let meta = wire::encode(&ck.meta);
    meta.len().put(&mut out);
    out.extend_from_slice(&meta);
    fnv1a(&meta).put(&mut out);
    ck.state.put(&mut out);

    // Factor section: the assembled factors sliced into the exact
    // per-rank blocks the run distributes — W blocks in rank order,
    // then Hᵀ blocks. Slicing here and reassembling on read are both
    // plain row copies at the same offsets, so the round trip is
    // bit-exact.
    let layouts = ck.meta.layouts();
    layouts.len().put(&mut out);
    for lay in &layouts {
        put_block(&mut out, &ck.w, lay.w.offset, lay.w.len);
    }
    for lay in &layouts {
        put_block(&mut out, &ck.ht, lay.ht.offset, lay.ht.len);
    }

    fnv1a(&out).put(&mut out);
    out
}

enum DecodeError {
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

/// The outer frame of a checkpoint file: `body` is every byte before
/// the trailing checksum. A failed checksum is reported, not judged —
/// the full reader rejects it, the summary passes it on.
struct Envelope<'a> {
    body: &'a [u8],
    checksum_ok: bool,
}

fn open_envelope(bytes: &[u8]) -> Result<Envelope<'_>, DecodeError> {
    let corrupt = |s: &str| DecodeError::Corrupt(s.to_string());
    if bytes.len() < HEADER_LEN {
        return Err(corrupt("file shorter than the header"));
    }
    let mut r = Reader::new(bytes);
    if r.take(MAGIC.len())? != MAGIC {
        return Err(corrupt("bad magic (not an NMF checkpoint)"));
    }
    // Version is checked before the checksum so a reader can say
    // "written by another format version" instead of "corrupt".
    let version = u32::get(&mut r)?;
    if version != FORMAT_VERSION {
        return Err(DecodeError::Version(version));
    }
    if r.remaining() < 8 {
        return Err(corrupt("truncated before the meta block"));
    }
    let (body, stored_sum) = bytes.split_at(bytes.len() - 8);
    Ok(Envelope {
        body,
        checksum_ok: fnv1a(body) == wire::decode::<u64>(stored_sum)?,
    })
}

/// Everything between the version word and the factor section, with the
/// reader `r` left at the factor section's first byte.
struct Header<'a> {
    meta: CheckpointMeta,
    /// The stored config fingerprint (verified against the meta block).
    fingerprint: u64,
    state: ConvergenceState,
    r: Reader<'a>,
}

fn read_header(body: &[u8]) -> Result<Header<'_>, DecodeError> {
    let mut r = Reader::new(body);
    r.take(HEADER_LEN)?; // magic and version: `open_envelope` checked them
    let meta_len = usize::get(&mut r)?;
    let meta_bytes = r.take(meta_len)?;
    let meta = wire::decode(meta_bytes)?;
    let fingerprint = u64::get(&mut r)?;
    let actual_fp = fnv1a(meta_bytes);
    if fingerprint != actual_fp {
        return Err(DecodeError::Fingerprint {
            expected: actual_fp,
            found: fingerprint,
        });
    }
    let state = ConvergenceState::get(&mut r)?;
    Ok(Header {
        meta,
        fingerprint,
        state,
        r,
    })
}

/// The factor section's block count, bounded by the bytes actually
/// present (each block has a 16-byte header) *before* anything is sized
/// by it, so a crafted header cannot force a giant allocation.
fn read_block_count(r: &mut Reader<'_>) -> Result<usize, DecodeError> {
    let nblocks = usize::get(r)?;
    if nblocks == 0 || nblocks > r.remaining() / 16 {
        return Err(DecodeError::Corrupt(
            "factor section claims more blocks than fit".to_string(),
        ));
    }
    Ok(nblocks)
}

fn decode(bytes: &[u8], _path: &Path) -> Result<Checkpoint, DecodeError> {
    let corrupt = |s: &str| DecodeError::Corrupt(s.to_string());
    let env = open_envelope(bytes)?;
    if !env.checksum_ok {
        return Err(corrupt(
            "checksum mismatch (the file was truncated or altered)",
        ));
    }
    let Header {
        meta, state, mut r, ..
    } = read_header(env.body)?;

    // Per-rank blocks, reassembled through the regrid globalizer.
    let (m, n, k) = (meta.m, meta.n, meta.config.k);
    let nblocks = read_block_count(&mut r)?;
    if nblocks != meta.ranks {
        return Err(DecodeError::Shape {
            field: "factor blocks",
            expected: meta.ranks,
            found: nblocks,
        });
    }
    // One layout per rank: the meta block's own decoding vouches that
    // `(algo, grid, ranks)` describe one grid.
    let layouts = meta.layouts();
    let mut blocks =
        || -> Result<Vec<Mat>, wire::Error> { (0..nblocks).map(|_| get_block(&mut r)).collect() };
    let (w_blocks, ht_blocks) = (blocks()?, blocks()?);
    r.finish()?;
    let global =
        GlobalFactors::assemble(m, n, k, &layouts, &w_blocks, &ht_blocks).map_err(|e| {
            DecodeError::Shape {
                field: e.field,
                expected: e.expected,
                found: e.found,
            }
        })?;

    Ok(Checkpoint {
        meta,
        state,
        w: global.w,
        ht: global.ht,
    })
}

/* ---- factor blocks: `u64 rows | u64 cols | rows·cols f64s` ---- */

struct Extent {
    nr: usize,
    nc: usize,
}

record!(Extent { nr, nc });

/// Rows `[offset, offset + len)` of `mat` as one block, the payload
/// straight from the matrix's row-major storage.
fn put_block(out: &mut Vec<u8>, mat: &Mat, offset: usize, len: usize) {
    let nc = mat.ncols();
    Extent { nr: len, nc }.put(out);
    put_f64s(out, &mat.as_slice()[offset * nc..(offset + len) * nc]);
}

/// A block's extent and its value count. The product is checked, and
/// the reader bounds it by the bytes actually present before anything
/// is sized by it — so a crafted extent (with a re-stamped checksum) is
/// corrupt, not an overflow panic or an absurd reservation.
fn block_extent(r: &mut Reader<'_>) -> Result<(Extent, usize), wire::Error> {
    let ext = Extent::get(r)?;
    let words = (ext.nr.checked_mul(ext.nc))
        .ok_or_else(|| r.fail(format!("factor block claims {}x{} values", ext.nr, ext.nc)))?;
    Ok((ext, words))
}

/// Reads a block's extent and skips its payload: no allocation.
fn skip_block(r: &mut Reader<'_>) -> Result<Extent, wire::Error> {
    let (ext, words) = block_extent(r)?;
    r.f64_bytes(words)?;
    Ok(ext)
}

fn get_block(r: &mut Reader<'_>) -> Result<Mat, wire::Error> {
    let (Extent { nr, nc }, words) = block_extent(r)?;
    Ok(Mat::from_vec(nr, nc, r.f64s(words)?))
}

/// 64-bit FNV-1a over `bytes`.
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

    #[test]
    fn encode_decode_round_trips_bit_exactly() {
        let ck = sample();
        let bytes = encode(&ck);
        let back = decode(&bytes, Path::new("mem")).ok().expect("decodes");
        assert_eq!(back.w, ck.w);
        assert_eq!(back.ht, ck.ht);
        assert_eq!(back.state, ck.state);
        assert_eq!(back.meta.m, ck.meta.m);
        assert_eq!(back.meta.config.k, ck.meta.config.k);
        assert_eq!(back.meta.fingerprint(), ck.meta.fingerprint());
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = encode(&sample());
        for cut in [5, 11, 40, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode(&bytes[..cut], Path::new("mem")).is_err(),
                "truncation at {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn flipped_payload_byte_fails_checksum() {
        let mut bytes = encode(&sample());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            decode(&bytes, Path::new("mem")),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn absurd_factor_extent_is_corrupt_not_a_panic() {
        // Edit a factor block to claim 2^61 rows and re-stamp the
        // trailing checksum (FNV is not cryptographic; the format's
        // contract is a *decode error*, never a panic or giant
        // allocation). The last Hᵀ block of the sample (2×2 grid on
        // 12×9, k=3) is 2×3, so its header sits at a fixed offset from
        // the end: checksum (8) + payload (6 f64s) + header (16).
        let ck = sample();
        let mut bytes = encode(&ck);
        let pos = bytes.len() - 8 - 8 * 6 - 16;
        assert_eq!(bytes[pos..pos + 8], 2u64.to_le_bytes(), "Hᵀ block rows");
        assert_eq!(
            bytes[pos + 8..pos + 16],
            3u64.to_le_bytes(),
            "Hᵀ block cols"
        );
        bytes[pos..pos + 8].copy_from_slice(&(1u64 << 61).to_le_bytes());
        let body = bytes.len() - 8;
        let sum = fnv1a(&bytes[..body]);
        let len = bytes.len();
        bytes[len - 8..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            decode(&bytes, Path::new("mem")),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn version_1_files_are_refused_with_a_typed_error() {
        // Nothing writes version 1 any more and nothing reads it: the
        // version word alone decides, before the checksum is looked at.
        let mut bytes = MAGIC.to_vec();
        1u32.put(&mut bytes);
        bytes.extend_from_slice(&[0; 64]);
        assert!(matches!(
            decode(&bytes, Path::new("mem")),
            Err(DecodeError::Version(1))
        ));
        assert!(matches!(summarize(&bytes), Err(DecodeError::Version(1))));
        assert!(matches!(
            DecodeError::Version(1).at(Path::new("old.ckpt")),
            NmfError::UnsupportedVersion {
                found: 1,
                supported: 2,
                ..
            }
        ));
    }

    #[test]
    fn v2_stores_one_block_per_rank_and_reassembles_bit_exactly() {
        let ck = sample();
        let bytes = encode(&ck);
        let s = summarize(&bytes).ok().expect("summarizes");
        assert_eq!(s.version, FORMAT_VERSION);
        assert_eq!(s.factor_blocks, ck.meta.ranks);
        // Block totals reconstruct the assembled shapes...
        assert_eq!(s.w_shape, (12, 3));
        assert_eq!(s.ht_shape, (9, 3));
        // ...and the decode path reassembles through the globalizer to
        // the exact matrices that were sliced.
        let back = decode(&bytes, Path::new("mem")).ok().expect("decodes");
        assert_eq!(back.w, ck.w);
        assert_eq!(back.ht, ck.ht);
    }

    #[test]
    fn v2_block_count_must_match_the_recorded_ranks() {
        let ck = sample();
        let mut bytes = encode(&ck);
        // The nblocks field follows the state section; find it by value
        // scanning backwards from the first W block header (3×3 at a
        // known distance: 4 W blocks of 3×3 and 4 Hᵀ blocks totalling
        // 9×3 plus 8 headers of 16 bytes, then the checksum).
        let factor_payload = 8 * (12 * 3 + 9 * 3) + 16 * 8;
        let pos = bytes.len() - 8 - factor_payload - 8;
        assert_eq!(bytes[pos..pos + 8], 4u64.to_le_bytes(), "nblocks field");
        bytes[pos..pos + 8].copy_from_slice(&3u64.to_le_bytes());
        let body = bytes.len() - 8;
        let sum = fnv1a(&bytes[..body]);
        let len = bytes.len();
        bytes[len - 8..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            decode(&bytes, Path::new("mem")),
            Err(DecodeError::Shape { .. }) | Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn summary_reads_header_and_flags_payload_damage() {
        let ck = sample();
        let bytes = encode(&ck);
        let s = summarize(&bytes).ok().expect("summarizes");
        assert_eq!(s.version, FORMAT_VERSION);
        assert_eq!((s.meta.m, s.meta.n), (12, 9));
        assert_eq!(s.meta.config.k, 3);
        assert_eq!(s.iterations_done, 3);
        assert_eq!(s.w_shape, (12, 3));
        assert_eq!(s.ht_shape, (9, 3));
        assert_eq!(s.fingerprint, ck.meta.fingerprint());
        assert!(s.checksum_ok);

        // Flip a byte inside the W payload: the header still parses,
        // the summary reports the damage instead of erroring.
        let mut damaged = bytes.clone();
        let off = damaged.len() - 16; // inside Ht payload, before checksum
        damaged[off] ^= 0x01;
        let s = summarize(&damaged).ok().expect("header intact");
        assert!(!s.checksum_ok);

        // A damaged *header* (meta block) is an error, not a summary.
        let mut bad_meta = bytes.clone();
        bad_meta[20] ^= 0xff;
        assert!(summarize(&bad_meta).is_err());
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
    fn infinities_round_trip() {
        let mut ck = sample();
        ck.state.prev_objective = f64::INFINITY;
        ck.state.first_objective = None;
        let back = decode(&encode(&ck), Path::new("mem"))
            .ok()
            .expect("decodes");
        assert_eq!(back.state.prev_objective, f64::INFINITY);
        assert_eq!(back.state.first_objective, None);
    }
}
