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
//! ## Format (version 2; version 1 still readable)
//!
//! All multi-byte values are **little-endian**; floats are IEEE-754
//! `f64` bit patterns (written with `to_le_bytes`, so `NaN`/`±inf`
//! round-trip exactly). See `docs/checkpoint-format.md` for the
//! byte-level layout. In outline:
//!
//! ```text
//! magic "NMFCKPT\0" | version u32 | meta | fingerprint u64
//!   | convergence state | nblocks u64 | W blocks (rank order)
//!   | Hᵀ blocks (rank order) | checksum u64
//! ```
//!
//! Version 2 stores the factors as **per-rank blocks** in the exact
//! layout [`crate::session`]'s `factor_layouts` assigns (version 1
//! stored one assembled `W` and one `Hᵀ`). The decoded [`Checkpoint`]
//! still presents assembled factors — reading a v2 file reassembles the
//! blocks through the [`crate::regrid`] globalizer, the same path that
//! lets a checkpoint taken on one grid resume on another (see
//! `docs/elasticity.md`).
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

use crate::config::{ConvergencePolicy, NmfConfig};
use crate::engine::ConvergenceState;
use crate::error::NmfError;
use crate::grid::Grid;
use crate::harness::Algo;
use crate::regrid::GlobalFactors;
use crate::session::factor_layouts;
use nmf_matrix::Mat;
use nmf_nls::SolverKind;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// File magic: identifies the format before any parsing.
const MAGIC: &[u8; 8] = b"NMFCKPT\0";
/// The format version this build writes. Readers accept every version
/// from 1 up to this.
pub const FORMAT_VERSION: u32 = 2;

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
    /// FNV-1a fingerprint of the serialized configuration — equal iff
    /// two checkpoints describe the same problem and run configuration.
    pub fn fingerprint(&self) -> u64 {
        let mut buf = Vec::with_capacity(128);
        self.encode(&mut buf);
        fnv1a(&buf)
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

    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.m as u64);
        put_u64(out, self.n as u64);
        put_u64(out, self.ranks as u64);
        let (algo_tag, grid) = match self.algo {
            Algo::Sequential => (0u32, self.grid),
            Algo::Naive => (1, self.grid),
            Algo::Hpc1D => (2, self.grid),
            Algo::Hpc2D => (3, self.grid),
            Algo::HpcGrid(g) => (4, g),
        };
        put_u32(out, algo_tag);
        put_u64(out, grid.pr as u64);
        put_u64(out, grid.pc as u64);
        let c = &self.config;
        put_u64(out, c.k as u64);
        put_u64(out, c.max_iters as u64);
        put_u32(
            out,
            match c.solver {
                SolverKind::Bpp => 0,
                SolverKind::Mu => 1,
                SolverKind::Hals => 2,
                SolverKind::ActiveSet => 3,
            },
        );
        put_u64(out, c.seed);
        put_f64(out, c.l2_w);
        put_f64(out, c.l2_h);
        put_opt_f64(out, c.tol);
        match c.convergence {
            None => out.push(0),
            Some(ConvergencePolicy::MaxIters) => out.push(1),
            Some(ConvergencePolicy::RelTol { tol }) => {
                out.push(2);
                put_f64(out, tol);
            }
            Some(ConvergencePolicy::WindowedBudget {
                window,
                tol,
                budget,
            }) => {
                out.push(3);
                put_u64(out, window as u64);
                put_f64(out, tol);
                match budget {
                    None => out.push(0),
                    Some(b) => {
                        out.push(1);
                        put_u64(out, b.as_nanos().min(u128::from(u64::MAX)) as u64);
                    }
                }
            }
        }
    }

    fn decode(r: &mut Cursor<'_>) -> Result<CheckpointMeta, String> {
        let m = r.u64()? as usize;
        let n = r.u64()? as usize;
        let ranks = r.u64()? as usize;
        let algo_tag = r.u32()?;
        let pr = r.u64()? as usize;
        let pc = r.u64()? as usize;
        if pr == 0 || pc == 0 {
            return Err(format!("invalid grid {pr}x{pc}"));
        }
        let grid = Grid::new(pr, pc);
        let algo = match algo_tag {
            0 => Algo::Sequential,
            1 => Algo::Naive,
            2 => Algo::Hpc1D,
            3 => Algo::Hpc2D,
            4 => Algo::HpcGrid(grid),
            t => return Err(format!("unknown algorithm tag {t}")),
        };
        let k = r.u64()? as usize;
        let max_iters = r.u64()? as usize;
        let solver = match r.u32()? {
            0 => SolverKind::Bpp,
            1 => SolverKind::Mu,
            2 => SolverKind::Hals,
            3 => SolverKind::ActiveSet,
            t => return Err(format!("unknown solver tag {t}")),
        };
        let seed = r.u64()?;
        let l2_w = r.f64()?;
        let l2_h = r.f64()?;
        let tol = r.opt_f64()?;
        let convergence = match r.u8()? {
            0 => None,
            1 => Some(ConvergencePolicy::MaxIters),
            2 => Some(ConvergencePolicy::RelTol { tol: r.f64()? }),
            3 => {
                let window = r.u64()? as usize;
                let wtol = r.f64()?;
                let budget = match r.u8()? {
                    0 => None,
                    1 => Some(Duration::from_nanos(r.u64()?)),
                    t => return Err(format!("unknown budget flag {t}")),
                };
                Some(ConvergencePolicy::WindowedBudget {
                    window,
                    tol: wtol,
                    budget,
                })
            }
            t => return Err(format!("unknown policy tag {t}")),
        };
        let mut config = NmfConfig::new(k);
        config.max_iters = max_iters;
        config.solver = solver;
        config.seed = seed;
        config.l2_w = l2_w;
        config.l2_h = l2_h;
        config.tol = tol;
        config.convergence = convergence;
        Ok(CheckpointMeta {
            m,
            n,
            ranks,
            algo,
            grid,
            config,
        })
    }
}

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
    /// (A v2 file stores per-rank blocks; these are their totals.)
    pub w_shape: (usize, usize),
    pub ht_shape: (usize, usize),
    /// Per-rank factor blocks in the file (1 for a v1 file's single
    /// assembled pair; the rank count for v2).
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

    let (w_shape, ht_shape, factor_blocks) = if env.version == 1 {
        let w = r.skip_mat().map_err(DecodeError::Corrupt)?;
        let ht = r.skip_mat().map_err(DecodeError::Corrupt)?;
        (w, ht, 1)
    } else {
        let nblocks = read_block_count(&mut r)?;
        // Accumulate the assembled totals from the block headers alone:
        // the W parts (then the Hᵀ parts) tile their global matrix, so
        // the row counts sum to m (then n).
        let mut totals = [(0usize, 0usize); 2];
        for t in &mut totals {
            for _ in 0..nblocks {
                let (nr, nc) = r.skip_mat().map_err(DecodeError::Corrupt)?;
                t.0 += nr;
                t.1 = t.1.max(nc);
            }
        }
        (totals[0], totals[1], nblocks)
    };

    Ok(CheckpointSummary {
        version: env.version,
        meta,
        fingerprint,
        iterations_done: state.iterations_done,
        objective: state.prev_objective,
        elapsed: state.elapsed,
        w_shape,
        ht_shape,
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
    put_u32(&mut out, FORMAT_VERSION);

    let mut meta = Vec::with_capacity(128);
    ck.meta.encode(&mut meta);
    put_u64(&mut out, meta.len() as u64);
    out.extend_from_slice(&meta);
    put_u64(&mut out, fnv1a(&meta));

    let st = &ck.state;
    put_f64(&mut out, st.prev_objective);
    put_opt_f64(&mut out, st.first_objective);
    put_u64(&mut out, st.iterations_done as u64);
    put_u64(&mut out, st.objective_history.len() as u64);
    for &x in &st.objective_history {
        put_f64(&mut out, x);
    }
    put_u64(
        &mut out,
        st.elapsed.as_nanos().min(u128::from(u64::MAX)) as u64,
    );

    // Factor section (v2): the assembled factors sliced into the exact
    // per-rank blocks the run distributes — W blocks in rank order,
    // then Hᵀ blocks. Slicing here and reassembling on read are both
    // plain row copies at `factor_layouts` offsets, so the round trip
    // is bit-exact.
    let layouts = factor_layouts(ck.meta.algo, ck.meta.grid, ck.meta.ranks, m, n);
    put_u64(&mut out, layouts.len() as u64);
    for lay in &layouts {
        put_mat(&mut out, &ck.w.rows_block(lay.w.offset, lay.w.len));
    }
    for lay in &layouts {
        put_mat(&mut out, &ck.ht.rows_block(lay.ht.offset, lay.ht.len));
    }

    let sum = fnv1a(&out);
    put_u64(&mut out, sum);
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
    version: u32,
    body: &'a [u8],
    checksum_ok: bool,
}

fn open_envelope(bytes: &[u8]) -> Result<Envelope<'_>, DecodeError> {
    let corrupt = |s: &str| DecodeError::Corrupt(s.to_string());
    if bytes.len() < MAGIC.len() + 4 {
        return Err(corrupt("file shorter than the header"));
    }
    if &bytes[..8] != MAGIC {
        return Err(corrupt("bad magic (not an NMF checkpoint)"));
    }
    // Version is checked before the checksum so a reader can say
    // "written by a newer format" instead of "corrupt".
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if !(1..=FORMAT_VERSION).contains(&version) {
        return Err(DecodeError::Version(version));
    }
    if bytes.len() < 8 + 4 + 8 {
        return Err(corrupt("truncated before the meta block"));
    }
    let (body, stored_sum) = bytes.split_at(bytes.len() - 8);
    let stored_sum = u64::from_le_bytes(stored_sum.try_into().expect("8 bytes"));
    Ok(Envelope {
        version,
        body,
        checksum_ok: fnv1a(body) == stored_sum,
    })
}

/// Everything between the version word and the factor section, with the
/// cursor `r` left at the factor section's first byte.
struct Header<'a> {
    meta: CheckpointMeta,
    /// The stored config fingerprint (verified against the meta block).
    fingerprint: u64,
    state: ConvergenceState,
    r: Cursor<'a>,
}

fn read_header(body: &[u8]) -> Result<Header<'_>, DecodeError> {
    let mut r = Cursor {
        bytes: body,
        pos: 12,
    };
    let meta_len = r.u64().map_err(DecodeError::Corrupt)? as usize;
    let meta_bytes = r.take(meta_len).map_err(DecodeError::Corrupt)?;
    let mut mr = Cursor {
        bytes: meta_bytes,
        pos: 0,
    };
    let meta = CheckpointMeta::decode(&mut mr).map_err(DecodeError::Corrupt)?;
    let fingerprint = r.u64().map_err(DecodeError::Corrupt)?;
    let actual_fp = fnv1a(meta_bytes);
    if fingerprint != actual_fp {
        return Err(DecodeError::Fingerprint {
            expected: actual_fp,
            found: fingerprint,
        });
    }

    let prev_objective = r.f64().map_err(DecodeError::Corrupt)?;
    let first_objective = r.opt_f64().map_err(DecodeError::Corrupt)?;
    let iterations_done = r.u64().map_err(DecodeError::Corrupt)? as usize;
    let hist_len = r.u64().map_err(DecodeError::Corrupt)? as usize;
    if hist_len > r.remaining() / 8 {
        return Err(DecodeError::Corrupt(
            "objective history longer than the file".to_string(),
        ));
    }
    let mut objective_history = Vec::with_capacity(hist_len);
    for _ in 0..hist_len {
        objective_history.push(r.f64().map_err(DecodeError::Corrupt)?);
    }
    let elapsed = Duration::from_nanos(r.u64().map_err(DecodeError::Corrupt)?);
    Ok(Header {
        meta,
        fingerprint,
        state: ConvergenceState {
            prev_objective,
            first_objective,
            iterations_done,
            objective_history,
            elapsed,
        },
        r,
    })
}

/// The v2 factor section's block count, bounded by the bytes actually
/// present (each block has a 16-byte header) *before* anything is sized
/// by it, so a crafted header cannot force a giant allocation.
fn read_block_count(r: &mut Cursor<'_>) -> Result<usize, DecodeError> {
    let nblocks = r.u64().map_err(DecodeError::Corrupt)? as usize;
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

    let (m, n, k) = (meta.m, meta.n, meta.config.k);
    let (w, ht) =
        if env.version == 1 {
            // v1: one assembled W, one assembled Hᵀ.
            let w = r.mat().map_err(DecodeError::Corrupt)?;
            let ht = r.mat().map_err(DecodeError::Corrupt)?;
            for (field, expected, found) in [
                ("W rows", m, w.nrows()),
                ("W cols", k, w.ncols()),
                ("H^T rows", n, ht.nrows()),
                ("H^T cols", k, ht.ncols()),
            ] {
                if expected != found {
                    return Err(DecodeError::Shape {
                        field,
                        expected,
                        found,
                    });
                }
            }
            (w, ht)
        } else {
            // v2: per-rank blocks, reassembled through the regrid
            // globalizer.
            let nblocks = read_block_count(&mut r)?;
            if nblocks != meta.ranks {
                return Err(DecodeError::Shape {
                    field: "factor blocks",
                    expected: meta.ranks,
                    found: nblocks,
                });
            }
            let layouts = factor_layouts(meta.algo, meta.grid, meta.ranks, m, n);
            if layouts.len() != nblocks {
                return Err(DecodeError::Shape {
                    field: "factor blocks",
                    expected: layouts.len(),
                    found: nblocks,
                });
            }
            let mut w_blocks = Vec::with_capacity(nblocks);
            for _ in 0..nblocks {
                w_blocks.push(r.mat().map_err(DecodeError::Corrupt)?);
            }
            let mut ht_blocks = Vec::with_capacity(nblocks);
            for _ in 0..nblocks {
                ht_blocks.push(r.mat().map_err(DecodeError::Corrupt)?);
            }
            let global = GlobalFactors::assemble(m, n, k, &layouts, &w_blocks, &ht_blocks)
                .map_err(|e| DecodeError::Shape {
                    field: e.field,
                    expected: e.expected,
                    found: e.found,
                })?;
            (global.w, global.ht)
        };
    if r.remaining() != 0 {
        return Err(corrupt("trailing bytes after the factor blocks"));
    }

    Ok(Checkpoint { meta, state, w, ht })
}

/* ---- byte-level helpers ---- */

fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, x: f64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_opt_f64(out: &mut Vec<u8>, x: Option<f64>) {
    match x {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_f64(out, v);
        }
    }
}

fn put_mat(out: &mut Vec<u8>, m: &Mat) {
    put_u64(out, m.nrows() as u64);
    put_u64(out, m.ncols() as u64);
    for &x in m.as_slice() {
        put_f64(out, x);
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        // Compare against `remaining` (never `pos + n`, which a crafted
        // length field could overflow).
        if n > self.remaining() {
            return Err(format!(
                "truncated: needed {n} bytes at offset {}, file body has {}",
                self.pos,
                self.bytes.len()
            ));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn opt_f64(&mut self) -> Result<Option<f64>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            t => Err(format!("unknown option flag {t}")),
        }
    }

    /// Reads a factor block's header and borrows its payload bytes:
    /// `(rows, cols, 8·rows·cols bytes)`. No allocation.
    fn mat_raw(&mut self) -> Result<(usize, usize, &'a [u8]), String> {
        let nr = self.u64()? as usize;
        let nc = self.u64()? as usize;
        // Bound the claimed extent by the bytes actually present before
        // any multiplication or allocation, so a crafted header (with a
        // re-stamped checksum) is rejected as corrupt rather than
        // panicking on overflow or an absurd Vec reservation.
        let words = nr
            .checked_mul(nc)
            .filter(|&w| w <= self.remaining() / 8)
            .ok_or_else(|| {
                format!(
                    "factor block claims {nr}x{nc} values but only {} bytes remain",
                    self.remaining()
                )
            })?;
        Ok((nr, nc, self.take(8 * words)?))
    }

    /// Reads a factor block's header and skips its payload. Returns the
    /// shape.
    fn skip_mat(&mut self) -> Result<(usize, usize), String> {
        self.mat_raw().map(|(nr, nc, _payload)| (nr, nc))
    }

    fn mat(&mut self) -> Result<Mat, String> {
        let (nr, nc, raw) = self.mat_raw()?;
        let data = raw
            .chunks_exact(8)
            .map(|chunk| f64::from_le_bytes(chunk.try_into().expect("8 bytes")))
            .collect();
        Ok(Mat::from_vec(nr, nc, data))
    }
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

    /// The old single-assembled-pair encoding, kept verbatim so v1
    /// files written by earlier builds stay readable.
    fn encode_v1(ck: &Checkpoint) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, 1);
        let mut meta = Vec::with_capacity(128);
        ck.meta.encode(&mut meta);
        put_u64(&mut out, meta.len() as u64);
        out.extend_from_slice(&meta);
        put_u64(&mut out, fnv1a(&meta));
        let st = &ck.state;
        put_f64(&mut out, st.prev_objective);
        put_opt_f64(&mut out, st.first_objective);
        put_u64(&mut out, st.iterations_done as u64);
        put_u64(&mut out, st.objective_history.len() as u64);
        for &x in &st.objective_history {
            put_f64(&mut out, x);
        }
        put_u64(
            &mut out,
            st.elapsed.as_nanos().min(u128::from(u64::MAX)) as u64,
        );
        put_mat(&mut out, &ck.w);
        put_mat(&mut out, &ck.ht);
        let sum = fnv1a(&out);
        put_u64(&mut out, sum);
        out
    }

    #[test]
    fn version_1_files_stay_readable() {
        let ck = sample();
        let bytes = encode_v1(&ck);
        let back = decode(&bytes, Path::new("mem")).ok().expect("v1 decodes");
        assert_eq!(back.w, ck.w);
        assert_eq!(back.ht, ck.ht);
        assert_eq!(back.state, ck.state);
        let s = summarize(&bytes).ok().expect("v1 summarizes");
        assert_eq!(s.version, 1);
        assert_eq!(s.factor_blocks, 1);
        assert_eq!(s.w_shape, (12, 3));
        assert_eq!(s.ht_shape, (9, 3));
        assert!(s.checksum_ok);
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
