//! Matrix I/O: Matrix Market text and the binary out-of-core format.
//!
//! The paper's real-world inputs (webbase-2001 and the like) ship as
//! Matrix Market files; this module reads and writes the two formats the
//! library needs:
//!
//! * `coordinate real general` — sparse matrices ([`read_matrix_market`]
//!   returns a [`Csr`]);
//! * `array real general` — dense matrices (column-major per the spec),
//!   read into an [`nmf_matrix::Mat`].
//!
//! Pattern files (`coordinate pattern`) are read with all nonzeros set
//! to 1.0, the convention for adjacency matrices.
//!
//! For matrices larger than RAM there is additionally a little-endian
//! binary CSR container (`NMFS`, see [`write_csr_binary`]) and a
//! memory-mapped panel-streaming reader ([`MmapCsr`]) that never maps
//! more than the header, the row pointers, and one row panel's indices
//! and values at a time — the ingest side of the shared pre-sharded
//! input layer.

use crate::coo::Coo;
use crate::csr::{check_row, Csr};
use nmf_matrix::Mat;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::os::raw::{c_int, c_void};
use std::os::unix::io::AsRawFd;
use std::path::Path;

/// Errors from Matrix Market parsing.
#[derive(Debug)]
pub enum MmError {
    Io(std::io::Error),
    /// Malformed header or body, with a description.
    Parse(String),
}

impl std::fmt::Display for MmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmError::Io(e) => write!(f, "I/O error: {e}"),
            MmError::Parse(msg) => write!(f, "Matrix Market parse error: {msg}"),
        }
    }
}

impl std::error::Error for MmError {}

impl From<std::io::Error> for MmError {
    fn from(e: std::io::Error) -> Self {
        MmError::Io(e)
    }
}

fn parse_err(msg: impl Into<String>) -> MmError {
    MmError::Parse(msg.into())
}

struct Header {
    format: String,   // "coordinate" | "array"
    field: String,    // "real" | "integer" | "pattern"
    symmetry: String, // "general" | "symmetric"
}

fn read_header(
    lines: &mut impl Iterator<Item = std::io::Result<String>>,
) -> Result<Header, MmError> {
    let first = lines.next().ok_or_else(|| parse_err("empty file"))??;
    let toks: Vec<&str> = first.split_whitespace().collect();
    if toks.len() < 5 || !toks[0].eq_ignore_ascii_case("%%MatrixMarket") {
        return Err(parse_err("missing %%MatrixMarket banner"));
    }
    if !toks[1].eq_ignore_ascii_case("matrix") {
        return Err(parse_err(format!("unsupported object '{}'", toks[1])));
    }
    Ok(Header {
        format: toks[2].to_ascii_lowercase(),
        field: toks[3].to_ascii_lowercase(),
        symmetry: toks[4].to_ascii_lowercase(),
    })
}

/// Reads a sparse `coordinate` Matrix Market stream into CSR.
/// Symmetric files are expanded to general storage.
pub fn read_matrix_market(reader: impl Read) -> Result<Csr, MmError> {
    let buf = BufReader::new(reader);
    let mut lines = buf.lines();
    let header = read_header(&mut lines)?;
    if header.format != "coordinate" {
        return Err(parse_err(format!(
            "expected coordinate format, found '{}' (use read_matrix_market_dense)",
            header.format
        )));
    }
    let pattern = header.field == "pattern";
    if !pattern && header.field != "real" && header.field != "integer" {
        return Err(parse_err(format!("unsupported field '{}'", header.field)));
    }
    let symmetric = header.symmetry == "symmetric";
    if !symmetric && header.symmetry != "general" {
        return Err(parse_err(format!(
            "unsupported symmetry '{}'",
            header.symmetry
        )));
    }

    // Skip comments, read the size line.
    let size_line = loop {
        let line = lines
            .next()
            .ok_or_else(|| parse_err("missing size line"))??;
        let t = line.trim();
        if !t.is_empty() && !t.starts_with('%') {
            break line;
        }
    };
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| {
            t.parse()
                .map_err(|_| parse_err(format!("bad size token '{t}'")))
        })
        .collect::<Result<_, _>>()?;
    if dims.len() != 3 {
        return Err(parse_err("size line must be 'rows cols nnz'"));
    }
    let (nrows, ncols, nnz) = (dims[0], dims[1], dims[2]);

    let mut coo = Coo::with_capacity(nrows, ncols, if symmetric { 2 * nnz } else { nnz });
    let mut seen = 0usize;
    for line in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let i: usize = it
            .next()
            .ok_or_else(|| parse_err("missing row index"))?
            .parse()
            .map_err(|_| parse_err("bad row index"))?;
        let j: usize = it
            .next()
            .ok_or_else(|| parse_err("missing column index"))?
            .parse()
            .map_err(|_| parse_err("bad column index"))?;
        let v: f64 = if pattern {
            1.0
        } else {
            it.next()
                .ok_or_else(|| parse_err("missing value"))?
                .parse()
                .map_err(|_| parse_err("bad value"))?
        };
        if i == 0 || j == 0 || i > nrows || j > ncols {
            return Err(parse_err(format!(
                "entry ({i}, {j}) out of bounds (1-based)"
            )));
        }
        coo.push(i - 1, j - 1, v);
        if symmetric && i != j {
            coo.push(j - 1, i - 1, v);
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(parse_err(format!("expected {nnz} entries, found {seen}")));
    }
    Ok(coo.to_csr())
}

/// Reads a dense `array` Matrix Market stream (column-major) into a
/// row-major [`Mat`].
pub fn read_matrix_market_dense(reader: impl Read) -> Result<Mat, MmError> {
    let buf = BufReader::new(reader);
    let mut lines = buf.lines();
    let header = read_header(&mut lines)?;
    if header.format != "array" {
        return Err(parse_err(
            "expected array format (use read_matrix_market for sparse)",
        ));
    }
    if header.field != "real" && header.field != "integer" {
        return Err(parse_err(format!("unsupported field '{}'", header.field)));
    }
    let size_line = loop {
        let line = lines
            .next()
            .ok_or_else(|| parse_err("missing size line"))??;
        let t = line.trim();
        if !t.is_empty() && !t.starts_with('%') {
            break line;
        }
    };
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| t.parse().map_err(|_| parse_err("bad size token")))
        .collect::<Result<_, _>>()?;
    if dims.len() != 2 {
        return Err(parse_err("array size line must be 'rows cols'"));
    }
    let (nrows, ncols) = (dims[0], dims[1]);
    let mut m = Mat::zeros(nrows, ncols);
    let mut idx = 0usize;
    for line in lines {
        let line = line?;
        for tok in line.split_whitespace() {
            if tok.starts_with('%') {
                break;
            }
            let v: f64 = tok
                .parse()
                .map_err(|_| parse_err(format!("bad value '{tok}'")))?;
            if idx >= nrows * ncols {
                return Err(parse_err("too many values"));
            }
            // Column-major order per the Matrix Market spec.
            let (col, row) = (idx / nrows, idx % nrows);
            m[(row, col)] = v;
            idx += 1;
        }
    }
    if idx != nrows * ncols {
        return Err(parse_err(format!(
            "expected {} values, found {idx}",
            nrows * ncols
        )));
    }
    Ok(m)
}

/// Writes `m` as `coordinate real general` Matrix Market.
pub fn write_matrix_market(m: &Csr, writer: impl Write) -> Result<(), MmError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "{} {} {}", m.nrows(), m.ncols(), m.nnz())?;
    for i in 0..m.nrows() {
        let (cols, vals) = m.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            writeln!(w, "{} {} {v:.17e}", i + 1, j + 1)?;
        }
    }
    Ok(())
}

/// Writes `m` as `array real general` Matrix Market (column-major).
pub fn write_matrix_market_dense(m: &Mat, writer: impl Write) -> Result<(), MmError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "%%MatrixMarket matrix array real general")?;
    writeln!(w, "{} {}", m.nrows(), m.ncols())?;
    for j in 0..m.ncols() {
        for i in 0..m.nrows() {
            writeln!(w, "{:.17e}", m[(i, j)])?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Binary CSR container ("NMFS") and memory-mapped panel streaming.
// ---------------------------------------------------------------------------

/// Magic bytes opening an `NMFS` binary CSR file.
pub const NMFS_MAGIC: [u8; 4] = *b"NMFS";
/// Current `NMFS` container version.
pub const NMFS_VERSION: u32 = 1;
/// Header bytes: magic, version, then `nrows`/`ncols`/`nnz` as `u64`.
const NMFS_HEADER_LEN: usize = 32;

/// Byte offset of the `indices` section for a matrix with `nrows` rows
/// (counts [`nmfs_file_len`] accepted: the sum cannot wrap).
fn nmfs_indices_off(nrows: usize) -> u64 {
    NMFS_HEADER_LEN as u64 + 8 * (nrows as u64 + 1)
}

/// Byte offset of the `values` section (likewise).
fn nmfs_values_off(nrows: usize, nnz: usize) -> u64 {
    nmfs_indices_off(nrows) + 8 * nnz as u64
}

/// Total bytes of an `NMFS` file holding `nrows` rows and `nnz` entries.
/// The counts come from a header nobody has vouched for yet: ones whose
/// sections do not fit in a `u64` of bytes are corrupt, where unchecked
/// sums would wrap and walk past every later length check.
fn nmfs_file_len(nrows: usize, nnz: usize) -> Result<u64, MmError> {
    let len = || {
        let words = (nnz as u64)
            .checked_mul(2)?
            .checked_add(nrows as u64)?
            .checked_add(1)?;
        words.checked_mul(8)?.checked_add(NMFS_HEADER_LEN as u64)
    };
    len().ok_or_else(|| parse_err(format!("NMFS header claims {nrows} rows and {nnz} entries")))
}

/// Row pointers of a file must start at 0, never decrease and end at
/// `nnz`: every row is then a range inside the `indices` and `values`
/// sections.
fn check_indptr(ptrs: impl IntoIterator<Item = u64>, nnz: usize) -> Result<(), MmError> {
    let span = || parse_err("NMFS indptr does not span [0, nnz]");
    let mut ptrs = ptrs.into_iter();
    if ptrs.next() != Some(0) {
        return Err(span());
    }
    let mut prev = 0;
    for (row, p) in ptrs.enumerate() {
        if p < prev {
            return Err(parse_err(format!("NMFS indptr decreases at row {row}")));
        }
        prev = p;
    }
    if prev != nnz as u64 {
        return Err(span());
    }
    Ok(())
}

/// Writes `m` in the `NMFS` binary CSR container.
///
/// Layout (all little-endian, every section 8-aligned):
///
/// | offset              | contents                         |
/// |---------------------|----------------------------------|
/// | 0                   | magic `b"NMFS"`, version `u32`   |
/// | 8                   | `nrows`, `ncols`, `nnz` as `u64` |
/// | 32                  | `indptr`: `(nrows+1) × u64`      |
/// | 32 + 8(nrows+1)     | `indices`: `nnz × u64`           |
/// | … + 8·nnz           | `values`: `nnz × f64` (IEEE bits)|
pub fn write_csr_binary(m: &Csr, writer: impl Write) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    w.write_all(&NMFS_MAGIC)?;
    w.write_all(&NMFS_VERSION.to_le_bytes())?;
    w.write_all(&(m.nrows() as u64).to_le_bytes())?;
    w.write_all(&(m.ncols() as u64).to_le_bytes())?;
    w.write_all(&(m.nnz() as u64).to_le_bytes())?;
    for &p in m.indptr() {
        w.write_all(&(p as u64).to_le_bytes())?;
    }
    for &j in m.indices() {
        w.write_all(&(j as u64).to_le_bytes())?;
    }
    for &v in m.values() {
        w.write_all(&v.to_bits().to_le_bytes())?;
    }
    w.flush()
}

/// Writes `m` as an `NMFS` file at `path` (see [`write_csr_binary`]).
pub fn write_csr_binary_path(m: &Csr, path: impl AsRef<Path>) -> std::io::Result<()> {
    write_csr_binary(m, File::create(path)?)
}

fn le_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().unwrap())
}

/// Reads a whole `NMFS` stream into a resident [`Csr`] (the in-RAM
/// parity path for [`MmapCsr`]; loads everything, so only for matrices
/// that fit in memory). Every invariant of a [`Csr`] is checked: a
/// malformed header, row pointers, or a row whose column indices are not
/// strictly increasing and below `ncols` is an [`MmError::Parse`].
pub fn read_csr_binary(reader: impl Read) -> Result<Csr, MmError> {
    let mut r = BufReader::new(reader);
    let mut head = [0u8; NMFS_HEADER_LEN];
    r.read_exact(&mut head)?;
    let (nrows, ncols, nnz) = parse_nmfs_header(&head)?;
    nmfs_file_len(nrows, nnz)?;
    // Each section is read through `take`: its buffer grows with the
    // bytes that arrive, never to a size the header merely claims.
    let mut read_u64s = |n: usize, what: &str| -> Result<Vec<u64>, MmError> {
        let want = 8 * n as u64;
        let mut buf = Vec::new();
        r.by_ref().take(want).read_to_end(&mut buf)?;
        if buf.len() as u64 != want {
            return Err(parse_err(format!(
                "NMFS file truncated: {what} holds {} bytes, expected {want}",
                buf.len()
            )));
        }
        Ok((0..n).map(|i| le_u64(&buf, 8 * i)).collect())
    };
    let indptr = read_u64s(nrows + 1, "indptr")?;
    check_indptr(indptr.iter().copied(), nnz)?;
    let indptr: Vec<usize> = indptr.iter().map(|&x| x as usize).collect();
    let indices: Vec<usize> = read_u64s(nnz, "indices")?
        .iter()
        .map(|&x| x as usize)
        .collect();
    let values: Vec<f64> = read_u64s(nnz, "values")?
        .iter()
        .map(|&x| f64::from_bits(x))
        .collect();
    Csr::try_from_parts(nrows, ncols, indptr, indices, values)
        .map_err(|e| parse_err(format!("NMFS matrix is malformed: {e}")))
}

fn parse_nmfs_header(head: &[u8; NMFS_HEADER_LEN]) -> Result<(usize, usize, usize), MmError> {
    if head[..4] != NMFS_MAGIC {
        return Err(parse_err("not an NMFS file (bad magic)"));
    }
    let version = u32::from_le_bytes(head[4..8].try_into().unwrap());
    if version != NMFS_VERSION {
        return Err(parse_err(format!("unsupported NMFS version {version}")));
    }
    Ok((
        le_u64(head, 8) as usize,
        le_u64(head, 16) as usize,
        le_u64(head, 24) as usize,
    ))
}

// Minimal mmap FFI. std already links libc on Linux, so declaring the
// two symbols directly avoids a dependency on the `libc` crate (the
// container has no network access for new crates).
extern "C" {
    fn mmap(
        addr: *mut c_void,
        length: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, length: usize) -> c_int;
}

const PROT_READ: c_int = 1;
const MAP_PRIVATE: c_int = 2;

/// mmap offsets must be page-aligned; 64 KiB is a multiple of every
/// page size in common use (4K/16K/64K), so aligning down to it is
/// always valid and needs no `sysconf` call.
const MAP_ALIGN: u64 = 64 * 1024;

/// A read-only mapping of a byte range of a file. The requested range
/// need not be page-aligned; the window maps the enclosing aligned span
/// and exposes just the requested bytes. Unmapped on drop.
struct MapWindow {
    base: *mut c_void,
    map_len: usize,
    skip: usize,
    len: usize,
}

// SAFETY: the mapping is PROT_READ/MAP_PRIVATE and never mutated, so
// sharing the window across threads is sound.
unsafe impl Send for MapWindow {}
unsafe impl Sync for MapWindow {}

impl MapWindow {
    fn map(file: &File, offset: u64, len: usize) -> std::io::Result<MapWindow> {
        if len == 0 {
            return Ok(MapWindow {
                base: std::ptr::null_mut(),
                map_len: 0,
                skip: 0,
                len: 0,
            });
        }
        let aligned = offset - offset % MAP_ALIGN;
        let skip = (offset - aligned) as usize;
        let map_len = len + skip;
        // SAFETY: valid fd, read-only private mapping, aligned offset.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                map_len,
                PROT_READ,
                MAP_PRIVATE,
                file.as_raw_fd(),
                aligned as i64,
            )
        };
        if base as isize == -1 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(MapWindow {
            base,
            map_len,
            skip,
            len,
        })
    }

    #[inline]
    fn bytes(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: the mapping covers skip + len readable bytes.
        unsafe { std::slice::from_raw_parts((self.base as *const u8).add(self.skip), self.len) }
    }
}

impl Drop for MapWindow {
    fn drop(&mut self) {
        if self.map_len > 0 {
            // SAFETY: base/map_len came from a successful mmap.
            unsafe { munmap(self.base, self.map_len) };
        }
    }
}

/// A memory-mapped `NMFS` file, streamed by row panel.
///
/// Only the header and the row-pointer array are mapped for the lifetime
/// of the handle (`8·(nrows+1)` bytes — megabytes even for web-scale row
/// counts). Nonzero indices and values are mapped in per-panel windows
/// ([`MmapCsr::panel`]) and unmapped when the panel drops, so peak
/// address space stays near one panel regardless of file size — which is
/// what lets an input larger than the memory rlimit shard onto the grid.
pub struct MmapCsr {
    file: File,
    nrows: usize,
    ncols: usize,
    nnz: usize,
    /// Header + indptr, mapped eagerly.
    head: MapWindow,
}

impl MmapCsr {
    /// Opens an `NMFS` file, validating the header and section sizes.
    pub fn open(path: impl AsRef<Path>) -> Result<MmapCsr, MmError> {
        let file = File::open(path)?;
        let mut head = [0u8; NMFS_HEADER_LEN];
        (&file).read_exact(&mut head)?;
        let (nrows, ncols, nnz) = parse_nmfs_header(&head)?;
        let expect = nmfs_file_len(nrows, nnz)?;
        let actual = file.metadata()?.len();
        if actual != expect {
            return Err(parse_err(format!(
                "NMFS file truncated: {actual} bytes, expected {expect}"
            )));
        }
        let head = MapWindow::map(&file, 0, nmfs_indices_off(nrows) as usize)?;
        let m = MmapCsr {
            file,
            nrows,
            ncols,
            nnz,
            head,
        };
        // One pass over the mapped row pointers: `panel` slices the other
        // two sections by them.
        check_indptr((0..=nrows).map(|i| m.indptr(i) as u64), nnz)?;
        Ok(m)
    }

    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Row pointer `i` (`0 ..= nrows`), read from the mapped header.
    #[inline]
    pub fn indptr(&self, i: usize) -> usize {
        debug_assert!(i <= self.nrows);
        le_u64(self.head.bytes(), NMFS_HEADER_LEN + 8 * i) as usize
    }

    /// Maps rows `r0 .. r0+nr` as a panel: one index window and one
    /// value window covering exactly those rows' nonzeros.
    pub fn panel(&self, r0: usize, nr: usize) -> Result<CsrPanel<'_>, MmError> {
        assert!(r0 + nr <= self.nrows, "panel out of bounds");
        let lo = self.indptr(r0);
        let hi = self.indptr(r0 + nr);
        let span = hi - lo;
        let idx = MapWindow::map(
            &self.file,
            nmfs_indices_off(self.nrows) + 8 * lo as u64,
            8 * span,
        )?;
        let val = MapWindow::map(
            &self.file,
            nmfs_values_off(self.nrows, self.nnz) + 8 * lo as u64,
            8 * span,
        )?;
        let indptr: Vec<usize> = (0..=nr).map(|i| self.indptr(r0 + i) - lo).collect();
        Ok(CsrPanel {
            ncols: self.ncols,
            indptr,
            idx,
            val,
            _owner: std::marker::PhantomData,
        })
    }

    /// Extracts the `(r0..r0+nr) × (c0..c0+nc)` block as an owned,
    /// locally-reindexed [`Csr`] — the same contract as [`Csr::block`],
    /// mapping only the `nr`-row panel while it works.
    pub fn block(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> Result<Csr, MmError> {
        assert!(c0 + nc <= self.ncols, "block out of bounds");
        self.panel(r0, nr)?.cols_block(c0, nc)
    }

    /// Squared Frobenius norm, streamed over row panels so the whole
    /// values section is never resident. Values are summed in file
    /// order — the same order as [`Csr::fro_norm_sq`] on the resident
    /// matrix, so the result is bit-identical.
    pub fn fro_norm_sq(&self) -> Result<f64, MmError> {
        let panel_rows = self.panel_rows_for_budget(DEFAULT_PANEL_BYTES);
        let mut acc = 0.0;
        let mut r0 = 0;
        while r0 < self.nrows {
            let nr = panel_rows.min(self.nrows - r0);
            let p = self.panel(r0, nr)?;
            for i in 0..nr {
                let (_, vals) = p.row_scratch(i);
                // One element at a time: the same left-to-right fold as
                // `Csr::fro_norm_sq`, so the association (and bits) match.
                for v in vals {
                    acc += v * v;
                }
            }
            r0 += nr;
        }
        Ok(acc)
    }

    /// A row-panel height that keeps one panel's mapped bytes near
    /// `budget` for this matrix's average row density (at least 1 row).
    pub fn panel_rows_for_budget(&self, budget: usize) -> usize {
        if self.nnz == 0 || self.nrows == 0 {
            return self.nrows.max(1);
        }
        let bytes_per_row = 16 * self.nnz / self.nrows + 1;
        (budget / bytes_per_row).clamp(1, self.nrows)
    }
}

/// Default per-panel byte budget for streaming traversals (16 MiB).
pub const DEFAULT_PANEL_BYTES: usize = 16 << 20;

/// A mapped window over a contiguous row range of an [`MmapCsr`].
///
/// Rows are addressed locally (`0 .. nr`). Indices and values are read
/// straight out of the mapped file bytes; nothing is copied until a
/// caller extracts an owned block.
pub struct CsrPanel<'a> {
    ncols: usize,
    /// Local row pointers, rebased to the panel start (`nr + 1` entries).
    indptr: Vec<usize>,
    idx: MapWindow,
    val: MapWindow,
    _owner: std::marker::PhantomData<&'a MmapCsr>,
}

impl CsrPanel<'_> {
    /// Number of rows in the panel.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Nonzeros mapped by the panel.
    #[inline]
    pub fn nnz(&self) -> usize {
        *self.indptr.last().unwrap()
    }

    /// Local row `i` as `(column, value)` iterators decoded from the
    /// mapped bytes.
    #[inline]
    pub fn row_scratch(
        &self,
        i: usize,
    ) -> (
        impl Iterator<Item = usize> + '_,
        impl Iterator<Item = f64> + '_,
    ) {
        let lo = self.indptr[i];
        let hi = self.indptr[i + 1];
        let ib = self.idx.bytes();
        let vb = self.val.bytes();
        (
            (lo..hi).map(move |p| le_u64(ib, 8 * p) as usize),
            (lo..hi).map(move |p| f64::from_bits(le_u64(vb, 8 * p))),
        )
    }

    /// The whole panel as an owned [`Csr`] (all columns).
    pub fn to_csr(&self) -> Result<Csr, MmError> {
        self.cols_block(0, self.ncols)
    }

    /// Columns `c0 .. c0+nc` of the panel as an owned, locally
    /// reindexed [`Csr`] — bit-identical to `Csr::block` on the
    /// resident matrix over the same ranges. A row whose column indices
    /// are not strictly increasing or not below the file's column count
    /// is a parse error: the file is read here for the first time.
    pub fn cols_block(&self, c0: usize, nc: usize) -> Result<Csr, MmError> {
        assert!(c0 + nc <= self.ncols, "column block out of bounds");
        let c1 = c0 + nc;
        let nr = self.nrows();
        let mut indptr = Vec::with_capacity(nr + 1);
        indptr.push(0);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        let mut cols: Vec<usize> = Vec::new();
        for i in 0..nr {
            let (cit, vit) = self.row_scratch(i);
            cols.clear();
            cols.extend(cit);
            check_row(&cols, self.ncols)
                .map_err(|e| parse_err(format!("NMFS panel row {i}: {e}")))?;
            // Columns are sorted within the row: binary search [c0, c1).
            let lo = cols.partition_point(|&c| c < c0);
            let hi = cols.partition_point(|&c| c < c1);
            indices.extend(cols[lo..hi].iter().map(|&c| c - c0));
            values.extend(vit.skip(lo).take(hi - lo));
            indptr.push(indices.len());
        }
        Ok(Csr::from_parts(nr, nc, indptr, indices, values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::banded;
    use nmf_matrix::rng::Fill;

    #[test]
    fn sparse_round_trip() {
        let m = banded(9, 2);
        let mut bytes = Vec::new();
        write_matrix_market(&m, &mut bytes).unwrap();
        let back = read_matrix_market(bytes.as_slice()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn dense_round_trip() {
        let m = Mat::uniform(7, 5, 9);
        let mut bytes = Vec::new();
        write_matrix_market_dense(&m, &mut bytes).unwrap();
        let back = read_matrix_market_dense(bytes.as_slice()).unwrap();
        assert!(back.max_abs_diff(&m) < 1e-15);
    }

    #[test]
    fn reads_pattern_and_comments() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    % a comment\n\
                    3 4 2\n\
                    1 1\n\
                    3 4\n";
        let m = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(2, 3), 1.0);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn expands_symmetric_storage() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    3 3 2\n\
                    2 1 5.0\n\
                    3 3 7.0\n";
        let m = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(m.get(1, 0), 5.0);
        assert_eq!(m.get(0, 1), 5.0, "symmetric mirror entry");
        assert_eq!(m.get(2, 2), 7.0);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(read_matrix_market("not a matrix".as_bytes()).is_err());
        let bad_bounds = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_matrix_market(bad_bounds.as_bytes()).is_err());
        let wrong_count = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        assert!(read_matrix_market(wrong_count.as_bytes()).is_err());
    }

    fn tmp_nmfs(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("nmf-io-{tag}-{}.nmfs", std::process::id()))
    }

    #[test]
    fn binary_round_trip_is_bit_exact() {
        let m = crate::gen::erdos_renyi(23, 17, 0.2, 7);
        let mut bytes = Vec::new();
        write_csr_binary(&m, &mut bytes).unwrap();
        assert_eq!(
            bytes.len() as u64,
            nmfs_values_off(23, m.nnz()) + 8 * m.nnz() as u64
        );
        let back = read_csr_binary(bytes.as_slice()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn binary_preserves_negative_zero_and_nan_bits() {
        let mut c = Coo::new(2, 2);
        c.push(0, 0, -0.0);
        c.push(1, 1, f64::NAN);
        let m = c.to_csr();
        let mut bytes = Vec::new();
        write_csr_binary(&m, &mut bytes).unwrap();
        let back = read_csr_binary(bytes.as_slice()).unwrap();
        for (a, b) in m.values().iter().zip(back.values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn mmap_blocks_match_resident_blocks() {
        let m = crate::gen::erdos_renyi(61, 43, 0.08, 11);
        let path = tmp_nmfs("blocks");
        write_csr_binary_path(&m, &path).unwrap();
        let mm = MmapCsr::open(&path).unwrap();
        assert_eq!(mm.shape(), m.shape());
        assert_eq!(mm.nnz(), m.nnz());
        // Tile with a ragged 3×2 grid and compare every block.
        for (r0, nr) in [(0, 21), (21, 21), (42, 19)] {
            for (c0, nc) in [(0, 22), (22, 21)] {
                let a = mm.block(r0, c0, nr, nc).unwrap();
                let b = m.block(r0, c0, nr, nc);
                assert_eq!(a, b, "block ({r0},{c0})+({nr},{nc})");
            }
        }
        // Panel-wise reconstruction and streamed norm agree bit-for-bit.
        assert_eq!(
            mm.panel(17, 9).unwrap().to_csr().unwrap(),
            m.rows_block(17, 9)
        );
        assert_eq!(
            mm.fro_norm_sq().unwrap().to_bits(),
            m.fro_norm_sq().to_bits()
        );
        drop(mm);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mmap_handles_empty_rows_and_empty_matrix() {
        let path = tmp_nmfs("empty");
        let m = Csr::empty(5, 4);
        write_csr_binary_path(&m, &path).unwrap();
        let mm = MmapCsr::open(&path).unwrap();
        assert_eq!(mm.nnz(), 0);
        assert_eq!(mm.block(1, 1, 3, 2).unwrap(), Csr::empty(3, 2));
        assert_eq!(mm.fro_norm_sq().unwrap(), 0.0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mmap_rejects_bad_files() {
        let path = tmp_nmfs("bad");
        std::fs::write(&path, b"definitely not an NMFS file, far too short header").unwrap();
        assert!(MmapCsr::open(&path).is_err());
        // Valid header, truncated body.
        let m = banded(9, 2);
        let mut bytes = Vec::new();
        write_csr_binary(&m, &mut bytes).unwrap();
        bytes.truncate(bytes.len() - 8);
        std::fs::write(&path, &bytes).unwrap();
        assert!(MmapCsr::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// An `NMFS` image with a header and row pointers of the caller's
    /// choosing, the other two sections zero-filled to `nnz` entries.
    fn nmfs_bytes(nrows: u64, ncols: u64, nnz: u64, indptr: &[u64], entries: usize) -> Vec<u8> {
        let mut bytes = NMFS_MAGIC.to_vec();
        bytes.extend_from_slice(&NMFS_VERSION.to_le_bytes());
        for x in [nrows, ncols, nnz].iter().chain(indptr) {
            bytes.extend_from_slice(&x.to_le_bytes());
        }
        bytes.resize(bytes.len() + 16 * entries, 0);
        bytes
    }

    #[test]
    fn hostile_headers_and_row_pointers_are_parse_errors() {
        let path = tmp_nmfs("hostile");
        for (what, bytes) in [
            // 8·(nrows+1) wraps to 0, so the file "is" its 32-byte header.
            (
                "row count that wraps",
                nmfs_bytes((1 << 61) - 1, 4, 0, &[], 0),
            ),
            // Sized correctly, but row 0 would span [0, 5) of 2 entries.
            ("decreasing indptr", nmfs_bytes(2, 4, 2, &[0, 5, 2], 2)),
            // A terabyte of row pointers claimed by 40 bytes of file.
            ("sections not present", nmfs_bytes(1 << 37, 4, 0, &[0], 0)),
        ] {
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(MmapCsr::open(&path), Err(MmError::Parse(_))),
                "mmap: {what}"
            );
            assert!(
                matches!(read_csr_binary(bytes.as_slice()), Err(MmError::Parse(_))),
                "resident: {what}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hostile_column_indices_are_parse_errors() {
        let path = tmp_nmfs("columns");
        for (what, indices) in [
            ("a column past ncols", [1u64, 4]),
            ("a repeated column", [2, 2]),
            ("a row out of order", [3, 1]),
        ] {
            // One row of two entries in a 2x4 matrix; the second row empty.
            let mut bytes = nmfs_bytes(2, 4, 2, &[0, 2, 2], 0);
            for x in indices.iter().chain(&[0x3ff0_0000_0000_0000; 2]) {
                bytes.extend_from_slice(&x.to_le_bytes());
            }
            assert!(
                matches!(read_csr_binary(bytes.as_slice()), Err(MmError::Parse(_))),
                "resident: {what}"
            );
            std::fs::write(&path, &bytes).unwrap();
            let mm = MmapCsr::open(&path).expect("header and row pointers are sound");
            for (c0, nc) in [(0, 4), (0, 2), (2, 2)] {
                assert!(
                    matches!(mm.block(0, c0, 2, nc), Err(MmError::Parse(_))),
                    "mmap: {what}, columns {c0}+{nc}"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn panel_budget_is_sane() {
        let m = crate::gen::erdos_renyi(200, 50, 0.1, 3);
        let path = tmp_nmfs("budget");
        write_csr_binary_path(&m, &path).unwrap();
        let mm = MmapCsr::open(&path).unwrap();
        assert_eq!(mm.panel_rows_for_budget(usize::MAX / 32), 200);
        assert!(mm.panel_rows_for_budget(1) >= 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dense_reader_is_column_major() {
        let text = "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n";
        let m = read_matrix_market_dense(text.as_bytes()).unwrap();
        // Column-major: first column is [1, 2].
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 0)], 2.0);
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 1)], 4.0);
    }
}
