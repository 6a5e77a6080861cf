//! The checkpoint format against bytes it did not write.
//!
//! * **Golden**: `golden/v3_hpc2d_p2.ckpt` was written from
//!   `golden_checkpoint()` by the build that introduced format version 3
//!   and is committed unedited; this build must write the same value to
//!   the same bytes, read it back equal, and compute the same
//!   fingerprint (files in the field carry theirs). The previous
//!   version's golden, `golden/v2_hpc2d_p2.ckpt`, stays as the case both
//!   readers refuse.
//! * **Fuzz**: arbitrary bytes, and the golden file under bit flips,
//!   truncation and hostile length fields (fingerprint, header sum and
//!   block sums re-stamped so the damage reaches the parser), go through
//!   `inspect_checkpoint` and `read_checkpoint`. Neither may panic, and
//!   — measured with a counting allocator — neither may ask for more
//!   than `4·len + 4 KiB`: a length field sizes nothing until the bytes
//!   present vouch for it.
//! * **Header only**: `inspect_checkpoint` reads the header and its sum,
//!   never the payload.

use hpc_nmf::checkpoint::{read_checkpoint, write_checkpoint};
use hpc_nmf::wire::{checksum, Reader, Wire};
use hpc_nmf::{
    inspect_checkpoint, Algo, Checkpoint, CheckpointMeta, ConvergencePolicy, ConvergenceState,
    Grid, NmfConfig, NmfError,
};
use nmf_matrix::Mat;
use nmf_nls::SolverKind;
use proptest::collection::vec;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::time::Duration;

const GOLDEN: &[u8] = include_bytes!("golden/v3_hpc2d_p2.ckpt");
const GOLDEN_V2: &[u8] = include_bytes!("golden/v2_hpc2d_p2.ckpt");
const GOLDEN_FINGERPRINT: u64 = 0x4017_2b6b_0458_8b04;

/* ---- bytes requested by the calling thread ---- */

struct CountingAlloc;

thread_local! {
    /// Const-initialized, no destructor: safe to touch inside the allocator.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    let _ = REQUESTED.try_with(|c| c.set(c.get() + bytes));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn requested_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    (out, REQUESTED.with(Cell::get) - before)
}

/* ---- the golden value ---- */

fn golden_checkpoint() -> Checkpoint {
    let (m, n, k, ranks) = (6, 5, 2, 2);
    Checkpoint {
        meta: CheckpointMeta {
            m,
            n,
            ranks,
            algo: Algo::Hpc2D,
            grid: Grid::optimal(m, n, ranks),
            config: NmfConfig::new(k)
                .with_max_iters(9)
                .with_solver(SolverKind::Hals)
                .with_seed(77)
                .with_l2(0.5, 0.25)
                .with_tol(1e-6)
                .with_convergence(ConvergencePolicy::WindowedBudget {
                    window: 3,
                    tol: 1e-9,
                    budget: Some(Duration::from_secs(3600)),
                }),
        },
        state: ConvergenceState {
            prev_objective: 10.5,
            first_objective: Some(40.0),
            iterations_done: 3,
            objective_history: vec![40.0, 20.25, 10.5],
            elapsed: Duration::from_nanos(1_234_567_891),
        },
        w: Mat::from_vec(m, k, (0..m * k).map(|i| i as f64 * 0.25).collect()),
        ht: Mat::from_vec(n, k, (0..n * k).map(|i| 3.0 - i as f64 * 0.125).collect()),
    }
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nmf-ckpt-bytes-{}-{name}", std::process::id()))
}

#[test]
fn golden_checkpoint_reads_and_rewrites_byte_for_byte() {
    let expect = golden_checkpoint();
    let path = scratch("golden");
    std::fs::write(&path, GOLDEN).expect("stage the golden file");

    let back = read_checkpoint(&path).expect("the parent's file decodes");
    assert_eq!(back.w, expect.w);
    assert_eq!(back.ht, expect.ht);
    assert_eq!(back.state, expect.state);
    let (meta, want) = (&back.meta, &expect.meta);
    assert_eq!(
        (meta.m, meta.n, meta.ranks, meta.algo, meta.grid),
        (want.m, want.n, want.ranks, want.algo, Grid::new(2, 1))
    );
    let (c, w) = (&meta.config, &want.config);
    assert_eq!(
        (c.k, c.max_iters, c.solver, c.seed, c.l2_w, c.l2_h, c.tol),
        (w.k, w.max_iters, w.solver, w.seed, w.l2_w, w.l2_h, w.tol)
    );
    assert_eq!(c.convergence, w.convergence);
    assert_eq!(meta.fingerprint(), GOLDEN_FINGERPRINT);
    assert_eq!(want.fingerprint(), GOLDEN_FINGERPRINT);

    let summary = inspect_checkpoint(&path).expect("summarizes");
    assert_eq!(summary.fingerprint, GOLDEN_FINGERPRINT);
    assert_eq!((summary.version, summary.factor_blocks), (3, 2));
    assert_eq!((summary.w_shape, summary.ht_shape), ((6, 2), (5, 2)));
    assert_eq!(summary.file_bytes, GOLDEN.len());

    // Both the value built here and the one just decoded write the
    // golden bytes.
    for ck in [&expect, &back] {
        write_checkpoint(&path, ck).expect("writes");
        assert_eq!(std::fs::read(&path).expect("reads"), GOLDEN);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn version_2_files_are_refused_by_both_readers() {
    let path = scratch("v2");
    std::fs::write(&path, GOLDEN_V2).expect("stage the v2 golden file");
    for err in [
        read_checkpoint(&path).err(),
        inspect_checkpoint(&path).err(),
    ] {
        assert!(
            matches!(
                err,
                Some(NmfError::UnsupportedVersion {
                    found: 2,
                    supported: 3,
                    ..
                })
            ),
            "{err:?}"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// `inspect_checkpoint` reads the header and its sum, nothing else: a
/// file cut right after `header_sum` still summarizes while the full
/// reader refuses it, and inspecting a 4-rank checkpoint of a 4000×4000
/// problem asks for no more than `header_len + 4 KiB`.
#[test]
fn inspect_reads_the_header_only() {
    let (m, n, k) = (4000, 4000, 8);
    let ck = Checkpoint {
        meta: CheckpointMeta {
            m,
            n,
            ranks: 4,
            algo: Algo::Hpc2D,
            grid: Grid::new(2, 2),
            config: NmfConfig::new(k),
        },
        state: golden_checkpoint().state,
        w: Mat::filled(m, k, 0.5),
        ht: Mat::filled(n, k, 0.25),
    };
    let path = scratch("header-only");
    write_checkpoint(&path, &ck).expect("writes");
    let bytes = std::fs::read(&path).expect("reads");
    let header_len = u64_at(&bytes, 12).expect("header_len") as usize;

    let (summary, asked) = requested_by(|| inspect_checkpoint(&path));
    assert_eq!(summary.expect("inspects").file_bytes, bytes.len());
    assert!(
        asked <= header_len + 4096,
        "inspect asked for {asked} bytes; the header is {header_len}"
    );

    std::fs::write(&path, &bytes[..header_len + 28]).expect("truncate");
    let cut = inspect_checkpoint(&path).expect("the header alone summarizes");
    assert_eq!(
        (cut.w_shape, cut.ht_shape, cut.factor_blocks),
        ((m, k), (n, k), 4)
    );
    assert_eq!(cut.fingerprint, ck.meta.fingerprint());
    assert!(matches!(
        read_checkpoint(&path),
        Err(NmfError::Corrupt { .. })
    ));
    std::fs::remove_file(&path).ok();
}

/// Tag 3 named a solver that is gone; a file carrying it is refused by
/// both readers with the error any unknown tag gets.
#[test]
fn a_retired_solver_tag_is_refused_by_both_readers() {
    let path = scratch("solver-tag-3");
    let solver_tag = 20 + 60; // m, n, ranks, algo (u32), grid, k, max_iters
    assert_eq!(
        GOLDEN[solver_tag..solver_tag + 4],
        2u32.to_le_bytes(),
        "HALS"
    );
    let mut bytes = GOLDEN.to_vec();
    bytes[solver_tag..solver_tag + 4].copy_from_slice(&3u32.to_le_bytes());
    restamp(&mut bytes);
    std::fs::write(&path, &bytes).expect("stage");
    for err in [
        read_checkpoint(&path).err(),
        inspect_checkpoint(&path).err(),
    ] {
        assert!(
            matches!(&err, Some(NmfError::Corrupt { reason, .. }) if reason.contains("unknown solver tag 3")),
            "{err:?}"
        );
    }
    std::fs::remove_file(&path).ok();
}

/* ---- fuzz ---- */

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn u64_at(bytes: &[u8], pos: usize) -> Option<u64> {
    let raw = bytes.get(pos..pos.checked_add(8)?)?;
    Some(u64::from_le_bytes(raw.try_into().expect("8 bytes")))
}

/// Re-stamps what stands between a mutation and the parser: the config
/// fingerprint (when the meta block still decodes), `header_sum` (when
/// `header_len` still points inside the file), and every `block_sum`
/// the block table still locates.
fn restamp(bytes: &mut [u8]) {
    let Some(end) = u64_at(bytes, 12)
        .and_then(|l| usize::try_from(l).ok())
        .and_then(|l| l.checked_add(20))
        .filter(|&end| end <= bytes.len())
    else {
        return;
    };
    let mut r = Reader::new(&bytes[20..end]);
    let mut table = Vec::new();
    if CheckpointMeta::get(&mut r).is_ok() {
        let fp_at = end - r.remaining();
        if fp_at + 8 <= end {
            let fp = fnv1a(&bytes[20..fp_at]);
            bytes[fp_at..fp_at + 8].copy_from_slice(&fp.to_le_bytes());
        }
        // The rest of the header: fingerprint, state, then the table.
        let mut r = Reader::new(&bytes[fp_at..end]);
        let nblocks = u64::get(&mut r)
            .and_then(|_| ConvergenceState::get(&mut r))
            .and_then(|_| u64::get(&mut r));
        if let Ok(nblocks) = nblocks {
            table = (0..nblocks.saturating_mul(2))
                .map_while(|_| Some((u64::get(&mut r).ok()?, u64::get(&mut r).ok()?)))
                .collect();
        }
    }
    if end + 8 > bytes.len() {
        return;
    }
    let sum = checksum(&bytes[20..end]);
    bytes[end..end + 8].copy_from_slice(&sum.to_le_bytes());
    let mut at = end + 8;
    for (nr, nc) in table {
        let Some(stop) = (nr.checked_mul(nc))
            .and_then(|words| usize::try_from(words).ok()?.checked_mul(8))
            .and_then(|len| at.checked_add(len))
            .filter(|&stop| stop.saturating_add(8) <= bytes.len())
        else {
            return;
        };
        let sum = checksum(&bytes[at..stop]);
        bytes[stop..stop + 8].copy_from_slice(&sum.to_le_bytes());
        at = stop + 8;
    }
}

/// Runs both readers over `bytes` (staged at `path`). `Ok` or a typed
/// error, never a panic; bounded allocation either way.
fn both_readers_survive(bytes: &[u8], path: &Path) {
    std::fs::write(path, bytes).expect("stage");
    let budget = 4 * bytes.len() + 4096;
    let (summary, asked) = requested_by(|| inspect_checkpoint(path));
    assert!(
        asked <= budget,
        "inspect asked for {asked} bytes of {budget}"
    );
    let (full, asked) = requested_by(|| read_checkpoint(path));
    assert!(asked <= budget, "read asked for {asked} bytes of {budget}");
    for err in [summary.as_ref().err(), full.as_ref().err()]
        .into_iter()
        .flatten()
    {
        assert!(
            matches!(
                err,
                NmfError::Corrupt { .. }
                    | NmfError::UnsupportedVersion { .. }
                    | NmfError::FingerprintMismatch { .. }
                    | NmfError::CheckpointMismatch { .. }
            ),
            "undeclared failure: {err}"
        );
    }
    if let Ok(ck) = full {
        // Whatever decodes is internally consistent enough to re-encode.
        let (m, n, k) = (ck.meta.m, ck.meta.n, ck.meta.config.k);
        assert_eq!((ck.w.shape(), ck.ht.shape()), ((m, k), (n, k)));
    }
}

/// Offsets of the golden file's length and extent fields: `header_len`,
/// the objective-history length, the block count, then each block's
/// rows and cols in the block table.
fn golden_length_fields() -> Vec<usize> {
    let history = 20 + 123 + 8 + 8 + 9 + 8;
    let nblocks = history + 8 + 3 * 8 + 8;
    let mut fields = vec![12, history, nblocks];
    fields.extend((0..8).map(|i| nblocks + 8 + 8 * i));
    let header_end = nblocks + 8 + 4 * 16;
    assert_eq!(
        u64_at(GOLDEN, 12),
        Some(header_end as u64 - 20),
        "the table ends the header"
    );
    let payload: usize = [3, 3, 3, 2].iter().map(|rows| 8 * rows * 2 + 8).sum();
    assert_eq!(
        header_end + 8 + payload,
        GOLDEN.len(),
        "the blocks end the file"
    );
    fields
}

/// Every single-bit flip of the golden file is a typed error from the
/// full reader, and from `inspect_checkpoint` wherever it lands in the
/// bytes inspect reads; a flip in the payload leaves inspect unmoved.
#[test]
fn fuzz_every_single_bit_flip_of_the_golden_is_refused() {
    let path = scratch("bitflip");
    let head = 20 + u64_at(GOLDEN, 12).expect("header_len") as usize + 8;
    for bit in 0..8 * GOLDEN.len() {
        let mut bytes = GOLDEN.to_vec();
        bytes[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&path, &bytes).expect("stage");
        match read_checkpoint(&path) {
            Err(
                NmfError::Corrupt { .. }
                | NmfError::UnsupportedVersion { .. }
                | NmfError::FingerprintMismatch { .. }
                | NmfError::CheckpointMismatch { .. },
            ) => {}
            other => panic!("flip of bit {bit}: {:?}", other.map(|_| "decoded")),
        }
        let inspected = inspect_checkpoint(&path);
        assert_eq!(inspected.is_err(), bit / 8 < head, "flip of bit {bit}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn fuzz_hostile_length_fields_named_cases() {
    let path = scratch("named");
    let fields = golden_length_fields();
    assert_eq!(u64_at(GOLDEN, fields[1]), Some(3), "history length");
    assert_eq!(u64_at(GOLDEN, fields[2]), Some(2), "block count");
    for &at in &fields {
        let remaining = (GOLDEN.len() - at - 8) as u64;
        for hostile in [
            u64::MAX,
            1 << 60,
            1 << 32,
            remaining + 1,
            remaining / 8 + 1,
            0,
        ] {
            let mut bytes = GOLDEN.to_vec();
            bytes[at..at + 8].copy_from_slice(&hostile.to_le_bytes());
            restamp(&mut bytes);
            both_readers_survive(&bytes, &path);
        }
    }
    // Found by this suite: a meta block claiming a shape its blocks do
    // not back (`m = 2^40`), a grid that is not `ranks` ranks, and block
    // rows that overflow their running total — each sized or indexed
    // something before any byte vouched for it.
    for (at, value) in [
        (20usize, 1u64 << 40), // m
        (20 + 16, 1 << 40),    // ranks
        (20 + 28, 1 << 40),    // grid pr
        (20 + 28, 1),          // grid 1x1 on 2 ranks
        (20 + 24, 0),          // algo tag → Sequential on 2 ranks
        (fields[3], u64::MAX), // W block 0 rows …
        (fields[3] + 8, 0),    // … with zero columns
    ] {
        let mut bytes = GOLDEN.to_vec();
        let width = if at == 20 + 24 { 4 } else { 8 };
        bytes[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
        restamp(&mut bytes);
        both_readers_survive(&bytes, &path);
    }
    let mut both = GOLDEN.to_vec();
    for at in [fields[3], fields[5]] {
        both[at..at + 8].copy_from_slice(&(1u64 << 63).to_le_bytes());
        both[at + 8..at + 16].copy_from_slice(&0u64.to_le_bytes());
    }
    restamp(&mut both);
    both_readers_survive(&both, &path);
    std::fs::remove_file(&path).ok();
}

/// A sequential header is one rank on the 1×1 grid — the distribution
/// its factor section is sliced by — and decoding refuses any other
/// grid or rank count, as it refuses any grid that is not `ranks` ranks.
#[test]
fn a_sequential_header_on_another_grid_is_refused() {
    let path = scratch("sequential");
    let refused = |bytes: &[u8], what: &str| {
        std::fs::write(&path, bytes).expect("stage");
        for err in [
            read_checkpoint(&path).err(),
            inspect_checkpoint(&path).err(),
        ] {
            assert!(matches!(err, Some(NmfError::Corrupt { .. })), "{what}");
        }
    };
    let mut ck = golden_checkpoint();
    ck.meta.algo = Algo::Sequential;
    ck.meta.ranks = 1;
    ck.meta.grid = Grid::new(1, 1);
    write_checkpoint(&path, &ck).expect("writes");
    let clean = std::fs::read(&path).expect("reads");
    assert!(read_checkpoint(&path).is_ok());
    for (at, value, what) in [
        (20 + 28, 2u64, "grid 2x1"),
        (20 + 36, 2, "grid 1x2"),
        (20 + 16, 2, "2 ranks"),
    ] {
        let mut bytes = clean.clone();
        bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
        restamp(&mut bytes);
        refused(&bytes, what);
    }
    // The golden file's 2-rank 2×1 run re-tagged as Sequential.
    let mut bytes = GOLDEN.to_vec();
    bytes[20 + 24..20 + 28].copy_from_slice(&0u32.to_le_bytes());
    restamp(&mut bytes);
    refused(&bytes, "Sequential on 2 ranks");
    std::fs::remove_file(&path).ok();
}

proptest! {
    #[test]
    fn fuzz_arbitrary_bytes_never_panic_or_over_allocate(
        raw in vec(0u16..256, 0..600),
        framed in 0usize..3,
    ) {
        let mut bytes: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
        // A third raw, a third behind a valid magic and version, a third
        // also framed as a header of their own length with a valid sum.
        if framed == 2 {
            let len = bytes.len() as u64;
            bytes.splice(..0, len.to_le_bytes());
            bytes.extend_from_slice(&[0; 8]);
        }
        if framed >= 1 {
            bytes.splice(..0, GOLDEN[..12].iter().copied());
            restamp(&mut bytes);
        }
        both_readers_survive(&bytes, &scratch("arbitrary"));
    }

    #[test]
    fn fuzz_mutated_golden_checkpoint_never_panics_or_over_allocates(
        flips in vec(0usize..GOLDEN.len(), 0..5),
        masks in vec(1u16..256, 4),
        cut in 0usize..2 * GOLDEN.len(),
        field in 0usize..22,
        hostile in 0usize..4,
        stamp in 0usize..4,
    ) {
        let mut bytes = GOLDEN.to_vec();
        for (at, mask) in flips.iter().zip(&masks) {
            bytes[*at] ^= *mask as u8;
        }
        // Half the cases also overwrite one length or extent field.
        let fields = golden_length_fields();
        if let Some(&at) = fields.get(field) {
            let remaining = (bytes.len() - at - 8) as u64;
            let value = [u64::MAX, 1 << 60, remaining + 1, remaining / 8 + 1][hostile];
            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
        }
        // Half are truncated somewhere.
        bytes.truncate(cut.min(bytes.len()).max(1));
        // Most are re-stamped; the rest test the hashes themselves.
        if stamp > 0 {
            restamp(&mut bytes);
        }
        both_readers_survive(&bytes, &scratch("mutated"));
    }
}
