//! The frame codec against bytes it did not write.
//!
//! * **Golden**: every `Request` / `Response` variant must encode to
//!   exactly the bytes protocol version 1 put on the socket before the
//!   codec moved onto `hpc_nmf::wire` (`golden/frames.txt`, committed
//!   unedited), and decode those bytes back to the same value.
//! * **Fuzz**: arbitrary bytes, and every golden frame under byte
//!   flips, truncation and hostile length fields, go through both
//!   decoders. Neither may panic, and — measured with a counting
//!   allocator — neither may ask for more than `4·len + 4 KiB`: a count
//!   sizes nothing until the bytes present vouch for it.

mod golden;

use golden::Frame;
use nmf_serve::{Request, Response, ServeError};
use proptest::collection::vec;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/* ---- golden ---- */

#[test]
fn golden_frames_encode_and_decode_byte_for_byte() {
    let golden = golden::golden();
    let cases = golden::cases();
    assert_eq!(golden.len(), cases.len(), "one golden line per case");
    for ((name, frame), (golden_name, bytes)) in cases.iter().zip(&golden) {
        assert_eq!(name, golden_name);
        // Decoding the parent's bytes gives the value back (compared as
        // rendered: two statuses carry NaN, which `==` cannot match).
        let (encoded, back, want) = match frame {
            Frame::Req(want) => {
                let back = Request::decode(bytes).expect(name);
                (want.encode(), format!("{back:?}"), format!("{want:?}"))
            }
            Frame::Resp(want) => {
                let back = Response::decode(bytes).expect(name);
                (want.encode(), format!("{back:?}"), format!("{want:?}"))
            }
            Frame::Refused(reason) => {
                let err = Request::decode(bytes).expect_err(name);
                assert!(
                    matches!(&err, ServeError::BadFrame { reason: r } if r.contains(reason)),
                    "{name}: {err}"
                );
                continue;
            }
        };
        assert_eq!(&encoded, bytes, "{name}: encoding moved");
        assert_eq!(back, want, "{name}");
    }
    // Every message tag and every enum tag the protocol defines is in
    // the golden set.
    let tags = |prefix: &str| -> Vec<u8> {
        let mut t: Vec<u8> = golden
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, b)| b[0])
            .collect();
        t.dedup();
        t
    };
    assert_eq!(tags("req_"), (1..=8).collect::<Vec<u8>>());
    assert_eq!(tags("resp_"), (1..=8).collect::<Vec<u8>>());
}

/* ---- fuzz ---- */

/// Both decoders over `bytes`: `Ok` or `BadFrame`, never a panic,
/// bounded allocation either way.
fn both_decoders_survive(bytes: &[u8]) {
    let budget = 4 * bytes.len() + 4096;
    let (req, asked) = requested_by(|| Request::decode(bytes));
    assert!(
        asked <= budget,
        "Request::decode asked for {asked} of {budget}"
    );
    let (resp, asked) = requested_by(|| Response::decode(bytes));
    assert!(
        asked <= budget,
        "Response::decode asked for {asked} of {budget}"
    );
    for err in [req.err(), resp.err()].into_iter().flatten() {
        assert!(matches!(err, ServeError::BadFrame { .. }), "{err}");
    }
}

#[test]
fn fuzz_hostile_counts_named_cases() {
    for (name, bytes) in golden::golden() {
        // Every 8-byte window of every golden frame, overwritten with
        // each hostile count: wherever the length fields are, they are
        // hit.
        for at in 0..bytes.len().saturating_sub(7) {
            let remaining = (bytes.len() - at - 8) as u64;
            for hostile in [u64::MAX, 1 << 60, 1 << 32, remaining + 1, remaining / 8 + 1] {
                let mut frame = bytes.clone();
                frame[at..at + 8].copy_from_slice(&hostile.to_le_bytes());
                both_decoders_survive(&frame);
            }
        }
        for cut in 0..bytes.len() {
            both_decoders_survive(&bytes[..cut]);
            assert!(
                Request::decode(&bytes[..cut]).is_err() || !name.starts_with("req_"),
                "{name} cut at {cut} decoded"
            );
        }
    }
}

proptest! {
    #[test]
    fn fuzz_arbitrary_bytes_never_panic_or_over_allocate(
        raw in vec(0u16..256, 0..400),
        tag in 0u16..12,
    ) {
        let mut bytes: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
        // Mostly behind a plausible message tag, so the body parsers run.
        if let Some(first) = bytes.first_mut() {
            if tag < 9 {
                *first = tag as u8;
            }
        }
        both_decoders_survive(&bytes);
    }

    #[test]
    fn fuzz_mutated_golden_frames_never_panic_or_over_allocate(
        which in 0usize..26,
        flips in vec(0usize..4096, 1..5),
        masks in vec(1u16..256, 4),
        cut in 0usize..8192,
        window in 0usize..8192,
        hostile in 0usize..4,
    ) {
        let golden = golden::golden();
        let mut bytes = golden[which % golden.len()].1.clone();
        for (at, mask) in flips.iter().zip(&masks) {
            let at = at % bytes.len();
            bytes[at] ^= *mask as u8;
        }
        // Half the cases also overwrite an 8-byte window with a hostile
        // count; half are truncated somewhere.
        if window < 4096 && bytes.len() >= 8 {
            let at = window % (bytes.len() - 7);
            let remaining = (bytes.len() - at - 8) as u64;
            let value = [u64::MAX, 1 << 60, remaining + 1, remaining / 8 + 1][hostile];
            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
        }
        if cut < 4096 {
            bytes.truncate(cut % bytes.len());
        }
        both_decoders_survive(&bytes);
    }
}
