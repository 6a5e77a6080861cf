//! The one byte codec: how a value is laid out in bytes, and the only
//! reader allowed to walk bytes this process did not write.
//!
//! The serve protocol's frames (`nmf_serve::protocol`) and the
//! checkpoint file ([`crate::checkpoint`]) are one house style —
//! little-endian scalars, IEEE-754 `f64` bit patterns, `usize` as `u64`,
//! `u32`-prefixed UTF-8, a one-byte `Option` flag, a `u64`-prefixed
//! `f64` array — and share this module so that
//!
//! * **the bound is enforced by the type, not by each caller**: a
//!   [`Reader`] consumes input only through [`Reader::take`], which
//!   compares against [`Reader::remaining`] (never `pos + n`, which a
//!   crafted length could overflow), and a count is checked against the
//!   bytes present before it sizes anything — no byte string can make a
//!   decoder read out of bounds, overflow, or reserve more than a small
//!   multiple of its own length;
//! * **a layout is written once**: [`record!`](crate::record) and
//!   [`choice!`](crate::choice) take one field list (one tag table) and
//!   generate both directions of [`Wire`], so they cannot drift apart.
//!
//! It also holds the checkpoint's [`checksum`], since summing a stored
//! block means reading its little-endian words.

use std::fmt;

/// Why a byte string did not decode, and how far decoding got.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error {
    /// Bytes consumed when decoding stopped.
    pub offset: usize,
    pub reason: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.reason, self.offset)
    }
}

impl std::error::Error for Error {}

/// A cursor over untrusted bytes that cannot read past its input.
#[derive(Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// An [`Error`] at the current position.
    pub fn fail(&self, reason: impl Into<String>) -> Error {
        Error {
            offset: self.pos,
            reason: reason.into(),
        }
    }

    /// The next `n` bytes — the only way input is consumed.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        let left = self.remaining();
        if n > left {
            return Err(self.fail(format!("truncated: needed {n} bytes, {left} remain")));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The payload bytes of `n` consecutive `f64`s, `n` checked against
    /// the bytes present *before* it is multiplied or sizes anything.
    pub fn f64_bytes(&mut self, n: usize) -> Result<&'a [u8], Error> {
        let left = self.remaining();
        if n > left / 8 {
            return Err(self.fail(format!("array claims {n} values, {left} bytes remain")));
        }
        self.take(8 * n)
    }

    /// `n` consecutive `f64`s (bounded as [`f64_bytes`](Self::f64_bytes)).
    pub fn f64s(&mut self, n: usize) -> Result<Vec<f64>, Error> {
        let raw = self.f64_bytes(n)?.chunks_exact(8);
        Ok(raw
            .map(|c| f64::from_le_bytes(c.try_into().expect("chunks of 8")))
            .collect())
    }

    /// `dst.len()` consecutive `f64`s decoded into `dst` (bounded as
    /// [`f64_bytes`](Self::f64_bytes)) and fed to `sum` in the same
    /// pass: a page of values is decoded, then summed while it is still
    /// in L1.
    pub(crate) fn f64s_into(&mut self, dst: &mut [f64], sum: &mut Checksum) -> Result<(), Error> {
        let raw = self.f64_bytes(dst.len())?;
        for (page, bytes) in dst.chunks_mut(PAGE).zip(raw.chunks(8 * PAGE)) {
            for (x, b) in page.iter_mut().zip(bytes.chunks_exact(8)) {
                *x = f64::from_le_bytes(b.try_into().expect("chunks of 8"));
            }
            sum.f64s(page);
        }
        Ok(())
    }

    /// Rejects input left over after a complete value.
    pub fn finish(&self) -> Result<(), Error> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(self.fail(format!("{n} trailing bytes after the value"))),
        }
    }
}

/// A value with one byte layout: `get(put(x)) == x`, and `get` of
/// anything else is an [`Error`], never a panic.
pub trait Wire: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn get(r: &mut Reader<'_>) -> Result<Self, Error>;
}

/// `x` as a fresh byte string.
pub fn encode<T: Wire>(x: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    x.put(&mut out);
    out
}

/// The `T` that `bytes` spell, all of them (trailing bytes are an error).
pub fn decode<T: Wire>(bytes: &[u8]) -> Result<T, Error> {
    let mut r = Reader::new(bytes);
    let x = T::get(&mut r)?;
    r.finish().map(|()| x)
}

/// Appends `xs` as raw little-endian `f64`s, no count: one reservation,
/// one slice-level loop.
pub fn put_f64s(out: &mut Vec<u8>, xs: &[f64]) {
    out.reserve(8 * xs.len());
    for x in xs {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// Values per page of [`write_f64s`] and [`Reader::f64s_into`].
const PAGE: usize = 512;

/// Writes `xs` to `out` as raw little-endian `f64`s, no count, a page at
/// a time through a stack buffer, and returns the [`Checksum`] of their
/// words.
pub(crate) fn write_f64s(out: &mut impl std::io::Write, xs: &[f64]) -> std::io::Result<u64> {
    let mut buf = [0u8; 8 * PAGE];
    let mut sum = Checksum::default();
    for page in xs.chunks(PAGE) {
        let bytes = &mut buf[..8 * page.len()];
        for (b, x) in bytes.chunks_exact_mut(8).zip(page) {
            b.copy_from_slice(&x.to_le_bytes());
        }
        sum.f64s(page);
        out.write_all(bytes)?;
    }
    Ok(sum.finish())
}

/// Multiplier of a checksum lane step: odd, so multiplying by it is a
/// bijection of `u64`.
const SUM_K: u64 = 0x9E37_79B9_7F4A_7C15;
/// Rotation of a checksum lane step.
const SUM_R: u32 = 29;

/// One lane step. For a fixed `word` it is a bijection of `lane`, and
/// for a fixed `lane` a bijection of `word`.
#[inline(always)]
fn mix(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(SUM_K).rotate_left(SUM_R)
}

/// The word-wise checksum of a checkpoint's header and of each of its
/// factor blocks.
///
/// Word `i` of the stream goes to lane `i % 4` as
/// `lane = (lane ^ word)·K rotl R`; [`finish`](Self::finish) folds the
/// four lanes, one step each, into the word count. Each step is a
/// bijection of its state for a fixed word, and of the word for a fixed
/// state, so two streams of the same length that differ in one word
/// always have different sums — a detection guarantee, not a
/// probability. The lanes are independent chains, so a core runs them
/// side by side: about a cycle per 8-byte word.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Checksum {
    lanes: [u64; 4],
    words: u64,
}

impl Checksum {
    /// Feeds one word.
    #[inline]
    fn word(&mut self, word: u64) {
        let lane = &mut self.lanes[(self.words % 4) as usize];
        *lane = mix(*lane, word);
        self.words += 1;
    }

    /// Feeds the bit patterns of `xs`: the little-endian words a file
    /// stores them as.
    pub(crate) fn f64s(&mut self, xs: &[f64]) {
        let lead = xs.len().min(((4 - self.words % 4) % 4) as usize);
        let (head, body) = xs.split_at(lead);
        head.iter().for_each(|x| self.word(x.to_bits()));
        let mut quads = body.chunks_exact(4);
        let mut lanes = self.lanes;
        for quad in &mut quads {
            for (lane, x) in lanes.iter_mut().zip(quad) {
                *lane = mix(*lane, x.to_bits());
            }
        }
        self.lanes = lanes;
        self.words += (body.len() - quads.remainder().len()) as u64;
        quads
            .remainder()
            .iter()
            .for_each(|x| self.word(x.to_bits()));
    }

    /// The sum of the words fed so far.
    pub(crate) fn finish(&self) -> u64 {
        self.lanes.iter().fold(self.words, |h, &lane| mix(h, lane))
    }
}

/// The `Checksum` of `bytes` read as little-endian words, a byte tail
/// zero-padded into one last word. For bytes that spell `f64`s it is
/// the sum of their bit patterns.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut sum = Checksum::default();
    for chunk in bytes.chunks(8) {
        let mut word = [0; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        sum.word(u64::from_le_bytes(word));
    }
    sum.finish()
}

macro_rules! le_scalar {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, Error> {
                let raw = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(raw.try_into().expect("take returns the length asked for")))
            }
        }
    )*};
}

le_scalar!(u8, u32, u64, f64);

// One byte; any nonzero value reads as `true`.
crate::record!(bool as b => { byte: u8 = u8::from(*b) } => Ok(byte != 0));

// `u64`, whatever the platform's pointer width.
crate::record!(usize as x => { wide: u64 = *x as u64 } => {
    usize::try_from(wide).map_err(|_| format!("{wide} does not fit in usize"))
});

/// `u32` byte length, then UTF-8.
impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        let len = u32::try_from(self.len()).expect("string fields are far below 4 GiB");
        len.put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, Error> {
        let len = u32::get(r)? as usize;
        let raw = r.take(len)?.to_vec();
        String::from_utf8(raw).map_err(|_| r.fail("string field is not UTF-8"))
    }
}

/// One flag byte (`0` absent, `1` present), then the value.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(self.is_some()));
        if let Some(x) = self {
            x.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, Error> {
        match u8::get(r)? {
            0 => Ok(None),
            1 => T::get(r).map(Some),
            t => Err(r.fail(format!("unknown option flag {t}"))),
        }
    }
}

/// `u64` count, then that many `f64`s.
impl Wire for Vec<f64> {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        put_f64s(out, self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, Error> {
        let n = usize::get(r)?;
        r.f64s(n)
    }
}

/// Implements [`Wire`] for a struct from **one** field list; the order
/// written is the order on the wire, in both directions.
///
/// * `record!(T { a, b, c })` — `T`'s own fields, each a [`Wire`] type.
/// * `record!(T as t => { a: A = t.x, b: B = f(t) } => build)` — for a
///   type stored in another shape than its own: each wire field names
///   its type and the expression yielding it from `t: &T`; `build` sees
///   the decoded fields by name and evaluates to `Result<T, String>`
///   (it may use `?`).
#[macro_export]
macro_rules! record {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $( $crate::wire::Wire::put(&self.$field, out); )+
            }
            fn get(r: &mut $crate::wire::Reader<'_>) -> Result<Self, $crate::wire::Error> {
                Ok(Self { $( $field: $crate::wire::Wire::get(r)? ),+ })
            }
        }
    };
    ($ty:ty as $this:ident => { $($field:ident : $fty:ty = $from:expr),+ $(,)? } => $build:expr) => {
        impl $crate::wire::Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                let $this = self;
                $( <$fty as $crate::wire::Wire>::put(&$from, out); )+
            }
            fn get(r: &mut $crate::wire::Reader<'_>) -> Result<Self, $crate::wire::Error> {
                $( let $field = <$fty as $crate::wire::Wire>::get(r)?; )+
                let build = || -> Result<Self, String> { $build };
                build().map_err(|why| r.fail(why))
            }
        }
    };
}

/// Implements [`Wire`] for an enum from **one** tag table:
/// `choice!(T: u8, "what" { 1 => A { x, y }, 2 => B(inner), 3 => C })`.
/// The tag travels first, as the given integer type, then the variant's
/// fields in the order written; an unlisted tag is an [`Error`] naming
/// `what`. A trailing `; check` (a `fn(&T) -> Result<(), String>`)
/// validates the decoded value across its fields.
#[macro_export]
macro_rules! choice {
    ($ty:ty : $tag:ty, $what:literal {
        $( $t:literal => $variant:ident $({ $($field:ident),* $(,)? })? $(( $inner:ident ))? ),+ $(,)?
    } $(; $check:expr)?) => {
        impl $crate::wire::Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $( Self::$variant $({ $($field),* })? $(( $inner ))? => {
                        <$tag as $crate::wire::Wire>::put(&$t, out);
                        $( $( $crate::wire::Wire::put($field, out); )* )?
                        $( $crate::wire::Wire::put($inner, out); )?
                    } )+
                }
            }
            fn get(r: &mut $crate::wire::Reader<'_>) -> Result<Self, $crate::wire::Error> {
                let value = match <$tag as $crate::wire::Wire>::get(r)? {
                    $( $t => Self::$variant
                        $({ $($field: $crate::wire::Wire::get(r)?),* })?
                        $(( { let $inner = $crate::wire::Wire::get(r)?; $inner } ))?, )+
                    t => return Err(r.fail(format!("unknown {} tag {t}", $what))),
                };
                $( $check(&value).map_err(|why: String| r.fail(why))?; )?
                Ok(value)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Point {
        x: u32,
        label: Option<String>,
        ys: Vec<f64>,
    }
    record!(Point { x, label, ys });

    #[derive(Debug, PartialEq)]
    enum Shape {
        Dot,
        At(Point),
        Box { w: usize, h: usize },
    }
    fn no_flat_boxes(s: &Shape) -> Result<(), String> {
        match s {
            Shape::Box { w: 0, .. } | Shape::Box { h: 0, .. } => Err("flat box".into()),
            _ => Ok(()),
        }
    }
    choice!(Shape: u8, "shape" { 0 => Dot, 1 => At(p), 2 => Box { w, h } }; no_flat_boxes);

    /// Stored as its two corners' sum and difference.
    #[derive(Debug, PartialEq)]
    struct Span(u64, u64);
    record!(Span as s => { sum: u64 = s.0 + s.1, diff: u64 = s.1 - s.0 } => {
        if sum < diff || !(sum - diff).is_multiple_of(2) {
            Err(format!("no span has sum {sum} and width {diff}"))
        } else {
            Ok(Span((sum - diff) / 2, (sum + diff) / 2))
        }
    });

    #[test]
    fn records_and_choices_round_trip_in_declared_order() {
        let p = Point {
            x: 7,
            label: Some("é".into()),
            ys: vec![1.5, -0.0, f64::INFINITY],
        };
        let bytes = encode(&p);
        let mut expect = vec![
            7, 0, 0, 0, 1, 2, 0, 0, 0, 0xC3, 0xA9, 3, 0, 0, 0, 0, 0, 0, 0,
        ];
        for y in &p.ys {
            expect.extend_from_slice(&y.to_le_bytes());
        }
        assert_eq!(bytes, expect);
        assert_eq!(decode::<Point>(&bytes), Ok(p));

        for s in [Shape::Dot, Shape::Box { w: 3, h: 1 << 40 }] {
            assert_eq!(decode::<Shape>(&encode(&s)), Ok(s));
        }
        assert_eq!(encode(&Shape::Dot), [0]);
        assert_eq!(decode::<Span>(&encode(&Span(3, 11))), Ok(Span(3, 11)));
    }

    #[test]
    fn every_malformation_is_an_error_with_its_offset() {
        let bytes = encode(&Shape::At(Point {
            x: 1,
            label: None,
            ys: vec![2.0],
        }));
        for cut in 0..bytes.len() {
            assert!(decode::<Shape>(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(decode::<Shape>(&trailing).unwrap_err().offset, bytes.len());

        assert_eq!(
            decode::<Shape>(&[9]).unwrap_err().reason,
            "unknown shape tag 9"
        );
        // Decoding stopped after the option flag (tag, x, flag).
        let e = decode::<Shape>(&[1, 0, 0, 0, 0, 2]).unwrap_err();
        assert_eq!((e.offset, e.reason.as_str()), (6, "unknown option flag 2"));
        // The cross-field check and the mapped builder refuse too.
        let flat = encode(&Shape::Box { w: 0, h: 4 });
        assert_eq!(decode::<Shape>(&flat).unwrap_err().reason, "flat box");
        let mut odd = encode(&3u64);
        odd.extend(encode(&0u64));
        assert!(decode::<Span>(&odd).unwrap_err().reason.contains("no span"));
        // Non-UTF-8 string.
        assert!(decode::<String>(&[1, 0, 0, 0, 0xFF]).is_err());
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_present_before_anything_is_sized() {
        for claim in [u64::MAX, 1 << 60, 3] {
            let mut bytes = encode(&claim);
            bytes.extend_from_slice(&[0; 16]); // two values present
            let e = decode::<Vec<f64>>(&bytes).unwrap_err();
            assert_eq!(e.offset, 8, "{e}");
        }
        let mut r = Reader::new(&[0; 4]);
        assert!(r.take(usize::MAX).is_err());
        assert_eq!(r.remaining(), 4, "a refused take consumes nothing");
        // A string length beyond the input.
        assert!(decode::<String>(&[0xFF, 0xFF, 0xFF, 0xFF, b'a']).is_err());
        let mut r = Reader::new(&[0; 16]);
        assert!(r
            .f64s_into(&mut [0.0; 3], &mut Checksum::default())
            .is_err());
        assert_eq!(r.remaining(), 16);
    }

    fn sum_of(xs: &[f64]) -> u64 {
        let mut sum = Checksum::default();
        sum.f64s(xs);
        sum.finish()
    }

    #[test]
    fn checksum_detects_every_change_confined_to_one_word() {
        let xs: Vec<f64> = (0..11).map(|i| f64::from(i) * 0.75 - 2.0).collect();
        let base = sum_of(&xs);
        for i in 0..xs.len() {
            for flip in (0..64)
                .map(|b| 1u64 << b)
                .chain([u64::MAX, 0x8000_0000_0000_0001])
            {
                let mut ys = xs.clone();
                ys[i] = f64::from_bits(ys[i].to_bits() ^ flip);
                assert_ne!(sum_of(&ys), base, "word {i} ^ {flip:#x}");
            }
        }
        // The word count is folded in: a stream is not its zero-extension.
        assert_ne!(checksum(&[]), checksum(&[0; 8]));
        assert_ne!(sum_of(&xs[..4]), sum_of(&[&xs[..4], &[0.0]].concat()));
    }

    #[test]
    fn checksum_of_bytes_is_the_sum_of_the_f64s_they_spell_fed_in_any_pieces() {
        let xs: Vec<f64> = (0..1037).map(|i| f64::from(i).sqrt()).collect();
        let mut bytes = Vec::new();
        put_f64s(&mut bytes, &xs);
        let whole = checksum(&bytes);
        assert_eq!(sum_of(&xs), whole);
        for cut in [0, 1, 3, 4, 5, 517, 1036] {
            let mut sum = Checksum::default();
            sum.f64s(&xs[..cut]);
            sum.f64s(&xs[cut..]);
            assert_eq!(sum.finish(), whole, "cut at {cut}");
        }
        let mut written = Vec::new();
        assert_eq!(write_f64s(&mut written, &xs).ok(), Some(whole));
        assert_eq!(written, bytes);
        let mut back = vec![0.0; xs.len()];
        let mut sum = Checksum::default();
        for (dst, src) in back.chunks_mut(100).zip(bytes.chunks(800)) {
            assert_eq!(Reader::new(src).f64s_into(dst, &mut sum), Ok(()));
        }
        assert_eq!((sum.finish(), back), (whole, xs));
        // A byte tail is zero-padded into one last word.
        assert_eq!(checksum(&[1, 2, 3]), checksum(&[1, 2, 3, 0, 0, 0, 0, 0]));
    }
}
