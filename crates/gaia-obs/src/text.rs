//! Decimal text output without the `fmt` machinery: integers, fixed-
//! precision floats, and the block-buffered [`RowWriter`] every CSV
//! writer shares.
//!
//! The bytes are exactly those of `{}` for integers and `{:.N}` for
//! floats. Integers are written digit by digit. A float takes a fast
//! path only where its decimal digits are provably exact (see
//! [`push_fixed`]); every other value goes through `write!(.., "{:.*}")`,
//! so std stays the one source of truth for near-ties, NaN, infinities
//! and large magnitudes.

use std::io::{self, Write};

/// Rows are appended to a block of this size, which is handed to the
/// inner writer whole. A `BufWriter` passes writes larger than its own
/// buffer straight through, so this also batches the write syscalls.
const BLOCK: usize = 64 * 1024;

/// `10^N` for the precisions the fast path serves; all exact in `f64`.
const POW10: [f64; 6] = [1.0, 10.0, 100.0, 1e3, 1e4, 1e5];

/// `|x|·10^N` must stay below this for the fast path: there ulp ≤ 2^-13,
/// so the rounded product is within 2^-14 of the exact one.
const FAST_LIMIT: f64 = (1u64 << 40) as f64;

/// Fractions closer than this to one half may round either way after
/// the product's rounding error, so they take the std path.
const TIE_GUARD: f64 = 1.0 / 8192.0;

/// Decimal digits of `v`, most significant first, written into `tmp`.
fn digits(mut v: u64, tmp: &mut [u8; 20]) -> &[u8] {
    let mut start = tmp.len();
    loop {
        start -= 1;
        tmp[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            return &tmp[start..];
        }
    }
}

/// Appends `v` in decimal, the bytes of `v.to_string()`.
pub fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(digits(v, &mut [0; 20]));
}

/// [`push_u64`] for a `String`.
pub fn push_u64_str(s: &mut String, v: u64) {
    s.extend(digits(v, &mut [0; 20]).iter().map(|&d| char::from(d)));
}

/// Appends `x` with `prec` fractional digits, the bytes of
/// `format!("{:.prec$}", x)`.
///
/// Fast path: for finite `x` with `s = |x|·10^prec < 2^40` and
/// `prec ≤ 5`, `10^prec` is exact and the computed `s` is within
/// 2^-14 of the exact product. When `s`'s fraction is more than 2^-13
/// from one half, `round(s)` is therefore the exact decimal rounding
/// std prints. The sign comes from `is_sign_negative()`, as std prints
/// `-0.000` for −0.0 and for negatives that round to zero. Every other
/// value is formatted by std.
pub fn push_fixed(buf: &mut Vec<u8>, x: f64, prec: usize) {
    if let Some(&scale) = POW10.get(prec) {
        let s = x.abs() * scale;
        // `<` is false for NaN, so NaN falls through as well.
        if s < FAST_LIMIT {
            let whole = s.floor();
            let frac = s - whole;
            if (frac - 0.5).abs() > TIE_GUARD {
                let n = whole as u64 + u64::from(frac > 0.5);
                if x.is_sign_negative() {
                    buf.push(b'-');
                }
                let unit = scale as u64;
                push_u64(buf, n / unit);
                if prec > 0 {
                    buf.push(b'.');
                    let mut tmp = [0; 20];
                    let fraction = digits(n % unit, &mut tmp);
                    buf.resize(buf.len() + prec - fraction.len(), b'0');
                    buf.extend_from_slice(fraction);
                }
                return;
            }
        }
    }
    write!(buf, "{x:.prec$}").expect("writing to a Vec cannot fail");
}

/// Comma-separated rows appended to a 64 KiB block that is written to
/// the inner writer whole; at most one block is held in memory.
///
/// Fields are separated by commas and written without quoting, so they
/// must not contain commas, quotes or newlines. Call
/// [`RowWriter::finish`]: dropping the writer discards the last block.
pub struct RowWriter<W: Write> {
    out: W,
    buf: Vec<u8>,
    row_start: usize,
}

impl<W: Write> RowWriter<W> {
    /// A writer with an empty block over `out`.
    pub fn new(out: W) -> Self {
        Self {
            out,
            buf: Vec::with_capacity(BLOCK + 1024),
            row_start: 0,
        }
    }

    fn sep(&mut self) {
        if self.buf.len() != self.row_start {
            self.buf.push(b',');
        }
    }

    /// Appends a text field as is.
    pub fn text(&mut self, s: &str) -> &mut Self {
        self.sep();
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    /// Appends an integer field, as `{}` formats it.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.sep();
        push_u64(&mut self.buf, v);
        self
    }

    /// Appends a float field, as `{:.prec$}` formats it.
    pub fn fixed(&mut self, x: f64, prec: usize) -> &mut Self {
        self.sep();
        push_fixed(&mut self.buf, x, prec);
        self
    }

    /// Ends the row, writing the block out once it is full.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the inner writer.
    pub fn end_row(&mut self) -> io::Result<()> {
        self.buf.push(b'\n');
        if self.buf.len() >= BLOCK {
            self.out.write_all(&self.buf)?;
            self.buf.clear();
        }
        self.row_start = self.buf.len();
        Ok(())
    }

    /// Writes the last, partial block. The inner writer is not flushed.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the inner writer.
    pub fn finish(mut self) -> io::Result<()> {
        self.out.write_all(&self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const PRECISIONS: std::ops::RangeInclusive<usize> = 0..=5;

    fn fixed(x: f64, prec: usize) -> String {
        let mut buf = Vec::new();
        push_fixed(&mut buf, x, prec);
        String::from_utf8(buf).expect("ASCII")
    }

    fn assert_std(x: f64) {
        for prec in PRECISIONS {
            assert_eq!(
                fixed(x, prec),
                format!("{x:.prec$}"),
                "x = {x:e} ({:#018x}), prec = {prec}",
                x.to_bits()
            );
        }
    }

    /// `x` and its two neighbours, each with both signs.
    fn assert_around(x: f64) {
        for y in [x.next_down(), x, x.next_up()] {
            assert_std(y);
            assert_std(-y);
        }
    }

    #[test]
    fn special_values_match_std() {
        for x in [
            0.0,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::MAX,
            1e-300,
            4e-6,
            5e-6,
            0.0004999,
            0.0005,
            0.00051,
        ] {
            assert_around(x);
        }
        // std keeps the sign of zero and of negatives that round to it.
        assert_eq!(fixed(-0.0, 3), "-0.000");
        assert_eq!(fixed(-1e-9, 3), "-0.000");
        assert_eq!(fixed(-0.0, 0), "-0");
    }

    #[test]
    fn binary_exact_ties_match_std() {
        for x in [0.5, 1.5, 2.5, 0.125, 0.375, 0.0625, 1.03125, 1e5 + 0.5] {
            assert_around(x);
        }
    }

    #[test]
    fn fast_path_bound_matches_std() {
        for prec in PRECISIONS {
            let bound = FAST_LIMIT / POW10[prec];
            for x in [bound, bound * 2.0, bound * 1e3, bound / 2.0, 1e15, 1e22] {
                assert_around(x);
            }
        }
    }

    #[test]
    fn integers_match_to_string() {
        for v in [0, 1, 9, 10, 99, 100, 1_000_000, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            push_u64(&mut buf, v);
            assert_eq!(buf, v.to_string().into_bytes());
            let mut s = String::from("x");
            push_u64_str(&mut s, v);
            assert_eq!(s, format!("x{v}"));
        }
    }

    #[test]
    fn rows_are_comma_separated_and_blocked() {
        let mut out = Vec::new();
        let mut rows = RowWriter::new(&mut out);
        rows.text("a,b").end_row().expect("vec");
        for i in 0..10_000u64 {
            rows.u64(i).fixed(i as f64 / 8.0, 2).end_row().expect("vec");
        }
        rows.finish().expect("vec");
        let mut expected = String::from("a,b\n");
        for i in 0..10_000u64 {
            expected.push_str(&format!("{i},{:.2}\n", i as f64 / 8.0));
        }
        assert_eq!(String::from_utf8(out).expect("ASCII"), expected);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn random_bit_patterns_match_std(bits in 0u64..=u64::MAX) {
            assert_std(f64::from_bits(bits));
        }

        #[test]
        fn magnitudes_match_std(mantissa in 0.0f64..1.0, exp in -330i32..=60) {
            assert_around(mantissa * 10f64.powi(exp));
        }

        #[test]
        fn subnormals_match_std(bits in 1u64..(1u64 << 52)) {
            assert_around(f64::from_bits(bits));
        }

        #[test]
        fn decimal_ties_match_std(k in 0u64..(1u64 << 40), prec in PRECISIONS) {
            // (k + 0.5)/10^N is a tie in decimal, but rarely exact in
            // binary: the nearest doubles sit on both sides of it.
            let x = (k as f64 + 0.5) / POW10[prec];
            assert_around(x);
        }

        #[test]
        fn binary_ties_match_std(k in 0u64..(1u64 << 30), shift in 1u32..=10) {
            // k/2^shift is exact; with an odd k every one of these is a
            // tie at some precision N < shift.
            assert_around((2 * k + 1) as f64 / f64::from(1u32 << shift));
        }

        #[test]
        fn random_integers_match_to_string(v in 0u64..=u64::MAX) {
            let mut buf = Vec::new();
            push_u64(&mut buf, v);
            prop_assert_eq!(buf, v.to_string().into_bytes());
        }
    }
}
