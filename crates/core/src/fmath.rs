//! The crate's `f32` `exp2` and `powf`: one faithful, branch-free,
//! lane-parallel kernel behind the non-linear masking and the gamma curve.
//!
//! The masking stage costs two transcendentals per sample — `exp2` for the
//! mask-driven exponent, `powf` for the correction — and as scalar libm
//! calls they dominated the streaming point chain. The paper's extension
//! rebuilds the same stage as `exp2`/`log2` cores (`codesign::extension`);
//! this module is the software analogue. `powf(x, y)` is
//! `exp2(y · log2 |x|)`, both halves short polynomials evaluated in `f64`
//! (no table, no libm call, no branch per lane), and every function is
//! split into stages that a block of [`LANES`] samples runs one at a time,
//! so each stage compiles to a loop of independent vector chains. A block
//! whose bases are all positive and finite and whose exponents are all
//! finite — the usual image row — skips the `f32` finish of [`powf`],
//! which returns the magnitude unchanged for such lanes:
//!
//! | function | `f64` stages | `f32` finish |
//! |---|---|---|
//! | [`exp2`] | `2^x` | NaN input |
//! | [`powf`] | `log2 |x|`, then `2^(y · log2 |x|)` | zero and infinite bases, sign, NaN, exact cases |
//!
//! # Numeric contract
//!
//! * [`exp2`] and [`powf`] are within 1 ULP of the `f64` reference
//!   (`(x as f64).exp2() as f32`, `(x as f64).powf(y as f64) as f32`) for
//!   every input. The `f64` intermediate is accurate to about 2⁻³⁸
//!   (`exp2`) and 2⁻³⁷ (`powf` at the edge of its range), so the rounded
//!   result is almost always the correctly rounded one; `exp2` is exact at
//!   integers and `powf` at powers of two raised to integers.
//! * Special values follow C99 `exp2f`/`powf`: `exp2(+∞) = +∞`,
//!   `exp2(−∞) = +0`, `exp2(NaN)` is NaN; `powf(x, ±0) = powf(1, y) = 1`
//!   even for NaN, `powf(−1, ±∞) = 1`, signed zeros and infinities for zero
//!   and infinite bases, NaN for a negative finite base with a non-integer
//!   exponent. Overflow gives `+∞` and underflow rounds through the
//!   subnormals to `+0`.
//! * The scalar functions and the block and row forms run the same stages,
//!   so a row processed a block at a time is bit-identical to the same
//!   samples processed one by one, at any row width. That is what keeps the
//!   two-pass stage functions and the streaming planner's op-major rows
//!   bit-identical at any thread count.
//!
//! There is deliberately no second, "exact" variant and no switch: these
//! are the only `f32` definitions of the two ops in the crate
//! ([`crate::Sample`]'s `f32` impl and [`crate::masking::exponent_for_mask`]
//! call them). The accuracy is checked exhaustively for `exp2` and on 10⁸
//! seeded pairs for `powf` by `cargo run -p bench --release --bin fmath`.

/// Samples per block: sixteen 4-lane `f64` vectors per stage on an AVX2
/// target, enough independent chains to keep the FMA units busy instead of
/// waiting on the polynomials' latency.
pub const LANES: usize = 64;

/// `1.5 · 2⁵²`: adding it to an `f64` of magnitude below 2⁵¹ rounds the
/// value to the nearest integer (ties to even) and leaves that integer in
/// the low mantissa bits.
const ROUND_SHIFT: f64 = 6_755_399_441_055_744.0;

/// Clamp range of the `exp2` argument: below −151 the `f32` result is `+0`
/// and above 129 it is `+∞`, and inside it `2^k` stays a normal `f64`.
const EXP2_MIN: f64 = -151.0;
const EXP2_MAX: f64 = 129.0;

/// `(2^r − 1) / r` on `r ∈ [−½, ½]`, ascending coefficients (Chebyshev fit;
/// relative error of `1 + r·q(r)` below 2⁻³⁸).
const EXP2_Q: [f64; 8] = [
    0.693_147_180_556_832_4,
    0.240_226_506_958_885_03,
    0.055_504_109_063_258_665,
    0.009_618_129_135_236_14,
    0.001_333_347_847_368_541_6,
    0.000_154_034_751_865_307_86,
    1.530_370_071_136_569_3e-5,
    1.325_080_551_750_225e-6,
];

/// `log2(m) / f` as a polynomial in `s = f²`, `f = (m − 1)/(m + 1)`, for
/// `m ∈ [√½, √2)` (`s ≤ 0.0295`; relative error below 2⁻⁴⁵).
const LOG2_P: [f64; 6] = [
    2.885_390_081_777_850_4,
    0.961_796_694_112_359_5,
    0.577_077_942_630_261_8,
    0.412_209_227_330_524_45,
    0.319_906_660_889_147_4,
    0.282_887_182_630_735_65,
];

/// `f64` bits of `√½`: subtracting it splits a positive `f64` into an
/// exponent and a mantissa in `[√½, √2)`.
const SQRT_HALF_BITS: u64 = 0x3fe6_a09e_667f_3bcd;
/// Bias added before the split so the exponent field stays non-negative.
const EXP_BIAS: u64 = 1024 << 52;
const EXP_FIELD: u64 = 0xfff << 52;
/// `f64` bits of `2⁵²`: OR-ing a small integer into them and subtracting
/// `2⁵²` converts it to `f64` without an integer-to-float instruction.
const TWO_52_BITS: u64 = 0x4330_0000_0000_0000;
/// The sign bit of an `f32`.
const SIGN_BIT: u32 = 1 << 31;

/// `2^t` for `t ∈ [EXP2_MIN, EXP2_MAX]`, accurate to about 2⁻³⁸ relative.
/// Exact at integers.
///
/// The polynomials here and in [`log2_core`] use Horner's rule: a block's
/// lanes are independent, so a stage is bound by the multiply-add ports
/// rather than by latency, and Horner needs the fewest operations.
#[inline(always)]
fn exp2_core(t: f64) -> f64 {
    let shifted = t + ROUND_SHIFT;
    let k = shifted - ROUND_SHIFT;
    let r = t - k;
    let [c0, c1, c2, c3, c4, c5, c6, c7] = EXP2_Q;
    let q = r.mul_add(c7, c6);
    let q = q.mul_add(r, c5);
    let q = q.mul_add(r, c4);
    let q = q.mul_add(r, c3);
    let q = q.mul_add(r, c2);
    let q = q.mul_add(r, c1);
    let q = q.mul_add(r, c0);
    let p = r.mul_add(q, 1.0);
    // Add k to p's exponent field: the low bits of `shifted` hold k in
    // two's complement, and the shift drops everything above them.
    f64::from_bits(p.to_bits().wrapping_add(shifted.to_bits() << 52))
}

/// `log2(a)` for a positive, finite, normal `a` (every positive finite
/// `f32` is normal as an `f64`), accurate to about 2⁻⁴⁵ relative in the
/// mantissa part. Exact at powers of two.
#[inline(always)]
fn log2_core(a: f64) -> f64 {
    let bits = a.to_bits();
    let split = bits.wrapping_add(EXP_BIAS).wrapping_sub(SQRT_HALF_BITS);
    let biased_exponent = split >> 52;
    let m = f64::from_bits(bits.wrapping_sub(split & EXP_FIELD).wrapping_add(EXP_BIAS));
    let e = f64::from_bits(TWO_52_BITS | biased_exponent) - (4_503_599_627_370_496.0 + 1024.0);
    let f = (m - 1.0) / (m + 1.0);
    let s = f * f;
    let [p0, p1, p2, p3, p4, p5] = LOG2_P;
    let p = s.mul_add(p5, p4);
    let p = p.mul_add(s, p3);
    let p = p.mul_add(s, p2);
    let p = p.mul_add(s, p1);
    let p = p.mul_add(s, p0);
    f.mul_add(p, e)
}

/// Clamps an `exp2` argument into the range [`exp2_core`] handles; NaN
/// passes through (callers select the NaN result themselves).
#[inline(always)]
fn clamp_exponent(t: f64) -> f64 {
    let t = if t < EXP2_MIN { EXP2_MIN } else { t };
    if t > EXP2_MAX {
        EXP2_MAX
    } else {
        t
    }
}

/// The `f64` stage of [`exp2`]: `2^x` rounded to `f32`, before the NaN
/// fix-up.
#[inline(always)]
fn exp2_stage(x: f32) -> f32 {
    exp2_core(clamp_exponent(x as f64)) as f32
}

/// The last stage of [`exp2`]: restores a NaN input.
#[inline(always)]
fn exp2_finish(x: f32, power: f32) -> f32 {
    if x.is_nan() {
        x
    } else {
        power
    }
}

/// The first stage of [`powf`]: `log2 |x|` for a finite, non-zero `x`
/// (any value otherwise; [`powf_finish`] overrides those lanes).
#[inline(always)]
fn log2_stage(x: f32) -> f64 {
    log2_core(x.abs() as f64)
}

/// The second stage of [`powf`]: `2^(y · log2 |x|)` rounded to `f32`.
#[inline(always)]
fn pow_stage(y: f32, log2_x: f64) -> f32 {
    exp2_core(clamp_exponent(y as f64 * log2_x)) as f32
}

/// The last stage of [`powf`], all in `f32`: zero and infinite bases, the
/// sign, NaN and the exact cases.
#[inline(always)]
fn powf_finish(x: f32, y: f32, magnitude: f32) -> f32 {
    let ax = x.abs();
    // |x| = 0 or ∞ means log2 |x| = ∓∞, so |x|^y is +∞ when "base
    // infinite" and "exponent positive" agree, and +0 when they differ.
    let zero_or_inf = (ax == 0.0) | (ax == f32::INFINITY);
    let huge = (ax == f32::INFINITY) == (y > 0.0);
    let limit = if huge { f32::INFINITY } else { 0.0 };
    let magnitude = if zero_or_inf { limit } else { magnitude };
    // Every |y| ≥ 2²⁴, ±∞ included, counts as an even integer.
    let y_integer = y == y.trunc();
    let half = y * 0.5;
    let y_odd = y_integer & (half != half.trunc());
    let negative = x.is_sign_negative();
    let r = if negative & y_odd {
        -magnitude
    } else {
        magnitude
    };
    let r = if negative & !y_integer & !zero_or_inf {
        f32::NAN
    } else {
        r
    };
    let r = if x.is_nan() | y.is_nan() { f32::NAN } else { r };
    let r = if (y == 0.0) | (x == 1.0) { 1.0 } else { r };
    if (x == -1.0) & y.is_infinite() {
        1.0
    } else {
        r
    }
}

/// Distance in units in the last place between two `f32` values, counting
/// across zero (so `-0.0` and `+0.0` are 0 apart and the largest finite
/// value is 1 from infinity); `None` when exactly one of them is NaN, and
/// 0 when both are. The unit of this module's accuracy contract.
pub fn ulps(a: f32, b: f32) -> Option<u64> {
    fn ordinal(x: f32) -> i64 {
        let bits = x.to_bits() as i32;
        i64::from(if bits < 0 { i32::MIN - bits } else { bits })
    }
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Some(0),
        (false, false) => Some(ordinal(a).abs_diff(ordinal(b))),
        _ => None,
    }
}

/// `2^x`, within 1 ULP of `(x as f64).exp2() as f32`.
#[inline]
pub fn exp2(x: f32) -> f32 {
    exp2_finish(x, exp2_stage(x))
}

/// `x^y`, within 1 ULP of `(x as f64).powf(y as f64) as f32`.
#[inline]
pub fn powf(x: f32, y: f32) -> f32 {
    powf_finish(x, y, pow_stage(y, log2_stage(x)))
}

/// [`exp2`] of every lane of a block, in place: the same stages as the
/// scalar function, each run across the whole block before the next, so
/// the block compiles to independent vector chains.
#[inline]
pub fn exp2_block(x: &mut [f32; LANES]) {
    let power: [f32; LANES] = std::array::from_fn(|i| exp2_stage(x[i]));
    for (x, &p) in x.iter_mut().zip(&power) {
        *x = exp2_finish(*x, p);
    }
}

/// [`powf`] of every lane of a block with the matching lane of `y`, in
/// place, stage by stage like [`exp2_block`].
///
/// The last, `f32` stage of [`powf`] returns the magnitude unchanged for a
/// positive finite base with a finite exponent, so a block of only such
/// lanes — the usual case in an image row — skips it; the result is the
/// same bits.
#[inline]
pub fn powf_block(x: &mut [f32; LANES], y: &[f32; LANES]) {
    let log2_x: [f64; LANES] = std::array::from_fn(|i| log2_stage(x[i]));
    let magnitude: [f32; LANES] = std::array::from_fn(|i| pow_stage(y[i], log2_x[i]));
    // Integer tests, which vectorise to fewer instructions than the float
    // comparisons: the bits of a positive finite `f32` are 1 ..= the bits
    // of `f32::MAX`, and a finite one has an absolute value below `+∞`'s.
    let ordinary = x.iter().zip(y).fold(true, |all, (&x, &y)| {
        let positive_finite = x.to_bits().wrapping_sub(1) < f32::MAX.to_bits();
        let finite = (y.to_bits() & !SIGN_BIT) < f32::INFINITY.to_bits();
        all & positive_finite & finite
    });
    if ordinary {
        *x = magnitude;
        return;
    }
    for ((x, &y), &m) in x.iter_mut().zip(y).zip(&magnitude) {
        *x = powf_finish(*x, y, m);
    }
}

/// Runs `f` over `row` a block of [`LANES`] samples at a time. A partial
/// last block is padded with ones, processed whole and copied back, so
/// every sample goes through the same lane arithmetic.
#[inline]
pub fn map_blocks(row: &mut [f32], mut f: impl FnMut(&mut [f32; LANES])) {
    let mut blocks = row.chunks_exact_mut(LANES);
    for block in &mut blocks {
        f(block.try_into().expect("chunks are LANES long"));
    }
    let tail = blocks.into_remainder();
    if !tail.is_empty() {
        let mut block = [1.0; LANES];
        block[..tail.len()].copy_from_slice(tail);
        f(&mut block);
        tail.copy_from_slice(&block[..tail.len()]);
    }
}

/// [`map_blocks`] over `row` paired with the matching blocks of a second
/// stream `aux`.
///
/// # Panics
///
/// Panics if `aux` is shorter than `row`.
#[inline]
pub fn zip_blocks(
    row: &mut [f32],
    aux: &[f32],
    mut f: impl FnMut(&mut [f32; LANES], &[f32; LANES]),
) {
    let aux = &aux[..row.len()];
    let mut blocks = row.chunks_exact_mut(LANES);
    let mut aux_blocks = aux.chunks_exact(LANES);
    for (block, aux_block) in (&mut blocks).zip(&mut aux_blocks) {
        f(
            block.try_into().expect("chunks are LANES long"),
            aux_block.try_into().expect("chunks are LANES long"),
        );
    }
    let tail = blocks.into_remainder();
    if !tail.is_empty() {
        let mut block = [1.0; LANES];
        let mut aux_block = [1.0; LANES];
        block[..tail.len()].copy_from_slice(tail);
        aux_block[..tail.len()].copy_from_slice(aux_blocks.remainder());
        f(&mut block, &aux_block);
        tail.copy_from_slice(&block[..tail.len()]);
    }
}

/// [`exp2`] of every sample of `row`, in place.
pub fn exp2_row(row: &mut [f32]) {
    map_blocks(row, exp2_block);
}

/// [`powf`] of every sample of `row` with the matching sample of `y`, in
/// place.
///
/// # Panics
///
/// Panics if `y` is shorter than `row`.
pub fn powf_row(row: &mut [f32], y: &[f32]) {
    zip_blocks(row, y, powf_block);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp2_reference(x: f32) -> f32 {
        (x as f64).exp2() as f32
    }

    fn powf_reference(x: f32, y: f32) -> f32 {
        (x as f64).powf(y as f64) as f32
    }

    fn assert_within_1_ulp(got: f32, want: f32, what: &str) {
        let d = ulps(got, want);
        assert!(
            d.is_some_and(|d| d <= 1),
            "{what}: got {got:e} ({:#010x}), reference {want:e} ({:#010x})",
            got.to_bits(),
            want.to_bits()
        );
    }

    /// Bitwise equality, with any NaN equal to any NaN.
    fn assert_same(got: f32, want: f32, what: &str) {
        assert!(
            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
            "{what}: got {got:e}, want {want:e}"
        );
    }

    const SUBNORMAL: f32 = 1.0e-40;

    #[test]
    fn ulps_counts_across_zero_and_to_infinity() {
        assert_eq!(ulps(1.0, 1.0), Some(0));
        assert_eq!(ulps(0.0, -0.0), Some(0));
        assert_eq!(ulps(f32::from_bits(1), -f32::from_bits(1)), Some(2));
        assert_eq!(ulps(f32::MAX, f32::INFINITY), Some(1));
        assert_eq!(ulps(f32::NAN, f32::NAN), Some(0));
        assert_eq!(ulps(f32::NAN, 1.0), None);
    }

    #[test]
    fn exp2_special_values_match_libm() {
        for x in [
            0.0,
            -0.0,
            SUBNORMAL,
            -SUBNORMAL,
            1.0,
            -1.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ] {
            assert_same(exp2(x), x.exp2(), &format!("exp2({x:e})"));
        }
        // Integers are exact.
        for k in -149..128 {
            assert_eq!(exp2(k as f32), (k as f64).exp2() as f32, "exp2({k})");
        }
    }

    #[test]
    fn exp2_overflow_and_underflow_edges() {
        for k in (126..=150).flat_map(|k| [k, -k]) {
            let k = k as f32;
            for x in [
                k,
                k + 0.5,
                k - 0.5,
                f32::from_bits(k.to_bits() + 1),
                f32::from_bits(k.to_bits() - 1),
            ] {
                let got = exp2(x);
                let want = exp2_reference(x);
                assert_within_1_ulp(got, want, &format!("exp2({x:e})"));
                if want == 0.0 || want.is_infinite() {
                    assert_eq!(got, want, "exp2({x:e}) saturates like the reference");
                }
            }
        }
        assert_eq!(exp2(-150.0), 0.0, "2^-150 rounds to even, i.e. zero");
        assert_eq!(exp2(-149.0), f32::from_bits(1));
        assert_eq!(exp2(128.0), f32::INFINITY);
    }

    #[test]
    fn exp2_every_4099th_bit_pattern_is_within_1_ulp() {
        for bits in (0..=u32::MAX).step_by(4099) {
            let x = f32::from_bits(bits);
            assert_within_1_ulp(exp2(x), exp2_reference(x), &format!("exp2({x:e})"));
        }
    }

    #[test]
    fn powf_special_values_match_libm() {
        let values = [
            0.0,
            -0.0,
            SUBNORMAL,
            -SUBNORMAL,
            1.0,
            -1.0,
            0.5,
            -0.5,
            2.0,
            -2.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        let exponents = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            2.0,
            -2.0,
            3.0,
            -3.0,
            0.5,
            -0.5,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        for x in values {
            for y in exponents {
                let got = powf(x, y);
                let libm = x.powf(y);
                let what = format!("powf({x:e}, {y:e})");
                if libm.is_finite() && libm != 0.0 && libm.abs() != 1.0 {
                    assert_within_1_ulp(got, powf_reference(x, y), &what);
                    assert_eq!(got.is_sign_negative(), libm.is_sign_negative(), "{what}");
                } else {
                    assert_same(got, libm, &what);
                }
            }
        }
        // Powers of two raised to integers are exact.
        assert_eq!(powf(2.0, 3.0), 8.0);
        assert_eq!(powf(-2.0, 3.0), -8.0);
        assert_eq!(powf(0.25, 0.5), 0.5);
        assert_eq!(powf(4.0, -1.5), 0.125);
    }

    /// The exponents the pipeline feeds `powf`: 2^±k, 1, the preset
    /// gammas, and the full range of a strength-3 mask.
    fn pipeline_exponents() -> Vec<f32> {
        let mut exponents: Vec<f32> = (-8..=8).map(|k| (k as f32).exp2()).collect();
        exponents.extend([1.0, 1.0 / 2.2, 0.45, 2.2]);
        exponents.extend((0..=64).map(|i| exp2(3.0 * (1.0 - 2.0 * (i as f32 / 64.0)))));
        exponents
    }

    #[test]
    fn powf_is_within_1_ulp_on_the_pipeline_domain() {
        let unit = (0..=4096).map(|i| i as f32 / 4096.0);
        // Log-spaced over (1, 10^6].
        let large = (1..=2048).map(|i| 10f64.powf(6.0 * i as f64 / 2048.0) as f32);
        let tiny = (0..=128).map(|i| (-(i as f32)).exp2());
        let bases: Vec<f32> = unit.chain(large).chain(tiny).collect();
        for y in pipeline_exponents() {
            for &x in &bases {
                assert_within_1_ulp(
                    powf(x, y),
                    powf_reference(x, y),
                    &format!("powf({x:e}, {y:e})"),
                );
            }
        }
    }

    #[test]
    fn row_forms_equal_scalar_forms_lane_for_lane() {
        let exponents = pipeline_exponents();
        for width in [1, 7, 15, 16, 17, 33, LANES - 1, LANES, LANES + 1, 1023] {
            let x: Vec<f32> = (0..width)
                .map(|i| match i % 5 {
                    0 => i as f32 / width as f32,
                    1 => -(i as f32) * 0.37,
                    2 => 1e3 * i as f32,
                    3 => f32::from_bits(0x9e37_79b9u32.wrapping_mul(i as u32 + 1)),
                    _ => SUBNORMAL,
                })
                .collect();
            let y: Vec<f32> = (0..width).map(|i| exponents[i % exponents.len()]).collect();

            let mut row = x.clone();
            exp2_row(&mut row);
            for (i, (&got, &x)) in row.iter().zip(&x).enumerate() {
                assert_same(
                    got,
                    exp2(x),
                    &format!("width {width}, lane {i}: exp2({x:e})"),
                );
            }

            let mut row = x.clone();
            powf_row(&mut row, &y);
            for (i, ((&got, &x), &y)) in row.iter().zip(&x).zip(&y).enumerate() {
                assert_same(
                    got,
                    powf(x, y),
                    &format!("width {width}, lane {i}: powf({x:e}, {y:e})"),
                );
            }
        }
    }

    /// A block whose lanes all have a positive finite base and a finite
    /// exponent skips `powf_finish`: the row form must still equal the
    /// scalar form, on the edges of that domain too (`x = 1`, `y = ±0`,
    /// subnormal and extreme bases, exponents that saturate the result),
    /// and one special lane must send its whole block through the finish.
    #[test]
    fn ordinary_blocks_equal_scalar_forms_lane_for_lane() {
        let bases = [
            1.0,
            SUBNORMAL,
            f32::from_bits(1),
            f32::MIN_POSITIVE,
            f32::MAX,
            1.0 - f32::EPSILON,
            3.0e5,
        ];
        let exponents = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            1.0 / 2.2,
            200.0,
            -200.0,
            3.0e38,
            -3.0e38,
        ];
        for width in [LANES, 2 * LANES + 7, 1023] {
            let x: Vec<f32> = (0..width)
                .map(|i| match i % 3 {
                    0 => bases[i % bases.len()],
                    1 => (i as f32 + 0.5) / width as f32,
                    _ => 1.0 + i as f32,
                })
                .collect();
            let y: Vec<f32> = (0..width).map(|i| exponents[i % exponents.len()]).collect();
            let specials = [
                (1.0, f32::INFINITY),
                (1.0, f32::NAN),
                (2.0, f32::NEG_INFINITY),
                (0.0, 2.0),
                (-0.0, -1.0),
                (-2.0, 3.0),
                (f32::INFINITY, 0.5),
                (f32::NAN, 1.0),
            ];
            let cases = std::iter::once(None).chain(specials.map(Some));
            for special in cases {
                let (mut x, mut y) = (x.clone(), y.clone());
                if let Some((sx, sy)) = special {
                    (x[width / 2], y[width / 2]) = (sx, sy);
                }
                let mut row = x.clone();
                powf_row(&mut row, &y);
                for (i, ((&got, &x), &y)) in row.iter().zip(&x).zip(&y).enumerate() {
                    assert_same(
                        got,
                        powf(x, y),
                        &format!("width {width}, {special:?}, lane {i}: powf({x:e}, {y:e})"),
                    );
                }
            }
        }
    }
}
