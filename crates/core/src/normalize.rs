//! Image normalization — the first stage of the pipeline (Fig. 1).
//!
//! Each pixel of the HDR input is divided by the maximum pixel value of the
//! image, mapping the data into `[0, 1]` regardless of the absolute radiance
//! scale of the capture.

use crate::ops::OpCounts;
use crate::sample::Sample;
use hdr_image::{ImageBuffer, LuminanceImage};

/// Number of independent accumulators in [`max_pixel`]: four 8-wide
/// vectors, enough to hide the latency of the compare-and-select chain.
const MAX_LANES: usize = 32;

/// Returns the maximum pixel value of an HDR image (ignoring non-finite
/// samples), used as the normalization divisor. The result is never below
/// `0.0`, which is what an empty, all-negative or all-non-finite image
/// returns.
///
/// The reduction runs over 32 lane accumulators, each starting
/// at `0.0`, where a non-finite sample contributes `0.0`. Every positive
/// value is a unique float, so any reduction order returns the same
/// positive maximum as a serial fold, and [`normalization_scale`] does not
/// depend on the lane width.
pub fn max_pixel(image: &LuminanceImage) -> f32 {
    // `b > a` (rather than `f32::max`) compiles to a plain vector max: no
    // NaN reaches it, and a later `-0.0` never replaces a `0.0`.
    let step = |a: f32, b: f32| {
        let b = if b.is_finite() { b } else { 0.0 };
        if b > a {
            b
        } else {
            a
        }
    };
    let (chunks, rest) = image.pixels().as_chunks::<MAX_LANES>();
    let mut lanes = [0.0f32; MAX_LANES];
    for chunk in chunks {
        for (lane, &v) in lanes.iter_mut().zip(chunk) {
            *lane = step(*lane, v);
        }
    }
    lanes
        .into_iter()
        .chain(rest.iter().copied())
        .fold(0.0, step)
}

/// The reciprocal of the normalization divisor, or `None` when the image
/// maximum is not positive (there is nothing to normalize and dividing by
/// zero would poison the pipeline).
pub fn normalization_scale(image: &LuminanceImage) -> Option<f32> {
    let max = max_pixel(image);
    (max > 0.0).then(|| 1.0 / max)
}

/// Normalizes one sample with the scale from [`normalization_scale`].
///
/// Non-finite samples are sanitized to 0 here: `clamp` propagates NaN, so a
/// single NaN sensor pixel would otherwise survive normalization and poison
/// the blurred mask (and through it a whole neighbourhood of the output).
/// This is the per-sample core shared by [`normalize`] and the streaming
/// execution path, so the two stay bit-identical.
#[inline]
pub fn normalize_sample(value: f32, scale: Option<f32>) -> f32 {
    if !value.is_finite() {
        return 0.0;
    }
    match scale {
        Some(inv) => (value * inv).clamp(0.0, 1.0),
        None => value,
    }
}

/// Normalizes an HDR luminance image into `[0, 1]` by dividing every pixel by
/// the image maximum.
///
/// An all-zero image is returned unchanged; non-finite samples become 0 (see
/// [`normalize_sample`]).
pub fn normalize(image: &LuminanceImage) -> LuminanceImage {
    let scale = normalization_scale(image);
    image.map(|&v| normalize_sample(v, scale))
}

/// Normalizes and converts into the pipeline's working sample type in one
/// pass (the form used by the fixed-point accelerator path, which quantises
/// at the accelerator boundary).
pub fn normalize_to<S: Sample>(image: &LuminanceImage) -> ImageBuffer<S> {
    let normalized = normalize(image);
    normalized.map(|&v| S::from_f32(v))
}

/// Analytic operation counts of the normalization stage for a
/// `width × height` image with `channels` colour channels.
///
/// The stage makes one pass to find the maximum (one load and one compare per
/// sample) and one pass to scale (one load, one multiply by the reciprocal
/// and one store per sample), plus a single division to form the reciprocal.
pub fn op_counts(width: usize, height: usize, channels: usize) -> OpCounts {
    let samples = (width * height * channels) as u64;
    OpCounts {
        adds: 0,
        muls: samples,
        divs: 1,
        pows: 0,
        compares: samples,
        loads: 2 * samples,
        stores: samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdr_image::synth::SceneKind;

    #[test]
    fn normalized_image_is_in_unit_interval_with_max_one() {
        let hdr = SceneKind::SunAndShadow.generate(64, 64, 2);
        let n = normalize(&hdr);
        let (lo, hi) = n.min_max();
        assert!(lo >= 0.0);
        assert!((hi - 1.0).abs() < 1e-6, "max after normalization was {hi}");
    }

    #[test]
    fn normalization_preserves_pixel_ordering() {
        let hdr = SceneKind::GradientRamp.generate(32, 8, 3);
        let n = normalize(&hdr);
        for y in 0..8 {
            for x in 1..32 {
                let before = hdr.get(x - 1, y).unwrap() <= hdr.get(x, y).unwrap();
                let after = n.get(x - 1, y).unwrap() <= n.get(x, y).unwrap();
                assert_eq!(before, after);
            }
        }
    }

    #[test]
    fn all_zero_image_is_returned_unchanged() {
        let zeros = LuminanceImage::filled(8, 8, 0.0);
        assert_eq!(normalize(&zeros), zeros);
    }

    #[test]
    fn non_finite_samples_are_sanitized_to_zero() {
        // Regression: `clamp` on NaN returns NaN, so NaN pixels used to
        // survive normalization and poison masking downstream.
        let img =
            LuminanceImage::from_vec(2, 2, vec![f32::NAN, 4.0, f32::INFINITY, f32::NEG_INFINITY])
                .unwrap();
        let n = normalize(&img);
        assert!(n.pixels().iter().all(|v| v.is_finite()));
        assert_eq!(n.pixels(), &[0.0, 1.0, 0.0, 0.0]);
        // The non-finite samples do not take part in the maximum either.
        assert_eq!(max_pixel(&img), 4.0);
    }

    #[test]
    fn non_finite_samples_are_sanitized_even_without_a_scale() {
        // max <= 0 means nothing to normalize, but NaNs must still die.
        let img = LuminanceImage::from_vec(3, 1, vec![0.0, f32::NAN, -1.0]).unwrap();
        let n = normalize(&img);
        assert_eq!(n.pixels(), &[0.0, 0.0, -1.0]);
        assert_eq!(normalization_scale(&img), None);
    }

    /// The serial reduction [`max_pixel`] replaced.
    fn scalar_max(pixels: &[f32]) -> f32 {
        pixels
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .fold(0.0f32, f32::max)
    }

    fn image_of(pixels: &[f32]) -> Option<LuminanceImage> {
        (!pixels.is_empty())
            .then(|| LuminanceImage::from_vec(pixels.len(), 1, pixels.to_vec()).unwrap())
    }

    /// Asserts that the lane reduction equals the serial fold: bit for bit
    /// when the maximum is positive, and as a zero otherwise (the serial
    /// fold may return either sign of zero).
    fn assert_matches_scalar(pixels: &[f32]) {
        let expected = scalar_max(pixels);
        let Some(image) = image_of(pixels) else {
            assert_eq!(expected, 0.0);
            return;
        };
        let got = max_pixel(&image);
        if expected > 0.0 {
            assert_eq!(got.to_bits(), expected.to_bits(), "{pixels:?}");
        } else {
            assert_eq!(got, 0.0, "{pixels:?}");
            assert_eq!(normalization_scale(&image), None, "{pixels:?}");
        }
    }

    #[test]
    fn lane_reduction_matches_the_serial_fold_across_the_lane_width() {
        let poisons = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, -3.5];
        for len in 0..=(MAX_LANES + 8) {
            // A strictly increasing ramp, so the maximum is a single sample.
            let ramp: Vec<f32> = (0..len).map(|i| 0.25 + i as f32 * 1.5).collect();
            assert_matches_scalar(&ramp);
            let mut descending = ramp.clone();
            descending.reverse();
            assert_matches_scalar(&descending);
            // Each poison at each position: inside the full lane chunks and
            // inside the remainder, including where the maximum sat.
            for &poison in &poisons {
                for at in 0..len {
                    let mut pixels = ramp.clone();
                    pixels[at] = poison;
                    assert_matches_scalar(&pixels);
                }
            }
        }
    }

    #[test]
    fn lane_reduction_ignores_non_finite_samples_and_signed_zeros() {
        let len = MAX_LANES * 2 + 5;
        for fill in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0] {
            let pixels = vec![fill; len];
            assert_matches_scalar(&pixels);
            let image = image_of(&pixels).unwrap();
            assert_eq!(max_pixel(&image).to_bits(), 0.0f32.to_bits());
        }
        let mut mixed = vec![-0.0f32; len];
        mixed[MAX_LANES + 1] = f32::MIN_POSITIVE;
        mixed[len - 1] = f32::NAN;
        assert_matches_scalar(&mixed);
    }

    #[test]
    fn all_negative_frames_have_no_normalization_scale() {
        for len in [1, MAX_LANES - 1, MAX_LANES, MAX_LANES + 3, 3 * MAX_LANES] {
            let pixels: Vec<f32> = (0..len).map(|i| -1.0 - i as f32).collect();
            assert_matches_scalar(&pixels);
            assert_eq!(normalization_scale(&image_of(&pixels).unwrap()), None);
        }
    }

    #[test]
    fn normalize_sample_matches_normalize() {
        let hdr = SceneKind::SunAndShadow.generate(16, 16, 11);
        let scale = normalization_scale(&hdr);
        let n = normalize(&hdr);
        for (&raw, &mapped) in hdr.pixels().iter().zip(n.pixels()) {
            assert_eq!(normalize_sample(raw, scale), mapped);
        }
    }

    #[test]
    fn normalize_to_fixed_point_quantises() {
        use apfixed::Fix16;
        let hdr = SceneKind::WindowInDarkRoom.generate(16, 16, 5);
        let fixed = normalize_to::<Fix16>(&hdr);
        let float = normalize(&hdr);
        for (fx, fl) in fixed.pixels().iter().zip(float.pixels()) {
            assert!((fx.to_f32() - fl).abs() <= Fix16::FORMAT.epsilon() as f32);
        }
    }

    #[test]
    fn op_counts_scale_with_samples() {
        let c = op_counts(10, 10, 3);
        assert_eq!(c.muls, 300);
        assert_eq!(c.loads, 600);
        assert_eq!(c.stores, 300);
        assert_eq!(c.divs, 1);
    }
}
