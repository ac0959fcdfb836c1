//! RGB pixel type and colour/luminance conversions.

use crate::{ImageBuffer, LuminanceImage, RgbImage};
use serde::{Deserialize, Serialize};
use std::ops::{Add, Div, Mul, Sub};

/// A three-channel pixel.
///
/// HDR pixels use `Rgb<f32>` (linear radiance); tone-mapped output pixels use
/// `Rgb<u8>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Rgb<T> {
    /// Red channel.
    pub r: T,
    /// Green channel.
    pub g: T,
    /// Blue channel.
    pub b: T,
}

impl<T> Rgb<T> {
    /// Creates a pixel from its three channels.
    pub const fn new(r: T, g: T, b: T) -> Self {
        Rgb { r, g, b }
    }

    /// Applies `f` to every channel.
    pub fn map<U, F: FnMut(T) -> U>(self, mut f: F) -> Rgb<U> {
        Rgb {
            r: f(self.r),
            g: f(self.g),
            b: f(self.b),
        }
    }
}

impl<T: Copy> Rgb<T> {
    /// Creates a grey pixel with all channels equal to `v`.
    pub const fn splat(v: T) -> Self {
        Rgb { r: v, g: v, b: v }
    }
}

impl Rgb<f32> {
    /// Rec. 709 relative luminance of a linear-light RGB pixel.
    ///
    /// The paper's pipeline operates on the luminance plane (the block
    /// diagram of Fig. 1 processes a single channel); colour is re-attached
    /// afterwards by scaling the chrominance with the luminance ratio.
    pub fn luminance(self) -> f32 {
        0.2126 * self.r + 0.7152 * self.g + 0.0722 * self.b
    }

    /// Scales every channel by `k` (used to re-apply tone-mapped luminance to
    /// the colour channels while preserving hue).
    #[must_use]
    pub fn scaled(self, k: f32) -> Self {
        Rgb {
            r: self.r * k,
            g: self.g * k,
            b: self.b * k,
        }
    }

    /// Component-wise clamp into `[lo, hi]`.
    #[must_use]
    pub fn clamp(self, lo: f32, hi: f32) -> Self {
        self.map(|c| c.clamp(lo, hi))
    }

    /// Maximum of the three channels.
    pub fn max_channel(self) -> f32 {
        self.r.max(self.g).max(self.b)
    }
}

impl<T: Add<Output = T>> Add for Rgb<T> {
    type Output = Self;

    fn add(self, rhs: Self) -> Self {
        Rgb {
            r: self.r + rhs.r,
            g: self.g + rhs.g,
            b: self.b + rhs.b,
        }
    }
}

impl<T: Sub<Output = T>> Sub for Rgb<T> {
    type Output = Self;

    fn sub(self, rhs: Self) -> Self {
        Rgb {
            r: self.r - rhs.r,
            g: self.g - rhs.g,
            b: self.b - rhs.b,
        }
    }
}

impl<T: Mul<Output = T> + Copy> Mul<T> for Rgb<T> {
    type Output = Self;

    fn mul(self, rhs: T) -> Self {
        Rgb {
            r: self.r * rhs,
            g: self.g * rhs,
            b: self.b * rhs,
        }
    }
}

impl<T: Div<Output = T> + Copy> Div<T> for Rgb<T> {
    type Output = Self;

    fn div(self, rhs: T) -> Self {
        Rgb {
            r: self.r / rhs,
            g: self.g / rhs,
            b: self.b / rhs,
        }
    }
}

/// Extracts the Rec. 709 luminance plane of an HDR RGB image.
pub fn luminance_plane(image: &RgbImage) -> LuminanceImage {
    image.map(|p| p.luminance())
}

/// Re-applies a processed luminance plane to an HDR RGB image, preserving the
/// original chrominance ratios.
///
/// For each pixel, every channel is scaled by `new_luma / old_luma` (with a
/// small epsilon guarding against division by zero), then clamped to `[0, 1]`.
/// This is the standard way a luminance-domain tone-mapping operator such as
/// the paper's is extended to colour images.
///
/// # Errors
///
/// Returns [`crate::ImageError::DimensionMismatch`] if the two images have
/// different dimensions.
pub fn reapply_color(
    original: &RgbImage,
    tone_mapped_luma: &LuminanceImage,
) -> Result<RgbImage, crate::ImageError> {
    original.zip_map(tone_mapped_luma, |pixel, &new_luma| {
        let old_luma = pixel.luminance();
        if old_luma <= f32::EPSILON {
            Rgb::splat(new_luma.clamp(0.0, 1.0))
        } else {
            pixel.scaled(new_luma / old_luma).clamp(0.0, 1.0)
        }
    })
}

/// Converts a normalised HDR RGB image to an 8-bit display image, each
/// channel through [`unit_to_u8`](crate::unit_to_u8).
pub fn to_ldr_rgb(image: &RgbImage) -> ImageBuffer<Rgb<u8>> {
    image.map(|p| p.map(crate::unit_to_u8))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn luminance_weights_sum_to_one() {
        let white = Rgb::splat(1.0f32);
        assert!((white.luminance() - 1.0).abs() < 1e-6);
        let green = Rgb::new(0.0, 1.0, 0.0);
        assert!((green.luminance() - 0.7152).abs() < 1e-6);
    }

    #[test]
    fn arithmetic_is_component_wise() {
        let a = Rgb::new(1.0, 2.0, 3.0);
        let b = Rgb::new(0.5, 0.5, 0.5);
        assert_eq!(a + b, Rgb::new(1.5, 2.5, 3.5));
        assert_eq!(a - b, Rgb::new(0.5, 1.5, 2.5));
        assert_eq!(a * 2.0, Rgb::new(2.0, 4.0, 6.0));
        assert_eq!(a / 2.0, Rgb::new(0.5, 1.0, 1.5));
    }

    #[test]
    fn luminance_plane_extracts_correct_values() {
        let img = RgbImage::filled(2, 2, Rgb::new(1.0, 0.0, 0.0));
        let luma = luminance_plane(&img);
        assert!((luma.pixels()[0] - 0.2126).abs() < 1e-6);
    }

    #[test]
    fn reapply_color_preserves_hue_ratio() {
        let img = RgbImage::filled(1, 1, Rgb::new(0.2, 0.4, 0.1));
        let old_luma = luminance_plane(&img);
        let doubled = old_luma.map(|&v| (v * 2.0).min(1.0));
        let out = reapply_color(&img, &doubled).unwrap();
        let p = out.pixels()[0];
        // Channel ratios preserved.
        assert!((p.g / p.r - 2.0).abs() < 1e-5);
        assert!((p.r / p.b - 2.0).abs() < 1e-5);
    }

    #[test]
    fn reapply_color_handles_black_pixels() {
        let img = RgbImage::filled(1, 1, Rgb::splat(0.0));
        let luma = LuminanceImage::filled(1, 1, 0.5);
        let out = reapply_color(&img, &luma).unwrap();
        assert_eq!(out.pixels()[0], Rgb::splat(0.5));
    }

    #[test]
    fn reapply_color_rejects_mismatched_dimensions() {
        let img = RgbImage::filled(2, 2, Rgb::splat(0.1));
        let luma = LuminanceImage::filled(3, 3, 0.5);
        assert!(reapply_color(&img, &luma).is_err());
    }

    #[test]
    fn to_ldr_rgb_quantises() {
        let img = RgbImage::filled(1, 1, Rgb::new(0.0, 0.5, 2.0));
        let ldr = to_ldr_rgb(&img);
        assert_eq!(ldr.pixels()[0], Rgb::new(0u8, 128, 255));
    }

    #[test]
    fn max_channel_and_clamp() {
        let p = Rgb::new(-0.5f32, 0.4, 1.8);
        assert_eq!(p.max_channel(), 1.8);
        assert_eq!(p.clamp(0.0, 1.0), Rgb::new(0.0, 0.4, 1.0));
    }
}
