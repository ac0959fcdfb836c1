//! HDR image containers, I/O, synthetic scene generation and quality metrics.
//!
//! This crate is one of the substrates required to reproduce the SOCC 2018
//! tone-mapping paper:
//!
//! * [`ImageBuffer`] — a generic row-major 2-D pixel container used by the
//!   tone-mapping pipeline for HDR luminance planes, RGB planes and 8-bit
//!   tone-mapped outputs.
//! * [`io`] — readers/writers for the Radiance RGBE (`.hdr`), PFM and
//!   PPM/PGM formats, so users with real HDR photographs can run the exact
//!   experiments of the paper on their own data.
//! * [`synth`] — synthetic 1024×1024 HDR scenes that substitute for the
//!   paper's (unavailable) input photograph. See DESIGN.md §2 for the
//!   substitution rationale.
//! * [`metrics`] — MSE, PSNR and SSIM, the metrics used in Section IV-B to
//!   compare the floating-point and fixed-point accelerator outputs.
//!
//! # Example
//!
//! ```
//! use hdr_image::synth::SceneKind;
//! use hdr_image::metrics::psnr;
//!
//! let scene = SceneKind::WindowInDarkRoom.generate(64, 48, 7);
//! assert_eq!((scene.width(), scene.height()), (64, 48));
//! // An image compared with itself has infinite PSNR.
//! assert!(psnr(&scene, &scene, 1.0).is_infinite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod error;
pub mod io;
pub mod metrics;
pub mod rgb;
pub mod sequence;
pub mod synth;

pub use buffer::{unit_to_u8, ImageBuffer};
pub use error::ImageError;
pub use rgb::Rgb;

/// A single-channel high-dynamic-range luminance image (linear radiance).
pub type LuminanceImage = ImageBuffer<f32>;

/// A three-channel high-dynamic-range image (linear radiance per channel).
pub type RgbImage = ImageBuffer<Rgb<f32>>;

/// A tone-mapped, display-referred 8-bit single-channel image.
pub type LdrImage = ImageBuffer<u8>;

/// A tone-mapped, display-referred 8-bit RGB image.
pub type LdrRgbImage = ImageBuffer<Rgb<u8>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_aliases_construct() {
        let lum = LuminanceImage::filled(4, 4, 0.5);
        assert_eq!(lum.pixel_count(), 16);
        let rgb = RgbImage::filled(2, 2, Rgb::splat(1.0));
        assert_eq!(rgb.pixel_count(), 4);
        let ldr = LdrImage::filled(3, 3, 128);
        assert_eq!(ldr.get(1, 1), Some(&128));
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LuminanceImage>();
        assert_send_sync::<RgbImage>();
        assert_send_sync::<ImageError>();
    }
}
