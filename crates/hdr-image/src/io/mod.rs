//! Image file format readers and writers.
//!
//! Three formats are supported, covering the ways HDR data is typically
//! exchanged:
//!
//! * [`rgbe`] — the Radiance picture format (`.hdr` / `.pic`), the de-facto
//!   standard container for HDR photographs like the paper's input image.
//! * [`pfm`] — Portable FloatMap, a trivial raw-float format convenient for
//!   debugging intermediate pipeline stages.
//! * [`pnm`] — binary PPM/PGM, used to write the 8-bit tone-mapped outputs
//!   (the equivalents of Fig. 5b and 5c).
//!
//! All readers take `R: Read` and writers take `W: Write` by value; pass
//! `&mut reader` / `&mut writer` to retain access to the underlying stream.

pub mod pfm;
pub mod pnm;
pub mod rgbe;

pub use pfm::{read_pfm, write_pfm};
pub use pnm::{read_pgm, write_pgm, write_ppm};
pub use rgbe::{read_rgbe, write_rgbe};

use crate::error::ImageError;
use std::io::{self, Read};

/// The most a reader reserves before the payload bytes arrive (64 MiB).
/// Larger payloads still decode; their buffer grows with the data read.
const PREALLOC_LIMIT: usize = 1 << 26;

/// The byte length of a `width × height` raster of `bytes_per_sample`-byte
/// samples, or [`ImageError::InvalidDimensions`] when a header's product
/// overflows `usize`.
fn payload_len(width: usize, height: usize, bytes_per_sample: usize) -> Result<usize, ImageError> {
    width
        .checked_mul(height)
        .and_then(|samples| samples.checked_mul(bytes_per_sample))
        .ok_or(ImageError::InvalidDimensions { width, height })
}

/// An empty `Vec` with room for `len` elements, reserving at most
/// [`PREALLOC_LIMIT`] bytes: a header's claimed size is not trusted until
/// the data behind it has been read.
fn bounded_vec<T>(len: usize) -> Vec<T> {
    Vec::with_capacity(len.min(PREALLOC_LIMIT / std::mem::size_of::<T>()))
}

/// Reads exactly `len` payload bytes. The buffer grows with the bytes
/// actually read, so a header that claims more than the stream holds fails
/// with [`io::ErrorKind::UnexpectedEof`] instead of allocating the claimed
/// size up front.
fn read_payload<R: Read>(reader: R, len: usize) -> Result<Vec<u8>, ImageError> {
    let mut raw = bounded_vec(len);
    reader.take(len as u64).read_to_end(&mut raw)?;
    if raw.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("expected {len} payload bytes, found {}", raw.len()),
        )
        .into());
    }
    Ok(raw)
}
