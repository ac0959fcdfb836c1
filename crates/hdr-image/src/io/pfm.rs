//! Portable FloatMap (PFM) reader and writer for single-channel images.
//!
//! PFM stores raw IEEE-754 floats, which makes it the natural format for
//! dumping intermediate pipeline stages (normalised image, blurred mask)
//! without any quantisation. Only the greyscale variant (`Pf`) is
//! implemented because the paper's pipeline operates on the luminance plane.

use super::{bounded_vec, payload_len, read_payload};
use crate::error::ImageError;
use crate::LuminanceImage;
use std::io::{BufRead, BufReader, Read, Write};

/// Writes a single-channel image as a little-endian greyscale PFM (`Pf`).
///
/// # Errors
///
/// Returns an error if writing to `writer` fails.
pub fn write_pfm<W: Write>(image: &LuminanceImage, mut writer: W) -> Result<(), ImageError> {
    writeln!(writer, "Pf")?;
    writeln!(writer, "{} {}", image.width(), image.height())?;
    // Negative scale indicates little-endian data per the PFM convention.
    writeln!(writer, "-1.0")?;
    // PFM stores rows bottom-to-top.
    for row in image.rows().collect::<Vec<_>>().into_iter().rev() {
        for &v in row {
            writer.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Reads a greyscale PFM (`Pf`) image, accepting both endiannesses.
///
/// # Errors
///
/// Returns [`ImageError::Decode`] for malformed headers,
/// [`ImageError::InvalidDimensions`] for zero or overflowing dimensions and
/// [`ImageError::Io`] for read failures (including truncated pixel data).
pub fn read_pfm<R: Read>(reader: R) -> Result<LuminanceImage, ImageError> {
    let mut reader = BufReader::new(reader);
    let decode_err = |reason: &str| ImageError::Decode {
        format: "PFM",
        reason: reason.to_string(),
    };

    let mut magic = String::new();
    reader.read_line(&mut magic)?;
    let magic = magic.trim();
    if magic != "Pf" {
        return Err(decode_err(if magic == "PF" {
            "colour PFM not supported, expected greyscale 'Pf'"
        } else {
            "missing 'Pf' magic"
        }));
    }

    let mut dims = String::new();
    reader.read_line(&mut dims)?;
    let mut parts = dims.split_whitespace();
    let width: usize = parts
        .next()
        .and_then(|p| p.parse().ok())
        .ok_or_else(|| decode_err("bad width"))?;
    let height: usize = parts
        .next()
        .and_then(|p| p.parse().ok())
        .ok_or_else(|| decode_err("bad height"))?;
    if width == 0 || height == 0 {
        return Err(ImageError::InvalidDimensions { width, height });
    }

    let mut scale_line = String::new();
    reader.read_line(&mut scale_line)?;
    let scale: f32 = scale_line
        .trim()
        .parse()
        .map_err(|_| decode_err("bad scale/endianness field"))?;
    // The magnitude of the scale field is informational (absolute radiance
    // scaling); only its sign (endianness) affects decoding.
    let little_endian = scale < 0.0;

    // Rows are decoded as they are read, through one row buffer: staging
    // the whole payload first costs a second frame-sized allocation, whose
    // page faults outweigh the decode itself.
    let mut pixels = bounded_vec(payload_len(width, height, 4)? / 4);
    let mut push_row = |row: &[u8]| {
        let (words, _) = row.as_chunks::<4>();
        if little_endian {
            pixels.extend(words.iter().map(|&b| f32::from_le_bytes(b)));
        } else {
            pixels.extend(words.iter().map(|&b| f32::from_be_bytes(b)));
        }
    };
    // Reading the first row allocates the row buffer, so its size is
    // backed by data too.
    let mut row = read_payload(&mut reader, width * 4)?;
    push_row(&row);
    for _ in 1..height {
        reader.read_exact(&mut row)?;
        push_row(&row);
    }
    // PFM stores rows bottom-to-top; swap them back into place.
    let (top, bottom) = pixels.split_at_mut(height / 2 * width);
    for (upper, lower) in top
        .chunks_exact_mut(width)
        .zip(bottom.rchunks_exact_mut(width))
    {
        upper.swap_with_slice(lower);
    }
    LuminanceImage::from_vec(width, height, pixels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_exact_floats() {
        let img = LuminanceImage::from_fn(7, 5, |x, y| (x as f32 * 0.123 + y as f32 * 7.5).exp());
        let mut buf = Vec::new();
        write_pfm(&img, &mut buf).unwrap();
        let back = read_pfm(buf.as_slice()).unwrap();
        assert_eq!(back.dimensions(), img.dimensions());
        assert_eq!(back.pixels(), img.pixels());
    }

    #[test]
    fn big_endian_data_is_accepted() {
        // Hand-build a 2x1 big-endian PFM.
        let mut data = b"Pf\n2 1\n1.0\n".to_vec();
        data.extend_from_slice(&1.5f32.to_be_bytes());
        data.extend_from_slice(&2.5f32.to_be_bytes());
        let img = read_pfm(data.as_slice()).unwrap();
        assert_eq!(img.pixels(), &[1.5, 2.5]);
    }

    /// Encodes `image` as a big-endian PFM (positive scale), rows
    /// bottom-to-top.
    fn big_endian_pfm(image: &LuminanceImage) -> Vec<u8> {
        let mut data = format!("Pf\n{} {}\n1.0\n", image.width(), image.height()).into_bytes();
        for row in image.rows().collect::<Vec<_>>().into_iter().rev() {
            for &v in row {
                data.extend_from_slice(&v.to_be_bytes());
            }
        }
        data
    }

    #[test]
    fn multi_row_big_endian_data_is_flipped_back_to_top_down() {
        // Odd width and several rows, so a wrong row order or a wrong word
        // split within a row both show.
        let img = LuminanceImage::from_fn(5, 4, |x, y| y as f32 * 10.0 + x as f32 - 0.25);
        let back = read_pfm(big_endian_pfm(&img).as_slice()).unwrap();
        assert_eq!(back.dimensions(), (5, 4));
        assert_eq!(back.pixels(), img.pixels());
        assert_eq!(back.get(0, 0), Some(&-0.25));
        assert_eq!(back.get(4, 3), Some(&33.75));
    }

    #[test]
    fn truncated_big_endian_data_is_a_typed_io_error() {
        let img = LuminanceImage::from_fn(3, 3, |x, y| (x + y) as f32);
        let mut data = big_endian_pfm(&img);
        data.truncate(data.len() - 5);
        let err = read_pfm(data.as_slice()).unwrap_err();
        assert!(
            matches!(&err, ImageError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof),
            "{err:?}"
        );
    }

    #[test]
    fn overflowing_header_dimensions_are_rejected_not_panicking() {
        // width * height * 4 overflows usize.
        let err = read_pfm(b"Pf\n4611686018427387904 4\n-1.0\n".as_slice()).unwrap_err();
        assert!(
            matches!(
                err,
                ImageError::InvalidDimensions {
                    width: 4611686018427387904,
                    height: 4
                }
            ),
            "{err:?}"
        );
        // A size that fits usize but not the stream is a short read, not an
        // up-front allocation of the claimed size.
        let err = read_pfm(b"Pf\n1073741824 1073741824\n-1.0\n\0\0\0\0".as_slice()).unwrap_err();
        assert!(matches!(err, ImageError::Io(_)), "{err:?}");
    }

    #[test]
    fn colour_pfm_is_rejected_with_clear_reason() {
        let data = b"PF\n1 1\n-1.0\n\0\0\0\0\0\0\0\0\0\0\0\0".to_vec();
        let err = read_pfm(data.as_slice()).unwrap_err();
        assert!(format!("{err}").contains("greyscale"));
    }

    #[test]
    fn bad_magic_and_truncated_data_are_rejected() {
        assert!(read_pfm(b"P5\n1 1\n255\n\0".as_slice()).is_err());
        let mut data = b"Pf\n4 4\n-1.0\n".to_vec();
        data.extend_from_slice(&[0u8; 10]); // far too short
        assert!(read_pfm(data.as_slice()).is_err());
    }
}
