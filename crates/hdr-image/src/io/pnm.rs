//! Binary PPM (P6) and PGM (P5) writers/readers for 8-bit tone-mapped output.
//!
//! The paper's Fig. 5b/5c are 8-bit tone-mapped renderings; this module lets
//! the examples and benches dump their equivalents for visual inspection.

use super::{payload_len, read_payload};
use crate::error::ImageError;
use crate::rgb::Rgb;
use crate::{ImageBuffer, LdrImage};
use std::io::{BufRead, BufReader, Read, Write};

/// Writes an 8-bit greyscale image as binary PGM (`P5`).
///
/// # Errors
///
/// Returns an error if writing fails.
pub fn write_pgm<W: Write>(image: &LdrImage, mut writer: W) -> Result<(), ImageError> {
    writeln!(writer, "P5")?;
    writeln!(writer, "{} {}", image.width(), image.height())?;
    writeln!(writer, "255")?;
    writer.write_all(image.pixels())?;
    Ok(())
}

/// Writes an 8-bit RGB image as binary PPM (`P6`).
///
/// # Errors
///
/// Returns an error if writing fails.
pub fn write_ppm<W: Write>(image: &ImageBuffer<Rgb<u8>>, mut writer: W) -> Result<(), ImageError> {
    writeln!(writer, "P6")?;
    writeln!(writer, "{} {}", image.width(), image.height())?;
    writeln!(writer, "255")?;
    for p in image.pixels() {
        writer.write_all(&[p.r, p.g, p.b])?;
    }
    Ok(())
}

/// Reads a binary PGM (`P5`) image with a maximum value of 255.
///
/// # Errors
///
/// Returns [`ImageError::Decode`] for malformed headers or unsupported
/// maxval, [`ImageError::InvalidDimensions`] for zero or overflowing
/// dimensions and [`ImageError::Io`] for missing pixel data.
pub fn read_pgm<R: Read>(reader: R) -> Result<LdrImage, ImageError> {
    let mut reader = BufReader::new(reader);
    let decode_err = |reason: &str| ImageError::Decode {
        format: "PGM",
        reason: reason.to_string(),
    };

    let mut header_tokens: Vec<String> = Vec::new();
    // The PGM header is whitespace-separated tokens, possibly with comments.
    let mut line = String::new();
    while header_tokens.len() < 4 {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(decode_err("unexpected end of header"));
        }
        let content = line.split('#').next().unwrap_or("");
        header_tokens.extend(content.split_whitespace().map(str::to_string));
    }
    if header_tokens[0] != "P5" {
        return Err(decode_err("missing P5 magic"));
    }
    let width: usize = header_tokens[1]
        .parse()
        .map_err(|_| decode_err("bad width"))?;
    let height: usize = header_tokens[2]
        .parse()
        .map_err(|_| decode_err("bad height"))?;
    let maxval: usize = header_tokens[3]
        .parse()
        .map_err(|_| decode_err("bad maxval"))?;
    if maxval != 255 {
        return Err(decode_err("only maxval 255 is supported"));
    }
    if width == 0 || height == 0 {
        return Err(ImageError::InvalidDimensions { width, height });
    }
    let data = read_payload(&mut reader, payload_len(width, height, 1)?)?;
    LdrImage::from_vec(width, height, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pgm_round_trip() {
        let img = LdrImage::from_fn(6, 4, |x, y| (x * 40 + y * 10) as u8);
        let mut buf = Vec::new();
        write_pgm(&img, &mut buf).unwrap();
        let back = read_pgm(buf.as_slice()).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn pgm_header_with_comment_is_parsed() {
        let mut data = b"P5\n# a comment\n2 2\n255\n".to_vec();
        data.extend_from_slice(&[0, 64, 128, 255]);
        let img = read_pgm(data.as_slice()).unwrap();
        assert_eq!(img.pixels(), &[0, 64, 128, 255]);
    }

    #[test]
    fn ppm_writer_emits_expected_header_and_payload() {
        let img = ImageBuffer::filled(2, 1, Rgb::new(1u8, 2, 3));
        let mut buf = Vec::new();
        write_ppm(&img, &mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf[..11]).to_string();
        assert!(text.starts_with("P6\n2 1\n255"));
        assert_eq!(&buf[buf.len() - 6..], &[1, 2, 3, 1, 2, 3]);
    }

    #[test]
    fn pgm_rejects_wrong_magic_and_maxval() {
        assert!(read_pgm(b"P6\n1 1\n255\n\0".as_slice()).is_err());
        assert!(read_pgm(b"P5\n1 1\n65535\n\0\0".as_slice()).is_err());
    }

    #[test]
    fn pgm_rejects_overflowing_header_dimensions() {
        // width * height overflows usize.
        let err = read_pgm(b"P5\n4611686018427387904 8\n255\n\0".as_slice()).unwrap_err();
        assert!(
            matches!(err, ImageError::InvalidDimensions { height: 8, .. }),
            "{err:?}"
        );
        // A size that fits usize but not the stream is a short read.
        let err = read_pgm(b"P5\n4294967296 4294967295\n255\n\0".as_slice()).unwrap_err();
        assert!(matches!(err, ImageError::Io(_)), "{err:?}");
    }

    #[test]
    fn pgm_rejects_truncated_payload() {
        let data = b"P5\n4 4\n255\n\0\0\0".to_vec();
        assert!(read_pgm(data.as_slice()).is_err());
    }
}
