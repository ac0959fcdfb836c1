//! Radiance RGBE (`.hdr`) picture format.
//!
//! The Radiance format stores each HDR pixel in four bytes: an 8-bit mantissa
//! for each of R, G, B sharing a common 8-bit exponent E, giving roughly 1%
//! relative precision over a huge dynamic range. Scanlines may be stored flat
//! or with the "new" run-length encoding. Both variants are decoded; the
//! writer always emits flat (uncompressed) scanlines for simplicity.

use super::{bounded_vec, payload_len, read_payload};
use crate::error::ImageError;
use crate::rgb::Rgb;
use crate::RgbImage;
use std::io::{BufRead, BufReader, Read, Write};

/// Encodes a linear-light RGB pixel into an RGBE quadruple.
pub fn encode_rgbe(pixel: Rgb<f32>) -> [u8; 4] {
    let max = pixel.max_channel();
    if max <= 1e-32 || !max.is_finite() {
        return [0, 0, 0, 0];
    }
    // frexp: max = mantissa * 2^exp with mantissa in [0.5, 1)
    let exp = max.log2().floor() as i32 + 1;
    let scale = (2.0f32).powi(8 - exp);
    let quantise = |c: f32| ((c.max(0.0) * scale).min(255.0)) as u8;
    [
        quantise(pixel.r),
        quantise(pixel.g),
        quantise(pixel.b),
        (exp + 128) as u8,
    ]
}

/// Decodes an RGBE quadruple back into a linear-light RGB pixel.
pub fn decode_rgbe(rgbe: [u8; 4]) -> Rgb<f32> {
    if rgbe[3] == 0 {
        return Rgb::splat(0.0);
    }
    let scale = (2.0f32).powi(rgbe[3] as i32 - 128 - 8);
    Rgb {
        r: (rgbe[0] as f32 + 0.5) * scale,
        g: (rgbe[1] as f32 + 0.5) * scale,
        b: (rgbe[2] as f32 + 0.5) * scale,
    }
}

/// Writes an HDR image in the Radiance RGBE format with flat scanlines.
///
/// # Errors
///
/// Returns an error if writing to `writer` fails.
pub fn write_rgbe<W: Write>(image: &RgbImage, mut writer: W) -> Result<(), ImageError> {
    writeln!(writer, "#?RADIANCE")?;
    writeln!(writer, "# written by hdr-image (tonemap-zynq-repro)")?;
    writeln!(writer, "FORMAT=32-bit_rle_rgbe")?;
    writeln!(writer)?;
    writeln!(writer, "-Y {} +X {}", image.height(), image.width())?;
    for row in image.rows() {
        for &pixel in row {
            writer.write_all(&encode_rgbe(pixel))?;
        }
    }
    Ok(())
}

/// Reads a Radiance RGBE image, accepting both flat and run-length-encoded
/// scanlines.
///
/// # Errors
///
/// Returns [`ImageError::Decode`] if the header or pixel data is malformed
/// and [`ImageError::Io`] on read failures.
pub fn read_rgbe<R: Read>(reader: R) -> Result<RgbImage, ImageError> {
    let mut reader = BufReader::new(reader);

    let decode_err = |reason: &str| ImageError::Decode {
        format: "Radiance RGBE",
        reason: reason.to_string(),
    };

    // --- Header -----------------------------------------------------------
    let mut line = String::new();
    reader.read_line(&mut line)?;
    if !line.starts_with("#?") {
        return Err(decode_err("missing #?RADIANCE magic"));
    }
    let mut format_seen = false;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(decode_err("unexpected end of header"));
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            break; // blank line terminates the header
        }
        if trimmed.starts_with('#') {
            continue;
        }
        if let Some(fmt) = trimmed.strip_prefix("FORMAT=") {
            if fmt != "32-bit_rle_rgbe" {
                return Err(decode_err("unsupported FORMAT (only 32-bit_rle_rgbe)"));
            }
            format_seen = true;
        }
        // EXPOSURE=, GAMMA=, etc. are tolerated and ignored.
    }
    if !format_seen {
        return Err(decode_err("missing FORMAT line"));
    }

    // --- Resolution line ---------------------------------------------------
    line.clear();
    reader.read_line(&mut line)?;
    let parts: Vec<&str> = line.split_whitespace().collect();
    if parts.len() != 4 || parts[0] != "-Y" || parts[2] != "+X" {
        return Err(decode_err("unsupported resolution specification"));
    }
    let height: usize = parts[1].parse().map_err(|_| decode_err("bad height"))?;
    let width: usize = parts[3].parse().map_err(|_| decode_err("bad width"))?;
    if width == 0 || height == 0 {
        return Err(ImageError::InvalidDimensions { width, height });
    }

    // --- Scanlines ----------------------------------------------------------
    let mut pixels = bounded_vec(payload_len(width, height, 4)? / 4);
    for _ in 0..height {
        let scanline = read_scanline(&mut reader, width)?;
        pixels.extend(scanline.into_iter().map(decode_rgbe));
    }
    RgbImage::from_vec(width, height, pixels)
}

/// Reads one scanline of `width` RGBE quadruples, handling both the flat and
/// the "new RLE" encodings.
fn read_scanline<R: BufRead>(reader: &mut R, width: usize) -> Result<Vec<[u8; 4]>, ImageError> {
    let decode_err = |reason: &str| ImageError::Decode {
        format: "Radiance RGBE",
        reason: reason.to_string(),
    };

    let mut lead = [0u8; 4];
    reader.read_exact(&mut lead)?;

    let is_new_rle = lead[0] == 2
        && lead[1] == 2
        && ((lead[2] as usize) << 8 | lead[3] as usize) == width
        && (8..32768).contains(&width);
    if !is_new_rle {
        // Flat scanline: the four bytes already read are the first pixel.
        let rest = read_payload(&mut *reader, (width - 1) * 4)?;
        let (quads, _) = rest.as_chunks::<4>();
        return Ok(std::iter::once(lead).chain(quads.iter().copied()).collect());
    }

    // New RLE: four separate component planes, each run-length encoded.
    let mut planes = vec![vec![0u8; width]; 4];
    for plane in planes.iter_mut() {
        let mut x = 0usize;
        while x < width {
            let mut code = [0u8; 1];
            reader.read_exact(&mut code)?;
            let code = code[0] as usize;
            if code > 128 {
                // Run of the next byte, length code - 128.
                let run = code - 128;
                if x + run > width {
                    return Err(decode_err("RLE run overflows scanline"));
                }
                let mut value = [0u8; 1];
                reader.read_exact(&mut value)?;
                plane[x..x + run].fill(value[0]);
                x += run;
            } else {
                // Literal of `code` bytes.
                if code == 0 || x + code > width {
                    return Err(decode_err("RLE literal overflows scanline"));
                }
                reader.read_exact(&mut plane[x..x + code])?;
                x += code;
            }
        }
    }
    Ok((0..width)
        .map(|x| [planes[0][x], planes[1][x], planes[2][x], planes[3][x]])
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SceneKind;

    #[test]
    fn rgbe_pixel_round_trip_relative_error_small() {
        for &v in &[1e-6f32, 0.01, 0.5, 1.0, 37.5, 1e4] {
            let p = Rgb::new(v, v * 0.5, v * 0.25);
            let decoded = decode_rgbe(encode_rgbe(p));
            // The shared-exponent encoding guarantees ~0.4% relative error on
            // the dominant channel and up to ~2% on channels a few times
            // smaller than the maximum.
            for (orig, back) in [(p.r, decoded.r), (p.g, decoded.g), (p.b, decoded.b)] {
                if orig > 1e-30 {
                    assert!(
                        (back - orig).abs() / orig < 0.02,
                        "relative error too large: {orig} vs {back}"
                    );
                }
            }
        }
    }

    #[test]
    fn black_encodes_to_zero_exponent() {
        assert_eq!(encode_rgbe(Rgb::splat(0.0)), [0, 0, 0, 0]);
        assert_eq!(decode_rgbe([0, 0, 0, 0]), Rgb::splat(0.0));
    }

    #[test]
    fn file_round_trip_preserves_image_shape_and_values() {
        let scene = SceneKind::SunAndShadow.generate(32, 16, 3);
        let rgb = RgbImage::from_fn(32, 16, |x, y| Rgb::splat(*scene.get(x, y).unwrap()));
        let mut buf = Vec::new();
        write_rgbe(&rgb, &mut buf).unwrap();
        let back = read_rgbe(buf.as_slice()).unwrap();
        assert_eq!(back.dimensions(), (32, 16));
        for (a, b) in rgb.pixels().iter().zip(back.pixels()) {
            if a.r > 1e-6 {
                assert!((a.r - b.r).abs() / a.r < 0.01);
            }
        }
    }

    #[test]
    fn header_without_magic_is_rejected() {
        let data = b"not a radiance file".to_vec();
        assert!(read_rgbe(data.as_slice()).is_err());
    }

    #[test]
    fn header_with_wrong_format_is_rejected() {
        let data = b"#?RADIANCE\nFORMAT=32-bit_rle_xyze\n\n-Y 1 +X 1\n\0\0\0\0".to_vec();
        assert!(read_rgbe(data.as_slice()).is_err());
    }

    #[test]
    fn truncated_pixel_data_is_an_io_error() {
        let mut buf = Vec::new();
        let rgb = RgbImage::filled(4, 4, Rgb::splat(1.0));
        write_rgbe(&rgb, &mut buf).unwrap();
        buf.truncate(buf.len() - 8);
        assert!(read_rgbe(buf.as_slice()).is_err());
    }

    #[test]
    fn overflowing_header_dimensions_are_rejected_not_panicking() {
        // width * height overflows usize.
        let data = b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n-Y 4 +X 4611686018427387904\n\0\0\0\0";
        let err = read_rgbe(data.as_slice()).unwrap_err();
        assert!(
            matches!(err, ImageError::InvalidDimensions { height: 4, .. }),
            "{err:?}"
        );
        // One huge flat scanline that fits usize but not the stream is a
        // short read, not an up-front allocation of the claimed row.
        let data = b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n-Y 1 +X 1152921504606846976\n\0\0\0\0";
        let err = read_rgbe(data.as_slice()).unwrap_err();
        assert!(matches!(err, ImageError::Io(_)), "{err:?}");
    }

    #[test]
    fn rle_scanline_is_decoded() {
        // Hand-build a 1x8 image with the new-RLE encoding: each of the four
        // planes is a run of 8 identical bytes.
        let mut data = Vec::new();
        data.extend_from_slice(b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n-Y 1 +X 8\n");
        data.extend_from_slice(&[2, 2, 0, 8]);
        for value in [128u8, 64, 32, 129] {
            data.push(128 + 8); // run of 8
            data.push(value);
        }
        let img = read_rgbe(data.as_slice()).unwrap();
        assert_eq!(img.dimensions(), (8, 1));
        let expected = decode_rgbe([128, 64, 32, 129]);
        for p in img.pixels() {
            assert_eq!(*p, expected);
        }
    }
}
