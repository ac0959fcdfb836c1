//! Never-panic properties for the inputs a caller does not control: image
//! files and engine spec strings. Random bytes, truncated and corrupted
//! encodings and headers that claim absurd dimensions go into `read_pfm`,
//! `read_pgm` and `read_rgbe`; random strings built from the spec grammar's
//! own tokens (and from arbitrary characters) go into `BackendSpec::parse`.
//! Every call must return a value or a typed error — a panic fails the
//! test, and an allocation sized from a header alone would abort it.

use hdr_image::io::{read_pfm, read_pgm, read_rgbe, write_pfm, write_pgm, write_rgbe};
use hdr_image::{ImageError, LdrImage, LuminanceImage, Rgb, RgbImage};
use proptest::prelude::*;
use tonemap_backend::{BackendSpec, TonemapError};

/// Dimension fields a header may claim: degenerate, ordinary, huge and
/// overflowing, negative and non-numeric.
fn dimension_field() -> impl Strategy<Value = String> {
    prop_oneof![
        (0usize..4).prop_map(|v| v.to_string()),
        (1usize..40).prop_map(|v| v.to_string()),
        Just("60000".to_string()),
        Just("99999".to_string()),
        Just(u32::MAX.to_string()),
        Just(usize::MAX.to_string()),
        Just("18446744073709551616".to_string()),
        Just("-5".to_string()),
        Just("1e3".to_string()),
        Just("x".to_string()),
    ]
}

fn bytes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), len)
}

/// A small valid image of each format, encoded.
fn small_pfm(width: usize, height: usize) -> Vec<u8> {
    let image = LuminanceImage::from_fn(width, height, |x, y| (x * 3 + y) as f32 * 0.25);
    let mut out = Vec::new();
    write_pfm(&image, &mut out).expect("encoding into memory");
    out
}

fn small_pgm(width: usize, height: usize) -> Vec<u8> {
    let image = LdrImage::from_fn(width, height, |x, y| (x * 7 + y * 13) as u8);
    let mut out = Vec::new();
    write_pgm(&image, &mut out).expect("encoding into memory");
    out
}

fn small_rgbe(width: usize, height: usize) -> Vec<u8> {
    let image = RgbImage::from_fn(width, height, |x, y| {
        Rgb::new(x as f32 * 0.5, y as f32 * 2.0, (x + y) as f32 * 30.0)
    });
    let mut out = Vec::new();
    write_rgbe(&image, &mut out).expect("encoding into memory");
    out
}

/// A valid encoding, cut at a random point and with a few bytes replaced.
fn damaged(encode: fn(usize, usize) -> Vec<u8>) -> impl Strategy<Value = Vec<u8>> {
    (
        1usize..40,
        1usize..6,
        0usize..4096,
        prop::collection::vec((any::<usize>(), any::<u8>()), 0..4),
    )
        .prop_map(move |(width, height, cut, edits)| {
            let mut data = encode(width, height);
            for (at, byte) in edits {
                let at = at % data.len();
                data[at] = byte;
            }
            data.truncate(cut.min(data.len()));
            data
        })
}

/// A decoder's error must be one of the decode-time variants.
fn assert_typed<T>(result: Result<T, ImageError>, what: &str) {
    if let Err(err) = result {
        assert!(
            matches!(
                err,
                ImageError::Decode { .. }
                    | ImageError::InvalidDimensions { .. }
                    | ImageError::DataSizeMismatch { .. }
                    | ImageError::Io(_)
            ),
            "{what}: unexpected error variant {err:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decoders_survive_random_bytes(data in bytes(0..600)) {
        assert_typed(read_pfm(data.as_slice()), "pfm");
        assert_typed(read_pgm(data.as_slice()), "pgm");
        assert_typed(read_rgbe(data.as_slice()), "rgbe");
    }

    #[test]
    fn decoders_survive_random_bytes_behind_valid_magic(data in bytes(0..600)) {
        for magic in [&b"Pf\n"[..], b"P5\n", b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n"] {
            let mut file = magic.to_vec();
            file.extend_from_slice(&data);
            assert_typed(read_pfm(file.as_slice()), "pfm");
            assert_typed(read_pgm(file.as_slice()), "pgm");
            assert_typed(read_rgbe(file.as_slice()), "rgbe");
        }
    }

    #[test]
    fn pfm_survives_truncation_and_corruption(data in damaged(small_pfm)) {
        assert_typed(read_pfm(data.as_slice()), "pfm");
    }

    #[test]
    fn pgm_survives_truncation_and_corruption(data in damaged(small_pgm)) {
        assert_typed(read_pgm(data.as_slice()), "pgm");
    }

    #[test]
    fn rgbe_survives_truncation_and_corruption(data in damaged(small_rgbe)) {
        assert_typed(read_rgbe(data.as_slice()), "rgbe");
    }

    #[test]
    fn decoders_survive_oversized_headers(
        width in dimension_field(),
        height in dimension_field(),
        payload in bytes(0..256),
        rle in any::<bool>(),
    ) {
        let mut pfm = format!("Pf\n{width} {height}\n-1.0\n").into_bytes();
        pfm.extend_from_slice(&payload);
        assert_typed(read_pfm(pfm.as_slice()), "pfm");

        let mut pgm = format!("P5\n{width} {height}\n255\n").into_bytes();
        pgm.extend_from_slice(&payload);
        assert_typed(read_pgm(pgm.as_slice()), "pgm");

        let mut rgbe =
            format!("#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n-Y {height} +X {width}\n").into_bytes();
        if rle {
            // An RLE scanline lead claiming the header's width.
            let w = width.parse::<usize>().unwrap_or(0);
            rgbe.extend_from_slice(&[2, 2, (w >> 8) as u8, w as u8]);
        }
        rgbe.extend_from_slice(&payload);
        assert_typed(read_rgbe(rgbe.as_slice()), "rgbe");
    }
}

/// Tokens of the spec grammar, plus separators, odd numbers and multi-byte
/// characters, so random concatenations reach deep into the parser.
const SPEC_TOKENS: &[&str] = &[
    "sw-f32",
    "hw-fix16",
    "sw-f32-stream",
    "?",
    "&",
    "=",
    "==",
    " ",
    "pipeline",
    "paper",
    "reinhard",
    "gamma",
    "histeq",
    "log",
    "filmic",
    "schedule",
    "stream",
    "auto",
    "two-pass",
    "threads",
    "temporal",
    "leaky",
    "off",
    "tau",
    "cutthresh",
    "sigma",
    "radius",
    "strength",
    "invert_mask",
    "brightness",
    "contrast",
    "channels",
    "bins",
    "reinhard_key",
    "reinhard_white",
    "log_scale",
    "true",
    "0",
    "1",
    "-1",
    "3.5",
    "1e309",
    "NaN",
    "inf",
    "-inf",
    "é",
    "→",
    "\u{0}",
    "\u{feff}",
    ",",
    ".",
    "%",
    "+",
];

fn spec_string() -> impl Strategy<Value = String> {
    prop_oneof![
        prop::collection::vec(0usize..SPEC_TOKENS.len(), 0..14)
            .prop_map(|picks| picks.into_iter().map(|i| SPEC_TOKENS[i]).collect()),
        prop::collection::vec(any::<u32>(), 0..24).prop_map(|codes| {
            codes
                .into_iter()
                .filter_map(|c| char::from_u32(c % 0x11_0000))
                .collect()
        }),
        prop::collection::vec(0u8..128, 0..40)
            .prop_map(|ascii| ascii.into_iter().map(char::from).collect()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn spec_parse_returns_a_spec_or_invalid_spec(text in spec_string()) {
        match BackendSpec::parse(&text) {
            Ok(spec) => {
                // Whatever parses renders and re-parses without panicking.
                let _ = BackendSpec::parse(&spec.to_string());
            }
            Err(err) => prop_assert!(
                matches!(err, TonemapError::InvalidSpec { .. }),
                "{text:?}: unexpected error variant {err:?}"
            ),
        }
    }
}
