//! Accuracy and speed gate of the crate's `f32` `exp2`/`powf` kernel
//! (`tonemap_core::fmath`), the one definition behind the masking
//! exponent, the masking correction and the gamma curve.
//!
//! * **`exp2`, exhaustive** — every one of the 2³² `f32` bit patterns goes
//!   through the row form and is compared with the `f64` reference
//!   `(x as f64).exp2() as f32`. The gate fails if any result is more than
//!   1 ULP away or a NaN/non-NaN disagrees.
//! * **`powf`, seeded** — 10⁸ pairs over the masking and gamma domain:
//!   bases uniform on `[0, 1]`, log-uniform on `[2⁻⁶⁰, 1]` and on
//!   `(1, 10⁶]`; exponents from strength-1…8 masks (`2^(s·(1 − 2m))`), the
//!   preset gammas and log-uniform on `[2⁻¹⁰, 2¹⁰]`. Compared with
//!   `(x as f64).powf(y as f64) as f32`, same 1 ULP bound.
//! * **8-bit quantiser, exhaustive** — every `f32` bit pattern goes
//!   through [`hdr_image::unit_to_u8`] and the saturating cast it
//!   replaces, `(v.clamp(0.0, 1.0) * 255.0).round() as u8`. The gate fails
//!   on any difference.
//! * **Mismatches against libm** (`f32::exp2`, `f32::powf`) are counted
//!   and reported, not gated: libm is not correctly rounded either.
//! * **Speed** — ns/px at 1024×768, one thread, of the streaming planner's
//!   `Mask` and `Gamma` row arms on the kernel and of the same arms written
//!   with the libm calls. The gate fails unless the kernel's `Mask` arm is
//!   at least 2× faster than libm's (a ratio, so it holds across hosts);
//!   the absolute ≤ 4 ns/px target is reported as `mask_target_met`.
//!
//! Results go to `BENCH_fmath.json`.
//!
//! ```text
//! cargo run -p bench --release --bin fmath    # CI=true trims the timing reps
//! ```

use bench::{json, write_bench_json};
use hdr_image::synth::SceneKind;
use hdr_image::unit_to_u8;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Add;
use std::time::Instant;
use tonemap_core::fmath;
use tonemap_core::masking::{invert, mask_row};
use tonemap_core::normalize::normalize;
use tonemap_core::plan::gamma_row;
use tonemap_core::{blur::blur_separable, BlurParams, MaskingParams};

const WIDTH: usize = 1024;
const HEIGHT: usize = 768;
const POWF_PAIRS: u64 = 100_000_000;
const REQUIRED_MASK_SPEEDUP: f64 = 2.0;
const MASK_TARGET_NS_PX: f64 = 4.0;
const PRESET_GAMMAS: [f32; 4] = [1.0 / 2.2, 0.45, 2.2, 1.0];

fn same(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Comparison tallies of one function against its references.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    inputs: u64,
    max_ulps: u64,
    /// Results more than 1 ULP from the reference, or NaN-ness mismatches.
    failures: u64,
    off_reference: u64,
    off_libm: u64,
}

impl Tally {
    fn record(&mut self, ours: f32, reference: f32, libm: f32) {
        self.inputs += 1;
        match fmath::ulps(ours, reference) {
            Some(d) => {
                self.max_ulps = self.max_ulps.max(d);
                if d > 1 {
                    self.failures += 1;
                }
            }
            None => self.failures += 1,
        }
        self.off_reference += u64::from(!same(ours, reference));
        self.off_libm += u64::from(!same(ours, libm));
    }

    fn json(&self) -> String {
        json::obj([
            ("inputs", json::num(self.inputs as f64)),
            ("max_ulps", json::num(self.max_ulps as f64)),
            ("over_1_ulp", json::num(self.failures as f64)),
            (
                "differ_from_f64_reference",
                json::num(self.off_reference as f64),
            ),
            ("differ_from_libm", json::num(self.off_libm as f64)),
            (
                "libm_mismatch_frac",
                json::num(self.off_libm as f64 / self.inputs as f64),
            ),
        ])
    }
}

impl Add for Tally {
    type Output = Tally;

    /// Merges two workers' tallies.
    fn add(mut self, other: Tally) -> Tally {
        self.inputs += other.inputs;
        self.max_ulps = self.max_ulps.max(other.max_ulps);
        self.failures += other.failures;
        self.off_reference += other.off_reference;
        self.off_libm += other.off_libm;
        self
    }
}

/// Splits `0..total` into one contiguous range per worker thread and merges
/// the workers' results.
fn parallel<T: Send + Default + Add<Output = T>>(
    total: u64,
    work: impl Fn(u64, u64) -> T + Sync,
) -> T {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4) as u64;
    let step = total.div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let work = &work;
                scope.spawn(move || work(t * step, ((t + 1) * step).min(total)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .fold(T::default(), |a, b| a + b)
    })
}

fn exhaustive_exp2() -> Tally {
    parallel(1 << 32, |start, end| {
        let mut tally = Tally::default();
        let mut row = vec![0.0f32; 4096];
        let mut bits = start;
        while bits < end {
            let n = ((end - bits) as usize).min(row.len());
            for (i, v) in row[..n].iter_mut().enumerate() {
                *v = f32::from_bits((bits + i as u64) as u32);
            }
            fmath::exp2_row(&mut row[..n]);
            for (i, &ours) in row[..n].iter().enumerate() {
                let x = f32::from_bits((bits + i as u64) as u32);
                tally.record(ours, (x as f64).exp2() as f32, x.exp2());
            }
            bits += n as u64;
        }
        tally
    })
}

/// Counts the `f32` bit patterns on which [`unit_to_u8`] and the
/// saturating cast it replaced disagree.
fn exhaustive_quantiser() -> u64 {
    parallel(1 << 32, |start, end| {
        (start..end)
            .map(|bits| f32::from_bits(bits as u32))
            .filter(|&v| unit_to_u8(v) != (v.clamp(0.0, 1.0) * 255.0).round() as u8)
            .count() as u64
    })
}

/// One seeded `(base, exponent)` pair of the masking/gamma domain.
fn powf_pair(rng: &mut StdRng) -> (f32, f32) {
    let unit = |rng: &mut StdRng| (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
    let x = match rng.next_u64() % 3 {
        0 => unit(rng),
        1 => fmath::exp2(-60.0 * unit(rng)),
        _ => 1.0 + (1e6 - 1.0) * unit(rng).powi(4) + f32::EPSILON,
    };
    let y = match rng.next_u64() % 3 {
        0 => {
            let strength = 1.0 + (rng.next_u64() % 8) as f32;
            let mask = unit(rng);
            fmath::exp2(strength * (1.0 - 2.0 * mask))
        }
        1 => PRESET_GAMMAS[(rng.next_u64() % PRESET_GAMMAS.len() as u64) as usize],
        _ => fmath::exp2(rng.gen_range(-10.0..10.0)),
    };
    (x, y)
}

fn seeded_powf() -> Tally {
    const CHUNK: u64 = 1 << 16;
    parallel(POWF_PAIRS.div_ceil(CHUNK), |start, end| {
        let mut tally = Tally::default();
        let mut xs = vec![0.0f32; CHUNK as usize];
        let mut ys = vec![0.0f32; CHUNK as usize];
        for chunk in start..end {
            let mut rng = StdRng::seed_from_u64(0x706f_7766 ^ chunk);
            for (x, y) in xs.iter_mut().zip(ys.iter_mut()) {
                (*x, *y) = powf_pair(&mut rng);
            }
            let bases = xs.clone();
            fmath::powf_row(&mut xs, &ys);
            for ((&ours, &x), &y) in xs.iter().zip(&bases).zip(&ys) {
                tally.record(ours, (x as f64).powf(y as f64) as f32, x.powf(y));
            }
        }
        tally
    })
}

/// One row arm under test: a row of values and the matching mask row.
type RowArm<'a> = &'a mut dyn FnMut(&mut [f32], &[f32]);

struct ArmTimes {
    mask_kernel: f64,
    mask_libm: f64,
    gamma_kernel: f64,
    gamma_libm: f64,
}

/// Times the `Mask` and `Gamma` row arms on the paper scene's normalized
/// frame and its blurred inverted mask, kernel against libm: best of
/// `reps` passes over the frame per arm, the four arms interleaved pass by
/// pass so a slow spell of the host lands on all of them.
fn arm_times(reps: usize) -> ArmTimes {
    let hdr = SceneKind::WindowInDarkRoom.generate(WIDTH, HEIGHT, 2018);
    let normalized = normalize(&hdr);
    let mask = blur_separable(&invert(&normalized), &BlurParams::paper_default());
    let params = MaskingParams::paper_default();
    let gamma = 1.0 / 2.2;
    let libm_mask = |v: f32, m: f32| {
        let exponent = (params.strength * (1.0 - 2.0 * m)).exp2();
        v.max(0.0).powf(exponent).clamp(0.0, 1.0)
    };
    let mut arms: [RowArm; 4] = [
        &mut |r, m| mask_row(r, m, &params),
        &mut |r, m| {
            for (v, &m) in r.iter_mut().zip(m) {
                *v = libm_mask(*v, m);
            }
        },
        &mut |r, _| gamma_row(r, gamma),
        &mut |r, _| {
            for v in r.iter_mut() {
                *v = v.max(0.0).powf(gamma).clamp(0.0, 1.0);
            }
        },
    ];
    let mut row = vec![0.0f32; WIDTH];
    let mut sink = 0.0f32;
    let mut best = [f64::INFINITY; 4];
    for _ in 0..reps {
        for (arm, best) in arms.iter_mut().zip(&mut best) {
            let start = Instant::now();
            for (values, m) in normalized
                .pixels()
                .chunks(WIDTH)
                .zip(mask.pixels().chunks(WIDTH))
            {
                row.copy_from_slice(values);
                arm(&mut row, m);
                sink += row[0];
            }
            *best = best.min(start.elapsed().as_secs_f64());
        }
    }
    std::hint::black_box(sink);
    let [mask_kernel, mask_libm, gamma_kernel, gamma_libm] =
        best.map(|t| t * 1e9 / (WIDTH * HEIGHT) as f64);
    ArmTimes {
        mask_kernel,
        mask_libm,
        gamma_kernel,
        gamma_libm,
    }
}

fn main() {
    let ci = std::env::var("CI").is_ok();
    let reps = if ci { 10 } else { 30 };

    // Timed first, before the accuracy sweeps load every core.
    let arms = arm_times(reps);

    let started = Instant::now();
    let exp2 = exhaustive_exp2();
    println!(
        "exp2, all 2^32 inputs ({:.1} s): max {} ULP, {} over 1 ULP, {} differ from the f64 reference, {} ({:.2e}) from libm",
        started.elapsed().as_secs_f64(),
        exp2.max_ulps,
        exp2.failures,
        exp2.off_reference,
        exp2.off_libm,
        exp2.off_libm as f64 / exp2.inputs as f64,
    );
    let started = Instant::now();
    let powf = seeded_powf();
    println!(
        "powf, {} seeded pairs ({:.1} s): max {} ULP, {} over 1 ULP, {} differ from the f64 reference, {} ({:.2e}) from libm",
        powf.inputs,
        started.elapsed().as_secs_f64(),
        powf.max_ulps,
        powf.failures,
        powf.off_reference,
        powf.off_libm,
        powf.off_libm as f64 / powf.inputs as f64,
    );

    let started = Instant::now();
    let quantiser_differences = exhaustive_quantiser();
    println!(
        "unit_to_u8, all 2^32 inputs ({:.1} s): {quantiser_differences} differ from the saturating cast",
        started.elapsed().as_secs_f64(),
    );

    let mask_speedup = arms.mask_libm / arms.mask_kernel;
    println!("row arms at {WIDTH}x{HEIGHT}, one thread, best of {reps}:");
    println!(
        "  Mask   kernel {:6.2} ns/px   libm {:6.2} ns/px   ({mask_speedup:.2}x; target <= {MASK_TARGET_NS_PX} ns/px)",
        arms.mask_kernel, arms.mask_libm
    );
    println!(
        "  Gamma  kernel {:6.2} ns/px   libm {:6.2} ns/px   ({:.2}x)",
        arms.gamma_kernel,
        arms.gamma_libm,
        arms.gamma_libm / arms.gamma_kernel
    );

    write_bench_json(
        "fmath",
        &json::obj([
            ("gate", json::string("fmath")),
            ("exp2_exhaustive", exp2.json()),
            ("powf_seeded", powf.json()),
            (
                "quantiser_exhaustive",
                json::obj([
                    ("inputs", json::num((1u64 << 32) as f64)),
                    ("differ_from_cast", json::num(quantiser_differences as f64)),
                ]),
            ),
            ("width", json::num(WIDTH as f64)),
            ("height", json::num(HEIGHT as f64)),
            ("reps", json::num(reps as f64)),
            (
                "ns_per_pixel",
                json::obj([
                    ("mask_kernel", json::num(arms.mask_kernel)),
                    ("mask_libm", json::num(arms.mask_libm)),
                    ("gamma_kernel", json::num(arms.gamma_kernel)),
                    ("gamma_libm", json::num(arms.gamma_libm)),
                ]),
            ),
            ("mask_speedup", json::num(mask_speedup)),
            ("required_mask_speedup", json::num(REQUIRED_MASK_SPEEDUP)),
            ("mask_target_ns_px", json::num(MASK_TARGET_NS_PX)),
            (
                "mask_target_met",
                (arms.mask_kernel <= MASK_TARGET_NS_PX).to_string(),
            ),
        ]),
    );

    assert_eq!(exp2.failures, 0, "exp2 is more than 1 ULP off");
    assert_eq!(powf.failures, 0, "powf is more than 1 ULP off");
    assert_eq!(
        quantiser_differences, 0,
        "unit_to_u8 differs from the saturating cast"
    );
    assert!(
        mask_speedup >= REQUIRED_MASK_SPEEDUP,
        "Mask arm speedup {mask_speedup:.2}x fell below the required {REQUIRED_MASK_SPEEDUP:.1}x"
    );
}
