//! Seeded randomness: every input and arrival schedule is a pure function
//! of `--seed`, so two runs with the same seed offer the same load.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generator for `seed` and a `stream` label, so independent draws
/// (scene seeds, arrival times) do not share a sequence.
pub fn seeded(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// A uniform draw from `[0, 1)` with 53 random bits.
pub fn unit(rng: &mut impl Rng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// A uniform draw from `0..n` (`n > 0`).
pub fn below(rng: &mut impl Rng, n: usize) -> usize {
    (unit(rng) * n as f64) as usize % n
}

/// Arrival instants, in seconds from the start of the window, of a
/// Poisson process of `rate` arrivals per second over `seconds`,
/// conditioned on its expected count: `round(rate × seconds)` instants
/// drawn uniformly and sorted. Conditioning keeps the offered work of a
/// run fixed, so seeds move only *when* the work arrives.
pub fn poisson_arrivals(rng: &mut impl Rng, rate: f64, seconds: f64) -> Vec<f64> {
    let count = (rate * seconds).round() as usize;
    let mut times: Vec<f64> = (0..count).map(|_| unit(rng) * seconds).collect();
    times.sort_by(f64::total_cmp);
    times
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_same_draws() {
        let draws = |seed, stream| -> Vec<u64> {
            let mut r = seeded(seed, stream);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(draws(7, 1), draws(7, 1));
        assert_ne!(draws(7, 1), draws(7, 2));
        assert_ne!(draws(7, 1), draws(8, 1));
    }

    #[test]
    fn unit_and_below_stay_in_range() {
        let mut r = seeded(3, 0);
        for _ in 0..10_000 {
            let u = unit(&mut r);
            assert!((0.0..1.0).contains(&u));
            assert!(below(&mut r, 5) < 5);
        }
    }

    #[test]
    fn arrivals_are_deterministic_sorted_and_counted() {
        let a = poisson_arrivals(&mut seeded(11, 4), 250.0, 2.0);
        let b = poisson_arrivals(&mut seeded(11, 4), 250.0, 2.0);
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..2.0).contains(&t)));
        let c = poisson_arrivals(&mut seeded(12, 4), 250.0, 2.0);
        assert_ne!(a, c);
        // The inter-arrival mean of a rate-250 process is 4 ms.
        let mean_gap = (a[a.len() - 1] - a[0]) / (a.len() - 1) as f64;
        assert!((mean_gap - 0.004).abs() < 0.0008, "mean gap {mean_gap}");
    }
}
