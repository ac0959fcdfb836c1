//! What one workload run hands back, and the JSON line the run prints.

use crate::trace::Span;
use std::fmt::Write;
use std::time::Instant;

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit label, e.g. `ms`.
    pub unit: &'static str,
}

/// An ordered list of metrics.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Appends every metric of `other`.
    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    /// The value of the metric called `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations offered (calls, jobs or frames).
    pub attempted: u64,
    /// Operations that errored, were refused, shed, expired or lost,
    /// mismatched their oracle, or arrived out of order.
    pub failed: u64,
    /// Failed operations, oracle mismatches and counters that did not
    /// reconcile, described.
    pub problems: Vec<String>,
    /// Metrics a user of the system sees (measured with tracing off).
    pub end_to_end: Metrics,
    /// Metrics of single layers (meaningful in traced runs).
    pub per_layer: Metrics,
    /// Spans recorded while tracing.
    pub spans: Vec<Span>,
    /// 90th percentile of how late the open-loop generator submitted, in
    /// ms (`None` for a closed loop).
    pub lateness_p90_ms: Option<f64>,
    /// Wall-clock length of the measured window, in seconds.
    pub window_s: f64,
}

/// Most problem descriptions a run keeps; operations that fail past it
/// are still counted in [`Run::failed`].
pub const MAX_PROBLEMS: usize = 20;

/// Records a problem, keeping at most [`MAX_PROBLEMS`] descriptions so a
/// run in which every operation fails does not grow without bound.
pub fn note(problems: &mut Vec<String>, problem: impl Into<String>) {
    if problems.len() < MAX_PROBLEMS {
        problems.push(problem.into());
    }
}

/// From-scratch set-up times of one run. Beyond the first, set-ups are
/// spread through the measured window with the workload paused, so their
/// median samples the same host conditions as the window does instead of
/// one short burst before it.
#[derive(Debug, Default)]
pub struct Setups {
    /// Construction plus first response, in s.
    pub total_s: Vec<f64>,
    /// First response alone, in ms.
    pub cold_ms: Vec<f64>,
}

impl Setups {
    /// Times `build` and then `first` on what it built.
    pub fn time<T, R>(&mut self, build: impl FnOnce() -> T, first: impl FnOnce(&T) -> R) -> (T, R) {
        let t0 = Instant::now();
        let fresh = build();
        let t1 = Instant::now();
        let response = first(&fresh);
        let done = Instant::now();
        self.total_s.push((done - t0).as_secs_f64());
        self.cold_ms.push((done - t1).as_secs_f64() * 1e3);
        (fresh, response)
    }
}

/// How many of `extra` set-ups run at pause `i` (1-based) of `pauses`, so
/// that they spread evenly and add up to `extra`.
pub fn setups_at_pause(extra: usize, pauses: usize, i: usize) -> usize {
    if pauses == 0 {
        return 0;
    }
    i * extra / pauses - (i - 1) * extra / pauses
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// FNV-1a over the bit patterns of a frame: outputs are compared with
/// their oracle by hash so the check holds no second copy of every frame.
pub fn frame_hash(pixels: &[f32]) -> u64 {
    pixels.iter().fold(0xCBF2_9CE4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Turns a backend spec plus a frame size into a metric-name suffix:
/// `pipeline=` and `schedule=` values stand alone, other keys keep their
/// name (`sw-f32?pipeline=basedetail&schedule=auto`, 1024×576 →
/// `sw-f32.basedetail.auto.1024x576`), so names stay within 64 characters.
pub fn spec_key(spec: &str, (width, height): (usize, usize)) -> String {
    let mut parts = spec.split(['?', '&']);
    let mut key = parts.next().unwrap_or_default().to_string();
    for pair in parts {
        key.push('.');
        match pair.split_once('=') {
            Some(("pipeline" | "schedule", value)) => key.push_str(value),
            Some((name, value)) => key.push_str(&format!("{name}-{value}")),
            None => key.push_str(pair),
        }
    }
    format!("{key}.{width}x{height}")
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`. Values print with every digit Rust's shortest
/// round-trip formatting keeps.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_four_keys_and_full_precision() {
        let mut m = Metrics::default();
        m.push("latency_mean_ms", 1.203_456_789, "ms");
        m.push("setup_s", 2.0, "s");
        let line = json_line(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"latency_mean_ms\": {\"value\": 1.203456789, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn spec_keys_are_valid_metric_names() {
        assert_eq!(
            spec_key("sw-f32?pipeline=basedetail&schedule=auto", (1024, 576)),
            "sw-f32.basedetail.auto.1024x576"
        );
        assert_eq!(
            spec_key("sw-f32-stream?temporal=leaky&tau=4", (640, 360)),
            "sw-f32-stream.temporal-leaky.tau-4.640x360"
        );
        use crate::{serve, still, video};
        let mut used = vec![(still::SPEC, still::SIZE), (video::SPEC, video::SIZE)];
        used.extend(serve::INTERACTIVE_SPECS.map(|s| (s, serve::INTERACTIVE_SIZE)));
        for size in serve::BATCH_SIZES {
            used.extend(serve::BATCH_SPECS.map(|s| (s, size)));
        }
        for (spec, size) in used {
            let name = format!("backend.cold_call_ms.{}", spec_key(spec, size));
            assert!(name.len() <= 64, "{name} is too long");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn extra_setups_spread_evenly_and_add_up() {
        for (extra, pauses) in [(24, 12), (29, 29), (5, 12), (0, 3), (7, 0)] {
            let per: Vec<usize> = (1..=pauses)
                .map(|i| setups_at_pause(extra, pauses, i))
                .collect();
            let want = if pauses == 0 { 0 } else { extra };
            assert_eq!(per.iter().sum::<usize>(), want);
            let (lo, hi) = (per.iter().min(), per.iter().max());
            if let (Some(lo), Some(hi)) = (lo, hi) {
                assert!(hi - lo <= 1, "{extra} over {pauses}: {per:?}");
            }
        }
    }

    #[test]
    fn frame_hash_sees_single_bit_changes() {
        let a = vec![0.25f32; 64];
        let mut b = a.clone();
        b[63] = f32::from_bits(b[63].to_bits() ^ 1);
        assert_ne!(frame_hash(&a), frame_hash(&b));
        assert_eq!(frame_hash(&a), frame_hash(&a.clone()));
    }
}
