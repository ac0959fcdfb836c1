//! Spans recorded from outside the program, around each call into a layer.
//!
//! A span is a name, a start and an end (nanoseconds from the run's
//! origin) and the span that caused it. Spans stay in memory while the
//! workload runs and are written out once it ends; a disabled tracer
//! records nothing, so the untraced runs that produce the end-to-end
//! metrics pay only a branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within a run: the recording tracer's index in the high
    /// 32 bits, its sequence number in the low bits.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `decode` or `service.submit`.
    pub name: &'static str,
    /// Start, in nanoseconds from the run's origin.
    pub start_ns: u64,
    /// End, in nanoseconds from the run's origin.
    pub end_ns: u64,
}

impl Span {
    /// The span's length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder owned by one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    index: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder stamping times against `origin`. `index` distinguishes
    /// the ids of tracers owned by different threads of one run.
    pub fn new(enabled: bool, origin: Instant, index: u32) -> Self {
        Tracer {
            enabled,
            origin,
            index: u64::from(index) << 32,
            next: 0,
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
        }
    }

    /// Nanoseconds from the origin to `at`.
    fn stamp(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Reserves an id, so children recorded first can name their parent.
    pub fn reserve(&mut self) -> u64 {
        self.next += 1;
        self.index | self.next
    }

    /// Records the span `[start, end]` under a reserved id.
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let span = Span {
                id,
                parent,
                name,
                start_ns: self.stamp(start),
                end_ns: self.stamp(end),
            };
            self.spans.push(span);
        }
    }

    /// Records the span `[start, end]` under a fresh id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let id = self.reserve();
            self.record_as(id, name, parent, start, end);
        }
    }

    /// The spans recorded so far.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// covered by its children (overlapping children count once; a child
/// reaching outside its parent counts only inside it). Returned in the
/// order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&span.id) {
                kids.sort_unstable();
                let mut reach = span.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            span.duration_ns() - covered.min(span.duration_ns())
        })
        .collect()
}

/// Per span name: `(count, total self time in ns)`.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut table: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let entry = table.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += own;
    }
    table
}

/// Durations in milliseconds of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// Writes the spans as tab-separated `id parent name start_ns end_ns`
/// rows (parent `-` for roots), creating the file's directory.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.id, parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 50, 60),
            span(4, Some(2), 12, 20),
        ];
        // 100 - (20 + 10); 20 - 8; leaves keep their whole duration.
        assert_eq!(self_times(&spans), vec![70, 12, 10, 8]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped_to_the_parent() {
        let spans = [
            span(1, None, 100, 200),
            span(2, Some(1), 90, 130),  // covers 100..130 inside the parent
            span(3, Some(1), 120, 150), // overlaps the first: adds 130..150
            span(4, Some(1), 190, 260), // covers 190..200 inside the parent
        ];
        assert_eq!(self_times(&spans)[0], 100 - (30 + 20 + 10));
    }

    #[test]
    fn disabled_tracer_records_nothing_and_ids_are_unique_per_tracer() {
        let origin = Instant::now();
        let mut off = Tracer::new(false, origin, 0);
        off.record("x", None, origin, origin);
        assert!(off.into_spans().is_empty());

        let mut a = Tracer::new(true, origin, 0);
        let mut b = Tracer::new(true, origin, 1);
        let parent = a.reserve();
        b.record("child", Some(parent), origin, origin);
        a.record_as(parent, "parent", None, origin, origin);
        let (sa, sb) = (a.into_spans(), b.into_spans());
        assert_ne!(sa[0].id, sb[0].id);
        assert_eq!(sb[0].parent, Some(sa[0].id));
    }

    #[test]
    fn grouping_sums_self_time_per_name() {
        let mut spans = vec![span(1, None, 0, 10), span(2, Some(1), 0, 4)];
        spans[1].name = "child";
        let table = self_time_by_name(&spans);
        assert_eq!(table["s"], (1, 6));
        assert_eq!(table["child"], (1, 4));
    }
}
