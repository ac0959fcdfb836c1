//! The repository benchmark. One command runs a named workload from a
//! seed through the public entry points of the tone-mapping stack, checks
//! every output against an oracle, and prints one JSON line:
//!
//! ```text
//! perfbench --workload <still|serve|video> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the line carries the end-to-end metrics of the named
//! workload, measured with tracing off. With `--trace 1` it carries the
//! per-layer metrics: the named workload runs for the full window twice,
//! untraced and then with a span around every call into a layer, so the
//! cost of tracing is measured; the other two workloads run a short traced
//! slice so every layer is covered; and the `core` ablation table is
//! measured. WORKLOADS.md gives the workloads, the layers each
//! loads and bypasses, and which end-to-end metric each per-layer metric
//! should move.
//!
//! Exit codes: 0 on success; 1 after printing the line when an operation
//! failed, an output differs from its oracle or a counter does not
//! reconcile; 2 on bad arguments; 3, printing no line, when the open-loop
//! generator fell behind its schedule (the run is invalid, not slow); 4,
//! printing no line, when a metric could not be computed.

mod core_table;
mod report;
mod rng;
mod serve;
mod stats;
mod still;
mod trace;
mod video;

use report::{json_line, peak_rss_mb, Metrics, Run};
use std::path::PathBuf;
use trace::{self_time_by_name, write_tsv};

/// Settings shared by every workload run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Seed of every input and schedule.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Whether spans are recorded.
    pub traced: bool,
    /// How many times set-up is repeated from scratch (its median is
    /// reported). `still` and `video` run all but the first inside the
    /// window, with the workload paused.
    pub setup_reps: usize,
}

/// A run whose generator submitted later than this at its 90th percentile
/// fell behind its schedule and is invalid.
const MAX_LATENESS_P90_MS: f64 = 10.0;
/// Directory, relative to the working directory, the traced run writes
/// its spans to.
const TRACE_DIR: &str = ".perfbench";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Still,
    Serve,
    Video,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Still, Workload::Serve, Workload::Video];

    fn name(self) -> &'static str {
        match self {
            Workload::Still => "still",
            Workload::Serve => "serve",
            Workload::Video => "video",
        }
    }

    /// Set-up repetitions of an untraced run: as many as add no more than
    /// a few seconds to it.
    fn setup_reps(self) -> usize {
        match self {
            Workload::Still => 30,
            Workload::Serve => 3,
            Workload::Video => 49,
        }
    }

    fn run(self, cfg: &Config) -> Run {
        match self {
            Workload::Still => still::run(cfg),
            Workload::Serve => serve::run(cfg),
            Workload::Video => video::run(cfg),
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <still|serve|video> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let code = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    std::process::exit(code);
}

fn untraced(args: &Args) -> i32 {
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        traced: false,
        setup_reps: args.workload.setup_reps(),
    };
    let run = args.workload.run(&cfg);
    let mut metrics = run.end_to_end.clone();
    metrics.push("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB");
    finish(&[(args.workload, run)], &metrics)
}

/// The traced run: the named workload for the whole window, untraced and
/// then traced, the others traced for a slice of it, then the `core`
/// table.
fn traced(args: &Args) -> i32 {
    let slice = (args.seconds / 5.0).clamp(2.0, 5.0);
    let baseline = args.workload.run(&Config {
        seed: args.seed,
        seconds: args.seconds,
        traced: false,
        setup_reps: 1,
    });
    let runs: Vec<(Workload, Run)> = Workload::ALL
        .into_iter()
        .map(|w| {
            let cfg = Config {
                seed: args.seed,
                seconds: if w == args.workload {
                    args.seconds
                } else {
                    slice
                },
                traced: true,
                setup_reps: 1,
            };
            (w, w.run(&cfg))
        })
        .collect();

    let mut metrics = Metrics::default();
    for (_, run) in &runs {
        metrics.extend(run.per_layer.clone());
    }
    let lateness = runs
        .iter()
        .filter_map(|(_, r)| r.lateness_p90_ms)
        .fold(f64::NAN, f64::max);
    metrics.push("gen.lateness_ms_p90", lateness, "ms");
    metrics.extend(core_table::run(args.seed));

    let (_, named) = runs
        .iter()
        .find(|(w, _)| *w == args.workload)
        .expect("the named workload ran");
    // The traced window's mean latency against the untraced window's,
    // same workload and seed. It carries the run-to-run noise of the
    // host, so it can read below zero.
    let latency = |run: &Run| run.end_to_end.get("latency_mean_ms").unwrap_or(f64::NAN);
    metrics.push(
        "trace.overhead_frac",
        latency(named) / latency(&baseline) - 1.0,
        "fraction",
    );

    for (w, run) in &runs {
        print_self_times(*w, run);
        let path = PathBuf::from(TRACE_DIR).join(format!(
            "trace-{}-{}-seed{}.tsv",
            args.workload.name(),
            w.name(),
            args.seed
        ));
        if let Err(e) = write_tsv(&path, &run.spans) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
    let mut runs = runs;
    runs.push((args.workload, baseline));
    finish(&runs, &metrics)
}

fn print_self_times(workload: Workload, run: &Run) {
    let table = self_time_by_name(&run.spans);
    let total: u64 = table.values().map(|&(_, ns)| ns).sum();
    eprintln!(
        "span self time, {} ({} spans; share of all self time)",
        workload.name(),
        run.spans.len()
    );
    for (name, (count, ns)) in &table {
        eprintln!(
            "  {name:<22} {count:>8} {:>12.3} ms {:>7.3}",
            *ns as f64 / 1e6,
            *ns as f64 / total.max(1) as f64
        );
    }
}

/// Reports problems, rejects invalid runs, prints the result line and
/// picks the exit code: any failed operation makes the run incorrect.
fn finish(runs: &[(Workload, Run)], metrics: &Metrics) -> i32 {
    let attempted: u64 = runs.iter().map(|(_, r)| r.attempted).sum();
    let failed: u64 = runs.iter().map(|(_, r)| r.failed).sum();
    let problems: Vec<&String> = runs.iter().flat_map(|(_, r)| &r.problems).collect();
    for problem in problems.iter().take(20) {
        eprintln!("perfbench: {problem}");
    }
    for (w, run) in runs {
        eprintln!(
            "  {}: attempted {}, failed {} (failed_frac {:.6}), window {:.3} s",
            w.name(),
            run.attempted,
            run.failed,
            run.failed as f64 / run.attempted.max(1) as f64,
            run.window_s
        );
        if let Some(late) = run.lateness_p90_ms {
            if late > MAX_LATENESS_P90_MS {
                eprintln!(
                    "perfbench: invalid run: the {} generator ran {late:.2} ms late at p90 \
                     (limit {MAX_LATENESS_P90_MS} ms)",
                    w.name()
                );
                return 3;
            }
        }
    }
    for m in &metrics.0 {
        eprintln!("  {:<52} {:>14.4} {}", m.name, m.value, m.unit);
    }
    if let Some(m) = metrics.0.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} could not be computed", m.name);
        return 4;
    }
    if failed > 0 {
        eprintln!("perfbench: {failed} of {attempted} operations failed");
    }
    let correct = problems.is_empty() && failed == 0;
    println!("{}", json_line(correct, attempted.max(1), failed, metrics));
    if correct {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args(&[
            "--workload",
            "serve",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, Workload::Serve);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "still",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "still",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&["--workload", "still", "--seed", "1", "--trace", "0"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }
}
