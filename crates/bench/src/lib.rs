//! # `polyraptor-bench` — experiment harness
//!
//! Shared machinery for the figure-regeneration binaries
//! (`fig1a`, `fig1b`, `fig1c`; `ablations` prints its own):
//! command-line parsing, parallel execution of independent
//! (configuration × seed) [`Run`]s, at most one per CPU core, and the one
//! rank-curve driver behind Figures 1a and 1b.
//!
//! Binaries accept `--sessions`, `--seeds`, `--k`, `--out` and a
//! `--full` flag that switches to the paper's exact scale (10,000
//! foreground sessions on the 250-host fabric, 5 seeds).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::sync::Mutex;

use workload::{foreground_goodputs, Fabric, RankCurve, Run, RunReport};

/// Common options of the figure binaries.
#[derive(Debug, Clone)]
pub struct FigOptions {
    /// Total sessions per run (foreground + background).
    pub sessions: usize,
    /// Seeds (one run per seed per configuration).
    pub seeds: Vec<u64>,
    /// Fabric to simulate on.
    pub fabric: Fabric,
    /// Output directory for CSV artifacts (created if missing).
    pub out: PathBuf,
    /// Points per printed rank curve.
    pub points: usize,
}

impl Default for FigOptions {
    fn default() -> Self {
        Self {
            // Default scale finishes in minutes on a laptop; --full is
            // the paper's 12,500 total (10,000 foreground) sessions.
            sessions: 1_500,
            seeds: vec![1, 2, 3],
            fabric: Fabric::paper(),
            out: PathBuf::from("bench_out"),
            points: 26,
        }
    }
}

impl FigOptions {
    /// Parse from `std::env::args`-style iterator (skip the binary
    /// name). Unknown flags abort with a usage message.
    pub fn parse<I: Iterator<Item = String>>(mut args: I) -> Self {
        let mut o = Self::default();
        while let Some(a) = args.next() {
            let mut take = |name: &str| {
                args.next()
                    .unwrap_or_else(|| panic!("{name} needs a value"))
            };
            match a.as_str() {
                "--sessions" => o.sessions = take("--sessions").parse().expect("usize"),
                "--seeds" => {
                    o.seeds = take("--seeds")
                        .split(',')
                        .map(|s| s.parse().expect("u64 seed"))
                        .collect();
                }
                "--k" => {
                    let k = take("--k").parse().expect("even usize");
                    o.fabric = Fabric::fat_tree(k);
                }
                "--out" => o.out = PathBuf::from(take("--out")),
                "--points" => o.points = take("--points").parse().expect("usize"),
                "--full" => {
                    o.sessions = 12_500; // 10,000 foreground at 20% background
                    o.seeds = vec![1, 2, 3, 4, 5];
                    o.fabric = Fabric::paper();
                }
                "--quick" => {
                    o.sessions = 300;
                    o.seeds = vec![1];
                    o.fabric = Fabric::small();
                }
                "--help" | "-h" => {
                    eprintln!(
                        "options: --sessions N --seeds a,b,c --k K --out DIR --points P --full --quick"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other} (try --help)"),
            }
        }
        o
    }
}

/// Run `jobs` closures on at most `available_parallelism()` worker
/// threads and collect results in input order. Each job is independent
/// (own simulator), so each worker simply takes the next job index
/// until none is left.
pub fn run_parallel<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(jobs.len());
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let next = queue.lock().expect("no job runs under the lock").next();
                        let Some((i, job)) = next else { break out };
                        out.push((i, job()));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, v)| v).collect()
}

/// Execute `runs` with [`run_parallel`]; the reports come back in
/// input order.
pub fn run_all(runs: Vec<Run>) -> Vec<RunReport> {
    run_parallel(runs.into_iter().map(|r| move || workload::run(r)).collect())
}

/// Figures 1a and 1b: one rank curve per series, each the pointwise
/// average over `o.seeds` of the foreground goodputs of
/// `build(series, seed)`. Prints the table and each series' median,
/// and writes `<name>.csv` into `o.out`.
pub fn rank_curve_figure(
    o: &FigOptions,
    name: &str,
    title: &str,
    labels: &[&str],
    build: impl Fn(usize, u64) -> Run,
) {
    std::fs::create_dir_all(&o.out).expect("create out dir");
    eprintln!(
        "{name}: {} sessions x {} seeds on {}",
        o.sessions,
        o.seeds.len(),
        o.fabric.describe()
    );
    let runs = (0..labels.len())
        .flat_map(|series| o.seeds.iter().map(move |&seed| (series, seed)))
        .map(|(series, seed)| build(series, seed))
        .collect();
    let curves: Vec<RankCurve> = run_all(runs)
        .iter()
        .map(|r| RankCurve::new(foreground_goodputs(&r.flows)))
        .collect();
    let per_series: Vec<&[RankCurve]> = curves.chunks(o.seeds.len()).collect();

    // Averaged sampled curves, one column per series.
    let sampled: Vec<Vec<(f64, f64)>> = per_series
        .iter()
        .map(|curves| average_rank_curves(curves, o.points))
        .collect();
    let rows: Vec<Vec<f64>> = (0..o.points)
        .map(|i| {
            let mut row = vec![sampled[0][i].0];
            for s in &sampled {
                row.push(s[i].1);
            }
            row
        })
        .collect();
    print_series_table(title, "rank", labels, &rows);

    let path = o.out.join(format!("{name}.csv"));
    let mut header = vec!["rank"];
    header.extend(labels);
    workload::csv::write_csv(&path, &header, rows).expect("write figure CSV");
    eprintln!("wrote {}", path.display());

    for (label, curves) in labels.iter().zip(&per_series) {
        let med = workload::mean(&curves.iter().map(|c| c.median()).collect::<Vec<_>>());
        println!("# median {label}: {med:.3} Gbps");
    }
}

/// Average rank curves pointwise across seeds (the paper averages 5
/// repetitions). Curves may differ slightly in length (background draws
/// are per-seed); the average uses relative rank positions.
pub fn average_rank_curves(curves: &[RankCurve], points: usize) -> Vec<(f64, f64)> {
    assert!(!curves.is_empty());
    (0..points)
        .map(|i| {
            let frac = i as f64 / (points - 1) as f64;
            let mean_rank =
                frac * (curves.iter().map(|c| c.len()).sum::<usize>() as f64) / curves.len() as f64;
            let v = workload::mean(
                &curves
                    .iter()
                    .map(|c| {
                        let idx = ((frac * (c.len() - 1) as f64).round() as usize).min(c.len() - 1);
                        c.at(idx)
                    })
                    .collect::<Vec<_>>(),
            );
            (mean_rank, v)
        })
        .collect()
}

/// Pretty-print a figure table: one labelled series per column.
pub fn print_series_table(title: &str, xlabel: &str, labels: &[&str], rows: &[Vec<f64>]) {
    println!("# {title}");
    print!("{xlabel:>12}");
    for l in labels {
        print!(" {l:>14}");
    }
    println!();
    for row in rows {
        print!("{:>12.1}", row[0]);
        for v in &row[1..] {
            print!(" {v:>14.4}");
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_defaults_and_flags() {
        let o = FigOptions::parse(
            ["--sessions", "42", "--seeds", "7,8", "--k", "4"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(o.sessions, 42);
        assert_eq!(o.seeds, vec![7, 8]);
        assert_eq!(o.fabric.host_count(), 16);
        assert!(matches!(o.fabric, Fabric::FatTree { k: 4, .. }));
    }

    #[test]
    fn run_parallel_preserves_order() {
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let jobs: Vec<_> = (0..16usize)
            .map(|i| {
                let (live, peak) = (&live, &peak);
                move || {
                    peak.fetch_max(live.fetch_add(1, SeqCst) + 1, SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    live.fetch_sub(1, SeqCst);
                    i * i
                }
            })
            .collect();
        let out = run_parallel(jobs);
        assert_eq!(out, (0..16usize).map(|i| i * i).collect::<Vec<_>>());
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let peak = peak.into_inner();
        assert!(
            (1..=workers).contains(&peak),
            "{peak} jobs ran at once on {workers} workers"
        );
    }

    #[test]
    fn average_rank_curves_flat() {
        let c1 = RankCurve::new(vec![1.0; 100]);
        let c2 = RankCurve::new(vec![3.0; 50]);
        let avg = average_rank_curves(&[c1, c2], 5);
        assert_eq!(avg.len(), 5);
        for (_, v) in avg {
            assert!((v - 2.0).abs() < 1e-12);
        }
    }
}
