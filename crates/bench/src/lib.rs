//! # `polyraptor-bench` — experiment harness
//!
//! Shared machinery for the figure-regeneration binaries
//! (`fig1a`, `fig1b`, `fig1c`; `ablations` prints its own):
//! command-line parsing, parallel execution of independent
//! (configuration × seed) runs across CPU cores, rank-curve averaging,
//! and CSV emission.
//!
//! Binaries accept `--sessions`, `--seeds`, `--k`, `--out` and a
//! `--full` flag that switches to the paper's exact scale (10,000
//! foreground sessions on the 250-host fabric, 5 seeds).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::path::PathBuf;

use workload::{Fabric, RankCurve};

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

/// Run `jobs` closures in parallel across available cores and collect
/// results in input order. Each job is independent (own simulator), so
/// this is embarrassingly parallel; an mpsc channel carries results
/// back to preserve determinism of the *output order*.
pub fn run_parallel<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    let (tx, rx) = std::sync::mpsc::channel::<(usize, T)>();
    std::thread::scope(|scope| {
        for (i, job) in jobs.into_iter().enumerate() {
            let tx = tx.clone();
            scope.spawn(move || {
                let out = job();
                tx.send((i, out)).expect("collector alive");
            });
        }
        drop(tx);
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, v) in rx {
        slots[i] = Some(v);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every job reports"))
        .collect()
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
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> =
            (0..16usize).map(|i| Box::new(move || i * i) as _).collect();
        let out = run_parallel(jobs);
        assert_eq!(out, (0..16usize).map(|i| i * i).collect::<Vec<_>>());
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
