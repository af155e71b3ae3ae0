//! `bench_e2e` — the repo's benchmark: whole seeded runs of five
//! workloads through the public runners, checked, timed with tracing
//! off, then replayed stage by stage for per-layer numbers.
//!
//! ```sh
//! # one workload, the form BENCHMARK.json's command takes:
//! cargo run --release --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload fig1a_write_k10 --seed 1 --seconds 15 --trace 0
//! # every workload, both passes, report files:
//! cargo run --release --manifest-path bench_e2e/Cargo.toml -- \
//!     --seed 1 --out e2e.json --trace-out spans.json
//! # two reports against the bounds in BENCHMARK.json:
//! cargo run --release --manifest-path bench_e2e/Cargo.toml -- --compare a.json b.json
//! ```
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! the rules later changes are judged by.

mod compare;
mod json;
mod layers;
mod metrics;
mod run;
mod staged;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use json::Json;
use run::{panel_size, EndToEnd, PerLayer, Settings, Tally};

const USAGE: &str = "\
bench_e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--repeats R]
          [--threads T] [--smoke] [--out FILE] [--trace-out FILE]
bench_e2e --compare A.json B.json [--benchmark BENCHMARK.json]

  --workload NAME   run one workload (default: all five, in order)
  --seed N          seeds every scenario, placement, fault process and fabric (default 1)
  --seconds S       nominal measuring time per workload; sets the panel size (default 15)
  --repeats R       scenarios per panel, overriding --seconds (at least 3, or 1 with --smoke)
  --trace 0|1       0: untraced pass, end-to-end metrics; 1: traced pass, per-layer
                    metrics (default: both)
  --threads T       threads for the shard.* and par.* lines (default min(2, cores))
  --smoke           16-host fabrics, tens of sessions, one scenario; seconds in total
  --out FILE        write the full report (environment, samples, fingerprints) as JSON
  --trace-out FILE  write the traced pass's spans as JSON
  --compare A B     compare two --out reports against BENCHMARK.json's bounds";

struct Cli {
    workloads: Vec<&'static str>,
    settings: Settings,
    /// `Some(false)` untraced only, `Some(true)` traced only, `None` both.
    trace: Option<bool>,
    out: Option<String>,
    trace_out: Option<String>,
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: workloads::NAMES.to_vec(),
        settings: Settings {
            seed: 1,
            repeats: None,
            seconds: 15.0,
            smoke: false,
            threads: cores().min(2),
        },
        trace: None,
        out: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |v: &str| -> Result<u64, String> {
            v.parse()
                .map_err(|_| format!("{flag}: {v:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let name = workloads::NAMES
                    .iter()
                    .find(|&&n| n == v)
                    .ok_or_else(|| format!("unknown workload {v:?}"))?;
                cli.workloads = vec![name];
            }
            "--seed" => cli.settings.seed = number(value()?)?,
            "--seconds" => {
                let v = value()?;
                cli.settings.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: {v:?} is not a positive number"))?;
            }
            "--repeats" => cli.settings.repeats = Some(number(value()?)? as usize),
            "--threads" => cli.settings.threads = number(value()?)? as usize,
            "--trace" => {
                cli.trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            "--smoke" => cli.settings.smoke = true,
            "--out" => cli.out = Some(value()?.to_string()),
            "--trace-out" => cli.trace_out = Some(value()?.to_string()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let s = &cli.settings;
    if s.threads == 0 || s.threads > cores() {
        return Err(format!(
            "--threads {} refused: this machine has {} cores",
            s.threads,
            cores()
        ));
    }
    let least = if s.smoke { 1 } else { 3 };
    if s.repeats.is_some_and(|r| r < least) {
        return Err(format!("--repeats must be at least {least}"));
    }
    Ok(cli)
}

/// First line of a command's standard output, or "unknown".
fn first_line_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and how the numbers were taken.
fn environment(cli: &Cli) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let s = &cli.settings;
    let sizes = cli.workloads.iter().map(|&name| {
        let w = workloads::build(name, s.seed, s.smoke).expect("known workload");
        (
            name,
            Json::object([
                ("what", Json::from(w.describe())),
                ("panel", Json::from(panel_size(&w, s) as f64)),
            ]),
        )
    });
    Json::object([
        ("nproc", Json::from(cores() as f64)),
        ("cpu", Json::from(cpu)),
        ("rustc", Json::from(first_line_of("rustc", &["-V"]))),
        (
            "commit",
            Json::from(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::from(s.seed as f64)),
        ("seconds", Json::from(s.seconds)),
        ("smoke", Json::from(s.smoke)),
        ("threads", Json::from(s.threads as f64)),
        (
            "order",
            Json::from(
                cli.workloads
                    .iter()
                    .map(|&n| Json::from(n))
                    .collect::<Vec<_>>(),
            ),
        ),
        ("workloads", Json::object(sizes)),
    ])
}

fn metric_json(name: &str, value: f64) -> Json {
    Json::object([
        ("value", Json::from(value)),
        ("unit", Json::from(metrics::decl(name).unit)),
    ])
}

/// The contract's result object for one pass over one workload.
fn result_line(metrics: &[(&'static str, f64)], tally: &Tally) -> Json {
    let finite = metrics.iter().all(|(_, v)| v.is_finite());
    Json::object([
        ("correct", Json::from(tally.notes.is_empty() && finite)),
        ("attempted", Json::from(tally.attempted.max(1) as f64)),
        ("failed", Json::from(tally.failed as f64)),
        (
            "metrics",
            Json::object(metrics.iter().map(|&(n, v)| (n, metric_json(n, v)))),
        ),
    ])
}

/// Print a pass's metrics by name, with unit and direction, after
/// checking that they are exactly the declared ones.
fn print_metrics(
    workload: &str,
    reported: &[(&'static str, f64)],
    declared: &[metrics::Decl],
    limit: usize,
) -> Result<(), String> {
    metrics::check_reported(reported, declared, limit)?;
    for &(name, value) in reported {
        let d = metrics::decl(name);
        println!(
            "{workload:<22} {name:<34} {value:>16.6} {:<7} ({} is better)",
            d.unit,
            d.better.as_str()
        );
    }
    Ok(())
}

/// The report entry of one workload's untraced pass.
fn end_to_end_json(e: &EndToEnd) -> Json {
    let sampled = |name: &str, s: &run::Samples| {
        let (min, max) = s.min_max();
        Json::object([
            ("value", Json::from(s.median())),
            ("unit", Json::from(metrics::decl(name).unit)),
            ("min", Json::from(min)),
            ("max", Json::from(max)),
            ("samples", Json::from(s.0.len() as f64)),
        ])
    };
    let fields = e.metrics().into_iter().map(|(n, v)| match n {
        "wall_s" => (n, sampled(n, &e.wall_s)),
        "setup_s" => (n, sampled(n, &e.setup_s)),
        _ => (n, metric_json(n, v)),
    });
    Json::object([
        ("metrics", Json::object(fields)),
        ("foreground_flows", Json::from(e.foreground_flows as f64)),
        (
            "fingerprints",
            Json::from(
                e.fingerprints
                    .iter()
                    .map(|f| Json::from(format!("{f:016x}")))
                    .collect::<Vec<_>>(),
            ),
        ),
        ("attempted", Json::from(e.tally.attempted as f64)),
        ("failed", Json::from(e.tally.failed as f64)),
        (
            "notes",
            Json::from(
                e.tally
                    .notes
                    .iter()
                    .map(|n| Json::from(n.as_str()))
                    .collect::<Vec<_>>(),
            ),
        ),
    ])
}

fn per_layer_json(p: &PerLayer) -> Json {
    Json::object([
        (
            "metrics",
            Json::object(p.metrics.iter().map(|&(n, v)| (n, metric_json(n, v)))),
        ),
        ("attempted", Json::from(p.tally.attempted as f64)),
        ("failed", Json::from(p.tally.failed as f64)),
        (
            "notes",
            Json::from(
                p.tally
                    .notes
                    .iter()
                    .map(|n| Json::from(n.as_str()))
                    .collect::<Vec<_>>(),
            ),
        ),
    ])
}

fn write_file(path: &str, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{path}: {e}"))
}

/// Both passes (or the one `--trace` names) over a single workload, in
/// this process.
fn run_one(cli: &Cli, name: &'static str) -> Result<(), String> {
    let s = &cli.settings;
    let mut entry: Vec<(&str, Json)> = Vec::new();
    let mut spans = Vec::new();
    let mut last = Json::Null;
    if cli.trace != Some(true) {
        eprintln!("bench_e2e: {name}: untraced pass, seed {}", s.seed);
        let e = run::untraced(name, s);
        print_metrics(
            name,
            &e.metrics(),
            &metrics::END_TO_END,
            metrics::MAX_END_TO_END,
        )?;
        println!(
            "{name:<22} {:<34} {:>16}",
            "fingerprint",
            e.fingerprints
                .first()
                .map_or("none".into(), |f| format!("{f:016x}"))
        );
        last = result_line(&e.metrics(), &e.tally);
        entry.push(("end_to_end", end_to_end_json(&e)));
    }
    if cli.trace != Some(false) {
        eprintln!("bench_e2e: {name}: traced pass, seed {}", s.seed);
        // A probe or replay that panics outside the guarded runner
        // calls fails the pass with a result line, not the process.
        let p = workloads::guarded(|| run::traced(name, s)).unwrap_or_else(|panic| {
            PerLayer::failed(
                Tally::default(),
                format!("{name}: traced pass panicked: {panic}"),
            )
        });
        print_metrics(
            name,
            &p.metrics,
            &metrics::PER_LAYER,
            metrics::MAX_PER_LAYER,
        )?;
        last = result_line(&p.metrics, &p.tally);
        spans = p.trace.to_json(name);
        entry.push(("per_layer", per_layer_json(&p)));
    }
    if let Some(path) = &cli.out {
        let doc = Json::object([
            ("environment", environment(cli)),
            ("workloads", Json::object([(name, Json::object(entry))])),
        ]);
        write_file(path, &doc)?;
    }
    if let Some(path) = &cli.trace_out {
        write_file(path, &Json::from(spans))?;
    }
    // The last line of standard output is the result object of the last
    // pass run — with one pass, the contract's line.
    println!("{}", last.render());
    Ok(())
}

/// Every workload, each in a fresh process of this same program — as
/// the driver runs them, so that one workload's memory never shows in
/// the next one's `peak_rss_mb` — with the reports merged afterwards.
fn run_each(cli: &Cli) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let s = &cli.settings;
    let (mut report, mut spans) = (Vec::new(), Vec::new());
    for &name in &cli.workloads {
        let part = |path: &String| format!("{path}.{name}.part");
        let mut child = std::process::Command::new(&exe);
        child
            .args(["--workload", name])
            .args(["--seed", &s.seed.to_string()])
            .args(["--seconds", &s.seconds.to_string()])
            .args(["--threads", &s.threads.to_string()]);
        if let Some(r) = s.repeats {
            child.args(["--repeats", &r.to_string()]);
        }
        if let Some(t) = cli.trace {
            child.args(["--trace", if t { "1" } else { "0" }]);
        }
        if s.smoke {
            child.arg("--smoke");
        }
        if let Some(path) = &cli.out {
            child.args(["--out", &part(path)]);
        }
        if let Some(path) = &cli.trace_out {
            child.args(["--trace-out", &part(path)]);
        }
        let status = child.status().map_err(|e| format!("{name}: {e}"))?;
        if !status.success() {
            return Err(format!("{name}: its process ended with {status}"));
        }
        let take = |path: String| -> Result<Json, String> {
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            let _ = std::fs::remove_file(&path);
            Json::parse(&text).map_err(|e| format!("{path}: {e}"))
        };
        if let Some(path) = &cli.out {
            let doc = take(part(path))?;
            let entries = doc.get("workloads").and_then(Json::as_object);
            report.extend(entries.unwrap_or_default().iter().cloned());
        }
        if let Some(path) = &cli.trace_out {
            let doc = take(part(path))?;
            spans.extend(doc.as_array().unwrap_or_default().iter().cloned());
        }
    }
    if let Some(path) = &cli.out {
        let doc = Json::object([
            ("environment", environment(cli)),
            ("workloads", Json::Object(report)),
        ]);
        write_file(path, &doc)?;
    }
    if let Some(path) = &cli.trace_out {
        write_file(path, &Json::from(spans))?;
    }
    Ok(())
}

fn run(cli: &Cli) -> Result<(), String> {
    match cli.workloads[..] {
        [name] => run_one(cli, name),
        _ => run_each(cli),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args.first().is_some_and(|a| a == "--compare") {
        return match compare::main(&args[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("bench_e2e: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    // A run that panics is caught and counted; keep its message to one
    // line on standard error instead of a backtrace per failed session.
    std::panic::set_hook(Box::new(|info| eprintln!("bench_e2e: caught: {info}")));
    match parse(&args).and_then(|cli| run(&cli)) {
        // Failed sessions are reported in the result line ("correct":
        // false), not through the exit code: the run itself completed.
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_contract_command_line() {
        let cli = parse(&args(
            "--workload tcp_write_k10 --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workloads, ["tcp_write_k10"]);
        assert_eq!(cli.settings.seed, 7);
        assert_eq!(cli.settings.seconds, 10.0);
        assert_eq!(cli.trace, Some(true));
        let all = parse(&[]).unwrap();
        assert_eq!(all.workloads, workloads::NAMES);
        assert_eq!(all.trace, None);
    }

    #[test]
    fn refuses_bad_arguments() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seed",
            "--seconds 0",
            "--trace 2",
            "--repeats 2",
            "--threads 0",
            "--threads 100000",
            "--frobnicate",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
        assert!(parse(&args("--smoke --repeats 1")).is_ok());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let tally = |attempted, failed, notes: &[&str]| Tally {
            attempted,
            failed,
            notes: notes.iter().map(|n| n.to_string()).collect(),
        };
        let line = result_line(&[("wall_s", 1.25), ("setup_s", 0.5)], &tally(10, 0, &[]));
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line.render(),
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\
             \"wall_s\":{\"value\":1.25,\"unit\":\"s\"},\
             \"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
        let bad = result_line(&[("wall_s", f64::NAN)], &tally(0, 0, &[]));
        assert_eq!(bad.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(bad.get("attempted").and_then(Json::as_f64), Some(1.0));
        let failed = result_line(&[("wall_s", 1.0)], &tally(10, 3, &["3 sessions"]));
        assert_eq!(failed.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(failed.get("failed").and_then(Json::as_f64), Some(3.0));
    }
}
