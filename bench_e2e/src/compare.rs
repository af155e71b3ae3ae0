//! `--compare A.json B.json`: every end-to-end metric of every
//! workload, B against A, judged by the bounds in `BENCHMARK.json`.

use crate::json::Json;

/// How one metric of one workload moved from report A to report B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse by more than the bound.
    Regressed,
    /// Within the bound, but the samples inside a report spread wider
    /// than the bound, so "no change" cannot be claimed.
    Unresolved,
    /// Within the bound.
    Unchanged,
    /// Better by more than the bound.
    Improved,
}

/// By how much of A's value B is worse (negative: better).
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    let delta = if lower_is_better { b - a } else { a - b };
    delta / a.abs()
}

/// Judge one metric. `spread` is the widest min–max range of the two
/// reports' samples as a share of the value (0 for exact metrics).
pub fn judge(worse_by: f64, spread: f64, bound: f64) -> Verdict {
    if worse_by > bound {
        Verdict::Regressed
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `(value, min–max spread as a share of the value)` of a report metric.
fn value_and_spread(report: &Json, workload: &str, metric: &str) -> Option<(f64, f64)> {
    let m = report
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get("metrics")?
        .get(metric)?;
    let value = m.get("value")?.as_f64()?;
    let spread = match (
        m.get("min").and_then(Json::as_f64),
        m.get("max").and_then(Json::as_f64),
    ) {
        (Some(min), Some(max)) if value != 0.0 => (max - min) / value.abs(),
        _ => 0.0,
    };
    Some((value, spread))
}

/// Print the comparison; `Ok(false)` when any metric regressed.
pub fn main(args: &[String]) -> Result<bool, String> {
    let (a_path, b_path, benchmark) = match args {
        [a, b] => (a, b, "BENCHMARK.json"),
        [a, b, flag, path] if flag == "--benchmark" => (a, b, path.as_str()),
        _ => return Err("--compare takes two report files".to_string()),
    };
    let (a, b, bench) = (load(a_path)?, load(b_path)?, load(benchmark)?);
    let decls = bench
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{benchmark}: no end_to_end list"))?;
    let workloads = a
        .get("workloads")
        .and_then(Json::as_object)
        .ok_or_else(|| format!("{a_path}: no workloads"))?;
    println!(
        "{:<22} {:<18} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound", "spread"
    );
    let mut ok = true;
    for (workload, _) in workloads {
        for d in decls {
            let field = |k: &str| d.get(k).and_then(Json::as_str);
            let (Some(metric), Some(better), Some(bound)) = (
                field("name"),
                field("better"),
                d.get("bound").and_then(Json::as_f64),
            ) else {
                return Err(format!("{benchmark}: malformed end_to_end entry"));
            };
            let (Some((va, sa)), Some((vb, sb))) = (
                value_and_spread(&a, workload, metric),
                value_and_spread(&b, workload, metric),
            ) else {
                return Err(format!("{workload}/{metric} is missing from a report"));
            };
            let worse_by = worsening(va, vb, better == "lower");
            let spread = sa.max(sb);
            let verdict = judge(worse_by, spread, bound);
            ok &= verdict != Verdict::Regressed;
            println!(
                "{workload:<22} {metric:<18} {va:>14.6} {vb:>14.6} {:>8.2}% {:>6.1}% {:>7.1}%  {verdict:?}",
                100.0 * worse_by,
                100.0 * bound,
                100.0 * spread,
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(2.0, 2.2, true) - 0.1).abs() < 1e-12);
        assert!((worsening(2.0, 2.2, false) + 0.1).abs() < 1e-12);
        assert_eq!(worsening(5.0, 5.0, true), 0.0);
    }

    #[test]
    fn verdicts() {
        assert_eq!(judge(0.12, 0.0, 0.10), Verdict::Regressed);
        // A regression beyond the bound stays one however noisy.
        assert_eq!(judge(0.12, 0.5, 0.10), Verdict::Regressed);
        assert_eq!(judge(0.02, 0.15, 0.10), Verdict::Unresolved);
        assert_eq!(judge(-0.30, 0.15, 0.10), Verdict::Unresolved);
        assert_eq!(judge(0.02, 0.05, 0.10), Verdict::Unchanged);
        assert_eq!(judge(-0.02, 0.0, 0.10), Verdict::Unchanged);
        assert_eq!(judge(-0.30, 0.05, 0.10), Verdict::Improved);
    }

    #[test]
    fn reads_value_and_spread_from_a_report() {
        let report = Json::parse(
            r#"{"workloads":{"w":{"end_to_end":{"metrics":{
                "wall_s":{"value":2.0,"unit":"s","min":1.9,"max":2.3,"samples":5},
                "fct_ms_p95":{"value":9.5,"unit":"ms"}}}}}}"#,
        )
        .unwrap();
        let (v, s) = value_and_spread(&report, "w", "wall_s").unwrap();
        assert_eq!(v, 2.0);
        assert!((s - 0.2).abs() < 1e-12);
        assert_eq!(
            value_and_spread(&report, "w", "fct_ms_p95"),
            Some((9.5, 0.0))
        );
        assert_eq!(value_and_spread(&report, "w", "nope"), None);
        assert_eq!(value_and_spread(&report, "x", "wall_s"), None);
    }
}
