//! The benchmark ledger: `BENCH_e2e.json` at the repository root, an
//! append-only JSON array with one row per change, one row per line.
//!
//! A row is built from `bench_e2e --out` reports:
//!
//! ```text
//! ledger row --pr N --title T [--commit C] --parent P --date D [--schedule-change WHY] \
//!     --parent-report A1.json [A2.json …] --change-report B1.json [B2.json …]
//! ledger reanchor --pr N --title T --commit C --date D --report A.json
//! ledger check --report B.json
//! ```
//!
//! `row` takes alternating pairs (the i-th parent report with the i-th
//! change report) and records, per workload, the fingerprints and
//! every count line of the change, and for `wall_s`, `setup_s` and
//! `peak_rss_mb` the median over the pairs of each side's median, the
//! number of pairs and how many of them the change was lower in. It
//! refuses reports whose fingerprints or counts disagree; with
//! `--schedule-change WHY` only the change reports must agree.
//! `reanchor` records one report of a commit with no parent to compare
//! against. A change's own commit is not known before it lands, so
//! `--commit` may be left out (`null`); `parent` names the commit its
//! pairs were measured against.
//!
//! `check` compares a report's seed, thread count, fingerprints and
//! counts with the last measured row's, with zero tolerance, and exits
//! 1 on any difference. Wall time is never checked. Rows are built from reports of
//! `bench_e2e --repeats 3 --out`, as the check runs it, so the
//! fingerprint lists have the same length.
//!
//! `--ledger FILE` (default `BENCH_e2e.json`) names the ledger. Rows
//! whose `transcribed` is true were copied from the ROADMAP's
//! trajectory table before the ledger existed; they carry prose cells
//! and are skipped by `check`.

use std::collections::BTreeMap;
use std::process::ExitCode;

#[allow(dead_code)]
#[path = "../../../../bench_e2e/src/json.rs"]
mod json;

use json::Json;

/// The end-to-end metrics a row records from each side.
const TIMED: [&str; 3] = ["wall_s", "setup_s", "peak_rss_mb"];

/// What a row keeps of one workload of one report.
#[derive(Debug, Clone, PartialEq)]
struct Identity {
    fingerprints: Vec<String>,
    counts: BTreeMap<String, f64>,
}

/// One report, reduced to what the ledger reads.
struct Report {
    doc: Json,
    workloads: BTreeMap<String, (Identity, [f64; 3])>,
}

fn load(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut workloads = BTreeMap::new();
    let ws = doc
        .get("workloads")
        .and_then(Json::as_object)
        .ok_or_else(|| format!("{path}: no workloads"))?;
    for (name, w) in ws {
        let e2e = w.get("end_to_end");
        let fingerprints = strings(e2e.and_then(|e| e.get("fingerprints")));
        let counts = w
            .get("per_layer")
            .and_then(|p| p.get("metrics"))
            .and_then(Json::as_object)
            .unwrap_or_default()
            .iter()
            .filter(|(_, m)| m.get("unit").and_then(Json::as_str) == Some("count"))
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect();
        let metric = |m: &str| {
            e2e.and_then(|e| e.get("metrics"))
                .and_then(|ms| ms.get(m))
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{path}: {name} has no {m}"))
        };
        let timed = [metric(TIMED[0])?, metric(TIMED[1])?, metric(TIMED[2])?];
        let id = Identity {
            fingerprints,
            counts,
        };
        workloads.insert(name.clone(), (id, timed));
    }
    Ok(Report { doc, workloads })
}

fn env<'a>(r: &'a Report, key: &str) -> Option<&'a Json> {
    r.doc.get("environment").and_then(|e| e.get(key))
}

fn identity_json(id: &Identity) -> Vec<(String, Json)> {
    vec![
        (
            "fingerprints".into(),
            Json::Array(
                id.fingerprints
                    .iter()
                    .map(|f| Json::from(f.as_str()))
                    .collect(),
            ),
        ),
        (
            "counts".into(),
            Json::object(id.counts.iter().map(|(k, &v)| (k.as_str(), Json::from(v)))),
        ),
    ]
}

/// The strings of a JSON array (none when it is not one).
fn strings(array: Option<&Json>) -> Vec<String> {
    array
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|f| f.as_str().map(str::to_string))
        .collect()
}

fn identity_of(row_workload: &Json) -> Identity {
    let fingerprints = strings(row_workload.get("fingerprints"));
    let counts = row_workload
        .get("counts")
        .and_then(Json::as_object)
        .unwrap_or_default()
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect();
    Identity {
        fingerprints,
        counts,
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Every difference between two identities, one line each.
fn differences(name: &str, want: &Identity, got: &Identity) -> Vec<String> {
    let mut out = Vec::new();
    if want.fingerprints != got.fingerprints {
        out.push(format!(
            "{name}: fingerprints {:?} != {:?}",
            got.fingerprints, want.fingerprints
        ));
    }
    let keys: std::collections::BTreeSet<&String> =
        want.counts.keys().chain(got.counts.keys()).collect();
    for k in keys {
        let (w, g) = (want.counts.get(k), got.counts.get(k));
        if w != g {
            out.push(format!("{name}: {k} {g:?} != {w:?}"));
        }
    }
    out
}

/// Command-line flags: `--name value…` pairs, a flag taking every
/// value up to the next flag.
fn flags(args: &[String]) -> Result<BTreeMap<String, Vec<String>>, String> {
    let mut out: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut current = None;
    for a in args {
        if let Some(name) = a.strip_prefix("--") {
            out.entry(name.to_string()).or_default();
            current = Some(name.to_string());
        } else {
            let name = current.as_ref().ok_or_else(|| format!("{a:?}: no flag"))?;
            out.get_mut(name).unwrap().push(a.clone());
        }
    }
    Ok(out)
}

fn one<'a>(f: &'a BTreeMap<String, Vec<String>>, name: &str) -> Result<&'a str, String> {
    match f.get(name).map(Vec::as_slice) {
        Some([v]) => Ok(v),
        _ => Err(format!("--{name} takes exactly one value")),
    }
}

fn read_ledger(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    match Json::parse(&text).map_err(|e| format!("{path}: {e}"))? {
        Json::Array(rows) => Ok(rows),
        _ => Err(format!("{path}: not a JSON array")),
    }
}

/// Append `row` to the ledger, keeping one row per line.
fn append(path: &str, row: Json) -> Result<(), String> {
    let mut rows = read_ledger(path)?;
    rows.push(row);
    let lines: Vec<String> = rows.iter().map(Json::render).collect();
    let text = format!("[\n{}\n]\n", lines.join(",\n"));
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

/// The row fields every measured row starts with.
fn head(
    f: &BTreeMap<String, Vec<String>>,
    parent: Json,
    r: &Report,
) -> Result<Vec<(String, Json)>, String> {
    let pr: f64 = one(f, "pr")?.parse().map_err(|_| "--pr takes a number")?;
    let field = |k: &str| env(r, k).cloned().unwrap_or(Json::Null);
    let optional = |k: &str| match f.get(k) {
        Some(_) => one(f, k).map(Json::from),
        None => Ok(Json::Null),
    };
    let (commit, schedule_change) = (optional("commit")?, optional("schedule-change")?);
    Ok(vec![
        ("pr".into(), Json::from(pr)),
        ("title".into(), Json::from(one(f, "title")?)),
        ("commit".into(), commit),
        ("parent".into(), parent),
        ("date".into(), Json::from(one(f, "date")?)),
        (
            "box".into(),
            Json::object([
                ("cpu", field("cpu")),
                ("nproc", field("nproc")),
                ("rustc", field("rustc")),
            ]),
        ),
        ("seed".into(), field("seed")),
        ("threads".into(), field("threads")),
        ("schedule_change".into(), schedule_change),
    ])
}

fn row(f: &BTreeMap<String, Vec<String>>) -> Result<Json, String> {
    let load_all = |k: &str| -> Result<Vec<Report>, String> {
        f.get(k)
            .ok_or(format!("--{k} is required"))?
            .iter()
            .map(|p| load(p))
            .collect()
    };
    let (parents, changes) = (load_all("parent-report")?, load_all("change-report")?);
    if parents.is_empty() || parents.len() != changes.len() {
        return Err("give as many parent reports as change reports, at least one".into());
    }
    let moved = f.contains_key("schedule-change");
    let mut workloads = Vec::new();
    for (name, (id, _)) in &changes[0].workloads {
        let mut cells = identity_json(id);
        // A declared schedule change compares the change runs only.
        let mut errors = Vec::new();
        for r in parents.iter().filter(|_| !moved).chain(&changes) {
            let (other, _) = r
                .workloads
                .get(name)
                .ok_or(format!("a report lacks {name}"))?;
            errors.extend(differences(name, id, other));
        }
        if !errors.is_empty() {
            return Err(format!("the runs differ:\n{}", errors.join("\n")));
        }
        for (i, metric) in TIMED.iter().enumerate() {
            let side =
                |rs: &[Report]| -> Vec<f64> { rs.iter().map(|r| r.workloads[name].1[i]).collect() };
            let (p, c) = (side(&parents), side(&changes));
            let lower = p.iter().zip(&c).filter(|(p, c)| c < p).count();
            cells.push((
                metric.to_string(),
                Json::object([
                    ("parent", Json::from(median(p))),
                    ("change", Json::from(median(c))),
                    ("pairs", Json::from(changes.len() as f64)),
                    ("change_lower_in", Json::from(lower as f64)),
                ]),
            ));
        }
        workloads.push((name.clone(), Json::Object(cells)));
    }
    let mut fields = head(f, Json::from(one(f, "parent")?), &changes[0])?;
    fields.push(("workloads".into(), Json::Object(workloads)));
    Ok(Json::Object(fields))
}

fn reanchor(f: &BTreeMap<String, Vec<String>>) -> Result<Json, String> {
    let r = load(one(f, "report")?)?;
    let workloads = r.workloads.iter().map(|(name, (id, timed))| {
        let mut cells = identity_json(id);
        for (metric, &v) in TIMED.iter().zip(timed) {
            cells.push((
                metric.to_string(),
                Json::object([
                    ("parent", Json::Null),
                    ("change", Json::from(v)),
                    ("pairs", Json::from(0.0)),
                    ("change_lower_in", Json::Null),
                ]),
            ));
        }
        (name.clone(), Json::Object(cells))
    });
    let mut fields = head(f, Json::Null, &r)?;
    fields.push(("workloads".into(), Json::object(workloads)));
    Ok(Json::Object(fields))
}

fn check(f: &BTreeMap<String, Vec<String>>, ledger: &str) -> Result<Vec<String>, String> {
    let rows = read_ledger(ledger)?;
    let last = rows
        .iter()
        .rev()
        .find(|r| r.get("transcribed") != Some(&Json::Bool(true)))
        .ok_or(format!("{ledger}: no measured row"))?;
    let r = load(one(f, "report")?)?;
    let mut errors = Vec::new();
    // The shard.* counts depend on the thread count.
    for setting in ["seed", "threads"] {
        let (got, want) = (env(&r, setting), last.get(setting));
        if got != want {
            errors.push(format!("{setting} {got:?} != {want:?}"));
        }
    }
    let want = last
        .get("workloads")
        .and_then(Json::as_object)
        .unwrap_or_default();
    for (name, w) in want {
        match r.workloads.get(name) {
            Some((got, _)) => errors.extend(differences(name, &identity_of(w), got)),
            None => errors.push(format!("{name}: not in the report")),
        }
    }
    Ok(errors)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = (|| -> Result<Vec<String>, String> {
        let (cmd, rest) = args
            .split_first()
            .ok_or("usage: ledger row|reanchor|check …")?;
        let f = flags(rest)?;
        let ledger = match f.get("ledger") {
            Some(_) => one(&f, "ledger")?,
            None => "BENCH_e2e.json",
        };
        match cmd.as_str() {
            "row" => append(ledger, row(&f)?).map(|()| Vec::new()),
            "reanchor" => append(ledger, reanchor(&f)?).map(|()| Vec::new()),
            "check" => check(&f, ledger),
            other => Err(format!("unknown command {other:?}: row, reanchor or check")),
        }
    })();
    match result {
        Ok(errors) if errors.is_empty() => ExitCode::SUCCESS,
        Ok(errors) => {
            for e in &errors {
                eprintln!("ledger: {e}");
            }
            eprintln!("ledger: {} difference(s) from the last row", errors.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(fingerprints: &[&str], counts: &[(&str, f64)]) -> Identity {
        Identity {
            fingerprints: fingerprints.iter().map(|f| f.to_string()).collect(),
            counts: counts.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        }
    }

    #[test]
    fn every_moved_fingerprint_and_count_is_a_difference() {
        let row = id(&["a", "b"], &[("sim.events", 10.0), ("shard.epochs", 3.0)]);
        assert!(differences("w", &row, &row).is_empty());
        let moved = id(&["a", "c"], &[("sim.events", 11.0), ("trace.spans", 1.0)]);
        let found = differences("w", &row, &moved);
        assert_eq!(found.len(), 4, "{found:?}");
        // A row written from a report reads back as the same identity.
        let written = Json::Object(identity_json(&row));
        let reread = Json::parse(&written.render()).unwrap();
        assert_eq!(identity_of(&reread), row);
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
