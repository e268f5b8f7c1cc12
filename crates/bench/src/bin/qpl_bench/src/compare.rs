//! `qpl_bench compare A.json B.json [--bounds BENCHMARK.json]`: for each
//! workload and metric, each side's median and quartiles, and a verdict
//! under the regression bounds `BENCHMARK.json` fixes. The inputs are
//! files written by `qpl_bench --workload all --out PATH`.

use std::collections::BTreeMap;

use qpl_serve::wire::JsonValue;

use crate::stats::quartiles;

/// How one metric is judged: its bound (end-to-end metrics only) and
/// whether lower is better.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Rule {
    bound: Option<f64>,
    lower_is_better: bool,
}

/// The verdict on B against A. Either side's spread (quartile distance
/// over median) wider than the bound leaves the metric unresolved,
/// unless every run of B reads better than every run of A.
pub fn verdict(a: &[f64], b: &[f64], bound: f64, lower_is_better: bool) -> &'static str {
    let ((a1, am, a3), (b1, bm, b3)) = (quartiles(a), quartiles(b));
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let spread = |q1: f64, m: f64, q3: f64| (q3 - q1) / m.abs();
    if spread(a1, am, a3) > bound || spread(b1, bm, b3) > bound {
        return if b.iter().all(|&y| a.iter().all(|&x| better(y, x))) {
            "improved"
        } else {
            "unresolved"
        };
    }
    let change = (bm - am) / am.abs();
    let worse = if lower_is_better { change } else { -change };
    if worse > bound {
        "regressed"
    } else if worse < -bound {
        "improved"
    } else {
        "unchanged"
    }
}

fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `BENCHMARK.json` → metric name → rule.
fn rules(bench: &JsonValue) -> BTreeMap<String, Rule> {
    let mut out = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        for m in bench.get(section).and_then(JsonValue::as_array).unwrap_or(&[]) {
            if let Some(name) = m.get("name").and_then(JsonValue::as_str) {
                let rule = Rule {
                    bound: m.get("bound").and_then(JsonValue::as_f64),
                    lower_is_better: m.get("better").and_then(JsonValue::as_str) == Some("lower"),
                };
                out.insert(name.to_string(), rule);
            }
        }
    }
    out
}

type Runs = BTreeMap<String, BTreeMap<String, (Vec<f64>, String)>>;

/// Result file → workload → metric → (values over correct runs, unit).
fn runs(v: &JsonValue, path: &str) -> Result<Runs, String> {
    let JsonValue::Obj(workloads) = v else {
        return Err(format!("{path}: expected an object of workloads"));
    };
    let mut out = Runs::new();
    for (workload, results) in workloads {
        let results = results.as_array().ok_or(format!("{path}: {workload} is not an array"))?;
        let metrics = out.entry(workload.clone()).or_default();
        for r in results {
            if r.get("correct").and_then(JsonValue::as_bool) != Some(true) {
                eprintln!("{path}: skipping an incorrect {workload} run");
                continue;
            }
            if let Some(JsonValue::Obj(fields)) = r.get("metrics") {
                for (name, m) in fields {
                    let (Some(value), Some(unit)) = (
                        m.get("value").and_then(JsonValue::as_f64),
                        m.get("unit").and_then(JsonValue::as_str),
                    ) else {
                        return Err(format!("{path}: malformed metric {name}"));
                    };
                    let e = metrics.entry(name.clone()).or_insert((Vec::new(), unit.to_string()));
                    e.0.push(value);
                }
            }
        }
    }
    Ok(out)
}

pub fn run(argv: &[String]) -> Result<(), String> {
    let (mut files, mut bounds) = (Vec::new(), "BENCHMARK.json".to_string());
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if arg == "--bounds" {
            bounds = it.next().ok_or("--bounds takes a path")?.clone();
        } else {
            files.push(arg.clone());
        }
    }
    let [a_path, b_path] = files.as_slice() else {
        return Err("compare takes exactly two result files".to_string());
    };
    let rules = rules(&load(&bounds)?);
    let (a, b) = (runs(&load(a_path)?, a_path)?, runs(&load(b_path)?, b_path)?);
    println!(
        "{:<12} {:<28} {:<10} {:>36} {:>36} {:>9}  verdict",
        "workload", "metric", "unit", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change"
    );
    let side = |v: &[f64]| {
        let (q1, m, q3) = quartiles(v);
        format!("{m:.6} [{q1:.6}, {q3:.6}] ({})", v.len())
    };
    for (workload, metrics) in &a {
        let Some(other) = b.get(workload) else { continue };
        for (name, (av, unit)) in metrics {
            let Some((bv, _)) = other.get(name) else { continue };
            if av.is_empty() || bv.is_empty() {
                continue;
            }
            let (am, bm) = (quartiles(av).1, quartiles(bv).1);
            let change = if am == 0.0 {
                "n/a".to_string()
            } else {
                format!("{:+.2}%", 100.0 * (bm - am) / am.abs())
            };
            let v = match rules.get(name) {
                Some(Rule { bound: Some(bound), lower_is_better }) => {
                    verdict(av, bv, *bound, *lower_is_better)
                }
                _ => "no bound",
            };
            println!(
                "{workload:<12} {name:<28} {unit:<10} {:>36} {:>36} {change:>9}  {v}",
                side(av),
                side(bv)
            );
        }
    }
    Ok(())
}
