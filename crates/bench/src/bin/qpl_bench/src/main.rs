//! `qpl_bench`: the serving benchmark for `qpl-serve`.
//!
//! ```text
//! qpl_bench --workload <hot_read|point_query|churn_rw|all> [--seed N]
//!           [--seconds S] [--trace 0|1] [--spans PATH] [--repeat N] [--out PATH]
//! qpl_bench compare A.json B.json [--bounds BENCHMARK.json]
//! ```
//!
//! One workload per process: the benchmark generates the knowledge base
//! and request stream from `--seed`, starts a real in-process server,
//! drives it over TCP for `--seconds` (open loop, then closed loop), ends
//! with a checkpoint, updates and restarts, and prints one JSON result as
//! the last line of standard output. With `--trace 0` the result carries
//! the end-to-end metrics; with `--trace 1` it carries the per-layer
//! metrics of a traced single-threaded replay of the same request stream
//! (`--spans PATH` also writes that replay's spans, one JSON object per
//! line). `--workload all` runs every workload `--repeat` times, each in
//! a fresh child process with seeds `seed, seed+1, …`, and `--out`
//! collects the results for `compare`. See README.md for the workloads,
//! metrics and bounds.

mod compare;
mod gen;
mod live;
mod replay;
mod stats;
#[cfg(test)]
mod tests;

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use qpl_serve::wire::JsonValue;

use gen::Workload;

/// Where runs keep their data dirs, relative to the working directory.
const TMP_DIR: &str = ".qpl_bench_tmp";

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
    repeat: u64,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 25.0,
        trace: false,
        spans: None,
        repeat: 1,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} takes a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, not {val:?}");
        match flag.as_str() {
            "--workload" => a.workload = Some(val.clone()),
            "--seed" => a.seed = val.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                a.seconds = val
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 3.0)
                    .ok_or_else(|| bad("seconds ≥ 3, so the closed loop has a whole second"))?;
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--spans" => a.spans = Some(PathBuf::from(val)),
            "--repeat" => {
                a.repeat = val.parse().ok().filter(|n| *n >= 1).ok_or_else(|| bad("a count ≥ 1"))?
            }
            "--out" => a.out = Some(PathBuf::from(val)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(a)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// The end-to-end metrics of a live run.
fn end_to_end(m: &live::Measured) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", m.setup_s, "s"),
        Metric::new("throughput_qps", m.closed.best_second, "lanes/s"),
        Metric::new("p50_ms", m.open.latency.p50, "ms"),
        Metric::new("p95_ms", m.open.latency.p95, "ms"),
        Metric::new("cost_per_query", m.open.cost / m.open.lanes as f64, "cost/lane"),
        Metric::new("restart_s", m.restart_s, "s"),
        Metric::new("peak_rss_mb", m.peak_rss_mb, "MB"),
    ]
}

/// Removes a run's scratch directory, and the shared parent once empty.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = fs::remove_dir(parent);
        }
    }
}

fn run_one(w: Workload, a: &Args) -> ExitCode {
    let fail = |detail: &str| {
        eprintln!("qpl_bench {}: {detail}", w.name());
        println!("{}", result_json(false, 1, 1, &[]));
        ExitCode::FAILURE
    };
    let tmp = match std::env::current_dir() {
        Ok(d) => d.join(TMP_DIR).join(format!("{}-{}", w.name(), std::process::id())),
        Err(e) => return fail(&format!("working directory: {e}")),
    };
    if let Err(e) = fs::create_dir_all(&tmp) {
        return fail(&format!("create {}: {e}", tmp.display()));
    }
    let _cleanup = TmpDir(tmp.clone());
    let restart_exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return fail(&format!("cannot find its own executable: {e}")),
    };
    let cfg = live::Config {
        workload: w,
        seed: a.seed,
        seconds: a.seconds,
        tmp: tmp.clone(),
        restart_exe: Some(restart_exe),
    };
    let kb = gen::Kb::generate(a.seed, gen::CONSTANTS);
    let m = match live::run(&cfg, &kb) {
        Ok(m) => m,
        Err(e) => return fail(&e),
    };
    let (open, late) = (&m.open.latency, &m.open.lateness);
    let tail = open.tail.map_or("none".to_string(), |(p, v)| format!("p{p} {v:.3} ms"));
    eprintln!(
        "qpl_bench {} seed {}: open loop {} served requests (p99 {:.3} ms, tail {tail}), {} refused; \
         lateness p99 {:.3} ms, max {:.3} ms; closed loop {} requests, {} refused, \
         {:.0} lanes/s over the window; server climbs {}",
        w.name(),
        a.seed,
        open.n,
        open.p99,
        m.open.refused,
        late.p99,
        late.max,
        m.closed.sent,
        m.closed.refused,
        m.closed.mean,
        m.after.climbs,
    );
    if late.p99 > live::LATENESS_LIMIT_MS {
        eprintln!(
            "qpl_bench {}: invalid run: the load generator ran {:.3} ms late at p99 (limit {} ms)",
            w.name(),
            late.p99,
            live::LATENESS_LIMIT_MS
        );
        return ExitCode::from(3);
    }
    let metrics = if a.trace {
        match replay::run(&kb, &m, &tmp.join("replay"), a.spans.as_deref()) {
            Ok(v) => v,
            Err(e) => return fail(&e),
        }
    } else {
        end_to_end(&m)
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return fail(&format!("{} is not a finite number", bad.name));
    }
    for metric in &metrics {
        eprintln!("  {:<28} {:>16.6} {}", metric.name, metric.value, metric.unit);
    }
    println!("{}", result_json(true, m.attempted, m.failed, &metrics));
    ExitCode::SUCCESS
}

/// Runs every workload `--repeat` times, each in a fresh child process
/// so set-up, memory and caches start cold, and prints every metric.
fn run_all(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("qpl_bench: cannot find its own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut collected = String::from("{");
    for (wi, w) in Workload::ALL.into_iter().enumerate() {
        let _ = write!(collected, "{}\n  \"{}\": [", if wi == 0 { "" } else { "," }, w.name());
        for rep in 0..a.repeat {
            let seed = a.seed + rep;
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name()])
                .args(["--seed", &seed.to_string(), "--seconds", &a.seconds.to_string()])
                .args(["--trace", if a.trace { "1" } else { "0" }])
                .stderr(Stdio::inherit());
            let output = match cmd.output() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("qpl_bench: cannot run {}: {e}", w.name());
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            let line = stdout.lines().last().unwrap_or("").to_string();
            let parsed = JsonValue::parse(&line).ok();
            let correct =
                parsed.as_ref().and_then(|v| v.get("correct")).and_then(JsonValue::as_bool);
            println!("{} seed {seed}: correct {}", w.name(), correct.unwrap_or(false));
            if let Some(JsonValue::Obj(fields)) = parsed.as_ref().and_then(|v| v.get("metrics")) {
                for (name, m) in fields {
                    let value = m.get("value").and_then(JsonValue::as_f64).unwrap_or(f64::NAN);
                    let unit = m.get("unit").and_then(JsonValue::as_str).unwrap_or("");
                    println!("  {name:<28} {value:>16.6} {unit}");
                }
            }
            ok &= output.status.success() && correct == Some(true);
            let _ = write!(collected, "{}\n    {line}", if rep == 0 { "" } else { "," });
        }
        collected.push_str("\n  ]");
    }
    collected.push_str("\n}\n");
    if let Some(path) = &a.out {
        if let Err(e) = fs::write(path, collected) {
            eprintln!("qpl_bench: write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

const USAGE: &str = "usage: qpl_bench --workload <hot_read|point_query|churn_rw|all> [--seed N] \
[--seconds S] [--trace 0|1] [--spans PATH] [--repeat N] [--out PATH]\n       \
qpl_bench compare A.json B.json [--bounds BENCHMARK.json]";

/// `qpl_bench restart --seed N --data-dir DIR --strategy-fp FP`:
/// the restarts of a run, in a process of their own; prints the fastest
/// restart's seconds.
fn restart(argv: &[String]) -> Result<f64, String> {
    let flag = |name: &str| {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .ok_or_else(|| format!("restart needs {name}"))
    };
    let seed = flag("--seed")?.parse().map_err(|_| "--seed takes an integer")?;
    let kb = gen::Kb::generate(seed, gen::CONSTANTS);
    live::restarts(&kb, &PathBuf::from(flag("--data-dir")?), flag("--strategy-fp")?.clone())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("restart") {
        return match restart(&argv[1..]) {
            Ok(secs) => {
                println!("{secs}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("qpl_bench restart: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if argv.first().map(String::as_str) == Some("compare") {
        return match compare::run(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("qpl_bench compare: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qpl_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload.as_deref() {
        Some("all") => run_all(&args),
        Some(name) => match Workload::parse(name) {
            Some(w) => run_one(w, &args),
            None => {
                eprintln!("qpl_bench: unknown workload {name:?}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        None => {
            eprintln!("qpl_bench: --workload is required\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
