//! Load-tests the `qpl-serve` front door end to end and emits
//! `BENCH_serve.json`.
//!
//! ```text
//! bench_serve [--out BENCH_serve.json] [--threads N] [--rounds N]
//!             [--batch N] [--updates N] [--shards N] [--adapt DELTA]
//!             [--assert-qps N]
//! ```
//!
//! For each shard count in the sweep (default `{1, 2, 4, cores}`;
//! `--shards N` pins a single configuration, e.g. for CI), a real
//! [`Server`] is started on an ephemeral port (layered-KB shape, online
//! PIB adaptation on by default); `--threads` client threads each send
//! `--rounds` batch requests of `--batch` queries over real TCP
//! sockets. Each client rotates the query list by its thread index, so
//! the steering key (first query text) differs per client and jobs
//! spread across shards rather than all hashing to one home replica.
//!
//! Timing is two-window. The **serve window** opens after every client
//! has connected (a barrier) and closes when the last client has its
//! last response line in hand — responses are stored raw during the
//! window and verified afterwards, so `serve_qps` measures the server,
//! not the harness. The **total window** additionally charges
//! connection setup and ground-truth verification — what a cold client
//! actually observes. Both are reported; earlier revisions reported
//! only the total and thereby understated the server.
//!
//! Accounting is strict: every request must come back as either a
//! served `answers` payload (each lane checked against a direct scalar
//! [`QueryProcessor`] run) or an explicit `overloaded` refusal — a
//! dropped request is a benchmark failure, not a footnote. Per-shard
//! served/fill/qps are pulled from the server's own `stats` breakdown.
//! `--assert-qps` gates the best serve-window qps across the sweep for
//! CI.
//!
//! After the timed window, a **mixed query/update phase** sends
//! `--updates` wire-v2 `update` requests (alternating insert/retract
//! of a fact outside every query's dependency footprint) interleaved
//! with full query batches. Each batch must keep answering exactly
//! what the pre-churn scalar ground truth said, every shard's
//! applied-delta counter must equal the rounds sent (replica
//! convergence), and the merged metrics must carry the
//! `serve.kb.delta.applied` and `obs.events_dropped` counters.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::num::NonZeroUsize;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use qpl_engine::QueryProcessor;
use qpl_graph::context::RunScratch;
use qpl_serve::wire::JsonValue;
use qpl_serve::{ServeEngine, Server, ServerConfig};
use qpl_workload::generator::KbParams;

const SEED: u64 = 7;

struct Args {
    out: String,
    threads: usize,
    rounds: usize,
    batch: usize,
    updates: usize,
    shards: Option<usize>,
    adapt: Option<f64>,
    assert_qps: Option<f64>,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get =
        |flag: &str| argv.iter().position(|a| a == flag).and_then(|p| argv.get(p + 1)).cloned();
    Args {
        out: get("--out").unwrap_or_else(|| "BENCH_serve.json".to_string()),
        threads: get("--threads").map_or(8, |v| v.parse().expect("--threads takes a count")),
        rounds: get("--rounds").map_or(200, |v| v.parse().expect("--rounds takes a count")),
        batch: get("--batch").map_or(32, |v| v.parse().expect("--batch takes a lane count")),
        updates: get("--updates").map_or(16, |v| v.parse().expect("--updates takes a count")),
        shards: get("--shards").map(|v| v.parse().expect("--shards takes a count")),
        adapt: match get("--adapt") {
            Some(v) if v == "off" => None,
            Some(v) => Some(v.parse().expect("--adapt takes a delta or `off`")),
            None => Some(0.1),
        },
        assert_qps: get("--assert-qps").map(|v| v.parse().expect("--assert-qps takes a rate")),
    }
}

/// Ground truth per query text, from a direct scalar run: "yes" / "no".
/// Decisions are strategy-invariant, so they stay valid while the
/// server adapts its strategy online.
fn expected_kinds(texts: &[String]) -> Vec<&'static str> {
    let mut engine = ServeEngine::layered(SEED, &KbParams::default());
    let qp = QueryProcessor::left_to_right(&engine.compiled);
    let mut scratch = RunScratch::new(&engine.compiled.graph);
    texts
        .iter()
        .map(|t| {
            let atom =
                qpl_datalog::parser::parse_query(t, &mut engine.table).expect("query parses");
            match qp.run_into(&atom, &engine.db, &mut scratch).expect("query runs") {
                qpl_engine::QueryAnswer::Yes(_) => "yes",
                qpl_engine::QueryAnswer::No => "no",
            }
        })
        .collect()
}

/// One sweep entry's measurements.
struct RunStats {
    shards: usize,
    sent: u64,
    served_reqs: u64,
    shed_reqs: u64,
    served_queries: u64,
    serve_secs: f64,
    serve_qps: f64,
    total_secs: f64,
    total_qps: f64,
    fill: f64,
    p50: f64,
    p99: f64,
    climbs: f64,
    adoptions: f64,
    steer_fallbacks: f64,
    /// Per shard: (shard, served lanes, fill_ratio, serve-window qps).
    per_shard: Vec<(f64, f64, f64, f64)>,
    /// `update` rounds sent in the mixed query/update phase.
    update_rounds: u64,
    /// Each shard's applied-delta counter after that phase; convergent
    /// replicas all report `update_rounds`.
    per_shard_deltas: Vec<f64>,
    /// The merged `serve.kb.delta.applied` metrics counter.
    kb_delta_applied: f64,
    /// The merged `obs.events_dropped` metrics counter.
    events_dropped: f64,
}

/// Client `t`'s lane order: the shared text list rotated by `t`, so
/// every thread's *first* query — the steering key — differs and jobs
/// spread across shards instead of all hashing to one home replica.
fn rotate<T: Clone>(xs: &[T], by: usize) -> Vec<T> {
    let n = xs.len();
    (0..n).map(|i| xs[(i + by) % n].clone()).collect()
}

fn batch_request(texts: &[String]) -> String {
    format!(
        r#"{{"kind":"batch","qs":[{}]}}"#,
        texts.iter().map(|t| format!("\"{t}\"")).collect::<Vec<_>>().join(",")
    )
}

/// Starts a fresh `shards`-shard server, drives the full client load
/// against it, verifies every response, and returns the measurements.
fn bench_one(args: &Args, shards: usize, texts: &[String], expected: &[&'static str]) -> RunStats {
    let params = KbParams::default();
    let server = Server::start(
        ServeEngine::layered(SEED, &params),
        ServerConfig {
            shards,
            queue_cap: 4096,
            adapt_delta: args.adapt,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.local_addr();

    let start = Arc::new(Barrier::new(args.threads + 1));
    let done = Arc::new(Barrier::new(args.threads + 1));
    let t_total = Instant::now();
    let handles: Vec<_> = (0..args.threads)
        .map(|t| {
            let req = batch_request(&rotate(texts, t % texts.len()));
            let rounds = args.rounds;
            let (start, done) = (Arc::clone(&start), Arc::clone(&done));
            thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).expect("nodelay");
                stream.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut lines = Vec::with_capacity(rounds);
                start.wait();
                // Serve window: raw lines only, no parsing.
                for _ in 0..rounds {
                    stream.write_all(req.as_bytes()).expect("send");
                    stream.write_all(b"\n").expect("send");
                    let mut line = String::new();
                    reader.read_line(&mut line).expect("response");
                    lines.push(line);
                }
                done.wait();
                lines
            })
        })
        .collect();

    start.wait();
    let t_serve = Instant::now();
    done.wait();
    let serve_secs = t_serve.elapsed().as_secs_f64();

    // Out-of-window: join, parse, and verify every stored response.
    let (mut served_reqs, mut shed_reqs) = (0u64, 0u64);
    for (t, h) in handles.into_iter().enumerate() {
        let expected = rotate(expected, t % texts.len());
        for line in h.join().expect("client thread panicked") {
            let resp = JsonValue::parse(&line).expect("response is valid JSON");
            match resp.get("kind").and_then(JsonValue::as_str) {
                Some("answers") => {
                    let results = resp
                        .get("results")
                        .and_then(JsonValue::as_array)
                        .expect("answers carries results");
                    assert_eq!(results.len(), expected.len(), "one result per lane");
                    for (r, exp) in results.iter().zip(&expected) {
                        let got = r
                            .get("answer")
                            .and_then(JsonValue::as_str)
                            .expect("served lanes carry an answer");
                        assert_eq!(got, *exp, "served answer matches the scalar run");
                    }
                    served_reqs += 1;
                }
                Some("error") => {
                    assert_eq!(
                        resp.get("error").and_then(JsonValue::as_str),
                        Some("overloaded"),
                        "the only refusal under load is `overloaded`"
                    );
                    shed_reqs += 1;
                }
                other => panic!("unexpected response kind {other:?}"),
            }
        }
    }
    let total_secs = t_total.elapsed().as_secs_f64();

    let sent = (args.threads * args.rounds) as u64;
    assert_eq!(served_reqs + shed_reqs, sent, "every request answered or refused — none dropped");
    let served_queries = served_reqs * args.batch as u64;
    let serve_qps = served_queries as f64 / serve_secs;
    let total_qps = served_queries as f64 / total_secs;

    // Mixed query/update phase (outside the timed window): live KB
    // deltas interleaved with re-queries on one connection. The churned
    // predicate never appears in any query's dependency footprint, so
    // every interleaved batch must keep answering exactly what the
    // scalar ground truth said before the churn started.
    let mut ctl = TcpStream::connect(addr).expect("stats connect");
    ctl.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut ctl_reader = BufReader::new(ctl.try_clone().expect("clone"));
    let send_line = |ctl: &mut TcpStream, reader: &mut BufReader<TcpStream>, req: &str| {
        ctl.write_all(req.as_bytes()).expect("send");
        ctl.write_all(b"\n").expect("send");
        let mut line = String::new();
        reader.read_line(&mut line).expect("response");
        JsonValue::parse(&line).expect("response is valid JSON")
    };
    let query_req = batch_request(texts);
    for i in 0..args.updates as u64 {
        let update_req = if i % 2 == 0 {
            format!(r#"{{"kind":"update","insert":["churn(u{i})"],"id":{i}}}"#)
        } else {
            format!(r#"{{"kind":"update","retract":["churn(u{})"],"id":{i}}}"#, i - 1)
        };
        let ack = send_line(&mut ctl, &mut ctl_reader, &update_req);
        assert_eq!(ack.get("kind").and_then(JsonValue::as_str), Some("updated"), "{ack:?}");
        assert_eq!(
            ack.get("deltas_applied").and_then(JsonValue::as_f64),
            Some((i + 1) as f64),
            "every shard has applied every update so far"
        );
        let resp = send_line(&mut ctl, &mut ctl_reader, &query_req);
        assert_eq!(resp.get("kind").and_then(JsonValue::as_str), Some("answers"), "{resp:?}");
        let results =
            resp.get("results").and_then(JsonValue::as_array).expect("answers carries results");
        for (r, exp) in results.iter().zip(expected) {
            let got = r.get("answer").and_then(JsonValue::as_str).expect("lane answered");
            assert_eq!(got, *exp, "answers unchanged by out-of-footprint churn");
        }
    }

    // Pull the server's own accounting before shutting down.
    ctl.write_all(b"{\"kind\":\"stats\"}\n").expect("stats send");
    let mut stats_line = String::new();
    ctl_reader.read_line(&mut stats_line).expect("stats response");
    let stats = JsonValue::parse(&stats_line).expect("stats is valid JSON");
    let stat = |k: &str| stats.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
    let per_shard: Vec<(f64, f64, f64, f64)> = stats
        .get("shards")
        .and_then(JsonValue::as_array)
        .expect("stats carries a per-shard breakdown")
        .iter()
        .map(|s| {
            let f = |k: &str| s.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
            (f("shard"), f("served"), f("fill_ratio"), f("served") / serve_secs)
        })
        .collect();

    // Convergence: every replica must have applied every broadcast
    // delta — the per-shard counters all equal the rounds sent.
    let per_shard_deltas: Vec<f64> = stats
        .get("shards")
        .and_then(JsonValue::as_array)
        .expect("stats carries a per-shard breakdown")
        .iter()
        .map(|s| s.get("deltas_applied").and_then(JsonValue::as_f64).unwrap_or(-1.0))
        .collect();
    for (i, &d) in per_shard_deltas.iter().enumerate() {
        assert_eq!(d, args.updates as f64, "shard {i} diverged: applied {d} deltas");
    }
    let counter = |k: &str| {
        stats
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get(k))
            .and_then(JsonValue::as_f64)
    };
    let kb_delta_applied =
        counter("serve.kb.delta.applied").expect("metrics counters carry serve.kb.delta.applied");
    assert!(
        kb_delta_applied >= (args.updates * shards) as f64,
        "applied-delta counter {kb_delta_applied} below the {} broadcast applications",
        args.updates * shards
    );
    let events_dropped =
        counter("obs.events_dropped").expect("metrics counters carry obs.events_dropped");

    let run = RunStats {
        shards,
        sent,
        served_reqs,
        shed_reqs,
        served_queries,
        serve_secs,
        serve_qps,
        total_secs,
        total_qps,
        fill: stat("fill_ratio"),
        p50: stat("p50_us"),
        p99: stat("p99_us"),
        climbs: stat("climbs"),
        adoptions: stat("adoptions"),
        steer_fallbacks: stat("steer_fallbacks"),
        per_shard,
        update_rounds: args.updates as u64,
        per_shard_deltas,
        kb_delta_applied,
        events_dropped,
    };
    ctl.write_all(b"{\"kind\":\"shutdown\"}\n").expect("shutdown send");
    server.join();
    run
}

fn run_json(r: &RunStats) -> String {
    let per_shard = r
        .per_shard
        .iter()
        .map(|(shard, served, fill, qps)| {
            format!(
                "{{\"shard\": {shard:.0}, \"served_queries\": {served:.0}, \
                 \"fill_ratio\": {fill:.4}, \"serve_qps\": {qps:.0}}}"
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"shards\": {}, \"sent_requests\": {}, \"served_requests\": {}, \
         \"overloaded_requests\": {}, \"served_queries\": {}, \
         \"serve_secs\": {:.3}, \"serve_qps\": {:.0}, \
         \"total_secs\": {:.3}, \"total_qps\": {:.0}, \
         \"batch_fill_ratio\": {:.4}, \"service_p50_us\": {:.1}, \
         \"service_p99_us\": {:.1}, \"strategy_climbs\": {:.0}, \
         \"adoptions\": {:.0}, \"steer_fallbacks\": {:.0}, \
         \"per_shard\": [{per_shard}], \
         \"updates\": {{\"rounds\": {}, \"per_shard_deltas_applied\": [{}], \
         \"kb_delta_applied\": {:.0}, \"events_dropped\": {:.0}}}}}",
        r.shards,
        r.sent,
        r.served_reqs,
        r.shed_reqs,
        r.served_queries,
        r.serve_secs,
        r.serve_qps,
        r.total_secs,
        r.total_qps,
        r.fill,
        r.p50,
        r.p99,
        r.climbs,
        r.adoptions,
        r.steer_fallbacks,
        r.update_rounds,
        r.per_shard_deltas.iter().map(|d| format!("{d:.0}")).collect::<Vec<_>>().join(", "),
        r.kb_delta_applied,
        r.events_dropped,
    )
}

fn main() {
    let args = parse_args();
    let params = KbParams::default();
    let cores = thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let texts: Vec<String> =
        (0..args.batch).map(|i| format!("q0(c{})", i % params.constants)).collect();
    let expected = expected_kinds(&texts);

    let sweep: Vec<usize> = match args.shards {
        Some(n) => vec![n.max(1)],
        None => {
            let mut s = vec![1, 2, 4, cores];
            s.sort_unstable();
            s.dedup();
            s
        }
    };

    let mut runs = Vec::with_capacity(sweep.len());
    for &shards in &sweep {
        let r = bench_one(&args, shards, &texts, &expected);
        println!(
            "shards {}: served {} queries in {:.2}s serve window = {:.0} qps \
             ({:.0} qps incl. connect+verify; requests: {} served, {} overloaded; \
             fill {:.3}, p50 {:.0}us, p99 {:.0}us, climbs {:.0}, adoptions {:.0}, \
             fallbacks {:.0})",
            r.shards,
            r.served_queries,
            r.serve_secs,
            r.serve_qps,
            r.total_qps,
            r.served_reqs,
            r.shed_reqs,
            r.fill,
            r.p50,
            r.p99,
            r.climbs,
            r.adoptions,
            r.steer_fallbacks,
        );
        runs.push(r);
    }

    let baseline = runs.iter().find(|r| r.shards == 1);
    let best = runs
        .iter()
        .max_by(|a, b| a.serve_qps.partial_cmp(&b.serve_qps).expect("qps is finite"))
        .expect("at least one run");
    let scaling = match baseline {
        Some(b) if b.serve_qps > 0.0 => format!(
            "{{\"baseline_shards\": 1, \"best_shards\": {}, \"best_serve_qps\": {:.0}, \
             \"speedup_vs_one_shard\": {:.3}}}",
            best.shards,
            best.serve_qps,
            best.serve_qps / b.serve_qps
        ),
        _ => "null".to_string(),
    };

    let runs_json =
        runs.iter().map(run_json).map(|r| format!("    {r}")).collect::<Vec<_>>().join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"qpl-serve end-to-end (TCP, line-delimited JSON)\",\n  \
         \"cores\": {cores},\n  \
         \"shape\": {{\"kb\": \"layered\", \"seed\": {SEED}, \"layers\": {}, \
         \"rules_per_layer\": {}, \"constants\": {}, \"facts_per_predicate\": {}}},\n  \
         \"load\": {{\"client_threads\": {}, \"rounds_per_thread\": {}, \
         \"batch_lanes\": {}, \"update_rounds\": {}, \"adapt_delta\": {}}},\n  \
         \"note\": \"serve_qps counts served queries over the serve window (all clients \
         connected, responses stored raw and verified afterwards); total_qps charges \
         connect + verify too. Every served lane checked against a direct scalar \
         QueryProcessor run; answered + overloaded asserted == sent. Multi-shard \
         speedup requires multiple cores; cores records what this host had\",\n  \
         \"runs\": [\n{runs_json}\n  ],\n  \
         \"scaling\": {scaling}\n}}\n",
        params.layers,
        params.rules_per_layer,
        params.constants,
        params.facts_per_predicate,
        args.threads,
        args.rounds,
        args.batch,
        args.updates,
        args.adapt.map_or("null".to_string(), |d| d.to_string()),
    );
    std::fs::write(&args.out, &json).expect("write BENCH_serve.json");
    println!("wrote {} (cores={cores}, sweep={sweep:?})", args.out);

    if let Some(min) = args.assert_qps {
        assert!(
            best.serve_qps >= min,
            "best sustained {:.0} qps is below the required {min:.0} qps floor",
            best.serve_qps
        );
        println!("qps floor {min:.0}: ok ({:.0} qps at {} shards)", best.serve_qps, best.shards);
    }
}
