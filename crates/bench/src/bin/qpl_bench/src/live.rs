//! The live run: a real in-process [`Server`] driven over TCP by two
//! connections from this process, with every reply checked against the
//! generator's truth table.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use qpl_serve::wire::JsonValue;
use qpl_serve::{ServeEngine, Server, ServerConfig};
use qpl_store::FsyncPolicy;

use crate::gen::{self, Kb, Op, Req, Rng, Toggle, Workload};
use crate::stats::{self, Summary};

/// PIB confidence parameter δ the server adapts with.
pub const DELTA: f64 = 0.1;
/// Set-ups and restarts per run.
const BOOTS: usize = 7;
/// Updates sent after the checkpoint, replayed by every restart.
pub const EPILOGUE_UPDATES: usize = 500;
/// Share of each loop's window excluded from its measurements.
const WARMUP: f64 = 0.15;
/// Share of `--seconds` spent in the open loop; the closed loop gets the rest.
const OPEN_SHARE: f64 = 0.6;
/// A run whose open-loop sends were later than this at p99 did not offer
/// the load it claims, and is rejected as invalid.
pub const LATENESS_LIMIT_MS: f64 = 5.0;

/// The fixed server configuration every workload runs against.
pub fn server_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        shards: 1,
        adapt_delta: Some(DELTA),
        data_dir: Some(dir.to_path_buf()),
        fsync: FsyncPolicy::EveryBatch,
        ..ServerConfig::default()
    }
}

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Scratch directory for data dirs; removed by the caller.
    pub tmp: PathBuf,
    /// The executable the restarts run in (`qpl_bench restart …`), so
    /// they start from a fresh process as a real restart does, on the
    /// full-size KB; `None` restarts in this process.
    pub restart_exe: Option<PathBuf>,
}

/// One line-delimited JSON connection.
struct Client {
    out: TcpStream,
    inp: BufReader<TcpStream>,
}

fn io_err(what: &str) -> impl Fn(io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let out = TcpStream::connect(addr).map_err(io_err("connect"))?;
        out.set_nodelay(true).map_err(io_err("nodelay"))?;
        out.set_read_timeout(Some(Duration::from_secs(30))).map_err(io_err("read timeout"))?;
        let inp = BufReader::new(out.try_clone().map_err(io_err("clone socket"))?);
        Ok(Client { out, inp })
    }

    fn exchange(&mut self, line: &str) -> Result<String, String> {
        send_line(&mut self.out, line)?;
        recv_line(&mut self.inp)
    }

    fn call(&mut self, line: &str) -> Result<JsonValue, String> {
        let reply = self.exchange(line)?;
        JsonValue::parse(reply.trim_end()).map_err(|e| format!("unparsable reply {reply:?}: {e}"))
    }

    /// Sends `shutdown`, expects `bye`.
    fn shutdown(mut self) -> Result<(), String> {
        expect_kind(&self.call("{\"kind\":\"shutdown\"}")?, "bye")
    }
}

fn send_line(out: &mut TcpStream, line: &str) -> Result<(), String> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    out.write_all(&buf).map_err(io_err("send"))
}

fn recv_line(inp: &mut BufReader<TcpStream>) -> Result<String, String> {
    let mut line = String::new();
    match inp.read_line(&mut line) {
        Ok(0) => Err("server closed the connection".to_string()),
        Ok(_) => Ok(line),
        Err(e) => Err(format!("missing reply: {e}")),
    }
}

fn expect_kind(v: &JsonValue, kind: &str) -> Result<(), String> {
    match v.get("kind").and_then(JsonValue::as_str) {
        Some(k) if k == kind => Ok(()),
        _ => Err(format!("expected a {kind:?} reply, got {v:?}")),
    }
}

/// A checked reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reply {
    /// Every lane answered correctly; `cost` sums the lanes' costs.
    Served { lanes: usize, cost: f64 },
    /// Refused with `overloaded`.
    Refused,
}

/// One answered lane: answer, witness, cost.
pub type Lane<'a> = (Option<&'a str>, Option<&'a str>, Option<f64>);

/// Reads the lanes of a served reply straight off the server's own
/// rendering; `None` for anything else (an id, an escape, an error, a
/// changed layout), which then goes through the full JSON parser. The
/// full parse costs about 28 µs per 32-lane reply on the client threads,
/// which share the two cores with the server: enough to move the
/// closed-loop throughput being measured.
pub fn fast_lanes(line: &str) -> Option<(&'static str, Vec<Lane<'_>>)> {
    let body = line.trim_end();
    let (kind, mut rest) = match body.strip_prefix("{\"v\":2,\"kind\":\"answers\",\"results\":[") {
        Some(r) => ("answers", r.strip_suffix("]}")?),
        None => (
            "answer",
            body.strip_prefix("{\"v\":2,\"kind\":\"answer\",\"result\":")?.strip_suffix('}')?,
        ),
    };
    if rest.contains('\\') {
        return None;
    }
    let mut lanes = Vec::with_capacity(gen::BATCH_LANES);
    loop {
        let (answer, r) = rest.strip_prefix("{\"answer\":\"")?.split_once('"')?;
        let (witness, r) = match r.strip_prefix(",\"witness\":\"") {
            Some(r) => r.split_once('"').map(|(w, r)| (Some(w), r))?,
            None => (None, r),
        };
        let (cost, r) = r.strip_prefix(",\"cost\":")?.split_once('}')?;
        lanes.push((Some(answer), witness, Some(cost.parse().ok()?)));
        match r.strip_prefix(',') {
            Some(r) => rest = r,
            None => return r.is_empty().then_some((kind, lanes)),
        }
    }
}

fn json_lane(v: &JsonValue) -> Lane<'_> {
    (
        v.get("answer").and_then(JsonValue::as_str),
        v.get("witness").and_then(JsonValue::as_str),
        v.get("cost").and_then(JsonValue::as_f64),
    )
}

/// Checks one reply line against the truth table. A wrong answer, a
/// malformed reply or any error other than `overloaded` is an `Err`.
pub fn check(kb: &Kb, op: &Op, line: &str) -> Result<Reply, String> {
    let mut parsed = None;
    let (kind, lanes) = match fast_lanes(line) {
        Some(fast) => fast,
        None => {
            let parsed = parsed.insert(
                JsonValue::parse(line.trim_end())
                    .map_err(|e| format!("unparsable reply {line:?}: {e}"))?,
            );
            let kind = match parsed.get("kind").and_then(JsonValue::as_str) {
                Some("error")
                    if parsed.get("error").and_then(JsonValue::as_str) == Some("overloaded") =>
                {
                    return Ok(Reply::Refused)
                }
                Some("answers") => "answers",
                Some("answer") => "answer",
                Some("updated") => "updated",
                _ => "",
            };
            let lanes = match kind {
                "answers" => parsed
                    .get("results")
                    .and_then(JsonValue::as_array)
                    .map_or_else(Vec::new, |r| r.iter().map(json_lane).collect()),
                "answer" => parsed.get("result").map(json_lane).into_iter().collect(),
                _ => Vec::new(),
            };
            (kind, lanes)
        }
    };
    let keys = match (op, kind) {
        (Op::Batch(keys), "answers") => keys.as_slice(),
        (Op::Query(key), "answer") => std::slice::from_ref(key),
        (Op::Update(insert), "updated") => {
            let field = if *insert { "inserted" } else { "retracted" };
            return if parsed.as_ref().and_then(|v| v.get(field)).and_then(JsonValue::as_f64)
                == Some(1.0)
            {
                Ok(Reply::Served { lanes: 0, cost: 0.0 })
            } else {
                Err(format!("update did not change the database: {line}"))
            };
        }
        _ => return Err(format!("unexpected reply to {}: {line}", op.line())),
    };
    if lanes.len() != keys.len() {
        return Err(format!("reply without one result per lane: {line}"));
    }
    let mut cost = 0.0;
    for (&(answer, witness, c), &key) in lanes.iter().zip(keys) {
        let c = c.filter(|c| c.is_finite() && *c > 0.0);
        match (answer, c) {
            (Some("yes"), Some(c)) if witness.is_some_and(|w| kb.witness_ok(key, w)) => cost += c,
            (Some("no"), Some(c)) if !kb.answer(key) => cost += c,
            _ => return Err(format!("wrong answer for q0(c{key}): {line}")),
        }
    }
    Ok(Reply::Served { lanes: keys.len(), cost })
}

/// The server counters the benchmark reads from `stats`.
#[derive(Debug, Clone, PartialEq)]
pub struct Stats {
    pub served: f64,
    pub planes: f64,
    pub memo_hits: f64,
    pub climbs: f64,
    pub fill_ratio: f64,
    pub strategy_fp: String,
}

fn stats(c: &mut Client) -> Result<Stats, String> {
    let v = c.call("{\"kind\":\"stats\"}")?;
    expect_kind(&v, "stats")?;
    let num = |k: &str| v.get(k).and_then(JsonValue::as_f64).ok_or(format!("stats without {k}"));
    let strategy_fp = v
        .get("shards")
        .and_then(JsonValue::as_array)
        .and_then(|s| s.first())
        .and_then(|s| s.get("strategy_fp"))
        .and_then(JsonValue::as_str)
        .ok_or("stats without a strategy fingerprint")?
        .to_string();
    let memo_hits = v
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("serve.cache.hits"))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0);
    Ok(Stats {
        served: num("served")?,
        planes: num("batches")?,
        memo_hits,
        climbs: num("climbs")?,
        fill_ratio: num("fill_ratio")?,
        strategy_fp,
    })
}

/// Builds the engine from the KB text, starts a server on `dir`, and
/// waits for the first correct probe answer. With `expect_fp`, the
/// server must come back on that strategy (checked before the probe,
/// whose lanes the learner observes). Returns the elapsed seconds.
fn boot(kb: &Kb, dir: &Path, expect_fp: Option<&str>) -> Result<(Server, Client, f64), String> {
    let t0 = Instant::now();
    let engine = ServeEngine::from_source(&kb.text, gen::FORM)?;
    let server = Server::start(engine, server_config(dir)).map_err(io_err("server start"))?;
    let mut c = Client::connect(server.local_addr())?;
    if let Some(want) = expect_fp {
        let got = stats(&mut c)?.strategy_fp;
        if got != want {
            return Err(format!("restart came back on strategy {got}, not {want}"));
        }
    }
    let probe = kb.probe();
    match check(kb, &probe, &c.exchange(&probe.line())?)? {
        Reply::Served { .. } => Ok((server, c, t0.elapsed().as_secs_f64())),
        Reply::Refused => Err("probe refused".to_string()),
    }
}

fn median(v: &[f64]) -> f64 {
    stats::quartiles(v).1
}

/// Open-loop results, measurement window only unless noted.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    /// Due-time latency of each served request, ms.
    pub latency: Summary,
    /// How late each send left against its due time, ms (whole run).
    pub lateness: Summary,
    pub cost: f64,
    pub lanes: u64,
    /// Requests sent and refused over the whole loop.
    pub sent: u64,
    pub refused: u64,
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        thread::sleep(t - now);
    }
}

/// Sends each connection's stream on its schedule from a sender thread
/// while a receiver thread reads and checks the replies in order; latency
/// counts from when each request was due, so a stall is charged to every
/// request queued behind it.
pub fn open_loop(
    addr: SocketAddr,
    kb: &Kb,
    streams: &[Vec<Req>],
    warmup_ns: u64,
) -> Result<OpenLoop, String> {
    let clients = streams.iter().map(|_| Client::connect(addr)).collect::<Result<Vec<_>, _>>()?;
    // Leave the threads time to start before the first request is due.
    let origin = Instant::now() + Duration::from_millis(20);
    let due = |r: &Req| origin + Duration::from_nanos(r.due_ns);
    let per_conn = thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(streams)
            .map(|(Client { mut out, mut inp }, reqs)| {
                let sender = s.spawn(move || {
                    let mut late = Vec::with_capacity(reqs.len());
                    for r in reqs {
                        let line = r.op.line();
                        sleep_until(due(r));
                        if let Err(e) = send_line(&mut out, &line) {
                            let _ = out.shutdown(Shutdown::Both);
                            return Err(e);
                        }
                        late.push(
                            Instant::now().saturating_duration_since(due(r)).as_secs_f64() * 1e3,
                        );
                    }
                    Ok(late)
                });
                let receiver = s.spawn(move || {
                    let mut got = Vec::with_capacity(reqs.len());
                    for r in reqs {
                        let checked = recv_line(&mut inp).and_then(|line| {
                            let at = Instant::now();
                            check(kb, &r.op, &line).map(|reply| (at, reply))
                        });
                        match checked {
                            Ok((at, reply)) => {
                                got.push((at.saturating_duration_since(due(r)), reply));
                            }
                            Err(e) => {
                                // Unblock the sender, which may be stuck
                                // writing to a server nobody reads from.
                                let _ = inp.get_ref().shutdown(Shutdown::Both);
                                return Err(e);
                            }
                        }
                    }
                    Ok(got)
                });
                (sender, receiver)
            })
            .collect();
        handles
            .into_iter()
            .map(|(sender, receiver)| {
                let got = receiver.join().expect("receiver thread panicked");
                let late = sender.join().expect("sender thread panicked");
                Ok((got?, late?))
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    let (mut latency, mut lateness) = (Vec::new(), Vec::new());
    let (mut cost, mut lanes, mut sent, mut refused) = (0.0, 0u64, 0u64, 0u64);
    for ((got, late), reqs) in per_conn.into_iter().zip(streams) {
        // Each receiver reads exactly one reply per request or fails, so
        // answered + refused == sent holds for every connection.
        assert_eq!(got.len(), reqs.len(), "one reply per request");
        sent += reqs.len() as u64;
        lateness.extend(late);
        for ((lat, reply), r) in got.into_iter().zip(reqs) {
            match reply {
                Reply::Refused => refused += 1,
                Reply::Served { lanes: n, cost: c } if r.due_ns >= warmup_ns => {
                    latency.push(lat.as_secs_f64() * 1e3);
                    cost += c;
                    lanes += n as u64;
                }
                Reply::Served { .. } => {}
            }
        }
    }
    if latency.is_empty() {
        return Err("no request served in the open-loop window".to_string());
    }
    Ok(OpenLoop {
        latency: stats::summarize(&mut latency),
        lateness: stats::summarize(&mut lateness),
        cost,
        lanes,
        sent,
        refused,
    })
}

/// Closed-loop results.
#[derive(Debug, Clone)]
pub struct ClosedLoop {
    /// Lanes answered in the best whole second after the warm-up.
    pub best_second: f64,
    /// Lanes answered per second over the whole window after the warm-up.
    pub mean: f64,
    pub sent: u64,
    pub refused: u64,
}

/// Each connection keeps one request outstanding for `seconds`. Answered
/// lanes are counted per whole second after the warm-up: on a host whose
/// co-tenants slow it for seconds at a time, the best second measures the
/// server's capacity where the mean measures the neighbours too.
fn closed_loop(
    addr: SocketAddr,
    kb: &Kb,
    cfg: &Config,
    seconds: f64,
    toggle: &mut Toggle,
) -> Result<ClosedLoop, String> {
    let clients = (0..2).map(|_| Client::connect(addr)).collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now();
    let warm = start + Duration::from_secs_f64(seconds * WARMUP);
    let end = start + Duration::from_secs_f64(seconds);
    let whole = (end - warm).as_secs() as usize;
    if whole == 0 {
        return Err("the closed loop needs at least one whole second after its warm-up".to_string());
    }
    let conn0_toggle = std::mem::take(toggle);
    let per_conn = thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(conn, mut c)| {
                let mut t = if conn == 0 { conn0_toggle.clone() } else { Toggle::default() };
                s.spawn(move || -> Result<_, String> {
                    let mut rng = Rng::new(cfg.seed, 30 + conn as u64);
                    let (mut seconds_lanes, mut sent, mut refused) =
                        (vec![0u64; whole], 0u64, 0u64);
                    while Instant::now() < end {
                        let op =
                            gen::op_at(cfg.workload, kb, &mut rng, conn, sent as usize, &mut t);
                        let line = c.exchange(&op.line())?;
                        let at = Instant::now();
                        sent += 1;
                        match check(kb, &op, &line)? {
                            Reply::Served { lanes, .. } if at >= warm => {
                                let second = (at - warm).as_secs() as usize;
                                if let Some(n) = seconds_lanes.get_mut(second) {
                                    *n += lanes as u64;
                                }
                            }
                            Reply::Served { .. } => {}
                            Reply::Refused => refused += 1,
                        }
                    }
                    Ok((seconds_lanes, sent, refused, t))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let mut per_second = vec![0u64; whole];
    let mut out = ClosedLoop { best_second: 0.0, mean: 0.0, sent: 0, refused: 0 };
    for (conn, (lanes, sent, refused, t)) in per_conn.into_iter().enumerate() {
        for (total, n) in per_second.iter_mut().zip(lanes) {
            *total += n;
        }
        out.sent += sent;
        out.refused += refused;
        if conn == 0 {
            *toggle = t;
        }
    }
    out.best_second = per_second.iter().copied().max().unwrap_or(0) as f64;
    out.mean = per_second.iter().sum::<u64>() as f64 / whole as f64;
    Ok(out)
}

/// Everything a run measured; [`crate::replay`] adds the per-layer part.
#[derive(Debug, Clone)]
pub struct Measured {
    pub setup_s: f64,
    pub restart_s: f64,
    pub open: OpenLoop,
    pub closed: ClosedLoop,
    pub peak_rss_mb: f64,
    /// Server counters just before and just after the open loop.
    pub before: Stats,
    pub after: Stats,
    /// Requests sent and refused over the run.
    pub attempted: u64,
    pub failed: u64,
    /// The open-loop request stream, for the traced replay.
    pub streams: Vec<Vec<Req>>,
    /// The data dir the restarts recovered from.
    pub data_dir: PathBuf,
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(io_err("/proc/self/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Restarts a server on `dir` [`BOOTS`] times. Each must come back on
/// the strategy the previous server reported before its shutdown,
/// starting with `fp`, and answer the probe. Returns the fastest restart's
/// seconds: co-tenants slow this host for seconds at a time, and only ever
/// add time.
pub fn restarts(kb: &Kb, dir: &Path, mut fp: String) -> Result<f64, String> {
    let mut secs = Vec::with_capacity(BOOTS);
    for _ in 0..BOOTS {
        let (server, mut c, s) = boot(kb, dir, Some(&fp))?;
        secs.push(s);
        fp = stats(&mut c)?.strategy_fp;
        c.shutdown()?;
        server.join();
    }
    Ok(secs.into_iter().fold(f64::INFINITY, f64::min))
}

/// [`restarts`] in a child process running `exe restart …`; its last
/// stdout line is the fastest restart's seconds.
fn restart_in_child(exe: &Path, seed: u64, dir: &Path, fp: &str) -> Result<f64, String> {
    let out = std::process::Command::new(exe)
        .args(["restart", "--seed", &seed.to_string()])
        .arg("--data-dir")
        .arg(dir)
        .args(["--strategy-fp", fp])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(io_err("run the restarts"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.lines().last().map(str::parse::<f64>) {
        Some(Ok(secs)) if out.status.success() => Ok(secs),
        _ => Err(format!("restarts failed ({}): {stdout}", out.status)),
    }
}

/// Runs one workload end to end: set-ups, open loop, closed loop, the
/// durability epilogue (checkpoint, then updates, then a graceful
/// shutdown), and restarts on the same data dir.
pub fn run(cfg: &Config, kb: &Kb) -> Result<Measured, String> {
    let open_s = cfg.seconds * OPEN_SHARE;
    let mut toggle = Toggle::default();
    let streams = gen::open_loop(cfg.workload, kb, cfg.seed, open_s, &mut toggle);

    let mut setups = Vec::with_capacity(BOOTS);
    let mut serving = None;
    for i in 0..BOOTS {
        let dir = cfg.tmp.join(format!("setup{i}"));
        let (server, c, secs) = boot(kb, &dir, None)?;
        setups.push(secs);
        if i + 1 < BOOTS {
            c.shutdown()?;
            server.join();
            std::fs::remove_dir_all(&dir).map_err(io_err("remove data dir"))?;
        } else {
            serving = Some((server, c, dir));
        }
    }
    let (server, mut ctl, data_dir) = serving.expect("at least one set-up");
    let addr = server.local_addr();

    let before = stats(&mut ctl)?;
    let warmup_ns = (open_s * WARMUP * 1e9) as u64;
    let open = open_loop(addr, kb, &streams, warmup_ns)?;
    let after = stats(&mut ctl)?;
    let closed = closed_loop(addr, kb, cfg, cfg.seconds - open_s, &mut toggle)?;

    expect_kind(&ctl.call("{\"kind\":\"checkpoint\"}")?, "checkpointed")?;
    for _ in 0..EPILOGUE_UPDATES {
        let op = toggle.next();
        if check(kb, &op, &ctl.exchange(&op.line())?)? == Reply::Refused {
            return Err("update refused".to_string());
        }
    }
    let fp = stats(&mut ctl)?.strategy_fp;
    ctl.shutdown()?;
    server.join();
    let peak_rss_mb = peak_rss_mb()?;
    let restart_s = match &cfg.restart_exe {
        Some(exe) => restart_in_child(exe, cfg.seed, &data_dir, &fp)?,
        None => restarts(kb, &data_dir, fp)?,
    };

    Ok(Measured {
        setup_s: median(&setups),
        restart_s,
        peak_rss_mb,
        attempted: open.sent + closed.sent + 1 + EPILOGUE_UPDATES as u64,
        failed: open.refused + closed.refused,
        open,
        closed,
        before,
        after,
        streams,
        data_dir,
    })
}
