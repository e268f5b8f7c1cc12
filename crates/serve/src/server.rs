//! The TCP server: acceptor + per-connection handlers + N executor
//! shards.
//!
//! ## Threading model
//!
//! * **Acceptor** — polls a non-blocking listener, enforces the
//!   connection cap at the door, spawns one handler thread per
//!   connection. On shutdown it stays at the door — answering new
//!   connections with `shutting_down` — until every shard has flushed
//!   its queue, so no admitted job ever races a closed socket.
//! * **Handlers** — read request lines (with a short read timeout so
//!   they notice shutdown), answer `ping` inline, and steer query/batch
//!   work to an executor shard, blocking on a per-request channel for
//!   the response line. Handlers never touch the engine.
//! * **Executor shards** — [`ServerConfig::shards`] threads, each
//!   owning a *shared-nothing replica* of the full engine state: its
//!   own symbol table, compiled graph, fact database,
//!   [`QueryProcessor`] with compiled program, [`BatchScratch`], PIB
//!   learner, metrics sink, and service-time ring. A shard sleeps on
//!   its own condvar until its [`Batcher`] is ready or a control
//!   request arrives, cuts a 64-lane plane, classifies each query into
//!   its Note-2 context, executes the plane bit-parallel, responds to
//!   every job, and feeds the served contexts to `Pib::observe_batch`.
//!   Nothing engine-shaped is shared between shards, so the hot path
//!   takes no lock any other shard can hold and engine internals need
//!   no `Sync`.
//!
//! ## Steering
//!
//! Whole jobs (never individual lanes) steer to a *home* shard by an
//! FNV-1a hash of the first query text, so a repeated query stream
//! lands on a warm replica. If the home shard's bounded queue declines
//! the job, the handler makes one fallback offer to the least-loaded
//! other shard (by queued-lane depth); only when that also declines is
//! the request refused with `overloaded`. Fallbacks are counted
//! (`steer_fallbacks`) so steering skew is visible in `stats`.
//!
//! ## Shard-local climbs, periodic merge
//!
//! With adaptation on, every shard hill-climbs its own PIB learner on
//! the traffic it serves. A shard that accepts a climb publishes its
//! (immutable, fingerprinted) strategy to the [`StrategyBoard`] — one
//! slot plus an epoch counter. Each shard polls the epoch (one relaxed
//! atomic load per loop iteration) and, when it changes, adopts the
//! published strategy unless the fingerprint already matches its own:
//! `Pib::adopt` restarts the candidate neighbourhood and
//! `QueryProcessor::set_strategy` swaps the compiled program. Merging
//! is last-publisher-wins and eventually consistent — shards may
//! briefly serve different strategies, which is safe because answers
//! are strategy-invariant (only costs differ).
//!
//! ## Overload and shutdown semantics
//!
//! Admission is bounded per shard ([`ServerConfig::queue_cap`] lanes):
//! a request that fits neither its home shard nor the fallback is
//! *refused with an `overloaded` error response*, never silently
//! dropped — every admitted request gets exactly one response.
//! `shutdown` (or [`Server::shutdown`]) flips every shard into
//! draining mode: new work is refused with `shutting_down`, each shard
//! flushes its queue plane by plane and exits, and only after the last
//! shard reports drained does the acceptor close; then [`Server::join`]
//! returns.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use qpl_core::{CandidateState, ClimbState, Pib, PibConfig, PibState};
use qpl_datalog::parser::{parse_program, parse_query, parse_query_form};
use qpl_datalog::{Atom, Database, Fact, Symbol, SymbolTable, Term};
use qpl_engine::cache::{DependencyFootprint, RunCache};
use qpl_engine::qp::{classify_context_into, BatchScratch, QueryAnswer, QueryProcessor};
use qpl_graph::batch::LANES;
use qpl_graph::compile::{compile, CompileOptions, CompiledGraph};
use qpl_graph::graph::ArcId;
use qpl_graph::{InferenceGraph, Strategy};
use qpl_obs::names::{cache as cache_names, serve as names, store as store_names};
use qpl_obs::{JsonSnapshot, MemorySink, MetricsSink};
use qpl_store::{
    CandidateEntry, CheckpointInfo, ClimbEntry, FsyncPolicy, PibSnapshot, Record, Snapshot, Store,
    StoreError, StrategyState,
};
use qpl_workload::generator::{random_layered_kb, KbParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::batcher::{Batcher, LaneWeight};
use crate::wire::{self, LaneResult, Request, ShardStatsView, StatsView};

/// Server tuning knobs. `Default` suits tests and small deployments.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (read it back via
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Executor shards, each with its own engine replica and queue.
    /// Sized to physical cores for multi-core scaling; clamped to ≥ 1.
    pub shards: usize,
    /// Admission bound in queued query lanes, *per shard*; at least one
    /// full plane.
    pub queue_cap: usize,
    /// Flush deadline: the longest a queued request waits for its plane
    /// to fill before executing anyway.
    pub max_wait: Duration,
    /// Connection cap, enforced at accept time.
    pub max_connections: usize,
    /// Largest `"qs"` array accepted per batch request (clamped to the
    /// 64-lane plane width).
    pub max_batch: usize,
    /// Longest accepted request line.
    pub max_line_bytes: usize,
    /// `Some(δ)` turns on online PIB adaptation at confidence `1 − δ`
    /// on every shard; `None` serves with the fixed left-to-right
    /// strategy.
    pub adapt_delta: Option<f64>,
    /// Handler read timeout — the latency with which idle connections
    /// notice a shutdown.
    pub read_poll: Duration,
    /// `Some(dir)` turns on durability: recovery from `dir` at startup
    /// (snapshot load + WAL replay), journaling of every applied KB
    /// delta and adopted strategy on shard 0, and the `checkpoint` wire
    /// op. `None` serves purely in memory.
    pub data_dir: Option<PathBuf>,
    /// WAL fsync policy when durability is on. Under `EveryBatch` (the
    /// default) acks are still only sent after the covering group
    /// commit, so an acked update is never lost.
    pub fsync: FsyncPolicy,
    /// WAL segment rotation threshold in bytes.
    pub segment_bytes: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            shards: 1,
            queue_cap: 1024,
            max_wait: Duration::from_micros(500),
            max_connections: 256,
            max_batch: LANES,
            max_line_bytes: 64 * 1024,
            adapt_delta: None,
            read_poll: Duration::from_millis(25),
            data_dir: None,
            fsync: FsyncPolicy::EveryBatch,
            segment_bytes: 8 << 20,
        }
    }
}

/// Everything one executor shard needs to serve queries: symbol table,
/// compiled graph, and fact database. `Clone` is the replica
/// constructor — [`Server::start`] moves one clone into each shard, so
/// shards share nothing.
#[derive(Debug, Clone)]
pub struct ServeEngine {
    /// Symbol table the knowledge base (and incoming queries) intern
    /// into.
    pub table: SymbolTable,
    /// The compiled inference graph for the query form.
    pub compiled: CompiledGraph,
    /// The fact database.
    pub db: Database,
}

impl ServeEngine {
    /// Parses a Datalog knowledge base and compiles it for `form`.
    ///
    /// # Errors
    /// A rendered parse or compile error.
    pub fn from_source(kb: &str, form: &str) -> Result<Self, String> {
        let mut table = SymbolTable::new();
        let program = parse_program(kb, &mut table).map_err(|e| e.to_string())?;
        let qf = parse_query_form(form, &mut table).map_err(|e| e.to_string())?;
        let compiled = compile(&program.rules, &qf, &table, &CompileOptions::default())
            .map_err(|e| e.to_string())?;
        Ok(Self { table, compiled, db: program.facts })
    }

    /// The paper's Figure-1 university knowledge base, form
    /// `instructor(b)`.
    pub fn figure1() -> Self {
        Self::from_source(
            "instructor(X) :- prof(X).\n\
             instructor(X) :- grad(X).\n\
             prof(russ). grad(manolis).",
            "instructor(b)",
        )
        .expect("Figure 1 compiles")
    }

    /// A seeded random layered knowledge base (the E18-style workload
    /// shape), form `q0(b)`.
    pub fn layered(seed: u64, params: &KbParams) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut table, rules, db, _root) = random_layered_kb(&mut rng, params);
        let qf = parse_query_form("q0(b)", &mut table).expect("form parses");
        let compiled =
            compile(&rules, &qf, &table, &CompileOptions::default()).expect("layered KB compiles");
        Self { table, compiled, db }
    }
}

/// One admitted query/batch request.
struct Job {
    texts: Vec<String>,
    id: Option<u64>,
    batch: bool,
    resp: mpsc::Sender<String>,
}

impl LaneWeight for Job {
    fn lanes(&self) -> usize {
        self.texts.len()
    }
}

/// One shard's slice of a `stats` snapshot, sent back over the control
/// channel; the handler merges all shards into one response line.
struct ShardStats {
    queue_lanes: u64,
    served: u64,
    batches: u64,
    declined: u64,
    errors: u64,
    climbs: u64,
    adoptions: u64,
    /// KB deltas this shard has applied (convergence check).
    deltas_applied: u64,
    /// Lanes actually *executed* in planes (cache-hit lanes are served
    /// without occupying a lane) — the fill numerator.
    executed_lanes: u64,
    /// Recent per-request service times, µs (unsorted ring contents).
    service_us: Vec<f64>,
    /// This shard's adopted strategy fingerprint.
    strategy_fp: u64,
    /// Durability health, present only on the store-owning shard (0).
    store: Option<wire::StoreStatsView>,
    sink: MemorySink,
}

/// One shard's acknowledgement of an applied KB delta.
struct UpdateAck {
    /// Facts that actually changed the database on insert.
    inserted: u64,
    /// Facts that actually changed the database on retract.
    retracted: u64,
    /// This shard's applied-delta counter after the update.
    deltas_applied: u64,
}

/// Why a control operation was refused.
enum ControlError {
    /// The request itself is malformed (unparsable fact, arity
    /// mismatch) — a `bad_request` on the wire.
    Invalid(String),
    /// The durable store is absent or degraded — `store_unavailable`
    /// on the wire. The server sheds the update but keeps serving
    /// reads.
    Store(String),
}

/// Work that bypasses admission (cheap, must stay responsive under
/// load).
enum Control {
    Stats {
        resp: mpsc::Sender<ShardStats>,
    },
    /// A KB delta. Shard 0 validates, journals (when durable), and
    /// applies it first; replicas 1..n see it only after shard 0
    /// acked, so a store failure can never diverge the fleet. Each
    /// shard validates the whole delta (parse + groundedness) before
    /// applying any of it, so identical replicas reach identical
    /// verdicts and stay convergent.
    Update {
        insert: Arc<Vec<String>>,
        retract: Arc<Vec<String>>,
        resp: mpsc::Sender<Result<UpdateAck, ControlError>>,
    },
    /// Snapshot + WAL truncation, served by the store-owning shard (0).
    Checkpoint {
        resp: mpsc::Sender<Result<CheckpointInfo, ControlError>>,
    },
}

struct QueueState {
    batcher: Batcher<Job>,
    control: VecDeque<Control>,
    draining: bool,
}

/// One shard's queue: its own lock and condvar (so shards never contend
/// with each other) plus a lock-free depth mirror for least-loaded
/// fallback steering.
struct ShardQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
    /// Mirror of `batcher.lanes_queued()`, refreshed by whoever holds
    /// the state lock; read without it when picking a fallback shard.
    depth: AtomicUsize,
}

/// The climb-merge mailbox: one published `(fingerprint, strategy)`
/// slot guarded by a mutex, with an epoch counter shards poll cheaply.
/// Last publisher wins; strategies are immutable and fingerprinted, so
/// adoption is a clone + compiled-program swap, never a data race.
struct StrategyBoard {
    epoch: AtomicU64,
    slot: Mutex<Option<(u64, Strategy)>>,
}

struct Shared {
    shards: Vec<ShardQueue>,
    board: StrategyBoard,
    stop: AtomicBool,
    conns: AtomicUsize,
    /// Requests refused with `overloaded` (home and fallback both
    /// declined) — the wire-level `shed` total.
    refused: AtomicU64,
    /// Jobs admitted at a non-home shard.
    steer_fallbacks: AtomicU64,
    /// Shards that have flushed their queue and exited; the acceptor
    /// closes only when this reaches `shards.len()`.
    drained: AtomicUsize,
}

/// A running server; dropping it initiates shutdown.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<thread::JoinHandle<()>>,
    executors: Vec<thread::JoinHandle<()>>,
}

/// Per-shard startup state recovered from the durable store. Every
/// shard gets the restored learner and strategy (replicas start
/// convergent); only shard 0 owns the store handle and journals.
#[derive(Default)]
struct ShardInit {
    pib: Option<Pib>,
    strategy: Option<Strategy>,
    store: Option<Store>,
    records_replayed: u64,
    torn_tail: bool,
}

fn invalid_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Rebuilds a [`Strategy`] from journaled arc indices, checking both
/// the arc bounds and that the rebuilt fingerprint matches the
/// journaled one — a mismatch means the data dir was written against a
/// different knowledge base than the one now being served.
fn strategy_from_state(g: &InferenceGraph, state: &StrategyState) -> io::Result<Strategy> {
    let arcs = state
        .arcs
        .iter()
        .map(|&raw| {
            if (raw as usize) < g.arc_count() {
                Ok(ArcId(raw))
            } else {
                Err(invalid_data(format!(
                    "recovered strategy arc {raw} out of range for a graph with {} arcs \
                     (data dir from a different knowledge base?)",
                    g.arc_count()
                )))
            }
        })
        .collect::<io::Result<Vec<_>>>()?;
    let strategy = Strategy::from_arcs(g, arcs).map_err(|e| invalid_data(e.to_string()))?;
    if strategy.fingerprint() != state.fingerprint {
        return Err(invalid_data(format!(
            "recovered strategy fingerprint {:016x} does not match the journaled {:016x} \
             (data dir from a different knowledge base?)",
            strategy.fingerprint(),
            state.fingerprint
        )));
    }
    Ok(strategy)
}

/// Maps the store's engine-free PIB mirror back to `qpl-core`'s state.
fn pib_state_from_snapshot(p: &PibSnapshot) -> PibState {
    PibState {
        delta: p.delta,
        test_every: p.test_every,
        strategy_arcs: p.strategy_arcs.clone(),
        samples_here: p.samples_here,
        contexts_seen: p.contexts_seen,
        tests_used: p.tests_used,
        history: p
            .history
            .iter()
            .map(|c| ClimbState {
                r1: c.r1,
                r2: c.r2,
                samples: c.samples,
                evidence: c.evidence,
                test_index: c.test_index,
            })
            .collect(),
        candidates: p
            .candidates
            .iter()
            .map(|c| CandidateState { r1: c.r1, r2: c.r2, sum: c.sum, count: c.count })
            .collect(),
    }
}

/// Maps `qpl-core`'s exported PIB state to the store's mirror struct.
fn pib_state_to_snapshot(s: &PibState) -> PibSnapshot {
    PibSnapshot {
        delta: s.delta,
        test_every: s.test_every,
        strategy_arcs: s.strategy_arcs.clone(),
        samples_here: s.samples_here,
        contexts_seen: s.contexts_seen,
        tests_used: s.tests_used,
        history: s
            .history
            .iter()
            .map(|c| ClimbEntry {
                r1: c.r1,
                r2: c.r2,
                samples: c.samples,
                evidence: c.evidence,
                test_index: c.test_index,
            })
            .collect(),
        candidates: s
            .candidates
            .iter()
            .map(|c| CandidateEntry { r1: c.r1, r2: c.r2, sum: c.sum, count: c.count })
            .collect(),
    }
}

/// Opens the store in `dir` and replays its contents into `engine`:
/// snapshot facts rebuild the database (generation stamps realigned to
/// the checkpointed values), WAL deltas re-apply in order, and the
/// newest journaled strategy — snapshot or a later WAL record — wins.
/// Returns the live store handle plus the restored learner and strategy
/// for the shards, leaving `engine` in the exact state the never-killed
/// process was in at its last durable point.
fn recover(engine: &mut ServeEngine, dir: &Path, cfg: &ServerConfig) -> io::Result<ShardInit> {
    let store_cfg =
        qpl_store::StoreConfig { fsync: cfg.fsync, segment_bytes: cfg.segment_bytes.max(1) };
    let (store, recovered) =
        Store::open(dir, store_cfg).map_err(|e| invalid_data(e.to_string()))?;
    let mut latest_strategy: Option<StrategyState> = None;
    let mut pib_snap: Option<PibSnapshot> = None;
    if let Some(snap) = &recovered.snapshot {
        // The snapshot's fact dump replaces the seed KB wholesale: it
        // *is* the seed plus every delta the checkpoint covered.
        let mut db = Database::new();
        for text in &snap.facts {
            let fact = parse_ground_fact(text, &mut engine.table)
                .map_err(|e| invalid_data(format!("snapshot fact {text:?}: {e}")))?;
            db.insert(fact).map_err(|e| invalid_data(format!("snapshot fact {text:?}: {e}")))?;
        }
        let gens: Vec<(Symbol, u64)> =
            snap.pred_gens.iter().map(|(p, g)| (engine.table.intern(p), *g)).collect();
        db.restore_generations(snap.generation, gens);
        engine.db = db;
        latest_strategy.clone_from(&snap.strategy);
        pib_snap.clone_from(&snap.pib);
    }
    for record in &recovered.records {
        match record {
            Record::Delta { insert, retract } => {
                for text in insert {
                    let fact = parse_ground_fact(text, &mut engine.table)
                        .map_err(|e| invalid_data(format!("journaled insert {text:?}: {e}")))?;
                    engine
                        .db
                        .insert(fact)
                        .map_err(|e| invalid_data(format!("journaled insert {text:?}: {e}")))?;
                }
                for text in retract {
                    let fact = parse_ground_fact(text, &mut engine.table)
                        .map_err(|e| invalid_data(format!("journaled retract {text:?}: {e}")))?;
                    engine
                        .db
                        .retract(fact)
                        .map_err(|e| invalid_data(format!("journaled retract {text:?}: {e}")))?;
                }
            }
            Record::Strategy { fingerprint, arcs } => {
                latest_strategy =
                    Some(StrategyState { fingerprint: *fingerprint, arcs: arcs.clone() });
            }
        }
    }
    let g = &engine.compiled.graph;
    let strategy = latest_strategy.as_ref().map(|s| strategy_from_state(g, s)).transpose()?;
    let pib = match (cfg.adapt_delta, &pib_snap) {
        (Some(_), Some(p)) => {
            let state = pib_state_from_snapshot(p);
            let mut pib = Pib::restore(g, &state).map_err(|e| invalid_data(e.to_string()))?;
            // A strategy journaled after the checkpoint supersedes the
            // snapshot's learner position; adopting restarts the
            // candidate neighbourhood exactly as the live climb did.
            if let Some(s) = &strategy {
                pib.adopt(g, s.clone());
            }
            Some(pib)
        }
        _ => None,
    };
    Ok(ShardInit {
        pib,
        strategy,
        store: Some(store),
        records_replayed: recovered.records_replayed(),
        torn_tail: recovered.torn_tail,
    })
}

impl Server {
    /// Binds, spawns the acceptor and one executor thread per shard
    /// (each owning its own [`ServeEngine`] replica), returns
    /// immediately. With [`ServerConfig::data_dir`] set, recovery runs
    /// first — snapshot load plus ordered WAL replay — so every shard
    /// replica starts from the durable state, and shard 0 takes
    /// ownership of the store for journaling and checkpoints.
    ///
    /// # Errors
    /// Bind or thread-spawn failures, or a data directory that cannot
    /// be recovered (I/O failure, corruption past the repairable tail,
    /// or state journaled against a different knowledge base).
    pub fn start(engine: ServeEngine, cfg: ServerConfig) -> io::Result<Server> {
        let mut engine = engine;
        let mut durable = match &cfg.data_dir {
            Some(dir) => Some(recover(&mut engine, &dir.clone(), &cfg)?),
            None => None,
        };
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let n = cfg.shards.max(1);
        let shared = Arc::new(Shared {
            shards: (0..n)
                .map(|_| ShardQueue {
                    state: Mutex::new(QueueState {
                        batcher: Batcher::new(cfg.queue_cap.max(LANES)),
                        control: VecDeque::new(),
                        draining: false,
                    }),
                    cv: Condvar::new(),
                    depth: AtomicUsize::new(0),
                })
                .collect(),
            board: StrategyBoard { epoch: AtomicU64::new(0), slot: Mutex::new(None) },
            stop: AtomicBool::new(false),
            conns: AtomicUsize::new(0),
            refused: AtomicU64::new(0),
            steer_fallbacks: AtomicU64::new(0),
            drained: AtomicUsize::new(0),
        });
        // Shard 0 takes the caller's engine; the rest get replicas.
        let mut engines = Vec::with_capacity(n);
        for _ in 1..n {
            engines.push(engine.clone());
        }
        engines.push(engine);
        let mut executors = Vec::with_capacity(n);
        for (shard, engine) in engines.into_iter().rev().enumerate() {
            let shared = Arc::clone(&shared);
            let cfg = cfg.clone();
            // Every shard starts from the recovered learner/strategy;
            // the store handle itself goes to shard 0 alone.
            let init = match &mut durable {
                Some(d) => ShardInit {
                    pib: d.pib.clone(),
                    strategy: d.strategy.clone(),
                    store: if shard == 0 { d.store.take() } else { None },
                    records_replayed: d.records_replayed,
                    torn_tail: d.torn_tail,
                },
                None => ShardInit::default(),
            };
            executors.push(
                thread::Builder::new()
                    .name(format!("qpl-serve-exec-{shard}"))
                    .spawn(move || executor_loop(shard, engine, init, cfg, &shared))?,
            );
        }
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("qpl-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &cfg, &shared))?
        };
        Ok(Server { addr, shared, acceptor: Some(acceptor), executors })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates graceful drain, as if a `shutdown` request arrived.
    pub fn shutdown(&self) {
        initiate_shutdown(&self.shared);
    }

    /// Waits for every executor shard to flush its queue and for the
    /// acceptor to close behind them, then for handler threads to close
    /// their connections (bounded wait).
    pub fn join(mut self) {
        for h in self.executors.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        let t0 = Instant::now();
        while self.shared.conns.load(Ordering::SeqCst) > 0 && t0.elapsed() < Duration::from_secs(2)
        {
            thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        initiate_shutdown(&self.shared);
        for h in self.executors.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

/// Locks a mutex, tolerating poison: a shard that panicked mid-update
/// must not take the handler threads (or its peers) down with it — the
/// state behind the lock is counters and queues, all safe to read after
/// a writer died.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn initiate_shutdown(shared: &Shared) {
    shared.stop.store(true, Ordering::SeqCst);
    for sq in &shared.shards {
        {
            let mut st = lock_unpoisoned(&sq.state);
            st.draining = true;
        }
        sq.cv.notify_all();
    }
}

/// Home-shard steering: FNV-1a over the job's first query text. Pure so
/// property tests can replay steering decisions.
pub fn steer_shard(text: &str, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// Fallback steering: the least-loaded shard other than `home` (ties to
/// the lowest index), or `None` when there is no other shard. Pure so
/// property tests can replay fallback decisions.
pub fn fallback_shard(depths: &[usize], home: usize) -> Option<usize> {
    depths
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != home)
        .min_by_key(|(i, d)| (**d, *i))
        .map(|(i, _)| i)
}

fn write_line(mut stream: &TcpStream, line: &str) -> io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")
}

fn accept_loop(listener: &TcpListener, cfg: &ServerConfig, shared: &Arc<Shared>) {
    let n = shared.shards.len();
    loop {
        let stopping = shared.stop.load(Ordering::SeqCst);
        // The acceptor outlives the executors: it closes only after
        // every shard has flushed its queue, so clients that connected
        // before the drain keep a live socket until they are answered.
        if stopping && shared.drained.load(Ordering::SeqCst) >= n {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stopping {
                    let _ = write_line(
                        &stream,
                        &wire::render_error("shutting_down", "server is draining", None),
                    );
                    continue;
                }
                if shared.conns.load(Ordering::SeqCst) >= cfg.max_connections {
                    // Per-connection limit: refuse at the door with a
                    // proper response, then close.
                    let _ = write_line(
                        &stream,
                        &wire::render_error("overloaded", "connection limit reached", None),
                    );
                    continue;
                }
                shared.conns.fetch_add(1, Ordering::SeqCst);
                let h_shared = Arc::clone(shared);
                let h_cfg = cfg.clone();
                let spawned =
                    thread::Builder::new().name("qpl-serve-conn".to_string()).spawn(move || {
                        handle_connection(&stream, &h_cfg, &h_shared);
                        h_shared.conns.fetch_sub(1, Ordering::SeqCst);
                    });
                if spawned.is_err() {
                    shared.conns.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
}

enum LineEvent {
    Line(String),
    TooLong,
    TimedOut,
    Closed,
}

/// Incremental line framing over a read-timeout socket.
struct LineReader {
    buf: Vec<u8>,
    start: usize,
    max: usize,
}

impl LineReader {
    fn new(max: usize) -> Self {
        Self { buf: Vec::new(), start: 0, max }
    }

    fn next_line(&mut self, mut stream: &TcpStream) -> LineEvent {
        loop {
            if let Some(nl) = self.buf[self.start..].iter().position(|&b| b == b'\n') {
                let line =
                    String::from_utf8_lossy(&self.buf[self.start..self.start + nl]).into_owned();
                self.start += nl + 1;
                return LineEvent::Line(line);
            }
            if self.buf.len() - self.start > self.max {
                return LineEvent::TooLong;
            }
            if self.start > 0 {
                self.buf.drain(..self.start);
                self.start = 0;
            }
            let mut chunk = [0u8; 4096];
            match stream.read(&mut chunk) {
                Ok(0) => {
                    if self.buf.len() > self.start {
                        // Final unterminated line: still serve it.
                        let line = String::from_utf8_lossy(&self.buf[self.start..]).into_owned();
                        self.buf.clear();
                        self.start = 0;
                        return LineEvent::Line(line);
                    }
                    return LineEvent::Closed;
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return LineEvent::TimedOut;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return LineEvent::Closed,
            }
        }
    }
}

enum Reply {
    Line(String),
    Bye(String),
    Closed,
}

fn handle_connection(stream: &TcpStream, cfg: &ServerConfig, shared: &Shared) {
    // Nagle off: responses are single short lines and latency-bound.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(cfg.read_poll));
    let mut reader = LineReader::new(cfg.max_line_bytes);
    loop {
        match reader.next_line(stream) {
            LineEvent::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                match handle_line(&line, cfg, shared) {
                    Reply::Line(resp) => {
                        if write_line(stream, &resp).is_err() {
                            break;
                        }
                    }
                    Reply::Bye(resp) => {
                        let _ = write_line(stream, &resp);
                        break;
                    }
                    Reply::Closed => break,
                }
            }
            LineEvent::TooLong => {
                let _ = write_line(
                    stream,
                    &wire::render_error("bad_request", "line exceeds max_line_bytes", None),
                );
                break;
            }
            LineEvent::TimedOut => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            LineEvent::Closed => break,
        }
    }
}

fn handle_line(line: &str, cfg: &ServerConfig, shared: &Shared) -> Reply {
    let max_batch = cfg.max_batch.min(LANES);
    let req = match wire::parse_request(line, max_batch) {
        Ok(r) => r,
        Err(detail) => return Reply::Line(wire::render_error("bad_request", &detail, None)),
    };
    match req {
        Request::Ping => Reply::Line(wire::render_pong()),
        Request::Shutdown => {
            initiate_shutdown(shared);
            Reply::Bye(wire::render_bye())
        }
        Request::Stats => collect_stats(shared),
        Request::Update { insert, retract, id } => apply_update(insert, retract, id, shared),
        Request::Checkpoint { id } => request_checkpoint(id, shared),
        Request::Query { q, id } => submit(vec![q], id, false, shared),
        Request::Batch { qs, id } => submit(qs, id, true, shared),
    }
}

/// Renders a [`ControlError`] as the matching wire error line.
fn control_error_line(e: &ControlError, id: Option<u64>) -> String {
    match e {
        ControlError::Invalid(detail) => wire::render_error("bad_request", detail, id),
        ControlError::Store(detail) => wire::render_error("store_unavailable", detail, id),
    }
}

/// Enqueues one update control on `sq` and returns the ack channel.
fn offer_update(
    sq: &ShardQueue,
    insert: &Arc<Vec<String>>,
    retract: &Arc<Vec<String>>,
) -> mpsc::Receiver<Result<UpdateAck, ControlError>> {
    let (tx, rx) = mpsc::channel();
    {
        let mut st = lock_unpoisoned(&sq.state);
        st.control.push_back(Control::Update {
            insert: Arc::clone(insert),
            retract: Arc::clone(retract),
            resp: tx,
        });
    }
    sq.cv.notify_all();
    rx
}

/// Applies a KB delta across the fleet, shard 0 first: shard 0
/// validates the whole delta, journals it to the WAL (when durability
/// is on — the ack is sent only after the covering group commit, so an
/// acked update survives a kill), and applies it; only then is the
/// delta broadcast to replicas 1..n. A validation or store failure on
/// shard 0 therefore leaves every replica untouched — the fleet can
/// never diverge on an error path. Shards apply deltas between planes;
/// because each shard validates the full delta against its identical
/// replica before applying, either every shard applies it or none
/// does, and the per-shard `deltas_applied` counters stay equal.
fn apply_update(
    insert: Vec<String>,
    retract: Vec<String>,
    id: Option<u64>,
    shared: &Shared,
) -> Reply {
    if shared.stop.load(Ordering::SeqCst) {
        return Reply::Line(wire::render_error("shutting_down", "server is draining", id));
    }
    let insert = Arc::new(insert);
    let retract = Arc::new(retract);
    let rx0 = offer_update(&shared.shards[0], &insert, &retract);
    let Ok(ack0) = rx0.recv() else {
        return Reply::Closed;
    };
    let ack0 = match ack0 {
        Ok(a) => a,
        Err(e) => return Reply::Line(control_error_line(&e, id)),
    };
    let mut deltas_applied = ack0.deltas_applied;
    let mut pending = Vec::with_capacity(shared.shards.len().saturating_sub(1));
    for sq in &shared.shards[1..] {
        pending.push(offer_update(sq, &insert, &retract));
    }
    for rx in pending {
        let Ok(ack) = rx.recv() else {
            return Reply::Closed;
        };
        match ack {
            // Identical replicas change identically; report shard 0's
            // fact counts and the max applied-delta counter (they
            // agree when convergent).
            Ok(a) => deltas_applied = deltas_applied.max(a.deltas_applied),
            Err(e) => return Reply::Line(control_error_line(&e, id)),
        }
    }
    Reply::Line(wire::render_updated(ack0.inserted, ack0.retracted, deltas_applied, id))
}

/// Routes a `checkpoint` request to the store-owning shard (0) and
/// renders its outcome.
fn request_checkpoint(id: Option<u64>, shared: &Shared) -> Reply {
    if shared.stop.load(Ordering::SeqCst) {
        return Reply::Line(wire::render_error("shutting_down", "server is draining", id));
    }
    let (tx, rx) = mpsc::channel();
    let sq = &shared.shards[0];
    {
        let mut st = lock_unpoisoned(&sq.state);
        st.control.push_back(Control::Checkpoint { resp: tx });
    }
    sq.cv.notify_all();
    let Ok(outcome) = rx.recv() else {
        return Reply::Closed;
    };
    match outcome {
        Ok(info) => Reply::Line(wire::render_checkpointed(
            info.through_seq,
            info.snapshot_bytes,
            info.segments_removed,
            id,
        )),
        Err(e) => Reply::Line(control_error_line(&e, id)),
    }
}

/// Fans a stats control to every shard, merges the slices (counters
/// add, sinks merge, service rings pool for fleet-wide percentiles)
/// into one response line.
fn collect_stats(shared: &Shared) -> Reply {
    let mut pending = Vec::with_capacity(shared.shards.len());
    for sq in &shared.shards {
        let (tx, rx) = mpsc::channel();
        {
            let mut st = lock_unpoisoned(&sq.state);
            st.control.push_back(Control::Stats { resp: tx });
        }
        sq.cv.notify_all();
        pending.push(rx);
    }
    let mut views = Vec::with_capacity(pending.len());
    let mut merged_sink = MemorySink::new();
    let mut all_us: Vec<f64> = Vec::new();
    let (mut queue_lanes, mut served, mut batches) = (0u64, 0u64, 0u64);
    let (mut errors, mut climbs, mut adoptions) = (0u64, 0u64, 0u64);
    let (mut executed_lanes, mut deltas_applied) = (0u64, 0u64);
    let mut store_view = None;
    for (shard, rx) in pending.into_iter().enumerate() {
        let Ok(s) = rx.recv() else {
            return Reply::Closed;
        };
        if s.store.is_some() {
            store_view = s.store.clone();
        }
        queue_lanes += s.queue_lanes;
        served += s.served;
        batches += s.batches;
        errors += s.errors;
        climbs += s.climbs;
        adoptions += s.adoptions;
        executed_lanes += s.executed_lanes;
        deltas_applied += s.deltas_applied;
        merged_sink.merge_from(&s.sink);
        let mut us = s.service_us;
        us.sort_by(f64::total_cmp);
        views.push(ShardStatsView {
            shard: shard as u64,
            queue_lanes: s.queue_lanes,
            served: s.served,
            batches: s.batches,
            declined: s.declined,
            errors: s.errors,
            climbs: s.climbs,
            adoptions: s.adoptions,
            deltas_applied: s.deltas_applied,
            fill_ratio: fill_ratio(s.executed_lanes, s.batches),
            p50_us: percentile_sorted(&us, 0.50),
            p99_us: percentile_sorted(&us, 0.99),
            strategy_fp: format!("{:016x}", s.strategy_fp),
        });
        all_us.extend_from_slice(&us);
    }
    // Handler-level counters live in `Shared`, not any shard's sink;
    // stamp them into the merged snapshot so the metrics line is
    // complete on its own.
    let steer_fallbacks = shared.steer_fallbacks.load(Ordering::Relaxed);
    merged_sink.counter(names::SHARD_STEER_FALLBACKS, steer_fallbacks);
    all_us.sort_by(f64::total_cmp);
    let view = StatsView {
        queue_lanes,
        served,
        batches,
        shed: shared.refused.load(Ordering::Relaxed),
        errors,
        climbs,
        adoptions,
        steer_fallbacks,
        deltas_applied,
        fill_ratio: fill_ratio(executed_lanes, batches),
        p50_us: percentile_sorted(&all_us, 0.50),
        p99_us: percentile_sorted(&all_us, 0.99),
        shards: views,
        store: store_view,
        metrics_line: JsonSnapshot::capture(&merged_sink).as_line(),
    };
    Reply::Line(wire::render_stats(&view))
}

/// Occupied fraction of executed plane capacity: `executed` lanes ran
/// in `planes` planes of 64 lanes each (cache-hit lanes never occupy
/// capacity). A shard that executed nothing reports 0.0, never NaN.
fn fill_ratio(executed: u64, planes: u64) -> f64 {
    if planes > 0 {
        executed as f64 / (planes * LANES as u64) as f64
    } else {
        0.0
    }
}

/// Percentile over an already-sorted sample buffer.
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

enum Admit {
    Ok,
    Draining,
    Full(Job),
}

fn try_offer(shared: &Shared, shard: usize, job: Job) -> Admit {
    let sq = &shared.shards[shard];
    let mut st = lock_unpoisoned(&sq.state);
    if st.draining {
        return Admit::Draining;
    }
    match st.batcher.offer(job, Instant::now()) {
        Ok(()) => {
            sq.depth.store(st.batcher.lanes_queued(), Ordering::Relaxed);
            drop(st);
            sq.cv.notify_all();
            Admit::Ok
        }
        Err(job) => Admit::Full(job),
    }
}

fn submit(texts: Vec<String>, id: Option<u64>, batch: bool, shared: &Shared) -> Reply {
    let (tx, rx) = mpsc::channel();
    let n = shared.shards.len();
    let home = steer_shard(texts.first().map_or("", String::as_str), n);
    let job = Job { texts, id, batch, resp: tx };
    let declined = match try_offer(shared, home, job) {
        Admit::Ok => None,
        Admit::Draining => {
            return Reply::Line(wire::render_error("shutting_down", "server is draining", id))
        }
        Admit::Full(job) => Some(job),
    };
    if let Some(job) = declined {
        let depths: Vec<usize> =
            shared.shards.iter().map(|s| s.depth.load(Ordering::Relaxed)).collect();
        let admitted = match fallback_shard(&depths, home) {
            Some(alt) => match try_offer(shared, alt, job) {
                Admit::Ok => {
                    shared.steer_fallbacks.fetch_add(1, Ordering::Relaxed);
                    true
                }
                Admit::Draining => {
                    return Reply::Line(wire::render_error(
                        "shutting_down",
                        "server is draining",
                        id,
                    ))
                }
                Admit::Full(_) => false,
            },
            None => false,
        };
        if !admitted {
            shared.refused.fetch_add(1, Ordering::Relaxed);
            return Reply::Line(wire::render_error("overloaded", "request queue full", id));
        }
    }
    match rx.recv() {
        Ok(resp) => Reply::Line(resp),
        Err(_) => Reply::Closed,
    }
}

/// Fixed-capacity ring of recent per-request service times (µs) for
/// percentile reporting.
struct ServiceRing {
    buf: Vec<f64>,
    pos: usize,
    cap: usize,
}

impl ServiceRing {
    fn new(cap: usize) -> Self {
        Self { buf: Vec::with_capacity(cap), pos: 0, cap }
    }

    fn push(&mut self, v: f64) {
        if self.buf.len() < self.cap {
            self.buf.push(v);
        } else {
            self.buf[self.pos] = v;
            self.pos = (self.pos + 1) % self.cap;
        }
    }

    fn samples(&self) -> &[f64] {
        &self.buf
    }
}

/// Everything one executor shard owns — a complete, private replica of
/// the engine plus this shard's counters. No field is visible to any
/// other shard.
struct Executor<'g> {
    table: SymbolTable,
    compiled: &'g CompiledGraph,
    g: &'g InferenceGraph,
    db: Database,
    qp: QueryProcessor<'g>,
    pib: Option<Pib>,
    current_fp: u64,
    /// Last strategy-board epoch this shard acted on.
    board_seen: u64,
    /// Per-shard answer memo, probed per lane before classification.
    /// Footprint-scoped revalidation keeps it warm across KB deltas
    /// that miss the compiled graph's retrieval predicates.
    run_cache: RunCache,
    /// The retrieval predicates this shard's compiled graph can probe —
    /// the memo's invalidation scope.
    footprint: DependencyFootprint,
    /// `run_cache.stats().invalidations` already emitted as the
    /// selective-invalidation counter.
    rc_invalidations_seen: u64,
    /// The durable store; only shard 0 holds one. Updates journal here
    /// before they apply, strategies journal on climb/adoption, and
    /// `checkpoint` snapshots through it.
    store: Option<Store>,
    /// Set on the first store I/O failure: updates are shed with
    /// `store_unavailable` from then on, reads keep serving.
    store_degraded: bool,
    /// WAL records replayed at startup (shard 0, surfaced in `stats`).
    records_replayed: u64,
    /// KB deltas applied by this shard.
    deltas_applied: u64,
    /// Lanes actually executed in planes (fill numerator; cache-hit
    /// lanes are served without occupying plane capacity).
    executed_lanes: u64,
    sink: MemorySink,
    served: u64,
    batches: u64,
    errors: u64,
    climbs: u64,
    adoptions: u64,
    declined_emitted: u64,
    ring: ServiceRing,
    // Plane-assembly buffers, reused across planes.
    atoms: Vec<Atom>,
    /// Memo key per executed lane, parallel to `atoms`; results insert
    /// back into `run_cache` after the plane runs.
    keys: Vec<Vec<Symbol>>,
    slots: Vec<(usize, usize)>,
    scratch: BatchScratch,
    lane_out: Vec<(QueryAnswer, f64)>,
    results: Vec<Vec<Option<LaneResult>>>,
}

fn executor_loop(
    shard: usize,
    engine: ServeEngine,
    init: ShardInit,
    cfg: ServerConfig,
    shared: &Shared,
) {
    let ServeEngine { table, compiled, db } = engine;
    let mut qp = QueryProcessor::left_to_right(&compiled);
    // Recovery-aware learner startup: a restored learner resumes its
    // Chernoff statistics exactly where the killed process stopped; a
    // fresh learner under a recovered strategy starts its climb there.
    let pib = match (cfg.adapt_delta, init.pib) {
        (Some(_), Some(restored)) => Some(restored),
        (Some(delta), None) => {
            let initial = init.strategy.clone().unwrap_or_else(|| qp.strategy().clone());
            Some(Pib::new(&compiled.graph, initial, PibConfig::new(delta)))
        }
        (None, _) => None,
    };
    if let Some(p) = &pib {
        qp.set_strategy(p.strategy().clone());
    } else if let Some(s) = init.strategy {
        qp.set_strategy(s);
    }
    let current_fp = qp.strategy().fingerprint();
    let mut ex = Executor {
        table,
        g: &compiled.graph,
        db,
        current_fp,
        board_seen: 0,
        qp,
        pib,
        run_cache: RunCache::new(),
        footprint: DependencyFootprint::of_compiled(&compiled),
        rc_invalidations_seen: 0,
        store: init.store,
        store_degraded: false,
        records_replayed: init.records_replayed,
        deltas_applied: 0,
        executed_lanes: 0,
        sink: MemorySink::new(),
        served: 0,
        batches: 0,
        errors: 0,
        climbs: 0,
        adoptions: 0,
        declined_emitted: 0,
        ring: ServiceRing::new(4096),
        atoms: Vec::new(),
        keys: Vec::new(),
        slots: Vec::new(),
        scratch: BatchScratch::new(&compiled.graph),
        lane_out: Vec::new(),
        results: Vec::new(),
        compiled: &compiled,
    };
    if ex.store.is_some() {
        if ex.records_replayed > 0 {
            ex.sink.counter(store_names::RECOVERY_REPLAYED, ex.records_replayed);
        }
        if init.torn_tail {
            ex.sink.counter("store.recovery.torn_tail", 1);
        }
    }
    let sq = &shared.shards[shard];
    let mut jobs: Vec<(Job, Instant)> = Vec::new();
    let mut controls: Vec<Control> = Vec::new();
    loop {
        controls.clear();
        jobs.clear();
        let exit;
        let (queue_lanes, declined) = {
            let mut st = lock_unpoisoned(&sq.state);
            loop {
                while let Some(c) = st.control.pop_front() {
                    controls.push(c);
                }
                let now = Instant::now();
                let ready =
                    st.batcher.ready(now, cfg.max_wait) || (st.draining && !st.batcher.is_empty());
                if ready {
                    st.batcher.cut_plane(LANES, &mut jobs);
                }
                if ready || !controls.is_empty() || (st.draining && st.batcher.is_empty()) {
                    exit = st.draining && st.batcher.is_empty() && jobs.is_empty();
                    sq.depth.store(st.batcher.lanes_queued(), Ordering::Relaxed);
                    break (st.batcher.lanes_queued() as u64, st.batcher.shed_count());
                }
                st = match st.batcher.deadline(cfg.max_wait) {
                    Some(deadline) => {
                        let wait = deadline.saturating_duration_since(Instant::now());
                        sq.cv
                            .wait_timeout(st, wait)
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .0
                    }
                    None => sq.cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner),
                };
            }
        };
        if declined > ex.declined_emitted {
            ex.sink.counter(names::SHED, declined - ex.declined_emitted);
            ex.declined_emitted = declined;
        }
        ex.process_controls(&mut controls, queue_lanes, declined);
        if !jobs.is_empty() {
            ex.adopt_published(shared);
            ex.process_plane(&mut jobs, shared);
        }
        if exit {
            shared.drained.fetch_add(1, Ordering::SeqCst);
            break;
        }
    }
}

/// Parses one `update` fact text: must parse as an atom and be fully
/// ground (constants only).
fn parse_ground_fact(text: &str, table: &mut SymbolTable) -> Result<Fact, String> {
    let atom = parse_query(text, table).map_err(|e| e.to_string())?;
    let mut args = Vec::with_capacity(atom.args.len());
    for t in &atom.args {
        match t {
            Term::Const(s) => args.push(*s),
            Term::Var(_) => return Err(format!("update facts must be ground: {text:?}")),
        }
    }
    Ok(Fact::new(atom.predicate, args))
}

/// One validated, journaled, not-yet-applied update plus its ack
/// channel.
struct StagedDelta {
    insert: Vec<Fact>,
    retract: Vec<Fact>,
    resp: mpsc::Sender<Result<UpdateAck, ControlError>>,
}

impl Executor<'_> {
    /// Serves one control batch. Updates are staged — validated,
    /// journaled, but not applied — until the whole batch has been
    /// walked, then one group commit covers every journaled record and
    /// the staged deltas apply and ack in order. Journal-before-apply
    /// means a commit failure leaves this replica exactly where its
    /// peers are (nothing applied, nothing acked); commit-before-ack
    /// means an acked update is on disk even under `EveryBatch` fsync.
    fn process_controls(&mut self, controls: &mut Vec<Control>, queue_lanes: u64, declined: u64) {
        let mut staged: Vec<StagedDelta> = Vec::new();
        for control in controls.drain(..) {
            match control {
                Control::Stats { resp } => {
                    let _ = resp.send(self.shard_stats(queue_lanes, declined));
                }
                Control::Update { insert, retract, resp } => {
                    match self.stage_delta(&insert, &retract) {
                        Ok((ins, ret)) => {
                            staged.push(StagedDelta { insert: ins, retract: ret, resp });
                        }
                        Err(e) => {
                            let _ = resp.send(Err(e));
                        }
                    }
                }
                Control::Checkpoint { resp } => {
                    // Earlier updates in this batch must be covered by
                    // the checkpoint: flush them first.
                    self.flush_staged(&mut staged);
                    let _ = resp.send(self.do_checkpoint());
                }
            }
        }
        self.flush_staged(&mut staged);
    }

    /// Validates one KB delta against this shard's replica and, on the
    /// store-owning shard, journals it.
    ///
    /// Validation is all-or-nothing: every fact must parse, be ground,
    /// and agree on arity (with the stored relation and within the
    /// delta) *before* anything is journaled or applied. Identical
    /// replicas therefore reach identical verdicts — either every
    /// shard applies the delta or every shard refuses it — which keeps
    /// the shared-nothing fleet convergent.
    fn stage_delta(
        &mut self,
        insert: &[String],
        retract: &[String],
    ) -> Result<(Vec<Fact>, Vec<Fact>), ControlError> {
        if self.store_degraded {
            return Err(ControlError::Store(
                "store degraded by an earlier I/O failure; updates are shed".to_string(),
            ));
        }
        let mut arities: HashMap<Symbol, usize> = HashMap::new();
        let mut validate = |texts: &[String],
                            table: &mut SymbolTable,
                            db: &Database|
         -> Result<Vec<Fact>, String> {
            let mut facts = Vec::with_capacity(texts.len());
            for text in texts {
                let fact = parse_ground_fact(text, table)?;
                let arity = *arities
                    .entry(fact.predicate)
                    .or_insert_with(|| db.arity(fact.predicate).unwrap_or(fact.args.len()));
                if fact.args.len() != arity {
                    return Err(format!("arity mismatch for {text:?}: expected {arity} arguments"));
                }
                facts.push(fact);
            }
            Ok(facts)
        };
        let ins = validate(insert, &mut self.table, &self.db).map_err(ControlError::Invalid)?;
        let ret = validate(retract, &mut self.table, &self.db).map_err(ControlError::Invalid)?;
        if let Some(store) = &mut self.store {
            let record = Record::Delta { insert: insert.to_vec(), retract: retract.to_vec() };
            match store.append(&record) {
                Ok(_) => self.sink.counter(store_names::WAL_APPENDS, 1),
                Err(e) => {
                    let detail = e.to_string();
                    self.mark_degraded(&e);
                    return Err(ControlError::Store(detail));
                }
            }
        }
        Ok((ins, ret))
    }

    /// Group-commits the WAL records behind `staged`, then applies and
    /// acks each staged delta in order. On commit failure nothing
    /// applies: every staged update is refused with `store_unavailable`
    /// and the shard enters degraded mode.
    fn flush_staged(&mut self, staged: &mut Vec<StagedDelta>) {
        if staged.is_empty() {
            return;
        }
        if let Some(store) = &mut self.store {
            match store.commit() {
                Ok(()) => self.sink.counter(store_names::WAL_COMMITS, 1),
                Err(e) => {
                    let detail = e.to_string();
                    self.mark_degraded(&e);
                    for s in staged.drain(..) {
                        let _ = s.resp.send(Err(ControlError::Store(detail.clone())));
                    }
                    return;
                }
            }
        }
        for s in staged.drain(..) {
            let ack = self.apply_validated(s.insert, s.retract);
            let _ = s.resp.send(Ok(ack));
        }
    }

    /// Applies one already-validated (and, where durable, committed)
    /// delta. Deltas apply between planes: every plane executes
    /// against a single database state.
    fn apply_validated(&mut self, insert: Vec<Fact>, retract: Vec<Fact>) -> UpdateAck {
        let (mut inserted, mut retracted) = (0u64, 0u64);
        for f in insert {
            // Validation pinned the arity, so insert cannot fail.
            if self.db.insert(f).map(|d| d.changed).unwrap_or(false) {
                inserted += 1;
            }
        }
        for f in retract {
            if self.db.retract(f).map(|d| d.changed).unwrap_or(false) {
                retracted += 1;
            }
        }
        self.deltas_applied += 1;
        self.sink.counter(names::KB_DELTA_APPLIED, 1);
        self.sink.counter(names::KB_DELTA_INSERTED, inserted);
        self.sink.counter(names::KB_DELTA_RETRACTED, retracted);
        // Footprint-scoped revalidation: the answer memo goes cold only
        // when the delta touched a predicate this shard's compiled
        // graph actually retrieves.
        self.revalidate_run_cache();
        UpdateAck { inserted, retracted, deltas_applied: self.deltas_applied }
    }

    /// Flips the shard into degraded mode: updates are shed with
    /// `store_unavailable` from now on, reads keep serving from the
    /// in-memory replica.
    fn mark_degraded(&mut self, err: &StoreError) {
        if !self.store_degraded {
            self.store_degraded = true;
            self.sink.counter(store_names::DEGRADED, 1);
            eprintln!("qpl-serve: store degraded, shedding updates: {err}");
        }
    }

    /// Journals the newly adopted strategy (climb or peer adoption) on
    /// the store-owning shard, committed immediately — strategy changes
    /// are rare and must survive a kill without waiting for the next
    /// update batch.
    fn journal_strategy(&mut self, fingerprint: u64) {
        if self.store_degraded {
            return;
        }
        let arcs: Vec<u32> = self.qp.strategy().arcs().iter().map(|a| a.0).collect();
        let Some(store) = &mut self.store else {
            return;
        };
        let result =
            store.append(&Record::Strategy { fingerprint, arcs }).and_then(|_| store.commit());
        match result {
            Ok(()) => {
                self.sink.counter(store_names::WAL_APPENDS, 1);
                self.sink.counter(store_names::WAL_COMMITS, 1);
            }
            Err(e) => self.mark_degraded(&e),
        }
    }

    /// Builds the full checkpoint snapshot of this shard's durable
    /// state: the fact dump (sorted, re-parsable), generation stamps,
    /// the adopted strategy, and the learner's exported statistics.
    fn build_snapshot(&self) -> Snapshot {
        let mut pred_gens: Vec<(String, u64)> = self
            .db
            .predicate_generations()
            .map(|(p, g)| (self.table.name(p).to_string(), g))
            .collect();
        pred_gens.sort();
        Snapshot {
            facts: self.db.dump(&self.table),
            generation: self.db.generation(),
            pred_gens,
            strategy: Some(StrategyState {
                fingerprint: self.current_fp,
                arcs: self.qp.strategy().arcs().iter().map(|a| a.0).collect(),
            }),
            pib: self.pib.as_ref().map(|p| pib_state_to_snapshot(&p.export_state())),
        }
    }

    /// Writes a checkpoint through the store: atomic snapshot, then
    /// truncation of the WAL it covers.
    fn do_checkpoint(&mut self) -> Result<CheckpointInfo, ControlError> {
        if self.store.is_none() {
            return Err(ControlError::Store("server started without a data directory".to_string()));
        }
        if self.store_degraded {
            return Err(ControlError::Store(
                "store degraded by an earlier I/O failure".to_string(),
            ));
        }
        let snapshot = self.build_snapshot();
        let result = self.store.as_mut().expect("checked above").checkpoint(&snapshot);
        match result {
            Ok(info) => {
                self.sink.counter(store_names::CHECKPOINTS, 1);
                Ok(info)
            }
            Err(e) => {
                let detail = e.to_string();
                self.mark_degraded(&e);
                Err(ControlError::Store(detail))
            }
        }
    }

    /// Revalidates the per-shard answer memo against the current
    /// database + strategy, counting any flush as a selective
    /// invalidation (the validity key is footprint-scoped, so only
    /// relevant deltas can move it).
    fn revalidate_run_cache(&mut self) {
        self.run_cache.revalidate_scoped(&self.db, &self.footprint, self.current_fp);
        let inv = self.run_cache.stats().invalidations;
        if inv > self.rc_invalidations_seen {
            self.sink
                .counter(cache_names::SELECTIVE_INVALIDATIONS, inv - self.rc_invalidations_seen);
            self.rc_invalidations_seen = inv;
        }
    }

    /// Polls the strategy board (one atomic load on the fast path) and
    /// adopts the published strategy when its fingerprint differs from
    /// this shard's current program.
    fn adopt_published(&mut self, shared: &Shared) {
        let Some(pib) = &mut self.pib else {
            return;
        };
        let epoch = shared.board.epoch.load(Ordering::Acquire);
        if epoch == self.board_seen {
            return;
        }
        self.board_seen = epoch;
        let published = {
            let slot = lock_unpoisoned(&shared.board.slot);
            match slot.as_ref() {
                Some((fp, strategy)) if *fp != self.current_fp => Some((*fp, strategy.clone())),
                _ => None,
            }
        };
        if let Some((fp, strategy)) = published {
            pib.adopt(self.g, strategy.clone());
            self.qp.set_strategy(strategy);
            self.current_fp = fp;
            self.adoptions += 1;
            self.sink.counter(names::SHARD_ADOPTIONS, 1);
            // The adopted fingerprint is durable state: a warm restart
            // must come back serving the strategy the fleet agreed on.
            self.journal_strategy(fp);
        }
    }

    /// Serves one cut plane: classify every query into a lane, execute
    /// the plane bit-parallel (bit-identical to scalar runs), respond
    /// to every job, feed the contexts to the adaptation loop, publish
    /// any accepted climb to the peer shards.
    fn process_plane(&mut self, jobs: &mut Vec<(Job, Instant)>, shared: &Shared) {
        let t0 = Instant::now();
        self.results.clear();
        self.results.extend(jobs.iter().map(|(job, _)| vec![None; job.texts.len()]));
        self.atoms.clear();
        self.keys.clear();
        self.slots.clear();
        // One revalidation per plane: deltas apply between planes, so
        // every lane probes the memo under the same validity key.
        self.revalidate_run_cache();
        let mut lanes = 0usize;
        let mut cache_hits = 0u64;
        let mut plane_errors = 0u64;
        for (ji, (job, _)) in jobs.iter().enumerate() {
            for (si, text) in job.texts.iter().enumerate() {
                let parsed = parse_query(text, &mut self.table).map_err(|e| e.to_string());
                // Memo probe before classification: a warm hit answers
                // the lane (bit-identical answer and cost, memoized from
                // an earlier plane) without occupying plane capacity.
                if let Ok(atom) = &parsed {
                    if self.compiled.form.matches(atom) {
                        let key = self.compiled.form.bound_constants(atom);
                        if let Some((answer, cost)) = self.run_cache.get(&key) {
                            self.results[ji][si] = Some(match answer {
                                QueryAnswer::Yes(w) => LaneResult::Yes {
                                    witness: w.display(&self.table).to_string(),
                                    cost: *cost,
                                },
                                QueryAnswer::No => LaneResult::No { cost: *cost },
                            });
                            cache_hits += 1;
                            continue;
                        }
                    }
                }
                let classified = parsed.and_then(|atom| {
                    classify_context_into(
                        self.compiled,
                        &atom,
                        &self.db,
                        self.scratch.pool_context(self.g, lanes),
                    )
                    .map(|()| atom)
                    .map_err(|e| e.to_string())
                });
                match classified {
                    Ok(atom) => {
                        self.keys.push(self.compiled.form.bound_constants(&atom));
                        self.atoms.push(atom);
                        self.slots.push((ji, si));
                        lanes += 1;
                    }
                    Err(detail) => {
                        plane_errors += 1;
                        self.results[ji][si] = Some(LaneResult::Error { detail });
                    }
                }
            }
        }
        debug_assert!(lanes <= LANES, "the batcher never cuts past one plane");
        if lanes > 0 {
            self.scratch.assemble_pool_plane(self.g.arc_count(), lanes);
            self.lane_out.clear();
            let (batch, run, scalar) = self.scratch.plane_parts_mut();
            self.qp
                .run_classified_batch(&self.atoms, &self.db, batch, run, scalar, &mut self.lane_out)
                .expect("plane is assembled against the shard's own graph");
            for (lane, (answer, cost)) in self.lane_out.iter().enumerate() {
                let (ji, si) = self.slots[lane];
                self.results[ji][si] = Some(match answer {
                    QueryAnswer::Yes(atom) => LaneResult::Yes {
                        witness: atom.display(&self.table).to_string(),
                        cost: *cost,
                    },
                    QueryAnswer::No => LaneResult::No { cost: *cost },
                });
                // Memoize for later planes (and revalidated deltas).
                self.run_cache.insert(std::mem::take(&mut self.keys[lane]), answer.clone(), *cost);
            }
            self.served += lanes as u64;
            self.executed_lanes += lanes as u64;
            self.batches += 1;
            self.sink.counter(names::QUERIES, lanes as u64);
            self.sink.counter(names::BATCHES, 1);
            self.sink.value(names::BATCH_FILL, lanes as f64 / LANES as f64);
            // Online adaptation: the served plane *is* the PIB sample
            // batch. On an accepted climb, swap the processor's compiled
            // program (fingerprint-memoized inside set_strategy) and
            // publish the strategy so peer shards can adopt it.
            if let Some(pib) = &mut self.pib {
                pib.observe_batch(self.g, self.scratch.batch());
                let fp = pib.strategy().fingerprint();
                if fp != self.current_fp {
                    self.qp.set_strategy(pib.strategy().clone());
                    self.current_fp = fp;
                    let accepted = pib.history().len() as u64;
                    self.sink.counter(names::CLIMBS, accepted - self.climbs);
                    self.climbs = accepted;
                    {
                        let mut slot = lock_unpoisoned(&shared.board.slot);
                        *slot = Some((fp, pib.strategy().clone()));
                    }
                    shared.board.epoch.fetch_add(1, Ordering::Release);
                    self.sink.counter(names::SHARD_PUBLISHED, 1);
                    self.journal_strategy(fp);
                }
            }
        }
        if cache_hits > 0 {
            // Hit lanes are served queries too — they just never cost
            // plane capacity, so they stay out of the fill numerator.
            self.served += cache_hits;
            self.sink.counter(names::QUERIES, cache_hits);
            self.sink.counter("serve.cache.hits", cache_hits);
        }
        if plane_errors > 0 {
            self.errors += plane_errors;
            self.sink.counter(names::ERRORS, plane_errors);
        }
        self.sink.span_ns(names::EXEC, t0.elapsed().as_nanos() as u64);
        let done = Instant::now();
        for ((job, enqueued), row) in jobs.drain(..).zip(self.results.drain(..)) {
            let filled: Vec<LaneResult> =
                row.into_iter().map(|r| r.expect("every lane filled")).collect();
            let line = if job.batch {
                wire::render_answers(&filled, job.id)
            } else {
                wire::render_answer(&filled[0], job.id)
            };
            // A send error means the client hung up; the work is done
            // either way.
            let _ = job.resp.send(line);
            let us = done.duration_since(enqueued).as_secs_f64() * 1e6;
            self.ring.push(us);
            self.sink.value(names::SERVICE_US, us);
        }
    }

    fn shard_stats(&self, queue_lanes: u64, declined: u64) -> ShardStats {
        ShardStats {
            queue_lanes,
            served: self.served,
            batches: self.batches,
            declined,
            errors: self.errors,
            climbs: self.climbs,
            adoptions: self.adoptions,
            deltas_applied: self.deltas_applied,
            executed_lanes: self.executed_lanes,
            service_us: self.ring.samples().to_vec(),
            strategy_fp: self.current_fp,
            store: self.store.as_ref().map(|store| {
                let st = store.status();
                wire::StoreStatsView {
                    wal_bytes: st.wal_bytes,
                    segments: st.segments,
                    records_appended: st.records_appended,
                    records_replayed: st.records_replayed,
                    last_checkpoint_unix_secs: st.last_checkpoint_unix_secs,
                    snapshot_bytes: st.snapshot_bytes,
                    degraded: self.store_degraded,
                }
            }),
            sink: self.sink.clone(),
        }
    }
}
