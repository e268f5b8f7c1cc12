//! The traced replay: a workload's exact open-loop request stream fed,
//! single-threaded, through each layer's public functions, followed by
//! the 500 updates the live run ends with.
//!
//! Planes are formed by `serve::Batcher` on a synthetic clock driven by
//! the arrival schedule: execution takes no simulated time, and a
//! connection's next request is offered only once its previous one has
//! been answered, as the server's per-connection handler does. A span
//! (request id, name, parent, start, end) is recorded around every layer
//! call and kept in memory; a span whose call directly follows another
//! starts where that one ended, so what the spans do not cover is loop
//! bookkeeping. A span's self time is its duration minus its children's.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use qpl_core::{Pib, PibConfig};
use qpl_datalog::parser::parse_query;
use qpl_datalog::{Database, Fact, SymbolTable, Term};
use qpl_engine::cache::{DependencyFootprint, RunCache};
use qpl_engine::qp::{classify_context_into, BatchScratch, QueryAnswer, QueryProcessor};
use qpl_graph::batch::LANES;
use qpl_graph::compile::CompiledGraph;
use qpl_serve::wire::{self, LaneResult, Request};
use qpl_serve::{plane_width_for_depth, Batcher, LaneWeight, ServeEngine, ServerConfig};
use qpl_store::{FsyncPolicy, Record, Store, StoreConfig};

use crate::gen::{self, Kb, Op, Req, Toggle};
use crate::live::{Measured, DELTA, EPILOGUE_UPDATES};
use crate::Metric;

/// Largest share of the replay's wall time the spans may leave
/// unattributed.
const UNATTRIBUTED_LIMIT_PCT: f64 = 5.0;
/// Largest absolute difference allowed between the replay's memo hit
/// ratio and the server's over the same open-loop window. A climb clears
/// the memo, and the two learners climb at different moments, which moves
/// `point_query`'s ratio of a few percent by up to about two points.
const HIT_RATIO_TOLERANCE: f64 = 0.05;
/// Largest relative difference allowed between the replay's and the
/// server's executed lanes per plane, checked when both ran at least
/// [`MIN_PLANES`] planes.
const LANES_PER_PLANE_TOLERANCE: f64 = 0.25;
const MIN_PLANES: f64 = 100.0;

/// One recorded span; times are ns since the replay began.
#[derive(Debug, Clone, Copy)]
struct Span {
    req: u64,
    name: &'static str,
    parent: Option<usize>,
    start: u64,
    end: u64,
}

/// Spans in memory. Shared by reference between the batcher simulation
/// and the layers it drives, hence the cell.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    /// End of the span recorded last.
    last: Cell<u64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: RefCell::new(Vec::new()), last: Cell::new(0) }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records `name` from `start` until now and returns now, which the
    /// caller passes on as the next span's start.
    fn lap(&self, req: u64, name: &'static str, parent: Option<usize>, start: u64) -> u64 {
        let end = self.now();
        self.spans.borrow_mut().push(Span { req, name, parent, start, end });
        self.last.set(end);
        end
    }

    /// Where the span recorded last ended: the start of a span whose call
    /// follows it directly, which saves reading the clock twice.
    fn last(&self) -> u64 {
        self.last.get()
    }

    /// Opens a parent span at `t`; returns its index.
    fn open(&self, req: u64, name: &'static str, t: u64) -> usize {
        let mut spans = self.spans.borrow_mut();
        spans.push(Span { req, name, parent: None, start: t, end: t });
        spans.len() - 1
    }

    fn close(&self, idx: usize) {
        let t = self.now();
        self.spans.borrow_mut()[idx].end = t;
        self.last.set(t);
    }

    /// Reads the clock and makes that the start of the next chained span.
    fn mark(&self) -> u64 {
        let t = self.now();
        self.last.set(t);
        t
    }

    fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Summed self time (ns) and span count per name over the first `n`
    /// spans.
    fn self_times(&self, n: usize) -> BTreeMap<&'static str, (f64, u64)> {
        let spans = &self.spans.borrow()[..n];
        let mut own: Vec<f64> = spans.iter().map(|s| (s.end - s.start) as f64).collect();
        for s in spans {
            if let Some(p) = s.parent {
                own[p] -= (s.end - s.start) as f64;
            }
        }
        let mut out = BTreeMap::new();
        for (s, t) in spans.iter().zip(own) {
            let e = out.entry(s.name).or_insert((0.0, 0));
            e.0 += t;
            e.1 += 1;
        }
        out
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        let spans = self.spans.borrow();
        let mut out = String::with_capacity(spans.len() * 80);
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"req\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.req, s.name, s.start, s.end
            );
        }
        std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// A request as the batcher simulation sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due_ns: u64,
    pub conn: usize,
    /// Query lanes; 0 marks an update, which bypasses the batcher.
    pub lanes: usize,
}

/// What the simulation asks of the layers, at synthetic time `t` (ns).
#[derive(Debug, PartialEq)]
pub enum Event<'a> {
    /// Arrival `i` reaches the server: parse it, and apply it if it is an
    /// update.
    Admit(usize, u64),
    /// A plane holding these arrivals, in queue order, is cut.
    Plane(&'a [usize], u64),
}

/// A queued arrival.
struct Pending {
    arrival: usize,
    lanes: usize,
    offered_ns: u64,
}

impl LaneWeight for Pending {
    fn lanes(&self) -> usize {
        self.lanes
    }
}

/// Forms planes with `serve::Batcher` on a synthetic clock driven by
/// `arrivals` (ascending due times), under the server's default
/// `max_wait` and `queue_cap`. Execution takes no simulated time; a
/// connection's next request is offered only after its previous one was
/// answered, as the server's per-connection handler reads one line at a
/// time. The batcher's own calls are traced as `serve.batcher`. Returns
/// each queued arrival's wait from offer to cut, ns.
pub fn simulate(
    arrivals: &[Arrival],
    tr: &Tracer,
    mut on: impl FnMut(Event) -> Result<(), String>,
) -> Result<Vec<u64>, String> {
    let cfg = ServerConfig::default();
    let base = Instant::now();
    let at = |ns: u64| base + Duration::from_nanos(ns);
    let conns = arrivals.iter().map(|a| a.conn + 1).max().unwrap_or(0);
    let mut batcher: Batcher<Pending> = Batcher::new(cfg.queue_cap.max(LANES));
    let mut busy = vec![false; conns];
    let mut backlog = vec![VecDeque::new(); conns];
    let (mut waits, mut cut, mut ids) = (Vec::new(), Vec::new(), Vec::new());
    let admit = |i: usize,
                 t: u64,
                 batcher: &mut Batcher<Pending>,
                 busy: &mut [bool],
                 on: &mut dyn FnMut(Event) -> Result<(), String>| {
        on(Event::Admit(i, t))?;
        let a = arrivals[i];
        if a.lanes > 0 {
            let start = tr.last();
            let job = Pending { arrival: i, lanes: a.lanes, offered_ns: t };
            let refused = batcher.offer(job, at(t)).is_err();
            tr.lap(i as u64, "serve.batcher", None, start);
            if refused {
                return Err(format!("the batcher refused arrival {i}"));
            }
            busy[a.conn] = true;
        }
        Ok::<(), String>(())
    };
    let mut next = 0;
    loop {
        let deadline = batcher.deadline(cfg.max_wait).map(|d| (d - base).as_nanos() as u64);
        let t = match (arrivals.get(next), deadline) {
            (Some(a), Some(d)) if d < a.due_ns => d,
            (Some(a), _) => {
                if busy[a.conn] {
                    backlog[a.conn].push_back(next);
                } else {
                    admit(next, a.due_ns, &mut batcher, &mut busy, &mut on)?;
                }
                next += 1;
                a.due_ns
            }
            (None, Some(d)) => d,
            (None, None) => return Ok(waits),
        };
        while batcher.ready(at(t), cfg.max_wait) {
            let start = tr.now();
            batcher.cut_plane(plane_width_for_depth(batcher.lanes_queued()) * LANES, &mut cut);
            ids.clear();
            for (p, _) in &cut {
                ids.push(p.arrival);
                waits.push(t - p.offered_ns);
            }
            tr.lap(ids[0] as u64, "serve.batcher", None, start);
            on(Event::Plane(&ids, t))?;
            for &i in &ids {
                let c = arrivals[i].conn;
                busy[c] = false;
                while !busy[c] {
                    let Some(j) = backlog[c].pop_front() else { break };
                    admit(j, t, &mut batcher, &mut busy, &mut on)?;
                }
            }
        }
    }
}

/// A parsed query or batch request waiting for its plane.
struct Job {
    req: u64,
    keys: Vec<u32>,
    texts: Vec<String>,
    batch: bool,
}

fn ground_fact(text: &str, table: &mut SymbolTable) -> Result<Fact, String> {
    let atom = parse_query(text, table).map_err(|e| e.to_string())?;
    let args = atom
        .args
        .iter()
        .map(|t| match t {
            Term::Const(s) => Ok(*s),
            Term::Var(_) => Err(format!("fact {text:?} is not ground")),
        })
        .collect::<Result<_, _>>()?;
    Ok(Fact::new(atom.predicate, args))
}

/// The engine state one executor shard owns, plus replay counters.
struct Replay<'a> {
    kb: &'a Kb,
    tr: &'a Tracer,
    compiled: &'a CompiledGraph,
    table: SymbolTable,
    db: Database,
    qp: QueryProcessor<'a>,
    pib: Pib,
    fp: u64,
    footprint: DependencyFootprint,
    memo: RunCache,
    scratch: BatchScratch,
    store: Store,
    lanes: u64,
    hits: u64,
    executed: u64,
    planes: u64,
    observed: u64,
    climbs: u64,
    lanes_to_learn: u64,
    updates: u64,
}

impl Replay<'_> {
    /// Reads one request line as a connection handler does: parse it and
    /// build the job it queues, or, for an update, apply it at once. The
    /// span starts where the last one ended, taking in the event loop's
    /// choice of what happens next, as a handler's read of its next line.
    fn admit(&mut self, req: u64, line: &str, op: &Op) -> Result<Option<Job>, String> {
        let t = self.tr.last();
        let (texts, batch) = match wire::parse_request(line, LANES)? {
            request @ Request::Update { .. } => {
                self.tr.lap(req, "wire.parse_request", None, t);
                self.update(req, request)?;
                return Ok(None);
            }
            Request::Batch { qs, .. } => (qs, true),
            Request::Query { q, .. } => (vec![q], false),
            other => return Err(format!("unexpected request {other:?}")),
        };
        let keys = match op {
            Op::Batch(keys) => keys.clone(),
            Op::Query(k) => vec![*k],
            Op::Update(_) => return Err(format!("{line} parsed as a query")),
        };
        self.tr.lap(req, "wire.parse_request", None, t);
        Ok(Some(Job { req, keys, texts, batch }))
    }

    /// Applies one update the way shard 0 does: journal, group-commit,
    /// apply, revalidate the memo, acknowledge.
    fn update(&mut self, req: u64, request: Request) -> Result<(), String> {
        let Request::Update { insert, retract, .. } = request else {
            return Err(format!("expected an update, got {request:?}"));
        };
        let p = self.tr.open(req, "serve.update", self.tr.last());
        let ins = insert
            .iter()
            .map(|f| ground_fact(f, &mut self.table))
            .collect::<Result<Vec<_>, _>>()?;
        let ret = retract
            .iter()
            .map(|f| ground_fact(f, &mut self.table))
            .collect::<Result<Vec<_>, _>>()?;
        let record = Record::Delta { insert, retract };
        let t = self.tr.now();
        self.store.append(&record).map_err(|e| e.to_string())?;
        let t = self.tr.lap(req, "store.append", Some(p), t);
        self.store.commit().map_err(|e| e.to_string())?;
        let t = self.tr.lap(req, "store.commit", Some(p), t);
        let (mut inserted, mut retracted) = (0, 0);
        for f in ins {
            inserted += u64::from(self.db.insert(f).map_err(|e| e.to_string())?.changed);
        }
        for f in ret {
            retracted += u64::from(self.db.retract(f).map_err(|e| e.to_string())?.changed);
        }
        let t = self.tr.lap(req, "datalog.db_apply", Some(p), t);
        self.memo.revalidate_scoped(&self.db, &self.footprint, self.fp);
        let t = self.tr.lap(req, "engine.memo", Some(p), t);
        self.updates += 1;
        black_box(wire::render_updated(inserted, retracted, self.updates, None));
        self.tr.lap(req, "wire.render", Some(p), t);
        self.tr.close(p);
        if inserted + retracted != 1 {
            return Err("replayed update did not change the database".to_string());
        }
        Ok(())
    }

    /// Serves one cut plane the way an executor shard does: memo probe,
    /// Note-2 classification of the misses, bit-parallel execution,
    /// memo fill, learner observation, one response per job.
    fn plane(&mut self, jobs: Vec<Job>) -> Result<(), String> {
        let first = jobs[0].req;
        let t = self.tr.last();
        let p = self.tr.open(first, "serve.plane", t);
        self.memo.revalidate_scoped(&self.db, &self.footprint, self.fp);
        let t = self.tr.lap(first, "engine.memo", Some(p), t);
        let mut atoms = Vec::new();
        for job in &jobs {
            for text in &job.texts {
                atoms.push(parse_query(text, &mut self.table).map_err(|e| e.to_string())?);
            }
        }
        let t = self.tr.lap(first, "datalog.parse_query", Some(p), t);
        let mut results: Vec<Option<(QueryAnswer, f64)>> = Vec::with_capacity(atoms.len());
        let mut misses = Vec::new();
        for (lane, atom) in atoms.iter().enumerate() {
            let key = self.compiled.form.bound_constants(atom);
            match self.memo.get(&key) {
                Some(hit) => results.push(Some(hit.clone())),
                None => {
                    results.push(None);
                    misses.push((lane, key));
                }
            }
        }
        let t = self.tr.lap(first, "engine.memo", Some(p), t);
        let g = &self.compiled.graph;
        let mut exec = Vec::with_capacity(misses.len());
        for (slot, (lane, _)) in misses.iter().enumerate() {
            let ctx = self.scratch.pool_context(g, slot);
            classify_context_into(self.compiled, &atoms[*lane], &self.db, ctx)
                .map_err(|e| e.to_string())?;
            exec.push(atoms[*lane].clone());
        }
        let mut t = self.tr.lap(first, "engine.classify", Some(p), t);
        if !exec.is_empty() {
            self.scratch.assemble_pool_plane(g.arc_count(), exec.len());
            let mut out = Vec::with_capacity(exec.len());
            let (batch, run, scalar) = self.scratch.plane_parts_mut();
            self.qp
                .run_classified_batch(&exec, &self.db, batch, run, scalar, &mut out)
                .map_err(|e| e.to_string())?;
            t = self.tr.lap(first, "graph.plane", Some(p), t);
            for ((lane, key), (answer, cost)) in misses.into_iter().zip(out) {
                self.memo.insert(key, answer.clone(), cost);
                results[lane] = Some((answer, cost));
            }
            t = self.tr.lap(first, "engine.memo", Some(p), t);
            self.pib.observe_batch(g, self.scratch.batch());
            self.observed += exec.len() as u64;
            let fp = self.pib.strategy().fingerprint();
            if fp != self.fp {
                self.qp.set_strategy(self.pib.strategy().clone());
                self.fp = fp;
                self.climbs += 1;
                self.lanes_to_learn = self.observed;
            }
            t = self.tr.lap(first, "core.pib.observe", Some(p), t);
            self.planes += 1;
            self.executed += exec.len() as u64;
        }
        self.lanes += atoms.len() as u64;
        self.hits += (atoms.len() - exec.len()) as u64;
        let mut results = results.into_iter();
        for job in jobs {
            let mut row = Vec::with_capacity(job.keys.len());
            for &key in &job.keys {
                let (answer, cost) = results.next().flatten().expect("every lane answered");
                if answer.is_yes() != self.kb.answer(key) {
                    return Err(format!("replay answered q0(c{key}) wrongly"));
                }
                row.push(match answer {
                    QueryAnswer::Yes(w) => {
                        LaneResult::Yes { witness: w.display(&self.table).to_string(), cost }
                    }
                    QueryAnswer::No => LaneResult::No { cost },
                });
            }
            black_box(if job.batch {
                wire::render_answers(&row, None)
            } else {
                wire::render_answer(&row[0], None)
            });
            t = self.tr.lap(job.req, "wire.render", Some(p), t);
        }
        self.tr.close(p);
        Ok(())
    }
}

/// Replays `m`'s open-loop stream and epilogue, then recovers `m`'s data
/// dir; returns the per-layer metrics, or an error when the replay's
/// answers or its agreement with the server fail their checks.
pub fn run(
    kb: &Kb,
    m: &Measured,
    replay_dir: &Path,
    spans: Option<&Path>,
) -> Result<Vec<Metric>, String> {
    let ServeEngine { table, compiled, db } = ServeEngine::from_source(&kb.text, gen::FORM)?;
    let store_cfg = StoreConfig { fsync: FsyncPolicy::EveryBatch, segment_bytes: 8 << 20 };
    let (store, _) = Store::open(replay_dir, store_cfg).map_err(|e| e.to_string())?;
    let qp = QueryProcessor::left_to_right(&compiled);
    let pib = Pib::new(&compiled.graph, qp.strategy().clone(), PibConfig::new(DELTA));
    let fp = qp.strategy().fingerprint();
    // Both connections' requests in arrival order; the wire lines are
    // rendered up front, as client work outside the replay's wall time.
    let mut merged: Vec<(&Req, usize)> = m
        .streams
        .iter()
        .enumerate()
        .flat_map(|(conn, s)| s.iter().map(move |r| (r, conn)))
        .collect();
    merged.sort_by_key(|&(r, conn)| (r.due_ns, conn));
    let arrivals: Vec<Arrival> = merged
        .iter()
        .map(|&(r, conn)| Arrival { due_ns: r.due_ns, conn, lanes: r.op.lanes() })
        .collect();
    let ops: Vec<&Op> = merged.iter().map(|(r, _)| &r.op).collect();
    let lines: Vec<String> = ops.iter().map(|op| op.line()).collect();
    let mut toggle = Toggle::default();
    for _ in ops.iter().filter(|op| matches!(op, Op::Update(_))) {
        toggle.next();
    }
    let epilogue: Vec<Op> = (0..EPILOGUE_UPDATES).map(|_| toggle.next()).collect();

    let tr = Tracer::new();
    let mut r = Replay {
        kb,
        tr: &tr,
        compiled: &compiled,
        table,
        db,
        footprint: DependencyFootprint::of_compiled(&compiled),
        memo: RunCache::new(),
        scratch: BatchScratch::new(&compiled.graph),
        qp,
        pib,
        fp,
        store,
        lanes: 0,
        hits: 0,
        executed: 0,
        planes: 0,
        observed: 0,
        climbs: 0,
        lanes_to_learn: 0,
        updates: 0,
    };
    let wall_start = tr.mark();
    let mut queued: Vec<Option<Job>> = (0..arrivals.len()).map(|_| None).collect();
    let waits = simulate(&arrivals, &tr, |event| match event {
        Event::Admit(i, _) => {
            queued[i] = r.admit(i as u64, &lines[i], ops[i])?;
            Ok(())
        }
        Event::Plane(ids, _) => {
            let jobs = ids.iter().map(|&i| queued[i].take().expect("queued before cut")).collect();
            r.plane(jobs)
        }
    })?;
    let open_spans = tr.len();
    let open_requests = arrivals.len() as f64;
    let wait_mean = waits.iter().sum::<u64>() as f64 / 1e3 / waits.len().max(1) as f64;
    for (k, op) in epilogue.iter().enumerate() {
        r.admit((arrivals.len() + k) as u64, &op.line(), op)?;
    }
    let wall_ns = (tr.now() - wall_start) as f64;
    let attributed: f64 = tr.self_times(tr.len()).values().map(|v| v.0).sum();
    let unattributed_pct = 100.0 * (wall_ns - attributed) / wall_ns;
    let open_work_ns: f64 = tr.self_times(open_spans).values().map(|v| v.0).sum();

    // Recovery of the live run's data dir, as a restart performs it.
    let ServeEngine { table: mut rec_table, db: mut rec_db, .. } =
        ServeEngine::from_source(&kb.text, gen::FORM)?;
    let t = tr.now();
    let (_, recovered) = Store::open(&m.data_dir, store_cfg).map_err(|e| e.to_string())?;
    if let Some(snap) = &recovered.snapshot {
        rec_db = Database::new();
        for text in &snap.facts {
            rec_db.insert(ground_fact(text, &mut rec_table)?).map_err(|e| e.to_string())?;
        }
    }
    for record in &recovered.records {
        if let Record::Delta { insert, retract } = record {
            for text in insert {
                rec_db.insert(ground_fact(text, &mut rec_table)?).map_err(|e| e.to_string())?;
            }
            for text in retract {
                rec_db.retract(ground_fact(text, &mut rec_table)?).map_err(|e| e.to_string())?;
            }
        }
    }
    black_box(&rec_db);
    tr.lap(u64::MAX, "store.recover", None, t);
    if let Some(path) = spans {
        tr.write(path)?;
    }

    let times = tr.self_times(tr.len());
    let us = |name: &str| times.get(name).map_or(0.0, |v| v.0 / 1e3);
    let calls = |name: &str| times.get(name).map_or(0, |v| v.1) as f64;
    let per = |total: f64, n: f64| if n > 0.0 { total / n } else { 0.0 };
    let (lanes, executed, planes) = (r.lanes as f64, r.executed as f64, r.planes as f64);
    let live_p50_us = m.open.latency.p50 * 1e3;
    let hit_ratio = per(r.hits as f64, lanes);
    let lanes_per_plane = per(executed, planes);

    let live_served = m.after.served - m.before.served;
    let live_hits = m.after.memo_hits - m.before.memo_hits;
    let live_planes = m.after.planes - m.before.planes;
    let live_hit_ratio = per(live_hits, live_served);
    let live_lanes_per_plane = per(live_served - live_hits, live_planes);

    let metrics = vec![
        Metric::new(
            "wire.parse_request_us",
            per(us("wire.parse_request"), calls("wire.parse_request")),
            "us",
        ),
        Metric::new("wire.render_us", per(us("wire.render"), calls("wire.render")), "us"),
        Metric::new("datalog.parse_query_us", per(us("datalog.parse_query"), lanes), "us"),
        Metric::new("engine.memo_us", per(us("engine.memo"), lanes), "us"),
        Metric::new("engine.memo.hit_ratio", hit_ratio, "ratio"),
        Metric::new("engine.memo.probes", lanes, "count"),
        Metric::new("engine.classify_us", per(us("engine.classify"), executed), "us"),
        Metric::new("graph.plane_us", per(us("graph.plane"), planes), "us"),
        Metric::new("graph.lanes_per_plane", lanes_per_plane, "lanes"),
        Metric::new("core.pib.observe_us", per(us("core.pib.observe"), planes), "us"),
        Metric::new("core.pib.climbs", r.climbs as f64, "count"),
        Metric::new("core.pib.lanes_to_learn", r.lanes_to_learn as f64, "lanes"),
        Metric::new("datalog.db_apply_us", per(us("datalog.db_apply"), r.updates as f64), "us"),
        Metric::new("store.append_us", per(us("store.append"), calls("store.append")), "us"),
        Metric::new("store.commit_us", per(us("store.commit"), calls("store.commit")), "us"),
        Metric::new("store.recover_ms", us("store.recover") / 1e3, "ms"),
        Metric::new("serve.batcher.wait_us", wait_mean, "us"),
        Metric::new(
            "serve.frontdoor_us",
            live_p50_us - open_work_ns / 1e3 / open_requests - wait_mean,
            "us",
        ),
        Metric::new("serve.stats.fill_ratio", m.after.fill_ratio, "ratio"),
        Metric::new("serve.stats.cache_hit_ratio", live_hit_ratio, "ratio"),
        Metric::new("serve.stats.climbs", m.after.climbs, "count"),
        Metric::new("serve.stats.planes", live_planes, "count"),
        Metric::new("replay.unattributed_pct", unattributed_pct, "%"),
    ];

    if unattributed_pct.abs() > UNATTRIBUTED_LIMIT_PCT {
        return Err(format!("spans leave {unattributed_pct:.2}% of the replay unattributed"));
    }
    if (hit_ratio - live_hit_ratio).abs() > HIT_RATIO_TOLERANCE {
        return Err(format!(
            "replay memo hit ratio {hit_ratio:.4} disagrees with the server's {live_hit_ratio:.4}"
        ));
    }
    if planes >= MIN_PLANES
        && live_planes >= MIN_PLANES
        && (lanes_per_plane / live_lanes_per_plane - 1.0).abs() > LANES_PER_PLANE_TOLERANCE
    {
        return Err(format!(
            "replay lanes per plane {lanes_per_plane:.2} disagrees with the server's \
             {live_lanes_per_plane:.2}"
        ));
    }
    Ok(metrics)
}
