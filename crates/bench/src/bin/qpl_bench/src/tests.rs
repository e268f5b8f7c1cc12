use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::thread;
use std::time::Duration;

use qpl_serve::wire::{render_answer, render_answers, render_error, JsonValue, LaneResult};

use crate::gen::{self, Kb, Op, Req, Rng, Toggle, Workload};
use crate::live::Reply;
use crate::replay::{simulate, Arrival, Event, Tracer};
use crate::{compare, live, replay, stats, TmpDir};

/// The KB text and every request line of `w`'s one-second open loop.
fn inputs(w: Workload, seed: u64) -> String {
    let kb = Kb::generate(seed, 5000);
    let mut out = kb.text.clone();
    for (conn, reqs) in gen::open_loop(w, &kb, seed, 1.0, &mut Toggle::default()).iter().enumerate()
    {
        for r in reqs {
            out.push_str(&format!("{conn} {} {}\n", r.due_ns, r.op.line()));
        }
    }
    out
}

#[test]
fn inputs_depend_on_the_seed_alone() {
    for w in Workload::ALL {
        let a = inputs(w, 7);
        assert_eq!(a, inputs(w, 7), "{}: same seed, same bytes", w.name());
        assert_ne!(a, inputs(w, 8), "{}: another seed, other inputs", w.name());
    }
}

#[test]
fn kb_truth_matches_its_text_and_the_hot_set_is_stratified() {
    let kb = Kb::generate(3, 5000);
    for (k, &mask) in kb.masks.iter().enumerate() {
        for leaf in 0..gen::LEAVES {
            let fact = format!("e{}_{}(c{k}).\n", leaf / gen::RULES, leaf % gen::RULES);
            assert_eq!(kb.text.contains(&fact), mask & (1 << leaf) != 0, "{fact}");
        }
    }
    assert_eq!(kb.hot.len(), gen::HOT_KEYS);
    for (slot, &k) in kb.hot.iter().enumerate() {
        let m = kb.masks[k as usize];
        let class = if m == 0 { gen::LEAVES } else { m.trailing_zeros() as usize };
        assert_eq!(class, slot % (gen::LEAVES + 1));
    }
    let yes = (0..5000u32).find(|&k| kb.answer(k)).expect("some key is stored");
    let leaf = kb.masks[yes as usize].trailing_zeros() as usize;
    let witness = format!("e{}_{}(c{yes})", leaf / gen::RULES, leaf % gen::RULES);
    assert!(kb.witness_ok(yes, &witness));
    assert!(!kb.witness_ok(yes + 1, &witness), "a witness names its own key");
}

#[test]
fn poisson_schedule_keeps_its_rate_and_window() {
    let due = gen::poisson(&mut Rng::new(5, 0), 2000.0, 10.0);
    assert!(due.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
    assert!(*due.last().expect("arrivals") < 10_000_000_000);
    let rate = due.len() as f64 / 10.0;
    assert!((rate - 2000.0).abs() < 2000.0 * 0.03, "rate {rate}");
    // Exponential gaps: about 1/e of them exceed the mean gap.
    let long = due.windows(2).filter(|w| w[1] - w[0] > 500_000).count() as f64;
    assert!((long / due.len() as f64 - (-1.0f64).exp()).abs() < 0.02);
}

#[test]
fn churn_updates_toggle_every_twentieth_request_of_connection_zero() {
    let kb = Kb::generate(1, 5000);
    let streams = gen::open_loop(Workload::ChurnRw, &kb, 1, 2.0, &mut Toggle::default());
    let updates: Vec<&Op> =
        streams[0].iter().map(|r| &r.op).filter(|op| matches!(op, Op::Update(_))).collect();
    assert_eq!(updates.len(), streams[0].len() / gen::UPDATE_EVERY);
    for (i, op) in updates.iter().enumerate() {
        assert_eq!(**op, Op::Update(i % 2 == 0), "insert, retract, insert, …");
    }
    assert!(streams[1].iter().all(|r| !matches!(r.op, Op::Update(_))));
}

/// A stand-in server that answers every query "no" at cost 1, holding
/// its first reply back for `stall`.
fn stalling_server(stall: Duration) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut out = stream.try_clone().expect("clone");
        for (i, line) in BufReader::new(stream).lines().enumerate() {
            if line.is_err() {
                return;
            }
            if i == 0 {
                thread::sleep(stall);
            }
            let _ = out.write_all(
                b"{\"v\":2,\"kind\":\"answer\",\"result\":{\"answer\":\"no\",\"cost\":1}}\n",
            );
        }
    });
    addr
}

#[test]
fn open_loop_latency_counts_from_the_due_time() {
    let kb = Kb::generate(1, 5000);
    let no = (0..5000u32).find(|&k| !kb.answer(k)).expect("some key is absent");
    // Five requests due 1 ms apart, all stuck behind a 40 ms stall: timed
    // from their due times they waited about 40, 39, 38, 37 and 36 ms;
    // timed from when each was answered after the previous, about 0.
    let reqs: Vec<Req> = (0..5).map(|i| Req { due_ns: i * 1_000_000, op: Op::Query(no) }).collect();
    let open = live::open_loop(stalling_server(Duration::from_millis(40)), &kb, &[reqs], 0)
        .expect("open loop");
    assert_eq!((open.sent, open.refused, open.lanes), (5, 0, 5));
    assert_eq!(open.cost, 5.0);
    assert!(open.latency.p50 >= 36.0 && open.latency.p50 < 60.0, "p50 {}", open.latency.p50);
    assert!(open.latency.max >= 39.0, "max {}", open.latency.max);
    assert!(open.lateness.p99 < 20.0, "sends left on time: {:?}", open.lateness);
}

#[test]
fn reply_checks_agree_on_the_fast_and_the_full_parse() {
    let kb = Kb::generate(2, 5000);
    let keys: Vec<u32> = (0..gen::BATCH_LANES as u32).collect();
    let mut lanes: Vec<LaneResult> = keys
        .iter()
        .map(|&k| match kb.masks[k as usize] {
            0 => LaneResult::No { cost: 30.0 },
            m => {
                let leaf = m.trailing_zeros() as usize;
                let witness = format!("e{}_{}(c{k})", leaf / gen::RULES, leaf % gen::RULES);
                LaneResult::Yes { witness, cost: 3.5 }
            }
        })
        .collect();
    let op = Op::Batch(keys.clone());
    let fast = render_answers(&lanes, None);
    // An id is outside the fast path's layout, so this takes the full parse.
    let full = render_answers(&lanes, Some(7));
    assert!(live::fast_lanes(&fast).is_some() && live::fast_lanes(&full).is_none());
    let served = live::check(&kb, &op, &fast);
    assert!(matches!(served, Ok(Reply::Served { lanes: 32, .. })), "{served:?}");
    assert_eq!(served, live::check(&kb, &op, &full));
    let one = Op::Query(keys[0]);
    assert_eq!(
        live::check(&kb, &one, &render_answer(&lanes[0], None)),
        live::check(&kb, &one, &render_answer(&lanes[0], Some(1)))
    );
    lanes[3] = match &lanes[3] {
        LaneResult::No { cost } => {
            LaneResult::Yes { witness: format!("e0_0(c{})", keys[3]), cost: *cost }
        }
        LaneResult::Yes { cost, .. } => LaneResult::No { cost: *cost },
        LaneResult::Error { .. } => unreachable!("built above"),
    };
    assert!(live::check(&kb, &op, &render_answers(&lanes, None)).is_err(), "fast path catches it");
    assert!(
        live::check(&kb, &op, &render_answers(&lanes, Some(7))).is_err(),
        "full parse catches it"
    );
    let refused = render_error("overloaded", "request queue full", None);
    assert_eq!(live::check(&kb, &op, &refused), Ok(Reply::Refused));
    assert!(live::check(&kb, &op, &render_error("bad_request", "no", None)).is_err());
}

#[test]
fn percentile_summary_reports_count_and_supported_tail() {
    let mut v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
    let s = stats::summarize(&mut v);
    assert_eq!((s.n, s.p50, s.p99, s.max), (1000, 500.0, 990.0, 1000.0));
    assert_eq!(s.tail, Some((99.0, 990.0)), "p99.9 has one sample beyond it, p99 has ten");
    let mut v: Vec<f64> = (1..=10_000).map(f64::from).collect();
    assert_eq!(stats::summarize(&mut v).tail, Some((99.9, 9990.0)));
    let mut v: Vec<f64> = (1..=99).map(f64::from).collect();
    assert_eq!(stats::summarize(&mut v).tail, None, "no percentile has ten samples beyond");
    // Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let q = stats::quartiles(&(1..=10).map(f64::from).collect::<Vec<_>>());
    assert_eq!(q, (2.75, 5.5, 8.25));
}

#[test]
fn batcher_simulation_cuts_on_deadline_fullness_and_handler_order() {
    let us = |t: u64| t * 1000;
    let a = |due: u64, conn: usize, lanes: usize| Arrival { due_ns: us(due), conn, lanes };
    let arrivals = [
        a(0, 0, 1),    // 0 ─┐ two single lanes wait for the 500 µs deadline
        a(100, 1, 1),  // 1 ─┘
        a(600, 0, 32), // 2 ─┐ two half planes fill one: cut at once
        a(700, 1, 32), // 3 ─┘
        a(800, 0, 1),  // 4   cut by its deadline at 1300 µs
        a(900, 0, 1),  // 5   same connection: offered only at 1300 µs
        a(2000, 0, 0), // 6   an update bypasses the batcher
    ];
    let mut events = Vec::new();
    let waits = simulate(&arrivals, &Tracer::new(), |e| {
        events.push(match e {
            Event::Admit(i, t) => format!("admit {i} @{}", t / 1000),
            Event::Plane(ids, t) => format!("plane {ids:?} @{}", t / 1000),
        });
        Ok(())
    })
    .expect("simulation");
    assert_eq!(
        events,
        [
            "admit 0 @0",
            "admit 1 @100",
            "plane [0, 1] @500",
            "admit 2 @600",
            "admit 3 @700",
            "plane [2, 3] @700",
            "admit 4 @800",
            "plane [4] @1300",
            "admit 5 @1300",
            "plane [5] @1800",
            "admit 6 @2000",
        ]
    );
    assert_eq!(waits, [us(500), us(400), us(100), 0, us(500), us(500)]);
}

#[test]
fn compare_verdicts_follow_the_bounds() {
    let a = [100.0, 101.0, 99.0, 100.5, 99.5];
    let slower: Vec<f64> = a.iter().map(|x| x * 1.3).collect();
    let same: Vec<f64> = a.iter().map(|x| x * 1.01).collect();
    assert_eq!(compare::verdict(&a, &slower, 0.1, true), "regressed");
    assert_eq!(compare::verdict(&a, &slower, 0.1, false), "improved");
    assert_eq!(compare::verdict(&a, &same, 0.1, true), "unchanged");
    let noisy = [50.0, 150.0, 100.0, 60.0, 140.0];
    assert_eq!(compare::verdict(&a, &noisy, 0.1, true), "unresolved");
}

fn names(metrics: &[crate::Metric]) -> Vec<String> {
    metrics.iter().map(|m| m.name.to_string()).collect()
}

/// The metric names the repository's `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string("../../../../../BENCHMARK.json").expect("BENCHMARK.json");
    let bench = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    let metrics = bench.get(section).and_then(JsonValue::as_array).expect("metric list");
    metrics
        .iter()
        .map(|m| m.get("name").and_then(JsonValue::as_str).expect("name").to_string())
        .collect()
}

/// Runs `w` for three seconds on a quarter-size KB, untraced then traced.
/// (Far fewer keys would repeat so often that the memo's hit ratio comes
/// to hinge on when each side's learner climbs, which clears the memo.)
fn smoke(w: Workload) {
    let tmp =
        PathBuf::from(crate::TMP_DIR).join(format!("test-{}-{}", w.name(), std::process::id()));
    std::fs::create_dir_all(&tmp).expect("scratch dir");
    let _cleanup = TmpDir(tmp.clone());
    let cfg =
        live::Config { workload: w, seed: 9, seconds: 3.0, tmp: tmp.clone(), restart_exe: None };
    let kb = Kb::generate(cfg.seed, gen::CONSTANTS / 4);
    let m = live::run(&cfg, &kb).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
    assert_eq!(m.failed, 0, "{}: nothing refused", w.name());
    assert!(m.attempted > gen::BATCH_LANES as u64);
    let e2e = crate::end_to_end(&m);
    assert_eq!(names(&e2e), declared("end_to_end"));
    assert!(e2e.iter().all(|m| m.value.is_finite() && m.value > 0.0), "{e2e:?}");
    let layers = replay::run(&kb, &m, &tmp.join("replay"), None)
        .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
    assert_eq!(names(&layers), declared("per_layer"));
    assert!(layers.iter().all(|m| m.value.is_finite()), "{layers:?}");
}

#[test]
fn smoke_hot_read() {
    smoke(Workload::HotRead);
}

#[test]
fn smoke_point_query() {
    smoke(Workload::PointQuery);
}

#[test]
fn smoke_churn_rw() {
    smoke(Workload::ChurnRw);
}
