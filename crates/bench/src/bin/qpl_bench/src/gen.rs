//! Seeded inputs: the ordered-density knowledge base, its truth table,
//! and every workload's request stream. The server only ever sees the
//! KB text and the request lines rendered here; the truth the answers
//! are checked against comes from this generator, never from the engine.

/// Alternatives `q0(X) :- m<i>(X)`.
pub const ALTS: usize = 6;
/// Rules `m<i>(X) :- e<i>_<j>(X)` per alternative.
pub const RULES: usize = 2;
/// Leaf predicates `e<i>_<j>`, numbered `2i + j` (left-to-right order).
pub const LEAVES: usize = ALTS * RULES;
/// Constants in the knowledge base a run serves.
pub const CONSTANTS: usize = 200_000;
/// The query form every request asks.
pub const FORM: &str = "q0(b)";
/// Keys of the hot set `hot_read` draws from.
pub const HOT_KEYS: usize = 64;
/// Lanes in every `batch` request.
pub const BATCH_LANES: usize = 32;
/// On `churn_rw`, every this-many-th request of connection 0 is an update.
pub const UPDATE_EVERY: usize = 20;
/// The fact `churn_rw` and the durability epilogue toggle. No query asks
/// about `z`, so it invalidates the answer memo without changing an answer.
pub const CHURN_FACT: &str = "e0_0(z)";

/// Density of leaf `2i + j`: 1.5% · (1 + 2i + j). The left-to-right
/// starting strategy therefore tries the sparsest predicate first, and
/// PIB has real climbs to make (the paper's Section-2 situation).
pub fn density(leaf: usize) -> f64 {
    0.015 * (1 + leaf) as f64
}

/// SplitMix64: a small, fixed generator, so inputs depend on the seed
/// alone and never on a library's choice of algorithm.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The generated knowledge base plus everything needed to check answers.
#[derive(Debug, Clone)]
pub struct Kb {
    /// Datalog source handed to the server.
    pub text: String,
    /// Bit `2i + j` of `masks[k]` is set iff `e<i>_<j>(c<k>)` is a fact.
    pub masks: Vec<u16>,
    /// The hot set: slot `s` holds a key whose first matching leaf under
    /// the left-to-right strategy is `s % 13` (13 = no leaf matches), so
    /// the hot set's cost profile is the same on every seed.
    pub hot: Vec<u32>,
}

impl Kb {
    pub fn generate(seed: u64, constants: usize) -> Kb {
        assert!(constants >= 1000, "the hot-set draw needs every leaf class populated");
        let mut rng = Rng::new(seed, 1);
        let mut masks = vec![0u16; constants];
        let mut text = String::with_capacity(constants * 4);
        for i in 0..ALTS {
            text.push_str(&format!("q0(X) :- m{i}(X).\n"));
        }
        for i in 0..ALTS {
            for j in 0..RULES {
                text.push_str(&format!("m{i}(X) :- e{i}_{j}(X).\n"));
            }
        }
        for leaf in 0..LEAVES {
            let p = density(leaf);
            for (k, mask) in masks.iter_mut().enumerate() {
                if rng.unit() < p {
                    *mask |= 1 << leaf;
                    text.push_str(&format!("e{}_{}(c{k}).\n", leaf / RULES, leaf % RULES));
                }
            }
        }
        let class = |m: u16| if m == 0 { LEAVES } else { m.trailing_zeros() as usize };
        let mut hot: Vec<u32> = Vec::with_capacity(HOT_KEYS);
        for slot in 0..HOT_KEYS {
            loop {
                let k = rng.below(constants);
                if class(masks[k]) == slot % (LEAVES + 1) && !hot.contains(&(k as u32)) {
                    hot.push(k as u32);
                    break;
                }
            }
        }
        Kb { text, masks, hot }
    }

    pub fn constants(&self) -> usize {
        self.masks.len()
    }

    /// Ground truth for `q0(c<key>)`: is the key in any leaf predicate.
    pub fn answer(&self, key: u32) -> bool {
        self.masks[key as usize] != 0
    }

    /// Whether `witness` (as the server renders it) is a stored fact
    /// about `key`.
    pub fn witness_ok(&self, key: u32, witness: &str) -> bool {
        let Some(rest) = witness.strip_prefix('e') else {
            return false;
        };
        let Some((pred, arg)) = rest.split_once('(') else {
            return false;
        };
        let Some((i, j)) = pred.split_once('_') else {
            return false;
        };
        let (Ok(i), Ok(j)) = (i.parse::<usize>(), j.parse::<usize>()) else {
            return false;
        };
        i < ALTS
            && j < RULES
            && arg == format!("c{key})")
            && self.masks[key as usize] & (1 << (i * RULES + j)) != 0
    }

    /// The request every setup and restart probes with: keys spread
    /// evenly over the constants, chosen without regard to the hot set.
    pub fn probe(&self) -> Op {
        let n = self.constants();
        Op::Batch((0..BATCH_LANES).map(|i| ((i * n / BATCH_LANES + 7) % n) as u32).collect())
    }
}

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 32-lane batches over the 64 hot keys: after the first plane every
    /// lane is an answer-memo hit, so only the front door is measured.
    HotRead,
    /// Single-lane queries over all keys: per-request overhead and the
    /// batcher's flush deadline dominate; the learner sees every lane.
    PointQuery,
    /// 32-lane batches over all keys plus memo-invalidating updates:
    /// every lane is classified and executed, every plane observed.
    ChurnRw,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::HotRead, Workload::PointQuery, Workload::ChurnRw];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRead => "hot_read",
            Workload::PointQuery => "point_query",
            Workload::ChurnRw => "churn_rw",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Open-loop arrival rate in requests per second, both connections
    /// together.
    pub fn rate(self) -> f64 {
        match self {
            Workload::HotRead => 2000.0,
            Workload::PointQuery => 1500.0,
            Workload::ChurnRw => 1000.0,
        }
    }
}

/// One request.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Batch(Vec<u32>),
    Query(u32),
    /// Insert (`true`) or retract [`CHURN_FACT`].
    Update(bool),
}

impl Op {
    /// The wire line the client sends.
    pub fn line(&self) -> String {
        match self {
            Op::Batch(keys) => {
                let qs: Vec<String> = keys.iter().map(|k| format!("\"q0(c{k})\"")).collect();
                format!("{{\"kind\":\"batch\",\"qs\":[{}]}}", qs.join(","))
            }
            Op::Query(k) => format!("{{\"kind\":\"query\",\"q\":\"q0(c{k})\"}}"),
            Op::Update(true) => format!("{{\"kind\":\"update\",\"insert\":[\"{CHURN_FACT}\"]}}"),
            Op::Update(false) => format!("{{\"kind\":\"update\",\"retract\":[\"{CHURN_FACT}\"]}}"),
        }
    }

    /// Query lanes the request carries (0 for an update).
    pub fn lanes(&self) -> usize {
        match self {
            Op::Batch(keys) => keys.len(),
            Op::Query(_) => 1,
            Op::Update(_) => 0,
        }
    }
}

/// Alternates insert and retract of [`CHURN_FACT`] across every phase of
/// a run, so each update really changes the database.
#[derive(Debug, Default, Clone)]
pub struct Toggle(u64);

impl Toggle {
    pub fn next(&mut self) -> Op {
        self.0 += 1;
        Op::Update(self.0 % 2 == 1)
    }
}

/// The `i`-th request a connection sends under workload `w`.
pub fn op_at(w: Workload, kb: &Kb, rng: &mut Rng, conn: usize, i: usize, t: &mut Toggle) -> Op {
    let n = kb.constants();
    match w {
        Workload::HotRead => {
            Op::Batch((0..BATCH_LANES).map(|_| kb.hot[rng.below(HOT_KEYS)]).collect())
        }
        Workload::PointQuery => Op::Query(rng.below(n) as u32),
        Workload::ChurnRw if conn == 0 && i % UPDATE_EVERY == UPDATE_EVERY - 1 => t.next(),
        Workload::ChurnRw => Op::Batch((0..BATCH_LANES).map(|_| rng.below(n) as u32).collect()),
    }
}

/// A request with the time it is due, in ns after the open loop starts.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    pub due_ns: u64,
    pub op: Op,
}

/// Poisson arrivals at `rate` per second over `seconds`, as due times in ns.
pub fn poisson(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push((t * 1e9) as u64);
    }
}

/// Each connection's open-loop stream: Poisson at half the workload's
/// rate, ops from [`op_at`].
pub fn open_loop(w: Workload, kb: &Kb, seed: u64, seconds: f64, t: &mut Toggle) -> Vec<Vec<Req>> {
    (0..2)
        .map(|conn| {
            let mut arrivals = Rng::new(seed, 10 + conn as u64);
            let mut ops = Rng::new(seed, 20 + conn as u64);
            poisson(&mut arrivals, w.rate() / 2.0, seconds)
                .into_iter()
                .enumerate()
                .map(|(i, due_ns)| Req { due_ns, op: op_at(w, kb, &mut ops, conn, i, t) })
                .collect()
        })
        .collect()
}
