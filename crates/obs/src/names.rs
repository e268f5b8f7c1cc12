//! Canonical metric-name constants for cross-crate telemetry.
//!
//! Most instrumented call sites live next to the subsystem they
//! measure and use string literals in place (`"graph.batch.lanes"`,
//! `"core.pib.climbs"`, …). Names that cross a crate boundary — emitted
//! in one crate, asserted on or surfaced by another — live here instead,
//! so producers and consumers cannot drift apart silently. The serving
//! layer is the first such consumer: `qpl-serve` emits these and its
//! `stats` endpoint (plus `bench_serve` and the CI smoke) read them back
//! out of a [`JsonSnapshot`](crate::JsonSnapshot).

/// Names emitted by the `qpl-serve` executor thread.
pub mod serve {
    /// Counter: query lanes executed (one per served query, batch or
    /// single).
    pub const QUERIES: &str = "serve.queries";
    /// Counter: 64-lane planes executed.
    pub const BATCHES: &str = "serve.batches";
    /// Counter: requests refused with an `overloaded` response by the
    /// admission controller.
    pub const SHED: &str = "serve.shed";
    /// Counter: lanes that failed classification (unparsable query or
    /// form mismatch) and got a per-lane error instead of an answer.
    pub const ERRORS: &str = "serve.errors";
    /// Counter: strategy climbs accepted by the online adaptation loop.
    pub const CLIMBS: &str = "serve.climbs";
    /// Value: occupied fraction of each executed plane's 64 lanes
    /// (1.0 = every lane full).
    pub const BATCH_FILL: &str = "serve.batch_fill";
    /// Span: wall-clock time of one plane execution (classify + run +
    /// respond).
    pub const EXEC: &str = "serve.exec";
    /// Value: per-request service time in microseconds (enqueue →
    /// response rendered).
    pub const SERVICE_US: &str = "serve.service_us";
    /// Counter: locally accepted strategy climbs this shard published
    /// to its peers via the strategy board.
    pub const SHARD_PUBLISHED: &str = "serve.shard.published";
    /// Counter: published strategies this shard adopted from a peer
    /// (fingerprint differed from its current program).
    pub const SHARD_ADOPTIONS: &str = "serve.shard.adoptions";
    /// Counter: jobs admitted at a non-home shard because the steered
    /// shard's queue was full (least-loaded fallback).
    pub const SHARD_STEER_FALLBACKS: &str = "serve.shard.steer_fallbacks";
    /// Counter: KB deltas applied by this shard (one per `update`
    /// request, regardless of how many facts it carried).
    pub const KB_DELTA_APPLIED: &str = "serve.kb.delta.applied";
    /// Counter: facts inserted by `update` requests (changed inserts
    /// only — re-asserting a present fact does not count).
    pub const KB_DELTA_INSERTED: &str = "serve.kb.delta.inserted";
    /// Counter: facts retracted by `update` requests (changed retracts
    /// only — retracting an absent fact does not count).
    pub const KB_DELTA_RETRACTED: &str = "serve.kb.delta.retracted";
}

/// Names shared by the cache layers (`qpl-engine` caches and their
/// serve-side consumers).
pub mod cache {
    /// Counter: cache entries invalidated *selectively* — dropped or
    /// repaired because a KB delta's dependency footprint intersected
    /// theirs, rather than by a wholesale generation flush.
    pub const SELECTIVE_INVALIDATIONS: &str = "cache.selective_invalidations";
}

/// Names emitted by the query planners: the statistics-free greedy
/// orderer (`qpl-core`) and the magic-set/SIP rewriter (`qpl-datalog`
/// via its `qpl-engine` driver). Consumed by `qpl_report`'s
/// schema-checked snapshot and the CI gates.
pub mod plan {
    /// Counter: wall-clock microseconds spent planning one greedy
    /// strategy (summed over calls; the per-call budget is < 1 ms,
    /// asserted in `bench_fourway`).
    pub const GREEDY_MICROS: &str = "plan.greedy.micros";
    /// Counter: rules in the magic-rewritten program (adorned rules +
    /// magic demand rules + EDB bridges), summed over rewrites.
    pub const MAGIC_RULES_GENERATED: &str = "plan.magic.rules_generated";
}

/// Names emitted by the bottom-up evaluators.
pub mod eval {
    /// Counter: facts the magic-rewritten fixpoint did *not* derive
    /// relative to unrewritten semi-naive saturation of the same
    /// query (full-model derivations minus magic derivations).
    pub const MAGIC_FACTS_PRUNED: &str = "eval.magic.facts_pruned";
}

/// Names emitted by the durability layer (`qpl-store` via its
/// `qpl-serve` owner, shard 0). Consumed by the `stats` endpoint's
/// merged metrics snapshot and the CI kill-restart smoke.
pub mod store {
    /// Counter: records appended to the write-ahead log (KB deltas +
    /// strategy fingerprints).
    pub const WAL_APPENDS: &str = "store.wal.appends";
    /// Counter: group-commit barriers issued (one per control batch
    /// that journaled at least one record).
    pub const WAL_COMMITS: &str = "store.wal.commits";
    /// Counter: checkpoints written (snapshot + WAL truncation).
    pub const CHECKPOINTS: &str = "store.checkpoints";
    /// Counter: WAL records replayed during recovery at startup.
    pub const RECOVERY_REPLAYED: &str = "store.recovery.records_replayed";
    /// Counter: store I/O failures that flipped the server into
    /// degraded mode (updates shed, reads still served).
    pub const DEGRADED: &str = "store.degraded";
}

/// Names emitted by the observability runtime about itself.
pub mod obs {
    /// Counter: events silently discarded by a bounded sink at its
    /// capacity cap (summed across merged sinks).
    pub const EVENTS_DROPPED: &str = "obs.events_dropped";
}

#[cfg(test)]
mod tests {
    #[test]
    fn serve_names_are_unique_and_prefixed() {
        let all = [
            super::serve::QUERIES,
            super::serve::BATCHES,
            super::serve::SHED,
            super::serve::ERRORS,
            super::serve::CLIMBS,
            super::serve::BATCH_FILL,
            super::serve::EXEC,
            super::serve::SERVICE_US,
            super::serve::SHARD_PUBLISHED,
            super::serve::SHARD_ADOPTIONS,
            super::serve::SHARD_STEER_FALLBACKS,
            super::serve::KB_DELTA_APPLIED,
            super::serve::KB_DELTA_INSERTED,
            super::serve::KB_DELTA_RETRACTED,
        ];
        for (i, a) in all.iter().enumerate() {
            assert!(a.starts_with("serve."), "{a} must carry the subsystem prefix");
            assert!(!all[i + 1..].contains(a), "duplicate name {a}");
        }
    }

    #[test]
    fn cross_module_names_are_prefixed_by_their_subsystem() {
        assert!(super::cache::SELECTIVE_INVALIDATIONS.starts_with("cache."));
        assert!(super::obs::EVENTS_DROPPED.starts_with("obs."));
        assert!(super::plan::GREEDY_MICROS.starts_with("plan."));
        assert!(super::plan::MAGIC_RULES_GENERATED.starts_with("plan."));
        assert!(super::eval::MAGIC_FACTS_PRUNED.starts_with("eval."));
    }

    #[test]
    fn store_names_are_unique_and_prefixed() {
        let all = [
            super::store::WAL_APPENDS,
            super::store::WAL_COMMITS,
            super::store::CHECKPOINTS,
            super::store::RECOVERY_REPLAYED,
            super::store::DEGRADED,
        ];
        for (i, a) in all.iter().enumerate() {
            assert!(a.starts_with("store."), "{a} must carry the subsystem prefix");
            assert!(!all[i + 1..].contains(a), "duplicate name {a}");
        }
    }

    #[test]
    fn planner_names_are_unique() {
        let all = [
            super::plan::GREEDY_MICROS,
            super::plan::MAGIC_RULES_GENERATED,
            super::eval::MAGIC_FACTS_PRUNED,
        ];
        for (i, a) in all.iter().enumerate() {
            assert!(!all[i + 1..].contains(a), "duplicate name {a}");
        }
    }
}
