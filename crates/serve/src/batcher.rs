//! Dynamic batcher + admission controller: a bounded FIFO of jobs that
//! coalesces into 64-lane planes.
//!
//! The batcher is a *synchronous state machine* — it never touches a
//! clock or a thread by itself. Callers pass `Instant`s in, which keeps
//! every transition deterministic and directly testable (the proptest
//! in `tests/batcher_props.rs` drives it with synthetic clocks).
//!
//! ## State machine
//!
//! ```text
//!          offer(job, now)                    cut_plane()
//! client ──────────────────▶ [FIFO queue] ──────────────────▶ executor
//!              │                  │
//!              │ queue full       │ ready(now, max_wait) when
//!              ▼                  │   · ≥ LANES lanes queued (a full
//!          Err(job)               │     plane exists), or
//!        ("overloaded")           │   · the oldest job has waited
//!                                 ▼     ≥ max_wait (flush deadline)
//! ```
//!
//! * **Admission** is lane-denominated: a queue holds at most
//!   `cap_lanes` query lanes summed over jobs. [`Batcher::offer`]
//!   returns the job back (`Err`) when it does not fit — the caller
//!   sheds it with an `overloaded` response. A job is never partially
//!   admitted.
//! * **Readiness** ([`Batcher::ready`]) fires on *fullness* (≥
//!   [`LANES`] lanes queued) or *staleness* (the oldest job has waited
//!   `max_wait`), so single queries are never starved behind an
//!   unfilled plane.
//! * **Cutting** ([`Batcher::cut_plane`]) pops whole jobs FIFO until
//!   the next job would overflow the plane. Jobs are never split across
//!   planes (each is at most [`LANES`] lanes wide, enforced at request
//!   parse time), so a batch request's lanes always execute together.
//!   A plane holds at most [`LANES`] lanes, one `u64` word per arc,
//!   whatever the queue depth: a backlog drains as several 64-lane cuts.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use qpl_graph::batch::LANES;

/// Plane width, in 64-lane words, to cut at any queue depth: always 1.
///
/// Kept as a stable name for callers that size a cut as
/// `plane_width_for_depth(depth) * LANES` (the serving benchmark's
/// replay does); every plane is one 64-lane word, so the product is
/// always [`LANES`].
pub fn plane_width_for_depth(_lanes_queued: usize) -> usize {
    1
}

/// How many plane lanes a queued job occupies (its query count).
pub trait LaneWeight {
    /// Lanes this job needs, `1..=LANES`.
    fn lanes(&self) -> usize;
}

/// Bounded FIFO of jobs with lane-denominated admission and
/// deadline-or-fullness plane cutting.
#[derive(Debug)]
pub struct Batcher<T> {
    queue: VecDeque<(T, Instant)>,
    lanes_queued: usize,
    cap_lanes: usize,
    shed: u64,
    admitted: u64,
}

impl<T: LaneWeight> Batcher<T> {
    /// An empty batcher admitting at most `cap_lanes` queued lanes.
    pub fn new(cap_lanes: usize) -> Self {
        Self { queue: VecDeque::new(), lanes_queued: 0, cap_lanes, shed: 0, admitted: 0 }
    }

    /// Admits `job` (stamped with arrival time `now`) or sheds it.
    ///
    /// # Errors
    /// Returns the job back when admitting it would exceed the lane
    /// cap; the caller owes the client an `overloaded` response.
    pub fn offer(&mut self, job: T, now: Instant) -> Result<(), T> {
        let w = job.lanes();
        debug_assert!(
            (1..=LANES).contains(&w),
            "jobs are 1..=LANES lanes wide (enforced at request parse)"
        );
        if self.lanes_queued + w > self.cap_lanes {
            self.shed += 1;
            return Err(job);
        }
        self.lanes_queued += w;
        self.admitted += 1;
        self.queue.push_back((job, now));
        Ok(())
    }

    /// Whether a plane should be cut now: a full plane is queued, or
    /// the oldest job has waited at least `max_wait`.
    pub fn ready(&self, now: Instant, max_wait: Duration) -> bool {
        if self.lanes_queued >= LANES {
            return true;
        }
        match self.queue.front() {
            Some((_, arrived)) => now.duration_since(*arrived) >= max_wait,
            None => false,
        }
    }

    /// When the oldest queued job hits its flush deadline (`None` when
    /// empty) — what an executor sleeps until.
    pub fn deadline(&self, max_wait: Duration) -> Option<Instant> {
        self.queue.front().map(|(_, arrived)| *arrived + max_wait)
    }

    /// Pops whole jobs FIFO into `out` (cleared first) until the
    /// 64-lane plane is full or the next job would not fit. Returns the
    /// lane total. Empty queue → 0 lanes, empty `out`.
    ///
    /// `max_lanes` is ignored: a cut never holds more than [`LANES`]
    /// lanes, whatever the caller asks for. The parameter stays so that
    /// callers written against a capacity argument (the serving
    /// benchmark's replay) keep compiling; the server passes [`LANES`].
    pub fn cut_plane(&mut self, _max_lanes: usize, out: &mut Vec<(T, Instant)>) -> usize {
        out.clear();
        let mut lanes = 0usize;
        while let Some((job, _)) = self.queue.front() {
            let w = job.lanes();
            if lanes + w > LANES {
                break;
            }
            lanes += w;
            out.push(self.queue.pop_front().expect("front exists"));
            if lanes == LANES {
                break;
            }
        }
        self.lanes_queued -= lanes;
        lanes
    }

    /// Jobs currently queued.
    pub fn jobs_queued(&self) -> usize {
        self.queue.len()
    }

    /// Lanes currently queued (summed over jobs).
    pub fn lanes_queued(&self) -> usize {
        self.lanes_queued
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Jobs shed since construction.
    pub fn shed_count(&self) -> u64 {
        self.shed
    }

    /// Jobs admitted since construction.
    pub fn admitted_count(&self) -> u64 {
        self.admitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct J(usize);
    impl LaneWeight for J {
        fn lanes(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn admission_sheds_past_the_lane_cap() {
        let t0 = Instant::now();
        let mut b = Batcher::new(10);
        assert!(b.offer(J(6), t0).is_ok());
        assert!(b.offer(J(4), t0).is_ok());
        let rejected = b.offer(J(1), t0);
        assert!(rejected.is_err(), "cap is lanes, not jobs");
        assert_eq!(b.shed_count(), 1);
        assert_eq!(b.admitted_count(), 2);
        assert_eq!(b.lanes_queued(), 10);
    }

    #[test]
    fn readiness_fires_on_fullness_or_staleness() {
        let t0 = Instant::now();
        let wait = Duration::from_millis(5);
        let mut b = Batcher::new(1000);
        assert!(!b.ready(t0, wait), "empty queue is never ready");
        b.offer(J(1), t0).unwrap();
        assert!(!b.ready(t0, wait), "one fresh lane is not ready");
        assert!(b.ready(t0 + wait, wait), "stale lane flushes");
        assert_eq!(b.deadline(wait), Some(t0 + wait));
        for _ in 0..63 {
            b.offer(J(1), t0).unwrap();
        }
        assert!(b.ready(t0, wait), "full plane is ready immediately");
    }

    #[test]
    fn cut_plane_pops_whole_jobs_up_to_64_lanes() {
        let t0 = Instant::now();
        let mut b = Batcher::new(1000);
        b.offer(J(40), t0).unwrap();
        b.offer(J(20), t0).unwrap();
        b.offer(J(10), t0).unwrap(); // would overflow: stays queued
        b.offer(J(4), t0).unwrap(); // FIFO: not reordered around the 10
        let mut out = Vec::new();
        assert_eq!(b.cut_plane(LANES, &mut out), 60);
        assert_eq!(out.len(), 2, "jobs are never split and never reordered");
        assert_eq!(b.lanes_queued(), 14);
        assert_eq!(b.cut_plane(LANES, &mut out), 14);
        assert!(b.is_empty());
        assert_eq!(b.cut_plane(LANES, &mut out), 0);
    }

    #[test]
    fn exact_fill_stops_at_the_plane_boundary() {
        let t0 = Instant::now();
        let mut b = Batcher::new(1000);
        for _ in 0..70 {
            b.offer(J(1), t0).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(b.cut_plane(LANES, &mut out), LANES);
        assert_eq!(out.len(), LANES);
        assert_eq!(b.lanes_queued(), 6);
    }

    #[test]
    fn a_backlog_drains_one_64_lane_plane_per_cut() {
        let t0 = Instant::now();
        let mut b = Batcher::new(1000);
        for _ in 0..5 {
            b.offer(J(60), t0).unwrap();
        }
        assert_eq!(plane_width_for_depth(b.lanes_queued()), 1, "every depth cuts one word");
        let mut out = Vec::new();
        for left in (0..5).rev() {
            assert_eq!(b.cut_plane(plane_width_for_depth(b.lanes_queued()) * LANES, &mut out), 60);
            assert_eq!(b.jobs_queued(), left);
        }
    }

    #[test]
    fn cut_plane_never_exceeds_one_plane_whatever_the_capacity_asked() {
        let t0 = Instant::now();
        let mut b = Batcher::new(2000);
        for _ in 0..20 {
            b.offer(J(64), t0).unwrap();
        }
        let mut out = Vec::new();
        for asked in [0, 1, LANES, LANES + 1, 512, usize::MAX] {
            assert_eq!(b.cut_plane(asked, &mut out), LANES, "asked for {asked}");
            assert_eq!(out.len(), 1);
        }
    }
}
