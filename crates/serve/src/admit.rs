//! Admission control: bounded queues instead of unbounded ones.
//!
//! Without a policy, overload shows up as queue growth — every request
//! is accepted, latency climbs without bound, and the clients least
//! able to wait pay the most. An [`AdmissionPolicy`] turns overload
//! into explicit, typed outcomes at `embed_begin` time, driven by two
//! live load signals the engine already maintains: the in-flight
//! request [`Gauge`](fusedmm_perf::gauge::Gauge) and the batch queue's
//! row backlog.
//!
//! The policy is a two-step ladder rather than a single cliff:
//!
//! 1. **Degrade** — past a configurable fraction of the hard cap,
//!    `Exact` requests are downgraded to `CachedOnly` (when the engine
//!    has a result cache): they are answered from cached rows
//!    immediately, never touch the kernel queue, and carry per-row
//!    `served_degraded` marks so the caller knows what it got.
//! 2. **Shed** — at the hard cap the request is rejected with
//!    [`ServeError::Shed`](crate::ServeError::Shed) carrying the load
//!    levels that triggered it. Nothing is queued.
//!
//! Requests that already ask for a degraded tier pass through the
//! degrade rung unchanged — the ladder only ever lowers quality.
//!
//! An engine admits by the policy its config names, and admits every
//! request when it names none.

use crate::ticket::Quality;

/// The admission verdict for one request, decided before anything is
/// queued or counted in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Serve at the requested quality.
    Admit,
    /// Serve, but downgrade `Exact` to `CachedOnly` first.
    Degrade,
    /// Reject with `ServeError::Shed`.
    Shed,
}

/// Load limits for one serving front end (a single [`Engine`] or the
/// [`ShardedEngine`] front; band engines under a sharded front run
/// unlimited — the front already admitted the request).
///
/// A limit of `0` means "no limit" for that signal; `degrade_fraction
/// >= 1.0` disables the degrade rung.
///
/// [`Engine`]: crate::Engine
/// [`ShardedEngine`]: crate::ShardedEngine
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionPolicy {
    /// Hard cap on concurrently open tickets (the in-flight gauge).
    pub max_inflight: usize,
    /// Hard cap on rows sitting in the batch queue, summed over shards.
    pub max_queued_rows: usize,
    /// Fraction of either cap past which `Exact` requests are
    /// downgraded to `CachedOnly` instead of queued.
    pub degrade_fraction: f64,
}

impl Default for AdmissionPolicy {
    /// [`AdmissionPolicy::unlimited`].
    fn default() -> Self {
        AdmissionPolicy::unlimited()
    }
}

impl AdmissionPolicy {
    /// No limits: every request is admitted at its requested quality.
    pub fn unlimited() -> AdmissionPolicy {
        AdmissionPolicy { max_inflight: 0, max_queued_rows: 0, degrade_fraction: 1.0 }
    }

    fn over(&self, value: u64, cap: usize, fraction: f64) -> bool {
        cap > 0 && value >= (cap as f64 * fraction).ceil() as u64
    }

    /// Decide admission from the live load signals. `inflight` is the
    /// current open-ticket count, `queued_rows` the rows waiting in
    /// the batch queue(s).
    pub(crate) fn decide(&self, inflight: u64, queued_rows: usize) -> Admission {
        if self.over(inflight, self.max_inflight, 1.0)
            || self.over(queued_rows as u64, self.max_queued_rows, 1.0)
        {
            return Admission::Shed;
        }
        if self.degrade_fraction < 1.0
            && (self.over(inflight, self.max_inflight, self.degrade_fraction)
                || self.over(queued_rows as u64, self.max_queued_rows, self.degrade_fraction))
        {
            return Admission::Degrade;
        }
        Admission::Admit
    }

    /// Apply the ladder to a requested quality: `Degrade` lowers
    /// `Exact` to `CachedOnly` when the engine can serve that tier
    /// (`has_cache`); already-degraded requests pass unchanged.
    pub(crate) fn downgrade(quality: Quality, has_cache: bool) -> Quality {
        match quality {
            Quality::Exact if has_cache => Quality::CachedOnly,
            q => q,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_admits_everything() {
        let p = AdmissionPolicy::unlimited();
        assert_eq!(p.decide(1 << 40, usize::MAX), Admission::Admit);
    }

    #[test]
    fn ladder_degrades_before_shedding() {
        let p = AdmissionPolicy { max_inflight: 8, max_queued_rows: 0, degrade_fraction: 0.75 };
        assert_eq!(p.decide(0, 0), Admission::Admit);
        assert_eq!(p.decide(5, 0), Admission::Admit);
        assert_eq!(p.decide(6, 0), Admission::Degrade, "75% of 8");
        assert_eq!(p.decide(7, 0), Admission::Degrade);
        assert_eq!(p.decide(8, 0), Admission::Shed);
        assert_eq!(p.decide(9, 0), Admission::Shed);
    }

    #[test]
    fn queued_rows_cap_sheds_independently() {
        let p = AdmissionPolicy { max_inflight: 0, max_queued_rows: 100, degrade_fraction: 1.0 };
        assert_eq!(p.decide(1 << 20, 99), Admission::Admit, "no inflight cap");
        assert_eq!(p.decide(0, 100), Admission::Shed);
    }

    #[test]
    fn downgrade_only_lowers_exact_with_a_cache() {
        assert_eq!(AdmissionPolicy::downgrade(Quality::Exact, true), Quality::CachedOnly);
        assert_eq!(AdmissionPolicy::downgrade(Quality::Exact, false), Quality::Exact);
        assert_eq!(
            AdmissionPolicy::downgrade(Quality::TopKNeighbors(4), true),
            Quality::TopKNeighbors(4)
        );
        assert_eq!(AdmissionPolicy::downgrade(Quality::CachedOnly, true), Quality::CachedOnly);
    }
}
