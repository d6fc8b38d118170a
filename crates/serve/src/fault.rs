//! Fault injection: deterministic failures for chaos testing.
//!
//! Resilience claims need adversarial evidence, not just happy-path
//! tests. A [`FaultPlan`] injects three failure modes at the exact
//! boundaries the engine hardens:
//!
//! * **panic-on-nth-batch** — a band's launch panics (via
//!   [`InjectedFault`]) on every `n`-th kernel launch, exercising the
//!   catch-at-the-shard-boundary path, the per-part `Panicked` reply,
//!   and the one-shot retry before `PartFailed` surfaces;
//! * **delayed fills** — cache back-fills sleep before completing,
//!   widening the window where coalesced waiters and invalidation
//!   race;
//! * **poisoned cache segment** — fills landing in one lock stripe are
//!   aborted instead of completed, so coalesced waiters on that stripe
//!   find their slots closed (their tickets fail `PartFailed`) and
//!   owners' rows never become resident.
//!
//! An engine injects the plan its config names, and none when it names
//! none; plans are built with [`FaultPlan::parse`] (the serving
//! example parses the chaos CI job's `FUSEDMM_FAULT_PLAN` this way).
//! A fault plan never changes *what* a healthy request computes — only
//! whether a given launch or fill survives — so Exact-tier responses
//! that do survive stay bit-identical to a fault-free run.

use std::sync::Once;
use std::time::Duration;

/// Panic payload used by injected launch faults, so the panic hook
/// and `catch_unwind` site can tell deliberate chaos from real bugs.
#[derive(Debug, Clone, Copy)]
pub struct InjectedFault;

/// A deterministic failure schedule, applied per engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Panic on every n-th kernel launch (launch sequence numbers
    /// divisible by `n`, starting at 0). `n == 1` fails every launch —
    /// including retries — so `PartFailed` becomes terminal.
    panic_every: Option<u64>,
    /// Sleep this long before completing each cache back-fill.
    delay_fill: Option<Duration>,
    /// Abort (instead of complete) fills landing in this cache lock
    /// stripe (`node % segments`).
    poison_segment: Option<usize>,
    /// RPC transport hook: deliberately sever a worker connection on
    /// every n-th request frame (sequence numbers from 1), exercising
    /// the coordinator's reconnect + epoch-log catch-up path.
    drop_conn_every: Option<u64>,
    /// RPC transport hook: stall this long before writing each frame,
    /// widening the window where disconnects and epoch records race
    /// in-flight requests.
    delay_frame: Option<Duration>,
}

impl FaultPlan {
    /// The no-faults plan: what an engine configured with no plan runs.
    pub fn disabled() -> FaultPlan {
        FaultPlan::default()
    }

    /// Parse a comma-separated spec:
    /// `panic_every=<n>,delay_fill_us=<micros>,poison_segment=<s>,`
    /// `drop_conn_every=<n>,delay_frame_us=<micros>` (each key
    /// optional).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (key, value) = item
                .split_once('=')
                .ok_or_else(|| format!("fault plan item `{item}` is not key=value"))?;
            let parsed: u64 = value
                .trim()
                .parse()
                .map_err(|_| format!("fault plan `{key}` value `{value}` is not an integer"))?;
            match key.trim() {
                "panic_every" => {
                    if parsed == 0 {
                        return Err("panic_every must be >= 1".into());
                    }
                    plan.panic_every = Some(parsed);
                }
                "delay_fill_us" => plan.delay_fill = Some(Duration::from_micros(parsed)),
                "poison_segment" => plan.poison_segment = Some(parsed as usize),
                "drop_conn_every" => {
                    if parsed == 0 {
                        return Err("drop_conn_every must be >= 1".into());
                    }
                    plan.drop_conn_every = Some(parsed);
                }
                "delay_frame_us" => plan.delay_frame = Some(Duration::from_micros(parsed)),
                other => return Err(format!("unknown fault plan key `{other}`")),
            }
        }
        Ok(plan)
    }

    /// True when any fault is scheduled.
    pub fn is_active(&self) -> bool {
        self.panic_every.is_some()
            || self.delay_fill.is_some()
            || self.poison_segment.is_some()
            || self.drop_conn_every.is_some()
            || self.delay_frame.is_some()
    }

    /// Dispatcher hook: panic if launch `seq` is scheduled to fail.
    pub(crate) fn maybe_panic(&self, seq: u64) {
        if let Some(n) = self.panic_every {
            if seq.is_multiple_of(n) {
                std::panic::panic_any(InjectedFault);
            }
        }
    }

    /// Cache-fill hook: how long to stall before completing fills.
    pub(crate) fn fill_delay(&self) -> Option<Duration> {
        self.delay_fill
    }

    /// Cache-fill hook: the poisoned lock stripe, if any.
    pub(crate) fn poisoned_segment(&self) -> Option<usize> {
        self.poison_segment
    }

    /// RPC transport hook: sever the connection on every n-th request
    /// frame, when scheduled. Public — the transport crate sits above
    /// this one.
    pub fn conn_drop_every(&self) -> Option<u64> {
        self.drop_conn_every
    }

    /// RPC transport hook: how long to stall before each frame write.
    pub fn frame_delay(&self) -> Option<Duration> {
        self.delay_frame
    }
}

/// Install a process-wide panic hook that stays silent for
/// [`InjectedFault`] payloads (they are caught at the dispatch
/// boundary by design) while forwarding every other panic to the
/// previous hook. Idempotent; chaos tests and the example call it
/// before injecting faults so expected panics don't spam stderr.
pub fn quiet_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<InjectedFault>() {
                return;
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let plan = FaultPlan::parse(
            "panic_every=3, delay_fill_us=200,poison_segment=1,drop_conn_every=5,delay_frame_us=50",
        )
        .unwrap();
        assert_eq!(
            plan,
            FaultPlan {
                panic_every: Some(3),
                delay_fill: Some(Duration::from_micros(200)),
                poison_segment: Some(1),
                drop_conn_every: Some(5),
                delay_frame: Some(Duration::from_micros(50)),
            }
        );
        assert!(plan.is_active());
        assert_eq!(plan.conn_drop_every(), Some(5));
        assert_eq!(plan.frame_delay(), Some(Duration::from_micros(50)));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("panic_every").is_err());
        assert!(FaultPlan::parse("panic_every=zero").is_err());
        assert!(FaultPlan::parse("panic_every=0").is_err());
        assert!(FaultPlan::parse("drop_conn_every=0").is_err());
        assert!(FaultPlan::parse("warp_core_breach=1").is_err());
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::disabled());
    }

    #[test]
    fn panic_schedule_fires_on_multiples() {
        quiet_injected_panics();
        let plan = FaultPlan::parse("panic_every=3").unwrap();
        for seq in 0..7u64 {
            let hit = std::panic::catch_unwind(|| plan.maybe_panic(seq)).is_err();
            assert_eq!(hit, seq % 3 == 0, "seq {seq}");
        }
        let calm = FaultPlan::disabled();
        assert!(std::panic::catch_unwind(|| calm.maybe_panic(0)).is_ok());
    }

    #[test]
    fn injected_payload_is_recognizable() {
        quiet_injected_panics();
        let err = std::panic::catch_unwind(|| std::panic::panic_any(InjectedFault))
            .expect_err("panicked");
        assert!(err.is::<InjectedFault>());
    }
}
