//! The driver's one wait loop: the table of pending operations and the
//! pump that drives each of them to a reply or a verdict (see the
//! [module docs](super) on loss and fault tolerance).

use super::driver::Driver;
use super::{ClusterError, DRIVER_PEER};
use crate::transport::{PeerId, Transport};
use crate::wire::WireMsg;
use rand::RngExt;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Budget of a push barrier: a view or service push is resent until
/// acked, its host dies, or this long has passed.
pub(super) const SYNC_DEADLINE: Duration = Duration::from_secs(60);
/// Pushes are resent on the policy's cadence clamped to this range, so a
/// zeroed knob cannot flood a barrier's worth of frames and a slow one
/// cannot stall it.
const PUSH_RESEND_MIN: Duration = Duration::from_millis(2);
const PUSH_RESEND_MAX: Duration = Duration::from_millis(200);

/// Retry discipline of driver-issued requests: exponential backoff with
/// deterministic seeded jitter, bounded per attempt and per operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Timeout of the first attempt.
    pub base: Duration,
    /// Multiplier applied to each further attempt's timeout.
    pub factor: f64,
    /// Ceiling of any single attempt's timeout.
    pub max_timeout: Duration,
    /// Maximum number of attempts per operation.
    pub attempts: u32,
    /// Budget of the whole operation across attempts, on the transport's
    /// clock: once exceeded the operation fails even if attempts remain.
    pub budget: Duration,
    /// Jitter amplitude: each attempt's timeout is scaled by a factor
    /// drawn uniformly from `1 ± jitter/2` (`0.0` disables jitter).
    pub jitter: f64,
    /// Seed of the jitter stream, so retry timing replays exactly.
    pub seed: u64,
    /// Fast-retransmit interval *within* an attempt: while waiting for
    /// an answer the driver re-sends the pending request frame on this
    /// cadence instead of eating the whole attempt timeout when a single
    /// frame is lost.  Every request the driver issues is idempotent
    /// (token-matched answers, stateless route restarts, seq-filtered
    /// pushes), so a duplicate delivery is harmless.
    pub resend: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: Duration::from_secs(2),
            factor: 2.0,
            max_timeout: Duration::from_secs(8),
            attempts: 5,
            budget: Duration::from_secs(30),
            jitter: 0.0,
            seed: 0x5EED,
            resend: Duration::from_millis(25),
        }
    }
}

impl RetryPolicy {
    /// A tight policy for chaos runs and tests: small timeouts, small
    /// budget, jittered — fails fast instead of stalling a scenario.
    /// The retransmit cadence is sub-millisecond, matched to in-process
    /// transports where a healthy round trip is microseconds.
    pub fn tight() -> Self {
        RetryPolicy {
            base: Duration::from_millis(120),
            factor: 2.0,
            max_timeout: Duration::from_millis(500),
            attempts: 4,
            budget: Duration::from_secs(3),
            jitter: 0.25,
            seed: 0x5EED,
            resend: Duration::from_micros(250),
        }
    }

    /// The ladder of a request; the retransmit interval is floored so a
    /// zeroed knob can never spin the transport at full speed.
    pub(super) fn requests(&self) -> Ladder {
        Ladder {
            max_attempts: self.attempts.max(1),
            resend: self.resend.max(Duration::from_micros(50)),
            budget: self.budget,
        }
    }

    /// The ladder of a push: resent until acked, however many attempt
    /// windows that takes, within the barrier `deadline`.
    pub(super) fn pushes(&self, deadline: Duration) -> Ladder {
        Ladder {
            max_attempts: u32::MAX,
            resend: self.resend.clamp(PUSH_RESEND_MIN, PUSH_RESEND_MAX),
            budget: deadline,
        }
    }
}

/// The timer values an entry is queued with — all that tells a push from
/// a request once it is in the table.
#[derive(Debug, Clone, Copy)]
pub(super) struct Ladder {
    /// Attempt windows before the entry gives up.
    pub(super) max_attempts: u32,
    /// Gap between retransmissions within one attempt window.
    pub(super) resend: Duration,
    /// Time from admission after which the entry gives up.
    pub(super) budget: Duration,
}

/// What finishes a pending op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Completes {
    /// Any answer frame carrying this correlation token.
    Token(u64),
    /// The `ViewAck`/`EvictAck` of this `(object, seq)` push.
    ViewAck(u64, u64),
    /// The `SvcAck` of this `(object, seq)` push.
    SvcAck(u64, u64),
    /// A `StatsReply` from this peer.
    Stats(PeerId),
}

/// What a frame received from `from` completes; `None` for frames that
/// answer nothing (a pong, a host-bound message).
fn completes(from: PeerId, msg: &WireMsg<'_>) -> Option<Completes> {
    Some(match *msg {
        WireMsg::AnswerOwner { token, .. }
        | WireMsg::AnswerMatches { token, .. }
        | WireMsg::SvcKvValue { token, .. }
        | WireMsg::SvcKvReplicaValue { token, .. } => Completes::Token(token),
        WireMsg::ViewAck { object, seq } | WireMsg::EvictAck { object, seq } => {
            Completes::ViewAck(object, seq)
        }
        WireMsg::SvcAck { object, seq } => Completes::SvcAck(object, seq),
        WireMsg::StatsReply { .. } => Completes::Stats(from),
        _ => return None,
    })
}

/// What an entry's timers ask for at some instant: nothing, a
/// retransmission within the attempt window, the next attempt window, or
/// giving up (out of attempts or past the deadline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Due {
    Wait,
    Resend,
    NextAttempt,
    GiveUp,
}

/// One operation the driver is waiting on.
#[derive(Debug)]
struct PendingOp {
    peer: PeerId,
    /// The pre-encoded frame, as a span of [`PendingTable::frames`].
    frame: Range<usize>,
    completes: Completes,
    what: &'static str,
    ladder: Ladder,
    attempt: u32,
    /// When the pump admitted the op into its window (first send).
    issued: Instant,
    attempt_started: Instant,
    timeout: Duration,
    last_send: Instant,
}

impl PendingOp {
    /// The timer decision at `now`.  Pure, so the ladder is tested with
    /// fabricated instants.
    fn due(&self, now: Instant) -> Due {
        if now.duration_since(self.issued) > self.ladder.budget {
            Due::GiveUp
        } else if now.duration_since(self.attempt_started) >= self.timeout {
            if self.attempt.saturating_add(1) >= self.ladder.max_attempts {
                Due::GiveUp
            } else {
                Due::NextAttempt
            }
        } else if now.duration_since(self.last_send) >= self.ladder.resend {
            Due::Resend
        } else {
            Due::Wait
        }
    }
}

/// Spin-then-sleep schedule of the pump's idle turns: the first ones
/// only yield (sub-millisecond answers stay fast), then the wait grows
/// exponentially up to `ceiling`, so a lossy wait doesn't burn a core.
/// A received frame zeroes `idle`.
#[derive(Debug, Default)]
struct Backoff {
    idle: u32,
    ceiling: Duration,
}

const BACKOFF_SPINS: u32 = 64;
const BACKOFF_SLEEP_FLOOR: Duration = Duration::from_micros(50);
const BACKOFF_SLEEP_CEIL: Duration = Duration::from_millis(1);

impl Backoff {
    /// The next idle turn's wait for [`Transport::idle`]; zero yields.
    fn next(&mut self) -> Duration {
        let wait = match self.idle.checked_sub(BACKOFF_SPINS) {
            None => Duration::ZERO,
            Some(sleeps) => (BACKOFF_SLEEP_FLOOR * (1 << sleeps.min(8))).min(self.ceiling),
        };
        self.idle = self.idle.saturating_add(1);
        wait
    }
}

/// The driver's pending operations: queued entries in order, the ones
/// currently inside the pump's window, and every entry's frame.  Emptied
/// at the end of each [`Driver::pump`], so the buffers are reused.
#[derive(Debug)]
pub(super) struct PendingTable {
    ops: Vec<PendingOp>,
    /// Every queued op's encoded frame, back to back.
    frames: Vec<u8>,
    /// Indices into `ops` of the admitted, unfinished entries.
    inflight: Vec<usize>,
    /// The first entry not yet admitted.
    next: usize,
    backoff: Backoff,
    /// What a queued entry's timers read until its admission stamps
    /// them, so queueing reads no clock: the driver's start.
    unstamped: Instant,
}

impl PendingTable {
    pub(super) fn new(start: Instant) -> Self {
        PendingTable {
            ops: Vec::new(),
            frames: Vec::new(),
            inflight: Vec::new(),
            next: 0,
            backoff: Backoff::default(),
            unstamped: start,
        }
    }
}

/// How a finished op is handed back: its queue position, the frame that
/// completed it or why none did, and the time since its admission.
pub(super) type OnDone<'a> = &'a mut dyn FnMut(usize, Result<&WireMsg<'_>, ClusterError>, Duration);

impl<T: Transport> Driver<T> {
    /// Encodes `msg` for `peer` and queues it as a pending op for the
    /// next [`Self::pump`].
    pub(super) fn queue(
        &mut self,
        peer: PeerId,
        msg: WireMsg<'_>,
        completes: Completes,
        what: &'static str,
        ladder: Ladder,
    ) {
        msg.encode(DRIVER_PEER, peer, &mut self.buf)
            .expect("requests are tiny and views of a bounded-degree node fit one frame");
        let start = self.table.frames.len();
        self.table.frames.extend_from_slice(&self.buf);
        let unstamped = self.table.unstamped;
        self.table.ops.push(PendingOp {
            peer,
            frame: start..self.table.frames.len(),
            completes,
            what,
            ladder,
            attempt: 0,
            issued: unstamped,
            attempt_started: unstamped,
            timeout: Duration::ZERO,
            last_send: unstamped,
        });
    }

    /// One failure-detector round without an overlay operation — pump
    /// rounds with nothing pending: drains pending frames, then pings due
    /// hosts.  A chaos harness calls this in a loop to converge detection
    /// of a crash or of a restart.
    pub fn heartbeat(&mut self) -> Result<(), ClusterError> {
        while self.round(&mut |_, _, _| {})? {}
        Ok(())
    }

    /// Drives every queued op to its verdict with at most `window` of
    /// them in flight, reporting each through `on_done` as it finishes,
    /// and leaves the table empty.  A dead host is `Unavailable`, an
    /// exhausted ladder a `Timeout`; only a transport failure fails the
    /// pump itself.
    pub(super) fn pump(&mut self, window: usize, on_done: OnDone<'_>) -> Result<(), ClusterError> {
        // Idle sleeps stay below every entry's retransmit cadence, so a
        // due resend is never slept past.
        let cadence = self.table.ops.iter().map(|op| op.ladder.resend / 2).min();
        self.table.backoff = Backoff {
            idle: 0,
            ceiling: cadence.map_or(BACKOFF_SLEEP_CEIL, |c| c.min(BACKOFF_SLEEP_CEIL)),
        };
        let result = self.drain_table(window.max(1), on_done);
        self.table.ops.clear();
        self.table.frames.clear();
        self.table.inflight.clear();
        self.table.next = 0;
        result
    }

    fn drain_table(&mut self, window: usize, on_done: OnDone<'_>) -> Result<(), ClusterError> {
        loop {
            while self.table.inflight.len() < window && self.table.next < self.table.ops.len() {
                let idx = self.table.next;
                self.table.next += 1;
                let now = self.t.now();
                let op = &mut self.table.ops[idx];
                op.issued = now;
                if self.detector.is_dead(op.peer) {
                    let dead = ClusterError::Unavailable(op.what);
                    self.fail(idx, dead, now, on_done);
                } else {
                    self.table.inflight.push(idx);
                    self.start_attempt(idx, now)?;
                }
            }
            if self.table.inflight.is_empty() {
                return Ok(());
            }
            self.round(on_done)?;
        }
    }

    /// One turn of the pump; returns whether a frame was received.  A
    /// received frame completes the in-flight entry it answers, if any.
    /// With nothing to receive the turn is spent on upkeep: ping the hosts
    /// whose window elapsed, fail the entries whose host is dead, act on
    /// every other entry's timers, poll the transport and idle for the
    /// backoff's wait.
    pub(super) fn round(&mut self, on_done: OnDone<'_>) -> Result<bool, ClusterError> {
        if let Some((from, now)) = self.recv_noted()? {
            self.table.backoff.idle = 0;
            let Ok((_, msg)) = WireMsg::decode(&self.buf) else {
                return Ok(true);
            };
            // A pong answers nothing; a stale token or a late ack of an
            // earlier barrier finds no entry.  Neither completes anything.
            let Some(key) = completes(from, &msg) else {
                return Ok(true);
            };
            let ops = &self.table.ops;
            let mut inflight = self.table.inflight.iter();
            if let Some(pos) = inflight.position(|&i| ops[i].completes == key) {
                let idx = self.table.inflight.swap_remove(pos);
                on_done(idx, Ok(&msg), now.duration_since(ops[idx].issued));
            }
            return Ok(true);
        }
        let now = self.t.now();
        for peer in self.detector.due_pings(now) {
            WireMsg::Ping { reply: false }
                .encode(DRIVER_PEER, peer, &mut self.buf)
                .expect("ping is tiny");
            self.t.send(peer, &self.buf)?;
        }
        let mut pos = 0;
        while pos < self.table.inflight.len() {
            let idx = self.table.inflight[pos];
            let op = &mut self.table.ops[idx];
            let verdict = if self.detector.is_dead(op.peer) {
                Some(ClusterError::Unavailable(op.what))
            } else {
                match op.due(now) {
                    Due::Wait => None,
                    Due::Resend => {
                        op.last_send = now;
                        self.stats.fast_resends += 1;
                        self.t.send(op.peer, &self.table.frames[op.frame.clone()])?;
                        None
                    }
                    Due::NextAttempt => {
                        op.attempt += 1;
                        self.stats.retries += 1;
                        self.start_attempt(idx, now)?;
                        None
                    }
                    Due::GiveUp => Some(ClusterError::Timeout(op.what)),
                }
            };
            match verdict {
                Some(err) => {
                    self.table.inflight.swap_remove(pos);
                    self.fail(idx, err, now, on_done);
                }
                None => pos += 1,
            }
        }
        self.t.poll()?;
        let wait = self.table.backoff.next();
        self.t.idle(wait);
        Ok(false)
    }

    /// `recv_into` with the piggybacked-liveness hook: every received
    /// frame marks its sender heard.
    fn recv_noted(&mut self) -> Result<Option<(PeerId, Instant)>, ClusterError> {
        let Some(from) = self.t.recv_into(&mut self.buf)? else {
            return Ok(None);
        };
        let now = self.t.now();
        self.detector.heard(from, now);
        Ok(Some((from, now)))
    }

    /// Opens entry `idx`'s current attempt window and sends its frame.
    fn start_attempt(&mut self, idx: usize, now: Instant) -> Result<(), ClusterError> {
        let timeout = self.attempt_timeout(self.table.ops[idx].attempt);
        let op = &mut self.table.ops[idx];
        op.timeout = timeout;
        op.attempt_started = now;
        op.last_send = now;
        self.t.send(op.peer, &self.table.frames[op.frame.clone()])?;
        Ok(())
    }

    /// Finishes entry `idx` without a reply.  A dead host fails a request
    /// fast and drops a push (the barrier must not stall on a host that
    /// cannot ack; the driver re-ships dropped state if it comes back,
    /// and replays the KV drops it skipped).
    fn fail(&mut self, idx: usize, err: ClusterError, now: Instant, on_done: OnDone<'_>) {
        let op = &self.table.ops[idx];
        match (&err, op.completes) {
            (ClusterError::Unavailable(_), Completes::ViewAck(..) | Completes::SvcAck(..)) => {
                self.stats.skipped_pushes += 1;
                let frame = WireMsg::decode(&self.table.frames[op.frame.clone()]);
                if let Ok((_, WireMsg::SvcKvDrop { object, key, .. })) = frame {
                    self.missed_drops.insert((object, key));
                }
            }
            (ClusterError::Unavailable(_), _) => self.stats.fail_fast += 1,
            _ => {}
        }
        on_done(idx, Err(err), now.duration_since(op.issued));
    }

    /// The per-attempt timeout of the retry policy: exponential in the
    /// attempt number, capped, jittered from the seeded stream.
    fn attempt_timeout(&mut self, attempt: u32) -> Duration {
        let exp = self.policy.base.as_secs_f64() * self.policy.factor.powi(attempt.min(20) as i32);
        let capped = exp.min(self.policy.max_timeout.as_secs_f64());
        let scaled = if self.policy.jitter > 0.0 {
            capped * (1.0 + self.policy.jitter * (self.jitter_rng.random::<f64>() - 0.5))
        } else {
            capped
        };
        Duration::from_secs_f64(scaled.max(1e-4))
    }
}

#[cfg(test)]
mod tests {
    use super::super::scripted::{scripted, Scripted};
    use super::super::{HostState, Liveness, OpOutcome};
    use super::*;
    use crate::wire::WirePurpose;
    use voronet_core::{RouteScratch, VoroNetConfig};
    use voronet_sim::TransportStats;
    use voronet_workloads::{Distribution, PointGenerator, WorkloadOp};

    const MS: Duration = Duration::from_millis(1);

    /// An entry admitted at `t0` with the given ladder and a 40 ms
    /// first-attempt timeout.
    fn entry(t0: Instant, ladder: Ladder) -> PendingOp {
        PendingOp {
            peer: 1,
            frame: 0..0,
            completes: Completes::Token(7),
            what: "test",
            ladder,
            attempt: 0,
            issued: t0,
            attempt_started: t0,
            timeout: 40 * MS,
            last_send: t0,
        }
    }

    #[test]
    fn the_timer_decision_follows_the_ladder() {
        let t0 = Instant::now();
        let request = Ladder {
            max_attempts: 3,
            resend: 10 * MS,
            budget: 100 * MS,
        };
        let mut op = entry(t0, request);
        // Within an attempt: resend at the interval and never before.
        assert_eq!(op.due(t0), Due::Wait);
        assert_eq!(op.due(t0 + 10 * MS - Duration::from_nanos(1)), Due::Wait);
        assert_eq!(op.due(t0 + 10 * MS), Due::Resend);
        op.last_send = t0 + 10 * MS;
        assert_eq!(op.due(t0 + 19 * MS), Due::Wait);
        assert_eq!(op.due(t0 + 20 * MS), Due::Resend);
        // The ladder advances at the attempt timeout, not before, and
        // takes precedence over a due resend.
        assert_eq!(op.due(t0 + 40 * MS - Duration::from_nanos(1)), Due::Resend);
        assert_eq!(op.due(t0 + 40 * MS), Due::NextAttempt);
        (op.attempt, op.attempt_started, op.last_send) = (1, t0 + 40 * MS, t0 + 40 * MS);
        assert_eq!(op.due(t0 + 41 * MS), Due::Wait);
        assert_eq!(op.due(t0 + 80 * MS), Due::NextAttempt);
        // The last attempt's timeout is the attempt cap...
        (op.attempt, op.attempt_started, op.last_send) = (2, t0 + 50 * MS, t0 + 50 * MS);
        assert_eq!(op.due(t0 + 89 * MS), Due::Resend);
        assert_eq!(op.due(t0 + 90 * MS), Due::GiveUp);
        // ...and the deadline cuts an attempt short, whichever is first.
        (op.attempt, op.attempt_started, op.last_send) = (1, t0 + 95 * MS, t0 + 95 * MS);
        assert_eq!(op.due(t0 + 100 * MS), Due::Wait);
        assert_eq!(op.due(t0 + 100 * MS + Duration::from_nanos(1)), Due::GiveUp);

        // A push climbs the same ladder but never runs out of attempts:
        // only the barrier deadline ends it.
        let policy = RetryPolicy::tight();
        let mut push = entry(t0, policy.pushes(SYNC_DEADLINE));
        assert_eq!(push.ladder.resend, 2 * MS, "clamped up from 250 µs");
        assert_eq!(push.due(t0 + 2 * MS), Due::Resend);
        (push.attempt, push.attempt_started) = (1_000_000, t0 + 59_900 * MS);
        push.last_send = push.attempt_started;
        assert_eq!(push.due(t0 + 59_940 * MS), Due::NextAttempt);
        assert_eq!(push.due(t0 + 60_000 * MS), Due::NextAttempt);
        assert_eq!(push.due(t0 + 60_001 * MS), Due::GiveUp);
        // And the request ladder floors a zeroed resend knob.
        let zeroed = RetryPolicy {
            resend: Duration::ZERO,
            ..policy
        };
        assert_eq!(zeroed.requests().resend, Duration::from_micros(50));
        assert_eq!(zeroed.requests().max_attempts, policy.attempts);
    }

    /// The scripted cluster, populated.
    fn cluster() -> Driver<Scripted> {
        let mut driver = scripted(VoroNetConfig::new(512).with_seed(3));
        for p in PointGenerator::new(Distribution::Uniform, 5).take_points(24) {
            driver.insert(p).unwrap();
        }
        let healthy = driver.cluster_stats();
        assert_eq!((healthy.retries, healthy.fast_resends), (0, 0));
        driver
    }

    /// Live indices whose object is (`on == true`) or is not hosted by
    /// `peer`.
    fn indices(driver: &Driver<Scripted>, peer: PeerId, on: bool) -> Vec<usize> {
        (0..driver.population())
            .filter(|&i| (driver.host_of(driver.net().id_at(i).unwrap()) == Some(peer)) == on)
            .collect()
    }

    /// Silences `peer` and lets the failure detector run on a 1 ms
    /// window, so the host is declared dead a few idle turns into the
    /// next wait.
    fn mute_towards_death(driver: &mut Driver<Scripted>, peer: PeerId) {
        driver.t.script.muted = Some(peer);
        driver.set_liveness(Liveness {
            suspect_after: 1,
            dead_after: 2,
            ping_interval: MS,
        });
    }

    #[test]
    fn a_dropped_request_costs_one_fast_resend() {
        let mut driver = cluster();
        driver
            .t
            .script
            .drop_sent
            .push(|m| matches!(m, WireMsg::RouteReq { .. }));
        let (a, b) = (
            driver.net().id_at(2).unwrap(),
            driver.net().id_at(17).unwrap(),
        );
        let expected = driver
            .net()
            .route_between_in(a, b, &mut RouteScratch::default())
            .unwrap();
        assert_eq!(
            driver
                .apply(&WorkloadOp::Route { from: 2, to: 17 })
                .unwrap(),
            OpOutcome::Route {
                owner: expected.0 .0,
                hops: expected.1
            }
        );
        let stats = driver.cluster_stats();
        assert_eq!((stats.fast_resends, stats.retries), (1, 0));
        assert!(driver.t.script.drop_sent.is_empty(), "the drop fired");
    }

    #[test]
    fn a_dropped_ack_resends_the_push_and_the_host_applies_it_once() {
        let served =
            |d: &Driver<Scripted>| d.t.inner.hosts.iter().map(|h| h.ops_served()).sum::<u64>();
        // The same put on two twin clusters, the second losing the first
        // service ack that comes back.
        let put = |lose_an_ack: bool| {
            let mut driver = cluster();
            if lose_an_ack {
                driver
                    .t
                    .script
                    .drop_received
                    .push(|m| matches!(m, WireMsg::SvcAck { .. }));
            }
            let before = served(&driver);
            let put = WorkloadOp::KvPut {
                from: 5,
                key: 9,
                value: 90,
            };
            assert!(matches!(
                driver.apply(&put).unwrap(),
                OpOutcome::KvStored {
                    replaced: false,
                    ..
                }
            ));
            let stats = driver.cluster_stats();
            (
                (stats.fast_resends, stats.retries),
                served(&driver) - before,
            )
        };
        let (clean, lossy) = (put(false), put(true));
        assert_eq!((clean.0, lossy.0), ((0, 0), (1, 0)));
        assert_eq!(
            lossy.1, clean.1,
            "the resent push is a duplicate: acked again, applied once"
        );
    }

    #[test]
    fn a_silent_host_times_out_after_the_whole_ladder() {
        let mut driver = cluster();
        driver.set_retry_policy(RetryPolicy {
            base: 2 * MS,
            factor: 1.0,
            resend: Duration::from_secs(1),
            ..driver.policy
        });
        driver.t.script.muted = Some(2);
        let from = indices(&driver, 2, true)[0];
        let err = driver
            .apply(&WorkloadOp::Route { from, to: 0 })
            .unwrap_err();
        assert!(matches!(err, ClusterError::Timeout("route")), "got {err}");
        let stats = driver.cluster_stats();
        assert_eq!(
            (stats.retries, stats.fast_resends, stats.fail_fast),
            (2, 0, 0),
            "three attempts are two retries"
        );
    }

    #[test]
    fn a_host_dying_mid_wait_is_unavailable_whatever_the_request() {
        // Routed request.
        let mut driver = cluster();
        mute_towards_death(&mut driver, 2);
        let from = indices(&driver, 2, true)[0];
        let err = driver
            .apply(&WorkloadOp::Route { from, to: 0 })
            .unwrap_err();
        assert!(matches!(err, ClusterError::Unavailable("route")), "{err}");
        assert_eq!(driver.host_state(2), HostState::Dead);
        let stats = driver.cluster_stats();
        assert_eq!((stats.fail_fast, stats.retries, stats.deaths), (1, 0, 1));

        // Stats collection: host 1 answers, host 2 dies while asked.
        let mut driver = cluster();
        mute_towards_death(&mut driver, 2);
        let err = driver.collect_stats().unwrap_err();
        assert!(
            matches!(err, ClusterError::Unavailable("host stats")),
            "{err}"
        );
        assert_eq!(driver.cluster_stats().fail_fast, 1);

        // Replica fetch: mid-wait first, then the pre-check of a host
        // already known dead — both counted.
        let mut driver = cluster();
        mute_towards_death(&mut driver, 2);
        let object = driver.net().id_at(indices(&driver, 2, true)[0]).unwrap().0;
        for fail_fast in [1, 2] {
            let err = driver.fetch_replica(object, 9).unwrap_err();
            assert!(
                matches!(err, ClusterError::Unavailable("kv replica fetch")),
                "{err}"
            );
            assert_eq!(driver.cluster_stats().fail_fast, fail_fast);
        }
        assert_eq!(driver.cluster_stats().retries, 0);
    }

    #[test]
    fn stale_and_unrelated_frames_complete_nothing() {
        let mut driver = cluster();
        let frame = |msg: WireMsg<'_>| {
            let mut buf = Vec::new();
            msg.encode(1, DRIVER_PEER, &mut buf).unwrap();
            (1, buf)
        };
        // The next token is the one the route below will carry; none of
        // these frames may answer it.
        let token = driver.next_token;
        driver.t.script.inject.extend([
            frame(WireMsg::AnswerOwner {
                token: token - 1,
                owner: 999,
                hops: 99,
            }),
            frame(WireMsg::SvcKvValue {
                token: token + 1,
                value: Some(1),
            }),
            frame(WireMsg::ViewAck { object: 0, seq: 1 }),
            frame(WireMsg::SvcAck { object: 0, seq: 1 }),
            frame(WireMsg::Ping { reply: true }),
            (1, vec![0xFF; 3]),
        ]);
        let to = driver.net().id_at(20).unwrap().0;
        assert!(matches!(
            driver.apply(&WorkloadOp::Route { from: 1, to: 20 }).unwrap(),
            OpOutcome::Route { owner, .. } if owner == to
        ));
        assert!(driver.t.script.inject.is_empty());

        // An ack names the push family it belongs to — a late service ack
        // carrying a pending view push's (object, seq) is not that push's
        // ack — and a stats reply names the peer it came from.
        let key = |from, msg: WireMsg<'_>| completes(from, &msg);
        assert_eq!(
            key(1, WireMsg::SvcAck { object: 4, seq: 2 }),
            Some(Completes::SvcAck(4, 2))
        );
        assert_eq!(
            key(1, WireMsg::EvictAck { object: 4, seq: 2 }),
            Some(Completes::ViewAck(4, 2))
        );
        let stats = WireMsg::StatsReply {
            stats: TransportStats::default(),
            ops_served: 3,
        };
        assert_eq!(key(2, stats), Some(Completes::Stats(2)));
        assert_eq!(key(2, WireMsg::Ping { reply: true }), None);
    }

    #[test]
    fn a_route_step_carrying_the_largest_hop_count_does_not_panic_a_host() {
        // `hops` is decoded straight off the wire, so a frame may carry
        // any value; counting the next hop on top of `u32::MAX` must
        // saturate, not overflow (a panic in debug builds, a wrap to 0
        // in release).
        let mut driver = cluster();
        let (at, to) = (
            driver.net().id_at(2).unwrap(),
            driver.net().id_at(17).unwrap(),
        );
        let expected = driver
            .net()
            .route_between_in(at, to, &mut RouteScratch::default())
            .unwrap();
        assert!(expected.1 > 0, "the step must arrive at a non-owner");
        let token = u64::MAX - 1;
        let mut frame = Vec::new();
        WireMsg::RouteStep {
            target: driver.net().coords(to).unwrap(),
            origin: DRIVER_PEER,
            hops: u32::MAX,
            purpose: WirePurpose::Query { token },
        }
        .encode(at.0, at.0, &mut frame)
        .unwrap();
        driver.t.inner.send(driver.host(at.0), &frame).unwrap();
        driver.t.inner.step_hosts().unwrap();

        // The hosts walked it to the owner and answered the origin.
        let mut buf = Vec::new();
        assert!(driver.t.inner.recv_into(&mut buf).unwrap().is_some());
        let (_, answer) = WireMsg::decode(&buf).unwrap();
        assert_eq!(
            answer,
            WireMsg::AnswerOwner {
                token,
                owner: expected.0 .0,
                hops: u32::MAX,
            }
        );
        // And every host keeps serving.
        assert_eq!(
            driver
                .apply(&WorkloadOp::Route { from: 2, to: 17 })
                .unwrap(),
            OpOutcome::Route {
                owner: expected.0 .0,
                hops: expected.1
            }
        );
    }

    #[test]
    fn a_window_lets_healthy_routes_finish_past_a_stalled_one() {
        let mut driver = cluster();
        driver.set_retry_policy(RetryPolicy {
            base: 5 * MS,
            attempts: 2,
            ..driver.policy
        });
        driver.t.script.muted = Some(2);
        // A route to oneself is answered by the origin's host alone, so
        // the healthy ones never touch the silent host.
        let stalled = indices(&driver, 2, true)[0];
        let mut pairs = vec![(stalled, stalled)];
        pairs.extend(indices(&driver, 2, false)[..3].iter().map(|&i| (i, i)));
        // Each route's `(owner, hops)`, `None` once it ran out of budget,
        // and its time in flight, pumped with up to `window` at once.
        let route_all = |driver: &mut Driver<Scripted>, window| {
            for &(from, to) in &pairs {
                let from = driver.net().id_at(from).unwrap().0;
                let target = driver.net().coords(driver.net().id_at(to).unwrap());
                driver.queue_route_to(from, target.unwrap());
            }
            let mut results = vec![(None, Duration::ZERO); pairs.len()];
            driver
                .pump_routes(window, |slot, verdict, latency| {
                    results[slot] = (verdict.ok(), latency);
                })
                .unwrap();
            results
        };
        let results = route_all(&mut driver, 4);
        assert_eq!(results[0].0, None);
        for (r, &(i, _)) in results.iter().zip(&pairs).skip(1) {
            let id = driver.net().id_at(i).unwrap().0;
            assert_eq!(r.0, Some((id, 0)));
            assert!(
                r.1 < results[0].1,
                "finished while the stalled route was still pending"
            );
        }
        assert_eq!(driver.cluster_stats().retries, 1);
        // With a window of one the same batch would have parked the
        // healthy routes behind the stalled one; the results agree.
        let serial = route_all(&mut driver, 1);
        let owners =
            |rs: &[(Option<(u64, u32)>, Duration)]| rs.iter().map(|r| r.0).collect::<Vec<_>>();
        assert_eq!(owners(&serial), owners(&results));
    }
}
