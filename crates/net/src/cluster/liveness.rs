//! The driver's failure detector: a missed-ping-window counter per host,
//! fed by every frame the pump receives and by the ping schedule it runs
//! while idle.  Pure state — the pump does the I/O.

use crate::transport::PeerId;
use std::time::{Duration, Instant};

/// Driver-side liveness verdict about one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostState {
    /// Answering within its ping windows.
    Alive,
    /// Missed enough windows to be suspected: KV reads owned by it are
    /// served from replicas, but it is still retried.
    Suspected,
    /// Missed enough windows to be excluded: pushes to it are skipped
    /// and ops it must serve fail fast with
    /// [`ClusterError::Unavailable`](super::ClusterError::Unavailable).
    /// Still pinged, so a restart is detected and the host regenerated.
    Dead,
}

/// Knobs of the driver's failure detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Liveness {
    /// Consecutive unanswered ping windows before a host turns
    /// [`HostState::Suspected`].
    pub suspect_after: u32,
    /// Consecutive unanswered ping windows before a host turns
    /// [`HostState::Dead`].
    pub dead_after: u32,
    /// Gap between liveness pings to one host; any frame received from
    /// the host counts as an answer (piggybacked acks).
    pub ping_interval: Duration,
}

impl Default for Liveness {
    fn default() -> Self {
        Liveness {
            suspect_after: 3,
            dead_after: 6,
            ping_interval: Duration::from_millis(500),
        }
    }
}

impl Liveness {
    /// A fast-converging detector for chaos runs and tests.
    pub fn tight() -> Self {
        Liveness {
            suspect_after: 2,
            dead_after: 4,
            ping_interval: Duration::from_millis(60),
        }
    }
}

/// Health record of one host.
#[derive(Debug)]
struct HostHealth {
    missed: u32,
    state: HostState,
    last_ping: Instant,
    last_heard: Instant,
}

/// Per-host health records, the hosts waiting to be regenerated after a
/// revival, and the transition counters [`super::ClusterStats`] reports.
#[derive(Debug)]
pub(super) struct FailureDetector {
    pub(super) knobs: Liveness,
    /// Hosts `1..=K`, indexed by `peer - 1`.
    health: Vec<HostHealth>,
    /// Hosts heard from again after being declared dead, not yet
    /// regenerated from driver control state.
    pub(super) revived: Vec<PeerId>,
    pub(super) suspicions: u64,
    pub(super) deaths: u64,
    pub(super) revivals: u64,
}

impl FailureDetector {
    /// Every host starts `Alive` with its first ping window opening at
    /// `now`.
    pub(super) fn new(hosts: u64, now: Instant) -> Self {
        let fresh = |_| HostHealth {
            missed: 0,
            state: HostState::Alive,
            last_ping: now,
            last_heard: now,
        };
        FailureDetector {
            knobs: Liveness::default(),
            health: (0..hosts).map(fresh).collect(),
            revived: Vec::new(),
            suspicions: 0,
            deaths: 0,
            revivals: 0,
        }
    }

    /// The current verdict about one host (`Alive` for a peer that is
    /// not one).
    pub(super) fn state(&self, peer: PeerId) -> HostState {
        let host = peer
            .checked_sub(1)
            .and_then(|i| self.health.get(i as usize));
        host.map_or(HostState::Alive, |h| h.state)
    }

    pub(super) fn is_dead(&self, peer: PeerId) -> bool {
        self.state(peer) == HostState::Dead
    }

    /// True when every host is currently `Alive` — the precondition for
    /// a distributed route to complete without burning its retry budget
    /// on a dead hop.
    pub(super) fn all_alive(&self) -> bool {
        self.health.iter().all(|h| h.state == HostState::Alive)
    }

    /// Any frame from a host is a liveness proof: resets its missed
    /// counter and, when it was declared dead, queues it for
    /// regeneration before the next operation.
    pub(super) fn heard(&mut self, peer: PeerId, now: Instant) {
        let host = peer
            .checked_sub(1)
            .and_then(|i| self.health.get_mut(i as usize));
        let Some(h) = host else {
            return;
        };
        h.last_heard = now;
        h.missed = 0;
        if std::mem::replace(&mut h.state, HostState::Alive) == HostState::Dead {
            self.revivals += 1;
            self.revived.push(peer);
        }
    }

    /// The hosts whose ping window elapsed at `now`, each to be sent one
    /// ping.  A window that passed without hearing from the host counts
    /// against it, advancing it along `Alive → Suspected → Dead`; dead
    /// hosts keep being pinged so a restart is detected.
    pub(super) fn due_pings(&mut self, now: Instant) -> Vec<PeerId> {
        let Liveness {
            suspect_after,
            dead_after,
            ping_interval,
        } = self.knobs;
        let mut due = Vec::new();
        for (peer, h) in (1..).zip(&mut self.health) {
            if now.duration_since(h.last_ping) < ping_interval {
                continue;
            }
            let unanswered = h.last_heard < h.last_ping;
            h.last_ping = now;
            due.push(peer);
            if !unanswered {
                continue;
            }
            h.missed = h.missed.saturating_add(1);
            if h.missed >= dead_after && h.state != HostState::Dead {
                h.state = HostState::Dead;
                self.deaths += 1;
            } else if h.missed >= suspect_after && h.state == HostState::Alive {
                h.state = HostState::Suspected;
                self.suspicions += 1;
            }
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missed_windows_walk_a_host_to_dead_and_a_frame_revives_it() {
        let t0 = Instant::now();
        let mut d = FailureDetector::new(2, t0);
        d.knobs = Liveness {
            suspect_after: 2,
            dead_after: 3,
            ping_interval: Duration::from_millis(10),
        };
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        assert!(d.due_pings(at(9)).is_empty(), "never before the interval");
        // Window 1 elapsed: both pinged; nobody was pinged before, so
        // silence does not count yet.
        assert_eq!(d.due_pings(at(10)), vec![1, 2]);
        d.heard(1, at(11));
        // Host 2 stays silent through three more windows.
        for (ms, state) in [
            (20, HostState::Alive),
            (30, HostState::Suspected),
            (40, HostState::Dead),
        ] {
            d.due_pings(at(ms));
            d.heard(1, at(ms + 1));
            assert_eq!(d.state(2), state, "at {ms} ms");
            assert_eq!(d.state(1), HostState::Alive);
        }
        assert!(d.is_dead(2) && !d.all_alive());
        assert_eq!((d.suspicions, d.deaths, d.revivals), (1, 1, 0));
        // Frames from outside the host range are ignored.
        d.heard(0, at(41));
        d.heard(3, at(41));
        d.heard(2, at(42));
        assert_eq!(d.state(2), HostState::Alive);
        assert_eq!(d.revived, vec![2]);
        assert_eq!(d.revivals, 1);
        assert!(d.all_alive());
    }
}
