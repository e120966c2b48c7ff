//! Shard leasing: the state machine a campaign scheduler runs per job.
//!
//! A distributed campaign is split into deterministic [`Shard`]s; workers
//! *pull* shards, so the scheduler's only state is which shards are pending,
//! leased (to whom, until when) or done. Leases expire — a worker that dies
//! mid-shard simply stops renewing, and after the TTL the shard becomes
//! leasable again. Combined with the engine's resume semantics (the next
//! worker receives the completed ids of the shard and skips them), an
//! expired lease costs at most the un-streamed remainder of the shard and
//! can never duplicate or drop a record.
//!
//! The board is deliberately clock-free: every method takes `now_ms`, so the
//! service layer feeds it a monotonic clock and tests feed it a scripted
//! one.

use std::fmt;

use crate::scenario::Shard;

/// The lifecycle of one shard on the board.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardState {
    /// Not yet handed to any worker (or reclaimed after a lease expired).
    Pending,
    /// Held by a worker until the deadline (monotonic ms).
    Leased {
        /// The holder's self-reported name.
        worker: String,
        /// Lease deadline in the board's monotonic clock, ms.
        deadline_ms: u64,
    },
    /// All of the shard's scenarios are recorded.
    Done,
}

/// Per-job lease board over `count` deterministic shards.
#[derive(Debug, Clone)]
pub struct ShardBoard {
    states: Vec<ShardState>,
}

impl ShardBoard {
    /// A board of `count` shards (minimum 1), all pending.
    pub fn new(count: usize) -> Self {
        ShardBoard {
            states: vec![ShardState::Pending; count.max(1)],
        }
    }

    /// Rebuilds a board from explicit per-shard states (minimum 1 shard —
    /// an empty vector yields a single pending shard, mirroring
    /// [`ShardBoard::new`]). A service restoring a snapshotted job uses
    /// this; snapshots carry no live leases (they are reset before the
    /// snapshot is taken), but the constructor accepts any state so a
    /// board round-trips exactly.
    pub fn from_states(states: Vec<ShardState>) -> Self {
        if states.is_empty() {
            return ShardBoard::new(1);
        }
        ShardBoard { states }
    }

    /// Number of shards on the board.
    pub fn count(&self) -> usize {
        self.states.len()
    }

    /// The state of one shard.
    ///
    /// # Panics
    ///
    /// Panics when `index >= count()`.
    pub fn state(&self, index: usize) -> &ShardState {
        &self.states[index]
    }

    /// Leases the lowest-indexed available shard to `worker`: a pending
    /// shard, or one whose lease has expired (its holder died or stalled —
    /// the new holder re-runs it with resume semantics). Returns `None` when
    /// every shard is done or validly held.
    pub fn lease(&mut self, worker: &str, now_ms: u64, ttl_ms: u64) -> Option<Shard> {
        let count = self.count();
        for (index, state) in self.states.iter_mut().enumerate() {
            let available = match state {
                ShardState::Pending => true,
                ShardState::Leased { deadline_ms, .. } => *deadline_ms <= now_ms,
                ShardState::Done => false,
            };
            if available {
                *state = ShardState::Leased {
                    worker: worker.to_string(),
                    deadline_ms: now_ms.saturating_add(ttl_ms),
                };
                return Some(Shard { index, count });
            }
        }
        None
    }

    /// Renews (or, if the shard went back to pending after an expiry,
    /// re-acquires) `worker`'s lease on a shard. Returns `false` — and
    /// changes nothing — when the shard is done or validly held by a
    /// *different* worker: the caller has lost the shard and must stop
    /// streaming into it.
    pub fn renew(&mut self, index: usize, worker: &str, now_ms: u64, ttl_ms: u64) -> bool {
        let Some(state) = self.states.get_mut(index) else {
            return false;
        };
        let may_hold = match state {
            ShardState::Pending => true,
            ShardState::Leased {
                worker: holder,
                deadline_ms,
            } => holder == worker || *deadline_ms <= now_ms,
            ShardState::Done => false,
        };
        if may_hold {
            *state = ShardState::Leased {
                worker: worker.to_string(),
                deadline_ms: now_ms.saturating_add(ttl_ms),
            };
        }
        may_hold
    }

    /// Marks a shard done (idempotent). Returns `false` when the shard is
    /// validly held by a different worker.
    pub fn complete(&mut self, index: usize, worker: &str, now_ms: u64) -> bool {
        let Some(state) = self.states.get_mut(index) else {
            return false;
        };
        match state {
            ShardState::Done => true,
            ShardState::Pending => {
                *state = ShardState::Done;
                true
            }
            ShardState::Leased {
                worker: holder,
                deadline_ms,
            } => {
                if holder == worker || *deadline_ms <= now_ms {
                    *state = ShardState::Done;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Converts every live lease back to pending and returns how many were
    /// reset. A restarted server calls this after journal replay: lease
    /// deadlines live in the dead process's monotonic clock, so they cannot
    /// be compared against the new epoch — the shards simply become leasable
    /// again. A still-live worker loses nothing: its next record batch
    /// re-acquires the (now pending) shard through [`ShardBoard::renew`],
    /// and the ingest dedup absorbs any re-streams if another worker won the
    /// race in between.
    pub fn reset_leases(&mut self) -> usize {
        let mut reset = 0;
        for state in &mut self.states {
            if matches!(state, ShardState::Leased { .. }) {
                *state = ShardState::Pending;
                reset += 1;
            }
        }
        reset
    }

    /// Shards marked done.
    pub fn done_count(&self) -> usize {
        self.states
            .iter()
            .filter(|s| matches!(s, ShardState::Done))
            .count()
    }

    /// Shards currently under a valid lease.
    pub fn leased_count(&self, now_ms: u64) -> usize {
        self.states
            .iter()
            .filter(
                |s| matches!(s, ShardState::Leased { deadline_ms, .. } if *deadline_ms > now_ms),
            )
            .count()
    }

    /// Shards leasable right now (pending or expired).
    pub fn pending_count(&self, now_ms: u64) -> usize {
        self.count() - self.done_count() - self.leased_count(now_ms)
    }

    /// Returns `true` when every shard is done.
    pub fn all_done(&self) -> bool {
        self.done_count() == self.count()
    }
}

impl fmt::Display for ShardBoard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} shard(s): {} done", self.count(), self.done_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TTL: u64 = 100;

    #[test]
    fn leases_hand_out_disjoint_shards_in_order() {
        let mut board = ShardBoard::new(3);
        let a = board.lease("a", 0, TTL).expect("first");
        let b = board.lease("b", 0, TTL).expect("second");
        assert_eq!((a.index, a.count), (0, 3));
        assert_eq!((b.index, b.count), (1, 3));
        let c = board.lease("a", 0, TTL).expect("third goes to a again");
        assert_eq!(c.index, 2);
        // Everything is validly held: nothing to lease.
        assert!(board.lease("c", 50, TTL).is_none());
        assert_eq!(board.leased_count(50), 3);
        assert_eq!(board.pending_count(50), 0);
        assert!(!board.all_done());
    }

    #[test]
    fn expired_leases_are_reassigned() {
        let mut board = ShardBoard::new(1);
        board.lease("dead", 0, TTL).expect("lease");
        assert!(board.lease("next", 99, TTL).is_none(), "still valid at 99");
        let again = board.lease("next", 100, TTL).expect("expired at 100");
        assert_eq!(again.index, 0);
        assert!(
            matches!(board.state(0), ShardState::Leased { worker, .. } if worker == "next"),
            "{:?}",
            board.state(0)
        );
        // The dead worker coming back cannot renew a shard someone else
        // validly holds.
        assert!(!board.renew(0, "dead", 150, TTL));
        assert!(board.renew(0, "next", 150, TTL));

        // A TTL whose deadline overflows saturates instead of wrapping into
        // the past: the held shard is not re-leased, and its holder renews.
        let mut board = ShardBoard::new(1);
        board.lease("a", 1_000, u64::MAX).expect("lease");
        assert!(board.lease("b", 1_001, u64::MAX).is_none());
        assert!(board.renew(0, "a", 2_000, u64::MAX));
        assert!(!board.renew(0, "b", 2_001, u64::MAX));
    }

    #[test]
    fn renew_extends_and_reacquires() {
        let mut board = ShardBoard::new(1);
        board.lease("w", 0, TTL).expect("lease");
        assert!(board.renew(0, "w", 90, TTL), "holder renews");
        // The renewal moved the deadline to 190.
        assert!(board.lease("other", 150, TTL).is_none());
        // After expiry a renew from anyone re-acquires.
        assert!(board.renew(0, "other", 200, TTL));
        assert!(!board.renew(0, "w", 210, TTL), "w lost the shard");
        assert!(!board.renew(9, "w", 0, TTL), "out of range");
    }

    #[test]
    fn reset_leases_reopens_live_leases_but_not_done_shards() {
        let mut board = ShardBoard::new(3);
        board.lease("w1", 0, TTL).expect("lease 0");
        board.lease("w2", 0, TTL).expect("lease 1");
        assert!(board.complete(0, "w1", 10));
        // One done, one leased, one pending: only the lease resets.
        assert_eq!(board.reset_leases(), 1);
        assert!(matches!(board.state(0), ShardState::Done));
        assert!(matches!(board.state(1), ShardState::Pending));
        assert!(matches!(board.state(2), ShardState::Pending));
        // The old holder re-acquires its shard through renew (a restarted
        // server sees the worker's next record batch), even at time 0.
        assert!(board.renew(1, "w2", 0, TTL));
        assert_eq!(board.reset_leases(), 1);
    }

    #[test]
    fn from_states_round_trips_a_board() {
        let mut board = ShardBoard::new(3);
        board.lease("w", 0, TTL).expect("lease 0");
        assert!(board.complete(0, "w", 10));
        board.lease("w", 10, TTL).expect("lease 1");
        let states: Vec<ShardState> = (0..board.count()).map(|i| board.state(i).clone()).collect();
        let restored = ShardBoard::from_states(states);
        assert_eq!(restored.count(), 3);
        assert!(matches!(restored.state(0), ShardState::Done));
        assert!(
            matches!(restored.state(1), ShardState::Leased { worker, deadline_ms }
                if worker == "w" && *deadline_ms == 10 + TTL)
        );
        assert!(matches!(restored.state(2), ShardState::Pending));
        assert_eq!(restored.done_count(), board.done_count());
        // Degenerate input still yields a leasable board.
        assert_eq!(ShardBoard::from_states(Vec::new()).count(), 1);
    }

    #[test]
    fn completion_is_idempotent_and_ownership_checked() {
        let mut board = ShardBoard::new(2);
        board.lease("w", 0, TTL).expect("lease");
        assert!(!board.complete(0, "thief", 10,), "held by w");
        assert!(board.complete(0, "w", 10));
        assert!(board.complete(0, "w", 20), "idempotent");
        assert!(board.complete(0, "thief", 30), "done stays done for anyone");
        assert!(!board.all_done());
        // A pending shard may be completed directly (its records all arrived
        // from an earlier holder before the lease expired).
        assert!(board.complete(1, "w", 40));
        assert!(board.all_done());
        assert_eq!(board.done_count(), 2);
        assert!(!board.complete(5, "w", 50), "out of range");
        assert!(board.to_string().contains("2 done"));
    }
}
