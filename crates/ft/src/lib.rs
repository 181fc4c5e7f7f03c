//! # vibe-ft
//!
//! Deterministic fault injection for the distributed runtime: a seeded
//! [`FaultPlan`] decides — purely from the sending rank and the sender's
//! monotone message uid, never from wall-clock time — which point-to-point
//! boundary messages to drop, delay, or duplicate, and which rank to kill
//! at which cycle boundary. [`ChaosTransport`] wraps any
//! [`Transport`] endpoint and applies the plan on the *receive* side, so
//! the sender never blocks on an injected fault and the communication
//! event log above the transport stays identical to a fault-free run.
//!
//! Design invariants the rest of the stack relies on:
//!
//! * **Replayable.** The same `(seed, src, uid)` triple always yields the
//!   same fault decision. Re-running a plan reproduces the exact fault
//!   sequence; a zero-rate plan is byte-for-byte neutral.
//! * **Lossless.** A "dropped" message is modeled as a deterministic
//!   delayed redelivery — the mailbox eventually sees every payload, so
//!   message faults perturb *when* data arrives, never *what* arrives,
//!   and the end state stays bitwise-identical to the fault-free run.
//! * **Per-key FIFO.** A held message blocks delivery of newer messages
//!   on the same boundary key (duplicates excepted — the mailbox's
//!   per-`(key, src)` uid watermark discards those), so reordering only
//!   happens *across* keys, which the mailbox's posted-receive matching
//!   tolerates by construction.
//! * **Kill-once.** The rank-kill trigger latches: after the conductor
//!   fires it and recovery replays the run, the same plan does not kill
//!   again, so a bounded retry budget always converges.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use vibe_comm::{BoundaryKey, Transport, WireMessage};

/// Kill directive: terminate `rank`'s shard at the boundary *entering*
/// cycle `cycle` (the rank completes cycles `0..cycle`, then dies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// Rank whose shard thread is terminated.
    pub rank: usize,
    /// Cycle boundary at which the termination fires.
    pub cycle: u64,
}

/// Seeded description of the faults to inject. All message-fault rates
/// are per-mille (0..=1000) probabilities evaluated deterministically
/// per message; their sum must not exceed 1000.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlanSpec {
    /// Seed for the per-message fault hash.
    pub seed: u64,
    /// Per-mille of messages "dropped" (held for `2 * delay_ticks + 1`
    /// drain ticks, then redelivered — lossy on schedule, not on data).
    pub drop_per_mille: u16,
    /// Per-mille of messages delayed by `delay_ticks` drain ticks.
    pub delay_per_mille: u16,
    /// Per-mille of messages delivered twice (original immediately, a
    /// clone after `delay_ticks`; the mailbox discards the clone).
    pub duplicate_per_mille: u16,
    /// Hold time for delayed messages, counted in receiver drain calls.
    pub delay_ticks: u64,
    /// Optional rank kill.
    pub kill: Option<KillSpec>,
}

impl Default for FaultPlanSpec {
    fn default() -> Self {
        Self {
            seed: 0,
            drop_per_mille: 0,
            delay_per_mille: 0,
            duplicate_per_mille: 0,
            delay_ticks: 2,
            kill: None,
        }
    }
}

/// Kind of an injected message fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Message held for an extended interval, then redelivered.
    Drop,
    /// Message held for `delay_ticks`, then delivered.
    Delay,
    /// Message delivered, plus a clone redelivered later.
    Duplicate,
}

/// One injected fault, recorded in the plan's structured event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// A point-to-point message was tampered with on the receive side.
    Message {
        /// What was done to it.
        kind: FaultKind,
        /// Boundary key of the affected message.
        key: BoundaryKey,
        /// Sending rank.
        src: usize,
        /// Receiving rank (the endpoint that injected the fault).
        dst: usize,
        /// The sender's monotone message uid.
        uid: u64,
        /// The receiver's drain tick at injection time.
        tick: u64,
    },
    /// A rank shard was terminated at a cycle boundary.
    Kill {
        /// The killed rank.
        rank: usize,
        /// The cycle boundary at which it died.
        cycle: u64,
    },
}

/// Injection counters, for gate assertions and the service `/stats` page.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages held on the drop schedule.
    pub dropped: u64,
    /// Messages held on the delay schedule.
    pub delayed: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Rank kills fired (0 or 1 — the trigger latches).
    pub killed: u64,
}

/// Panic payload carried by an injected rank kill, so the failure
/// detector can attribute the death to the fault plan rather than to a
/// genuine bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedKill {
    /// The killed rank.
    pub rank: usize,
    /// The cycle boundary at which it died.
    pub cycle: u64,
}

impl std::fmt::Display for InjectedKill {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "injected kill: rank {} terminated at cycle {}",
            self.rank, self.cycle
        )
    }
}

/// xorshift64* finalizer: a full-period bijective mix, so per-mille
/// thresholds see a uniform residue.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// A seeded, shared, replayable fault schedule plus its event log.
///
/// One plan is shared (via `Arc`) by every [`ChaosTransport`] on a fabric
/// and by the conductor that checks for pending kills, so the log merges
/// all ranks' injections and the kill trigger latches globally.
#[derive(Debug)]
pub struct FaultPlan {
    spec: FaultPlanSpec,
    kill_fired: AtomicBool,
    dropped: AtomicU64,
    delayed: AtomicU64,
    duplicated: AtomicU64,
    killed: AtomicU64,
    log: Mutex<Vec<FaultEvent>>,
}

impl FaultPlan {
    /// Builds a plan from its spec.
    ///
    /// # Panics
    ///
    /// Panics when the per-mille rates sum past 1000.
    pub fn new(spec: FaultPlanSpec) -> Self {
        let total = spec.drop_per_mille as u32
            + spec.delay_per_mille as u32
            + spec.duplicate_per_mille as u32;
        assert!(
            total <= 1000,
            "fault rates sum to {total}‰, past the 1000‰ ceiling"
        );
        Self {
            spec,
            kill_fired: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            killed: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
        }
    }

    /// The spec this plan was built from.
    pub fn spec(&self) -> &FaultPlanSpec {
        &self.spec
    }

    /// The deterministic fault decision for a message: purely a function
    /// of `(seed, src, uid)`. Messages with `uid == 0` (never left the
    /// sender's address space) are exempt.
    pub fn decide(&self, src: usize, uid: u64) -> Option<FaultKind> {
        if uid == 0 {
            return None;
        }
        let stream = (src as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let roll = (mix(self.spec.seed ^ mix(stream ^ uid)) % 1000) as u16;
        if roll < self.spec.drop_per_mille {
            Some(FaultKind::Drop)
        } else if roll < self.spec.drop_per_mille + self.spec.delay_per_mille {
            Some(FaultKind::Delay)
        } else if roll
            < self.spec.drop_per_mille + self.spec.delay_per_mille + self.spec.duplicate_per_mille
        {
            Some(FaultKind::Duplicate)
        } else {
            None
        }
    }

    /// The cycle at which `rank` must die, if the plan targets it and the
    /// kill has not fired yet.
    pub fn pending_kill(&self, rank: usize) -> Option<u64> {
        match self.spec.kill {
            Some(k) if k.rank == rank && !self.kill_fired.load(Ordering::SeqCst) => Some(k.cycle),
            _ => None,
        }
    }

    /// Latches the kill trigger. Returns `true` exactly once — the caller
    /// that wins the race is the one that terminates its shard; recovery
    /// replays see the latch and run fault-free.
    pub fn fire_kill(&self) -> bool {
        let won = self
            .kill_fired
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        if won {
            let k = self.spec.kill.expect("fire_kill without a kill spec");
            self.killed.fetch_add(1, Ordering::Relaxed);
            self.log.lock().unwrap().push(FaultEvent::Kill {
                rank: k.rank,
                cycle: k.cycle,
            });
        }
        won
    }

    /// Records one injected message fault.
    fn note_message(&self, kind: FaultKind, msg: &WireMessage, dst: usize, tick: u64) {
        match kind {
            FaultKind::Drop => self.dropped.fetch_add(1, Ordering::Relaxed),
            FaultKind::Delay => self.delayed.fetch_add(1, Ordering::Relaxed),
            FaultKind::Duplicate => self.duplicated.fetch_add(1, Ordering::Relaxed),
        };
        self.log.lock().unwrap().push(FaultEvent::Message {
            kind,
            key: msg.key,
            src: msg.meta.src,
            dst,
            uid: msg.uid,
            tick,
        });
    }

    /// Snapshot of the merged structured event log.
    pub fn events(&self) -> Vec<FaultEvent> {
        self.log.lock().unwrap().clone()
    }

    /// Snapshot of the injection counters.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            dropped: self.dropped.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            killed: self.killed.load(Ordering::Relaxed),
        }
    }
}

/// A message parked for later delivery.
#[derive(Debug)]
struct Held {
    msg: WireMessage,
    /// Drain tick at which the message becomes deliverable.
    release_at: u64,
    /// Duplicate clones never block their key and may be overtaken —
    /// the mailbox discards them anyway.
    dup: bool,
}

/// Receive-side chaos wrapper around any [`Transport`] endpoint.
///
/// `drain` is the only method with injected behavior: each call advances
/// a tick counter, releases held messages that have come due, and runs
/// every newly arrived message through the plan. All other transport
/// methods — including collectives, which the runtime uses for its own
/// control plane — pass straight through.
pub struct ChaosTransport {
    inner: Box<dyn Transport>,
    plan: std::sync::Arc<FaultPlan>,
    held: VecDeque<Held>,
    tick: u64,
}

impl std::fmt::Debug for ChaosTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosTransport")
            .field("rank", &self.inner.rank())
            .field("held", &self.held.len())
            .field("tick", &self.tick)
            .finish_non_exhaustive()
    }
}

impl ChaosTransport {
    /// Wraps `inner`, applying `plan` to everything it receives.
    pub fn new(inner: Box<dyn Transport>, plan: std::sync::Arc<FaultPlan>) -> Self {
        Self {
            inner,
            plan,
            held: VecDeque::new(),
            tick: 0,
        }
    }
}

impl Transport for ChaosTransport {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn nranks(&self) -> usize {
        self.inner.nranks()
    }

    fn next_seq(&mut self) -> u64 {
        self.inner.next_seq()
    }

    fn post(&mut self, msg: WireMessage) {
        self.inner.post(msg);
    }

    fn drain(&mut self) -> Vec<WireMessage> {
        self.tick += 1;
        let mut out = Vec::new();
        // Keys with an undelivered (non-duplicate) message still parked:
        // newer messages on these keys must not overtake it.
        let mut blocked: HashSet<BoundaryKey> = HashSet::new();
        // Pass 1: release due held messages, oldest first, honoring the
        // block set so per-key FIFO survives.
        let parked = std::mem::take(&mut self.held);
        for h in parked {
            if !blocked.contains(&h.msg.key) && h.release_at <= self.tick {
                out.push(h.msg);
            } else {
                if !h.dup {
                    blocked.insert(h.msg.key);
                }
                self.held.push_back(h);
            }
        }
        // Pass 2: run fresh arrivals through the plan.
        for msg in self.inner.drain() {
            if blocked.contains(&msg.key) {
                // An older same-key message is parked; queue behind it.
                self.held.push_back(Held {
                    msg,
                    release_at: self.tick,
                    dup: false,
                });
                continue;
            }
            match self.plan.decide(msg.meta.src, msg.uid) {
                Some(kind @ FaultKind::Drop) => {
                    self.plan
                        .note_message(kind, &msg, self.inner.rank(), self.tick);
                    blocked.insert(msg.key);
                    self.held.push_back(Held {
                        release_at: self.tick + 2 * self.plan.spec.delay_ticks + 1,
                        msg,
                        dup: false,
                    });
                }
                Some(kind @ FaultKind::Delay) => {
                    self.plan
                        .note_message(kind, &msg, self.inner.rank(), self.tick);
                    blocked.insert(msg.key);
                    self.held.push_back(Held {
                        release_at: self.tick + self.plan.spec.delay_ticks,
                        msg,
                        dup: false,
                    });
                }
                Some(kind @ FaultKind::Duplicate) => {
                    self.plan
                        .note_message(kind, &msg, self.inner.rank(), self.tick);
                    self.held.push_back(Held {
                        msg: msg.clone(),
                        release_at: self.tick + self.plan.spec.delay_ticks,
                        dup: true,
                    });
                    out.push(msg);
                }
                None => out.push(msg),
            }
        }
        out
    }

    fn all_gather_bytes(&mut self, label: &'static str, payload: Vec<u8>) -> Vec<Vec<u8>> {
        self.inner.all_gather_bytes(label, payload)
    }

    fn healthy(&self) -> bool {
        self.inner.healthy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vibe_comm::SendMeta;

    fn msg(key_tag: u32, src: usize, uid: u64, val: f64) -> WireMessage {
        WireMessage {
            key: BoundaryKey::new(10 + src, 20, key_tag),
            payload: vec![val],
            meta: SendMeta {
                src,
                dst: 1,
                cells: 1,
            },
            uid,
        }
    }

    /// Scripted inner transport: each `drain` pops one pre-loaded batch.
    #[derive(Debug, Default)]
    struct ScriptedTransport {
        batches: VecDeque<Vec<WireMessage>>,
    }

    impl Transport for ScriptedTransport {
        fn rank(&self) -> usize {
            1
        }
        fn nranks(&self) -> usize {
            2
        }
        fn next_seq(&mut self) -> u64 {
            0
        }
        fn post(&mut self, _msg: WireMessage) {}
        fn drain(&mut self) -> Vec<WireMessage> {
            self.batches.pop_front().unwrap_or_default()
        }
        fn all_gather_bytes(&mut self, _label: &'static str, payload: Vec<u8>) -> Vec<Vec<u8>> {
            vec![payload]
        }
    }

    fn chaos(
        spec: FaultPlanSpec,
        batches: Vec<Vec<WireMessage>>,
    ) -> (ChaosTransport, Arc<FaultPlan>) {
        let plan = Arc::new(FaultPlan::new(spec));
        let inner = ScriptedTransport {
            batches: batches.into(),
        };
        (
            ChaosTransport::new(Box::new(inner), Arc::clone(&plan)),
            plan,
        )
    }

    fn uids(msgs: &[WireMessage]) -> Vec<u64> {
        msgs.iter().map(|m| m.uid).collect()
    }

    #[test]
    fn decisions_are_deterministic_replayable_and_uid0_exempt() {
        let spec = FaultPlanSpec {
            seed: 42,
            drop_per_mille: 100,
            delay_per_mille: 200,
            duplicate_per_mille: 100,
            ..Default::default()
        };
        let a = FaultPlan::new(spec);
        let b = FaultPlan::new(spec);
        let decisions: Vec<_> = (1..500).map(|uid| a.decide(0, uid)).collect();
        assert_eq!(
            decisions,
            (1..500).map(|uid| b.decide(0, uid)).collect::<Vec<_>>()
        );
        // All three kinds show up at these rates, and local (uid 0)
        // messages are never touched.
        assert!(decisions.contains(&Some(FaultKind::Drop)));
        assert!(decisions.contains(&Some(FaultKind::Delay)));
        assert!(decisions.contains(&Some(FaultKind::Duplicate)));
        assert!(decisions.contains(&None));
        assert_eq!(a.decide(0, 0), None);
        // A different seed reshuffles the schedule.
        let c = FaultPlan::new(FaultPlanSpec { seed: 43, ..spec });
        assert_ne!(
            decisions,
            (1..500).map(|uid| c.decide(0, uid)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn zero_rate_plan_is_a_passthrough() {
        let batch = vec![msg(1, 0, 1, 1.0), msg(2, 0, 2, 2.0)];
        let (mut t, plan) = chaos(FaultPlanSpec::default(), vec![batch.clone()]);
        let got = t.drain();
        assert_eq!(got.len(), 2);
        assert_eq!(uids(&got), vec![1, 2]);
        assert!(plan.events().is_empty());
        assert_eq!(plan.stats(), FaultStats::default());
    }

    #[test]
    fn delayed_messages_release_in_order_after_the_hold() {
        // Delay everything: both messages park, then come out in their
        // original order once the hold expires.
        let spec = FaultPlanSpec {
            seed: 7,
            delay_per_mille: 1000,
            delay_ticks: 2,
            ..Default::default()
        };
        let (mut t, plan) = chaos(spec, vec![vec![msg(1, 0, 1, 1.0), msg(1, 0, 2, 2.0)]]);
        assert!(t.drain().is_empty()); // tick 1: both held
        assert!(t.drain().is_empty()); // tick 2: not due yet
        let got = t.drain(); // tick 3 = 1 + delay_ticks
        assert_eq!(uids(&got), vec![1, 2]);
        // Only uid 1 was *faulted*; uid 2 just queued behind it on the
        // same key, which is FIFO preservation, not an injection.
        assert_eq!(plan.stats().delayed, 1);
        assert!(matches!(
            plan.events()[0],
            FaultEvent::Message {
                kind: FaultKind::Delay,
                uid: 1,
                ..
            }
        ));
    }

    #[test]
    fn held_message_blocks_newer_same_key_but_not_other_keys() {
        // Find a seed where uid 1 is delayed but uids 2 and 3 pass clean,
        // so the block rule (not the fault rate) is what holds uid 2 back.
        let seed = (0..100_000u64)
            .find(|&s| {
                let p = FaultPlan::new(FaultPlanSpec {
                    seed: s,
                    delay_per_mille: 300,
                    ..Default::default()
                });
                p.decide(0, 1) == Some(FaultKind::Delay)
                    && p.decide(0, 2).is_none()
                    && p.decide(0, 3).is_none()
            })
            .expect("some seed delays uid 1 only");
        let spec = FaultPlanSpec {
            seed,
            delay_per_mille: 300,
            delay_ticks: 5,
            ..Default::default()
        };
        // uid 1 and uid 2 share key tag 1; uid 3 is on key tag 9.
        let (mut t, _plan) = chaos(
            spec,
            vec![
                vec![msg(1, 0, 1, 1.0)],
                vec![msg(1, 0, 2, 2.0), msg(9, 0, 3, 3.0)],
            ],
        );
        assert!(t.drain().is_empty()); // tick 1: uid 1 held
                                       // tick 2: uid 2 must queue behind uid 1; uid 3 sails through.
        assert_eq!(uids(&t.drain()), vec![3]);
        for _ in 0..3 {
            assert!(t.drain().is_empty()); // ticks 3..=5
        }
        // tick 6 = 1 + delay_ticks: uid 1 releases, uid 2 right behind it.
        assert_eq!(uids(&t.drain()), vec![1, 2]);
    }

    #[test]
    fn duplicate_delivers_now_and_replays_a_clone_later() {
        let spec = FaultPlanSpec {
            seed: 3,
            duplicate_per_mille: 1000,
            delay_ticks: 1,
            ..Default::default()
        };
        let (mut t, plan) = chaos(spec, vec![vec![msg(1, 0, 1, 1.0)]]);
        assert_eq!(uids(&t.drain()), vec![1]); // original, immediately
        assert_eq!(uids(&t.drain()), vec![1]); // the clone, one tick later
        assert!(t.drain().is_empty());
        assert_eq!(plan.stats().duplicated, 1);
    }

    #[test]
    fn dropped_message_is_redelivered_not_lost() {
        let spec = FaultPlanSpec {
            seed: 11,
            drop_per_mille: 1000,
            delay_ticks: 1,
            ..Default::default()
        };
        let (mut t, plan) = chaos(spec, vec![vec![msg(1, 0, 1, 4.5)]]);
        // Held for 2 * delay_ticks + 1 = 3 ticks past injection.
        for _ in 0..3 {
            assert!(t.drain().is_empty());
        }
        let got = t.drain();
        assert_eq!(uids(&got), vec![1]);
        assert_eq!(got[0].payload, vec![4.5]);
        assert_eq!(plan.stats().dropped, 1);
    }

    #[test]
    fn kill_trigger_targets_one_rank_and_latches() {
        let plan = FaultPlan::new(FaultPlanSpec {
            kill: Some(KillSpec { rank: 1, cycle: 2 }),
            ..Default::default()
        });
        assert_eq!(plan.pending_kill(0), None);
        assert_eq!(plan.pending_kill(1), Some(2));
        assert!(plan.fire_kill());
        assert!(!plan.fire_kill(), "the trigger must latch");
        assert_eq!(plan.pending_kill(1), None, "fired kills are not pending");
        assert_eq!(plan.stats().killed, 1);
        assert_eq!(plan.events(), vec![FaultEvent::Kill { rank: 1, cycle: 2 }]);
    }

    #[test]
    #[should_panic(expected = "past the 1000\u{2030} ceiling")]
    fn oversubscribed_rates_are_rejected() {
        FaultPlan::new(FaultPlanSpec {
            drop_per_mille: 600,
            delay_per_mille: 600,
            ..Default::default()
        });
    }
}
