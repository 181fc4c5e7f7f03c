//! The message mailbox: non-blocking MPI point-to-point semantics over a
//! [`Transport`].
//!
//! Every message reaches its receiver one way: the transport's `drain`
//! (the receiving endpoint's channel) feeds per-key FIFO queues, and a probe
//! promotes the oldest queued message into the key's slot once the slot
//! is free. A message that has arrived is ready on the next probe; a probe
//! comes back empty only while a message is still on its way.

use std::collections::{HashMap, VecDeque};

use vibe_prof::{CollectiveOp, Recorder, SerialWork, StepFunction};

use crate::cache::BoundaryKey;
use crate::events::{CommEvent, CommEventKind};
use crate::transport::{channel_fabric, PeerLost, SendMeta, Transport, WireMessage};

/// Delivery state of one boundary message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageStatus {
    /// Receive posted, nothing sent yet.
    Posted,
    /// Data sent, not yet consumed by the receiver.
    InFlight,
    /// Consumed by the receiver this cycle.
    Received,
}

#[derive(Debug)]
struct Slot {
    status: MessageStatus,
    payload: Vec<f64>,
}

/// Communicator over `nranks` ranks.
///
/// Message *movement* is delegated to a [`Transport`]: an endpoint of a
/// [`channel_fabric`] carries messages between concurrent rank shards.
/// [`Communicator::new`] builds a *lone endpoint* — endpoint 0 of
/// `channel_fabric(1)` — for a driver that plays every rank label in one
/// process: its blocks exchange boundaries by direct copy, the labels only
/// decide whether a transfer is recorded as a *local copy* or a *remote
/// message*, and a message to a label without an endpoint is refused. The
/// mailbox owns message *matching*: posted receives, FIFO per-key delivery
/// and probe semantics.
///
/// ```
/// use vibe_comm::{channel_fabric, BoundaryKey, Communicator, SendMeta};
/// use vibe_prof::{Recorder, StepFunction};
///
/// let mut rec = Recorder::new();
/// rec.begin_cycle(0);
/// let mut ends = channel_fabric(2).into_iter();
/// let mut rank0 = Communicator::with_transport(2, Box::new(ends.next().unwrap()));
/// let mut rank1 = Communicator::with_transport(2, Box::new(ends.next().unwrap()));
/// let key = BoundaryKey::new(0, 1, 0);
/// rank1.start_receive(key);
/// let meta = SendMeta { src: 0, dst: 1, cells: 2 };
/// rank0.send(key, vec![1.0, 2.0], meta, StepFunction::SendBoundBufs, &mut rec);
/// assert_eq!(rank1.try_receive(key, &mut rec), Some(vec![1.0, 2.0]));
/// rec.end_cycle(1, 0, 0, 0);
/// ```
#[derive(Debug)]
pub struct Communicator {
    nranks: usize,
    transport: Box<dyn Transport>,
    slots: HashMap<BoundaryKey, Slot>,
    /// Messages drained off the transport but not yet promoted into a slot:
    /// per-key FIFO queues, exactly MPI's same-(source,tag) message order.
    /// A message is promoted only when the slot for its key is free (absent
    /// or merely Posted) — a fast sender's next-exchange message must not
    /// overwrite an unconsumed one.
    inbox: HashMap<BoundaryKey, VecDeque<Vec<f64>>>,
    /// Monotone id stamped onto outgoing messages (`uid`), starting at 1 so
    /// `0` means "unassigned".
    next_uid: u64,
    /// Highest `uid` accepted per `(key, src)` stream. Per-key FIFO order
    /// within one sender makes uids strictly increasing along a stream, so
    /// an arrival at or below the watermark is a duplicated delivery (a
    /// lossy-wire retransmission, or an injected chaos duplicate) and is
    /// discarded — delivery is exactly-once as far as slots are concerned.
    seen_uids: HashMap<(BoundaryKey, usize), u64>,
    /// Ordered event log with globally monotone sequence numbers.
    log: Vec<CommEvent>,
    capture_events: bool,
    cycle: u64,
    /// Task name stamped onto subsequent events (set by the task executor).
    task: Option<&'static str>,
    /// Accumulated wall time spent blocked inside data-moving collectives
    /// waiting for the rendezvous (arrival spread across ranks). Drained by
    /// [`Communicator::take_collective_block_ns`] for wait-state
    /// attribution.
    collective_block_ns: u64,
}

impl Communicator {
    /// Creates a communicator over `nranks` virtual ranks in one address
    /// space: a lone endpoint, endpoint 0 of `channel_fabric(1)`.
    ///
    /// # Panics
    ///
    /// Panics if `nranks == 0`.
    pub fn new(nranks: usize) -> Self {
        Self::with_transport(nranks, Box::new(channel_fabric(1).swap_remove(0)))
    }

    /// Creates a communicator whose messages travel over `transport`
    /// (one endpoint of a channel fabric, for rank shards).
    ///
    /// # Panics
    ///
    /// Panics if `nranks == 0`.
    pub fn with_transport(nranks: usize, transport: Box<dyn Transport>) -> Self {
        assert!(nranks > 0, "communicator needs at least one rank");
        Self {
            nranks,
            transport,
            slots: HashMap::new(),
            inbox: HashMap::new(),
            next_uid: 0,
            seen_uids: HashMap::new(),
            log: Vec::new(),
            capture_events: true,
            cycle: 0,
            task: None,
            collective_block_ns: 0,
        }
    }

    /// Appends an event to the log — a no-op while capture is off (see
    /// [`Communicator::set_event_capture`]), so callers never build events
    /// nobody reads. Every mailbox operation logs through here; a caller
    /// that moves a boundary without the mailbox logs the events a message
    /// between the two rank labels would have.
    pub fn record_event(&mut self, key: BoundaryKey, func: StepFunction, kind: CommEventKind) {
        if !self.capture_events {
            return;
        }
        let seq = self.transport.next_seq();
        self.log.push(CommEvent {
            seq,
            rank: self.transport.rank(),
            cycle: self.cycle,
            key,
            func,
            task: self.task,
            kind,
        });
    }

    /// Turns the event log on (the default) or off. With capture off no
    /// event is built and no sequence number is drawn.
    pub fn set_event_capture(&mut self, on: bool) {
        self.capture_events = on;
    }

    /// Whether events are being logged.
    pub fn captures_events(&self) -> bool {
        self.capture_events
    }

    /// Stamps subsequent events with `cycle` (called by the driver at the
    /// top of each timestep).
    pub fn begin_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
    }

    /// Stamps subsequent events with the name of the driver task issuing
    /// them (`None` clears the attribution). Lets trace consumers line the
    /// event log up against per-task wall spans.
    pub fn set_task(&mut self, task: Option<&'static str>) {
        self.task = task;
    }

    /// The ordered event log since construction (or the last
    /// [`Communicator::take_events`]).
    pub fn events(&self) -> &[CommEvent] {
        &self.log
    }

    /// Drains and returns the event log.
    pub fn take_events(&mut self) -> Vec<CommEvent> {
        std::mem::take(&mut self.log)
    }

    /// Number of events currently resident in the log (consumers drain the
    /// log with [`Communicator::take_events`]; this is what a bounded-memory
    /// regression test watches).
    pub fn resident_events(&self) -> usize {
        self.log.len()
    }

    /// Number of virtual ranks.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// This communicator's rank on its transport (0 on a lone endpoint).
    pub fn rank(&self) -> usize {
        self.transport.rank()
    }

    /// Endpoints of the transport: 1 on a lone endpoint, where this
    /// communicator plays every virtual rank; `nranks` on a fabric.
    pub fn endpoints(&self) -> usize {
        self.transport.nranks()
    }

    /// Posts an asynchronous receive for `key` (idempotent until satisfied).
    pub fn start_receive(&mut self, key: BoundaryKey) {
        self.slots.entry(key).or_insert(Slot {
            status: MessageStatus::Posted,
            payload: Vec::new(),
        });
    }

    /// Sends `payload` for `key`. Records a local copy when
    /// `meta.src == meta.dst`, a remote message otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `meta.src` is not a rank, or if the transport has no
    /// endpoint for `meta.dst`: on a lone endpoint rank labels are virtual,
    /// and a virtual label never receives a message.
    pub fn send(
        &mut self,
        key: BoundaryKey,
        payload: Vec<f64>,
        meta: SendMeta,
        func: StepFunction,
        rec: &mut Recorder,
    ) {
        assert!(meta.src < self.nranks, "rank out of range: {}", meta.src);
        assert!(
            meta.dst < self.endpoints(),
            "rank out of range: rank {} has no endpoint on this transport of {}",
            meta.dst,
            self.endpoints()
        );
        let bytes = (payload.len() * std::mem::size_of::<f64>()) as u64;
        let local = meta.src == meta.dst;
        rec.record_p2p(func, bytes, meta.cells, local);
        // The Send event is logged *before* the message enters the
        // transport so its sequence number is causally below any event the
        // receiver stamps after consuming it.
        self.record_event(
            key,
            func,
            CommEventKind::Send {
                src: meta.src,
                dst: meta.dst,
                bytes,
                local,
            },
        );
        self.next_uid += 1;
        let msg = WireMessage {
            key,
            payload,
            meta,
            uid: self.next_uid,
        };
        self.transport.post(msg);
    }

    /// Drains the transport into the per-key FIFO inbox, discarding
    /// duplicated deliveries (same `(key, src)` stream, `uid` at or below
    /// the accepted watermark) so redundant retransmissions are idempotent.
    fn pump(&mut self) {
        for msg in self.transport.drain() {
            if msg.uid != 0 {
                let seen = self.seen_uids.entry((msg.key, msg.meta.src)).or_insert(0);
                if msg.uid <= *seen {
                    continue;
                }
                *seen = msg.uid;
            }
            self.inbox
                .entry(msg.key)
                .or_default()
                .push_back(msg.payload);
        }
    }

    /// Moves the oldest queued message for `key` into its slot, but only if
    /// the slot is free (absent or merely Posted) — never over an
    /// unconsumed (`InFlight`) or just-consumed (`Received`) message.
    fn promote(&mut self, key: BoundaryKey) {
        let free = !matches!(
            self.slots.get(&key).map(|s| s.status),
            Some(MessageStatus::InFlight) | Some(MessageStatus::Received)
        );
        if !free {
            return;
        }
        let Some(queue) = self.inbox.get_mut(&key) else {
            return;
        };
        let Some(payload) = queue.pop_front() else {
            return;
        };
        if queue.is_empty() {
            self.inbox.remove(&key);
        }
        self.slots.insert(
            key,
            Slot {
                status: MessageStatus::InFlight,
                payload,
            },
        );
    }

    /// One non-blocking probe for `key`: records the `MPI_Iprobe` cost,
    /// drains the transport, and reports whether the message has arrived —
    /// without consuming it.
    ///
    /// # Panics
    ///
    /// With a [`PeerLost`] payload when the message has not arrived and a
    /// peer endpoint has left the fabric: it never will.
    pub fn poll_ready(&mut self, key: BoundaryKey, rec: &mut Recorder) -> bool {
        rec.record_serial(StepFunction::ReceiveBoundBufs, SerialWork::BoundaryLoop(1));
        self.pump();
        self.promote(key);
        let ready = self.status(key) == Some(MessageStatus::InFlight);
        // A message that will never come must not spin forever: when a peer
        // endpoint has died (shard panic, injected kill) the fabric reports
        // unhealthy and this rank raises PeerLost — a cascade, which the
        // conductor tells from the death that caused it.
        if !ready && !self.transport.healthy() {
            std::panic::panic_any(PeerLost {
                rank: self.transport.rank(),
                wait: "boundary message",
            });
        }
        ready
    }

    /// Probes for and completes the message for `key`, consuming it.
    /// Returns `None` when nothing has arrived yet (the receiver must poll
    /// again).
    ///
    /// # Panics
    ///
    /// With a [`PeerLost`] payload when nothing has arrived and a peer
    /// endpoint has left the fabric (see [`Communicator::poll_ready`]).
    pub fn try_receive(&mut self, key: BoundaryKey, rec: &mut Recorder) -> Option<Vec<f64>> {
        if !self.poll_ready(key, rec) {
            return None;
        }
        let slot = self.slots.get_mut(&key)?;
        slot.status = MessageStatus::Received;
        let payload = std::mem::take(&mut slot.payload);
        self.record_event(key, StepFunction::ReceiveBoundBufs, CommEventKind::Complete);
        Some(payload)
    }

    /// Delivery status of `key`, if known.
    pub fn status(&self, key: BoundaryKey) -> Option<MessageStatus> {
        self.slots.get(&key).map(|s| s.status)
    }

    /// The end-of-exchange reset performed by `SetBounds`: drops consumed
    /// and stale-posted slots. Unconsumed `InFlight` messages survive —
    /// with real concurrent ranks a fast sender's *next*-exchange message
    /// may already have been promoted, and destroying it would deadlock the
    /// next exchange.
    pub fn mark_all_stale(&mut self) {
        self.slots
            .retain(|_, s| s.status == MessageStatus::InFlight);
    }

    /// Blocking AllGather that really moves data: deposits `payload` and
    /// returns every endpoint's deposit indexed by rank. Blocks until all
    /// endpoints of the transport arrive.
    ///
    /// Recorded bytes are the gathered size times the virtual ranks each
    /// endpoint stands for (`nranks / endpoints`): the full size on a
    /// fabric, where every rank deposited, and on a lone endpoint — one
    /// endpoint playing every rank — what `nranks` deposits of this
    /// payload would have gathered. Identical on every rank, so merged
    /// logs validate.
    pub fn all_gather_data(
        &mut self,
        func: StepFunction,
        payload: Vec<u8>,
        rec: &mut Recorder,
    ) -> Vec<Vec<u8>> {
        let entered = std::time::Instant::now();
        let parts = self.transport.all_gather_bytes(func.name(), payload);
        self.collective_block_ns += entered.elapsed().as_nanos() as u64;
        let gathered: u64 = parts.iter().map(|p| p.len() as u64).sum();
        let bytes = gathered * (self.nranks / self.endpoints()) as u64;
        rec.record_collective(func, CollectiveOp::AllGather, bytes);
        self.record_event(
            BoundaryKey::new(0, 0, 0),
            func,
            CommEventKind::Collective {
                op: CollectiveOp::AllGather,
                bytes,
            },
        );
        parts
    }

    /// Blocking AllReduce implemented as gather-then-fold: returns every
    /// rank's `payload` indexed by rank so the caller folds them in a fixed
    /// rank order (deterministic reduction regardless of arrival order).
    /// `bytes` is the reduced result size to record (e.g. 8 for a scalar
    /// minimum).
    pub fn all_reduce_data(
        &mut self,
        func: StepFunction,
        payload: Vec<u8>,
        bytes: u64,
        rec: &mut Recorder,
    ) -> Vec<Vec<u8>> {
        let entered = std::time::Instant::now();
        let parts = self.transport.all_gather_bytes(func.name(), payload);
        self.collective_block_ns += entered.elapsed().as_nanos() as u64;
        rec.record_collective(func, CollectiveOp::AllReduce, bytes);
        self.record_event(
            BoundaryKey::new(0, 0, 0),
            func,
            CommEventKind::Collective {
                op: CollectiveOp::AllReduce,
                bytes,
            },
        );
        parts
    }

    /// Blocks until every rank on the transport reaches the same barrier.
    /// Not recorded — used by the conductor to bracket timed regions.
    pub fn barrier(&mut self, label: &'static str) {
        self.transport.barrier(label);
    }

    /// Drains the accumulated collective rendezvous blocking time (ns):
    /// wall time spent inside [`Communicator::all_gather_data`] /
    /// [`Communicator::all_reduce_data`] waiting for the slowest rank to
    /// arrive. Measurement only — does not perturb message contents or
    /// ordering.
    pub fn take_collective_block_ns(&mut self) -> u64 {
        std::mem::take(&mut self.collective_block_ns)
    }

    /// Number of currently in-flight (sent, unconsumed) messages.
    pub fn in_flight(&self) -> usize {
        self.slots
            .values()
            .filter(|s| s.status == MessageStatus::InFlight)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vibe_prof::CollectiveOp;

    fn recorder() -> Recorder {
        let mut r = Recorder::new();
        r.begin_cycle(0);
        r
    }

    /// One communicator per endpoint of an `n`-endpoint channel fabric,
    /// driven sequentially on one thread (mpsc queues make that legal).
    fn fabric(n: usize) -> Vec<Communicator> {
        channel_fabric(n)
            .into_iter()
            .map(|t| Communicator::with_transport(n, Box::new(t)))
            .collect()
    }

    fn channel_pair() -> (Communicator, Communicator) {
        let mut ends = fabric(2);
        let c1 = ends.pop().unwrap();
        (ends.pop().unwrap(), c1)
    }

    #[test]
    fn local_vs_remote_accounting() {
        let mut rec = recorder();
        let mut comms = fabric(4);
        comms[2].send(
            BoundaryKey::new(0, 1, 0),
            vec![0.0; 10],
            SendMeta {
                src: 2,
                dst: 2,
                cells: 10,
            },
            StepFunction::SendBoundBufs,
            &mut rec,
        );
        comms[1].send(
            BoundaryKey::new(1, 2, 0),
            vec![0.0; 20],
            SendMeta {
                src: 1,
                dst: 3,
                cells: 20,
            },
            StepFunction::SendBoundBufs,
            &mut rec,
        );
        rec.end_cycle(1, 0, 0, 0);
        let c = &rec.totals().comm[&StepFunction::SendBoundBufs];
        assert_eq!(c.p2p_local_messages, 1);
        assert_eq!(c.p2p_remote_messages, 1);
        assert_eq!(c.p2p_local_bytes, 80);
        assert_eq!(c.p2p_remote_bytes, 160);
        assert_eq!(c.cells_communicated, 30);
    }

    #[test]
    fn receive_before_send_returns_none() {
        let mut rec = recorder();
        let (mut c0, mut comm) = channel_pair();
        let key = BoundaryKey::new(0, 1, 3);
        comm.start_receive(key);
        assert_eq!(comm.status(key), Some(MessageStatus::Posted));
        assert!(comm.try_receive(key, &mut rec).is_none());
        c0.send(
            key,
            vec![5.0],
            SendMeta {
                src: 0,
                dst: 1,
                cells: 1,
            },
            StepFunction::SendBoundBufs,
            &mut rec,
        );
        assert_eq!(comm.try_receive(key, &mut rec), Some(vec![5.0]));
        assert_eq!(comm.status(key), Some(MessageStatus::Received));
        // Second receive finds nothing new.
        assert!(comm.try_receive(key, &mut rec).is_none());
        rec.end_cycle(1, 0, 0, 0);
    }

    #[test]
    fn probes_are_recorded_as_receive_boundary_loops() {
        let mut rec = recorder();
        let (_c0, mut comm) = channel_pair();
        let key = BoundaryKey::new(0, 1, 0);
        comm.start_receive(key);
        for _ in 0..5 {
            let _ = comm.try_receive(key, &mut rec);
        }
        rec.end_cycle(1, 0, 0, 0);
        let s = &rec.totals().serial[&StepFunction::ReceiveBoundBufs];
        assert_eq!(s.boundary_loop, 5);
    }

    #[test]
    fn collectives_record_sizes() {
        let mut rec = recorder();
        let mut comm = Communicator::new(8);
        // One endpoint standing for 8 ranks: 64 bytes each gather 512.
        let parts = comm.all_gather_data(StepFunction::UpdateMeshBlockTree, vec![0; 64], &mut rec);
        assert_eq!(
            parts,
            vec![vec![0; 64]],
            "the only endpoint gets its own payload"
        );
        comm.all_reduce_data(StepFunction::EstimateTimeStep, vec![0; 8], 8, &mut rec);
        rec.end_cycle(1, 0, 0, 0);
        let tree = &rec.totals().comm[&StepFunction::UpdateMeshBlockTree];
        assert_eq!(tree.collectives[&CollectiveOp::AllGather], (1, 512));
        let est = &rec.totals().comm[&StepFunction::EstimateTimeStep];
        assert_eq!(est.collectives[&CollectiveOp::AllReduce], (1, 8));
    }

    #[test]
    fn stale_reset_drops_consumed_keeps_inflight() {
        let mut rec = recorder();
        let (mut c0, mut comm) = channel_pair();
        let consumed = BoundaryKey::new(0, 1, 0);
        let early = BoundaryKey::new(2, 1, 0);
        c0.send(
            consumed,
            vec![1.0],
            SendMeta {
                src: 0,
                dst: 1,
                cells: 1,
            },
            StepFunction::SendBoundBufs,
            &mut rec,
        );
        assert!(comm.try_receive(consumed, &mut rec).is_some());
        // An early arrival for the *next* exchange must survive the reset.
        c0.send(
            early,
            vec![2.0],
            SendMeta {
                src: 0,
                dst: 1,
                cells: 1,
            },
            StepFunction::SendBoundBufs,
            &mut rec,
        );
        assert!(comm.poll_ready(early, &mut rec), "probed into its slot");
        assert_eq!(comm.in_flight(), 1);
        comm.mark_all_stale();
        assert_eq!(comm.status(consumed), None, "consumed slot is dropped");
        assert_eq!(
            comm.status(early),
            Some(MessageStatus::InFlight),
            "unconsumed message survives"
        );
        assert_eq!(comm.try_receive(early, &mut rec), Some(vec![2.0]));
        rec.end_cycle(1, 0, 0, 0);
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn bad_rank_panics() {
        let mut rec = recorder();
        let mut comm = Communicator::new(2);
        comm.send(
            BoundaryKey::new(0, 1, 0),
            vec![],
            SendMeta {
                src: 0,
                dst: 5,
                cells: 0,
            },
            StepFunction::SendBoundBufs,
            &mut rec,
        );
    }

    /// One ghost exchange over `keys` from rank 0 to rank 1 of a two-rank
    /// fabric: post all receives, send all, then complete in the order
    /// given by `delivery`. Returns the merged, seq-sorted log.
    fn run_exchange(delivery: &[usize]) -> Vec<CommEvent> {
        let mut rec = recorder();
        let (mut c0, mut c1) = channel_pair();
        c0.begin_cycle(1);
        c1.begin_cycle(1);
        let keys: Vec<BoundaryKey> = (0..delivery.len())
            .map(|i| BoundaryKey::new(i, i + 1, 0))
            .collect();
        for &k in &keys {
            c1.start_receive(k);
        }
        for (i, &k) in keys.iter().enumerate() {
            c0.send(
                k,
                vec![i as f64; i + 1],
                SendMeta {
                    src: 0,
                    dst: 1,
                    cells: (i + 1) as u64,
                },
                StepFunction::SendBoundBufs,
                &mut rec,
            );
        }
        for &i in delivery {
            assert!(c1.try_receive(keys[i], &mut rec).is_some());
        }
        rec.end_cycle(1, 0, 0, 0);
        let mut merged = c0.take_events();
        merged.extend(c1.take_events());
        merged.sort_by_key(|e| e.seq);
        merged
    }

    #[test]
    fn event_log_is_monotone_and_deterministic() {
        let a = run_exchange(&[0, 1, 2, 3]);
        let b = run_exchange(&[0, 1, 2, 3]);
        assert_eq!(a, b, "identical exchanges must produce identical logs");
        let edges = crate::events::validate_event_order(&a, 2).unwrap();
        assert_eq!(edges, 4, "each key contributes one send→complete edge");
        // Sequence numbers are dense from zero in program order; each side
        // stamps its own rank.
        for (i, ev) in a.iter().enumerate() {
            assert_eq!(ev.seq, i as u64);
            assert_eq!(ev.cycle, 1);
            let sender = matches!(ev.kind, CommEventKind::Send { .. });
            assert_eq!(ev.rank, usize::from(!sender));
        }
    }

    #[test]
    fn shuffled_delivery_still_satisfies_dependencies() {
        // The receiver probes keys in an order unrelated to send order —
        // exactly what a real MPI progress engine produces. The log must
        // still validate: every completion follows its own send.
        for delivery in [[3, 1, 0, 2], [2, 3, 1, 0], [1, 0, 3, 2]] {
            let events = run_exchange(&delivery);
            let edges = crate::events::validate_event_order(&events, 2).unwrap();
            assert_eq!(edges, 4);
            // Completions appear in the shuffled order, not send order.
            let completes: Vec<BoundaryKey> = events
                .iter()
                .filter(|e| e.kind == CommEventKind::Complete)
                .map(|e| e.key)
                .collect();
            let expect: Vec<BoundaryKey> = delivery
                .iter()
                .map(|&i| BoundaryKey::new(i, i + 1, 0))
                .collect();
            assert_eq!(completes, expect);
        }
    }

    #[test]
    fn validator_rejects_broken_orderings() {
        let mut events = run_exchange(&[0, 1, 2, 3]);
        // Duplicate completion: second Complete for a consumed key.
        let dup = *events
            .iter()
            .find(|e| e.kind == CommEventKind::Complete)
            .unwrap();
        let mut with_dup = events.clone();
        with_dup.push(CommEvent {
            seq: events.last().unwrap().seq + 1,
            ..dup
        });
        assert!(crate::events::validate_event_order(&with_dup, 2)
            .unwrap_err()
            .contains("no pending send"));
        // Non-monotone sequence numbers.
        events[3].seq = 0;
        assert!(crate::events::validate_event_order(&events, 2)
            .unwrap_err()
            .contains("not strictly increasing"));
    }

    #[test]
    fn poll_ready_probes_without_consuming() {
        let mut rec = recorder();
        let (mut c0, mut comm) = channel_pair();
        let key = BoundaryKey::new(0, 1, 0);
        assert!(!comm.poll_ready(key, &mut rec), "nothing posted yet");
        comm.start_receive(key);
        assert!(!comm.poll_ready(key, &mut rec), "nothing sent yet");
        c0.send(
            key,
            vec![7.0],
            SendMeta {
                src: 0,
                dst: 1,
                cells: 1,
            },
            StepFunction::SendBoundBufs,
            &mut rec,
        );
        assert!(comm.poll_ready(key, &mut rec), "ready on the first probe");
        assert!(
            comm.poll_ready(key, &mut rec),
            "readiness is stable until consumed"
        );
        assert_eq!(comm.try_receive(key, &mut rec), Some(vec![7.0]));
        assert!(!comm.poll_ready(key, &mut rec), "consumed");
        rec.end_cycle(1, 0, 0, 0);
        // Every probe (poll_ready or try_receive) is one boundary loop.
        let s = &rec.totals().serial[&StepFunction::ReceiveBoundBufs];
        assert_eq!(s.boundary_loop, 6);
    }

    #[test]
    fn events_carry_the_issuing_task() {
        let mut rec = recorder();
        let mut comm = Communicator::new(1);
        let key = BoundaryKey::new(0, 0, 0);
        comm.set_task(Some("Stage0::PackSend"));
        comm.start_receive(key);
        comm.send(
            key,
            vec![1.0],
            SendMeta {
                src: 0,
                dst: 0,
                cells: 1,
            },
            StepFunction::SendBoundBufs,
            &mut rec,
        );
        comm.set_task(Some("Stage0::WaitUnpack"));
        assert!(comm.try_receive(key, &mut rec).is_some());
        comm.set_task(None);
        comm.all_reduce_data(StepFunction::EstimateTimeStep, vec![0; 8], 8, &mut rec);
        rec.end_cycle(1, 0, 0, 0);
        let tasks: Vec<Option<&'static str>> = comm.events().iter().map(|e| e.task).collect();
        assert_eq!(
            tasks,
            vec![Some("Stage0::PackSend"), Some("Stage0::WaitUnpack"), None]
        );
    }

    #[test]
    fn capture_off_logs_nothing_and_draws_no_sequence_numbers() {
        let mut rec = recorder();
        let mut comm = Communicator::new(1);
        let key = BoundaryKey::new(0, 0, 0);
        let meta = SendMeta {
            src: 0,
            dst: 0,
            cells: 1,
        };
        comm.set_event_capture(false);
        comm.start_receive(key);
        comm.send(key, vec![1.0], meta, StepFunction::SendBoundBufs, &mut rec);
        assert!(comm.try_receive(key, &mut rec).is_some());
        comm.all_reduce_data(StepFunction::EstimateTimeStep, vec![0; 8], 8, &mut rec);
        comm.record_event(key, StepFunction::ReceiveBoundBufs, CommEventKind::Complete);
        assert_eq!(comm.resident_events(), 0);
        // Back on, numbering starts where it would have without the gap.
        comm.set_event_capture(true);
        comm.mark_all_stale();
        comm.all_reduce_data(StepFunction::EstimateTimeStep, vec![0; 8], 8, &mut rec);
        assert_eq!(comm.events().len(), 1);
        assert_eq!(comm.events()[0].seq, 0);
        rec.end_cycle(1, 0, 0, 0);
    }

    #[test]
    fn channel_transport_delivers_cross_rank_messages() {
        let mut rec = recorder();
        let (mut c0, mut c1) = channel_pair();
        let key = BoundaryKey::new(0, 1, 7);
        c1.start_receive(key);
        assert!(c1.try_receive(key, &mut rec).is_none(), "nothing sent yet");
        c0.send(
            key,
            vec![3.5, 4.5],
            SendMeta {
                src: 0,
                dst: 1,
                cells: 2,
            },
            StepFunction::SendBoundBufs,
            &mut rec,
        );
        assert_eq!(c1.try_receive(key, &mut rec), Some(vec![3.5, 4.5]));
        // The sender's slot map never saw the message.
        assert_eq!(c0.status(key), None);
    }

    #[test]
    fn a_pending_receive_raises_peer_lost_once_the_sender_is_gone() {
        let mut rec = recorder();
        let (c0, mut c1) = channel_pair();
        let key = BoundaryKey::new(0, 1, 7);
        c1.start_receive(key);
        assert!(
            c1.try_receive(key, &mut rec).is_none(),
            "sender still attached"
        );
        drop(c0);
        let lost = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c1.try_receive(key, &mut rec)
        }))
        .expect_err("the message can never come");
        assert_eq!(
            lost.downcast_ref::<PeerLost>(),
            Some(&PeerLost {
                rank: 1,
                wait: "boundary message"
            })
        );
    }

    #[test]
    fn channel_transport_queues_same_key_sends_fifo() {
        let mut rec = recorder();
        let (mut c0, mut c1) = channel_pair();
        let key = BoundaryKey::new(0, 1, 0);
        // A fast sender ships two exchanges' worth of the same key before
        // the receiver consumes the first.
        for v in [1.0, 2.0] {
            c0.send(
                key,
                vec![v],
                SendMeta {
                    src: 0,
                    dst: 1,
                    cells: 1,
                },
                StepFunction::SendBoundBufs,
                &mut rec,
            );
        }
        c1.start_receive(key);
        assert_eq!(c1.try_receive(key, &mut rec), Some(vec![1.0]));
        // The second message must not have overwritten the first; it is
        // promoted only after the end-of-exchange reset frees the slot.
        c1.mark_all_stale();
        c1.start_receive(key);
        assert_eq!(c1.try_receive(key, &mut rec), Some(vec![2.0]));
        rec.end_cycle(1, 0, 0, 0);
    }

    /// Rank labels on a lone endpoint are virtual: a message to any label
    /// but the endpoint's own has nowhere to go and is refused, naming the
    /// rank.
    #[test]
    #[should_panic(expected = "rank 2 has no endpoint")]
    fn a_lone_endpoint_refuses_a_message_to_another_rank() {
        let mut rec = recorder();
        let mut comm = Communicator::new(4);
        let meta = SendMeta {
            src: 0,
            dst: 2,
            cells: 1,
        };
        let key = BoundaryKey::new(0, 5, 0);
        comm.send(key, vec![1.0], meta, StepFunction::SendBoundBufs, &mut rec);
    }

    #[test]
    fn one_endpoint_receives_same_key_sends_fifo() {
        // Messages an endpoint addresses to itself come back through its
        // transport's drain like any other: the second send of a key
        // queues behind the first instead of overwriting it.
        let mut rec = recorder();
        let mut comm = Communicator::new(1);
        let key = BoundaryKey::new(3, 3, 0);
        let meta = SendMeta {
            src: 0,
            dst: 0,
            cells: 1,
        };
        for v in [1.0, 2.0] {
            comm.send(key, vec![v], meta, StepFunction::SendBoundBufs, &mut rec);
        }
        comm.start_receive(key);
        assert_eq!(comm.try_receive(key, &mut rec), Some(vec![1.0]));
        comm.mark_all_stale();
        comm.start_receive(key);
        assert_eq!(comm.try_receive(key, &mut rec), Some(vec![2.0]));
        rec.end_cycle(1, 0, 0, 0);
    }

    #[test]
    fn channel_events_merge_into_valid_multirank_log() {
        let mut rec = recorder();
        let (mut c0, mut c1) = channel_pair();
        c0.begin_cycle(0);
        c1.begin_cycle(0);
        let k01 = BoundaryKey::new(0, 1, 0);
        let k10 = BoundaryKey::new(1, 0, 0);
        c0.start_receive(k10);
        c1.start_receive(k01);
        c0.send(
            k01,
            vec![1.0],
            SendMeta {
                src: 0,
                dst: 1,
                cells: 1,
            },
            StepFunction::SendBoundBufs,
            &mut rec,
        );
        c1.send(
            k10,
            vec![2.0],
            SendMeta {
                src: 1,
                dst: 0,
                cells: 1,
            },
            StepFunction::SendBoundBufs,
            &mut rec,
        );
        assert!(c0.try_receive(k10, &mut rec).is_some());
        assert!(c1.try_receive(k01, &mut rec).is_some());
        let reduce = |c: &mut Communicator| {
            let mut rec = recorder();
            c.all_reduce_data(StepFunction::EstimateTimeStep, vec![0; 8], 8, &mut rec);
        };
        let peer = std::thread::spawn(move || {
            reduce(&mut c1);
            c1
        });
        reduce(&mut c0);
        let mut c1 = peer.join().unwrap();
        rec.end_cycle(1, 0, 0, 0);
        let mut merged = c0.take_events();
        merged.extend(c1.take_events());
        merged.sort_by_key(|e| e.seq);
        let edges = crate::events::validate_event_order(&merged, 2).unwrap();
        assert_eq!(edges, 2, "one send→complete edge per direction");
        assert!(merged.iter().any(|e| e.rank == 1), "rank 1 stamped events");
    }

    #[test]
    fn zero_length_payloads_round_trip() {
        // Empty boundary buffers (a degenerate face, or a chaos-exercised
        // edge) must flow through post/drain/promote/complete unchanged.
        let mut rec = recorder();
        let (mut c0, mut c1) = channel_pair();
        let key = BoundaryKey::new(0, 1, 9);
        c1.start_receive(key);
        c0.send(
            key,
            vec![],
            SendMeta {
                src: 0,
                dst: 1,
                cells: 0,
            },
            StepFunction::SendBoundBufs,
            &mut rec,
        );
        assert_eq!(c1.try_receive(key, &mut rec), Some(vec![]));
        // The local path too.
        let lkey = BoundaryKey::new(1, 1, 9);
        c1.send(
            lkey,
            vec![],
            SendMeta {
                src: 1,
                dst: 1,
                cells: 0,
            },
            StepFunction::SendBoundBufs,
            &mut rec,
        );
        assert_eq!(c1.try_receive(lkey, &mut rec), Some(vec![]));
        rec.end_cycle(1, 0, 0, 0);
    }

    /// Single-endpoint transport whose drain replays a scripted arrival
    /// stream — lets tests hand-feed duplicated deliveries with explicit
    /// uids, exactly what the chaos fault layer produces.
    #[derive(Debug, Default)]
    struct ReplayTransport {
        arrivals: std::collections::VecDeque<WireMessage>,
        seq: u64,
    }

    impl Transport for ReplayTransport {
        fn rank(&self) -> usize {
            1
        }
        fn nranks(&self) -> usize {
            2
        }
        fn next_seq(&mut self) -> u64 {
            let s = self.seq;
            self.seq += 1;
            s
        }
        fn post(&mut self, _msg: WireMessage) {}
        fn drain(&mut self) -> Vec<WireMessage> {
            self.arrivals.drain(..).collect()
        }
        fn all_gather_bytes(&mut self, _label: &'static str, payload: Vec<u8>) -> Vec<Vec<u8>> {
            vec![payload]
        }
    }

    #[test]
    fn duplicated_deliveries_are_idempotent_at_the_mailbox() {
        let mut rec = recorder();
        let key = BoundaryKey::new(0, 1, 0);
        let wire = |uid: u64, v: f64| WireMessage {
            key,
            payload: vec![v],
            meta: SendMeta {
                src: 0,
                dst: 1,
                cells: 1,
            },
            uid,
        };
        let mut transport = ReplayTransport::default();
        // uid 1 delivered three times (once late, after uid 2), uid 2 twice:
        // the receiver must observe exactly [1.0] then [2.0].
        transport.arrivals.extend([
            wire(1, 1.0),
            wire(1, 1.0),
            wire(2, 2.0),
            wire(1, 1.0),
            wire(2, 2.0),
        ]);
        let mut comm = Communicator::with_transport(2, Box::new(transport));
        comm.start_receive(key);
        assert_eq!(comm.try_receive(key, &mut rec), Some(vec![1.0]));
        comm.mark_all_stale();
        comm.start_receive(key);
        assert_eq!(comm.try_receive(key, &mut rec), Some(vec![2.0]));
        comm.mark_all_stale();
        comm.start_receive(key);
        assert!(
            comm.try_receive(key, &mut rec).is_none(),
            "every surviving arrival was a duplicate"
        );
        rec.end_cycle(1, 0, 0, 0);
    }

    #[test]
    fn dedup_tracks_streams_per_sender() {
        // After a regrid the same boundary key can be fed by a different
        // source rank whose uid counter is behind — that must NOT be
        // mistaken for a duplicate (watermarks are per (key, src)).
        let mut rec = recorder();
        let key = BoundaryKey::new(0, 1, 0);
        let mut transport = ReplayTransport::default();
        transport.arrivals.push_back(WireMessage {
            key,
            payload: vec![1.0],
            meta: SendMeta {
                src: 0,
                dst: 1,
                cells: 1,
            },
            uid: 50,
        });
        transport.arrivals.push_back(WireMessage {
            key,
            payload: vec![2.0],
            meta: SendMeta {
                src: 1,
                dst: 1,
                cells: 1,
            },
            uid: 3,
        });
        let mut comm = Communicator::with_transport(2, Box::new(transport));
        comm.start_receive(key);
        assert_eq!(comm.try_receive(key, &mut rec), Some(vec![1.0]));
        comm.mark_all_stale();
        comm.start_receive(key);
        assert_eq!(comm.try_receive(key, &mut rec), Some(vec![2.0]));
        rec.end_cycle(1, 0, 0, 0);
    }

    #[test]
    fn collective_data_rendezvous_returns_rank_indexed_parts() {
        let (mut c0, mut c1) = channel_pair();
        let h = std::thread::spawn(move || {
            let mut rec = recorder();
            let parts = c1.all_gather_data(StepFunction::UpdateMeshBlockTree, vec![1, 1], &mut rec);
            rec.end_cycle(1, 0, 0, 0);
            parts
        });
        let mut rec = recorder();
        let parts = c0.all_gather_data(StepFunction::UpdateMeshBlockTree, vec![0], &mut rec);
        rec.end_cycle(1, 0, 0, 0);
        let other = h.join().unwrap();
        assert_eq!(parts, vec![vec![0], vec![1, 1]]);
        assert_eq!(parts, other, "all ranks see the same rank-indexed parts");
    }
}
