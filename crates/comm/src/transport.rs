//! Pluggable message transports behind the [`Communicator`] mailbox.
//!
//! Two implementations back the same mailbox contract, and on both a
//! posted message surfaces from a later `drain` of its destination
//! endpoint — the one arrival path the mailbox knows:
//!
//! * [`SharedTransport`] — one endpoint with no peers. Every message is
//!   addressed to itself and waits in a loopback queue for the next drain;
//!   collectives involve nobody else. Sequence numbers are a local counter
//!   starting at zero, preserving the dense per-communicator numbering the
//!   event-log tests rely on. (A driver holding every block moves its
//!   boundaries without messages; this path carries what is still sent.)
//! * [`ChannelTransport`] — one endpoint per rank shard, wired together by
//!   [`channel_fabric`]. Sends travel over `mpsc` channels (a message to
//!   the endpoint itself over its own), sequence numbers come from one
//!   shared atomic counter (so the merged multi-rank log is causally
//!   ordered: a completion's seq is always greater than its send's,
//!   because the send allocated its seq before the message entered the
//!   channel), and collectives rendezvous through a [`CollectiveHub`].
//!
//! [`Communicator`]: crate::Communicator

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::cache::BoundaryKey;

/// Message routing metadata carried alongside a payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendMeta {
    /// Sending virtual rank.
    pub src: usize,
    /// Receiving virtual rank.
    pub dst: usize,
    /// Ghost/flux cells carried, for workload accounting.
    pub cells: u64,
}

/// A message on the wire: boundary key, payload, and routing metadata.
#[derive(Debug, Clone)]
pub struct WireMessage {
    /// Matching key (sender gid, receiver gid, tag).
    pub key: BoundaryKey,
    /// Field data being exchanged.
    pub payload: Vec<f64>,
    /// Routing metadata.
    pub meta: SendMeta,
    /// Per-sender monotone message id, assigned by the sending mailbox
    /// (`0` = unassigned, for messages that never leave the address
    /// space). Within one `(key, src)` stream uids strictly increase, so a
    /// receiver can discard duplicated deliveries — the idempotence the
    /// chaos fault layer relies on.
    pub uid: u64,
}

/// The wire beneath the mailbox: moves payloads between ranks, allocates
/// event sequence numbers, and runs collectives.
///
/// The mailbox owns message *matching* (posted receives, probe semantics);
/// the transport owns message *movement*. A posted message surfaces from a
/// later `drain` of the endpoint it is addressed to — this one included.
pub trait Transport: Send + std::fmt::Debug {
    /// This endpoint's rank.
    fn rank(&self) -> usize;
    /// Total ranks on the fabric.
    fn nranks(&self) -> usize;
    /// Allocate the next event sequence number.
    fn next_seq(&mut self) -> u64;
    /// Ship a message toward `msg.meta.dst`.
    fn post(&mut self, msg: WireMessage);
    /// Pull every message shipped here since the last drain, in arrival
    /// order.
    fn drain(&mut self) -> Vec<WireMessage>;
    /// Deposit `payload` and return every rank's deposit, indexed by rank.
    /// Blocks until all ranks arrive, or raises [`PeerLost`] when one of
    /// them has left the fabric. `label` names the rendezvous point;
    /// mismatched labels across ranks are a program error and panic.
    fn all_gather_bytes(&mut self, label: &'static str, payload: Vec<u8>) -> Vec<Vec<u8>>;
    /// Block until every rank reaches the same barrier.
    fn barrier(&mut self, label: &'static str) {
        self.all_gather_bytes(label, Vec::new());
    }
    /// Whether the fabric still has every endpoint attached. A mailbox
    /// blocked waiting for a boundary message consults this to raise
    /// [`PeerLost`] promptly — instead of spinning forever — when the peer
    /// it is waiting on has died. Single-endpoint transports are always
    /// healthy.
    fn healthy(&self) -> bool {
        true
    }
}

/// Same-address-space transport: one endpoint plays every virtual rank.
///
/// Self-contained — no fabric, no peers. Every `post` is a self-delivery
/// (the single endpoint is both sides of every message), handed back by
/// the next `drain`, and collectives return only this endpoint's payload.
#[derive(Debug, Default)]
pub struct SharedTransport {
    next_seq: u64,
    loopback: VecDeque<WireMessage>,
}

impl SharedTransport {
    /// Creates the transport with a fresh local sequence counter.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Transport for SharedTransport {
    fn rank(&self) -> usize {
        0
    }

    fn nranks(&self) -> usize {
        1
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    fn post(&mut self, msg: WireMessage) {
        self.loopback.push_back(msg);
    }

    fn drain(&mut self) -> Vec<WireMessage> {
        self.loopback.drain(..).collect()
    }

    fn all_gather_bytes(&mut self, _label: &'static str, payload: Vec<u8>) -> Vec<Vec<u8>> {
        vec![payload]
    }
}

/// State of one in-progress gather generation.
#[derive(Debug, Default)]
struct HubState {
    /// Label of the collective currently rendezvousing, for mismatch checks.
    label: Option<&'static str>,
    /// Per-rank deposits for the current generation.
    deposits: Vec<Option<Vec<u8>>>,
    /// Published result of the completed generation, until all ranks take it.
    result: Option<Arc<Vec<Vec<u8>>>>,
    /// How many ranks have taken the published result.
    taken: usize,
    /// Endpoints still attached to the fabric. A [`ChannelTransport`] that
    /// drops (shard panicked, or a runner tore the session down mid-run)
    /// leaves the hub; ranks blocked waiting for its deposit raise
    /// [`PeerLost`] instead of deadlocking.
    alive: usize,
}

/// Panic payload of a wait that can never complete because a peer
/// endpoint left the fabric: the one way a rank learns that another died.
///
/// Raised with [`std::panic::panic_any`] by the collective rendezvous and
/// by the mailbox's boundary-message poll (which the regrid migration fetch
/// goes through too), so a conductor tells a *consequence* of a death from
/// its cause by the payload's type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerLost {
    /// The waiting rank.
    pub rank: usize,
    /// What it was waiting for: a collective's label, or
    /// `"boundary message"`.
    pub wait: &'static str,
}

impl std::fmt::Display for PeerLost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {} lost a peer endpoint while waiting for {}",
            self.rank, self.wait
        )
    }
}

/// Blocking all-gather rendezvous shared by every [`ChannelTransport`] on a
/// fabric.
///
/// Generation-safe: a rank that finishes one gather and races into the next
/// waits until the previous generation's result has been taken by everyone
/// (its own deposit slot is free and no stale result is published) before
/// depositing. The executor guarantees all ranks issue collectives in the
/// same program order, and the `label` check turns any violation of that
/// guarantee into a panic instead of silently mixing payloads.
///
/// A rank that panics inside the hub poisons its mutex; the hub recovers the
/// guard (no code path leaves the state half-updated), so the panicking
/// rank's endpoint still leaves and its peers still raise [`PeerLost`].
#[derive(Debug)]
pub struct CollectiveHub {
    nranks: usize,
    state: Mutex<HubState>,
    cond: Condvar,
}

impl CollectiveHub {
    /// Creates a hub for `nranks` participants.
    pub fn new(nranks: usize) -> Self {
        Self {
            nranks,
            state: Mutex::new(HubState {
                label: None,
                deposits: vec![None; nranks],
                result: None,
                taken: 0,
                alive: nranks,
            }),
            cond: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, HubState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, st: MutexGuard<'a, HubState>) -> MutexGuard<'a, HubState> {
        self.cond.wait(st).unwrap_or_else(PoisonError::into_inner)
    }

    /// Endpoints currently attached to the fabric (each
    /// [`ChannelTransport`] detaches on drop).
    pub fn attached(&self) -> usize {
        self.lock().alive
    }

    /// Deposits `payload` for `rank` and blocks until every rank has
    /// deposited, then returns all payloads indexed by rank.
    ///
    /// # Panics
    ///
    /// With a [`PeerLost`] payload — instead of blocking forever — when a
    /// peer endpoint drops off the fabric while this generation's deposits
    /// are still incomplete (a shard panicked mid-cycle, or its thread was
    /// torn down). Ranks that already deposited are themselves blocked in
    /// this gather, so an endpoint can only disappear *before* depositing;
    /// its generation can then never complete and every waiter raises
    /// [`PeerLost`], which the conductor classifies as a cascade. Panics
    /// with a message on a label mismatch (a program error).
    fn gather(&self, rank: usize, label: &'static str, payload: Vec<u8>) -> Vec<Vec<u8>> {
        let mut st = self.lock();
        // Wait out the previous generation: our deposit slot must be free
        // and no published result may linger (we would steal it). This
        // wait needs no liveness check: a published result is always taken
        // (every rank that deposited is blocked here until it takes).
        while st.result.is_some() || st.deposits[rank].is_some() {
            st = self.wait(st);
        }
        match st.label {
            None => st.label = Some(label),
            Some(cur) => assert_eq!(
                cur, label,
                "collective rendezvous mismatch: rank {rank} joined '{label}' while \
                 '{cur}' is in progress"
            ),
        }
        st.deposits[rank] = Some(payload);
        if st.deposits.iter().all(Option::is_some) {
            let all = st.deposits.iter_mut().filter_map(Option::take).collect();
            st.result = Some(Arc::new(all));
            st.taken = 0;
            st.label = None;
            self.cond.notify_all();
        }
        let result = loop {
            if let Some(result) = &st.result {
                break Arc::clone(result);
            }
            if st.alive < self.nranks {
                drop(st);
                std::panic::panic_any(PeerLost { rank, wait: label });
            }
            st = self.wait(st);
        };
        st.taken += 1;
        if st.taken == self.nranks {
            st.result = None;
            self.cond.notify_all();
        }
        result.as_ref().clone()
    }

    /// Detaches one endpoint (called when a [`ChannelTransport`] drops) and
    /// wakes every waiter so ranks parked on the departed peer's deposit
    /// re-check liveness — also when the departing rank poisoned the hub
    /// by panicking inside [`Self::gather`].
    fn leave(&self) {
        let mut st = self.lock();
        st.alive = st.alive.saturating_sub(1);
        self.cond.notify_all();
    }
}

/// Cross-thread channel transport: one endpoint per rank shard.
///
/// Built by [`channel_fabric`]. A send goes over its destination's `mpsc`
/// channel, this endpoint's own for a send to self. All endpoints share one
/// atomic sequence counter and one [`CollectiveHub`].
pub struct ChannelTransport {
    rank: usize,
    nranks: usize,
    seq: Arc<AtomicU64>,
    /// Indexed by destination rank, this endpoint's own channel included.
    peers: Vec<Sender<WireMessage>>,
    inbox: Receiver<WireMessage>,
    hub: Arc<CollectiveHub>,
}

impl std::fmt::Debug for ChannelTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelTransport")
            .field("rank", &self.rank)
            .field("nranks", &self.nranks)
            .finish_non_exhaustive()
    }
}

impl Drop for ChannelTransport {
    fn drop(&mut self) {
        self.hub.leave();
    }
}

impl Transport for ChannelTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn nranks(&self) -> usize {
        self.nranks
    }

    fn next_seq(&mut self) -> u64 {
        self.seq.fetch_add(1, Ordering::SeqCst)
    }

    fn post(&mut self, msg: WireMessage) {
        // A peer hanging up (panicked shard) surfaces as a send error; the
        // message is simply dropped — the run is already doomed and the
        // next wait on this rank raises PeerLost.
        let _ = self.peers[msg.meta.dst].send(msg);
    }

    fn drain(&mut self) -> Vec<WireMessage> {
        let mut out = Vec::new();
        while let Ok(msg) = self.inbox.try_recv() {
            out.push(msg);
        }
        out
    }

    fn all_gather_bytes(&mut self, label: &'static str, payload: Vec<u8>) -> Vec<Vec<u8>> {
        self.hub.gather(self.rank, label, payload)
    }

    fn healthy(&self) -> bool {
        self.hub.attached() >= self.nranks
    }
}

/// Builds a fully connected `nranks`-endpoint channel fabric: endpoint `r`
/// is for rank `r`'s shard. All endpoints share one sequence counter and
/// one collective hub.
pub fn channel_fabric(nranks: usize) -> Vec<ChannelTransport> {
    assert!(nranks > 0, "fabric needs at least one rank");
    let seq = Arc::new(AtomicU64::new(0));
    let hub = Arc::new(CollectiveHub::new(nranks));
    let (senders, receivers): (Vec<_>, Vec<_>) =
        (0..nranks).map(|_| std::sync::mpsc::channel()).unzip();
    receivers
        .into_iter()
        .enumerate()
        .map(|(rank, inbox)| ChannelTransport {
            rank,
            nranks,
            seq: Arc::clone(&seq),
            peers: senders.clone(),
            inbox,
            hub: Arc::clone(&hub),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;
    use std::time::Duration;

    fn msg(src: usize, dst: usize, tag: u32, payload: Vec<f64>) -> WireMessage {
        WireMessage {
            key: BoundaryKey::new(src, dst, tag),
            payload,
            meta: SendMeta { src, dst, cells: 1 },
            uid: 0,
        }
    }

    #[test]
    fn shared_transport_self_delivers_and_counts_locally() {
        let mut t = SharedTransport::new();
        assert_eq!(t.next_seq(), 0);
        assert_eq!(t.next_seq(), 1);
        t.post(msg(0, 0, 7, vec![1.0]));
        t.post(msg(2, 3, 8, vec![2.0]));
        let got = t.drain();
        assert_eq!(got.len(), 2, "every message comes back, in order");
        assert_eq!((got[0].payload[0], got[1].payload[0]), (1.0, 2.0));
        assert!(t.drain().is_empty());
        assert_eq!(t.all_gather_bytes("x", vec![3]), vec![vec![3]]);
    }

    #[test]
    fn channel_fabric_routes_cross_rank_messages() {
        let mut fabric = channel_fabric(2);
        let mut t1 = fabric.pop().unwrap();
        let mut t0 = fabric.pop().unwrap();
        t0.post(msg(0, 1, 3, vec![2.5]));
        // A self-delivery arrives over the endpoint's own channel.
        t0.post(msg(0, 0, 4, vec![1.0]));
        let got = t1.drain();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].key, BoundaryKey::new(0, 1, 3));
        assert_eq!(got[0].payload, vec![2.5]);
        let own = t0.drain();
        assert_eq!(own.len(), 1);
        assert_eq!(own[0].key, BoundaryKey::new(0, 0, 4));
    }

    #[test]
    fn shared_seq_is_globally_unique() {
        let mut fabric = channel_fabric(2);
        let mut t1 = fabric.pop().unwrap();
        let mut t0 = fabric.pop().unwrap();
        let a = t0.next_seq();
        let b = t1.next_seq();
        let c = t0.next_seq();
        assert!(a < b && b < c);
    }

    #[test]
    fn hub_gathers_across_threads_and_stays_generation_safe() {
        let nranks = 4;
        let fabric = channel_fabric(nranks);
        let handles: Vec<_> = fabric
            .into_iter()
            .map(|mut t| {
                std::thread::spawn(move || {
                    let mut seen = Vec::new();
                    for round in 0u8..8 {
                        let got = t.all_gather_bytes("round", vec![t.rank() as u8, round]);
                        seen.push(got);
                    }
                    seen
                })
            })
            .collect();
        for h in handles {
            let seen = h.join().unwrap();
            for (round, got) in seen.iter().enumerate() {
                for (rank, bytes) in got.iter().enumerate() {
                    assert_eq!(bytes, &vec![rank as u8, round as u8]);
                }
            }
        }
    }

    /// Blocks until `rank` has deposited into the hub's open generation.
    fn wait_for_deposit(hub: &CollectiveHub, rank: usize) {
        while hub.lock().deposits[rank].is_none() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn hub_panics_on_label_mismatch() {
        // Rank 1 deposits under "b"; rank 0 then joins "a", which panics
        // and poisons the hub. Once rank 0's endpoint leaves, rank 1 raises
        // PeerLost instead of waiting on the poisoned hub forever.
        let hub = Arc::new(CollectiveHub::new(2));
        let h1 = Arc::clone(&hub);
        let peer = std::thread::spawn(move || h1.gather(1, "b", vec![]));
        wait_for_deposit(&hub, 1);
        let mismatch = std::panic::catch_unwind(AssertUnwindSafe(|| hub.gather(0, "a", vec![])))
            .expect_err("mismatched labels panic");
        let text = mismatch
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            text.contains("collective rendezvous mismatch"),
            "unexpected panic: {text}"
        );
        // What rank 0's endpoint does as its thread unwinds.
        hub.leave();
        let lost = peer.join().expect_err("the peer must not return");
        assert_eq!(
            lost.downcast_ref::<PeerLost>(),
            Some(&PeerLost { rank: 1, wait: "b" })
        );
    }

    #[test]
    fn a_rank_panicking_in_the_hub_does_not_strand_its_peer() {
        // The same mismatch between two real endpoints: the panicking
        // rank's endpoint leaves as its thread unwinds, and the peer must
        // end with PeerLost within a bounded wait, not block forever.
        let mut fabric = channel_fabric(2);
        let hub = Arc::clone(&fabric[0].hub);
        let mut t1 = fabric.pop().unwrap();
        let mut t0 = fabric.pop().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let peer = std::thread::spawn(move || {
            let out =
                std::panic::catch_unwind(AssertUnwindSafe(|| t1.all_gather_bytes("b", vec![])));
            let _ = tx.send(out.map_err(|p| p.downcast_ref::<PeerLost>().copied()));
        });
        wait_for_deposit(&hub, 1);
        std::thread::spawn(move || t0.all_gather_bytes("a", vec![]))
            .join()
            .expect_err("mismatched labels panic");
        let got = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the peer ends within 5 s instead of hanging");
        assert_eq!(got, Err(Some(PeerLost { rank: 1, wait: "b" })));
        peer.join().unwrap();
    }

    #[test]
    fn dropped_endpoint_unblocks_gather_waiters() {
        // Two ranks rendezvous while the third endpoint is torn down
        // without ever depositing (the preempt path): both waiters must
        // raise PeerLost promptly instead of deadlocking.
        let mut fabric = channel_fabric(3);
        let hub = Arc::clone(&fabric[0].hub);
        let dropped = fabric.pop().unwrap();
        let waiters: Vec<_> = fabric
            .into_iter()
            .map(|mut t| {
                std::thread::spawn(move || {
                    t.all_gather_bytes("doomed", vec![t.rank() as u8]);
                })
            })
            .collect();
        wait_for_deposit(&hub, 0);
        wait_for_deposit(&hub, 1);
        drop(dropped);
        for (rank, h) in waiters.into_iter().enumerate() {
            let err = h.join().expect_err("waiter must panic, not hang");
            assert_eq!(
                err.downcast_ref::<PeerLost>(),
                Some(&PeerLost {
                    rank,
                    wait: "doomed"
                })
            );
        }
    }

    #[test]
    fn normal_shutdown_order_is_leave_safe() {
        // Endpoints that complete their last gather and drop in arbitrary
        // order must not disturb ranks still taking the published result.
        let fabric = channel_fabric(4);
        let handles: Vec<_> = fabric
            .into_iter()
            .map(|mut t| {
                std::thread::spawn(move || {
                    for _ in 0..16 {
                        t.all_gather_bytes("last", vec![t.rank() as u8]);
                    }
                    // Transport drops here, racing the other ranks' takes.
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn fabric_health_degrades_when_an_endpoint_drops() {
        let mut fabric = channel_fabric(3);
        let dropped = fabric.pop().unwrap();
        assert!(fabric.iter().all(|t| t.healthy()));
        drop(dropped);
        assert!(fabric.iter().all(|t| !t.healthy()));
    }

    #[test]
    fn barrier_synchronizes_all_ranks() {
        let fabric = channel_fabric(3);
        let flag = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = fabric
            .into_iter()
            .map(|mut t| {
                let flag = Arc::clone(&flag);
                std::thread::spawn(move || {
                    flag.fetch_add(1, Ordering::SeqCst);
                    t.barrier("sync");
                    // After the barrier everyone must have incremented.
                    assert_eq!(flag.load(Ordering::SeqCst), 3);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
