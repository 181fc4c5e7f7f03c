//! # vibe-comm
//!
//! An MPI layer for AMR runs whose ranks are threads of one process: mesh
//! blocks are assigned to *ranks*, messages between rank shards travel
//! through a mailbox over a [`Transport`], and every point-to-point
//! transfer and collective is recorded as a communication event
//! (local-copy vs. remote-message, byte and cell counts) for the platform
//! cost model — also the transfers a process moves as plain memory copies
//! between blocks it holds under different rank labels.
//!
//! The layer reproduces the structure of Parthenon's communication stack:
//!
//! * [`Communicator::start_receive`] — `StartReceiveBoundBufs` posts
//!   asynchronous receives;
//! * [`Communicator::send`] — `SendBoundBufs` ships packed buffers
//!   (non-blocking);
//! * [`Communicator::try_receive`] — `ReceiveBoundBufs` probes
//!   (`MPI_Iprobe`) and completes (`MPI_Test`) incoming messages;
//! * [`BufferCache`] — the recorded cost inputs of the boundary-key
//!   sort/shuffle of `InitializeBufferCache` and of the allocation-heavy
//!   `RebuildBufferCache`, both identified as serial hotspots in §VIII-A of
//!   the paper.
//!
//! On a [`channel_fabric`] a dead rank is noticed one way: its endpoint
//! leaves the fabric, and every wait on a peer — the collective
//! rendezvous, the boundary-message poll and the migration fetch built on
//! it — raises the typed panic payload [`PeerLost`] instead of blocking.

pub mod cache;
pub mod events;
pub mod mailbox;
pub mod transport;

pub use cache::{BoundaryKey, BufferCache, CacheConfig};
pub use events::{
    match_cross_edges, validate_event_order, validate_multirank_event_order, CommEvent,
    CommEventKind,
};
pub use mailbox::{Communicator, MessageStatus};
pub use transport::{
    channel_fabric, ChannelTransport, CollectiveHub, PeerLost, SendMeta, SharedTransport,
    Transport, WireMessage,
};
