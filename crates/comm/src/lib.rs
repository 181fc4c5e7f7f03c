//! # vibe-comm
//!
//! An MPI layer for AMR runs whose ranks are threads of one process: mesh
//! blocks are assigned to *ranks*, messages between rank shards travel
//! through a mailbox over the endpoints of a [`channel_fabric`], and every
//! point-to-point transfer and collective is recorded (local-copy vs.
//! remote-message, byte and cell counts) for the platform cost model —
//! also the transfers a process moves as plain memory copies between
//! blocks it holds under different rank labels. A driver holding every
//! block runs on a *lone endpoint* ([`Communicator::new`]), which carries
//! no message to another rank label.
//!
//! The layer reproduces the structure of Parthenon's communication stack:
//!
//! * [`Communicator::send`] — `SendBoundBufs` ships packed buffers
//!   (non-blocking);
//! * [`Communicator::try_receive`] — `ReceiveBoundBufs` probes
//!   (`MPI_Iprobe`) and completes (`MPI_Test`) incoming messages: each key
//!   is one FIFO queue of arrived messages, so a message is matched
//!   whether or not a receive was posted for it
//!   ([`Communicator::start_receive`], `StartReceiveBoundBufs`, records
//!   nothing);
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
pub use events::{match_cross_edges, validate_event_order, CommEvent, CommEventKind};
pub use mailbox::Communicator;
pub use transport::{
    channel_fabric, ChannelTransport, CollectiveHub, PeerLost, SendMeta, Transport, WireMessage,
};
