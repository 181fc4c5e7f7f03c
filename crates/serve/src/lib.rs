//! # vibe-serve
//!
//! A multi-tenant simulation service over the deterministic AMR runtime:
//! tenants submit [`JobConfig`]s, a weighted round-robin [`Scheduler`]
//! time-slices them across a bounded pool of runner threads, and every
//! slice boundary is a full [`Snapshot`](vibe_core::Snapshot) checkpoint
//! while the job's session stays resident — so jobs recover from a rank
//! failure, and can be preempted, parked, and resumed on a *different*
//! `(nranks, threads)` execution geometry with a bitwise-identical final
//! solution.
//!
//! That reproducibility invariant is what makes the [`ResultCache`]
//! exact: results are keyed by the FNV-1a fingerprint of the canonical
//! *problem* description (geometry excluded), so an identical
//! resubmission — any tenant, any decomposition — is served from the
//! cache with zero recompute, and the served fingerprint equals what a
//! fresh run would compute bit for bit.
//!
//! The [`http`] module puts a dependency-free HTTP/1.1 front end on top
//! (`POST /jobs`, `GET /jobs/:id`, chunked JSONL metrics,
//! preempt/resume, `GET /stats`).
//!
//! ```no_run
//! use std::sync::Arc;
//! use vibe_serve::{http::Server, Service, ServiceConfig};
//!
//! let service = Arc::new(Service::start(ServiceConfig::default()));
//! let server = Server::start(Arc::clone(&service), 8080).unwrap();
//! println!("listening on 127.0.0.1:{}", server.port());
//! ```

pub mod cache;
pub mod config;
pub mod http;
pub mod json;
pub mod scheduler;
pub mod service;

pub use cache::{CachedResult, ResultCache};
pub use config::{ConfigError, JobConfig};
pub use http::Server;
pub use json::Json;
pub use scheduler::Scheduler;
pub use service::{JobResult, JobState, JobView, Service, ServiceConfig, ServiceStats};
