//! The workspace's JSON module lives in `vibe-prof`; this path stays for
//! the service's callers.
pub use vibe_prof::json::*;
