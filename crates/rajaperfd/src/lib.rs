//! `rajaperfd` — profiling as a service for RAJAPerf-rs.
//!
//! The one-shot `rajaperf` CLI pays full process start-up (registry
//! construction, rayon pool spin-up, adiak init) per campaign and forgets
//! every measurement when it exits. This crate keeps the suite resident: a
//! long-running daemon accepts `run` / `sweep` / `analyze` requests over
//! line-delimited JSON on a unix socket ([`protocol`]), executes campaigns
//! concurrently on the shared rayon pool with the per-request isolation
//! machinery from PR 5 (`catch_unwind`, watchdog, bounded retry), and
//! streams per-kernel progress events back to each client as its campaign
//! advances ([`server`]).
//!
//! Completed results persist in a content-addressed [`store`] of
//! [`suite::record`] result records — the same key, encoding and verified
//! read as the sweep's cell cache — so an identical request is served from
//! the store without re-executing a single kernel, and a rebuilt binary can
//! never be answered with a stale profile.
//!
//! Overload is a typed answer, not a stall: the request queue is bounded
//! and admission control rejects excess work with `queue_full`. Shutdown
//! is graceful — queued and in-flight requests drain, then the daemon
//! exits. The [`client`] module and the `rajaperf-client` binary speak the
//! protocol; `rajaperfd` is the server binary.

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;
pub mod store;

pub use client::{submit, submit_with, Response};
pub use protocol::{ErrorCode, Request};
pub use server::{Daemon, DaemonConfig};
pub use store::{content_hash, ProfileStore, Space, StoreKey, StoreStats};
