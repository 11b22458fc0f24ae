//! # cerl-net
//!
//! Async TCP front-end for the CERL serving stack: a hand-rolled
//! `epoll` reactor (no external runtime — the build environment has no
//! crates.io access), a length-prefixed binary wire protocol, request
//! deadlines, and connection-level backpressure. It turns the
//! in-process serving layer ([`cerl_serve`]) into a network service
//! while preserving its core contract: **a prediction served over the
//! socket is bitwise identical to the same request answered
//! in-process**, across micro-batching, scatter-gather, and hot swaps.
//!
//! * [`server`] — [`NetServer`]: one reactor thread multiplexing every
//!   connection over `epoll`, submitting decoded requests to a
//!   [`NetBackend`] (a [`BatchScheduler`](cerl_serve::BatchScheduler)
//!   or a [`ShardRouter`](cerl_serve::ShardRouter)) and polling the
//!   returned handles as true `Future`s via per-connection wakers — no
//!   thread-per-connection, no blocking `recv`, thousands of in-flight
//!   requests on one thread. Per-connection flow control: a bounded
//!   in-flight window, write backpressure that stops *reading* a
//!   socket whose response backlog is full, round-robin frame budgets,
//!   and admission deadlines that shed late requests with a typed
//!   [`Status::Deadline`] before any inference runs.
//! * [`wire`] — the versioned frame format ([`Request`] in,
//!   [`Response`] out), with typed [`WireError`]s for every way
//!   hostile bytes can be wrong; decoding never panics and never
//!   over-allocates.
//! * [`client`] — [`NetClient`]: a small blocking client used by the
//!   tests and examples; supports pipelining, raw-byte injection for
//!   robustness tests, and the admin ops
//!   ([`NetClient::scrape_metrics`], [`NetClient::health`],
//!   [`NetClient::trace_dump`]).
//!
//! The reactor also carries the serving stack's **observability
//! plane**: an optional admin listener speaking [`AdminOp`] frames
//! (unified metrics exposition, health, trace dumps), a UDP health
//! socket answering any datagram with `ok:<versions>:<inflight>`, and
//! optional 1-in-N request tracing through a shared
//! [`cerl_obs::TraceRing`] — see the [`server`] module docs. The wire
//! response is deliberately version-free, so per-replica attribution —
//! which shard and engine version answered each prediction — is kept
//! server-side ([`NetStatsSnapshot::replica_served`], scraped as
//! `cerl_net_replica_responses_total{shard,version}`) rather than in
//! the frame.
//!
//! The error taxonomy mirrors the serving layer's
//! [`ServeError::is_client_fault`](cerl_serve::ServeError::is_client_fault)
//! split: malformed frames, unknown domains, and expired deadlines are
//! *client* faults; queue overflow, shutdown, and engine failures on
//! well-formed input are *serve* faults. The reactor counts the two
//! separately ([`NetStatsSnapshot`]), so a misbehaving client can
//! never make a healthy fleet look like it is regressing.
//!
//! See the [`server`] module docs for the reactor's architecture and
//! the one-CPU measurement caveat; see the [`wire`] module docs for
//! the byte-level frame tables.

#![warn(missing_docs)]

pub mod client;
pub mod server;
mod sys;
pub mod wire;

pub use client::{NetClient, NetError};
pub use server::{
    ConnStatsSnapshot, NetBackend, NetServer, NetServerConfig, NetStatsSnapshot, ReplicaServed,
};
pub use wire::{AdminOp, AdminRequest, AdminResponse, Request, Response, Status, WireError};
