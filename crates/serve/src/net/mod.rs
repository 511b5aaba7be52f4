//! The network front-end: a pure-std wire protocol over TCP, replicated
//! durability, and deterministic link-fault injection.
//!
//! Layering, bottom up (DESIGN.md §11):
//!
//! * [`conn`] — the [`conn::ByteStream`] transport trait with three
//!   implementations: real TCP sockets ([`tcp`], the only module allowed
//!   to open raw sockets), an in-memory duplex pipe for deterministic
//!   tests, and [`conn::FailpointNet`], the link-fault injector mirroring
//!   `FailpointVfs` (cut / delay / torn write / garbage at op N). On top
//!   sits [`conn::FrameConn`], the length-prefixed CRC32 framing shared
//!   with the durability layer — a frame's length field is validated
//!   against [`codec::MAX_NET_FRAME`] *before* any allocation.
//! * [`codec`] — the v1 binary message set: estimate request/response,
//!   typed backpressure (`Shed`, `Rejected`, `Unavailable`), and the
//!   replication stream (`Repl`/`ReplAck`). Decoding arbitrary bytes
//!   yields typed errors, never panics.
//! * [`server`] — the connection handler: per-connection read/write
//!   deadlines, `BatchQueue` shed mapped directly to a `Shed` wire
//!   response (no unbounded buffering anywhere on the path), and the
//!   per-standby replication shipper.
//! * [`client`] — the reconnecting client: bounded retry with exponential
//!   backoff + deterministic jitter, endpoint rotation on failover, and a
//!   per-call deadline so no call ever hangs.
//! * [`repl`] — primary-side [`repl::ReplHub`] (ship log + ack watermark +
//!   measured replication lag) and standby-side [`repl::StandbyApplier`]
//!   (validate-then-install, promotion through the PR 5 recovery path).
//! * [`node`] — process-level assembly: [`node::PrimaryNode`] and
//!   [`node::StandbyNode`]. (The networked load generator is part of the
//!   measurement harness: `crate::replay::run_net_loadgen`.)

pub mod client;
pub mod codec;
pub mod conn;
pub mod node;
pub mod repl;
pub mod server;
pub mod tcp;

use std::fmt;

/// Why a network operation failed. Every transport and framing failure is
/// one of these — the protocol surface has no panic path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The link died: reset, EOF mid-frame, or an injected cut.
    Cut(String),
    /// A read or write missed its deadline.
    TimedOut,
    /// Bytes on the wire failed framing or decoding (bad length, bad
    /// checksum, unknown tag, trailing garbage).
    Corrupt(&'static str),
    /// The peer closed cleanly at a frame boundary.
    Closed,
    /// Any other transport error.
    Io(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Cut(msg) => write!(f, "connection cut: {msg}"),
            NetError::TimedOut => write!(f, "deadline exceeded"),
            NetError::Corrupt(msg) => write!(f, "wire corruption: {msg}"),
            NetError::Closed => write!(f, "connection closed"),
            NetError::Io(msg) => write!(f, "io: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

pub use client::{ClientError, ClientStats, Dialer, EstimateClient, RetryPolicy};
pub use codec::{decode, encode, Msg, Refusal, Role, MAX_NET_FRAME, NET_PROTO};
pub use conn::{
    mem_pair, ByteStream, FailpointNet, FrameConn, MemStream, NetFailPlan, NetFaultKind,
};
pub use node::{
    PrimaryNode, PrimaryReport, PrimarySpec, StandbyConfig, StandbyNode, StandbyReport,
    StandbyState,
};
pub use repl::{
    AckLevel, AckMode, ReplHub, ReplHubStats, ReplLag, ReplicatedStore, StandbyApplier,
    StandbyStats,
};
pub use server::{serve_connection, NetServer, NetServerConfig, NetStats, ServerCore};
pub use tcp::TcpDialer;
