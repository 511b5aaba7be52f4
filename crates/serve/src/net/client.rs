//! The reconnecting estimation client.
//!
//! Every call is bounded: each network op carries the per-op deadline, a
//! failed attempt rotates to the next endpoint after an exponential backoff
//! with deterministic jitter, and after `max_attempts` the call returns
//! [`ClientError::Disconnected`] — a client call can time out or fail, but
//! it can never hang. Jitter is derived from the caller's seed (see
//! `seed_stream::NET`), so retry schedules — and therefore multi-client
//! replays — stay reproducible.

use std::time::Duration;

use super::codec::{Msg, Refusal, Role, NET_PROTO};
use super::conn::{ByteStream, FrameConn};
use super::NetError;
use crate::service::Estimate;

/// Produces connections to one of several endpoints (index 0 = primary).
/// Abstracted so tests can dial in-memory pipes and inject link faults.
pub trait Dialer: Send {
    /// Number of configured endpoints.
    fn endpoints(&self) -> usize;
    /// Open a fresh connection to endpoint `endpoint`.
    fn dial(&mut self, endpoint: usize) -> Result<Box<dyn ByteStream>, NetError>;
}

/// Retry/backoff policy for one client.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Attempts per call (dial + request each); exhausting them returns
    /// [`ClientError::Disconnected`].
    pub max_attempts: u32,
    /// First backoff; doubles per failed attempt.
    pub base_backoff: Duration,
    /// Backoff cap.
    pub max_backoff: Duration,
    /// Read/write deadline applied to every network op.
    pub op_deadline: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(250),
            op_deadline: Duration::from_secs(2),
        }
    }
}

/// Why a client call failed. `Shed` and `Rejected` are the server's typed
/// backpressure surfacing unchanged; the rest are transport outcomes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The server shed the request (queue full). Not retried — shedding is
    /// load feedback, and hammering a shedding server inverts it.
    Shed,
    /// Feature-dimension mismatch.
    Rejected { expected: u32, got: u32 },
    /// The server refused (standby not promoted / draining) on the last
    /// attempt, after endpoint rotation.
    Unavailable,
    /// The addressed shard does not exist on the server. Not retried — no
    /// amount of reconnecting makes a shard appear.
    UnknownShard(u32),
    /// Retries exhausted; the message describes the last failure.
    Disconnected(String),
    /// The peer spoke the protocol wrong.
    Protocol(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Shed => write!(f, "request shed by server"),
            ClientError::Rejected { expected, got } => {
                write!(f, "rejected: expected {expected} features, got {got}")
            }
            ClientError::Unavailable => write!(f, "no endpoint is serving"),
            ClientError::UnknownShard(shard) => write!(f, "unknown shard {shard}"),
            ClientError::Disconnected(msg) => write!(f, "disconnected: {msg}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Lifetime client counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientStats {
    /// Calls attempted.
    pub requests: u64,
    /// Calls answered with an estimate.
    pub ok: u64,
    /// Calls shed by the server.
    pub shed: u64,
    /// Reconnections (dials after the first).
    pub reconnects: u64,
    /// Endpoint rotations (failovers attempted).
    pub rotations: u64,
    /// Network errors absorbed by retry.
    pub net_errors: u64,
    /// Total seconds spent in backoff sleeps.
    pub backoff_secs: f64,
}

impl ClientStats {
    /// Adds another client's counters to these.
    pub fn merge(&mut self, s: ClientStats) {
        self.requests += s.requests;
        self.ok += s.ok;
        self.shed += s.shed;
        self.reconnects += s.reconnects;
        self.rotations += s.rotations;
        self.net_errors += s.net_errors;
        self.backoff_secs += s.backoff_secs;
    }
}

/// A synchronous estimation client with bounded reconnect.
pub struct EstimateClient {
    dialer: Box<dyn Dialer>,
    policy: RetryPolicy,
    conn: Option<FrameConn<Box<dyn ByteStream>>>,
    endpoint: usize,
    next_id: u64,
    dials: u64,
    rng: u64,
    stats: ClientStats,
}

impl EstimateClient {
    /// `seed` drives the backoff jitter — pass
    /// `derive_seed(derive_seed(master, seed_stream::NET), connection_index)`
    /// for deterministic multi-client runs.
    pub fn new(dialer: Box<dyn Dialer>, policy: RetryPolicy, seed: u64) -> Self {
        Self {
            dialer,
            policy,
            conn: None,
            endpoint: 0,
            next_id: 1,
            dials: 0,
            // xorshift64* state must be nonzero.
            rng: seed | 1,
            stats: ClientStats::default(),
        }
    }

    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// The endpoint index the client is currently pointed at.
    pub fn endpoint(&self) -> usize {
        self.endpoint
    }

    fn jitter01(&mut self) -> f64 {
        // xorshift64*: deterministic, cheap, good enough for jitter.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        let bits = x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11;
        bits as f64 / (1u64 << 53) as f64
    }

    /// Full jitter on an exponential schedule: `[base·2^a / 2, base·2^a]`,
    /// capped.
    fn backoff(&mut self, attempt: u32) {
        let exp = self
            .policy
            .base_backoff
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.policy.max_backoff);
        let sleep = exp.mul_f64(0.5 + 0.5 * self.jitter01());
        self.stats.backoff_secs += sleep.as_secs_f64();
        std::thread::sleep(sleep);
    }

    fn rotate(&mut self) {
        self.conn = None;
        let n = self.dialer.endpoints().max(1);
        if n > 1 {
            self.endpoint = (self.endpoint + 1) % n;
            self.stats.rotations += 1;
        }
    }

    fn ensure_conn(&mut self) -> Result<(), NetError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let mut stream = self.dialer.dial(self.endpoint)?;
        stream.set_read_deadline(Some(self.policy.op_deadline))?;
        stream.set_write_deadline(Some(self.policy.op_deadline))?;
        let mut conn = FrameConn::new(stream);
        conn.send(&Msg::Hello {
            role: Role::Client,
            proto: NET_PROTO,
        })?;
        self.dials += 1;
        if self.dials > 1 {
            self.stats.reconnects += 1;
        }
        self.conn = Some(conn);
        Ok(())
    }

    /// One estimate, end to end: connect (or reuse), send, await the
    /// response. Bounded by `max_attempts × (op_deadline + backoff)`.
    pub fn estimate(&mut self, features: &[f64]) -> Result<Estimate, ClientError> {
        self.call(None, features)
    }

    /// [`EstimateClient::estimate`] addressed at one shard of a fleet
    /// server (shard 0 of a single-service server also answers). Uses the
    /// v1-compatible `EstimateReqShard` wire form.
    pub fn estimate_shard(
        &mut self,
        shard: u32,
        features: &[f64],
    ) -> Result<Estimate, ClientError> {
        self.call(Some(shard), features)
    }

    fn call(&mut self, shard: Option<u32>, features: &[f64]) -> Result<Estimate, ClientError> {
        self.stats.requests += 1;
        let id = self.next_id;
        self.next_id += 1;
        let mut last_err: Option<String> = None;
        let mut saw_unavailable = false;

        for attempt in 0..self.policy.max_attempts {
            if attempt > 0 {
                self.backoff(attempt - 1);
            }
            if let Err(e) = self.ensure_conn() {
                self.stats.net_errors += 1;
                last_err = Some(e.to_string());
                self.rotate();
                continue;
            }
            let req = match shard {
                None => Msg::EstimateReq {
                    id,
                    features: features.to_vec(),
                },
                Some(shard) => Msg::EstimateReqShard {
                    id,
                    shard,
                    features: features.to_vec(),
                },
            };
            let resp = self
                .conn
                .as_mut()
                .map(|c| c.send(&req).and_then(|()| c.recv()));
            match resp {
                Some(Ok(msg)) => match msg {
                    Msg::EstimateOk {
                        id: rid,
                        value_bits,
                        generation,
                        batch,
                    } => {
                        if rid != id {
                            self.conn = None;
                            return Err(ClientError::Protocol("response id mismatch"));
                        }
                        self.stats.ok += 1;
                        return Ok(Estimate {
                            value: f64::from_bits(value_bits),
                            generation,
                            batch_size: batch as usize,
                        });
                    }
                    // Both shed forms are load feedback and neither is
                    // retried; the admission/deadline split lives in the
                    // server's NetStats.
                    Msg::Shed { .. } | Msg::ShedDeadline { .. } => {
                        self.stats.shed += 1;
                        return Err(ClientError::Shed);
                    }
                    Msg::Rejected { expected, got, .. } => {
                        return Err(ClientError::Rejected { expected, got });
                    }
                    Msg::Unavailable {
                        reason: Refusal::UnknownShard,
                        ..
                    } => {
                        return Err(ClientError::UnknownShard(shard.unwrap_or(0)));
                    }
                    Msg::Unavailable { reason, .. } => {
                        // Not-primary / draining: try the other endpoint.
                        saw_unavailable = true;
                        last_err = Some(format!("unavailable: {reason:?}"));
                        self.rotate();
                        continue;
                    }
                    _ => {
                        self.conn = None;
                        return Err(ClientError::Protocol("unexpected response"));
                    }
                },
                Some(Err(e)) => {
                    self.stats.net_errors += 1;
                    last_err = Some(e.to_string());
                    self.rotate();
                    continue;
                }
                None => {
                    last_err = Some("no connection".into());
                    continue;
                }
            }
        }
        if saw_unavailable && last_err.as_deref().unwrap_or("").starts_with("unavailable") {
            Err(ClientError::Unavailable)
        } else {
            Err(ClientError::Disconnected(
                last_err.unwrap_or_else(|| "retries exhausted".into()),
            ))
        }
    }
}
