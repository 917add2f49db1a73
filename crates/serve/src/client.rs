//! A blocking protocol client, used by the `eod` CLI subcommands and the
//! integration tests.
//!
//! [`Client::connect`] rides out transient connection failures (the server
//! still binding its socket, a connection reset during accept) with capped
//! exponential backoff and jitter; [`Client::connect_once`] keeps the old
//! fail-fast behavior for callers probing liveness.

use crate::protocol::{codes, decode, encode, write_line, JobInfo, Request, Response};
use eod_core::fleet::Attempt;
use eod_core::predict::PredictionSet;
use eod_core::spec::{JobSpec, Priority};
use std::fmt;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::time::Duration;

/// Why a client call failed, with the server's typed refusals surfaced as
/// their own variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The queue refused the job: at capacity.
    QueueFull(String),
    /// The service is shutting down.
    ShuttingDown(String),
    /// Any other server-reported error (`code`, `message`).
    Server(String, String),
    /// Socket or serialization trouble on the client side.
    Transport(String),
    /// The server answered with a response the call did not expect.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::QueueFull(m) => write!(f, "refused: {m}"),
            ClientError::ShuttingDown(m) => write!(f, "refused: {m}"),
            ClientError::Server(code, m) => write!(f, "server error [{code}]: {m}"),
            ClientError::Transport(m) => write!(f, "transport: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// The terminal outcome of a waited-on submission.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Assigned job id.
    pub job: u64,
    /// Spec content address.
    pub key: String,
    /// Terminal state (`done`, `failed`, `timed-out`).
    pub state: String,
    /// Whether the result came from the cache.
    pub cached: bool,
    /// The stored `GroupResult` JSON, verbatim (`done` only).
    pub group: Option<String>,
    /// Error message (`failed`/`timed-out` only).
    pub error: Option<String>,
    /// Execution-attempt history (retries, failovers, straggler
    /// duplicates); empty for first-try successes.
    pub attempts: Vec<Attempt>,
    /// States observed, in order, starting with the state at admission
    /// (e.g. `["queued", "running", "done"]`, or `["done"]` for a cache
    /// hit).
    pub transitions: Vec<String>,
}

/// A completed figure batch as reported by the server.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureOutput {
    /// Figure id.
    pub id: String,
    /// ASCII rendering, identical to the direct CLI path's.
    pub rendered: String,
    /// Groups in the batch.
    pub jobs: u64,
    /// Batch lookups answered from the cache.
    pub cache_hits: u64,
    /// Batch lookups that required execution.
    pub cache_misses: u64,
}

/// How [`Client::connect_with`] retries transient connection failures.
///
/// Only `ConnectionRefused` and `ConnectionReset` are retried — those are
/// what a still-binding or restarting server produces. Everything else
/// (unreachable host, bad address) fails immediately. Delays double from
/// `base_delay` up to `max_delay` and each is scaled by a 0.5–1.5×
/// jitter so a fleet of clients does not reconnect in lockstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectPolicy {
    /// Total connection attempts (the first one included); 1 = fail fast.
    pub attempts: u32,
    /// Delay before the second attempt.
    pub base_delay: Duration,
    /// Ceiling on the doubled delay.
    pub max_delay: Duration,
}

impl Default for ConnectPolicy {
    fn default() -> Self {
        Self {
            attempts: 6,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_millis(400),
        }
    }
}

impl ConnectPolicy {
    /// Fail on the first refusal — the pre-retry behavior.
    pub fn fail_fast() -> Self {
        Self {
            attempts: 1,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
        }
    }

    /// The backoff before attempt `n + 1` (0-based `n`), jittered.
    fn delay_after(&self, n: u32) -> Duration {
        let exp = self.base_delay.saturating_mul(1u32 << n.min(16));
        let capped = exp.min(self.max_delay);
        // Cheap decorrelating jitter in [0.5, 1.5): a xorshift of the
        // subsecond clock — no RNG dependency, and exact timing is
        // irrelevant here.
        let mut x = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0x9e3779b9)
            | 1;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        let scale = 0.5 + (x as f64 / u32::MAX as f64);
        capped.mul_f64(scale)
    }
}

/// One connection to an `eod-serve` server.
pub struct Client {
    out: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect to `addr` (e.g. `127.0.0.1:3597`), retrying transient
    /// refusals under the default [`ConnectPolicy`].
    pub fn connect(addr: &str) -> Result<Self, ClientError> {
        Self::connect_with(addr, ConnectPolicy::default())
    }

    /// Connect with exactly one attempt — fails fast if the server is not
    /// yet listening.
    pub fn connect_once(addr: &str) -> Result<Self, ClientError> {
        Self::connect_with(addr, ConnectPolicy::fail_fast())
    }

    /// Connect under an explicit retry policy.
    pub fn connect_with(addr: &str, policy: ConnectPolicy) -> Result<Self, ClientError> {
        let attempts = policy.attempts.max(1);
        let mut tried = 0;
        let out = loop {
            let e = match TcpStream::connect(addr) {
                Ok(out) => break out,
                Err(e) => e,
            };
            tried += 1;
            let transient = matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionRefused | std::io::ErrorKind::ConnectionReset
            );
            if !transient || tried == attempts {
                return Err(ClientError::Transport(format!(
                    "connect {addr}: {e} (after {tried} attempt{})",
                    if tried == 1 { "" } else { "s" }
                )));
            }
            std::thread::sleep(policy.delay_after(tried - 1));
        };
        // Request/response traffic: a reply is always awaited before the
        // next send, so there is nothing for Nagle to coalesce.
        out.set_nodelay(true)
            .map_err(|e| ClientError::Transport(e.to_string()))?;
        let reader = BufReader::new(
            out.try_clone()
                .map_err(|e| ClientError::Transport(e.to_string()))?,
        );
        Ok(Self { out, reader })
    }

    fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        write_line(&mut self.out, encode(req)).map_err(|e| ClientError::Transport(e.to_string()))
    }

    fn recv(&mut self) -> Result<Response, ClientError> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| ClientError::Transport(e.to_string()))?;
        if n == 0 {
            return Err(ClientError::Transport(
                "server closed the connection".into(),
            ));
        }
        decode(&line).map_err(ClientError::Protocol)
    }

    /// Surface a server `Error` response as the matching typed variant.
    fn typed(resp: Response) -> Result<Response, ClientError> {
        match resp {
            Response::Error { code, message } => Err(match code.as_str() {
                codes::QUEUE_FULL => ClientError::QueueFull(message),
                codes::SHUTTING_DOWN => ClientError::ShuttingDown(message),
                _ => ClientError::Server(code, message),
            }),
            other => Ok(other),
        }
    }

    /// Submit without waiting; returns `(job id, key, state, cached)`.
    pub fn submit(
        &mut self,
        spec: &JobSpec,
        priority: Priority,
    ) -> Result<(u64, String, String, bool), ClientError> {
        self.send(&Request::Submit {
            spec: spec.clone(),
            priority,
            wait: false,
        })?;
        match Self::typed(self.recv()?)? {
            Response::Accepted {
                job,
                key,
                state,
                cached,
            } => Ok((job, key, state, cached)),
            other => Err(ClientError::Protocol(format!(
                "unexpected {}",
                encode(&other)
            ))),
        }
    }

    /// Submit and wait, collecting the streamed transitions and the
    /// terminal result.
    pub fn submit_wait(
        &mut self,
        spec: &JobSpec,
        priority: Priority,
    ) -> Result<JobOutcome, ClientError> {
        self.send(&Request::Submit {
            spec: spec.clone(),
            priority,
            wait: true,
        })?;
        let admitted = match Self::typed(self.recv()?)? {
            Response::Accepted { state, .. } => state,
            other => {
                return Err(ClientError::Protocol(format!(
                    "unexpected {}",
                    encode(&other)
                )))
            }
        };
        let mut transitions = vec![admitted];
        loop {
            match Self::typed(self.recv()?)? {
                Response::Status { state, .. } => transitions.push(state),
                Response::Result {
                    job,
                    key,
                    state,
                    cached,
                    group,
                    error,
                    attempts,
                } => {
                    return Ok(JobOutcome {
                        job,
                        key,
                        state,
                        cached,
                        group,
                        error,
                        attempts,
                        transitions,
                    })
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected {}",
                        encode(&other)
                    )))
                }
            }
        }
    }

    /// One job's terminal-or-current status line.
    pub fn status(&mut self, job: u64) -> Result<JobOutcome, ClientError> {
        self.send(&Request::Status { job: Some(job) })?;
        match Self::typed(self.recv()?)? {
            Response::Result {
                job,
                key,
                state,
                cached,
                group,
                error,
                attempts,
            } => Ok(JobOutcome {
                job,
                key,
                state,
                cached,
                group,
                error,
                attempts,
                transitions: Vec::new(),
            }),
            other => Err(ClientError::Protocol(format!(
                "unexpected {}",
                encode(&other)
            ))),
        }
    }

    /// All jobs the server knows about.
    pub fn list(&mut self) -> Result<Vec<JobInfo>, ClientError> {
        self.send(&Request::Status { job: None })?;
        match Self::typed(self.recv()?)? {
            Response::Jobs { jobs } => Ok(jobs),
            other => Err(ClientError::Protocol(format!(
                "unexpected {}",
                encode(&other)
            ))),
        }
    }

    /// Run a figure batch server-side.
    pub fn figure(&mut self, id: &str) -> Result<FigureOutput, ClientError> {
        self.send(&Request::Figure { id: id.to_string() })?;
        match Self::typed(self.recv()?)? {
            Response::Figure {
                id,
                rendered,
                jobs,
                cache_hits,
                cache_misses,
            } => Ok(FigureOutput {
                id,
                rendered,
                jobs,
                cache_hits,
                cache_misses,
            }),
            other => Err(ClientError::Protocol(format!(
                "unexpected {}",
                encode(&other)
            ))),
        }
    }

    /// Cache/queue/worker counters: `(cache stats, queued, workers)`.
    pub fn stats(&mut self) -> Result<(crate::cache::CacheStats, u64, u64), ClientError> {
        self.send(&Request::Stats)?;
        match Self::typed(self.recv()?)? {
            Response::Stats {
                cache,
                queued,
                workers,
            } => Ok((cache, queued, workers)),
            other => Err(ClientError::Protocol(format!(
                "unexpected {}",
                encode(&other)
            ))),
        }
    }

    /// Rank the device catalog for `spec` using the server's predictor.
    ///
    /// The spec's own `device` field is ignored by the model sweep: the
    /// returned set always covers the full device catalog, sorted by
    /// modeled runtime.
    pub fn predict(&mut self, spec: &JobSpec) -> Result<PredictionSet, ClientError> {
        self.send(&Request::Predict { spec: spec.clone() })?;
        match Self::typed(self.recv()?)? {
            Response::Predictions { set } => Ok(set),
            other => Err(ClientError::Protocol(format!(
                "unexpected {}",
                encode(&other)
            ))),
        }
    }

    /// The server's metric surface in Prometheus text exposition format.
    ///
    /// Besides the queue/cache/worker series, the exposition carries the
    /// predictor's `eod_predict_*` series (request, hit/miss, and error
    /// counters plus the latency histogram), the service-side
    /// `eod_predict_feedback_total` / `eod_predict_error_ratio`
    /// predicted-vs-actual feed, and — in fleet mode — the coordinator's
    /// `eod_fleet_placements_total{policy=...}` placement counters.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        self.send(&Request::Metrics)?;
        match Self::typed(self.recv()?)? {
            Response::Metrics { text } => Ok(text),
            other => Err(ClientError::Protocol(format!(
                "unexpected {}",
                encode(&other)
            ))),
        }
    }

    /// Ask the server to shut down.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Shutdown)?;
        match Self::typed(self.recv()?)? {
            Response::Bye => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "unexpected {}",
                encode(&other)
            ))),
        }
    }
}
