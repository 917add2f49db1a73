//! The wire protocol: newline-delimited JSON over a local TCP socket.
//!
//! Every line is one serialized [`Request`] (client → server) or
//! [`Response`] (server → client). A `Submit` with `wait: true` is
//! answered by an `Accepted` line, then one `Status` line per state
//! transition as it happens, then a final `Result` line — the streaming
//! contract. All refusals and failures arrive as typed `Error` responses
//! with a machine-readable `code`.
//!
//! ## Pipelining envelopes
//!
//! On the reactor transport a client may keep many requests in flight on
//! one connection. Responses are matched to requests by wrapping each
//! line in an id-tagged envelope: [`RequestFrame`] `{"id":7,"req":…}` in,
//! [`ResponseFrame`] `{"id":7,"resp":…}` out. Every response (including
//! each `Status`/`Result` line of a waited-on submit, and every push
//! frame of a [`Request::Subscribe`]) carries the id of the request that
//! caused it. Bare un-enveloped lines remain accepted and are answered
//! bare — the blocking client predates the envelope and still works
//! unchanged ([`decode_request`] sorts the two framings apart).

use crate::cache::CacheStats;
use crate::jobs::{JobRecord, Snapshot};
use crate::queue::AdmissionError;
use eod_core::fleet::{Attempt, AttemptOutcome};
use eod_core::predict::PredictionSet;
use eod_core::spec::{JobSpec, Priority};
use serde::{Deserialize, Serialize};

/// Error codes carried by [`Response::Error`].
pub mod codes {
    /// The queue refused the job: at capacity.
    pub const QUEUE_FULL: &str = "queue_full";
    /// The service is shutting down.
    pub const SHUTTING_DOWN: &str = "shutting_down";
    /// The request line did not parse or named something unknown.
    pub const BAD_REQUEST: &str = "bad_request";
    /// No job with the requested id.
    pub const UNKNOWN_JOB: &str = "unknown_job";
    /// A figure batch could not complete.
    pub const FIGURE_FAILED: &str = "figure_failed";
    /// A prediction could not be made (unknown benchmark, unsupported
    /// size, or profile extraction failed).
    pub const PREDICT_FAILED: &str = "predict_failed";
}

/// A client request, one per line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Submit one job. With `wait`, the connection streams status
    /// transitions and ends the exchange with a `Result` line.
    Submit {
        /// What to run.
        spec: JobSpec,
        /// Queue priority.
        priority: Priority,
        /// Stream transitions until terminal instead of returning after
        /// admission.
        wait: bool,
    },
    /// Ask for one job's status (`job` set) or a listing of all jobs.
    Status {
        /// Job id, or `None` for all jobs.
        job: Option<u64>,
    },
    /// Run a whole figure (e.g. `"fig2a"`) through the queue and return
    /// its rendering plus the batch's cache economy.
    Figure {
        /// Figure id.
        id: String,
    },
    /// Predict the spec's runtime and energy on every catalog device
    /// without executing anything; answered by a `Predictions` line.
    Predict {
        /// The spec to model. Its `device` field does not restrict the
        /// sweep — predictions always cover the whole catalog.
        spec: JobSpec,
    },
    /// Subscribe to a job's remaining state transitions: answered by a
    /// `Subscribed` line carrying the current state, then one pushed
    /// `Status` line per transition, then a final `Result` line when the
    /// job reaches a terminal phase. On the pipelined (enveloped)
    /// transport the push frames carry this request's id and interleave
    /// with other traffic; on the blocking transport the subscription
    /// occupies the connection until the job is terminal.
    Subscribe {
        /// Job id to watch.
        job: u64,
    },
    /// Cache and queue counters.
    Stats,
    /// The full metric surface in Prometheus text exposition format —
    /// the same text `GET /metrics` serves.
    Metrics,
    /// Stop the service: drain workers, then stop accepting connections.
    Shutdown,
}

/// One job in a `Status` listing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobInfo {
    /// Job id.
    pub job: u64,
    /// Spec content address.
    pub key: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Problem-size label.
    pub size: String,
    /// Device name.
    pub device: String,
    /// Phase, as its display string (`queued`, `running`, `done`,
    /// `failed`, `timed-out`).
    pub state: String,
    /// Whether the result came from the cache.
    pub cached: bool,
    /// Terminal error message, if any.
    pub error: Option<String>,
    /// Execution-attempt history: local timeout retries, fleet failovers,
    /// straggler duplicates. Empty for first-try successes.
    pub attempts: Vec<Attempt>,
    /// Worker that produced the result (the completing attempt's label);
    /// `None` before completion or for local/cached execution.
    pub worker: Option<String>,
    /// Predictive-placement modeled runtime in milliseconds, when that
    /// policy dispatched the job.
    pub predicted_ms: Option<f64>,
    /// Measured mean kernel time in milliseconds (terminal `done` only) —
    /// the actual next to `predicted_ms`.
    pub actual_ms: Option<f64>,
}

impl JobInfo {
    /// Summarize a record at its current state.
    pub fn of(rec: &JobRecord) -> Self {
        let snap = rec.snapshot();
        let attempts = rec.attempts();
        let worker = attempts
            .iter()
            .rev()
            .find(|a| a.outcome == AttemptOutcome::Completed)
            .map(|a| a.worker.clone());
        let actual_ms = snap.result.as_ref().and_then(|r| r.mean_kernel_ms());
        Self {
            job: rec.id,
            key: rec.key.clone(),
            benchmark: rec.spec.benchmark.clone(),
            size: rec.spec.size.label().to_string(),
            device: rec.spec.device.clone(),
            state: snap.phase.to_string(),
            cached: snap.cached,
            error: snap.error,
            attempts,
            worker,
            predicted_ms: rec.predicted_ms(),
            actual_ms,
        }
    }
}

/// A server response, one per line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The job was admitted (or answered from the cache, `state: done`).
    Accepted {
        /// Assigned job id.
        job: u64,
        /// Spec content address.
        key: String,
        /// Phase at admission.
        state: String,
        /// Whether the cache answered immediately.
        cached: bool,
    },
    /// One state transition of a waited-on job.
    Status {
        /// Job id.
        job: u64,
        /// New phase.
        state: String,
    },
    /// Terminal outcome of a waited-on or queried job.
    Result {
        /// Job id.
        job: u64,
        /// Spec content address.
        key: String,
        /// Terminal phase.
        state: String,
        /// Whether the result came from the cache.
        cached: bool,
        /// The stored `GroupResult` JSON, verbatim (`done` only).
        group: Option<String>,
        /// Error message (`failed`/`timed-out` only).
        error: Option<String>,
        /// Execution-attempt history (retries, failovers, straggler
        /// duplicates); empty for first-try successes.
        attempts: Vec<Attempt>,
    },
    /// Acknowledgement of a `Subscribe`: the job exists and push frames
    /// will follow until it reaches a terminal phase.
    Subscribed {
        /// Job id being watched.
        job: u64,
        /// Phase at subscription time.
        state: String,
    },
    /// Listing for `Status { job: None }`.
    Jobs {
        /// All jobs in submission order.
        jobs: Vec<JobInfo>,
    },
    /// A completed figure batch.
    Figure {
        /// Figure id.
        id: String,
        /// ASCII rendering, identical to the direct CLI path's.
        rendered: String,
        /// Groups in the batch.
        jobs: u64,
        /// Batch lookups answered from the cache.
        cache_hits: u64,
        /// Batch lookups that required execution.
        cache_misses: u64,
    },
    /// Counters for `Stats`.
    Stats {
        /// Cache counters.
        cache: CacheStats,
        /// Jobs awaiting a worker.
        queued: u64,
        /// Worker threads.
        workers: u64,
    },
    /// The ranked per-device predictions for a `Predict` request.
    Predictions {
        /// One entry per catalog device, ascending modeled runtime.
        set: PredictionSet,
    },
    /// The Prometheus exposition text for `Metrics`.
    Metrics {
        /// Exposition-format text, exactly as `GET /metrics` would serve.
        text: String,
    },
    /// A typed refusal or failure; `code` is one of [`codes`].
    Error {
        /// Machine-readable code.
        code: String,
        /// Human-readable detail.
        message: String,
    },
    /// Acknowledgement of `Shutdown`.
    Bye,
}

impl Response {
    /// The typed refusal for a queue admission error.
    pub fn admission_error(e: AdmissionError) -> Self {
        Response::Error {
            code: match e {
                AdmissionError::QueueFull { .. } => codes::QUEUE_FULL.to_string(),
                AdmissionError::ShuttingDown => codes::SHUTTING_DOWN.to_string(),
            },
            message: e.to_string(),
        }
    }

    /// The terminal `Result` line for a job snapshot.
    pub fn result_of(rec: &JobRecord, snap: &Snapshot) -> Self {
        Response::Result {
            job: rec.id,
            key: rec.key.clone(),
            state: snap.phase.to_string(),
            cached: snap.cached,
            group: snap.json.clone(),
            error: snap.error.clone(),
            attempts: rec.attempts(),
        }
    }
}

/// Serialize one protocol line (no trailing newline).
pub fn encode<T: Serialize>(msg: &T) -> String {
    serde_json::to_string(msg).expect("protocol types always serialize")
}

/// Write `line` plus its `'\n'` terminator with a single `write_all`.
///
/// Every blocking socket that speaks the protocol sends through this: a
/// line split over two writes (body, then terminator) is write-write-read,
/// and Nagle holds the 1-byte second segment until the peer's delayed ACK
/// (~40 ms) releases it.
pub fn write_line(w: &mut impl std::io::Write, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    w.write_all(line.as_bytes())
}

/// Parse one protocol line.
pub fn decode<T: Deserialize>(line: &str) -> Result<T, String> {
    serde_json::from_str::<T>(line.trim()).map_err(|e| e.to_string())
}

/// An id-tagged request envelope for the pipelined transport. Ids are
/// chosen by the client; the server echoes them verbatim and never
/// interprets them beyond matching responses to requests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestFrame {
    /// Client-chosen correlation id.
    pub id: u64,
    /// The request itself.
    pub req: Request,
}

/// An id-tagged response envelope: `id` names the request that caused
/// this response (push frames carry the originating `Subscribe`'s or
/// waited `Submit`'s id).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseFrame {
    /// Correlation id echoed from the request.
    pub id: u64,
    /// The response itself.
    pub resp: Response,
}

/// One decoded inbound line: enveloped (pipelined transport) or bare
/// (legacy blocking client).
#[derive(Debug, Clone, PartialEq)]
pub enum IncomingRequest {
    /// An id-tagged [`RequestFrame`].
    Framed(RequestFrame),
    /// A bare [`Request`]; responses to it are sent bare as well.
    Bare(Request),
}

/// Decode a request line in either framing. The envelope is tried first
/// (a bare request has no `id` field, so the framings never collide); on
/// failure the bare decode's error is reported, since bare is what
/// hand-written clients send.
pub fn decode_request(line: &str) -> Result<IncomingRequest, String> {
    if let Ok(frame) = decode::<RequestFrame>(line) {
        return Ok(IncomingRequest::Framed(frame));
    }
    decode::<Request>(line).map(IncomingRequest::Bare)
}

/// Decode a response line in either framing, returning the correlation
/// id when the server enveloped it.
pub fn decode_response(line: &str) -> Result<(Option<u64>, Response), String> {
    if let Ok(frame) = decode::<ResponseFrame>(line) {
        return Ok((Some(frame.id), frame.resp));
    }
    decode::<Response>(line).map(|resp| (None, resp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eod_core::sizes::ProblemSize;
    use eod_core::spec::ExecConfig;
    use std::time::Duration;

    fn spec() -> JobSpec {
        JobSpec {
            benchmark: "fft".into(),
            size: ProblemSize::Small,
            device: "native".into(),
            config: ExecConfig {
                samples: 2,
                min_loop: Duration::from_micros(10),
                max_iters_per_sample: 2,
                verify: true,
                real_execution: true,
                energy_all_devices: false,
                seed: 9,
                timeout: Some(Duration::from_secs(30)),
            },
        }
    }

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Submit {
                spec: spec(),
                priority: Priority::High,
                wait: true,
            },
            Request::Status { job: Some(3) },
            Request::Status { job: None },
            Request::Subscribe { job: 12 },
            Request::Predict { spec: spec() },
            Request::Figure { id: "fig2a".into() },
            Request::Stats,
            Request::Metrics,
            Request::Shutdown,
        ] {
            let line = encode(&req);
            assert!(!line.contains('\n'), "one request per line");
            let back: Request = decode(&line).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Accepted {
                job: 1,
                key: "abc".into(),
                state: "queued".into(),
                cached: false,
            },
            Response::Result {
                job: 1,
                key: "abc".into(),
                state: "done".into(),
                cached: true,
                group: Some("{\"kernel_ms\":[1.0]}".into()),
                error: None,
                attempts: vec![eod_core::fleet::Attempt {
                    attempt: 1,
                    worker: "w0".into(),
                    outcome: eod_core::fleet::AttemptOutcome::Completed,
                    detail: None,
                }],
            },
            Response::Error {
                code: codes::QUEUE_FULL.into(),
                message: "queue full (2 jobs waiting)".into(),
            },
            Response::Metrics {
                text: "# TYPE eod_queue_depth gauge\neod_queue_depth 0\n".into(),
            },
            Response::Subscribed {
                job: 12,
                state: "running".into(),
            },
            Response::Predictions {
                set: eod_core::predict::PredictionSet {
                    spec_key: "abc".into(),
                    benchmark: "fft".into(),
                    size: "small".into(),
                    predictions: vec![eod_core::predict::Prediction {
                        device: "GTX 1080".into(),
                        class: "Consumer GPU".into(),
                        modeled_runtime_us: 120.5,
                        modeled_energy_j: 0.02,
                        edp_j_s: 2.4e-6,
                        confidence: 0.9,
                        cache_profile_provenance: eod_core::predict::ProfileProvenance::Memoized,
                    }],
                },
            },
            Response::Bye,
        ] {
            let back: Response = decode(&encode(&resp)).unwrap();
            assert_eq!(back, resp);
        }
    }

    /// Guards against write-write-read under Nagle + delayed ACK: the
    /// line and its terminator must reach the socket in one `write`, or
    /// every blocking-client request stalls ~40 ms on the peer's ACK.
    #[test]
    fn write_line_issues_exactly_one_write_with_the_terminator() {
        struct Counting(Vec<Vec<u8>>);
        impl std::io::Write for Counting {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let line = encode(&Request::Status { job: Some(3) });
        let mut w = Counting(Vec::new());
        write_line(&mut w, line.clone()).unwrap();
        assert_eq!(w.0, vec![format!("{line}\n").into_bytes()]);
    }

    #[test]
    fn admission_errors_map_to_codes() {
        let Response::Error { code, .. } =
            Response::admission_error(AdmissionError::QueueFull { capacity: 4 })
        else {
            panic!("expected error response");
        };
        assert_eq!(code, codes::QUEUE_FULL);
        let Response::Error { code, .. } = Response::admission_error(AdmissionError::ShuttingDown)
        else {
            panic!("expected error response");
        };
        assert_eq!(code, codes::SHUTTING_DOWN);
    }

    #[test]
    fn garbage_lines_are_typed_errors() {
        assert!(decode::<Request>("{not json").is_err());
        assert!(decode::<Request>("{\"Nope\":{}}").is_err());
        assert!(decode_request("{not json").is_err());
        assert!(decode_request("{\"Nope\":{}}").is_err());
    }

    #[test]
    fn frames_round_trip_with_their_ids() {
        let frame = RequestFrame {
            id: 41,
            req: Request::Subscribe { job: 7 },
        };
        let line = encode(&frame);
        assert_eq!(
            decode_request(&line).unwrap(),
            IncomingRequest::Framed(frame)
        );
        let out = ResponseFrame {
            id: 41,
            resp: Response::Subscribed {
                job: 7,
                state: "queued".into(),
            },
        };
        let (id, resp) = decode_response(&encode(&out)).unwrap();
        assert_eq!(id, Some(41));
        assert_eq!(resp, out.resp);
    }

    #[test]
    fn bare_lines_fall_back_without_colliding_with_frames() {
        // A bare request has no `id`, so the frame decode must fail and
        // the fallback must yield the bare variant.
        let bare = Request::Status { job: Some(3) };
        assert_eq!(
            decode_request(&encode(&bare)).unwrap(),
            IncomingRequest::Bare(bare)
        );
        let unit = Request::Stats;
        assert_eq!(
            decode_request(&encode(&unit)).unwrap(),
            IncomingRequest::Bare(unit)
        );
        // And a framed line must never decode as a bare request.
        let framed = encode(&RequestFrame {
            id: 1,
            req: Request::Stats,
        });
        assert!(decode::<Request>(&framed).is_err());
        // Same discrimination on the response side.
        let (id, resp) = decode_response(&encode(&Response::Bye)).unwrap();
        assert_eq!(id, None);
        assert_eq!(resp, Response::Bye);
    }

    #[test]
    fn unknown_fields_from_a_newer_peer_are_tolerated() {
        // A newer server may add fields to `Result`; an older client must
        // still decode the line (the derive ignores unknown fields).
        let resp = Response::Result {
            job: 4,
            key: "abc".into(),
            state: "done".into(),
            cached: false,
            group: None,
            error: None,
            attempts: vec![Attempt {
                attempt: 1,
                worker: "w0".into(),
                outcome: eod_core::fleet::AttemptOutcome::Completed,
                detail: None,
            }],
        };
        let line = encode(&resp).replacen("{\"Result\":{", "{\"Result\":{\"novel\":1,", 1);
        let back: Response = decode(&line).unwrap();
        assert_eq!(back, resp);
    }
}
