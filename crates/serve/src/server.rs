//! The blocking TCP front end: accept loop and per-connection request
//! handling, one thread per connection.
//!
//! Connections speak the newline-delimited JSON protocol from
//! [`crate::protocol`]. The service itself bounds concurrency at the
//! queue and worker pool, so connection threads only ever block on I/O or
//! on job-transition waits. This transport remains as the fallback and
//! test baseline next to the reactor front end in `eod-net`; the two
//! produce byte-identical protocol responses.
//!
//! A malformed request line — bad JSON, an unknown request shape, even
//! invalid UTF-8 — is answered with a typed `Error` response and the
//! connection stays up. Shutdown drains: in-flight jobs finish (so
//! waited-on submits stream their terminal `Result` lines), and the
//! accept loop waits for every connection thread to flush and exit before
//! returning, bounded by a drain deadline.

use crate::protocol::{codes, decode, encode, write_line, JobInfo, Request, Response};
use crate::service::Service;
use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How often an idle connection thread re-checks the stopping flag.
const READ_TICK: Duration = Duration::from_millis(200);

/// Bound on a single request line, matching the reactor transport's
/// framing limit.
const MAX_LINE_BYTES: usize = 4 * 1024 * 1024;

/// A bound listener ready to serve a [`Service`].
pub struct Server {
    service: Arc<Service>,
    listener: TcpListener,
    addr: SocketAddr,
    stopping: Arc<AtomicBool>,
    conns: Arc<(Mutex<usize>, Condvar)>,
    drain_deadline: Duration,
}

impl Server {
    /// Bind to `addr` (e.g. `127.0.0.1:0` for an ephemeral test port).
    pub fn bind(service: Arc<Service>, addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Self {
            service,
            listener,
            addr,
            stopping: Arc::new(AtomicBool::new(false)),
            conns: Arc::new((Mutex::new(0), Condvar::new())),
            drain_deadline: Duration::from_secs(5),
        })
    }

    /// The bound address (reports the ephemeral port after `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// How long [`Server::run`] waits for connection threads to flush
    /// and exit after shutdown is requested.
    pub fn set_drain_deadline(&mut self, deadline: Duration) {
        self.drain_deadline = deadline;
    }

    /// Accept and serve connections until a client sends `Shutdown`, then
    /// drain: finish in-flight jobs, let every connection thread flush
    /// its pending responses, and return.
    pub fn run(self) -> std::io::Result<()> {
        for stream in self.listener.incoming() {
            if self.stopping.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            let service = Arc::clone(&self.service);
            let stopping = Arc::clone(&self.stopping);
            let conns = Arc::clone(&self.conns);
            let addr = self.addr;
            *conns.0.lock().unwrap() += 1;
            let spawned = std::thread::Builder::new()
                .name("eod-serve-conn".to_string())
                .spawn(move || {
                    let _ = handle_connection(&service, stream, &stopping, addr);
                    let (count, wake) = &*conns;
                    *count.lock().unwrap() -= 1;
                    wake.notify_all();
                });
            if spawned.is_err() {
                *self.conns.0.lock().unwrap() -= 1;
            }
        }
        // Drain in-flight work first: terminal transitions unblock any
        // connection thread sitting in a submit-wait, which then writes
        // its final `Result` line before exiting.
        self.service.shutdown();
        let (count, wake) = &*self.conns;
        let deadline = Instant::now() + self.drain_deadline;
        let mut active = count.lock().unwrap();
        while *active > 0 {
            let now = Instant::now();
            if now >= deadline {
                break; // drain deadline: abandon stragglers
            }
            active = wake.wait_timeout(active, deadline - now).unwrap().0;
        }
        Ok(())
    }
}

fn send(out: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
    write_line(out, encode(resp))
}

fn handle_connection(
    service: &Service,
    stream: TcpStream,
    stopping: &AtomicBool,
    addr: SocketAddr,
) -> std::io::Result<()> {
    // A short read timeout lets the loop observe the stopping flag
    // between requests, so shutdown drains connections instead of
    // abandoning threads mid-write.
    stream.set_read_timeout(Some(READ_TICK))?;
    // Responses are single small lines the peer is blocked on; never let
    // Nagle hold one behind an unacknowledged predecessor.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    let mut buf: Vec<u8> = Vec::new();
    loop {
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => break, // peer closed
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // Idle tick; bytes read before the timeout stay in `buf`.
                if stopping.load(Ordering::SeqCst) {
                    break;
                }
                if buf.len() > MAX_LINE_BYTES {
                    send(
                        &mut out,
                        &Response::Error {
                            code: codes::BAD_REQUEST.to_string(),
                            message: format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                        },
                    )?;
                    break;
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
        // Decode lossily: a line of invalid UTF-8 must come back as a
        // typed parse error on this request, not tear the connection
        // down (`BufRead::lines` would error out here).
        let line = String::from_utf8_lossy(&buf).into_owned();
        buf.clear();
        if line.trim().is_empty() {
            continue;
        }
        let req = match decode::<Request>(&line) {
            Ok(r) => r,
            Err(e) => {
                send(
                    &mut out,
                    &Response::Error {
                        code: codes::BAD_REQUEST.to_string(),
                        message: e,
                    },
                )?;
                continue;
            }
        };
        match req {
            Request::Submit {
                spec,
                priority,
                wait,
            } => match service.submit(spec, priority) {
                Err(e) => send(&mut out, &Response::admission_error(e))?,
                Ok(rec) => {
                    let mut snap = rec.snapshot();
                    send(
                        &mut out,
                        &Response::Accepted {
                            job: rec.id,
                            key: rec.key.clone(),
                            state: snap.phase.to_string(),
                            cached: snap.cached,
                        },
                    )?;
                    if wait {
                        // Stream every transition, then the terminal line.
                        let mut seen = snap.phase;
                        while !snap.phase.is_terminal() {
                            snap = rec.wait_change(seen);
                            seen = snap.phase;
                            send(
                                &mut out,
                                &Response::Status {
                                    job: rec.id,
                                    state: snap.phase.to_string(),
                                },
                            )?;
                        }
                        send(&mut out, &Response::result_of(&rec, &snap))?;
                    }
                }
            },
            Request::Status { job: Some(id) } => match service.job(id) {
                None => send(
                    &mut out,
                    &Response::Error {
                        code: codes::UNKNOWN_JOB.to_string(),
                        message: format!("no job {id}"),
                    },
                )?,
                Some(rec) => {
                    let snap = rec.snapshot();
                    send(&mut out, &Response::result_of(&rec, &snap))?
                }
            },
            Request::Status { job: None } => {
                let jobs = service.jobs().iter().map(|r| JobInfo::of(r)).collect();
                send(&mut out, &Response::Jobs { jobs })?;
            }
            Request::Subscribe { job } => match service.job(job) {
                None => send(
                    &mut out,
                    &Response::Error {
                        code: codes::UNKNOWN_JOB.to_string(),
                        message: format!("no job {job}"),
                    },
                )?,
                Some(rec) => {
                    // On this transport a subscription occupies the
                    // connection until the job is terminal (the reactor
                    // transport interleaves pushes with other traffic).
                    let mut snap = rec.snapshot();
                    send(
                        &mut out,
                        &Response::Subscribed {
                            job: rec.id,
                            state: snap.phase.to_string(),
                        },
                    )?;
                    let mut seen = snap.phase;
                    while !snap.phase.is_terminal() {
                        snap = rec.wait_change(seen);
                        seen = snap.phase;
                        send(
                            &mut out,
                            &Response::Status {
                                job: rec.id,
                                state: snap.phase.to_string(),
                            },
                        )?;
                    }
                    send(&mut out, &Response::result_of(&rec, &snap))?;
                }
            },
            Request::Figure { id } => match service.run_figure(&id) {
                Ok(outcome) => send(
                    &mut out,
                    &Response::Figure {
                        id,
                        rendered: outcome.figure.render_ascii(),
                        jobs: outcome.jobs,
                        cache_hits: outcome.cache_hits,
                        cache_misses: outcome.cache_misses,
                    },
                )?,
                Err(message) => send(
                    &mut out,
                    &Response::Error {
                        code: codes::FIGURE_FAILED.to_string(),
                        message,
                    },
                )?,
            },
            Request::Predict { spec } => match service.predict(&spec) {
                Ok(set) => send(
                    &mut out,
                    &Response::Predictions {
                        set: (*set).clone(),
                    },
                )?,
                Err(e) => send(
                    &mut out,
                    &Response::Error {
                        code: codes::PREDICT_FAILED.to_string(),
                        message: e.to_string(),
                    },
                )?,
            },
            Request::Stats => {
                let cache = service.cache_stats();
                send(
                    &mut out,
                    &Response::Stats {
                        cache,
                        queued: service.queued() as u64,
                        workers: service.worker_count() as u64,
                    },
                )?;
            }
            Request::Metrics => {
                let text = service.metrics_text();
                send(&mut out, &Response::Metrics { text })?;
            }
            Request::Shutdown => {
                send(&mut out, &Response::Bye)?;
                stopping.store(true, Ordering::SeqCst);
                // Wake the accept loop so it observes the flag.
                let _ = TcpStream::connect(addr);
                return Ok(());
            }
        }
    }
    Ok(())
}
