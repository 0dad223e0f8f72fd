//! The daemon itself: TCP accept loop, request routing, graceful shutdown.
//!
//! One thread per connection (connections are short-lived: `Connection:
//! close` on every response), a worker pool owned by the [`Scheduler`], and
//! a poison-pill self-connect to wake the blocking accept loop on shutdown.
//!
//! ## Endpoints
//!
//! | method & path | behaviour |
//! |---|---|
//! | `POST /jobs` | submit a job spec; `202` with the initial status |
//! | `GET /jobs` | statuses of all known jobs |
//! | `GET /jobs/{id}` | live status: queued → running → done/failed |
//! | `GET /jobs/{id}/report` | final body from the spool, byte-identical to `fleet --json` |
//! | `GET /metrics` | live Prometheus exposition of the process registry |
//! | `POST /shutdown` | graceful drain (`?mode=abort` cancels in-flight) |

use std::io::{self, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;

use std::time::Duration;

use telemetry::Stability;

use crate::http::{read_request, Request, Response};
use crate::job::JobSpec;
use crate::scheduler::{ReportOutcome, Scheduler, SubmitError};
use crate::spool::Spool;

/// How long a connection may dribble its request before being dropped —
/// generous for the loopback/LAN clients the daemon serves, finite so a
/// stalled peer cannot pin its handler thread forever.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// How often the shutting-down accept loop re-polls its listener while the
/// workers finish.
const SHUTDOWN_POLL: Duration = Duration::from_millis(1);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Bind address; port 0 picks an ephemeral port (read it back via
    /// [`Daemon::local_addr`]).
    pub addr: String,
    /// Spool root for job specs, shard checkpoints and final reports.
    pub spool: PathBuf,
    /// Worker threads running shards (0 = 1).
    pub workers: usize,
    /// Maximum jobs queued or running at once; further submissions get 429.
    pub queue_depth: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            spool: PathBuf::from("fleetd-spool"),
            workers: 2,
            queue_depth: 8,
        }
    }
}

/// Errors constructing or running the daemon.
#[derive(Debug)]
pub enum DaemonError {
    /// Opening or scanning the spool failed.
    Spool(io::Error),
    /// Binding the listen socket failed.
    Bind(io::Error),
}

impl std::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Spool(e) => write!(f, "opening the spool failed: {e}"),
            Self::Bind(e) => write!(f, "binding the listen socket failed: {e}"),
        }
    }
}

impl std::error::Error for DaemonError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Spool(e) | Self::Bind(e) => Some(e),
        }
    }
}

/// A bound, worker-backed fleet daemon. Construct with [`Daemon::bind`],
/// then [`Daemon::run`] the accept loop (blocking until shutdown).
pub struct Daemon {
    listener: TcpListener,
    scheduler: Arc<Scheduler>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Opens the spool (recovering checkpointed jobs), binds the listen
    /// socket and spawns the worker pool. Jobs recovered from a previous
    /// incarnation start executing immediately — before the first request.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Spool`] or [`DaemonError::Bind`].
    pub fn bind(config: &DaemonConfig) -> Result<Self, DaemonError> {
        let spool = Spool::new(&config.spool).map_err(DaemonError::Spool)?;
        let scheduler =
            Arc::new(Scheduler::new(spool, config.queue_depth.max(1)).map_err(DaemonError::Spool)?);
        let listener = TcpListener::bind(&config.addr).map_err(DaemonError::Bind)?;
        let workers = scheduler.spawn_workers(config.workers);
        Ok(Self {
            listener,
            scheduler,
            workers,
        })
    }

    /// The bound address (the actual port when the config asked for 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection error.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The scheduler behind this daemon (shared with the worker pool).
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.scheduler
    }

    /// Serves connections until a `POST /shutdown` arrives, then drains the
    /// worker pool and returns; requests arriving during the drain are still
    /// answered (submissions with the typed `503`). A connection made after
    /// the last accept may still be refused, or reset when the listener
    /// closes. Each connection is handled on its own thread; handler panics
    /// are confined to that thread.
    ///
    /// # Errors
    ///
    /// Propagates a fatal accept-loop error (per-connection errors are
    /// answered with typed HTTP errors instead).
    pub fn run(self) -> io::Result<()> {
        let mut handlers = Vec::new();
        let spawn = |stream: TcpStream| {
            let scheduler = Arc::clone(&self.scheduler);
            let addr = self.listener.local_addr();
            std::thread::spawn(move || {
                handle_connection(stream, &scheduler, addr);
            })
        };
        for stream in self.listener.incoming() {
            // The scheduler's one-way latch; a stale read costs at most one
            // extra served connection, and the poison-pill self-connect in
            // `shutdown` guarantees a fresh accept (and thus a fresh load).
            let stopping = self.scheduler.is_shutting_down();
            if let Ok(stream) = stream {
                handlers.push(spawn(stream));
            }
            if stopping {
                break;
            }
            // Opportunistically reap finished handlers so a long-lived
            // daemon does not accumulate joinable threads.
            handlers.retain(|h| !h.is_finished());
        }
        // Keep answering connections while the workers wind down, then once
        // more for whatever the backlog holds when they are done: a client
        // connecting during the drain gets the typed drain answer instead
        // of waiting on a listener nobody accepts from.
        if self.listener.set_nonblocking(true).is_ok() {
            loop {
                let workers_done = self.workers.iter().all(|w| w.is_finished());
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(false).is_ok() {
                            handlers.push(spawn(stream));
                        }
                    }
                    Err(_) if workers_done => break,
                    Err(_) => std::thread::sleep(SHUTDOWN_POLL),
                }
                handlers.retain(|h| !h.is_finished());
            }
        }
        for handler in handlers {
            let _ = handler.join();
        }
        for worker in self.workers {
            let _ = worker.join();
        }
        Ok(())
    }
}

/// Reads one request off the connection, routes it, writes the response.
fn handle_connection(
    stream: TcpStream,
    scheduler: &Arc<Scheduler>,
    local_addr: io::Result<std::net::SocketAddr>,
) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    let response = match read_request(&mut reader) {
        // Connection closed without sending anything: nothing to answer.
        Ok(None) => return,
        Ok(Some(request)) => {
            count_request(&request);
            route(&request, scheduler, local_addr)
        }
        Err(error) => Response::from_http_error(&error),
    };
    let mut stream = stream;
    let _ = response.write_to(&mut stream);
    let _ = stream.flush();
}

/// Bumps the live request counter the `/metrics` endpoint itself serves.
fn count_request(request: &Request) {
    if let Ok(c) = telemetry::global().counter(
        "chris_fleetd_http_requests_total",
        &[("method", &request.method)],
        "HTTP requests accepted by the fleetd parser",
        Stability::Observational,
    ) {
        c.inc();
    }
}

/// Maps one parsed request to its response.
fn route(
    request: &Request,
    scheduler: &Arc<Scheduler>,
    local_addr: io::Result<std::net::SocketAddr>,
) -> Response {
    let path = request.path.as_str();
    match (request.method.as_str(), path) {
        ("POST", "/jobs") => submit(request, scheduler),
        ("GET", "/jobs") => json(200, &scheduler.statuses()),
        ("GET", "/metrics") => Response::text(
            200,
            "text/plain; version=0.0.4",
            telemetry::global().exposition(),
        ),
        ("POST", "/shutdown") => shutdown(request, scheduler, local_addr),
        ("GET", _) if path.starts_with("/jobs/") => job_route(path, scheduler),
        // Known paths with the wrong method are 405, unknown paths 404.
        (_, "/jobs" | "/metrics" | "/shutdown") => {
            Response::error(405, format!("method {} not allowed here", request.method))
        }
        (_, _) if path.starts_with("/jobs/") => {
            Response::error(405, format!("method {} not allowed here", request.method))
        }
        _ => Response::error(404, format!("no such endpoint: {path}")),
    }
}

/// `POST /jobs`: parse → validate → submit. Parsing happens before any job
/// slot is touched, so malformed specs can never leak queue capacity.
fn submit(request: &Request, scheduler: &Arc<Scheduler>) -> Response {
    let spec = match JobSpec::from_json(&request.body) {
        Ok(spec) => spec,
        Err(message) => return Response::error(400, &message),
    };
    match scheduler.submit(spec) {
        Ok(status) => json(202, &status),
        Err(error @ SubmitError::QueueFull { .. }) => Response::error(429, error.to_string()),
        Err(error @ SubmitError::Draining) => Response::error(503, error.to_string()),
        Err(error @ SubmitError::Invalid(_)) => Response::error(400, error.to_string()),
        Err(error @ SubmitError::Spool(_)) => Response::error(500, error.to_string()),
    }
}

/// `GET /jobs/{id}` and `GET /jobs/{id}/report`.
fn job_route(path: &str, scheduler: &Arc<Scheduler>) -> Response {
    // The router only calls this for `/jobs/`-prefixed paths, but this is a
    // request-serving path: missing prefix degrades to 404, never a panic.
    let Some(rest) = path.strip_prefix("/jobs/") else {
        return Response::error(404, format!("no such endpoint: {path}"));
    };
    let (id_text, report) = match rest.strip_suffix("/report") {
        Some(id_text) => (id_text, true),
        None => (rest, false),
    };
    let Ok(id) = id_text.parse::<u64>() else {
        return Response::error(404, format!("no such endpoint: {path}"));
    };
    if !report {
        return match scheduler.status(id) {
            Some(status) => json(200, &status),
            None => Response::error(404, format!("no job with id {id}")),
        };
    }
    match scheduler.report(id) {
        // Raw body bytes, exactly as spooled — the byte-identity guarantee.
        ReportOutcome::Ready(body) => Response {
            status: 200,
            content_type: "application/json",
            body,
        },
        ReportOutcome::NotFinished(state) => Response::error(
            409,
            format!("job {id} has not finished yet (state: {})", state.name()),
        ),
        ReportOutcome::Failed(message) => {
            Response::error(500, format!("job {id} failed: {message}"))
        }
        ReportOutcome::Unreadable(message) => Response::error(
            500,
            format!("job {id} is done but its report is unreadable: {message}"),
        ),
        ReportOutcome::NoSuchJob => Response::error(404, format!("no job with id {id}")),
    }
}

/// `POST /shutdown`: begin the drain (or abort with `?mode=abort`), then
/// wake the accept loop with a self-connect so [`Daemon::run`] returns.
fn shutdown(
    request: &Request,
    scheduler: &Arc<Scheduler>,
    local_addr: io::Result<std::net::SocketAddr>,
) -> Response {
    let mode = request.query.as_deref().unwrap_or("");
    let abort = match mode {
        "" | "mode=drain" => false,
        "mode=abort" => true,
        other => {
            return Response::error(400, format!("unsupported shutdown query: {other}"));
        }
    };
    scheduler.begin_shutdown(abort);
    if let Ok(addr) = local_addr {
        // Poison pill: unblock the accept loop. The accepted connection
        // sends nothing and is answered with nothing.
        let _ = TcpStream::connect(addr);
    }
    Response::text(
        200,
        "text/plain",
        if abort {
            "aborting: cancelling in-flight shards\n"
        } else {
            "draining: in-flight shards will checkpoint\n"
        }
        .to_string(),
    )
}

/// Serializes `value` into a compact-JSON response. Daemon payload types
/// serialize infallibly today; if one ever stops, the peer gets a typed 500
/// instead of a dead connection from a killed handler thread.
fn json<T: serde::Serialize>(status: u16, value: &T) -> Response {
    match serde_json::to_string(value) {
        Ok(body) => Response::json(status, body),
        Err(error) => Response::error(500, format!("response serialization failed: {error}")),
    }
}
