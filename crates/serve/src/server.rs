//! The resident sweep service: a Unix-socket / TCP listener that serves
//! concurrent sweep requests with warm plan caches.
//!
//! ## Lifetime of the warm cache
//!
//! [`BoundServer::serve`] enables the process-global shared plan cache in
//! `rlnc-engine` before accepting connections. The preparations that plan
//! through it are the fixed instances of the slack scenarios,
//! `resilient-boundary`'s configuration, `fault-matrix`'s decision plans
//! and `claim2-scan`'s target. The `rlnc-derand` stages build the union
//! and gluing composites outside it, so `boosting-decay`, `glued-decay`,
//! `language-matrix` and `theorem1-pipeline` re-plan on every request;
//! `ramsey-lift` plans each trial's freshly relabeled instance on its
//! own. Plans are pure functions of instance
//! content; the first request for a cached scenario pays the planning
//! cost (misses), repeat requests at the same scale reuse the resident
//! plans (hits). Each `run-end` line reports the request's hit/miss
//! deltas so clients (and CI) can observe the reuse; under concurrent
//! requests the deltas are attributed to whichever requests were in
//! flight.
//!
//! ## Concurrency and streaming
//!
//! Each connection is served on its own scoped thread; a `run` request
//! executes its grid points one at a time and writes each record line as
//! soon as the point completes, so clients see results incrementally.
//! Records are bit-identical to a single-process run because every grid
//! point's seed branch and setup are independent (the executor's seed-tree
//! discipline).

use crate::protocol::{Request, Response, StatusReport};
use crate::shard::ShardSpec;
use rlnc_obs::{LazyCounter, Section};
use rlnc_sweep::{Registry, SweepExecutor};
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

// Request/record totals are functions of the request history alone —
// deterministic; they complement the per-server atomics surfaced by
// `status` (the obs copies land in `--trace-out` exports).
static OBS_REQUESTS: LazyCounter = LazyCounter::new("serve.requests", Section::Deterministic);
static OBS_RECORDS: LazyCounter =
    LazyCounter::new("serve.records_streamed", Section::Deterministic);
static OBS_ERRORS: LazyCounter = LazyCounter::new("serve.errors", Section::Deterministic);

/// How long a connection handler blocks in `read` before re-checking the
/// shutdown flag; also the accept loop's poll interval.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Longest request line the server buffers, newline excluded. A request
/// is one short JSON object; a longer line gets an `error` response and
/// its connection is closed, so no client can grow server memory without
/// bound.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Where the service listens: a filesystem Unix socket or a TCP address.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket at the given path (`unix:/path/to.sock`).
    Unix(PathBuf),
    /// A TCP address (`tcp:127.0.0.1:7070`; port 0 picks a free port,
    /// reported back by [`BoundServer::endpoint`]).
    Tcp(String),
}

impl Endpoint {
    /// Parses the CLI spelling: `unix:PATH` or `tcp:HOST:PORT`.
    pub fn parse(raw: &str) -> Result<Endpoint, String> {
        if let Some(path) = raw.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("unix endpoint needs a socket path (unix:/path/to.sock)".into());
            }
            Ok(Endpoint::Unix(PathBuf::from(path)))
        } else if let Some(addr) = raw.strip_prefix("tcp:") {
            if addr.is_empty() {
                return Err("tcp endpoint needs an address (tcp:127.0.0.1:7070)".into());
            }
            Ok(Endpoint::Tcp(addr.to_string()))
        } else {
            Err(format!(
                "'{raw}' is not an endpoint: expected unix:PATH or tcp:HOST:PORT"
            ))
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// One connected stream, Unix or TCP: accepted by the server, opened by
/// the client.
pub(crate) enum Conn {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Conn {
    pub(crate) fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
        }
    }

    fn configure(&self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => {
                s.set_nonblocking(false)?;
                s.set_read_timeout(Some(POLL_INTERVAL))
            }
            Conn::Tcp(s) => {
                s.set_nonblocking(false)?;
                s.set_read_timeout(Some(POLL_INTERVAL))
            }
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            Listener::Unix(l) => l.set_nonblocking(true),
            Listener::Tcp(l) => l.set_nonblocking(true),
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
        }
    }
}

/// The resident sweep service: registry + per-process counters.
#[derive(Debug)]
pub struct SweepServer {
    registry: Registry,
    requests: AtomicU64,
    records_streamed: AtomicU64,
    errors: AtomicU64,
    active: AtomicU64,
    shutdown: AtomicBool,
}

impl Default for SweepServer {
    fn default() -> Self {
        SweepServer::new()
    }
}

/// A [`SweepServer`] bound to its endpoint, ready to
/// [`serve`](BoundServer::serve).
pub struct BoundServer {
    server: SweepServer,
    listener: Listener,
    endpoint: Endpoint,
}

impl SweepServer {
    /// A server over the built-in scenario registry.
    pub fn new() -> Self {
        SweepServer {
            registry: Registry::builtin(),
            requests: AtomicU64::new(0),
            records_streamed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            active: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Binds to `endpoint`. A *stale* Unix socket file at the path — one no
    /// server answers on — is removed first; if a live server is still
    /// listening there, binding fails instead of silently stealing its
    /// endpoint. A TCP port of 0 is resolved to the actual bound port in
    /// the returned server's [`endpoint`](BoundServer::endpoint).
    pub fn bind(self, endpoint: &Endpoint) -> Result<BoundServer, String> {
        match endpoint {
            Endpoint::Unix(path) => {
                match UnixStream::connect(path) {
                    Ok(_) => {
                        return Err(format!(
                            "cannot bind {endpoint}: a server is already listening on this \
                             socket (remove the file only if you are sure it is dead)"
                        ));
                    }
                    // Nothing there yet: bind will create the file.
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    // A socket exists but no one answers — a dead server's
                    // leftover: reclaim the path. Anything that is not a
                    // socket is left alone; the bind below reports the
                    // address-in-use error.
                    Err(_) => {
                        use std::os::unix::fs::FileTypeExt;
                        let stale_socket = std::fs::metadata(path)
                            .map(|m| m.file_type().is_socket())
                            .unwrap_or(false);
                        if stale_socket {
                            let _ = std::fs::remove_file(path);
                        }
                    }
                }
                let listener = UnixListener::bind(path)
                    .map_err(|e| format!("cannot bind {}: {e}", endpoint))?;
                Ok(BoundServer {
                    server: self,
                    listener: Listener::Unix(listener),
                    endpoint: endpoint.clone(),
                })
            }
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr)
                    .map_err(|e| format!("cannot bind {}: {e}", endpoint))?;
                let actual = listener
                    .local_addr()
                    .map_err(|e| format!("cannot resolve bound address: {e}"))?;
                Ok(BoundServer {
                    server: self,
                    listener: Listener::Tcp(listener),
                    endpoint: Endpoint::Tcp(actual.to_string()),
                })
            }
        }
    }

    fn status_report(&self) -> StatusReport {
        let cache = rlnc_engine::shared_plan_cache_stats();
        StatusReport {
            requests: self.requests.load(Ordering::Acquire),
            records_streamed: self.records_streamed.load(Ordering::Acquire),
            errors: self.errors.load(Ordering::Acquire),
            active_connections: self.active.load(Ordering::Acquire),
            scenarios: self.registry.names().len() as u64,
            plan_cache_hits: cache.hits,
            plan_cache_misses: cache.misses,
            plan_cache_plans: cache.plans,
        }
    }

    fn send(writer: &mut Conn, response: &Response) -> io::Result<()> {
        writer.write_all(response.to_json().as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()
    }

    fn send_error(&self, writer: &mut Conn, message: String) -> io::Result<()> {
        self.errors.fetch_add(1, Ordering::AcqRel);
        OBS_ERRORS.inc();
        Self::send(
            writer,
            &Response::Error {
                message,
            },
        )
    }

    /// Streams one `run` request: grid points execute one at a time (each
    /// an independent seed branch, so records match a full run bit-for-
    /// bit) and every record line is flushed as soon as it completes.
    fn handle_run(
        &self,
        writer: &mut Conn,
        scenario: &str,
        scale: rlnc_par::Scale,
        seed: u64,
        shard: Option<ShardSpec>,
    ) -> io::Result<()> {
        let Some(spec) = self.registry.get(scenario) else {
            return self.send_error(
                writer,
                format!(
                    "unknown scenario: {scenario} (available: {})",
                    self.registry.names().join(", ")
                ),
            );
        };
        let shard = shard.unwrap_or_else(ShardSpec::full);
        let executor = SweepExecutor::new(scale).with_seed(seed);
        let points = spec.grid(scale).iter().filter(|p| shard.owns(p.index)).count() as u64;
        let cache_before = rlnc_engine::shared_plan_cache_stats();
        let pool_before = rlnc_par::pool::stats();
        Self::send(
            writer,
            &Response::RunStart {
                scenario: spec.name.clone(),
                description: spec.description.clone(),
                workload: spec.workload.name().to_string(),
                scale: scale.name().to_string(),
                master_seed: seed,
                points,
            },
        )?;
        // One streamed run: the spec is validated and the grid enumerated
        // once, and the obs counters (`sweep.runs`, the resume span) match
        // a local sharded run of the same points.
        let streamed = executor.stream_where(
            spec,
            |p| shard.owns(p.index),
            |record| {
                Self::send(writer, &Response::Record { record })?;
                self.records_streamed.fetch_add(1, Ordering::AcqRel);
                OBS_RECORDS.inc();
                Ok::<(), io::Error>(())
            },
        )?;
        let cache_after = rlnc_engine::shared_plan_cache_stats();
        let pool_after = rlnc_par::pool::stats();
        Self::send(
            writer,
            &Response::RunEnd {
                records: streamed,
                plan_cache_hits_delta: cache_after.hits.saturating_sub(cache_before.hits),
                plan_cache_misses_delta: cache_after.misses.saturating_sub(cache_before.misses),
                pool_tasks_delta: pool_after.tasks.saturating_sub(pool_before.tasks),
                pool_steals_delta: pool_after.steals.saturating_sub(pool_before.steals),
                pool_parks_delta: pool_after.parks.saturating_sub(pool_before.parks),
            },
        )
    }

    fn dispatch(&self, writer: &mut Conn, line: &str) -> io::Result<bool> {
        let request = match Request::from_json(line) {
            Ok(request) => request,
            Err(e) => {
                self.send_error(writer, format!("bad request: {e}"))?;
                return Ok(true);
            }
        };
        self.requests.fetch_add(1, Ordering::AcqRel);
        OBS_REQUESTS.inc();
        match request {
            Request::ListScenarios => {
                let mut count = 0u64;
                for spec in self.registry.iter() {
                    Self::send(
                        writer,
                        &Response::Scenario {
                            name: spec.name.clone(),
                            description: spec.description.clone(),
                            summary: spec.summary(),
                        },
                    )?;
                    count += 1;
                }
                Self::send(writer, &Response::ScenariosDone { count })?;
            }
            Request::Run {
                scenario,
                scale,
                seed,
                shard,
            } => self.handle_run(writer, &scenario, scale, seed, shard)?,
            Request::Status => Self::send(writer, &Response::Status(self.status_report()))?,
            Request::Shutdown => {
                Self::send(writer, &Response::ShuttingDown)?;
                self.shutdown.store(true, Ordering::Release);
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Serves one connection until EOF, a write failure, or shutdown.
    fn handle_connection(&self, conn: Conn) {
        self.active.fetch_add(1, Ordering::AcqRel);
        let result = self.connection_loop(conn);
        self.active.fetch_sub(1, Ordering::AcqRel);
        // A dropped client mid-stream is normal churn, not a server error.
        let _ = result;
    }

    fn connection_loop(&self, conn: Conn) -> io::Result<()> {
        conn.configure()?;
        let mut writer = conn.try_clone()?;
        let mut reader = BufReader::new(conn);
        // The accumulator persists across read timeouts so a request line
        // arriving in pieces is never truncated: read_until appends to it
        // and only a terminal '\n' dispatches. Each read may fill it to at
        // most one byte past the cap, which is how an over-long line shows.
        let mut line = Vec::new();
        loop {
            let budget = (MAX_REQUEST_LINE + 1 - line.len()) as u64;
            match (&mut reader).take(budget).read_until(b'\n', &mut line) {
                Ok(0) => return Ok(()), // client EOF
                Ok(_) if line.ends_with(b"\n") => {
                    match std::str::from_utf8(&line) {
                        Ok(text) => {
                            let trimmed = text.trim();
                            if !trimmed.is_empty() && !self.dispatch(&mut writer, trimmed)? {
                                return Ok(());
                            }
                        }
                        Err(_) => self.send_error(&mut writer, "bad request: not UTF-8".into())?,
                    }
                    line.clear();
                }
                Ok(_) if line.len() > MAX_REQUEST_LINE => {
                    let message = format!("request line exceeds {MAX_REQUEST_LINE} bytes");
                    return self.send_error(&mut writer, message);
                }
                Ok(_) => {} // partial final line; next read returns 0
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if self.shutdown.load(Ordering::Acquire) {
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

impl BoundServer {
    /// The endpoint actually bound (TCP port 0 resolved).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Accepts and serves connections until a `shutdown` request arrives,
    /// then drains in-flight connections and returns. Enables the
    /// process-global shared plan cache so repeat requests hit warm plans.
    pub fn serve(self) -> Result<(), String> {
        rlnc_engine::set_shared_plan_cache(true);
        let BoundServer {
            server,
            listener,
            endpoint,
        } = self;
        listener
            .set_nonblocking()
            .map_err(|e| format!("cannot poll listener: {e}"))?;
        let result: io::Result<()> = std::thread::scope(|scope| {
            while !server.shutdown.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok(conn) => {
                        let server = &server;
                        scope.spawn(move || server.handle_connection(conn));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(POLL_INTERVAL);
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        });
        if let Endpoint::Unix(path) = &endpoint {
            let _ = std::fs::remove_file(path);
        }
        result.map_err(|e| format!("accept loop failed: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_parse_and_display() {
        assert_eq!(
            Endpoint::parse("unix:/tmp/rlnc.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("/tmp/rlnc.sock"))
        );
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:7070").unwrap(),
            Endpoint::Tcp("127.0.0.1:7070".into())
        );
        assert_eq!(
            Endpoint::parse("unix:/tmp/a.sock").unwrap().to_string(),
            "unix:/tmp/a.sock"
        );
        assert!(Endpoint::parse("/tmp/bare-path").is_err());
        assert!(Endpoint::parse("unix:").is_err());
        assert!(Endpoint::parse("tcp:").is_err());
        assert!(Endpoint::parse("udp:1.2.3.4:5").is_err());
    }

    #[test]
    fn binding_a_live_unix_socket_fails_instead_of_stealing_it() {
        let path = std::env::temp_dir()
            .join(format!("rlnc-serve-bind-test-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let endpoint = Endpoint::Unix(path.clone());

        // First bind succeeds and holds the socket live.
        let first = SweepServer::new().bind(&endpoint).expect("first bind");
        let Err(err) = SweepServer::new().bind(&endpoint) else {
            panic!("second bind must fail");
        };
        assert!(err.contains("already listening"), "unexpected error: {err}");
        // The live server's socket file is untouched.
        assert!(path.exists(), "second bind must not unlink the live socket");
        drop(first);

        // Once the first server is gone the file is a stale socket and the
        // path can be reclaimed.
        assert!(path.exists(), "dropping the listener leaves a stale socket file");
        let reclaimed = SweepServer::new().bind(&endpoint).expect("stale socket reclaimed");
        drop(reclaimed);

        // A non-socket file at the path is never deleted: bind fails.
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, b"not a socket").unwrap();
        let Err(err) = SweepServer::new().bind(&endpoint) else {
            panic!("regular file must not bind");
        };
        assert!(err.contains("cannot bind"), "unexpected error: {err}");
        assert_eq!(std::fs::read(&path).unwrap(), b"not a socket");
        let _ = std::fs::remove_file(&path);
    }
}
