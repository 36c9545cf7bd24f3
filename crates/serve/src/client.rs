//! A client for the resident sweep service's wire protocol.

use crate::protocol::{Request, Response, StatusReport};
use crate::server::{Conn, Endpoint};
use crate::shard::ShardSpec;
use rlnc_par::Scale;
use rlnc_sweep::{RunRecord, SweepRun};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// A connected protocol client.
pub struct Connection {
    reader: BufReader<Conn>,
    writer: Conn,
}

/// The reassembled result of one streamed `run` request.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOutcome {
    /// The full run, byte-identical (via `emit::to_json`) to running the
    /// same scenario/scale/seed/shard locally.
    pub run: SweepRun,
    /// Shared plan-cache hits the server attributed to this request.
    pub plan_cache_hits_delta: u64,
    /// Shared plan-cache misses the server attributed to this request.
    pub plan_cache_misses_delta: u64,
    /// Pool tasks the server executed while serving this request.
    pub pool_tasks_delta: u64,
    /// Pool steals the server observed while serving this request.
    pub pool_steals_delta: u64,
    /// Worker parks the server observed while serving this request.
    pub pool_parks_delta: u64,
}

/// Connects to a serving endpoint.
pub fn connect(endpoint: &Endpoint) -> Result<Connection, String> {
    let stream = match endpoint {
        Endpoint::Unix(path) => UnixStream::connect(path).map(Conn::Unix),
        Endpoint::Tcp(addr) => TcpStream::connect(addr).map(Conn::Tcp),
    }
    .map_err(|e| format!("cannot connect to {endpoint}: {e}"))?;
    let reader = stream
        .try_clone()
        .map_err(|e| format!("cannot clone stream: {e}"))?;
    Ok(Connection {
        reader: BufReader::new(reader),
        writer: stream,
    })
}

/// [`connect`], retrying until `timeout` elapses — for drivers (tests, CI)
/// that race a freshly booted server.
pub fn connect_with_retry(endpoint: &Endpoint, timeout: Duration) -> Result<Connection, String> {
    let deadline = Instant::now() + timeout;
    loop {
        match connect(endpoint) {
            Ok(connection) => return Ok(connection),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(format!("{e} (gave up after {timeout:?})"));
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

impl Connection {
    /// Sends one request line.
    pub fn send(&mut self, request: &Request) -> Result<(), String> {
        self.writer
            .write_all(request.to_json().as_bytes())
            .and_then(|_| self.writer.write_all(b"\n"))
            .and_then(|_| self.writer.flush())
            .map_err(|e| format!("cannot send request: {e}"))
    }

    /// Reads the next response line (`None` on server EOF).
    pub fn recv(&mut self) -> Result<Option<Response>, String> {
        let mut line = String::new();
        loop {
            line.clear();
            match self.reader.read_line(&mut line) {
                Ok(0) => return Ok(None),
                Ok(_) if line.trim().is_empty() => {}
                Ok(_) => return Response::from_json(line.trim()).map(Some),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("cannot read response: {e}")),
            }
        }
    }

    fn expect(&mut self, what: &str) -> Result<Response, String> {
        match self.recv()? {
            Some(Response::Error { message }) => Err(format!("server error: {message}")),
            Some(response) => Ok(response),
            None => Err(format!("connection closed while waiting for {what}")),
        }
    }

    /// Lists the server's scenarios as `(name, description, summary)`.
    pub fn list_scenarios(&mut self) -> Result<Vec<(String, String, String)>, String> {
        self.send(&Request::ListScenarios)?;
        let mut scenarios = Vec::new();
        loop {
            match self.expect("scenario list")? {
                Response::Scenario {
                    name,
                    description,
                    summary,
                } => scenarios.push((name, description, summary)),
                Response::ScenariosDone { count } => {
                    if count != scenarios.len() as u64 {
                        return Err(format!(
                            "scenario list truncated: got {} of {count}",
                            scenarios.len()
                        ));
                    }
                    return Ok(scenarios);
                }
                other => return Err(format!("unexpected response: {}", other.to_json())),
            }
        }
    }

    /// Runs a scenario (or one shard of it) on the server, invoking
    /// `on_record` as each streamed record arrives, and reassembles the
    /// stream into a [`RunOutcome`] whose `run` exports byte-identically
    /// to a local run of the same parameters.
    pub fn run(
        &mut self,
        scenario: &str,
        scale: Scale,
        seed: u64,
        shard: Option<ShardSpec>,
        mut on_record: impl FnMut(&RunRecord),
    ) -> Result<RunOutcome, String> {
        self.send(&Request::Run {
            scenario: scenario.to_string(),
            scale,
            seed,
            shard,
        })?;
        let (run_scenario, description, workload, scale_name, master_seed, points) =
            match self.expect("run-start")? {
                Response::RunStart {
                    scenario,
                    description,
                    workload,
                    scale,
                    master_seed,
                    points,
                } => (scenario, description, workload, scale, master_seed, points),
                other => return Err(format!("expected run-start, got: {}", other.to_json())),
            };
        let mut records: Vec<RunRecord> = Vec::with_capacity(points as usize);
        loop {
            match self.expect("record stream")? {
                Response::Record { record } => {
                    on_record(&record);
                    records.push(record);
                }
                Response::RunEnd {
                    records: expected,
                    plan_cache_hits_delta,
                    plan_cache_misses_delta,
                    pool_tasks_delta,
                    pool_steals_delta,
                    pool_parks_delta,
                } => {
                    if expected != records.len() as u64 {
                        return Err(format!(
                            "record stream truncated: got {} of {expected}",
                            records.len()
                        ));
                    }
                    return Ok(RunOutcome {
                        run: SweepRun {
                            scenario: run_scenario,
                            description,
                            workload,
                            scale: scale_name,
                            master_seed,
                            records,
                        },
                        plan_cache_hits_delta,
                        plan_cache_misses_delta,
                        pool_tasks_delta,
                        pool_steals_delta,
                        pool_parks_delta,
                    });
                }
                other => return Err(format!("unexpected response: {}", other.to_json())),
            }
        }
    }

    /// Fetches the server's status counters.
    pub fn status(&mut self) -> Result<StatusReport, String> {
        self.send(&Request::Status)?;
        match self.expect("status")? {
            Response::Status(report) => Ok(report),
            other => Err(format!("expected status, got: {}", other.to_json())),
        }
    }

    /// Asks the server to shut down (acknowledged before it exits).
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.send(&Request::Shutdown)?;
        match self.expect("shutdown acknowledgement")? {
            Response::ShuttingDown => Ok(()),
            other => Err(format!("expected shutting-down, got: {}", other.to_json())),
        }
    }
}
