//! The line-delimited JSON wire protocol of the resident sweep service.
//!
//! Every message is one JSON object on one line (`\n`-terminated).
//! Requests carry a `cmd` field, responses a `type` field:
//!
//! ```text
//! -> {"cmd":"list-scenarios"}
//! <- {"type":"scenario","name":...,"description":...,"summary":...}   (xN)
//! <- {"type":"scenarios-done","count":N}
//!
//! -> {"cmd":"run","scenario":"smoke","scale":"smoke","seed":7,"shard":"1/2"}
//! <- {"type":"run-start","scenario":...,"description":...,"workload":...,
//!     "scale":...,"master_seed":...,"points":N}
//! <- {"type":"record","record":{...}}                                 (xN, streamed)
//! <- {"type":"run-end","records":N,"plan_cache_hits_delta":H,
//!     "plan_cache_misses_delta":M,"pool_tasks_delta":T,
//!     "pool_steals_delta":S,"pool_parks_delta":P}
//!
//! -> {"cmd":"status"}
//! <- {"type":"status",...}
//!
//! -> {"cmd":"shutdown"}
//! <- {"type":"shutting-down"}
//! ```
//!
//! `scale`, `seed`, and `shard` are optional on `run` (defaulting to
//! `standard`, the sweep engine's default seed, and the full 1/1 shard).
//! Record lines embed the exact [`record_json`] byte form, so a client
//! that reassembles the stream re-exports documents byte-identical to a
//! local run. Errors come back as `{"type":"error","message":...}` and
//! never tear down the connection.

use crate::shard::ShardSpec;
use rlnc_obs::escape_json;
use rlnc_par::Scale;
use rlnc_sweep::emit::{json, record_from_json, record_json};
use rlnc_sweep::{RunRecord, DEFAULT_SWEEP_SEED};

/// A client request — one line on the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// List the registry's scenarios.
    ListScenarios,
    /// Run a scenario (or one shard of it), streaming records back.
    Run {
        /// Registry scenario name.
        scenario: String,
        /// Scale to run at.
        scale: Scale,
        /// Master seed of the run.
        seed: u64,
        /// Optional shard restriction (defaults to the full grid).
        shard: Option<ShardSpec>,
    },
    /// Report server counters and cache health.
    Status,
    /// Ask the server to stop accepting connections and exit.
    Shutdown,
}

impl Request {
    /// Serializes the request as one protocol line (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            Request::ListScenarios => "{\"cmd\":\"list-scenarios\"}".into(),
            Request::Run {
                scenario,
                scale,
                seed,
                shard,
            } => {
                let mut out = format!(
                    "{{\"cmd\":\"run\",\"scenario\":\"{}\",\"scale\":\"{}\",\"seed\":{}",
                    escape_json(scenario),
                    scale.name(),
                    seed
                );
                if let Some(shard) = shard {
                    out.push_str(&format!(",\"shard\":\"{shard}\""));
                }
                out.push('}');
                out
            }
            Request::Status => "{\"cmd\":\"status\"}".into(),
            Request::Shutdown => "{\"cmd\":\"shutdown\"}".into(),
        }
    }

    /// Parses one request line.
    pub fn from_json(line: &str) -> Result<Request, String> {
        let value = json::parse(line)?;
        let obj = value.as_object("request")?;
        let cmd = json::get(obj, "cmd")?.as_string("cmd")?;
        match cmd.as_str() {
            "list-scenarios" => Ok(Request::ListScenarios),
            "status" => Ok(Request::Status),
            "shutdown" => Ok(Request::Shutdown),
            "run" => {
                let scenario = json::get(obj, "scenario")
                    .map_err(|_| "run: missing 'scenario'".to_string())?
                    .as_string("scenario")?;
                let scale = match json::get(obj, "scale") {
                    Ok(v) => v
                        .as_string("scale")?
                        .parse::<Scale>()
                        .map_err(|e| format!("scale: {e}"))?,
                    Err(_) => Scale::Standard,
                };
                let seed = match json::get(obj, "seed") {
                    Ok(v) => v.as_u64("seed")?,
                    Err(_) => DEFAULT_SWEEP_SEED,
                };
                let shard = match json::get(obj, "shard") {
                    Ok(v) => Some(ShardSpec::parse(&v.as_string("shard")?)?),
                    Err(_) => None,
                };
                Ok(Request::Run {
                    scenario,
                    scale,
                    seed,
                    shard,
                })
            }
            other => Err(format!("unknown cmd '{other}'")),
        }
    }
}

/// The server-side counters reported by a `status` response.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatusReport {
    /// Requests dispatched since the server started.
    pub requests: u64,
    /// Record lines streamed across all `run` requests.
    pub records_streamed: u64,
    /// Requests that produced an `error` response.
    pub errors: u64,
    /// Connections currently being served.
    pub active_connections: u64,
    /// Scenarios in the server's registry.
    pub scenarios: u64,
    /// Cumulative shared plan-cache hits (process-wide).
    pub plan_cache_hits: u64,
    /// Cumulative shared plan-cache misses.
    pub plan_cache_misses: u64,
    /// Plans currently resident in the shared cache.
    pub plan_cache_plans: u64,
}

/// A server response — one line on the wire (several per request when
/// streaming).
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// One scenario of a `list-scenarios` reply.
    Scenario {
        /// Scenario name.
        name: String,
        /// Human description.
        description: String,
        /// Workload/axis summary line.
        summary: String,
    },
    /// Terminator of a `list-scenarios` reply.
    ScenariosDone {
        /// Number of scenario lines sent.
        count: u64,
    },
    /// Header of a `run` reply: the run metadata a client needs to
    /// reassemble a byte-identical export from the streamed records.
    RunStart {
        /// Scenario name.
        scenario: String,
        /// Scenario description.
        description: String,
        /// Workload name.
        workload: String,
        /// Scale name.
        scale: String,
        /// Master seed of the run.
        master_seed: u64,
        /// Number of record lines that will follow.
        points: u64,
    },
    /// One streamed record (sent as soon as its grid point completes).
    Record {
        /// The completed record.
        record: RunRecord,
    },
    /// Terminator of a `run` reply, with per-request cache and
    /// work-stealing-pool deltas.
    RunEnd {
        /// Records streamed for this request.
        records: u64,
        /// Shared plan-cache hits attributed to this request.
        plan_cache_hits_delta: u64,
        /// Shared plan-cache misses attributed to this request.
        plan_cache_misses_delta: u64,
        /// Pool tasks executed while serving this request.
        pool_tasks_delta: u64,
        /// Pool steals observed while serving this request.
        pool_steals_delta: u64,
        /// Worker parks observed while serving this request.
        pool_parks_delta: u64,
    },
    /// Reply to `status`.
    Status(StatusReport),
    /// Acknowledgement of `shutdown` (the server exits after sending it).
    ShuttingDown,
    /// A request-level failure; the connection stays usable.
    Error {
        /// One-line description of what went wrong.
        message: String,
    },
}

impl Response {
    /// Serializes the response as one protocol line (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            Response::Scenario {
                name,
                description,
                summary,
            } => format!(
                "{{\"type\":\"scenario\",\"name\":\"{}\",\"description\":\"{}\",\"summary\":\"{}\"}}",
                escape_json(name),
                escape_json(description),
                escape_json(summary)
            ),
            Response::ScenariosDone { count } => {
                format!("{{\"type\":\"scenarios-done\",\"count\":{count}}}")
            }
            Response::RunStart {
                scenario,
                description,
                workload,
                scale,
                master_seed,
                points,
            } => format!(
                concat!(
                    "{{\"type\":\"run-start\",\"scenario\":\"{}\",\"description\":\"{}\",",
                    "\"workload\":\"{}\",\"scale\":\"{}\",\"master_seed\":{},\"points\":{}}}"
                ),
                escape_json(scenario),
                escape_json(description),
                escape_json(workload),
                escape_json(scale),
                master_seed,
                points
            ),
            Response::Record { record } => {
                format!("{{\"type\":\"record\",\"record\":{}}}", record_json(record))
            }
            Response::RunEnd {
                records,
                plan_cache_hits_delta,
                plan_cache_misses_delta,
                pool_tasks_delta,
                pool_steals_delta,
                pool_parks_delta,
            } => format!(
                concat!(
                    "{{\"type\":\"run-end\",\"records\":{},\"plan_cache_hits_delta\":{},",
                    "\"plan_cache_misses_delta\":{},\"pool_tasks_delta\":{},",
                    "\"pool_steals_delta\":{},\"pool_parks_delta\":{}}}"
                ),
                records,
                plan_cache_hits_delta,
                plan_cache_misses_delta,
                pool_tasks_delta,
                pool_steals_delta,
                pool_parks_delta
            ),
            Response::Status(s) => format!(
                concat!(
                    "{{\"type\":\"status\",\"requests\":{},\"records_streamed\":{},",
                    "\"errors\":{},\"active_connections\":{},\"scenarios\":{},",
                    "\"plan_cache_hits\":{},\"plan_cache_misses\":{},\"plan_cache_plans\":{}}}"
                ),
                s.requests,
                s.records_streamed,
                s.errors,
                s.active_connections,
                s.scenarios,
                s.plan_cache_hits,
                s.plan_cache_misses,
                s.plan_cache_plans
            ),
            Response::ShuttingDown => "{\"type\":\"shutting-down\"}".into(),
            Response::Error { message } => {
                format!("{{\"type\":\"error\",\"message\":\"{}\"}}", escape_json(message))
            }
        }
    }

    /// Parses one response line.
    pub fn from_json(line: &str) -> Result<Response, String> {
        let value = json::parse(line)?;
        let obj = value.as_object("response")?;
        let kind = json::get(obj, "type")?.as_string("type")?;
        match kind.as_str() {
            "scenario" => Ok(Response::Scenario {
                name: json::get(obj, "name")?.as_string("name")?,
                description: json::get(obj, "description")?.as_string("description")?,
                summary: json::get(obj, "summary")?.as_string("summary")?,
            }),
            "scenarios-done" => Ok(Response::ScenariosDone {
                count: json::get(obj, "count")?.as_u64("count")?,
            }),
            "run-start" => Ok(Response::RunStart {
                scenario: json::get(obj, "scenario")?.as_string("scenario")?,
                description: json::get(obj, "description")?.as_string("description")?,
                workload: json::get(obj, "workload")?.as_string("workload")?,
                scale: json::get(obj, "scale")?.as_string("scale")?,
                master_seed: json::get(obj, "master_seed")?.as_u64("master_seed")?,
                points: json::get(obj, "points")?.as_u64("points")?,
            }),
            "record" => Ok(Response::Record {
                record: record_from_json(json::get(obj, "record")?, "record")?,
            }),
            "run-end" => Ok(Response::RunEnd {
                records: json::get(obj, "records")?.as_u64("records")?,
                plan_cache_hits_delta: json::get(obj, "plan_cache_hits_delta")?
                    .as_u64("plan_cache_hits_delta")?,
                plan_cache_misses_delta: json::get(obj, "plan_cache_misses_delta")?
                    .as_u64("plan_cache_misses_delta")?,
                pool_tasks_delta: json::get(obj, "pool_tasks_delta")?
                    .as_u64("pool_tasks_delta")?,
                pool_steals_delta: json::get(obj, "pool_steals_delta")?
                    .as_u64("pool_steals_delta")?,
                pool_parks_delta: json::get(obj, "pool_parks_delta")?
                    .as_u64("pool_parks_delta")?,
            }),
            "status" => Ok(Response::Status(StatusReport {
                requests: json::get(obj, "requests")?.as_u64("requests")?,
                records_streamed: json::get(obj, "records_streamed")?
                    .as_u64("records_streamed")?,
                errors: json::get(obj, "errors")?.as_u64("errors")?,
                active_connections: json::get(obj, "active_connections")?
                    .as_u64("active_connections")?,
                scenarios: json::get(obj, "scenarios")?.as_u64("scenarios")?,
                plan_cache_hits: json::get(obj, "plan_cache_hits")?.as_u64("plan_cache_hits")?,
                plan_cache_misses: json::get(obj, "plan_cache_misses")?
                    .as_u64("plan_cache_misses")?,
                plan_cache_plans: json::get(obj, "plan_cache_plans")?
                    .as_u64("plan_cache_plans")?,
            })),
            "shutting-down" => Ok(Response::ShuttingDown),
            "error" => Ok(Response::Error {
                message: json::get(obj, "message")?.as_string("message")?,
            }),
            other => Err(format!("unknown response type '{other}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_record() -> RunRecord {
        RunRecord {
            scenario: "smoke".into(),
            point: 3,
            family: "cycle".into(),
            n: 16,
            id_scheme: "consecutive".into(),
            workload: "slack-coloring".into(),
            param_a: 1,
            param_b: 2,
            trials: 64,
            seed: u64::MAX,
            successes: 60,
            p_hat: 0.9375,
            lower: 0.85,
            upper: 0.98,
            mean_value: 0.25,
        }
    }

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::ListScenarios,
            Request::Status,
            Request::Shutdown,
            Request::Run {
                scenario: "fault-matrix".into(),
                scale: Scale::Smoke,
                seed: 42,
                shard: Some(ShardSpec::new(2, 3).unwrap()),
            },
            Request::Run {
                scenario: "smoke".into(),
                scale: Scale::Standard,
                seed: DEFAULT_SWEEP_SEED,
                shard: None,
            },
        ];
        for req in requests {
            let line = req.to_json();
            assert_eq!(Request::from_json(&line).unwrap(), req, "line: {line}");
        }
    }

    #[test]
    fn run_request_defaults_scale_seed_and_shard() {
        let req = Request::from_json("{\"cmd\":\"run\",\"scenario\":\"smoke\"}").unwrap();
        assert_eq!(
            req,
            Request::Run {
                scenario: "smoke".into(),
                scale: Scale::Standard,
                seed: DEFAULT_SWEEP_SEED,
                shard: None,
            }
        );
    }

    #[test]
    fn malformed_requests_are_rejected_with_one_line_errors() {
        assert!(Request::from_json("not json").is_err());
        assert!(Request::from_json("{\"cmd\":\"warp\"}").is_err());
        assert!(Request::from_json("{\"cmd\":\"run\"}").unwrap_err().contains("scenario"));
        let err = Request::from_json("{\"cmd\":\"run\",\"scenario\":\"s\",\"shard\":\"0/4\"}")
            .unwrap_err();
        assert!(err.contains("1-based"), "unexpected error: {err}");
    }

    #[test]
    fn responses_round_trip() {
        let responses = [
            Response::Scenario {
                name: "smoke".into(),
                description: "tiny \"quoted\" grid".into(),
                summary: "slack-coloring over cycles".into(),
            },
            Response::ScenariosDone { count: 10 },
            Response::RunStart {
                scenario: "smoke".into(),
                description: "d".into(),
                workload: "slack-coloring".into(),
                scale: "smoke".into(),
                master_seed: u64::MAX,
                points: 8,
            },
            Response::Record {
                record: demo_record(),
            },
            Response::RunEnd {
                records: 8,
                plan_cache_hits_delta: 5,
                plan_cache_misses_delta: 3,
                pool_tasks_delta: 21,
                pool_steals_delta: 4,
                pool_parks_delta: 2,
            },
            Response::Status(StatusReport {
                requests: 4,
                records_streamed: 32,
                errors: 1,
                active_connections: 2,
                scenarios: 10,
                plan_cache_hits: 12,
                plan_cache_misses: 6,
                plan_cache_plans: 6,
            }),
            Response::ShuttingDown,
            Response::Error {
                message: "unknown scenario: warp".into(),
            },
        ];
        for resp in responses {
            let line = resp.to_json();
            assert!(!line.contains('\n'), "one line per message: {line}");
            assert_eq!(Response::from_json(&line).unwrap(), resp, "line: {line}");
        }
    }

    #[test]
    fn record_lines_embed_the_exact_export_byte_form() {
        let record = demo_record();
        let line = Response::Record {
            record: record.clone(),
        }
        .to_json();
        assert!(line.contains(&record_json(&record)));
        // The client parser rejects counts no run can produce.
        let impossible = line.replacen("\"successes\":60", "\"successes\":65", 1);
        assert!(Response::from_json(&impossible)
            .unwrap_err()
            .contains("successes"));
    }
}
