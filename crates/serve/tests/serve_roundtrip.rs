//! End-to-end tests of the resident sweep service: byte-identical
//! streamed runs, shard reassembly, warm-cache reuse, and concurrent
//! clients — over both Unix sockets and TCP.

use rlnc_par::Scale;
use rlnc_serve::{
    connect_with_retry, Endpoint, Request, Response, ShardSpec, SweepServer, MAX_REQUEST_LINE,
};
use rlnc_sweep::{emit, Registry, SweepExecutor};
use std::io::{BufRead, BufReader, Write};
use std::time::Duration;

const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

fn start(endpoint: Endpoint) -> (Endpoint, std::thread::JoinHandle<Result<(), String>>) {
    let bound = SweepServer::new().bind(&endpoint).expect("bind endpoint");
    let actual = bound.endpoint().clone();
    let handle = std::thread::spawn(move || bound.serve());
    (actual, handle)
}

fn temp_socket(tag: &str) -> Endpoint {
    Endpoint::Unix(
        std::env::temp_dir().join(format!("rlnc-serve-{tag}-{}.sock", std::process::id())),
    )
}

#[test]
fn streamed_run_over_unix_socket_matches_local_run_byte_for_byte() {
    let (endpoint, handle) = start(temp_socket("roundtrip"));
    let mut client = connect_with_retry(&endpoint, CONNECT_TIMEOUT).expect("connect");

    let mut streamed = 0usize;
    let outcome = client
        .run("smoke", Scale::Smoke, 7, None, |_| streamed += 1)
        .expect("streamed run");

    let spec = Registry::builtin().get("smoke").cloned().expect("smoke scenario");
    let local = SweepExecutor::new(Scale::Smoke).with_seed(7).run(&spec);
    assert_eq!(streamed, local.records.len(), "every record was streamed");
    assert_eq!(outcome.run, local);
    assert_eq!(
        emit::to_json(&outcome.run),
        emit::to_json(&local),
        "the reassembled stream exports byte-identically to a local run"
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("serve exits cleanly");
}

#[test]
fn sharded_requests_merge_to_the_full_run_and_repeat_requests_hit_warm_plans() {
    let (endpoint, handle) = start(Endpoint::Tcp("127.0.0.1:0".into()));
    let mut client = connect_with_retry(&endpoint, CONNECT_TIMEOUT).expect("connect");

    let spec = Registry::builtin().get("smoke").cloned().expect("smoke scenario");
    let local = SweepExecutor::new(Scale::Smoke).with_seed(5).run(&spec);

    let count = 3u64;
    let shards: Vec<_> = (1..=count)
        .map(|i| {
            let shard = ShardSpec::new(i, count).unwrap();
            client
                .run("smoke", Scale::Smoke, 5, Some(shard), |_| {})
                .expect("shard run")
                .run
        })
        .collect();
    let merged = emit::merge_runs(&shards).expect("merge shards");
    assert_eq!(emit::to_json(&merged), emit::to_json(&local));

    // The first requests planned every point; an identical repeat request
    // must be answered from the warm (process-global) plan cache.
    let repeat = client
        .run("smoke", Scale::Smoke, 5, None, |_| {})
        .expect("repeat run");
    assert_eq!(repeat.run, local);
    assert!(
        repeat.plan_cache_hits_delta > 0,
        "repeat request reuses warm plans (hits delta = {})",
        repeat.plan_cache_hits_delta
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("serve exits cleanly");
}

#[test]
fn concurrent_clients_are_served_and_counted() {
    let (endpoint, handle) = start(temp_socket("concurrent"));

    // Warm the cache with a sequential request first so both concurrent
    // repeats are deterministic cache consumers.
    let mut warmup = connect_with_retry(&endpoint, CONNECT_TIMEOUT).expect("connect");
    let local = {
        let spec = Registry::builtin().get("smoke").cloned().expect("smoke scenario");
        SweepExecutor::new(Scale::Smoke).with_seed(11).run(&spec)
    };
    let first = warmup.run("smoke", Scale::Smoke, 11, None, |_| {}).expect("warmup run");
    assert_eq!(first.run, local);

    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let endpoint = endpoint.clone();
                scope.spawn(move || {
                    let mut client =
                        connect_with_retry(&endpoint, CONNECT_TIMEOUT).expect("connect");
                    client.run("smoke", Scale::Smoke, 11, None, |_| {}).expect("run")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    for outcome in &results {
        assert_eq!(outcome.run, local, "concurrent requests stream correct records");
        assert!(
            outcome.plan_cache_hits_delta > 0,
            "warmed requests hit the shared cache"
        );
    }

    let status = warmup.status().expect("status");
    assert!(status.requests >= 3, "requests counted: {status:?}");
    assert!(
        status.records_streamed >= 3 * local.records.len() as u64,
        "streamed records counted: {status:?}"
    );
    assert_eq!(status.scenarios, Registry::builtin().names().len() as u64);
    assert!(status.plan_cache_hits > 0);

    warmup.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("serve exits cleanly");
}

#[test]
fn scenario_listing_and_request_errors_keep_the_connection_usable() {
    let (endpoint, handle) = start(temp_socket("errors"));
    let mut client = connect_with_retry(&endpoint, CONNECT_TIMEOUT).expect("connect");

    let listed = client.list_scenarios().expect("list scenarios");
    let registry = Registry::builtin();
    assert_eq!(
        listed.iter().map(|(name, _, _)| name.as_str()).collect::<Vec<_>>(),
        registry.names(),
        "listing matches the built-in registry"
    );

    // An unknown scenario is a request-level error, not a dropped
    // connection: the same client keeps working afterwards.
    let err = client
        .run("no-such-scenario", Scale::Smoke, 1, None, |_| {})
        .expect_err("unknown scenario errors");
    assert!(err.contains("unknown scenario"), "unexpected error: {err}");
    let still_listed = client.list_scenarios().expect("connection survives the error");
    assert_eq!(still_listed.len(), listed.len());

    let status = client.status().expect("status");
    assert!(status.errors >= 1, "errors counted: {status:?}");

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("serve exits cleanly");
}

#[test]
fn oversized_request_lines_are_refused_and_the_server_keeps_serving() {
    let endpoint = temp_socket("oversized");
    let (endpoint, handle) = start(endpoint);
    let Endpoint::Unix(path) = &endpoint else {
        unreachable!("unix endpoint")
    };

    // One line past the cap, never terminated: the server must answer with
    // a structured error and close instead of buffering without bound.
    let stream = std::os::unix::net::UnixStream::connect(path).expect("connect");
    stream
        .set_read_timeout(Some(CONNECT_TIMEOUT))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    let flood = vec![b'x'; 2 * MAX_REQUEST_LINE];
    // The server may close before the whole flood is written.
    let _ = writer.write_all(&flood).and_then(|_| writer.flush());
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("error response");
    match Response::from_json(line.trim()).expect("structured response") {
        Response::Error { message } => {
            assert!(message.contains("exceeds"), "unexpected error: {message}")
        }
        other => panic!("expected an error response, got {other:?}"),
    }
    // Closed: EOF, or a reset because the unread rest of the flood was
    // discarded with the socket.
    line.clear();
    match reader.read_line(&mut line) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("expected the connection to close, got {other:?} ({line:?})"),
    }

    // A fresh connection is served normally.
    let mut client = connect_with_retry(&endpoint, CONNECT_TIMEOUT).expect("connect");
    let outcome = client
        .run("smoke", Scale::Smoke, 3, None, |_| {})
        .expect("normal run");
    let spec = Registry::builtin()
        .get("smoke")
        .cloned()
        .expect("smoke scenario");
    assert_eq!(
        outcome.run,
        SweepExecutor::new(Scale::Smoke).with_seed(3).run(&spec)
    );
    let status = client.status().expect("status");
    assert!(
        status.errors >= 1,
        "the refused line counts as an error: {status:?}"
    );

    client.shutdown().expect("shutdown");
    handle
        .join()
        .expect("server thread")
        .expect("serve exits cleanly");
}

#[test]
fn deeply_nested_request_lines_are_refused_and_the_connection_keeps_serving() {
    let endpoint = temp_socket("nested");
    let (endpoint, handle) = start(endpoint);
    let Endpoint::Unix(path) = &endpoint else {
        unreachable!("unix endpoint")
    };

    // A complete line under the length cap that opens 60 000 arrays: the
    // parser must refuse it with a structured error instead of recursing
    // off the end of the connection thread's stack.
    let stream = std::os::unix::net::UnixStream::connect(path).expect("connect");
    stream
        .set_read_timeout(Some(CONNECT_TIMEOUT))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut nested = vec![b'['; 60_000];
    assert!(nested.len() < MAX_REQUEST_LINE);
    nested.push(b'\n');
    writer.write_all(&nested).expect("send nested line");
    writer.flush().expect("flush");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("error response");
    match Response::from_json(line.trim()).expect("structured response") {
        Response::Error { message } => {
            assert!(message.contains("nesting"), "unexpected error: {message}")
        }
        other => panic!("expected an error response, got {other:?}"),
    }

    // The same connection still answers a well-formed request.
    writer
        .write_all(format!("{}\n", Request::Status.to_json()).as_bytes())
        .expect("send status");
    writer.flush().expect("flush");
    line.clear();
    reader.read_line(&mut line).expect("status response");
    match Response::from_json(line.trim()).expect("structured response") {
        Response::Status(status) => assert!(
            status.errors >= 1,
            "the refused line counts as an error: {status:?}"
        ),
        other => panic!("expected a status response, got {other:?}"),
    }
    drop((reader, writer));

    let mut client = connect_with_retry(&endpoint, CONNECT_TIMEOUT).expect("connect");
    client.shutdown().expect("shutdown");
    handle
        .join()
        .expect("server thread")
        .expect("serve exits cleanly");
}
