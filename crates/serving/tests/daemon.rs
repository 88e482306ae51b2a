//! End-to-end tests of the query daemon over real TCP connections:
//! protocol round trips, epoch pinning under republish, tenant
//! auth/quota, typed load-shed, connection churn, and graceful shutdown.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Value;
use sommelier_graph::TaskKind;
use sommelier_query::{MutationBatch, Sommelier, SommelierConfig};
use sommelier_repo::InMemoryRepository;
use sommelier_serving::daemon::client::Client;
use sommelier_serving::{Daemon, DaemonConfig};
use sommelier_tensor::Prng;
use sommelier_zoo::families::Family;
use sommelier_zoo::series::build_series;

fn config() -> SommelierConfig {
    let mut cfg = SommelierConfig {
        validation_rows: 64,
        ..SommelierConfig::default()
    };
    cfg.index.sample_size = 8;
    cfg
}

/// A small indexed engine plus the names of a valid reference model
/// and a "victim" sibling the republish storm can churn.
fn fixture() -> (Sommelier, String, String) {
    let repo = Arc::new(InMemoryRepository::new());
    let mut engine = Sommelier::connect(repo, config());
    let mut rng = Prng::seed_from_u64(33);
    let series = build_series(
        "daemonnet",
        Family::Resnetish,
        TaskKind::ImageRecognition,
        "imagenet",
        4,
        51,
        0.08,
        &mut rng,
    );
    for m in &series.models {
        engine.register(m).expect("fresh model");
    }
    let reference = series.models[0].name.clone();
    let victim = series.models[1].name.clone();
    (engine, reference, victim)
}

fn start(config: DaemonConfig) -> (sommelier_serving::DaemonHandle, String, String, String) {
    let (engine, reference, victim) = fixture();
    let handle = Daemon::serve(engine, config).expect("daemon starts");
    let addr = handle.addr().to_string();
    (handle, addr, reference, victim)
}

/// One `serve.*` counter out of a fresh `metrics` scrape.
fn scraped_counter(client: &mut Client, name: &str) -> u64 {
    let metrics = client.metrics().unwrap();
    match metrics.body.get_field("counters").and_then(|c| c.get_field(name)) {
        Some(Value::UInt(n)) => *n,
        other => panic!("{name} missing from the scrape: {other:?}"),
    }
}

fn query_text(reference: &str) -> String {
    format!("SELECT models 3 CORR {reference} WITHIN 0.9 ORDER BY similarity")
}

#[test]
fn protocol_round_trip_and_graceful_shutdown() {
    let (handle, addr, reference, _victim) = start(DaemonConfig::default());
    let mut client = Client::connect(&addr).expect("connect");

    let pong = client.ping().unwrap();
    assert!(pong.ok);
    assert_eq!(pong.body.get_field("pong"), Some(&Value::Bool(true)));

    let reply = client.query(&query_text(&reference)).unwrap();
    assert!(reply.ok, "query failed: {:?}", reply.body);
    let Some(Value::Seq(results)) = reply.body.get_field("results") else {
        panic!("missing results: {:?}", reply.body);
    };
    assert!(!results.is_empty(), "reference must find equivalents");
    assert!(matches!(
        reply.body.get_field("epoch"),
        Some(Value::UInt(_))
    ));

    let fsck = client.fsck().unwrap();
    assert!(fsck.ok);
    assert_eq!(fsck.body.get_field("consistent"), Some(&Value::Bool(true)));

    let metrics = client.metrics().unwrap();
    assert!(metrics.ok);
    let counters = metrics.body.get_field("counters").expect("counters map");
    for key in ["serve.accepted", "serve.shed", "serve.active_connections"] {
        assert!(
            counters.get_field(key).is_some(),
            "metrics missing counter {key}: {counters:?}"
        );
    }

    let before = match fsck.body.get_field("epoch") {
        Some(Value::UInt(e)) => *e,
        other => panic!("bad epoch {other:?}"),
    };
    // Nothing is missing from the index, so reload is a no-op that
    // reports 0 reindexed models and leaves the epoch alone.
    let reload = client.reload().unwrap();
    assert!(reload.ok, "reload failed: {:?}", reload.body);
    assert_eq!(reload.body.get_field("reindexed"), Some(&Value::UInt(0)));
    match reload.body.get_field("epoch") {
        Some(Value::UInt(e)) => assert_eq!(*e, before),
        other => panic!("bad epoch {other:?}"),
    }

    let bye = client.shutdown().unwrap();
    assert!(bye.ok);
    handle.wait();
    assert!(
        Client::connect(&addr).is_err(),
        "listener must be closed after shutdown"
    );
}

#[test]
fn bad_frames_get_typed_bad_request_not_disconnect() {
    let (handle, addr, reference, _victim) = start(DaemonConfig::default());
    let mut client = Client::connect(&addr).unwrap();
    // An unknown op is an error *response*, not a dropped connection.
    let reply = client.call("no_such_op", Vec::new()).unwrap();
    assert!(!reply.ok);
    assert_eq!(reply.error_code(), Some("bad_request"));
    // The connection still works afterwards.
    let reply = client.query(&query_text(&reference)).unwrap();
    assert!(reply.ok);
    handle.shutdown();
    handle.wait();
}

#[test]
fn batch_pins_one_epoch_under_republish_storm() {
    let (handle, addr, reference, victim) = start(DaemonConfig {
        workers: 4,
        queue_depth: 16,
        ..DaemonConfig::default()
    });
    let stop = Arc::new(AtomicBool::new(false));
    let handle = Arc::new(handle);
    let mutator = {
        let handle = Arc::clone(&handle);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            // Republish as fast as possible: replacing the victim with
            // itself analyses nothing (its edges are kept) and swaps
            // the snapshot once under live readers.
            let model = handle.with_engine(|engine| engine.materialize(&victim).expect("stored"));
            let mut republishes = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let batch = MutationBatch::new()
                    .unregister(&victim)
                    .register(model.clone());
                let applied = handle.with_engine(|engine| engine.apply(batch));
                assert_eq!(applied.expect("replace applies"), 2);
                republishes += 1;
            }
            republishes
        })
    };

    let mut client = Client::connect(&addr).unwrap();
    let texts: Vec<String> = (0..8).map(|_| query_text(&reference)).collect();
    let mut epochs_seen = std::collections::BTreeSet::new();
    let mut mixed = 0u64;
    // At least 30 batches, then keep going (bounded) until the batches
    // have straddled at least one republish — on a loaded machine a
    // fixed count can finish before the mutator thread is scheduled.
    let mut rounds = 0u32;
    while rounds < 30 || (epochs_seen.len() < 2 && rounds < 600) {
        rounds += 1;
        let reply = client.query_batch(&texts).expect("no protocol error");
        assert!(reply.ok, "batch failed: {:?}", reply.body);
        let Some(Value::Seq(items)) = reply.body.get_field("items") else {
            panic!("missing items");
        };
        let mut item_epochs = std::collections::BTreeSet::new();
        for item in items {
            match item.get_field("epoch") {
                Some(Value::UInt(e)) => {
                    item_epochs.insert(*e);
                }
                other => panic!("item missing epoch: {other:?}"),
            }
            assert!(
                item.get_field("results").is_some(),
                "item dropped its results: {item:?}"
            );
        }
        if item_epochs.len() > 1 {
            mixed += 1;
        }
        epochs_seen.extend(item_epochs);
    }
    stop.store(true, Ordering::SeqCst);
    let republishes = mutator.join().unwrap();
    assert_eq!(mixed, 0, "a batch must pin exactly one snapshot epoch");
    assert!(republishes > 0, "the storm must actually republish");
    assert!(
        epochs_seen.len() > 1,
        "the batches must observe the churn ({republishes} republishes, \
         epochs seen: {epochs_seen:?})"
    );
    handle.shutdown();
    match Arc::try_unwrap(handle) {
        Ok(h) => h.wait(),
        Err(_) => panic!("all clones dropped"),
    }
}

#[test]
fn tenants_gate_auth_and_quota() {
    let dir = std::env::temp_dir().join(format!("sommelier-daemon-tenants-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tenants = dir.join("tenants.json");
    // Tiny refill rate: the bucket cannot recover during the test.
    std::fs::write(
        &tenants,
        r#"[{"name": "team-a", "key": "ka", "rate_per_sec": 0.001, "burst": 3.0}]"#,
    )
    .unwrap();
    let (handle, addr, reference, _victim) = start(DaemonConfig {
        tenants: Some(tenants),
        ..DaemonConfig::default()
    });

    // No key: unauthorized, even for ping.
    let mut anon = Client::connect(&addr).unwrap();
    let reply = anon.ping().unwrap();
    assert_eq!(reply.error_code(), Some("unauthorized"));

    // Wrong key: unauthorized.
    let mut wrong = Client::connect(&addr).unwrap().with_auth("nope");
    let reply = wrong.query(&query_text(&reference)).unwrap();
    assert_eq!(reply.error_code(), Some("unauthorized"));

    // Right key: 3 tokens of burst, then typed exhaustion with a hint.
    let mut tenant = Client::connect(&addr).unwrap().with_auth("ka");
    for _ in 0..3 {
        let reply = tenant.query(&query_text(&reference)).unwrap();
        assert!(reply.ok, "within burst: {:?}", reply.body);
    }
    let reply = tenant.query(&query_text(&reference)).unwrap();
    assert_eq!(reply.error_code(), Some("quota_exhausted"));
    assert!(
        reply.retry_after_ms().unwrap_or(0) > 0,
        "exhaustion must carry a retry hint: {:?}",
        reply.body
    );
    // Control ops stay free for an authenticated tenant.
    let reply = tenant.metrics().unwrap();
    assert!(reply.ok);

    handle.shutdown();
    handle.wait();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn over_admission_sheds_with_typed_retry_after() {
    // One permit, zero queue: anything that arrives while a batch is
    // executing is shed immediately with `overloaded`.
    let (handle, addr, reference, _victim) = start(DaemonConfig {
        workers: 1,
        queue_depth: 0,
        ..DaemonConfig::default()
    });
    // The blocker keeps the permit busy, batch after batch, until the
    // probe has been shed once: what a batch costs to execute decides
    // how many are sent, not whether the probe finds the window.
    let big_batch: Vec<String> = (0..600).map(|_| query_text(&reference)).collect();
    let shed_seen = Arc::new(AtomicBool::new(false));
    let deadline = Instant::now() + Duration::from_secs(10);
    let blocker = {
        let (addr, shed_seen) = (addr.clone(), Arc::clone(&shed_seen));
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            let mut completed = false;
            while !shed_seen.load(Ordering::SeqCst) && Instant::now() < deadline {
                let reply = c.query_batch(&big_batch).unwrap();
                if reply.ok {
                    completed = true;
                } else {
                    // The probe held the permit when this batch arrived.
                    assert_eq!(reply.error_code(), Some("overloaded"), "{:?}", reply.body);
                }
            }
            completed
        })
    };
    let mut shed = None;
    let mut probe = Client::connect(&addr).unwrap();
    while shed.is_none() && Instant::now() < deadline {
        let reply = probe.query(&query_text(&reference)).unwrap();
        if reply.error_code() == Some("overloaded") {
            shed = Some(reply);
        } else {
            assert!(reply.ok, "probe must succeed or shed: {:?}", reply.body);
        }
    }
    shed_seen.store(true, Ordering::SeqCst);
    let completed = blocker.join().unwrap();
    let reply = shed.expect("a probe must be shed while a batch executes");
    assert!(
        reply.retry_after_ms().unwrap_or(0) > 0,
        "shed must carry retry_after_ms: {:?}",
        reply.body
    );
    assert!(completed, "the batch that caused the shed still completes");
    // The shed shows up in the metrics scrape, and so does the bound:
    // workers + queue_depth = 1.
    assert!(scraped_counter(&mut probe, "serve.shed") >= 1);
    assert!(scraped_counter(&mut probe, "serve.max_inflight") <= 1);
    handle.shutdown();
    handle.wait();
}

/// Send raw bytes on a fresh connection and read one reply line.
fn raw_exchange(addr: &str, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // The daemon stops reading an oversized frame part-way and hangs up,
    // so the tail of this write may be refused; the reply is still read.
    let _ = stream.write_all(request);
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    line
}

#[test]
fn query_reply_keeps_its_golden_bytes() {
    let (handle, addr, reference, _victim) = start(DaemonConfig::default());
    let request = format!(
        "{{\"id\":1,\"op\":\"query\",\"text\":\"{}\"}}\n",
        query_text(&reference)
    );
    let reply = raw_exchange(&addr, request.as_bytes());
    // The top-level `latency_ms` is measured per request; the rest was
    // captured from the daemon that cloned each reply tree to write it.
    let (head, rest) = reply.split_once(",\"latency_ms\":").expect("latency field");
    let tail = &rest[rest.find(',').expect("fields follow")..];
    assert_eq!(
        format!("{head},\"latency_ms\":_{tail}"),
        "{\"id\":1,\"ok\":true,\"epoch\":4,\"latency_ms\":_,\"results\":[\
         {\"key\":\"daemonnet-s0+daemonnet-s2\",\"score\":1.0,\"diff_bound\":0.0,\
         \"memory_mb\":0.180856,\"gflops\":8.7972e-5,\"latency_ms\":0.10375944000000002,\
         \"kind\":{\"synthesized\":true,\"donor\":\"daemonnet-s2\"}},\
         {\"key\":\"daemonnet-s0+daemonnet-s1\",\"score\":0.9375,\"diff_bound\":0.0625,\
         \"memory_mb\":0.180856,\"gflops\":8.7972e-5,\"latency_ms\":0.10375944000000002,\
         \"kind\":{\"synthesized\":true,\"donor\":\"daemonnet-s1\"}},\
         {\"key\":\"daemonnet-s0+daemonnet-s3\",\"score\":0.9375,\"diff_bound\":0.0625,\
         \"memory_mb\":0.180856,\"gflops\":8.7972e-5,\"latency_ms\":0.10375944000000002,\
         \"kind\":{\"synthesized\":true,\"donor\":\"daemonnet-s3\"}}]}\n"
    );
    handle.shutdown();
    handle.wait();
}

#[test]
fn a_non_finite_result_is_refused_typed_and_the_connection_serves_on() {
    // An engine whose reference row has a NaN `memory_mb`, and every
    // synthesized result the query returns carries its host's, the
    // reference's, profile. No snapshot file can carry that row (the
    // decoder refuses it), so the engine is put together from the
    // indices in memory.
    let (engine, reference, _victim) = fixture();
    let mut resource = engine.resource_index().clone();
    let mut row = *resource
        .profile_of(&reference)
        .expect("reference is indexed");
    row.memory_mb = f64::NAN;
    resource.insert(reference.clone(), row);
    let snapshot = sommelier_index::IndexSnapshot {
        version: sommelier_index::persist::SNAPSHOT_VERSION,
        stats: None,
        semantic: engine.semantic_index().clone(),
        resource,
    };
    // A named reference is answered from the indices alone.
    let repo = Arc::new(InMemoryRepository::new());
    let engine = Sommelier::assemble_from_snapshot(repo, config(), snapshot);
    let handle = Daemon::serve(engine, DaemonConfig::default()).expect("daemon starts");

    let stream = TcpStream::connect(handle.addr()).unwrap();
    // Bounded, so a daemon that stops answering fails the test instead
    // of hanging it.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut lines = BufReader::new(stream.try_clone().unwrap());
    let mut exchange = |frame: String| -> Value {
        (&stream).write_all(frame.as_bytes()).unwrap();
        let mut line = String::new();
        lines
            .read_line(&mut line)
            .expect("a reply within the timeout");
        serde_json::from_str(&line).expect("a whole reply frame")
    };
    let reply = exchange(format!(
        "{{\"id\":5,\"op\":\"query\",\"text\":\"{}\"}}\n",
        query_text(&reference)
    ));
    assert_eq!(reply.get_field("id"), Some(&Value::UInt(5)), "{reply:?}");
    assert_eq!(
        reply.get_field("ok"),
        Some(&Value::Bool(false)),
        "{reply:?}"
    );
    assert_eq!(
        reply.get_field("error").and_then(|e| e.get_field("code")),
        Some(&Value::Str("internal".into()))
    );
    let pong = exchange("{\"id\":6,\"op\":\"ping\"}\n".to_string());
    assert_eq!(pong.get_field("pong"), Some(&Value::Bool(true)), "{pong:?}");
    handle.shutdown();
    handle.wait();
}

#[test]
fn oversized_frame_is_refused_and_the_daemon_keeps_serving() {
    let (handle, addr, _reference, _victim) = start(DaemonConfig::default());
    // 2 MiB and no newline: a peer that would grow an unbounded line
    // buffer for as long as it keeps sending.
    let reply = raw_exchange(&addr, &vec![b'x'; 2 << 20]);
    let reply: Value = serde_json::from_str(&reply).expect("a whole reply frame");
    assert_eq!(reply.get_field("ok"), Some(&Value::Bool(false)));
    assert_eq!(
        reply.get_field("error").and_then(|e| e.get_field("code")),
        Some(&Value::Str("frame_too_large".into()))
    );
    let mut client = Client::connect(&addr).unwrap();
    assert!(client.ping().unwrap().ok, "the next connection is served");
    assert!(scraped_counter(&mut client, "serve.frame_too_large") >= 1);
    handle.shutdown();
    handle.wait();
}

#[test]
fn finished_connection_threads_are_reaped_not_accumulated() {
    let (handle, addr, _reference, _victim) = start(DaemonConfig::default());
    for _ in 0..200 {
        let mut client = Client::connect(&addr).unwrap();
        assert!(client.ping().unwrap().ok);
    }
    // A handler may still be closing its connection when the next
    // scrape arrives, so the last few may lag.
    let mut retained = u64::MAX;
    for _ in 0..50 {
        let mut client = Client::connect(&addr).unwrap();
        retained = scraped_counter(&mut client, "serve.active_connections");
        if retained <= 8 {
            break;
        }
    }
    assert!(
        retained <= 8,
        "{retained} connections held after 200 closed connections"
    );
    handle.shutdown();
    handle.wait();
}

/// The socket descriptors of this process that may belong to the
/// daemon on `port`: every socket but those the kernel lists on another
/// local port (the tests' client ends, other tests' daemons). A reset
/// connection is closed in the kernel and listed nowhere, so one the
/// daemon still holds counts.
#[cfg(target_os = "linux")]
fn socket_fds_on(port: u16) -> usize {
    let mut elsewhere = std::collections::HashSet::new();
    for table in ["/proc/net/tcp", "/proc/net/tcp6"] {
        let table = std::fs::read_to_string(table).unwrap_or_default();
        for row in table.lines().skip(1) {
            let cols: Vec<&str> = row.split_whitespace().collect();
            let local_port = cols[1].rsplit(':').next().unwrap();
            if u16::from_str_radix(local_port, 16).unwrap() != port {
                elsewhere.insert(format!("socket:[{}]", cols[9]));
            }
        }
    }
    std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
        .map(|target| target.to_string_lossy().into_owned())
        .filter(|target| target.starts_with("socket:") && !elsewhere.contains(target))
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn a_peer_that_resets_leaves_no_descriptor_behind() {
    let (handle, addr, _reference, _victim) = start(DaemonConfig::default());
    let port = handle.addr().port();
    let baseline = socket_fds_on(port);
    for _ in 0..200 {
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream.write_all(b"{\"id\":1,\"op\":\"ping\"}\n").unwrap();
        // Gone before the reply: the daemon's write draws a reset.
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut held = socket_fds_on(port);
    while held > baseline && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        held = socket_fds_on(port);
    }
    assert!(
        held <= baseline,
        "{held} descriptors on the daemon's port after 200 resets (baseline {baseline})"
    );
    handle.shutdown();
    handle.wait();
}
