//! Microbenchmarks of the daemon's wire: what one `query` round trip
//! costs below the engine.
//!
//! - `echo/*`: a loopback request/reply loop on the daemon's socket
//!   set-up (`TCP_NODELAY` at both ends, a `BufReader` line read, a
//!   thread per connection) carrying no JSON. `one_write` sends each
//!   frame and its newline in one write at both ends, the way the daemon
//!   and its client do; `two_writes` sends the newline separately. Run
//!   under `taskset -c 0`, `one_write` is the floor a round trip can
//!   reach when the client and the daemon share one CPU.
//! - `codec/*`: the JSON a `query` round trip carries.
//!   `query_frame_4_results` is how the daemon writes a 4-result reply
//!   to a repeated query, straight from the item, whose shared result
//!   set has kept its text; `query_frame_4_results_first` is the reply
//!   to a miss, a new set's first render (timed with the copy of the 4
//!   results that makes the set). `ok_frame_4_results` builds the
//!   `BatchQueryItem::fields` tree first and renders that (the same
//!   bytes: the path control ops and the CLI still take).
//!   `f64_debug_x16` formats the 16 floats of a 3-result reply, the
//!   share of the writer that float text alone costs. `parse_request`
//!   and `reply_decode` are the request and reply as their readers
//!   parse them.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

use criterion::{criterion_group, criterion_main, Criterion};
use serde::Value;
use sommelier_index::CandidateKind;
use sommelier_query::{BatchQueryItem, QueryResult, ResultSet};
use sommelier_runtime::ResourceProfile;
use sommelier_serving::daemon::protocol::{ok_frame, parse_request, query_frame, write_frame};

/// A `query` request the size of the benchmark's (≈ 130 B).
const REQUEST: &str = "{\"id\":1,\"op\":\"query\",\"text\":\"SELECT models 4 CORR \
                       resnetish-v1-r50x1 ON memory <= 500% WITHIN 0.3 ORDER BY similarity\"}";

/// The reply to a `query` with four results, as the daemon builds it.
fn reply_item() -> BatchQueryItem {
    let result = |i: u32| QueryResult {
        key: format!("resnetish-v1-r50x{i}+efficientnetish-v1-b{i}"),
        score: 1.0 - f64::from(i) / 16.0,
        diff_bound: f64::from(i) / 16.0,
        profile: ResourceProfile {
            memory_mb: 97.803_264 * f64::from(i),
            gflops: 4.089_184 + f64::from(i),
            latency_ms: 3.101_934_080_000_000_2 * f64::from(i),
        },
        kind: CandidateKind::Synthesized {
            donor: format!("efficientnetish-v1-b{i}"),
        },
    };
    BatchQueryItem {
        results: Ok(ResultSet::new((1..=4).map(result).collect())),
        latency_ms: 0.017_407_000_000_000_002,
        epoch: 7,
    }
}

/// How a frame and its newline leave a socket.
#[derive(Clone, Copy)]
enum Framing {
    OneWrite,
    TwoWrites,
}

fn send(stream: &mut TcpStream, frame: &str, how: Framing) -> std::io::Result<()> {
    match how {
        Framing::OneWrite => write_frame(stream, frame.to_string()),
        Framing::TwoWrites => {
            stream.write_all(frame.as_bytes())?;
            stream.write_all(b"\n")
        }
    }
}

/// A connected echo pair: the server thread answers each request line
/// with `reply`.
fn echo_pair(reply: String, how: Framing) -> (TcpStream, BufReader<TcpStream>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        stream.set_nodelay(true).ok();
        let mut lines = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        let mut line = String::new();
        loop {
            line.clear();
            match lines.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            if send(&mut writer, &reply, how).is_err() {
                break;
            }
        }
    });
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn bench_echo(c: &mut Criterion) {
    let reply = query_frame(1, &reply_item()).expect("finite floats");
    let mut group = c.benchmark_group("echo");
    group.sample_size(20_000);
    for (name, how) in [
        ("one_write", Framing::OneWrite),
        ("two_writes", Framing::TwoWrites),
    ] {
        let (mut stream, mut reader) = echo_pair(reply.clone(), how);
        let mut line = String::new();
        group.bench_function(name, |b| {
            b.iter(|| {
                send(&mut stream, REQUEST, how).expect("request sent");
                line.clear();
                reader.read_line(&mut line).expect("reply read");
                line.len()
            })
        });
    }
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let item = reply_item();
    let reply = query_frame(1, &item).expect("finite floats");
    let mut group = c.benchmark_group("codec");
    group.sample_size(20_000);
    group.bench_function("ok_frame_4_results", |b| {
        b.iter(|| ok_frame(1, item.fields()))
    });
    group.bench_function("query_frame_4_results", |b| {
        b.iter(|| query_frame(1, &item).expect("finite floats"))
    });
    let Ok(results) = &item.results else {
        unreachable!("the reply item is an answer")
    };
    group.bench_function("query_frame_4_results_first", |b| {
        b.iter(|| {
            let first = BatchQueryItem {
                results: Ok(ResultSet::new(results.to_vec())),
                latency_ms: item.latency_ms,
                epoch: item.epoch,
            };
            query_frame(1, &first).expect("finite floats")
        })
    });
    let floats: Vec<f64> = std::iter::once(item.latency_ms)
        .chain(results[..3].iter().flat_map(|r| {
            [
                r.score,
                r.diff_bound,
                r.profile.memory_mb,
                r.profile.gflops,
                r.profile.latency_ms,
            ]
        }))
        .collect();
    let mut text = String::with_capacity(512);
    group.bench_function("f64_debug_x16", |b| {
        b.iter(|| {
            text.clear();
            for &f in &floats {
                serde_json::f64_into(&mut text, f).expect("finite floats");
            }
            text.len()
        })
    });
    group.bench_function("parse_request", |b| b.iter(|| parse_request(REQUEST)));
    group.bench_function("reply_decode", |b| {
        b.iter(|| serde_json::from_str::<Value>(&reply).expect("reply parses"))
    });
    group.finish();
}

criterion_group!(benches, bench_echo, bench_codec);
criterion_main!(benches);
