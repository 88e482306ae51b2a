//! Wire protocol of the query daemon: line-delimited JSON frames.
//!
//! One request per line, one response line per request, in order. A
//! request is a JSON map:
//!
//! ```json
//! {"id": 7, "op": "query", "auth": "key-123", "text": "SELECT ..."}
//! ```
//!
//! `id` is an opaque client-chosen correlation number echoed back in
//! the response; `auth` is the tenant API key (required only when the
//! daemon was started with `--tenants`). Ops and their payload fields:
//!
//! | op            | fields              |
//! |---------------|---------------------|
//! | `ping`        | —                   |
//! | `query`       | `text`              |
//! | `query_batch` | `texts` (array)     |
//! | `fsck`        | —                   |
//! | `metrics`     | —                   |
//! | `reload`      | —                   |
//! | `shutdown`    | —                   |
//!
//! A response is `{"id": 7, "ok": true, ...}` on success or
//!
//! ```json
//! {"id": 7, "ok": false,
//!  "error": {"code": "overloaded", "message": "...", "retry_after_ms": 12}}
//! ```
//!
//! on failure. `retry_after_ms` appears only on the retryable codes
//! (`overloaded`, `quota_exhausted`); all other codes are terminal for
//! the request. The error taxonomy is [`ErrorCode`].
//!
//! One frame is one line and leaves in one write: [`write_frame`] sends
//! the frame and its `\n` in a single `write_all`, at both ends. Both
//! sockets set `TCP_NODELAY`, so a second write would be a second TCP
//! segment, and a second wake-up of a peer that then reads a line
//! without its newline.
//!
//! A `query` or `query_batch` reply is written straight from the
//! engine's [`BatchQueryItem`]s by [`query_frame`] and [`batch_frame`],
//! with no `Value` tree built first; its bytes are those of
//! `ok_frame(id, item.fields())` (a proptest holds them equal). A result
//! with a non-finite float has no JSON spelling, so the writer returns
//! `Err` and the daemon answers `internal` on the same connection.
//!
//! A repeated answer's text is written once. An item's results are the
//! plan cache's shared [`ResultSet`], and the writer renders a set's
//! `[…]` through [`ResultSet::write_text`], which keeps the text of the
//! set's second render (its first plan-cache hit) and copies those bytes
//! into every later reply. A miss renders and keeps nothing. The reply
//! bytes are the same either way.
//!
//! [`ResultSet`]: sommelier_query::ResultSet
//! [`ResultSet::write_text`]: sommelier_query::ResultSet::write_text
//!
//! A request frame is at most [`MAX_FRAME_BYTES`] bytes before its
//! newline. A longer one is answered with `frame_too_large` (id 0) and
//! the connection is closed, so a peer that never sends `\n` cannot grow
//! the daemon's memory.

use std::fmt::Write as _;
use std::io::{self, Write};

use serde::Value;
use sommelier_index::CandidateKind;
use sommelier_query::{BatchQueryItem, QueryResult};

/// The longest request frame the daemon reads, newline excluded.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Machine-readable failure classes of the wire protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame was not valid JSON, not a map, or missing fields.
    BadRequest,
    /// The frame ran past [`MAX_FRAME_BYTES`] without a newline; the
    /// connection closes after this reply.
    FrameTooLarge,
    /// The query text parsed but the engine rejected it.
    QueryFailed,
    /// Tenant auth required and the key is missing or unknown.
    Unauthorized,
    /// The tenant's token bucket is empty; retry after the hint.
    QuotaExhausted,
    /// The admission queue is full; retry after the hint.
    Overloaded,
    /// The daemon is draining; the connection will close.
    ShuttingDown,
    /// A server-side invariant failed.
    Internal,
}

impl ErrorCode {
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::FrameTooLarge => "frame_too_large",
            ErrorCode::QueryFailed => "query_failed",
            ErrorCode::Unauthorized => "unauthorized",
            ErrorCode::QuotaExhausted => "quota_exhausted",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client correlation id, echoed back verbatim.
    pub id: u64,
    /// Tenant API key, if the client sent one.
    pub auth: Option<String>,
    pub op: Op,
}

/// The operation a request frame asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Ping,
    Query { text: String },
    QueryBatch { texts: Vec<String> },
    Fsck,
    Metrics,
    Reload,
    Shutdown,
}

impl Op {
    /// Quota cost in token-bucket tokens: one per query executed.
    /// Control-plane ops are free (still authenticated).
    pub fn quota_cost(&self) -> f64 {
        match self {
            Op::Query { .. } => 1.0,
            Op::QueryBatch { texts } => texts.len() as f64,
            _ => 0.0,
        }
    }

    /// Whether the op runs queries and therefore passes admission.
    pub fn needs_admission(&self) -> bool {
        matches!(self, Op::Query { .. } | Op::QueryBatch { .. })
    }
}

/// 2^64, the first float past every `u64`.
const TWO_TO_64: f64 = 18_446_744_073_709_551_616.0;

fn field_u64(v: &Value) -> Option<u64> {
    match v {
        Value::UInt(n) => Some(*n),
        Value::Int(n) if *n >= 0 => Some(*n as u64),
        // 2^64 and up would saturate to `u64::MAX`, an id never sent.
        Value::Float(f) if *f >= 0.0 && f.fract() == 0.0 && *f < TWO_TO_64 => Some(*f as u64),
        _ => None,
    }
}

fn field_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s.as_str()),
        _ => None,
    }
}

/// Parse one request line. `Err` carries the `bad_request` message and
/// the request id when one could be salvaged from the frame (so the
/// error response still correlates).
pub fn parse_request(line: &str) -> Result<Request, (Option<u64>, String)> {
    let value: Value = serde_json::from_str(line)
        .map_err(|e| (None, format!("invalid JSON frame: {e}")))?;
    let id = value.get_field("id").and_then(field_u64);
    let fail = |msg: String| (id, msg);
    if !matches!(value, Value::Map(_)) {
        return Err(fail("request frame must be a JSON object".into()));
    }
    let id = id.ok_or_else(|| (None, "missing or non-integer 'id'".to_string()))?;
    let op_name = value
        .get_field("op")
        .and_then(field_str)
        .ok_or_else(|| fail("missing 'op'".into()))?;
    let auth = value
        .get_field("auth")
        .and_then(field_str)
        .map(str::to_string);
    let op = match op_name {
        "ping" => Op::Ping,
        "query" => {
            let text = value
                .get_field("text")
                .and_then(field_str)
                .ok_or_else(|| fail("op 'query' needs a string 'text'".into()))?;
            Op::Query {
                text: text.to_string(),
            }
        }
        "query_batch" => {
            let texts = match value.get_field("texts") {
                Some(Value::Seq(items)) => items
                    .iter()
                    .map(|v| field_str(v).map(str::to_string))
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(|| fail("'texts' must be an array of strings".into()))?,
                _ => return Err(fail("op 'query_batch' needs an array 'texts'".into())),
            };
            if texts.is_empty() {
                return Err(fail("'texts' must not be empty".into()));
            }
            Op::QueryBatch { texts }
        }
        "fsck" => Op::Fsck,
        "metrics" => Op::Metrics,
        "reload" => Op::Reload,
        "shutdown" => Op::Shutdown,
        other => return Err(fail(format!("unknown op '{other}'"))),
    };
    Ok(Request { id, auth, op })
}

/// Render a success frame: `{"id":.., "ok":true, <fields>...}`, the
/// bytes of that one map, written around `fields` rather than built
/// into a second map.
pub fn ok_frame(id: u64, fields: Vec<(String, Value)>) -> String {
    let mut out = String::with_capacity(1024);
    let _ = write!(out, "{{\"id\":{id},\"ok\":true");
    push_members(&mut out, &fields).expect("value trees always serialize");
    out.push('}');
    out
}

/// Append `,"key":value` per field to an object `out` has opened and
/// not yet closed.
pub(crate) fn push_members(
    out: &mut String,
    fields: &[(String, Value)],
) -> Result<(), serde_json::Error> {
    for (key, value) in fields {
        out.push(',');
        serde_json::str_into(out, key);
        out.push(':');
        serde_json::to_string_into(out, value)?;
    }
    Ok(())
}

/// Room reserved per result in a reply frame: five floats of up to 24
/// chars, the member names, a key and a donor.
const RESULT_BYTES: usize = 320;

/// Render the success frame of a `query`: the bytes of
/// `ok_frame(id, item.fields())`, written from the item itself. `Err`
/// when a float in it is not finite.
pub fn query_frame(id: u64, item: &BatchQueryItem) -> Result<String, serde_json::Error> {
    let results = item.results.as_ref().map_or(0, |r| r.len());
    let mut out = String::with_capacity(256 + RESULT_BYTES * results);
    let _ = write!(out, "{{\"id\":{id},\"ok\":true,");
    push_item(&mut out, item)?;
    out.push('}');
    Ok(out)
}

/// Render the success frame of a `query_batch`:
/// `{"id":..,"ok":true,"epoch":..,"items":[{<item>},...]}`. One snapshot
/// is pinned for the whole batch, so every item reports the same epoch;
/// the top-level `epoch` restates it for clients that only look there.
/// `Err` when a float in any item is not finite.
pub(crate) fn batch_frame(id: u64, items: &[BatchQueryItem]) -> Result<String, serde_json::Error> {
    let epoch = items.first().map_or(0, |i| i.epoch);
    let results: usize = items
        .iter()
        .map(|i| i.results.as_ref().map_or(1, |r| r.len()))
        .sum();
    let mut out = String::with_capacity(256 + RESULT_BYTES * results);
    let _ = write!(
        out,
        "{{\"id\":{id},\"ok\":true,\"epoch\":{epoch},\"items\":["
    );
    for (i, item) in items.iter().enumerate() {
        out.push_str(if i == 0 { "{" } else { ",{" });
        push_item(&mut out, item)?;
        out.push('}');
    }
    out.push_str("]}");
    Ok(out)
}

/// Append the members of [`BatchQueryItem::fields`], in its order and
/// spelling, to an object `out` has opened. The results are the set's
/// kept text when it has one.
fn push_item(out: &mut String, item: &BatchQueryItem) -> Result<(), serde_json::Error> {
    let _ = write!(out, "\"epoch\":{},\"latency_ms\":", item.epoch);
    serde_json::f64_into(out, item.latency_ms)?;
    match &item.results {
        Ok(results) => {
            out.push_str(",\"results\":");
            results.write_text(out, push_results)?;
        }
        Err(e) => {
            out.push_str(",\"error\":");
            serde_json::str_into(out, &e.to_string());
        }
    }
    Ok(())
}

/// Append `results` as the array [`BatchQueryItem::fields`] gives them.
fn push_results(out: &mut String, results: &[QueryResult]) -> Result<(), serde_json::Error> {
    out.push('[');
    for (i, result) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_result(out, result)?;
    }
    out.push(']');
    Ok(())
}

/// Append one result as the map [`BatchQueryItem::fields`] gives it.
fn push_result(out: &mut String, r: &QueryResult) -> Result<(), serde_json::Error> {
    out.push_str("{\"key\":");
    serde_json::str_into(out, &r.key);
    for (name, value) in [
        (",\"score\":", r.score),
        (",\"diff_bound\":", r.diff_bound),
        (",\"memory_mb\":", r.profile.memory_mb),
        (",\"gflops\":", r.profile.gflops),
        (",\"latency_ms\":", r.profile.latency_ms),
    ] {
        out.push_str(name);
        serde_json::f64_into(out, value)?;
    }
    match &r.kind {
        CandidateKind::Whole => out.push_str(",\"kind\":\"whole\"}"),
        CandidateKind::Transitive { via } => {
            out.push_str(",\"kind\":{\"transitive\":true,\"via\":");
            serde_json::str_into(out, via);
            out.push_str("}}");
        }
        CandidateKind::Synthesized { donor } => {
            out.push_str(",\"kind\":{\"synthesized\":true,\"donor\":");
            serde_json::str_into(out, donor);
            out.push_str("}}");
        }
    }
    Ok(())
}

/// Send one frame: its bytes and the `\n` that ends it, in one
/// `write_all`.
pub fn write_frame(out: &mut impl Write, mut frame: String) -> io::Result<()> {
    frame.push('\n');
    out.write_all(frame.as_bytes())
}

/// Render an error frame. `id` 0 is used when the frame was too broken
/// to carry one.
pub fn error_frame(
    id: Option<u64>,
    code: ErrorCode,
    message: &str,
    retry_after_ms: Option<u64>,
) -> String {
    let mut error = vec![
        ("code".to_string(), Value::Str(code.as_str().to_string())),
        ("message".to_string(), Value::Str(message.to_string())),
    ];
    if let Some(ms) = retry_after_ms {
        error.push(("retry_after_ms".to_string(), Value::UInt(ms)));
    }
    let map = vec![
        ("id".to_string(), Value::UInt(id.unwrap_or(0))),
        ("ok".to_string(), Value::Bool(false)),
        ("error".to_string(), Value::Map(error)),
    ];
    serde_json::to_string(&Value::Map(map)).expect("value trees always serialize")
}

/// A sink that counts the `write` calls a frame costs: the daemon's and
/// the client's tests send through it.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct CountingWriter {
    pub(crate) bytes: Vec<u8>,
    pub(crate) writes: usize,
}

#[cfg(test)]
impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_query_with_auth() {
        let r = parse_request(r#"{"id": 3, "op": "query", "auth": "k1", "text": "SELECT x"}"#)
            .unwrap();
        assert_eq!(r.id, 3);
        assert_eq!(r.auth.as_deref(), Some("k1"));
        assert_eq!(
            r.op,
            Op::Query {
                text: "SELECT x".into()
            }
        );
        assert_eq!(r.op.quota_cost(), 1.0);
        assert!(r.op.needs_admission());
    }

    #[test]
    fn parses_batch_and_costs_per_query() {
        let r = parse_request(r#"{"id": 1, "op": "query_batch", "texts": ["a", "b", "c"]}"#)
            .unwrap();
        assert_eq!(r.op.quota_cost(), 3.0);
    }

    #[test]
    fn control_ops_are_free() {
        for op in ["ping", "fsck", "metrics", "reload", "shutdown"] {
            let r = parse_request(&format!(r#"{{"id": 1, "op": "{op}"}}"#)).unwrap();
            assert_eq!(r.op.quota_cost(), 0.0);
            assert!(!r.op.needs_admission());
        }
    }

    #[test]
    fn salvages_id_from_malformed_request() {
        let (id, _) = parse_request(r#"{"id": 9, "op": "query"}"#).unwrap_err();
        assert_eq!(id, Some(9));
        let (id, _) = parse_request("not json").unwrap_err();
        assert_eq!(id, None);
    }

    /// A float id is an integer only below 2^64; at and past it the cast
    /// would saturate and the reply would echo `u64::MAX`.
    #[test]
    fn an_id_past_u64_is_refused_not_saturated() {
        for id in ["1e20", "18446744073709551616", "18446744073709551616.0"] {
            let (salvaged, message) =
                parse_request(&format!(r#"{{"id": {id}, "op": "ping"}}"#)).unwrap_err();
            assert_eq!(salvaged, None, "{id}");
            assert_eq!(message, "missing or non-integer 'id'", "{id}");
        }
        for (id, echoed) in [
            ("1e19", 10_000_000_000_000_000_000),
            ("18446744073709549568.0", 18_446_744_073_709_549_568),
            ("18446744073709551615", u64::MAX),
        ] {
            let r = parse_request(&format!(r#"{{"id": {id}, "op": "ping"}}"#)).unwrap();
            assert_eq!(r.id, echoed, "{id}");
        }
    }

    #[test]
    fn error_frame_carries_retry_hint() {
        let f = error_frame(Some(4), ErrorCode::Overloaded, "queue full", Some(12));
        assert!(f.contains(r#""code": "overloaded""#) || f.contains(r#""code":"overloaded""#));
        assert!(f.contains("retry_after_ms"));
        assert!(f.contains(r#""ok": false"#) || f.contains(r#""ok":false"#));
    }

    fn s(x: &str) -> String {
        x.to_string()
    }

    /// Frames captured from the encoder that built a `Value::Map` per
    /// frame and cloned it to write it: the wire bytes must not move.
    #[test]
    fn frames_keep_their_golden_bytes() {
        let awkward = vec![
            (s("tiny"), Value::Float(1e-7)),
            (s("neg_zero"), Value::Float(-0.0)),
            (s("big"), Value::Float(1e16)),
            (s("e15"), Value::Float(1e15)),
            (s("max_f"), Value::Float(f64::MAX)),
            (s("min_pos"), Value::Float(f64::MIN_POSITIVE)),
            (s("denorm"), Value::Float(5e-324)),
            (s("third"), Value::Float(1.0 / 3.0)),
            (s("one"), Value::Float(1.0)),
            (s("u_max"), Value::UInt(u64::MAX)),
            (s("i_min"), Value::Int(i64::MIN)),
            (s("neg"), Value::Int(-42)),
            (
                s("k\"e\\y\n\u{1}"),
                Value::Str(s("a\"b\\c\n\r\t\u{8}\u{c}\u{0}\u{1f}\u{7f}é😀/")),
            ),
            (
                s("nest"),
                Value::Seq(vec![
                    Value::Null,
                    Value::Bool(false),
                    Value::Seq(vec![]),
                    Value::Map(vec![]),
                    Value::Map(vec![(s(""), Value::Str(s("")))]),
                ]),
            ),
        ];
        assert_eq!(
            ok_frame(7, awkward),
            "{\"id\":7,\"ok\":true,\"tiny\":1e-7,\"neg_zero\":-0.0,\"big\":1e16,\
             \"e15\":1000000000000000.0,\"max_f\":1.7976931348623157e308,\
             \"min_pos\":2.2250738585072014e-308,\"denorm\":5e-324,\
             \"third\":0.3333333333333333,\"one\":1.0,\"u_max\":18446744073709551615,\
             \"i_min\":-9223372036854775808,\"neg\":-42,\
             \"k\\\"e\\\\y\\n\\u0001\":\"a\\\"b\\\\c\\n\\r\\t\\b\\f\\u0000\\u001f\u{7f}é😀/\",\
             \"nest\":[null,false,[],{},{\"\":\"\"}]}"
        );
        assert_eq!(ok_frame(0, vec![]), "{\"id\":0,\"ok\":true}");
        assert_eq!(
            error_frame(Some(4), ErrorCode::Overloaded, "queue \"full\"\n", Some(12)),
            "{\"id\":4,\"ok\":false,\"error\":{\"code\":\"overloaded\",\
             \"message\":\"queue \\\"full\\\"\\n\",\"retry_after_ms\":12}}"
        );
        assert_eq!(
            error_frame(
                None,
                ErrorCode::BadRequest,
                "invalid JSON frame: x\\y",
                None
            ),
            "{\"id\":0,\"ok\":false,\"error\":{\"code\":\"bad_request\",\
             \"message\":\"invalid JSON frame: x\\\\y\"}}"
        );
    }

    #[test]
    fn a_frame_is_one_write() {
        let mut out = CountingWriter::default();
        write_frame(&mut out, ok_frame(1, vec![(s("pong"), Value::Bool(true))])).unwrap();
        assert_eq!(out.writes, 1);
        assert_eq!(out.bytes, b"{\"id\":1,\"ok\":true,\"pong\":true}\n");
    }

    #[test]
    fn frames_round_trip_as_json() {
        let f = ok_frame(
            8,
            vec![("epoch".to_string(), Value::UInt(5))],
        );
        let v: Value = serde_json::from_str(&f).unwrap();
        assert_eq!(v.get_field("ok"), Some(&Value::Bool(true)));
        assert_eq!(v.get_field("epoch"), Some(&Value::UInt(5)));
    }

    /// The reply writer against the tree the daemon built before it:
    /// `ok_frame` over `BatchQueryItem::fields`, byte for byte.
    mod writer {
        use super::*;
        use proptest::prelude::*;
        use sommelier_query::{QueryError, ResultSet};
        use sommelier_runtime::ResourceProfile;

        /// The float set the vendored codec's own equivalence proptest
        /// draws from.
        const FLOATS: [f64; 12] = [
            0.0,
            -0.0,
            1e-7,
            1e15,
            1e16,
            1e17,
            0.1,
            1.0,
            -2.5,
            5e-324,
            f64::MAX,
            f64::MIN_POSITIVE,
        ];
        const CHARS: [char; 12] = [
            'a',
            '-',
            '+',
            '"',
            '\\',
            '/',
            '\n',
            '\t',
            '\u{0}',
            '\u{1f}',
            'é',
            '\u{1F600}',
        ];

        fn float(rng: &mut TestRng) -> f64 {
            match rng.below(2) {
                0 => FLOATS[rng.below(FLOATS.len() as u64) as usize],
                _ => {
                    let f = f64::from_bits(rng.next_u64());
                    if f.is_finite() {
                        f
                    } else {
                        rng.unit_f64()
                    }
                }
            }
        }

        fn text(rng: &mut TestRng) -> String {
            (0..rng.below(10))
                .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize])
                .collect()
        }

        fn result(rng: &mut TestRng) -> QueryResult {
            QueryResult {
                key: text(rng),
                score: float(rng),
                diff_bound: float(rng),
                profile: ResourceProfile {
                    memory_mb: float(rng),
                    gflops: float(rng),
                    latency_ms: float(rng),
                },
                kind: match rng.below(3) {
                    0 => CandidateKind::Whole,
                    1 => CandidateKind::Transitive { via: text(rng) },
                    _ => CandidateKind::Synthesized { donor: text(rng) },
                },
            }
        }

        /// Items with 0–8 results, one in four of them an engine error.
        struct Items;

        fn item(rng: &mut TestRng, epoch: u64) -> BatchQueryItem {
            BatchQueryItem {
                results: match rng.below(4) {
                    0 => Err(QueryError::UnknownReference(text(rng))),
                    _ => Ok(ResultSet::new(
                        (0..rng.below(9)).map(|_| result(rng)).collect(),
                    )),
                },
                latency_ms: float(rng),
                epoch,
            }
        }

        /// An id, and the same items twice over in sets of their own: one
        /// copy for `query_frame`, one for `batch_frame`, so each writer
        /// meets every set new.
        impl Strategy for Items {
            type Value = (u64, Vec<BatchQueryItem>, Vec<BatchQueryItem>);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let epoch = rng.next_u64() >> rng.below(64);
                let n = rng.below(4);
                let mut twin = rng.clone();
                let items = (0..=n).map(|_| item(rng, epoch)).collect();
                let batch = (0..=n).map(|_| item(&mut twin, epoch)).collect();
                (rng.next_u64() >> rng.below(64), items, batch)
            }
        }

        /// Serves of one shared set: the miss that built it, its first
        /// hit (which keeps its text) and a hit that copies that text.
        const SERVES: [&str; 3] = ["miss", "first hit", "kept text"];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn writer_matches_ok_frame_over_fields((id, items, batch) in Items) {
                for item in &items {
                    let want = ok_frame(id, item.fields());
                    for serve in SERVES {
                        let got = query_frame(id, item).unwrap();
                        prop_assert!(got == want, "{serve}: `{got}` != `{want}`");
                    }
                    if let Ok(set) = &item.results {
                        prop_assert!(set.text().is_some(), "a set served thrice kept no text");
                    }
                }
                let tree = vec![
                    ("epoch".to_string(), Value::UInt(batch[0].epoch)),
                    (
                        "items".to_string(),
                        Value::Seq(batch.iter().map(|item| Value::Map(item.fields())).collect()),
                    ),
                ];
                let want = ok_frame(id, tree);
                for serve in SERVES {
                    let got = batch_frame(id, &batch).unwrap();
                    prop_assert!(got == want, "{serve}: `{got}` != `{want}`");
                }
            }
        }

        #[test]
        fn a_miss_keeps_no_text_and_a_hit_does() {
            let mut rng = TestRng::deterministic("kept text");
            let set = ResultSet::new(vec![result(&mut rng)]);
            let item = BatchQueryItem {
                results: Ok(set.clone()),
                latency_ms: 1.0,
                epoch: 1,
            };
            let reply = query_frame(1, &item).unwrap();
            assert_eq!(set.text(), None, "a miss kept its text");
            assert_eq!(query_frame(1, &item).unwrap(), reply);
            let text = set.text().expect("the first hit keeps the text");
            assert!(
                reply.ends_with(&format!(",\"results\":{text}}}")),
                "{reply} / {text}"
            );
        }

        #[test]
        fn a_non_finite_float_anywhere_is_an_error_not_a_panic() {
            let mut rng = TestRng::deterministic("non-finite");
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                for slot in 0..6 {
                    let mut r = result(&mut rng);
                    let mut latency_ms = 1.0;
                    match slot {
                        0 => r.score = bad,
                        1 => r.diff_bound = bad,
                        2 => r.profile.memory_mb = bad,
                        3 => r.profile.gflops = bad,
                        4 => r.profile.latency_ms = bad,
                        _ => latency_ms = bad,
                    }
                    let set = ResultSet::new(vec![r]);
                    let item = BatchQueryItem {
                        results: Ok(set.clone()),
                        latency_ms,
                        epoch: 1,
                    };
                    // Every serve of the set is refused, and it never
                    // keeps a text to answer from.
                    for _ in SERVES {
                        assert!(query_frame(1, &item).is_err(), "slot {slot}: {bad}");
                        assert!(batch_frame(1, std::slice::from_ref(&item)).is_err());
                        assert_eq!(set.text(), None, "slot {slot}: {bad}");
                    }
                }
            }
        }
    }
}
