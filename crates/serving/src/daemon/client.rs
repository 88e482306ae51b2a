//! Blocking client for the daemon's wire protocol.
//!
//! One TCP connection, synchronous request/response: each call writes
//! one frame (in one write, like the daemon's replies) and reads one
//! response line. [`Client::query`] writes its text straight into the
//! frame; [`Client::call`] writes the fields it is given. The CLI's
//! `client` subcommand, the daemon tests and `benchmark/` are built on
//! this.

use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use serde::Value;

use super::protocol::{push_members, write_frame};

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Echoed correlation id.
    pub id: u64,
    /// `true` for success frames.
    pub ok: bool,
    /// The whole response tree (success fields or the `error` map).
    pub body: Value,
}

impl Reply {
    /// The error code string of a failure reply, if any.
    pub fn error_code(&self) -> Option<&str> {
        match self.body.get_field("error")?.get_field("code")? {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The retry hint of a shed/quota failure, if present. Accepts any
    /// non-negative numeric: the daemon emits an integer, but a JSON
    /// number that merely *looks* fractional (or was re-encoded by an
    /// intermediary as `10.0`) parses as a float, and dropping the hint
    /// on the floor made clients retry immediately — exactly what the
    /// hint exists to prevent. Fractional values round up.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self.body.get_field("error")?.get_field("retry_after_ms")? {
            Value::UInt(n) => Some(*n),
            Value::Int(n) if *n >= 0 => Some(*n as u64),
            Value::Float(f) if f.is_finite() && *f >= 0.0 => Some(f.ceil() as u64),
            _ => None,
        }
    }
}

/// A blocking protocol client over one connection: a TCP stream, or
/// any byte stream in the tests.
pub struct Client<S = TcpStream> {
    /// Replies are read through the buffer; requests are written to the
    /// stream beneath it.
    stream: BufReader<S>,
    /// The last reply line, kept for its capacity.
    line: String,
    auth: Option<String>,
    next_id: u64,
}

impl Client {
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client::over(stream))
    }
}

impl<S: Read + Write> Client<S> {
    fn over(stream: S) -> Self {
        Client {
            stream: BufReader::new(stream),
            line: String::new(),
            auth: None,
            next_id: 1,
        }
    }

    /// Attach a tenant API key sent with every subsequent request.
    pub fn with_auth(mut self, key: impl Into<String>) -> Self {
        self.auth = Some(key.into());
        self
    }

    /// Send one op with extra payload fields; block for the response.
    pub fn call(&mut self, op: &str, fields: Vec<(String, Value)>) -> io::Result<Reply> {
        self.round_trip(op, |out| push_members(out, &fields))
    }

    /// Write the frame `{"id":..,"op":..,"auth":..?, <members>}`, where
    /// `members` appends `,"key":value` pairs to the open object, in one
    /// write; block for the reply line and decode it.
    fn round_trip(
        &mut self,
        op: &str,
        members: impl FnOnce(&mut String) -> Result<(), serde_json::Error>,
    ) -> io::Result<Reply> {
        let id = self.next_id;
        self.next_id += 1;
        let mut frame = String::with_capacity(256);
        let _ = write!(frame, "{{\"id\":{id},\"op\":");
        serde_json::str_into(&mut frame, op);
        if let Some(key) = &self.auth {
            frame.push_str(",\"auth\":");
            serde_json::str_into(&mut frame, key);
        }
        members(&mut frame)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        frame.push('}');
        write_frame(self.stream.get_mut(), frame)?;
        self.line.clear();
        let n = self.stream.read_line(&mut self.line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        decode_reply(&self.line)
    }

    pub fn ping(&mut self) -> io::Result<Reply> {
        self.call("ping", Vec::new())
    }

    pub fn query(&mut self, text: &str) -> io::Result<Reply> {
        self.round_trip("query", |out| {
            out.push_str(",\"text\":");
            serde_json::str_into(out, text);
            Ok(())
        })
    }

    pub fn query_batch(&mut self, texts: &[String]) -> io::Result<Reply> {
        self.round_trip("query_batch", |out| {
            out.push_str(",\"texts\":[");
            for (i, text) in texts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                serde_json::str_into(out, text);
            }
            out.push(']');
            Ok(())
        })
    }

    pub fn fsck(&mut self) -> io::Result<Reply> {
        self.call("fsck", Vec::new())
    }

    pub fn metrics(&mut self) -> io::Result<Reply> {
        self.call("metrics", Vec::new())
    }

    pub fn reload(&mut self) -> io::Result<Reply> {
        self.call("reload", Vec::new())
    }

    pub fn shutdown(&mut self) -> io::Result<Reply> {
        self.call("shutdown", Vec::new())
    }
}

/// Decode one response line.
fn decode_reply(line: &str) -> io::Result<Reply> {
    let body: Value = serde_json::from_str(line.trim_end())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let ok = matches!(body.get_field("ok"), Some(Value::Bool(true)));
    let id = match body.get_field("id") {
        Some(Value::UInt(n)) => *n,
        Some(Value::Int(n)) if *n >= 0 => *n as u64,
        _ => 0,
    };
    Ok(Reply { id, ok, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::protocol::{error_frame, CountingWriter, ErrorCode};

    fn decode(line: &str) -> Reply {
        decode_reply(line).expect("frame parses")
    }

    /// A peer with canned reply lines that records what it is sent.
    struct CannedPeer {
        replies: io::Cursor<Vec<u8>>,
        sent: CountingWriter,
    }

    impl Read for CannedPeer {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.replies.read(buf)
        }
    }

    impl Write for CannedPeer {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.sent.write(buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_request_is_one_write_with_its_golden_bytes() {
        let replies = (1..=3)
            .map(|id| format!("{{\"id\":{id},\"ok\":true}}\n"))
            .collect::<String>();
        let mut client = Client::over(CannedPeer {
            replies: io::Cursor::new(replies.into_bytes()),
            sent: CountingWriter::default(),
        })
        .with_auth("k\"1");
        let reply = client.query("SELECT models 3 CORR x WITHIN 0.9").unwrap();
        assert_eq!((reply.id, reply.ok), (1, true));
        assert_eq!(client.stream.get_ref().sent.writes, 1);
        client
            .query_batch(&["a".to_string(), "b\n".to_string()])
            .unwrap();
        assert_eq!(client.stream.get_ref().sent.writes, 2);
        assert_eq!(client.ping().unwrap().id, 3);
        let sent = &client.stream.get_ref().sent;
        assert_eq!(sent.writes, 3, "one write per request frame");
        // Captured from the client that built a `Value::Map` per request
        // and wrote the frame and its newline separately.
        assert_eq!(
            String::from_utf8(sent.bytes.clone()).unwrap(),
            "{\"id\":1,\"op\":\"query\",\"auth\":\"k\\\"1\",\"text\":\"SELECT models 3 CORR x WITHIN 0.9\"}\n\
             {\"id\":2,\"op\":\"query_batch\",\"auth\":\"k\\\"1\",\"texts\":[\"a\",\"b\\n\"]}\n\
             {\"id\":3,\"op\":\"ping\",\"auth\":\"k\\\"1\"}\n"
        );
        // The peer hangs up: a typed EOF, not a hang or a panic.
        let err = client.ping().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn error_frame_round_trips_through_client_decode() {
        // The daemon-rendered error frame parses back to the same id,
        // code, and retry hint the server put in.
        let frame = error_frame(Some(7), ErrorCode::Overloaded, "queue full", Some(12));
        let reply = decode(&frame);
        assert!(!reply.ok);
        assert_eq!(reply.id, 7);
        assert_eq!(reply.error_code(), Some("overloaded"));
        assert_eq!(reply.retry_after_ms(), Some(12));
        // A frame without the hint yields None, not 0.
        let bare = decode(&error_frame(Some(8), ErrorCode::BadRequest, "nope", None));
        assert_eq!(bare.error_code(), Some("bad_request"));
        assert_eq!(bare.retry_after_ms(), None);
    }

    #[test]
    fn retry_hint_accepts_any_non_negative_numeric() {
        // JSON has one number type; an intermediary that re-encodes the
        // frame may legally turn 10 into 10.0. All spellings must parse.
        for (raw, want) in [
            ("10", Some(10)),
            ("0", Some(0)),
            ("10.0", Some(10)),
            ("9.25", Some(10)), // fractional hints round up
            ("-3", None),
            ("-0.5", None),
            (r#""10""#, None), // strings are not numbers
        ] {
            let frame = format!(
                r#"{{"id": 1, "ok": false, "error": {{"code": "overloaded", "message": "m", "retry_after_ms": {raw}}}}}"#
            );
            let reply = decode(&frame);
            assert_eq!(reply.retry_after_ms(), want, "raw hint {raw}");
        }
    }
}
