//! Blocking client for the daemon's wire protocol.
//!
//! One TCP connection, synchronous request/response: [`Client::call`]
//! writes one frame and reads one response line. The CLI's `client`
//! subcommand, the daemon tests and `benchmark/` are built on this.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use serde::Value;

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

/// A blocking protocol client over one TCP connection.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    auth: Option<String>,
    next_id: u64,
}

impl Client {
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
            auth: None,
            next_id: 1,
        })
    }

    /// Attach a tenant API key sent with every subsequent request.
    pub fn with_auth(mut self, key: impl Into<String>) -> Self {
        self.auth = Some(key.into());
        self
    }

    /// Send one op with extra payload fields; block for the response.
    pub fn call(&mut self, op: &str, fields: Vec<(String, Value)>) -> io::Result<Reply> {
        let id = self.next_id;
        self.next_id += 1;
        let mut map = vec![
            ("id".to_string(), Value::UInt(id)),
            ("op".to_string(), Value::Str(op.to_string())),
        ];
        if let Some(key) = &self.auth {
            map.push(("auth".to_string(), Value::Str(key.clone())));
        }
        map.extend(fields);
        let frame = serde_json::to_string(&Value::Map(map))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.writer.write_all(frame.as_bytes())?;
        self.writer.write_all(b"\n")?;
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        let body: Value = serde_json::from_str(line.trim_end())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let ok = matches!(body.get_field("ok"), Some(Value::Bool(true)));
        let reply_id = match body.get_field("id") {
            Some(Value::UInt(n)) => *n,
            Some(Value::Int(n)) if *n >= 0 => *n as u64,
            _ => 0,
        };
        Ok(Reply {
            id: reply_id,
            ok,
            body,
        })
    }

    pub fn ping(&mut self) -> io::Result<Reply> {
        self.call("ping", Vec::new())
    }

    pub fn query(&mut self, text: &str) -> io::Result<Reply> {
        self.call(
            "query",
            vec![("text".to_string(), Value::Str(text.to_string()))],
        )
    }

    pub fn query_batch(&mut self, texts: &[String]) -> io::Result<Reply> {
        self.call(
            "query_batch",
            vec![(
                "texts".to_string(),
                Value::Seq(texts.iter().map(|t| Value::Str(t.clone())).collect()),
            )],
        )
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::protocol::{error_frame, ErrorCode};

    /// Decode one response line exactly the way [`Client::call`] does.
    fn decode(line: &str) -> Reply {
        let body: Value = serde_json::from_str(line.trim_end()).expect("frame parses");
        let ok = matches!(body.get_field("ok"), Some(Value::Bool(true)));
        let id = match body.get_field("id") {
            Some(Value::UInt(n)) => *n,
            Some(Value::Int(n)) if *n >= 0 => *n as u64,
            _ => 0,
        };
        Reply { id, ok, body }
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
