//! A minimal HTTP/1.1 subset, hand-rolled on `std::io`.
//!
//! Exactly what the characterization service needs and nothing more:
//! request line + headers + optional `Content-Length` body, query-string
//! parsing with percent-decoding, and fixed-size caps so a hostile peer
//! can neither balloon memory nor wedge a worker. Connections are
//! keep-alive by default (HTTP/1.1 semantics): a [`RequestReader`] owns
//! the connection's read buffer, so pipelined bytes that arrive behind
//! one request head are retained for the next parse instead of being
//! dropped on the floor. `Connection: close` (or HTTP/1.0 without
//! `Connection: keep-alive`) is honored per request. No chunked
//! encoding, no TLS — the daemon fronts a trusted lab network, and the
//! dep-free LZ codec precedent applies: small, auditable, offline.

use std::io::{self, Read, Write};

/// Largest accepted request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Largest accepted request body (a `.afps` batch payload).
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// One parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// Path with the query string stripped (percent-decoded).
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    /// Raw body bytes (empty without a `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client allows this connection to be reused for the
    /// next request (HTTP/1.1 default unless `Connection: close`;
    /// HTTP/1.0 default off unless `Connection: keep-alive`).
    pub keep_alive: bool,
}

impl Request {
    /// First value of query parameter `name`, if present.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why [`read_request`] returned no request.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection (or went idle past the read
    /// deadline) cleanly *between* requests: no response is owed, the
    /// connection is simply done.
    Closed,
    /// A malformed or truncated request. The reason is suitable for a
    /// 400 body; the connection cannot be resynchronized and must close.
    Bad(String),
}

/// Buffered reader state for one connection.
///
/// Lives for the whole connection, so bytes read past one request head
/// (pipelined requests, body bytes) stay available for the next parse.
/// This is what makes buffered reads safe under pipelining: the buffer
/// is never discarded while the connection is open.
pub struct RequestReader {
    buf: Vec<u8>,
    pos: usize,
    len: usize,
}

impl Default for RequestReader {
    fn default() -> Self {
        Self::new()
    }
}

impl RequestReader {
    /// A fresh reader with an empty buffer.
    pub fn new() -> Self {
        RequestReader {
            buf: vec![0u8; 4096],
            pos: 0,
            len: 0,
        }
    }

    fn next_byte(&mut self, stream: &mut impl Read) -> io::Result<Option<u8>> {
        if self.pos == self.len {
            self.len = stream.read(&mut self.buf)?;
            self.pos = 0;
            if self.len == 0 {
                return Ok(None);
            }
        }
        let b = self.buf[self.pos];
        self.pos += 1;
        Ok(Some(b))
    }

    fn read_exact(&mut self, stream: &mut impl Read, out: &mut [u8]) -> io::Result<()> {
        let from_buf = out.len().min(self.len - self.pos);
        out[..from_buf].copy_from_slice(&self.buf[self.pos..self.pos + from_buf]);
        self.pos += from_buf;
        stream.read_exact(&mut out[from_buf..])
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Read and parse one request from `stream` via `reader`.
///
/// A clean close (EOF or read timeout before the first head byte)
/// returns [`ReadError::Closed`] — the caller drops the connection
/// without a response. Anything else that prevents a parse returns
/// [`ReadError::Bad`] with a reason suitable for a 400 body; the caller
/// answers best-effort and closes, since the stream cannot be
/// resynchronized after a malformed head.
pub fn read_request(
    stream: &mut impl Read,
    reader: &mut RequestReader,
) -> Result<Request, ReadError> {
    let mut head = Vec::with_capacity(512);
    loop {
        match reader.next_byte(stream) {
            Ok(Some(b)) => head.push(b),
            Ok(None) => {
                return Err(if head.is_empty() {
                    ReadError::Closed
                } else {
                    ReadError::Bad("connection closed mid request head".into())
                });
            }
            Err(e) if head.is_empty() && is_timeout(&e) => return Err(ReadError::Closed),
            Err(e) => return Err(ReadError::Bad(format!("read error in request head: {e}"))),
        }
        if head.ends_with(b"\r\n\r\n") {
            break;
        }
        if head.len() > MAX_HEAD_BYTES {
            return Err(ReadError::Bad(format!(
                "request head exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
    }
    let head = String::from_utf8(head)
        .map_err(|_| ReadError::Bad("request head is not UTF-8".to_string()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, raw_target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if parts.next().is_none() => (m, t, v),
        _ => {
            return Err(ReadError::Bad(format!(
                "malformed request line `{request_line}`"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ReadError::Bad(format!("unsupported protocol `{version}`")));
    }

    let mut content_length = 0usize;
    let mut connection: Option<String> = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    ReadError::Bad(format!("bad Content-Length `{}`", value.trim()))
                })?;
            } else if name.eq_ignore_ascii_case("connection") {
                connection = Some(value.trim().to_ascii_lowercase());
            }
        }
    }
    // `Connection: close` wins over everything; an explicit `keep-alive`
    // token enables reuse on HTTP/1.0; otherwise the protocol default.
    let keep_alive = match connection.as_deref() {
        Some(v) => {
            let mut tokens = v.split(',').map(str::trim);
            if tokens.clone().any(|t| t == "close") {
                false
            } else if tokens.any(|t| t == "keep-alive") {
                true
            } else {
                version == "HTTP/1.1"
            }
        }
        None => version == "HTTP/1.1",
    };

    if content_length > MAX_BODY_BYTES {
        return Err(ReadError::Bad(format!(
            "request body exceeds {MAX_BODY_BYTES} bytes"
        )));
    }
    // `Content-Length: 0` and no Content-Length at all take the same
    // path: an empty body and zero reads past the head, so the next
    // pipelined request starts exactly where this head ended.
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader
            .read_exact(stream, &mut body)
            .map_err(|e| ReadError::Bad(format!("read error in request body: {e}")))?;
    }

    let (raw_path, raw_query) = match raw_target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (raw_target, ""),
    };
    let query = raw_query
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (percent_decode(k), percent_decode(v))
        })
        .collect();
    Ok(Request {
        method: method.to_ascii_uppercase(),
        path: percent_decode(raw_path),
        query,
        body,
        keep_alive,
    })
}

/// Decode `%XX` escapes and `+`-as-space. Invalid escapes pass through
/// literally rather than erroring — good enough for a spec-ref vocabulary
/// of `[a-z0-9:-]`.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(v) => {
                        out.push(v);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Standard reason phrase for the handful of statuses the service emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write one JSON response. `close` controls the `Connection` header:
/// `close` announces the server will drop the connection after this
/// response, `keep-alive` invites the next request on the same socket.
/// Failures are returned so callers can count them, but a worker never
/// dies over a peer that hung up before its response landed.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    close: bool,
    extra_headers: &[(&str, String)],
    body: &[u8],
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n",
        reason(status),
        body.len(),
        if close { "close" } else { "keep-alive" }
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    // One write for head + body: a split write would let Nagle hold the
    // body back until the head is acknowledged, which under keep-alive
    // (no connection teardown to flush it) costs a delayed-ACK round
    // trip per response.
    let mut response = Vec::with_capacity(head.len() + body.len());
    response.extend_from_slice(head.as_bytes());
    response.extend_from_slice(body);
    stream.write_all(&response)?;
    stream.flush()
}

/// `{"error":"..."}` with proper JSON string escaping.
pub fn error_body(message: &str) -> Vec<u8> {
    format!("{{\"error\":{}}}\n", afp_obs::json_str(message)).into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[u8]) -> Result<Request, ReadError> {
        read_request(
            &mut io::Cursor::new(raw.to_vec()),
            &mut RequestReader::new(),
        )
    }

    #[test]
    fn parses_get_with_query() {
        let req = parse(
            b"GET /characterize?spec=mul8%3Atrunc%3A3&target=lut4-ice40 HTTP/1.1\r\n\
              Host: x\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/characterize");
        assert_eq!(req.query_param("spec"), Some("mul8:trunc:3"));
        assert_eq!(req.query_param("target"), Some("lut4-ice40"));
        assert!(req.body.is_empty());
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(b"POST /characterize HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn connection_header_semantics() {
        let close11 = parse(b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!close11.keep_alive);
        let default10 = parse(b"GET /x HTTP/1.0\r\n\r\n").unwrap();
        assert!(!default10.keep_alive, "HTTP/1.0 defaults to close");
        let ka10 = parse(b"GET /x HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
        assert!(ka10.keep_alive, "explicit keep-alive upgrades HTTP/1.0");
        let mixed = parse(b"GET /x HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n").unwrap();
        assert!(!mixed.keep_alive, "close wins over keep-alive");
    }

    #[test]
    fn explicit_zero_length_body_matches_bodyless_get() {
        // Pipelined parses must treat `Content-Length: 0` and no
        // Content-Length identically: empty body, next request starts
        // right after the head.
        let raw = b"GET /a HTTP/1.1\r\nContent-Length: 0\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let mut cursor = io::Cursor::new(raw.to_vec());
        let mut reader = RequestReader::new();
        let first = read_request(&mut cursor, &mut reader).unwrap();
        assert_eq!(first.path, "/a");
        assert!(first.body.is_empty());
        let second = read_request(&mut cursor, &mut reader).unwrap();
        assert_eq!(second.path, "/b");
        assert!(second.body.is_empty());
    }

    #[test]
    fn pipelined_requests_parse_back_to_back() {
        let raw = b"POST /characterize HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc\
                    GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut cursor = io::Cursor::new(raw.to_vec());
        let mut reader = RequestReader::new();
        let first = read_request(&mut cursor, &mut reader).unwrap();
        assert_eq!(first.body, b"abc");
        assert!(first.keep_alive);
        let second = read_request(&mut cursor, &mut reader).unwrap();
        assert_eq!(second.path, "/stats");
        assert!(!second.keep_alive);
        match read_request(&mut cursor, &mut reader) {
            Err(ReadError::Closed) => {}
            other => panic!("EOF between requests must be Closed, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse(b"\r\n\r\n").is_err());
        assert!(parse(b"GET /x HTTP/9.9\r\n\r\n").is_err());
        assert!(parse(b"GET /x HTTP/1.1\r\nContent-Length: zz\r\n\r\n").is_err());
        assert!(parse(b"GET /x HTTP/1.1\r\nContent-Length: 99\r\n\r\nshort").is_err());
        let huge = format!("GET /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        assert!(parse(huge.as_bytes()).is_err());
        // All of the above are Bad (answer 400), not Closed.
        match parse(b"GET /x HTTP/9.9\r\n\r\n") {
            Err(ReadError::Bad(reason)) => assert!(reason.contains("HTTP/9.9")),
            other => panic!("expected Bad, got {other:?}"),
        }
        // A clean EOF before any byte is Closed, not Bad.
        match parse(b"") {
            Err(ReadError::Closed) => {}
            other => panic!("expected Closed, got {other:?}"),
        }
        // ... but EOF mid-head is Bad.
        match parse(b"GET /x HT") {
            Err(ReadError::Bad(_)) => {}
            other => panic!("expected Bad, got {other:?}"),
        }
    }

    #[test]
    fn oversized_head_is_rejected_not_buffered() {
        let mut raw = b"GET /x HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 10));
        match parse(&raw) {
            Err(ReadError::Bad(reason)) => assert!(reason.contains("head exceeds")),
            other => panic!("expected Bad, got {other:?}"),
        }
    }

    #[test]
    fn response_shape_and_error_escaping() {
        let mut out = Vec::new();
        write_response(&mut out, 429, true, &[("Retry-After", "1".into())], b"{}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut out = Vec::new();
        write_response(&mut out, 200, false, &[], b"{}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"));

        let body = String::from_utf8(error_body("a \"quoted\"\npath\\x")).unwrap();
        assert_eq!(body, "{\"error\":\"a \\\"quoted\\\"\\npath\\\\x\"}\n");
    }
}
