//! The client side of the serving wire protocol: a keep-alive HTTP/1.1
//! connection, the response bodies the server writes, and a flat view
//! of the `/metrics.json` scrape.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Serialize one `POST` with a raw byte body.
pub fn post(path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Serialize one body-less `GET`.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// One keep-alive client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    /// Connect with Nagle off and a read timeout, so a hung server shows
    /// as a failed request instead of a hung benchmark.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    /// Write a serialized request and read the whole response into
    /// `body`; returns the status code.
    pub fn round_trip(&mut self, request: &[u8], body: &mut Vec<u8>) -> io::Result<u16> {
        self.writer.write_all(request)?;
        read_response(&mut self.reader, &mut self.line, body)
    }
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Read one `Content-Length`-framed response: status line, headers,
/// body. `line` is a reusable scratch buffer.
pub fn read_response(
    reader: &mut impl BufRead,
    line: &mut String,
    body: &mut Vec<u8>,
) -> io::Result<u16> {
    line.clear();
    if reader.read_line(line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a response",
        ));
    }
    let status = parse_status_line(line).ok_or_else(|| bad("malformed status line"))?;
    let mut length = None;
    loop {
        line.clear();
        if reader.read_line(line)? == 0 {
            return Err(bad("eof inside response headers"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(
                    value
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| bad("unparseable content-length"))?,
                );
            }
        }
    }
    let length = length.ok_or_else(|| bad("response without content-length"))?;
    body.clear();
    body.resize(length, 0);
    reader.read_exact(body)?;
    Ok(status)
}

/// `HTTP/1.1 200 OK` → 200.
pub fn parse_status_line(line: &str) -> Option<u16> {
    let mut parts = line.split_whitespace();
    if !parts.next()?.starts_with("HTTP/1.") {
        return None;
    }
    parts.next()?.parse().ok()
}

/// A classify answer as the server wrote it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    pub class: usize,
    pub score: f64,
    pub generation: u64,
}

/// The raw text of a top-level scalar field in a flat JSON object.
fn field<'a>(body: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\":");
    let at = body.find(&key)? + key.len();
    let rest = body[at..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// `{"class":…,"score":…,"generation":…}`. The score parses back to
/// the exact `f64` the server formatted (Rust prints the shortest
/// round-tripping form), so answers compare bit for bit.
pub fn parse_answer(body: &[u8]) -> Option<Answer> {
    let body = std::str::from_utf8(body).ok()?;
    Some(Answer {
        class: field(body, "class")?.parse().ok()?,
        score: field(body, "score")?.parse().ok()?,
        generation: field(body, "generation")?.parse().ok()?,
    })
}

/// `{"generation":…}` — a learn answer.
pub fn parse_generation(body: &[u8]) -> Option<u64> {
    field(std::str::from_utf8(body).ok()?, "generation")?
        .parse()
        .ok()
}

/// Every numeric leaf of a JSON document, keyed by its `/`-joined path
/// of object keys (`"histograms/uhd_request_total_ns/p50"`). Arrays,
/// strings and literals are skipped; the metrics export contains only
/// nested objects of numbers.
pub fn numeric_leaves(json: &str) -> Vec<(String, f64)> {
    let bytes = json.as_bytes();
    let mut out = Vec::new();
    let mut path: Vec<String> = Vec::new();
    let mut key: Option<String> = None;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                let end = json[i + 1..].find('"').map_or(bytes.len(), |e| i + 1 + e);
                let text = json[i + 1..end.min(bytes.len())].to_string();
                i = end + 1;
                let mut j = i;
                while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                    j += 1;
                }
                if bytes.get(j) == Some(&b':') {
                    key = Some(text);
                    i = j + 1;
                } else {
                    key = None;
                }
            }
            b'{' => {
                path.push(key.take().unwrap_or_default());
                i += 1;
            }
            b'}' => {
                path.pop();
                key = None;
                i += 1;
            }
            b'-' | b'0'..=b'9' => {
                let end = json[i..]
                    .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                    .map_or(bytes.len(), |e| i + e);
                if let (Some(name), Ok(value)) = (key.take(), json[i..end].parse::<f64>()) {
                    let mut full: Vec<&str> = path
                        .iter()
                        .map(String::as_str)
                        .filter(|p| !p.is_empty())
                        .collect();
                    full.push(&name);
                    out.push((full.join("/"), value));
                }
                i = end;
            }
            _ => i += 1,
        }
    }
    out
}

/// Sum of every leaf whose path is `prefix` exactly or `prefix{…}` (a
/// labelled series of one metric family).
pub fn sum_series(leaves: &[(String, f64)], prefix: &str) -> f64 {
    leaves
        .iter()
        .filter(|(k, _)| {
            k.strip_prefix(prefix)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
        })
        .map(|(_, v)| v)
        .sum()
}

/// The leaf at exactly `path`.
pub fn leaf(leaves: &[(String, f64)], path: &str) -> Option<f64> {
    leaves.iter().find(|(k, _)| k == path).map(|(_, v)| *v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn reads_a_framed_response_and_leaves_the_next_one() {
        let raw = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 5\r\n\
                   Connection: keep-alive\r\n\r\nhelloHTTP/1.1 503 Service Unavailable\r\n\
                   content-length: 2\r\nRetry-After: 1\r\n\r\n{}";
        let mut reader = Cursor::new(raw.as_bytes());
        let (mut line, mut body) = (String::new(), Vec::new());
        assert_eq!(
            read_response(&mut reader, &mut line, &mut body).unwrap(),
            200
        );
        assert_eq!(body, b"hello");
        assert_eq!(
            read_response(&mut reader, &mut line, &mut body).unwrap(),
            503
        );
        assert_eq!(body, b"{}");
        assert!(read_response(&mut reader, &mut line, &mut body).is_err());
    }

    #[test]
    fn rejects_malformed_responses() {
        let (mut line, mut body) = (String::new(), Vec::new());
        for raw in [
            "garbage\r\n\r\n",
            "HTTP/1.1 200 OK\r\n\r\n",
            "HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n",
            "HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort",
        ] {
            let mut reader = Cursor::new(raw.as_bytes());
            assert!(
                read_response(&mut reader, &mut line, &mut body).is_err(),
                "{raw}"
            );
        }
        assert_eq!(parse_status_line("HTTP/1.0 404 Not Found"), Some(404));
        assert_eq!(parse_status_line("SPDY 200"), None);
    }

    #[test]
    fn parses_answers_bit_exactly() {
        let score = 0.123_456_789_012_345_68_f64;
        let body = format!("{{\"class\":7,\"score\":{score},\"generation\":12}}");
        let answer = parse_answer(body.as_bytes()).unwrap();
        assert_eq!(answer.class, 7);
        assert_eq!(answer.score.to_bits(), score.to_bits());
        assert_eq!(answer.generation, 12);
        assert_eq!(
            parse_answer(b"{\"class\":-1,\"score\":0,\"generation\":0}"),
            None
        );
        assert_eq!(parse_answer(b"{\"error\":\"x\"}"), None);
        assert_eq!(parse_generation(b"{\"generation\":3}"), Some(3));
        assert_eq!(parse_generation(b"{\"generation\":}"), None);
    }

    #[test]
    fn flattens_the_metrics_export() {
        let json = "{\n  \"counters\": {\"uhd_requests_shed_total\": 0, \
                    \"uhd_tenant_completed_total{tenant=a}\": 5, \
                    \"uhd_tenant_completed_total{tenant=b}\": 7, \
                    \"uhd_tenant_completed_totalx\": 100},\n  \
                    \"gauges\": {\"uhd_queue_depth_hw\": 64},\n  \
                    \"histograms\": {\"uhd_request_total_ns\": {\"p50\": 1250, \"p99_9\": 9e3, \
                    \"count\": 12, \"sum\": 99, \"max\": 10000}}\n}\n";
        let leaves = numeric_leaves(json);
        assert_eq!(leaf(&leaves, "counters/uhd_requests_shed_total"), Some(0.0));
        assert_eq!(leaf(&leaves, "gauges/uhd_queue_depth_hw"), Some(64.0));
        assert_eq!(
            leaf(&leaves, "histograms/uhd_request_total_ns/p50"),
            Some(1250.0)
        );
        assert_eq!(
            leaf(&leaves, "histograms/uhd_request_total_ns/p99_9"),
            Some(9000.0)
        );
        assert_eq!(
            sum_series(&leaves, "counters/uhd_tenant_completed_total"),
            12.0
        );
        assert_eq!(sum_series(&leaves, "counters/missing"), 0.0);
    }

    #[test]
    fn requests_carry_their_body_length() {
        let req = post("/v1/t/classify", &[1, 2, 3]);
        assert!(req.starts_with(b"POST /v1/t/classify HTTP/1.1\r\n"));
        assert!(req.ends_with(b"Content-Length: 3\r\n\r\n\x01\x02\x03"));
        assert_eq!(
            get("/metrics.json"),
            b"GET /metrics.json HTTP/1.1\r\nHost: bench\r\n\r\n"
        );
    }
}
