//! In-run telemetry exposition: a tiny, dependency-free, blocking
//! HTTP/1.1 server over `std::net::TcpListener`.
//!
//! A [`TelemetryServer`] owns one background thread that serves three
//! read-only endpoints from a [`LivePublisher`]:
//!
//! | endpoint    | payload |
//! |-------------|---------|
//! | `/metrics`  | Prometheus text exposition ([`crate::prom`]) of the live snapshot plus `study.live.*` run gauges |
//! | `/healthz`  | liveness JSON: `ok` / `degraded` / `done` plus degraded-day count and uptime |
//! | `/progress` | run progress JSON: days completed/total, per-worker current day, flows, elapsed, ETA |
//!
//! The server never touches pipeline state — it reads the publisher's
//! coarse snapshots, so a scrape can never slow a worker down.
//! Connections are handled serially on the accept thread, each within
//! one short deadline: the expected clients are `curl`, a Prometheus
//! scraper, or `repro watch`, one request at a time. Shutdown is
//! explicit ([`TelemetryServer::shutdown`]) or on drop, and unblocks
//! the accept loop with a self-connection.

use crate::json;
use crate::live::LivePublisher;
use crate::prom;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deadline for one whole connection, reading the request through
/// writing the response: telemetry clients are local and tiny, and
/// anything slower is stuck and must not wedge the accept loop, however
/// it paces its bytes.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Largest request head we will read; a head that fills it without
/// ending gets 400.
const MAX_REQUEST_BYTES: usize = 8192;

/// A running telemetry endpoint bound to a local address.
#[derive(Debug)]
pub struct TelemetryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TelemetryServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start serving `live` on a background thread. The bound address
    /// — with the real port — is available via
    /// [`TelemetryServer::addr`].
    pub fn bind(addr: impl ToSocketAddrs, live: LivePublisher) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("telemetry-serve".into())
            .spawn(move || accept_loop(listener, live, thread_stop))?;
        Ok(TelemetryServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The address the server actually bound (port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the accept loop and join the serving thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        // Unblock the accept call; an error just means the listener is
        // already gone.
        if let Ok(conn) = TcpStream::connect(self.addr) {
            drop(conn);
        }
        let _ = handle.join();
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: TcpListener, live: LivePublisher, stop: Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(conn) = conn else { continue };
        // A broken client connection is the client's problem.
        let _ = handle_conn(conn, &live);
    }
}

/// Time left before `deadline`, or `TimedOut` once it has passed.
fn remaining(deadline: Instant) -> io::Result<Duration> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        Err(io::ErrorKind::TimedOut.into())
    } else {
        Ok(left)
    }
}

/// Read the request head (start line + headers, through the blank line
/// that ends it) before `deadline`. `None` when the head fills
/// [`MAX_REQUEST_BYTES`] or the client stops sending before it ends;
/// an error when the deadline passes first.
fn read_request_head(conn: &mut TcpStream, deadline: Instant) -> io::Result<Option<String>> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    while buf.len() < MAX_REQUEST_BYTES {
        conn.set_read_timeout(Some(remaining(deadline)?))?;
        let want = chunk.len().min(MAX_REQUEST_BYTES - buf.len());
        let n = match conn.read(&mut chunk[..want]) {
            Ok(0) => return Ok(None),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") {
            return Ok(Some(String::from_utf8_lossy(&buf).into_owned()));
        }
    }
    Ok(None)
}

/// Write all of `bytes` before `deadline`.
fn write_all_by(conn: &mut TcpStream, mut bytes: &[u8], deadline: Instant) -> io::Result<()> {
    while !bytes.is_empty() {
        conn.set_write_timeout(Some(remaining(deadline)?))?;
        match conn.write(bytes) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    conn.flush()
}

fn handle_conn(mut conn: TcpStream, live: &LivePublisher) -> io::Result<()> {
    let deadline = Instant::now() + IO_TIMEOUT;
    let head = read_request_head(&mut conn, deadline)?;
    let (status, content_type, body) = match &head {
        Some(head) => route(head, live),
        None => (
            "400 Bad Request",
            "text/plain",
            "request head too large or incomplete\n".to_string(),
        ),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    write_all_by(&mut conn, response.as_bytes(), deadline)?;
    if head.is_none() {
        // Closing with unread input would reset the connection, which
        // can discard the 400 before the client reads it. Signal the
        // end of the response and discard input until the client
        // closes or the deadline passes.
        conn.shutdown(Shutdown::Write)?;
        let mut sink = [0u8; 512];
        loop {
            conn.set_read_timeout(Some(remaining(deadline)?))?;
            if conn.read(&mut sink)? == 0 {
                break;
            }
        }
    }
    Ok(())
}

/// Answer one well-formed request head: `(status, content type, body)`.
fn route(head: &str, live: &LivePublisher) -> (&'static str, &'static str, String) {
    let mut start = head.lines().next().unwrap_or("").split_ascii_whitespace();
    let (method, path) = (start.next().unwrap_or(""), start.next().unwrap_or(""));
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            "text/plain",
            "telemetry endpoints are GET-only\n".to_string(),
        );
    }
    // Strip any query string; the endpoints take no parameters.
    let path = path.split('?').next().unwrap_or("");
    match path {
        "/metrics" => (
            "200 OK",
            prom::CONTENT_TYPE,
            prom::render(&live.exposition_metrics()),
        ),
        "/healthz" => {
            let p = live.progress();
            let status = if live.is_finished() {
                "done"
            } else if p.degraded_days > 0 {
                "degraded"
            } else {
                "ok"
            };
            let body = json::object(|o| {
                o.field("status", status)
                    .field("degraded_days", p.degraded_days)
                    .field("days_completed", p.days_completed)
                    .field("days_total", p.days_total)
                    .field("uptime_ns", p.elapsed_ns);
            });
            ("200 OK", "application/json", body)
        }
        "/progress" => ("200 OK", "application/json", live.progress().to_json()),
        "/" => (
            "200 OK",
            "text/plain",
            "live telemetry endpoints: /metrics /healthz /progress\n".to_string(),
        ),
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use nettrace::time::Day;

    /// Minimal HTTP GET against a local server; returns (status, body).
    fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut conn = TcpStream::connect(addr).expect("connect");
        write!(
            conn,
            "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut raw = String::new();
        conn.read_to_string(&mut raw).expect("read");
        let status: u16 = raw
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status");
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    fn publisher_with_state() -> LivePublisher {
        let live = LivePublisher::new();
        live.set_days_total(121);
        live.day_started(0, Day(0));
        let reg = MetricsRegistry::new();
        reg.counter("pipeline.flows_collected").add(42);
        reg.histogram("study.day_duration_ns").record(1_000_000);
        live.day_tick(0, 42, Some(&reg));
        live.day_finished(0, None, 42, 1_000_000, &reg.snapshot());
        live
    }

    #[test]
    fn metrics_endpoint_serves_parseable_exposition() {
        let server = TelemetryServer::bind("127.0.0.1:0", publisher_with_state()).expect("bind");
        let (status, body) = http_get(server.addr(), "/metrics");
        assert_eq!(status, 200);
        let doc = crate::prom::parse(&body).expect("exposition parses strictly");
        assert_eq!(doc.value("pipeline_flows_collected"), Some(42.0));
        assert_eq!(doc.value("study_live_days_completed"), Some(1.0));
        assert_eq!(doc.value("study_live_days_total"), Some(121.0));
        assert!(doc.family("study_day_duration_ns").is_some());
        assert!(doc.family("study_day_duration_ns_quantile").is_some());
        server.shutdown();
    }

    #[test]
    fn healthz_and_progress_serve_strict_json() {
        let live = publisher_with_state();
        let server = TelemetryServer::bind("127.0.0.1:0", live.clone()).expect("bind");
        let (status, body) = http_get(server.addr(), "/healthz");
        assert_eq!(status, 200);
        let v = crate::json::parse(&body).expect("healthz JSON");
        assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(v.get("degraded_days").unwrap().as_u64(), Some(0));

        let (status, body) = http_get(server.addr(), "/progress");
        assert_eq!(status, 200);
        let v = crate::json::parse(&body).expect("progress JSON");
        assert_eq!(v.get("days_completed").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("days_total").unwrap().as_u64(), Some(121));

        // A failed day flips health to degraded; finish() flips to done.
        live.day_failed(1);
        let (_, body) = http_get(server.addr(), "/healthz");
        assert!(body.contains("\"status\":\"degraded\""), "{body}");
        live.finish(&Default::default());
        let (_, body) = http_get(server.addr(), "/healthz");
        assert!(body.contains("\"status\":\"done\""), "{body}");
        server.shutdown();
    }

    #[test]
    fn unknown_paths_and_methods_are_rejected() {
        let server = TelemetryServer::bind("127.0.0.1:0", LivePublisher::new()).expect("bind");
        let (status, _) = http_get(server.addr(), "/nope");
        assert_eq!(status, 404);
        let (status, _) = http_get(server.addr(), "/");
        assert_eq!(status, 200);

        let mut conn = TcpStream::connect(server.addr()).expect("connect");
        write!(conn, "POST /metrics HTTP/1.1\r\n\r\n").unwrap();
        let mut raw = String::new();
        conn.read_to_string(&mut raw).expect("read");
        assert!(raw.starts_with("HTTP/1.1 405"), "{raw}");
        server.shutdown();
    }

    #[test]
    fn query_strings_are_ignored_and_shutdown_is_clean() {
        let server = TelemetryServer::bind("127.0.0.1:0", publisher_with_state()).expect("bind");
        let addr = server.addr();
        let (status, _) = http_get(addr, "/progress?verbose=1");
        assert_eq!(status, 200);
        server.shutdown();
        // After shutdown the port no longer answers.
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
    }

    /// Send `request` raw, half-close, and return the status code of
    /// the answer.
    fn raw_status(addr: SocketAddr, request: &[u8]) -> u16 {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.write_all(request).expect("write");
        conn.shutdown(Shutdown::Write).expect("half-close");
        let mut raw = String::new();
        conn.read_to_string(&mut raw).expect("read");
        raw.split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("no status in {raw:?}"))
    }

    #[test]
    fn oversized_and_unterminated_heads_get_400() {
        let server = TelemetryServer::bind("127.0.0.1:0", publisher_with_state()).expect("bind");
        let mut big = b"GET /healthz HTTP/1.1\r\nX-Pad: ".to_vec();
        big.resize(9_000, b'a');
        assert_eq!(raw_status(server.addr(), &big), 400);
        // A head that ends before its blank line.
        assert_eq!(raw_status(server.addr(), b"GET /healthz HTTP/1.1\r\n"), 400);
        assert_eq!(raw_status(server.addr(), b""), 400);
        // The cap admits a head that ends exactly at it.
        let mut full = b"GET /healthz HTTP/1.1\r\nX-Pad: ".to_vec();
        full.resize(MAX_REQUEST_BYTES - 4, b'a');
        full.extend_from_slice(b"\r\n\r\n");
        assert_eq!(raw_status(server.addr(), &full), 200);
        server.shutdown();
    }

    #[test]
    fn a_dribbling_client_cannot_hold_the_accept_loop() {
        let server = TelemetryServer::bind("127.0.0.1:0", publisher_with_state()).expect("bind");
        let addr = server.addr();
        // One byte every 500 ms: each read finishes well inside
        // IO_TIMEOUT, so only a whole-connection deadline cuts it off.
        let stop = Arc::new(AtomicBool::new(false));
        let dribbler = {
            let stop = Arc::clone(&stop);
            let mut conn = TcpStream::connect(addr).expect("connect");
            std::thread::spawn(move || {
                for &b in b"GET /healthz HTTP/1.1\r\nX-Slow: aaaaaaaaaaaaaaaaaaaa".iter() {
                    if stop.load(Ordering::Acquire) || conn.write_all(&[b]).is_err() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(500));
                }
            })
        };
        // Connected after the dribbler, so queued behind it.
        let t0 = Instant::now();
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(4 * IO_TIMEOUT)).unwrap();
        write!(conn, "GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let mut raw = String::new();
        conn.read_to_string(&mut raw).expect("healthz answered");
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        assert!(
            t0.elapsed() < IO_TIMEOUT + Duration::from_secs(1),
            "healthz waited {:?} behind the slow client",
            t0.elapsed()
        );
        stop.store(true, Ordering::Release);
        dribbler.join().unwrap();
        server.shutdown();
    }
}
