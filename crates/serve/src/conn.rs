//! The TCP front door's connection policy: a bounded accept loop
//! with structured shedding, and per-connection read/idle timeouts.
//!
//! The stdin path is naturally bounded (one stream, one reader
//! thread); the TCP path is not — every accepted socket is a thread
//! and a file descriptor held open at the whim of a remote peer. Two
//! guards close that hole:
//!
//! * **Connection cap** ([`ConnOptions::max_connections`], env
//!   `CMP_SERVE_MAX_CONNS`): an over-limit client is answered with
//!   one structured `shed` response (`reason: "connection limit"`)
//!   and closed — the same refuse-loudly contract as queue
//!   shedding, never a silent hang or an unbounded thread count.
//! * **Read/idle timeout** ([`ConnOptions::read_timeout`], env
//!   `CMP_SERVE_IDLE_MS`, 0 disables): a connection that goes silent
//!   longer than the timeout is answered with a structured
//!   `idle-timeout` error and closed, surfaced in the
//!   `serve.conn_timeouts` counter. Slow-loris clients cost one
//!   timeout window, not a slot forever.
//!
//! Both counters (`serve.conn_shed`, `serve.conn_timeouts`) follow
//! the obs taxonomy: inert unless the layer is enabled.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cmp_bench::Json;
use cmp_obs::Counter;

use crate::service::{env, Service};

/// Connections refused because the cap was reached.
static CONN_SHED: Counter = Counter::new("serve.conn_shed");
/// Connections closed by the read/idle timeout.
static CONN_TIMEOUTS: Counter = Counter::new("serve.conn_timeouts");

/// Tuning of the TCP accept loop.
#[derive(Clone, Debug)]
pub struct ConnOptions {
    /// Concurrent-connection cap; clients beyond it are shed with a
    /// structured response (clamped to >= 1).
    pub max_connections: usize,
    /// How long a connection may stay silent before it is closed
    /// with a structured `idle-timeout` error; `None` waits forever.
    pub read_timeout: Option<Duration>,
}

impl Default for ConnOptions {
    fn default() -> ConnOptions {
        ConnOptions { max_connections: 64, read_timeout: Some(Duration::from_millis(120_000)) }
    }
}

impl ConnOptions {
    /// Reads the `CMP_SERVE_MAX_CONNS` / `CMP_SERVE_IDLE_MS`
    /// environment; malformed values warn and keep the default
    /// (same contract as [`crate::ServeOptions::from_env`]).
    pub fn from_env() -> ConnOptions {
        let mut o = ConnOptions::default();
        if let Some(n) = cmp_obs::env_parse_valid::<usize>(env::MAX_CONNS, |n| *n >= 1) {
            o.max_connections = n;
        }
        if let Some(ms) = cmp_obs::env_parse_valid::<u64>(env::IDLE_MS, |_| true) {
            o.read_timeout = (ms > 0).then(|| Duration::from_millis(ms));
        }
        o
    }
}

/// The bounded TCP accept loop: each admitted connection speaks the
/// same NDJSON protocol as stdin and is answered synchronously
/// (admit, process to completion, respond); the service's labs and
/// their caches are shared across connections and with stdin, so a pair
/// simulated for one client is a cache hit for the next. Runs until
/// the listener errors out; callers put it on its own thread.
pub fn accept_loop(listener: TcpListener, service: Arc<Mutex<Service>>, opts: ConnOptions) {
    let active = Arc::new(AtomicUsize::new(0));
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        // Responses are small and latency-bound: send each batch at
        // once rather than waiting to coalesce it with the next.
        let _ = stream.set_nodelay(true);
        let Some(slot) = Slot::reserve(&active, opts.max_connections.max(1)) else {
            shed_connection(stream, opts.max_connections.max(1));
            continue;
        };
        let svc = Arc::clone(&service);
        let opts = opts.clone();
        std::thread::spawn(move || {
            let _slot = slot;
            handle_connection(stream, &svc, &opts);
        });
    }
}

/// A reserved connection slot; released on drop (whatever path the
/// handler thread exits by).
struct Slot(Arc<AtomicUsize>);

impl Slot {
    fn reserve(active: &Arc<AtomicUsize>, max: usize) -> Option<Slot> {
        active
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| (n < max).then_some(n + 1))
            .ok()?;
        Some(Slot(Arc::clone(active)))
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Answers an over-limit client with one structured `shed` line and
/// closes the socket.
fn shed_connection(stream: TcpStream, max: usize) {
    CONN_SHED.inc();
    cmp_obs::warn!("connection shed at cap", max_connections = max);
    let mut resp = Json::obj();
    resp.set("type", Json::Str("shed".into()));
    resp.set("id", Json::Null);
    resp.set("reason", Json::Str("connection limit".into()));
    resp.set("max-connections", Json::Num(max as f64));
    let mut writer = stream;
    emit(&mut writer, &[resp]);
}

/// One admitted connection: read a line (bounded by the idle
/// timeout), answer it fully, repeat until EOF, error, or timeout.
fn handle_connection(stream: TcpStream, service: &Arc<Mutex<Service>>, opts: &ConnOptions) {
    if stream.set_read_timeout(opts.read_timeout).is_err() {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return, // EOF: client is done.
            Ok(_) => {}
            // The platform reports a read timeout as either kind.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                CONN_TIMEOUTS.inc();
                emit(&mut writer, &[idle_timeout_response(opts.read_timeout)]);
                return;
            }
            Err(_) => return,
        }
        let responses = answer_line(service, &line);
        if !emit(&mut writer, &responses) {
            return;
        }
    }
}

/// Handles one request line to completion: admit, then process ready
/// jobs (honouring retry backoff) until this connection's work is
/// answered.
fn answer_line(service: &Arc<Mutex<Service>>, line: &str) -> Vec<Json> {
    let mut svc = service.lock().unwrap_or_else(|p| p.into_inner());
    let mut responses = svc.handle_line(line);
    loop {
        responses.extend(svc.process_ready());
        match svc.next_ready_in() {
            Some(d) if d > Duration::ZERO => std::thread::sleep(d),
            Some(_) => {}
            None => break,
        }
    }
    responses
}

/// The structured close notice for a timed-out connection.
fn idle_timeout_response(timeout: Option<Duration>) -> Json {
    let ms = timeout.map_or(0, |d| d.as_millis() as u64);
    let mut resp = Json::obj();
    resp.set("type", Json::Str("error".into()));
    resp.set("id", Json::Null);
    resp.set("kind", Json::Str("idle-timeout".into()));
    resp.set("error", Json::Str(format!("no request within {ms}ms; closing connection")));
    resp
}

/// Writes a batch of responses as NDJSON and flushes; false when the
/// peer is gone. The batch goes out as one buffer in one `write_all`,
/// not a `write` per line and per newline: on a socket, the later
/// pieces would wait behind the peer's delayed acknowledgement of the
/// earlier ones.
pub fn emit(out: &mut impl Write, responses: &[Json]) -> bool {
    let mut batch = String::new();
    for r in responses {
        batch.push_str(&r.compact());
        batch.push('\n');
    }
    out.write_all(batch.as_bytes()).and_then(|()| out.flush()).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeOptions;
    use cmp_sim::RunConfig;
    use std::io::BufRead;
    use std::net::TcpStream;

    fn start(opts: ConnOptions) -> std::net::SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().expect("local addr");
        let svc =
            Arc::new(Mutex::new(Service::new(ServeOptions::new(RunConfig::sized(200, 400, 7)))));
        std::thread::spawn(move || accept_loop(listener, svc, opts));
        addr
    }

    fn round_trip(conn: &mut TcpStream, request: &str) -> Json {
        writeln!(conn, "{request}").expect("write request");
        conn.flush().expect("flush");
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        Json::parse(line.trim()).expect("valid response json")
    }

    #[test]
    fn over_limit_connection_is_shed_with_a_structured_response() {
        let addr = start(ConnOptions { max_connections: 1, read_timeout: None });
        let mut first = TcpStream::connect(addr).expect("first connection");
        // A health round-trip proves the first connection holds its
        // slot before the second one knocks.
        let health = round_trip(&mut first, r#"{"type":"health","id":"h1"}"#);
        assert_eq!(health.get("type").and_then(Json::as_str), Some("health"));

        let second = TcpStream::connect(addr).expect("second connection");
        let mut reader = BufReader::new(second);
        let mut line = String::new();
        reader.read_line(&mut line).expect("read shed line");
        let shed = Json::parse(line.trim()).expect("valid shed json");
        assert_eq!(shed.get("type").and_then(Json::as_str), Some("shed"));
        assert_eq!(shed.get("reason").and_then(Json::as_str), Some("connection limit"));
        assert_eq!(shed.get("max-connections").and_then(Json::as_f64), Some(1.0));
        line.clear();
        assert_eq!(reader.read_line(&mut line).expect("eof"), 0, "shed closes the socket");

        // The admitted connection keeps working after the shed.
        let again = round_trip(&mut first, r#"{"type":"health","id":"h2"}"#);
        assert_eq!(again.get("type").and_then(Json::as_str), Some("health"));

        // Its slot frees on close: a third client is admitted.
        drop(first);
        for _ in 0..200 {
            let mut third = match TcpStream::connect(addr) {
                Ok(c) => c,
                Err(_) => break,
            };
            writeln!(third, r#"{{"type":"health","id":"h3"}}"#).expect("write");
            third.flush().expect("flush");
            let mut reader = BufReader::new(third);
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            let resp = Json::parse(line.trim()).expect("json");
            if resp.get("type").and_then(Json::as_str) == Some("health") {
                return;
            }
            // Still saw the shed (slot not yet released) — retry.
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("slot was never released after the first connection closed");
    }

    #[test]
    fn silent_connection_times_out_with_a_structured_error() {
        let addr = start(ConnOptions {
            max_connections: 4,
            read_timeout: Some(Duration::from_millis(50)),
        });
        let was_enabled = cmp_obs::enabled();
        cmp_obs::set_enabled(true);
        let before = CONN_TIMEOUTS.get();
        let conn = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(conn);
        let mut line = String::new();
        // Send nothing: the read times out and the service says so.
        reader.read_line(&mut line).expect("read timeout notice");
        let resp = Json::parse(line.trim()).expect("valid error json");
        assert_eq!(resp.get("type").and_then(Json::as_str), Some("error"));
        assert_eq!(resp.get("kind").and_then(Json::as_str), Some("idle-timeout"));
        line.clear();
        assert_eq!(reader.read_line(&mut line).expect("eof"), 0, "timeout closes the socket");
        let after = CONN_TIMEOUTS.get();
        cmp_obs::set_enabled(was_enabled);
        assert!(after > before, "timeout is surfaced in serve.conn_timeouts");
    }

    /// A sink that counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_batch_is_one_write() {
        let mut out = CountingWriter::default();
        let batch = [idle_timeout_response(None), idle_timeout_response(Some(Duration::ZERO))];
        assert!(emit(&mut out, &batch));
        assert_eq!(out.writes, 1, "one batch, one write call");
        let text = String::from_utf8(out.bytes).expect("utf-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines, [batch[0].compact(), batch[1].compact()]);
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn conn_options_env_parses_and_zero_disables_the_timeout() {
        std::env::set_var(env::MAX_CONNS, "7");
        std::env::set_var(env::IDLE_MS, "0");
        let opts = ConnOptions::from_env();
        std::env::remove_var(env::MAX_CONNS);
        std::env::remove_var(env::IDLE_MS);
        assert_eq!(opts.max_connections, 7);
        assert_eq!(opts.read_timeout, None, "0 disables the idle timeout");
        let defaults = ConnOptions::default();
        assert_eq!(defaults.max_connections, 64);
        assert_eq!(defaults.read_timeout, Some(Duration::from_millis(120_000)));
    }
}
