//! A minimal blocking client for the serve protocol, plus a resilient
//! retrying wrapper.
//!
//! [`Client`] is one connection: serial requests, no policy. For
//! anything long-running, wrap the endpoint in a [`RetryingClient`],
//! which reconnects and backs off on transport failure under a
//! [`RetryPolicy`]. The policy is deliberately narrow about what it
//! retries: connect failures, resets/EOF mid-exchange, and deadline
//! expiries — **never** `Parse`/`Graph` (the request itself is bad;
//! resending it cannot help) and never other typed server errors (they
//! are answers, not outages).

use std::io::{self, BufReader, ErrorKind};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::protocol::{
    decode_embedding, decode_error, decode_reload, read_frame, write_frame, FrameReadError,
    OP_EMBED, OP_EMBEDDING, OP_ERROR, OP_HEALTH, OP_HEALTH_REPLY, OP_RELOAD, OP_RELOAD_REPLY,
    OP_STATS, OP_STATS_REPLY,
};

/// What the server said about one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The embedding, decoded from `f32 LE` wire bytes.
    Embedding(Vec<f32>),
    /// A typed error frame.
    Error {
        /// The `ErrorCode` wire value.
        code: u16,
        /// Human-readable detail.
        message: String,
    },
}

/// What the server said about one `RELOAD` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReloadOutcome {
    /// The checkpoint validated and is now serving as this generation.
    Swapped(u64),
    /// The server rejected the candidate; the previous generation is
    /// still serving.
    Rejected {
        /// The `ErrorCode` wire value (usually `Reload` = 7).
        code: u16,
        /// The validation failure, verbatim.
        message: String,
    },
}

/// One connection to a serve endpoint. Requests are serial per client;
/// run several clients for concurrency.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

fn bad_data(msg: &str) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, msg)
}

impl Client {
    /// Connects to `addr` (e.g. `"127.0.0.1:7744"`) with the OS-default
    /// connect timeout and no read deadline. Prefer
    /// [`Client::connect_timeout`] for anything unattended.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        Client::from_stream(TcpStream::connect(addr)?)
    }

    /// Connects with a bounded connect timeout (tried against each
    /// resolved address in turn). The OS default can be multiple
    /// minutes; an unattended caller should never wait that long to
    /// learn a server is down.
    ///
    /// # Errors
    ///
    /// The last address's connect error, or `InvalidInput` if `addr`
    /// resolves to nothing.
    pub fn connect_timeout<A: ToSocketAddrs>(addr: A, timeout: Duration) -> io::Result<Client> {
        let mut last: Option<io::Error> = None;
        for a in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&a, timeout) {
                Ok(stream) => return Client::from_stream(stream),
                Err(e) => last = Some(e),
            }
        }
        Err(last
            .unwrap_or_else(|| io::Error::new(ErrorKind::InvalidInput, "no addresses resolved")))
    }

    fn from_stream(stream: TcpStream) -> io::Result<Client> {
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sets (or clears) the per-request read deadline. A reply that
    /// takes longer surfaces as a `WouldBlock`/`TimedOut` transport
    /// error — retryable under [`RetryPolicy`].
    ///
    /// # Errors
    ///
    /// Propagates the socket-option error.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        // The reader wraps a dup of the same socket, so setting the
        // option on either half applies to both.
        self.writer.set_read_timeout(timeout)
    }

    fn roundtrip(&mut self, op: u8, payload: &[u8]) -> io::Result<(u8, Vec<u8>)> {
        write_frame(&mut self.writer, op, payload)?;
        match read_frame(&mut self.reader) {
            Ok(Some(f)) => Ok((f.op, f.payload)),
            Ok(None) => Err(io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Err(FrameReadError::Io(e)) => Err(e),
            Err(FrameReadError::Oversized(_)) => Err(bad_data("oversized reply frame")),
        }
    }

    /// Sends one netlist (structural Verilog text) and returns the
    /// server's reply.
    ///
    /// # Errors
    ///
    /// Transport errors only; server-side failures arrive as
    /// [`Reply::Error`].
    pub fn embed(&mut self, verilog: &str) -> io::Result<Reply> {
        let (op, payload) = self.roundtrip(OP_EMBED, verilog.as_bytes())?;
        match op {
            OP_EMBEDDING => decode_embedding(&payload)
                .map(Reply::Embedding)
                .ok_or_else(|| bad_data("malformed embedding payload")),
            OP_ERROR => {
                let (code, message) =
                    decode_error(&payload).ok_or_else(|| bad_data("malformed error payload"))?;
                Ok(Reply::Error { code, message })
            }
            other => Err(bad_data(&format!("unexpected reply opcode 0x{other:02x}"))),
        }
    }

    /// Like [`Client::embed`] but returns the raw `OP_EMBEDDING` payload
    /// bytes, for bit-identity assertions.
    ///
    /// # Errors
    ///
    /// Transport errors, or a typed error frame mapped to
    /// `ErrorKind::Other`.
    pub fn embed_raw(&mut self, verilog: &str) -> io::Result<Vec<u8>> {
        let (op, payload) = self.roundtrip(OP_EMBED, verilog.as_bytes())?;
        match op {
            OP_EMBEDDING => Ok(payload),
            OP_ERROR => {
                let (code, message) = decode_error(&payload).unwrap_or((0, String::new()));
                Err(io::Error::other(format!("server error {code}: {message}")))
            }
            other => Err(bad_data(&format!("unexpected reply opcode 0x{other:02x}"))),
        }
    }

    /// Asks the server to hot-reload a checkpoint: `Some(path)` for an
    /// explicit file, `None` for the server's configured watch path
    /// (`MOSS_SERVE_CKPT`).
    ///
    /// # Errors
    ///
    /// Transport errors only; a validation rejection arrives as
    /// [`ReloadOutcome::Rejected`].
    pub fn reload(&mut self, path: Option<&str>) -> io::Result<ReloadOutcome> {
        let payload = path.map(str::as_bytes).unwrap_or_default();
        let (op, payload) = self.roundtrip(OP_RELOAD, payload)?;
        match op {
            OP_RELOAD_REPLY => decode_reload(&payload)
                .map(ReloadOutcome::Swapped)
                .ok_or_else(|| bad_data("malformed reload reply")),
            OP_ERROR => {
                let (code, message) =
                    decode_error(&payload).ok_or_else(|| bad_data("malformed error payload"))?;
                Ok(ReloadOutcome::Rejected { code, message })
            }
            other => Err(bad_data(&format!("unexpected reply opcode 0x{other:02x}"))),
        }
    }

    /// Fetches the server's health JSON (uptime, generation,
    /// reload/respawn counters).
    ///
    /// # Errors
    ///
    /// Transport errors or a non-health reply.
    pub fn health(&mut self) -> io::Result<String> {
        let (op, payload) = self.roundtrip(OP_HEALTH, &[])?;
        if op != OP_HEALTH_REPLY {
            return Err(bad_data("unexpected reply to health request"));
        }
        String::from_utf8(payload).map_err(|_| bad_data("health reply is not UTF-8"))
    }

    /// Fetches the server's statistics JSON.
    ///
    /// # Errors
    ///
    /// Transport errors or a non-stats reply.
    pub fn stats(&mut self) -> io::Result<String> {
        let (op, payload) = self.roundtrip(OP_STATS, &[])?;
        if op != OP_STATS_REPLY {
            return Err(bad_data("unexpected reply to stats request"));
        }
        String::from_utf8(payload).map_err(|_| bad_data("stats reply is not UTF-8"))
    }
}

/// When and how [`RetryingClient`] retries.
///
/// | outcome                              | action                      |
/// |--------------------------------------|-----------------------------|
/// | connect refused / reset / EOF        | reconnect + retry (backoff) |
/// | read deadline expired                | reconnect + retry (backoff) |
/// | `Parse` (2) / `Graph` (3)            | returned — request is bad   |
/// | `Fault` (4) / `Internal` (6) / `Reload` (7) | returned — an answer |
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per request, including the first (default 4).
    pub max_attempts: u32,
    /// First backoff; doubles per retry (default 5 ms).
    pub base_backoff: Duration,
    /// Backoff ceiling (default 250 ms).
    pub max_backoff: Duration,
    /// Bound on each (re)connect (default 2 s).
    pub connect_timeout: Duration,
    /// Per-request read deadline, set on every fresh connection
    /// (default 10 s; `None` waits forever).
    pub request_timeout: Option<Duration>,
    /// Seed for the deterministic backoff jitter (default 0; mix in
    /// your own to decorrelate fleets).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(250),
            connect_timeout: Duration::from_secs(2),
            request_timeout: Some(Duration::from_secs(10)),
            jitter_seed: 0,
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl RetryPolicy {
    /// The sleep before retry number `attempt` (0-based): exponential
    /// from [`RetryPolicy::base_backoff`], capped at
    /// [`RetryPolicy::max_backoff`], scaled by a deterministic jitter
    /// factor in `[0.5, 1.0)` derived from `state`.
    pub fn backoff(&self, attempt: u32, state: u64) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(2u32.saturating_pow(attempt.min(20)))
            .min(self.max_backoff);
        let frac = 0.5 + (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64 * 0.5;
        Duration::from_secs_f64(exp.as_secs_f64() * frac)
    }

    /// Whether a transport error is worth a reconnect-and-retry.
    /// Conservative: only kinds that signal "the connection, not the
    /// request, failed".
    pub fn retryable(&self, e: &io::Error) -> bool {
        matches!(
            e.kind(),
            ErrorKind::ConnectionRefused
                | ErrorKind::ConnectionReset
                | ErrorKind::ConnectionAborted
                | ErrorKind::BrokenPipe
                | ErrorKind::UnexpectedEof
                | ErrorKind::TimedOut
                | ErrorKind::WouldBlock
                | ErrorKind::NotConnected
        )
    }
}

/// Per-process source of distinct jitter streams, so concurrent
/// [`RetryingClient`]s do not back off in lockstep.
static CLIENT_SALT: AtomicU64 = AtomicU64::new(0x5EED);

/// A self-reconnecting client that applies a [`RetryPolicy`].
///
/// Lazily connects (with the policy's connect timeout and read
/// deadline) and reconnects after any retryable transport failure.
/// Non-retryable outcomes — every typed error frame, and malformed-reply
/// transport errors — are returned immediately.
#[derive(Debug)]
pub struct RetryingClient {
    addr: String,
    policy: RetryPolicy,
    conn: Option<Client>,
    rng: u64,
    retries: u64,
}

impl RetryingClient {
    /// Wraps `addr` (e.g. `"127.0.0.1:7744"`) with `policy`. No
    /// connection is made until the first request.
    pub fn new(addr: &str, policy: RetryPolicy) -> RetryingClient {
        let salt = CLIENT_SALT.fetch_add(1, Ordering::Relaxed);
        let rng = splitmix64(policy.jitter_seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        RetryingClient {
            addr: addr.to_string(),
            policy,
            conn: None,
            rng,
            retries: 0,
        }
    }

    /// Transport-level retries performed so far (reconnects).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    fn sleep_backoff(&mut self, attempt: u32) {
        self.rng = splitmix64(self.rng);
        std::thread::sleep(self.policy.backoff(attempt, self.rng));
    }

    fn conn(&mut self) -> io::Result<&mut Client> {
        if self.conn.is_none() {
            let c = Client::connect_timeout(&self.addr, self.policy.connect_timeout)?;
            c.set_read_timeout(self.policy.request_timeout)?;
            self.conn = Some(c);
        }
        Ok(self.conn.as_mut().expect("connection just established"))
    }

    /// Runs `op` on the connection, retrying per the policy: a retryable
    /// transport error drops the connection, backs off, and reconnects.
    /// Returns the first success or non-retryable error, or the last
    /// transport error once the attempt budget is spent.
    fn with_retries<T>(
        &mut self,
        mut op: impl FnMut(&mut Client) -> io::Result<T>,
    ) -> io::Result<T> {
        let mut last: Option<io::Error> = None;
        for attempt in 0..self.policy.max_attempts.max(1) {
            if attempt > 0 {
                self.sleep_backoff(attempt - 1);
            }
            match self.conn().and_then(&mut op) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    self.conn = None;
                    if !self.policy.retryable(&e) {
                        return Err(e);
                    }
                    self.retries += 1;
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or_else(|| io::Error::other("retry budget was zero attempts")))
    }

    /// Sends one netlist, retrying transport failures per the policy.
    /// Every reply frame — an embedding or a typed error — is conclusive.
    ///
    /// # Errors
    ///
    /// Non-retryable transport errors immediately; the final transport
    /// error once attempts are exhausted.
    pub fn embed(&mut self, verilog: &str) -> io::Result<Reply> {
        self.with_retries(|c| c.embed(verilog))
    }

    /// Fetches health JSON through the same retry machinery.
    ///
    /// # Errors
    ///
    /// Non-retryable transport errors immediately; the final transport
    /// error once attempts are exhausted.
    pub fn health(&mut self) -> io::Result<String> {
        self.with_retries(Client::health)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_capped_and_jittered() {
        let p = RetryPolicy::default();
        // Deterministic for a given state.
        assert_eq!(p.backoff(0, 7), p.backoff(0, 7));
        for attempt in 0..10 {
            for state in 0..50u64 {
                let d = p.backoff(attempt, state);
                let ceiling = p.max_backoff;
                let uncapped = p.base_backoff * 2u32.pow(attempt);
                let full = uncapped.min(ceiling);
                assert!(d >= full / 2, "jitter floor is half the nominal backoff");
                assert!(d <= full, "jitter never exceeds the nominal backoff");
            }
        }
        // The cap binds for late attempts.
        assert!(p.backoff(30, 1) <= p.max_backoff);
    }

    #[test]
    fn retryable_is_narrow() {
        let p = RetryPolicy::default();
        for kind in [
            ErrorKind::ConnectionRefused,
            ErrorKind::ConnectionReset,
            ErrorKind::BrokenPipe,
            ErrorKind::UnexpectedEof,
            ErrorKind::TimedOut,
            ErrorKind::WouldBlock,
        ] {
            assert!(p.retryable(&io::Error::new(kind, "x")), "{kind:?}");
        }
        for kind in [
            ErrorKind::InvalidData,
            ErrorKind::NotFound,
            ErrorKind::PermissionDenied,
            ErrorKind::InvalidInput,
        ] {
            assert!(!p.retryable(&io::Error::new(kind, "x")), "{kind:?}");
        }
    }

    #[test]
    fn connect_failure_is_retried_then_surfaced() {
        // Nothing listens on this port (bound then dropped).
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            connect_timeout: Duration::from_millis(200),
            ..RetryPolicy::default()
        };
        let mut c = RetryingClient::new(&addr, policy);
        let err = c.embed("module m (); endmodule").unwrap_err();
        assert!(c.policy.retryable(&err), "final error is the transport one");
        assert_eq!(c.retries(), 3, "every attempt burned a retryable connect");
    }
}
