#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Characterization-as-a-service: the `afp serve` daemon.
//!
//! A long-running service that answers circuit-characterization requests
//! over HTTP/1.1 on TCP (or a Unix socket) without re-running the whole
//! flow per query. Three properties carry the design:
//!
//! 1. **Coalescing** — concurrent requests for the same
//!    `(circuit-fingerprint, target)` pair collapse into one in-flight
//!    characterization via [`afp_runtime::Inflight`]; every waiter gets
//!    the same bytes, and the runtime counters prove exactly one
//!    synthesis ran.
//! 2. **Backpressure** — accepted connections flow through a bounded
//!    queue (`queue_depth`); when it is full the acceptor answers
//!    `429 Too Many Requests` immediately instead of letting latency
//!    grow without bound.
//! 3. **Graceful drain** — shutdown stops accepting, then the workers
//!    finish every connection already queued before exiting, so an
//!    accepted request is never dropped. Pipelined requests whose bytes
//!    were already sent when shutdown fired are served before the
//!    connection closes.
//! 4. **Keep-alive** — connections are reused across requests
//!    (HTTP/1.1 semantics, `Connection: close` honored per request),
//!    bounded by a per-connection request cap and an idle timeout so a
//!    quiet client cannot pin a worker forever.
//! 5. **Estimate fast path** — with `--models` pointing at persisted
//!    `.afpm` trained zoos ([`approxfpgas::load_zoo`]),
//!    `GET /estimate?spec=..` answers from the ML models in
//!    microseconds — zero FPGA synthesis — falling back to full
//!    characterization (or `404` under `--estimate-only`) when no
//!    loaded zoo covers the request's `(kind, width, target)`.
//! 6. **Rendered-body cache** — one CLOCK cache bounded by
//!    [`BODY_CACHE_BYTES`], keyed after parsing, answers hot
//!    `/characterize` and `/estimate` requests with the bytes it sent
//!    before.
//!
//! Responses are schema-stable [`afp_obs::RunReport`] JSON built by
//! [`approxfpgas::request_report`]; volatile per-request metadata (was
//! this coalesced? warm?) travels in `X-Afp-*` headers, never in the
//! body, so identical requests yield byte-identical bodies.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use afp_circuits::{from_spec_ref, stream_library_bytes, ArithCircuit, ArithKind};
use afp_ml::MlModelId;
use afp_obs::{RunReport, Section, Value};
use afp_runtime::{Counters, Inflight, ReportSection, Runtime};
use approxfpgas::record::{estimate_features, CharacterizeScratch};
use approxfpgas::report::counter_section;
use approxfpgas::{
    characterize_request, load_zoo, request_report, CharacterizationCache, FpgaParam,
    RequestConfig, SavedZoo,
};

mod body_cache;
pub mod http;

pub use body_cache::BODY_CACHE_BYTES;
use body_cache::{BodyCache, BodyKey, Endpoint};
use http::{error_body, read_request, write_response, ReadError, Request, RequestReader};

/// How long a worker waits on a slow or stalled peer before giving up
/// on the connection. Bounds the damage of a client that connects and
/// never sends (or never reads). Applies to the *first* request on a
/// connection; later requests wait at most the keep-alive idle window.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Read window for the next keep-alive request once shutdown has been
/// triggered: long enough for pipelined bytes already in flight to
/// land, short enough that drain completes promptly.
const DRAIN_TIMEOUT: Duration = Duration::from_millis(200);

/// Where the daemon listens.
#[derive(Clone, Debug)]
pub enum Bind {
    /// TCP address, e.g. `127.0.0.1:8080` (port 0 picks a free port).
    Tcp(String),
    /// Unix-domain socket path. A stale file at the path is removed.
    #[cfg(unix)]
    Unix(PathBuf),
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address.
    pub bind: Bind,
    /// Worker threads handling connections (0 = available parallelism).
    pub threads: usize,
    /// Bounded depth of the accepted-connection queue; connections
    /// beyond it are answered `429` by the acceptor.
    pub queue_depth: usize,
    /// Target applied when a request omits `?target=`.
    pub default_target: String,
    /// Warm-tier directory (the same binary store `afp flow` uses);
    /// `None` keeps the cache memory-only.
    pub cache_dir: Option<PathBuf>,
    /// `.afpm` model containers ([`approxfpgas::save_zoo`]) loaded at
    /// startup to answer `GET /estimate` from trained models. A path
    /// that fails to load aborts startup loudly.
    pub models: Vec<PathBuf>,
    /// When set, `GET /estimate` answers `404` instead of falling back
    /// to full characterization when no loaded zoo covers the request.
    pub estimate_only: bool,
    /// Maximum requests served on one connection before the server
    /// closes it (`Connection: close` on the final response).
    pub keepalive_requests: usize,
    /// How long a kept-alive connection may sit idle between requests
    /// before the server closes it.
    pub keepalive_idle: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            bind: Bind::Tcp("127.0.0.1:0".to_string()),
            threads: 0,
            queue_depth: 64,
            default_target: afp_fpga::target::DEFAULT_TARGET.to_string(),
            cache_dir: None,
            models: Vec::new(),
            estimate_only: false,
            keepalive_requests: 1000,
            keepalive_idle: Duration::from_secs(5),
        }
    }
}

/// One accepted connection, TCP or Unix, unified behind `Read + Write`.
#[derive(Debug)]
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn set_timeouts(&self) {
        match self {
            Conn::Tcp(s) => {
                let _ = s.set_read_timeout(Some(IO_TIMEOUT));
                let _ = s.set_write_timeout(Some(IO_TIMEOUT));
            }
            #[cfg(unix)]
            Conn::Unix(s) => {
                let _ = s.set_read_timeout(Some(IO_TIMEOUT));
                let _ = s.set_write_timeout(Some(IO_TIMEOUT));
            }
        }
    }

    /// Adjust only the read deadline — used to shrink the wait for the
    /// next keep-alive request without touching the write timeout.
    fn set_read_timeout(&self, timeout: Duration) {
        match self {
            Conn::Tcp(s) => {
                let _ = s.set_read_timeout(Some(timeout));
            }
            #[cfg(unix)]
            Conn::Unix(s) => {
                let _ = s.set_read_timeout(Some(timeout));
            }
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// The bound listener, mirrored by the wake target used to unblock
/// `accept` during shutdown.
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                // Keep-alive turns each connection into a request/response
                // ping-pong; Nagle + delayed ACK would add a round trip
                // per exchange.
                let _ = s.set_nodelay(true);
                Conn::Tcp(s)
            }),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

/// Where to dial a throwaway connection to wake the blocked acceptor.
#[derive(Clone, Debug)]
enum WakeTarget {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Unix(PathBuf),
}

impl WakeTarget {
    fn wake(&self) {
        match self {
            WakeTarget::Tcp(addr) => {
                let _ = TcpStream::connect_timeout(addr, Duration::from_secs(2));
            }
            #[cfg(unix)]
            WakeTarget::Unix(path) => {
                let _ = UnixStream::connect(path);
            }
        }
    }
}

/// A `.afpm` zoo loaded at startup, with the best persisted model per
/// FPGA parameter pre-resolved so the hot path is a lookup, not a rank.
struct LoadedZoo {
    saved: SavedZoo,
    best: Vec<(FpgaParam, MlModelId)>,
}

/// State shared by the acceptor and every worker.
struct Shared {
    rt: Runtime,
    cache: CharacterizationCache,
    inflight: Inflight<Arc<String>>,
    /// One request configuration per registered target, built at start.
    configs: Vec<RequestConfig>,
    default_target: String,
    queue_depth: usize,
    threads: usize,
    shutdown: AtomicBool,
    wake: WakeTarget,
    zoos: Vec<LoadedZoo>,
    bodies: BodyCache,
    estimate_only: bool,
    keepalive_requests: usize,
    keepalive_idle: Duration,
}

impl Shared {
    fn counters(&self) -> &Counters {
        self.rt.counters()
    }
}

/// A running server. Dropping the handle does NOT stop the server; call
/// [`ServerHandle::shutdown`] (or send `POST /shutdown`) and then
/// [`ServerHandle::join`].
pub struct ServerHandle {
    addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The bound TCP address (useful with port 0). `None` for Unix binds.
    pub fn addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// Snapshot of the shared runtime counters (serve counters included).
    pub fn snapshot(&self) -> afp_runtime::CounterSnapshot {
        self.shared.rt.snapshot()
    }

    /// Ask the server to stop accepting and drain, without waiting.
    pub fn trigger_shutdown(&self) {
        trigger_shutdown(&self.shared);
    }

    /// Block until the acceptor and every worker have exited — i.e.
    /// until every accepted connection has been answered. Returns the
    /// final counter snapshot of the run.
    pub fn join(mut self) -> afp_runtime::CounterSnapshot {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.shared.rt.snapshot()
    }

    /// [`trigger_shutdown`](Self::trigger_shutdown) then
    /// [`join`](Self::join): graceful stop that loses no accepted work.
    pub fn shutdown(self) -> afp_runtime::CounterSnapshot {
        self.trigger_shutdown();
        self.join()
    }
}

fn trigger_shutdown(shared: &Shared) {
    if !shared.shutdown.swap(true, Ordering::SeqCst) {
        shared.wake.wake();
    }
}

/// Start the daemon described by `config`.
///
/// Binds the listener, spawns `threads` workers plus one acceptor, and
/// returns immediately; use the handle to discover the bound address
/// and to stop the server.
///
/// # Errors
///
/// This is the one place the `ServeConfig` rules are checked; each
/// message names the `afp serve` flag that sets the field. An
/// `InvalidInput` error for a zero `queue_depth`, `keepalive_requests`
/// or `keepalive_idle`, an unknown `default_target`, or `estimate_only`
/// without `models`; `InvalidData` for a zoo that fails to load; and any
/// error binding the listener.
pub fn serve(config: ServeConfig) -> io::Result<ServerHandle> {
    let invalid = |msg: String| Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
    if config.queue_depth == 0 {
        return invalid("--queue-depth must be at least 1 (0 would reject every request)".into());
    }
    if let Err(e) = afp_fpga::target::resolve(&config.default_target) {
        return invalid(format!("unknown default target: {e}"));
    }
    if config.keepalive_requests == 0 {
        return invalid("--keepalive-requests must be at least 1".into());
    }
    if config.keepalive_idle.is_zero() {
        return invalid(
            "--idle-timeout-ms must be at least 1 (a zero keep-alive idle window \
             cannot be set as a read timeout)"
                .into(),
        );
    }
    if config.estimate_only && config.models.is_empty() {
        return invalid(
            "--estimate-only without --models would answer 404 to every estimate; \
             pass at least one .afpm (see `afp zoo train`)"
                .into(),
        );
    }
    let mut zoos = Vec::with_capacity(config.models.len());
    for path in &config.models {
        let saved = load_zoo(path).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("loading model zoo `{}`: {e}", path.display()),
            )
        })?;
        let best = FpgaParam::ALL
            .iter()
            .map(|&param| {
                best_persisted_model(&saved, param)
                    .map(|model| (param, model))
                    .ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "model zoo `{}` holds no trained model for {}",
                                path.display(),
                                param.label()
                            ),
                        )
                    })
            })
            .collect::<io::Result<Vec<_>>>()?;
        zoos.push(LoadedZoo { saved, best });
    }
    let threads = if config.threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        config.threads
    };
    let cache = match &config.cache_dir {
        None => CharacterizationCache::in_memory(),
        Some(dir) => CharacterizationCache::try_with_disk(dir)?,
    };

    let (listener, addr, wake) = match &config.bind {
        Bind::Tcp(spec) => {
            let l = TcpListener::bind(spec)?;
            let addr = l.local_addr()?;
            (Listener::Tcp(l), Some(addr), WakeTarget::Tcp(addr))
        }
        #[cfg(unix)]
        Bind::Unix(path) => {
            // A previous run's socket file would make bind fail with
            // AddrInUse even though nothing is listening.
            let _ = std::fs::remove_file(path);
            let l = UnixListener::bind(path)?;
            (Listener::Unix(l), None, WakeTarget::Unix(path.clone()))
        }
    };

    let base = afp_fpga::FpgaConfig::default();
    let configs = afp_fpga::target::registry()
        .iter()
        .map(|profile| RequestConfig::for_target_config(profile.apply(&base)))
        .collect();
    let shared = Arc::new(Shared {
        rt: Runtime::new(threads),
        cache,
        inflight: Inflight::new(),
        configs,
        default_target: config.default_target.clone(),
        queue_depth: config.queue_depth,
        threads,
        shutdown: AtomicBool::new(false),
        wake,
        zoos,
        bodies: BodyCache::new(BODY_CACHE_BYTES),
        estimate_only: config.estimate_only,
        keepalive_requests: config.keepalive_requests,
        keepalive_idle: config.keepalive_idle,
    });

    let (tx, rx) = sync_channel::<Conn>(config.queue_depth);
    let rx = Arc::new(Mutex::new(rx));
    let mut workers = Vec::with_capacity(threads);
    for _ in 0..threads {
        let rx = Arc::clone(&rx);
        let shared = Arc::clone(&shared);
        workers.push(std::thread::spawn(move || worker_loop(&rx, &shared)));
    }
    let acceptor = {
        let shared = Arc::clone(&shared);
        let sock_path = match &config.bind {
            #[cfg(unix)]
            Bind::Unix(path) => Some(path.clone()),
            _ => None,
        };
        std::thread::spawn(move || {
            accept_loop(&listener, tx, &shared);
            if let Some(path) = sock_path {
                let _ = std::fs::remove_file(path);
            }
        })
    };

    Ok(ServerHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
        workers,
    })
}

/// Accept connections and enqueue them; answer `429` inline when the
/// bounded queue is full. Exits (dropping the sender, which lets the
/// workers drain and stop) once shutdown is triggered.
fn accept_loop(listener: &Listener, tx: SyncSender<Conn>, shared: &Shared) {
    loop {
        let conn = match listener.accept() {
            Ok(conn) => conn,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            // Likely the wake-up dial; either way we no longer accept.
            break;
        }
        conn.set_timeouts();
        match tx.try_send(conn) {
            Ok(()) => {}
            Err(TrySendError::Full(mut conn)) => {
                Counters::add(&shared.counters().queue_rejections, 1);
                let _ = write_response(
                    &mut conn,
                    429,
                    true,
                    &[("Retry-After", "1".to_string())],
                    &error_body("request queue is full, retry later"),
                );
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
    // Sender drops here: workers finish the queued backlog, then stop.
}

/// Pull connections until the channel is closed *and* drained.
fn worker_loop(rx: &Mutex<Receiver<Conn>>, shared: &Shared) {
    loop {
        let conn = {
            let rx = rx.lock().unwrap_or_else(PoisonError::into_inner);
            rx.recv()
        };
        let Ok(mut conn) = conn else { break };
        // A panic while characterizing (e.g. a malformed payload that
        // slipped past validation) must cost one connection, not one
        // worker thread — capacity would silently shrink forever.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_connection(&mut conn, shared);
        }));
        if outcome.is_err() {
            let _ = write_response(
                &mut conn,
                500,
                true,
                &[],
                &error_body("internal error while handling request"),
            );
        }
    }
}

/// Serve requests on one connection until it closes: the keep-alive
/// loop. Each iteration reads a request (pipelined bytes already
/// buffered by the [`RequestReader`] are consumed without touching the
/// socket), routes it, and writes the response; the connection closes
/// when the client asked for it, the per-connection cap is reached, the
/// head was unparseable, or the peer goes idle past the deadline.
fn handle_connection(conn: &mut Conn, shared: &Shared) {
    let mut reader = RequestReader::new();
    let mut served: u64 = 0;
    // The read window in force; `None` is the connection-level IO_TIMEOUT.
    let mut window: Option<Duration> = None;
    loop {
        // The first request keeps the connection-level IO_TIMEOUT: a
        // freshly accepted connection may legitimately wait queued
        // behind slow work before its bytes are read. Later requests
        // wait at most the keep-alive idle window — or, once shutdown
        // has been triggered, a short drain window that still lets
        // pipelined bytes already in flight land and be answered. The
        // socket option is set only when the window changes.
        if served > 0 {
            let idle = if shared.shutdown.load(Ordering::SeqCst) {
                DRAIN_TIMEOUT
            } else {
                shared.keepalive_idle
            };
            if window != Some(idle) {
                conn.set_read_timeout(idle);
                window = Some(idle);
            }
        }
        let req = match read_request(conn, &mut reader) {
            Ok(req) => req,
            Err(ReadError::Closed) => return,
            Err(ReadError::Bad(reason)) => {
                // The stream cannot be resynchronized after a bad head;
                // answer best-effort and drop the connection.
                let _ = write_response(conn, 400, true, &[], &error_body(&reason));
                return;
            }
        };
        if served > 0 {
            Counters::add(&shared.counters().keepalive_reuses, 1);
        }
        served += 1;
        let is_shutdown = req.method == "POST" && req.path == "/shutdown";
        // Announce close when the client asked for it or the budget is
        // spent. A shutdown in progress does NOT force the header:
        // pipelined requests already sent are still drained, and the
        // drain timeout closes the socket afterwards.
        let close = !req.keep_alive || served >= shared.keepalive_requests as u64;
        let (status, headers, body) = route(&req, shared);
        let write_ok = write_response(conn, status, close, &headers, body.as_bytes()).is_ok();
        if is_shutdown && status == 200 {
            trigger_shutdown(shared);
        }
        if close || !write_ok {
            return;
        }
    }
}

/// A response body: rendered for this response, or shared with the body
/// cache and the coalescing map, and written from there without a copy.
enum Body {
    Owned(Vec<u8>),
    Shared(Arc<String>),
}

impl Body {
    fn as_bytes(&self) -> &[u8] {
        match self {
            Body::Owned(bytes) => bytes,
            Body::Shared(text) => text.as_bytes(),
        }
    }
}

type Headers = Vec<(&'static str, String)>;
type Response = (u16, Headers, Body);

/// A `{"error":..}` response without extra headers.
fn error(status: u16, reason: &str) -> Response {
    (status, Vec::new(), Body::Owned(error_body(reason)))
}

fn route(req: &Request, shared: &Shared) -> Response {
    let fixed = |body: &[u8]| (200, Vec::new(), Body::Owned(body.to_vec()));
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => fixed(b"{\"ok\":true}\n"),
        ("GET", "/stats") => {
            let mut body = stats_report(shared).to_json().into_bytes();
            body.push(b'\n');
            (200, Vec::new(), Body::Owned(body))
        }
        ("POST", "/shutdown") => fixed(b"{\"ok\":true,\"draining\":true}\n"),
        ("GET", "/characterize") => characterize_spec(req, shared),
        ("GET", "/estimate") => estimate_spec(req, shared),
        ("POST", "/characterize") => characterize_bristol(req, shared),
        ("POST", "/characterize/batch") => characterize_batch(req, shared),
        (
            _,
            "/healthz"
            | "/stats"
            | "/shutdown"
            | "/characterize"
            | "/characterize/batch"
            | "/estimate",
        ) => error(405, &format!("method {} not allowed here", req.method)),
        (_, path) => error(404, &format!("no such endpoint `{path}`")),
    }
}

/// Resolve `?target=` (or the daemon default) to its request
/// configuration, built once at start.
fn target_config<'a>(req: &Request, shared: &'a Shared) -> Result<&'a RequestConfig, Response> {
    let name = req
        .query_param("target")
        .unwrap_or(shared.default_target.as_str());
    shared
        .configs
        .iter()
        .find(|config| config.fpga.target == name)
        .ok_or_else(|| {
            let unknown = afp_fpga::target::UnknownTargetError { name: name.into() };
            error(400, &unknown.to_string())
        })
}

/// The `spec` query parameter, its target's configuration and the
/// circuit it names, or the `400` that says which one is wrong.
fn spec_request<'a>(
    req: &Request,
    shared: &'a Shared,
) -> Result<(ArithCircuit, &'a RequestConfig), Response> {
    let spec = req
        .query_param("spec")
        .ok_or_else(|| error(400, "missing `spec` query parameter"))?;
    let config = target_config(req, shared)?;
    let circuit = from_spec_ref(spec).map_err(|reason| error(400, &reason))?;
    Ok((circuit, config))
}

/// The shared serve path: answer from the body cache, or coalesce on the
/// content key and characterize once, and return the byte-stable report
/// body plus volatile `X-Afp-*` metadata headers.
///
/// A body is admitted to the body cache only when its request was
/// answered from a warm characterization-cache entry, never on a miss
/// or a coalesced join, so cold traffic holds no body memory. A body hit
/// counts as the characterization-cache hit it stands in for.
fn characterize_circuit(
    circuit: &ArithCircuit,
    config: &RequestConfig,
    shared: &Shared,
) -> (Arc<String>, Headers) {
    let key = config.key(circuit);
    let body_key = BodyKey::new(Endpoint::Characterize, key, circuit.name());
    let cached = shared.bodies.get(body_key, shared.counters());
    let (body, source, joined) = match cached {
        Some(body) => {
            Counters::add(&shared.counters().cache_hits, 1);
            (body, "hit", false)
        }
        None => {
            let warm = shared.cache.contains(key);
            let (body, joined) = shared.inflight.run(key, || {
                Counters::max(
                    &shared.counters().inflight_peak,
                    shared.inflight.len() as u64,
                );
                let mut scratch = CharacterizeScratch::default();
                let record = characterize_request(
                    circuit,
                    config,
                    &shared.rt,
                    Some(&shared.cache),
                    &mut scratch,
                );
                let mut json = request_report(&record).to_json();
                json.push('\n');
                Arc::new(json)
            });
            if joined {
                Counters::add(&shared.counters().requests_coalesced, 1);
            } else if warm {
                shared
                    .bodies
                    .insert(body_key, Arc::clone(&body), shared.counters());
            }
            let source = if warm {
                "hit"
            } else if joined {
                "coalesced"
            } else {
                "miss"
            };
            (body, source, joined)
        }
    };
    let headers = vec![
        (
            "X-Afp-Coalesced",
            if joined { "1" } else { "0" }.to_string(),
        ),
        ("X-Afp-Cache", source.to_string()),
    ];
    (body, headers)
}

/// `GET /characterize?spec=mul8:trunc:3[&target=NAME]`
fn characterize_spec(req: &Request, shared: &Shared) -> Response {
    let (circuit, config) = match spec_request(req, shared) {
        Ok(parsed) => parsed,
        Err(response) => return response,
    };
    let (body, headers) = characterize_circuit(&circuit, config, shared);
    Counters::add(&shared.counters().requests_served, 1);
    (200, headers, Body::Shared(body))
}

/// The best persisted model for `param` in a loaded zoo: fidelity
/// ranking with ML-only models preferred over the plain ASIC
/// regressions (matching the flow's selection policy), restricted to
/// models the container actually holds.
fn best_persisted_model(saved: &SavedZoo, param: FpgaParam) -> Option<MlModelId> {
    let mut ranked = saved.zoo.top_models(param, usize::MAX, false);
    ranked.extend(saved.zoo.top_models(param, usize::MAX, true));
    ranked.into_iter().find(|&m| saved.zoo.has_model(m, param))
}

/// JSON field names for the per-parameter estimate section.
fn estimate_fields(param: FpgaParam) -> (&'static str, &'static str) {
    match param {
        FpgaParam::Latency => ("model_latency", "latency_ns"),
        FpgaParam::Power => ("model_power", "power_mw"),
        FpgaParam::Area => ("model_area", "area_luts"),
    }
}

/// The rendered `/estimate` body of `circuit` under `zoo`.
fn render_estimate(circuit: &ArithCircuit, target: &str, zoo: &LoadedZoo) -> String {
    let features = estimate_features(
        circuit,
        &afp_asic::AsicConfig::default(),
        zoo.saved.zoo.layout(),
    );
    let mut section = Section::new("estimate")
        .field("name", Value::Str(circuit.name().to_string()))
        .field("kind", Value::Str(circuit.kind().mnemonic().to_string()))
        .field("width", Value::UInt(circuit.width() as u64))
        .field("target", Value::Str(target.to_string()))
        .field("source", Value::Str("model".to_string()));
    for &(param, model) in &zoo.best {
        let value = zoo
            .saved
            .zoo
            .estimate_row(model, param, &features)
            .unwrap_or(f64::NAN);
        let (model_field, value_field) = estimate_fields(param);
        section = section
            .field(model_field, Value::Str(model.label().to_string()))
            .field(value_field, Value::Num(value));
    }
    let mut report = RunReport::new();
    report.push_section(section);
    let mut body = report.to_json();
    body.push('\n');
    body
}

/// `GET /estimate?spec=add8:rca[&target=NAME]` — score the circuit with
/// the persisted trained zoo instead of running the characterization
/// pipeline: structural features plus one (uncounted, analytic) ASIC
/// pass feed the best model per FPGA parameter. Microseconds, zero
/// `asic_synths`/`fpga_synths` counter movement. When no loaded zoo
/// covers the `(kind, width, target)`, falls back to the full
/// `/characterize` path (flagged `X-Afp-Estimate: fallback`) — or
/// answers `404` under estimate-only mode.
fn estimate_spec(req: &Request, shared: &Shared) -> Response {
    let (circuit, config) = match spec_request(req, shared) {
        Ok(parsed) => parsed,
        Err(response) => return response,
    };
    let target = config.fpga.target.as_str();
    let zoo = shared
        .zoos
        .iter()
        .find(|z| z.saved.target == target && z.saved.covers(circuit.kind(), circuit.width()));
    let Some(zoo) = zoo else {
        if shared.estimate_only {
            let spec = req.query_param("spec").unwrap_or_default();
            return error(
                404,
                &format!(
                    "no loaded model zoo covers `{spec}` on target `{target}` \
                     (estimate-only mode; no characterization fallback)"
                ),
            );
        }
        // Fall back to the full measured path, flagged so the client
        // can tell this answer was characterized, not estimated.
        let (body, mut headers) = characterize_circuit(&circuit, config, shared);
        headers.push(("X-Afp-Estimate", "fallback".to_string()));
        Counters::add(&shared.counters().requests_served, 1);
        return (200, headers, Body::Shared(body));
    };

    // A hot estimate skips even the feature extraction. Bodies are
    // byte-stable, so serving the cached bytes is indistinguishable
    // from recomputing them.
    let body_key = BodyKey::new(Endpoint::Estimate, config.key(&circuit), circuit.name());
    let (body, model_cache) = match shared.bodies.get(body_key, shared.counters()) {
        Some(body) => {
            Counters::add(&shared.counters().model_cache_hits, 1);
            (body, "hit")
        }
        None => {
            let body = Arc::new(render_estimate(&circuit, target, zoo));
            shared
                .bodies
                .insert(body_key, Arc::clone(&body), shared.counters());
            (body, "miss")
        }
    };
    Counters::add(&shared.counters().requests_served, 1);
    Counters::add(&shared.counters().estimates_served, 1);
    (
        200,
        vec![
            ("X-Afp-Estimate", "model".to_string()),
            ("X-Afp-Model-Cache", model_cache.to_string()),
        ],
        Body::Shared(body),
    )
}

/// `POST /characterize?kind=add|mul&width=N[&target=NAME]` with a
/// Bristol-format netlist body.
fn characterize_bristol(req: &Request, shared: &Shared) -> Response {
    let kind = match req.query_param("kind") {
        Some("add") => ArithKind::Adder,
        Some("mul") => ArithKind::Multiplier,
        Some(other) => return error(400, &format!("unknown kind `{other}`")),
        None => return error(400, "missing `kind` query parameter"),
    };
    let width: usize = match req.query_param("width").map(str::parse) {
        Some(Ok(w)) => w,
        _ => return error(400, "missing or malformed `width` query parameter"),
    };
    let config = match target_config(req, shared) {
        Ok(config) => config,
        Err(response) => return response,
    };
    let Ok(source) = std::str::from_utf8(&req.body) else {
        return error(400, "body is not UTF-8 Bristol text");
    };
    let netlist = match afp_netlist::bristol::from_bristol(source) {
        Ok(netlist) => netlist,
        Err(e) => return error(400, &format!("bad Bristol netlist: {e}")),
    };
    let circuit = match ArithCircuit::try_new(kind, width, netlist) {
        Ok(circuit) => circuit,
        Err(e) => return error(400, &e.to_string()),
    };
    let (body, headers) = characterize_circuit(&circuit, config, shared);
    Counters::add(&shared.counters().requests_served, 1);
    (200, headers, Body::Shared(body))
}

/// `POST /characterize/batch[?target=NAME]` with an `.afps` library
/// payload; responds with a JSON array of per-circuit reports.
fn characterize_batch(req: &Request, shared: &Shared) -> Response {
    let config = match target_config(req, shared) {
        Ok(config) => config,
        Err(response) => return response,
    };
    if req.body.is_empty() {
        return error(400, "empty batch body; expected .afps bytes");
    }
    match characterize_library(&req.body, config, shared) {
        Ok(body) => {
            Counters::add(&shared.counters().requests_served, 1);
            (200, Vec::new(), Body::Owned(body))
        }
        Err(e) => error(400, &format!("bad .afps payload: {e}")),
    }
}

/// The JSON array of per-circuit reports of the `.afps` store image
/// `bytes`, decoded in memory.
fn characterize_library(
    bytes: &[u8],
    config: &RequestConfig,
    shared: &Shared,
) -> io::Result<Vec<u8>> {
    let mut out = Vec::from(&b"["[..]);
    for (i, item) in stream_library_bytes(bytes)?.enumerate() {
        let (body, _) = characterize_circuit(&item?, config, shared);
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(body.trim_end().as_bytes());
    }
    out.extend_from_slice(b"]\n");
    Ok(out)
}

/// The `GET /stats` report: serve counters, cache state, and the run
/// report's `runtime` section — the full Counters → RunReport → endpoint
/// chain. Counter fields come from the registry via [`counter_section`];
/// derived values follow them.
fn stats_report(shared: &Shared) -> RunReport {
    let snap = shared.rt.snapshot();
    let last_write_error = match shared.cache.last_write_error() {
        Some(err) => Value::Str(err),
        None => Value::Null,
    };
    let mut report = RunReport::new();
    report.push_section(
        counter_section(ReportSection::Serve, &snap)
            .field("queue_depth", Value::UInt(shared.queue_depth as u64))
            .field("threads", Value::UInt(shared.threads as u64))
            .field(
                "body_cache_entries",
                Value::UInt(shared.bodies.len() as u64),
            ),
    );
    let model_targets = shared
        .zoos
        .iter()
        .map(|z| z.saved.target.as_str())
        .collect::<Vec<_>>()
        .join(",");
    report.push_section(
        counter_section(ReportSection::Estimate, &snap)
            .field("models_loaded", Value::UInt(shared.zoos.len() as u64))
            .field(
                "model_targets",
                if model_targets.is_empty() {
                    Value::Null
                } else {
                    Value::Str(model_targets)
                },
            )
            .field("estimate_only", Value::Bool(shared.estimate_only)),
    );
    report.push_section(
        Section::new("cache")
            .field("hits", Value::UInt(snap.cache_hits))
            .field("misses", Value::UInt(snap.cache_misses))
            .field("entries", Value::UInt(shared.cache.len() as u64))
            .field("evictions", Value::UInt(snap.cache_evictions))
            .field("write_errors", Value::UInt(snap.cache_write_errors))
            .field("last_write_error", last_write_error),
    );
    report.push_section(counter_section(ReportSection::Runtime, &snap));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    fn start(config: ServeConfig) -> ServerHandle {
        serve(config).expect("server starts")
    }

    fn request(addr: SocketAddr, raw: &str) -> (u16, Vec<String>, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(raw.as_bytes()).expect("send");
        let mut reader = BufReader::new(stream);
        let mut status_line = String::new();
        reader.read_line(&mut status_line).expect("status line");
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let mut headers = Vec::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).expect("header line");
            let line = line.trim_end().to_string();
            if line.is_empty() {
                break;
            }
            headers.push(line);
        }
        let mut body = String::new();
        reader.read_to_string(&mut body).expect("body");
        (status, headers, body)
    }

    /// The keys of one flat section of a `/stats` document, in order.
    fn section_keys(stats: &str, section: &str) -> Vec<String> {
        let open = format!("\"{section}\":{{");
        let start = stats.find(&open).expect("section present") + open.len();
        let body = &stats[start..start + stats[start..].find('}').unwrap()];
        body.split(',')
            .map(|field| {
                field
                    .split(':')
                    .next()
                    .unwrap()
                    .trim_matches('"')
                    .to_string()
            })
            .collect()
    }

    fn get(addr: SocketAddr, target: &str) -> (u16, Vec<String>, String) {
        request(
            addr,
            &format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
        )
    }

    /// One response off a kept-alive stream: status, headers, and a
    /// `Content-Length`-delimited body (no reliance on EOF).
    fn read_keepalive_response(reader: &mut BufReader<TcpStream>) -> (u16, Vec<String>, String) {
        let mut status_line = String::new();
        reader.read_line(&mut status_line).expect("status line");
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).expect("header line");
            let line = line.trim_end().to_string();
            if line.is_empty() {
                break;
            }
            if let Some(v) = line.strip_prefix("Content-Length: ") {
                content_length = v.parse().expect("content length");
            }
            headers.push(line);
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).expect("body");
        (
            status,
            headers,
            String::from_utf8(body).expect("utf-8 body"),
        )
    }

    /// Train a tiny zoo once per test binary, save it as `.afpm`, and
    /// hand every test the same path.
    fn saved_zoo_path() -> &'static std::path::Path {
        static PATH: std::sync::OnceLock<PathBuf> = std::sync::OnceLock::new();
        PATH.get_or_init(|| {
            let lib = afp_circuits::build_library(&afp_circuits::LibrarySpec::new(
                ArithKind::Adder,
                8,
                40,
            ));
            let records = approxfpgas::dataset::characterize_library(
                &lib,
                &afp_asic::AsicConfig::default(),
                &afp_fpga::FpgaConfig::default(),
                &afp_error::ErrorConfig::default(),
            );
            let subset = approxfpgas::dataset::sample_subset(records.len(), 0.5, 20, 7);
            let (train, val) = approxfpgas::dataset::train_validate_split(&subset, 0.8, 7);
            let zoo = approxfpgas::fidelity::train_zoo(
                &records,
                &train,
                &val,
                &[MlModelId::Ml1, MlModelId::Ml14],
                0.01,
            );
            let path =
                std::env::temp_dir().join(format!("afp-serve-zoo-{}.afpm", std::process::id()));
            approxfpgas::save_zoo(
                &path,
                &zoo,
                afp_fpga::target::DEFAULT_TARGET,
                &[(ArithKind::Adder, 8)],
            )
            .expect("zoo saves");
            path
        })
    }

    #[test]
    fn serves_spec_stats_and_errors() {
        let server = start(ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        });
        let addr = server.addr().unwrap();

        let (status, _, body) = get(addr, "/healthz");
        assert_eq!((status, body.as_str()), (200, "{\"ok\":true}\n"));

        let (status, headers, body) = get(addr, "/characterize?spec=add8:rca");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"name\":\"add8u_rca\""));
        assert!(headers.iter().any(|h| h == "X-Afp-Cache: miss"));

        // Same request again: warm, still byte-identical.
        let (status, headers, again) = get(addr, "/characterize?spec=add8:rca");
        assert_eq!(status, 200);
        assert_eq!(again, body);
        assert!(headers.iter().any(|h| h == "X-Afp-Cache: hit"));

        let (status, _, body) = get(addr, "/characterize?spec=add8:rca&target=nope");
        assert_eq!(status, 400);
        assert!(body.contains("unknown target"));

        let (status, _, body) = get(addr, "/characterize?spec=add99:rca");
        assert_eq!(status, 400, "{body}");

        let (status, _, body) = get(addr, "/stats");
        assert_eq!(status, 200);
        assert!(body.contains("\"requests_served\":2"), "{body}");
        assert!(body.contains("\"asic_synths\":1"), "{body}");
        // Every (section, key) pair earlier releases served stays served,
        // and `runtime` is the run report's section, key for key.
        let previous: [(&str, &[&str]); 4] = [
            (
                "serve",
                &[
                    "requests_served",
                    "requests_coalesced",
                    "queue_rejections",
                    "inflight_peak",
                    "queue_depth",
                    "threads",
                    "keepalive_reuses",
                ],
            ),
            (
                "estimate",
                &[
                    "estimates_served",
                    "model_cache_hits",
                    "models_loaded",
                    "model_targets",
                    "estimate_only",
                ],
            ),
            (
                "cache",
                &[
                    "hits",
                    "misses",
                    "entries",
                    "evictions",
                    "write_errors",
                    "last_write_error",
                ],
            ),
            ("runtime", &["asic_synths", "fpga_synths", "error_analyses"]),
        ];
        for (section, keys) in previous {
            let served = section_keys(&body, section);
            for key in keys {
                assert!(
                    served.iter().any(|k| k == key),
                    "/stats lost {section}.{key}: {body}"
                );
            }
        }
        assert_eq!(
            section_keys(&body, "runtime"),
            [
                "tasks_executed",
                "steals",
                "asic_synths",
                "fpga_synths",
                "error_analyses",
                "bytes_simulated",
                "sim_nodes_shared",
                "cuts_merged",
                "cuts_sig_rejected",
                "cuts_dominance_pruned",
                "mapper_reuses",
                "sim_tape_reuses",
                "structural_dedup_hits",
                "shards_streamed",
                "peak_resident_circuits",
                "zoo_memo_hits",
                "zoo_memo_misses",
                "zoo_memo_errors"
            ]
        );

        let (status, _, _) = get(addr, "/nope");
        assert_eq!(status, 404);
        let (status, _, _) = request(addr, "POST /stats HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert_eq!(status, 405);
        let (status, _, _) = request(addr, "POST /estimate HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert_eq!(status, 405, "estimate is GET-only");

        server.shutdown();
    }

    #[test]
    fn keepalive_connection_serves_pipelined_requests_on_one_socket() {
        let server = start(ServeConfig {
            threads: 1,
            ..ServeConfig::default()
        });
        let addr = server.addr().unwrap();
        const N: u64 = 6;

        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        // Pipeline: every request is written before the first response
        // is read. Only the last one asks the server to close.
        let mut raw = String::new();
        for i in 0..N {
            let conn = if i == N - 1 {
                "Connection: close\r\n"
            } else {
                ""
            };
            raw.push_str(&format!(
                "GET /characterize?spec=add8:rca HTTP/1.1\r\nHost: t\r\n{conn}\r\n"
            ));
        }
        writer.write_all(raw.as_bytes()).expect("send pipeline");

        let mut bodies = Vec::new();
        for i in 0..N {
            let (status, headers, body) = read_keepalive_response(&mut reader);
            assert_eq!(status, 200, "request {i}: {body}");
            let want_close = i == N - 1;
            assert!(
                headers.iter().any(|h| h
                    == &format!(
                        "Connection: {}",
                        if want_close { "close" } else { "keep-alive" }
                    )),
                "request {i}: {headers:?}"
            );
            bodies.push(body);
        }
        for body in &bodies[1..] {
            assert_eq!(
                body, &bodies[0],
                "keep-alive responses must be byte-identical"
            );
        }

        let snap = server.shutdown();
        assert_eq!(snap.requests_served, N);
        assert_eq!(
            snap.keepalive_reuses,
            N - 1,
            "every request after the first reuses the connection"
        );
        assert_eq!(
            snap.asic_synths, 1,
            "one characterization feeds all pipelined requests"
        );
    }

    #[test]
    fn keepalive_request_cap_closes_the_connection() {
        let server = start(ServeConfig {
            threads: 1,
            keepalive_requests: 2,
            ..ServeConfig::default()
        });
        let addr = server.addr().unwrap();
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        writer
            .write_all(b"GET /healthz HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n")
            .expect("send");
        let (_, headers, _) = read_keepalive_response(&mut reader);
        assert!(headers.iter().any(|h| h == "Connection: keep-alive"));
        let (_, headers, _) = read_keepalive_response(&mut reader);
        assert!(
            headers.iter().any(|h| h == "Connection: close"),
            "cap reached: server must announce close: {headers:?}"
        );
        // The server actually closes: the stream reaches EOF.
        let mut rest = String::new();
        reader.read_to_string(&mut rest).expect("eof");
        assert!(rest.is_empty());
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_behind_shutdown_are_drained() {
        let server = start(ServeConfig {
            threads: 1,
            ..ServeConfig::default()
        });
        let addr = server.addr().unwrap();
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        // A characterization, the shutdown itself, and two more
        // requests pipelined *behind* the shutdown — all in one write.
        // Every one of them was received before the drain began, so
        // every one must be answered.
        writer
            .write_all(
                b"GET /characterize?spec=add8:rca HTTP/1.1\r\n\r\n\
                  POST /shutdown HTTP/1.1\r\n\r\n\
                  GET /stats HTTP/1.1\r\n\r\n\
                  GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
            )
            .expect("send pipeline");
        let (status, _, body) = read_keepalive_response(&mut reader);
        assert_eq!(status, 200, "{body}");
        let (status, _, body) = read_keepalive_response(&mut reader);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("draining"));
        let (status, _, body) = read_keepalive_response(&mut reader);
        assert_eq!(
            status, 200,
            "pipelined request behind shutdown dropped: {body}"
        );
        assert!(body.contains("keepalive_reuses"), "{body}");
        let (status, _, body) = read_keepalive_response(&mut reader);
        assert_eq!(
            status, 200,
            "pipelined request behind shutdown dropped: {body}"
        );
        assert!(body.contains("\"ok\":true"));
        server.join();
    }

    #[test]
    fn estimate_answers_from_models_without_synthesis() {
        let path = saved_zoo_path().to_path_buf();
        let server = start(ServeConfig {
            threads: 1,
            models: vec![path],
            ..ServeConfig::default()
        });
        let addr = server.addr().unwrap();

        let (status, headers, body) = get(addr, "/estimate?spec=add8:rca");
        assert_eq!(status, 200, "{body}");
        assert!(
            headers.iter().any(|h| h == "X-Afp-Estimate: model"),
            "{headers:?}"
        );
        assert!(headers.iter().any(|h| h == "X-Afp-Model-Cache: miss"));
        assert!(body.contains("\"latency_ns\":"), "{body}");
        assert!(body.contains("\"power_mw\":"), "{body}");
        assert!(body.contains("\"area_luts\":"), "{body}");

        // Second ask: served from the body cache, byte-identical.
        let (status, headers, again) = get(addr, "/estimate?spec=add8:rca");
        assert_eq!(status, 200);
        assert_eq!(again, body);
        assert!(headers.iter().any(|h| h == "X-Afp-Model-Cache: hit"));

        // A shape the zoo does not cover falls back to the measured
        // path and says so.
        let (status, headers, body) = get(addr, "/estimate?spec=mul4:array");
        assert_eq!(status, 200, "{body}");
        assert!(
            headers.iter().any(|h| h == "X-Afp-Estimate: fallback"),
            "{headers:?}"
        );
        assert!(body.contains("\"fpga\":{"), "{body}");

        let snap = server.shutdown();
        assert_eq!(snap.estimates_served, 2);
        assert_eq!(snap.model_cache_hits, 1);
        // Only the fallback touched the synthesis pipeline: the model
        // path moved no synthesis counters at all.
        assert_eq!(snap.asic_synths, 1);
        assert_eq!(snap.fpga_synths, 1);
        assert_eq!(snap.requests_served, 3);
    }

    #[test]
    fn estimate_only_refuses_uncovered_requests() {
        let path = saved_zoo_path().to_path_buf();
        let server = start(ServeConfig {
            threads: 1,
            models: vec![path],
            estimate_only: true,
            ..ServeConfig::default()
        });
        let addr = server.addr().unwrap();
        let (status, _, body) = get(addr, "/estimate?spec=add8:rca");
        assert_eq!(status, 200, "{body}");
        let (status, _, body) = get(addr, "/estimate?spec=mul4:array");
        assert_eq!(status, 404, "{body}");
        assert!(body.contains("estimate-only"), "{body}");
        let snap = server.shutdown();
        assert_eq!(snap.asic_synths, 0, "estimate-only mode never synthesizes");
        assert_eq!(snap.fpga_synths, 0);
    }

    #[test]
    fn bristol_post_validates_interface_before_construction() {
        let server = start(ServeConfig {
            threads: 1,
            ..ServeConfig::default()
        });
        let addr = server.addr().unwrap();
        let netlist = afp_circuits::from_spec_ref("add4:rca").unwrap();
        let bristol = afp_netlist::bristol::to_bristol(netlist.netlist());

        let post = |query: &str, body: &str| {
            request(
                addr,
                &format!(
                    "POST /characterize{query} HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                ),
            )
        };

        let (status, _, body) = post("?kind=add&width=4", &bristol);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"kind\":\"add\""));

        // Wrong declared width: rejected cleanly, not a panic.
        let (status, _, body) = post("?kind=add&width=8", &bristol);
        assert_eq!(status, 400);
        assert!(body.contains("inputs"), "{body}");
        // Wrong kind for the output count.
        let (status, _, _) = post("?kind=mul&width=4", &bristol);
        assert_eq!(status, 400);
        // Garbage body.
        let (status, _, _) = post("?kind=add&width=4", "not bristol");
        assert_eq!(status, 400);

        // The worker survived all of that.
        let (status, _, _) = get(addr, "/healthz");
        assert_eq!(status, 200);
        server.shutdown();
    }

    #[test]
    fn shutdown_endpoint_drains_and_stops() {
        let server = start(ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        });
        let addr = server.addr().unwrap();
        let (status, _, body) =
            request(addr, "POST /shutdown HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert_eq!(status, 200);
        assert!(body.contains("draining"));
        server.join();
        // The listener is gone (either refused or reset once joined).
        assert!(
            TcpStream::connect_timeout(&addr, Duration::from_millis(200))
                .map(|mut s| {
                    let _ = s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
                    let mut buf = String::new();
                    s.read_to_string(&mut buf)
                        .map(|_| buf.is_empty())
                        .unwrap_or(true)
                })
                .unwrap_or(true)
        );
    }

    #[test]
    fn rejects_bad_config() {
        let err = serve(ServeConfig {
            queue_depth: 0,
            ..ServeConfig::default()
        })
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let err = serve(ServeConfig {
            default_target: "not-a-target".to_string(),
            ..ServeConfig::default()
        })
        .unwrap_err();
        assert!(err.to_string().contains("unknown default target"));
        let err = serve(ServeConfig {
            keepalive_requests: 0,
            ..ServeConfig::default()
        })
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let err = serve(ServeConfig {
            estimate_only: true,
            ..ServeConfig::default()
        })
        .unwrap_err();
        assert!(err.to_string().contains("estimate-only"), "{err}");
        let err = serve(ServeConfig {
            models: vec![PathBuf::from("/nonexistent/zoo.afpm")],
            ..ServeConfig::default()
        })
        .unwrap_err();
        assert!(err.to_string().contains("loading model zoo"), "{err}");
    }

    #[test]
    fn config_errors_name_the_flag() {
        let cases = [
            (
                ServeConfig {
                    queue_depth: 0,
                    ..ServeConfig::default()
                },
                "--queue-depth",
            ),
            (
                ServeConfig {
                    keepalive_requests: 0,
                    ..ServeConfig::default()
                },
                "--keepalive-requests",
            ),
            (
                ServeConfig {
                    keepalive_idle: Duration::ZERO,
                    ..ServeConfig::default()
                },
                "--idle-timeout-ms",
            ),
            (
                ServeConfig {
                    estimate_only: true,
                    ..ServeConfig::default()
                },
                "--models",
            ),
        ];
        for (config, flag) in cases {
            let err = serve(config).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
            assert!(err.to_string().contains(flag), "{flag}: {err}");
        }
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_round_trip() {
        let path = std::env::temp_dir().join(format!("afp-serve-test-{}.sock", std::process::id()));
        let server = start(ServeConfig {
            bind: Bind::Unix(path.clone()),
            threads: 1,
            ..ServeConfig::default()
        });
        assert!(server.addr().is_none());
        let mut stream = UnixStream::connect(&path).expect("unix connect");
        stream
            .write_all(b"GET /characterize?spec=mul4:array HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.contains("\"name\":\"mul4u_arr\""), "{response}");
        server.shutdown();
        assert!(!path.exists(), "socket file should be removed on drain");
    }
}
