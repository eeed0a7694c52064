//! End-to-end tests of the `afp serve` characterization service: the
//! coalescing contract (N identical concurrent requests, one
//! characterization, byte-identical bodies), bounded-queue backpressure
//! (429, never a panic or a hang), graceful drain (an accepted
//! request is never dropped by shutdown), the persisted-zoo estimate
//! fast path over a kept-alive connection, and the rendered-body cache
//! (byte-identical hits, canonical keys, warm-only admission, a byte
//! budget that holds).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::Duration;

use afp_circuits::ArithKind;
use afp_ml::MlModelId;
use afp_serve::{serve, ServeConfig, ServerHandle, BODY_CACHE_BYTES};

/// The `serve_load` vocabulary: every spec is asked on every target.
const SPECS: [&str; 13] = [
    "add8:rca",
    "add8:cla",
    "add8:csel",
    "add8:cskip",
    "add8:loa:2",
    "add8:trunc:3",
    "add8:nocarry:2",
    "add8:gear:2:2",
    "mul8:array",
    "mul8:wallace",
    "mul8:trunc:4",
    "mul8:broken:6:4",
    "mul8:compressor:3",
];
const TARGETS: [&str; 4] = [
    "lut4-ice40",
    "lut6-7series",
    "lut6-ultrascale",
    "alm-stratix",
];

fn start(threads: usize, queue_depth: usize) -> ServerHandle {
    serve(ServeConfig {
        threads,
        queue_depth,
        ..ServeConfig::default()
    })
    .expect("server starts")
}

/// One blocking request over a fresh connection: returns the status
/// code and the body (everything after the blank line).
fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(
            format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("send");
    read_response(&mut stream)
}

/// One response off a kept-alive stream, delimited by `Content-Length`
/// instead of EOF: (status, headers, body).
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
    (status, headers, String::from_utf8(body).expect("utf-8"))
}

/// Send one request on a kept-alive connection and read its response.
fn ask(reader: &mut BufReader<TcpStream>, target: &str) -> (u16, Vec<String>, String) {
    reader
        .get_mut()
        .write_all(format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .expect("send");
    read_keepalive_response(reader)
}

fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
    BufReader::new(TcpStream::connect(addr).expect("connect"))
}

/// A numeric field of the `/stats` document, e.g. `body_cache_entries`.
fn stat(stats: &str, key: &str) -> u64 {
    let open = format!("\"{key}\":");
    let at = stats
        .find(&open)
        .unwrap_or_else(|| panic!("no {key}: {stats}"))
        + open.len();
    let digits: String = stats[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("numeric stat")
}

/// The body `afp serve` must send for `spec` on `target`: the
/// in-process report of a fresh, uncached characterization.
fn direct_report(spec: &str, target: &str) -> String {
    let circuit = afp_circuits::from_spec_ref(spec).unwrap();
    let profile = afp_fpga::target::named(target).unwrap();
    let config = approxfpgas::RequestConfig::for_target_config(
        profile.apply(&afp_fpga::FpgaConfig::default()),
    );
    let record = approxfpgas::characterize_request(
        &circuit,
        &config,
        &afp_runtime::Runtime::serial(),
        None,
        &mut approxfpgas::record::CharacterizeScratch::default(),
    );
    format!("{}\n", approxfpgas::request_report(&record).to_json())
}

fn read_response(stream: &mut TcpStream) -> (u16, String) {
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("recv");
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn concurrent_identical_requests_characterize_once_with_identical_bodies() {
    const N: usize = 12;
    let server = start(4, 64);
    let addr = server.addr().unwrap();
    let barrier = Barrier::new(N);

    let bodies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    let (status, body) =
                        get(addr, "/characterize?spec=mul8:wallace&target=lut4-ice40");
                    assert_eq!(status, 200, "{body}");
                    body
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Byte-identical bodies, equal to the direct library-level report.
    let want = direct_report("mul8:wallace", "lut4-ice40");
    for body in &bodies {
        assert_eq!(body, &want);
    }

    // The counters prove coalescing: exactly one characterization ran,
    // and every non-leader either joined the in-flight computation or
    // hit the cache it populated — no third path. A body-cache hit
    // counts as the cache hit it stands in for. The body is admitted by
    // the first warm answer only, so it is held exactly when some
    // request was a hit.
    let snap = server.snapshot();
    assert_eq!(snap.asic_synths, 1, "identical requests recharacterized");
    assert_eq!(snap.fpga_synths, 1);
    assert_eq!(snap.error_analyses, 1);
    assert_eq!(snap.cache_misses, 1);
    assert_eq!(snap.requests_served, N as u64);
    assert_eq!(
        snap.requests_coalesced + snap.cache_hits,
        N as u64 - 1,
        "every non-leader must be a coalesced joiner or a cache hit"
    );
    let (_, stats) = get(addr, "/stats");
    assert_eq!(
        stat(&stats, "body_cache_entries"),
        u64::from(snap.cache_hits > 0),
        "{stats}"
    );
    assert!(snap.body_cache_hits < snap.cache_hits.max(1));

    // A second identical wave is all hits, warm or body, and the
    // invariant holds over both waves.
    std::thread::scope(|scope| {
        for _ in 0..N {
            scope.spawn(|| {
                let (status, body) = get(addr, "/characterize?spec=mul8:wallace&target=lut4-ice40");
                assert_eq!((status, body.as_str()), (200, want.as_str()));
            });
        }
    });
    let snap = server.shutdown();
    assert_eq!(snap.asic_synths, 1);
    assert_eq!(snap.cache_misses, 1);
    assert_eq!(snap.requests_coalesced + snap.cache_hits, 2 * N as u64 - 1);
    assert!(snap.body_cache_bytes > 0, "a warm wave admits the body");
}

#[test]
fn full_queue_answers_429_and_keeps_serving() {
    // One worker, queue depth one: with the worker parked on a
    // connection that never sends, a third connection must overflow the
    // queue — the acceptor answers 429 inline instead of queueing
    // without bound.
    let server = start(1, 1);
    let addr = server.addr().unwrap();

    let mut held: Vec<TcpStream> = (0..3)
        .map(|_| {
            let s = TcpStream::connect(addr).expect("connect");
            // Give the acceptor time to route this connection before the
            // next one arrives, so the overflow lands deterministically
            // on the last.
            std::thread::sleep(Duration::from_millis(100));
            s
        })
        .collect();

    let mut statuses: Vec<u16> = held
        .iter_mut()
        .map(|stream| {
            // The 429'd connection is already closed server-side; the
            // write may fail, and that is fine — the response is queued.
            let _ =
                stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
            let (status, _) = read_response(stream);
            status
        })
        .collect();
    drop(held);
    statuses.sort_unstable();
    assert!(
        statuses.iter().all(|s| *s == 200 || *s == 429),
        "unexpected statuses {statuses:?}"
    );
    assert!(statuses.contains(&200), "{statuses:?}");
    assert!(statuses.contains(&429), "{statuses:?}");

    // The server survived the overflow and still answers.
    let (status, body) = get(addr, "/characterize?spec=add8:rca");
    assert_eq!(status, 200, "{body}");
    let snap = server.shutdown();
    assert!(snap.queue_rejections >= 1);
}

#[test]
fn shutdown_drains_every_accepted_request() {
    // One worker so the backlog is deterministic: park it on a
    // connection that has not sent yet, queue three more, trigger
    // shutdown, and only then let the requests flow. All four were
    // accepted, so all four must be answered in full even though
    // shutdown fired before any of them was served.
    let server = start(1, 8);
    let addr = server.addr().unwrap();

    let specs = ["add8:rca", "add8:cla", "mul8:array", "mul8:trunc:2"];
    let mut held: Vec<TcpStream> = specs
        .iter()
        .map(|_| {
            let s = TcpStream::connect(addr).expect("connect");
            std::thread::sleep(Duration::from_millis(100));
            s
        })
        .collect();

    server.trigger_shutdown();
    std::thread::sleep(Duration::from_millis(100));

    for (stream, spec) in held.iter_mut().zip(specs) {
        stream
            .write_all(
                format!(
                    "GET /characterize?spec={spec} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
                )
                .as_bytes(),
            )
            .expect("send on accepted connection");
    }
    for (stream, spec) in held.iter_mut().zip(specs) {
        let (status, body) = read_response(stream);
        assert_eq!(status, 200, "{spec}: accepted request dropped: {body}");
        assert!(
            body.ends_with("}\n") && body.contains("\"fpga\":{"),
            "{spec}: truncated body {body}"
        );
    }

    // join returns only after the drain; the listener must be gone.
    let snap = server.join();
    assert_eq!(snap.requests_served, specs.len() as u64);
    let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(300))
        .map(|mut s| {
            // Some kernels complete the handshake from the backlog even
            // after close; an immediate EOF counts as "gone" too.
            let _ = s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
            let mut buf = String::new();
            s.read_to_string(&mut buf)
                .map(|_| buf.is_empty())
                .unwrap_or(true)
        })
        .unwrap_or(true);
    assert!(refused, "listener still answering after join");
}

/// Train a tiny adder zoo, persist it as `.afpm` claiming the `covers`
/// shapes, and return the path.
fn save_small_zoo(name: &str, covers: &[(ArithKind, usize)]) -> std::path::PathBuf {
    let lib = afp_circuits::build_library(&afp_circuits::LibrarySpec::new(ArithKind::Adder, 8, 40));
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
    let path = std::env::temp_dir().join(format!("afp-it-{name}-{}.afpm", std::process::id()));
    approxfpgas::save_zoo(&path, &zoo, afp_fpga::target::DEFAULT_TARGET, covers)
        .expect("zoo saves");
    path
}

#[test]
fn estimate_fast_path_over_keepalive_answers_without_synthesis() {
    let path = save_small_zoo("estimate", &[(ArithKind::Adder, 8)]);
    let server = serve(ServeConfig {
        threads: 2,
        models: vec![path.clone()],
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.addr().unwrap();

    // One kept-alive connection, a pipelined burst of estimate traffic:
    // three distinct specs, then the first spec twice more (cache hits),
    // then /stats — all written before the first response is read.
    let specs = ["add8:rca", "add8:cla", "add8:csel", "add8:rca", "add8:rca"];
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut raw = String::new();
    for spec in specs {
        raw.push_str(&format!(
            "GET /estimate?spec={spec} HTTP/1.1\r\nHost: t\r\n\r\n"
        ));
    }
    raw.push_str("GET /stats HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    writer.write_all(raw.as_bytes()).expect("send pipeline");

    let mut first_body = None;
    for (i, spec) in specs.iter().enumerate() {
        let (status, headers, body) = read_keepalive_response(&mut reader);
        assert_eq!(status, 200, "{spec}: {body}");
        assert!(
            headers.iter().any(|h| h == "X-Afp-Estimate: model"),
            "{spec}: {headers:?}"
        );
        assert!(body.contains("\"latency_ns\":"), "{spec}: {body}");
        if i == 0 {
            first_body = Some(body);
        } else if *spec == specs[0] {
            assert_eq!(
                Some(&body),
                first_body.as_ref(),
                "repeat estimate must be byte-identical"
            );
        }
    }
    let (status, _, stats) = read_keepalive_response(&mut reader);
    assert_eq!(status, 200);
    assert!(stats.contains("\"models_loaded\":1"), "{stats}");

    let snap = server.shutdown();
    assert_eq!(snap.estimates_served, 5);
    assert_eq!(snap.model_cache_hits, 2);
    assert_eq!(snap.keepalive_reuses, 5, "six requests, one connection");
    assert_eq!(
        snap.asic_synths, 0,
        "the estimate path must never move the synthesis counters"
    );
    assert_eq!(snap.fpga_synths, 0);

    // A second server loading the same container serves byte-identical
    // estimates: persistence is exact, not approximate.
    let server2 = serve(ServeConfig {
        threads: 1,
        models: vec![path.clone()],
        ..ServeConfig::default()
    })
    .expect("server restarts");
    let addr2 = server2.addr().unwrap();
    let (status, body) = get(addr2, "/estimate?spec=add8:rca");
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        Some(&body),
        first_body.as_ref(),
        "estimates must survive a save/load/restart round trip byte-for-byte"
    );
    let snap2 = server2.shutdown();
    assert_eq!(snap2.asic_synths, 0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn body_cache_hits_are_byte_identical_to_fresh_reports() {
    let path = save_small_zoo(
        "bodies",
        &[(ArithKind::Adder, 8), (ArithKind::Multiplier, 8)],
    );
    let server = serve(ServeConfig {
        threads: 2,
        models: vec![path.clone()],
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.addr().unwrap();
    let mut conn = connect(addr);

    // Each pair: a miss, a warm hit that admits the body, a body hit.
    for spec in SPECS {
        for target in TARGETS {
            let path = format!("/characterize?spec={spec}&target={target}");
            let want = direct_report(spec, target);
            for (round, source) in ["miss", "hit", "hit"].into_iter().enumerate() {
                let (status, headers, body) = ask(&mut conn, &path);
                assert_eq!(status, 200, "{path}: {body}");
                assert!(
                    headers
                        .iter()
                        .any(|h| *h == format!("X-Afp-Cache: {source}")),
                    "{path} round {round}: {headers:?}"
                );
                assert_eq!(body, want, "{path} round {round}");
            }
        }
    }
    let pairs = (SPECS.len() * TARGETS.len()) as u64;
    let snap = server.snapshot();
    assert_eq!(snap.body_cache_hits, pairs);
    assert_eq!(
        snap.cache_hits,
        2 * pairs,
        "a body hit counts as a cache hit"
    );

    // Each estimate: the rendered miss, then a body hit of the same bytes.
    for spec in SPECS {
        let path = format!("/estimate?spec={spec}");
        let (status, headers, fresh) = ask(&mut conn, &path);
        assert_eq!(status, 200, "{path}: {fresh}");
        assert!(
            headers.iter().any(|h| h == "X-Afp-Model-Cache: miss"),
            "{headers:?}"
        );
        let (status, headers, hit) = ask(&mut conn, &path);
        assert_eq!(status, 200);
        assert!(
            headers.iter().any(|h| h == "X-Afp-Model-Cache: hit"),
            "{headers:?}"
        );
        assert_eq!(hit, fresh, "{path}");
    }
    let (_, _, stats) = ask(&mut conn, "/stats");
    let estimates = SPECS.len() as u64;
    assert_eq!(
        stat(&stats, "body_cache_entries"),
        pairs + estimates,
        "{stats}"
    );
    assert_eq!(
        stat(&stats, "body_cache_hits"),
        pairs + estimates,
        "{stats}"
    );
    assert_eq!(stat(&stats, "body_cache_evictions"), 0, "{stats}");
    assert_eq!(stat(&stats, "model_cache_hits"), estimates, "{stats}");
    drop(conn);
    let snap = server.shutdown();
    assert_eq!(snap.asic_synths, pairs, "hits never recharacterize");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn equivalent_spellings_share_one_body() {
    let path = save_small_zoo("spellings", &[(ArithKind::Multiplier, 8)]);
    let server = serve(ServeConfig {
        threads: 1,
        models: vec![path.clone()],
        ..ServeConfig::default()
    })
    .expect("server starts");
    let mut conn = connect(server.addr().unwrap());
    for endpoint in ["/characterize", "/estimate"] {
        let (_, _, first) = ask(&mut conn, &format!("{endpoint}?spec=mul8:udm:0ff"));
        let (_, _, warm) = ask(&mut conn, &format!("{endpoint}?spec=mul8:udm:0ff"));
        let before = server.snapshot().body_cache_hits;
        let (status, _, other) = ask(&mut conn, &format!("{endpoint}?spec=mul8:udm:ff"));
        assert_eq!(status, 200, "{other}");
        assert_eq!((&warm, &other), (&first, &first), "{endpoint}");
        assert_eq!(
            server.snapshot().body_cache_hits,
            before + 1,
            "{endpoint}: the other spelling must hit the same entry"
        );
    }
    let (_, _, stats) = ask(&mut conn, "/stats");
    assert_eq!(stat(&stats, "body_cache_entries"), 2, "{stats}");
    drop(conn);
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn only_a_warm_answer_admits_a_characterize_body() {
    let server = start(2, 16);
    let addr = server.addr().unwrap();
    let entries = || stat(&get(addr, "/stats").1, "body_cache_entries");

    // A cold miss admits nothing.
    let (status, _) = get(addr, "/characterize?spec=add8:cla");
    assert_eq!(status, 200);
    assert_eq!(entries(), 0);
    // The first warm hit admits the body; the next is a body hit.
    get(addr, "/characterize?spec=add8:cla");
    assert_eq!(entries(), 1);
    get(addr, "/characterize?spec=add8:cla");
    assert_eq!(server.snapshot().body_cache_hits, 1);

    // Concurrent twins of a fresh key: one miss, the other a coalesced
    // join (admits nothing) or a warm hit (admits one body).
    let before = server.snapshot();
    let barrier = Barrier::new(2);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                barrier.wait();
                assert_eq!(get(addr, "/characterize?spec=mul8:trunc:4").0, 200);
            });
        }
    });
    let twins = server.snapshot().since(&before);
    assert_eq!(twins.cache_misses, 1);
    assert_eq!(twins.requests_coalesced + twins.cache_hits, 1);
    assert_eq!(entries(), 1 + twins.cache_hits);
    server.shutdown();
}

#[test]
fn distinct_estimates_never_outgrow_the_byte_budget() {
    // 20,000 distinct specs: 2-bit underdesigned multipliers whose
    // masks differ (the high bits name the circuit but select no block).
    // Their bodies total well over the budget, so the cache must evict.
    const SPECS: u64 = 20_000;
    let path = save_small_zoo("budget", &[(ArithKind::Multiplier, 2)]);
    let server = serve(ServeConfig {
        threads: 1,
        models: vec![path.clone()],
        keepalive_requests: 2 * SPECS as usize,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let mut conn = connect(server.addr().unwrap());
    let mut peak = 0;
    for mask in 0..SPECS {
        let (status, _, body) = ask(&mut conn, &format!("/estimate?spec=mul2:udm:{mask:x}"));
        assert_eq!(status, 200, "{body}");
        let bytes = server.snapshot().body_cache_bytes;
        assert!(
            bytes <= BODY_CACHE_BYTES as u64,
            "mask {mask:x}: {bytes} bytes"
        );
        peak = peak.max(bytes);
    }
    let (_, _, stats) = ask(&mut conn, "/stats");
    let (entries, evictions) = (
        stat(&stats, "body_cache_entries"),
        stat(&stats, "body_cache_evictions"),
    );
    assert!(evictions > 0, "{stats}");
    assert_eq!(entries + evictions, SPECS, "{stats}");
    assert!(
        peak > BODY_CACHE_BYTES as u64 * 9 / 10,
        "the budget was reached: {peak}"
    );
    drop(conn);
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn one_and_two_thread_daemons_answer_cold_requests_byte_identically() {
    let specs = [
        "mul8:udm:1",
        "mul8:udm:a5",
        "mul8:udm:ffff",
        "mul8:trunc:4",
        "add8:loa:2",
        "mul16:trunc:8",
        "add16:loa:8",
    ];
    let bodies = |threads: usize| -> Vec<String> {
        let server = start(threads, 64);
        let mut conn = connect(server.addr().unwrap());
        let bodies = specs
            .iter()
            .map(|spec| {
                let path = format!("/characterize?spec={spec}");
                let (status, headers, body) = ask(&mut conn, &path);
                assert_eq!(status, 200, "{path}: {body}");
                assert!(
                    headers.iter().any(|h| h == "X-Afp-Cache: miss"),
                    "{path} at {threads} threads: {headers:?}"
                );
                body
            })
            .collect();
        drop(conn);
        server.shutdown();
        bodies
    };
    let (one, two) = (bodies(1), bodies(2));
    for ((spec, a), b) in specs.iter().zip(&one).zip(&two) {
        assert_eq!(a, b, "{spec}");
    }
}
