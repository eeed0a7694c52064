//! Characterization-service load measurement: wall time, throughput and
//! failure count of `afp serve` answering 1000 mixed-target requests
//! from 8 concurrent clients — over fresh connections, over keep-alive,
//! and through the persisted-zoo `GET /estimate` fast path.
//!
//! This is the regenerator behind EXPERIMENTS.md "Serve throughput" and
//! the `BENCH_serve.json` baseline. The claims pinned before any timing
//! is trusted:
//!
//! * **Zero failures** — every one of the 1000 requests in each burst
//!   must come back `200` with a parseable report body; a single
//!   failure aborts the bench.
//! * **Exactly one characterization per distinct request** — after the
//!   cold burst, `asic_synths` must equal the number of distinct
//!   `(spec, target)` pairs: coalescing plus the shared cache guarantee
//!   a repeated request never recomputes. Against a pre-warmed `--addr`
//!   daemon the exact pin relaxes to a bounded delta (and the warm
//!   bursts must still add zero characterizations).
//! * **Keep-alive actually reuses** — the keep-alive burst must advance
//!   `keepalive_reuses` by exactly `requests - clients` (every request
//!   after the first per connection).
//! * **Estimates never synthesize** — the `/estimate` burst must leave
//!   `asic_synths` untouched and advance `estimates_served` by the full
//!   burst size; every response must carry `X-Afp-Estimate: model`.
//!
//! Usage: `cargo run --release -p afp-bench --bin serve_load [--quick]
//!   [--addr HOST:PORT] [--shutdown]`
//!
//! By default an in-process server is started on a loopback port, with a
//! small zoo trained and persisted to a temporary `.afpm` so the
//! estimate path is exercised end to end (train → save → load → serve).
//! With `--addr` the burst targets an already-running `afp serve`
//! instead (counters are then read via `GET /stats`; the estimate burst
//! is skipped unless that daemon was started with `--models`), and
//! `--shutdown` additionally POSTs `/shutdown` when done — that pairing
//! is what the CI serve-smoke job drives.
//!
//! Writes `results/serve_load.csv`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use afp_bench::render::table;
use afp_bench::{stat_u64, write_csv};

/// Concurrent client threads per burst.
const CLIENTS: usize = 8;
/// Requests per client per burst (8 x 125 = 1000).
const PER_CLIENT: usize = 125;

/// The mixed request vocabulary: every spec crossed with every target.
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

/// One blocking HTTP request over a fresh connection; returns
/// `(status, body)`.
fn http(addr: &str, request: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("recv: {e}"))?;
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("unparseable response: {response:.60}"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

fn get(addr: &str, target: &str) -> Result<(u16, String), String> {
    http(
        addr,
        &format!("GET {target} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"),
    )
}

/// Read one `Content-Length`-delimited response from a kept-alive
/// connection; returns `(status, head, body)`.
fn read_keepalive_response(
    reader: &mut BufReader<TcpStream>,
) -> Result<(u16, String, String), String> {
    let mut head = String::new();
    loop {
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("recv head: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-response".to_string());
        }
        if line == "\r\n" {
            break;
        }
        head.push_str(&line);
    }
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("unparseable status line: {head:.60}"))?;
    let length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .ok_or_else(|| "response without Content-Length".to_string())?;
    let mut body = vec![0u8; length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("recv body: {e}"))?;
    Ok((status, head, String::from_utf8_lossy(&body).into_owned()))
}

/// Fire one 1000-request burst from `CLIENTS` threads; returns
/// `(wall_us, failures)`. Failures carry the first error for the panic
/// message.
fn burst(addr: &str) -> (f64, usize, Vec<String>) {
    let t = Instant::now();
    let results: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    for i in 0..PER_CLIENT {
                        // Stride by client so concurrent clients collide on
                        // the same (spec, target) pair constantly — the
                        // coalescing-hostile schedule.
                        let n = client * PER_CLIENT + i;
                        let spec = SPECS[n % SPECS.len()];
                        let target = TARGETS[n % TARGETS.len()];
                        let path = format!("/characterize?spec={spec}&target={target}");
                        match get(addr, &path) {
                            Ok((200, body)) if body.contains("\"fpga\"") => {}
                            Ok((status, body)) => {
                                return Err(format!("{path}: status {status}: {body:.120}"))
                            }
                            Err(e) => return Err(format!("{path}: {e}")),
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall_us = t.elapsed().as_secs_f64() * 1e6;
    let errors: Vec<String> = results.into_iter().filter_map(Result::err).collect();
    (wall_us, errors.len(), errors)
}

/// Fire one 1000-request burst where every client holds a single
/// kept-alive connection for its whole schedule. `path_of` maps the
/// global request number to a request path; `expect` is a substring
/// every response head+body must contain.
fn burst_keepalive(
    addr: &str,
    path_of: &(dyn Fn(usize) -> String + Sync),
    expect: &str,
) -> (f64, usize, Vec<String>) {
    let t = Instant::now();
    let results: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let stream =
                        TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                    let _ = stream.set_nodelay(true);
                    let mut reader = BufReader::new(stream);
                    for i in 0..PER_CLIENT {
                        let path = path_of(client * PER_CLIENT + i);
                        let request = format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n");
                        reader
                            .get_mut()
                            .write_all(request.as_bytes())
                            .map_err(|e| format!("{path}: send: {e}"))?;
                        let (status, head, body) = read_keepalive_response(&mut reader)
                            .map_err(|e| format!("{path}: {e}"))?;
                        if status != 200 {
                            return Err(format!("{path}: status {status}: {body:.120}"));
                        }
                        if !head.contains(expect) && !body.contains(expect) {
                            return Err(format!("{path}: response without `{expect}`"));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall_us = t.elapsed().as_secs_f64() * 1e6;
    let errors: Vec<String> = results.into_iter().filter_map(Result::err).collect();
    (wall_us, errors.len(), errors)
}

/// Train a small adder zoo and persist it as a temporary `.afpm`, so the
/// in-process server exercises the full train → save → load → serve
/// estimate path.
fn train_and_save_zoo() -> std::path::PathBuf {
    let lib = afp_circuits::build_library(&afp_circuits::LibrarySpec::new(
        afp_circuits::ArithKind::Adder,
        8,
        60,
    ));
    let records = approxfpgas::dataset::characterize_library(
        &lib,
        &afp_asic::AsicConfig::default(),
        &afp_fpga::FpgaConfig::default(),
        &afp_error::ErrorConfig::default(),
    );
    let subset = approxfpgas::dataset::sample_subset(records.len(), 0.5, 24, 7);
    let (train, val) = approxfpgas::dataset::train_validate_split(&subset, 0.8, 7);
    let zoo = approxfpgas::fidelity::train_zoo(
        &records,
        &train,
        &val,
        &[afp_ml::MlModelId::Ml1, afp_ml::MlModelId::Ml14],
        0.01,
    );
    let path = std::env::temp_dir().join(format!("afp-bench-zoo-{}.afpm", std::process::id()));
    approxfpgas::save_zoo(
        &path,
        &zoo,
        afp_fpga::DEFAULT_TARGET,
        &[(afp_circuits::ArithKind::Adder, 8)],
    )
    .expect("zoo saves");
    path
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let external_addr = args
        .iter()
        .position(|a| a == "--addr")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let shutdown_after = args.iter().any(|a| a == "--shutdown");
    let warm_runs = if quick { 1 } else { 3 };
    let distinct = SPECS.len() * TARGETS.len();
    let total = CLIENTS * PER_CLIENT;
    println!(
        "serve_load: {total} requests/burst from {CLIENTS} clients, {distinct} distinct \
         (spec, target) pairs, {warm_runs} warm run(s)\n"
    );

    // In-process server unless --addr points at a live daemon. The
    // in-process server loads a freshly trained-and-persisted zoo (so
    // the estimate burst runs the real `.afpm` load path) and gets one
    // worker per bench client — a kept-alive connection occupies its
    // worker for the whole burst.
    let mut zoo_path = None;
    let (addr, handle) = match &external_addr {
        Some(addr) => (addr.clone(), None),
        None => {
            let path = train_and_save_zoo();
            let handle = afp_serve::serve(afp_serve::ServeConfig {
                queue_depth: 2 * total,
                threads: CLIENTS,
                models: vec![path.clone()],
                ..afp_serve::ServeConfig::default()
            })
            .expect("in-process server starts");
            zoo_path = Some(path);
            (handle.addr().unwrap().to_string(), Some(handle))
        }
    };

    // An external daemon may already have served traffic or carry a warm
    // disk cache; the "exactly `distinct` characterizations" pin is only
    // provable from a genuinely fresh start. The warm-burst pin (no
    // recharacterization) holds either way, as a delta.
    let (status, stats) = get(&addr, "/stats").expect("stats");
    assert_eq!(status, 200, "{stats}");
    let baseline_asic = stat_u64(&stats, "runtime", "asic_synths");
    let fresh = baseline_asic == 0
        && stat_u64(&stats, "cache", "hits") == 0
        && stat_u64(&stats, "cache", "misses") == 0
        && stat_u64(&stats, "cache", "entries") == 0;
    if !fresh {
        println!(
            "note: daemon not fresh (asic_synths={baseline_asic}); \
             skipping the exact characterization-count pin"
        );
    }

    // Equivalence gate before any timing: a served body must be the
    // request_report of the direct library-level characterization.
    {
        let circuit = afp_circuits::from_spec_ref(SPECS[0]).unwrap();
        let profile = afp_fpga::target::named(TARGETS[0]).unwrap();
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
        let want = format!("{}\n", approxfpgas::request_report(&record).to_json());
        let (status, got) = get(
            &addr,
            &format!("/characterize?spec={}&target={}", SPECS[0], TARGETS[0]),
        )
        .expect("equivalence request");
        assert_eq!(status, 200, "{got}");
        assert_eq!(got, want, "served body diverged from the direct report");
    }

    let (cold_us, cold_errors, cold_messages) = burst(&addr);
    assert!(
        cold_errors == 0,
        "cold burst had {cold_errors} failed clients: {}",
        cold_messages.join("; ")
    );

    // The coalescing pin: every distinct pair characterized exactly once
    // (from a fresh start; otherwise the cold delta is bounded by it).
    let (status, stats) = get(&addr, "/stats").expect("stats");
    assert_eq!(status, 200, "{stats}");
    let asic_synths = stat_u64(&stats, "runtime", "asic_synths");
    if fresh {
        assert_eq!(
            asic_synths, distinct as u64,
            "expected exactly one characterization per distinct request\n{stats}"
        );
    } else {
        assert!(
            asic_synths - baseline_asic <= distinct as u64,
            "cold burst characterized more than the distinct vocabulary\n{stats}"
        );
    }
    let coalesced = stat_u64(&stats, "serve", "requests_coalesced");

    let mut warm_samples: Vec<f64> = (0..warm_runs)
        .map(|_| {
            let (us, errors, messages) = burst(&addr);
            assert!(
                errors == 0,
                "warm burst had {errors} failed clients: {}",
                messages.join("; ")
            );
            us
        })
        .collect();
    warm_samples.sort_by(|a, b| afp_ord::asc(*a, *b));
    let warm_us = warm_samples[warm_samples.len() / 2];

    let (status, stats) = get(&addr, "/stats").expect("stats");
    assert_eq!(status, 200, "{stats}");
    assert_eq!(
        stat_u64(&stats, "runtime", "asic_synths"),
        asic_synths,
        "warm bursts must not recharacterize\n{stats}"
    );
    let reuses_before = stat_u64(&stats, "serve", "keepalive_reuses");

    // Warm keep-alive burst: the same fully-cached schedule, but each
    // client holds one connection for all of its requests.
    let characterize_path = |n: usize| {
        let spec = SPECS[n % SPECS.len()];
        let target = TARGETS[n % TARGETS.len()];
        format!("/characterize?spec={spec}&target={target}")
    };
    let (keepalive_us, ka_errors, ka_messages) =
        burst_keepalive(&addr, &characterize_path, "\"fpga\"");
    assert!(
        ka_errors == 0,
        "keep-alive burst had {ka_errors} failed clients: {}",
        ka_messages.join("; ")
    );
    let (status, stats) = get(&addr, "/stats").expect("stats");
    assert_eq!(status, 200, "{stats}");
    assert_eq!(
        stat_u64(&stats, "runtime", "asic_synths"),
        asic_synths,
        "keep-alive burst must not recharacterize\n{stats}"
    );
    assert_eq!(
        stat_u64(&stats, "serve", "keepalive_reuses") - reuses_before,
        (total - CLIENTS) as u64,
        "every request after the first per connection must count as a reuse\n{stats}"
    );

    // Estimate burst: model answers only, over keep-alive. Skipped when
    // an external daemon carries no zoo (`--models` not passed to it).
    let models_loaded = stat_u64(&stats, "estimate", "models_loaded");
    let estimate_us = if models_loaded == 0 {
        println!("note: no model zoo loaded; skipping the /estimate burst");
        None
    } else {
        let covered: Vec<&str> = SPECS
            .iter()
            .copied()
            .filter(|s| s.starts_with("add8:"))
            .collect();
        let estimates_before = stat_u64(&stats, "estimate", "estimates_served");
        let estimate_path = |n: usize| {
            format!(
                "/estimate?spec={}&target={}",
                covered[n % covered.len()],
                afp_fpga::DEFAULT_TARGET
            )
        };
        let (us, errors, messages) =
            burst_keepalive(&addr, &estimate_path, "X-Afp-Estimate: model");
        assert!(
            errors == 0,
            "estimate burst had {errors} failed clients: {}",
            messages.join("; ")
        );
        let (status, stats) = get(&addr, "/stats").expect("stats");
        assert_eq!(status, 200, "{stats}");
        assert_eq!(
            stat_u64(&stats, "runtime", "asic_synths"),
            asic_synths,
            "the estimate fast path must never synthesize\n{stats}"
        );
        assert_eq!(
            stat_u64(&stats, "estimate", "estimates_served") - estimates_before,
            total as u64,
            "every estimate request must be answered from the zoo\n{stats}"
        );
        Some(us)
    };

    let (status, stats) = get(&addr, "/stats").expect("stats");
    assert_eq!(status, 200, "{stats}");
    let served = stat_u64(&stats, "serve", "requests_served");

    if shutdown_after {
        let (status, _) = http(
            &addr,
            "POST /shutdown HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n",
        )
        .expect("shutdown");
        assert_eq!(status, 200);
    }
    if let Some(handle) = handle {
        handle.shutdown();
    }
    if let Some(path) = zoo_path {
        let _ = std::fs::remove_file(path);
    }

    let mut cases = vec![
        ("serve_cold_1000", cold_us),
        ("serve_warm_1000", warm_us),
        ("serve_warm_keepalive_1000", keepalive_us),
    ];
    if let Some(us) = estimate_us {
        cases.push(("serve_estimate_1000", us));
    }
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for (case, wall_us) in cases {
        let rps = total as f64 / (wall_us / 1e6);
        rows.push(vec![
            case.to_string(),
            format!("{total}"),
            format!("{CLIENTS}"),
            format!("{distinct}"),
            "0".to_string(),
            format!("{:.0}", wall_us),
            format!("{rps:.0}"),
        ]);
        csv_rows.push(vec![
            case.to_string(),
            format!("{total}"),
            format!("{CLIENTS}"),
            format!("{distinct}"),
            "0".to_string(),
            format!("{wall_us:.2}"),
            format!("{rps:.1}"),
        ]);
    }
    write_csv(
        "serve_load.csv",
        &[
            "case", "requests", "clients", "distinct", "errors", "wall_us", "rps",
        ],
        &csv_rows,
    );
    println!(
        "{}",
        table(
            &["case", "requests", "clients", "distinct", "errors", "wall us", "req/s"],
            &rows
        )
    );
    println!(
        "\ncold: {:.0} ms, warm: {:.0} ms, keep-alive: {:.0} ms ({:.2}x warm){}; \
         {served} served total, {coalesced} coalesced after the cold burst, \
         {asic_synths} characterizations",
        cold_us / 1e3,
        warm_us / 1e3,
        keepalive_us / 1e3,
        warm_us / keepalive_us,
        match estimate_us {
            Some(us) => format!(", estimate: {:.0} ms", us / 1e3),
            None => String::new(),
        }
    );
    println!("baseline for regression checks: BENCH_serve.json (repo root)");
}
