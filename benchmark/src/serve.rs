//! `serve_hot` and `serve_cold`: an in-process `afp serve` daemon driven
//! over loopback TCP by closed-loop, kept-alive clients.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use afp_circuits::{from_spec_ref, ArithKind, LibrarySpec};
use afp_ml::MlModelId;
use afp_obs::{Recorder, RunReport, Section, Value};
use afp_runtime::{CounterSnapshot, Runtime};
use afp_serve::http::{read_request, write_response, RequestReader};
use afp_serve::{ServeConfig, ServerHandle};
use approxfpgas::cache::STORE_FILE;
use approxfpgas::dataset::{characterize_library_with, sample_subset, train_validate_split};
use approxfpgas::record::{estimate_features, CharacterizeScratch};
use approxfpgas::{
    characterize_request, load_zoo, request_report, save_zoo, CharacterizationCache, FpgaParam,
    RequestConfig, SavedZoo,
};

use crate::layers::{Configs, Worker};
use crate::schedule::{cold_schedule, hot_schedule, request_config, Cold, Hot, SPECS, TARGETS};
use crate::stats::{derive, median, percentile, Reservoir, RssSlices};
use crate::trace::{Summary, Tracer};
use crate::{Run, Size, THREADS};

/// Models in the persisted zoos: the pair the `serve_load` bench uses.
const ZOO_MODELS: [MlModelId; 2] = [MlModelId::Ml1, MlModelId::Ml14];

/// Latency samples kept per load phase.
const LATENCY_SAMPLE: usize = 1 << 18;

/// Slices of a load phase whose median peak RSS is reported.
const RSS_SLICES: usize = 5;

/// Keys whose served body is checked against the in-process report.
const COLD_CHECK_EVERY: usize = 64;

fn raw_get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// One parsed response on a kept-alive connection.
struct Reply {
    status: u16,
    /// `X-Afp-Estimate: model` was present.
    model: bool,
    body: Range<usize>,
}

/// A closed-loop HTTP/1.1 client on one kept-alive connection, which it
/// reopens whenever the server closes it.
struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// Connections opened so far.
    opened: u64,
}

impl Client {
    fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            stream: None,
            buf: Vec::with_capacity(16 * 1024),
            opened: 0,
        }
    }

    fn request(&mut self, raw: &[u8]) -> Result<Reply, String> {
        // A kept-alive connection the server closed while idle fails
        // before any response byte arrives: resend once on a new one.
        let reused = self.stream.is_some();
        match self.exchange(raw) {
            Err(_) if reused && self.buf.is_empty() => {
                self.stream = None;
                self.exchange(raw)
            }
            reply => reply,
        }
    }

    fn exchange(&mut self, raw: &[u8]) -> Result<Reply, String> {
        self.buf.clear();
        let stream = match &mut self.stream {
            Some(s) => s,
            None => {
                let s = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
                s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
                s.set_read_timeout(Some(Duration::from_secs(60)))
                    .map_err(|e| format!("timeout: {e}"))?;
                self.opened += 1;
                self.stream.insert(s)
            }
        };
        stream.write_all(raw).map_err(|e| format!("send: {e}"))?;
        let mut chunk = [0u8; 8192];
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            let n = stream.read(&mut chunk).map_err(|e| format!("recv: {e}"))?;
            if n == 0 {
                return Err("connection closed mid-response".to_string());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or("unparseable status line")?;
        let (mut length, mut close, mut model) = (None, false, false);
        for line in head.split("\r\n").skip(1) {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            } else if name.eq_ignore_ascii_case("x-afp-estimate") {
                model = value == "model";
            }
        }
        let length = length.ok_or("response without Content-Length")?;
        while self.buf.len() < head_end + length {
            let n = stream
                .read(&mut chunk)
                .map_err(|e| format!("recv body: {e}"))?;
            if n == 0 {
                return Err("connection closed mid-body".to_string());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        if close {
            self.stream = None;
        }
        Ok(Reply {
            status,
            model,
            body: head_end..head_end + length,
        })
    }

    fn body(&self, reply: &Reply) -> &[u8] {
        &self.buf[reply.body.clone()]
    }
}

/// A running daemon and the files it was started from.
struct Daemon {
    handle: ServerHandle,
    addr: SocketAddr,
    zoos: Vec<PathBuf>,
    cache_dir: PathBuf,
}

impl Daemon {
    /// Train and save the add8 and mul8 zoos, then start the daemon with
    /// both loaded, two workers, and a store warm tier under `dir`.
    fn start(seed: u64, size: &Size, dir: &Path) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let rt = Runtime::new(THREADS);
        let mut zoos = Vec::new();
        for (i, kind) in [ArithKind::Adder, ArithKind::Multiplier]
            .into_iter()
            .enumerate()
        {
            let spec = LibrarySpec {
                seed: derive(seed, 200 + i as u64),
                ..LibrarySpec::new(kind, 8, size.zoo_library)
            };
            let library = afp_circuits::build_library_with(&spec, &rt);
            let config = approxfpgas::FlowConfig::default();
            let records = characterize_library_with(
                &library,
                &config.asic,
                &config.fpga,
                &config.error,
                &rt,
                None,
            );
            let split_seed = derive(seed, 210 + i as u64);
            let subset = sample_subset(records.len(), 0.5, 24, split_seed);
            let (train, validate) = train_validate_split(&subset, 0.8, split_seed);
            let zoo = approxfpgas::fidelity::train_zoo_with(
                &records,
                &train,
                &validate,
                &ZOO_MODELS,
                config.fidelity_tolerance,
                &rt,
                &Recorder::disabled(),
            );
            let path = dir.join(format!("{}8.afpm", kind.mnemonic()));
            save_zoo(&path, &zoo, afp_fpga::DEFAULT_TARGET, &[(kind, 8)])
                .map_err(|e| format!("saving a zoo: {e}"))?;
            zoos.push(path);
        }
        let cache_dir = dir.join("cache");
        let handle = afp_serve::serve(ServeConfig {
            threads: THREADS,
            cache_dir: Some(cache_dir.clone()),
            models: zoos.clone(),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("starting the daemon: {e}"))?;
        let addr = handle.addr().ok_or("daemon has no TCP address")?;
        Ok(Daemon {
            handle,
            addr,
            zoos,
            cache_dir,
        })
    }

    fn counters(&self) -> CounterSnapshot {
        self.handle.snapshot()
    }

    /// Graceful stop. Clients must have hung up first, or a worker waits
    /// out the keep-alive idle window.
    fn stop(self) {
        self.handle.shutdown();
    }
}

/// The body `afp serve` must send for `spec` on `target`: the in-process
/// report of an uncached characterization.
fn expected_body(spec: &str, target: &str) -> Result<Vec<u8>, String> {
    let circuit = from_spec_ref(spec)?;
    let record = characterize_request(
        &circuit,
        &request_config(target),
        &Runtime::serial(),
        None,
        &mut CharacterizeScratch::default(),
    );
    Ok(format!("{}\n", request_report(&record).to_json()).into_bytes())
}

/// Client-side results of one load phase, with the daemon's counter
/// movement over it.
struct Load {
    requests: u64,
    elapsed_s: f64,
    /// A uniform sample of request latencies in µs, ascending.
    latency_us: Vec<f64>,
    /// Peak RSS over the load phase.
    peak_rss_mib: f64,
    /// Connections the clients opened during the phase.
    opened: u64,
    delta: CounterSnapshot,
}

impl Load {
    fn metrics(&self, run: &mut Run) -> Result<(), String> {
        let p50 = percentile(&self.latency_us, 0.5)
            .ok_or_else(|| format!("{} requests are too few for a p50", self.requests))?;
        run.set("throughput_per_s", self.requests as f64 / self.elapsed_s);
        run.set("latency_p50_ms", p50 / 1e3);
        run.set("peak_rss_mib", self.peak_rss_mib);
        run.info.push(format!(
            "requests {}, latency sample {}",
            self.requests,
            self.latency_us.len()
        ));
        for q in [0.9, 0.99] {
            let v =
                percentile(&self.latency_us, q).map_or("-".to_string(), |v| (v / 1e3).to_string());
            run.info.push(format!(
                "latency_p{}_ms {v} (not gated)",
                (q * 100.0).round()
            ));
        }
        Ok(())
    }

    /// Keep-alive bookkeeping must match exactly: every request but the
    /// first on each connection is a reuse, and nothing was refused.
    fn check_connections(&self) -> Result<(), String> {
        let d = &self.delta;
        if d.requests_served != self.requests
            || d.keepalive_reuses != self.requests - self.opened
            || d.queue_rejections != 0
        {
            return Err(format!(
                "daemon counted {} served, {} reuses, {} rejections; clients sent {} on {} new connections",
                d.requests_served, d.keepalive_reuses, d.queue_rejections, self.requests, self.opened
            ));
        }
        Ok(())
    }

    fn layer_metrics(&self, run: &mut Run, per: f64) {
        let d = &self.delta;
        run.set("runtime.coalesced_ratio", d.requests_coalesced as f64 / per);
        run.set(
            "runtime.characterizations_per_request",
            d.asic_synths as f64 / self.requests as f64,
        );
        run.set("serve.queue_rejections", d.queue_rejections as f64);
        run.set("serve.keepalive_reuses", d.keepalive_reuses as f64);
    }
}

/// A set-up `serve_hot` daemon: prewarmed, with its client connected.
struct HotSet {
    daemon: Daemon,
    client: Client,
    /// Bodies served during the prewarm, by [`Hot::all`] index.
    prewarm: Vec<Vec<u8>>,
}

fn hot_setup(seed: u64, size: &Size, dir: &Path) -> Result<HotSet, String> {
    let daemon = Daemon::start(seed, size, dir)?;
    let mut client = Client::new(daemon.addr);
    let mut prewarm = Vec::new();
    for hot in Hot::all() {
        let reply = client.request(&raw_get(&hot.path()))?;
        if reply.status != 200 {
            return Err(format!("prewarm {}: status {}", hot.path(), reply.status));
        }
        prewarm.push(client.body(&reply).to_vec());
    }
    Ok(HotSet {
        daemon,
        client,
        prewarm,
    })
}

/// The expected body of every hot request: characterize bodies from the
/// in-process report; estimate bodies as first served (they must repeat).
fn hot_expected(set: &HotSet) -> Result<Vec<Vec<u8>>, String> {
    Hot::all()
        .iter()
        .zip(&set.prewarm)
        .map(|(hot, served)| match *hot {
            Hot::Characterize { spec, target } => {
                let want = expected_body(SPECS[spec], TARGETS[target])?;
                if *served != want {
                    return Err(format!(
                        "served body for {} differs from the in-process report",
                        hot.path()
                    ));
                }
                Ok(want)
            }
            Hot::Estimate { .. } => {
                let model = b"\"source\":\"model\"";
                if !served.windows(model.len()).any(|w| w == model) {
                    return Err(format!("{} was not answered from a model", hot.path()));
                }
                Ok(served.clone())
            }
        })
        .collect()
}

/// One client walks the hot schedule for `seconds`.
fn hot_load(
    set: &mut HotSet,
    expected: &[Vec<u8>],
    schedule: &[usize],
    seconds: f64,
) -> Result<(Load, u64), String> {
    let all = Hot::all();
    let raws: Vec<Vec<u8>> = all.iter().map(|h| raw_get(&h.path())).collect();
    let mut latency = Reservoir::new(LATENCY_SAMPLE, 0);
    let before = set.daemon.counters();
    let opened = set.client.opened;
    let mut estimates = 0u64;
    let mut rss = RssSlices::start(seconds, RSS_SLICES);
    let start = Instant::now();
    let mut k = 0usize;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= seconds {
            break;
        }
        rss.tick(elapsed)?;
        let i = schedule[k % schedule.len()];
        k += 1;
        let t = Instant::now();
        let reply = set.client.request(&raws[i])?;
        let us = t.elapsed().as_secs_f64() * 1e6;
        let is_estimate = matches!(all[i], Hot::Estimate { .. });
        if reply.status != 200
            || set.client.body(&reply) != expected[i]
            || reply.model != is_estimate
        {
            return Err(format!(
                "{}: status {}, body {} the expected bytes",
                all[i].path(),
                reply.status,
                if set.client.body(&reply) == expected[i] {
                    "equals"
                } else {
                    "differs from"
                }
            ));
        }
        estimates += u64::from(is_estimate);
        latency.push(us);
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let peak = rss.finish()?;
    let delta = set.daemon.counters().since(&before);
    let load = Load {
        requests: k as u64,
        elapsed_s,
        latency_us: latency.into_sorted(),
        peak_rss_mib: peak,
        opened: set.client.opened - opened,
        delta,
    };
    load.check_connections()?;
    let d = &load.delta;
    if d.asic_synths != 0 || d.estimates_served != estimates || d.model_cache_hits != estimates {
        return Err(format!(
            "hot load moved asic_synths by {}, estimates_served by {} and model_cache_hits by {}; \
             expected 0, {estimates} and {estimates}",
            d.asic_synths, d.estimates_served, d.model_cache_hits
        ));
    }
    Ok((load, estimates))
}

/// A set-up `serve_cold` daemon with its never-seen key schedule.
struct ColdSet {
    daemon: Daemon,
    keys: Vec<Cold>,
    raws: Vec<Vec<u8>>,
}

fn cold_setup(seed: u64, size: &Size, dir: &Path) -> Result<ColdSet, String> {
    let daemon = Daemon::start(seed, size, dir)?;
    let keys = cold_schedule(derive(seed, 400), size.cold_keys);
    let raws = keys.iter().map(|c| raw_get(&c.path())).collect();
    Ok(ColdSet { daemon, keys, raws })
}

/// One client's pass over a chunk of cold keys starting at `base`.
/// Bodies of keys for which `keep(index)` holds are returned.
fn cold_walk(
    (client, latency): &mut (Client, Reservoir),
    raws: &[Vec<u8>],
    base: usize,
    keep: &(dyn Fn(usize) -> bool + Sync),
) -> Result<Vec<(usize, Vec<u8>)>, String> {
    let mut bodies = Vec::new();
    for (j, raw) in raws.iter().enumerate() {
        let t = Instant::now();
        let reply = client.request(raw)?;
        latency.push(t.elapsed().as_secs_f64() * 1e6);
        let body = client.body(&reply);
        if reply.status != 200 || !body.starts_with(b"{\"version\":") {
            return Err(format!(
                "cold key {}: status {}: {}",
                base + j,
                reply.status,
                String::from_utf8_lossy(body)
            ));
        }
        if keep(base + j) {
            bodies.push((base + j, body.to_vec()));
        }
    }
    Ok(bodies)
}

/// A `serve_cold` load phase.
struct ColdLoad {
    load: Load,
    /// Distinct keys both clients walked.
    walked: usize,
    /// Served bodies of the kept keys (both clients' copies agreed).
    kept: HashMap<usize, Vec<u8>>,
}

/// Two clients walk the cold keys in the same order, chunk by chunk,
/// until `seconds` have passed, keeping the bodies of keys `keep` names.
fn cold_load(
    set: &ColdSet,
    size: &Size,
    seconds: f64,
    keep: &(dyn Fn(usize) -> bool + Sync),
) -> Result<ColdLoad, String> {
    let mut lanes = [
        (
            Client::new(set.daemon.addr),
            Reservoir::new(LATENCY_SAMPLE / 2, 1),
        ),
        (
            Client::new(set.daemon.addr),
            Reservoir::new(LATENCY_SAMPLE / 2, 2),
        ),
    ];
    let before = set.daemon.counters();
    let mut kept: HashMap<usize, Vec<u8>> = HashMap::new();
    let mut rss = RssSlices::start(seconds, RSS_SLICES);
    let start = Instant::now();
    let mut pos = 0;
    while pos < set.raws.len() && start.elapsed().as_secs_f64() < seconds {
        rss.tick(start.elapsed().as_secs_f64())?;
        let end = (pos + size.cold_chunk).min(set.raws.len());
        let chunk = &set.raws[pos..end];
        let outs: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = lanes
                .iter_mut()
                .map(|lane| s.spawn(move || cold_walk(lane, chunk, pos, keep)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".to_string()))
                })
                .collect()
        });
        for out in outs {
            for (k, body) in out? {
                if let Some(other) = kept.insert(k, body.clone()) {
                    if other != body {
                        return Err(format!(
                            "the two clients got different bodies for {}",
                            set.keys[k].path()
                        ));
                    }
                }
            }
        }
        pos = end;
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let peak = rss.finish()?;
    if pos == set.raws.len() {
        eprintln!("note: all {pos} cold keys were used before the deadline");
    }
    let [(a, lat_a), (b, lat_b)] = lanes;
    let opened = a.opened + b.opened;
    drop((a, b));
    // Both clients sent the same number of requests, so their samples
    // carry equal weight.
    let mut latency_us = lat_a.into_sorted();
    latency_us.extend(lat_b.into_sorted());
    latency_us.sort_by(f64::total_cmp);
    let delta = set.daemon.counters().since(&before);
    let load = Load {
        requests: 2 * pos as u64,
        elapsed_s,
        latency_us,
        peak_rss_mib: peak,
        opened,
        delta,
    };
    load.check_connections()?;
    if load.delta.asic_synths != pos as u64 {
        return Err(format!(
            "{pos} distinct keys caused {} characterizations",
            load.delta.asic_synths
        ));
    }
    Ok(ColdLoad {
        load,
        walked: pos,
        kept,
    })
}

fn check_cold_bodies(set: &ColdSet, kept: &HashMap<usize, Vec<u8>>) -> Result<(), String> {
    for (&k, body) in kept {
        if k.is_multiple_of(COLD_CHECK_EVERY)
            && *body != expected_body(&set.keys[k].spec, set.keys[k].target)?
        {
            return Err(format!(
                "served body for {} differs from the in-process report",
                set.keys[k].path()
            ));
        }
    }
    Ok(())
}

/// Untraced run of `serve_hot` (`cold == false`) or `serve_cold`.
pub fn measure(
    cold: bool,
    seed: u64,
    seconds: f64,
    size: &Size,
    work: &Path,
) -> Result<Run, String> {
    let mut setup_s = Vec::new();
    let mut hot: Option<HotSet> = None;
    let mut cold_set: Option<ColdSet> = None;
    for i in 0..size.serve_setups {
        let dir = work.join(format!("setup-{i}"));
        let t = Instant::now();
        if cold {
            let done = cold_setup(seed, size, &dir)?;
            setup_s.push(t.elapsed().as_secs_f64());
            if let Some(old) = cold_set.replace(done) {
                old.daemon.stop();
            }
        } else {
            let done = hot_setup(seed, size, &dir)?;
            setup_s.push(t.elapsed().as_secs_f64());
            if let Some(old) = hot.replace(done) {
                drop(old.client);
                old.daemon.stop();
            }
        }
    }
    let mut run;
    if let Some(set) = cold_set {
        let keep = |k: usize| k.is_multiple_of(COLD_CHECK_EVERY);
        let cold = cold_load(&set, size, seconds, &keep)?;
        check_cold_bodies(&set, &cold.kept)?;
        run = Run::new(cold.load.requests);
        cold.load.metrics(&mut run)?;
        set.daemon.stop();
    } else {
        let mut set = hot.expect("at least one set-up");
        let expected = hot_expected(&set)?;
        let schedule = hot_schedule(derive(seed, 300), size.hot_schedule);
        let (load, estimates) = hot_load(&mut set, &expected, &schedule, seconds)?;
        run = Run::new(load.requests);
        load.metrics(&mut run)?;
        run.info.push(format!("estimates {estimates}"));
        drop(set.client);
        set.daemon.stop();
    }
    run.set("setup_s", median(&setup_s));
    Ok(run)
}

/// In-process replay state: what the daemon holds, rebuilt from the same
/// files, with a cache of its own.
struct Replay {
    rt: Runtime,
    cache: CharacterizationCache,
    configs: HashMap<String, RequestConfig>,
    zoos: Vec<(SavedZoo, Vec<(FpgaParam, MlModelId)>)>,
    estimates: HashMap<(String, String), Vec<u8>>,
}

impl Replay {
    fn new(zoos: &[PathBuf], cache_dir: &Path) -> Result<Replay, String> {
        let zoos = zoos
            .iter()
            .map(|p| {
                let saved = load_zoo(p).map_err(|e| format!("loading {}: {e}", p.display()))?;
                // The daemon's choice: fidelity ranking, ML models before
                // the plain ASIC regressions, restricted to stored models.
                let best = FpgaParam::ALL
                    .iter()
                    .filter_map(|&param| {
                        let mut ranked = saved.zoo.top_models(param, usize::MAX, false);
                        ranked.extend(saved.zoo.top_models(param, usize::MAX, true));
                        let model = ranked
                            .into_iter()
                            .find(|&m| saved.zoo.has_model(m, param))?;
                        Some((param, model))
                    })
                    .collect();
                Ok((saved, best))
            })
            .collect::<Result<_, String>>()?;
        Ok(Replay {
            rt: Runtime::new(THREADS),
            cache: CharacterizationCache::try_with_disk(cache_dir)
                .map_err(|e| format!("opening the replay cache: {e}"))?,
            configs: TARGETS
                .iter()
                .map(|t| (t.to_string(), request_config(t)))
                .collect(),
            zoos,
            estimates: HashMap::new(),
        })
    }

    /// Answer one raw request as the daemon would, with a span around
    /// each layer call; returns the response body.
    fn request(&mut self, w: &mut Worker<'_>, item: u64, raw: &[u8]) -> Result<Vec<u8>, String> {
        w.spans.open("bench.request", item);
        let req = w
            .spans
            .time("serve.http_parse", item, || {
                read_request(&mut &raw[..], &mut RequestReader::new())
            })
            .map_err(|e| format!("replayed request does not parse: {e:?}"))?;
        let spec = req.query_param("spec").ok_or("request without spec")?;
        let target = req
            .query_param("target")
            .unwrap_or(afp_fpga::DEFAULT_TARGET);
        let circuit = w
            .spans
            .time("circuits.spec_parse", item, || from_spec_ref(spec))?;
        let (body, headers) = match req.path.as_str() {
            "/characterize" => {
                let config = &self.configs[target];
                let cfg = Configs {
                    asic: &config.asic,
                    fpga: &config.fpga,
                    error: &config.error,
                };
                let misses = self.rt.counters().snapshot().cache_misses;
                let record = w.characterize(0, &circuit, cfg, &self.rt, &self.cache);
                let hit = self.rt.counters().snapshot().cache_misses == misses;
                let report = w
                    .spans
                    .time("core.request_report", item, || request_report(&record));
                let mut json = w.spans.time("obs.to_json", item, || report.to_json());
                json.push('\n');
                let source = if hit { "hit" } else { "miss" };
                (
                    json.into_bytes(),
                    vec![
                        ("X-Afp-Coalesced", "0".to_string()),
                        ("X-Afp-Cache", source.to_string()),
                    ],
                )
            }
            "/estimate" => {
                let key = (spec.to_string(), target.to_string());
                let cached = self.estimates.contains_key(&key);
                if !cached {
                    let (saved, best) = self
                        .zoos
                        .iter()
                        .find(|(z, _)| {
                            z.target == target && z.covers(circuit.kind(), circuit.width())
                        })
                        .ok_or("no loaded zoo covers the estimate")?;
                    let features = w.spans.time("core.estimate_features", item, || {
                        estimate_features(
                            &circuit,
                            &afp_asic::AsicConfig::default(),
                            saved.zoo.layout(),
                        )
                    });
                    let values: Vec<f64> = w.spans.time("ml.estimate_row", item, || {
                        best.iter()
                            .map(|&(param, model)| {
                                saved
                                    .zoo
                                    .estimate_row(model, param, &features)
                                    .unwrap_or(f64::NAN)
                            })
                            .collect()
                    });
                    let mut section = Section::new("estimate")
                        .field("name", Value::Str(circuit.name().to_string()))
                        .field("kind", Value::Str(circuit.kind().mnemonic().to_string()))
                        .field("width", Value::UInt(circuit.width() as u64))
                        .field("target", Value::Str(target.to_string()))
                        .field("source", Value::Str("model".to_string()));
                    for (&(param, model), value) in best.iter().zip(values) {
                        let (model_field, value_field) = match param {
                            FpgaParam::Latency => ("model_latency", "latency_ns"),
                            FpgaParam::Power => ("model_power", "power_mw"),
                            FpgaParam::Area => ("model_area", "area_luts"),
                        };
                        section = section
                            .field(model_field, Value::Str(model.label().to_string()))
                            .field(value_field, Value::Num(value));
                    }
                    let mut report = RunReport::new();
                    report.push_section(section);
                    let mut json = w.spans.time("obs.to_json", item, || report.to_json());
                    json.push('\n');
                    self.estimates.insert(key.clone(), json.into_bytes());
                }
                let hit = if cached { "hit" } else { "miss" };
                (
                    self.estimates[&key].clone(),
                    vec![
                        ("X-Afp-Estimate", "model".to_string()),
                        ("X-Afp-Model-Cache", hit.to_string()),
                    ],
                )
            }
            other => return Err(format!("unexpected replayed path {other}")),
        };
        let mut out = Vec::new();
        w.spans
            .time("serve.http_write", item, || {
                write_response(&mut out, 200, false, &headers, &body)
            })
            .map_err(|e| format!("rendering a response: {e}"))?;
        w.spans.close();
        Ok(body)
    }
}

/// One pass of the in-process replay.
struct ReplayPass {
    bodies: Vec<Vec<u8>>,
    /// Per-request µs, in request order.
    latency_us: Vec<f64>,
    wall_s: f64,
    counters: CounterSnapshot,
}

/// What a traced serve run replays: requests, the bodies served for
/// them where the load kept one, and the requests that first bring the
/// replay's cache to the daemon's state (untimed and untraced).
struct Sample {
    raws: Vec<Vec<u8>>,
    served: Vec<Option<Vec<u8>>>,
    prewarm: Vec<Vec<u8>>,
}

/// Replay `sample` on a fresh state with its cache in `cache_dir`.
fn replay_run(
    tracer: &Tracer,
    zoos: &[PathBuf],
    cache_dir: &Path,
    sample: &Sample,
) -> Result<ReplayPass, String> {
    let mut state = Replay::new(zoos, cache_dir)?;
    let quiet = Tracer::new(false);
    let mut w = Worker::new(quiet.thread(None));
    for raw in &sample.prewarm {
        state.request(&mut w, 0, raw)?;
    }
    drop(w);
    let before = state.rt.snapshot();
    let mut w = Worker::new(tracer.thread(None));
    let mut bodies = Vec::with_capacity(sample.raws.len());
    let mut latency_us = Vec::with_capacity(sample.raws.len());
    let start = Instant::now();
    for (i, raw) in sample.raws.iter().enumerate() {
        let t = Instant::now();
        bodies.push(state.request(&mut w, i as u64, raw)?);
        latency_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let wall_s = start.elapsed().as_secs_f64();
    drop(w);
    Ok(ReplayPass {
        bodies,
        latency_us,
        wall_s,
        counters: state.rt.snapshot().since(&before),
    })
}

/// Traced run: one set-up, a client load of half the run, then the
/// in-process replay of a sample of the schedule: once to warm up, once
/// untraced and once traced, each on a fresh state.
pub fn trace(cold: bool, seed: u64, seconds: f64, size: &Size, work: &Path) -> Result<Run, String> {
    let dir = work.join("setup");
    let load_s = (seconds / 2.0).max(0.2);
    // `per` is what the coalesced count is divided by: keys or requests.
    let (load, daemon, per, sample) = if cold {
        let set = cold_setup(seed, size, &dir)?;
        let n = size.cold_replay_keys.min(set.raws.len());
        let keep = move |k: usize| k < n || k.is_multiple_of(COLD_CHECK_EVERY);
        let ColdLoad { load, walked, kept } = cold_load(&set, size, load_s, &keep)?;
        check_cold_bodies(&set, &kept)?;
        // Each key once: its coalesced twin runs no characterization in
        // the daemon, only the HTTP exchange and the wait.
        let sample = Sample {
            raws: set.raws[..n].to_vec(),
            served: (0..n).map(|k| kept.get(&k).cloned()).collect(),
            prewarm: Vec::new(),
        };
        (load, set.daemon, walked.max(1) as f64, sample)
    } else {
        let mut set = hot_setup(seed, size, &dir)?;
        let bodies = hot_expected(&set)?;
        let schedule = hot_schedule(derive(seed, 300), size.hot_schedule);
        let (load, _) = hot_load(&mut set, &bodies, &schedule, load_s)?;
        let all = Hot::all();
        let picked = &schedule[..size.hot_replay.min(schedule.len())];
        let sample = Sample {
            raws: picked.iter().map(|&i| raw_get(&all[i].path())).collect(),
            served: picked.iter().map(|&i| Some(bodies[i].clone())).collect(),
            prewarm: all
                .iter()
                .filter(|h| matches!(h, Hot::Characterize { .. }))
                .map(|h| raw_get(&h.path()))
                .collect(),
        };
        drop(set.client);
        let per = load.requests as f64;
        (load, set.daemon, per, sample)
    };
    let cache_bytes = std::fs::metadata(daemon.cache_dir.join(STORE_FILE)).map_or(0, |m| m.len());
    let zoos = daemon.zoos.clone();
    daemon.stop();

    let quiet = Tracer::new(false);
    replay_run(&quiet, &zoos, &work.join("replay-warmup"), &sample)?;
    let untraced = replay_run(&quiet, &zoos, &work.join("replay-untraced"), &sample)?;
    let tracer = Tracer::new(true);
    let traced = replay_run(&tracer, &zoos, &work.join("replay-traced"), &sample)?;
    for (i, (got, want)) in traced.bodies.iter().zip(&sample.served).enumerate() {
        if want.as_ref().is_some_and(|w| w != got) {
            return Err(format!(
                "replayed body {i} differs from the served one: {}",
                String::from_utf8_lossy(got)
            ));
        }
    }
    let spans = tracer.finish();
    let summary = Summary::new(&spans);

    let replayed = sample.raws.len();
    let mut run = Run::new(load.requests + replayed as u64);
    run.layer_common(&summary, traced.wall_s);
    run.counters(&traced.counters);
    load.layer_metrics(&mut run, per);
    run.set("store.cache_bytes", cache_bytes as f64);
    let client_p50 = percentile(&load.latency_us, 0.5).ok_or("client load too short")?;
    let replay_p50 = median(&untraced.latency_us);
    // On `serve_cold` a key's coalesced twin answers sooner than its
    // leader, so the client p50 understates the service time there; the
    // transport share is a `serve_hot` reading.
    if !cold {
        run.set(
            "serve.transport.pct",
            100.0 * (client_p50 - replay_p50) / client_p50,
        );
    }
    run.set("trace.overhead", traced.wall_s / untraced.wall_s - 1.0);
    run.info.push(format!("client_p50_us {client_p50}"));
    run.info.push(format!("replay_p50_us {replay_p50}"));
    run.info.push(format!("replayed_requests {replayed}"));
    run.trace = Some((spans, summary));
    Ok(run)
}
