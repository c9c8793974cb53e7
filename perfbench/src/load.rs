//! Driving the daemon: set-up probes, the closed-loop client phases and
//! the daemon-side counters and histograms around the timed phase.

use crate::corpus::{probe_xml, query, Corpus, Request, Workload, ARCHES};
use crate::stats::{median, percentile};
use hcg_serve::{client, spawn, ContentKey, ServeConfig, ServeHandle};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// Daemon worker jobs for every phase.
pub const WORKERS: usize = 2;

/// The daemon configuration every phase uses.
pub fn daemon_config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    }
}

/// One set-up probe, run in a fresh process so lazy process-wide state
/// (ISA parse and index) is cold: seconds from `spawn` to the first
/// successful compile response on every arch.
pub fn setup_probe(workload: Workload) -> Result<f64, String> {
    let xml = probe_xml(workload);
    let queries: Vec<String> = ARCHES.iter().map(|&a| query(a)).collect();
    let t0 = Instant::now();
    let handle = spawn(daemon_config()).map_err(|e| format!("spawn: {e}"))?;
    for q in &queries {
        let resp = client::compile(handle.addr(), q, xml.as_bytes())
            .map_err(|e| format!("probe transport: {e}"))?;
        if resp.status != 200 {
            return Err(format!("probe {q}: status {}", resp.status));
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    handle.shutdown();
    Ok(secs)
}

/// Run `probes` set-up probes as child processes; each child is waited
/// for. Returns every measurement.
pub fn setup_probes(workload: Workload, probes: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (0..probes)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--setup-probe", workload.name()])
                .output()
                .map_err(|e| format!("probe process: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            if !out.status.success() {
                return Err(format!(
                    "probe process failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                ));
            }
            text.lines()
                .find_map(|l| l.strip_prefix("setup_s="))
                .and_then(|v| v.trim().parse::<f64>().ok())
                .ok_or_else(|| format!("probe printed no setup_s: {text}"))
        })
        .collect()
}

/// One timed request as a client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Schedule index.
    pub index: u64,
    /// The request.
    pub req: Request,
    /// Send and completion times, ns since the phase start.
    pub start_ns: u64,
    /// Completion time.
    pub end_ns: u64,
    /// HTTP 200, and the body matches this client's first body for the key.
    pub consistent: bool,
}

/// A response body as the clients keep it: its length and 128-bit content
/// digest (the daemon's own `ContentKey` hash). Keeping digests instead of
/// bodies keeps the client side out of `peak_rss_mb`; the correctness pass
/// compares the direct compile's digest and length with these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Body length in bytes.
    pub len: u64,
    key: ContentKey,
}

impl Digest {
    /// Digest of `bytes`.
    pub fn of(bytes: &[u8]) -> Digest {
        Digest {
            len: bytes.len() as u64,
            key: ContentKey::of_parts(&[bytes]),
        }
    }
}

/// What one client thread collected.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Timed-phase samples.
    pub samples: Vec<Sample>,
    /// Digest of the first 200 body per request key (warm-up and timed).
    pub bodies: HashMap<Request, Digest>,
}

/// Where a phase takes its requests from.
pub enum Source<'a> {
    /// A fixed list, split dynamically between the clients.
    List(&'a [Request]),
    /// The unbounded timed schedule, until the deadline.
    Timed(Duration),
}

/// Run one closed-loop phase with one thread per log: each client sends
/// its next request only after the previous response is fully read.
/// Returns the phase's wall time.
pub fn run_phase(
    addr: SocketAddr,
    corpus: &Corpus,
    source: &Source<'_>,
    logs: &mut [ClientLog],
) -> Duration {
    let next = AtomicU64::new(0);
    let queries: Vec<String> = ARCHES.iter().map(|&a| query(a)).collect();
    let origin = Instant::now();
    std::thread::scope(|scope| {
        for log in logs.iter_mut() {
            let (next, queries) = (&next, &queries);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Relaxed);
                let req = match source {
                    Source::List(list) => match list.get(i as usize) {
                        Some(r) => *r,
                        None => break,
                    },
                    Source::Timed(deadline) => {
                        if origin.elapsed() >= *deadline {
                            break;
                        }
                        corpus.timed(i)
                    }
                };
                let xml = corpus.xml(&req);
                let q = &queries[ARCHES
                    .iter()
                    .position(|&a| a == req.arch)
                    .expect("known arch")];
                let t0 = Instant::now();
                let resp = client::compile(addr, q, xml.as_bytes());
                let t1 = Instant::now();
                let consistent = match resp {
                    Ok(r) if r.status == 200 => {
                        let digest = Digest::of(&r.body);
                        *log.bodies.entry(req).or_insert(digest) == digest
                    }
                    _ => false,
                };
                if matches!(source, Source::Timed(_)) {
                    log.samples.push(Sample {
                        index: i,
                        req,
                        start_ns: (t0 - origin).as_nanos() as u64,
                        end_ns: (t1 - origin).as_nanos() as u64,
                        consistent,
                    });
                }
            });
        }
    });
    origin.elapsed()
}

/// Daemon-side numbers read around the timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct DaemonView {
    /// `serve.requests`, `hits`, `joins`, `compiles`, session hits/misses.
    pub requests: u64,
    /// Artifact-cache hits.
    pub hits: u64,
    /// Single-flight joins.
    pub joins: u64,
    /// Compiles executed.
    pub compiles: u64,
    /// Session-cache hits.
    pub session_hits: u64,
    /// Session-cache misses.
    pub session_misses: u64,
    /// `serve.compile_latency_us` histogram sum and count.
    pub compile_sum: f64,
    /// Histogram count.
    pub compile_count: f64,
    /// `serve.queue_wait_us` histogram sum and count.
    pub queue_sum: f64,
    /// Histogram count.
    pub queue_count: f64,
}

impl DaemonView {
    /// Read the counters and scrape the Prometheus histograms.
    pub fn read(handle: &ServeHandle) -> Result<DaemonView, String> {
        let c = handle.counters();
        let text = client::request(handle.addr(), "GET", "/metrics?format=prometheus", b"")
            .map_err(|e| format!("metrics scrape: {e}"))?
            .text();
        let doc = hcg_obs::prometheus::parse(&text).map_err(|e| format!("metrics parse: {e:?}"))?;
        let v = |name: &str| doc.value(name).unwrap_or(0.0);
        Ok(DaemonView {
            requests: c.requests.load(Relaxed),
            hits: c.hits.load(Relaxed),
            joins: c.joins.load(Relaxed),
            compiles: c.compiles.load(Relaxed),
            session_hits: c.session_hits.load(Relaxed),
            session_misses: c.session_misses.load(Relaxed),
            compile_sum: v("serve_compile_latency_us_sum"),
            compile_count: v("serve_compile_latency_us_count"),
            queue_sum: v("serve_queue_wait_us_sum"),
            queue_count: v("serve_queue_wait_us_count"),
        })
    }

    /// Component-wise `self - earlier`.
    pub fn since(&self, e: &DaemonView) -> DaemonView {
        DaemonView {
            requests: self.requests - e.requests,
            hits: self.hits - e.hits,
            joins: self.joins - e.joins,
            compiles: self.compiles - e.compiles,
            session_hits: self.session_hits - e.session_hits,
            session_misses: self.session_misses - e.session_misses,
            compile_sum: self.compile_sum - e.compile_sum,
            compile_count: self.compile_count - e.compile_count,
            queue_sum: self.queue_sum - e.queue_sum,
            queue_count: self.queue_count - e.queue_count,
        }
    }
}

/// Median `GET /health` round trip, µs: the transport floor under every
/// request.
pub fn rtt_floor_us(addr: SocketAddr, trips: usize) -> Result<f64, String> {
    let mut v = Vec::with_capacity(trips);
    for _ in 0..trips {
        let t0 = Instant::now();
        let r = client::request(addr, "GET", "/health", b"").map_err(|e| format!("health: {e}"))?;
        if r.status != 200 {
            return Err(format!("health: status {}", r.status));
        }
        v.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok(median(&v))
}

/// Latency and throughput of the timed phase, summarised per one-second
/// window; each reported figure is the median over the windows, so one
/// disturbed second does not move it.
#[derive(Debug, Clone)]
pub struct Windows {
    /// Median over windows of the window's p50 latency, µs.
    pub p50_us: f64,
    /// Median over windows of the window's p90 latency, µs.
    pub p90_us: f64,
    /// Median over windows of completions per second.
    pub throughput_rps: f64,
    /// Windows measured.
    pub count: usize,
    /// Samples completed inside the windows.
    pub samples: usize,
    /// Fewest samples any window had beyond its own p90.
    pub min_beyond_p90: usize,
    /// Completions per window, in window order.
    pub per_window: Vec<f64>,
}

/// Summarise samples completed in `[0, seconds)` into one-second windows.
pub fn windows(samples: &[Sample], seconds: u64) -> Windows {
    let n = seconds.max(1) as usize;
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); n];
    for s in samples {
        let w = (s.end_ns / 1_000_000_000) as usize;
        if w < n {
            per[w].push((s.end_ns - s.start_ns) as f64 / 1e3);
        }
    }
    let mut p50 = Vec::new();
    let mut p90 = Vec::new();
    let mut rps = Vec::new();
    let mut min_beyond = usize::MAX;
    for lat in &mut per {
        lat.sort_by(f64::total_cmp);
        rps.push(lat.len() as f64);
        if lat.is_empty() {
            min_beyond = 0;
            continue;
        }
        let q90 = percentile(lat, 0.9);
        p50.push(percentile(lat, 0.5));
        p90.push(q90);
        min_beyond = min_beyond.min(lat.iter().filter(|&&l| l > q90).count());
    }
    let or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    Windows {
        p50_us: or_zero(&p50),
        p90_us: or_zero(&p90),
        throughput_rps: or_zero(&rps),
        count: n,
        samples: per.iter().map(Vec::len).sum(),
        min_beyond_p90: min_beyond,
        per_window: rps,
    }
}
