//! End-to-end and per-layer benchmark of the `hcg-serve` compile daemon.
//!
//! ```text
//! hcg-perfbench --workload <batch-cold|intensive-cold|serve-zipf>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process spawns an in-process daemon (2 workers) and drives it over
//! loopback TCP as a closed loop of `min(2, nproc)` clients. `--trace 0`
//! prints the end-to-end metrics; `--trace 1` additionally replays the
//! workload on one thread through each layer's public functions and
//! prints the per-layer metrics. The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.

mod alloc;
mod check;
mod corpus;
mod load;
mod stats;
mod trace;

use corpus::{Corpus, Workload};
use load::{ClientLog, DaemonView, Source};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;
use trace::L;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-up probes per run (each a fresh process); the median is reported.
const SETUP_PROBES: usize = 25;
/// Client connections of the closed loop, capped at the host's cores.
const CLIENTS: usize = 2;
/// Fewest samples each one-second window must hold beyond its p90.
const MIN_BEYOND_P90: usize = 10;
/// The traced replay's layer self times must sum to its measured
/// per-request time within this share.
const TRACE_SUM_TOLERANCE: f64 = 0.10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--setup-probe" => {
                let w = Workload::from_name(value)
                    .ok_or_else(|| format!("unknown workload {value}"))?;
                match load::setup_probe(w) {
                    Ok(s) => {
                        println!("setup_s={s}");
                        std::process::exit(0);
                    }
                    Err(e) => {
                        eprintln!("setup probe: {e}");
                        std::process::exit(1);
                    }
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Metrics in print order: `(name, value, unit)`.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hcg-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hcg-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    // Before anything else touches the ISA registry.
    let isa_us = args
        .trace
        .then(|| trace::isa_shared_index_us(&corpus::ARCHES));

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = CLIENTS.min(nproc);
    let corpus = Corpus::build(args.workload, args.seed);
    println!(
        "workload {} seed {} seconds {} trace {} | clients {clients} (closed loop) nproc {nproc} daemon workers {} | corpus {} models + {} fresh, digest {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        load::WORKERS,
        corpus.models.len(),
        corpus.fresh.len(),
        corpus.digest()
    );

    let setup = if args.trace {
        Vec::new()
    } else {
        load::setup_probes(args.workload, SETUP_PROBES)?
    };

    // Serve: warm-up (untimed), then the timed closed loop.
    let handle = hcg_serve::spawn(load::daemon_config()).map_err(|e| format!("spawn: {e}"))?;
    let addr = handle.addr();
    let mut logs: Vec<ClientLog> = (0..clients).map(|_| ClientLog::default()).collect();
    let warmup = corpus.warmup();
    load::run_phase(addr, &corpus, &Source::List(&warmup), &mut logs);
    let before = DaemonView::read(&handle)?;
    let elapsed = load::run_phase(
        addr,
        &corpus,
        &Source::Timed(Duration::from_secs(args.seconds)),
        &mut logs,
    );
    let daemon = DaemonView::read(&handle)?.since(&before);
    let peak_rss = stats::peak_rss_mib();
    let rtt = if args.trace {
        Some(load::rtt_floor_us(addr, 200)?)
    } else {
        None
    };
    handle.shutdown();

    let mut samples: Vec<load::Sample> = Vec::new();
    let mut bodies = Vec::new();
    for log in logs {
        samples.extend(log.samples);
        bodies.push(log.bodies);
    }
    samples.sort_by_key(|s| s.index);
    let (bodies, inconsistent) = check::merge_bodies(bodies);
    let win = load::windows(&samples, args.seconds);

    // Correctness pass.
    let verdict = check::verify(&corpus, &bodies, nproc.min(2));
    let attempted = samples.len() as u64;
    let ok = samples
        .iter()
        .filter(|s| {
            s.consistent
                && !inconsistent.contains(&s.req)
                && verdict.key_ok.get(&s.req).copied().unwrap_or(false)
        })
        .count() as u64;
    let bad_keys = verdict.key_ok.values().filter(|ok| !**ok).count() + inconsistent.len();
    let ok_frac = ok as f64 / attempted.max(1) as f64;

    let mut problems: Vec<String> = Vec::new();
    if ok < attempted {
        problems.push(format!(
            "{} of {attempted} requests not ok ({bad_keys} bad keys)",
            attempted - ok
        ));
    }
    if clients > nproc {
        problems.push(format!("{clients} clients exceed nproc {nproc}"));
    }
    if win.min_beyond_p90 < MIN_BEYOND_P90 {
        problems.push(format!(
            "a window has only {} samples beyond its p90 (need {MIN_BEYOND_P90})",
            win.min_beyond_p90
        ));
    }
    if samples.len() < corpus.min_timed_requests() || verdict.unserved > 0 {
        problems.push(format!(
            "timed phase served {} requests; {} exact-set programs unserved",
            samples.len(),
            verdict.unserved
        ));
    }
    if verdict.executed == 0 || !verdict.exec_failures.is_empty() {
        problems.push(format!(
            "reference execution: {} of {} sampled programs diverged: {:?}",
            verdict.exec_failures.len(),
            verdict.executed,
            verdict.exec_failures
        ));
    }

    println!(
        "timed phase: {attempted} requests in {:.3} s, ok {ok} | {} windows of 1 s, {} samples, fewest beyond a window's p90: {} | samples beyond reported p90: {}",
        elapsed.as_secs_f64(),
        win.count,
        win.samples,
        win.min_beyond_p90,
        samples
            .iter()
            .filter(|s| (s.end_ns - s.start_ns) as f64 / 1e3 > win.p90_us)
            .count()
    );
    println!("completions per 1 s window: {:?}", win.per_window);
    let mut lat: Vec<f64> = samples
        .iter()
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    lat.sort_by(f64::total_cmp);
    if !lat.is_empty() {
        println!(
            "latency deciles over the whole phase, us: {:?}",
            (1..10)
                .map(|d| stats::percentile(&lat, d as f64 / 10.0).round())
                .collect::<Vec<_>>()
        );
    }
    println!(
        "correctness: {} distinct served keys compared with a direct compile (length and 128-bit digest), {} programs executed against the reference",
        verdict.key_ok.len(),
        verdict.executed
    );

    let metrics: Metrics = if args.trace {
        let trace_n = args.workload.trace_requests();
        if samples.len() < trace_n {
            problems.push(format!(
                "timed phase served fewer than the {trace_n} traced requests"
            ));
        }
        let timed: Vec<corpus::Request> = (0..trace_n as u64).map(|i| corpus.timed(i)).collect();
        let t = trace::replay(&corpus, &warmup, &timed, &bodies);
        if t.mismatches > 0 {
            problems.push(format!(
                "{} traced compiles differ from the served bytes",
                t.mismatches
            ));
        }
        let unattributed = 1.0 - t.layers_sum_us() / t.request_us();
        if unattributed.abs() > TRACE_SUM_TOLERANCE {
            problems.push(format!(
                "layer self times cover {:.1}% of the per-request time (tolerance {:.0}%)",
                100.0 * (1.0 - unattributed),
                100.0 * TRACE_SUM_TOLERANCE
            ));
        }
        if !t.counts_repeat {
            problems.push("replay counts differ between rounds".to_owned());
        }
        let (untraced_rps, traced_rps) = t.rps();
        print!("{}", t.render());
        println!(
            "traced replay: {} rounds of {} requests, {:.3} us/request measured, layers sum to {:.3} us ({:+.2}% unattributed, tolerance ±{:.0}%)",
            trace::ROUNDS,
            t.requests,
            t.request_us(),
            t.layers_sum_us(),
            100.0 * unattributed,
            100.0 * TRACE_SUM_TOLERANCE
        );
        println!(
            "tracing overhead (median round): untraced replay {untraced_rps:.1} req/s, traced {traced_rps:.1} req/s ({:+.2}%); daemon closed loop {:.1} req/s",
            100.0 * (untraced_rps / traced_rps - 1.0),
            win.throughput_rps
        );
        let compile_us = daemon.compile_sum / daemon.compile_count.max(1.0);
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        vec![
            ("kernels.select_us", t.us(L::Select), "us"),
            ("kernels.selects", t.selects as f64, "count"),
            (
                "kernels.repeat_ratio",
                if t.selects == 0 {
                    0.0
                } else {
                    1.0 - ratio(t.distinct_selects, t.selects)
                },
                "ratio",
            ),
            ("kernels.allocs", t.layer(L::Select).allocs as f64, "count"),
            ("core.dispatch_us", t.us(L::Dispatch), "us"),
            ("core.generator_init_us", t.us(L::GeneratorInit), "us"),
            ("core.region_formation_us", t.us(L::RegionFormation), "us"),
            (
                "core.instruction_mapping_us",
                t.us(L::InstructionMapping),
                "us",
            ),
            ("core.compose_us", t.us(L::Compose), "us"),
            ("core.emit_us", t.us(L::Emit), "us"),
            ("core.regions_formed", t.regions_formed as f64, "count"),
            (
                "core.instructions_selected",
                t.instructions_selected as f64,
                "count",
            ),
            ("core.kernel_calls", t.kernel_calls as f64, "count"),
            (
                "core.fusion_ratio",
                ratio(t.nodes_fused, t.nodes_fused + t.instructions_selected),
                "ratio",
            ),
            (
                "core.allocs",
                [L::Dispatch, L::GeneratorInit, L::Compose, L::Emit]
                    .iter()
                    .map(|&l| t.layer(l).allocs)
                    .sum::<u64>() as f64,
                "count",
            ),
            ("model.parse_us", t.us(L::Parse), "us"),
            ("model.frontend_us", t.us(L::FrontEnd), "us"),
            ("model.actors", t.actors as f64, "count"),
            (
                "model.parse_allocs",
                t.layer(L::Parse).allocs as f64,
                "count",
            ),
            ("serve.rtt_floor_us", rtt.unwrap_or(0.0), "us"),
            ("serve.key_us", t.us(L::Key), "us"),
            ("serve.cache_get_us", t.us(L::CacheGet), "us"),
            ("serve.cache_admit_us", t.us(L::CacheAdmit), "us"),
            (
                "serve.queue_wait_us",
                daemon.queue_sum / daemon.queue_count.max(1.0),
                "us",
            ),
            ("serve.compile_us", compile_us, "us"),
            (
                "serve.compile_overhead_ratio",
                compile_us / (t.untraced_compile_ns_per_miss / 1e3).max(1e-9),
                "ratio",
            ),
            (
                "serve.hit_ratio",
                ratio(daemon.hits, daemon.requests),
                "ratio",
            ),
            (
                "serve.session_hit_ratio",
                ratio(
                    daemon.session_hits,
                    daemon.session_hits + daemon.session_misses,
                ),
                "ratio",
            ),
            ("serve.joins", daemon.joins as f64, "count"),
            ("serve.compiles", daemon.compiles as f64, "count"),
            ("isa.shared_index_us", isa_us.unwrap_or(0.0), "us"),
            ("replay.request_us", t.request_us(), "us"),
            ("replay.unattributed_frac", unattributed, "ratio"),
            (
                "replay.tracing_overhead_frac",
                untraced_rps / traced_rps - 1.0,
                "ratio",
            ),
        ]
    } else {
        let setup_s = stats::median(&setup);
        println!(
            "setup_s: median of {} fresh-process probes: {:?}",
            setup.len(),
            setup.iter().map(|s| format!("{s:.6}")).collect::<Vec<_>>()
        );
        vec![
            ("setup_s", setup_s, "s"),
            ("p50_us", win.p50_us, "us"),
            ("p90_us", win.p90_us, "us"),
            ("throughput_rps", win.throughput_rps, "1/s"),
            ("ok_frac", ok_frac, "ratio"),
            ("peak_rss_mb", peak_rss, "MiB"),
            ("modeled_cycles", verdict.modeled_cycles as f64, "cycles"),
            ("code_bytes", verdict.code_bytes as f64, "bytes"),
            ("speedup_vs_coder", verdict.speedup_vs_coder, "x"),
        ]
    };

    for (name, value, unit) in &metrics {
        println!("{name:<30} {value:>16.4} {unit}");
        if !value.is_finite() {
            problems.push(format!("{name} is not finite"));
        }
    }
    for p in &problems {
        println!("INVALID RUN: {p}");
    }
    let mut json = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        problems.is_empty(),
        attempted - ok
    );
    Ok(())
}
