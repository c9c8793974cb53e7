//! The traced run: a single-threaded replay of the workload's requests
//! that calls each layer's public functions from outside and times them.
//!
//! Per request it follows the daemon's path — artifact key, cache
//! lookup, and on a miss: parse, front end, dispatch, generator set-up,
//! Algorithm 1, region formation, instruction mapping, compose, C
//! emission, cache admission. Algorithm 1 runs here with a fresh
//! [`Autotuner`], as every daemon request's generator does, and the
//! generator is handed the resulting history so `compose` does not
//! repeat it; the emitted bytes are checked against what the daemon
//! served, so the trace times the same work the daemon did.

use crate::alloc;
use crate::check::options;
use crate::corpus::{Corpus, Request};
use hcg_core::dispatch::Dispatch;
use hcg_core::emit::to_c_source;
use hcg_core::CompileSession;
use hcg_kernels::{Autotuner, Meter};
use hcg_model::PortRef;
use hcg_serve::{ArtifactProvider, CompileOptions, ContentKey, MemoryStore, Outcome, ShardedCache};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Sessions the replay keeps, as the daemon's default session LRU.
const SESSION_CAPACITY: usize = 256;

/// Layers of the traced replay, in request order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L {
    Key,
    CacheGet,
    Parse,
    FrontEnd,
    Dispatch,
    GeneratorInit,
    Select,
    RegionFormation,
    InstructionMapping,
    Compose,
    Emit,
    CacheAdmit,
}

const LAYERS: [(L, &str); 12] = [
    (L::Key, "serve.key"),
    (L::CacheGet, "serve.cache_get"),
    (L::Parse, "model.parse"),
    (L::FrontEnd, "model.frontend"),
    (L::Dispatch, "core.dispatch"),
    (L::GeneratorInit, "core.generator_init"),
    (L::Select, "kernels.select"),
    (L::RegionFormation, "core.region_formation"),
    (L::InstructionMapping, "core.instruction_mapping"),
    (L::Compose, "core.compose"),
    (L::Emit, "core.emit"),
    (L::CacheAdmit, "serve.cache_admit"),
];

/// Self time, calls and allocations of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerStat {
    /// Self time, ns.
    pub ns: u64,
    /// Calls.
    pub calls: u64,
    /// Allocations counted inside the layer.
    pub allocs: u64,
}

/// Replay rounds; each is one untraced then one traced pass over the same
/// requests. Times are summed over rounds, counts come from the first
/// round and must repeat in the others.
pub const ROUNDS: u64 = 3;

/// What the traced replay measured.
#[derive(Debug, Default)]
pub struct Trace {
    /// Replayed (timed-schedule) requests per round.
    pub requests: u64,
    /// Per-layer self time summed over rounds; calls and allocations of
    /// the first round. Indexed like [`LAYERS`].
    pub layers: [LayerStat; 12],
    /// Wall time of each traced round, ns.
    pub traced_walls: Vec<u64>,
    /// Wall time of each untraced round, ns.
    pub untraced_walls: Vec<u64>,
    /// Untraced in-process compile time (parse → emit) per miss, ns.
    pub untraced_compile_ns_per_miss: f64,
    /// Every round repeated the first round's counts exactly.
    pub counts_repeat: bool,
    /// Algorithm 1 selections, and distinct `(kind, dtype, size)` keys.
    pub selects: u64,
    /// Distinct selection keys.
    pub distinct_selects: u64,
    /// Regions formed, SIMD instructions selected, nodes fused, kernel calls.
    pub regions_formed: u64,
    /// Instructions selected.
    pub instructions_selected: u64,
    /// Nodes fused into compound instructions.
    pub nodes_fused: u64,
    /// Kernel calls emitted.
    pub kernel_calls: u64,
    /// Actors parsed.
    pub actors: u64,
    /// Replayed compiles whose bytes differ from the served body.
    pub mismatches: u64,
}

impl Trace {
    /// Stats of one layer.
    pub fn layer(&self, l: L) -> LayerStat {
        self.layers[LAYERS.iter().position(|(x, _)| *x == l).expect("listed")]
    }

    /// Replayed requests over all traced rounds.
    fn replayed(&self) -> f64 {
        (self.requests * self.traced_walls.len() as u64).max(1) as f64
    }

    /// Per-request self time of a layer, µs.
    pub fn us(&self, l: L) -> f64 {
        self.layer(l).ns as f64 / 1e3 / self.replayed()
    }

    /// Measured per-request time of the traced replay, µs.
    pub fn request_us(&self) -> f64 {
        self.traced_walls.iter().sum::<u64>() as f64 / 1e3 / self.replayed()
    }

    /// Sum of every layer's per-request self time, µs.
    pub fn layers_sum_us(&self) -> f64 {
        self.layers.iter().map(|s| s.ns).sum::<u64>() as f64 / 1e3 / self.replayed()
    }

    /// Replayed requests per second, untraced and traced (median round).
    pub fn rps(&self) -> (f64, f64) {
        let rate = |walls: &[u64]| {
            let w: Vec<f64> = walls.iter().map(|&ns| ns as f64).collect();
            self.requests as f64 / (crate::stats::median(&w) / 1e9)
        };
        (rate(&self.untraced_walls), rate(&self.traced_walls))
    }

    /// Everything the determinism check compares: per-layer calls and
    /// allocations plus the work counts.
    fn counts(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .layers
            .iter()
            .flat_map(|l| [l.calls, l.allocs])
            .collect();
        v.extend([
            self.selects,
            self.distinct_selects,
            self.regions_formed,
            self.instructions_selected,
            self.nodes_fused,
            self.kernel_calls,
            self.actors,
        ]);
        v
    }

    /// The per-layer table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<26} {:>12} {:>8} {:>10} {:>7}\n",
            "layer", "self_us/req", "calls", "allocs", "share"
        );
        let total = self.request_us().max(1e-9);
        for (i, (_, name)) in LAYERS.iter().enumerate() {
            let s = self.layers[i];
            let us = s.ns as f64 / 1e3 / self.replayed();
            out.push_str(&format!(
                "{name:<26} {us:>12.3} {:>8} {:>10} {:>6.1}%\n",
                s.calls,
                s.allocs,
                100.0 * us / total
            ));
        }
        out
    }
}

fn stamp() -> (Instant, u64) {
    (Instant::now(), alloc::allocs())
}

/// A replay's cache and session state, fresh for each replay.
struct ReplayState {
    cache: ShardedCache<MemoryStore>,
    sessions: HashMap<ContentKey, Arc<CompileSession>>,
    order: VecDeque<ContentKey>,
}

impl ReplayState {
    fn new() -> Self {
        let d = crate::load::daemon_config();
        ReplayState {
            cache: ShardedCache::new(d.shards, d.shard_budget, MemoryStore),
            sessions: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// The session under `key` (the daemon's model-bytes key), parsing
    /// `bytes` on a miss (`parse` wraps the parse so the traced replay can
    /// time it).
    fn session(
        &mut self,
        key: ContentKey,
        bytes: &str,
        parse: impl FnOnce(&str) -> hcg_model::Model,
    ) -> Arc<CompileSession> {
        if let Some(s) = self.sessions.get(&key) {
            return Arc::clone(s);
        }
        let s = Arc::new(CompileSession::new(parse(bytes)));
        self.sessions.insert(key, Arc::clone(&s));
        self.order.push_back(key);
        if self.order.len() > SESSION_CAPACITY {
            let old = self.order.pop_front().expect("over capacity");
            self.sessions.remove(&old);
        }
        s
    }
}

/// One untraced request; returns the compile time (ns) on a miss.
fn untraced_request(st: &mut ReplayState, req: &Request, xml: &str) -> Option<u64> {
    let opts = options(req.arch);
    let key = opts.artifact_key(xml.as_bytes());
    if st.cache.fetch(key).is_some() {
        return None;
    }
    let t0 = Instant::now();
    let session_key = CompileOptions::session_key(xml.as_bytes());
    let session = st.session(session_key, xml, |text| {
        hcg_model::parser::model_from_xml(text).expect("corpus models parse")
    });
    let generator = opts.build_generator();
    let prog = session
        .generate(generator.as_ref(), req.arch)
        .expect("corpus models compile");
    let text = to_c_source(&prog);
    let ns = t0.elapsed().as_nanos() as u64;
    st.cache.admit(key, Outcome::Success(Arc::new(text)));
    Some(ns)
}

/// Replay `warmup` (untimed) then `timed`, alternating untraced and
/// traced passes for [`ROUNDS`] rounds, each pass from a fresh cache, and
/// compare traced compiles with `served`. Request bytes are built, and
/// compiled bytes checked, outside the timed loops.
pub fn replay(
    corpus: &Corpus,
    warmup: &[Request],
    timed: &[Request],
    served: &HashMap<Request, crate::load::Digest>,
) -> Trace {
    let mut trace = Trace {
        requests: timed.len() as u64,
        ..Trace::default()
    };

    let warm = || {
        let mut st = ReplayState::new();
        for r in warmup {
            untraced_request(&mut st, r, &corpus.xml(r));
        }
        st
    };
    let xmls: Vec<_> = timed.iter().map(|r| corpus.xml(r)).collect();

    let (mut compile_ns, mut misses) = (0u64, 0u64);
    trace.counts_repeat = true;
    for round in 0..ROUNDS {
        let mut st = warm();
        let t0 = Instant::now();
        for (r, xml) in timed.iter().zip(&xmls) {
            if let Some(ns) = untraced_request(&mut st, r, xml) {
                compile_ns += ns;
                misses += 1;
            }
        }
        trace.untraced_walls.push(t0.elapsed().as_nanos() as u64);

        let mut st = warm();
        let mut t = Trace {
            requests: timed.len() as u64,
            ..Trace::default()
        };
        let mut emitted = Vec::new();
        let mut distinct = HashSet::new();
        alloc::set_counting(true);
        let t0 = Instant::now();
        for (r, xml) in timed.iter().zip(&xmls) {
            if let Some(text) = traced_request(&mut st, r, xml, &mut t, &mut distinct) {
                emitted.push((r, text));
            }
        }
        let wall = t0.elapsed().as_nanos() as u64;
        alloc::set_counting(false);
        t.distinct_selects = distinct.len() as u64;
        trace.mismatches += emitted
            .iter()
            .filter(|(r, text)| {
                served
                    .get(r)
                    .is_some_and(|d| *d != crate::load::Digest::of(text.as_bytes()))
            })
            .count() as u64;
        if round == 0 {
            let (untraced, mismatches) = (trace.untraced_walls.clone(), trace.mismatches);
            trace = Trace {
                untraced_walls: untraced,
                mismatches,
                counts_repeat: true,
                ..t
            };
        } else {
            trace.counts_repeat &= t.counts() == trace.counts();
            for (acc, l) in trace.layers.iter_mut().zip(&t.layers) {
                acc.ns += l.ns;
            }
        }
        trace.traced_walls.push(wall);
    }
    trace.untraced_compile_ns_per_miss = compile_ns as f64 / misses.max(1) as f64;
    trace
}

/// An Algorithm 1 selection key: `(kind, dtype, size)`.
type SelectKey = (
    hcg_model::ActorKind,
    hcg_model::DataType,
    hcg_kernels::KernelSize,
);

/// One traced request; returns the emitted source on a miss.
fn traced_request(
    st: &mut ReplayState,
    req: &Request,
    xml: &str,
    trace: &mut Trace,
    distinct: &mut HashSet<SelectKey>,
) -> Option<Arc<String>> {
    let add = |t: &mut Trace, l: L, (t0, a0): (Instant, u64)| {
        let i = LAYERS.iter().position(|(x, _)| *x == l).expect("listed");
        t.layers[i].ns += t0.elapsed().as_nanos() as u64;
        t.layers[i].calls += 1;
        t.layers[i].allocs += alloc::allocs() - a0;
    };
    let opts = options(req.arch);

    let s = stamp();
    let key = opts.artifact_key(xml.as_bytes());
    add(trace, L::Key, s);

    let s = stamp();
    let hit = st.cache.fetch(key).is_some();
    add(trace, L::CacheGet, s);
    if hit {
        return None;
    }

    // The daemon keys its session cache by a second hash of the model
    // bytes; that hashing belongs to the key layer.
    let (t0, a0) = stamp();
    let session_key = CompileOptions::session_key(xml.as_bytes());
    let ki = LAYERS
        .iter()
        .position(|(x, _)| *x == L::Key)
        .expect("listed");
    trace.layers[ki].ns += t0.elapsed().as_nanos() as u64;
    trace.layers[ki].allocs += alloc::allocs() - a0;

    let mut parsed: Option<(Instant, u64)> = None;
    let mut actors = 0;
    let session = st.session(session_key, xml, |text| {
        let s = stamp();
        let m = hcg_model::parser::model_from_xml(text).expect("corpus models parse");
        parsed = Some(s);
        actors = m.actors.len() as u64;
        m
    });
    if let Some(s) = parsed {
        add(trace, L::Parse, s);
        trace.actors += actors;
    }

    let s = stamp();
    let types = &session.front_end().expect("corpus models validate").types;
    add(trace, L::FrontEnd, s);

    let s = stamp();
    let dispatch = session.dispatch().expect("dispatch");
    add(trace, L::Dispatch, s);

    let s = stamp();
    let generator = opts.build_generator();
    add(trace, L::GeneratorInit, s);
    let hcg = generator.as_hcg().expect("hcg generator");

    let model = session.model();
    let mut tuner = Autotuner::new(Meter::OpCount);
    for (actor, d) in model.actors.iter().zip(dispatch) {
        let Dispatch::Intensive { size } = d else {
            continue;
        };
        let driver = model
            .driver(PortRef::new(actor.id, 0))
            .expect("intensive inputs are connected");
        let dtype = types.output(driver.actor, driver.port).dtype;
        let s = stamp();
        tuner
            .select(hcg.library(), actor.kind, dtype, size)
            .expect("corpus kernels select");
        add(trace, L::Select, s);
        trace.selects += 1;
        distinct.insert((actor.kind, dtype, size.clone()));
    }
    if tuner.history_len() > 0 {
        hcg.load_history(&tuner.history_to_text());
    }

    let (t0, a0) = stamp();
    let (prog, report) = session
        .generate_with_report(generator.as_ref(), req.arch)
        .expect("corpus models compile");
    let wall = t0.elapsed().as_nanos() as u64;
    let allocs = alloc::allocs() - a0;
    let mut staged = 0u64;
    for stage in &report.stages {
        let l = match stage.name {
            "region-formation" => L::RegionFormation,
            "instruction-mapping" => L::InstructionMapping,
            "dispatch" => L::Dispatch,
            _ => continue,
        };
        let ns = stage.micros * 1000;
        staged += ns;
        let i = LAYERS.iter().position(|(x, _)| *x == l).expect("listed");
        trace.layers[i].ns += ns;
        if l != L::Dispatch {
            trace.layers[i].calls += 1;
        }
    }
    // Compose owns the rest of the pipeline run (its own stage plus the
    // pass manager's set-up), and every allocation of the run.
    let ci = LAYERS
        .iter()
        .position(|(x, _)| *x == L::Compose)
        .expect("listed");
    trace.layers[ci].ns += wall.saturating_sub(staged);
    trace.layers[ci].calls += 1;
    trace.layers[ci].allocs += allocs;
    let totals = report.totals();
    trace.regions_formed += totals.regions_formed;
    trace.instructions_selected += totals.instructions_selected;
    trace.nodes_fused += totals.nodes_fused;
    trace.kernel_calls += totals.kernel_calls;

    let s = stamp();
    let text = Arc::new(to_c_source(&prog));
    add(trace, L::Emit, s);

    let s = stamp();
    st.cache.admit(key, Outcome::Success(Arc::clone(&text)));
    add(trace, L::CacheAdmit, s);
    Some(text)
}

/// Time the first `shared_indexed` call per arch (ISA parse and index
/// build); must run before anything else in the process touches the ISA.
pub fn isa_shared_index_us(arches: &[hcg_isa::Arch]) -> f64 {
    let t0 = Instant::now();
    for &arch in arches {
        std::hint::black_box(hcg_isa::sets::shared_indexed(arch, None));
    }
    t0.elapsed().as_nanos() as f64 / 1e3
}
