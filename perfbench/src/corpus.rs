//! Workload corpora and request schedules, built from the seed alone.
//!
//! The daemon only ever sees the generated model bytes. The properties
//! the compile cost depends on — per cold base model its vector length,
//! actor count and element type, or its intensive `(kind, size, dtype)`
//! triples — come from a seed-independent *template*: stratified values,
//! grouped into models once. The seed permutes the template's models and
//! draws everything else (operators, wiring, wrapper actors, the zipf
//! corpus and schedule), so two seeds give different models with the same
//! cost profile and the run-to-run spread measures the program, not the
//! corpus. (Drawing the grouping per seed moved intensive-cold p90 by 30%
//! between seeds.)

use crate::stats::{hash3, shuffle, splitmix64, unit};
use hcg_fuzz::{generate_model, GenConfig};
use hcg_isa::Arch;
use hcg_model::parser::model_to_xml;
use hcg_model::{ActorId, ActorKind, DataType, Model, ModelBuilder, SignalType};
use std::borrow::Cow;

/// The three named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct batch-only models; every request misses the cache.
    BatchCold,
    /// Distinct models built around 1–3 intensive actors; every request
    /// misses and Algorithm 1 dominates the compile.
    IntensiveCold,
    /// Zipf replay over a fuzz-model hot set plus a stream of new models.
    ServeZipf,
}

impl Workload {
    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        match name {
            "batch-cold" => Some(Workload::BatchCold),
            "intensive-cold" => Some(Workload::IntensiveCold),
            "serve-zipf" => Some(Workload::ServeZipf),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchCold => "batch-cold",
            Workload::IntensiveCold => "intensive-cold",
            Workload::ServeZipf => "serve-zipf",
        }
    }

    /// Requests the traced replay covers (a fixed prefix of the timed
    /// schedule, so its counts repeat exactly for a seed).
    pub fn trace_requests(self) -> usize {
        match self {
            Workload::BatchCold => 1500,
            Workload::IntensiveCold => 160,
            Workload::ServeZipf => 20000,
        }
    }
}

/// The arch rotation of every workload's option mix.
pub const ARCHES: [Arch; 3] = [Arch::Neon128, Arch::Avx256, Arch::Sse128];

/// Base models of the cold workloads (cycled, renamed per request).
const BATCH_MODELS: usize = 512;
const _: () = assert!(!BATCH_MODELS.is_multiple_of(3) && !INTENSIVE_MODELS.is_multiple_of(3));
const INTENSIVE_MODELS: usize = 64;
/// serve-zipf: hot-set models (× 3 arches = keys) and fresh-stream models.
const HOT_MODELS: usize = 2000;
const FRESH_MODELS: usize = 400;
/// serve-zipf: every block of this many requests opens with one fresh
/// model requested as `[a, a, b, c]` (a concurrent duplicate, then the
/// model's two other arches); the rest are hot-set Zipf draws.
const ZIPF_BLOCK: u64 = 20;
const FRESH_PER_BLOCK: u64 = 4;
const ZIPF_S: f64 = 1.1;
/// Intensive `(kind, dims, dtype)` triples in popularity order; a triple's
/// share of the corpus's intensive actors is proportional to `1 / rank`.
/// Non-powers-of-two route to the mixed-radix / Bluestein / naive paths.
const TRIPLES: [(ActorKind, [usize; 3], DataType); 16] = [
    (ActorKind::Fft, [256, 0, 0], DataType::F32),
    (ActorKind::Dct, [128, 0, 0], DataType::F32),
    (ActorKind::Conv, [256, 16, 0], DataType::F32),
    (ActorKind::Fft, [100, 0, 0], DataType::F32),
    (ActorKind::MatMul, [8, 8, 8], DataType::F64),
    (ActorKind::Fft, [1024, 0, 0], DataType::F32),
    (ActorKind::Dct, [200, 0, 0], DataType::F32),
    (ActorKind::Fft, [360, 0, 0], DataType::F64),
    (ActorKind::Conv, [500, 31, 0], DataType::F32),
    (ActorKind::Fft, [127, 0, 0], DataType::F32),
    (ActorKind::Dct, [256, 0, 0], DataType::F64),
    (ActorKind::MatMul, [12, 6, 10], DataType::F64),
    (ActorKind::Fft, [64, 0, 0], DataType::F32),
    (ActorKind::Conv, [300, 8, 0], DataType::F64),
    (ActorKind::Dct, [96, 0, 0], DataType::F32),
    (ActorKind::Fft, [500, 0, 0], DataType::F32),
];

/// One model as the daemon receives it. `head` is the byte length of
/// `<model name="NAME`, where a per-request suffix is spliced in.
#[derive(Debug, Clone)]
pub struct BaseModel {
    /// Serialized model.
    pub xml: String,
    head: usize,
}

impl BaseModel {
    fn new(model: &Model) -> Self {
        let xml = model_to_xml(model);
        let head = "<model name=\"".len() + model.name.len();
        debug_assert_eq!(&xml[head..head + 1], "\"");
        BaseModel { xml, head }
    }
}

/// Which model list a request draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pool {
    /// `Corpus::models` (cold base models, or the zipf hot set).
    Base,
    /// `Corpus::fresh` (zipf new-model stream).
    Fresh,
}

/// One compile request. `salt` renames the model (`NAME_r<salt>`), which
/// makes the bytes, and so the cache key, unique to the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request {
    /// Model list.
    pub pool: Pool,
    /// Index into that list.
    pub index: u32,
    /// Target architecture.
    pub arch: Arch,
    /// Rename suffix, `None` for the model's own bytes.
    pub salt: Option<u64>,
}

/// Seeds the cold workloads' cost templates; never the run's seed.
const TEMPLATE_SEED: u64 = 0x7e3a_1a7e;

/// Salts of warm-up requests start here, far above any timed index.
const WARM_SALT: u64 = 1 << 40;

/// A workload's models and schedule.
#[derive(Debug)]
pub struct Corpus {
    /// The workload.
    pub workload: Workload,
    /// The seed everything was drawn from.
    pub seed: u64,
    /// Cold base models, or the zipf hot set.
    pub models: Vec<BaseModel>,
    /// zipf new-model stream (empty for the cold workloads).
    pub fresh: Vec<BaseModel>,
    zipf_cdf: Vec<f64>,
    rank_to_model: Vec<u32>,
}

impl Corpus {
    /// Build the corpus of `workload` for `seed`.
    pub fn build(workload: Workload, seed: u64) -> Corpus {
        let mut state = seed ^ 0x00c0_ffee;
        let mut template = TEMPLATE_SEED;
        let (models, fresh) = match workload {
            Workload::BatchCold => (batch_corpus(seed, &mut state, &mut template), Vec::new()),
            Workload::IntensiveCold => (
                intensive_corpus(seed, &mut state, &mut template),
                Vec::new(),
            ),
            Workload::ServeZipf => {
                let cfg = GenConfig::default();
                let fuzz = |offset: u64, n: usize| -> Vec<BaseModel> {
                    (0..n as u64)
                        .map(|i| {
                            let s = hash3(seed, offset, i);
                            BaseModel::new(&generate_model(s, &cfg))
                        })
                        .collect()
                };
                (fuzz(10, HOT_MODELS), fuzz(11, FRESH_MODELS))
            }
        };
        let (zipf_cdf, rank_to_model) = if workload == Workload::ServeZipf {
            let mut weights: Vec<f64> = (1..=models.len())
                .map(|k| 1.0 / (k as f64).powf(ZIPF_S))
                .collect();
            let total: f64 = weights.iter().sum();
            let mut acc = 0.0;
            for w in &mut weights {
                acc += *w / total;
                *w = acc;
            }
            let mut ranks: Vec<u32> = (0..models.len() as u32).collect();
            shuffle(&mut ranks, &mut state);
            (weights, ranks)
        } else {
            (Vec::new(), Vec::new())
        };
        Corpus {
            workload,
            seed,
            models,
            fresh,
            zipf_cdf,
            rank_to_model,
        }
    }

    /// The `i`-th request of the timed schedule (unbounded: a pure
    /// function of `i`, so no run can exhaust it).
    pub fn timed(&self, i: u64) -> Request {
        match self.workload {
            Workload::BatchCold | Workload::IntensiveCold => Request {
                pool: Pool::Base,
                index: (i % self.models.len() as u64) as u32,
                arch: ARCHES[(i % 3) as usize],
                salt: Some(i),
            },
            Workload::ServeZipf => {
                let (block, pos) = (i / ZIPF_BLOCK, i % ZIPF_BLOCK);
                if pos < FRESH_PER_BLOCK {
                    let rot = [0, 0, 1, 2][pos as usize];
                    Request {
                        pool: Pool::Fresh,
                        index: (block % self.fresh.len() as u64) as u32,
                        arch: ARCHES[((block + rot) % 3) as usize],
                        salt: Some(block),
                    }
                } else {
                    let u = unit(hash3(self.seed, 1, i));
                    let rank = self
                        .zipf_cdf
                        .partition_point(|&c| c < u)
                        .min(self.zipf_cdf.len() - 1);
                    Request {
                        pool: Pool::Base,
                        index: self.rank_to_model[rank],
                        arch: ARCHES[(hash3(self.seed, 2, i) % 3) as usize],
                        salt: None,
                    }
                }
            }
        }
    }

    /// Untimed requests sent before the timed phase: for the cold
    /// workloads a few renamed models (lazy init, allocator warm-up), for
    /// serve-zipf every hot-set key once, in a seeded order.
    pub fn warmup(&self) -> Vec<Request> {
        match self.workload {
            Workload::BatchCold | Workload::IntensiveCold => (0..24u64)
                .map(|k| Request {
                    pool: Pool::Base,
                    index: (k % self.models.len() as u64) as u32,
                    arch: ARCHES[(k % 3) as usize],
                    salt: Some(WARM_SALT + k),
                })
                .collect(),
            Workload::ServeZipf => {
                let mut all = self.hot_keys();
                let mut state = self.seed ^ 0x3a3a;
                shuffle(&mut all, &mut state);
                all
            }
        }
    }

    fn hot_keys(&self) -> Vec<Request> {
        (0..self.models.len() as u32)
            .flat_map(|index| {
                ARCHES.map(|arch| Request {
                    pool: Pool::Base,
                    index,
                    arch,
                    salt: None,
                })
            })
            .collect()
    }

    /// The requests whose programs define the exact metrics
    /// (`modeled_cycles`, `code_bytes`, `speedup_vs_coder`): every (base
    /// model, arch) pair for the cold workloads — the first `3 × models`
    /// timed requests, since the model count is coprime to 3 — and the hot
    /// set for serve-zipf. The timed phase must serve all of them.
    pub fn exact_set(&self) -> Vec<Request> {
        match self.workload {
            Workload::BatchCold | Workload::IntensiveCold => (0..self.min_timed_requests() as u64)
                .map(|i| self.timed(i))
                .collect(),
            Workload::ServeZipf => self.hot_keys(),
        }
    }

    /// Timed requests that must complete for the exact set to be served.
    pub fn min_timed_requests(&self) -> usize {
        match self.workload {
            Workload::BatchCold | Workload::IntensiveCold => 3 * self.models.len(),
            Workload::ServeZipf => 1,
        }
    }

    /// The request's model bytes.
    pub fn xml(&self, r: &Request) -> Cow<'_, str> {
        let base = match r.pool {
            Pool::Base => &self.models[r.index as usize],
            Pool::Fresh => &self.fresh[r.index as usize],
        };
        match r.salt {
            None => Cow::Borrowed(&base.xml),
            Some(salt) => {
                let mut s = String::with_capacity(base.xml.len() + 16);
                s.push_str(&base.xml[..base.head]);
                s.push_str("_r");
                s.push_str(&salt.to_string());
                s.push_str(&base.xml[base.head..]);
                Cow::Owned(s)
            }
        }
    }

    /// A digest of every model byte (the determinism self-check compares
    /// it across seeds).
    pub fn digest(&self) -> String {
        let parts: Vec<&[u8]> = self
            .models
            .iter()
            .chain(&self.fresh)
            .map(|m| m.xml.as_bytes())
            .collect();
        hcg_serve::ContentKey::of_parts(&parts).hex()[..16].to_owned()
    }
}

/// The query string of a request.
pub fn query(arch: Arch) -> String {
    format!("generator=hcg&arch={}", arch.name())
}

/// The fixed model each setup probe compiles (per workload, seed-free, so
/// set-up time measures the daemon, not the draw).
pub fn probe_xml(workload: Workload) -> String {
    let model = match workload {
        Workload::BatchCold => {
            let mut state = 7;
            batch_model("Probe", &mut state, 256, 12, DataType::I32)
        }
        Workload::IntensiveCold => {
            let mut state = 7;
            intensive_model("Probe", &mut state, &[TRIPLES[12]])
        }
        Workload::ServeZipf => generate_model(7, &GenConfig::default()),
    };
    model_to_xml(&model)
}

/// `count` values spread evenly over `lo..=hi`, shuffled.
fn stratified(count: usize, lo: usize, hi: usize, state: &mut u64) -> Vec<usize> {
    let span = (hi - lo + 1) as f64;
    let mut v: Vec<usize> = (0..count)
        .map(|j| lo + (((j as f64 + unit(splitmix64(state))) / count as f64) * span) as usize)
        .map(|x| x.min(hi))
        .collect();
    shuffle(&mut v, state);
    v
}

/// A seed-drawn permutation of template slots.
fn slot_order(n: usize, state: &mut u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    shuffle(&mut order, state);
    order
}

fn batch_corpus(seed: u64, state: &mut u64, template: &mut u64) -> Vec<BaseModel> {
    const DTYPES: [DataType; 6] = [
        DataType::I32,
        DataType::F32,
        DataType::I16,
        DataType::F64,
        DataType::U16,
        DataType::I8,
    ];
    let lens = stratified(BATCH_MODELS, 100, 1024, template);
    let ops = stratified(BATCH_MODELS, 8, 32, template);
    let mut dtypes: Vec<DataType> = (0..BATCH_MODELS)
        .map(|j| DTYPES[j % DTYPES.len()])
        .collect();
    shuffle(&mut dtypes, template);
    slot_order(BATCH_MODELS, state)
        .into_iter()
        .enumerate()
        .map(|(j, slot)| {
            let mut s = hash3(seed, 20, j as u64);
            BaseModel::new(&batch_model(
                &format!("B{j}"),
                &mut s,
                lens[slot],
                ops[slot],
                dtypes[slot],
            ))
        })
        .collect()
}

/// A batch-only model: 2–3 inports, `n_ops` element-wise actors, every
/// value without a consumer routed to an outport. Operands favour recent
/// values, so chains (fusion candidates) form beside fan-out.
fn batch_model(name: &str, state: &mut u64, len: usize, n_ops: usize, dtype: DataType) -> Model {
    const FLOAT_BIN: [ActorKind; 6] = [
        ActorKind::Add,
        ActorKind::Sub,
        ActorKind::Mul,
        ActorKind::Min,
        ActorKind::Max,
        ActorKind::Abd,
    ];
    const INT_BIN: [ActorKind; 9] = [
        ActorKind::Add,
        ActorKind::Sub,
        ActorKind::Mul,
        ActorKind::Min,
        ActorKind::Max,
        ActorKind::Abd,
        ActorKind::BitAnd,
        ActorKind::BitOr,
        ActorKind::BitXor,
    ];
    let ty = SignalType::vector(dtype, len);
    let mut b = ModelBuilder::new(name);
    let inports = 2 + (splitmix64(state) % 2) as usize;
    let mut values: Vec<ActorId> = (0..inports)
        .map(|k| b.inport(format!("in{k}"), ty))
        .collect();
    let mut used = vec![false; values.len()];
    let pick = |state: &mut u64, values: &[ActorId], used: &mut Vec<bool>, recent: bool| {
        let n = values.len();
        let k = if recent {
            n - 1 - (splitmix64(state) as usize % n.min(3))
        } else {
            splitmix64(state) as usize % n
        };
        used[k] = true;
        values[k]
    };
    for i in 0..n_ops {
        let roll = splitmix64(state) % 10;
        let a = if roll < 2 {
            let kind = if dtype.is_float() || dtype.is_signed() {
                [ActorKind::Abs, ActorKind::Neg][(splitmix64(state) % 2) as usize]
            } else {
                ActorKind::BitNot
            };
            let src = pick(state, &values, &mut used, true);
            let a = b.add_actor(format!("u{i}"), kind);
            b.connect(src, 0, a, 0);
            a
        } else if roll < 3 && dtype.is_int() {
            let kind = [ActorKind::Shr, ActorKind::Shl][(splitmix64(state) % 2) as usize];
            let src = pick(state, &values, &mut used, true);
            let a = b.shift(format!("s{i}"), kind, 1 + (splitmix64(state) % 3) as i64);
            b.connect(src, 0, a, 0);
            a
        } else {
            let kinds: &[ActorKind] = if dtype.is_float() {
                &FLOAT_BIN
            } else {
                &INT_BIN
            };
            let kind = kinds[(splitmix64(state) % kinds.len() as u64) as usize];
            let s0 = pick(state, &values, &mut used, true);
            let s1 = pick(state, &values, &mut used, false);
            let a = b.add_actor(format!("b{i}"), kind);
            b.connect(s0, 0, a, 0);
            b.connect(s1, 0, a, 1);
            a
        };
        values.push(a);
        used.push(false);
    }
    for (k, v) in values.iter().enumerate() {
        if !used[k] {
            let o = b.outport(format!("out{k}"));
            b.connect(*v, 0, o, 0);
        }
    }
    b.build().expect("batch corpus models are valid")
}

fn intensive_corpus(seed: u64, state: &mut u64, template: &mut u64) -> Vec<BaseModel> {
    // 40% of models carry one intensive actor, 40% two, 20% three.
    let mut per_model: Vec<usize> = (0..INTENSIVE_MODELS)
        .map(|j| match j * 5 / INTENSIVE_MODELS {
            0 | 1 => 1,
            2 | 3 => 2,
            _ => 3,
        })
        .collect();
    shuffle(&mut per_model, template);
    let total: usize = per_model.iter().sum();
    // Largest-remainder apportionment of `total` actors by 1/rank.
    let weights: Vec<f64> = (1..=TRIPLES.len()).map(|r| 1.0 / r as f64).collect();
    let wsum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / wsum * total as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut order: Vec<usize> = (0..TRIPLES.len()).collect();
    order.sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    for &k in order.iter().take(total - counts.iter().sum::<usize>()) {
        counts[k] += 1;
    }
    let mut deck: Vec<(ActorKind, [usize; 3], DataType)> = counts
        .iter()
        .enumerate()
        .flat_map(|(k, &c)| std::iter::repeat_n(TRIPLES[k], c))
        .collect();
    shuffle(&mut deck, template);
    let mut next = 0;
    let groups: Vec<&[(ActorKind, [usize; 3], DataType)]> = per_model
        .iter()
        .map(|&m| {
            next += m;
            &deck[next - m..next]
        })
        .collect();
    slot_order(INTENSIVE_MODELS, state)
        .into_iter()
        .enumerate()
        .map(|(j, slot)| {
            let mut s = hash3(seed, 30, j as u64);
            BaseModel::new(&intensive_model(&format!("I{j}"), &mut s, groups[slot]))
        })
        .collect()
}

/// One branch per intensive triple: vector kinds get a batch pre-chain
/// (`Mul`, sometimes `Add`/`Max`) and a batch post-op (`Abs`, sometimes a
/// squaring `Mul`); `MatMul` takes two matrix inports.
fn intensive_model(
    name: &str,
    state: &mut u64,
    triples: &[(ActorKind, [usize; 3], DataType)],
) -> Model {
    let mut b = ModelBuilder::new(name);
    for (t, &(kind, dims, dtype)) in triples.iter().enumerate() {
        if kind == ActorKind::MatMul {
            let a = b.inport(format!("a{t}"), SignalType::matrix(dtype, dims[0], dims[1]));
            let m = b.inport(format!("m{t}"), SignalType::matrix(dtype, dims[1], dims[2]));
            let mm = b.add_actor(format!("k{t}"), kind);
            let o = b.outport(format!("o{t}"));
            b.connect(a, 0, mm, 0);
            b.connect(m, 0, mm, 1);
            b.connect(mm, 0, o, 0);
            continue;
        }
        let ty = SignalType::vector(dtype, dims[0]);
        let x = b.inport(format!("x{t}"), ty);
        let y = b.inport(format!("y{t}"), ty);
        let mut v = b.add_actor(format!("pre{t}"), ActorKind::Mul);
        b.connect(x, 0, v, 0);
        b.connect(y, 0, v, 1);
        if splitmix64(state).is_multiple_of(2) {
            let kind = [ActorKind::Add, ActorKind::Max][(splitmix64(state) % 2) as usize];
            let w = b.add_actor(format!("pre2_{t}"), kind);
            b.connect(v, 0, w, 0);
            b.connect(x, 0, w, 1);
            v = w;
        }
        let k = b.add_actor(format!("k{t}"), kind);
        b.connect(v, 0, k, 0);
        if kind == ActorKind::Conv {
            let h = b.inport(format!("h{t}"), SignalType::vector(dtype, dims[1]));
            b.connect(h, 0, k, 1);
        }
        let mut post = b.add_actor(format!("post{t}"), ActorKind::Abs);
        b.connect(k, 0, post, 0);
        if splitmix64(state).is_multiple_of(2) {
            let sq = b.add_actor(format!("post2_{t}"), ActorKind::Mul);
            b.connect(post, 0, sq, 0);
            b.connect(post, 0, sq, 1);
            post = sq;
        }
        let o = b.outport(format!("o{t}"));
        b.connect(post, 0, o, 0);
    }
    b.build().expect("intensive corpus models are valid")
}
