//! The correctness pass, run after the timed phase: every distinct served
//! body (length and 128-bit digest) against a direct `CompileSession`
//! compile of the same (model, options), a seeded sample of the programs executed on the VM against
//! the golden reference, and the exact code-quality metrics.

use crate::corpus::{Corpus, Request};
use crate::load::Digest;
use crate::stats::shuffle;
use hcg_core::emit::to_c_source;
use hcg_core::{CodeGenerator, CompileSession, MappingStrategy, Reference};
use hcg_kernels::CodeLibrary;
use hcg_serve::CompileOptions;
use hcg_vm::{Compiler, CostModel, Machine, Program};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};

/// Programs executed on the VM per run, and steps per program.
const SAMPLE_PROGRAMS: usize = 12;
const SAMPLE_STEPS: usize = 2;
/// Relative tolerance for float outputs: intensive kernels may use a
/// different algorithm than the reference (radix-4 vs naive DFT round
/// differently). Integer outputs must agree exactly.
const FLOAT_TOLERANCE: f64 = 1e-4;

/// Result of the correctness pass.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Per served key: the served body matches the direct compile.
    pub key_ok: HashMap<Request, bool>,
    /// Exact-set keys that were never served.
    pub unserved: usize,
    /// Σ GccLike modeled cycles over the exact set.
    pub modeled_cycles: u64,
    /// Σ served body bytes over the exact set.
    pub code_bytes: u64,
    /// Geometric mean of Coder cycles / HCG cycles over the exact set.
    pub speedup_vs_coder: f64,
    /// Programs executed against the reference, and how many diverged.
    pub executed: usize,
    /// Executions that diverged or failed.
    pub exec_failures: Vec<String>,
}

/// The compile options every workload request carries.
pub fn options(arch: hcg_isa::Arch) -> CompileOptions {
    CompileOptions {
        generator: "hcg".to_owned(),
        arch,
        mapping: MappingStrategy::Greedy,
    }
}

/// Merge the clients' first-body digests; a key two clients saw with
/// different bytes is recorded as inconsistent.
pub fn merge_bodies(
    logs: Vec<HashMap<Request, Digest>>,
) -> (HashMap<Request, Digest>, HashSet<Request>) {
    let mut merged: HashMap<Request, Digest> = HashMap::new();
    let mut inconsistent = HashSet::new();
    for log in logs {
        for (k, body) in log {
            match merged.get(&k) {
                Some(d) if *d != body => {
                    inconsistent.insert(k);
                }
                Some(_) => {}
                None => {
                    merged.insert(k, body);
                }
            }
        }
    }
    (merged, inconsistent)
}

struct KeyResult {
    req: Request,
    ok: bool,
    exact: Option<(u64, u64, u64)>,
    exec_failure: Option<Option<String>>,
}

/// Run the correctness pass over `bodies` (every distinct served key) on
/// `threads` threads.
pub fn verify(corpus: &Corpus, bodies: &HashMap<Request, Digest>, threads: usize) -> Verdict {
    let exact: Vec<Request> = corpus.exact_set();
    let exact_set: HashSet<Request> = exact.iter().copied().collect();
    let mut sample = exact.clone();
    let mut state = corpus.seed ^ 0x5a5a_5a5a;
    shuffle(&mut sample, &mut state);
    let sample: HashSet<Request> = sample.into_iter().take(SAMPLE_PROGRAMS).collect();

    let mut keys: Vec<Request> = bodies.keys().copied().collect();
    keys.sort_by_key(|r| {
        (
            r.pool == crate::corpus::Pool::Fresh,
            r.index,
            r.arch,
            r.salt,
        )
    });
    let unserved = exact.iter().filter(|r| !bodies.contains_key(r)).count();

    let results: Vec<KeyResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|t| {
                let (keys, exact_set, sample) = (&keys, &exact_set, &sample);
                scope.spawn(move || {
                    // One generator per thread: under the deterministic
                    // meter a remembered Algorithm 1 selection equals a
                    // fresh one, so reuse changes no byte.
                    let hcg = options(hcg_isa::Arch::Neon128).build_generator();
                    let coder = hcg_baselines::SimulinkCoderGen::new();
                    let lib = CodeLibrary::new();
                    keys.iter()
                        .skip(t)
                        .step_by(threads.max(1))
                        .map(|&req| {
                            check_key(
                                corpus,
                                req,
                                bodies[&req],
                                hcg.as_ref(),
                                &coder,
                                &lib,
                                exact_set.contains(&req),
                                sample.contains(&req),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verify thread"))
            .collect()
    });

    let mut v = Verdict {
        unserved,
        ..Verdict::default()
    };
    let mut exact_results = HashMap::new();
    for r in results {
        v.key_ok.insert(r.req, r.ok);
        if let Some(e) = r.exact {
            exact_results.insert(r.req, e);
        }
        if let Some(failure) = r.exec_failure {
            v.executed += 1;
            v.exec_failures.extend(failure);
        }
    }
    // Sum in exact-set order, so the float result repeats bit for bit.
    let mut log_ratio = 0.0;
    let mut n_ratio = 0usize;
    for (hcg, coder, bytes) in exact.iter().filter_map(|r| exact_results.get(r)) {
        v.modeled_cycles += hcg;
        v.code_bytes += bytes;
        log_ratio += (*coder.max(&1) as f64 / *hcg.max(&1) as f64).ln();
        n_ratio += 1;
    }
    v.speedup_vs_coder = if n_ratio > 0 {
        (log_ratio / n_ratio as f64).exp()
    } else {
        0.0
    };
    v
}

#[allow(clippy::too_many_arguments)]
fn check_key(
    corpus: &Corpus,
    req: Request,
    served: Digest,
    hcg: &dyn CodeGenerator,
    coder: &dyn CodeGenerator,
    lib: &CodeLibrary,
    exact: bool,
    sampled: bool,
) -> KeyResult {
    let fail = |why: String| KeyResult {
        req,
        ok: false,
        exact: None,
        exec_failure: sampled.then_some(Some(why)),
    };
    let xml = corpus.xml(&req);
    let model = match hcg_model::parser::model_from_xml(&xml) {
        Ok(m) => m,
        Err(e) => return fail(format!("parse: {e}")),
    };
    let session = CompileSession::new(model);
    let prog = match session.generate(hcg, req.arch) {
        Ok(p) => p,
        Err(e) => return fail(format!("compile: {e}")),
    };
    let ok = Digest::of(to_c_source(&prog).as_bytes()) == served;
    let exact = exact.then(|| {
        let cost = CostModel::new(req.arch, Compiler::GccLike);
        let coder_cycles = session
            .generate(coder, req.arch)
            .map(|p| cost.cycles(&p, lib))
            .unwrap_or(0);
        (cost.cycles(&prog, lib), coder_cycles, served.len)
    });
    let exec_failure = sampled.then(|| execute(session.model(), &prog, lib, corpus.seed).err());
    KeyResult {
        req,
        ok,
        exact,
        exec_failure,
    }
}

/// Run `prog` for a few seeded steps beside the golden reference.
fn execute(
    model: &hcg_model::Model,
    prog: &Program,
    lib: &CodeLibrary,
    seed: u64,
) -> Result<(), String> {
    let mut reference = Reference::new(model).map_err(|e| format!("reference: {e}"))?;
    let mut machine = Machine::new(prog, lib);
    let types = model.infer_types().map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(seed);
    for step in 0..SAMPLE_STEPS {
        let inputs = hcg_fuzz::oracle::random_inputs(model, &mut rng);
        let expected = reference
            .step(&inputs)
            .map_err(|e| format!("reference step: {e}"))?;
        for (name, value) in &inputs {
            machine
                .set_input(name, value)
                .map_err(|e| format!("{}: set {name}: {e}", model.name))?;
        }
        machine
            .step()
            .map_err(|e| format!("{}: step: {e}", model.name))?;
        for (name, want) in &expected {
            let got = machine
                .read_buffer(name)
                .map_err(|e| format!("{}: read {name}: {e}", model.name))?;
            let is_float = model
                .actor_by_name(name)
                .and_then(|a| {
                    types
                        .inputs_of(model, a.id)
                        .first()
                        .map(|t| t.dtype.is_float())
                })
                .unwrap_or(true);
            let scale = want.as_f64().iter().fold(1.0f64, |acc, v| acc.max(v.abs()));
            let diff = got.max_abs_diff(want) / scale;
            let tol = if is_float { FLOAT_TOLERANCE } else { 0.0 };
            if diff.is_nan() || diff > tol {
                return Err(format!(
                    "{} on {}: outport {name} step {step}: relative diff {diff:e}",
                    model.name, prog.arch
                ));
            }
        }
    }
    Ok(())
}
