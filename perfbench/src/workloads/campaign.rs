//! Mutant jobs: the mutation campaign on the pipelined FMA, cold on a
//! fresh proof cache and then warm, with every kill confirmed by
//! simulation against softfloat.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use fmaverify::trace::MemorySink;
use fmaverify::{
    build_harness, enumerate_cases, inject_fault, run_campaign, CacheMode, CampaignReport, CaseId,
    Counter, FpuConfig, FpuOp, Harness, HarnessOptions, MutantStatus, Mutation, PipelineMode,
    ProofCache, RoundingMode, RunConfig, Session, SpanKind, TraceEvent, Tracer,
};
use fmaverify_netlist::{unroll, BitSim, InputMode, Netlist, Signal};
use fmaverify_softfloat::fma_with;

use crate::report::Values;
use crate::{closed_form, Clock, Job, Round, Setup, Workload};

const OP: FpuOp = FpuOp::Fma;
const PIPELINE: PipelineMode = PipelineMode::ThreeStage;

/// What the set-up builds: the campaign's own harness, rebuilt the way
/// `run_campaign` builds it so that mutant views and their cache
/// fingerprints match, plus a simulation copy with the implementation's
/// outputs named.
struct Base {
    harness: Harness,
    probes: Vec<(CaseId, Vec<String>)>,
    sim: Netlist,
}

/// `run_campaign` on the three-stage pipelined FMA, followed by a warm
/// re-run on the proof cache the cold run filled.
pub struct MutationCampaign {
    cfg: FpuConfig,
    mutants: usize,
    mutation_seed: u64,
    scratch: PathBuf,
    rounds_run: usize,
    base: Option<Base>,
}

impl MutationCampaign {
    /// The workload at `cfg` with `mutants` mutants drawn by
    /// `mutation_seed`; proof caches live under `scratch`.
    pub fn new(cfg: FpuConfig, mutants: usize, mutation_seed: u64, scratch: PathBuf) -> Self {
        MutationCampaign {
            cfg,
            mutants,
            mutation_seed,
            scratch,
            rounds_run: 0,
            base: None,
        }
    }

    fn config(&self, cache_dir: &Path, tracer: Tracer) -> RunConfig {
        RunConfig {
            threads: 1,
            harness: HarnessOptions {
                pipeline: PIPELINE,
                ..HarnessOptions::default()
            },
            mutants: Some(self.mutants),
            mutation_seed: self.mutation_seed,
            cache_mode: CacheMode::ReadWrite,
            cache_dir: cache_dir.to_path_buf(),
            tracer,
            ..RunConfig::default()
        }
    }
}

/// Simulates `netlist` for the pipeline latency with the operands held and
/// returns the implementation's `(result, flags)`.
fn simulate(netlist: &Netlist, width: usize, operands: [(&str, u128); 5]) -> (u128, u128) {
    let mut sim = BitSim::new(netlist);
    for (name, value) in operands {
        let bits = match name {
            "op" => 3,
            "rm" => 2,
            _ => width,
        };
        for i in 0..bits {
            let input = netlist
                .find_input(&format!("{name}[{i}]"))
                .expect("operand input of the harness");
            sim.set(input, value >> i & 1 == 1);
        }
    }
    for _ in 0..PIPELINE.latency() {
        sim.step();
    }
    sim.eval();
    let word = |prefix: &str, bits: usize| -> u128 {
        (0..bits)
            .map(|i| {
                let out = netlist
                    .find_output(&format!("perfbench.{prefix}[{i}]"))
                    .expect("named implementation output");
                u128::from(sim.get(out)) << i
            })
            .sum()
    };
    (word("result", width), word("flags", 4))
}

impl Base {
    /// The campaign's verification view of one mutant: the faulty netlist
    /// unrolled to the latency, with the case's constraint parts.
    fn view(&self, mutation: &Mutation, case: CaseId) -> (Harness, Vec<Signal>) {
        let mutated = inject_fault(&self.harness.netlist, mutation.node, mutation.kind);
        let latency = PIPELINE.latency();
        let unrolled = unroll(&mutated, latency + 1, InputMode::HoldFirst).netlist;
        let miter = unrolled
            .find_output(&format!("miter@{latency}"))
            .expect("unrolled miter");
        let names = &self
            .probes
            .iter()
            .find(|(c, _)| *c == case)
            .expect("case")
            .1;
        let parts = names
            .iter()
            .map(|n| unrolled.find_probe(&format!("{n}@0")).expect("probe"))
            .collect();
        (self.harness.rebind(unrolled, miter), parts)
    }

    /// Confirms a kill independently of the engines: the counterexample of
    /// the killing case, decoded to operands, must give the softfloat FMA
    /// result and flags on the clean implementation and something else on
    /// the mutant.
    fn confirm_kill(
        &self,
        cfg: &FpuConfig,
        session: &Session,
        mutation: &Mutation,
        case: CaseId,
    ) -> Result<(), String> {
        let (harness, parts) = self.view(mutation, case);
        let cex = session
            .run_case(&harness, OP, case, &parts)
            .counterexample
            .ok_or("the killing case has no counterexample")?;
        if cex.op != OP.encode() {
            return Err(format!("counterexample opcode {} is not FMA", cex.op));
        }
        let rm = RoundingMode::ALL[cex.rm as usize];
        let want = fma_with(cfg.format, cex.a, cex.b, cex.c, rm, true);
        let want = (want.bits, u128::from(want.flags.encode()));
        let width = cfg.format.width() as usize;
        let operands = [
            ("a", cex.a),
            ("b", cex.b),
            ("c", cex.c),
            ("op", u128::from(cex.op)),
            ("rm", u128::from(cex.rm)),
        ];
        let clean = simulate(&self.sim, width, operands);
        let faulty = inject_fault(&self.sim, mutation.node, mutation.kind);
        let mutated = simulate(&faulty, width, operands);
        if clean != want {
            Err(format!("clean FPU gives {clean:?}, softfloat {want:?}"))
        } else if mutated == want {
            Err(format!("mutant agrees with softfloat {want:?}"))
        } else {
            Ok(())
        }
    }
}

impl Workload for MutationCampaign {
    fn setup(&mut self) -> Setup {
        let start = Instant::now();
        let options = HarnessOptions {
            isolate_multiplier: false,
            pipeline: PIPELINE,
            ..HarnessOptions::default()
        };
        let mut harness = build_harness(&self.cfg, options);
        let build_ms = start.elapsed().as_secs_f64() * 1e3;
        let and_gates = harness.netlist.num_ands();

        let start = Instant::now();
        let mut probes = Vec::new();
        for case in enumerate_cases(&self.cfg, OP) {
            let parts = harness.case_constraint_parts(OP, case);
            let names = parts
                .iter()
                .enumerate()
                .map(|(i, &part)| {
                    // The names `run_campaign` gives its probes.
                    let name = format!("campaign.{OP:?}.{}#{i}", case.label());
                    harness.netlist.probe(&name, part);
                    name
                })
                .collect();
            probes.push((case, names));
        }
        let constraints_ms = start.elapsed().as_secs_f64() * 1e3;

        let mut sim = harness.netlist.clone();
        let outputs = &harness.impl_fpu.outputs;
        for (prefix, word) in [("result", &outputs.result), ("flags", &outputs.flags)] {
            for (i, &bit) in word.bits().iter().enumerate() {
                sim.output(format!("perfbench.{prefix}[{i}]"), bit);
            }
        }
        let cases = probes.len();
        self.base = Some(Base {
            harness,
            probes,
            sim,
        });
        Setup {
            build_ms,
            constraints_ms,
            and_gates,
            cases,
        }
    }

    fn check_setup(&self) -> Vec<String> {
        closed_form::check_counts(&self.cfg, &[OP])
    }

    fn round(&mut self, traced: bool) -> Round {
        let dir = self.scratch.join(format!("campaign-{}", self.rounds_run));
        self.rounds_run += 1;
        let _ = std::fs::remove_dir_all(&dir);
        let (tracer, sink) = if traced {
            let (tracer, sink) = Tracer::in_memory();
            (tracer, Some(sink))
        } else {
            (Tracer::disabled(), None)
        };
        let config = self.config(&dir, tracer.clone());

        let mut round = Round::default();
        let clock = Clock::start();
        let cold = catch_unwind(AssertUnwindSafe(|| run_campaign(&self.cfg, OP, &config)));
        let warm_start = Instant::now();
        let warm = catch_unwind(AssertUnwindSafe(|| run_campaign(&self.cfg, OP, &config)));
        let warm_ms = warm_start.elapsed().as_secs_f64() * 1e3;
        clock.stop(&mut round);

        match (cold, warm) {
            (Ok(cold), Ok(warm)) => {
                self.check(&cold, &warm, &config, &mut round);
                if let Some(sink) = sink {
                    round.layers = campaign_layers(&cold, &sink, &tracer);
                    round.layers.set("campaign.warm_ms", warm_ms);
                }
            }
            _ => round.problems.push("run_campaign panicked".into()),
        }
        // Every round attempts the same number of mutants.
        while round.jobs.len() < self.mutants {
            round.jobs.push(Job {
                label: format!("mutant #{} (not run)", round.jobs.len()),
                ms: 0.0,
                ok: false,
            });
        }
        let _ = std::fs::remove_dir_all(&dir);
        round
    }
}

impl MutationCampaign {
    /// Marks each mutant job ok when it was killed with a replay-confirmed
    /// counterexample that simulation confirms against softfloat, and the
    /// warm re-run replayed the same verdict from the cache.
    fn check(
        &self,
        cold: &CampaignReport,
        warm: &CampaignReport,
        config: &RunConfig,
        round: &mut Round,
    ) {
        let base = self.base.as_ref().expect("setup ran");
        if warm.clean_cached != warm.clean_cases {
            round.problems.push(format!(
                "warm clean baseline replayed {} of {} cases",
                warm.clean_cached, warm.clean_cases
            ));
        }
        if cold.outcomes.len() != self.mutants {
            round.problems.push(format!(
                "campaign verified {} mutants, asked for {}",
                cold.outcomes.len(),
                self.mutants
            ));
        }
        // Kills are looked up in the cache the cold run filled; a view that
        // misses it is re-proved, which only costs time.
        let session = Session::new(&self.cfg)
            .configure(RunConfig {
                cache_mode: CacheMode::Off,
                tracer: Tracer::disabled(),
                ..config.clone()
            })
            .cache(Arc::new(ProofCache::open(
                &config.cache_dir,
                CacheMode::ReadOnly,
            )));
        for o in &cold.outcomes {
            let label = format!("mutant {:?} {}", o.mutation.node, o.mutation.kind.label());
            let verdict = match o.status {
                MutantStatus::Killed {
                    case,
                    replay_confirmed: true,
                } => {
                    let warm_ok = warm
                        .outcomes
                        .iter()
                        .find(|w| {
                            (w.mutation.node, w.mutation.kind) == (o.mutation.node, o.mutation.kind)
                        })
                        .is_some_and(|w| w.status == o.status && w.cached_cases == w.cases_run);
                    if warm_ok {
                        base.confirm_kill(&self.cfg, &session, &o.mutation, case)
                    } else {
                        Err("warm re-run did not replay the cold verdict".into())
                    }
                }
                ref status => Err(format!("not a confirmed kill: {status:?}")),
            };
            if let Err(why) = &verdict {
                eprintln!("{label}: {why}");
            }
            round.jobs.push(Job {
                label,
                ms: o.wall.as_secs_f64() * 1e3,
                ok: verdict.is_ok(),
            });
        }
    }
}

/// Per-layer values of a traced campaign round, from the spans and totals
/// the in-memory tracer recorded and the cold report.
fn campaign_layers(cold: &CampaignReport, sink: &MemorySink, tracer: &Tracer) -> Values {
    let mut layers = Values::new();
    let totals = tracer.totals();
    for (counter, name) in [
        (Counter::BddIteCalls, "bdd.ite_calls"),
        (Counter::BddCacheHits, "bdd.cache_hits"),
        (Counter::BddCacheMisses, "bdd.cache_misses"),
        (Counter::BddCacheEvictions, "bdd.cache_evictions"),
        (Counter::BddUniqueProbes, "bdd.unique_probes"),
        (Counter::BddNodesAllocated, "bdd.nodes_allocated"),
        (Counter::BddGcRuns, "bdd.gc_runs"),
        (Counter::BddGcFreed, "bdd.gc_freed"),
        (Counter::BddPeakLiveNodes, "bdd.arena_peak_nodes"),
        (Counter::SatConflicts, "sat.conflicts"),
        (Counter::SatDecisions, "sat.decisions"),
        (Counter::SatPropagations, "sat.propagations"),
        (Counter::SatRestarts, "sat.restarts"),
        (Counter::SweepMerges, "sweep.merges"),
        (Counter::SweepSatCalls, "sweep.sat_calls"),
        (Counter::SweepSimRounds, "sweep.sim_rounds"),
        (Counter::CacheHits, "cache.hits"),
        (Counter::CacheMisses, "cache.misses"),
        (Counter::CacheStores, "cache.stores"),
    ] {
        layers.set(name, totals.get(counter) as f64);
    }

    // Span durations by id, then each case span's own time: the case span
    // minus its engine stages and counterexample replays, which leaves the
    // fingerprint, cache lookup and store.
    let mut child_ms: HashMap<u64, f64> = HashMap::new();
    let mut case_ms: Vec<(u64, f64)> = Vec::new();
    let mut clean_ms = None;
    for event in sink.events() {
        let TraceEvent::SpanEnd {
            id,
            parent,
            kind,
            name,
            dur,
            ..
        } = event
        else {
            continue;
        };
        let ms = dur.as_secs_f64() * 1e3;
        match kind {
            SpanKind::Case => case_ms.push((id, ms)),
            SpanKind::Stage => {
                *child_ms.entry(parent.unwrap_or(0)).or_default() += ms;
                if name.starts_with("bdd") {
                    layers.add("bdd.engine_ms", ms);
                } else {
                    layers.add("sat.solve_ms", ms);
                }
            }
            SpanKind::Op if name == "replay" => {
                *child_ms.entry(parent.unwrap_or(0)).or_default() += ms;
                layers.add("cex.replay_ms", ms);
            }
            // The first run the campaign makes is the clean baseline.
            SpanKind::Run if name.starts_with("cases:") && clean_ms.is_none() => {
                clean_ms = Some(ms);
            }
            _ => {}
        }
    }
    let dispatch: f64 = case_ms
        .iter()
        .map(|(id, ms)| ms - child_ms.get(id).copied().unwrap_or(0.0))
        .sum();
    layers.set("cache.dispatch_ms", dispatch);
    layers.set("campaign.clean_ms", clean_ms.unwrap_or(0.0));
    layers.set(
        "campaign.mutant_ms",
        cold.outcomes
            .iter()
            .map(|o| o.wall.as_secs_f64() * 1e3)
            .sum(),
    );
    layers.set("campaign.screened_out", cold.screened_out as f64);
    layers.set(
        "campaign.cases_run",
        (cold.clean_cases + cold.outcomes.iter().map(|o| o.cases_run).sum::<usize>()) as f64,
    );
    layers.set("campaign.cases_replayed", cold.cases_replayed() as f64);
    layers
}
