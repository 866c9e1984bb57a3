//! SAT jobs: each SAT-decided case checked by plain CDCL and again with
//! SAT sweeping first.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use fmaverify::{
    build_harness, check_miter_sat_parts, CaseId, FpuConfig, FpuOp, Harness, HarnessOptions,
    SatEngineOptions,
};
use fmaverify_netlist::Signal;

use crate::layers::{sat_case, SatVerdict};
use crate::{closed_form, Clock, Job, Round, Setup, Workload};

/// The SAT-decided cases: the unsplit multiply and the add and FMA
/// far-out cases.
const CASES: [(FpuOp, CaseId); 3] = [
    (FpuOp::Mul, CaseId::Monolithic),
    (FpuOp::Add, CaseId::FarOut),
    (FpuOp::Fma, CaseId::FarOut),
];

/// Plain and swept SAT checks of [`CASES`], called directly through
/// `check_miter_sat_parts` in a seeded order.
pub struct SatPair {
    cfg: FpuConfig,
    seed: u64,
    prepared: Vec<(Harness, Vec<Signal>)>,
}

impl SatPair {
    /// The workload at `cfg`; `seed` orders the six jobs.
    pub fn new(cfg: FpuConfig, seed: u64) -> SatPair {
        SatPair {
            cfg,
            seed,
            prepared: Vec::new(),
        }
    }
}

fn label(index: usize, swept: bool) -> String {
    let (op, case) = CASES[index];
    let engine = if swept { "sat/sweep" } else { "sat" };
    format!("{op:?} {} {engine}", case.label())
}

impl Workload for SatPair {
    fn setup(&mut self) -> Setup {
        self.prepared.clear();
        let mut setup = Setup::default();
        for (op, case) in CASES {
            let start = Instant::now();
            let mut harness = build_harness(&self.cfg, HarnessOptions::default());
            setup.build_ms += start.elapsed().as_secs_f64() * 1e3;
            setup.and_gates += harness.netlist.num_ands();
            let start = Instant::now();
            let parts = harness.case_constraint_parts(op, case);
            setup.constraints_ms += start.elapsed().as_secs_f64() * 1e3;
            setup.cases += 1;
            self.prepared.push((harness, parts));
        }
        setup
    }

    fn check_setup(&self) -> Vec<String> {
        closed_form::check_counts(&self.cfg, &[FpuOp::Add, FpuOp::Mul, FpuOp::Fma])
    }

    fn round(&mut self, traced: bool) -> Round {
        let mut order: Vec<(usize, bool)> = (0..CASES.len())
            .flat_map(|i| [(i, false), (i, true)])
            .collect();
        super::shuffle(&mut order, self.seed);

        let mut round = Round::default();
        let mut verdicts = vec![[None; 2]; CASES.len()];
        let clock = Clock::start();
        for &(i, swept) in &order {
            let (harness, parts) = &self.prepared[i];
            let job_start = Instant::now();
            let verdict = catch_unwind(AssertUnwindSafe(|| {
                if traced {
                    sat_case(
                        &harness.netlist,
                        harness.miter,
                        parts,
                        swept,
                        &mut round.layers,
                    )
                } else {
                    let out = check_miter_sat_parts(
                        &harness.netlist,
                        harness.miter,
                        parts,
                        &SatEngineOptions {
                            sweep_first: swept,
                            conflict_budget: None,
                        },
                    );
                    match (out.unknown, out.holds) {
                        (true, _) => SatVerdict::Unknown,
                        (false, true) => SatVerdict::Holds,
                        (false, false) => SatVerdict::Fails,
                    }
                }
            }))
            .ok();
            verdicts[i][usize::from(swept)] = verdict;
            round.jobs.push(Job {
                label: label(i, swept),
                ms: job_start.elapsed().as_secs_f64() * 1e3,
                ok: verdict == Some(SatVerdict::Holds),
            });
        }
        clock.stop(&mut round);

        // The plain and the swept check of a case must agree; when they do
        // not, neither verdict can be trusted.
        for (i, [plain, swept]) in verdicts.iter().enumerate() {
            if plain != swept {
                for job in &mut round.jobs {
                    if job.label == label(i, false) || job.label == label(i, true) {
                        job.ok = false;
                    }
                }
            }
        }
        round
    }
}
