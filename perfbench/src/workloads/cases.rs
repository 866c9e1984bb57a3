//! Case jobs through `Session`: the Table-1 sweep and the binary64 sample.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use fmaverify::{
    build_harness, enumerate_cases, CaseId, FpuConfig, FpuOp, Harness, HarnessOptions, Session,
    Verdict,
};
use fmaverify_netlist::Signal;

use crate::layers::{bdd_case, is_sat_case, sat_case, SatVerdict};
use crate::{closed_form, Clock, Job, Round, Setup, Workload};

/// One instruction's harness and its cases' constraints.
struct Prepared {
    op: FpuOp,
    harness: Harness,
    constraints: Vec<(CaseId, Vec<Signal>)>,
}

/// Cases of one or more instructions, each instruction on its own harness
/// as `Session::run` builds it, run through `Session::run_prepared` on one
/// worker with the default engine settings and no proof cache.
pub struct CaseSweep {
    cfg: FpuConfig,
    /// Instructions and their cases (`None` = every case).
    plan: Vec<(FpuOp, Option<Vec<CaseId>>)>,
    /// Instructions whose case split is checked against the closed form.
    count_ops: Vec<FpuOp>,
    seed: u64,
    prepared: Vec<Prepared>,
}

impl CaseSweep {
    /// The Table-1 sweep: every case of add, multiply and FMA.
    pub fn table1(cfg: FpuConfig, seed: u64) -> CaseSweep {
        let ops = vec![FpuOp::Add, FpuOp::Mul, FpuOp::Fma];
        CaseSweep {
            cfg,
            plan: ops.iter().map(|&op| (op, None)).collect(),
            count_ops: ops,
            seed,
            prepared: Vec::new(),
        }
    }

    /// A fixed sample of `op`'s cases. The add and FMA case splits are
    /// still checked against the closed form.
    pub fn sample(cfg: FpuConfig, op: FpuOp, cases: Vec<CaseId>, seed: u64) -> CaseSweep {
        CaseSweep {
            cfg,
            plan: vec![(op, Some(cases))],
            count_ops: vec![FpuOp::Add, FpuOp::Fma],
            seed,
            prepared: Vec::new(),
        }
    }

    fn label(op: FpuOp, case: CaseId) -> String {
        format!("{op:?} {}", case.label())
    }
}

impl Workload for CaseSweep {
    fn setup(&mut self) -> Setup {
        self.prepared.clear();
        let mut setup = Setup::default();
        for (op, selection) in &self.plan {
            let start = Instant::now();
            let mut harness = build_harness(&self.cfg, HarnessOptions::default());
            setup.build_ms += start.elapsed().as_secs_f64() * 1e3;
            setup.and_gates += harness.netlist.num_ands();

            let start = Instant::now();
            let cases = match selection {
                Some(cases) => cases.clone(),
                None => enumerate_cases(&self.cfg, *op),
            };
            // Constraints are built in enumeration order, so the netlist
            // does not depend on the seed; only the job order does.
            let mut constraints: Vec<(CaseId, Vec<Signal>)> = cases
                .iter()
                .map(|&case| (case, harness.case_constraint_parts(*op, case)))
                .collect();
            setup.constraints_ms += start.elapsed().as_secs_f64() * 1e3;
            setup.cases += constraints.len();
            super::shuffle(&mut constraints, self.seed ^ u64::from(op.encode()));
            self.prepared.push(Prepared {
                op: *op,
                harness,
                constraints,
            });
        }
        setup
    }

    fn check_setup(&self) -> Vec<String> {
        let mut problems = closed_form::check_counts(&self.cfg, &self.count_ops);
        for (op, selection) in &self.plan {
            let all = enumerate_cases(&self.cfg, *op);
            for case in selection.iter().flatten() {
                if !all.contains(case) {
                    problems.push(format!(
                        "{} is not a case of the split",
                        Self::label(*op, *case)
                    ));
                }
            }
        }
        problems
    }

    fn round(&mut self, traced: bool) -> Round {
        let mut round = Round::default();
        let session = Session::new(&self.cfg).threads(1);
        let clock = Clock::start();
        for p in &self.prepared {
            if traced {
                for (case, parts) in &p.constraints {
                    let job_start = Instant::now();
                    let ok = catch_unwind(AssertUnwindSafe(|| {
                        if is_sat_case(p.op, *case) {
                            let h = &p.harness;
                            sat_case(&h.netlist, h.miter, parts, false, &mut round.layers)
                                == SatVerdict::Holds
                        } else {
                            bdd_case(&p.harness, *case, parts, &mut round.layers)
                        }
                    }))
                    .unwrap_or(false);
                    round.jobs.push(Job {
                        label: Self::label(p.op, *case),
                        ms: job_start.elapsed().as_secs_f64() * 1e3,
                        ok,
                    });
                }
            } else {
                for r in session.run_prepared(&p.harness, p.op, &p.constraints) {
                    round.escalations += r.escalations() as u64;
                    round.jobs.push(Job {
                        label: Self::label(p.op, r.case),
                        ms: r.duration.as_secs_f64() * 1e3,
                        ok: r.verdict == Verdict::Holds,
                    });
                }
            }
        }
        clock.stop(&mut round);
        round
    }
}
