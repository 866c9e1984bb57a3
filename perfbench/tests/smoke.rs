//! Every workload's code path at the tiny (3,2) format: plain and traced
//! rounds, all checks, no failed jobs.

use fmaverify::{CaseId, FpuOp, ShaCase};
use fmaverify_perfbench::closed_form::{check_counts, expected_counts};
use fmaverify_perfbench::report::{END_TO_END, PER_LAYER};
use fmaverify_perfbench::workloads::{ftz, shuffle, CaseSweep, MutationCampaign, SatPair};
use fmaverify_perfbench::{run, Outcome, Workload};

/// A zero-length run still runs one whole round.
const ONE_ROUND: f64 = 1e-9;

fn assert_clean(outcome: &Outcome, jobs_per_round: u64, rounds: u64) {
    assert!(outcome.correct, "{:?}", outcome.problems);
    assert_eq!(outcome.failed, 0, "{:?}", outcome.failures);
    assert_eq!(outcome.attempted, jobs_per_round * rounds);
}

fn both_modes(workload: &mut dyn Workload, jobs: u64) -> Outcome {
    let plain = run(workload, ONE_ROUND, false);
    assert_clean(&plain, jobs, 1);
    for (name, _) in END_TO_END {
        assert!(plain.values.get(name) > 0.0, "{name} reads 0");
    }
    plain.line(false);
    let traced = run(workload, ONE_ROUND, true);
    assert_clean(&traced, jobs, 2);
    traced.line(true);
    traced
}

#[test]
fn closed_form_gives_the_paper_counts() {
    assert_eq!(expected_counts(FpuOp::Add, 6).total(), 66);
    assert_eq!(expected_counts(FpuOp::Fma, 6).total(), 80);
    assert_eq!(expected_counts(FpuOp::Add, 52).total(), 480);
    assert_eq!(expected_counts(FpuOp::Fma, 52).total(), 586);
    assert_eq!(expected_counts(FpuOp::Mul, 52).total(), 1);
    for (e, f) in [(3, 2), (4, 4), (5, 6), (8, 10), (11, 52)] {
        let ops = [FpuOp::Add, FpuOp::Mul, FpuOp::Fma, FpuOp::Fms];
        assert_eq!(check_counts(&ftz(e, f), &ops), Vec::<String>::new());
    }
}

#[test]
fn shuffle_is_a_seeded_permutation() {
    let mut a: Vec<u32> = (0..50).collect();
    let mut b = a.clone();
    shuffle(&mut a, 7);
    shuffle(&mut b, 7);
    assert_eq!(a, b);
    let mut sorted = a.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    let mut c: Vec<u32> = (0..50).collect();
    shuffle(&mut c, 8);
    assert_ne!(a, c);
}

#[test]
fn table1_sweep_smoke() {
    let cfg = ftz(3, 2);
    let jobs = [FpuOp::Add, FpuOp::Mul, FpuOp::Fma]
        .iter()
        .map(|&op| expected_counts(op, 2).total() as u64)
        .sum();
    let traced = both_modes(&mut CaseSweep::table1(cfg, 1), jobs);
    assert!(traced.values.get("bdd.ite_calls") > 0.0);
    assert!(traced.values.get("sat.conflicts") > 0.0);
    assert_eq!(traced.values.get("cases.count"), jobs as f64);
}

#[test]
fn binary64_sample_path_smoke() {
    let cases = vec![
        CaseId::OverlapNoCancel { delta: 3 },
        CaseId::OverlapCancel {
            delta: 0,
            sha: ShaCase::Exact(1),
        },
    ];
    let traced = both_modes(&mut CaseSweep::sample(ftz(3, 2), FpuOp::Fma, cases, 2), 2);
    assert!(traced.values.get("bdd.arena_peak_nodes") > 0.0);
    assert_eq!(traced.values.get("sat.solve_ms"), 0.0);
}

#[test]
fn sample_of_a_case_outside_the_split_is_incorrect() {
    let cases = vec![CaseId::OverlapNoCancel { delta: 99 }];
    let outcome = run(
        &mut CaseSweep::sample(ftz(3, 2), FpuOp::Fma, cases, 2),
        ONE_ROUND,
        false,
    );
    assert!(!outcome.correct);
}

#[test]
fn sat_pair_smoke() {
    let traced = both_modes(&mut SatPair::new(ftz(3, 2), 3), 6);
    assert!(traced.values.get("sweep.sat_calls") > 0.0);
    assert!(traced.values.get("tseitin.clauses") > 0.0);
    assert_eq!(traced.values.get("bdd.ite_calls"), 0.0);
}

#[test]
fn mutation_campaign_smoke() {
    let scratch = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("campaign-smoke");
    let mut campaign = MutationCampaign::new(ftz(3, 2), 6, 7, scratch.clone());
    let traced = both_modes(&mut campaign, 6);
    assert!(traced.values.get("cache.stores") > 0.0);
    assert!(traced.values.get("cache.hits") > 0.0);
    assert!(traced.values.get("campaign.clean_ms") > 0.0);
    for (name, _) in PER_LAYER {
        assert!(traced.values.get(name).is_finite(), "{name}");
    }
    assert!(
        !scratch.join("campaign-0").exists(),
        "round cache left behind"
    );
}
