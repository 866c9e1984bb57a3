//! The traced round's direct calls into the engine layers. Each function
//! does what the program's case engine does for one job, through the same
//! public functions, but times each layer and keeps the counters the calls
//! return.

use std::time::Instant;

use fmaverify::{check_miter_bdd_parts, paper_order, BddEngineOptions, CaseId, FpuOp, Harness};
use fmaverify_netlist::{sat_sweep, Netlist, SatEncoder, Signal, SweepOptions};
use fmaverify_sat::{Lit, SolveResult, Solver};

use crate::report::Values;

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// True for the jobs the paper hands to SAT: far-out, the unsplit
/// multiply, and every multiply case.
pub fn is_sat_case(op: FpuOp, case: CaseId) -> bool {
    op == FpuOp::Mul || matches!(case, CaseId::FarOut | CaseId::Monolithic)
}

/// The δ a case fixes (the variable order depends on it).
pub fn case_delta(case: CaseId) -> Option<i64> {
    match case {
        CaseId::Monolithic | CaseId::FarOut => None,
        CaseId::OverlapNoCancel { delta } | CaseId::OverlapCancel { delta, .. } => Some(delta),
    }
}

/// One BDD case with the default engine settings, as the overlap ladder
/// runs it. Returns whether the case holds.
pub fn bdd_case(harness: &Harness, case: CaseId, parts: &[Signal], layers: &mut Values) -> bool {
    let options = BddEngineOptions {
        order: paper_order(harness, case_delta(case)),
        ..BddEngineOptions::default()
    };
    let start = Instant::now();
    let out = check_miter_bdd_parts(&harness.netlist, harness.miter, parts, &options);
    layers.add("bdd.engine_ms", ms_since(start));
    let m = &out.manager_stats;
    layers.add("bdd.ite_calls", m.ite_calls as f64);
    layers.add("bdd.cache_hits", m.cache_hits as f64);
    layers.add("bdd.cache_misses", m.cache_misses as f64);
    layers.add("bdd.cache_evictions", m.cache_evictions as f64);
    layers.add("bdd.unique_probes", m.unique_probes as f64);
    layers.add("bdd.nodes_allocated", m.nodes_created as f64);
    layers.add("bdd.gc_runs", m.gc_runs as f64);
    layers.add("bdd.gc_freed", m.gc_freed as f64);
    layers.max("bdd.arena_peak_nodes", out.peak_nodes as f64);
    layers.max("bdd.care_nodes", out.care_nodes as f64);
    out.holds && !out.aborted
}

/// The verdict of a SAT check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SatVerdict {
    /// The miter cannot fire on the care set.
    Holds,
    /// The solver found an assignment that fires the miter.
    Fails,
    /// The solver gave up.
    Unknown,
}

/// One SAT check split into its layers: optional SAT sweeping of the cone,
/// Tseitin encoding, and the CDCL solve under the care-set assumptions —
/// the steps `check_miter_sat_parts` takes, each timed on its own.
pub fn sat_case(
    netlist: &Netlist,
    miter: Signal,
    parts: &[Signal],
    sweep_first: bool,
    layers: &mut Values,
) -> SatVerdict {
    let mut roots = vec![miter];
    roots.extend_from_slice(parts);
    let swept = sweep_first.then(|| {
        let before = netlist.cone_size(&roots);
        let start = Instant::now();
        let result = sat_sweep(netlist, &roots, SweepOptions::default());
        layers.add("sweep.ms", ms_since(start));
        layers.add("sweep.sat_calls", result.sat_calls as f64);
        layers.add("sweep.merges", result.merged as f64);
        layers.add("sweep.sim_rounds", result.sim_rounds as f64);
        layers.add(
            "sweep.ands_removed",
            before.saturating_sub(result.ands_after) as f64,
        );
        result
    });
    let (netlist, roots) = match &swept {
        Some(result) => (&result.netlist, result.roots.as_slice()),
        None => (netlist, roots.as_slice()),
    };

    let start = Instant::now();
    let mut solver = Solver::new();
    let mut encoder = SatEncoder::new();
    let mut assumptions: Vec<Lit> = roots[1..]
        .iter()
        .map(|&part| encoder.lit(netlist, &mut solver, part))
        .collect();
    assumptions.push(encoder.lit(netlist, &mut solver, roots[0]));
    layers.add("tseitin.ms", ms_since(start));
    layers.add("tseitin.clauses", solver.stats().original_clauses as f64);

    let start = Instant::now();
    let result = solver.solve_with_assumptions(&assumptions);
    layers.add("sat.solve_ms", ms_since(start));
    let s = solver.stats();
    layers.add("sat.conflicts", s.conflicts as f64);
    layers.add("sat.decisions", s.decisions as f64);
    layers.add("sat.propagations", s.propagations as f64);
    layers.add("sat.restarts", s.restarts as f64);
    match result {
        SolveResult::Unsat => SatVerdict::Holds,
        SolveResult::Sat => SatVerdict::Fails,
        SolveResult::Unknown => SatVerdict::Unknown,
    }
}

/// Derives the ratio metrics from the sums.
pub fn finish(layers: &mut Values) {
    let lookups = layers.get("bdd.cache_hits") + layers.get("bdd.cache_misses");
    layers.ratio("bdd.cache_hit_ratio", "bdd.cache_hits", lookups);
    layers.ratio(
        "sweep.merge_ratio",
        "sweep.merges",
        layers.get("sweep.sat_calls"),
    );
    layers.ratio(
        "sat.propagations_per_s",
        "sat.propagations",
        layers.get("sat.solve_ms") / 1e3,
    );
    let lookups = layers.get("cache.hits") + layers.get("cache.misses");
    layers.ratio("cache.hit_ratio", "cache.hits", lookups);
}
