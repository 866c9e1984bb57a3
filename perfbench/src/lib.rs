//! A steady, single-worker benchmark of the fmaverify flow.
//!
//! One process runs one named workload (see `README.md`): it sets the
//! workload up several times, then runs whole rounds of its jobs on one
//! worker thread until the requested seconds are spent, checks every
//! verdict against the known answer and against independent computations,
//! and prints one JSON line with the jobs attempted and failed and every
//! end-to-end metric. The traced mode runs one plain round and one round
//! that calls each layer's public function itself, and prints the
//! per-layer metrics instead.

#![warn(missing_docs)]

pub mod closed_form;
pub mod layers;
pub mod process;
pub mod report;
pub mod stats;
pub mod workloads;

use std::time::Instant;

use report::{Values, END_TO_END, PER_LAYER};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 15;

/// One job: a case, a SAT check or a mutant.
#[derive(Clone, Debug)]
pub struct Job {
    /// What the job was, for failure messages.
    pub label: String,
    /// Its time in milliseconds.
    pub ms: f64,
    /// True when it gave the known answer and passed every check.
    pub ok: bool,
}

/// One round: every job of the workload once.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Wall time from the start of the first job to the last verdict.
    pub wall_s: f64,
    /// CPU time of the process over the same span.
    pub cpu_s: f64,
    /// The jobs, in the order they ran.
    pub jobs: Vec<Job>,
    /// Escalations to a further engine rung.
    pub escalations: u64,
    /// Per-layer values, measured in traced rounds only.
    pub layers: Values,
    /// Workload-level check failures (not tied to one job).
    pub problems: Vec<String>,
}

/// Wall and process CPU clocks, started together.
pub(crate) struct Clock {
    wall: Instant,
    cpu_s: f64,
}

impl Clock {
    pub(crate) fn start() -> Clock {
        Clock {
            wall: Instant::now(),
            cpu_s: process::cpu_seconds(),
        }
    }

    /// Records the time since [`Clock::start`] as the round's span.
    pub(crate) fn stop(&self, round: &mut Round) {
        round.wall_s = self.wall.elapsed().as_secs_f64();
        round.cpu_s = process::cpu_seconds() - self.cpu_s;
    }
}

/// What one set-up built and how long its parts took.
#[derive(Clone, Copy, Debug, Default)]
pub struct Setup {
    /// Time spent in `build_harness`.
    pub build_ms: f64,
    /// Time spent enumerating cases and materialising their constraints.
    pub constraints_ms: f64,
    /// AND gates of the harnesses built.
    pub and_gates: usize,
    /// Cases whose constraints were materialised.
    pub cases: usize,
}

/// A benchmark workload.
pub trait Workload {
    /// Builds (again) everything the jobs need and keeps it.
    fn setup(&mut self) -> Setup;
    /// Workload-level checks of what the set-up built (case counts).
    fn check_setup(&self) -> Vec<String>;
    /// Runs every job once. A traced round calls each layer itself and
    /// fills [`Round::layers`].
    fn round(&mut self, traced: bool) -> Round;
}

/// The printed outcome of one run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// No workload-level check failed.
    pub correct: bool,
    /// Jobs attempted over all rounds.
    pub attempted: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// The catalogued metrics of the mode.
    pub values: Values,
    /// Workload-level check failures; `correct` is true iff there are none.
    pub problems: Vec<String>,
    /// The labels of the failed jobs.
    pub failures: Vec<String>,
}

impl Outcome {
    /// The JSON result line for the mode the outcome was measured in.
    pub fn line(&self, traced: bool) -> String {
        let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        report::result_line(
            self.correct,
            self.attempted,
            self.failed,
            catalogue,
            &self.values,
        )
    }
}

/// Runs `workload`: [`SETUP_REPEATS`] set-ups, then whole rounds while the
/// next one is expected to end within `seconds` (at least one), or, when
/// `traced`, one plain and one traced round.
pub fn run(workload: &mut dyn Workload, seconds: f64, traced: bool) -> Outcome {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        setups.push(workload.setup());
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut problems = workload.check_setup();
    let [q1, q2, q3] = stats::quartiles(&setup_s);
    eprintln!(
        "perfbench: {SETUP_REPEATS} set-ups: median {:.3} ms (q1 {:.3}, q3 {:.3})",
        q2 * 1e3,
        q1 * 1e3,
        q3 * 1e3
    );

    let mut rounds = Vec::new();
    let mut values = Values::new();
    if traced {
        let plain = workload.round(false);
        let mut traced_round = workload.round(true);
        let layers = &mut traced_round.layers;
        let pick = |f: fn(&Setup) -> f64| stats::median(&setups.iter().map(f).collect::<Vec<_>>());
        layers.set("harness.build_ms", pick(|s| s.build_ms));
        layers.set("harness.and_gates", setups[0].and_gates as f64);
        layers.set("cases.constraints_ms", pick(|s| s.constraints_ms));
        layers.set("cases.count", setups[0].cases as f64);
        let job_ms: f64 = plain.jobs.iter().map(|j| j.ms).sum();
        layers.set("runner.overhead_ms", plain.wall_s * 1e3 - job_ms);
        layers.set(
            "runner.critical_path_ms",
            plain.jobs.iter().map(|j| j.ms).fold(0.0, f64::max),
        );
        layers.set("sched.escalations", plain.escalations as f64);
        let overhead = traced_round.wall_s - plain.wall_s;
        layers.set("trace.overhead_ms", overhead * 1e3);
        layers.set("trace.overhead_ratio", overhead / plain.wall_s);
        layers::finish(layers);
        // A layer the workload does not exercise reads 0.
        for (name, _) in PER_LAYER {
            layers.add(name, 0.0);
        }
        values = traced_round.layers.clone();
        rounds.push(plain);
        rounds.push(traced_round);
    } else {
        let start = Instant::now();
        let mut last = 0.0;
        let mut peak_rss_mb = 0.0;
        while rounds.is_empty() || start.elapsed().as_secs_f64() + last <= seconds {
            let round_start = Instant::now();
            let round = workload.round(false);
            last = round_start.elapsed().as_secs_f64();
            eprintln!(
                "perfbench: round {}: wall {:.3} s, cpu {:.2} s, {} jobs",
                rounds.len() + 1,
                round.wall_s,
                round.cpu_s,
                round.jobs.len()
            );
            rounds.push(round);
            if rounds.len() == 1 {
                // Later rounds repeat the same work; what they add to the
                // peak is allocator fragmentation, which varies run to run.
                peak_rss_mb = process::peak_rss_mib();
            }
        }
        let per_round =
            |f: &dyn Fn(&Round) -> f64| stats::median(&rounds.iter().map(f).collect::<Vec<_>>());
        let job_times = |r: &Round| r.jobs.iter().map(|j| j.ms).collect::<Vec<_>>();
        values.set("setup_s", stats::median(&setup_s));
        values.set("wall_s", per_round(&|r| r.wall_s));
        values.set("cpu_s", per_round(&|r| r.cpu_s));
        values.set("peak_rss_mb", peak_rss_mb);
        values.set("job_p50_ms", per_round(&|r| stats::median(&job_times(r))));
        values.set(
            "job_tail_ms",
            per_round(&|r| stats::job_tail(&job_times(r))),
        );
    }

    let mut failures = Vec::new();
    for round in &mut rounds {
        problems.append(&mut round.problems);
        failures.extend(round.jobs.iter().filter(|j| !j.ok).map(|j| j.label.clone()));
    }
    Outcome {
        correct: problems.is_empty(),
        attempted: rounds.iter().map(|r| r.jobs.len() as u64).sum(),
        failed: failures.len() as u64,
        values,
        problems,
        failures,
    }
}
