//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! [--mutation-seed N]`
//!
//! Runs one workload on one worker thread and prints one JSON result line
//! (see `README.md`). Exits with code 2 on a malformed command line.

use std::process::ExitCode;

use fmaverify_perfbench::workloads::{self, DEFAULT_MUTATION_SEED};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    mutation_seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        mutation_seed: DEFAULT_MUTATION_SEED,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || -> Result<u64, String> {
            let v = value.trim();
            match v.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => v.parse(),
            }
            .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: not a positive number: {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--mutation-seed" => args.mutation_seed = number()?,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(args)
}

/// Gives the process one malloc arena. The scheduler starts a new worker
/// thread for every run of cases; with glibc's per-thread arenas, whether
/// that thread reuses the previous one's arena depends on timing, and the
/// peak memory of identical `sweep_56` runs then varied from 48 to 76 MiB.
/// With one arena it stays within 48.5–50 MiB; with one worker the arena's
/// lock is never contended.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn one_malloc_arena() {
    const M_ARENA_MAX: i32 = -8;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only sets an allocator parameter and takes no
    // pointers; it runs first in `main`, before any other thread exists.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn one_malloc_arena() {}

fn main() -> ExitCode {
    one_malloc_arena();
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    // Scratch space (the campaign's proof caches) stays inside the
    // directory the benchmark runs from, and is removed afterwards.
    let scratch =
        std::path::PathBuf::from(".perfbench-scratch").join(std::process::id().to_string());
    let mut workload = workloads::by_name(&args.workload, args.seed, args.mutation_seed, &scratch)
        .expect("validated workload name");
    let outcome = fmaverify_perfbench::run(workload.as_mut(), args.seconds, args.trace);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".perfbench-scratch");
    for problem in &outcome.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    for job in &outcome.failures {
        eprintln!("perfbench: job failed: {job}");
    }
    println!("{}", outcome.line(args.trace));
    ExitCode::SUCCESS
}
