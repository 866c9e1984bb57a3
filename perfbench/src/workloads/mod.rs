//! The four workloads and the parameters they run at.

mod campaign;
mod cases;
mod sat;

use fmaverify::{CaseId, DenormalMode, FpFormat, FpuConfig, FpuOp, ShaCase};

pub use campaign::MutationCampaign;
pub use cases::CaseSweep;
pub use sat::SatPair;

use crate::Workload;

/// Mutation seed of `campaign_44` unless `--mutation-seed` overrides it.
pub const DEFAULT_MUTATION_SEED: u64 = 0xBADC0DE;

/// Mutants verified per `campaign_44` round.
pub const CAMPAIGN_MUTANTS: usize = 60;

/// A flush-to-zero configuration at `(exp, frac)`.
pub fn ftz(exp: u32, frac: u32) -> FpuConfig {
    FpuConfig {
        format: FpFormat::new(exp, frac),
        denormals: DenormalMode::FlushToZero,
    }
}

/// The binary64 spot-check cases: FMA δ = 30, and FMA δ = 0 with
/// normalisation shift 60.
pub fn dp_cases() -> Vec<CaseId> {
    vec![
        CaseId::OverlapNoCancel { delta: 30 },
        CaseId::OverlapCancel {
            delta: 0,
            sha: ShaCase::Exact(60),
        },
    ]
}

/// The workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["sweep_56", "dp_bdd", "sat_810", "campaign_44"];

/// The named workload, with its inputs drawn from `seed` (job order) and
/// `mutation_seed` (the mutant sample). `scratch` is a directory the
/// workload may write (the campaign's proof cache).
pub fn by_name(
    name: &str,
    seed: u64,
    mutation_seed: u64,
    scratch: &std::path::Path,
) -> Option<Box<dyn Workload>> {
    Some(match name {
        "sweep_56" => Box::new(CaseSweep::table1(ftz(5, 6), seed)),
        "dp_bdd" => Box::new(CaseSweep::sample(
            FpuConfig::double_ftz(),
            FpuOp::Fma,
            dp_cases(),
            seed,
        )),
        "sat_810" => Box::new(SatPair::new(ftz(8, 10), seed)),
        "campaign_44" => Box::new(MutationCampaign::new(
            ftz(4, 4),
            CAMPAIGN_MUTANTS,
            mutation_seed,
            scratch.to_path_buf(),
        )),
        _ => return None,
    })
}

/// Shuffles `items` in place, the same way for the same seed (Fisher–Yates
/// over a SplitMix64 stream).
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}
