//! The paper's case split in closed form, written from the paper and kept
//! apart from the program's enumeration so the two check each other.
//!
//! With `f` fraction bits the overlap range runs over `3f + 5` exponent
//! differences δ (from −(f+3) to 2f+1, the −(f+3) boundary included, which
//! is one more than the paper counts). The δs where cancellation can occur
//! are split further by the normalisation shift: `2f + 2` exact shifts plus
//! one rest case. Every other overlap δ is one case, and the far-out
//! region is one more.

use fmaverify::{enumerate_cases, CaseClass, FpuConfig, FpuOp};

/// Case counts by class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CaseCounts {
    /// Far-out cases.
    pub far_out: usize,
    /// Overlap δs without cancellation.
    pub no_cancellation: usize,
    /// Cancellation sub-cases (δ × shift amount).
    pub cancellation: usize,
    /// Unsplit whole-space cases.
    pub monolithic: usize,
}

impl CaseCounts {
    /// All cases.
    pub fn total(&self) -> usize {
        self.far_out + self.no_cancellation + self.cancellation + self.monolithic
    }
}

/// Cancellation δs of a flush-to-zero instruction: the product of an FMA
/// has two integer bits, so δ ∈ {−2, −1, 0, 1}; addition's product is
/// `a·1` with one integer bit, so δ = −2 cannot cancel.
fn cancellation_delta_count(op: FpuOp) -> usize {
    match op {
        FpuOp::Add => 3,
        _ => 4,
    }
}

/// The case counts the paper's split gives for `op` at `f` fraction bits
/// (flush-to-zero). Multiplication is one unsplit case.
pub fn expected_counts(op: FpuOp, frac_bits: usize) -> CaseCounts {
    if op == FpuOp::Mul {
        return CaseCounts {
            far_out: 0,
            no_cancellation: 0,
            cancellation: 0,
            monolithic: 1,
        };
    }
    let cancel = cancellation_delta_count(op);
    CaseCounts {
        far_out: 1,
        no_cancellation: 3 * frac_bits + 5 - cancel,
        cancellation: cancel * (2 * frac_bits + 3),
        monolithic: 0,
    }
}

/// The counts of the program's own enumeration.
pub fn enumerated_counts(cfg: &FpuConfig, op: FpuOp) -> CaseCounts {
    let cases = enumerate_cases(cfg, op);
    let count = |class: CaseClass| cases.iter().filter(|c| c.class() == class).count();
    CaseCounts {
        far_out: count(CaseClass::FarOut),
        no_cancellation: count(CaseClass::OverlapNoCancellation),
        cancellation: count(CaseClass::OverlapWithCancellation),
        monolithic: count(CaseClass::Monolithic),
    }
}

/// A problem line per instruction whose enumeration differs from the
/// closed form.
pub fn check_counts(cfg: &FpuConfig, ops: &[FpuOp]) -> Vec<String> {
    let f = cfg.format.frac_bits() as usize;
    ops.iter()
        .filter_map(|&op| {
            let want = expected_counts(op, f);
            let got = enumerated_counts(cfg, op);
            (want != got)
                .then(|| format!("{op:?} case split: closed form {want:?}, enumeration {got:?}"))
        })
        .collect()
}
