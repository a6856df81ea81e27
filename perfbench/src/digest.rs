//! End-state digest: one 64-bit fold over every bit of the prognostic
//! state, so two runs agree on it only when they agree bitwise.

use fsbm_core::state::SbmPatchState;

/// Folds the per-field checksums of [`SbmPatchState::digest`] (T, vapor,
/// surface rain, every bin slab) and the accumulated precipitation.
pub fn state_digest(state: &SbmPatchState) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for field in state.digest().fields {
        mix(field.checksum);
    }
    mix(state.precip_acc.to_bits());
    h
}

/// Hex form used in reports and the reference file.
pub fn hex(d: u64) -> String {
    format!("{d:016x}")
}
