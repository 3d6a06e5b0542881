//! Concrete generators.

use crate::{RngCore, SeedableRng};

/// SplitMix64 — the workspace's one tiny deterministic generator. It
/// expands `u64` seeds into full [`StdRng`] state, and is used directly
/// wherever a stream must stay bit-stable across platforms and releases:
/// the canary frame, chaos plans, load-generator schedules and the
/// trainer's per-epoch / per-batch seed derivation.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates the generator from a raw state word.
    pub fn new(state: u64) -> Self {
        SplitMix64 { state }
    }

    /// Stateless hash of `z`: the first output of a generator seeded with
    /// it. Used to derive independent streams from composite keys.
    pub fn mix(z: u64) -> u64 {
        SplitMix64::new(z).next_u64()
    }
}

impl RngCore for SplitMix64 {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The workspace's standard deterministic generator: xoshiro256++.
///
/// Not bit-compatible with upstream `rand::rngs::StdRng` (which is ChaCha12);
/// the workspace only relies on within-build reproducibility.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl RngCore for StdRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

impl SeedableRng for StdRng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut s = [0u64; 4];
        for (i, chunk) in seed.chunks_exact(8).enumerate() {
            s[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        // xoshiro forbids the all-zero state.
        if s.iter().all(|&w| w == 0) {
            s = [0x9E37_79B9_7F4A_7C15, 1, 2, 3];
        }
        StdRng { s }
    }
}
