//! Seeded input generation. Every input a workload sends is drawn here
//! from the run's `--seed`, during set-up.

/// SplitMix64: a small, fast generator for bulk payload bytes.
#[derive(Debug, Clone)]
pub struct Gen(u64);

impl Gen {
    /// A generator for stream `stream` of seed `seed`; streams of one
    /// seed are independent.
    pub fn new(seed: u64, stream: u64) -> Gen {
        let mut g = Gen(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next_u64();
        g
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `len` random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }

    /// `n` random RGBA pixels.
    pub fn pixels(&mut self, n: usize) -> Vec<u32> {
        (0..n).map(|_| self.next_u64() as u32).collect()
    }

    /// `n` small integral `f32`s in `[-4, 4]`, so every product sum is
    /// exact and the device result must equal the host reference bit for
    /// bit.
    pub fn small_f32s(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| (self.next_u64() % 9) as f32 - 4.0).collect()
    }
}

/// FNV-1a 64 fold of `bytes` into `h`: the inputs fingerprint.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    if h == 0 {
        h = 0xCBF2_9CE4_8422_2325;
    }
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}
