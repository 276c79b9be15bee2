//! Seeded payload bytes. Every byte a driver sends is a pure function of
//! `(seed, stream offset)`, so a receiver can verify what it got without
//! keeping a copy, and the same seed always produces the same inputs.

/// SplitMix64 finalizer: a fast, well-mixed 64-bit hash.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded, position-addressable byte stream.
#[derive(Debug, Clone, Copy)]
pub struct Pattern {
    key: u64,
}

impl Pattern {
    /// The stream for `seed`, diversified by `lane` so that independent
    /// byte streams of one point (e.g. the FTP file and the RPC argument)
    /// do not repeat each other.
    pub fn new(seed: u64, lane: u64) -> Pattern {
        Pattern {
            key: mix(seed ^ mix(lane)),
        }
    }

    /// A 64-bit seed for `name`, derived from this stream's key (one
    /// independent fault schedule per named point).
    pub fn derive(&self, name: &str) -> u64 {
        name.bytes().fold(self.key, |h, b| mix(h ^ u64::from(b)))
    }

    /// Fill `out` with the stream bytes starting at offset `off`.
    pub fn fill(&self, off: u64, out: &mut [u8]) {
        let mut i = 0usize;
        while i < out.len() {
            let pos = off + i as u64;
            let word = mix(self.key ^ (pos >> 3)).to_le_bytes();
            let lane = (pos & 7) as usize;
            let n = (8 - lane).min(out.len() - i);
            out[i..i + n].copy_from_slice(&word[lane..lane + n]);
            i += n;
        }
    }

    /// `len` stream bytes starting at offset `off`.
    pub fn bytes(&self, off: u64, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.fill(off, &mut v);
        v
    }

    /// Offset of the first byte of `got` that differs from the stream at
    /// `off`, if any.
    pub fn mismatch(&self, off: u64, got: &[u8]) -> Option<u64> {
        let mut want = [0u8; 4096];
        for (ci, chunk) in got.chunks(want.len()).enumerate() {
            let base = off + (ci * want.len()) as u64;
            let want = &mut want[..chunk.len()];
            self.fill(base, want);
            if let Some(i) = chunk.iter().zip(want.iter()).position(|(a, b)| a != b) {
                return Some(base + i as u64);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::Pattern;

    #[test]
    fn fill_matches_bytewise_and_is_seeded() {
        let p = Pattern::new(7, 0);
        let v = p.bytes(5, 37);
        for (i, b) in v.iter().enumerate() {
            assert_eq!(p.bytes(5 + i as u64, 1), [*b], "offset {i}");
        }
        assert_eq!(p.mismatch(5, &v), None);
        let mut bad = v.clone();
        bad[20] ^= 1;
        assert_eq!(p.mismatch(5, &bad), Some(25));
        assert_ne!(Pattern::new(8, 0).bytes(5, 37), v);
    }
}
