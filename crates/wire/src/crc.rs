//! CRC-32 (IEEE 802.3, reflected) — the per-frame integrity check.
//!
//! The in-proc fault plane damages a 64-bit envelope checksum to *model*
//! corruption; on a real byte stream the damage is physical, so the wire
//! layer needs a checksum computed over the actual bytes. CRC-32 is the
//! standard choice for frame-sized payloads: cheap, and its burst-error
//! detection matches the failure mode of a torn or bit-flipped socket
//! stream.
//!
//! Two implementations compute the same function. On x86-64 CPUs with
//! carry-less multiply (PCLMULQDQ, plus SSE4.1), detected at run time,
//! inputs of at least one 64-byte fold block are folded 64 bytes per step
//! (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
//! PCLMULQDQ Instruction", Intel 2009) and the last `len % 16` bytes finish
//! bytewise. The bytewise table is the only path for shorter inputs (such
//! as the 36-byte frame header) and for CPUs without the instruction.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xedb8_8320;

/// Inputs shorter than this never take the folding path.
const FOLD_BLOCK: usize = 64;

/// Table of CRCs of all single-byte messages, built at compile time.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 of `bytes` (init `!0`, xor-out `!0` — the standard parameters,
/// matching `cksum`-style implementations).
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= FOLD_BLOCK && clmul::available() {
        let split = bytes.len() & !15;
        // SAFETY: `available` confirmed PCLMULQDQ and SSE4.1, and `split` is
        // a multiple of 16 no smaller than FOLD_BLOCK.
        let state = unsafe { clmul::fold(!0, &bytes[..split]) };
        return !table_update(state, &bytes[split..]);
    }
    !table_update(!0, bytes)
}

/// Advances the (pre-inverted) CRC state over `bytes`, one byte per step.
fn table_update(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xff) as usize];
    }
    crc
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    // Folding constants for the reflected IEEE polynomial, from the paper
    // cited in the module docs: K1/K2 fold 512 bits, K3/K4 fold 128 bits,
    // K5 folds 64 to 32 bits, then P' and MU drive the Barrett reduction.
    const K1: u64 = 0x0001_5444_2bd4;
    const K2: u64 = 0x0001_c6e4_1596;
    const K3: u64 = 0x0001_7519_97d0;
    const K4: u64 = 0x0000_ccaa_009e;
    const K5: u64 = 0x0001_63cd_6124;
    const P: u64 = 0x0001_db71_0641;
    const MU: u64 = 0x0001_f701_1641;

    /// Whether this CPU can run [`fold`]. The standard library caches the
    /// CPUID probe, so this is a load and a test after the first call.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Two 128-bit constants `[lo, hi]` as one vector.
    fn pair(lo: u64, hi: u64) -> __m128i {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        unsafe { _mm_set_epi64x(hi as i64, lo as i64) }
    }

    /// Loads 16 unaligned bytes.
    fn load(chunk: &[u8]) -> __m128i {
        assert!(chunk.len() >= 16, "a fold step reads 16 bytes");
        // SAFETY: the slice holds at least 16 readable bytes (checked above)
        // and `loadu` has no alignment requirement; SSE2 is baseline.
        unsafe { _mm_loadu_si128(chunk.as_ptr().cast()) }
    }

    /// Multiplies both 64-bit halves of `x` by the matching halves of `k`
    /// and adds the products: `x` moved forward by the distance `k` encodes.
    #[target_feature(enable = "pclmulqdq")]
    fn step(x: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11))
    }

    /// Advances the pre-inverted CRC state `crc` over `bytes`.
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ and SSE4.1 ([`available`]).
    /// `bytes.len()` must be a multiple of 16 and at least 64.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn fold(crc: u32, bytes: &[u8]) -> u32 {
        debug_assert!(bytes.len() >= 64 && bytes.len().is_multiple_of(16));
        let mut blocks = bytes.chunks_exact(64);
        let first = blocks.next().expect("at least one 64-byte block");
        let mut x = [load(first), load(&first[16..]), load(&first[32..]), load(&first[48..])];
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));
        // Four independent 128-bit lanes, each folded 512 bits ahead.
        let k1k2 = pair(K1, K2);
        for block in blocks.by_ref() {
            for (i, lane) in x.iter_mut().enumerate() {
                *lane = _mm_xor_si128(step(*lane, k1k2), load(&block[16 * i..]));
            }
        }
        // Fold the lanes into one, then any remaining 16-byte chunks.
        let k3k4 = pair(K3, K4);
        let mut acc = x[0];
        for lane in &x[1..] {
            acc = _mm_xor_si128(step(acc, k3k4), *lane);
        }
        for chunk in blocks.remainder().chunks_exact(16) {
            acc = _mm_xor_si128(step(acc, k3k4), load(chunk));
        }
        // 128 → 64 bits.
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        let mut r = _mm_xor_si128(_mm_srli_si128(acc, 8), _mm_clmulepi64_si128(acc, k3k4, 0x10));
        let high = _mm_srli_si128(r, 4);
        r = _mm_clmulepi64_si128(_mm_and_si128(r, low32), pair(K5, 0), 0x00);
        r = _mm_xor_si128(r, high);
        // Barrett reduction to 32 bits.
        let poly = pair(P, MU);
        let mut t = _mm_clmulepi64_si128(_mm_and_si128(r, low32), poly, 0x10);
        t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
        _mm_extract_epi32(_mm_xor_si128(r, t), 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, one bit at a time: the reference both paths must
    /// match.
    fn bitwise_update(mut crc: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
        }
        crc
    }

    type Crc = fn(&[u8]) -> u32;

    /// Both paths: the entry point, which folds inputs of a fold block or
    /// more on CPUs that have carry-less multiply, and the table alone.
    fn implementations() -> [(&'static str, Crc); 2] {
        [("crc32", crc32), ("table", |b| !table_update(!0, b))]
    }

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (s >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for "123456789" under CRC-32/IEEE.
        for (name, crc) in implementations() {
            assert_eq!(crc(b"123456789"), 0xcbf4_3926, "{name}");
            assert_eq!(crc(b""), 0, "{name}");
        }
    }

    #[test]
    fn every_path_matches_the_bitwise_reference() {
        let data = noise(4096 + 16, 7);
        for offset in 0..16 {
            let input = &data[offset..];
            // Prefix states of the reference, so each length costs one step.
            let mut state = !0u32;
            let mut expect = vec![!state];
            for &b in &input[..4096] {
                state = bitwise_update(state, &[b]);
                expect.push(!state);
            }
            for (name, crc) in implementations() {
                for (len, want) in expect.iter().enumerate() {
                    assert_eq!(crc(&input[..len]), *want, "{name}: len {len} offset {offset}");
                }
            }
        }
        let mib = noise(1 << 20, 11);
        let want = !bitwise_update(!0, &mib);
        for (name, crc) in implementations() {
            assert_eq!(crc(&mib), want, "{name}: 1 MiB");
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        // The second message is long enough for the folding path.
        let short = b"the quick brown fox jumps over the lazy dog".to_vec();
        let long = noise(FOLD_BLOCK + 21, 5);
        for msg in [short, long] {
            for (name, crc) in implementations() {
                let clean = crc(&msg);
                for byte in 0..msg.len() {
                    for bit in 0..8 {
                        let mut damaged = msg.clone();
                        damaged[byte] ^= 1 << bit;
                        assert_ne!(crc(&damaged), clean, "{name}: flip at byte {byte} bit {bit}");
                    }
                }
            }
        }
    }

    #[test]
    fn truncation_changes_crc() {
        for msg in [b"framed payload bytes".to_vec(), noise(200, 3)] {
            for (name, crc) in implementations() {
                let clean = crc(&msg);
                for cut in 0..msg.len() {
                    assert_ne!(crc(&msg[..cut]), clean, "{name}: truncation to {cut} bytes");
                }
            }
        }
    }
}
