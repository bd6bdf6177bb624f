//! The CSR pattern digest: a 64-bit hash of a pattern's `row_ptr` and
//! `col_idx` arrays, the hash half of the engine's plan-cache and routing
//! key. [`CsrPattern::digest`](crate::CsrPattern::digest) computes it once
//! per pattern storage and keeps it.
//!
//! It runs at memory speed: the two arrays are read once as `u64` words
//! and dealt round-robin onto eight independent multiply chains. It is a
//! pure function of the arrays — no seed, no process-local state, nothing
//! that depends on the target's word size or byte order — because the
//! service's routing relies on every process that ever sees a pattern
//! computing the same key.

#![forbid(unsafe_code)]

/// Independent multiply chains the words are dealt onto. One chain is
/// latency-bound at a widening multiply plus two xors per word; eight in
/// flight keep the multiplier issuing every cycle, which is about the
/// rate the arrays stream from cache.
const LANES: usize = 8;

/// Per-lane odd multipliers, which double as the lanes' starting states.
/// Distinct per lane, so the same word landing on a different lane
/// contributes differently and swapping two neighbouring words shows.
const KEYS: [u64; LANES] = [
    0xa076_1d64_78bd_642f,
    0xe703_7ed1_a0b4_28db,
    0x8ebc_6af0_9c88_c6e3,
    0x5899_65cc_7537_4cc3,
    0x9e37_79b9_7f4a_7c15,
    0xd6e8_feb8_6659_fd93,
    0xc2b2_ae3d_27d4_eb4f,
    0x2545_f491_4f6c_dd1d,
];

/// Multiplier and starting state of the serial chain that joins the
/// lanes.
const JOIN: u64 = 0x1d8e_4e27_c47d_124f;

/// Folded multiply: the halves of the 128-bit product, xored. In a
/// truncated `x * k` bit `i` of the result depends only on input bits
/// `0..=i` (bit 63 of `x` never leaves bit 63); the high half carries
/// every input bit back down across the word.
#[inline]
fn fold(x: u64, k: u64) -> u64 {
    let p = u128::from(x) * u128::from(k);
    (p as u64) ^ ((p >> 64) as u64)
}

/// Steps word `i` of `words` onto lane `i % LANES`.
///
/// Always inlined into [`digest`], where the lanes are consumed one by one
/// and never stored as an array: given a call boundary (or a final store)
/// LLVM packs pairs of lanes into vector registers for the xor and moves
/// them back out for every multiply, which costs about 2x (0.67 against
/// 0.37 ns/word measured, cache-resident).
#[inline(always)]
fn absorb(mut lanes: [u64; LANES], words: &[usize]) -> [u64; LANES] {
    let mut chunks = words.chunks_exact(LANES);
    for chunk in &mut chunks {
        for ((lane, &w), &k) in lanes.iter_mut().zip(chunk).zip(&KEYS) {
            *lane = fold(*lane ^ w as u64, k);
        }
    }
    // Zipping stops at the remainder's end: lanes past it sit this one out.
    for ((lane, &w), &k) in lanes.iter_mut().zip(chunks.remainder()).zip(&KEYS) {
        *lane = fold(*lane ^ w as u64, k);
    }
    lanes
}

/// 64-bit digest of a CSR pattern's two index arrays.
///
/// `row_ptr` is absorbed, then its length on every lane (the array
/// boundary), then `col_idx`; a serial folded-multiply chain joins
/// `col_idx`'s length and the lanes, and an avalanche finishes. The
/// boundary step and the lengths keep the same words split at a different
/// place, or zero-padded to another length, apart.
pub(crate) fn digest(row_ptr: &[usize], col_idx: &[usize]) -> u64 {
    let lanes = absorb(KEYS, row_ptr);
    let lanes = absorb(lanes, &[row_ptr.len(); LANES]);
    let lanes = absorb(lanes, col_idx);
    let mut h = fold(JOIN ^ col_idx.len() as u64, JOIN);
    for lane in lanes {
        h = fold(h ^ lane, JOIN);
    }
    avalanche(h)
}

/// splitmix64 finalizer: a bijective avalanche over `u64`.
#[inline]
fn avalanche(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;
    use crate::{CooMatrix, CsrMatrix};
    use std::collections::{BTreeMap, BTreeSet};

    fn csr(n: usize, triplets: &[(usize, usize, f64)]) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(n, n);
        for &(i, j, v) in triplets {
            coo.push(i, j, v).unwrap();
        }
        coo.to_csr()
    }

    /// The digest restated one word at a time: a lane picked by index
    /// arithmetic instead of chunking, and the 64x64 -> 128 product built
    /// from 32-bit limbs instead of `u128`.
    fn reference(row_ptr: &[usize], col_idx: &[usize]) -> u64 {
        fn fold_by_limbs(x: u64, k: u64) -> u64 {
            let (x1, x0) = (x >> 32, x & 0xffff_ffff);
            let (k1, k0) = (k >> 32, k & 0xffff_ffff);
            let mid = x1 * k0 + ((x0 * k0) >> 32);
            let mid2 = x0 * k1 + (mid & 0xffff_ffff);
            let hi = x1 * k1 + (mid >> 32) + (mid2 >> 32);
            x.wrapping_mul(k) ^ hi
        }
        let mut lanes = KEYS.to_vec();
        let mut step = |i: usize, w: usize| {
            let l = i % LANES;
            lanes[l] = fold_by_limbs(lanes[l] ^ w as u64, KEYS[l]);
        };
        for (i, &p) in row_ptr.iter().enumerate() {
            step(i, p);
        }
        for l in 0..LANES {
            step(l, row_ptr.len());
        }
        for (i, &c) in col_idx.iter().enumerate() {
            step(i, c);
        }
        let mut h = fold_by_limbs(JOIN ^ col_idx.len() as u64, JOIN);
        for lane in lanes {
            h = fold_by_limbs(h ^ lane, JOIN);
        }
        avalanche(h)
    }

    /// A seeded random CSR pattern as raw `(row_ptr, col_idx)` words.
    fn random_pattern(rng: &mut DetRng) -> (Vec<usize>, Vec<usize>) {
        let nrows = rng.gen_range(0..=24usize);
        let ncols = rng.gen_range(1..=40usize);
        let fill = rng.gen_f64() * 0.6;
        let mut row_ptr = vec![0];
        let mut col_idx = Vec::new();
        for _ in 0..nrows {
            col_idx.extend((0..ncols).filter(|_| rng.gen_bool(fill)));
            row_ptr.push(col_idx.len());
        }
        (row_ptr, col_idx)
    }

    #[test]
    fn digest_matches_the_word_at_a_time_reference() {
        let mut rng = DetRng::seed_from_u64(0xd19e57);
        for _ in 0..512 {
            let (row_ptr, col_idx) = random_pattern(&mut rng);
            assert_eq!(digest(&row_ptr, &col_idx), reference(&row_ptr, &col_idx));
        }
        // Words with high bits set, at every length around the lane width.
        let wide: Vec<usize> = (0..3 * LANES).map(|_| rng.next_u64() as usize).collect();
        for split in 0..=wide.len() {
            let (r, c) = wide.split_at(split);
            assert_eq!(digest(r, c), reference(r, c));
        }
    }

    /// The key is part of the routing contract (the service's router: a
    /// restarted service re-warms the shards the old one had warm), so it
    /// must not drift between builds, processes or targets: pin one.
    #[test]
    fn digest_of_a_known_pattern_is_pinned() {
        let a = csr(3, &[(0, 0, 1.0), (1, 2, 2.0), (2, 1, 3.0)]);
        assert_eq!(a.pattern().digest(), 0x6a6b_aa79_6d83_0252);
        assert_eq!(digest(&[0], &[]), 0xebc3_56ee_eb86_85d6);
    }

    /// Seeded collision property: 4 096 distinct random patterns, and
    /// around each of the first 512 drawn the near-misses a structured
    /// workload produces,
    /// plus all-zero arrays of every length pair around the lane width —
    /// every distinct input must digest differently.
    #[test]
    fn random_patterns_and_their_near_misses_never_collide() {
        let mut rng = DetRng::seed_from_u64(0xacab);
        let mut seen: BTreeMap<(Vec<usize>, Vec<usize>), u64> = BTreeMap::new();
        // Returns whether the input was new.
        let mut add = |row_ptr: Vec<usize>, col_idx: Vec<usize>| {
            let h = digest(&row_ptr, &col_idx);
            seen.insert((row_ptr, col_idx), h).is_none()
        };
        let (mut random, mut case) = (0, 0);
        while random < 4096 {
            let (row_ptr, col_idx) = random_pattern(&mut rng);
            if case < 512 {
                let words: Vec<usize> = row_ptr.iter().chain(&col_idx).copied().collect();
                let at = row_ptr.len();
                // The same words split one place earlier and later.
                for split in [at - 1, (at + 1).min(words.len())] {
                    add(words[..split].to_vec(), words[split..].to_vec());
                }
                let k = rng.gen_range(0..words.len());
                let edit = |f: &dyn Fn(&mut Vec<usize>)| {
                    let mut w = words.clone();
                    f(&mut w);
                    (w[..at].to_vec(), w[at..].to_vec())
                };
                // One word moved by one, two neighbours swapped, one bit
                // flipped at the top, middle and bottom of a word.
                let mut variants = vec![
                    edit(&|w| w[k] = w[k].wrapping_add(1)),
                    edit(&|w| w.swap(k, (k + 1) % words.len())),
                ];
                for bit in [63, 32, 0] {
                    variants.push(edit(&|w| w[k] ^= 1 << bit));
                }
                for (r, c) in variants {
                    add(r, c);
                }
            }
            random += usize::from(add(row_ptr, col_idx));
            case += 1;
        }
        for r_len in 0..=2 * LANES + 1 {
            for c_len in 0..=2 * LANES + 1 {
                add(vec![0; r_len], vec![0; c_len]);
            }
        }
        let distinct: BTreeSet<u64> = seen.values().copied().collect();
        assert_eq!(distinct.len(), seen.len(), "two inputs share a digest");
    }

    /// Flipping any one input bit flips about half the output bits; the
    /// mean is taken per bit position so a position that never leaves its
    /// place (bit 63 under a truncated multiply) cannot hide in the rest.
    #[test]
    fn every_input_bit_avalanches() {
        let mut rng = DetRng::seed_from_u64(0xf11b);
        let mut flipped = [0u64; 64];
        let mut trials = 0u64;
        for _ in 0..64 {
            let (row_ptr, col_idx) = random_pattern(&mut rng);
            let base = digest(&row_ptr, &col_idx);
            let at = row_ptr.len();
            let mut words: Vec<usize> = row_ptr.iter().chain(&col_idx).copied().collect();
            for k in 0..words.len() {
                for (bit, count) in flipped.iter_mut().enumerate() {
                    words[k] ^= 1 << bit;
                    let h = digest(&words[..at], &words[at..]);
                    *count += u64::from((h ^ base).count_ones());
                    words[k] ^= 1 << bit;
                }
                trials += 1;
            }
        }
        for (bit, &count) in flipped.iter().enumerate() {
            let mean = count as f64 / trials as f64;
            assert!(mean >= 16.0, "input bit {bit} moves {mean:.1} output bits");
        }
    }
}
