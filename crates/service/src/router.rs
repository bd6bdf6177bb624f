//! Fingerprint-affinity shard routing.

use acamar_engine::PatternFingerprint;

/// The shard owning `fp`'s structural class, as a pure function of the
/// fingerprint: no process-local state, no [`RandomState`], nothing that
/// varies across restarts — the same pattern maps to the same shard in
/// every process that ever computes it, so a restarted service re-warms
/// exactly the shards the old one had warm.
///
/// The fingerprint's digest is itself pure and unseeded (that is what
/// makes this function so) and already avalanched over patterns that
/// differ structurally; the dimensions are folded in as well and the
/// combination is run through a splitmix64-style finalizer before the
/// modulo, so the shard never depends on the digest's low bits alone.
///
/// [`RandomState`]: std::collections::hash_map::RandomState
pub fn shard_for(fp: &PatternFingerprint, shards: usize) -> usize {
    let x = fp.hash
        ^ (fp.nrows as u64).rotate_left(17)
        ^ (fp.ncols as u64).rotate_left(34)
        ^ (fp.nnz as u64).rotate_left(51);
    (mix64(x) % shards.max(1) as u64) as usize
}

/// The full failover ranking of `fp` over `shards`: rank 0 is exactly
/// [`shard_for`] (so fault-free routing is untouched by the existence of
/// a ranking), and the remaining shards follow in rendezvous-hash order —
/// each ranked by `mix64(key ^ per-shard salt)`, highest weight first.
///
/// Like `shard_for`, this is a pure function of the fingerprint: every
/// process that ever computes it agrees on the spill order, so a broken
/// shard's traffic lands on the *same* next-ranked shard everywhere,
/// keeping failover traffic warm on one shard instead of spraying it.
pub fn shard_ranking(fp: &PatternFingerprint, shards: usize) -> Vec<usize> {
    let shards = shards.max(1);
    let first = shard_for(fp, shards);
    let key = fp.hash
        ^ (fp.nrows as u64).rotate_left(17)
        ^ (fp.ncols as u64).rotate_left(34)
        ^ (fp.nnz as u64).rotate_left(51);
    let mut rest: Vec<(u64, usize)> = (0..shards)
        .filter(|&s| s != first)
        .map(|s| {
            let salt = (s as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            (mix64(key ^ salt), s)
        })
        .collect();
    // Highest rendezvous weight first; the shard index breaks exact ties
    // deterministically.
    rest.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut ranking = Vec::with_capacity(shards);
    ranking.push(first);
    ranking.extend(rest.into_iter().map(|(_, s)| s));
    ranking
}

/// splitmix64 finalizer: a cheap bijective avalanche over `u64`.
pub(crate) fn mix64(mut x: u64) -> u64 {
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

    fn fp(nrows: usize, ncols: usize, nnz: usize, hash: u64) -> PatternFingerprint {
        PatternFingerprint {
            nrows,
            ncols,
            nnz,
            hash,
        }
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        for shards in [1usize, 2, 3, 4, 7, 16] {
            for k in 0..64u64 {
                let f = fp(10 + k as usize, 10 + k as usize, 50, k.wrapping_mul(0x9e37));
                let s = shard_for(&f, shards);
                assert!(s < shards);
                assert_eq!(s, shard_for(&f, shards), "pure function of the fingerprint");
            }
        }
    }

    #[test]
    fn one_shard_collapses_everything() {
        for k in 0..32u64 {
            assert_eq!(shard_for(&fp(k as usize, 1, 1, k), 1), 0);
        }
    }

    #[test]
    fn distinct_patterns_spread_over_shards() {
        // 256 synthetic fingerprints over 4 shards: every shard should see
        // a reasonable share (the finalizer avalanches even sequential
        // inputs).
        let shards = 4;
        let mut counts = [0usize; 4];
        for k in 0..256u64 {
            let f = fp(8 + (k % 13) as usize, 8, (k * 3) as usize, k << 3);
            counts[shard_for(&f, shards)] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(c > 256 / 16, "shard {s} starved: {counts:?}");
        }
    }

    #[test]
    fn ranking_is_a_permutation_led_by_shard_for() {
        for shards in [1usize, 2, 4, 7] {
            for k in 0..64u64 {
                let f = fp(9 + (k % 11) as usize, 9, (k * 5) as usize, k << 7);
                let ranking = shard_ranking(&f, shards);
                assert_eq!(ranking.len(), shards);
                assert_eq!(ranking[0], shard_for(&f, shards));
                let mut sorted = ranking.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..shards).collect::<Vec<_>>());
                assert_eq!(ranking, shard_ranking(&f, shards), "pure function");
            }
        }
    }

    #[test]
    fn ranking_spreads_second_choices_over_shards() {
        // The spill target must not collapse onto one shard: over many
        // fingerprints, every shard should appear at rank 1 sometimes.
        let shards = 4;
        let mut rank1 = [0usize; 4];
        for k in 0..256u64 {
            let f = fp(8 + (k % 13) as usize, 8, (k * 3) as usize, k << 3);
            rank1[shard_ranking(&f, shards)[1]] += 1;
        }
        for (s, &c) in rank1.iter().enumerate() {
            assert!(c > 256 / 16, "shard {s} never a spill target: {rank1:?}");
        }
    }

    #[test]
    fn mix64_is_not_identity_on_small_inputs() {
        let outs: std::collections::HashSet<u64> = (0..128).map(mix64).collect();
        assert_eq!(outs.len(), 128);
        assert!(!outs.contains(&0) || mix64(0) == 0);
    }
}
