//! A fast, deterministic hasher for the pipeline's hot maps.
//!
//! The collector keys almost every accumulator by [`DeviceId`] — five or
//! more map operations per flow on the hot path. `std`'s default SipHash
//! is DoS-hardened but costs tens of nanoseconds per probe, which at
//! batch throughput dwarfs the arithmetic being guarded. The keys here
//! are either already-anonymized tokens (FNV-mixed MACs) or small interned
//! ids, none of them attacker-controlled, so the hardening buys nothing.
//!
//! [`FastHasher`] is an fxhash-style multiply-rotate hasher: a couple of
//! instructions per word, fixed seed, identical output on every run.
//! std's `HashMap` mixes nothing itself: it takes the bucket index from
//! the hash's low bits. A multiply carries a key's entropy only upward,
//! so the raw product's low `k` bits depend on the key's low `k` bits
//! alone, and an [`Ipv4Addr`](std::net::Ipv4Addr) (hashed as one
//! native-endian `u32`, leading octets lowest on little-endian hosts)
//! would put a whole /16 on one probe chain. `finish` therefore rotates
//! the product's well-mixed high bits down; a rotation is bijective, so
//! it adds no collisions.
//!
//! Determinism is *stronger* than the default (`RandomState`
//! reseeds per process), and the repo's byte-identical-output guarantees
//! never depend on map iteration order anyway — the audit samples by a
//! keyed hash and every f64 reduction is either sorted first or
//! integer-exact.
//!
//! [`DeviceId`]: crate::DeviceId

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Golden-ratio multiplier (same constant family as fxhash / rustc-hash).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Word-at-a-time multiply-rotate hasher. Not DoS-resistant — use only
/// for trusted keys (device tokens, interned ids, small integers).
#[derive(Default, Clone)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // std's `HashMap` buckets on the low bits (see the module doc).
        self.state.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            self.add(u64::from_le_bytes(w));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w) | ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `BuildHasher` for [`FastHasher`] (zero-sized, fixed seed).
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// `HashMap` keyed with [`FastHasher`]. Drop-in for hot-path maps whose
/// keys are trusted (device ids, interned domain ids, ports).
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// `HashSet` variant of [`FastMap`].
pub type FastSet<K> = HashSet<K, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FastHasher::default();
        let mut b = FastHasher::default();
        a.write_u64(0xdead_beef);
        b.write_u64(0xdead_beef);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn distinguishes_nearby_keys() {
        let h = |n: u64| {
            let mut h = FastHasher::default();
            h.write_u64(n);
            h.finish()
        };
        // Sequential ids must not collide.
        let mut seen = FastSet::default();
        for i in 0..10_000u64 {
            assert!(seen.insert(h(i)), "collision at {i}");
        }
    }

    #[test]
    fn ipv4_keys_spread_over_low_bits() {
        use std::hash::BuildHasher;
        use std::net::Ipv4Addr;
        // Distinct bucket positions `n` consecutive addresses from `base`
        // reach in a 2,048-bucket table.
        fn spread(base: Ipv4Addr, n: u32) -> usize {
            let low: FastSet<u64> = (0..n)
                .map(|i| Ipv4Addr::from(u32::from(base) + i))
                .map(|ip| FastBuildHasher::default().hash_one(ip) & 0x7ff)
                .collect();
            low.len()
        }
        let campus = spread(Ipv4Addr::new(10, 40, 0, 0), 4096);
        assert!(campus >= 1024, "10.40.0.0/16 reaches {campus} buckets");
        let remote = spread(Ipv4Addr::new(151, 101, 0, 0), 1024);
        assert!(remote >= 1024, "a remote /22 reaches {remote} buckets");
    }

    #[test]
    fn byte_stream_matches_padded_tail() {
        // Tail bytes are length-tagged so "ab" and "ab\0" differ.
        let h = |bytes: &[u8]| {
            let mut h = FastHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(h(b"ab"), h(b"ab\0"));
        assert_ne!(h(b""), h(b"\0"));
    }

    #[test]
    fn fast_map_works_as_hashmap() {
        let mut m: FastMap<u64, u32> = FastMap::default();
        m.insert(7, 1);
        *m.entry(7).or_insert(0) += 1;
        assert_eq!(m[&7], 2);
    }
}
