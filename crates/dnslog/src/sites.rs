//! Distinct-site accounting.
//!
//! The paper reports that "on average, users visited 34% more distinct
//! sites in April and May 2020 than in February 2020" (§4.1). A *site* is
//! a registered domain (eTLD+1); this module counts distinct sites per
//! device per month in a streaming, mergeable fashion.
//!
//! Sites are tracked by a 64-bit FNV-1a hash of the registered domain, so
//! recording needs only a shared *immutable* [`DomainTable`] — crucial
//! for day-parallel collection. (At the scale of this study — tens of
//! thousands of sites — 64-bit hash collisions are negligible.)

use crate::domain::{DomainId, DomainTable};
use nettrace::{FastMap, FastSet, Month};

/// FNV-1a over a string, used as the site key.
pub fn site_key(registered_domain: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in registered_domain.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Site ids below this live in per-(device, month) bitsets, one cache
/// line each; the rest in one hash set.
const HEAD_SITES: u32 = 512;

/// Words in a head bitset.
const HEAD_WORDS: usize = HEAD_SITES as usize / 64;

/// Marks a (device, month) without a head bitset.
const NO_ROW: u32 = u32::MAX;

/// Streaming per-device, per-month distinct registered-domain counter.
///
/// Sites get dense ids in the order their domains appear in the
/// [`DomainTable`], so counters recording against one table agree on
/// every id. Devices are the slots of the collector's device index. The
/// first 512 ids are bits in a 64-byte row per (slot, month) that saw
/// any; later ids go into one set of packed `(slot, month, site id)`
/// entries. A dense per-slot table counts each month's distinct sites.
/// Recording allocates nothing per device, and a merge takes the fold's
/// slot map and ORs the other counter's rows in, translating site ids
/// only when the two counters numbered sites differently.
#[derive(Debug, Default)]
pub struct DistinctSiteCounter {
    /// Distinct sites per slot and month.
    counts: Vec<[u32; 4]>,
    /// Per slot and month, its row in `head`, or [`NO_ROW`].
    rows: Vec<[u32; 4]>,
    /// Bitsets over the head site ids.
    head: Vec<[u64; HEAD_WORDS]>,
    /// [`pack`]ed `(slot, month, site id)` of sites past the head.
    tail: FastSet<u64>,
    /// Site key of each site id.
    sites: Vec<u64>,
    /// Site key → site id.
    site_ids: FastMap<u64, u32>,
    /// Site id of every `DomainId` below its length, numbered in table
    /// order (per counter, so per day in a study run; dropped on merge
    /// — the interned table is append-only, so entries never go stale).
    site_of: Vec<u32>,
}

/// One `tail` entry: 30 bits of device slot, 2 of month, 32 of site id.
fn pack(slot: usize, month: usize, site: u32) -> u64 {
    debug_assert!(slot < 1 << 30, "device slot {slot} overflows the site key");
    (slot as u64) << 34 | (month as u64) << 32 | u64::from(site)
}

fn unpack(entry: u64) -> (usize, usize, u32) {
    (
        (entry >> 34) as usize,
        (entry >> 32 & 3) as usize,
        entry as u32,
    )
}

impl DistinctSiteCounter {
    /// Empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that the device at `slot` contacted `domain` during
    /// `month`.
    pub fn record(&mut self, slot: usize, month: Month, domain: DomainId, table: &DomainTable) {
        let d = domain.0 as usize;
        while self.site_of.len() <= d {
            let name = table.name(DomainId(self.site_of.len() as u32));
            let id = self.site_id(site_key(name.registered_domain()));
            self.site_of.push(id);
        }
        self.insert(slot, month.index(), self.site_of[d]);
    }

    /// The dense id of a site key, assigned on first sight.
    fn site_id(&mut self, key: u64) -> u32 {
        let next = self.sites.len() as u32;
        let id = *self.site_ids.entry(key).or_insert(next);
        if id == next {
            self.sites.push(key);
        }
        id
    }

    /// The head bitset of (`slot`, `month`), created on first use.
    fn head_row(&mut self, slot: usize, month: usize) -> &mut [u64; HEAD_WORDS] {
        self.cover(slot);
        let row = &mut self.rows[slot][month];
        if *row == NO_ROW {
            *row = self.head.len() as u32;
            self.head.push([0; HEAD_WORDS]);
        }
        &mut self.head[*row as usize]
    }

    /// Size the per-slot tables to hold `slot`.
    fn cover(&mut self, slot: usize) {
        if self.counts.len() <= slot {
            self.counts.resize(slot + 1, [0; 4]);
            self.rows.resize(slot + 1, [NO_ROW; 4]);
        }
    }

    fn insert(&mut self, slot: usize, month: usize, site: u32) {
        self.cover(slot);
        let new = if site < HEAD_SITES {
            let word = &mut self.head_row(slot, month)[site as usize / 64];
            let bit = 1 << (site % 64);
            let new = *word & bit == 0;
            *word |= bit;
            new
        } else {
            self.tail.insert(pack(slot, month, site))
        };
        if new {
            self.counts[slot][month] += 1;
        }
    }

    /// Distinct sites the device at `slot` visited in `month`.
    pub fn count(&self, slot: usize, month: Month) -> usize {
        self.counts
            .get(slot)
            .map_or(0, |c| c[month.index()] as usize)
    }

    /// One past the highest slot with a site.
    pub fn slot_bound(&self) -> usize {
        self.counts.len()
    }

    /// Fold another counter in, its slot `i` being this counter's
    /// `slots[i]`.
    pub fn merge(&mut self, other: DistinctSiteCounter, slots: &[usize]) {
        let sites: Vec<u32> = other.sites.iter().map(|&k| self.site_id(k)).collect();
        // Counters fed from one table number sites alike, and their rows
        // OR in as they are.
        let same = sites.iter().enumerate().all(|(i, &s)| s as usize == i);
        for (&slot, rows) in slots.iter().zip(&other.rows) {
            for (month, &r) in rows.iter().enumerate() {
                if r == NO_ROW {
                    continue;
                }
                let theirs = &other.head[r as usize];
                let row = if same {
                    *theirs
                } else {
                    let mut row = [0u64; HEAD_WORDS];
                    for (w, &bits) in theirs.iter().enumerate() {
                        let mut bits = bits;
                        while bits != 0 {
                            let site = sites[w * 64 + bits.trailing_zeros() as usize];
                            if site < HEAD_SITES {
                                row[site as usize / 64] |= 1 << (site % 64);
                            } else {
                                self.insert(slot, month, site);
                            }
                            bits &= bits - 1;
                        }
                    }
                    row
                };
                let mine = self.head_row(slot, month);
                let mut added = 0;
                for (a, b) in mine.iter_mut().zip(row) {
                    added += (b & !*a).count_ones();
                    *a |= b;
                }
                self.counts[slot][month] += added;
            }
        }
        for entry in other.tail {
            let (slot, month, site) = unpack(entry);
            self.insert(slots[slot], month, sites[site as usize]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collapses_to_registered_domain() {
        let mut t = DomainTable::new();
        let a = t.intern_str("a.facebook.com").unwrap();
        let b = t.intern_str("b.facebook.com").unwrap();
        let c = t.intern_str("store.steampowered.com").unwrap();
        let mut ctr = DistinctSiteCounter::new();
        let dev = 1;
        ctr.record(dev, Month::Feb, a, &t);
        ctr.record(dev, Month::Feb, b, &t);
        ctr.record(dev, Month::Feb, c, &t);
        assert_eq!(ctr.count(dev, Month::Feb), 2); // facebook.com + steampowered.com
        assert_eq!(ctr.count(dev, Month::Mar), 0);
        assert_eq!(ctr.count(0, Month::Feb), 0, "a slot without sites");
    }

    #[test]
    fn merge_unions_sets() {
        let mut t = DomainTable::new();
        let a = t.intern_str("x.example.com").unwrap();
        let b = t.intern_str("y.other.org").unwrap();
        let mut c1 = DistinctSiteCounter::new();
        let mut c2 = DistinctSiteCounter::new();
        c1.record(0, Month::May, a, &t);
        c2.record(0, Month::May, a, &t);
        c2.record(0, Month::May, b, &t);
        c1.merge(c2, &[0]);
        assert_eq!(c1.count(0, Month::May), 2);
    }

    #[test]
    fn sites_past_the_head_count_and_merge_alike() {
        let mut t = DomainTable::new();
        let domains: Vec<DomainId> = (0..HEAD_SITES + 40)
            .map(|i| t.intern_str(&format!("www.site{i}.com")).unwrap())
            .collect();
        // A second table interning the same names in reverse numbers
        // every site differently, so merging translates each one.
        let mut t2 = DomainTable::new();
        let reversed: Vec<DomainId> = (0..HEAD_SITES + 40)
            .rev()
            .map(|i| t2.intern_str(&format!("www.site{i}.com")).unwrap())
            .collect();
        // `b` numbers `dev` 1 and `other` 0.
        let (dev, other) = (0, 1);
        let mut a = DistinctSiteCounter::new();
        let mut b = DistinctSiteCounter::new();
        for &d in &domains {
            a.record(dev, Month::Mar, d, &t);
        }
        for &d in &reversed {
            b.record(1, Month::Mar, d, &t2);
            b.record(0, Month::Apr, d, &t2);
        }
        let n = domains.len();
        assert_eq!(a.count(dev, Month::Mar), n);
        a.merge(b, &[other, dev]);
        assert_eq!(a.count(dev, Month::Mar), n);
        assert_eq!(a.count(other, Month::Apr), n);
        assert_eq!(a.count(other, Month::Mar), 0);
    }

    #[test]
    fn site_keys_differ() {
        assert_ne!(site_key("facebook.com"), site_key("facebook.net"));
        assert_eq!(site_key("zoom.us"), site_key("zoom.us"));
    }
}
