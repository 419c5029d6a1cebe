//! Dense device numbering for column-oriented accumulators.
//!
//! The study's accumulators hold one value (or one small row) per device.
//! Keeping those values in `Vec`s indexed by a dense *slot* instead of in
//! maps keyed by [`DeviceId`] means a device costs one hash lookup where a
//! collector first meets it, and plain indexing after that. A study
//! collector holds the one [`DeviceIndex`], and every store it feeds is
//! indexed by that index's slots; a caller streaming flows device by
//! device resolves the slot once per device. Slots are assigned in
//! first-seen order and never change, so a slot stays valid while the
//! collector grows and while others fold into it: a fold maps each of
//! the other collector's devices once ([`DeviceIndex::remap`]) and hands
//! that one slot map to every store.
//!
//! [`SlotValues`] is the store for a signal only some devices have: a
//! slot without the signal costs four bytes.

use crate::{DeviceId, FastMap};

/// Dense numbering of the devices a collector has seen: slot `i`
/// belongs to `ids()[i]`.
#[derive(Debug, Clone, Default)]
pub struct DeviceIndex {
    ids: Vec<DeviceId>,
    slots: FastMap<DeviceId, u32>,
}

impl DeviceIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// No devices yet?
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Devices in slot order.
    pub fn ids(&self) -> &[DeviceId] {
        &self.ids
    }

    /// The device's slot, if it has one.
    pub fn get(&self, device: DeviceId) -> Option<usize> {
        self.slots.get(&device).map(|&s| s as usize)
    }

    /// The device's slot, assigning the next one on first sight.
    pub fn intern(&mut self, device: DeviceId) -> usize {
        let next = self.ids.len() as u32;
        let slot = *self.slots.entry(device).or_insert(next);
        if slot == next {
            self.ids.push(device);
        }
        slot as usize
    }

    /// The slot in `self` of each of `other`'s devices, in `other`'s slot
    /// order, interning the devices `self` has not seen: the one lookup
    /// per device a fold needs.
    pub fn remap(&mut self, other: &DeviceIndex) -> Vec<usize> {
        other.ids.iter().map(|&d| self.intern(d)).collect()
    }
}

/// Marks a slot without a value.
const NONE: u32 = u32::MAX;

/// One value per slot that has one, created on first use: a position
/// per slot, and the values with their slots in creation order.
#[derive(Debug, Clone)]
pub struct SlotValues<T> {
    /// Per slot, its value's position in `values`, or [`NONE`].
    at: Vec<u32>,
    /// The slot of each value.
    slots: Vec<u32>,
    values: Vec<T>,
}

impl<T> Default for SlotValues<T> {
    fn default() -> Self {
        SlotValues {
            at: Vec::new(),
            slots: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl<T> SlotValues<T> {
    /// Number of slots with a value.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// No values yet?
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// One past the highest slot with a value (0 when none has one).
    pub fn slot_bound(&self) -> usize {
        self.at.len()
    }

    /// The value at `slot`, if it has one.
    pub fn get(&self, slot: usize) -> Option<&T> {
        match self.at.get(slot) {
            Some(&i) if i != NONE => Some(&self.values[i as usize]),
            _ => None,
        }
    }

    /// The value at `slot`, created by `init` on first use.
    pub fn get_or_insert_with(&mut self, slot: usize, init: impl FnOnce() -> T) -> &mut T {
        if self.at.len() <= slot {
            self.at.resize(slot + 1, NONE);
        }
        if self.at[slot] == NONE {
            self.at[slot] = self.values.len() as u32;
            self.slots.push(slot as u32);
            self.values.push(init());
        }
        &mut self.values[self.at[slot] as usize]
    }

    /// `(slot, value)` pairs in creation order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> + '_ {
        self.slots.iter().map(|&s| s as usize).zip(&self.values)
    }

    /// `(slot, value)` pairs in creation order, by value.
    pub fn into_pairs(self) -> impl Iterator<Item = (usize, T)> {
        self.slots.into_iter().map(|s| s as usize).zip(self.values)
    }

    /// The same slots holding `f` of each value.
    pub fn map<U>(self, f: impl FnMut(T) -> U) -> SlotValues<U> {
        SlotValues {
            at: self.at,
            slots: self.slots,
            values: self.values.into_iter().map(f).collect(),
        }
    }
}

impl<T: Default> SlotValues<T> {
    /// The value at `slot`, a default on first use.
    pub fn entry(&mut self, slot: usize) -> &mut T {
        self.get_or_insert_with(slot, T::default)
    }

    /// Fold `other` in, its slot `i` being this store's `slots[i]` (a
    /// [`DeviceIndex::remap`]): each of its values is combined into this
    /// store's value there (a default on first use) by `fold`, in
    /// `other`'s creation order.
    pub fn merge_with(
        &mut self,
        other: SlotValues<T>,
        slots: &[usize],
        mut fold: impl FnMut(&mut T, T),
    ) {
        for (s, v) in other.into_pairs() {
            fold(self.entry(slots[s]), v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_follow_first_sight_and_never_move() {
        let mut ix = DeviceIndex::new();
        assert_eq!(ix.intern(DeviceId(9)), 0);
        assert_eq!(ix.intern(DeviceId(3)), 1);
        assert_eq!(ix.intern(DeviceId(9)), 0);
        assert_eq!(ix.get(DeviceId(3)), Some(1));
        assert_eq!(ix.get(DeviceId(4)), None);
        let mut other = DeviceIndex::new();
        other.intern(DeviceId(4));
        other.intern(DeviceId(9));
        assert_eq!(ix.remap(&other), vec![2, 0]);
        assert_eq!(ix.ids(), &[DeviceId(9), DeviceId(3), DeviceId(4)]);
    }

    #[test]
    fn slot_values_hold_only_the_slots_written_and_merge_through_a_slot_map() {
        let mut a: SlotValues<u64> = SlotValues::default();
        *a.entry(3) += 5;
        *a.entry(1) += 7;
        assert_eq!(
            (a.get(0), a.get(1), a.get(3), a.get(9)),
            (None, Some(&7), Some(&5), None)
        );
        let mut b: SlotValues<u64> = SlotValues::default();
        *b.entry(0) += 1;
        *b.entry(2) += 2;
        // b's slot 0 is a's slot 3, b's slot 2 a new slot 4.
        a.merge_with(b, &[3, 0, 4], |x, y| *x += y);
        let pairs: Vec<(usize, u64)> = a.iter().map(|(s, &v)| (s, v)).collect();
        assert_eq!(pairs, vec![(3, 6), (1, 7), (4, 2)]);
        assert_eq!(a.len(), 3);
    }
}
