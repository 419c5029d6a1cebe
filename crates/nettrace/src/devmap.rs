//! Dense device numbering for column-oriented accumulators.
//!
//! The study's accumulators hold one value (or one small row) per device.
//! Keeping those values in `Vec`s indexed by a dense *slot* instead of in
//! a map keyed by [`DeviceId`] means a device costs one hash lookup where
//! an accumulator first meets it, and plain indexing after that: a caller
//! streaming flows device by device resolves the slot once per device.
//! Slots are assigned in first-seen order and never change, so a slot
//! stays valid while the accumulator grows and while others merge into
//! it.

use crate::{DeviceId, FastMap};
use std::ops::Index;

/// Dense numbering of the devices an accumulator has seen: slot `i`
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
    /// per device a merge needs.
    pub fn remap(&mut self, other: &DeviceIndex) -> Vec<usize> {
        other.ids.iter().map(|&d| self.intern(d)).collect()
    }
}

/// A map from device to `T`, stored as a [`DeviceIndex`] plus a `Vec<T>`
/// in slot order. Iteration follows first-seen order.
#[derive(Debug, Clone)]
pub struct DeviceMap<T> {
    index: DeviceIndex,
    values: Vec<T>,
}

impl<T> Default for DeviceMap<T> {
    fn default() -> Self {
        DeviceMap {
            index: DeviceIndex::default(),
            values: Vec::new(),
        }
    }
}

impl<T> DeviceMap<T> {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// No devices yet?
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The device's value, if it has one.
    pub fn get(&self, device: &DeviceId) -> Option<&T> {
        self.index.get(*device).map(|s| &self.values[s])
    }

    /// Does the device have a value?
    pub fn contains_key(&self, device: &DeviceId) -> bool {
        self.index.get(*device).is_some()
    }

    /// Devices in slot order.
    pub fn keys(&self) -> impl Iterator<Item = &DeviceId> + '_ {
        self.index.ids().iter()
    }

    /// Values in slot order.
    pub fn values(&self) -> impl Iterator<Item = &T> + '_ {
        self.values.iter()
    }

    /// `(device, value)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (&DeviceId, &T)> + '_ {
        self.index.ids().iter().zip(&self.values)
    }

    /// The value at `slot` (from [`slot`](Self::slot)).
    pub fn at_mut(&mut self, slot: usize) -> &mut T {
        &mut self.values[slot]
    }
}

impl<T: Default> DeviceMap<T> {
    /// The device's slot, inserting a default value on first sight.
    pub fn slot(&mut self, device: DeviceId) -> usize {
        let s = self.index.intern(device);
        if s == self.values.len() {
            self.values.push(T::default());
        }
        s
    }

    /// The device's value, inserting a default on first sight.
    pub fn entry(&mut self, device: DeviceId) -> &mut T {
        let s = self.slot(device);
        &mut self.values[s]
    }

    /// Fold `other` in: each of its values is combined into this map's
    /// value for the same device (a default on first sight) by `fold`,
    /// in `other`'s slot order.
    pub fn merge_with(&mut self, other: DeviceMap<T>, mut fold: impl FnMut(&mut T, T)) {
        let slots = self.index.remap(&other.index);
        self.values.resize_with(self.index.len(), T::default);
        for (s, v) in slots.into_iter().zip(other.values) {
            fold(&mut self.values[s], v);
        }
    }
}

impl<T> Index<&DeviceId> for DeviceMap<T> {
    type Output = T;

    /// Panics when the device has no value, like `HashMap`'s `Index`.
    fn index(&self, device: &DeviceId) -> &T {
        match self.get(device) {
            Some(v) => v,
            None => panic!("device {device} not in map"),
        }
    }
}

impl<'a, T> IntoIterator for &'a DeviceMap<T> {
    type Item = (&'a DeviceId, &'a T);
    type IntoIter = std::iter::Zip<std::slice::Iter<'a, DeviceId>, std::slice::Iter<'a, T>>;

    fn into_iter(self) -> Self::IntoIter {
        self.index.ids().iter().zip(&self.values)
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
    fn device_map_reads_like_a_map_and_merges_in_order() {
        let mut a: DeviceMap<u64> = DeviceMap::new();
        *a.entry(DeviceId(1)) += 5;
        let s = a.slot(DeviceId(2));
        *a.at_mut(s) += 7;
        let mut b: DeviceMap<u64> = DeviceMap::new();
        *b.entry(DeviceId(3)) += 1;
        *b.entry(DeviceId(1)) += 2;
        a.merge_with(b, |x, y| *x += y);
        assert_eq!(a[&DeviceId(1)], 7);
        assert_eq!(a[&DeviceId(2)], 7);
        assert_eq!(a.get(&DeviceId(3)), Some(&1));
        assert!(!a.contains_key(&DeviceId(4)));
        let pairs: Vec<(DeviceId, u64)> = a.iter().map(|(&d, &v)| (d, v)).collect();
        assert_eq!(
            pairs,
            vec![(DeviceId(1), 7), (DeviceId(2), 7), (DeviceId(3), 1)]
        );
        assert_eq!((&a).into_iter().count(), a.len());
    }
}
