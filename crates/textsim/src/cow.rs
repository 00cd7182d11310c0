//! A partitioned copy-on-write hash map: the building block that lets a
//! writer publish immutable copies of a large map by sharing, not
//! copying.
//!
//! [`PartMap`] splits its entries across a fixed number of parts, each
//! behind an `Arc`. Cloning the map copies the part pointers only. A
//! write goes through `Arc::make_mut` on the one part its key routes to,
//! so it copies that part — and nothing else — if and only if a clone
//! still shares it. A writer that publishes a clone after every small
//! write therefore pays for the parts the write touched, not for the
//! whole map, and a clone never observes a later write.
//!
//! The token [`crate::Interner`] keeps its text-hash map in one, and the
//! streaming blocking index (`zeroer_stream`) keeps every bucket map in
//! one. Which part a key lands in is an internal layout choice: it never
//! changes what the map holds or returns.

use crate::intern::Sym;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// A key that routes itself to a [`PartMap`] part: any well-spread
/// 64-bit value derived from the key.
pub trait PartKey: Hash + Eq {
    /// The routing value; the part is its low bits.
    fn route(&self) -> u64;
}

/// Text hashes (the interner's map keys) are already well spread.
impl PartKey for u64 {
    #[inline]
    fn route(&self) -> u64 {
        *self
    }
}

/// Symbols are dense, so consecutive symbols land in consecutive parts.
impl PartKey for Sym {
    #[inline]
    fn route(&self) -> u64 {
        u64::from(self.0)
    }
}

/// How much of one copy-on-write structure's storage another one shares
/// physically (`Arc::ptr_eq`), compared position by position.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sharing {
    /// Pieces (parts, chunks, records) shared with the other structure.
    pub shared: usize,
    /// Pieces this structure holds.
    pub total: usize,
}

impl Sharing {
    /// Counts the pointer-equal pairs of two `Arc` sequences, position
    /// by position; `total` is the length of `mine`.
    pub fn of<T>(mine: &[Arc<T>], theirs: &[Arc<T>]) -> Self {
        let shared = mine
            .iter()
            .zip(theirs)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        Self {
            shared,
            total: mine.len(),
        }
    }

    /// Pieces this structure holds that the other does not share.
    pub fn unshared(&self) -> usize {
        self.total - self.shared
    }

    /// Adds another structure's counts to these.
    pub fn absorb(&mut self, other: Sharing) {
        self.shared += other.shared;
        self.total += other.total;
    }
}

/// A hash map split across a fixed number of `Arc`-shared parts (see the
/// module docs). Reads cost one extra pointer hop over a plain
/// `HashMap`; writes copy a part only while a clone shares it.
#[derive(Debug)]
pub struct PartMap<K, V> {
    parts: Vec<Arc<HashMap<K, V>>>,
}

impl<K, V> Clone for PartMap<K, V> {
    /// Copies the part pointers only.
    fn clone(&self) -> Self {
        Self {
            parts: self.parts.clone(),
        }
    }
}

impl<K: PartKey + Clone, V: Clone> PartMap<K, V> {
    /// An empty map of `parts` parts.
    ///
    /// # Panics
    /// Panics unless `parts` is a power of two (routing is a mask).
    pub fn new(parts: usize) -> Self {
        assert!(parts.is_power_of_two(), "part count must be a power of two");
        Self {
            parts: (0..parts).map(|_| Arc::new(HashMap::new())).collect(),
        }
    }

    #[inline]
    fn part_of(&self, key: &K) -> usize {
        key.route() as usize & (self.parts.len() - 1)
    }

    /// The value under `key`.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.parts[self.part_of(key)].get(key)
    }

    /// Mutable access to the value under `key`. Copies the key's part
    /// first if a clone shares it — only when the key is present, so a
    /// miss never copies.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let p = self.part_of(key);
        let part = &mut self.parts[p];
        if part.contains_key(key) {
            Arc::make_mut(part).get_mut(key)
        } else {
            None
        }
    }

    /// The value under `key`, inserting `make()` first if absent.
    /// Copies the key's part if a clone shares it.
    pub fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        let p = self.part_of(&key);
        Arc::make_mut(&mut self.parts[p])
            .entry(key)
            .or_insert_with(make)
    }

    /// Keeps only the entries `keep` returns true for (it may also edit
    /// them). Visits every part, so every part a clone shares is copied.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        for part in &mut self.parts {
            if !part.is_empty() {
                Arc::make_mut(part).retain(|k, v| keep(k, v));
            }
        }
    }

    /// Every value, in no particular order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.parts.iter().flat_map(|p| p.values())
    }

    /// How many of this map's parts `other` shares.
    pub fn sharing(&self, other: &Self) -> Sharing {
        Sharing::of(&self.parts, &other.parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: u64) -> PartMap<u64, Vec<u64>> {
        let mut m = PartMap::new(8);
        for k in 0..n {
            m.get_or_insert_with(k, Vec::new).push(k * 10);
        }
        m
    }

    #[test]
    fn behaves_like_a_map() {
        let mut m = filled(100);
        assert_eq!(m.values().count(), 100);
        assert_eq!(m.get(&7), Some(&vec![70]));
        assert_eq!(m.get(&700), None);
        m.get_mut(&7).expect("present").push(71);
        assert_eq!(m.get(&7), Some(&vec![70, 71]));
        assert!(m.get_mut(&700).is_none());
        m.retain(|&k, _| k % 2 == 0);
        assert_eq!(m.values().map(Vec::len).sum::<usize>(), 50);
        assert_eq!(m.get(&7), None);
    }

    #[test]
    fn a_write_copies_only_its_part_and_never_shows_in_a_clone() {
        let mut m = filled(100);
        let frozen = m.clone();
        assert_eq!(
            m.sharing(&frozen),
            Sharing {
                shared: 8,
                total: 8
            }
        );
        m.get_mut(&3).expect("present").push(31);
        m.get_or_insert_with(1000, Vec::new).push(1);
        assert_eq!(m.sharing(&frozen).unshared(), 2, "parts 3 and 0 copied");
        assert_eq!(frozen.get(&3), Some(&vec![30]));
        assert_eq!(frozen.get(&1000), None);
        // A miss copies nothing.
        assert!(m.get_mut(&5000).is_none());
        assert_eq!(m.sharing(&frozen).unshared(), 2);
    }
}
