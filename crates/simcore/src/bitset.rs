//! Dense id sets: one bit per id over a universe fixed at construction.
//!
//! [`BitSet`] is the sweep-set type of the cluster simulation, where the
//! ids are workstation numbers and the universe is the cluster. Insert,
//! remove and membership are O(1), and iteration visits members in
//! ascending order — the order a `BTreeSet<u32>` would give — at a cost of
//! one word per 64 ids plus one step per member.
//!
//! ```
//! use vr_simcore::bitset::BitSet;
//!
//! let mut a = BitSet::new(200);
//! assert!(a.insert(130));
//! assert!(a.insert(3));
//! assert!(!a.insert(3)); // already present
//! let mut b = BitSet::new(200);
//! b.insert(64);
//! assert_eq!(a.iter().collect::<Vec<_>>(), [3, 130]);
//! assert_eq!(a.union(&b).collect::<Vec<_>>(), [3, 64, 130]);
//! assert!(a.remove(130) && a.contains(3) && !a.contains(130));
//! ```

const WORD_BITS: usize = u64::BITS as usize;

/// A set of ids below the capacity given to [`BitSet::new`].
#[derive(Debug, Clone)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set able to hold the ids `0..capacity`. Inserting or
    /// removing an id at or beyond the capacity rounded up to a multiple of
    /// 64 is out of bounds; `contains` answers `false` for such an id.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(WORD_BITS)],
            len: 0,
        }
    }

    /// The number of ids in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the set holds no id.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds `id`, returning `true` if it was not already present.
    pub fn insert(&mut self, id: u32) -> bool {
        let (word, bit) = slot(id);
        let fresh = self.words[word] & bit == 0;
        self.words[word] |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    /// Removes `id`, returning `true` if it was present.
    pub fn remove(&mut self, id: u32) -> bool {
        let (word, bit) = slot(id);
        let present = self.words[word] & bit != 0;
        self.words[word] &= !bit;
        self.len -= usize::from(present);
        present
    }

    /// `true` if `id` is in the set.
    pub fn contains(&self, id: u32) -> bool {
        let (word, bit) = slot(id);
        self.words.get(word).is_some_and(|w| w & bit != 0)
    }

    /// Removes every id, keeping the capacity.
    pub fn clear(&mut self) {
        if self.len > 0 {
            self.words.fill(0);
            self.len = 0;
        }
    }

    /// The ids in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter::over(&self.words, &[])
    }

    /// The ids in `self` or `other`, each once, in ascending order.
    pub fn union<'a>(&'a self, other: &'a BitSet) -> Iter<'a> {
        Iter::over(&self.words, &other.words)
    }
}

impl Extend<u32> for BitSet {
    fn extend<I: IntoIterator<Item = u32>>(&mut self, ids: I) {
        for id in ids {
            self.insert(id);
        }
    }
}

/// Word index and bit mask of `id`.
fn slot(id: u32) -> (usize, u64) {
    let id = id as usize;
    (id / WORD_BITS, 1 << (id % WORD_BITS))
}

/// Ascending iterator over the union of one or two word slices; see
/// [`BitSet::iter`] and [`BitSet::union`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    a: &'a [u64],
    b: &'a [u64],
    next_word: usize,
    base: usize,
    bits: u64,
}

impl<'a> Iter<'a> {
    fn over(a: &'a [u64], b: &'a [u64]) -> Self {
        Iter {
            a,
            b,
            next_word: 0,
            base: 0,
            bits: 0,
        }
    }
}

impl Iterator for Iter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while self.bits == 0 {
            let w = self.next_word;
            if w >= self.a.len().max(self.b.len()) {
                return None;
            }
            self.bits = self.a.get(w).copied().unwrap_or(0) | self.b.get(w).copied().unwrap_or(0);
            self.base = w * WORD_BITS;
            self.next_word += 1;
        }
        let offset = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        // Every member was inserted as a `u32`, so its position fits one.
        Some((self.base + offset) as u32)
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = u32;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}
