//! A set of small indices kept as `u64` words and walked from the lowest
//! set bit: the fabric's frontier and eject-ready set, the outbox sets,
//! the machine's running, outgoing and pending node sets, and the load
//! drivers' visit sets.

/// A set of indices below a fixed bound, one bit each: O(1) insertion and
/// removal, and an ascending walk at one word read per 64 positions.
#[derive(Debug, Default)]
pub struct Bitmap {
    words: Vec<u64>,
}

impl Bitmap {
    /// An empty set of indices below `len`.
    pub fn new(len: usize) -> Bitmap {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Whether `i` is in the set.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Adds `i` to the set.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Removes `i` from the set.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// The smallest member at or after `from`. A walk that resumes one past
    /// each member sees members inserted ahead of it, never those behind.
    #[inline]
    pub fn next(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = *self.words.get(w)? & (!0u64 << (from % 64));
        while bits == 0 {
            w += 1;
            bits = *self.words.get(w)?;
        }
        Some(w * 64 + bits.trailing_zeros() as usize)
    }

    /// The members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.next(0), |&i| self.next(i + 1))
    }

    /// Whether the set has no member.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Members spread across word boundaries walk back in ascending order,
    /// and a walk from past the last member or past the end finds nothing;
    /// a cleared set is empty.
    #[test]
    fn the_walk_crosses_words_and_stops_at_the_end() {
        let members = [0, 1, 63, 64, 65, 127, 128, 191, 199];
        let mut set = Bitmap::new(200);
        for &i in &members {
            set.insert(i);
        }
        let mut walked = Vec::new();
        let mut from = 0;
        while let Some(i) = set.next(from) {
            walked.push(i);
            from = i + 1;
        }
        assert_eq!(walked, members);
        assert!(set.iter().eq(members));
        assert!(!set.is_empty());
        assert!((0..200).all(|i| set.contains(i) == members.contains(&i)));
        assert_eq!(set.next(2), Some(63));
        assert_eq!(set.next(129), Some(191));
        assert_eq!(set.next(200), None, "past the last member");
        assert_eq!(set.next(256), None, "past the last word");
        assert_eq!(set.next(10_000), None, "far past the end");
        set.remove(199);
        set.remove(64);
        assert_eq!(set.next(192), None);
        assert_eq!(set.next(64), Some(65));
        assert!(!set.contains(64));
        set.clear();
        assert!(set.is_empty() && set.iter().next().is_none());
        assert_eq!(set.next(0), None);
        assert_eq!(Bitmap::new(0).next(0), None, "the empty bound");
        assert!(Bitmap::new(0).is_empty());
    }
}
