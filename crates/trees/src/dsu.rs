//! Union-find (disjoint set union) with path halving and union by size.

/// Union-find over `0..n` with path halving and union by size.
///
/// # Example
///
/// ```
/// use trees::DisjointSets;
///
/// let mut dsu = DisjointSets::new(4);
/// assert!(dsu.union(0, 1));
/// assert!(!dsu.union(1, 0)); // already joined
/// assert!(dsu.same(0, 1));
/// assert_eq!(dsu.set_count(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct DisjointSets {
    parent: Vec<u32>,
    size: Vec<u32>,
    sets: usize,
}

impl DisjointSets {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        DisjointSets {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            sets: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if there are no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets remaining.
    pub fn set_count(&self) -> usize {
        self.sets
    }

    /// Finds the representative of `x`'s set (with path halving).
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x as usize
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        self.sets -= 1;
        true
    }

    /// Returns `true` if `a` and `b` are in the same set.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_union_find() {
        let mut d = DisjointSets::new(6);
        assert_eq!(d.set_count(), 6);
        assert!(d.union(0, 1));
        assert!(d.union(2, 3));
        assert!(!d.union(1, 0));
        assert!(d.union(0, 2));
        assert_eq!(d.set_count(), 3);
        assert!(d.same(1, 3));
        assert!(!d.same(1, 4));
    }

    #[test]
    fn chain_unions_compress() {
        let n = 1000;
        let mut d = DisjointSets::new(n);
        for i in 0..n - 1 {
            d.union(i, i + 1);
        }
        assert_eq!(d.set_count(), 1);
        for i in 0..n {
            assert_eq!(d.find(i), d.find(0));
        }
    }

    #[test]
    fn empty_is_fine() {
        let d = DisjointSets::new(0);
        assert!(d.is_empty());
        assert_eq!(d.set_count(), 0);
    }
}
