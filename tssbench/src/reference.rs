//! The independent reference skyline every answer is checked against.
//!
//! Nothing here touches `poset` labeling, the R-tree or the dominance
//! kernels: preference comes from a transitive closure of each DAG's raw
//! edge list (a topological order found by Kahn's algorithm, then one
//! bitset union per edge in reverse order), TO attributes compare as plain
//! integers, and the skyline is a sort-filter scan over a score that every
//! dominator undercuts.

use poset::Dag;

/// Strict preference over one PO domain, as closure bitsets:
/// `below[u]` holds every value `u` is preferred over.
pub struct Closure {
    words: usize,
    below: Vec<u64>,
    /// Longest edge path from any source to each value; a value preferred
    /// over another has a strictly smaller depth.
    depth: Vec<u32>,
}

impl Closure {
    /// Builds the closure of `dag`'s edge list (`u -> v`: `u` preferred).
    pub fn of(dag: &Dag) -> Closure {
        let n = dag.len();
        let edges: Vec<(usize, usize)> = dag.edges().map(|(u, v)| (u.idx(), v.idx())).collect();
        Closure::from_edges(n, &edges)
    }

    /// Builds the closure of an explicit edge list over `n` values.
    ///
    /// # Panics
    /// If the edges contain a cycle.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Closure {
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indegree = vec![0usize; n];
        for &(u, v) in edges {
            out[u].push(v);
            indegree[v] += 1;
        }
        let mut order = Vec::with_capacity(n);
        let mut ready: Vec<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
        while let Some(u) = ready.pop() {
            order.push(u);
            for &v in &out[u] {
                indegree[v] -= 1;
                if indegree[v] == 0 {
                    ready.push(v);
                }
            }
        }
        assert_eq!(order.len(), n, "preference graph has a cycle");
        let mut depth = vec![0u32; n];
        for &u in &order {
            for &v in &out[u] {
                depth[v] = depth[v].max(depth[u] + 1);
            }
        }
        let words = n.div_ceil(64).max(1);
        let mut below = vec![0u64; n * words];
        for &u in order.iter().rev() {
            for &v in &out[u] {
                below[u * words + v / 64] |= 1 << (v % 64);
                for w in 0..words {
                    let bits = below[v * words + w];
                    below[u * words + w] |= bits;
                }
            }
        }
        Closure {
            words,
            below,
            depth,
        }
    }

    /// True iff `u` is strictly preferred over `v`.
    pub fn prefers(&self, u: u32, v: u32) -> bool {
        let (u, v) = (u as usize, v as usize);
        self.below[u * self.words + v / 64] >> (v % 64) & 1 == 1
    }
}

/// Rows of TO coordinates and PO values, row-major, plus one closure per
/// PO attribute.
pub struct Rows<'a> {
    /// TO attribute count.
    pub to_dims: usize,
    /// TO coordinates, `n × to_dims`.
    pub to: &'a [u32],
    /// PO value ids, `n × closures.len()`.
    pub po: &'a [u32],
    /// One strict-preference closure per PO attribute.
    pub closures: &'a [Closure],
}

impl Rows<'_> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.to.len().checked_div(self.to_dims).unwrap_or(0)
    }

    /// True iff there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn to_row(&self, i: usize) -> &[u32] {
        &self.to[i * self.to_dims..(i + 1) * self.to_dims]
    }

    fn po_row(&self, i: usize) -> &[u32] {
        let d = self.closures.len();
        &self.po[i * d..(i + 1) * d]
    }

    /// True iff row `p` dominates row `q`: at least as good everywhere,
    /// strictly better somewhere. Identical rows never dominate.
    pub fn dominates(&self, p: usize, q: usize) -> bool {
        let mut strict = false;
        for (&a, &b) in self.to_row(p).iter().zip(self.to_row(q)) {
            if a > b {
                return false;
            }
            strict |= a < b;
        }
        for ((&a, &b), c) in self.po_row(p).iter().zip(self.po_row(q)).zip(self.closures) {
            if a != b {
                if !c.prefers(a, b) {
                    return false;
                }
                strict = true;
            }
        }
        strict
    }

    fn score(&self, i: usize) -> u64 {
        let to: u64 = self.to_row(i).iter().map(|&x| u64::from(x)).sum();
        let po: u64 = self
            .po_row(i)
            .iter()
            .zip(self.closures)
            .map(|(&v, c)| u64::from(c.depth[v as usize]))
            .sum();
        to + po
    }

    /// The skyline's row indices, ascending. A dominator scores strictly
    /// lower (TO sum plus PO depths), so scanning in score order and
    /// checking each row against the rows kept so far is exact.
    pub fn skyline(&self) -> Vec<u32> {
        let mut order: Vec<(u64, u32)> =
            (0..self.len()).map(|i| (self.score(i), i as u32)).collect();
        order.sort_unstable();
        let mut kept: Vec<u32> = Vec::new();
        for &(_, i) in &order {
            if !kept.iter().any(|&k| self.dominates(k as usize, i as usize)) {
                kept.push(i);
            }
        }
        kept.sort_unstable();
        kept
    }
}

/// Checks a full answer: the same records as the reference, as sets.
pub fn same_set(mut got: Vec<u32>, reference: &[u32]) -> bool {
    got.sort_unstable();
    got == reference
}

/// Checks a top-k answer: `min(k, |skyline|)` distinct skyline records.
pub fn valid_prefix(got: &[u32], k: usize, reference: &[u32]) -> bool {
    if got.len() != k.min(reference.len()) {
        return false;
    }
    let mut seen = got.to_vec();
    seen.sort_unstable();
    seen.dedup();
    seen.len() == got.len() && seen.iter().all(|r| reference.binary_search(r).is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_follows_paths_not_just_edges() {
        // 0 -> 1 -> 2, 3 isolated.
        let c = Closure::from_edges(4, &[(0, 1), (1, 2)]);
        assert!(c.prefers(0, 1) && c.prefers(1, 2) && c.prefers(0, 2));
        assert!(!c.prefers(2, 0) && !c.prefers(0, 3) && !c.prefers(3, 0));
        assert!(!c.prefers(1, 1));
    }

    #[test]
    fn identical_rows_both_survive() {
        let closures = [Closure::from_edges(2, &[(0, 1)])];
        let rows = Rows {
            to_dims: 1,
            to: &[5, 5, 5, 4],
            po: &[0, 0, 1, 1],
            closures: &closures,
        };
        // Rows 0 and 1 are equal; row 2 loses to both on PO; row 3 is
        // cheaper with the worse value, so incomparable.
        assert_eq!(rows.skyline(), vec![0, 1, 3]);
    }
}
