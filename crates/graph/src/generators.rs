//! Generators for the graph families used throughout the paper.
//!
//! The lower-bound arguments instantiate specific families: the `n`-node
//! cycle (3-coloring, Corollary 1), paths, bounded-degree graphs with large
//! diameter (Claim 2), grids and trees as generic bounded-degree test beds,
//! and random bounded-degree graphs for Monte-Carlo estimation. All
//! generators produce **connected simple graphs** unless stated otherwise,
//! and all randomized generators take an explicit RNG so experiments are
//! reproducible.

use crate::builder::GraphBuilder;
use crate::csr::Graph;
use crate::traversal::is_connected;
use rand::seq::SliceRandom;
use rand::Rng;

/// The cycle `C_n` on `n ≥ 3` nodes: node `i` is adjacent to `(i ± 1) mod n`.
///
/// # Panics
/// Panics if `n < 3` (a cycle needs at least three nodes to be simple).
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "a simple cycle needs at least 3 nodes, got {n}");
    GraphBuilder::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)))
}

/// The path `P_n` on `n ≥ 1` nodes: node `i` is adjacent to `i + 1`.
pub fn path(n: usize) -> Graph {
    assert!(n >= 1, "a path needs at least one node");
    GraphBuilder::from_edges(n, (0..n.saturating_sub(1)).map(|i| (i, i + 1)))
}

/// The star `K_{1,n-1}` with center node `0`.
pub fn star(n: usize) -> Graph {
    assert!(n >= 1);
    GraphBuilder::from_edges(n, (1..n).map(|i| (0, i)))
}

/// A complete binary tree on `n` nodes (heap indexing: children of `i` are
/// `2i + 1` and `2i + 2`). Maximum degree 3.
pub fn binary_tree(n: usize) -> Graph {
    assert!(n >= 1);
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for c in [2 * i + 1, 2 * i + 2] {
            if c < n {
                b.add_edge(i, c);
            }
        }
    }
    b.build()
}

/// The `rows × cols` grid graph (maximum degree 4).
pub fn grid(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 1 && cols >= 1);
    let idx = |r: usize, c: usize| r * cols + c;
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(idx(r, c), idx(r, c + 1));
            }
            if r + 1 < rows {
                b.add_edge(idx(r, c), idx(r + 1, c));
            }
        }
    }
    b.build()
}

/// The `rows × cols` torus (grid with wrap-around edges, 4-regular when both
/// dimensions are at least 3).
pub fn torus(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 3 && cols >= 3, "torus needs both dimensions >= 3");
    let idx = |r: usize, c: usize| r * cols + c;
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            b.add_edge(idx(r, c), idx(r, (c + 1) % cols));
            b.add_edge(idx(r, c), idx((r + 1) % rows, c));
        }
    }
    b.build()
}

/// The circulant graph `C_n(offsets)`: node `i` is adjacent to
/// `(i ± o) mod n` for every offset `o`. With offsets `{1}` this is the
/// cycle; with `{1, 2}` the squared cycle (4-regular) — a deterministic
/// bounded-degree family the sweep scenarios use as a ring-like topology
/// with chords.
///
/// # Panics
/// Panics if `n < 3`, if `offsets` is empty, if an offset is `0` or
/// ≥ `n`, or if `gcd(n, offsets...) != 1` (which would disconnect the
/// graph — all generators here promise connected outputs).
pub fn circulant(n: usize, offsets: &[usize]) -> Graph {
    assert!(n >= 3, "a circulant graph needs at least 3 nodes, got {n}");
    assert!(!offsets.is_empty(), "need at least one offset");
    let mut g = n;
    for &o in offsets {
        assert!(o >= 1 && o < n, "offset {o} out of range 1..{n}");
        let (mut a, mut b) = (g, o);
        while b != 0 {
            (a, b) = (b, a % b);
        }
        g = a;
    }
    assert!(g == 1, "gcd(n, offsets) = {g} != 1 would disconnect the circulant graph");
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        for &o in offsets {
            let w = (v + o) % n;
            if !b.has_edge(v, w) {
                b.add_edge(v, w);
            }
        }
    }
    b.build()
}

/// The prism (circular ladder) `CL_n`: two concentric `n`-cycles joined by
/// rungs. 3-regular on `2n` nodes — a deterministic counterpart to the
/// random cubic family.
///
/// # Panics
/// Panics if `n < 3`.
pub fn prism(n: usize) -> Graph {
    assert!(n >= 3, "a prism needs at least 3 nodes per cycle, got {n}");
    let mut b = GraphBuilder::new(2 * n);
    for i in 0..n {
        b.add_edge(i, (i + 1) % n); // outer cycle
        b.add_edge(n + i, n + (i + 1) % n); // inner cycle
        b.add_edge(i, n + i); // rung
    }
    b.build()
}

/// A uniformly random labelled tree on `n` nodes via a random Prüfer
/// sequence. Always connected; maximum degree is random but `O(log n /
/// log log n)` with high probability.
pub fn random_tree<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Graph {
    assert!(n >= 1);
    if n == 1 {
        return Graph::empty(1);
    }
    if n == 2 {
        return GraphBuilder::from_edges(2, [(0, 1)]);
    }
    let prufer: Vec<usize> = (0..n - 2).map(|_| rng.random_range(0..n)).collect();
    let mut degree = vec![1usize; n];
    for &p in &prufer {
        degree[p] += 1;
    }
    let mut b = GraphBuilder::new(n);
    // Standard Prüfer decoding with a scan pointer and a "leaf" candidate.
    let mut ptr = 0usize;
    while degree[ptr] != 1 {
        ptr += 1;
    }
    let mut leaf = ptr;
    for &p in &prufer {
        b.add_edge(leaf, p);
        degree[p] -= 1;
        if degree[p] == 1 && p < ptr {
            leaf = p;
        } else {
            ptr += 1;
            while degree[ptr] != 1 {
                ptr += 1;
            }
            leaf = ptr;
        }
    }
    b.add_edge(leaf, n - 1);
    b.build()
}

/// A random `d`-regular simple graph on `n` nodes via the configuration
/// model with restarts (pairings producing loops or multi-edges are
/// rejected and the whole pairing is resampled).
///
/// # Panics
/// Panics if `n * d` is odd, if `d >= n`, or if no simple pairing is found
/// after a large number of restarts (practically impossible for the sizes
/// used in the experiments).
pub fn random_regular<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Graph {
    assert!(d < n, "degree {d} must be smaller than node count {n}");
    assert!((n * d) % 2 == 0, "n * d must be even");
    if d == 0 {
        return Graph::empty(n);
    }
    'restart: for _ in 0..10_000 {
        let mut stubs: Vec<usize> = (0..n).flat_map(|v| std::iter::repeat(v).take(d)).collect();
        stubs.shuffle(rng);
        let mut b = GraphBuilder::new(n);
        for pair in stubs.chunks_exact(2) {
            let (u, v) = (pair[0], pair[1]);
            if u == v || b.has_edge(u, v) {
                continue 'restart;
            }
            b.add_edge(u, v);
        }
        let g = b.build();
        if is_connected(&g) {
            return g;
        }
    }
    panic!("failed to generate a connected {d}-regular graph on {n} nodes");
}

/// A connected Erdős–Rényi-style random graph with a hard maximum-degree
/// cap `max_degree` (edges violating the cap are skipped), built over a
/// random spanning tree so the result is always connected.
///
/// `extra_edge_prob` is the probability with which each non-tree candidate
/// edge (sampled `2 n` times) is added, subject to the degree cap.
pub fn random_bounded_degree<R: Rng + ?Sized>(
    n: usize,
    max_degree: usize,
    extra_edge_prob: f64,
    rng: &mut R,
) -> Graph {
    assert!(max_degree >= 2, "need max_degree >= 2 to stay connected");
    assert!((0.0..=1.0).contains(&extra_edge_prob));
    if n <= 1 {
        return Graph::empty(n);
    }
    let mut b = GraphBuilder::new(n);
    // Random spanning tree with degree cap: attach node i to a random
    // earlier node whose degree still has room (fall back to node i-1 which,
    // in the worst case, forms a path and never exceeds degree 2).
    for i in 1..n {
        let mut attached = false;
        for _ in 0..16 {
            let j = rng.random_range(0..i);
            if b.degree(j) < max_degree {
                b.add_edge(i, j);
                attached = true;
                break;
            }
        }
        if !attached {
            b.add_edge(i, i - 1);
        }
    }
    // Extra random edges, respecting the cap.
    for _ in 0..(2 * n) {
        if rng.random_bool(extra_edge_prob) {
            let u = rng.random_range(0..n);
            let v = rng.random_range(0..n);
            if u != v && !b.has_edge(u, v) && b.degree(u) < max_degree && b.degree(v) < max_degree {
                b.add_edge(u, v);
            }
        }
    }
    b.build()
}

/// The named graph families used by the experiment harness, so experiments
/// can be parameterised by family without closures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `cycle(n)`
    Cycle,
    /// `path(n)`
    Path,
    /// `grid(√n, √n)` (rounded)
    Grid,
    /// `binary_tree(n)`
    BinaryTree,
    /// `random_regular(n, 3, rng)`
    Cubic,
    /// `random_bounded_degree(n, 4, 0.3, rng)`
    BoundedDegree4,
    /// `torus(√n, √n)` (rounded, 4-regular) — a wrap-around topology the
    /// paper's ring-centric experiments never touch.
    Torus,
    /// `random_regular(n, 4, rng)` — the random `d`-regular family at
    /// degree 4.
    RandomRegular4,
    /// `circulant(n, {1, 2})` — the squared cycle, a deterministic
    /// 4-regular ring with chords.
    Circulant2,
    /// `prism(n/2)` — the circular ladder `CL_{n/2}`, a deterministic
    /// 3-regular counterpart to the random cubic family.
    Prism,
}

impl Family {
    /// All families, for exhaustive sweeps.
    pub const ALL: [Family; 10] = [
        Family::Cycle,
        Family::Path,
        Family::Grid,
        Family::BinaryTree,
        Family::Cubic,
        Family::BoundedDegree4,
        Family::Torus,
        Family::RandomRegular4,
        Family::Circulant2,
        Family::Prism,
    ];

    /// Human-readable name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            Family::Cycle => "cycle",
            Family::Path => "path",
            Family::Grid => "grid",
            Family::BinaryTree => "binary-tree",
            Family::Cubic => "random-3-regular",
            Family::BoundedDegree4 => "random-maxdeg-4",
            Family::Torus => "torus",
            Family::RandomRegular4 => "random-4-regular",
            Family::Circulant2 => "circulant-1-2",
            Family::Prism => "prism",
        }
    }

    /// Returns `true` if [`Family::generate`] draws from the RNG (so each
    /// call yields a different member); deterministic families always
    /// return the same graph for a given `n` and can be built once and
    /// reused across Monte-Carlo trials.
    pub fn is_randomized(&self) -> bool {
        matches!(
            self,
            Family::Cubic | Family::BoundedDegree4 | Family::RandomRegular4
        )
    }

    /// Maximum degree guaranteed by this family.
    pub fn degree_bound(&self) -> usize {
        match self {
            Family::Cycle | Family::Path => 2,
            Family::BinaryTree | Family::Cubic | Family::Prism => 3,
            Family::Grid
            | Family::BoundedDegree4
            | Family::Torus
            | Family::RandomRegular4
            | Family::Circulant2 => 4,
        }
    }

    /// Instantiates a member of the family with roughly `n` nodes.
    pub fn generate<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Graph {
        match self {
            Family::Cycle => cycle(n.max(3)),
            Family::Path => path(n.max(2)),
            Family::Grid => {
                let side = (n as f64).sqrt().round().max(2.0) as usize;
                grid(side, side)
            }
            Family::BinaryTree => binary_tree(n.max(1)),
            Family::Cubic => {
                let n = if n % 2 == 1 { n + 1 } else { n }.max(4);
                random_regular(n, 3, rng)
            }
            Family::BoundedDegree4 => random_bounded_degree(n.max(2), 4, 0.3, rng),
            Family::Torus => {
                let side = (n as f64).sqrt().round().max(3.0) as usize;
                torus(side, side)
            }
            Family::RandomRegular4 => random_regular(n.max(5), 4, rng),
            Family::Circulant2 => circulant(n.max(5), &[1, 2]),
            Family::Prism => prism((n / 2).max(3)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::{diameter, is_connected};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn cycle_is_2_regular_and_connected() {
        let g = cycle(17);
        assert_eq!(g.node_count(), 17);
        assert_eq!(g.edge_count(), 17);
        assert!(g.nodes().all(|v| g.degree(v) == 2));
        assert!(is_connected(&g));
        assert_eq!(diameter(&g), Some(8));
    }

    #[test]
    fn path_has_two_endpoints() {
        let g = path(10);
        assert_eq!(g.edge_count(), 9);
        let deg1 = g.nodes().filter(|&v| g.degree(v) == 1).count();
        assert_eq!(deg1, 2);
        assert_eq!(diameter(&g), Some(9));
    }

    #[test]
    fn star_has_center() {
        let g = star(9);
        assert_eq!(g.degree(crate::NodeId(0)), 8);
        assert_eq!(g.edge_count(), 8);
    }

    #[test]
    fn binary_tree_degree_bounded_by_3() {
        let g = binary_tree(31);
        assert!(g.max_degree() <= 3);
        assert_eq!(g.edge_count(), 30);
        assert!(is_connected(&g));
    }

    #[test]
    fn grid_and_torus_degrees() {
        let g = grid(5, 7);
        assert_eq!(g.node_count(), 35);
        assert_eq!(g.max_degree(), 4);
        assert!(is_connected(&g));
        let t = torus(5, 7);
        assert!(t.nodes().all(|v| t.degree(v) == 4));
    }

    #[test]
    fn random_tree_is_a_tree() {
        let mut rng = SmallRng::seed_from_u64(7);
        for n in [1usize, 2, 3, 10, 57, 200] {
            let g = random_tree(n, &mut rng);
            assert_eq!(g.node_count(), n);
            assert_eq!(g.edge_count(), n.saturating_sub(1));
            assert!(is_connected(&g));
        }
    }

    #[test]
    fn random_regular_has_exact_degree() {
        let mut rng = SmallRng::seed_from_u64(11);
        let g = random_regular(50, 3, &mut rng);
        assert!(g.nodes().all(|v| g.degree(v) == 3));
        assert!(is_connected(&g));
        assert!(g.validate().is_ok());
    }

    #[test]
    fn random_bounded_degree_respects_cap() {
        let mut rng = SmallRng::seed_from_u64(13);
        let g = random_bounded_degree(200, 4, 0.5, &mut rng);
        assert!(g.max_degree() <= 4);
        assert!(is_connected(&g));
    }

    #[test]
    fn circulant_squared_cycle_is_4_regular() {
        let g = circulant(11, &[1, 2]);
        assert_eq!(g.node_count(), 11);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
        assert!(is_connected(&g));
        assert!(g.validate().is_ok());
        // Offset n/2 contributes a single matching chord (degree 3 total).
        let m = circulant(8, &[1, 4]);
        assert!(m.nodes().all(|v| m.degree(v) == 3));
    }

    #[test]
    #[should_panic(expected = "disconnect")]
    fn circulant_rejects_disconnecting_offsets() {
        let _ = circulant(9, &[3, 6]);
    }

    #[test]
    fn prism_is_cubic_and_connected() {
        let g = prism(7);
        assert_eq!(g.node_count(), 14);
        assert_eq!(g.edge_count(), 21);
        assert!(g.nodes().all(|v| g.degree(v) == 3));
        assert!(is_connected(&g));
    }

    #[test]
    fn families_generate_connected_graphs_within_degree_bound() {
        let mut rng = SmallRng::seed_from_u64(5);
        for family in Family::ALL {
            let g = family.generate(40, &mut rng);
            assert!(is_connected(&g), "{} not connected", family.name());
            assert!(
                g.max_degree() <= family.degree_bound(),
                "{} exceeds degree bound",
                family.name()
            );
            if !family.is_randomized() {
                // Deterministic families must reproduce the same edge set.
                let mut rng2 = SmallRng::seed_from_u64(999);
                let h = family.generate(40, &mut rng2);
                assert_eq!(
                    g.edges().collect::<Vec<_>>(),
                    h.edges().collect::<Vec<_>>(),
                    "{} claims determinism but differs across RNGs",
                    family.name()
                );
            }
        }
        assert!(Family::Cubic.is_randomized());
        assert!(!Family::Torus.is_randomized());
    }
}
