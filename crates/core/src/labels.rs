//! Labels (input/output strings) and the bounded promise `F_k`.
//!
//! In the paper every node holds an input string `x(v) ∈ {0,1}*` and
//! produces an output string `y(v) ∈ {0,1}*`. The derandomization theorem
//! is stated under the promise `F_k`: the graph has maximum degree at most
//! `k` and all input and output strings have length at most `k`.
//!
//! Labels are stored as short byte strings, and the promise is part of the
//! type: a [`Label`] is a 16-byte `Copy` value holding one length byte and
//! at most [`Label::MAX_LEN`] = 15 value bytes, and building a longer label
//! panics. Every language in this workspace uses an alphabet of constant
//! size (colors `≤ Δ+1`, booleans, small counters), which keeps the promise
//! semantics of the paper — a finite label alphabet per `k` — without
//! bit-level bookkeeping.
//!
//! The bound is 15 bytes rather than 7 because full-width identities are
//! labels too: matching names nodes by identity, Byzantine relabelling
//! forges identities at or above `2^40`, and coin-derived outputs use a
//! whole `u64` — eight bytes each; no label the workspace builds, tests
//! included, is longer than nine bytes. Sixteen bytes in all keep a label
//! the size of two machine words, so a labeling is one flat `Vec<Label>`,
//! a view's label arrays are contiguous 16-byte lanes, and copying or
//! comparing a label never touches the heap.

use rlnc_graph::{Graph, NodeId};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A bounded label: the input or output string of a single node.
///
/// Byte 0 holds the length; the value bytes sit right-aligned in bytes
/// `1..16`, zero-padded on the left. Padding is always zero, so equality
/// is one 16-byte compare, [`Label::as_u64`] is one big-endian load of the
/// last eight bytes, and [`Label::as_bytes`] borrows the value in place.
/// `Eq`, `Ord`, `Hash`, `Debug` and `Display` are exactly those of the
/// byte string [`Label::as_bytes`].
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct Label([u8; Label::SIZE]);

impl Label {
    /// Most value bytes a label holds — the `F_k` bound the type enforces.
    pub const MAX_LEN: usize = 15;

    /// Size of a label in memory: the length byte plus the value bytes.
    const SIZE: usize = Self::MAX_LEN + 1;

    /// The empty label (used for "no input").
    pub const fn empty() -> Self {
        Label([0; Self::SIZE])
    }

    /// A label holding raw bytes.
    ///
    /// # Panics
    /// Panics if `bytes` is longer than [`Label::MAX_LEN`].
    pub fn from_bytes(bytes: impl AsRef<[u8]>) -> Self {
        let bytes = bytes.as_ref();
        assert!(
            bytes.len() <= Self::MAX_LEN,
            "a label of {} bytes exceeds the F_k bound of {} bytes",
            bytes.len(),
            Self::MAX_LEN
        );
        let mut raw = [0; Self::SIZE];
        raw[0] = bytes.len() as u8;
        raw[Self::SIZE - bytes.len()..].copy_from_slice(bytes);
        Label(raw)
    }

    /// A label encoding a small non-negative integer (colors, marks,
    /// counters) using the minimal number of big-endian bytes.
    pub fn from_u64(value: u64) -> Self {
        let mut raw = [0; Self::SIZE];
        raw[0] = (8 - value.leading_zeros() as u8 / 8).max(1);
        raw[Self::SIZE - 8..].copy_from_slice(&value.to_be_bytes());
        Label(raw)
    }

    /// A boolean label (`1` or `0`), used for selected/marked predicates.
    pub fn from_bool(value: bool) -> Self {
        let mut raw = [0; Self::SIZE];
        raw[0] = 1;
        raw[Self::SIZE - 1] = u8::from(value);
        Label(raw)
    }

    /// Decodes the label as a big-endian integer (empty label decodes to 0).
    ///
    /// # Panics
    /// Panics if the label is longer than 8 bytes.
    #[inline]
    pub fn as_u64(&self) -> u64 {
        assert!(self.len() <= 8, "label too long to decode as u64");
        let mut tail = [0; 8];
        tail.copy_from_slice(&self.0[Self::SIZE - 8..]);
        u64::from_be_bytes(tail)
    }

    /// Decodes the label as a boolean (any non-zero content is `true`).
    #[inline]
    pub fn as_bool(&self) -> bool {
        // Little-endian, byte 0 (the length) is the low byte: shifting it
        // out leaves exactly the value bytes and their zero padding.
        u128::from_le_bytes(self.0) >> 8 != 0
    }

    /// Raw bytes of the label.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.0[Self::SIZE - self.len()..]
    }

    /// Length of the label in bytes (the quantity bounded by `F_k`).
    #[inline]
    pub fn len(&self) -> usize {
        usize::from(self.0[0])
    }

    /// Returns `true` for the empty label.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl PartialOrd for Label {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Lexicographic on the bytes, like `Vec<u8>` (not length-first).
impl Ord for Label {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

/// Hashes the byte string, so hashes equal those of the same `Vec<u8>`.
impl Hash for Label {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Label").field(&self.as_bytes()).finish()
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len() <= 8 {
            write!(f, "{}", self.as_u64())
        } else {
            let hex: String = self.as_bytes().iter().map(|b| format!("{b:02x}")).collect();
            write!(f, "0x{hex}")
        }
    }
}

impl From<u64> for Label {
    fn from(value: u64) -> Self {
        Label::from_u64(value)
    }
}

impl From<bool> for Label {
    fn from(value: bool) -> Self {
        Label::from_bool(value)
    }
}

/// A per-node labeling: the function `x : V → {0,1}*` (or `y`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Labeling {
    labels: Vec<Label>,
}

impl Labeling {
    /// All-empty labeling on `n` nodes (the "no input" configuration used
    /// by input-less tasks such as coloring).
    pub fn empty(n: usize) -> Self {
        Labeling {
            labels: vec![Label::empty(); n],
        }
    }

    /// Builds a labeling from an explicit per-node vector.
    pub fn new(labels: Vec<Label>) -> Self {
        Labeling { labels }
    }

    /// Builds a labeling by evaluating `f` at every node of `graph`.
    pub fn from_fn(graph: &Graph, f: impl Fn(NodeId) -> Label) -> Self {
        Labeling {
            labels: graph.nodes().map(f).collect(),
        }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` if the labeling covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Label of node `v`.
    #[inline]
    pub fn get(&self, v: NodeId) -> &Label {
        &self.labels[v.index()]
    }

    /// Sets the label of node `v`.
    pub fn set(&mut self, v: NodeId, label: Label) {
        self.labels[v.index()] = label;
    }

    /// Iterates over `(node, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Label)> {
        self.labels
            .iter()
            .enumerate()
            .map(|(i, l)| (NodeId::from_index(i), l))
    }

    /// Maximum label length in bytes (0 for an empty labeling).
    pub fn max_len(&self) -> usize {
        self.labels.iter().map(Label::len).max().unwrap_or(0)
    }

    /// Underlying vector of labels, indexed by node.
    pub fn as_slice(&self) -> &[Label] {
        &self.labels
    }

    /// Mutable vector of labels, indexed by node.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [Label] {
        &mut self.labels
    }

    /// Concatenates two labelings (for disjoint unions of instances).
    pub fn concatenate(&self, other: &Labeling) -> Labeling {
        Labeling {
            labels: [self.labels.as_slice(), &other.labels].concat(),
        }
    }
}

/// The promise `F_k`: degree at most `k`, input and output labels of length
/// at most `k` (bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FkPromise {
    /// The bound `k`.
    pub k: usize,
}

impl FkPromise {
    /// Creates the promise with bound `k`. Theorem 1 requires `k > 2`.
    pub fn new(k: usize) -> Self {
        FkPromise { k }
    }

    /// Checks whether a graph satisfies the degree part of the promise.
    pub fn check_graph(&self, graph: &Graph) -> bool {
        graph.max_degree() <= self.k
    }

    /// Checks whether a labeling satisfies the label-length part.
    pub fn check_labeling(&self, labeling: &Labeling) -> bool {
        labeling.max_len() <= self.k
    }

    /// Checks the full promise on an input-output configuration.
    pub fn check(&self, graph: &Graph, input: &Labeling, output: &Labeling) -> bool {
        self.check_graph(graph) && self.check_labeling(input) && self.check_labeling(output)
    }

    /// Returns `true` if the bound allows the Theorem-1 gluing (`k > 2`).
    pub fn allows_gluing(&self) -> bool {
        self.k > 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rlnc_graph::generators::{cycle, star};

    #[test]
    fn label_round_trips_u64() {
        for v in [0u64, 1, 2, 7, 255, 256, 65_535, 1 << 40] {
            assert_eq!(Label::from_u64(v).as_u64(), v);
        }
        assert_eq!(Label::from_u64(0).len(), 1);
        assert_eq!(Label::from_u64(255).len(), 1);
        assert_eq!(Label::from_u64(256).len(), 2);
    }

    #[test]
    fn label_bool_and_bytes() {
        assert!(Label::from_bool(true).as_bool());
        assert!(!Label::from_bool(false).as_bool());
        assert!(!Label::empty().as_bool());
        assert_eq!(Label::from_bytes([1, 2]).as_u64(), 258);
        assert_eq!(Label::from(5u64).as_u64(), 5);
        assert_eq!(Label::from(true), Label::from_bool(true));
    }

    /// Equal labels are exactly equal byte strings (leading zeros
    /// included, so non-canonical encodings stay distinct), and the value
    /// decodes in place.
    #[test]
    fn labels_are_injective_and_decode_in_place() {
        let labels = [
            Label::empty(),
            Label::from_u64(0),
            Label::from_u64(1),
            Label::from_u64(255),
            Label::from_u64(256),
            Label::from_u64((1 << 56) - 1),
            Label::from_u64(u64::MAX),
            Label::from_bytes([0, 5]),    // non-canonical 5
            Label::from_bytes([0, 0, 5]), // another non-canonical 5
            Label::from_bytes([1; 9]),
            Label::from_bytes([0xff; Label::MAX_LEN]),
            Label::from_bool(true),
            Label::from_bool(false),
        ];
        for a in &labels {
            assert_eq!(a.as_bool(), a.as_bytes().iter().any(|&b| b != 0));
            if a.len() <= 8 {
                let decoded = a
                    .as_bytes()
                    .iter()
                    .fold(0u64, |acc, &b| acc << 8 | u64::from(b));
                assert_eq!(a.as_u64(), decoded);
            }
            for b in &labels {
                assert_eq!(a == b, a.as_bytes() == b.as_bytes(), "{a:?} vs {b:?}");
            }
        }
        assert_eq!(std::mem::size_of::<Label>(), 16);
    }

    #[test]
    #[should_panic(expected = "exceeds the F_k bound of 15 bytes")]
    fn labels_longer_than_the_fk_bound_are_rejected() {
        let _ = Label::from_bytes([0; 16]);
    }

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    proptest! {
        /// The inline label behaves exactly like the `Vec<u8>` it replaced.
        /// A three-letter alphabet makes ties, shared prefixes and leading
        /// zeros common.
        #[test]
        fn inline_labels_match_the_byte_vector_reference(
            a in proptest::collection::vec(0u8..3, 0..16),
            b in proptest::collection::vec(0u8..3, 0..16),
            c in proptest::collection::vec(any::<u8>(), 0..16),
        ) {
            for (x, y) in [(&a, &b), (&a, &c), (&c, &b), (&b, &b)] {
                let (lx, ly) = (Label::from_bytes(x), Label::from_bytes(y));
                prop_assert_eq!(lx == ly, x == y);
                prop_assert_eq!(lx.cmp(&ly), x.cmp(y));
                prop_assert_eq!(lx.partial_cmp(&ly), x.partial_cmp(y));
            }
            for x in [&a, &b, &c] {
                let label = Label::from_bytes(x);
                prop_assert_eq!(label.as_bytes(), x.as_slice());
                prop_assert_eq!(label.len(), x.len());
                prop_assert_eq!(label.is_empty(), x.is_empty());
                prop_assert_eq!(hash_of(&label), hash_of(x));
                prop_assert_eq!(label.as_bool(), x.iter().any(|&byte| byte != 0));
                prop_assert_eq!(format!("{label:?}"), format!("Label({x:?})"));
                let value = x.iter().fold(0u64, |acc, &byte| acc << 8 | u64::from(byte));
                let display = if x.len() <= 8 {
                    prop_assert_eq!(label.as_u64(), value);
                    value.to_string()
                } else {
                    format!("0x{}", x.iter().map(|byte| format!("{byte:02x}")).collect::<String>())
                };
                prop_assert_eq!(label.to_string(), display);
            }
        }
    }

    #[test]
    fn label_display() {
        assert_eq!(format!("{}", Label::from_u64(42)), "42");
        assert_eq!(format!("{}", Label::empty()), "0");
    }

    #[test]
    fn labeling_get_set_iter() {
        let g = cycle(5);
        let mut l = Labeling::empty(5);
        assert_eq!(l.len(), 5);
        l.set(NodeId(2), Label::from_u64(9));
        assert_eq!(l.get(NodeId(2)).as_u64(), 9);
        assert_eq!(l.get(NodeId(0)), &Label::empty());
        let from_fn = Labeling::from_fn(&g, |v| Label::from_u64(v.0 as u64));
        assert_eq!(from_fn.get(NodeId(3)).as_u64(), 3);
        let pairs: Vec<_> = from_fn.iter().collect();
        assert_eq!(pairs.len(), 5);
        assert_eq!(from_fn.max_len(), 1);
    }

    #[test]
    fn labeling_concatenate() {
        let a = Labeling::new(vec![Label::from_u64(1), Label::from_u64(2)]);
        let b = Labeling::new(vec![Label::from_u64(3)]);
        let c = a.concatenate(&b);
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(NodeId(2)).as_u64(), 3);
    }

    #[test]
    fn fk_promise_checks() {
        let g = cycle(6);
        let promise = FkPromise::new(3);
        assert!(promise.check_graph(&g));
        assert!(promise.allows_gluing());
        assert!(!FkPromise::new(2).allows_gluing());
        let hub = star(10);
        assert!(!promise.check_graph(&hub));
        let short = Labeling::from_fn(&g, |_| Label::from_u64(3));
        let long = Labeling::from_fn(&g, |_| Label::from_bytes([0; 8]));
        assert!(promise.check_labeling(&short));
        assert!(!promise.check_labeling(&long));
        assert!(promise.check(&g, &short, &short));
        assert!(!promise.check(&g, &short, &long));
    }
}
