//! Input/output configurations and instances (§2.2.1 of the paper).
//!
//! * An **input configuration** is a pair `(G, x)`.
//! * An **output configuration** is a pair `(G, y)`.
//! * An **input-output configuration** `(G, (x, y))` is what a distributed
//!   language contains (membership never depends on identities).
//! * An **instance** `(G, x, id)` is what a construction algorithm runs on;
//!   a decision algorithm runs on `(G, (x, y), id)`.
//!
//! The structs below are thin borrowing views so experiments can re-use one
//! graph across thousands of Monte-Carlo trials without cloning it.

use crate::labels::Labeling;
use rlnc_graph::{Graph, IdAssignment};

/// An input configuration `(G, x)` together with an identity assignment —
/// i.e. an *instance* of a construction task.
#[derive(Debug, Clone, Copy)]
pub struct Instance<'a> {
    /// The network.
    pub graph: &'a Graph,
    /// The input labeling `x`.
    pub input: &'a Labeling,
    /// The identity assignment `id`.
    pub ids: &'a IdAssignment,
}

impl<'a> Instance<'a> {
    /// Bundles a graph, input, and identity assignment into an instance.
    ///
    /// # Panics
    /// Panics if the labeling or identity assignment does not cover exactly
    /// the nodes of the graph.
    pub fn new(graph: &'a Graph, input: &'a Labeling, ids: &'a IdAssignment) -> Self {
        assert_eq!(graph.node_count(), input.len(), "input labeling size mismatch");
        assert_eq!(graph.node_count(), ids.len(), "identity assignment size mismatch");
        Instance { graph, input, ids }
    }
}

/// An input-output configuration `(G, (x, y))` — the object a distributed
/// language contains or not. Identity-free by design, mirroring the paper.
#[derive(Debug, Clone, Copy)]
pub struct IoConfig<'a> {
    /// The network.
    pub graph: &'a Graph,
    /// The input labeling `x`.
    pub input: &'a Labeling,
    /// The output labeling `y`.
    pub output: &'a Labeling,
}

impl<'a> IoConfig<'a> {
    /// Bundles a graph with its input and output labelings.
    ///
    /// # Panics
    /// Panics if either labeling does not cover exactly the nodes of the graph.
    pub fn new(graph: &'a Graph, input: &'a Labeling, output: &'a Labeling) -> Self {
        assert_eq!(graph.node_count(), input.len(), "input labeling size mismatch");
        assert_eq!(graph.node_count(), output.len(), "output labeling size mismatch");
        IoConfig { graph, input, output }
    }

    /// The configuration obtained from an instance plus a constructed output.
    pub fn from_instance(instance: &Instance<'a>, output: &'a Labeling) -> Self {
        IoConfig::new(instance.graph, instance.input, output)
    }

    /// Number of nodes in the configuration.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::{Label, Labeling};
    use rlnc_graph::generators::cycle;
    use rlnc_graph::IdAssignment;

    #[test]
    fn instance_and_io_config_construction() {
        let g = cycle(6);
        let x = Labeling::empty(6);
        let y = Labeling::from_fn(&g, |v| Label::from_u64(u64::from(v.0 % 3)));
        let ids = IdAssignment::consecutive(&g);
        let inst = Instance::new(&g, &x, &ids);
        let io = IoConfig::from_instance(&inst, &y);
        assert_eq!(io.node_count(), 6);
        assert_eq!(io.output.get(rlnc_graph::NodeId(4)).as_u64(), 1);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn instance_rejects_wrong_labeling_size() {
        let g = cycle(6);
        let x = Labeling::empty(5);
        let ids = IdAssignment::consecutive(&g);
        let _ = Instance::new(&g, &x, &ids);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn io_config_rejects_wrong_output_size() {
        let g = cycle(4);
        let x = Labeling::empty(4);
        let y = Labeling::empty(3);
        let _ = IoConfig::new(&g, &x, &y);
    }
}
