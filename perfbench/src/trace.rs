//! The benchmark's own span tree: wall-clock spans around the calls it
//! makes into each layer, aggregated in memory by call path and written
//! out once at the end of a traced run.
//!
//! A span's self time is its total time minus the time of the spans it
//! opened. Spans are recorded only by benchmark code, never inside the
//! program, so the tree explains the benchmark's calls into the public
//! API and nothing finer.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug)]
struct Node {
    name: &'static str,
    parent: Option<usize>,
    children: Vec<usize>,
    count: u64,
    total_ns: u64,
    child_ns: u64,
}

/// An in-memory span tree aggregated by call path.
#[derive(Debug, Default)]
pub struct Tracer {
    nodes: Vec<Node>,
    roots: Vec<usize>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty tree.
    pub fn new() -> Self {
        Tracer::default()
    }

    fn node(&mut self, name: &'static str) -> usize {
        let parent = self.open.last().copied();
        let siblings = match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        };
        if let Some(&id) = siblings.iter().find(|&&id| self.nodes[id].name == name) {
            return id;
        }
        let id = self.nodes.len();
        self.nodes.push(Node {
            name,
            parent,
            children: Vec::new(),
            count: 0,
            total_ns: 0,
            child_ns: 0,
        });
        match parent {
            Some(p) => self.nodes[p].children.push(id),
            None => self.roots.push(id),
        }
        id
    }

    /// Runs `f` under a span named `name`, nested in the innermost open
    /// span; `f` may open child spans through the tracer it is handed.
    /// Returns `f`'s result and the span's duration in nanoseconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, u64) {
        let id = self.node(name);
        self.open.push(id);
        let start = Instant::now();
        let out = f(self);
        let ns = start.elapsed().as_nanos() as u64;
        self.open.pop();
        let node = &mut self.nodes[id];
        node.count += 1;
        node.total_ns += ns;
        if let Some(p) = node.parent {
            self.nodes[p].child_ns += ns;
        }
        (out, ns)
    }

    /// A span that opens no children.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, |_| f()).0
    }

    /// Total nanoseconds over every span named `name`, wherever it sits.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.name == name)
            .map(|n| n.total_ns)
            .sum()
    }

    /// Number of spans named `name`, wherever they sit.
    pub fn count(&self, name: &str) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.name == name)
            .map(|n| n.count)
            .sum()
    }

    /// Share of the root spans' time that named leaf spans cover.
    pub fn coverage(&self) -> f64 {
        let roots: u64 = self.roots.iter().map(|&r| self.nodes[r].total_ns).sum();
        let leaves: u64 = self
            .nodes
            .iter()
            .filter(|n| n.parent.is_some() && n.children.is_empty())
            .map(|n| n.total_ns)
            .sum();
        if roots == 0 {
            0.0
        } else {
            leaves as f64 / roots as f64
        }
    }

    /// The tree as indented text: one line per call path with its span
    /// count, total and self time.
    pub fn render(&self) -> String {
        let mut out = String::from("# span  count  total_ms  self_ms\n");
        let mut stack: Vec<(usize, usize)> = self.roots.iter().rev().map(|&r| (r, 0)).collect();
        while let Some((id, depth)) = stack.pop() {
            let n = &self.nodes[id];
            let _ = writeln!(
                out,
                "{:indent$}{}  {}  {:.3}  {:.3}",
                "",
                n.name,
                n.count,
                n.total_ns as f64 / 1e6,
                n.total_ns.saturating_sub(n.child_ns) as f64 / 1e6,
                indent = 2 * depth
            );
            stack.extend(n.children.iter().rev().map(|&c| (c, depth + 1)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn spans_aggregate_by_path_with_self_time() {
        let mut t = Tracer::new();
        for _ in 0..3 {
            t.span("trial", |t| {
                t.leaf("a", || spin(200_000));
                t.leaf("b", || spin(100_000));
            });
        }
        t.span("prepare", |t| t.leaf("a", || spin(50_000)));
        assert_eq!(t.count("trial"), 3);
        assert_eq!(t.count("a"), 4);
        assert!(t.total_ns("a") >= 650_000);
        assert!(t.total_ns("trial") >= t.total_ns("b") + 600_000);
        let coverage = t.coverage();
        assert!(coverage > 0.5 && coverage <= 1.0, "coverage {coverage}");
        let text = t.render();
        assert!(text.contains("trial  3"));
        assert!(text.contains("\n  a  3"));
        assert!(text.contains("prepare  1"));
    }

    #[test]
    fn an_empty_tree_covers_nothing() {
        assert_eq!(Tracer::new().coverage(), 0.0);
    }
}
