//! Cole–Vishkin 3-coloring of oriented rings in `O(log* n)` rounds.
//!
//! §1.1 of the paper recalls Linial's lower bound: no deterministic (or
//! even randomized \[27\]) algorithm 3-colors the `n`-node ring in `o(log* n)`
//! rounds, *even when nodes know `n` and share a sense of direction*. The
//! matching upper bound is the Cole–Vishkin color-reduction technique,
//! implemented here for rings given a consistent orientation (each node's
//! input is the identity of its successor).
//!
//! The algorithm is expressed, like everything else in the workspace, as a
//! function of the radius-`t` view: the node follows the successor
//! pointers to its `t` successors and replays the global iterative process
//! on that directed segment. This is exactly the ball-simulation argument
//! of §2.1 of the paper. The node reads only its successors because every
//! step writes a node's color from its own color and its successors'
//! colors: a Cole–Vishkin iteration reads the successor, and a
//! shift-and-recolor step reads the successor's color (the node's shifted
//! color) and the shifted colors of both neighbors — the predecessor's
//! shifted color is the node's own old color. So the final color of the
//! center is a function of the center and its `t` successors.
//!
//! This makes the round complexity explicit: the radius needed is the
//! number of Cole–Vishkin iterations (one successor each) plus `2 × 3`
//! rounds for the three final shift-and-recolor reduction steps (two
//! successors each: one for the shift, one for the shifted successor).

use rlnc_core::prelude::*;
use rlnc_graph::{Graph, IdAssignment, NodeId};

/// Iterated logarithm: the number of times `log2` must be applied to `n`
/// before the value drops to at most 2.
pub fn log_star(n: u64) -> u32 {
    let mut value = n as f64;
    let mut count = 0u32;
    while value > 2.0 {
        value = value.log2();
        count += 1;
    }
    count
}

/// One Cole–Vishkin step: given my current color and my successor's current
/// color (guaranteed different), produce a new, shorter color:
/// `2 * i + bit_i`, where `i` is the lowest bit position where the colors
/// differ and `bit_i` is my bit at that position.
pub fn cv_step(mine: u64, successor: u64) -> u64 {
    debug_assert_ne!(mine, successor, "Cole–Vishkin requires distinct colors");
    let diff = mine ^ successor;
    let i = diff.trailing_zeros() as u64;
    2 * i + ((mine >> i) & 1)
}

/// The number of Cole–Vishkin iterations needed to reduce colors from
/// identities bounded by `max_id` down to the range `{0, ..., 5}`.
///
/// At most 4 for every `u64` bound: 64-bit colors shrink to 7, 4 and then
/// 3 bits, and one more step maps 3-bit colors into `{0, ..., 5}`.
pub fn cv_iterations(max_id: u64) -> u32 {
    // Track the number of bits needed for the colors: one step maps
    // `b`-bit colors to values at most `2(b-1)+1`. Stop once colors fit
    // in 3 bits.
    let mut bits = 64 - max_id.leading_zeros().min(63);
    let mut iterations = 0u32;
    while bits > 3 {
        let max_value = 2 * (u64::from(bits) - 1) + 1;
        bits = 64 - max_value.leading_zeros();
        iterations += 1;
    }
    // One more step maps 3-bit colors into {0,...,5}.
    iterations + 1
}

/// Cole–Vishkin 3-coloring of an oriented ring.
///
/// Expects instances produced by [`oriented_ring_instance`]: the graph is a
/// cycle and each node's input label holds the identity of its successor.
/// Outputs colors in `{1, 2, 3}`.
#[derive(Debug, Clone, Copy)]
pub struct ColeVishkinRingColoring {
    iterations: u32,
}

impl ColeVishkinRingColoring {
    /// The algorithm sized for rings whose identities are at most `max_id`.
    pub fn for_max_id(max_id: u64) -> Self {
        ColeVishkinRingColoring {
            iterations: cv_iterations(max_id),
        }
    }

    /// The algorithm sized for consecutive-identity rings of `n` nodes.
    pub fn for_ring_size(n: usize) -> Self {
        Self::for_max_id(n as u64)
    }

    /// Number of Cole–Vishkin iterations performed (excludes the final
    /// color-reduction rounds).
    pub fn iterations(&self) -> u32 {
        self.iterations
    }

    /// Total number of communication rounds (= the view radius): one per
    /// Cole–Vishkin iteration plus two per shift-and-recolor reduction step.
    pub fn rounds(&self) -> u32 {
        self.iterations + 6
    }
}

/// Upper bound on [`ColeVishkinRingColoring::rounds`]: [`cv_iterations`] is
/// at most 4 for every `u64` bound, plus the six reduction rounds.
const MAX_ROUNDS: usize = 10;

/// The replay over the whole two-sided window `[-t, ..., +t]`: the
/// reference the successor-only kernel ([`LocalAlgorithm::output`]) is
/// pinned against.
#[cfg(test)]
impl ColeVishkinRingColoring {
    /// Reconstructs the directed window `[-radius, ..., 0, ..., +radius]`
    /// around the center: `window[radius]` is the center, successors extend
    /// to the right. Entries are identities. A walk that leaves the view
    /// repeats its last identity.
    fn window_reference(&self, view: &View) -> Vec<u64> {
        let radius = self.rounds() as usize;
        let n = view.len();
        // successor id of local node i is its input label.
        let successor_id = |i: usize| view.input(i).as_u64();
        let id_of = |i: usize| view.id(i);
        let find_by_id = |id: u64| (0..n).find(|&i| id_of(i) == id);
        let mut window = vec![0u64; 2 * radius + 1];
        window[radius] = view.center_id();
        // Walk successors.
        let mut current = view.center_local();
        for step in 1..=radius {
            match find_by_id(successor_id(current)) {
                Some(next) => {
                    window[radius + step] = id_of(next);
                    current = next;
                }
                None => {
                    // Wrap the window cyclically on tiny rings: reuse ids.
                    window[radius + step] = window[radius + step - 1];
                }
            }
        }
        // Walk predecessors: the predecessor of x is the node whose
        // successor is x.
        let mut current_id = view.center_id();
        for step in 1..=radius {
            let pred = (0..n).find(|&i| successor_id(i) == current_id);
            match pred {
                Some(p) => {
                    window[radius - step] = id_of(p);
                    current_id = id_of(p);
                }
                None => {
                    window[radius - step] = window[radius - step + 1];
                }
            }
        }
        window
    }

    /// The center's color replayed over the whole two-sided window.
    fn output_reference(&self, view: &View) -> Label {
        let radius = self.rounds() as usize;
        let mut colors = self.window_reference(view);
        let window_len = colors.len();
        // Phase 1: iterated Cole–Vishkin color reduction. After iteration k
        // the color of position j is valid for j ≤ window_len - 1 - k.
        let mut valid = window_len;
        for _ in 0..self.iterations {
            let mut next = colors.clone();
            for j in 0..valid.saturating_sub(1) {
                if colors[j] != colors[j + 1] {
                    next[j] = cv_step(colors[j], colors[j + 1]);
                } else {
                    // Degenerate tiny-ring wrap: keep the color.
                    next[j] = colors[j] % 6;
                }
            }
            valid -= 1;
            colors = next;
        }
        // Phase 2: reduce {0..5} to {0..2} by three shift-and-recolor
        // steps. In the step for color c ∈ {3, 4, 5}: every node first
        // adopts its successor's color (a rotation, so properness is kept),
        // then nodes holding color c — an independent set — recolor to a
        // color in {0, 1, 2} unused by their neighbors. Each step consumes
        // two window positions on the successor side (one for the shift,
        // one because the recolor reads the shifted successor), which is
        // why the radius budgets two rounds per step.
        for target in [3u64, 4, 5] {
            // Shift down: adopt successor's color. Correct for positions
            // 0..valid-1 exclusive of the last.
            let mut shifted = colors.clone();
            let shift = valid.saturating_sub(1);
            shifted[..shift].copy_from_slice(&colors[1..=shift]);
            valid -= 1;
            // Recolor nodes holding the target color, reading both shifted
            // neighbors. Correct for positions 1..valid-1.
            let mut next = shifted.clone();
            for j in 1..valid.saturating_sub(1) {
                if shifted[j] == target {
                    let forbidden = [shifted[j - 1], shifted[j + 1]];
                    next[j] = (0..3).find(|c| !forbidden.contains(c)).unwrap();
                }
            }
            valid -= 1;
            colors = next;
        }
        // The center sits at `radius` = iterations + 6; phase 1 consumed
        // `iterations` positions and phase 2 consumed 6, so the center is
        // still strictly inside the valid prefix.
        debug_assert!(radius < valid);
        Label::from_u64(colors[radius] + 1)
    }
}

impl LocalAlgorithm for ColeVishkinRingColoring {
    fn radius(&self) -> u32 {
        self.rounds()
    }

    /// Replays the process on the center and its `t` successors, in place
    /// with the center at index 0. Every step writes position `j` from
    /// positions `j..` only (see the module docs), so each step shortens
    /// the exact prefix — by one per iteration, by two per
    /// shift-and-recolor step — and the center's entry is the last exact
    /// one.
    fn output(&self, view: &View) -> Label {
        let t = self.rounds() as usize;
        let mut buffer = [0u64; MAX_ROUNDS + 1];
        let colors = &mut buffer[..=t];
        // colors[s] starts as the identity of the center's s-th successor,
        // the first view member holding the identity its predecessor's
        // input names. A chain that leaves the view (a path end, a forged
        // or absent identity) repeats its last identity.
        colors[0] = view.center_id();
        let mut current = view.center_local();
        for step in 1..=t {
            let successor = view.input(current).as_u64();
            let Some(next) = (0..view.len()).find(|&i| view.id(i) == successor) else {
                let last = colors[step - 1];
                colors[step..].fill(last);
                break;
            };
            colors[step] = successor;
            current = next;
        }
        // Phase 1: iterated Cole–Vishkin color reduction; each iteration
        // reads the successor's color.
        let mut exact = t + 1;
        for _ in 0..self.iterations {
            exact -= 1;
            for j in 0..exact {
                colors[j] = if colors[j] != colors[j + 1] {
                    cv_step(colors[j], colors[j + 1])
                } else {
                    // Equal neighbors only come from a repeated
                    // identity: keep the color.
                    colors[j] % 6
                };
            }
        }
        // Phase 2: reduce {0..5} to {0..2} by three shift-and-recolor
        // steps. In the step for color c ∈ {3, 4, 5}: every node first
        // adopts its successor's color (a rotation, so properness is kept),
        // then nodes holding color c — an independent set — recolor to a
        // color in {0, 1, 2} unused by their shifted neighbors: the
        // predecessor's shifted color is the node's own old color, the
        // successor's is the second successor's old color.
        for target in [3u64, 4, 5] {
            exact -= 2;
            for j in 0..exact {
                let shifted = colors[j + 1];
                colors[j] = if shifted == target {
                    let forbidden = [colors[j], colors[j + 2]];
                    (0..3)
                        .find(|c| !forbidden.contains(c))
                        .expect("two neighbors forbid at most two of three colors")
                } else {
                    shifted
                };
            }
        }
        debug_assert_eq!(exact, 1);
        Label::from_u64(colors[0] + 1)
    }

    fn name(&self) -> String {
        format!("cole-vishkin({} iterations)", self.iterations)
    }
}

/// Builds an oriented-ring instance: the cycle `C_n`, consecutive
/// identities, and each node's input set to the identity of its successor
/// `(i + 1) mod n` — the "common sense of direction" the classical ring
/// algorithms assume.
pub fn oriented_ring_instance(n: usize) -> (Graph, Labeling, IdAssignment) {
    let graph = rlnc_graph::generators::cycle(n);
    let ids = IdAssignment::consecutive(&graph);
    let input = Labeling::from_fn(&graph, |v| {
        let successor = NodeId(((v.index() + 1) % n) as u32);
        Label::from_u64(ids.id(successor))
    });
    (graph, input, ids)
}

/// Builds an oriented-ring instance with an arbitrary identity assignment
/// (the successor pointers still follow the node-index order).
pub fn oriented_ring_instance_with_ids(n: usize, ids: IdAssignment) -> (Graph, Labeling, IdAssignment) {
    let graph = rlnc_graph::generators::cycle(n);
    assert_eq!(ids.len(), n);
    let input = Labeling::from_fn(&graph, |v| {
        let successor = NodeId(((v.index() + 1) % n) as u32);
        Label::from_u64(ids.id(successor))
    });
    (graph, input, ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coloring::ProperColoring;
    use rlnc_core::Simulator;

    #[test]
    fn log_star_values() {
        // log_star counts applications of log2 until the value is at most 2.
        assert_eq!(log_star(1), 0);
        assert_eq!(log_star(2), 0);
        assert_eq!(log_star(4), 1);
        assert_eq!(log_star(16), 2);
        assert_eq!(log_star(65_536), 3);
        assert_eq!(log_star(1 << 63), 4);
        assert!(log_star(u64::MAX) <= 5);
        // Monotone non-decreasing.
        assert!(log_star(100) <= log_star(1_000_000));
    }

    #[test]
    fn cv_step_produces_distinct_small_colors() {
        // Adjacent distinct colors stay distinct after one step.
        for (a, b, c) in [(0b1010u64, 0b1000, 0b0110), (5, 9, 5), (63, 62, 1)] {
            let ab = cv_step(a, b);
            let bc = cv_step(b, c);
            assert_ne!(ab, bc, "cv_step must keep adjacent colors distinct");
        }
        // The new color is bounded by 2 * bit-length.
        assert!(cv_step(u64::MAX - 1, u64::MAX) <= 2 * 64 + 1);
    }

    #[test]
    fn cv_iterations_grows_like_log_star() {
        let small = cv_iterations(16);
        let large = cv_iterations(1 << 40);
        assert!(small <= large);
        assert!(large <= 6, "iterations must stay tiny even for huge ids");
        assert!(cv_iterations(4) >= 1);
    }

    #[test]
    fn cole_vishkin_three_colors_oriented_rings() {
        for n in [5usize, 8, 16, 33, 100, 257] {
            let (graph, input, ids) = oriented_ring_instance(n);
            let algo = ColeVishkinRingColoring::for_ring_size(n);
            let inst = Instance::new(&graph, &input, &ids);
            let out = Simulator::new().run(&algo, &inst);
            let lang = ProperColoring::new(3);
            let io = IoConfig::new(&graph, &input, &out);
            assert!(
                lang.contains(&io),
                "Cole–Vishkin must properly 3-color the oriented ring on {n} nodes"
            );
        }
    }

    #[test]
    fn cole_vishkin_works_with_scrambled_ids() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        for n in [12usize, 40, 97] {
            let graph = rlnc_graph::generators::cycle(n);
            let ids = IdAssignment::random_sparse(&graph, 10 * n as u64, &mut rng);
            let (graph, input, ids) = oriented_ring_instance_with_ids(n, ids);
            let algo = ColeVishkinRingColoring::for_max_id(10 * n as u64);
            let inst = Instance::new(&graph, &input, &ids);
            let out = Simulator::new().run(&algo, &inst);
            let lang = ProperColoring::new(3);
            assert!(lang.contains(&IoConfig::new(&graph, &input, &out)));
        }
    }

    #[test]
    fn cv_iterations_is_at_most_four_for_every_u64_bound() {
        let powers = (1..64).flat_map(|k| [(1u64 << k) - 1, 1u64 << k]);
        for max_id in [0, 1, u64::MAX].into_iter().chain(powers) {
            let iterations = cv_iterations(max_id);
            assert!(
                (1..=4).contains(&iterations),
                "cv_iterations({max_id}) = {iterations}"
            );
            let rounds = ColeVishkinRingColoring::for_max_id(max_id).rounds();
            assert!(
                rounds as usize <= MAX_ROUNDS,
                "{rounds} rounds at bound {max_id}"
            );
        }
        assert_eq!(cv_iterations(u64::MAX), 4);
    }

    /// `view` with every third member holding the identity of the member
    /// before it, so successor lookups meet duplicate identities and the
    /// first match decides.
    fn with_colliding_ids(view: &View) -> View {
        let ids = (0..view.len())
            .map(|i| view.id(if i % 3 == 2 { i - 1 } else { i }))
            .collect();
        let inputs = (0..view.len()).map(|i| *view.input(i)).collect();
        let (ball, degree) = (view.ball.clone(), view.center_degree());
        View::from_parts(ball, view.center, view.radius, ids, inputs, None, degree)
    }

    /// The successor-only kernel equals the two-sided reference on every
    /// view of the instance, and on each view with colliding identities.
    fn assert_kernel_matches_reference(
        algo: &ColeVishkinRingColoring,
        graph: &Graph,
        input: &Labeling,
        ids: &IdAssignment,
        what: &str,
    ) {
        let instance = Instance::new(graph, input, ids);
        for view in View::collect_all(&instance, algo.rounds()) {
            for view in [with_colliding_ids(&view), view] {
                assert_eq!(
                    LocalAlgorithm::output(algo, &view),
                    algo.output_reference(&view),
                    "{what}, {}: node {}",
                    LocalAlgorithm::name(algo),
                    view.center
                );
            }
        }
    }

    #[test]
    fn successor_kernel_matches_the_reference_on_oriented_rings() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
        // Rings shorter than 2t + 1 wrap the window around the ring.
        for n in (3..=24).chain([64]) {
            let cycle = rlnc_graph::generators::cycle(n);
            let sparse = IdAssignment::random_sparse(&cycle, 1 << 20, &mut rng);
            for ids in [IdAssignment::consecutive(&cycle), sparse] {
                let (graph, input, ids) = oriented_ring_instance_with_ids(n, ids);
                for algo in [
                    ColeVishkinRingColoring::for_max_id(1 << 20),
                    ColeVishkinRingColoring::for_ring_size(n),
                ] {
                    assert_kernel_matches_reference(
                        &algo,
                        &graph,
                        &input,
                        &ids,
                        &format!("ring {n}"),
                    );
                }
            }
        }
    }

    #[test]
    fn successor_kernel_matches_the_reference_where_the_chain_runs_out() {
        let algo = ColeVishkinRingColoring::for_max_id(1 << 20);
        assert_eq!(algo.rounds(), 10);
        for n in [1usize, 2, 5, 11, 21, 30] {
            let graph = rlnc_graph::generators::path(n);
            let ids = IdAssignment::consecutive(&graph);
            // Pointers run along the path in either direction; the node at
            // the far end names an identity no node holds (`n + 1` or 0),
            // so every chain that reaches it repeats from there on.
            for step in [1i64, -1] {
                let input = Labeling::from_fn(&graph, |v| {
                    Label::from_u64(ids.id(v).wrapping_add_signed(step))
                });
                assert_kernel_matches_reference(&algo, &graph, &input, &ids, &format!("path {n}"));
            }
        }
    }

    #[test]
    fn successor_kernel_matches_the_reference_on_arbitrary_pointers() {
        use rand::{Rng, SeedableRng};
        use rlnc_graph::generators::{prism, random_regular};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(29);
        for case in 0..12u64 {
            let graph = match case % 4 {
                0 => random_regular(24, 3, &mut rng),
                1 => random_regular(128, 3, &mut rng),
                2 => prism(6),
                _ => prism(40),
            };
            let n = graph.node_count();
            let ids = IdAssignment::random_sparse(&graph, 1 << 10, &mut rng);
            // Each node names a neighbor, any node (possibly outside the
            // view), itself, or an identity no node holds: several nodes
            // claim the same successor and chains leave the view.
            let claims: Vec<Label> = graph
                .nodes()
                .map(|v| {
                    let named = match rng.random_range(0..4) {
                        0 => {
                            let neighbors = graph.neighbors(v);
                            NodeId(neighbors[rng.random_range(0..neighbors.len())])
                        }
                        1 => NodeId(rng.random_range(0..n) as u32),
                        2 => v,
                        _ => return Label::from_u64(rng.random_range((1 << 10) + 1..1 << 20)),
                    };
                    Label::from_u64(ids.id(named))
                })
                .collect();
            let input = Labeling::new(claims);
            for algo in [
                ColeVishkinRingColoring::for_max_id(1 << 20),
                ColeVishkinRingColoring::for_max_id(15),
            ] {
                assert_kernel_matches_reference(
                    &algo,
                    &graph,
                    &input,
                    &ids,
                    &format!("graph {case}"),
                );
            }
        }
    }

    /// The two-sided reference as a local algorithm, so it can run through
    /// the round backend.
    struct TwoSidedReference(ColeVishkinRingColoring);

    impl LocalAlgorithm for TwoSidedReference {
        fn radius(&self) -> u32 {
            self.0.rounds()
        }

        fn output(&self, view: &View) -> Label {
            self.0.output_reference(view)
        }
    }

    #[test]
    fn successor_kernel_matches_the_reference_under_every_fault_plan() {
        use rlnc_core::faults::FAULT_PLAN_KINDS;
        use rlnc_engine::RoundPlan;
        use rlnc_par::rng::SeedSequence;

        let algo = ColeVishkinRingColoring::for_max_id(1 << 20);
        let reference = TwoSidedReference(algo);
        let plans: Vec<FaultPlan> = std::iter::once(FaultPlan::None)
            .chain((0..FAULT_PLAN_KINDS).map(|kind| FaultPlan::from_index(kind, 0.4)))
            .collect();
        let mut forged = 0;
        for n in [12usize, 16, 25] {
            let (graph, input, ids) = oriented_ring_instance(n);
            let plan = RoundPlan::for_instance(&Instance::new(&graph, &input, &ids), algo.rounds());
            for fault in &plans {
                for trial in 0..4 {
                    let seed = SeedSequence::new(trial);
                    let schedule = fault.schedule(&graph, seed.child(0));
                    forged += usize::from(graph.nodes().any(|v| schedule.is_byzantine(v)));
                    assert_eq!(
                        plan.run_with_faults(&algo, seed.child(1), &schedule),
                        plan.run_with_faults(&reference, seed.child(1), &schedule),
                        "ring {n}, plan {}, trial {trial}",
                        fault.name()
                    );
                }
            }
        }
        assert!(
            forged > 0,
            "byzantine-relabel must forge identities in some trial"
        );
    }

    #[test]
    fn round_complexity_is_iterations_plus_six() {
        let algo = ColeVishkinRingColoring::for_ring_size(1024);
        assert_eq!(algo.rounds(), algo.iterations() + 6);
        assert_eq!(LocalAlgorithm::radius(&algo), algo.rounds());
        assert!(LocalAlgorithm::name(&algo).contains("cole-vishkin"));
    }
}
