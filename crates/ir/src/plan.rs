//! The execution-plan layer: liveness analysis + offset assignment.
//!
//! Liveness planning is the final pass of the IR pipeline: every lowered
//! program — the FP32 executor, the bit-exact INT8 executor and the DPU
//! compiler's channel-padded DDR layout — reduces to the same [`ExecPlan`],
//! a topologically ordered walk annotated with each value's *last use* and
//! an **offset** into one per-worker arena. Offsets are placed greedy by
//! size (Pisarchyk & Lee, arXiv:2001.03288): the largest value first, each
//! at the lowest offset where it overlaps no value live at the same time.
//! The arena is sized to the highest end, close to the peak-live footprint
//! with none of the fragmentation a fixed set of reusable buffers bakes in
//! (a buffer sized for its largest value holds every smaller one it is
//! reused for). Skip connections stay live across the encoder–decoder span
//! and keep their bytes; every other activation's bytes recycle as soon as
//! its last consumer has run.
//!
//! The planner is graph-agnostic: it sees only each node's input ids and
//! output element count, so every dtype and layout reuses the same pass. A
//! value of zero elements (a concat folded into its conv, see
//! [`crate::module::Module::folded_concats`]) takes no bytes.

use serde::{Deserialize, Serialize};
use std::ops::Range;

/// A liveness-planned execution schedule over a topologically ordered DAG.
///
/// Node `i`'s value is *defined* at step `i` and *lives* until
/// `last_use[i]` (the index of its last consumer; the graph output carries
/// the sentinel `n_nodes`, keeping it live past the final step so the
/// caller can read it). Two values may share arena elements only when their
/// live ranges are disjoint; [`ExecPlan::assert_valid`] checks the
/// invariant.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecPlan {
    /// Per node: element offset of its value in the arena.
    offset: Vec<usize>,
    /// Per node: step index of the last consumer (`n_nodes` for the output).
    last_use: Vec<usize>,
    /// Per node: output element count.
    elems: Vec<usize>,
    /// Arena elements: the highest end of any value.
    arena: usize,
    /// The graph's output node.
    output: usize,
    /// Peak per-frame GEMM work-buffer bytes: the strip buffers the GEMM
    /// driver's parallel parts gather activations into, max over nodes
    /// (the buffers are reused node to node) — the direct convs' and
    /// tconvs', plus the Winograd convs' below. Set by the module lowering;
    /// zero for plans built directly via [`ExecPlan::build`].
    #[serde(default)]
    work_bytes: u64,
    /// Of those, the direct convs' and tconvs' strip elements and the band
    /// convs' `u32` k-step offsets, which the worker arena allocates
    /// ([`crate::exec::Scratch`]).
    #[serde(default)]
    strips: usize,
    #[serde(default)]
    band_offsets: usize,
    /// And the Winograd convs' `i16` strip elements, which the worker arena
    /// allocates too.
    #[serde(default)]
    winograd_strips: usize,
}

impl ExecPlan {
    /// Plans a topologically ordered DAG.
    ///
    /// * `inputs[i]` — the ids of the values node `i` reads (all `< i`);
    /// * `elems[i]` — the element count of node `i`'s output;
    /// * `output` — the node whose value must survive the whole walk.
    ///
    /// Offsets are placed greedy by size: values in decreasing size (ties
    /// toward the lower id, so the plan is deterministic), each at the lowest
    /// offset where it overlaps no already placed value whose live range
    /// meets its own. A node's value is live at its own step, as are its
    /// inputs', so an op never writes into a buffer it is still reading.
    pub fn build(inputs: &[&[usize]], elems: &[usize], output: usize) -> Self {
        let n = inputs.len();
        assert_eq!(elems.len(), n, "one element count per node");
        assert!(output < n, "output node out of range");

        // Liveness: last_use[i] = index of i's last consumer. A value nobody
        // consumes dies at its own definition; the output lives past the end.
        let mut last_use: Vec<usize> = (0..n).collect();
        for (i, ins) in inputs.iter().enumerate() {
            for &j in ins.iter() {
                assert!(j < i, "plan requires topological order ({j} feeds {i})");
                last_use[j] = last_use[j].max(i);
            }
        }
        last_use[output] = n;

        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(elems[i]), i));
        let mut offset = vec![0; n];
        // Placed values in increasing offset.
        let mut placed: Vec<usize> = Vec::with_capacity(n);
        for i in order {
            let live = |j: usize| i.max(j) <= last_use[i.min(j)];
            let mut at = 0;
            for &j in placed.iter().filter(|&&j| elems[j] > 0 && live(j)) {
                if offset[j] >= at + elems[i] {
                    break;
                }
                at = at.max(offset[j] + elems[j]);
            }
            offset[i] = at;
            let k = placed.partition_point(|&j| (offset[j], j) < (at, i));
            placed.insert(k, i);
        }
        let arena = (0..n).map(|i| offset[i] + elems[i]).max().unwrap_or(0);

        let plan = Self {
            offset,
            last_use,
            elems: elems.to_vec(),
            arena,
            output,
            work_bytes: 0,
            strips: 0,
            band_offsets: 0,
            winograd_strips: 0,
        };
        plan.assert_valid();
        plan
    }

    /// Records the peak per-frame GEMM work memory: `strips` elements of
    /// `elem_bytes` each and `band_offsets` `u32`s of the direct convs' and
    /// tconvs', `winograd_strips` `i16` elements of the Winograd convs'.
    pub fn set_work(
        &mut self,
        (strips, band_offsets, elem_bytes): (usize, usize, usize),
        winograd_strips: usize,
    ) {
        self.work_bytes = (strips * elem_bytes
            + band_offsets * size_of::<u32>()
            + winograd_strips * size_of::<i16>()) as u64;
        (self.strips, self.band_offsets) = (strips, band_offsets);
        self.winograd_strips = winograd_strips;
    }

    /// Peak per-frame GEMM work-buffer bytes recorded by the lowering.
    pub fn work_bytes(&self) -> u64 {
        self.work_bytes
    }

    /// The direct convs' and tconvs' strip elements and band offsets (in
    /// [`ExecPlan::work_bytes`]).
    pub fn direct_work(&self) -> (usize, usize) {
        (self.strips, self.band_offsets)
    }

    /// The Winograd convs' `i16` strip elements (in [`ExecPlan::work_bytes`]).
    pub fn winograd_strips(&self) -> usize {
        self.winograd_strips
    }

    /// Number of planned nodes.
    pub fn n_nodes(&self) -> usize {
        self.offset.len()
    }

    /// The arena elements node `i`'s value occupies.
    pub fn range_of(&self, i: usize) -> Range<usize> {
        self.offset[i]..self.offset[i] + self.elems[i]
    }

    /// Step index of node `i`'s last consumer (`n_nodes()` for the output).
    pub fn last_use_of(&self, i: usize) -> usize {
        self.last_use[i]
    }

    /// Element count of node `i`'s output.
    pub fn elems_of(&self, i: usize) -> usize {
        self.elems[i]
    }

    /// Arena footprint in elements: the highest end of any value — the
    /// *peak-live* activation memory, not the per-node sum.
    pub fn peak_arena_elems(&self) -> usize {
        self.arena
    }

    /// Sum of every node's output elements — what a naive one-buffer-per-node
    /// executor allocates.
    pub fn total_activation_elems(&self) -> usize {
        self.elems.iter().sum()
    }

    /// The largest number of elements live at any one step: the lower bound
    /// of any placement, which [`ExecPlan::peak_arena_elems`] approaches.
    pub fn peak_live_elems(&self) -> usize {
        let n = self.n_nodes();
        (0..n)
            .map(|t| {
                (0..n).filter(|&i| i <= t && t <= self.last_use[i]).map(|i| self.elems[i]).sum()
            })
            .max()
            .unwrap_or(0)
    }

    /// The full per-worker steady-state footprint in bytes: the arena
    /// ([`ExecPlan::peak_arena_elems`] scaled by `bytes_per_elem`) plus the
    /// per-frame GEMM strip buffers ([`ExecPlan::work_bytes`]), the *only*
    /// auxiliary storage — there is no materialized im2col column matrix, no
    /// whole packed activation matrix, no pre-scatter tconv buffer and no
    /// concatenated map in front of a conv.
    pub fn peak_arena_bytes(&self, bytes_per_elem: usize) -> u64 {
        (self.peak_arena_elems() * bytes_per_elem) as u64 + self.work_bytes
    }

    /// [`ExecPlan::total_activation_elems`] scaled to bytes.
    pub fn total_activation_bytes(&self, bytes_per_elem: usize) -> u64 {
        (self.total_activation_elems() * bytes_per_elem) as u64
    }

    /// Panics unless the plan is sound: every value lies inside the arena,
    /// and no two values overlap both in address and in lifetime (a node's
    /// inputs are live at its step, so no output aliases a value it reads).
    pub fn assert_valid(&self) {
        let n = self.n_nodes();
        for i in 0..n {
            let ri = self.range_of(i);
            assert!(ri.end <= self.arena, "node {i} ends past the arena");
            for j in (i + 1)..n {
                let rj = self.range_of(j);
                let overlap =
                    !ri.is_empty() && !rj.is_empty() && ri.start < rj.end && rj.start < ri.end;
                // j is defined at step j; i must be dead strictly before.
                assert!(
                    !overlap || self.last_use[i] < j,
                    "nodes {i} {ri:?} (last use {}) and {j} {rj:?} overlap while both live",
                    self.last_use[i]
                );
            }
        }
        assert_eq!(self.last_use[self.output], n, "output must stay live");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(inputs: &[Vec<usize>], elems: &[usize], output: usize) -> ExecPlan {
        let ins: Vec<&[usize]> = inputs.iter().map(|v| v.as_slice()).collect();
        ExecPlan::build(&ins, elems, output)
    }

    fn overlap(p: &ExecPlan, i: usize, j: usize) -> bool {
        let (a, b) = (p.range_of(i), p.range_of(j));
        a.start < b.end && b.start < a.end
    }

    /// A pure chain alternates between two offsets (ping-pong).
    #[test]
    fn chain_alternates_two_offsets() {
        let inputs = vec![vec![], vec![0], vec![1], vec![2], vec![3]];
        let plan = plan(&inputs, &[10, 10, 10, 10, 10], 4);
        let offsets: Vec<usize> = (0..5).map(|i| plan.range_of(i).start).collect();
        assert_eq!(offsets, [0, 10, 0, 10, 0]);
        assert_eq!(plan.peak_arena_elems(), 20);
        assert_eq!(plan.total_activation_elems(), 50);
    }

    /// A skip connection keeps its bytes across the span it stays live.
    #[test]
    fn skip_connection_keeps_its_bytes() {
        // 0 -> 1 -> 2 -> 3, then 4 = concat(1, 3): node 1 is live until 4.
        let inputs = vec![vec![], vec![0], vec![1], vec![2], vec![1, 3]];
        let plan = plan(&inputs, &[8, 8, 8, 8, 16], 4);
        assert_eq!(plan.last_use_of(1), 4);
        for j in 2..5 {
            assert!(!overlap(&plan, j, 1), "node {j} must not clobber the skip");
        }
    }

    /// The largest value goes first; a smaller one later takes the lowest
    /// offset that is dead for its whole lifetime.
    #[test]
    fn largest_first_then_lowest_free_offset() {
        // 0(large) -> 1(small) -> 2(small out), 0 dead after 1.
        let plan = plan(&[vec![], vec![0], vec![1]], &[100, 10, 10], 2);
        assert_eq!(
            (plan.range_of(0).start, plan.range_of(1).start, plan.range_of(2).start),
            (0, 100, 0)
        );
        assert_eq!(plan.peak_arena_elems(), 110);
    }

    /// Where a set of reusable buffers fragments (the buffer a small value
    /// took must grow for a large one), offsets reach the peak-live bound.
    #[test]
    fn offsets_reach_the_peak_live_bound() {
        // Nodes 1 and 2 die at step 3, node 0 at step 4; node 5's 8 elements
        // fit under the dead 0 and 1 (a best-fit slot planner needed 15).
        let inputs = vec![vec![], vec![], vec![], vec![1, 2], vec![0, 3], vec![4]];
        let plan = plan(&inputs, &[5, 5, 1, 1, 1, 8], 5);
        let offsets: Vec<usize> = (0..6).map(|i| plan.range_of(i).start).collect();
        assert_eq!(offsets, [0, 5, 10, 11, 8, 0]);
        assert_eq!(plan.peak_arena_elems(), 12);
        assert_eq!(plan.peak_live_elems(), 12);
    }

    /// An op never writes over an input it is still reading.
    #[test]
    fn output_never_aliases_inputs() {
        let plan = plan(&[vec![], vec![0], vec![0, 1]], &[4, 4, 8], 2);
        assert!(!overlap(&plan, 1, 0));
        assert!(!overlap(&plan, 2, 0));
        assert!(!overlap(&plan, 2, 1));
    }

    /// Dead values (no consumers, not the output) free their bytes at once,
    /// and a value of no elements takes none.
    #[test]
    fn dead_and_empty_values_take_no_lasting_room() {
        let plan = plan(&[vec![], vec![0], vec![1], vec![2]], &[4, 4, 4, 4], 3);
        assert_eq!(plan.peak_arena_elems(), 8);
        let plan = self::plan(&[vec![], vec![0], vec![0, 1], vec![2]], &[4, 0, 4, 4], 3);
        assert_eq!(plan.range_of(1), 0..0);
        assert_eq!(plan.peak_arena_elems(), 8);
    }

    #[test]
    #[should_panic(expected = "overlap while both live")]
    fn overlapping_live_values_rejected() {
        let mut plan = plan(&[vec![], vec![0]], &[4, 4], 1);
        plan.offset[1] = 2;
        plan.assert_valid();
    }

    #[test]
    #[should_panic(expected = "topological order")]
    fn forward_reference_rejected() {
        let _ = plan(&[vec![1], vec![]], &[1, 1], 1);
    }
}
