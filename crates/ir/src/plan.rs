//! The execution-plan layer: liveness analysis + offset assignment.
//!
//! Liveness planning is the final pass of the IR pipeline: every lowered
//! program — the FP32 executor, the bit-exact INT8 executor and the DPU
//! compiler's channel-padded DDR layout — reduces to the same [`ExecPlan`],
//! a topologically ordered walk annotated with each value's *last use* and
//! an **offset** into one per-worker arena holding one image. Offsets are
//! placed greedy by size (Pisarchyk & Lee, arXiv:2001.03288): the largest
//! value first, each at the lowest offset where it overlaps no value live at
//! the same time. The arena is sized to the highest end, close to the
//! peak-live footprint with none of the fragmentation a fixed set of
//! reusable buffers bakes in. Skip connections stay live across the
//! encoder–decoder span and keep their bytes; every other activation's bytes
//! recycle as soon as its last consumer has run.
//!
//! A channel concat is an address, not an op: each of its inputs is placed
//! at its channel offset of the concat's value, so its producer writes there
//! and the concat's readers see one contiguous map. Each half keeps its own
//! live range (from its producer to the concat's last reader), and the pair
//! is placed as one unit under that adjacency. An input that cannot be
//! placed — the same value twice, a value already placed in an earlier
//! concat, or a concat itself — is copied into its slot by the concat's own
//! step.
//!
//! The planner is graph-agnostic: it sees only each node's input ids, output
//! element count and whether it is a concat, so every dtype and layout
//! reuses the same pass.

use std::ops::Range;

/// A liveness-planned execution schedule over a topologically ordered DAG,
/// for one image.
///
/// Node `i` *writes* [`ExecPlan::writes`] at step `i`, and those elements
/// live until `last_use[i]` (the index of its last reader; the graph output
/// carries the sentinel `n_nodes`, keeping it live past the final step so
/// the caller can read it). Two written ranges may share arena elements only
/// when their live ranges are disjoint; [`ExecPlan::assert_valid`] checks
/// the invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecPlan {
    /// Per node: element offset of its value in the arena.
    offset: Vec<usize>,
    /// Per node: element count of its value (a concat's: both inputs').
    elems: Vec<usize>,
    /// Per node: the arena elements its step writes — its value, or a
    /// concat's slots of the inputs it copies.
    writes: Vec<Range<usize>>,
    /// Per node: step index of the last reader of what it writes (`n_nodes`
    /// for the output); a placed input lives until its concat's last reader.
    last_use: Vec<usize>,
    /// Arena elements: the highest end of any value.
    arena: usize,
    /// The graph's output node.
    output: usize,
    /// Every concat and its two inputs.
    concats: Vec<(usize, [usize; 2])>,
    /// Peak per-frame GEMM work-buffer bytes: the strip buffers (or row
    /// bands) the GEMM driver's parallel parts gather activations into and
    /// the `u32` k-step offsets the micro-kernels read them through, max over
    /// nodes (the buffers are reused node to node). Set by the module
    /// lowering; zero for plans built directly via [`ExecPlan::build`].
    work_bytes: u64,
    /// Of those, the strip elements and the offsets, which the worker arena
    /// allocates ([`crate::exec::Scratch`]).
    strips: usize,
    offsets: usize,
}

/// A range of arena elements one placement unit lays out, `at` past the
/// unit's offset: written by `node`, live from its step to its last use.
struct Part {
    node: usize,
    at: usize,
    len: usize,
}

impl ExecPlan {
    /// Plans a topologically ordered DAG.
    ///
    /// * `inputs[i]` — the ids of the values node `i` reads (all `< i`);
    /// * `elems[i]` — the element count of node `i`'s output;
    /// * `concat[i]` — node `i` concatenates its two inputs (its count is
    ///   theirs summed);
    /// * `output` — the node whose value must survive the whole walk.
    ///
    /// Offsets are placed greedy by size: units — a value, or a concat with
    /// the inputs placed in it — in decreasing size (ties toward the lower
    /// id, so the plan is deterministic), each at the lowest offset where
    /// none of its parts overlaps an already placed part whose live range
    /// meets its own. A node's value is live at its own step, as are its
    /// inputs', so an op never writes into a buffer it is still reading.
    pub fn build(inputs: &[&[usize]], elems: &[usize], concat: &[bool], output: usize) -> Self {
        let n = inputs.len();
        assert_eq!(elems.len(), n, "one element count per node");
        assert_eq!(concat.len(), n, "one concat flag per node");
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

        // Each concat input that can be, is placed in its concat.
        let mut placed_in: Vec<Option<usize>> = vec![None; n];
        let mut concats = Vec::new();
        for c in (0..n).filter(|&c| concat[c]) {
            let &[a, b] = inputs[c] else { panic!("concat {c} reads two values") };
            concats.push((c, [a, b]));
            for x in [a, b] {
                if a != b && !concat[x] && placed_in[x].is_none() {
                    placed_in[x] = Some(c);
                    last_use[x] = last_use[x].max(last_use[c]);
                }
            }
        }

        // Placement units: every value not placed in a concat; a concat
        // with a placed input is laid out as its two slots, each written by
        // the input placed there or else by the concat's own copy.
        let mut units: Vec<(usize, Vec<Part>)> = (0..n)
            .filter(|&i| placed_in[i].is_none())
            .map(|i| match *inputs[i] {
                [a, b] if concat[i] && (placed_in[a] == Some(i) || placed_in[b] == Some(i)) => {
                    let node = |x| if placed_in[x] == Some(i) { x } else { i };
                    let (pa, pb) = (node(a), node(b));
                    let (la, lb) = (elems[a], elems[b]);
                    (i, vec![Part { node: pa, at: 0, len: la }, Part { node: pb, at: la, len: lb }])
                }
                _ => (i, vec![Part { node: i, at: 0, len: elems[i] }]),
            })
            .collect();
        units.sort_by_key(|&(i, _)| (std::cmp::Reverse(elems[i]), i));

        let mut offset = vec![0; n];
        let mut writes = vec![0..0; n];
        // Placed parts: (arena range, writer).
        let mut placed: Vec<(Range<usize>, usize)> = Vec::with_capacity(n);
        let live = |i: usize, j: usize| i.max(j) <= last_use[i].min(last_use[j]);
        for (i, parts) in units {
            let mut at = 0;
            'fit: loop {
                for p in parts.iter().filter(|p| p.len > 0) {
                    let start = at + p.at;
                    let clash = placed.iter().find(|(r, j)| {
                        live(p.node, *j) && r.start < start + p.len && start < r.end
                    });
                    if let Some((r, ..)) = clash {
                        at = r.end - p.at;
                        continue 'fit;
                    }
                }
                break;
            }
            (offset[i], writes[i]) = (at, at..at);
            for p in parts {
                let r = at + p.at..at + p.at + p.len;
                if p.node != i {
                    offset[p.node] = r.start;
                }
                writes[p.node] = r.clone();
                if !r.is_empty() {
                    placed.push((r, p.node));
                }
            }
        }
        let arena = (0..n).map(|i| offset[i] + elems[i]).max().unwrap_or(0);

        let plan = Self {
            offset,
            elems: elems.to_vec(),
            writes,
            last_use,
            arena,
            output,
            concats,
            work_bytes: 0,
            strips: 0,
            offsets: 0,
        };
        plan.assert_valid();
        plan
    }

    /// Records the peak per-frame GEMM work memory: `strips` elements of
    /// `elem_bytes` each and `offsets` `u32` k-step offsets.
    pub fn set_work(&mut self, (strips, offsets, elem_bytes): (usize, usize, usize)) {
        self.work_bytes = (strips * elem_bytes + offsets * size_of::<u32>()) as u64;
        (self.strips, self.offsets) = (strips, offsets);
    }

    /// Peak per-frame GEMM work-buffer bytes recorded by the lowering.
    pub fn work_bytes(&self) -> u64 {
        self.work_bytes
    }

    /// The strip elements and k-step offsets of the GEMM work memory (in
    /// [`ExecPlan::work_bytes`]).
    pub fn work(&self) -> (usize, usize) {
        (self.strips, self.offsets)
    }

    /// Number of planned nodes.
    pub fn n_nodes(&self) -> usize {
        self.offset.len()
    }

    /// The arena elements node `i`'s value occupies (a concat's: both
    /// inputs' slots).
    pub fn range_of(&self, i: usize) -> Range<usize> {
        self.offset[i]..self.offset[i] + self.elems[i]
    }

    /// The arena elements node `i`'s step writes: its value, or a concat's
    /// slots of the inputs it copies — none when both are placed in it.
    pub fn writes(&self, i: usize) -> Range<usize> {
        self.writes[i].clone()
    }

    /// Step index of the last reader of what node `i` writes (`n_nodes()`
    /// for the output).
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

    /// Elements written per image, each once — what a naive
    /// one-buffer-per-node executor allocates.
    pub fn total_activation_elems(&self) -> usize {
        self.writes.iter().map(Range::len).sum()
    }

    /// The largest number of elements live at any one step: the lower bound
    /// of any placement, which [`ExecPlan::peak_arena_elems`] approaches.
    pub fn peak_live_elems(&self) -> usize {
        let n = self.n_nodes();
        (0..n)
            .map(|t| (0..=t).filter(|&i| t <= self.last_use[i]).map(|i| self.writes[i].len()).sum())
            .max()
            .unwrap_or(0)
    }

    /// The full per-worker steady-state footprint in bytes: the arena
    /// ([`ExecPlan::peak_arena_elems`] scaled by `bytes_per_elem`) plus the
    /// per-frame GEMM strip buffers ([`ExecPlan::work_bytes`]), the *only*
    /// auxiliary storage — there is no materialized im2col column matrix, no
    /// whole packed activation matrix, no pre-scatter tconv buffer and no
    /// concat buffer beside its inputs.
    pub fn peak_arena_bytes(&self, bytes_per_elem: usize) -> u64 {
        (self.peak_arena_elems() * bytes_per_elem) as u64 + self.work_bytes
    }

    /// [`ExecPlan::total_activation_elems`] scaled to bytes.
    pub fn total_activation_bytes(&self, bytes_per_elem: usize) -> u64 {
        (self.total_activation_elems() * bytes_per_elem) as u64
    }

    /// Panics unless the plan is sound: each concat's value is its two
    /// inputs' slots, each written either by the input placed there (and
    /// live as long as the concat) or by the concat's own copy; every value
    /// lies inside the arena; and no two written ranges overlap both in
    /// address and in lifetime (a node's inputs are live at its step, so no
    /// output aliases a value it reads).
    pub fn assert_valid(&self) {
        let n = self.n_nodes();
        for &(c, [a, b]) in &self.concats {
            let cat = self.range_of(c);
            assert_eq!(cat.len(), self.elems[a] + self.elems[b], "concat {c} holds its inputs");
            let split = cat.start + self.elems[a];
            let copy = &self.writes[c];
            for (x, slot) in [(a, cat.start..split), (b, split..cat.end)] {
                let placed = self.writes[x] == slot && self.last_use[x] >= self.last_use[c];
                let copied = slot.is_empty() || (copy.start <= slot.start && slot.end <= copy.end);
                assert!(
                    placed || copied,
                    "concat {c}: slot {slot:?} of {x} is neither placed nor copied"
                );
            }
        }
        for i in 0..n {
            assert!(self.range_of(i).end <= self.arena, "node {i} ends past the arena");
            let ri = &self.writes[i];
            for j in (i + 1)..n {
                let rj = &self.writes[j];
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
        plan_with(inputs, elems, &[], output)
    }

    /// A plan whose nodes `concats` are concats.
    fn plan_with(
        inputs: &[Vec<usize>],
        elems: &[usize],
        concats: &[usize],
        output: usize,
    ) -> ExecPlan {
        let ins: Vec<&[usize]> = inputs.iter().map(|v| v.as_slice()).collect();
        let concat: Vec<bool> = (0..inputs.len()).map(|i| concats.contains(&i)).collect();
        ExecPlan::build(&ins, elems, &concat, output)
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

    /// A decoder level: the skip (1) and the upsample (3) are placed side by
    /// side as the concat's value, each live from its producer to the
    /// concat's reader; the concat writes nothing, and the upsample's
    /// producer never overwrites the skip.
    #[test]
    fn concat_inputs_are_placed_at_their_channel_offsets() {
        // 0 -> 1 (skip) -> 2 (pool) -> 3 (upsample); 4 = concat(1, 3); 5 reads 4.
        let inputs = vec![vec![], vec![0], vec![1], vec![2], vec![1, 3], vec![4]];
        let plan = plan_with(&inputs, &[8, 8, 2, 8, 16, 8], &[4], 5);
        let cat = plan.range_of(4);
        assert_eq!(
            (plan.range_of(1), plan.range_of(3)),
            (cat.start..cat.start + 8, cat.start + 8..cat.end)
        );
        assert!(plan.writes(4).is_empty());
        assert_eq!((plan.last_use_of(1), plan.last_use_of(3)), (5, 5));
        assert!(!overlap(&plan, 5, 4));
        assert_eq!(plan.total_activation_elems(), 8 + 8 + 2 + 8 + 8);
    }

    /// An input that cannot be placed is copied by the concat's step: the
    /// same value twice (both slots), a value already placed in an earlier
    /// concat, and a concat.
    #[test]
    fn unplaceable_concat_inputs_are_copied() {
        // 2 = concat(1, 1); 3 = concat(1, 0) places both; 4 = concat(0, 3)
        // copies 0 (placed in 3) and 3 (a concat).
        let inputs = vec![vec![], vec![0], vec![1, 1], vec![1, 0], vec![0, 3], vec![2, 4]];
        let plan = plan_with(&inputs, &[4, 4, 8, 8, 12, 20], &[2, 3, 4, 5], 5);
        assert_eq!(plan.writes(2), plan.range_of(2));
        assert!(plan.writes(3).is_empty());
        assert_eq!(plan.range_of(0).start, plan.range_of(3).start + 4);
        assert_eq!(plan.writes(4), plan.range_of(4));
        // 5 = concat(2, 4) places neither: both are concats.
        assert_eq!(plan.writes(5), plan.range_of(5));
    }

    #[test]
    #[should_panic(expected = "overlap while both live")]
    fn overlapping_live_values_rejected() {
        let mut plan = plan(&[vec![], vec![0]], &[4, 4], 1);
        (plan.offset[1], plan.writes[1]) = (2, 2..6);
        plan.assert_valid();
    }

    #[test]
    #[should_panic(expected = "neither placed nor copied")]
    fn misplaced_concat_input_rejected() {
        let inputs = vec![vec![], vec![0], vec![1], vec![2], vec![1, 3], vec![4]];
        let mut plan = plan_with(&inputs, &[8, 8, 2, 8, 16, 8], &[4], 5);
        let end = plan.range_of(4).end;
        (plan.offset[3], plan.writes[3]) = (end, end..end + 8);
        plan.assert_valid();
    }

    #[test]
    #[should_panic(expected = "topological order")]
    fn forward_reference_rejected() {
        let _ = plan(&[vec![1], vec![]], &[1, 1], 1);
    }
}
