//! The execution-plan layer: liveness analysis + buffer-slot assignment.
//!
//! Liveness planning is the final pass of the IR pipeline: every lowered
//! program — the FP32 executor, the bit-exact INT8 executor and the DPU
//! compiler's channel-padded DDR layout — reduces to the same [`ExecPlan`],
//! a topologically ordered walk annotated with each value's *last use* and
//! an assignment of values to reusable **buffer slots**. A per-worker arena
//! then holds one buffer per slot — sized to the peak-live footprint —
//! instead of one buffer per node (sum-of-all-activations). Skip
//! connections naturally stay live across the encoder–decoder span and keep
//! their slot pinned; every other activation recycles as soon as its last
//! consumer has run.
//!
//! The planner is graph-agnostic: it sees only each node's input ids and
//! output element count, so every dtype and layout reuses the same pass.

use serde::{Deserialize, Serialize};
use std::cmp::Reverse;

/// A liveness-planned execution schedule over a topologically ordered DAG.
///
/// Node `i`'s value is *defined* at step `i` and *lives* until
/// `last_use[i]` (the index of its last consumer; the graph output carries
/// the sentinel `n_nodes`, keeping it live past the final step so the
/// caller can read it). Two values may share a slot only when their live
/// ranges are disjoint; [`ExecPlan::assert_valid`] checks the invariant.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecPlan {
    /// Per node: assigned buffer slot.
    slot: Vec<usize>,
    /// Per node: step index of the last consumer (`n_nodes` for the output).
    last_use: Vec<usize>,
    /// Per node: output element count.
    elems: Vec<usize>,
    /// Per slot: element capacity (max over the values assigned to it).
    slot_elems: Vec<usize>,
    /// The graph's output node.
    output: usize,
    /// Peak per-frame GEMM work-buffer bytes: the strip buffers the GEMM
    /// driver's parallel parts gather activations into, max over nodes
    /// (the buffers are reused node to node) — the direct convs' and
    /// tconvs', plus the Winograd convs' below. Set by the module lowering;
    /// zero for plans built directly via [`ExecPlan::build`].
    #[serde(default)]
    work_bytes: u64,
    /// Of those, the Winograd convs' `i16` strip elements, which the worker
    /// arena allocates ([`crate::exec::Scratch`]).
    #[serde(default)]
    winograd_strips: usize,
}

impl ExecPlan {
    /// Plans a topologically ordered DAG.
    ///
    /// * `inputs[i]` — the ids of node `i`'s inputs (all `< i`);
    /// * `elems[i]` — the element count of node `i`'s output;
    /// * `output` — the node whose value must survive the whole walk.
    ///
    /// Slot assignment is a deterministic greedy best-fit: a node takes the
    /// smallest dead slot that already fits its output (growing the largest
    /// dead slot when none fits, opening a fresh slot when none is dead).
    /// Inputs are released only *after* their consumer's slot is chosen, so
    /// an op never writes into a buffer it is still reading from.
    pub fn build(inputs: &[&[usize]], elems: &[usize], output: usize) -> Self {
        let n = inputs.len();
        assert_eq!(elems.len(), n, "one element count per node");
        assert!(output < n, "output node out of range");

        // Liveness: last_use[i] = index of i's last consumer. A value nobody
        // consumes dies at its own definition (its slot frees immediately
        // after step i); the output lives past the end.
        let mut last_use: Vec<usize> = (0..n).collect();
        for (i, ins) in inputs.iter().enumerate() {
            for &j in ins.iter() {
                assert!(j < i, "plan requires topological order ({j} feeds {i})");
                last_use[j] = last_use[j].max(i);
            }
        }
        last_use[output] = n;

        // Values to release after each step.
        let mut frees_at: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, &lu) in last_use.iter().enumerate() {
            if lu < n {
                frees_at[lu].push(i);
            }
        }

        let mut slot = vec![usize::MAX; n];
        let mut slot_elems: Vec<usize> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        for i in 0..n {
            let need = elems[i];
            // Best fit among dead slots: the smallest that fits, else the
            // largest (to grow). Ties break toward the lowest id so the plan
            // is independent of release order.
            let dead = || free.iter().enumerate().map(|(k, &s)| (k, s, slot_elems[s]));
            let fit = dead().filter(|&(_, _, cap)| cap >= need).min_by_key(|&(_, s, cap)| (cap, s));
            let grow = || dead().max_by_key(|&(_, s, cap)| (cap, Reverse(s)));
            let s = match fit.or_else(grow).map(|(k, _, _)| k) {
                Some(k) => {
                    let s = free.swap_remove(k);
                    slot_elems[s] = slot_elems[s].max(need);
                    s
                }
                None => {
                    slot_elems.push(need);
                    slot_elems.len() - 1
                }
            };
            slot[i] = s;
            for &v in &frees_at[i] {
                free.push(slot[v]);
            }
        }

        let plan = Self {
            slot,
            last_use,
            elems: elems.to_vec(),
            slot_elems,
            output,
            work_bytes: 0,
            winograd_strips: 0,
        };
        plan.assert_valid();
        plan
    }

    /// Records the peak per-frame GEMM work memory: `direct_bytes` of the
    /// direct convs' and tconvs' strips, `winograd_strips` `i16` elements of
    /// the Winograd convs'.
    pub fn set_work(&mut self, direct_bytes: u64, winograd_strips: usize) {
        self.work_bytes = direct_bytes + (winograd_strips * size_of::<i16>()) as u64;
        self.winograd_strips = winograd_strips;
    }

    /// Peak per-frame GEMM work-buffer bytes recorded by the lowering.
    pub fn work_bytes(&self) -> u64 {
        self.work_bytes
    }

    /// The Winograd convs' `i16` strip elements (in [`ExecPlan::work_bytes`]).
    pub fn winograd_strips(&self) -> usize {
        self.winograd_strips
    }

    /// Number of planned nodes.
    pub fn n_nodes(&self) -> usize {
        self.slot.len()
    }

    /// Number of buffer slots the arena needs.
    pub fn n_slots(&self) -> usize {
        self.slot_elems.len()
    }

    /// The slot node `i`'s output lives in.
    pub fn slot_of(&self, i: usize) -> usize {
        self.slot[i]
    }

    /// Step index of node `i`'s last consumer (`n_nodes()` for the output).
    pub fn last_use_of(&self, i: usize) -> usize {
        self.last_use[i]
    }

    /// Element count of node `i`'s output.
    pub fn elems_of(&self, i: usize) -> usize {
        self.elems[i]
    }

    /// Per-slot element capacities.
    pub fn slot_sizes(&self) -> &[usize] {
        &self.slot_elems
    }

    /// Arena footprint in elements: the sum of slot capacities — the
    /// *peak-live* activation memory, not the per-node sum.
    pub fn peak_arena_elems(&self) -> usize {
        self.slot_elems.iter().sum()
    }

    /// Sum of every node's output elements — what a naive one-buffer-per-node
    /// executor allocates.
    pub fn total_activation_elems(&self) -> usize {
        self.elems.iter().sum()
    }

    /// The full per-worker steady-state footprint in bytes: the slot arena
    /// ([`ExecPlan::peak_arena_elems`] scaled by `bytes_per_elem`) plus the
    /// per-frame GEMM strip buffers ([`ExecPlan::work_bytes`]), the *only*
    /// auxiliary storage — there is no materialized im2col column matrix, no
    /// whole packed activation matrix and no pre-scatter tconv buffer.
    pub fn peak_arena_bytes(&self, bytes_per_elem: usize) -> u64 {
        (self.peak_arena_elems() * bytes_per_elem) as u64 + self.work_bytes
    }

    /// [`ExecPlan::total_activation_elems`] scaled to bytes.
    pub fn total_activation_bytes(&self, bytes_per_elem: usize) -> u64 {
        (self.total_activation_elems() * bytes_per_elem) as u64
    }

    /// Panics unless the plan is sound: every slot holds its values, no two
    /// values with overlapping live ranges share a slot, and no node's
    /// output slot aliases one of its still-live inputs.
    pub fn assert_valid(&self) {
        let n = self.n_nodes();
        for i in 0..n {
            assert!(
                self.slot_elems[self.slot[i]] >= self.elems[i],
                "slot {} too small for node {i}",
                self.slot[i]
            );
            for j in (i + 1)..n {
                if self.slot[i] == self.slot[j] {
                    // j is defined at step j; i must be dead strictly before.
                    assert!(
                        self.last_use[i] < j,
                        "slot {} aliases live values {i} (last use {}) and {j}",
                        self.slot[i],
                        self.last_use[i]
                    );
                }
            }
        }
        assert_eq!(self.last_use[self.output], n, "output must stay live");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pure chain recycles down to two slots (ping-pong).
    #[test]
    fn chain_ping_pongs_two_slots() {
        let inputs: Vec<Vec<usize>> = vec![vec![], vec![0], vec![1], vec![2], vec![3]];
        let ins: Vec<&[usize]> = inputs.iter().map(|v| v.as_slice()).collect();
        let plan = ExecPlan::build(&ins, &[10, 10, 10, 10, 10], 4);
        assert_eq!(plan.n_slots(), 2);
        assert_eq!(plan.peak_arena_elems(), 20);
        assert_eq!(plan.total_activation_elems(), 50);
        plan.assert_valid();
    }

    /// A skip connection pins its slot across the span it stays live.
    #[test]
    fn skip_connection_keeps_slot_pinned() {
        // 0 -> 1 -> 2 -> 3, then 4 = concat(1, 3): node 1 is live until 4.
        let inputs: Vec<Vec<usize>> = vec![vec![], vec![0], vec![1], vec![2], vec![1, 3]];
        let ins: Vec<&[usize]> = inputs.iter().map(|v| v.as_slice()).collect();
        let plan = ExecPlan::build(&ins, &[8, 8, 8, 8, 16], 4);
        assert_eq!(plan.last_use_of(1), 4);
        for j in 2..4 {
            assert_ne!(plan.slot_of(j), plan.slot_of(1), "node {j} must not clobber the skip");
        }
        plan.assert_valid();
    }

    /// Unequal sizes: best-fit reuses the big dead slot instead of growing a
    /// small one.
    #[test]
    fn best_fit_prefers_smallest_sufficient_slot() {
        // 0(large) -> 1(small) -> 2(small out), 0 dead after 1.
        let inputs: Vec<Vec<usize>> = vec![vec![], vec![0], vec![1]];
        let ins: Vec<&[usize]> = inputs.iter().map(|v| v.as_slice()).collect();
        let plan = ExecPlan::build(&ins, &[100, 10, 10], 2);
        // Node 2 fits either dead slot; it must take the 10-elem one, leaving
        // the arena at 110 rather than growing to 200.
        assert_eq!(plan.peak_arena_elems(), 110);
        plan.assert_valid();
    }

    /// When no dead slot fits, the largest one grows; on equal capacity the
    /// lowest id wins, whatever order the slots were released in.
    #[test]
    fn no_fit_grows_the_largest_dead_slot() {
        // Nodes 1 and 2 die at step 3 and node 0 at step 4, so slot 1 is
        // released before slot 0; node 4 takes slot 2 (the best fit), which
        // leaves slots 1 and 0 (5 each) and 3 (1) dead for node 5's 8.
        let inputs: Vec<Vec<usize>> = vec![vec![], vec![], vec![], vec![1, 2], vec![0, 3], vec![4]];
        let ins: Vec<&[usize]> = inputs.iter().map(|v| v.as_slice()).collect();
        let tie = ExecPlan::build(&ins, &[5, 5, 1, 1, 1, 8], 5);
        assert_eq!(tie.slot_of(5), 0, "equal capacity: the lowest id grows");
        assert_eq!(tie.slot_sizes(), &[8, 5, 1, 1]);
        let larger = ExecPlan::build(&ins, &[5, 6, 1, 1, 1, 8], 5);
        assert_eq!(larger.slot_of(5), 1, "the largest dead slot grows");
        assert_eq!(larger.slot_sizes(), &[5, 8, 1, 1]);
    }

    /// An op never writes over an input it is still reading.
    #[test]
    fn output_slot_never_aliases_inputs() {
        let inputs: Vec<Vec<usize>> = vec![vec![], vec![0], vec![0, 1]];
        let ins: Vec<&[usize]> = inputs.iter().map(|v| v.as_slice()).collect();
        let plan = ExecPlan::build(&ins, &[4, 4, 8], 2);
        assert_ne!(plan.slot_of(1), plan.slot_of(0));
        assert_ne!(plan.slot_of(2), plan.slot_of(0));
        assert_ne!(plan.slot_of(2), plan.slot_of(1));
    }

    /// Dead values (no consumers, not the output) free immediately.
    #[test]
    fn unconsumed_value_frees_its_slot() {
        let inputs: Vec<Vec<usize>> = vec![vec![], vec![0], vec![1], vec![2]];
        let ins: Vec<&[usize]> = inputs.iter().map(|v| v.as_slice()).collect();
        let plan = ExecPlan::build(&ins, &[4, 4, 4, 4], 3);
        assert!(plan.n_slots() <= 2);
    }

    #[test]
    #[should_panic(expected = "topological order")]
    fn forward_reference_rejected() {
        let inputs: Vec<Vec<usize>> = vec![vec![1], vec![]];
        let ins: Vec<&[usize]> = inputs.iter().map(|v| v.as_slice()).collect();
        let _ = ExecPlan::build(&ins, &[1, 1], 1);
    }
}
