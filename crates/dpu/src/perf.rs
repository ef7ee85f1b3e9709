//! The DPU cost model.
//!
//! Three mechanisms drive the paper-visible performance shape:
//!
//! * **lane quantisation** — the array processes `ceil(C_in/ICP)` x
//!   `ceil(C_out/OCP)` channel-group pairs and `ceil(W/PP)` pixel groups, so
//!   models with few channels (f=6 vs f=8) often cost the *same* cycles
//!   while the GPU sees proportional FLOPs. This is why the 1M model out-runs
//!   the 2M model on the DPU but not on the GPU (Table IV);
//! * **double-buffered DMA** — the load/compute/save engines overlap across
//!   the whole frame, not layer by layer: [`frame_cost`] charges
//!   `frame time = max(Σ compute, Σ DMA) + Σ fixed overheads`, so a
//!   memory-bound layer hides behind compute-bound ones;
//! * **channel padding + misalignment** — feature maps are stored in
//!   ICP-channel groups; non-multiple-of-16 channel counts pay a
//!   read-modify-write bandwidth penalty, which hits the f=6 (2M) model at
//!   its largest layers and explains 4M ≥ 2M FPS.

use crate::arch::DpuArch;
use crate::isa::DpuInstr;
use crate::xmodel::XModel;
use seneca_quant::Bitwidth;
use serde::{Deserialize, Serialize};

/// Cost breakdown of one frame on one DPU core.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrameCost {
    /// Pure array compute time (ns).
    pub compute_ns: u64,
    /// Pure DMA time (ns).
    pub mem_ns: u64,
    /// Fixed instruction overheads (ns).
    pub overhead_ns: u64,
    /// Frame latency after compute/DMA overlap (ns).
    pub serial_ns: u64,
}

impl FrameCost {
    /// Fraction of the frame the array is computing (drives dynamic power).
    pub fn compute_intensity(&self) -> f64 {
        if self.serial_ns == 0 {
            return 0.0;
        }
        (self.compute_ns as f64 / self.serial_ns as f64).min(1.0)
    }
}

/// Array compute cycles of one instruction (0 for pure-DMA instructions).
pub fn compute_cycles(instr: &DpuInstr, arch: &DpuArch) -> u64 {
    match instr {
        DpuInstr::Conv { h, w, c_in, c_out, k, wbits, .. } => {
            let cg_in = c_in.div_ceil(arch.icp) as u64;
            // W4 layers feed two weight nibbles per byte into the array, so
            // the same weight-buffer port drives twice the output-channel
            // lanes per pass.
            let ocp_eff = match wbits {
                Bitwidth::W8 => arch.ocp,
                Bitwidth::W4 => arch.ocp * 2,
            };
            let cg_out = c_out.div_ceil(ocp_eff) as u64;
            let pg = w.div_ceil(arch.pixel_parallel) as u64;
            let kk = (*k * *k) as u64;
            // Transpose conv walks the input grid; each visit fills a 2x2
            // output block, one cycle per kernel tap like direct conv.
            let rows = *h as u64;
            let base = cg_in * cg_out * pg * rows * kk;
            // Img-buffer bank conflicts on partially filled channel groups.
            if c_in % arch.icp != 0 || c_out % arch.ocp != 0 {
                (base as f64 * arch.compute_misalign_penalty) as u64
            } else {
                base
            }
        }
        DpuInstr::Pool { h, w, c, .. } => {
            // Misc engine: one 2x2 window per channel-group per pixel-group.
            let cg = c.div_ceil(arch.icp) as u64;
            let pg = w.div_ceil(arch.pixel_parallel) as u64;
            cg * pg * *h as u64 * 4
        }
        DpuInstr::Elew { elems, .. } => elems / (arch.icp * arch.pixel_parallel) as u64,
        DpuInstr::Load { .. } | DpuInstr::Save { .. } | DpuInstr::End => 0,
    }
}

/// DMA time of one instruction in ns (0 for compute instructions).
pub fn mem_ns(instr: &DpuInstr, arch: &DpuArch) -> u64 {
    let (bytes, misaligned) = match instr {
        DpuInstr::Load { bytes, misaligned, .. } | DpuInstr::Save { bytes, misaligned } => {
            (*bytes, *misaligned)
        }
        _ => return 0,
    };
    let base = bytes as f64 / arch.ddr_gbps; // ns (bytes / (GB/s) = ns)
    let factor = if misaligned { arch.misalign_penalty } else { 1.0 };
    (base * factor) as u64
}

/// One compute instruction's price: its array time, and the DMA that feeds
/// it (the transfers since the previous compute instruction).
pub(crate) struct LayerCost {
    /// Index of the compute instruction in the stream.
    pub instr_index: usize,
    /// Array time (ns).
    pub compute_ns: u64,
    /// DMA time of the transfers that feed it (ns).
    pub feed_mem_ns: u64,
}

/// The one pricing walk over an instruction stream, shared by
/// [`frame_cost`] and [`crate::profile::profile`]: a row per compute
/// instruction (each also pays `arch.instr_overhead_ns` of dispatch), and
/// the DMA time after the last one (the final SAVE).
pub(crate) fn layer_costs(xm: &XModel, arch: &DpuArch) -> (Vec<LayerCost>, u64) {
    let ns_per_cycle = arch.ns_per_cycle();
    let mut rows = Vec::new();
    let mut pending_mem = 0u64;
    for (instr_index, instr) in xm.instrs.iter().enumerate() {
        match instr {
            DpuInstr::Load { .. } | DpuInstr::Save { .. } | DpuInstr::End => {
                pending_mem += mem_ns(instr, arch);
            }
            _ => {
                let compute_ns = (compute_cycles(instr, arch) as f64 * ns_per_cycle) as u64;
                rows.push(LayerCost { instr_index, compute_ns, feed_mem_ns: pending_mem });
                pending_mem = 0;
            }
        }
    }
    (rows, pending_mem)
}

/// Frame cost on one core: the DPU's load/compute/store engines run deeply
/// pipelined with double-buffered on-chip memory, so over a whole frame the
/// DMA stream overlaps the array almost completely — the frame latency is
/// `max(total compute, total DMA) + per-dispatch overheads`.
pub fn frame_cost(xm: &XModel, arch: &DpuArch) -> FrameCost {
    let (rows, trailing_mem) = layer_costs(xm, arch);
    let compute_ns = rows.iter().map(|r| r.compute_ns).sum::<u64>();
    let mem_ns = rows.iter().map(|r| r.feed_mem_ns).sum::<u64>() + trailing_mem;
    let overhead_ns = rows.len() as u64 * arch.instr_overhead_ns + arch.frame_overhead_ns;
    FrameCost { compute_ns, mem_ns, overhead_ns, serial_ns: compute_ns.max(mem_ns) + overhead_ns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::LoadKind;

    fn arch() -> DpuArch {
        DpuArch::b4096_zcu104()
    }

    /// A depth-2 U-Net of `base_filters`, shrunk at `ratio`, compiled at 64x64.
    fn xmodel(base_filters: usize, ratio: f64) -> XModel {
        use rand::SeedableRng;
        use seneca_nn::graph::Graph;
        use seneca_nn::prune::shrink;
        use seneca_nn::unet::{UNet, UNetConfig};
        use seneca_quant::{fuse, quantize_post_training, PtqConfig};
        use seneca_tensor::{Shape4, Tensor};
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let cfg = UNetConfig { depth: 2, base_filters, num_classes: 6, dropout: 0.0 };
        let mut g = Graph::from_unet(&UNet::new(cfg, &mut rng), "p");
        shrink(&mut g, ratio);
        let calib = vec![Tensor::he_normal(Shape4::new(1, 1, 32, 32), &mut rng)];
        let (qg, _) = quantize_post_training(&fuse(&g), &calib, &PtqConfig::default());
        crate::compiler::compile(&qg, Shape4::new(1, 1, 64, 64), arch())
    }

    /// A memory-bound frame (DDR slowed 100x) takes its DMA time: the
    /// compute stream hides behind it.
    #[test]
    fn a_memory_bound_frame_takes_its_dma_time() {
        let slow = DpuArch { ddr_gbps: arch().ddr_gbps / 100.0, ..arch() };
        let c = frame_cost(&xmodel(8, 0.0), &slow);
        assert!(c.mem_ns > c.compute_ns, "{c:?} is not memory-bound");
        assert_eq!(c.serial_ns, c.mem_ns + c.overhead_ns);
    }

    /// A compute-bound frame (DDR 100x faster) takes its compute time: the
    /// DMA stream hides behind it.
    #[test]
    fn a_compute_bound_frame_takes_its_compute_time() {
        let fast = DpuArch { ddr_gbps: arch().ddr_gbps * 100.0, ..arch() };
        let c = frame_cost(&xmodel(8, 0.0), &fast);
        assert!(c.compute_ns > 2 * c.mem_ns, "{c:?} is not compute-bound");
        assert_eq!(c.serial_ns, c.compute_ns + c.overhead_ns);
    }

    /// A shrunk f=16 U-Net is priced through lane quantisation: a 32 -> 16
    /// cut drops an output-channel group, so the layer and the frame take
    /// fewer cycles; a 16 -> 14 cut keeps the one group and makes the layer
    /// misaligned, so it saves nothing.
    #[test]
    fn shrinking_is_priced_by_lane_groups() {
        let convs = |xm: &XModel| -> Vec<(usize, u64)> {
            let conv = |i: &DpuInstr| match i {
                DpuInstr::Conv { c_out, transpose: false, .. } => {
                    Some((*c_out, compute_cycles(i, &xm.arch)))
                }
                _ => None,
            };
            xm.instrs.iter().filter_map(conv).collect()
        };
        let full = xmodel(16, 0.0);
        let [half, eighth] = [0.5, 0.125].map(|r| xmodel(16, r));
        for ((c, cycles), (cut, cut_cycles)) in convs(&full).into_iter().zip(convs(&half)) {
            if c == 32 {
                assert_eq!(cut, 16);
                assert!(cut_cycles < cycles, "{cut_cycles} !< {cycles}");
            }
        }
        assert!(half.stats.compute_cycles < full.stats.compute_cycles);
        for ((c, cycles), (cut, cut_cycles)) in convs(&full).into_iter().zip(convs(&eighth)) {
            if c == 16 {
                assert_eq!((cut, cut.div_ceil(arch().ocp)), (14, 1));
                assert!(cut_cycles >= cycles, "{cut_cycles} < {cycles}");
            }
        }
        assert!(eighth.stats.misaligned_layers > full.stats.misaligned_layers);
    }

    #[test]
    fn conv_cycles_use_lane_quantisation() {
        let a = arch();
        let mk = |c_in: usize, c_out: usize| DpuInstr::Conv {
            node: 0,
            h: 64,
            w: 64,
            c_in,
            c_out,
            k: 3,
            transpose: false,
            relu: false,
            wbits: Bitwidth::W8,
        };
        // 6 and 8 input channels cost identical cycles (both one ICP group,
        // both misaligned).
        assert_eq!(compute_cycles(&mk(6, 8), &a), compute_cycles(&mk(8, 8), &a));
        // 9 vs 16 input channels: same group count, but 9 pays the
        // bank-conflict penalty on top.
        let aligned = compute_cycles(&mk(16, 16), &a);
        let misaligned = compute_cycles(&mk(9, 16), &a);
        assert_eq!(misaligned, (aligned as f64 * a.compute_misalign_penalty) as u64);
        // 17 channels spill into a second group: 2x the groups, plus the
        // misalignment penalty.
        assert_eq!(
            compute_cycles(&mk(17, 16), &a),
            (2.0 * aligned as f64 * a.compute_misalign_penalty) as u64
        );
    }

    #[test]
    fn conv_cycles_formula() {
        let a = arch();
        let i = DpuInstr::Conv {
            node: 0,
            h: 32,
            w: 32,
            c_in: 32,
            c_out: 64,
            k: 3,
            transpose: false,
            relu: true,
            wbits: Bitwidth::W8,
        };
        // 2 ICP groups * 4 OCP groups * 4 pixel groups * 32 rows * 9 taps.
        assert_eq!(compute_cycles(&i, &a), 2 * 4 * 4 * 32 * 9);
    }

    #[test]
    fn w4_doubles_output_channel_parallelism() {
        let a = arch();
        let mk = |wbits: Bitwidth| DpuInstr::Conv {
            node: 0,
            h: 32,
            w: 32,
            c_in: 32,
            c_out: 64,
            k: 3,
            transpose: false,
            relu: false,
            wbits,
        };
        // 64 output channels: 4 OCP groups at W8, 2 at W4 — exactly half the
        // cycles when everything stays aligned.
        assert_eq!(
            compute_cycles(&mk(Bitwidth::W4), &a) * 2,
            compute_cycles(&mk(Bitwidth::W8), &a)
        );
        // A single-group layer cannot shrink below one group.
        let small = |wbits: Bitwidth| DpuInstr::Conv {
            node: 0,
            h: 32,
            w: 32,
            c_in: 16,
            c_out: 16,
            k: 3,
            transpose: false,
            relu: false,
            wbits,
        };
        assert_eq!(
            compute_cycles(&small(Bitwidth::W4), &a),
            compute_cycles(&small(Bitwidth::W8), &a)
        );
    }

    #[test]
    fn misaligned_dma_costs_more() {
        let a = arch();
        let ok = DpuInstr::Load { what: LoadKind::FeatureMap, bytes: 1 << 20, misaligned: false };
        let bad = DpuInstr::Load { what: LoadKind::FeatureMap, bytes: 1 << 20, misaligned: true };
        assert!(mem_ns(&bad, &a) > mem_ns(&ok, &a));
        let ratio = mem_ns(&bad, &a) as f64 / mem_ns(&ok, &a) as f64;
        assert!((ratio - a.misalign_penalty).abs() < 0.01);
    }

    #[test]
    fn pool_and_elew_are_cheap_relative_to_conv() {
        let a = arch();
        let conv = DpuInstr::Conv {
            node: 0,
            h: 64,
            w: 64,
            c_in: 32,
            c_out: 32,
            k: 3,
            transpose: false,
            relu: false,
            wbits: Bitwidth::W8,
        };
        let pool = DpuInstr::Pool { node: 0, h: 32, w: 32, c: 32 };
        assert!(compute_cycles(&pool, &a) * 10 < compute_cycles(&conv, &a));
    }

    #[test]
    fn intensity_bounded_by_one() {
        let c = FrameCost { compute_ns: 500, mem_ns: 100, overhead_ns: 10, serial_ns: 400 };
        assert_eq!(c.compute_intensity(), 1.0);
        let c2 = FrameCost { compute_ns: 100, mem_ns: 100, overhead_ns: 10, serial_ns: 400 };
        assert!((c2.compute_intensity() - 0.25).abs() < 1e-12);
    }
}
