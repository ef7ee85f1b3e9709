//! Per-layer performance profiling of a compiled xmodel — the moral
//! equivalent of Xilinx's `vaitrace`: where do the cycles, bytes and
//! microseconds of a frame go, and which engine bounds each layer?

use crate::arch::DpuArch;
use crate::perf::layer_costs;
use crate::xmodel::XModel;
use serde::{Deserialize, Serialize};

/// What limits a layer's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Bound {
    /// The MAC array is the bottleneck.
    Compute,
    /// The DDR interface is the bottleneck.
    Memory,
    /// Fixed overheads dominate (tiny layer).
    Overhead,
}

/// One profiled layer (a compute instruction plus its attributed DMA).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayerProfile {
    /// Index of the compute instruction in the stream.
    pub instr_index: usize,
    /// Disassembly of the instruction.
    pub disasm: String,
    /// Array time (ns).
    pub compute_ns: u64,
    /// DMA time attributed to this layer (ns).
    pub mem_ns: u64,
    /// Dispatch overhead (ns).
    pub overhead_ns: u64,
    /// Bounding engine.
    pub bound: Bound,
}

/// A whole-frame profile.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrameProfile {
    /// Per-layer rows, in execution order.
    pub layers: Vec<LayerProfile>,
    /// Per-frame fixed overhead (ns).
    pub frame_overhead_ns: u64,
    /// Totals (ns): compute, memory, overhead.
    pub totals: (u64, u64, u64),
}

impl FrameProfile {
    /// Number of memory-bound layers.
    pub fn memory_bound_layers(&self) -> usize {
        self.layers.iter().filter(|l| l.bound == Bound::Memory).count()
    }

    /// The top-`n` layers by `max(compute, mem)` time.
    pub fn hottest(&self, n: usize) -> Vec<&LayerProfile> {
        let mut sorted: Vec<&LayerProfile> = self.layers.iter().collect();
        sorted.sort_by_key(|l| std::cmp::Reverse(l.compute_ns.max(l.mem_ns)));
        sorted.truncate(n);
        sorted
    }

    /// Human-readable report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:>4} {:>10} {:>10} {:>9} {:>9}  instruction\n",
            "idx", "compute us", "mem us", "ovh us", "bound"
        ));
        for l in &self.layers {
            out.push_str(&format!(
                "{:>4} {:>10.1} {:>10.1} {:>9.1} {:>9}  {}\n",
                l.instr_index,
                l.compute_ns as f64 / 1000.0,
                l.mem_ns as f64 / 1000.0,
                l.overhead_ns as f64 / 1000.0,
                format!("{:?}", l.bound),
                l.disasm.trim_end(),
            ));
        }
        let (c, m, o) = self.totals;
        out.push_str(&format!(
            "totals: compute {:.2} ms, memory {:.2} ms, overhead {:.2} ms ({} layers, {} memory-bound)\n",
            c as f64 / 1e6,
            m as f64 / 1e6,
            (o + self.frame_overhead_ns) as f64 / 1e6,
            self.layers.len(),
            self.memory_bound_layers()
        ));
        out
    }
}

/// Profiles one frame of an xmodel on the given architecture: the rows of
/// [`crate::perf::frame_cost`]'s pricing walk, disassembled and classified.
///
/// DMA instructions are attributed to the next compute instruction (the
/// layer they feed), which is what its bound is judged on; trailing DMA
/// (final SAVE) is then added to the last layer.
pub fn profile(xm: &XModel, arch: &DpuArch) -> FrameProfile {
    let (rows, trailing_mem) = layer_costs(xm, arch);
    let ovh = arch.instr_overhead_ns;
    let mut layers: Vec<LayerProfile> = rows
        .into_iter()
        .map(|r| {
            let bound = if r.compute_ns >= r.feed_mem_ns && r.compute_ns >= ovh {
                Bound::Compute
            } else if r.feed_mem_ns >= ovh {
                Bound::Memory
            } else {
                Bound::Overhead
            };
            LayerProfile {
                instr_index: r.instr_index,
                disasm: xm.instrs[r.instr_index].disassemble(),
                compute_ns: r.compute_ns,
                mem_ns: r.feed_mem_ns,
                overhead_ns: ovh,
                bound,
            }
        })
        .collect();
    if let Some(last) = layers.last_mut() {
        last.mem_ns += trailing_mem;
    }
    let totals = layers.iter().fold((0u64, 0u64, 0u64), |acc, l| {
        (acc.0 + l.compute_ns, acc.1 + l.mem_ns, acc.2 + l.overhead_ns)
    });
    FrameProfile { layers, frame_overhead_ns: arch.frame_overhead_ns, totals }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile;
    use crate::isa::DpuInstr;
    use rand::SeedableRng;
    use seneca_nn::graph::Graph;
    use seneca_nn::unet::{UNet, UNetConfig};
    use seneca_quant::{fuse, quantize_post_training, PtqConfig};
    use seneca_tensor::{Shape4, Tensor};

    fn xmodel(f: usize) -> XModel {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let net = UNet::new(
            UNetConfig { depth: 2, base_filters: f, num_classes: 6, dropout: 0.0 },
            &mut rng,
        );
        let fg = fuse(&Graph::from_unet(&net, "p"));
        let calib = vec![Tensor::he_normal(Shape4::new(1, 1, 32, 32), &mut rng)];
        let (qg, _) = quantize_post_training(&fg, &calib, &PtqConfig::default());
        compile(&qg, Shape4::new(1, 1, 64, 64), DpuArch::b4096_zcu104())
    }

    #[test]
    fn profile_covers_every_compute_instruction() {
        let xm = xmodel(4);
        let p = profile(&xm, &xm.arch);
        let n_compute = xm
            .instrs
            .iter()
            .filter(|i| {
                matches!(i, DpuInstr::Conv { .. } | DpuInstr::Pool { .. } | DpuInstr::Elew { .. })
            })
            .count();
        assert_eq!(p.layers.len(), n_compute);
    }

    /// `frame_cost` is the profile's totals, field for field, on the five
    /// Table II xmodels at 256² on both DPU configurations.
    #[test]
    fn totals_match_frame_cost() {
        use seneca_nn::unet::ModelSize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let calib = vec![Tensor::he_normal(Shape4::new(1, 1, 32, 32), &mut rng)];
        for size in ModelSize::ALL {
            let fg = fuse(&Graph::from_unet(&UNet::from_size(size, &mut rng), size.label()));
            let (qg, _) = quantize_post_training(&fg, &calib, &PtqConfig::default());
            for arch in [DpuArch::b4096_zcu104(), DpuArch::b1152()] {
                let xm = compile(&qg, Shape4::new(1, 1, 256, 256), arch);
                let p = profile(&xm, &xm.arch);
                let (compute_ns, mem_ns, overhead_ns) = p.totals;
                let overhead_ns = overhead_ns + p.frame_overhead_ns;
                let serial_ns = compute_ns.max(mem_ns) + overhead_ns;
                assert_eq!(
                    crate::perf::frame_cost(&xm, &xm.arch),
                    crate::perf::FrameCost { compute_ns, mem_ns, overhead_ns, serial_ns },
                    "{size} on {}",
                    xm.arch.name
                );
            }
        }
    }

    #[test]
    fn report_and_hottest_are_consistent() {
        let xm = xmodel(8);
        let p = profile(&xm, &xm.arch);
        let hottest = p.hottest(3);
        assert_eq!(hottest.len(), 3);
        assert!(
            hottest[0].compute_ns.max(hottest[0].mem_ns)
                >= hottest[2].compute_ns.max(hottest[2].mem_ns)
        );
        let report = p.report();
        assert!(report.contains("totals:"));
        assert!(report.lines().count() >= p.layers.len() + 2);
    }

    #[test]
    fn small_channel_layers_are_memory_or_overhead_bound() {
        // At 64x64 with f=4 channels the first conv moves a padded 16-channel
        // map but computes almost nothing: not compute bound.
        let xm = xmodel(4);
        let p = profile(&xm, &xm.arch);
        assert_ne!(p.layers[0].bound, Bound::Compute, "{:?}", p.layers[0]);
    }
}
