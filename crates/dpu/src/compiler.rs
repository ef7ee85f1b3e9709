//! The VAI_C-style compiler: quantized graph → xmodel.
//!
//! VAI_C "parses the topology of the quantized input model and constructs an
//! internal computation graph", fuses what it can and emits scheduled
//! microcode (§III-E). Our pipeline:
//!
//! 1. walk the quantized graph in topological order;
//! 2. per layer, emit `LOAD weights` / `LOAD fm` / `CONV|POOL|ELEW` /
//!    `SAVE fm` with channel-padded DDR byte counts (the B4096's on-chip
//!    pool cannot hold 256x256 feature maps, so maps stream through DDR
//!    every layer);
//! 3. accumulate compile statistics (cycles, traffic, misaligned layers).
//!
//! ReLU is already fused into conv nodes by the quantizer front-end; BN and
//! dropout no longer exist at this stage.

use crate::arch::DpuArch;
use crate::isa::{DpuInstr, LoadKind};
use crate::perf;
use crate::xmodel::{CompileStats, XModel};
use seneca_quant::{QOp, QuantizedGraph};
use seneca_tensor::Shape4;

/// Compiles a quantized graph for the given input geometry and architecture.
pub fn compile(qg: &QuantizedGraph, input_shape: Shape4, arch: DpuArch) -> XModel {
    assert_eq!(input_shape.n, 1, "xmodels are compiled for batch 1");
    let module = qg.to_ir();
    let shapes = module.shapes(input_shape);
    let mut instrs = Vec::new();
    let mut stats = CompileStats::default();

    let fm_bytes = |s: &Shape4| -> u64 { (s.hw() * arch.pad_channels(s.c)) as u64 };

    // Input image DMA.
    instrs.push(DpuInstr::Load {
        what: LoadKind::Image,
        bytes: fm_bytes(&shapes[0]),
        misaligned: arch.is_misaligned(shapes[0].c),
    });
    stats.fm_traffic_bytes += fm_bytes(&shapes[0]);

    for (i, node) in qg.nodes.iter().enumerate().skip(1) {
        let out_s = shapes[i];
        match &node.op {
            QOp::Input => unreachable!("input is node 0"),
            QOp::Conv(p) | QOp::TConv(p) => {
                let transpose = matches!(node.op, QOp::TConv(_));
                let in_s = shapes[node.inputs[0]];
                // Nibble-packed W4 layers stream half the weight bytes.
                let w_bytes = p.weight_bytes();
                instrs.push(DpuInstr::Load {
                    what: LoadKind::Weights,
                    bytes: w_bytes,
                    misaligned: false,
                });
                instrs.push(DpuInstr::Load {
                    what: LoadKind::FeatureMap,
                    bytes: fm_bytes(&in_s),
                    misaligned: arch.is_misaligned(in_s.c),
                });
                let (c_in, c_out, k) = if transpose {
                    (p.w.shape().n, p.w.shape().c, 2)
                } else {
                    (p.w.shape().c, p.w.shape().n, 3)
                };
                instrs.push(DpuInstr::Conv {
                    node: i,
                    h: if transpose { in_s.h } else { out_s.h },
                    w: if transpose { in_s.w } else { out_s.w },
                    c_in,
                    c_out,
                    k,
                    transpose,
                    relu: p.relu,
                    wbits: p.wbits,
                });
                instrs.push(DpuInstr::Save {
                    bytes: fm_bytes(&out_s),
                    misaligned: arch.is_misaligned(out_s.c),
                });
                stats.n_conv += 1;
                stats.weight_bytes += w_bytes;
                stats.fm_traffic_bytes += fm_bytes(&in_s) + fm_bytes(&out_s) + w_bytes;
                stats.misaligned_layers +=
                    (arch.is_misaligned(in_s.c) || arch.is_misaligned(out_s.c)) as usize;
            }
            QOp::MaxPool2x2 => {
                let in_s = shapes[node.inputs[0]];
                instrs.push(DpuInstr::Load {
                    what: LoadKind::FeatureMap,
                    bytes: fm_bytes(&in_s),
                    misaligned: arch.is_misaligned(in_s.c),
                });
                instrs.push(DpuInstr::Pool { node: i, h: out_s.h, w: out_s.w, c: out_s.c });
                instrs.push(DpuInstr::Save {
                    bytes: fm_bytes(&out_s),
                    misaligned: arch.is_misaligned(out_s.c),
                });
                stats.fm_traffic_bytes += fm_bytes(&in_s) + fm_bytes(&out_s);
            }
            QOp::Concat { .. } => {
                // The elementwise engine rewrites both inputs at the shared
                // fix position into the concatenated layout.
                let elems = out_s.len() as u64;
                instrs.push(DpuInstr::Elew { node: i, elems });
                stats.fm_traffic_bytes += 2 * fm_bytes(&out_s);
            }
        }
    }

    // Final result DMA + end-of-kernel.
    let out_s = shapes[qg.output];
    instrs
        .push(DpuInstr::Save { bytes: fm_bytes(&out_s), misaligned: arch.is_misaligned(out_s.c) });
    instrs.push(DpuInstr::End);
    stats.fm_traffic_bytes += fm_bytes(&out_s);

    stats.n_instrs = instrs.len();
    stats.compute_cycles = instrs.iter().map(|i| perf::compute_cycles(i, &arch)).sum();

    // DDR feature-map arena accounting: the same liveness plan the host
    // executors use, over channel-padded element counts (1 byte each) via
    // the IR's single ICP-padding hook.
    let plan = module.plan_padded(input_shape, |c| arch.pad_channels(c));
    stats.peak_arena_bytes = plan.peak_arena_bytes(1);
    stats.total_activation_bytes = plan.total_activation_bytes(1);

    XModel {
        name: qg.name.clone(),
        arch,
        input_shape,
        instrs,
        qgraph: qg.clone(),
        stats,
        lowered: Default::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use seneca_nn::graph::Graph;
    use seneca_nn::unet::{ModelSize, UNet, UNetConfig};
    use seneca_quant::{fuse, quantize_post_training, PtqConfig};
    use seneca_tensor::Tensor;

    fn quantized(depth: usize, f: usize, seed: u64, size: usize) -> QuantizedGraph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cfg =
            UNetConfig { depth, base_filters: f, in_channels: 1, num_classes: 6, dropout: 0.0 };
        let net = UNet::new(cfg, &mut rng);
        let fg = fuse(&Graph::from_unet(&net, format!("d{depth}f{f}")));
        let calib = vec![Tensor::he_normal(Shape4::new(1, 1, size, size), &mut rng)];
        quantize_post_training(&fg, &calib, &PtqConfig::default()).0
    }

    #[test]
    fn compiles_all_conv_nodes() {
        let qg = quantized(2, 4, 1, 16);
        let xm = compile(&qg, Shape4::new(1, 1, 16, 16), DpuArch::b4096_zcu104());
        // depth 2: 11 convs + 2 tconvs = 13 conv-family instructions.
        assert_eq!(xm.stats.n_conv, 13);
        assert!(xm.stats.n_instrs > 13 * 4);
        assert!(matches!(xm.instrs.last(), Some(DpuInstr::End)));
        assert!(matches!(xm.instrs.first(), Some(DpuInstr::Load { what: LoadKind::Image, .. })));
    }

    #[test]
    fn weight_bytes_track_parameter_count() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let net = UNet::from_size(ModelSize::M1, &mut rng);
        let fg = fuse(&Graph::from_unet(&net, "1M"));
        let calib = vec![Tensor::he_normal(Shape4::new(1, 1, 32, 32), &mut rng)];
        let (qg, _) = quantize_post_training(&fg, &calib, &PtqConfig::default());
        let xm = compile(&qg, Shape4::new(1, 1, 32, 32), DpuArch::b4096_zcu104());
        // INT8 weights ≈ conv+tconv weight element count (biases are 4B each,
        // BN params are folded away). Must be within 10% of 1.0M elements.
        let approx_m = xm.stats.weight_bytes as f64 / 1e6;
        assert!((0.85..1.25).contains(&approx_m), "weights {approx_m}M bytes");
    }

    #[test]
    fn mixed_w4_model_compiles_with_fewer_weight_bytes_and_cycles() {
        use seneca_quant::{calibrate, quantize_from_calibration, Bitwidth};
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let cfg =
            UNetConfig { depth: 2, base_filters: 16, in_channels: 1, num_classes: 6, dropout: 0.0 };
        let net = UNet::new(cfg, &mut rng);
        let fg = fuse(&Graph::from_unet(&net, "mixed"));
        let calib = vec![Tensor::he_normal(Shape4::new(1, 1, 16, 16), &mut rng)];
        let report = calibrate(&fg, &calib, &PtqConfig::default());

        let uniform = quantize_from_calibration(&fg, &report, &vec![Bitwidth::W8; fg.nodes.len()]);
        // Flip every conv-family layer to W4 (entries on other nodes are ignored).
        let wbits = vec![Bitwidth::W4; fg.nodes.len()];
        let mixed = quantize_from_calibration(&fg, &report, &wbits);

        let shape = Shape4::new(1, 1, 16, 16);
        let xm_u = compile(&uniform, shape, DpuArch::b4096_zcu104());
        let xm_m = compile(&mixed, shape, DpuArch::b4096_zcu104());
        assert!(
            xm_m.stats.weight_bytes < xm_u.stats.weight_bytes,
            "{} !< {}",
            xm_m.stats.weight_bytes,
            xm_u.stats.weight_bytes
        );
        assert!(xm_m.stats.compute_cycles < xm_u.stats.compute_cycles);
        assert!(xm_m.instrs.iter().any(|i| i.disassemble().ends_with(" w4")));
        assert!(xm_u.instrs.iter().all(|i| !i.disassemble().contains(" w4")));
    }

    #[test]
    fn misaligned_layers_detected_for_f6_model() {
        // f=6 (the 2M family): channel counts 6, 12, 24 are ICP-misaligned.
        let qg6 = quantized(2, 6, 3, 16);
        let xm6 = compile(&qg6, Shape4::new(1, 1, 16, 16), DpuArch::b4096_zcu104());
        let qg16 = quantized(2, 16, 3, 16);
        let xm16 = compile(&qg16, Shape4::new(1, 1, 16, 16), DpuArch::b4096_zcu104());
        assert!(
            xm6.stats.misaligned_layers > xm16.stats.misaligned_layers,
            "{} vs {}",
            xm6.stats.misaligned_layers,
            xm16.stats.misaligned_layers
        );
    }

    #[test]
    fn traffic_scales_with_resolution() {
        let qg = quantized(2, 4, 4, 32);
        let xm32 = compile(&qg, Shape4::new(1, 1, 32, 32), DpuArch::b4096_zcu104());
        let xm16 =
            compile(&quantized(2, 4, 4, 16), Shape4::new(1, 1, 16, 16), DpuArch::b4096_zcu104());
        assert!(xm32.stats.fm_traffic_bytes > 3 * xm16.stats.fm_traffic_bytes);
    }

    #[test]
    #[should_panic(expected = "batch 1")]
    fn batch_must_be_one() {
        let qg = quantized(1, 4, 5, 8);
        let _ = compile(&qg, Shape4::new(2, 1, 8, 8), DpuArch::b4096_zcu104());
    }

    /// `execute_node_i8` is only correct when nodes run in increasing id
    /// order with none skipped, and the functional path trusts the stream to
    /// be that: the compute instructions of every Table II model (and of a
    /// mixed-W4 plan) name exactly nodes `1..n` in order, each with the
    /// instruction kind that implements its node's op.
    #[test]
    fn compute_instructions_walk_every_node_once_in_order() {
        use crate::executor::compute_node;
        use seneca_quant::{calibrate, quantize_from_calibration, Bitwidth};
        let shape = Shape4::new(1, 1, 32, 32);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let calib = vec![Tensor::he_normal(shape, &mut rng)];
        let mut graphs = Vec::new();
        for size in ModelSize::ALL {
            let fg = fuse(&Graph::from_unet(&UNet::from_size(size, &mut rng), size.label()));
            let report = calibrate(&fg, &calib, &PtqConfig::default());
            graphs.push(quantize_from_calibration(
                &fg,
                &report,
                &vec![Bitwidth::W8; fg.nodes.len()],
            ));
            if size == ModelSize::M1 {
                let wbits: Vec<Bitwidth> = (0..fg.nodes.len())
                    .map(|i| if i % 2 == 0 { Bitwidth::W4 } else { Bitwidth::W8 })
                    .collect();
                graphs.push(quantize_from_calibration(&fg, &report, &wbits));
            }
        }
        for qg in &graphs {
            let xm = compile(qg, shape, DpuArch::b4096_zcu104());
            let walked: Vec<usize> =
                xm.instrs.iter().filter_map(|i| compute_node(i, &xm.qgraph)).collect();
            assert_eq!(walked, (1..qg.nodes.len()).collect::<Vec<_>>(), "{}", qg.name);
        }
    }

    /// Golden PTQ output: FNV-1a of the JSON-serialised quantized graph of a
    /// seeded 1M model. Any change to how calibration evaluates the FP32
    /// module, observes ranges or quantises weights that moves one fix
    /// position or one weight byte moves this hash.
    #[test]
    fn ptq_of_a_seeded_1m_model_is_byte_identical_to_the_recorded_graph() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5E4ECA);
        let net = UNet::from_size(ModelSize::M1, &mut rng);
        let fg = fuse(&Graph::from_unet(&net, "1M"));
        let calib: Vec<Tensor> =
            (0..4).map(|_| Tensor::he_normal(Shape4::new(1, 1, 32, 32), &mut rng)).collect();
        let (qg, _) = quantize_post_training(&fg, &calib, &PtqConfig::default());
        let json = serde_json::to_string(&qg).expect("qgraph serialises");
        let hash = json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(hash, 0x8b92_712b_ba1e_15df, "PTQ output moved ({} bytes)", json.len());
    }
}
