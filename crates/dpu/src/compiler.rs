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
use seneca_ir::IrOp;
use seneca_quant::QuantizedGraph;
use seneca_tensor::Shape4;

/// Compiles a quantized graph for the given input geometry and architecture.
pub fn compile(qg: &QuantizedGraph, input_shape: Shape4, arch: DpuArch) -> XModel {
    assert_eq!(input_shape.n, 1, "xmodels are compiled for batch 1");
    let module = qg.module();
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

    for (i, node) in module.nodes.iter().enumerate().skip(1) {
        let out_s = shapes[i];
        match &node.op {
            IrOp::Conv(a) | IrOp::TConv(a) => {
                let transpose = matches!(node.op, IrOp::TConv(_));
                let in_s = shapes[node.inputs[0]];
                // Nibble-packed W4 layers stream half the weight bytes.
                let w_bytes = a.kernel.weight_bytes();
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
                instrs.push(DpuInstr::Conv {
                    node: i,
                    h: if transpose { in_s.h } else { out_s.h },
                    w: if transpose { in_s.w } else { out_s.w },
                    c_in: a.kernel.c_in(transpose),
                    c_out: a.kernel.c_out(transpose),
                    k: if transpose { 2 } else { 3 },
                    transpose,
                    relu: a.relu,
                    wbits: a.kernel.wbits(),
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
            IrOp::MaxPool2x2 => {
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
            IrOp::Concat { .. } => {
                // The elementwise engine copies both inputs, which share one
                // fix position, into the concatenated layout. (The host lays
                // the concat out by address; the DPU's stays priced as a
                // copy until the cost model is refitted.)
                let elems = out_s.len() as u64;
                instrs.push(DpuInstr::Elew { node: i, elems });
                stats.fm_traffic_bytes += 2 * fm_bytes(&out_s);
            }
            other => unreachable!("a quantized graph holds no {}", other.mnemonic(module.dtype)),
        }
    }

    // Final result DMA + end-of-kernel.
    let out_s = shapes[module.output];
    instrs
        .push(DpuInstr::Save { bytes: fm_bytes(&out_s), misaligned: arch.is_misaligned(out_s.c) });
    instrs.push(DpuInstr::End);
    stats.fm_traffic_bytes += fm_bytes(&out_s);

    stats.n_instrs = instrs.len();
    stats.compute_cycles = instrs.iter().map(|i| perf::compute_cycles(i, &arch)).sum();

    // DDR feature-map arena accounting: the same liveness plan the host
    // executors use, over channel-padded element counts (1 byte each) via
    // the IR's single ICP-padding hook. The host's GEMM strip buffers are
    // not DDR: the arena is the placed values alone.
    let plan = module.plan_padded(input_shape, |_, s| s.hw() * arch.pad_channels(s.c));
    stats.peak_arena_bytes = plan.peak_arena_elems() as u64;
    stats.total_activation_bytes = plan.total_activation_bytes(1);

    XModel { name: module.name.clone(), arch, input_shape, instrs, qgraph: qg.clone(), stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use seneca_ir::Module;
    use seneca_nn::graph::Graph;
    use seneca_nn::unet::{ModelSize, UNet, UNetConfig};
    use seneca_quant::{fuse, quantize_post_training, PtqConfig};
    use seneca_tensor::Tensor;

    fn quantized(depth: usize, f: usize, seed: u64, size: usize) -> QuantizedGraph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cfg = UNetConfig { depth, base_filters: f, num_classes: 6, dropout: 0.0 };
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
        let cfg = UNetConfig { depth: 2, base_filters: 16, num_classes: 6, dropout: 0.0 };
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

    /// The DDR arena is the channel-padded plan's placed values, one byte
    /// each, and nothing of the host: not its GEMM strip buffers, whose size
    /// follows the host's thread count.
    #[test]
    fn ddr_arena_is_the_padded_plan_alone() {
        let shape = Shape4::new(1, 1, 256, 256);
        for (size, bytes) in [(ModelSize::M1, 3_145_728), (ModelSize::M16, 6_291_456)] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(8);
            let fg = fuse(&Graph::from_unet(&UNet::from_size(size, &mut rng), size.label()));
            let calib = vec![Tensor::he_normal(Shape4::new(1, 1, 32, 32), &mut rng)];
            let (qg, _) = quantize_post_training(&fg, &calib, &PtqConfig::default());
            let arch = DpuArch::b4096_zcu104();
            let plan = qg.module().plan_padded(shape, |_, s| s.hw() * arch.pad_channels(s.c));
            let xm = compile(&qg, shape, arch);
            assert_eq!(xm.stats.peak_arena_bytes, plan.peak_arena_elems() as u64, "{size:?}");
            assert_eq!(xm.stats.peak_arena_bytes, bytes, "{size:?}");
        }
    }

    #[test]
    #[should_panic(expected = "batch 1")]
    fn batch_must_be_one() {
        let qg = quantized(1, 4, 5, 8);
        let _ = compile(&qg, Shape4::new(2, 1, 8, 8), DpuArch::b4096_zcu104());
    }

    /// The stream models the whole program: the compute instructions of
    /// every Table II model (and of a mixed-W4 plan) name exactly nodes
    /// `1..n` in order, each with the instruction kind that implements its
    /// node's op (the check an xmodel passes when it is loaded).
    #[test]
    fn compute_instructions_walk_every_node_once_in_order() {
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
            let walked: Vec<usize> = xm.instrs.iter().filter_map(DpuInstr::node).collect();
            let m = qg.module();
            assert_eq!(walked, (1..m.nodes.len()).collect::<Vec<_>>(), "{}", m.name);
            assert_eq!(xm.check_instrs(), Ok(()), "{}", m.name);
        }
    }

    /// The seeded 1M model's export graph, its PTQ graph and one W4-mixed
    /// plan's graph.
    fn seeded_1m_graphs() -> (Graph, QuantizedGraph, QuantizedGraph) {
        use seneca_quant::{quantize_from_calibration, Bitwidth};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5E4ECA);
        let net = UNet::from_size(ModelSize::M1, &mut rng);
        let graph = Graph::from_unet(&net, "1M");
        let fg = fuse(&graph);
        let calib: Vec<Tensor> =
            (0..4).map(|_| Tensor::he_normal(Shape4::new(1, 1, 32, 32), &mut rng)).collect();
        let (qg, report) = quantize_post_training(&fg, &calib, &PtqConfig::default());
        let wbits: Vec<Bitwidth> = (0..fg.nodes.len())
            .map(|i| if i % 2 == 0 { Bitwidth::W4 } else { Bitwidth::W8 })
            .collect();
        let w4 = quantize_from_calibration(&fg, &report, &wbits);
        (graph, qg, w4)
    }

    /// FNV-1a of a JSON string.
    fn fnv(json: &str) -> u64 {
        json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    fn json<T: serde::Serialize>(v: &T) -> String {
        serde_json::to_string(v).expect("graph serialises")
    }

    /// Golden hand-off graphs of a seeded 1M model: FNV-1a of the JSON of
    /// its export graph, of its PTQ graph and of one W4-mixed plan's graph
    /// (each serialises as the module it holds). Any change to how the
    /// exporter writes the graph, how calibration evaluates the FP32 module,
    /// observes ranges or quantises weights that moves one fix position or
    /// one weight byte moves a hash.
    #[test]
    fn ptq_of_a_seeded_1m_model_is_byte_identical_to_the_recorded_graph() {
        let (graph, qg, w4) = seeded_1m_graphs();
        assert_eq!(fnv(&json(&qg)), 0xd135_305c_9549_beb7, "PTQ output moved");
        assert_eq!(fnv(&json(&w4)), 0xed01_0e78_09e4_9862, "W4 plan moved");
        assert_eq!(fnv(&json(&graph)), 0xb836_71a9_aa40_ef87, "export graph moved");
    }

    /// Graph and xmodel JSON written while every conv carried a `"pack"`
    /// slot (always `null` in a file) and every module its output fix
    /// position still reads, and runs the same bits: zoo caches and xmodels stay
    /// valid. The old files are today's JSON with those keys put back, which
    /// is byte for byte what was written then: the hashes are the ones the
    /// golden above recorded before the keys were dropped.
    #[test]
    fn json_with_the_dropped_pack_and_output_fp_keys_still_loads_and_runs_the_same_bits() {
        let (graph, qg, w4) = seeded_1m_graphs();
        let old_format = |json: String, fp: i32| {
            let json = json.replace("\"relu\":false}", "\"relu\":false,\"pack\":null}");
            let json = json.replace("\"relu\":true}", "\"relu\":true,\"pack\":null}");
            let body = json.strip_suffix('}').expect("a module is a JSON object");
            format!("{body},\"output_fp\":{fp}}}")
        };
        let out_fp = |g: &QuantizedGraph| g.module().fix_positions()[g.module().output];
        let old_graph = old_format(json(&graph), 0);
        let (old_qg, old_w4) =
            (old_format(json(&qg), out_fp(&qg)), old_format(json(&w4), out_fp(&w4)));
        assert_eq!(fnv(&old_qg), 0xe6f7_0de6_e0ef_c91a, "old PTQ JSON");
        assert_eq!(fnv(&old_w4), 0xf49b_aed0_0d81_f5f7, "old W4 JSON");
        assert_eq!(fnv(&old_graph), 0x34fd_243c_c315_8d47, "old export JSON");

        let shape = Shape4::new(1, 1, 32, 32);
        let x = Tensor::he_normal(shape, &mut rand::rngs::StdRng::seed_from_u64(3));
        let reference = seneca_ir::LowerOptions::reference();
        let f32_bits = |m: Module| {
            let y = seneca_ir::lower(m, shape, &reference).execute_f32(&x);
            y.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        let read: Graph = serde_json::from_str(&old_graph).expect("old export JSON reads");
        assert_eq!(f32_bits(read.to_ir()), f32_bits(graph.to_ir()));
        for (old, g) in [(old_qg, qg), (old_w4, w4)] {
            let i8_out = |m: Module| {
                seneca_ir::lower(m, shape, &reference).execute_i8(&g.quantize_input(&x))
            };
            let want = i8_out(g.to_ir());
            let read: QuantizedGraph = serde_json::from_str(&old).expect("old PTQ JSON reads");
            assert_eq!(i8_out(read.to_ir()), want);
            let module: Module = serde_json::from_str(&old).expect("old module JSON reads");
            assert_eq!(i8_out(module), want);
            let xm = compile(&g, Shape4::new(1, 1, 64, 64), DpuArch::b4096_zcu104());
            let old_xm = json(&xm).replace(&json(&g), &old);
            assert!(old_xm.contains(&old), "the xmodel holds its graph's JSON");
            let read = XModel::from_json(&old_xm).expect("old xmodel JSON reads");
            assert_eq!(i8_out(read.qgraph.to_ir()), want);
        }
    }
}
