//! Cross-crate quantization-pipeline integration: graph export → fusion →
//! PTQ → compile → functional DPU execution, checked for consistency at
//! each hand-off.

use proptest::prelude::*;
use rand::SeedableRng;
use seneca::backend::{Backend, Fp32RefBackend, QuantRefBackend};
use seneca_dpu::arch::DpuArch;
use seneca_dpu::runtime::{DpuRunner, RuntimeConfig};
use seneca_gpu::{GpuModel, GpuRunner};
use seneca_ir::oracle::{self, assert_close_f32};
use seneca_nn::graph::Graph;
use seneca_nn::unet::{UNet, UNetConfig};
use seneca_quant::{fuse, quantize_post_training, PtqConfig};
use seneca_tensor::{Shape4, Tensor};
use std::sync::Arc;

fn tiny_net(seed: u64) -> UNet {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    UNet::new(UNetConfig { depth: 2, base_filters: 6, num_classes: 6, dropout: 0.1 }, &mut rng)
}

fn calib_images(n: usize, size: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut t = Tensor::he_normal(Shape4::new(1, 1, size, size), &mut rng);
            for v in t.data_mut() {
                *v = v.clamp(-1.0, 1.0);
            }
            t
        })
        .collect()
}

#[test]
fn every_handoff_preserves_predictions() {
    let net = tiny_net(1);
    let graph = Graph::from_unet(&net, "t");
    let fg = fuse(&graph);
    let calib = calib_images(8, 16, 2);
    let (qg, report) = quantize_post_training(&fg, &calib, &PtqConfig::default());
    let shape = Shape4::new(1, 1, 16, 16);
    let xm = Arc::new(seneca_dpu::compile(&qg, shape, DpuArch::b4096_zcu104()));
    let dpu = DpuRunner::new(Arc::clone(&xm), RuntimeConfig { threads: 1 });
    let int8 = QuantRefBackend::new(qg.clone(), shape);

    for img in &calib[..4] {
        // Hand-off 1: the executor == the oracle on the export graph
        // (probabilities; BN, ReLU, dropout and softmax still explicit).
        let m = graph.module();
        let p_exec = seneca_ir::execute_f32(m, img);
        let graph_vals = oracle::run_f32(m, img);
        let p_graph = &graph_vals[m.output];
        assert_close_f32(p_exec.data(), p_graph.data(), "executor vs export graph");
        // Hand-off 2: Graph == fused module up to softmax.
        let logits_graph = &graph_vals[m.nodes[m.output].inputs[0]];
        let logits_fused = oracle::run_f32(&fg, img).swap_remove(fg.output);
        assert_close_f32(logits_fused.data(), logits_graph.data(), "export graph vs fused");
        // Hand-off 3: QuantizedGraph argmax mostly agrees with FP32.
        let fp32_labels = seneca_tensor::activation::argmax_channels(&logits_fused);
        let int8_labels = int8.predict(img);
        let agree = fp32_labels.iter().zip(&int8_labels).filter(|(a, b)| a == b).count();
        assert!(agree as f64 / fp32_labels.len() as f64 > 0.8, "agreement {agree}/256");
        // Hand-off 4: xmodel functional execution == QuantizedGraph, bit exact.
        let input = xm.quantize_input(img);
        let out_core = dpu.infer_batch(std::slice::from_ref(img)).remove(0).into_i8();
        let out_qg = oracle::run_i8(qg.module(), &input).swap_remove(qg.module().output);
        assert_eq!(out_core, out_qg);
    }

    // The PTQ report covers every fused node and used all images.
    assert_eq!(report.fix_pos.len(), fg.nodes.len());
    assert_eq!(report.images_used, 8);
}

#[test]
fn quantization_works_across_resolutions() {
    // A model calibrated at one resolution still runs (and compiles) at
    // another — the xmodel is re-compiled per input geometry like VAI_C.
    let net = tiny_net(3);
    let fg = fuse(&Graph::from_unet(&net, "t"));
    let (qg, _) = quantize_post_training(&fg, &calib_images(4, 16, 4), &PtqConfig::default());
    for size in [16usize, 32, 64] {
        let xm = seneca_dpu::compile(&qg, Shape4::new(1, 1, size, size), DpuArch::b4096_zcu104());
        let img = &calib_images(1, size, 5)[0];
        let dpu = DpuRunner::new(Arc::new(xm.clone()), RuntimeConfig { threads: 1 });
        let out = dpu.infer_batch(std::slice::from_ref(img)).remove(0).into_i8();
        assert_eq!(out.shape(), Shape4::new(1, 6, size, size));
        // Cost model scales superlinearly-ish with resolution.
        if size > 16 {
            let xm_prev = seneca_dpu::compile(
                &qg,
                Shape4::new(1, 1, size / 2, size / 2),
                DpuArch::b4096_zcu104(),
            );
            let big = seneca_dpu::perf::frame_cost(&xm, &xm.arch);
            let small = seneca_dpu::perf::frame_cost(&xm_prev, &xm_prev.arch);
            assert!(big.serial_ns > small.serial_ns);
        }
    }
}

#[test]
fn ffq_and_qat_do_not_beat_ptq_dramatically() {
    // §III-D: the paper tested FFQ and QAT "without achieving improvements
    // over PTQ". Verify FFQ stays within noise of PTQ on logit MSE.
    let net = tiny_net(6);
    let fg = fuse(&Graph::from_unet(&net, "t"));
    let calib = calib_images(6, 16, 7);
    let (qg_ptq, _) = quantize_post_training(&fg, &calib, &PtqConfig::default());
    let mut qg_ffq = qg_ptq.clone();
    let report = seneca_quant::finetune::fast_finetune(&mut qg_ffq, &fg, &calib, 4);
    let ptq_mse = seneca_quant::ptq::quantization_mse(&fg, &qg_ptq, &calib);
    let ffq_mse = seneca_quant::ptq::quantization_mse(&fg, &qg_ffq, &calib);
    assert!(ffq_mse <= ptq_mse * 1.2, "FFQ {ffq_mse} vs PTQ {ptq_mse}");
    assert!(report.mse_after <= report.mse_before * 1.2);
}

#[test]
fn fp32_ref_backend_matches_gpu_runner_bit_for_bit() {
    // The two FP32 backends share the inference graph, so their probability
    // maps must be identical to the last bit — not just close.
    let net = tiny_net(10);
    let graph = Graph::from_unet(&net, "t");
    let shape = Shape4::new(1, 1, 16, 16);
    let images = calib_images(4, 16, 11);

    let reference = Fp32RefBackend::new(graph.clone(), shape).with_threads(2);
    let gpu = GpuRunner::new(graph, GpuModel::rtx2060_mobile(), shape);
    let a = reference.infer_batch(&images);
    let b = gpu.infer_batch(&images);
    assert_eq!(a.len(), b.len());
    for (pa, pb) in a.iter().zip(&b) {
        assert_eq!(pa.labels, pb.labels);
        assert_eq!(pa.as_f32().unwrap().data(), pb.as_f32().unwrap().data());
    }
}

#[test]
fn dpu_runner_matches_the_oracle_bit_for_bit() {
    // The DPU functional runtime on three workers computes what the naive
    // oracle says the quantized graph computes: fixed-point logits (fix
    // position included) and labels, bit for bit, in input order.
    let net = tiny_net(12);
    let fg = fuse(&Graph::from_unet(&net, "t"));
    let calib = calib_images(6, 16, 13);
    let (qg, _) = quantize_post_training(&fg, &calib, &PtqConfig::default());
    let shape = Shape4::new(1, 1, 16, 16);

    let xm = Arc::new(seneca_dpu::compile(&qg, shape, DpuArch::b4096_zcu104()));
    let dpu = DpuRunner::new(xm, RuntimeConfig { threads: 3 });
    let preds = dpu.infer_batch(&calib);
    assert_eq!(preds.len(), calib.len());
    let m = qg.module();
    for (img, pred) in calib.iter().zip(&preds) {
        let want = oracle::run_i8(m, &qg.quantize_input(img)).swap_remove(m.output);
        assert_eq!(
            pred.labels,
            seneca_tensor::activation::argmax_channels_i8(want.shape(), want.data())
        );
        let got = pred.as_i8().unwrap();
        assert_eq!(got.fix_pos(), want.fix_pos());
        assert_eq!(got.data(), want.data());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The streaming session is a pure reordering device: batch output must
    /// be invariant (order and content) under the worker thread count.
    #[test]
    fn session_output_invariant_under_thread_count(
        n_images in 1usize..6, threads in 2usize..5, seed in 0u64..100
    ) {
        let net = tiny_net(14);
        let fg = fuse(&Graph::from_unet(&net, "t"));
        let calib = calib_images(2, 16, 15);
        let (qg, _) = quantize_post_training(&fg, &calib, &PtqConfig::default());
        let shape = Shape4::new(1, 1, 16, 16);
        let images = calib_images(n_images, 16, seed);

        let serial = QuantRefBackend::new(qg.clone(), shape).infer_batch(&images);
        let pooled =
            QuantRefBackend::new(qg, shape).with_threads(threads).infer_batch(&images);
        prop_assert_eq!(serial.len(), pooled.len());
        for (s, p) in serial.iter().zip(&pooled) {
            prop_assert_eq!(&s.labels, &p.labels);
            prop_assert_eq!(s.as_i8().unwrap().data(), p.as_i8().unwrap().data());
        }
    }
}

#[test]
fn misaligned_channel_models_compile_with_penalties() {
    // f=6 channels are ICP-misaligned; the compiler must record that and the
    // cost model must charge for it (the 2M-vs-4M mechanism of Table IV).
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    let net6 =
        UNet::new(UNetConfig { depth: 2, base_filters: 6, num_classes: 6, dropout: 0.0 }, &mut rng);
    let net16 = UNet::new(
        UNetConfig { depth: 2, base_filters: 16, num_classes: 6, dropout: 0.0 },
        &mut rng,
    );
    let mk = |net: &UNet, name: &str| {
        let fg = fuse(&Graph::from_unet(net, name));
        let (qg, _) = quantize_post_training(&fg, &calib_images(2, 32, 9), &PtqConfig::default());
        seneca_dpu::compile(&qg, Shape4::new(1, 1, 64, 64), DpuArch::b4096_zcu104())
    };
    let xm6 = mk(&net6, "f6");
    let xm16 = mk(&net16, "f16");
    assert!(xm6.stats.misaligned_layers > xm16.stats.misaligned_layers);
    // Per-MAC cost of the misaligned model is higher.
    let c6 = seneca_dpu::perf::frame_cost(&xm6, &xm6.arch);
    let c16 = seneca_dpu::perf::frame_cost(&xm16, &xm16.arch);
    let per_mac6 = c6.serial_ns as f64 / xm6.stats.compute_cycles as f64;
    let per_mac16 = c16.serial_ns as f64 / xm16.stats.compute_cycles as f64;
    assert!(per_mac6 > per_mac16, "{per_mac6} vs {per_mac16}");
}
