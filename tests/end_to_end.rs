//! End-to-end integration: the full Figure-1 pipeline at fast scale,
//! spanning every crate in the workspace.

mod common;

use seneca::backend::{Backend, Fp32RefBackend, Prediction};
use seneca::eval::evaluate_backend;
use seneca::{SenecaConfig, Workflow};
use seneca_nn::ModelSize;

#[test]
fn full_pipeline_trains_quantises_compiles_and_evaluates() {
    let wf = Workflow::new(SenecaConfig::fast());
    let data = wf.prepare_data();
    let dep = wf.deploy(ModelSize::M1, &data);

    // Cross-entropy warm-up + Focal Tversky epochs, pinned bit for bit: every
    // weight and BN state of the trained graph.
    assert_eq!(common::training_hash(&dep.graph, &[]), 0x7383_981d_f4d1_a5ed);

    // The xmodel is a real artifact: serialises, disassembles, carries the
    // input scale of §III-E.
    let xm = &dep.dpu_runner.xmodel;
    assert!(xm.stats.n_conv >= 17, "1M model: 17 conv+tconv layers, got {}", xm.stats.n_conv);
    let disasm = xm.disassemble();
    assert!(disasm.contains("CONV") && disasm.contains("DCONV") && disasm.contains("POOL"));
    assert!(xm.input_scale() > 0.0);
    let json = xm.to_json();
    let xm2 = seneca_dpu::XModel::from_json(&json).expect("xmodel roundtrips");
    assert_eq!(xm2.stats, xm.stats);

    // Training must have learned *something*: the trained model beats a
    // random-initialised one on global DSC.
    let trained = evaluate_backend(&dep.gpu_runner, &data);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(999);
    let random_net = seneca_nn::UNet::from_size(ModelSize::M1, &mut rng);
    let random_graph = seneca_nn::Graph::from_unet(&random_net, "random");
    let shape = data.test_by_patient[0].images[0].shape();
    let random = evaluate_backend(&Fp32RefBackend::new(random_graph, shape), &data);
    assert!(
        trained.global().mean > random.global().mean + 5.0,
        "trained {:.2}% vs random {:.2}%",
        trained.global().mean,
        random.global().mean
    );

    // INT8 deployment tracks the FP32 model (paper: quantisation is ~free).
    let int8 = evaluate_backend(&dep.dpu_runner, &data);
    let delta = (int8.global().mean - trained.global().mean).abs();
    assert!(delta < 12.0, "INT8 vs FP32 global DSC gap {delta:.2} too large");

    // TNR is high: the network does not hallucinate organs everywhere.
    assert!(int8.global_tnr().mean > 90.0, "TNR {:.2}", int8.global_tnr().mean);
}

#[test]
fn functional_dpu_runner_is_bit_exact_and_order_preserving() {
    let wf = Workflow::new(SenecaConfig::fast());
    let data = wf.prepare_data();
    let dep = wf.deploy(ModelSize::M1, &data);

    let images: Vec<_> =
        data.test_by_patient.iter().flat_map(|p| p.images.iter().cloned()).take(6).collect();
    // Multi-threaded VART path == the naive oracle's evaluation of the
    // quantized graph, frame by frame, in order.
    let outs: Vec<_> =
        dep.dpu_runner.infer_batch(&images).into_iter().map(Prediction::into_i8).collect();
    let module = dep.qgraph.to_ir();
    for (img, out) in images.iter().zip(&outs) {
        let reference = seneca_ir::oracle::run_i8(&module, &dep.qgraph.quantize_input(img))
            .swap_remove(module.output);
        assert_eq!(*out, reference);
    }
}
