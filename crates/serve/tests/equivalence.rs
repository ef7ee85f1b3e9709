//! Serving must be a scheduling layer, not a numerics layer: whatever the
//! arrival order, priorities, batch window, or replica count, every request
//! gets a prediction bit-identical to a direct `Backend::infer_batch` call
//! on the same frame.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use seneca_backend::{Backend, Fp32RefBackend, Logits, Prediction};
use seneca_serve::{Priority, ServeConfig, Server, Ticket};
use seneca_tensor::{Shape4, Tensor};
use std::sync::Arc;
use std::time::Duration;

/// Pure deterministic toy backend: logits are an affine function of the
/// input, so any reordering or batch-splitting bug shows up as a bit
/// mismatch against the direct call.
#[derive(Clone)]
struct Affine;

impl Backend for Affine {
    fn name(&self) -> String {
        "affine".into()
    }

    fn infer_batch(&self, images: &[Tensor]) -> Vec<Prediction> {
        images
            .iter()
            .map(|img| {
                let data = img.data().iter().map(|v| v.mul_add(0.75, -0.25)).collect();
                Prediction::from_f32(Tensor::from_vec(img.shape(), data))
            })
            .collect()
    }
}

fn frames(n: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let shape = Shape4::new(1, 2, 3, 3);
    (0..n)
        .map(|_| {
            Tensor::from_vec(shape, (0..shape.len()).map(|_| rng.gen_range(-2.0..2.0)).collect())
        })
        .collect()
}

fn assert_bit_identical(served: &Prediction, direct: &Prediction) {
    assert_eq!(served.labels, direct.labels, "labels must match the direct call");
    match (&served.logits, &direct.logits) {
        (Logits::F32(a), Logits::F32(b)) => {
            assert_eq!(a.shape(), b.shape());
            // Bit-exact, not approximately equal.
            let ab: Vec<u32> = a.data().iter().map(|v| v.to_bits()).collect();
            let bb: Vec<u32> = b.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(ab, bb, "f32 logits must be bit-identical");
        }
        (Logits::I8(a), Logits::I8(b)) => assert_eq!(a.data(), b.data()),
        _ => panic!("served and direct predictions use different logit types"),
    }
}

/// Runs `imgs` through a server with the given shape knobs and checks every
/// response against the direct batch call.
fn check_serve_equivalence(
    backend: Arc<dyn Backend>,
    imgs: &[Tensor],
    replicas: usize,
    max_batch: usize,
    max_delay: Duration,
    seed: u64,
) {
    let direct = backend.infer_batch(imgs);
    let server = Server::start(
        backend,
        ServeConfig { replicas, max_batch, max_delay, queue_capacity: imgs.len().max(1) },
    );
    let h = server.handle();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let tickets: Vec<Ticket> = imgs
        .iter()
        .map(|img| {
            let pr = if rng.gen_bool(0.5) { Priority::Interactive } else { Priority::Batch };
            h.submit(img.clone(), pr, None).expect("a queue with a slot per frame never rejects")
        })
        .collect();
    for (i, t) in tickets.into_iter().enumerate() {
        let resp = t.wait();
        assert_eq!(resp.id, i as u64);
        let pred = resp.result.expect("no deadline, no rejection: must serve");
        assert_bit_identical(&pred, &direct[i]);
    }
    let stats = server.shutdown();
    assert_eq!(stats.served, imgs.len() as u64);
    assert_eq!(stats.rejected + stats.shed_expired, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For any request count, replica count, batch size, batch window, and
    /// priority mix, served predictions are bit-identical to the direct
    /// batch call on the same frames.
    #[test]
    fn serve_matches_direct_inference(
        n in 1usize..20,
        replicas in 1usize..4,
        max_batch in 1usize..6,
        delay_us in 0u64..3000,
        seed in 0u64..1000
    ) {
        check_serve_equivalence(
            Arc::new(Affine),
            &frames(n, seed),
            replicas,
            max_batch,
            Duration::from_micros(delay_us),
            seed ^ 0xA5A5,
        );
    }
}

/// The same property over a real session-backed backend (FP32 reference
/// executor on a randomly-initialised M1 UNet), exercising the
/// `InferenceSession::run_timed` path under the serving layer.
#[test]
fn serve_matches_direct_inference_fp32_ref() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let net = seneca_nn::unet::UNet::from_size(seneca_nn::unet::ModelSize::M1, &mut rng);
    let graph = seneca_nn::graph::Graph::from_unet(&net, "equiv-m1");
    let shape = Shape4::new(1, 1, 32, 32);
    let backend = Fp32RefBackend::new(graph, shape).with_threads(2);

    let imgs: Vec<Tensor> = (0..6)
        .map(|_| {
            Tensor::from_vec(shape, (0..shape.len()).map(|_| rng.gen_range(-1.0..1.0)).collect())
        })
        .collect();
    check_serve_equivalence(Arc::new(backend), &imgs, 2, 3, Duration::from_millis(1), 0xF00D);
}
