//! How the quantizer runs a graph: through the `seneca-ir` executor, lowered
//! once per graph, with one scratch arena reused across images.

use crate::qgraph::QuantizedGraph;
use seneca_ir::{lower, FpScratch, LowerOptions, Lowered, Module, QScratch};
use seneca_tensor::activation::{argmax_channels, argmax_channels_i8};
use seneca_tensor::{QTensorView, Shape4, Tensor, TensorView};

/// A fused FP32 module lowered as given (node ids preserved).
pub(crate) struct FpRunner {
    lowered: Lowered,
    scratch: FpScratch,
}

impl FpRunner {
    pub fn new(fg: &Module, input: Shape4) -> Self {
        // Nothing left for the reference lowering to strip: ids are preserved.
        crate::fuse::assert_fused(fg);
        let lowered = lower(fg.clone(), input, &LowerOptions::reference());
        let scratch = lowered.make_scratch_f32();
        Self { lowered, scratch }
    }

    /// Runs each image of `img` node by node, handing each node's output to
    /// `visit` while it is live (the input node included).
    pub fn for_each_node(&mut self, img: &Tensor, mut visit: impl FnMut(usize, TensorView<'_>)) {
        let image = img.shape().with_n(1);
        for x in img.data().chunks_exact(image.len()) {
            let x = Tensor::from_vec(image, x.to_vec());
            self.lowered.load_input_f32(&x, &mut self.scratch);
            for id in 0..self.lowered.module().nodes.len() {
                self.lowered.execute_node_f32(id, &mut self.scratch);
                visit(id, self.lowered.node_output_f32(id, &self.scratch));
            }
        }
    }

    /// Pre-softmax logits of one image.
    pub fn logits(&mut self, img: &Tensor) -> TensorView<'_> {
        self.lowered.execute_f32_into(img, &mut self.scratch)
    }

    /// Per-pixel argmax labels of each image.
    pub fn labels(fg: &Module, images: &[Tensor]) -> Vec<Vec<u8>> {
        let mut runner = Self::new(fg, images[0].shape());
        images.iter().map(|img| argmax_channels(&runner.logits(img).to_tensor())).collect()
    }
}

/// A quantized graph lowered once.
pub(crate) struct QRunner<'g> {
    qg: &'g QuantizedGraph,
    lowered: Lowered,
    scratch: QScratch,
}

impl<'g> QRunner<'g> {
    pub fn new(qg: &'g QuantizedGraph, input: Shape4) -> Self {
        let lowered = lower(qg.to_ir(), input, &LowerOptions::reference());
        let scratch = lowered.make_scratch_i8();
        Self { qg, lowered, scratch }
    }

    /// Runs nodes `1..=upto` on `img` and returns node `upto`'s output.
    pub fn node_output(&mut self, img: &Tensor, upto: usize) -> QTensorView<'_> {
        self.lowered.load_input_i8(&self.qg.quantize_input(img), &mut self.scratch);
        for id in 1..=upto {
            self.lowered.execute_node_i8(id, &mut self.scratch);
        }
        self.lowered.node_output_i8(upto, &mut self.scratch)
    }

    /// INT8 logits of one image.
    pub fn logits(&mut self, img: &Tensor) -> QTensorView<'_> {
        self.lowered.execute_i8_into(&self.qg.quantize_input(img), &mut self.scratch)
    }

    /// Per-pixel argmax labels of each image.
    pub fn labels(qg: &QuantizedGraph, images: &[Tensor]) -> Vec<Vec<u8>> {
        let mut runner = QRunner::new(qg, images[0].shape());
        images
            .iter()
            .map(|img| {
                let q = runner.logits(img);
                argmax_channels_i8(q.shape(), q.data())
            })
            .collect()
    }
}
