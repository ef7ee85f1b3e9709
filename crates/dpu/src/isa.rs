//! The DPU instruction set.
//!
//! Mirrors the public structure of DPUCZDX8G microcode: LOAD/SAVE move
//! feature maps and weights between DDR and the on-chip memory pool; CONV
//! drives the hybrid computing array; POOL and ELEW run on the misc engine.
//! Each instruction carries the geometry the cost model needs plus the id of
//! the quantized-graph node it implements (for functional execution).

use seneca_quant::Bitwidth;
use serde::{Deserialize, Serialize};

/// One DPU instruction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DpuInstr {
    /// DMA feature map or weights from DDR into on-chip memory.
    Load {
        /// What is being loaded (for listings).
        what: LoadKind,
        /// Bytes moved (already channel-padded).
        bytes: u64,
        /// Channel count is misaligned w.r.t. ICP (costs extra bandwidth).
        misaligned: bool,
    },
    /// DMA a result back to DDR.
    Save {
        /// Bytes moved.
        bytes: u64,
        /// Misaligned channel count.
        misaligned: bool,
    },
    /// Convolution (3x3 stride 1 or transpose 2x2 stride 2) on the array.
    Conv {
        /// Quantized-graph node this implements.
        node: usize,
        /// Output height.
        h: usize,
        /// Output width (pre-pixel-parallel).
        w: usize,
        /// Input channels.
        c_in: usize,
        /// Output channels.
        c_out: usize,
        /// Kernel size.
        k: usize,
        /// Transpose convolution flag (changes the effective output grid).
        transpose: bool,
        /// ReLU fused on the write-back path (free).
        relu: bool,
        /// Weight bitwidth: W4 layers stream nibble-packed weights and run
        /// with doubled output-channel parallelism on the array.
        wbits: Bitwidth,
    },
    /// 2x2 max pool on the misc engine.
    Pool {
        /// Quantized-graph node.
        node: usize,
        /// Output height.
        h: usize,
        /// Output width.
        w: usize,
        /// Channels.
        c: usize,
    },
    /// Element-wise engine: channel concat of two inputs at one fix position.
    Elew {
        /// Quantized-graph node.
        node: usize,
        /// Total elements moved.
        elems: u64,
    },
    /// End of kernel.
    End,
}

/// What a LOAD moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoadKind {
    /// Input feature map of a layer.
    FeatureMap,
    /// Layer weights + bias.
    Weights,
    /// The network input image.
    Image,
}

impl DpuInstr {
    /// Disassembly mnemonic.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            DpuInstr::Load { .. } => "LOAD",
            DpuInstr::Save { .. } => "SAVE",
            DpuInstr::Conv { transpose: false, .. } => "CONV",
            DpuInstr::Conv { transpose: true, .. } => "DCONV",
            DpuInstr::Pool { .. } => "POOL",
            DpuInstr::Elew { .. } => "ELEW",
            DpuInstr::End => "END",
        }
    }

    /// Full one-line disassembly.
    pub fn disassemble(&self) -> String {
        match self {
            DpuInstr::Load { what, bytes, misaligned } => format!(
                "LOAD  {:11} {:>9} B{}",
                format!("{what:?}"),
                bytes,
                if *misaligned { "  [misaligned]" } else { "" }
            ),
            DpuInstr::Save { bytes, misaligned } => format!(
                "SAVE  {:11} {:>9} B{}",
                "FeatureMap",
                bytes,
                if *misaligned { "  [misaligned]" } else { "" }
            ),
            DpuInstr::Conv { node, h, w, c_in, c_out, k, transpose, relu, wbits } => format!(
                "{:5} n{node:<3} {h}x{w} {c_in}->{c_out} k{k}{}{}",
                if *transpose { "DCONV" } else { "CONV" },
                if *relu { " +relu" } else { "" },
                if *wbits == Bitwidth::W4 { " w4" } else { "" }
            ),
            DpuInstr::Pool { node, h, w, c } => format!("POOL  n{node:<3} {h}x{w} c{c}"),
            DpuInstr::Elew { node, elems } => format!("ELEW  n{node:<3} {elems} elems"),
            DpuInstr::End => "END".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonics() {
        assert_eq!(
            DpuInstr::Conv {
                node: 1,
                h: 4,
                w: 4,
                c_in: 3,
                c_out: 8,
                k: 3,
                transpose: false,
                relu: true,
                wbits: Bitwidth::W8,
            }
            .mnemonic(),
            "CONV"
        );
        assert_eq!(
            DpuInstr::Conv {
                node: 1,
                h: 4,
                w: 4,
                c_in: 3,
                c_out: 8,
                k: 2,
                transpose: true,
                relu: false,
                wbits: Bitwidth::W8,
            }
            .mnemonic(),
            "DCONV"
        );
        assert_eq!(DpuInstr::End.mnemonic(), "END");
    }

    #[test]
    fn disassembly_contains_geometry() {
        let i = DpuInstr::Conv {
            node: 7,
            h: 64,
            w: 64,
            c_in: 16,
            c_out: 32,
            k: 3,
            transpose: false,
            relu: true,
            wbits: Bitwidth::W8,
        };
        let d = i.disassemble();
        assert!(d.contains("n7"));
        assert!(d.contains("16->32"));
        assert!(d.contains("+relu"));
    }

    #[test]
    fn serde_roundtrip() {
        let i = DpuInstr::Load { what: LoadKind::Weights, bytes: 4096, misaligned: true };
        let j = serde_json::to_string(&i).unwrap();
        let i2: DpuInstr = serde_json::from_str(&j).unwrap();
        assert_eq!(i, i2);
    }
}
