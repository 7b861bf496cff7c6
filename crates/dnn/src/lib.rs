//! DNN substrate for the MAERI reproduction.
//!
//! The paper's evaluation depends on DNN *layer shapes* (AlexNet, VGG-16,
//! ...) and on *weight sparsity fractions*, not on trained parameter
//! values. This crate supplies everything the accelerator models need:
//!
//! * [`Tensor`] — a dense row-major `f32` tensor,
//! * [`layer`] — CONV / FC / POOL / LSTM layer descriptors with output
//!   shape and MAC-count arithmetic,
//! * [`zoo`] — the models from Table 1 of the paper (AlexNet, VGG-16,
//!   GoogLeNet, ResNet-50, DeepSpeech2, Deep Voice) as layer lists,
//! * [`reference`](mod@reference) — straightforward software implementations of each
//!   layer, used as ground truth when validating the functional output
//!   of the cycle-level accelerator simulators,
//! * [`sparsity`] — seeded weight-pruning masks for the sparse
//!   experiments (Figure 13).
//!
//! # Example
//!
//! ```
//! use maeri_dnn::zoo;
//!
//! let alexnet = zoo::alexnet();
//! let convs = alexnet.conv_layers();
//! assert_eq!(convs.len(), 5);
//! assert_eq!(convs[0].kernel_h, 11);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fixed;
pub mod gemm;
pub mod layer;
pub mod reference;
pub mod sparsity;
pub mod tensor;
pub mod zoo;

pub use layer::{ConvLayer, FcLayer, Layer, LstmLayer, PoolLayer};
pub use sparsity::WeightMask;
pub use tensor::Tensor;
pub use zoo::Model;
