//! Neural layers: fully-connected, GRU, Chebyshev graph convolution and the
//! graph-convolutional GRU (the paper's CNRNN cell), plus the
//! sequence-to-sequence drivers used by the forecasting stage.

mod attention;
mod cheby;
mod gcgru;
mod gru;
mod linear;
mod seq2seq;

pub use attention::AttnGruSeq2Seq;
pub use cheby::{csr_propagate, ChebyConv, ChebyPool};
pub use gcgru::GcGruCell;
pub use gru::GruCell;
pub use linear::Linear;
pub use seq2seq::{GcGruSeq2Seq, GruSeq2Seq};
