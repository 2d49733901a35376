//! Model assemblies used in the paper's experiments.
//!
//! * [`Backbone`] — a small ResNet-style CNN standing in for the paper's
//!   ImageNet-pretrained ResNet-50 (see DESIGN.md §2 for the substitution
//!   rationale). It exposes per-stage **taps** that feed the Rep-Net path
//!   and can be magnitude-pruned to an N:M pattern for the
//!   `backbone@upstream` column of Table 1.
//! * [`RepNet`] — the continual-learning architecture: frozen backbone +
//!   tiny learnable reprogramming modules (pool + 3×3 conv + 1×1 conv each,
//!   joined through 1×1 activation connectors) + shared classifier.

mod backbone;
mod pretrain;
mod repnet;

pub use backbone::{
    Backbone, BackboneConfig, BackboneOutput, BackboneScratch, ConvBnRelu, FrozenBackbone,
    ResidualBlock,
};
pub use pretrain::PretrainNet;
pub use repnet::{RepNet, RepNetConfig, RepNetModule};
