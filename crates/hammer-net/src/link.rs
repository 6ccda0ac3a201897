//! The link preset [`SimNetwork::new`](crate::SimNetwork::new) takes.
//!
//! No link is modelled: the simulated chains replicate nothing, so there
//! is no delay to wait out, no bandwidth to share and no loss to sample.
//! [`LinkConfig`] carries no field. It stays, like
//! `SimNetwork::shutdown_and_join`, only because the frozen benchmark
//! package passes `LinkConfig::lan()` to `SimNetwork::new`.

/// The quality of the simulated links: none is modelled (see the module
/// docs).
#[derive(Clone, Copy, Debug)]
pub struct LinkConfig;

impl LinkConfig {
    /// The one preset, which every caller passes.
    pub fn lan() -> Self {
        LinkConfig
    }
}
