//! The fluent [`OverlayBuilder`]: the protocol parameters of an overlay.

use crate::sync_engine::SyncEngine;
use voronet_core::VoroNetConfig;
use voronet_geom::Rect;

/// Fluent construction of the protocol parameters: provisioned
/// population `N_max` (which fixes `d_min`), seed, long-link count and
/// attribute domain.  [`OverlayBuilder::build_sync`] builds the synchronous engine;
/// [`OverlayBuilder::config`] hands the same parameters to any other
/// engine (`voronet_net::InlineCluster::start` takes a config).
///
/// ```
/// use voronet_api::{Overlay, OverlayBuilder};
/// use voronet_geom::Point2;
///
/// let mut net = OverlayBuilder::new(1_000).seed(7).build_sync();
/// let a = net.insert(Point2::new(0.1, 0.2)).unwrap().id;
/// let b = net.insert(Point2::new(0.8, 0.9)).unwrap().id;
/// assert_eq!(net.route_between(a, b).unwrap().owner, b);
/// ```
#[derive(Debug, Clone)]
pub struct OverlayBuilder {
    config: VoroNetConfig,
}

impl OverlayBuilder {
    /// Starts a builder for an overlay provisioned for up to `nmax`
    /// objects, with the paper's defaults (one long link, literal `d_min`
    /// rule, unit-square domain).
    pub fn new(nmax: usize) -> Self {
        OverlayBuilder {
            config: VoroNetConfig::new(nmax),
        }
    }

    /// Sets the seed of every stochastic choice the overlay makes.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config = self.config.with_seed(seed);
        self
    }

    /// Sets the number of long-range links per object.
    pub fn long_links(mut self, k: usize) -> Self {
        self.config = self.config.with_long_links(k);
        self
    }

    /// Sets the attribute-space domain.
    pub fn domain(mut self, domain: Rect) -> Self {
        self.config.domain = domain;
        self
    }

    /// Accepted and ignored: the engine runs on the calling thread.  Kept
    /// because the benchmark calls it.
    pub fn worker_threads(self, _threads: usize) -> Self {
        self
    }

    /// The configuration the built overlay will use.
    pub fn config(&self) -> VoroNetConfig {
        self.config
    }

    /// Builds the synchronous engine.
    pub fn build_sync(&self) -> SyncEngine {
        SyncEngine::new(self.config)
    }
}
