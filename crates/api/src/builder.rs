//! The fluent [`OverlayBuilder`]: one construction path for every engine.

use crate::async_engine::AsyncEngine;
use crate::overlay::Overlay;
use crate::sync_engine::SyncEngine;
use voronet_core::{DminRule, VoroNetConfig};
use voronet_geom::Rect;
use voronet_sim::NetworkModel;

/// Which engine a built overlay runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The synchronous in-process engine ([`SyncEngine`]).
    #[default]
    Sync,
    /// The message-driven per-node runtime ([`AsyncEngine`]).
    Async,
}

/// Fluent construction of an overlay on any engine.
///
/// Collects the protocol parameters (provisioned population `N_max`, seed,
/// long-link count, `d_min` rule, attribute domain), the simulated network
/// conditions (used by the asynchronous engine) and the engine selection,
/// then builds a typed engine or a boxed [`Overlay`].
///
/// ```
/// use voronet_api::{EngineKind, Overlay, OverlayBuilder};
/// use voronet_geom::Point2;
///
/// let mut net = OverlayBuilder::new(1_000).seed(7).build_sync();
/// let a = net.insert(Point2::new(0.1, 0.2)).unwrap().id;
/// let b = net.insert(Point2::new(0.8, 0.9)).unwrap().id;
/// assert_eq!(net.route_between(a, b).unwrap().owner, b);
///
/// // The same construction path yields a boxed, engine-agnostic overlay.
/// let boxed: Box<dyn Overlay> = OverlayBuilder::new(1_000)
///     .seed(7)
///     .engine(EngineKind::Async)
///     .build();
/// assert!(boxed.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct OverlayBuilder {
    config: VoroNetConfig,
    network: NetworkModel,
    engine: EngineKind,
}

impl OverlayBuilder {
    /// Starts a builder for an overlay provisioned for up to `nmax`
    /// objects, with the paper's defaults (one long link, literal `d_min`
    /// rule, unit-square domain), an ideal network and the synchronous
    /// engine.
    pub fn new(nmax: usize) -> Self {
        OverlayBuilder {
            config: VoroNetConfig::new(nmax),
            network: NetworkModel::ideal(),
            engine: EngineKind::Sync,
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

    /// Sets the `d_min` derivation rule.
    pub fn dmin_rule(mut self, rule: DminRule) -> Self {
        self.config = self.config.with_dmin_rule(rule);
        self
    }

    /// Sets the attribute-space domain.
    pub fn domain(mut self, domain: Rect) -> Self {
        self.config.domain = domain;
        self
    }

    /// Sets the simulated network conditions (latency, loss, partitions).
    /// Only the asynchronous engine routes messages through the network;
    /// the synchronous engine ignores it.
    pub fn network(mut self, network: NetworkModel) -> Self {
        self.network = network;
        self
    }

    /// Selects the engine.
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Shorthand for `engine(EngineKind::Async)`.
    pub fn asynchronous(self) -> Self {
        self.engine(EngineKind::Async)
    }

    /// Accepted and ignored: both engines run on the calling thread.
    /// Kept because the benchmark calls it.
    pub fn worker_threads(self, _threads: usize) -> Self {
        self
    }

    /// The configuration the built overlay will use.
    pub fn config(&self) -> VoroNetConfig {
        self.config
    }

    /// Builds the synchronous engine, regardless of the selected
    /// [`EngineKind`].
    pub fn build_sync(&self) -> SyncEngine {
        SyncEngine::new(self.config)
    }

    /// Builds the asynchronous engine, regardless of the selected
    /// [`EngineKind`].
    pub fn build_async(&self) -> AsyncEngine {
        AsyncEngine::new(self.config, self.network.clone())
    }

    /// Builds the selected engine behind the backend-agnostic trait.
    pub fn build(&self) -> Box<dyn Overlay> {
        match self.engine {
            EngineKind::Sync => Box::new(self.build_sync()),
            EngineKind::Async => Box::new(self.build_async()),
        }
    }
}
