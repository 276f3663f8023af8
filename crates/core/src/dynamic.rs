//! Dynamic re-provisioning of `N_max` (the paper's second "perspective").
//!
//! VoroNet's routing bound and close-neighbour radius are expressed in terms
//! of `N_max`, the maximum number of objects the overlay was provisioned
//! for.  The paper sketches how to lift this static limit: a background
//! process estimates the current population and, when a threshold is
//! reached, increases `N_max` by a constant factor; objects then refresh
//! their long-range links for the new `d_min` — either all of them
//! (expensive during bootstrap) or only those whose close neighbourhood has
//! become too dense.
//!
//! This module implements both strategies on top of
//! [`VoroNet::set_nmax`], [`VoroNet::prune_close_neighbours`] and
//! [`VoroNet::refresh_long_links`].  The population "estimator" is the exact
//! object count — a gossip-based estimator would plug in at the same place
//! and only changes *when* adaptation triggers, not what it does.

use crate::error::VoronetError;
use crate::object::ObjectId;
use crate::overlay::VoroNet;

/// Which objects refresh their long-range links after `N_max` grows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshStrategy {
    /// Every object redraws its long links (the paper's first, heavyweight
    /// option).
    Full,
    /// Only objects whose close neighbourhood exceeds the given size redraw
    /// their links (the paper's refined option: "update only the objects
    /// whose neighbourhood is too dense").
    DenseOnly {
        /// Close-neighbourhood size above which an object refreshes.
        max_close_neighbours: usize,
    },
}

/// Policy driving [`adapt_nmax`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptationPolicy {
    /// Population fraction of `N_max` at which adaptation triggers
    /// (the paper suggests "a threshold"; 1.0 means "when full").
    pub trigger_fraction: f64,
    /// Multiplicative head-room added to `N_max` when adapting.
    pub growth_factor: usize,
    /// Who refreshes their long links afterwards.
    pub strategy: RefreshStrategy,
}

impl Default for AdaptationPolicy {
    fn default() -> Self {
        AdaptationPolicy {
            trigger_fraction: 1.0,
            growth_factor: 4,
            strategy: RefreshStrategy::DenseOnly {
                max_close_neighbours: 8,
            },
        }
    }
}

/// Outcome of one adaptation round.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptationReport {
    /// `N_max` before adaptation.
    pub old_nmax: usize,
    /// `N_max` after adaptation.
    pub new_nmax: usize,
    /// Close-neighbour pairs dropped by the `d_min` shrink.
    pub pruned_pairs: usize,
    /// Objects that redrew their long-range links.
    pub refreshed_objects: usize,
    /// Routing hops spent re-establishing links.
    pub refresh_hops: u64,
}

/// Current population estimate used to decide whether to adapt.  Stands in
/// for the paper's background estimation process.
fn estimate_population(net: &VoroNet) -> usize {
    net.len()
}

/// Returns `true` when the policy says the overlay should be re-provisioned.
pub fn needs_adaptation(net: &VoroNet, policy: &AdaptationPolicy) -> bool {
    let nmax = net.config().nmax as f64;
    estimate_population(net) as f64 >= policy.trigger_fraction * nmax
}

/// Performs one adaptation round if the policy triggers: grows `N_max`,
/// prunes close neighbourhoods to the new `d_min` and refreshes long-range
/// links according to the strategy.  Returns `None` when no adaptation was
/// needed.
pub fn adapt_nmax(
    net: &mut VoroNet,
    policy: &AdaptationPolicy,
) -> Result<Option<AdaptationReport>, VoronetError> {
    if !needs_adaptation(net, policy) {
        return Ok(None);
    }
    let old_nmax = net.config().nmax;
    let new_nmax = old_nmax.saturating_mul(policy.growth_factor.max(2));
    net.set_nmax(new_nmax);
    let pruned_pairs = net.prune_close_neighbours();

    let to_refresh: Vec<ObjectId> = match policy.strategy {
        RefreshStrategy::Full => net.ids().collect(),
        RefreshStrategy::DenseOnly {
            max_close_neighbours,
        } => net
            .ids()
            .collect::<Vec<_>>()
            .into_iter()
            .filter(|&id| {
                net.close_neighbours(id)
                    .map(|c| c.len() > max_close_neighbours)
                    .unwrap_or(false)
            })
            .collect(),
    };
    let mut refresh_hops = 0u64;
    for &id in &to_refresh {
        refresh_hops += net.refresh_long_links(id)? as u64;
    }
    Ok(Some(AdaptationReport {
        old_nmax,
        new_nmax,
        pruned_pairs,
        refreshed_objects: to_refresh.len(),
        refresh_hops,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DminRule, VoroNetConfig};
    use crate::overlay::build_overlay;
    use voronet_workloads::Distribution;

    #[test]
    fn no_adaptation_below_threshold() {
        let cfg = VoroNetConfig::new(1_000).with_seed(1);
        let (mut net, _) = build_overlay(Distribution::Uniform, 100, cfg);
        let report = adapt_nmax(&mut net, &AdaptationPolicy::default()).unwrap();
        assert!(report.is_none());
        assert_eq!(net.config().nmax, 1_000);
    }

    #[test]
    fn adaptation_grows_nmax_and_keeps_invariants() {
        // Deliberately under-provision: 300 objects in an overlay sized for
        // 60, with the large (analysis) d_min so that close sets are fat and
        // pruning actually has work to do.
        let cfg = VoroNetConfig::new(60)
            .with_seed(3)
            .with_dmin_rule(DminRule::Analysis);
        let (mut net, ids) = build_overlay(Distribution::Uniform, 300, cfg);
        let fat_close: usize = ids
            .iter()
            .map(|&id| net.close_neighbours(id).unwrap().len())
            .sum();
        assert!(
            fat_close > 0,
            "under-provisioned overlay should have close pairs"
        );

        let policy = AdaptationPolicy {
            trigger_fraction: 1.0,
            growth_factor: 8,
            strategy: RefreshStrategy::Full,
        };
        assert!(needs_adaptation(&net, &policy));
        let report = adapt_nmax(&mut net, &policy).unwrap().unwrap();
        assert_eq!(report.old_nmax, 60);
        assert_eq!(report.new_nmax, 480);
        assert_eq!(report.refreshed_objects, 300);
        assert_eq!(net.config().nmax, 480);

        // After adaptation every invariant (close sets exact for the *new*
        // d_min, long links owned, back links mirrored) must hold.
        net.check_invariants(true).unwrap();

        let thin_close: usize = ids
            .iter()
            .map(|&id| net.close_neighbours(id).unwrap().len())
            .sum();
        assert!(
            thin_close <= fat_close,
            "pruning must not grow close sets ({fat_close} -> {thin_close})"
        );
    }

    #[test]
    fn dense_only_strategy_refreshes_fewer_objects() {
        let cfg = VoroNetConfig::new(100)
            .with_seed(5)
            .with_dmin_rule(DminRule::Analysis);
        let (mut net_full, _) = build_overlay(Distribution::Uniform, 200, cfg);
        let (mut net_dense, _) = build_overlay(Distribution::Uniform, 200, cfg);

        let full = adapt_nmax(
            &mut net_full,
            &AdaptationPolicy {
                strategy: RefreshStrategy::Full,
                ..AdaptationPolicy::default()
            },
        )
        .unwrap()
        .unwrap();
        let dense = adapt_nmax(
            &mut net_dense,
            &AdaptationPolicy {
                strategy: RefreshStrategy::DenseOnly {
                    max_close_neighbours: 2,
                },
                ..AdaptationPolicy::default()
            },
        )
        .unwrap()
        .unwrap();
        assert_eq!(full.refreshed_objects, 200);
        assert!(dense.refreshed_objects < full.refreshed_objects);
        net_full.check_invariants(true).unwrap();
        net_dense.check_invariants(true).unwrap();
    }

    #[test]
    fn routing_still_exact_after_adaptation() {
        let cfg = VoroNetConfig::new(80).with_seed(7);
        let (mut net, ids) = build_overlay(Distribution::PowerLaw { alpha: 2.0 }, 250, cfg);
        adapt_nmax(&mut net, &AdaptationPolicy::default())
            .unwrap()
            .unwrap();
        let mut qg = voronet_workloads::QueryGenerator::new(9);
        for _ in 0..100 {
            let target = qg.point();
            let from = ids[qg.object_index(ids.len())];
            let expected = net.owner_of(target).unwrap();
            assert_eq!(net.route_to_point(from, target).unwrap().owner, expected);
        }
    }

    #[test]
    fn repeated_adaptation_is_idempotent_once_provisioned() {
        let cfg = VoroNetConfig::new(50).with_seed(11);
        let (mut net, _) = build_overlay(Distribution::Uniform, 120, cfg);
        let first = adapt_nmax(&mut net, &AdaptationPolicy::default()).unwrap();
        assert!(first.is_some());
        // 120 objects, nmax now 200: no further adaptation needed.
        let second = adapt_nmax(&mut net, &AdaptationPolicy::default()).unwrap();
        assert!(second.is_none());
    }
}
