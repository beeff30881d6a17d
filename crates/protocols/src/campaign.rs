//! Replicated simulation campaigns.
//!
//! A single simulated session is one random sample; the paper's simulation
//! curves (Figures 11–12) are means over many independent replications with
//! 95% confidence intervals.  [`Campaign`] and [`MultiHopCampaign`] describe
//! *what* to replicate; the scheduling itself — serial or fanned out across
//! OS threads — is delegated to `simcore`'s [`ReplicationEngine`], the one
//! implementation of replication fan-out in the workspace.  Results are
//! bit-identical under every [`ExecutionPolicy`] because each replication
//! derives its RNG stream from the campaign seed and its index.

use crate::config::{MultiHopSimConfig, SessionConfig};
use crate::metrics::{MessageCounts, MultiHopRunMetrics, SessionMetrics};
use crate::multi_hop::MultiHopSession;
use crate::single_hop::SingleHopSession;
use sigstats::{OnlineStats, RatioEstimator, Summary};
use simcore::{ExecutionPolicy, Replicate, ReplicationEngine, SimRng};

/// Aggregated results of a single-hop campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Number of replications.
    pub replications: usize,
    /// Long-run inconsistency ratio, estimated with the regenerative
    /// (renewal-reward) estimator `Σ inconsistent time / Σ receiver lifetime`
    /// and a delta-method 95% confidence interval.
    pub inconsistency: Summary,
    /// Plain mean of the per-session inconsistency ratios (each session
    /// weighted equally).  Biased toward short sessions; kept for diagnostics
    /// and for contrasting the two estimators.
    pub per_session_inconsistency: Summary,
    /// Summary of the per-session normalized message rate `Λ·λ_r`.
    pub normalized_message_rate: Summary,
    /// Summary of the per-session receiver-side lifetime.
    pub receiver_lifetime: Summary,
    /// Summary of the per-session sender lifetime (a check that the workload
    /// generator matches `1/λ_r`).
    pub sender_lifetime: Summary,
    /// Total messages sent across all replications, by kind.
    pub messages: MessageCounts,
    /// Total number of false removals observed.
    pub false_removals: u64,
}

/// A single-hop simulation campaign: one configuration, many replications.
#[derive(Debug, Clone)]
pub struct Campaign {
    config: SessionConfig,
    replications: usize,
    seed: u64,
    policy: ExecutionPolicy,
}

/// One single-hop replication, as seen by the [`ReplicationEngine`].
struct SingleHopReplicate<'a> {
    config: &'a SessionConfig,
    seed: u64,
}

impl Replicate for SingleHopReplicate<'_> {
    type Output = SessionMetrics;

    fn replicate(&self, index: u64) -> SessionMetrics {
        let mut rng = SimRng::for_replication(self.seed, index);
        SingleHopSession::run(self.config, &mut rng)
    }
}

impl Campaign {
    /// Creates a campaign with the given number of replications.
    pub fn new(config: SessionConfig, replications: usize, seed: u64) -> Self {
        Self {
            config,
            replications: replications.max(1),
            seed,
            policy: ExecutionPolicy::Serial,
        }
    }

    /// Sets the execution policy for the replication fan-out.
    pub fn execution(mut self, policy: ExecutionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The configuration being replicated.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Runs every replication and aggregates the results.
    pub fn run(&self) -> CampaignResult {
        let task = SingleHopReplicate {
            config: &self.config,
            seed: self.seed,
        };
        let metrics = ReplicationEngine::new(self.policy).run(self.replications, &task);
        self.aggregate(&metrics)
    }

    fn aggregate(&self, metrics: &[SessionMetrics]) -> CampaignResult {
        let mut inconsistency = RatioEstimator::new();
        let mut per_session = OnlineStats::new();
        let mut normalized = OnlineStats::new();
        let mut receiver_lifetime = OnlineStats::new();
        let mut sender_lifetime = OnlineStats::new();
        let mut messages = MessageCounts::default();
        let mut false_removals = 0u64;
        for m in metrics {
            inconsistency.push(m.receiver_lifetime, m.inconsistent_time);
            per_session.push(m.inconsistency);
            normalized.push(m.normalized_message_rate(self.config.params.removal_rate));
            receiver_lifetime.push(m.receiver_lifetime);
            sender_lifetime.push(m.sender_lifetime);
            messages.merge(&m.messages);
            false_removals += m.false_removals;
        }
        CampaignResult {
            replications: metrics.len(),
            inconsistency: inconsistency.to_summary(),
            per_session_inconsistency: Summary::from_stats(&per_session),
            normalized_message_rate: Summary::from_stats(&normalized),
            receiver_lifetime: Summary::from_stats(&receiver_lifetime),
            sender_lifetime: Summary::from_stats(&sender_lifetime),
            messages,
            false_removals,
        }
    }
}

/// Aggregated results of a multi-hop campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiHopCampaignResult {
    /// Number of replications.
    pub replications: usize,
    /// Summary of the end-to-end inconsistency across replications.
    pub end_to_end_inconsistency: Summary,
    /// Per-hop mean inconsistency (index 0 = hop 1).
    pub per_hop_inconsistency: Vec<Summary>,
    /// Summary of the per-replication signaling message rate.
    pub message_rate: Summary,
    /// Total messages across replications.
    pub messages: MessageCounts,
}

/// A multi-hop simulation campaign.
#[derive(Debug, Clone)]
pub struct MultiHopCampaign {
    config: MultiHopSimConfig,
    replications: usize,
    seed: u64,
    policy: ExecutionPolicy,
}

/// One multi-hop replication, as seen by the [`ReplicationEngine`].
struct MultiHopReplicate<'a> {
    config: &'a MultiHopSimConfig,
    seed: u64,
}

impl Replicate for MultiHopReplicate<'_> {
    type Output = MultiHopRunMetrics;

    fn replicate(&self, index: u64) -> MultiHopRunMetrics {
        let mut rng = SimRng::for_replication(self.seed, index);
        MultiHopSession::run(self.config, &mut rng)
    }
}

impl MultiHopCampaign {
    /// Creates a campaign with the given number of replications.
    pub fn new(config: MultiHopSimConfig, replications: usize, seed: u64) -> Self {
        Self {
            config,
            replications: replications.max(1),
            seed,
            policy: ExecutionPolicy::Serial,
        }
    }

    /// Sets the execution policy for the replication fan-out.
    pub fn execution(mut self, policy: ExecutionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Runs every replication and aggregates the results.
    pub fn run(&self) -> MultiHopCampaignResult {
        let task = MultiHopReplicate {
            config: &self.config,
            seed: self.seed,
        };
        let runs = ReplicationEngine::new(self.policy).run(self.replications, &task);
        let k = self.config.params.hops;
        let mut end_to_end = OnlineStats::new();
        let mut rate = OnlineStats::new();
        let mut per_hop: Vec<OnlineStats> = vec![OnlineStats::new(); k];
        let mut messages = MessageCounts::default();
        for r in &runs {
            end_to_end.push(r.end_to_end_inconsistency);
            rate.push(r.message_rate);
            for (i, v) in r.per_hop_inconsistency.iter().enumerate() {
                per_hop[i].push(*v);
            }
            messages.merge(&r.messages);
        }
        MultiHopCampaignResult {
            replications: runs.len(),
            end_to_end_inconsistency: Summary::from_stats(&end_to_end),
            per_hop_inconsistency: per_hop.iter().map(Summary::from_stats).collect(),
            message_rate: Summary::from_stats(&rate),
            messages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siganalytic::{MultiHopParams, ProtocolSpec, SingleHopParams};

    fn quick_config(protocol: ProtocolSpec) -> SessionConfig {
        SessionConfig::deterministic(
            protocol,
            SingleHopParams::kazaa_defaults()
                .with_mean_lifetime(60.0)
                .with_mean_update_interval(20.0),
        )
    }

    #[test]
    fn campaign_aggregates_replications() {
        let result = Campaign::new(quick_config(ProtocolSpec::SS_ER), 50, 1).run();
        assert_eq!(result.replications, 50);
        assert_eq!(result.inconsistency.count, 50);
        assert!(result.inconsistency.mean >= 0.0);
        assert!(result.messages.signaling_total() > 0);
        // Sender lifetimes should average near 60 s (within wide sampling
        // noise for 50 exponential samples).
        assert!(result.sender_lifetime.mean > 30.0 && result.sender_lifetime.mean < 110.0);
    }

    #[test]
    fn campaign_is_reproducible_for_fixed_seed() {
        let a = Campaign::new(quick_config(ProtocolSpec::SS), 20, 7).run();
        let b = Campaign::new(quick_config(ProtocolSpec::SS), 20, 7).run();
        assert_eq!(a, b);
        let c = Campaign::new(quick_config(ProtocolSpec::SS), 20, 8).run();
        assert_ne!(a, c);
    }

    #[test]
    fn parallel_and_serial_agree() {
        let serial = Campaign::new(quick_config(ProtocolSpec::SS_RTR), 24, 3).run();
        let parallel = Campaign::new(quick_config(ProtocolSpec::SS_RTR), 24, 3)
            .execution(ExecutionPolicy::auto())
            .run();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn every_execution_policy_is_bit_identical() {
        // The engine contract: same seed ⇒ the same `CampaignResult`, bit
        // for bit, no matter how replications are scheduled.
        let serial = Campaign::new(quick_config(ProtocolSpec::SS_ER), 30, 17)
            .execution(ExecutionPolicy::Serial)
            .run();
        for n in [2, 3, 7, 16] {
            let threaded = Campaign::new(quick_config(ProtocolSpec::SS_ER), 30, 17)
                .execution(ExecutionPolicy::threads(n))
                .run();
            assert_eq!(serial, threaded, "Threads({n}) diverged from Serial");
        }
    }

    #[test]
    fn multi_hop_execution_policies_agree() {
        let cfg = MultiHopSimConfig::deterministic(
            ProtocolSpec::SS_RT,
            MultiHopParams::reservation_defaults().with_hops(3),
        )
        .with_horizon(300.0);
        let serial = MultiHopCampaign::new(cfg, 8, 5).run();
        let threaded = MultiHopCampaign::new(cfg, 8, 5)
            .execution(ExecutionPolicy::threads(4))
            .run();
        assert_eq!(serial, threaded);
    }

    #[test]
    fn zero_replications_clamps_to_one() {
        let result = Campaign::new(quick_config(ProtocolSpec::HS), 0, 1).run();
        assert_eq!(result.replications, 1);
    }

    #[test]
    fn multi_hop_campaign_aggregates() {
        let cfg = MultiHopSimConfig::deterministic(
            ProtocolSpec::SS,
            MultiHopParams::reservation_defaults().with_hops(4),
        )
        .with_horizon(400.0);
        let result = MultiHopCampaign::new(cfg, 5, 11).run();
        assert_eq!(result.replications, 5);
        assert_eq!(result.per_hop_inconsistency.len(), 4);
        assert!(result.message_rate.mean > 0.0);
        assert!(result.end_to_end_inconsistency.mean >= 0.0);
    }
}
