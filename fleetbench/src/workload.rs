//! The benchmark's workloads: exact configurations, the reason each was
//! chosen, and the digests they are pinned to at the default seed.

use fleet::test_support::{cli_default_cfg, goldens};
use fleet::{ChurnProfile, FleetConfig, FleetPolicy};

/// The default master seed, at which the goldens below are pinned.
pub const DEFAULT_SEED: u64 = 2017;

/// The population every workload runs: 100k users.
pub const USERS: u64 = 100_000;

/// Shards (in-process) or worker processes (distributed): the host has
/// two CPUs, so every workload keeps at most two busy.
pub const SHARDS: usize = 2;

/// The `live-dag-100k` digest at [`DEFAULT_SEED`] and [`USERS`]; it holds
/// at 1 and 2 shards.
pub const LIVE_DAG_100K: &str = "859791750a5160ba";

/// FNV-1a of the `live-dag-100k` growth table (see
/// [`crate::gate::growth_fingerprint`]) at [`DEFAULT_SEED`]. The crawl
/// depends on the catalog only, not on the user count.
pub const LIVE_DAG_GROWTH: &str = "1d567060f45d58fd";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Poll100k,
    LiveDag100k,
    Dist100k,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Poll100k,
        Workload::LiveDag100k,
        Workload::Dist100k,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Poll100k => "poll-100k",
            Workload::LiveDag100k => "live-dag-100k",
            Workload::Dist100k => "dist-100k",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload is in the benchmark (one line, for BENCHMARK.json).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Poll100k => {
                "the paper's section 4 workload: single-step applets under IFTTT-like polling, \
                 where the poll loop, kernel and service do nearly all the work"
            }
            Workload::LiveDag100k => {
                "Zapier policy with multi-step DAGs, realtime push, accelerated churn and \
                 attribution, then the live crawl: lifecycle writes beside poll reads"
            }
            Workload::Dist100k => {
                "poll-100k's cells over fleet-wire with 2 worker processes: any difference \
                 from poll-100k is process layout plus the wire protocol"
            }
        }
    }

    /// The workload's exact configuration at `users` and `seed`.
    pub fn config(self, users: u64, seed: u64) -> FleetConfig {
        match self {
            Workload::Poll100k | Workload::Dist100k => {
                cli_default_cfg(users, SHARDS).with_seed(seed)
            }
            // Exactly `ifttt-lab fleet --policy zapier --multi-step-share 1.0
            // --realtime-share 0.5 --churn accelerated --attribution`.
            Workload::LiveDag100k => FleetConfig::new(users, SHARDS, FleetPolicy::Zapier)
                .with_seed(seed)
                .with_multi_step_share(1.0)
                .with_realtime_share(0.5)
                .with_churn(ChurnProfile::Accelerated)
                .with_attribution(true),
        }
    }

    /// Whether the workload runs across worker processes.
    pub fn distributed(self) -> bool {
        self == Workload::Dist100k
    }

    /// The pinned digest for `(users, seed)`, when there is one.
    pub fn golden(self, users: u64, seed: u64) -> Option<&'static str> {
        if users != USERS || seed != DEFAULT_SEED {
            return None;
        }
        Some(match self {
            Workload::Poll100k | Workload::Dist100k => goldens::CLI_100K,
            Workload::LiveDag100k => LIVE_DAG_100K,
        })
    }

    /// The pinned growth-table fingerprint for `seed`, when there is one.
    pub fn growth_golden(self, seed: u64) -> Option<&'static str> {
        (self == Workload::LiveDag100k && seed == DEFAULT_SEED).then_some(LIVE_DAG_GROWTH)
    }
}
