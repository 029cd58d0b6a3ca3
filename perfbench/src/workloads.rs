//! The three workloads, their pinned answers and how each is set up.
//!
//! The specs are fixed: the seed never changes what is checked, only the
//! order of runs and the replay sample, so every counter below is an exact
//! known answer. Every workload's pinned verdict is "verified".

use std::path::Path;

use mp_checker::{
    CheckerConfig, CheckpointConfig, NullObserver, Property, RunReport, StatsCounters, StoreConfig,
};
use mp_faults::{FaultBudget, FaultLocal, LiftedObserver};
use mp_model::ProtocolSpec;
use mp_protocols::paxos::{self, PaxosMessage, PaxosSetting, PaxosState, PaxosVariant};
use mp_protocols::storage::{
    self, RegularityObserver, StorageMessage, StorageSetting, StorageState,
};
use mp_store::FrontierConfig;
use mp_symmetry::RoleMap;

use crate::spans::Spans;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaxosBfs,
    StorageOoc,
    StorageLiveness,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaxosBfs,
        Workload::StorageOoc,
        Workload::StorageLiveness,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaxosBfs => "paxos-bfs",
            Workload::StorageOoc => "storage-ooc",
            Workload::StorageLiveness => "storage-liveness",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// For the workload that runs on the worker pool: the same
    /// configuration on the sequential engine, the baseline its speed is
    /// quoted against. The argument is as for [`Def::config`].
    pub fn sequential(self) -> Option<fn(&Path) -> CheckerConfig> {
        match self {
            Workload::StorageOoc => Some(|dir| out_of_core(CheckerConfig::stateful_bfs(), dir)),
            _ => None,
        }
    }

    /// For the workload that has one, its symmetric twin: the roles under
    /// which the same spec is checked up to symmetry, and the pinned
    /// counters of that run.
    pub fn symmetric(self) -> Option<(fn() -> RoleMap, StatsCounters)> {
        match self {
            Workload::PaxosBfs => Some((
                || paxos::symmetry_roles(paxos_setting()),
                counters(11_504, 11_504, 46_781, 35_278, 23),
            )),
            _ => None,
        }
    }

    /// The deterministic counters every run of this workload must
    /// reproduce, besides a verified verdict.
    pub fn pinned(self) -> StatsCounters {
        match self {
            Workload::PaxosBfs => counters(196_297, 196_297, 787_452, 591_156, 23),
            Workload::StorageOoc => counters(94_851, 94_851, 379_438, 284_588, 17),
            Workload::StorageLiveness => counters(30_360, 29_658, 123_083, 92_724, 16),
        }
    }
}

fn counters(
    states: usize,
    expansions: usize,
    transitions_executed: usize,
    revisits: usize,
    max_depth: usize,
) -> StatsCounters {
    StatsCounters {
        states,
        expansions,
        transitions_executed,
        revisits,
        reduced_states: 0,
        proviso_expansions: 0,
        max_depth,
    }
}

/// `Ok` when `report` is the pinned answer: a verified verdict and the
/// `pinned` counters. A counterexample or a `LimitReached` verdict is a
/// wrong answer too. `what` names the run in the error.
pub fn check(what: &str, pinned: &StatsCounters, report: &RunReport) -> Result<(), String> {
    let counters = report.stats.counters();
    if !report.verdict.is_verified() || counters != *pinned {
        return Err(format!(
            "{what}: got {} {counters:?}, pinned verified {pinned:?}",
            report.verdict
        ));
    }
    Ok(())
}

/// How to build one workload. Everything a run needs beyond these is the
/// same for all workloads: static partial-order reduction.
pub struct Def<S, M: Ord, O> {
    /// Builds the model (and injects its faults inside a `faults.inject`
    /// span).
    pub spec: fn(&mut Spans) -> ProtocolSpec<S, M>,
    pub property: fn() -> Property<S, M, O>,
    pub observer: fn() -> O,
    /// The engine configuration; the argument is a fresh, empty directory
    /// the run may checkpoint into.
    pub config: fn(&Path) -> CheckerConfig,
}

fn paxos_setting() -> PaxosSetting {
    PaxosSetting::new(2, 4, 1)
}

fn storage_setting() -> StorageSetting {
    StorageSetting::new(3, 1)
}

fn one_drop() -> FaultBudget {
    FaultBudget::none().drops(1)
}

fn paxos_spec(spans: &mut Spans) -> ProtocolSpec<PaxosState, PaxosMessage> {
    spans.time("model.build_spec", |_| {
        paxos::quorum_model(paxos_setting(), PaxosVariant::Correct)
    })
}

pub fn paxos_bfs() -> Def<PaxosState, PaxosMessage, NullObserver> {
    Def {
        spec: paxos_spec,
        property: || Property::safety(paxos::consensus_property(paxos_setting())),
        observer: || NullObserver,
        config: |_| CheckerConfig::stateful_bfs(),
    }
}

fn faulty_storage_spec(
    spans: &mut Spans,
) -> ProtocolSpec<FaultLocal<StorageState>, StorageMessage> {
    let base = spans.time("model.build_spec", |_| {
        storage::quorum_model(storage_setting())
    });
    spans.time("faults.inject", |_| {
        mp_faults::inject(&base, one_drop()).expect("the storage model stays valid under faults")
    })
}

pub type StorageObserver = LiftedObserver<StorageState, StorageMessage, RegularityObserver>;

/// The out-of-core configuration: sorted on-disk runs for the visited set,
/// a disk frontier and checkpoints every four levels.
fn out_of_core(config: CheckerConfig, checkpoint_dir: &Path) -> CheckerConfig {
    config
        .with_store(StoreConfig::runs_with_watermark(16_384))
        .with_frontier(FrontierConfig::disk_with_watermark(256 * 1024))
        .with_checkpoint(CheckpointConfig::new(checkpoint_dir).with_every_levels(4))
}

pub fn storage_ooc() -> Def<FaultLocal<StorageState>, StorageMessage, StorageObserver> {
    Def {
        spec: faulty_storage_spec,
        property: || Property::safety(storage::faulty_regularity_property(storage_setting())),
        observer: || storage::faulty_regularity_observer(storage_setting()),
        config: |dir| out_of_core(CheckerConfig::parallel_bfs(2), dir),
    }
}

pub fn storage_liveness() -> Def<FaultLocal<StorageState>, StorageMessage, NullObserver> {
    Def {
        spec: faulty_storage_spec,
        property: || storage::faulty_reading_leads_to_done(storage_setting()),
        observer: || NullObserver,
        config: |_| CheckerConfig::stateful_dfs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_checker::{ExplorationStats, Verdict};

    #[test]
    fn names_round_trip_and_are_unique() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("paxos"), None);
    }

    fn report(verdict: Verdict, counters: &StatsCounters) -> RunReport {
        let stats = ExplorationStats {
            states: counters.states,
            expansions: counters.expansions,
            transitions_executed: counters.transitions_executed,
            revisits: counters.revisits,
            reduced_states: counters.reduced_states,
            proviso_expansions: counters.proviso_expansions,
            max_depth: counters.max_depth,
            ..ExplorationStats::default()
        };
        RunReport {
            verdict,
            stats,
            strategy: String::new(),
        }
    }

    #[test]
    fn check_accepts_only_the_pinned_answer() {
        let pinned = Workload::StorageLiveness.pinned();
        let ok = |r: &RunReport| check("storage-liveness", &pinned, r);
        assert_eq!(ok(&report(Verdict::Verified, &pinned)), Ok(()));
        let limit = Verdict::LimitReached {
            what: "states".into(),
        };
        assert!(ok(&report(limit, &pinned)).is_err());
        let mut deeper = pinned.clone();
        deeper.max_depth += 1;
        assert!(ok(&report(Verdict::Verified, &deeper)).is_err());
        let other = Workload::PaxosBfs.pinned();
        assert!(ok(&report(Verdict::Verified, &other)).is_err());
    }

    #[test]
    fn pinned_answers_are_self_consistent() {
        let twins = Workload::ALL
            .iter()
            .filter_map(|w| Some((w.name(), w.symmetric()?.1)));
        let plain = Workload::ALL.iter().map(|w| (w.name(), w.pinned()));
        for (name, c) in plain.chain(twins) {
            // Each executed transition either finds a new state or revisits
            // one; the root is the only state no transition reaches.
            assert!(c.expansions <= c.states, "{name}");
            assert_eq!(c.transitions_executed, c.revisits + c.states - 1, "{name}");
        }
        // The symmetric Paxos run explores one representative per orbit.
        let (_, twin) = Workload::PaxosBfs
            .symmetric()
            .expect("paxos-bfs has a twin");
        let ratio = Workload::PaxosBfs.pinned().states as f64 / twin.states as f64;
        assert!((ratio - 17.06).abs() < 0.01, "orbit collapse {ratio}");
    }
}
