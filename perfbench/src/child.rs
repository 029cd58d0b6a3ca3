//! One measured repetition, run in a process of its own so that its peak
//! RSS, CPU time and bytes written are its own.
//!
//! A child prints its results to stdout as `metric <name> <value>` and
//! `attempt ok` / `attempt fail <why>` lines; the parent gathers them.

use std::fs;
use std::path::{Path, PathBuf};

use mp_checker::{Checker, CheckerConfig, Observer, RunReport, SearchStrategy, Tracer};
use mp_model::{Message, Permutable};
use mp_por::SporReducer;
use mp_symmetry::{NoSymmetry, OrbitReduction, RoleMap, Symmetry, SymmetryGroup};
use mp_trace::Phase;

use crate::procfs;
use crate::replay::{self, Subject};
use crate::spans::Spans;
use crate::stats::{median, Rng};
use crate::workloads::{self, Def, Workload};

/// Set-ups per timed batch. One set-up takes only tens of microseconds,
/// so a batch is timed as a whole and divided by its size.
pub const SETUP_BATCH: usize = 50;
/// Batches timed before a run and again after it; `setup_s` is the median
/// batch's time per set-up.
pub const SETUP_BATCHES: usize = 21;

const MIB: f64 = 1024.0 * 1024.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// An untraced run with timed set-ups around it: the run's time,
    /// process counters and the engine's counters.
    Run,
    /// The same run with the NDJSON tracer on and timed set-ups around it:
    /// its wall time and the engine's phase times.
    Traced,
    /// A pooled workload's configuration on the sequential engine.
    Sequential,
    /// A workload's symmetric twin, traced: its orbit collapse and
    /// canonicalization time.
    Symmetric,
    /// The layer replay.
    Replay,
}

impl Mode {
    pub const ALL: [Mode; 5] = [
        Mode::Run,
        Mode::Traced,
        Mode::Sequential,
        Mode::Symmetric,
        Mode::Replay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Mode::Run => "run",
            Mode::Traced => "traced",
            Mode::Sequential => "sequential",
            Mode::Symmetric => "symmetric",
            Mode::Replay => "replay",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.name() == name)
    }
}

/// What one child reports.
#[derive(Debug, Default)]
pub struct Output {
    pub metrics: Vec<(&'static str, f64)>,
    /// One entry per checker run: `Err` when it missed the pinned answer.
    pub attempts: Vec<Result<(), String>>,
}

impl Output {
    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            out.push_str(&format!("metric {name} {value}\n"));
        }
        for attempt in &self.attempts {
            match attempt {
                Ok(()) => out.push_str("attempt ok\n"),
                Err(why) => out.push_str(&format!("attempt fail {}\n", why.replace('\n', " "))),
            }
        }
        out
    }
}

/// Runs one repetition of `workload` in `mode`; `work` is this child's own
/// scratch directory.
pub fn run(workload: Workload, mode: Mode, seed: u64, work: &Path) -> Output {
    let work = work.to_path_buf();
    match workload {
        Workload::PaxosBfs => Child::new(workloads::paxos_bfs(), workload, seed, work).run(mode),
        Workload::StorageOoc => {
            Child::new(workloads::storage_ooc(), workload, seed, work).run(mode)
        }
        Workload::StorageLiveness => {
            Child::new(workloads::storage_liveness(), workload, seed, work).run(mode)
        }
    }
}

struct Child<S, M: Ord, O> {
    def: Def<S, M, O>,
    workload: Workload,
    seed: u64,
    work: PathBuf,
}

/// Everything set-up builds: `setup_s` times exactly this.
struct Prepared<S, M: Ord, O> {
    spec: mp_model::ProtocolSpec<S, M>,
    property: mp_checker::Property<S, M, O>,
    observer: O,
    spor: SporReducer,
    symmetry: Option<OrbitReduction<S, M, O>>,
}

/// One checker run and the process counters around it.
struct Measured {
    report: RunReport,
    wall_s: f64,
    cpu_s: f64,
    written_bytes: u64,
    peak_rss_bytes: u64,
    checkpoint_bytes: u64,
}

impl<S, M, O> Child<S, M, O>
where
    S: mp_model::LocalState + Permutable,
    M: Message + Permutable,
    O: Observer<S, M> + Permutable + Ord,
{
    fn new(def: Def<S, M, O>, workload: Workload, seed: u64, work: PathBuf) -> Self {
        Child {
            def,
            workload,
            seed,
            work,
        }
    }

    fn run(&self, mode: Mode) -> Output {
        let mut spans = Spans::default();
        let mut out = Output::default();
        match mode {
            Mode::Run => self.untraced(&mut spans, &mut out),
            Mode::Traced => {
                let m = self.measure_with_setups(
                    self.def.config,
                    Some(self.trace_path()),
                    &mut spans,
                    &mut out,
                );
                let phases = &m.report.stats.phases;
                let us = |phase: Phase| phases.nanos(phase) as f64 / 1e3;
                // Pool workers accumulate phase time side by side.
                let threads = m.report.stats.worker_threads.max(1) as f64;
                out.put("traced_verdict_s", m.wall_s);
                out.put("model.expansion_us", us(Phase::Expansion));
                out.put("por.stubborn_set_us", us(Phase::StubbornSet));
                if self.workload.symmetric().is_none() {
                    // A workload with a symmetric twin takes this from the
                    // twin.
                    out.put("symmetry.canonicalize_us", us(Phase::Canonicalize));
                }
                out.put("store.lookup_us", us(Phase::StoreLookup));
                out.put("store.frontier_encode_us", us(Phase::FrontierEncode));
                out.put("store.frontier_decode_us", us(Phase::FrontierDecode));
                out.put("store.spill_io_us", us(Phase::SpillIo));
                out.put("store.run_merge_us", us(Phase::RunMerge));
                out.put("checker.scc_backstop_us", us(Phase::SccBackstop));
                out.put(
                    "checker.unphased_share",
                    1.0 - phases.total().as_secs_f64() / (m.wall_s * threads),
                );
                out.put("trace.ndjson_bytes", file_len(&self.trace_path()) as f64);
                out.attempts.push(self.check(&m.report));
            }
            Mode::Sequential => {
                if let Some(sequential) = self.workload.sequential() {
                    let prepared = self.prepare(&mut spans, None);
                    let m = self.measure(&prepared, sequential, None, &mut spans);
                    out.put("sequential_verdict_s", m.wall_s);
                    out.attempts.push(self.check(&m.report));
                }
            }
            Mode::Symmetric => {
                if let Some((roles, pinned)) = self.workload.symmetric() {
                    let prepared = self.prepare(&mut spans, Some(roles));
                    let m = self.measure(
                        &prepared,
                        self.def.config,
                        Some(self.trace_path()),
                        &mut spans,
                    );
                    let stats = &m.report.stats;
                    out.put(
                        "symmetry.canonicalize_us",
                        stats.phases.nanos(Phase::Canonicalize) as f64 / 1e3,
                    );
                    out.put(
                        "symmetry.orbit_collapse",
                        self.workload.pinned().states as f64 / stats.states as f64,
                    );
                    let what = format!("{} with symmetry", self.workload.name());
                    out.attempts
                        .push(workloads::check(&what, &pinned, &m.report));
                }
            }
            Mode::Replay => self.replay(&mut spans, &mut out),
        }
        let span_file = self.work.join(format!(
            "{}.{}.spans.ndjson",
            self.workload.name(),
            mode.name()
        ));
        spans
            .write_ndjson(&span_file)
            .expect("span file is writable");
        out
    }

    /// Times [`SETUP_BATCHES`] batches of set-ups.
    fn time_setups(&self, spans: &mut Spans) {
        for _ in 0..SETUP_BATCHES {
            // Kept until the batch's span ends, so teardown is not timed.
            let batch: Vec<Prepared<S, M, O>> = spans.time("setup.batch", |sp| {
                (0..SETUP_BATCH).map(|_| self.prepare(sp, None)).collect()
            });
            drop(batch);
        }
    }

    /// Runs the workload once under `config`, with set-up timed just
    /// before and just after the run. The machine's speed moves from one
    /// second to the next, so two moments per child give `setup_s` twice
    /// the samples of one. Reports `setup_s` and `faults.inject_ms`.
    fn measure_with_setups(
        &self,
        config: fn(&Path) -> CheckerConfig,
        trace: Option<PathBuf>,
        spans: &mut Spans,
        out: &mut Output,
    ) -> Measured {
        self.time_setups(spans);
        let prepared = self.prepare(spans, None);
        let m = self.measure(&prepared, config, trace, spans);
        self.time_setups(spans);
        let setup_s: Vec<f64> = spans
            .all("setup.batch")
            .map(|s| s.duration().as_secs_f64() / SETUP_BATCH as f64)
            .collect();
        let inject_ms: Vec<f64> = spans
            .all("faults.inject")
            .map(|s| s.duration().as_secs_f64() * 1e3)
            .collect();
        out.put("setup_s", median(&setup_s).expect("set-ups ran"));
        out.put("faults.inject_ms", median(&inject_ms).unwrap_or(0.0));
        m
    }

    /// One untraced run, with set-up timed around it.
    fn untraced(&self, spans: &mut Spans, out: &mut Output) {
        let m = self.measure_with_setups(self.def.config, None, spans, out);
        out.attempts.push(self.check(&m.report));

        let stats = &m.report.stats;
        let states = stats.states as f64;
        let expansions = stats.expansions.max(1) as f64;
        out.put("verdict_s", m.wall_s);
        out.put("states_per_s", states / m.wall_s);
        out.put("cpu_s", m.cpu_s);
        out.put("peak_rss_mb", m.peak_rss_bytes as f64 / MIB);
        out.put(
            "model.successors_per_state",
            stats.transitions_executed as f64 / expansions,
        );
        out.put(
            "por.reduced_share",
            stats.reduced_states as f64 / expansions,
        );
        if self.workload.symmetric().is_none() {
            // The run itself uses no symmetry.
            out.put("symmetry.orbit_collapse", 1.0);
        }
        out.put(
            "store.hit_share",
            stats.store_hits as f64 / (stats.store_hits as f64 + states),
        );
        out.put("store.bytes_per_state", stats.store_bytes as f64 / states);
        out.put("store.rss_per_state", m.peak_rss_bytes as f64 / states);
        out.put("store.spilled_bytes", stats.store_spilled_bytes as f64);
        out.put("store.merge_bytes", stats.store_merge_bytes as f64);
        out.put(
            "store.frontier_spilled_bytes",
            stats.frontier_spilled_bytes as f64,
        );
        out.put("store.checkpoint_bytes", m.checkpoint_bytes as f64);
        out.put("checker.expansions", stats.expansions as f64);
        out.put("checker.transitions", stats.transitions_executed as f64);
        out.put("checker.revisits", stats.revisits as f64);
        out.put("checker.max_depth", stats.max_depth as f64);
        out.put("checker.cpu_util", m.cpu_s / m.wall_s);
        out.put("checker.worker_spawns", stats.worker_spawns as f64);
        out.put("checker.disk_write_mb", m.written_bytes as f64 / MIB);
    }

    fn replay(&self, spans: &mut Spans, out: &mut Output) {
        // Canonicalization is timed under the symmetric twin's group.
        let roles = self.workload.symmetric().map(|(roles, _)| roles);
        let prepared = self.prepare(spans, roles);
        let config = (self.def.config)(&self.work);
        let store = match config.strategy {
            SearchStrategy::ParallelBfs { .. } => config.store.for_parallel(),
            _ => config.store,
        };
        let symmetry: &dyn Symmetry<S, M, O> = match &prepared.symmetry {
            Some(orbits) => orbits,
            None => &NoSymmetry,
        };
        let subject = Subject {
            spec: &prepared.spec,
            observer: prepared.observer.clone(),
            reducer: &prepared.spor,
            symmetry,
            store,
        };
        let mut rng = Rng::new(self.seed);
        let r = spans.time("replay", |sp| replay::replay(&subject, &mut rng, sp));
        out.put("model.enabled_ns", r.enabled_ns);
        out.put("model.execute_ns", r.execute_ns);
        out.put("model.encode_ns", r.encode_ns);
        out.put("model.decode_ns", r.decode_ns);
        out.put("model.state_bytes", r.state_bytes);
        out.put("por.reduce_ns", r.reduce_ns);
        out.put("symmetry.canonicalize_ns", r.canonicalize_ns);
        out.put("store.insert_miss_ns", r.insert_miss_ns);
        out.put("store.insert_hit_ns", r.insert_hit_ns);
        out.put("faults.env_enabled_share", r.env_enabled_share);
    }

    /// Runs the prepared workload once under `config`, timing `run()` and
    /// reading the process counters around it. A checkpointing run gets a
    /// fresh directory that is measured and removed afterwards.
    fn measure(
        &self,
        prepared: &Prepared<S, M, O>,
        config: fn(&Path) -> CheckerConfig,
        trace: Option<PathBuf>,
        spans: &mut Spans,
    ) -> Measured {
        let checkpoint_dir = self.work.join("checkpoint");
        let _ = fs::remove_dir_all(&checkpoint_dir);
        let mut config = config(&checkpoint_dir);
        if let Some(path) = trace {
            config = config.with_trace(Tracer::to_file(path).expect("trace file is writable"));
        }
        let mut checker = Checker::with_observer(
            &prepared.spec,
            prepared.property.clone(),
            prepared.observer.clone(),
        )
        .reducer(prepared.spor.clone())
        .config(config);
        if let Some(orbits) = &prepared.symmetry {
            checker = checker.symmetry(orbits.clone());
        }
        procfs::reset_peak_rss();
        let cpu_before = procfs::cpu_seconds();
        let written_before = procfs::wchar();
        let report = spans.time("checker.run", |_| checker.run());
        let wall_s = spans
            .last("checker.run")
            .expect("run span")
            .duration()
            .as_secs_f64();
        let measured = Measured {
            wall_s,
            cpu_s: procfs::cpu_seconds() - cpu_before,
            written_bytes: procfs::wchar() - written_before,
            peak_rss_bytes: procfs::peak_rss_bytes(),
            checkpoint_bytes: dir_len(&checkpoint_dir),
            report,
        };
        let _ = fs::remove_dir_all(&checkpoint_dir);
        measured
    }

    /// Builds everything a run needs, inside one `setup` span; with
    /// `roles`, the run checks up to that symmetry.
    fn prepare(&self, spans: &mut Spans, roles: Option<fn() -> RoleMap>) -> Prepared<S, M, O> {
        let def = &self.def;
        spans.time("setup", |sp| {
            let spec = (def.spec)(sp);
            let spor = sp.time("por.spor_new", |_| SporReducer::new(&spec));
            let symmetry = roles.map(|roles| {
                sp.time("symmetry.group_build", |_| {
                    OrbitReduction::new(SymmetryGroup::build(&spec, &roles()))
                })
            });
            Prepared {
                property: (def.property)(),
                observer: (def.observer)(),
                spec,
                spor,
                symmetry,
            }
        })
    }

    /// Checks a run of the workload itself against its pinned answer.
    fn check(&self, report: &RunReport) -> Result<(), String> {
        workloads::check(self.workload.name(), &self.workload.pinned(), report)
    }

    fn trace_path(&self) -> PathBuf {
        self.work.join("trace.ndjson")
    }
}

fn file_len(path: &Path) -> u64 {
    fs::metadata(path).map_or(0, |m| m.len())
}

/// Total size of the regular files under `dir` (0 if it does not exist).
fn dir_len(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_len(&e.path()),
            Ok(_) => file_len(&e.path()),
            Err(_) => 0,
        })
        .sum()
}
