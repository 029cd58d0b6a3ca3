//! Layer replay: micro-benchmarks of each layer's public primitives, timed
//! over states recorded from the workload's own state space.
//!
//! The states come from a breadth-first prefix of the model explored with
//! the public `mp_model::successors`, with the observer carried along each
//! step. The seed picks which recorded states are replayed. Every pass over
//! the sample is one span, so the timings and the span file agree.

use std::collections::{HashSet, VecDeque};
use std::hint::black_box;

use mp_checker::Observer;
use mp_model::{
    decode_from_slice, enabled_instances, encode_to_vec, execute_enabled, successors, GlobalState,
    LocalState, Message, ProtocolSpec, TransitionInstance,
};
use mp_por::{Reducer, SporReducer};
use mp_store::{StateStoreBackend, StoreConfig};
use mp_symmetry::Symmetry;

use crate::spans::Spans;
use crate::stats::{median, Rng};

/// States recorded by the prefix search. Those not sampled fill the store
/// before its replay.
const PREFIX_STATES: usize = SAMPLE_STATES + 3 * FILL_CHUNK;
/// States replayed per pass.
const SAMPLE_STATES: usize = 1024;
/// The store replay inserts this many filler keys before the timed misses
/// and up to twice as many before the timed hits. It equals the
/// out-of-core workload's run watermark, so the run store has a spilled run
/// to search when it times misses, and has flushed the sampled keys into a
/// run before it times hits.
const FILL_CHUNK: usize = 16_384;
/// Passes per primitive; the reported figure is the median pass.
const PASSES: usize = 5;

/// Median nanoseconds per call of each primitive, plus the sample's shape.
#[derive(Debug, Default)]
pub struct Replay {
    pub enabled_ns: f64,
    pub execute_ns: f64,
    pub encode_ns: f64,
    pub decode_ns: f64,
    /// Mean encoded size of a sampled state.
    pub state_bytes: f64,
    pub reduce_ns: f64,
    pub canonicalize_ns: f64,
    pub insert_miss_ns: f64,
    pub insert_hit_ns: f64,
    /// Share of the sample's enabled instances that are environment (fault)
    /// transitions.
    pub env_enabled_share: f64,
}

type Pair<S, M, O> = (GlobalState<S, M>, O);

/// What one replay needs from the workload.
pub struct Subject<'a, S, M: Ord, O> {
    pub spec: &'a ProtocolSpec<S, M>,
    pub observer: O,
    pub reducer: &'a SporReducer,
    /// The symmetry whose `canonicalize` is timed.
    pub symmetry: &'a dyn Symmetry<S, M, O>,
    /// The workload's visited-set backend.
    pub store: StoreConfig,
}

pub fn replay<S, M, O>(subject: &Subject<'_, S, M, O>, rng: &mut Rng, spans: &mut Spans) -> Replay
where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
{
    let spec = subject.spec;
    let recorded = spans.time("replay.record", |_| {
        record_prefix(spec, subject.observer.clone(), PREFIX_STATES)
    });
    let mut order: Vec<usize> = (0..recorded.len()).collect();
    rng.shuffle(&mut order);
    let sample: Vec<&Pair<S, M, O>> = order
        .iter()
        .take(SAMPLE_STATES)
        .map(|&i| &recorded[i])
        .collect();
    let n = sample.len() as f64;

    let enabled: Vec<Vec<TransitionInstance<M>>> = sample
        .iter()
        .map(|(s, _)| enabled_instances(spec, s))
        .collect();
    let instances: usize = enabled.iter().map(Vec::len).sum();
    let environment = enabled
        .iter()
        .flatten()
        .filter(|i| spec.transition(i.transition).annotations().is_environment)
        .count();
    let encoded: Vec<Vec<u8>> = sample.iter().map(|(s, _)| encode_to_vec(s)).collect();
    // The workloads' own runs use no symmetry, so their stores hold the
    // states as recorded. The unsampled states are the filler.
    let filler: Vec<&Pair<S, M, O>> = order[sample.len()..]
        .iter()
        .map(|&i| &recorded[i])
        .collect();
    let (before_misses, before_hits) = filler.split_at(filler.len().min(FILL_CHUNK));

    let mut out = Replay {
        state_bytes: encoded.iter().map(Vec::len).sum::<usize>() as f64 / n,
        env_enabled_share: environment as f64 / instances.max(1) as f64,
        ..Replay::default()
    };
    out.enabled_ns = passes(spans, "model.enabled_instances", n, |_| {
        for (s, _) in &sample {
            black_box(enabled_instances(spec, black_box(s)));
        }
    });
    out.execute_ns = passes(spans, "model.execute_enabled", instances as f64, |_| {
        for ((s, _), insts) in sample.iter().zip(&enabled) {
            for inst in insts {
                black_box(execute_enabled(spec, black_box(s), inst));
            }
        }
    });
    out.encode_ns = passes(spans, "model.encode", n, |_| {
        for (s, _) in &sample {
            black_box(encode_to_vec(black_box(s)));
        }
    });
    out.decode_ns = passes(spans, "model.decode", n, |_| {
        for bytes in &encoded {
            let state: GlobalState<S, M> =
                decode_from_slice(black_box(bytes)).expect("an encoded state decodes");
            black_box(state);
        }
    });
    for _ in 0..PASSES {
        // `reduce` consumes its input, so each pass gets a copy made
        // outside the span.
        let inputs = enabled.clone();
        spans.time("por.reduce", |_| {
            for ((s, _), insts) in sample.iter().zip(inputs) {
                black_box(subject.reducer.reduce(spec, black_box(s), insts));
            }
        });
    }
    out.reduce_ns = median_per_call(spans, "por.reduce", n).expect("reduce passes ran");
    out.canonicalize_ns = passes(spans, "symmetry.canonicalize", n, |_| {
        for (s, o) in &sample {
            black_box(subject.symmetry.canonicalize(black_box(s), o));
        }
    });
    for _ in 0..PASSES {
        let store = subject.store.build::<Pair<S, M, O>>();
        let fill = |keys: &[&Pair<S, M, O>]| {
            for key in keys {
                store.insert_ref(key);
            }
            // The engines call this at each level boundary.
            store.maintain();
        };
        spans.time("store.fill", |_| fill(before_misses));
        spans.time("store.insert_miss", |_| {
            for key in &sample {
                black_box(store.insert_ref(black_box(key)));
            }
        });
        spans.time("store.fill", |_| fill(before_hits));
        spans.time("store.insert_hit", |_| {
            for key in &sample {
                black_box(store.insert_ref(black_box(key)));
            }
        });
        // The recorded states are distinct, so every key is stored once.
        assert_eq!(store.len(), recorded.len(), "replayed keys all stored");
    }
    out.insert_miss_ns = median_per_call(spans, "store.insert_miss", n).expect("store passes ran");
    out.insert_hit_ns = median_per_call(spans, "store.insert_hit", n).expect("store passes ran");
    out
}

/// Breadth-first prefix of the state space: up to `limit` distinct
/// `(state, observer)` pairs, in discovery order.
fn record_prefix<S, M, O>(
    spec: &ProtocolSpec<S, M>,
    observer: O,
    limit: usize,
) -> Vec<Pair<S, M, O>>
where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
{
    let root = (spec.initial_state(), observer);
    let mut seen: HashSet<Pair<S, M, O>> = HashSet::from([root.clone()]);
    let mut order = vec![root.clone()];
    let mut queue = VecDeque::from([root]);
    while let Some((state, obs)) = queue.pop_front() {
        for (inst, next) in successors(spec, &state) {
            if order.len() >= limit {
                return order;
            }
            let pair = (next.clone(), obs.update(spec, &state, &inst, &next));
            if seen.insert(pair.clone()) {
                order.push(pair.clone());
                queue.push_back(pair);
            }
        }
    }
    order
}

/// Runs `pass` [`PASSES`] times, each inside a span named `name`, and
/// returns the median pass duration divided by `calls`.
fn passes(
    spans: &mut Spans,
    name: &'static str,
    calls: f64,
    mut pass: impl FnMut(&mut Spans),
) -> f64 {
    for _ in 0..PASSES {
        spans.time(name, &mut pass);
    }
    median_per_call(spans, name, calls).expect("passes ran")
}

fn median_per_call(spans: &Spans, name: &str, calls: f64) -> Option<f64> {
    let per_call: Vec<f64> = spans
        .all(name)
        .map(|s| s.duration().as_nanos() as f64 / calls.max(1.0))
        .collect();
    median(&per_call)
}
