//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names and units;
//! a test below keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("verdict_s", "s"),
    ("states_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("traced_verdict_s", "s"),
    ("correct_share", "ratio"),
];

/// Reported by every workload with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("model.enabled_ns", "ns"),
    ("model.execute_ns", "ns"),
    ("model.encode_ns", "ns"),
    ("model.decode_ns", "ns"),
    ("model.state_bytes", "bytes"),
    ("model.successors_per_state", "count"),
    ("model.expansion_us", "us"),
    ("por.reduce_ns", "ns"),
    ("por.stubborn_set_us", "us"),
    ("por.reduced_share", "ratio"),
    ("symmetry.canonicalize_ns", "ns"),
    ("symmetry.canonicalize_us", "us"),
    ("symmetry.orbit_collapse", "ratio"),
    ("store.insert_miss_ns", "ns"),
    ("store.insert_hit_ns", "ns"),
    ("store.hit_share", "ratio"),
    ("store.bytes_per_state", "bytes"),
    ("store.rss_per_state", "bytes"),
    ("store.lookup_us", "us"),
    ("store.frontier_encode_us", "us"),
    ("store.frontier_decode_us", "us"),
    ("store.spill_io_us", "us"),
    ("store.run_merge_us", "us"),
    ("store.spilled_bytes", "bytes"),
    ("store.merge_bytes", "bytes"),
    ("store.frontier_spilled_bytes", "bytes"),
    ("store.checkpoint_bytes", "bytes"),
    ("faults.inject_ms", "ms"),
    ("faults.env_enabled_share", "ratio"),
    ("checker.expansions", "count"),
    ("checker.transitions", "count"),
    ("checker.revisits", "count"),
    ("checker.max_depth", "count"),
    ("checker.cpu_util", "ratio"),
    ("checker.pool_vs_seq", "ratio"),
    ("checker.worker_spawns", "count"),
    ("checker.scc_backstop_us", "us"),
    ("checker.unphased_share", "ratio"),
    ("checker.disk_write_mb", "MB"),
    ("trace.overhead_share", "ratio"),
    ("trace.ndjson_bytes", "bytes"),
];

/// Raw figures a child reports for the parent to derive a metric from.
pub const INTERNAL: &[&str] = &["sequential_verdict_s"];

/// The last line the benchmark prints: one JSON object with the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    catalogue: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
) -> String {
    let mut metrics = String::new();
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let value = values.get(name).copied().unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            r#"{sep}"{name}": {{"value": {value}, "unit": "{unit}"}}"#
        );
    }
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{metrics}}}}}"#
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    /// The `"name"` / `"unit"` pairs of one top-level list of
    /// `BENCHMARK.json`, in order.
    fn section(json: &str, key: &str) -> Vec<(String, Option<String>)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[body.find('[').unwrap()..=body.find(']').unwrap()];
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name").unwrap(), field(entry, "unit")))
            .collect()
    }

    fn field(entry: &str, key: &str) -> Option<String> {
        let at = entry.find(&format!("\"{key}\""))?;
        let rest = &entry[at + key.len() + 2..];
        let open = rest.find('"')? + 1;
        let close = open + rest[open..].find('"')?;
        Some(rest[open..close].to_string())
    }

    fn owned(catalogue: &[(&str, &str)]) -> Vec<(String, Option<String>)> {
        catalogue
            .iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        assert_eq!(section(&json, "end_to_end"), owned(END_TO_END));
        assert_eq!(section(&json, "per_layer"), owned(PER_LAYER));
        let workloads: Vec<String> = section(&json, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for name in &names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
    }

    #[test]
    fn result_line_has_every_metric_with_its_unit() {
        let values = BTreeMap::from([("setup_s", 0.25), ("verdict_s", 1.5)]);
        let line = result_line(true, 3, 0, &END_TO_END[..2], &values);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}, "verdict_s": {"value": 1.5, "unit": "s"}}}"#
        );
    }
}
