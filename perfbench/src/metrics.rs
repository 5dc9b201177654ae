//! The metric catalogue: every name the benchmark reports, with its unit.
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.

/// End-to-end metrics, reported by untraced runs on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("events_per_s", "1/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("converge_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by traced runs on every workload (0 where
/// the workload does not run the layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.flush.count", "count"),
    ("serve.flush.busy_ms", "ms"),
    ("serve.flush.p99_us", "us"),
    ("serve.flush.other_self_ms", "ms"),
    ("serve.query.lookup_p50_us", "us"),
    ("serve.submit.busy_ms", "ms"),
    ("serve.coalesce_ratio", "ratio"),
    ("adjacency.rebuild.count", "count"),
    ("adjacency.rebuild.busy_ms", "ms"),
    ("sigma.rounds", "count"),
    ("sigma.rows_recomputed", "count"),
    ("sigma.rows_changed", "count"),
    ("sigma.useful_ratio", "ratio"),
    ("sigma.busy_ms", "ms"),
    ("sigma.round_p50_us", "us"),
    ("sigma.ns_per_entry", "ns"),
    ("pool.epochs", "count"),
    ("pool.jobs", "count"),
    ("pool.worker_share", "ratio"),
    ("blocked.blocks", "count"),
    ("blocked.rounds_total", "count"),
    ("blocked.rows_recomputed", "count"),
    ("blocked.block_p50_ms", "ms"),
    ("blocked.ns_per_entry", "ns"),
    ("checkpoint.wal_append.count", "count"),
    ("checkpoint.wal_append_p50_us", "us"),
    ("checkpoint.wal_append_p99_us", "us"),
    ("checkpoint.wal_bytes", "bytes"),
    ("checkpoint.snapshot.count", "count"),
    ("checkpoint.snapshot_p50_us", "us"),
    ("checkpoint.snapshot_bytes", "bytes"),
    ("checkpoint.load_snapshot_us", "us"),
    ("checkpoint.restore_us", "us"),
    ("checkpoint.wal_tail_replay_us", "us"),
    ("checkpoint.recovery_ms", "ms"),
    ("openloop.sched_lag_p99_us", "us"),
    ("setup.generate_ms", "ms"),
    ("setup.adjacency_ms", "ms"),
    ("setup.initial_converge_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.unattributed_ms", "ms"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Pull `"name": "…", "unit": "…"` pairs out of one metric list of
    /// `BENCHMARK.json` (the file is flat enough not to need a parser).
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("list present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split('{')
            .skip(1)
            .map(|obj| {
                let field = |f: &str| {
                    let at = obj.find(&format!("\"{f}\"")).expect("field present");
                    let rest = &obj[at + f.len() + 2..];
                    let rest = &rest[rest.find('"').expect("value") + 1..];
                    rest[..rest.find('"').expect("value ends")].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&json, "end_to_end"), own(END_TO_END));
        assert_eq!(listed(&json, "per_layer"), own(PER_LAYER));
    }
}
