//! `BENCHMARK.json` must list exactly the metrics the binary prints, with
//! the same units and in the same order.

use icbtc_perfbench::report::{end_to_end, per_layer, Metric};
use icbtc_perfbench::trace;

fn manifest() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The `(name, unit)` pairs of one metric list of the manifest, in order.
fn listed(manifest: &str, key: &str) -> Vec<(String, String)> {
    let start = manifest
        .find(&format!("\"{key}\""))
        .expect("metric list present");
    let body = &manifest[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|entry| {
            let (name, rest) = entry.split_once('"').expect("name closes");
            let unit = rest.split("\"unit\": \"").nth(1).expect("unit present");
            (
                name.to_string(),
                unit[..unit.find('"').expect("unit closes")].to_string(),
            )
        })
        .collect()
}

fn pairs(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|(name, unit, _)| (name.to_string(), unit.to_string()))
        .collect()
}

#[test]
fn end_to_end_metrics_match_the_manifest() {
    assert_eq!(
        listed(&manifest(), "end_to_end"),
        pairs(&end_to_end(&[], 0.0))
    );
}

#[test]
fn per_layer_metrics_match_the_manifest() {
    trace::install();
    let tracer = trace::finish().expect("tracer installed");
    assert_eq!(
        listed(&manifest(), "per_layer"),
        pairs(&per_layer(&[], &tracer, 1, 0.0))
    );
}
