//! The result line and the metric catalogue.

use fmaverify::JsonValue;
use fmaverify_perfbench::report::{result_line, Values, END_TO_END, PER_LAYER};

fn filled(catalogue: &[(&'static str, &str)]) -> Values {
    let mut values = Values::new();
    for (i, (name, _)) in catalogue.iter().enumerate() {
        values.set(name, 0.1 + i as f64);
    }
    values
}

#[test]
fn result_line_is_one_json_object_with_every_metric() {
    let values = filled(&END_TO_END);
    let line = result_line(true, 147, 0, &END_TO_END, &values);
    assert!(!line.contains('\n'));
    let json = JsonValue::parse(&line).expect("valid JSON");
    let JsonValue::Object(fields) = &json else {
        panic!("not an object: {line}");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(json.get("correct"), Some(&JsonValue::Bool(true)));
    assert_eq!(
        json.get("attempted").and_then(JsonValue::as_f64),
        Some(147.0)
    );
    assert_eq!(json.get("failed").and_then(JsonValue::as_f64), Some(0.0));
    let metrics = json.get("metrics").expect("metrics");
    for (i, (name, unit)) in END_TO_END.iter().enumerate() {
        let metric = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(metric.get("unit").and_then(JsonValue::as_str), Some(*unit));
        assert_eq!(
            metric.get("value").and_then(JsonValue::as_f64),
            Some(0.1 + i as f64)
        );
    }
}

#[test]
fn values_keep_all_their_digits() {
    let mut values = Values::new();
    values.set("wall_s", 9.709842065123457);
    let line = result_line(true, 1, 0, &[("wall_s", "s")], &values);
    assert!(line.contains("\"value\": 9.709842065123457,"), "{line}");
}

#[test]
#[should_panic(expected = "was not measured")]
fn a_missing_metric_is_a_bug() {
    result_line(true, 1, 0, &END_TO_END, &Values::new());
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let json = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        match json.get(key) {
            Some(JsonValue::Array(items)) => items
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
                    (field("name"), field("unit"))
                })
                .collect(),
            _ => panic!("{key} is not a list"),
        }
    };
    let own = |catalogue: &[(&str, &str)]| -> Vec<(String, String)> {
        catalogue
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(listed("per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = match json.get("workloads") {
        Some(JsonValue::Array(items)) => items
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect(),
        _ => panic!("workloads is not a list"),
    };
    assert_eq!(workloads, fmaverify_perfbench::workloads::NAMES);
}
