//! `BENCHMARK.json` and the metric tables the runs print agree, and the
//! result line has the shape the benchmark contract asks for.

use perfbench::report::{Report, END_TO_END, PER_LAYER};

fn benchmark_json() -> obs::Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    obs::json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_units(json: &obs::Json, key: &str) -> Vec<(String, String)> {
    json.get(key)
        .and_then(|v| v.as_array())
        .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}`"))
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
    t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let json = benchmark_json();
    assert_eq!(names_units(&json, "end_to_end"), table(END_TO_END));
    assert_eq!(names_units(&json, "per_layer"), table(PER_LAYER));
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(|v| v.as_array())
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(|n| n.as_str()).expect("workload name"))
        .collect();
    assert_eq!(workloads, ["offload", "hostseq", "serve"]);
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let mut rep = Report::default();
    rep.attempted = 3;
    rep.e2e("setup_s", 0.25, 5);
    rep.layer("sim.launches", 7.0, 1);
    for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
        let out = rep.render(trace);
        let last = out.lines().last().expect("result line");
        let json = obs::json::parse(last).expect("result line is JSON");
        let keys = |j: &obs::Json| match j {
            obs::Json::Object(kv) => kv.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            _ => panic!("not an object: {j:?}"),
        };
        assert_eq!(keys(&json), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(json.get("attempted").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(json.get("failed").and_then(|v| v.as_f64()), Some(0.0));
        let metrics = json.get("metrics").expect("metrics");
        assert_eq!(keys(metrics).len(), table.len());
        for (name, unit) in table {
            let m = metrics.get(name).unwrap_or_else(|| panic!("metric {name}"));
            assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(*unit));
            assert!(m.get("value").and_then(|v| v.as_f64()).is_some(), "{name} value");
        }
    }
}

#[test]
fn a_failure_or_an_empty_run_is_not_correct() {
    let correct = |rep: &Report| {
        let out = rep.render(false);
        let json = obs::json::parse(out.lines().last().expect("result line")).expect("JSON");
        json.get("correct").and_then(|v| v.as_bool()).expect("correct")
    };
    let mut rep = Report::default();
    assert!(!correct(&rep), "nothing attempted");
    rep.attempted = 5;
    assert!(correct(&rep));
    rep.fail("submit rejected: overloaded");
    assert!(!correct(&rep), "a rejected submission");
}
