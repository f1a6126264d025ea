//! Every workload, in its small `--smoke` form, emits exactly the
//! metrics `BENCHMARK.json` names, each with its unit, and passes its
//! output checks on the default seed and on a held-out one.

use std::path::PathBuf;
use std::process::Command;

use htforge::obs::{parse_json, Json};

fn spec() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    parse_json(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, seed: u64, trace: u8) -> Json {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.2", "--trace", &trace.to_string(), "--smoke"])
        .arg("--server-bin")
        .arg(env!("CARGO_BIN_EXE_htforge-server"))
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    parse_json(last).expect("the last line is JSON")
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    let spec = spec();
    let workloads: Vec<String> = names_of_workloads(&spec);
    assert!(workloads.len() >= 2);
    for workload in &workloads {
        for (trace, key) in [(0u8, "end_to_end"), (1, "per_layer")] {
            let expected = names(&spec, key);
            for seed in [1, 7] {
                let result = run(workload, seed, trace);
                let keys: Vec<&str> = result
                    .as_obj()
                    .expect("result object")
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
                assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
                assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
                let metrics = result
                    .get("metrics")
                    .and_then(Json::as_obj)
                    .expect("metrics");
                let got: Vec<(String, String)> = metrics
                    .iter()
                    .map(|(name, m)| {
                        assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                        let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                        (name.clone(), unit.to_owned())
                    })
                    .collect();
                assert_eq!(got, expected, "{workload} trace {trace}");
            }
        }
    }
}

fn names_of_workloads(spec: &Json) -> Vec<String> {
    spec.get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_owned()
        })
        .collect()
}
