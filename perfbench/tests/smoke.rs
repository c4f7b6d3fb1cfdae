//! The benchmark's own smoke test: every workload at minimal length
//! emits exactly the catalogued metrics, the correctness gate fires on
//! each injected failure, and `BENCHMARK.json` agrees with the
//! catalogue. Run with `cargo test --release --manifest-path
//! perfbench/Cargo.toml`.

use std::process::Command;

use osiris::sim::Json;

const WORKLOADS: [&str; 3] = ["rx_stream", "pingpong", "incast96"];

/// Runs the benchmark; returns (exit code, last stdout line as JSON).
fn bench(args: &[&str]) -> (i32, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_osiris-perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default();
    let json = Json::parse(last).unwrap_or_else(|e| panic!("{args:?}: bad JSON {last:?}: {e:?}"));
    (out.status.code().expect("exited"), json)
}

/// (name, unit, better) of every metric in one catalogue list.
fn catalogue(doc: &Json, list: &str) -> Vec<(String, String, String)> {
    doc.get(list)
        .unwrap_or_else(|| panic!("no {list}"))
        .items()
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (s("name"), s("unit"), s("better"))
        })
        .collect()
}

/// The catalogue `--describe` prints.
fn describe() -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_osiris-perfbench"))
        .arg("--describe")
        .output()
        .expect("the benchmark binary runs");
    assert!(out.status.success());
    Json::parse(&String::from_utf8(out.stdout).expect("utf-8")).expect("--describe prints JSON")
}

#[test]
fn every_workload_emits_every_metric() {
    let doc = describe();
    for w in WORKLOADS {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let args = ["--workload", w, "--seconds", "0", "--trace", trace];
            let (code, out) = bench(&args);
            assert_eq!(code, 0, "{args:?}");
            assert_eq!(out.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(out.get("failed").and_then(Json::as_u64), Some(0));
            assert!(out.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
            let Some(Json::Obj(metrics)) = out.get("metrics") else {
                panic!("{args:?}: no metrics object");
            };
            let emitted: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, v)| {
                    assert!(v.get("value").and_then(Json::as_f64).is_some(), "{k}");
                    let unit = v.get("unit").and_then(Json::as_str).expect("unit");
                    (k.clone(), unit.to_string())
                })
                .collect();
            let expected: Vec<(String, String)> = catalogue(&doc, list)
                .into_iter()
                .map(|(n, u, _)| (n, u))
                .collect();
            assert_eq!(emitted, expected, "{args:?}");
        }
    }
}

#[test]
fn gate_fires_on_injected_failures() {
    for (inject, trace) in [
        ("verify", "0"),
        ("ledger", "0"),
        ("vci", "0"),
        ("trace", "1"),
    ] {
        let args = [
            "--workload",
            "pingpong",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--inject",
            inject,
        ];
        let (code, out) = bench(&args);
        assert_eq!(code, 1, "{args:?}");
        assert_eq!(out.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(out.get("failed").and_then(Json::as_u64), Some(1));
    }
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    let doc = describe();
    for list in ["end_to_end", "per_layer"] {
        assert_eq!(catalogue(&spec, list), catalogue(&doc, list), "{list}");
    }
    let names: Vec<&str> = spec
        .get("workloads")
        .expect("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(names, WORKLOADS);
}
