//! Runs every workload at a tiny size, untraced and traced, and checks
//! that each metric `BENCHMARK.json` names is emitted with its unit, that
//! no operation failed, and that the spans file is valid.

use dsbench::trace::check_jsonl;
use dsbench::workload::NAMES;
use dsbench::{run, Params, Workload};
use std::path::PathBuf;

/// `(name, unit)` of every metric in one array of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    let value = |obj: &str, key: &str| -> String {
        let pat = format!("\"{key}\": \"");
        let at = obj.find(&pat).expect("key present") + pat.len();
        obj[at..at + obj[at..].find('"').expect("string ends")].to_owned()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (value(obj, "name"), value(obj, "unit")))
        .collect()
}

fn tiny(name: &str, trace: bool) -> dsbench::Outcome {
    let params = Params {
        workload: Workload::by_name(name)
            .expect("known workload")
            .scaled_down(20),
        seed: 3,
        seconds: 0.2,
        trace,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("dsbench-tiny"),
    };
    run(&params).expect("run starts")
}

fn emitted(o: &dsbench::Outcome) -> Vec<(String, String)> {
    o.metrics
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned()))
        .collect()
}

#[test]
fn every_workload_emits_every_metric_without_failures() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for name in NAMES {
        let o = tiny(name, false);
        assert_eq!(o.failed, 0, "{name}: {}", o.report);
        assert!(o.attempted > 1000, "{name}: at least the minimum reads");
        assert_eq!(emitted(&o), end_to_end, "{name}");
        for m in &o.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{name}: {m:?}");
        }
        let ok = o.metrics.iter().find(|m| m.name == "ok_frac").unwrap();
        assert_eq!(ok.value, 1.0, "{name}: error_frac must be 0");

        let o = tiny(name, true);
        assert_eq!(o.failed, 0, "{name} traced: {}", o.report);
        assert_eq!(emitted(&o), per_layer, "{name} traced");
        assert!(o.metrics.iter().all(|m| m.value.is_finite()), "{name}");
        let spans = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("dsbench-tiny/spans-{name}-seed3.jsonl"));
        let text = std::fs::read_to_string(spans).expect("spans file written");
        assert!(check_jsonl(&text).expect("valid spans file") > 0);
    }
}

#[test]
fn same_seed_same_inputs() {
    let w = Workload::by_name("criteo-smallshard-serve").unwrap();
    let mut a = dsbench::run::RangeGen::new(&w, 5, w.rows);
    let mut b = dsbench::run::RangeGen::new(&w, 5, w.rows);
    let mut c = dsbench::run::RangeGen::new(&w, 6, w.rows);
    let ra: Vec<_> = (0..50).map(|_| a.next_range()).collect();
    let rb: Vec<_> = (0..50).map(|_| b.next_range()).collect();
    let rc: Vec<_> = (0..50).map(|_| c.next_range()).collect();
    assert_eq!(ra, rb);
    assert_ne!(ra, rc);
    assert!(ra.iter().all(|r| r.start < r.end && r.end <= w.rows));
}
