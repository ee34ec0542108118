//! The benchmark's own tests, on tiny versions of its workloads (same
//! generators, small n).

use disco_sim::NoopRecorder;
use perfbench::churn::{self, ChurnSpec, Mode};
use perfbench::report::Metrics;
use perfbench::serve::ServeSpec;
use perfbench::spans::Tracer;
use perfbench::walk::FlowGen;
use perfbench::{run, Workload, COMPARE_SHARDS};

/// Metrics whose value is a pure function of the workload and seed.
const DETERMINISTIC: [&str; 7] = [
    "quiesce_sim_t",
    "ctrl_msgs_per_node",
    "ctrl_bytes_per_node",
    "rib_cands_per_node",
    "table_entries_per_node",
    "hop_stretch",
    "delivered_frac",
];

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\"")).expect("key present");
        let rest = &entry[at + key.len() + 2..];
        let open = rest.find('"').expect("value opens") + 1;
        let close = open + rest[open..].find('"').expect("value closes");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn assert_matches(metrics: &Metrics, section: &str) {
    let want = declared(section);
    let got: Vec<(String, String)> = metrics
        .0
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    assert_eq!(got, want, "{section} metrics differ from BENCHMARK.json");
    for m in &metrics.0 {
        assert!(m.value.is_finite(), "{} is not finite", m.name);
    }
}

fn deterministic(metrics: &Metrics) -> Vec<f64> {
    DETERMINISTIC
        .iter()
        .map(|name| metrics.get(name).expect("metric reported"))
        .collect()
}

#[test]
fn every_metric_is_printed_with_its_name_and_unit() {
    for workload in [
        Workload::Churn(ChurnSpec::tiny()),
        Workload::Serve(ServeSpec::tiny()),
    ] {
        let r = run(&workload, 3, 0.1, true);
        assert!(r.outcome.correct, "{:?}", r.outcome.failures);
        assert_matches(&r.outcome.end_to_end, "end_to_end");
        assert_matches(&r.outcome.per_layer, "per_layer");
        for traced in [false, true] {
            let line = r.outcome.result_json(traced);
            disco_telemetry::validate_json(&line).expect("the result line is JSON");
            let metrics = if traced {
                &r.outcome.per_layer
            } else {
                &r.outcome.end_to_end
            };
            for m in &metrics.0 {
                assert!(
                    line.contains(&format!("\"{}\": {{\"value\": ", m.name))
                        && line.contains(&format!("\"unit\": \"{}\"", m.unit)),
                    "{} missing from {line}",
                    m.name
                );
            }
        }
        let trace = r.trace_json.expect("traced runs export a trace");
        disco_telemetry::validate_json(&trace).expect("the trace is JSON");
    }
}

#[test]
fn same_seed_gives_identical_deterministic_metrics() {
    for workload in [
        Workload::Churn(ChurnSpec::tiny()),
        Workload::Serve(ServeSpec::tiny()),
    ] {
        let a = run(&workload, 7, 0.1, false).outcome;
        let b = run(&workload, 7, 0.1, false).outcome;
        assert!(a.correct && b.correct, "{:?} {:?}", a.failures, b.failures);
        assert_eq!(deterministic(&a.end_to_end), deterministic(&b.end_to_end));
    }
}

#[test]
fn sharded_equals_sequential() {
    let spec = ChurnSpec::tiny();
    let sharded_spec = ChurnSpec {
        shards: COMPARE_SHARDS,
        ..spec.clone()
    };
    let mut off = Tracer::new(false);
    let life = |spec: &ChurnSpec, off: &mut Tracer| {
        churn::run_once::<NoopRecorder>(spec, 11, off, Mode::Lifecycle)
            .1
            .expect("lifecycle ran")
            .det
    };
    assert_eq!(life(&spec, &mut off), life(&sharded_spec, &mut off));
    // A run makes the same comparison and fails when it does not hold.
    let r = run(&Workload::Churn(spec), 11, 0.1, false).outcome;
    assert!(r.correct, "{:?}", r.failures);
}

#[test]
fn a_different_seed_changes_the_generated_inputs() {
    let spec = ServeSpec::tiny();
    let mut off = Tracer::new(false);
    let a = spec.inputs(1, 8, &mut off).plan;
    let b = spec.inputs(2, 8, &mut off).plan;
    assert_ne!(a, b, "the flap plan follows the seed");

    let live: Vec<_> = (0..64).map(disco_graph::NodeId).collect();
    let flows = |seed| FlowGen::new(live.clone()).flows(256, seed, 1);
    assert_eq!(flows(1), flows(1));
    assert_ne!(flows(1), flows(2), "the traffic follows the seed");

    let a = run(&Workload::Serve(spec.clone()), 1, 0.1, false).outcome;
    let b = run(&Workload::Serve(spec), 2, 0.1, false).outcome;
    assert_ne!(
        deterministic(&a.end_to_end),
        deterministic(&b.end_to_end),
        "different inputs, different outputs"
    );
}
