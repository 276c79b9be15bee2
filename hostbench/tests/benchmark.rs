//! The benchmark's own checks: failure accounting, seed discipline, and
//! agreement between the metrics it prints and `BENCHMARK.json`.

use std::collections::BTreeMap;

use bench::micro::Variant;
use hostbench::metrics::{result_json, END_TO_END, PER_LAYER};
use hostbench::pass::run_pass;
use hostbench::point::{run_point, Kind, PointError, PointSpec, Sabotage};
use hostbench::workloads::WORKLOADS;
use sovia::SoviaConfig;

fn spec(label: &str, kind: Kind) -> PointSpec {
    PointSpec {
        label: label.to_string(),
        kind,
        golden: None,
        reference: None,
        event_budget: 5_000_000,
        sabotage: Sabotage::None,
    }
}

fn stream(label: &str, variant: Variant, sabotage: Sabotage) -> PointSpec {
    let mut p = spec(
        label,
        Kind::Stream {
            variant,
            size: 1024,
            total: 64 * 1024,
        },
    );
    p.sabotage = sabotage;
    p
}

#[test]
fn corrupt_and_short_points_are_counted_not_crashed() {
    let sovia = || Variant::Sovia(SoviaConfig::combine());
    let points = vec![
        stream("good", sovia(), Sabotage::None),
        stream("corrupt", sovia(), Sabotage::Corrupt),
        stream("short", sovia(), Sabotage::Short),
        stream("tcp-corrupt", Variant::TcpLane, Sabotage::Corrupt),
        stream("tcp-short", Variant::TcpLane, Sabotage::Short),
    ];
    let pass = run_pass(&points, 1, 2, None);
    assert_eq!(pass.runs.len(), points.len());
    assert_eq!(
        pass.failed(),
        4,
        "every sabotaged point fails, the honest one does not"
    );
    assert!(pass.runs[0].outcome.is_ok());
    for i in [1, 3] {
        assert!(
            matches!(pass.runs[i].outcome, Err(PointError::Corrupt { .. })),
            "{}: {:?}",
            points[i].label,
            pass.runs[i].outcome
        );
    }
    for i in [2, 4] {
        assert!(
            matches!(pass.runs[i].outcome, Err(PointError::Short { .. })),
            "{}: {:?}",
            points[i].label,
            pass.runs[i].outcome
        );
    }
}

#[test]
fn runaway_point_fails_on_its_event_budget() {
    let mut p = stream("budget", Variant::TcpLane, Sabotage::None);
    p.event_budget = 500;
    let r = run_point(&p, 1, None);
    assert!(
        matches!(
            r.outcome,
            Err(PointError::Sim(dsim::SimError::EventLimit { .. }))
        ),
        "{:?}",
        r.outcome
    );
}

#[test]
fn seed_moves_fault_schedule_but_not_loss_free_points() {
    let lossy = spec(
        "lossy",
        Kind::Lossy {
            loss_p: 0.05,
            msg: 8 * 1024,
            total: 512 * 1024,
        },
    );
    let points = vec![
        spec(
            "pingpong",
            Kind::PingPong {
                variant: Variant::TcpLane,
                size: 64,
                rounds: 5,
            },
        ),
        spec(
            "native",
            Kind::Stream {
                variant: Variant::NativeVia,
                size: 4096,
                total: 256 * 1024,
            },
        ),
        stream(
            "sovia",
            Variant::Sovia(SoviaConfig::dacks()),
            Sabotage::None,
        ),
        lossy,
    ];
    let a = run_pass(&points, 1, 2, None);
    let b = run_pass(&points, 2, 2, None);
    assert_eq!(a.failed() + b.failed(), 0);
    let lossfree = |p: &PointSpec| !p.seeded_faults();
    assert_eq!(a.digest(&points, lossfree), b.digest(&points, lossfree));
    assert_ne!(a.digest(&points, |_| true), b.digest(&points, |_| true));
    assert!(a.runs[3].faults.dropped > 0 && b.runs[3].faults.dropped > 0);
    // The same seed replays bit for bit.
    let again = run_pass(&points, 1, 1, None);
    assert_eq!(a.digest(&points, |_| true), again.digest(&points, |_| true));
}

/// `"name": "<x>"` values inside the `key` array of BENCHMARK.json.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let section = &json[start..];
    let section = &section[..section.find(']').expect("unterminated array")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("unterminated name")].to_string())
        .collect()
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(names_in(&json, "workloads"), WORKLOADS);
    for (key, list) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let declared = names_in(&json, key);
        let ours: Vec<&str> = list.iter().map(|(n, _)| *n).collect();
        assert_eq!(declared, ours, "{key}");
        for (name, unit) in list {
            assert!(
                json.contains(&format!(
                    "\"name\": \"{name}\",\n      \"unit\": \"{unit}\""
                )),
                "{name} should have unit {unit}"
            );
        }
        // The result line prints exactly these names, in this order.
        let line = result_json(true, 1, 0, list, &BTreeMap::new());
        let printed: Vec<&str> = line
            .match_indices("\": {\"value\"")
            .filter_map(|(i, _)| line[..i].rsplit('"').next())
            .collect();
        assert_eq!(printed, ours, "{key}");
    }
}
