//! Smoke tests at tiny size: every workload emits every named metric
//! with its unit, per-layer metrics only in the traced run, a planted
//! wrong result counts as a failure, exact counts repeat, and the
//! metric lists match `BENCHMARK.json`.

use std::collections::BTreeSet;
use std::process::Command;

use perfbench::{run, Config, Outcome, Workload, END_TO_END, PER_LAYER};

fn tiny(workload: Workload, trace: bool) -> Config {
    Config {
        seconds: 0.05,
        workers: 2,
        tiny: true,
        ..Config::new(workload, 7, 1.0, trace)
    }
}

fn names_units(o: &Outcome) -> Vec<(&'static str, &'static str)> {
    o.metrics.iter().map(|m| (m.name, m.unit)).collect()
}

#[test]
fn every_workload_emits_every_metric_with_its_unit_and_passes_its_oracle() {
    let e2e: BTreeSet<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    let layer: BTreeSet<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    assert!(e2e.is_disjoint(&layer));
    for w in Workload::ALL {
        let untraced = run(&tiny(w, false));
        assert_eq!(
            names_units(&untraced),
            END_TO_END.to_vec(),
            "{w:?} untraced"
        );
        assert_eq!(
            (untraced.failed, untraced.attempted > 0),
            (0, true),
            "{w:?}: {untraced:?}"
        );
        for m in &untraced.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{w:?} {} = {}",
                m.name,
                m.value
            );
        }

        let traced = run(&tiny(w, true));
        assert_eq!(names_units(&traced), PER_LAYER.to_vec(), "{w:?} traced");
        assert_eq!(traced.failed, 0, "{w:?}: {traced:?}");
        let line = traced.json_line();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        for m in &traced.metrics {
            assert!(m.value.is_finite(), "{w:?} {} = {}", m.name, m.value);
        }
        // Layers every workload exercises are measured, not n/a.
        for name in [
            "ctx.create_phase_s",
            "engine.dep_wait_ns_p50",
            "engine.tasks_created",
            "executor.body_ns_p50",
            "executor.utilization",
            "serial.overhead_x",
            "apps.flops",
            "sim.simulated_ns",
            "sim.messages",
            "trace.overhead_x",
        ] {
            assert!(
                traced.get(name).is_some_and(|v| v > 0.0),
                "{w:?} {name} not measured"
            );
        }
        let own: &[&str] = match w {
            Workload::Dispatch => &[
                "ctx.attach_ns_p99",
                "baseline.gap.forkjoin8",
                "executor.tasks_per_s.shared4",
            ],
            Workload::NetCholesky => &[
                "net.messages_per_task",
                "net.remote_ns_p90",
                "net.shipped_frac",
            ],
            _ => &[],
        };
        for name in own {
            assert!(
                !traced.not_applicable.contains(name),
                "{w:?} {name} reported n/a"
            );
        }
        if w == Workload::NetCholesky {
            assert_eq!(
                traced.get("net.shipped_frac"),
                Some(1.0),
                "every body ships as IR"
            );
        }
    }
}

#[test]
fn planted_wrong_result_counts_as_a_failure() {
    for w in Workload::ALL {
        let cfg = Config {
            plant_fault: true,
            ..tiny(w, false)
        };
        let o = run(&cfg);
        assert_eq!(
            o.failed, 1,
            "{w:?}: the planted result must be the only failure"
        );
        assert!(o.json_line().starts_with("{\"correct\": false,"));
    }
}

#[test]
fn exact_counts_repeat_across_runs_of_a_seed() {
    for w in [Workload::Cholesky, Workload::Lws] {
        let a = run(&tiny(w, false));
        let b = run(&tiny(w, false));
        assert!(!a.exact.is_empty());
        assert_eq!(a.exact, b.exact, "{w:?}");
    }
}

/// `"name": "...", "unit": "..."` pairs in one section of the file.
fn listed(section: &str) -> Vec<(String, String)> {
    let field = |s: &str, key: &str| -> Option<(String, usize)> {
        let at = s.find(&format!("\"{key}\": \""))? + key.len() + 5;
        let end = at + s[at..].find('"')?;
        Some((s[at..end].to_string(), end))
    };
    let mut out = Vec::new();
    let mut rest = section;
    while let Some((name, end)) = field(rest, "name") {
        rest = &rest[end..];
        let (unit, end) = field(rest, "unit").expect("every metric has a unit");
        rest = &rest[end..];
        out.push((name, unit));
    }
    out
}

#[test]
fn benchmark_json_lists_the_emitted_workloads_and_metrics() {
    let path = perfbench::repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let (head, layer) = text.split_once("\"per_layer\"").expect("per_layer section");
    let e2e = head
        .split_once("\"end_to_end\"")
        .expect("end_to_end section")
        .1;
    let want = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed(e2e), want(END_TO_END));
    assert_eq!(listed(layer), want(PER_LAYER));
    for w in Workload::ALL {
        assert!(
            text.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())),
            "{w:?} not listed"
        );
    }
}

#[test]
fn malformed_command_line_exits_nonzero_without_a_result() {
    for args in [
        &[][..],
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("run perfbench");
        assert_eq!(out.status.code(), Some(2));
        assert!(out.stdout.is_empty());
    }
}
