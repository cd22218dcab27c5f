//! Golden outputs of the figure binaries. The paper-figure artifacts
//! must not drift when the runtime changes underneath them: the
//! Figure 4 task graph of the serial elision, the Figure 7 simulator
//! narrative, and the simulated time and traffic of the Figure 9 LWS
//! runs. The expected values are checked in under `tests/golden/`;
//! regenerate them only for an intended change of the figures.

use jade_apps::cholesky::{self, SparseSym};
use jade_bench::{lws_sim, platform_by_name};
use jade_sim::{Platform, SimExecutor};

#[test]
fn fig4_task_graph_is_unchanged() {
    let a = SparseSym::paper_example();
    let (_, trace) = jade_core::serial::run_traced(|ctx| cholesky::factor_program(ctx, &a));
    assert_eq!(trace.to_text(), include_str!("golden/fig4_taskgraph.txt"));
    assert_eq!(trace.to_dot(), include_str!("golden/fig4_taskgraph.dot"));
}

#[test]
fn fig7_trace_is_unchanged() {
    let a = SparseSym::paper_example();
    let (_, report) = SimExecutor::new(Platform::mica(2))
        .logged()
        .run(move |ctx| cholesky::factor_program(ctx, &a));
    assert_eq!(report.log.as_deref(), Some(include_str!("golden/fig7_trace.log")));
    assert_eq!((report.time.0, report.net.messages, report.net.bytes), (45_146_446, 12, 1142));
}

#[test]
fn fig9_lws_simulation_is_unchanged() {
    // (platform, machines) -> (simulated ns, messages, bytes) for the
    // Figure 9 configuration: 2197 molecules, one step, seed 2197.
    let golden = [
        ("dash", 8, (9_668_279_026, 271, 480_244)),
        ("ipsc860", 8, (6_159_541_477, 271, 480_244)),
        ("ipsc860", 32, (2_080_111_890, 1176, 1_817_268)),
        ("mica", 8, (14_171_357_111, 271, 480_244)),
    ];
    for (name, machines, want) in golden {
        let r = lws_sim(platform_by_name(name, machines), 2197, 1, 2197);
        assert_eq!((r.time.0, r.net.messages, r.net.bytes), want, "{name} x{machines}");
    }
}
