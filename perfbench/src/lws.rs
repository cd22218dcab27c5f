//! `lws`: the LWS owner-computes timestep (§7.3) on the thread pool,
//! and under the simulator on a simulated iPSC/860 (Figure 9 style).
//!
//! A few coarse O(n²) tasks per iteration: runtime changes should show
//! no change here, while kernel changes do. Final positions must equal
//! `lws::serial::run`'s bit for bit on every backend.

use std::sync::Arc;
use std::time::Instant;

use jade_apps::lws::{self, WaterSystem, PAIR_COST};
use jade_core::prelude::*;
use jade_core::serial::SerialRuntime;
use jade_sim::{Platform, SimExecutor};
use jade_threads::ThreadedExecutor;

use crate::{bits_eq, Run};

/// Owner-computes blocks on the thread pool.
const BLOCKS: usize = 8;
/// Simulated machines; the simulator runs four blocks per machine, as
/// the Figure 9 sweeps do.
const SIM_MACHINES: usize = 8;
const DT: f64 = 0.002;

fn same_positions(got: &WaterSystem, want: &WaterSystem) -> bool {
    got.pos.len() == want.pos.len() && bits_eq(got.pos.iter().flatten(), want.pos.iter().flatten())
}

/// The work `run_jade` charges with `blocks` blocks, in the app's
/// cost model: `PAIR_COST` per pair each owner evaluates, plus the
/// reduction and integration charges.
fn charged_flops(n: usize, blocks: usize, steps: usize) -> f64 {
    let per_step =
        (n * n.saturating_sub(1)) as f64 * PAIR_COST + (4 * blocks) as f64 + (12 * n) as f64;
    steps as f64 * per_step
}

pub(crate) fn run(run: &mut Run) -> Vec<(&'static str, f64)> {
    let cfg = run.cfg;
    let (n, steps) = if cfg.tiny { (64, 2) } else { (1024, 2) };
    let (seed, workers) = (cfg.seed, cfg.workers);
    let make = || {
        (
            Arc::new(WaterSystem::new(n, seed)),
            ThreadedExecutor::new(workers),
            SimExecutor::new(Platform::ipsc860(SIM_MACHINES)),
        )
    };
    let (sys, threads, sim) = run.time_setup(make);
    let mut want = (*sys).clone();
    lws::serial::run(&mut want, steps, DT);
    let flops = charged_flops(n, BLOCKS, steps);

    let parallel = |run: &mut Run, traced: bool| {
        let (rc, slot) = run.config(traced);
        let s2 = Arc::clone(&sys);
        let t = Instant::now();
        let rep = threads.execute(rc, move |ctx| lws::run_jade(ctx, &s2, BLOCKS, steps, DT));
        let secs = run.span(if traced { "wall_traced" } else { "wall" }, t);
        let Ok(mut rep) = rep else {
            run.check(false);
            return;
        };
        if run.plant() {
            rep.result.1.pos[0][0] += 1.0;
        }
        run.engine_samples(&rep.stats);
        let ok = same_positions(&rep.result.1, &want) & run.engine_exact("lws", &rep.stats);
        run.traced(slot, secs);
        run.check(ok);
    };
    let elision_and_sim = |run: &mut Run| {
        drop(run.time_setup(make));
        let s2 = Arc::clone(&sys);
        let t = Instant::now();
        let rep = SerialRuntime.execute(RunConfig::new(), move |ctx| {
            let r = lws::run_jade(ctx, &s2, BLOCKS, steps, DT);
            (r.1, ctx.charged_work())
        });
        run.span("elision", t);
        run.check(rep.is_ok_and(|r| same_positions(&r.result.0, &want) && r.result.1 == flops));

        let s2 = Arc::clone(&sys);
        let t = Instant::now();
        let rep = sim.execute(RunConfig::new(), move |ctx| {
            lws::run_jade(ctx, &s2, 4 * SIM_MACHINES, steps, DT).1
        });
        run.span("sim", t);
        match rep {
            Ok(r) => {
                let net = r.net.unwrap_or_default();
                let ok = same_positions(&r.result, &want)
                    & run.exact("sim.simulated_ns", r.elapsed_nanos)
                    & run.exact("sim.messages", net.messages)
                    & run.exact("sim.bytes", net.bytes);
                run.check(ok);
            }
            Err(_) => run.check(false),
        }
    };

    run.drive(
        0.4,
        |r, traced| parallel(r, traced),
        |r| {
            elision_and_sim(r);
            if r.cfg.trace {
                let mut s = (*sys).clone();
                let t = Instant::now();
                lws::serial::run(&mut s, steps, DT);
                r.span("serial", t);
                r.check(same_positions(&s, &want));
            }
        },
    );
    vec![("apps.flops", flops)]
}
