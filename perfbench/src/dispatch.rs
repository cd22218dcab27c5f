//! `dispatch`: fine-grained task shapes whose bodies do almost
//! nothing, so the cost measured is the runtime's own: `ctx` attach,
//! `engine` dependence tracking and `executor` dispatch.
//!
//! The three shapes use the engine differently: independent ×64 (each
//! task the only writer of its object, queue depth ≈ 1), shared ×4
//! (serial write chains on four objects) and fork-join fan=8 (eight
//! writers, then one join reading all eight). Independent and
//! fork-join also run on `jade_bench::baseline`'s scoped-threads pool,
//! the no-semantics reference.
//!
//! The seed orders the objects: each round of tasks visits every
//! object of the shape once, in a seeded order, so the shapes keep
//! their dependence structure on every seed.

use std::sync::Arc;
use std::time::Instant;

use jade_bench::baseline;
use jade_core::prelude::*;
use jade_core::serial::SerialRuntime;
use jade_sim::{Platform, SimExecutor};
use jade_threads::ThreadedExecutor;

use crate::stats::{median, Hist};
use crate::Run;

const FAN: usize = 8;

/// Task budget per shape on the thread pool and the serial elision.
const TASKS: usize = 3_600;
/// Task budget per shape under the simulator, whose per-task cost is
/// about a hundred times the thread pool's.
const SIM_TASKS: usize = 360;
/// Smoke-test task budget.
const TINY_TASKS: usize = 270;

#[derive(Clone, Copy, Debug)]
enum Shape {
    Independent,
    Shared4,
    ForkJoin8,
}

impl Shape {
    const ALL: [Shape; 3] = [Shape::Independent, Shape::Shared4, Shape::ForkJoin8];

    fn name(self) -> &'static str {
        match self {
            Shape::Independent => "independent",
            Shape::Shared4 => "shared4",
            Shape::ForkJoin8 => "forkjoin8",
        }
    }

    fn objects(self) -> usize {
        match self {
            Shape::Independent => 64,
            Shape::Shared4 => 4,
            Shape::ForkJoin8 => FAN,
        }
    }

    /// Tasks a run over `writes` object writes creates: one per write,
    /// plus one join per fork-join wave.
    fn tasks(self, writes: usize) -> usize {
        match self {
            Shape::ForkJoin8 => writes + writes / FAN,
            _ => writes,
        }
    }

    /// Writes in a budget of `tasks` tasks (whole fork-join waves).
    fn writes(self, tasks: usize) -> usize {
        match self {
            Shape::ForkJoin8 => tasks / (FAN + 1) * FAN,
            _ => tasks,
        }
    }

    /// Sample names must be 'static; the set is small and fixed.
    fn key(self, what: &str) -> &'static str {
        match (what, self) {
            ("wall", Shape::Independent) => "wall.independent",
            ("wall", Shape::Shared4) => "wall.shared4",
            ("wall", Shape::ForkJoin8) => "wall.forkjoin8",
            ("baseline", Shape::Independent) => "baseline.independent",
            ("baseline", _) => "baseline.forkjoin8",
            // Per-shape spans whose samples only the totals use.
            ("wall_traced", _) => "wall_traced.shape",
            ("elision", _) => "elision.shape",
            ("sim", _) => "sim.shape",
            _ => unreachable!("no sample key {what}.{}", self.name()),
        }
    }
}

/// splitmix64: a small, fixed generator for the object orders.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The object each write of a shape targets: `writes` entries, each
/// round of `objects` a seeded permutation of the objects.
fn order(shape: Shape, writes: usize, seed: u64) -> Arc<Vec<u16>> {
    let mut state = seed ^ ((shape as u64) << 56);
    let objects = shape.objects();
    let mut round: Vec<u16> = (0..objects as u16).collect();
    let mut out = Vec::with_capacity(writes);
    while out.len() < writes {
        for i in (1..objects).rev() {
            round.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
        }
        out.extend(round.iter().take(writes - out.len()));
    }
    Arc::new(out)
}

/// `withonly`, timed into `attach` when one is given.
fn spawn<C, S, F>(ctx: &mut C, attach: &mut Option<Hist>, label: &str, spec: S, body: F)
where
    C: JadeCtx,
    S: FnOnce(&mut SpecBuilder),
    F: FnOnce(&mut C) + Send + 'static,
{
    match attach {
        Some(h) => {
            let t = Instant::now();
            ctx.withonly(label, spec, body);
            h.record(t.elapsed().as_nanos() as u64);
        }
        None => ctx.withonly(label, spec, body),
    }
}

/// The Jade program of one shape over the object order `order`.
/// Returns the counter sum (one per write) and, when `timed`, each
/// `withonly` call's latency.
fn program<C: JadeCtx>(
    ctx: &mut C,
    shape: Shape,
    order: &[u16],
    timed: bool,
) -> (u64, Option<Hist>) {
    let mut attach = timed.then(Hist::default);
    let xs: Vec<Shared<u64>> = (0..shape.objects()).map(|_| ctx.create(0u64)).collect();
    match shape {
        Shape::Independent | Shape::Shared4 => {
            for &o in order {
                let x = xs[o as usize];
                spawn(
                    ctx,
                    &mut attach,
                    "t",
                    |s| {
                        s.rd_wr(x);
                    },
                    move |c| *c.wr(&x) += 1,
                );
            }
        }
        Shape::ForkJoin8 => {
            for wave in order.chunks(FAN) {
                for &o in wave {
                    let x = xs[o as usize];
                    spawn(
                        ctx,
                        &mut attach,
                        "fork",
                        |s| {
                            s.rd_wr(x);
                        },
                        move |c| *c.wr(&x) += 1,
                    );
                }
                let ys = xs.clone();
                spawn(
                    ctx,
                    &mut attach,
                    "join",
                    |s| {
                        for &x in &xs {
                            s.rd(x);
                        }
                    },
                    move |c| {
                        let sum: u64 = ys.iter().map(|x| *c.rd(x)).sum();
                        std::hint::black_box(sum);
                    },
                );
            }
        }
    }
    (xs.iter().map(|x| *ctx.rd(x)).sum(), attach)
}

/// The same shape as plain serial code over a vector of counters.
fn serial(shape: Shape, order: &[u16]) -> u64 {
    let mut xs = vec![0u64; shape.objects()];
    match shape {
        Shape::Independent | Shape::Shared4 => {
            for &o in order {
                xs[std::hint::black_box(o as usize)] += 1;
            }
        }
        Shape::ForkJoin8 => {
            for wave in order.chunks(FAN) {
                for &o in wave {
                    xs[std::hint::black_box(o as usize)] += 1;
                }
                std::hint::black_box(xs.iter().sum::<u64>());
            }
        }
    }
    xs.iter().sum()
}

/// Integer additions the bodies perform: one per write, plus `FAN`
/// per join.
fn adds(shape: Shape, writes: usize) -> u64 {
    match shape {
        Shape::ForkJoin8 => 2 * writes as u64,
        _ => writes as u64,
    }
}

pub(crate) fn run(run: &mut Run) -> Vec<(&'static str, f64)> {
    let cfg = run.cfg;
    let (tasks, sim_tasks) = if cfg.tiny {
        (TINY_TASKS, TINY_TASKS)
    } else {
        (TASKS, SIM_TASKS)
    };
    let (seed, workers) = (cfg.seed, cfg.workers);
    let make = || {
        let orders: Vec<Arc<Vec<u16>>> = Shape::ALL
            .iter()
            .map(|&s| order(s, s.writes(tasks), seed))
            .collect();
        (
            orders,
            ThreadedExecutor::new(workers),
            SimExecutor::new(Platform::ipsc860(8)),
        )
    };
    let (orders, exec, sim) = run.time_setup(make);
    let sim_orders: Vec<Arc<Vec<u16>>> = Shape::ALL
        .iter()
        .zip(&orders)
        .map(|(&s, o)| Arc::new(o[..s.writes(sim_tasks)].to_vec()))
        .collect();

    // One parallel iteration: the three shapes back to back.
    let parallel = |run: &mut Run, traced: bool| {
        let mut total = 0.0;
        let mut stats = RuntimeStats::default();
        let mut ok = true;
        for (shape, order) in Shape::ALL.into_iter().zip(&orders) {
            let (rc, slot) = run.config(traced);
            let o = Arc::clone(order);
            let t = Instant::now();
            let rep = exec.execute(rc, move |ctx| program(ctx, shape, &o, traced));
            let secs = run.span(shape.key(if traced { "wall_traced" } else { "wall" }), t);
            total += secs;
            let Ok(rep) = rep else {
                ok = false;
                continue;
            };
            let (mut sum, attach) = rep.result;
            if run.plant() {
                sum += 1;
            }
            ok &= sum == order.len() as u64;
            ok &= run.engine_exact(shape.name(), &rep.stats);
            if let Shape::Shared4 = shape {
                ok &= run.exact("shared4.engine.spec_cache_hits", rep.stats.spec_cache_hits);
            }
            stats.merge(&rep.stats);
            run.traced(slot, secs);
            if let Some(h) = attach {
                run.attach.merge(&h);
            }
        }
        run.engine_samples(&stats);
        run.sample(if traced { "wall_traced" } else { "wall" }, total);
        run.check(ok);
    };

    let elision_and_sim = |run: &mut Run| {
        drop(run.time_setup(make));
        let (mut t_elision, mut t_sim) = (0.0, 0.0);
        let (mut sim_ns, mut sim_msgs, mut sim_bytes) = (0, 0, 0);
        for ((shape, order), sim_order) in Shape::ALL.into_iter().zip(&orders).zip(&sim_orders) {
            let o = Arc::clone(order);
            let t = Instant::now();
            let rep = SerialRuntime.execute(RunConfig::new(), move |ctx| {
                program(ctx, shape, &o, false).0
            });
            t_elision += run.span(shape.key("elision"), t);
            run.check(rep.is_ok_and(|r| r.result == order.len() as u64));

            let o = Arc::clone(sim_order);
            let t = Instant::now();
            let rep = sim.execute(RunConfig::new(), move |ctx| {
                program(ctx, shape, &o, false).0
            });
            t_sim += run.span(shape.key("sim"), t);
            match rep {
                Ok(r) => {
                    let net = r.net.unwrap_or_default();
                    sim_ns += r.elapsed_nanos;
                    sim_msgs += net.messages;
                    sim_bytes += net.bytes;
                    run.check(r.result == sim_order.len() as u64);
                }
                Err(_) => run.check(false),
            }
        }
        run.sample("elision", t_elision);
        run.sample("sim", t_sim);
        let ok = run.exact("sim.simulated_ns", sim_ns)
            & run.exact("sim.messages", sim_msgs)
            & run.exact("sim.bytes", sim_bytes);
        run.check(ok);
    };

    let side = |run: &mut Run| {
        elision_and_sim(run);
        if !run.cfg.trace {
            return;
        }
        let t = Instant::now();
        let sums: Vec<u64> = Shape::ALL
            .iter()
            .zip(&orders)
            .map(|(&s, o)| serial(s, o))
            .collect();
        run.span("serial", t);
        run.check(
            orders
                .iter()
                .zip(&sums)
                .all(|(o, &sum)| sum == o.len() as u64),
        );
        // The baseline asserts its own counter sums.
        for shape in [Shape::Independent, Shape::ForkJoin8] {
            let writes = shape.writes(tasks);
            let rate = match shape {
                Shape::ForkJoin8 => baseline::forkjoin_rate(workers, (writes / FAN) as u64, FAN),
                _ => baseline::independent_rate(workers, writes as u64, shape.objects()),
            };
            run.sample(shape.key("baseline"), shape.tasks(writes) as f64 / rate);
        }
    };
    run.drive(0.3, |r, traced| parallel(r, traced), side);

    let flops: u64 = Shape::ALL.iter().map(|&s| adds(s, s.writes(tasks))).sum();
    let mut out = vec![("apps.flops", flops as f64)];
    for shape in Shape::ALL {
        let wall = median(run.samples(shape.key("wall")));
        let name = match shape {
            Shape::Independent => "executor.tasks_per_s.independent",
            Shape::Shared4 => "executor.tasks_per_s.shared4",
            Shape::ForkJoin8 => "executor.tasks_per_s.forkjoin8",
        };
        out.push((name, shape.tasks(shape.writes(tasks)) as f64 / wall));
        if let Shape::Shared4 = shape {
            continue;
        }
        let base = median(run.samples(shape.key("baseline")));
        let (w, g) = match shape {
            Shape::Independent => (
                "baseline.wall_s_p50.independent",
                "baseline.gap.independent",
            ),
            _ => ("baseline.wall_s_p50.forkjoin8", "baseline.gap.forkjoin8"),
        };
        out.push((w, base));
        out.push((g, wall / base));
    }
    out
}
