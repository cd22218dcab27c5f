//! `cholesky` and `net_cholesky`: the paper's §3 sparse Cholesky
//! factorization (`factor_program`) on `random_spd` matrices.
//!
//! `cholesky` runs it on the thread pool: the task graph depends on
//! the data, specifications cover several objects, and every task
//! reads the pattern object, so the creator can outrun the workers and
//! the live set and the tail swing. `net_cholesky` runs it on the
//! socket backend with thread-mode workers, every body shipped as IR:
//! the only workload with `net`, `transport` and the replica store on
//! the critical path. Each factor must equal `serial::factor`'s bit
//! for bit.
//!
//! One iteration is one Jade program that factors a batch of matrices
//! in turn. A single factorization's time has a heavy, two-humped tail
//! (the creator outrunning the workers or not), which a batch smooths
//! into a tail whose p90 repeats between runs.

use std::sync::Arc;
use std::time::Instant;

use jade_apps::cholesky::{factor_program, serial, SparseSym};
use jade_core::prelude::*;
use jade_core::serial::SerialRuntime;
use jade_net::{Cluster, NetConfig, NetExecutor};
use jade_sim::{Platform, SimExecutor};
use jade_threads::ThreadedExecutor;

use crate::stats::{iqr, median};
use crate::{bits_eq, Run};

/// Which matrices a workload factors: `batch` matrices per iteration,
/// each `random_spd(n, per_col)` with about `tasks` tasks.
#[derive(Clone, Copy, PartialEq)]
struct Size {
    n: usize,
    per_col: usize,
    tasks: usize,
    batch: usize,
}

/// The thread pool's batch: four matrices of about 1,650 tasks (the
/// median for this shape), 6,600 tasks per iteration.
const THREADS: Size = Size {
    n: 100,
    per_col: 3,
    tasks: 1_650,
    batch: 4,
};
/// The socket backend's batch, about 1,700 tasks: it costs about
/// twenty times the thread pool per task.
const NET: Size = Size {
    n: 60,
    per_col: 4,
    tasks: 851,
    batch: 2,
};
/// The simulator's batch, about 830 tasks: it costs about a hundred
/// times the thread pool per task.
const SIM: Size = Size {
    n: 40,
    per_col: 4,
    tasks: 415,
    batch: 2,
};
/// Smoke-test size.
const TINY: Size = Size {
    n: 24,
    per_col: 3,
    tasks: 75,
    batch: 2,
};

/// Candidates drawn per matrix kept.
const CANDIDATES: usize = 8;

/// Draw `CANDIDATES × batch` matrices from the seed's stream and keep
/// the `batch` whose task count (columns plus entries after fill) is
/// closest to `size.tasks`. Fill varies by about ±10% between single
/// seeds; keeping the size fixed keeps it out of run-to-run spread,
/// and drawing a fixed number keeps set-up work the same on every
/// seed.
fn draw(size: Size, seed: u64) -> Vec<SparseSym> {
    let stream = seed.wrapping_mul(1 << 16);
    let mut cands: Vec<(usize, u64, SparseSym)> = (0..(CANDIDATES * size.batch) as u64)
        .map(|k| {
            let a = SparseSym::random_spd(size.n, size.per_col, stream.wrapping_add(k));
            ((size.n + a.pattern.nnz()).abs_diff(size.tasks), k, a)
        })
        .collect();
    cands.sort_by_key(|c| (c.0, c.1));
    cands.truncate(size.batch);
    cands.sort_by_key(|c| c.1);
    cands.into_iter().map(|c| c.2).collect()
}

/// The work `factor_program` charges for `a`, in the app's own
/// flop-count cost model, computed from the sparsity pattern alone.
fn charged_flops(a: &SparseSym) -> f64 {
    let mut total = 0.0;
    for rows_i in &a.pattern.rows {
        total += serial::internal_cost(rows_i.len() + 1);
        for &j in rows_i {
            total += serial::external_cost(rows_i.iter().filter(|&&t| t >= j).count());
        }
    }
    total
}

fn same_factors(got: &[SparseSym], want: &[SparseSym]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.cols.len() == w.cols.len()
                && g.cols.iter().zip(&w.cols).all(|(a, b)| a.len() == b.len())
                && bits_eq(g.cols.iter().flatten(), w.cols.iter().flatten())
        })
}

/// The Jade program of one iteration: factor every matrix in turn.
fn factor_all<C: JadeCtx>(ctx: &mut C, mats: &[SparseSym]) -> Vec<SparseSym> {
    mats.iter().map(|a| factor_program(ctx, a)).collect()
}

/// A batch with its oracle factors and charged work.
struct Batch {
    mats: Arc<Vec<SparseSym>>,
    want: Vec<SparseSym>,
    flops: f64,
}

impl Batch {
    fn new(mats: Vec<SparseSym>) -> Batch {
        let want = mats
            .iter()
            .map(|a| {
                let mut l = a.clone();
                serial::factor(&mut l);
                l
            })
            .collect();
        let flops = mats.iter().map(charged_flops).sum();
        Batch {
            mats: Arc::new(mats),
            want,
            flops,
        }
    }
}

/// What one set-up builds.
struct Backends {
    mats: Vec<SparseSym>,
    sim_mats: Vec<SparseSym>,
    threads: ThreadedExecutor,
    net: NetExecutor,
    sim: SimExecutor,
    cluster: Option<Cluster>,
}

/// One parallel iteration on `rt`, observed when `traced`; records its
/// timing, counters and verdict.
fn parallel<RT>(run: &mut Run, rt: &RT, batch: &Batch, traced: bool)
where
    RT: Runtime,
    RT::Ctx: JadeCtx,
{
    let (rc, slot) = run.config(traced);
    let mats = Arc::clone(&batch.mats);
    let t = Instant::now();
    let rep = rt.execute(rc, move |ctx| factor_all(ctx, &mats));
    let secs = run.span(if traced { "wall_traced" } else { "wall" }, t);
    let Ok(mut rep) = rep else {
        run.check(false);
        return;
    };
    if run.plant() {
        rep.result[0].cols[0][0] += 1.0;
    }
    let mut ok = same_factors(&rep.result, &batch.want);
    run.engine_samples(&rep.stats);
    ok &= run.engine_exact("batch", &rep.stats);
    if let Some(net) = rep.net {
        ok &= run.exact("net.messages", net.messages);
        ok &= run.exact("net.bytes", net.bytes);
        ok &= run.exact("net.tasks_shipped", net.tasks_shipped);
        let lookups = (net.replica_hits + net.replica_misses).max(1) as f64;
        run.sample("net.replica_hit_rate", net.replica_hits as f64 / lookups);
        run.sample("net.payload_bytes", net.payload_bytes as f64);
        run.sample("net.retransmits", net.retransmits as f64);
        run.sample(
            "net.shipped_frac",
            net.tasks_shipped as f64 / rep.stats.tasks_created.max(1) as f64,
        );
    }
    run.traced(slot, secs);
    run.check(ok);
}

pub(crate) fn run(run: &mut Run, net: bool) -> Vec<(&'static str, f64)> {
    let cfg = run.cfg;
    let (size, sim_size) = match (cfg.tiny, net) {
        (true, _) => (TINY, Size { batch: 1, ..TINY }),
        (false, false) => (THREADS, SIM),
        (false, true) => (NET, SIM),
    };
    let (seed, workers) = (cfg.seed, cfg.workers);
    let net_cfg = NetConfig {
        registry: jade_apps::kernels::registry(),
        ..NetConfig::threads(workers)
    };
    // Set-up: the inputs and the executors; the socket backend's set-up
    // also starts a cluster, as each of its iterations does.
    let shut = |b: Backends| {
        if let Some(c) = b.cluster {
            c.shutdown();
        }
    };
    let make = || Backends {
        mats: draw(size, seed),
        sim_mats: draw(sim_size, seed),
        threads: ThreadedExecutor::new(workers),
        net: NetExecutor::new(net_cfg.clone()),
        sim: SimExecutor::new(Platform::ipsc860(8)),
        cluster: net.then(|| Cluster::start(net_cfg.clone()).expect("cluster start")),
    };
    let mut b = run.time_setup(make);
    if let Some(c) = b.cluster.take() {
        c.shutdown();
    }
    let batch = Batch::new(std::mem::take(&mut b.mats));
    let sim_batch = Batch::new(std::mem::take(&mut b.sim_mats));

    let elision_and_sim = |run: &mut Run| {
        shut(run.time_setup(make));
        let mats = Arc::clone(&batch.mats);
        let t = Instant::now();
        let rep = SerialRuntime.execute(RunConfig::new(), move |ctx| {
            let l = factor_all(ctx, &mats);
            (l, ctx.charged_work())
        });
        run.span("elision", t);
        run.check(
            rep.is_ok_and(|r| same_factors(&r.result.0, &batch.want) && r.result.1 == batch.flops),
        );

        let mats = Arc::clone(&sim_batch.mats);
        let t = Instant::now();
        let rep = b
            .sim
            .execute(RunConfig::new(), move |ctx| factor_all(ctx, &mats));
        run.span("sim", t);
        match rep {
            Ok(r) => {
                let net = r.net.unwrap_or_default();
                let ok = same_factors(&r.result, &sim_batch.want)
                    & run.exact("sim.simulated_ns", r.elapsed_nanos)
                    & run.exact("sim.messages", net.messages)
                    & run.exact("sim.bytes", net.bytes);
                run.check(ok);
            }
            Err(_) => run.check(false),
        }
    };

    run.drive(
        0.3,
        |r, traced| {
            if net {
                parallel(r, &b.net, &batch, traced)
            } else {
                parallel(r, &b.threads, &batch, traced)
            }
        },
        |r| {
            elision_and_sim(r);
            if r.cfg.trace {
                let mut ls: Vec<SparseSym> = batch.mats.to_vec();
                let t = Instant::now();
                ls.iter_mut().for_each(serial::factor);
                r.span("serial", t);
                r.check(same_factors(&ls, &batch.want));
            }
        },
    );
    let mut out = vec![("apps.flops", batch.flops)];
    if net {
        let tasks = run.exact_total("engine.tasks_created").unwrap_or(0).max(1) as f64;
        let per_task = |k: &str| run.exact_total(k).unwrap_or(0) as f64 / tasks;
        let med = |k: &str| median(run.samples(k));
        out.extend([
            ("net.messages_per_task", per_task("net.messages")),
            ("net.bytes_per_task", per_task("net.bytes")),
            ("net.payload_bytes", med("net.payload_bytes")),
            ("net.replica_hit_rate", med("net.replica_hit_rate")),
            (
                "net.replica_hit_rate_iqr",
                iqr(run.samples("net.replica_hit_rate")),
            ),
            ("net.retransmits", med("net.retransmits")),
            ("net.shipped_frac", med("net.shipped_frac")),
            ("net.remote_ns_p50", run.phases.body.quantile(0.5)),
            ("net.remote_ns_p90", run.phases.body.quantile(0.9)),
        ]);
    }
    out
}
