//! # perfbench — the Jade runtime's end-to-end and per-layer benchmark
//!
//! One single-threaded process drives one named workload on
//! `nproc` workers and prints one JSON result line. Every timed
//! iteration's output is checked against the serial oracle; failures
//! count against `attempted`.
//!
//! An untraced run (`trace = false`) measures the end-to-end metrics
//! ([`END_TO_END`]). A traced run (`trace = true`) installs the
//! benchmark's own [`observe::PhaseObserver`] on the parallel backend
//! and reports the per-layer metrics ([`PER_LAYER`]); it also times
//! untraced iterations of the same program, so the tracing overhead is
//! measured in the same process.
//!
//! Layers are timed from outside the program, around calls into their
//! public functions: `ctx.withonly`, `Runtime::execute` on each
//! backend, the apps' hand-written serial code and
//! `jade_bench::baseline`.

pub mod host;
pub mod observe;
pub mod stats;

mod cholesky;
mod dispatch;
mod lws;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use jade_core::prelude::*;

use crate::observe::{LaneHists, PhaseObserver, PhaseSlot, TaskSpan};
use crate::stats::{median, quantile, Hist};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fine-grained independent ×64, shared ×4 and fork-join fan=8
    /// shapes on the thread pool, against the scoped-threads baseline.
    Dispatch,
    /// The paper's sparse Cholesky factorization on the thread pool.
    Cholesky,
    /// The LWS owner-computes timestep on the thread pool, and under
    /// the simulator on a simulated iPSC/860.
    Lws,
    /// Sparse Cholesky on the socket backend, every body shipped as IR.
    NetCholesky,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Dispatch,
        Workload::Cholesky,
        Workload::Lws,
        Workload::NetCholesky,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Dispatch => "dispatch",
            Workload::Cholesky => "cholesky",
            Workload::Lws => "lws",
            Workload::NetCholesky => "net_cholesky",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s_p50", "s"),
    ("wall_s_p90", "s"),
    ("elision_s_p50", "s"),
    ("sim_s_p50", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, with units. A
/// metric that does not apply to the workload reads 0 and is named on
/// the run's `n/a:` line.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ctx.attach_ns_p50", "ns"),
    ("ctx.attach_ns_p99", "ns"),
    ("ctx.create_phase_s", "s"),
    ("engine.dep_wait_ns_p50", "ns"),
    ("engine.dep_wait_ns_p90", "ns"),
    ("engine.peak_task_slots", "count"),
    ("engine.peak_task_slots_iqr", "count"),
    ("engine.peak_live_tasks", "count"),
    ("engine.spec_cache_hit_rate", "ratio"),
    ("engine.conflicts", "count"),
    ("engine.access_waits", "count"),
    ("engine.tasks_created", "count"),
    ("executor.ready_wait_ns_p50", "ns"),
    ("executor.ready_wait_ns_p90", "ns"),
    ("executor.body_ns_p50", "ns"),
    ("executor.body_s_total", "s"),
    ("executor.utilization", "ratio"),
    ("executor.cont_steal_rate", "ratio"),
    ("executor.cont_steal_rate_iqr", "ratio"),
    ("executor.grant_cache_hit_rate", "ratio"),
    ("executor.tasks_per_s.independent", "1/s"),
    ("executor.tasks_per_s.shared4", "1/s"),
    ("executor.tasks_per_s.forkjoin8", "1/s"),
    ("serial.overhead_x", "x"),
    ("apps.serial_s_p50", "s"),
    ("apps.flops", "count"),
    ("apps.speedup", "x"),
    ("baseline.wall_s_p50.independent", "s"),
    ("baseline.wall_s_p50.forkjoin8", "s"),
    ("baseline.gap.independent", "x"),
    ("baseline.gap.forkjoin8", "x"),
    ("sim.simulated_ns", "ns"),
    ("sim.messages", "count"),
    ("sim.bytes", "bytes"),
    ("net.messages_per_task", "count"),
    ("net.bytes_per_task", "bytes"),
    ("net.payload_bytes", "bytes"),
    ("net.replica_hit_rate", "ratio"),
    ("net.replica_hit_rate_iqr", "ratio"),
    ("net.retransmits", "count"),
    ("net.shipped_frac", "ratio"),
    ("net.remote_ns_p50", "ns"),
    ("net.remote_ns_p90", "ns"),
    ("trace.overhead_x", "x"),
];

/// One benchmark run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// What to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the measuring loop runs, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Worker threads of the parallel backends.
    pub workers: usize,
    /// Smoke-test inputs and sample counts instead of the real ones.
    pub tiny: bool,
    /// Self-test: corrupt the first checked parallel output, which the
    /// oracle must then count as a failure.
    pub plant_fault: bool,
}

impl Config {
    /// A full-size run of `workload` on every hardware thread.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Config {
        Config {
            workload,
            seed,
            seconds,
            trace,
            workers: host::nproc(),
            tiny: false,
            plant_fault: false,
        }
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Checked outputs (every timed iteration on every backend).
    pub attempted: u64,
    /// Outputs that differed from the oracle, or whose exact counts
    /// differed from the run's first iteration.
    pub failed: u64,
    /// The metrics, in [`END_TO_END`] or [`PER_LAYER`] order.
    pub metrics: Vec<Metric>,
    /// Per-layer metrics that do not apply to this workload.
    pub not_applicable: Vec<&'static str>,
    /// Exact counts: equal on every iteration and every run of a seed.
    pub exact: BTreeMap<String, u64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// A metric's value by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// A finite JSON number with all its digits (non-finite values, which
/// JSON cannot carry, become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The benchmark's output directory, `perfbench/out/`.
fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create perfbench/out");
    dir
}

/// [`out_dir`] relative to the working directory, when it lies below.
fn out_dir_relative() -> PathBuf {
    let dir = out_dir().canonicalize().expect("perfbench/out exists");
    std::env::current_dir()
        .and_then(|cwd| cwd.canonicalize())
        .ok()
        .and_then(|cwd| dir.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or(dir)
}

/// Where to find the repository the benchmark builds against.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Run one benchmark.
pub fn run(cfg: &Config) -> Outcome {
    if cfg.workload == Workload::NetCholesky {
        // The socket backend binds its Unix sockets under the temporary
        // directory; keep them inside the benchmark's own output
        // directory, by a relative path short enough for `sun_path`.
        std::env::set_var("TMPDIR", out_dir_relative());
    }
    let mut run = Run::new(cfg);
    let values = match cfg.workload {
        Workload::Dispatch => dispatch::run(&mut run),
        Workload::Cholesky => cholesky::run(&mut run, false),
        Workload::NetCholesky => cholesky::run(&mut run, true),
        Workload::Lws => lws::run(&mut run),
    };
    run.finish(values)
}

/// Parallel-backend iterations per run at least: `wall_s_p90` needs
/// 100, so that 10 samples lie beyond it.
const MIN_MAIN: usize = 100;

/// Side iterations (elision, simulator, serial, baseline) per run at
/// least: their medians need a dozen or more.
const MIN_SIDE: usize = 15;

/// No run measures longer than this, whatever the sample minimums.
const HARD_CAP_S: f64 = 120.0;

/// Per-run recorder: timing samples, oracle verdicts, exact counts,
/// the traced iterations' merged histograms and benchmark-level spans.
pub(crate) struct Run<'a> {
    pub cfg: &'a Config,
    start: Instant,
    /// Setup-time samples (seconds), kept across the warm-up reset.
    setup: Vec<f64>,
    /// Named per-iteration samples: timings in seconds, or counts.
    samples: BTreeMap<&'static str, Vec<f64>>,
    attempted: u64,
    failed: u64,
    planted: bool,
    exact: BTreeMap<String, u64>,
    /// Phase histograms merged over every traced iteration.
    pub phases: LaneHists,
    /// `withonly` call latencies (dispatch's own program).
    pub attach: Hist,
    /// Task spans of one traced iteration, written out at the end.
    pub task_spans: Vec<TaskSpan>,
    /// Benchmark-level spans: (layer, start ns, end ns).
    spans: Vec<(&'static str, u64, u64)>,
}

impl<'a> Run<'a> {
    fn new(cfg: &'a Config) -> Run<'a> {
        Run {
            cfg,
            start: Instant::now(),
            setup: Vec::new(),
            samples: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            planted: false,
            exact: BTreeMap::new(),
            phases: LaneHists::default(),
            attach: Hist::default(),
            task_spans: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Close a span of `layer` opened at `t`: keep it, record its
    /// length as one sample of `layer`, and return that length in
    /// seconds.
    pub fn span(&mut self, layer: &'static str, t: Instant) -> f64 {
        let end = Instant::now();
        let secs = (end - t).as_secs_f64();
        let ns = |i: Instant| i.saturating_duration_since(self.start).as_nanos() as u64;
        self.spans.push((layer, ns(t), ns(end)));
        self.sample(layer, secs);
        secs
    }

    /// Time one set-up of the workload's inputs and backends. A run
    /// sets up once before measuring and again in every side
    /// iteration: a set-up takes microseconds to milliseconds, and a
    /// thread's first moments land on whichever CPU it started on,
    /// which can be half the speed of the other; spread over the run,
    /// the median repeats.
    pub fn time_setup<R>(&mut self, make: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = std::hint::black_box(make());
        self.setup.push(t.elapsed().as_secs_f64());
        r
    }

    /// Record one per-iteration value under `name`.
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// The samples recorded under `name` so far.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], |v| v.as_slice())
    }

    /// Count one checked output.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Whether to corrupt this output: true once, in a self-test run.
    pub fn plant(&mut self) -> bool {
        let now = self.cfg.plant_fault && !self.planted;
        self.planted |= now;
        now
    }

    /// Record an exact count. Returns false when it differs from the
    /// value the run first recorded under `name`.
    pub fn exact(&mut self, name: impl Into<String>, v: u64) -> bool {
        *self.exact.entry(name.into()).or_insert(v) == v
    }

    /// The sum of the exact counts recorded as `name` or as
    /// `<input>.name`, one per generated input or shape; `None` when
    /// there are none.
    pub fn exact_total(&self, name: &str) -> Option<u64> {
        let suffix = format!(".{name}");
        let mut found = self
            .exact
            .iter()
            .filter(|(k, _)| *k == name || k.ends_with(&suffix))
            .peekable();
        found.peek()?;
        Some(found.map(|(_, v)| v).sum())
    }

    /// Record the schedule-dependent engine counters of one parallel
    /// iteration.
    pub fn engine_samples(&mut self, s: &RuntimeStats) {
        let created = s.tasks_created.max(1) as f64;
        self.sample("engine.peak_task_slots", s.peak_task_slots as f64);
        self.sample("engine.peak_live_tasks", s.peak_live_tasks as f64);
        self.sample(
            "engine.spec_cache_hit_rate",
            s.spec_cache_hits as f64 / created,
        );
        self.sample("engine.access_waits", s.access_waits as f64);
        self.sample("executor.cont_steal_rate", s.cont_steals as f64 / created);
        self.sample(
            "executor.grant_cache_hit_rate",
            s.grant_cache_hits as f64 / created,
        );
    }

    /// Record the exact engine counters of one run on input `input`;
    /// returns whether they match the input's first run.
    pub fn engine_exact(&mut self, input: &str, s: &RuntimeStats) -> bool {
        self.exact(format!("{input}.engine.tasks_created"), s.tasks_created)
            & self.exact(format!("{input}.engine.conflicts"), s.conflicts)
    }

    /// The run configuration of one parallel iteration: with the phase
    /// observer installed when `traced`, and the slot its phases land in.
    pub fn config(&self, traced: bool) -> (RunConfig, Option<PhaseSlot>) {
        if !traced {
            return (RunConfig::new(), None);
        }
        let (obs, slot) = PhaseObserver::boxed(self.task_spans.is_empty());
        (RunConfig::new().with_observer(obs), Some(slot))
    }

    /// Record the phases a traced iteration of `wall` seconds left in
    /// `slot` (nothing for an untraced one).
    pub fn traced(&mut self, slot: Option<PhaseSlot>, wall: f64) {
        let Some(phases) = slot.and_then(|s| s.lock().expect("observer slot").take()) else {
            return;
        };
        let merged = phases.merged();
        let body_total = merged.body.sum() as f64 / 1e9;
        self.sample("executor.body_s_total", body_total);
        // Body spans are wall-clock, and the root's lane and any
        // compensation lanes run bodies too, so on an oversubscribed
        // host this can exceed 1.
        let capacity = self.cfg.workers as f64 * wall;
        self.sample("executor.utilization", body_total / capacity);
        if let Some((first, last)) = phases.root_create {
            self.sample("ctx.create_phase_s", (last - first) as f64 / 1e9);
        }
        self.phases.merge(&merged);
        if self.task_spans.is_empty() {
            self.task_spans = phases.spans;
        }
    }

    /// Alternate `main` and `side` iterations until the configured
    /// time has passed and each has its minimum sample count, keeping
    /// side iterations near `side_share` of loop time. `main` is told
    /// whether to trace: in a traced run every other iteration is
    /// traced, so traced and untraced iterations see the same inputs
    /// and conditions. Warm-up iterations run first; their timings are
    /// discarded, their outputs still checked.
    pub fn drive(
        &mut self,
        side_share: f64,
        mut main: impl FnMut(&mut Run, bool),
        mut side: impl FnMut(&mut Run),
    ) {
        main(self, false);
        main(self, self.cfg.trace);
        side(self);
        self.samples.clear();
        self.phases = LaneHists::default();
        self.attach = Hist::default();
        self.task_spans.clear();

        let (min_main, min_side) = if self.cfg.tiny {
            (12, 3)
        } else {
            (MIN_MAIN, MIN_SIDE)
        };
        let t0 = Instant::now();
        let (mut n_main, mut n_side) = (0, 0);
        let (mut t_main, mut t_side) = (0.0f64, 0.0f64);
        loop {
            let elapsed = t0.elapsed().as_secs_f64();
            let main_done = n_main >= min_main;
            let side_done = n_side >= min_side;
            if (elapsed >= self.cfg.seconds && main_done && side_done) || elapsed > HARD_CAP_S {
                break;
            }
            let do_side = if elapsed >= self.cfg.seconds {
                main_done
            } else {
                t_side < side_share * (t_main + t_side)
            };
            let t = Instant::now();
            if do_side {
                side(self);
                n_side += 1;
                t_side += t.elapsed().as_secs_f64();
            } else {
                let traced = self.cfg.trace && n_main % 2 == 1;
                let rss_reset = !self.cfg.trace && reset_peak_rss();
                main(self, traced);
                if rss_reset {
                    self.sample("peak_rss", peak_rss_mb());
                }
                n_main += 1;
                t_main += t.elapsed().as_secs_f64();
            }
        }
    }

    fn finish(self, values: Vec<(&'static str, f64)>) -> Outcome {
        let cfg = self.cfg;
        let fp = host::Fingerprint::take(&repo_root(), cfg.seed, cfg.workers);
        let mut values: BTreeMap<&str, f64> = values.into_iter().collect();
        let mut notes = vec![format!("host: {}", fp.to_json())];
        let names: &[(&str, &str)] = if cfg.trace { PER_LAYER } else { END_TO_END };
        if !cfg.trace {
            values.insert("setup_s", median(&self.setup));
            values.insert("wall_s_p50", quantile(self.samples("wall"), 0.5));
            values.insert("wall_s_p90", quantile(self.samples("wall"), 0.9));
            values.insert("elision_s_p50", median(self.samples("elision")));
            values.insert("sim_s_p50", median(self.samples("sim")));
            let per_iteration = self.samples("peak_rss");
            let rss = if per_iteration.is_empty() {
                peak_rss_mb()
            } else {
                median(per_iteration)
            };
            values.insert("peak_rss_mb", rss);
        } else {
            self.layer_values(&mut values);
        }
        let mut metrics = Vec::new();
        let mut not_applicable = Vec::new();
        for &(name, unit) in names {
            match values.get(name) {
                Some(&value) if value.is_finite() => metrics.push(Metric { name, value, unit }),
                _ => {
                    assert!(cfg.trace, "end-to-end metric {name} was not measured");
                    not_applicable.push(name);
                    metrics.push(Metric {
                        name,
                        value: 0.0,
                        unit,
                    });
                }
            }
        }
        let counts: Vec<String> = self
            .samples
            .iter()
            .map(|(k, v)| format!("{k}={}", v.len()))
            .collect();
        notes.push(format!(
            "samples: setup={} {}",
            self.setup.len(),
            counts.join(" ")
        ));
        let exact: Vec<String> = self.exact.iter().map(|(k, v)| format!("{k}={v}")).collect();
        notes.push(format!("exact: {}", exact.join(" ")));
        if cfg.trace {
            let spread: Vec<String> = [
                "engine.peak_task_slots",
                "executor.cont_steal_rate",
                "net.replica_hit_rate",
            ]
            .iter()
            .filter(|k| !self.samples(k).is_empty())
            .map(|k| {
                let v = self.samples(k);
                format!("{k}=[{}..{}]", quantile(v, 0.0), quantile(v, 1.0))
            })
            .collect();
            notes.push(format!("spread: {}", spread.join(" ")));
            notes.push(format!("n/a: {}", not_applicable.join(" ")));
            match self.write_trace(&fp, &metrics) {
                Ok(path) => notes.push(format!("trace: {}", path.display())),
                Err(e) => notes.push(format!("trace: not written ({e})")),
            }
        }
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            not_applicable,
            exact: self.exact,
            notes,
        }
    }

    /// The per-layer values every workload shares; a workload's own
    /// values (already in `values`) take precedence.
    fn layer_values(&self, values: &mut BTreeMap<&str, f64>) {
        let ns = |h: &Hist, q: f64| h.quantile(q);
        let med = |k: &str| median(self.samples(k));
        let mut add = |k: &'static str, v: f64| {
            values.entry(k).or_insert(v);
        };
        if self.attach.count() > 0 {
            add("ctx.attach_ns_p50", ns(&self.attach, 0.5));
            add("ctx.attach_ns_p99", ns(&self.attach, 0.99));
        }
        add("ctx.create_phase_s", med("ctx.create_phase_s"));
        add("engine.dep_wait_ns_p50", ns(&self.phases.dep_wait, 0.5));
        add("engine.dep_wait_ns_p90", ns(&self.phases.dep_wait, 0.9));
        add("engine.peak_task_slots", med("engine.peak_task_slots"));
        add(
            "engine.peak_task_slots_iqr",
            stats::iqr(self.samples("engine.peak_task_slots")),
        );
        add("engine.peak_live_tasks", med("engine.peak_live_tasks"));
        add(
            "engine.spec_cache_hit_rate",
            med("engine.spec_cache_hit_rate"),
        );
        add("engine.access_waits", med("engine.access_waits"));
        add(
            "executor.ready_wait_ns_p50",
            ns(&self.phases.ready_wait, 0.5),
        );
        add(
            "executor.ready_wait_ns_p90",
            ns(&self.phases.ready_wait, 0.9),
        );
        add("executor.body_ns_p50", ns(&self.phases.body, 0.5));
        add("executor.body_s_total", med("executor.body_s_total"));
        add("executor.utilization", med("executor.utilization"));
        add("executor.cont_steal_rate", med("executor.cont_steal_rate"));
        add(
            "executor.cont_steal_rate_iqr",
            stats::iqr(self.samples("executor.cont_steal_rate")),
        );
        add(
            "executor.grant_cache_hit_rate",
            med("executor.grant_cache_hit_rate"),
        );
        let (serial, elision) = (med("serial"), med("elision"));
        add("serial.overhead_x", elision / serial);
        add("apps.serial_s_p50", serial);
        add("apps.speedup", serial / med("wall"));
        add("trace.overhead_x", med("wall_traced") / med("wall"));
        for &(name, _) in PER_LAYER {
            if let Some(total) = self.exact_total(name) {
                add(name, total as f64);
            }
        }
    }

    /// Write the fingerprint, metrics, benchmark-level spans and one
    /// traced iteration's task spans under `perfbench/out/`.
    fn write_trace(&self, fp: &host::Fingerprint, metrics: &[Metric]) -> std::io::Result<PathBuf> {
        let dir = out_dir();
        let stem = format!("{}-seed{}", self.cfg.workload.name(), self.cfg.seed);
        let chrome = dir.join(format!("{stem}.chrome.json"));
        std::fs::write(&chrome, observe::chrome_trace(&self.task_spans))?;
        let mut s = format!("{{\n\"host\": {},\n\"metrics\": {{", fp.to_json());
        let ms: Vec<String> = metrics
            .iter()
            .map(|m| format!("\"{}\": {}", m.name, json_num(m.value)))
            .collect();
        s.push_str(&ms.join(", "));
        s.push_str("},\n\"exact\": {");
        let ex: Vec<String> = self
            .exact
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        s.push_str(&ex.join(", "));
        s.push_str("},\n\"spans\": [");
        let sp: Vec<String> = self
            .spans
            .iter()
            .map(|(l, a, b)| format!("\n[\"{l}\", {a}, {b}]"))
            .collect();
        s.push_str(&sp.join(","));
        s.push_str("\n]\n}\n");
        let path = dir.join(format!("{stem}.json"));
        std::fs::write(&path, s)?;
        Ok(path)
    }
}

/// Reset this process's peak resident set (`VmHWM`) to its current
/// resident set, so the next reading is the peak of what ran since.
/// The peak over a whole run is the largest of ~100 schedule-dependent
/// live sets and swings by ±15% between runs; the median of
/// per-iteration peaks repeats. Returns false where the kernel refuses,
/// and `peak_rss_mb` then falls back to the whole run's peak.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Bitwise equality of two `f64` sequences (`==` would equate 0.0 and
/// -0.0 and refuse NaN).
pub(crate) fn bits_eq<'x>(
    a: impl IntoIterator<Item = &'x f64>,
    b: impl IntoIterator<Item = &'x f64>,
) -> bool {
    let (mut a, mut b) = (a.into_iter(), b.into_iter());
    loop {
        match (a.next(), b.next()) {
            (None, None) => return true,
            (Some(x), Some(y)) if x.to_bits() == y.to_bits() => {}
            _ => return false,
        }
    }
}
