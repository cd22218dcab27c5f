//! Task processes: running real Rust task bodies under simulated time.
//!
//! Task bodies are ordinary closures (the same closures the serial and
//! threaded executors run), so the simulation computes *real data
//! values* — determinism tests compare them bitwise against the serial
//! elision. Each started task runs on a *task process*, an OS thread
//! from the run's process pool: a process whose body finished goes back
//! to the pool's idle list and runs the next started task, so a run
//! spawns only as many threads as it has live task contexts at once.
//! The simulator enforces strict alternation: exactly one thread
//! (either the event loop or a single task process) runs at any moment.
//! The event loop *steps* a task by sending it a response and waiting
//! for the task's next request. That wait polls the request channel and
//! yields the CPU between polls, for a bounded number of polls, before
//! it blocks: a reply usually comes back sooner than a park/unpark
//! handoff takes, and yielding lets the task run even on one CPU. Task
//! processes never poll; they block on every receive, so a suspended
//! task costs no CPU. This makes the simulation fully deterministic
//! while letting task bodies block mid-execution (`with-cont`, ceded
//! accesses) exactly like the paper's tasks do.

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::thread::JoinHandle;

use jade_core::error::JadeError;
use jade_core::ids::{ObjectId, Placement, TaskId};
use jade_core::spec::{ContOp, Declaration};
use jade_core::store::Slot;

use crate::runtime::SimCtx;

/// A task body as shipped to the simulator.
pub type SimBody = Box<dyn FnOnce(&mut SimCtx) + Send + 'static>;

/// Requests a task process sends to the event loop.
pub enum ProcReq {
    /// Account compute work (advances the machine's clock).
    Charge(f64),
    /// `withonly`: create a child task.
    Withonly {
        /// Task label for traces.
        label: String,
        /// Built declarations.
        decls: Vec<Declaration>,
        /// Placement request.
        placement: Placement,
        /// The child's body.
        body: SimBody,
    },
    /// `with-cont`: update the access specification.
    WithCont(Vec<(ObjectId, ContOp)>),
    /// Checked access to an object; the loop replies with the local
    /// version's slot once the access is enabled and resident.
    Access {
        /// Object to access.
        object: ObjectId,
        /// Read or write.
        kind: jade_core::spec::AccessKind,
    },
    /// Allocate a shared object (the slot carries the initial value).
    CreateObject {
        /// Debug name.
        name: String,
        /// Initial local version.
        slot: Slot,
    },
    /// Body returned normally.
    Done,
    /// Body panicked; the message describes the panic. When the panic
    /// was raised by `jade_core::ctx::violation`, the typed error is
    /// recovered from the proc thread's thread-local and carried
    /// alongside so the loop can surface a typed `JadeFault`.
    Panicked {
        /// The panic payload rendered as text.
        message: String,
        /// The typed violation, when the panic came from `violation`.
        violation: Option<JadeError>,
    },
}

impl std::fmt::Debug for ProcReq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcReq::Charge(w) => write!(f, "Charge({w})"),
            ProcReq::Withonly { label, .. } => write!(f, "Withonly({label})"),
            ProcReq::WithCont(ops) => write!(f, "WithCont({} ops)", ops.len()),
            ProcReq::Access { object, kind } => write!(f, "Access({object}, {kind})"),
            ProcReq::CreateObject { name, .. } => write!(f, "CreateObject({name})"),
            ProcReq::Done => write!(f, "Done"),
            ProcReq::Panicked { message, .. } => write!(f, "Panicked({message})"),
        }
    }
}

/// Responses the event loop sends to a task process.
pub enum ProcResp {
    /// Continue (charge elapsed, child created, with-cont satisfied).
    Proceed,
    /// The requested object's local version.
    Object(Slot),
    /// The new object's id.
    Created(ObjectId),
    /// A programming-model violation; the ctx panics with it.
    Violation(JadeError),
}

impl std::fmt::Debug for ProcResp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcResp::Proceed => write!(f, "Proceed"),
            ProcResp::Object(_) => write!(f, "Object"),
            ProcResp::Created(o) => write!(f, "Created({o})"),
            ProcResp::Violation(e) => write!(f, "Violation({e})"),
        }
    }
}

/// How many times the event loop polls for a task's reply, yielding
/// between polls, before it blocks on the channel.
const YIELD_POLLS: u32 = 256;

/// Messages the event loop sends to a task process.
enum ToProc {
    /// Run this task's body next, on a fresh context. Sent in place of
    /// the task's first `ProcResp::Proceed` (its go signal).
    Start(TaskId, SimBody),
    /// The response to the running body's latest request.
    Resp(ProcResp),
}

/// Unwind payload that ends a suspended body when the pool is torn
/// down. It is raised with `resume_unwind`, so no panic hook runs and
/// nothing is printed.
struct Teardown;

/// The task-process side of one process's channels.
pub(crate) struct ProcChannels {
    req_tx: SyncSender<ProcReq>,
    rx: Receiver<ToProc>,
}

impl ProcChannels {
    /// Send a request to the event loop and block until its response.
    /// If the pool was torn down, the body unwinds with [`Teardown`].
    pub(crate) fn call(&self, req: ProcReq) -> ProcResp {
        if self.req_tx.send(req).is_err() {
            resume_unwind(Box::new(Teardown));
        }
        match self.rx.recv() {
            Ok(ToProc::Resp(resp)) => resp,
            Ok(ToProc::Start(task, _)) => {
                panic!("task process was handed {task} while its body was still running")
            }
            Err(_) => resume_unwind(Box::new(Teardown)),
        }
    }
}

/// The event-loop side of one task process.
struct ProcHandle {
    tx: SyncSender<ToProc>,
    req_rx: Receiver<ProcReq>,
    /// The task this process starts on its next step.
    next: Option<(TaskId, SimBody)>,
}

impl ProcHandle {
    /// Send a response to the task and wait for its next request — the
    /// strict-alternation step that keeps the simulation
    /// deterministic. The first step after [`ProcPool::start`] hands
    /// the process its task; its response must be `Proceed`.
    fn step(&mut self, resp: ProcResp) -> ProcReq {
        let msg = match self.next.take() {
            Some((task, body)) => {
                debug_assert!(matches!(resp, ProcResp::Proceed), "a task starts with Proceed");
                ToProc::Start(task, body)
            }
            None => ToProc::Resp(resp),
        };
        self.tx.send(msg).expect("task process hung up before its Done/Panicked request");
        let vanished = || ProcReq::Panicked {
            message: "task process vanished".to_string(),
            violation: None,
        };
        for _ in 0..YIELD_POLLS {
            match self.req_rx.try_recv() {
                Ok(req) => return req,
                Err(TryRecvError::Empty) => std::thread::yield_now(),
                Err(TryRecvError::Disconnected) => return vanished(),
            }
        }
        self.req_rx.recv().unwrap_or_else(|_| vanished())
    }
}

/// The task processes of one simulation run. Dropping the pool tears
/// it down (see [`ProcPool::shutdown`]).
pub(crate) struct ProcPool {
    machines: usize,
    /// Processes of started, unfinished tasks.
    live: HashMap<TaskId, ProcHandle>,
    /// Processes waiting for their next task.
    idle: Vec<ProcHandle>,
    threads: Vec<JoinHandle<()>>,
}

#[cfg(test)]
thread_local! {
    /// Threads spawned and the peak number of live task processes, over
    /// every pool driven from the current thread.
    static POOL_COUNTS: std::cell::Cell<(usize, usize)> = const { std::cell::Cell::new((0, 0)) };
}

impl ProcPool {
    /// An empty pool for a platform of `machines` machines.
    pub(crate) fn new(machines: usize) -> Self {
        ProcPool { machines, live: HashMap::new(), idle: Vec::new(), threads: Vec::new() }
    }

    /// Give `task` a process: an idle one when there is one, a new
    /// thread otherwise. The body does not run until the first
    /// [`step`](Self::step) delivers `ProcResp::Proceed`.
    pub(crate) fn start(&mut self, task: TaskId, body: SimBody) {
        let mut proc = self.idle.pop().unwrap_or_else(|| self.spawn());
        proc.next = Some((task, body));
        let prev = self.live.insert(task, proc);
        debug_assert!(prev.is_none(), "{task} started twice");
        #[cfg(test)]
        POOL_COUNTS.with(|c| c.set((c.get().0, c.get().1.max(self.live.len()))));
    }

    fn spawn(&mut self) -> ProcHandle {
        // Capacity 1 is enough: alternation keeps at most one message
        // in flight per direction.
        let (tx, rx) = sync_channel::<ToProc>(1);
        let (req_tx, req_rx) = sync_channel::<ProcReq>(1);
        let machines = self.machines;
        let thread = std::thread::Builder::new()
            .name("jade-sim-proc".to_string())
            .stack_size(1 << 20)
            .spawn(move || proc_main(ProcChannels { req_tx, rx }, machines))
            .expect("spawn task process");
        self.threads.push(thread);
        #[cfg(test)]
        POOL_COUNTS.with(|c| c.set((c.get().0 + 1, c.get().1)));
        ProcHandle { tx, req_rx, next: None }
    }

    /// Step `task`'s process: see [`ProcHandle::step`].
    pub(crate) fn step(&mut self, task: TaskId, resp: ProcResp) -> ProcReq {
        self.live.get_mut(&task).expect("driving a live process").step(resp)
    }

    /// Whether `task` has been started and has not finished.
    pub(crate) fn is_live(&self, task: TaskId) -> bool {
        self.live.contains_key(&task)
    }

    /// The started, unfinished tasks.
    pub(crate) fn live_tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.live.keys().copied()
    }

    /// Return the process of `task`, whose body reported `Done`, to the
    /// idle list.
    pub(crate) fn finish(&mut self, task: TaskId) {
        let proc = self.live.remove(&task).expect("finishing a live process");
        self.idle.push(proc);
    }

    /// End every process and join its thread. Dropping the event-loop
    /// side of the channels makes each suspended body unwind with
    /// [`Teardown`] (running its destructors, printing nothing) and each
    /// idle process exit; a started body that never ran is dropped here.
    pub(crate) fn shutdown(&mut self) {
        self.live.clear();
        self.idle.clear();
        for thread in self.threads.drain(..) {
            // A process that panicked outside a body already surfaced
            // as "task process vanished"; nothing is left to report.
            let _ = thread.join();
        }
    }
}

impl Drop for ProcPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A task process: run each task the event loop hands over, on a fresh
/// [`SimCtx`], until the loop hangs up.
fn proc_main(mut chans: ProcChannels, machines: usize) {
    while let Ok(msg) = chans.rx.recv() {
        let ToProc::Start(task, body) = msg else {
            panic!("idle task process received a response");
        };
        let mut ctx = SimCtx::new(task, machines, chans);
        let outcome = catch_unwind(AssertUnwindSafe(|| body(&mut ctx)));
        let leaked = ctx.holds_any();
        chans = ctx.into_channels();
        let msg = match outcome {
            Ok(()) => {
                if leaked {
                    ProcReq::Panicked {
                        message: format!(
                            "task {task} completed while still holding an access guard"
                        ),
                        violation: Some(JadeError::GuardLeaked { task }),
                    }
                } else {
                    ProcReq::Done
                }
            }
            Err(p) if p.is::<Teardown>() => return,
            Err(p) => {
                let m = p
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "task panicked".to_string());
                // Trust the thread-local only when the payload is
                // the exact message `violation` raised (mirrors the
                // threaded executor's classification).
                let violation = jade_core::ctx::take_violation().filter(|err| {
                    m == format!("Jade programming model violation: {err}")
                });
                ProcReq::Panicked { message: m, violation }
            }
        };
        if chans.req_tx.send(msg).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Platform, SimExecutor};
    use jade_core::prelude::*;

    #[test]
    fn spawn_step_done_handshake() {
        let mut pool = ProcPool::new(1);
        pool.start(TaskId(1), Box::new(|_ctx| {}));
        // First step delivers Proceed; an empty body immediately Done-s.
        match pool.step(TaskId(1), ProcResp::Proceed) {
            ProcReq::Done => {}
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn panicking_body_reports() {
        let mut pool = ProcPool::new(1);
        pool.start(TaskId(2), Box::new(|_ctx| panic!("boom {}", 42)));
        match pool.step(TaskId(2), ProcResp::Proceed) {
            ProcReq::Panicked { message, violation } => {
                assert!(message.contains("boom 42"));
                assert!(violation.is_none(), "plain panic carries no violation");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn charge_roundtrip() {
        let mut pool = ProcPool::new(1);
        pool.start(TaskId(3), Box::new(|ctx| ctx.charge(5.0)));
        match pool.step(TaskId(3), ProcResp::Proceed) {
            ProcReq::Charge(w) => assert_eq!(w, 5.0),
            other => panic!("expected Charge, got {other:?}"),
        }
        match pool.step(TaskId(3), ProcResp::Proceed) {
            ProcReq::Done => {}
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn finished_process_runs_the_next_task() {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut pool = ProcPool::new(1);
        for t in [TaskId(4), TaskId(5)] {
            let tx = tx.clone();
            pool.start(
                t,
                Box::new(move |ctx| {
                    tx.send((ctx.task(), std::thread::current().id())).expect("test receiver");
                }),
            );
            match pool.step(t, ProcResp::Proceed) {
                ProcReq::Done => pool.finish(t),
                other => panic!("expected Done, got {other:?}"),
            }
        }
        let (a, b) = (rx.recv().expect("first body ran"), rx.recv().expect("second body ran"));
        assert_eq!((a.0, b.0), (TaskId(4), TaskId(5)), "each body sees its own task");
        assert_eq!(a.1, b.1, "the second task reused the first task's thread");
        assert_eq!(pool.threads.len(), 1);
    }

    #[test]
    fn dependent_chain_reuses_a_few_threads() {
        POOL_COUNTS.with(|c| c.set((0, 0)));
        let (sum, _) = SimExecutor::new(Platform::ipsc860(1)).run(|ctx| {
            let x = ctx.create(0u64);
            for i in 0..1_000u64 {
                ctx.withonly(
                    "link",
                    |s| {
                        s.rd_wr(x);
                    },
                    move |c| *c.wr(&x) += i,
                );
            }
            *ctx.rd(&x)
        });
        assert_eq!(sum, (0..1_000).sum::<u64>());
        let (spawned, peak_live) = POOL_COUNTS.with(|c| c.get());
        assert!(spawned <= peak_live, "spawned {spawned} threads for {peak_live} live contexts");
        assert!((1..=3).contains(&spawned), "a chain of 1,000 tasks spawned {spawned} threads");
    }
}
