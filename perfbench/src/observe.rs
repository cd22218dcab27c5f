//! The traced run's observer: turns the runtime's task-lifecycle
//! events into per-phase histograms.
//!
//! It is installed from outside the program through
//! `RunConfig::with_observer` and needs no hook inside the runtime:
//! the `TaskCreated → TaskEnabled → TaskDispatched → TaskStarted →
//! TaskFinished` stamps already bound every phase it reports.
//!
//! | phase        | interval             | layer    |
//! |--------------|----------------------|----------|
//! | `dep_wait`   | created → enabled    | engine   |
//! | `ready_wait` | enabled → dispatched | executor |
//! | `body`       | started → finished   | executor |
//!
//! Histograms are kept per worker lane and merged when the run ends.
//! Task spans are kept in memory only when asked for, and written out
//! by the caller after the run.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use jade_core::prelude::*;

use crate::stats::Hist;

/// Per-lane phase histograms.
#[derive(Clone, Default)]
pub struct LaneHists {
    /// created → enabled.
    pub dep_wait: Hist,
    /// enabled → dispatched.
    pub ready_wait: Hist,
    /// started → finished.
    pub body: Hist,
}

impl LaneHists {
    /// Fold another lane's histograms into this one.
    pub fn merge(&mut self, other: &LaneHists) {
        self.dep_wait.merge(&other.dep_wait);
        self.ready_wait.merge(&other.ready_wait);
        self.body.merge(&other.body);
    }
}

/// One task's lifecycle, in run-relative nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct TaskSpan {
    /// The task's label.
    pub label: String,
    /// The lane that ran the body.
    pub worker: usize,
    /// `TaskCreated` stamp.
    pub created: u64,
    /// `TaskEnabled` stamp.
    pub enabled: u64,
    /// `TaskDispatched` stamp.
    pub dispatched: u64,
    /// `TaskStarted` stamp.
    pub started: u64,
    /// `TaskFinished` stamp.
    pub finished: u64,
}

/// What one observed run produced.
#[derive(Default)]
pub struct Phases {
    /// Histograms per worker lane (index = lane).
    pub lanes: Vec<LaneHists>,
    /// First and last `TaskCreated` stamp of a root-created task: the
    /// span over which the main program created its tasks.
    pub root_create: Option<(u64, u64)>,
    /// Finished task spans, when requested.
    pub spans: Vec<TaskSpan>,
}

impl Phases {
    /// All lanes merged into one set of histograms.
    pub fn merged(&self) -> LaneHists {
        let mut all = LaneHists::default();
        for lane in &self.lanes {
            all.merge(lane);
        }
        all
    }
}

/// Where an observer publishes its [`Phases`] when the run drops it.
pub type PhaseSlot = Arc<Mutex<Option<Phases>>>;

/// The observer itself. Owns its state while the run feeds it and
/// publishes it into the shared slot when the runtime drops it at the
/// end of the run.
pub struct PhaseObserver {
    out: PhaseSlot,
    keep_spans: bool,
    live: HashMap<TaskId, TaskSpan>,
    phases: Phases,
}

impl PhaseObserver {
    /// A fresh observer, boxed for `RunConfig::with_observer`, and the
    /// slot its [`Phases`] land in. With `keep_spans`, every finished
    /// task's span is kept as well.
    pub fn boxed(keep_spans: bool) -> (Box<dyn RuntimeObserver + Send>, PhaseSlot) {
        let out = Arc::new(Mutex::new(None));
        let obs = PhaseObserver {
            out: out.clone(),
            keep_spans,
            live: HashMap::new(),
            phases: Phases::default(),
        };
        (Box::new(obs), out)
    }

    fn lane(&mut self, worker: usize) -> &mut LaneHists {
        if self.phases.lanes.len() <= worker {
            self.phases
                .lanes
                .resize_with(worker + 1, LaneHists::default);
        }
        &mut self.phases.lanes[worker]
    }
}

impl RuntimeObserver for PhaseObserver {
    fn on_event(&mut self, ev: &Event) {
        let t = ev.nanos;
        match &ev.kind {
            EventKind::TaskCreated { parent, label } => {
                if *parent == TaskId::ROOT {
                    let span = self.phases.root_create.get_or_insert((t, t));
                    span.0 = span.0.min(t);
                    span.1 = span.1.max(t);
                }
                let label = if self.keep_spans {
                    label.clone()
                } else {
                    String::new()
                };
                self.live.insert(
                    ev.task,
                    TaskSpan {
                        label,
                        created: t,
                        ..TaskSpan::default()
                    },
                );
            }
            EventKind::TaskEnabled => {
                if let Some(s) = self.live.get_mut(&ev.task) {
                    s.enabled = t;
                }
            }
            EventKind::TaskDispatched { worker } => {
                let Some(s) = self.live.get_mut(&ev.task) else {
                    return;
                };
                s.dispatched = t;
                let (dep, ready) = (
                    s.enabled.saturating_sub(s.created),
                    t.saturating_sub(s.enabled),
                );
                let lane = self.lane(*worker);
                lane.dep_wait.record(dep);
                lane.ready_wait.record(ready);
            }
            EventKind::TaskStarted { worker } => {
                if let Some(s) = self.live.get_mut(&ev.task) {
                    s.started = t;
                    s.worker = *worker;
                }
            }
            EventKind::TaskFinished { worker } => {
                let Some(mut s) = self.live.remove(&ev.task) else {
                    return;
                };
                s.finished = t;
                let body = t.saturating_sub(s.started);
                self.lane(*worker).body.record(body);
                if self.keep_spans {
                    self.phases.spans.push(s);
                }
            }
            _ => {}
        }
    }
}

impl Drop for PhaseObserver {
    fn drop(&mut self) {
        // Never panic in drop: a poisoned slot only loses this run's
        // phases, which the caller reports as missing.
        if let Ok(mut slot) = self.out.lock() {
            *slot = Some(std::mem::take(&mut self.phases));
        }
    }
}

/// Render task spans as Chrome-trace JSON (`chrome://tracing`): one
/// complete event per task body on its worker's row, plus its waiting
/// phases as a separate "wait" row per worker.
pub fn chrome_trace(spans: &[TaskSpan]) -> String {
    let mut out = String::from("[");
    let mut first = true;
    let mut push = |name: &str, cat: &str, tid: usize, start: u64, end: u64| {
        if !first {
            out.push(',');
        }
        first = false;
        let name = name.replace('\\', "\\\\").replace('"', "\\\"");
        out.push_str(&format!(
            "\n{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3}}}",
            start as f64 / 1e3,
            end.saturating_sub(start) as f64 / 1e3
        ));
    };
    for s in spans {
        push(&s.label, "body", s.worker * 2, s.started, s.finished);
        push(&s.label, "wait", s.worker * 2 + 1, s.created, s.dispatched);
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(nanos: u64, task: u64, kind: EventKind) -> Event {
        Event {
            nanos,
            task: TaskId(task),
            kind,
        }
    }

    #[test]
    fn lifecycle_events_become_phase_histograms() {
        let (mut obs, out) = PhaseObserver::boxed(true);
        let created = |p| EventKind::TaskCreated {
            parent: TaskId(p),
            label: "t".into(),
        };
        for e in [
            ev(10, 1, created(0)),
            ev(20, 2, created(0)),
            ev(30, 1, EventKind::TaskEnabled),
            ev(35, 3, created(1)),
            ev(70, 1, EventKind::TaskDispatched { worker: 2 }),
            ev(75, 1, EventKind::TaskStarted { worker: 2 }),
            ev(175, 1, EventKind::TaskFinished { worker: 2 }),
        ] {
            obs.on_event(&e);
        }
        drop(obs);
        let phases = out.lock().unwrap().take().expect("published on drop");
        assert_eq!(
            phases.root_create,
            Some((10, 20)),
            "only root-created tasks count"
        );
        let all = phases.merged();
        assert_eq!((all.dep_wait.count(), all.dep_wait.sum()), (1, 20));
        assert_eq!((all.ready_wait.count(), all.ready_wait.sum()), (1, 40));
        assert_eq!((all.body.count(), all.body.sum()), (1, 100));
        assert_eq!(phases.lanes.len(), 3);
        assert_eq!(phases.spans.len(), 1);
        assert_eq!(phases.spans[0].worker, 2);
        let json = chrome_trace(&phases.spans);
        assert!(json.contains("\"tid\":4") && json.contains("\"dur\":0.100"));
    }
}
