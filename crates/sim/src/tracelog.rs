//! Simulation event log — the raw material for reproducing Figure 7,
//! the paper's step-by-step picture of a Jade program executing on two
//! message-passing machines (task shipping, object moves/copies,
//! latency hiding).

use std::collections::HashMap;
use std::fmt::Write as _;

use jade_core::ids::{ObjectId, TaskId};
use jade_core::trace::creation_numbers;

use crate::time::SimTime;

/// One logged simulation event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimEventKind {
    /// A task was created by `withonly` on `machine`.
    TaskCreated {
        /// New task.
        task: TaskId,
        /// Label.
        label: String,
        /// Machine the creator executed on.
        machine: usize,
    },
    /// A ready task was assigned to a machine (possibly shipped).
    TaskAssigned {
        /// Task.
        task: TaskId,
        /// Source machine (creator side).
        from: usize,
        /// Destination machine.
        to: usize,
    },
    /// A task began executing.
    TaskStarted {
        /// Task.
        task: TaskId,
        /// Executing machine.
        machine: usize,
    },
    /// A task finished.
    TaskFinished {
        /// Task.
        task: TaskId,
        /// Executing machine.
        machine: usize,
    },
    /// A task suspended (with-cont conversion or ceded access).
    TaskBlocked {
        /// Task.
        task: TaskId,
    },
    /// A suspended task resumed.
    TaskResumed {
        /// Task.
        task: TaskId,
    },
    /// An object's authoritative version moved (write access); the
    /// old version is deallocated/invalidated.
    ObjectMoved {
        /// Object.
        object: ObjectId,
        /// Previous owner.
        from: usize,
        /// New owner.
        to: usize,
        /// Wire bytes.
        bytes: u64,
        /// Whether format conversion was required.
        converted: bool,
    },
    /// An object was replicated for read access; the source keeps its
    /// version so machines read concurrently.
    ObjectCopied {
        /// Object.
        object: ObjectId,
        /// Source machine.
        from: usize,
        /// Replica destination.
        to: usize,
        /// Wire bytes.
        bytes: u64,
        /// Whether format conversion was required.
        converted: bool,
    },
    /// A started-but-waiting task is stalled on an in-flight fetch —
    /// the window the runtime hides by running other tasks.
    FetchPending {
        /// Waiting task.
        task: TaskId,
        /// Object in flight.
        object: ObjectId,
    },
    /// A machine transiently crashed at a task boundary.
    MachineCrashed {
        /// The machine that went down.
        machine: usize,
    },
    /// A crashed machine rejoined the platform.
    MachineRecovered {
        /// The machine that came back.
        machine: usize,
    },
    /// An unstarted task was taken from a crashed machine for
    /// re-execution elsewhere.
    TaskReassigned {
        /// The recovered task.
        task: TaskId,
        /// The machine that crashed with the task queued.
        from: usize,
    },
}

/// Time-stamped event log.
#[derive(Debug, Default)]
pub struct SimLog {
    enabled: bool,
    events: Vec<(SimTime, SimEventKind)>,
}

impl SimLog {
    /// Create a log; disabled logs drop events cheaply.
    pub fn new(enabled: bool) -> Self {
        SimLog { enabled, events: Vec::new() }
    }

    /// Record an event (no-op when disabled).
    #[inline]
    pub fn push(&mut self, t: SimTime, e: SimEventKind) {
        if self.enabled {
            self.events.push((t, e));
        }
    }

    /// All recorded events in time order (the loop only appends with
    /// nondecreasing time).
    pub fn events(&self) -> &[(SimTime, SimEventKind)] {
        &self.events
    }

    /// Render the log as a Figure 7-style narrative. Tasks are shown by
    /// creation number and label, both taken from the log's own
    /// creation events (engine ids name recycled slab slots).
    pub fn render(&self) -> String {
        let created: Vec<(TaskId, &str)> = self
            .events
            .iter()
            .filter_map(|(_, e)| match e {
                SimEventKind::TaskCreated { task, label, .. } => Some((*task, label.as_str())),
                _ => None,
            })
            .collect();
        let numbers = creation_numbers(created.iter().map(|&(t, _)| t));
        let labels: HashMap<TaskId, &str> = created.into_iter().collect();
        let id = |t: TaskId| numbers.get(&t).copied().unwrap_or(t);
        let label = |t: TaskId| {
            if t.is_root() {
                "root"
            } else {
                labels.get(&t).copied().unwrap_or("?")
            }
        };
        let mut s = String::new();
        for (t, e) in &self.events {
            let line = match e {
                SimEventKind::TaskCreated { task, label, machine } => {
                    format!("machine {machine} creates task {} [{label}]", id(*task))
                }
                SimEventKind::TaskAssigned { task, from, to } => {
                    if from == to {
                        format!("task {} [{}] assigned locally to machine {to}", id(*task), label(*task))
                    } else {
                        format!(
                            "task {} [{}] moved from machine {from} to idle machine {to}",
                            id(*task),
                            label(*task)
                        )
                    }
                }
                SimEventKind::TaskStarted { task, machine } => {
                    format!("machine {machine} starts task {} [{}]", id(*task), label(*task))
                }
                SimEventKind::TaskFinished { task, machine } => {
                    format!("machine {machine} finishes task {} [{}]", id(*task), label(*task))
                }
                SimEventKind::TaskBlocked { task } => {
                    format!("task {} [{}] suspends (waiting on earlier task)", id(*task), label(*task))
                }
                SimEventKind::TaskResumed { task } => {
                    format!("task {} [{}] resumes", id(*task), label(*task))
                }
                SimEventKind::ObjectMoved { object, from, to, bytes, converted } => format!(
                    "{object} moved machine {from} -> {to} ({bytes} bytes{}); old version invalidated",
                    if *converted { ", format-converted" } else { "" }
                ),
                SimEventKind::ObjectCopied { object, from, to, bytes, converted } => format!(
                    "{object} copied machine {from} -> {to} ({bytes} bytes{}); both may read concurrently",
                    if *converted { ", format-converted" } else { "" }
                ),
                SimEventKind::FetchPending { task, object } => format!(
                    "task {} [{}] waits for {object} in transit (latency hidden by other tasks)",
                    id(*task),
                    label(*task)
                ),
                SimEventKind::MachineCrashed { machine } => format!(
                    "machine {machine} crashes (transient); queued tasks will re-execute elsewhere"
                ),
                SimEventKind::MachineRecovered { machine } => {
                    format!("machine {machine} rejoins the platform")
                }
                SimEventKind::TaskReassigned { task, from } => format!(
                    "task {} [{}] recovered from crashed machine {from} for re-execution",
                    id(*task),
                    label(*task)
                ),
            };
            let _ = writeln!(s, "[{t:>12}] {line}");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SimLog::new(false);
        log.push(SimTime(1), SimEventKind::TaskBlocked { task: TaskId(1) });
        assert!(log.events().is_empty());
    }

    #[test]
    fn render_produces_narrative() {
        let mut log = SimLog::new(true);
        log.push(
            SimTime(1_000),
            SimEventKind::TaskCreated { task: TaskId(1), label: "Internal(0)".into(), machine: 0 },
        );
        log.push(
            SimTime(2_000),
            SimEventKind::TaskAssigned { task: TaskId(1), from: 0, to: 1 },
        );
        log.push(
            SimTime(3_000),
            SimEventKind::ObjectMoved {
                object: ObjectId(0),
                from: 0,
                to: 1,
                bytes: 128,
                converted: true,
            },
        );
        let out = log.render();
        assert!(out.contains("task task#1 [Internal(0)] moved"));
        assert!(out.contains("creates task"));
        assert!(out.contains("moved from machine 0 to idle machine 1"));
        assert!(out.contains("format-converted"));
    }
}
