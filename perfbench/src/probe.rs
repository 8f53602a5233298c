//! Pass-through failure injector that timestamps every trigger point.
//!
//! The engine consults its `FailureInjector` at every `JobStart`,
//! `MidMapWave(w)`, `AfterMapWave(w)`, `MidReduceWave(w)` and
//! `AfterReduceWave(w)`. A [`Probe`] reads the clock once per call,
//! records the event, and forwards the call unchanged to the workload's
//! own injector, so the benchmark can time the engine's layers from the
//! outside without changing a line of program code.

use rcmp_engine::{FailureInjector, Fault, ProgressEvent, TriggerPoint};
use rcmp_model::NodeId;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One shared time origin for every timestamp of a benchmark run.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    origin: Instant,
}

impl Clock {
    /// A clock whose zero is now.
    pub fn start() -> Self {
        Self {
            origin: Instant::now(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// One trigger-point call, as seen by the probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbeEvent {
    /// Clock reading on entry to the call.
    pub at_ns: u64,
    /// Global run sequence number of the job run.
    pub seq: u64,
    /// The logical job being run.
    pub job: u32,
    /// Where in the run the engine is.
    pub point: TriggerPoint,
    /// How many faults the wrapped injector raised here.
    pub faults: u32,
}

/// Records every trigger point, then delegates to `inner`.
pub struct Probe {
    inner: Arc<dyn FailureInjector>,
    clock: Clock,
    events: Mutex<Vec<ProbeEvent>>,
}

impl Probe {
    /// Wraps `inner`, timestamping against `clock`.
    pub fn new(inner: Arc<dyn FailureInjector>, clock: Clock) -> Self {
        Self {
            inner,
            clock,
            events: Mutex::new(Vec::with_capacity(256)),
        }
    }

    /// Every event recorded so far, in call order.
    pub fn events(&self) -> Vec<ProbeEvent> {
        self.events.lock().expect("probe lock poisoned").clone()
    }
}

impl FailureInjector for Probe {
    /// The engine calls [`FailureInjector::poll_faults`]; plain `poll`
    /// is forwarded untimed.
    fn poll(&self, event: &ProgressEvent) -> Vec<NodeId> {
        self.inner.poll(event)
    }

    fn poll_faults(&self, event: &ProgressEvent) -> Vec<Fault> {
        let at_ns = self.clock.now_ns();
        let faults = self.inner.poll_faults(event);
        self.events
            .lock()
            .expect("probe lock poisoned")
            .push(ProbeEvent {
                at_ns,
                seq: event.seq,
                job: event.job.0,
                point: event.point,
                faults: faults.len() as u32,
            });
        faults
    }

    fn finish(&self) -> std::result::Result<(), String> {
        self.inner.finish()
    }
}

/// Recovery timing read off a chain's probe events: from the first
/// fired fault to the `JobStart` of the interrupted job's re-run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RecoveryTiming {
    /// Fault → first `JobStart` after it (loss detection, cancellation,
    /// lineage planning, backoff).
    pub replan_ns: u64,
    /// First recompute `JobStart` → the re-run's `JobStart`.
    pub recompute_ns: u64,
}

impl RecoveryTiming {
    /// Whole recovery: fault → re-run `JobStart`.
    pub fn total_ns(&self) -> u64 {
        self.replan_ns + self.recompute_ns
    }
}

/// Finds the recovery window in `events`, or `None` when no fault fired
/// or the interrupted job never started again.
pub fn recovery_timing(events: &[ProbeEvent]) -> Option<RecoveryTiming> {
    let kill = events.iter().position(|e| e.faults > 0)?;
    let k = events[kill];
    let starts = || {
        events[kill + 1..]
            .iter()
            .filter(|e| e.point == TriggerPoint::JobStart)
    };
    let first = starts().next()?;
    let rerun = starts().find(|e| e.job == k.job)?;
    Some(RecoveryTiming {
        replan_ns: first.at_ns - k.at_ns,
        recompute_ns: rerun.at_ns - first.at_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcmp_engine::{NoFailures, ScriptedInjector};
    use rcmp_model::JobId;

    fn ev(seq: u64, job: u32, point: TriggerPoint) -> ProgressEvent {
        ProgressEvent {
            seq,
            job: JobId(job),
            point,
        }
    }

    #[test]
    fn forwards_faults_and_records_each_call() {
        let inner = Arc::new(ScriptedInjector::single(
            2,
            TriggerPoint::JobStart,
            NodeId(3),
        ));
        let probe = Probe::new(inner, Clock::start());
        assert!(probe
            .poll_faults(&ev(1, 1, TriggerPoint::JobStart))
            .is_empty());
        assert_eq!(
            probe.poll_faults(&ev(2, 2, TriggerPoint::JobStart)),
            vec![Fault::NodeCrash(NodeId(3))]
        );
        assert!(probe.finish().is_ok(), "the inner script fully played out");
        let events = probe.events();
        assert_eq!(events.len(), 2);
        assert_eq!((events[0].faults, events[1].faults), (0, 1));
        assert!(events[0].at_ns <= events[1].at_ns);
    }

    #[test]
    fn forwards_finish_errors() {
        let inner = Arc::new(ScriptedInjector::single(
            9,
            TriggerPoint::JobStart,
            NodeId(0),
        ));
        let probe = Probe::new(inner, Clock::start());
        assert!(probe.finish().is_err(), "unfired trigger must surface");
    }

    #[test]
    fn recovery_window_spans_kill_to_rerun() {
        let at = |at_ns, seq, job, faults| ProbeEvent {
            at_ns,
            seq,
            job,
            point: TriggerPoint::JobStart,
            faults,
        };
        let events = [
            at(10, 1, 1, 0),
            at(20, 2, 2, 2),
            at(35, 3, 1, 0),
            at(50, 4, 2, 0),
        ];
        let t = recovery_timing(&events).expect("recovery found");
        assert_eq!((t.replan_ns, t.recompute_ns, t.total_ns()), (15, 15, 30));
        let probe = Probe::new(Arc::new(NoFailures), Clock::start());
        assert_eq!(recovery_timing(&probe.events()), None);
    }
}
