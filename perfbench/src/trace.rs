//! In-memory spans built from the benchmark's own timestamps.
//!
//! A chain's span tree is `chain → run(seq) → map_wave / reduce_wave`,
//! derived from the probe's trigger-point events: a run lasts from its
//! `JobStart` to the next run's `JobStart` (or the chain's end), a map
//! wave from `MidMapWave(w)` to `AfterMapWave(w)`, a reduce wave from
//! `MidReduceWave(w)` to `AfterReduceWave(w)`. Served chains add
//! `request → queue` above the chain. Spans of one chain share a trace
//! id; they stay in memory and are written out when the run ends.

use crate::probe::ProbeEvent;
use rcmp_engine::TriggerPoint;
use std::fmt::Write as _;
use std::path::Path;

/// One timed interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique within the log.
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// Shared by every span of one chain (or request).
    pub trace: u64,
    /// Layer boundary the span covers.
    pub name: &'static str,
    /// Run sequence number for `run` spans, wave index for waves.
    pub index: u64,
    /// Start, nanoseconds on the run's clock.
    pub start_ns: u64,
    /// End, nanoseconds on the run's clock.
    pub end_ns: u64,
}

impl Span {
    /// Span length.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Append-only span store.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Records a span and returns its id.
    pub fn record(
        &mut self,
        trace: u64,
        parent: Option<u64>,
        name: &'static str,
        index: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            trace,
            name,
            index,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its length minus the time its children
    /// cover (children of one span never overlap).
    pub fn self_times(&self) -> Vec<(u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .map(|s| (s.id, s.dur_ns().saturating_sub(child_ns[s.id as usize])))
            .collect()
    }

    /// One JSON object per line: id, parent, trace, name, index, start
    /// and end in nanoseconds, and self time.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (s, (_, self_ns)) in self.spans.iter().zip(self.self_times()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"index\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id, parent, s.trace, s.name, s.index, s.start_ns, s.end_ns, self_ns
            );
        }
        out
    }

    /// Writes the spans as JSON lines to `<dir>/<stem>.jsonl`.
    pub fn write(&self, dir: &Path, stem: &str) -> Result<(), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(format!("{stem}.jsonl"));
        std::fs::write(&path, self.to_jsonl())
            .map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

/// Where one chain's wall time went, by layer boundary. The six times
/// add up to the chain's wall time exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Layers {
    /// Inside map waves.
    pub map_wave_ns: u64,
    /// Inside reduce waves.
    pub reduce_wave_ns: u64,
    /// Run start → its first wave (task sets, placement).
    pub job_init_ns: u64,
    /// Between consecutive waves of the same phase.
    pub inter_wave_gap_ns: u64,
    /// Last map wave → first reduce wave of a run.
    pub shuffle_gap_ns: u64,
    /// Chain start → first run, each run's last wave → its end (output
    /// commit, loss check, cache commit, driver work), and whole runs
    /// without waves (a run cancelled at `JobStart`).
    pub between_jobs_ns: u64,
    /// Map waves executed.
    pub map_waves: u32,
    /// Reduce waves executed.
    pub reduce_waves: u32,
}

impl Layers {
    /// Sum of every time bucket (equals the chain's wall time).
    pub fn total_ns(&self) -> u64 {
        self.map_wave_ns
            + self.reduce_wave_ns
            + self.job_init_ns
            + self.inter_wave_gap_ns
            + self.shuffle_gap_ns
            + self.between_jobs_ns
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Map,
    Reduce,
}

struct Wave {
    phase: Phase,
    index: u32,
    start: u64,
    end: u64,
}

/// Pairs `Mid*`/`After*` events of one run into waves (a wave whose
/// `After*` never fired ends with the run).
fn waves_of(events: &[ProbeEvent], run_end: u64) -> Vec<Wave> {
    let mut waves: Vec<Wave> = Vec::new();
    for e in events {
        match e.point {
            TriggerPoint::MidMapWave(w) | TriggerPoint::MidReduceWave(w) => waves.push(Wave {
                phase: if matches!(e.point, TriggerPoint::MidMapWave(_)) {
                    Phase::Map
                } else {
                    Phase::Reduce
                },
                index: w,
                start: e.at_ns,
                end: run_end,
            }),
            TriggerPoint::AfterMapWave(w) | TriggerPoint::AfterReduceWave(w) => {
                let phase = if matches!(e.point, TriggerPoint::AfterMapWave(_)) {
                    Phase::Map
                } else {
                    Phase::Reduce
                };
                if let Some(open) = waves
                    .iter_mut()
                    .rev()
                    .find(|x| x.phase == phase && x.index == w)
                {
                    open.end = e.at_ns;
                }
            }
            TriggerPoint::JobStart => {}
        }
    }
    waves
}

/// Splits one chain's events into runs and waves. When `log` is given,
/// records the `chain → run → wave` spans under `parent` with trace id
/// `trace`. Returns the chain's layer decomposition either way.
pub fn chain_layers(
    events: &[ProbeEvent],
    start_ns: u64,
    end_ns: u64,
    mut log: Option<(&mut SpanLog, u64, Option<u64>)>,
) -> Layers {
    let mut layers = Layers::default();
    let chain_id = log
        .as_mut()
        .map(|(log, trace, parent)| log.record(*trace, *parent, "chain", 0, start_ns, end_ns));
    let starts: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.point == TriggerPoint::JobStart)
        .map(|(i, _)| i)
        .collect();
    let Some(&first) = starts.first() else {
        layers.between_jobs_ns = end_ns.saturating_sub(start_ns);
        return layers;
    };
    layers.between_jobs_ns += events[first].at_ns.saturating_sub(start_ns);
    for (k, &i) in starts.iter().enumerate() {
        let next = starts.get(k + 1).copied().unwrap_or(events.len());
        let run_start = events[i].at_ns;
        let run_end = events.get(next).map_or(end_ns, |e| e.at_ns);
        let run_id = log.as_mut().map(|(log, trace, _)| {
            log.record(*trace, chain_id, "run", events[i].seq, run_start, run_end)
        });
        let waves = waves_of(&events[i + 1..next], run_end);
        let mut cursor = run_start;
        let mut prev: Option<Phase> = None;
        for w in &waves {
            let gap = w.start.saturating_sub(cursor);
            match prev {
                None => layers.job_init_ns += gap,
                Some(Phase::Map) if w.phase == Phase::Reduce => layers.shuffle_gap_ns += gap,
                Some(_) => layers.inter_wave_gap_ns += gap,
            }
            let dur = w.end.saturating_sub(w.start);
            let name = match w.phase {
                Phase::Map => {
                    layers.map_wave_ns += dur;
                    layers.map_waves += 1;
                    "map_wave"
                }
                Phase::Reduce => {
                    layers.reduce_wave_ns += dur;
                    layers.reduce_waves += 1;
                    "reduce_wave"
                }
            };
            if let Some((log, trace, _)) = log.as_mut() {
                log.record(*trace, run_id, name, u64::from(w.index), w.start, w.end);
            }
            cursor = w.end;
            prev = Some(w.phase);
        }
        layers.between_jobs_ns += run_end.saturating_sub(cursor);
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_ns: u64, seq: u64, point: TriggerPoint) -> ProbeEvent {
        ProbeEvent {
            at_ns,
            seq,
            job: seq as u32,
            point,
            faults: 0,
        }
    }

    #[test]
    fn layers_partition_wall_time_and_spans_nest() {
        use TriggerPoint::*;
        let events = [
            ev(10, 1, JobStart),
            ev(12, 1, MidMapWave(0)),
            ev(20, 1, AfterMapWave(0)),
            ev(21, 1, MidMapWave(1)),
            ev(30, 1, AfterMapWave(1)),
            ev(34, 1, MidReduceWave(0)),
            ev(50, 1, AfterReduceWave(0)),
            ev(55, 2, JobStart),
        ];
        let mut log = SpanLog::default();
        let l = chain_layers(&events, 0, 60, Some((&mut log, 7, None)));
        assert_eq!(l.total_ns(), 60);
        assert_eq!((l.map_wave_ns, l.reduce_wave_ns), (17, 16));
        assert_eq!(
            (l.job_init_ns, l.inter_wave_gap_ns, l.shuffle_gap_ns),
            (2, 1, 4)
        );
        assert_eq!(l.between_jobs_ns, 10 + 5 + 5);
        assert_eq!((l.map_waves, l.reduce_waves), (2, 1));
        let names: Vec<_> = log.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["chain", "run", "map_wave", "map_wave", "reduce_wave", "run"]
        );
        assert!(log.spans().iter().all(|s| s.trace == 7));
        let self_ns: u64 = log.self_times().iter().map(|&(_, ns)| ns).sum();
        assert_eq!(self_ns, 60, "self times partition the root span");
        assert_eq!(log.to_jsonl().lines().count(), 6);
    }

    #[test]
    fn chain_without_runs_is_all_driver_time() {
        let l = chain_layers(&[], 5, 9, None);
        assert_eq!((l.between_jobs_ns, l.total_ns()), (4, 4));
    }
}
