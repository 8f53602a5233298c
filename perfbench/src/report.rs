//! Statistics, process facts and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Median of `xs` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `part / whole` as a percentage; 0 when `whole` is 0.
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part * 100.0 / whole
    } else {
        0.0
    }
}

/// Bytes to MiB.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// MiB per second for `bytes` moved in `secs`; 0 when `secs` is 0.
pub fn mib_per_s(bytes: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        mib(bytes) / secs
    } else {
        0.0
    }
}

/// The process's peak resident set size in MiB (`VmHWM`), or 0 where
/// the kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds this process has used so far, user and system, all
/// threads (exited ones included), from `/proc/self/stat` in 1/100 s
/// ticks; 0 where the kernel does not report it.
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and
            // stime are the 14th and 15th fields of the whole line.
            let rest = &s[s.rfind(')')? + 2..];
            let mut f = rest.split_whitespace().skip(11);
            let utime: f64 = f.next()?.parse().ok()?;
            let stime: f64 = f.next()?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

/// Hypervisor steal so far: seconds the host kept this machine's
/// runnable vCPUs off a physical CPU, summed over vCPUs (the `steal`
/// column of `/proc/stat`, 1/100 s ticks); 0 where not reported.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Times an interval in wall-clock seconds and in seconds the machine
/// actually ran: wall time minus the hypervisor steal in the interval,
/// spread over the vCPUs. On a shared host, steal bursts stretch wall
/// time by tens of percent without any change in the program; the
/// end-to-end times leave them out.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    start: std::time::Instant,
    steal0: f64,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Self {
            start: std::time::Instant::now(),
            steal0: steal_s(),
        }
    }

    /// Wall-clock seconds since the start.
    pub fn wall_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Steal seconds (summed over vCPUs) since the start.
    pub fn steal_s(&self) -> f64 {
        (steal_s() - self.steal0).max(0.0)
    }

    /// Wall-clock seconds minus steal per vCPU since the start.
    pub fn run_s(&self) -> f64 {
        let wall = self.wall_s();
        (wall - self.steal_s() / f64::from(nproc())).clamp(0.0, wall)
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
}

/// Host facts printed with every result: CPU count, CPU model, and the
/// compiler `run.py` built with (passed in `PERFBENCH_RUSTC`).
pub fn host_fingerprint() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("nproc", nproc().to_string()),
        ("cpu", cpu),
        (
            "rustc",
            std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
        ),
    ]
}

/// Named metric values of one run.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Sets `name` (overwriting).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Takes every value of `other` (overwriting).
    pub fn merge(&mut self, other: Metrics) {
        self.values.extend(other.values);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// Outcome counts and correctness of one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Chains attempted.
    pub attempted: u64,
    /// Chains that errored, were refused, or mismatched the golden
    /// digest.
    pub failed: u64,
    /// Every output checked so far matched its golden digest.
    pub correct: bool,
}

/// The result line: exactly the metrics in `schema`, each with its
/// unit. Errors name a schema metric the run did not set or a value
/// that is not finite.
pub fn result_line(
    tally: Tally,
    metrics: &Metrics,
    schema: &[(&str, &str)],
) -> Result<String, String> {
    let mut body = String::new();
    for (i, &(name, unit)) in schema.iter().enumerate() {
        let v = metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.correct && tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn result_line_keeps_schema_order_and_units() {
        let mut m = Metrics::default();
        m.set("b", 0.25);
        m.set("a", 1.5);
        let tally = Tally {
            attempted: 3,
            failed: 0,
            correct: true,
        };
        let line = result_line(tally, &m, &[("a", "s"), ("b", "ms")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 0.25, \"unit\": \"ms\"}}}"
        );
        assert!(result_line(tally, &m, &[("c", "s")]).is_err());
        m.set("a", f64::NAN);
        assert!(result_line(tally, &m, &[("a", "s")]).is_err());
    }

    #[test]
    fn process_facts_are_reported_on_linux() {
        assert!(peak_rss_mib() > 0.0);
        let w = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(w.wall_s() >= 0.02);
        assert!(w.run_s() <= w.wall_s() && w.run_s() >= 0.0);
    }
}
