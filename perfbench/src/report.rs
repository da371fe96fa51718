//! Metric collection, summary statistics, process readings and output.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Human-readable context (sample counts), printed but not in JSON.
    pub note: String,
}

/// Metrics in the order they were added.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.add_noted(name, value, unit, String::new());
    }

    pub fn add_noted(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: String,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            note,
        });
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Prints one `name = value unit` line per metric.
    pub fn print_lines(&self) {
        for m in &self.metrics {
            if m.note.is_empty() {
                println!("{} = {} {}", m.name, m.value, m.unit);
            } else {
                println!("{} = {} {} ({})", m.name, m.value, m.unit, m.note);
            }
        }
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`
    /// with the metrics named in `keep`, in that order. Panics if one is
    /// missing or not finite: a result line must never carry a made-up
    /// value.
    pub fn json_line(&self, keep: &[&str], attempted: u64, failed: u64) -> String {
        let mut out = String::new();
        let correct = failed == 0;
        write!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        )
        .expect("write to String");
        for (i, name) in keep.iter().enumerate() {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert!(m.value.is_finite(), "metric {name} is not finite");
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("write to String");
        }
        out.push_str("}}");
        out
    }
}

/// Mean of a non-empty sample. Solve and cycle times are averaged rather
/// than taken as a median: on a shared host, contention comes and goes in
/// phases of a few seconds, about as long as one solve, so solve times
/// fall into a fast and a slow group. The median of a run's handful of
/// solves then jumps between the groups from run to run, while the mean
/// moves only with the share of the run spent in slow phases.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of an empty sample");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// The highest percentile, capped at `p`, that leaves at least ten samples
/// above it; returns `(percentile, value)`. With fewer than eleven
/// samples it falls back to the median.
pub fn tail_percentile(xs: &[f64], p: f64) -> (f64, f64) {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return (0.5, median(xs));
    }
    let q = p.min((n - 10) as f64 / n as f64);
    let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    (q, v[idx])
}

/// User plus system CPU seconds of this process, all threads included.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, in clock ticks (USER_HZ = 100).
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size of the last-level cache seen by CPU 0, as sysfs spells it.
pub fn llc_size() -> String {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    let mut best: Option<(u32, String)> = None;
    for i in 0..8 {
        let dir = format!("{base}/index{i}");
        let Ok(level) = std::fs::read_to_string(format!("{dir}/level")) else {
            continue;
        };
        let Ok(size) = std::fs::read_to_string(format!("{dir}/size")) else {
            continue;
        };
        let level: u32 = level.trim().parse().unwrap_or(0);
        if best.as_ref().is_none_or(|(l, _)| level > *l) {
            best = Some((level, format!("L{level} {}", size.trim())));
        }
    }
    best.map(|(_, s)| s).unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_mean_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[4.0, 1.0, 2.0, 1.0]), 2.0);
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let (q, v) = tail_percentile(&xs, 0.95);
        assert_eq!(q, 0.95);
        assert_eq!(v, 190.0);
        let few: Vec<f64> = (1..=30).map(f64::from).collect();
        let (q, v) = tail_percentile(&few, 0.95);
        assert!((q - 20.0 / 30.0).abs() < 1e-12);
        assert_eq!(v, 20.0);
    }

    #[test]
    fn json_line_has_exactly_the_kept_metrics() {
        let mut r = Report::default();
        r.add("a_s", 1.25, "s");
        r.add("b", 3.0, "count");
        let line = r.json_line(&["a_s"], 4, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\"a_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
