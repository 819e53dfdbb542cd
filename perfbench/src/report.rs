//! Latency samples, percentiles and the run report (human lines plus the
//! final JSON line).

use std::fmt::Write as _;

use crate::host::HostSpeed;

/// The smallest number of samples a percentile must have beyond it.
pub const MIN_TAIL_SAMPLES: usize = 10;
/// The fewest host-speed kernel samples a run's factor may rest on.
const MIN_HOST_SAMPLES: usize = 20;

/// Latency samples in milliseconds.
#[derive(Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The last `n` samples, in the order they were pushed.
    pub fn last(&self, n: usize) -> Samples {
        Samples(self.0[self.0.len().saturating_sub(n)..].to_vec())
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Nearest-rank percentile (`p` in 0..=1); 0 for no samples.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v[rank(v.len(), p)]
    }

    pub fn median(&self) -> f64 {
        self.percentile(0.5)
    }

    /// Samples strictly above the nearest-rank `p` percentile.
    pub fn beyond(&self, p: f64) -> usize {
        self.0.len().saturating_sub(rank(self.0.len(), p) + 1)
    }
}

fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1)) - 1
}

/// Median of plain values (used for repeated set-up and kernel timings).
pub fn median(values: &[f64]) -> f64 {
    let mut s = Samples::default();
    for v in values {
        s.push(*v);
    }
    s.median()
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: Option<usize>,
}

/// Everything one run reports. Both metric sets are collected; `main`
/// prints the one the run's `--trace` flag selects.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the run is invalid or wrong; empty for a good run.
    pub problems: Vec<String>,
    /// Free-form facts printed above the metrics (configuration, sizes).
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        });
    }

    pub fn has(&self, name: &str) -> bool {
        self.metrics.iter().any(|m| m.name == name)
    }

    /// A percentile of `samples`; marks the run invalid when fewer than
    /// [`MIN_TAIL_SAMPLES`] samples lie beyond it.
    pub fn percentile(&mut self, name: &str, samples: &Samples, p: f64) {
        let beyond = samples.beyond(p);
        if beyond < MIN_TAIL_SAMPLES {
            self.problems.push(format!(
                "{name}: only {beyond} of {} samples beyond the percentile (need {MIN_TAIL_SAMPLES})",
                samples.len()
            ));
        }
        self.metrics.push(Metric {
            name: name.to_string(),
            value: samples.percentile(p),
            unit: "ms",
            samples: Some(samples.len()),
        });
    }

    /// Report every timing at the reference host speed: times (`ms`, `s`)
    /// divided by the host factor (see [`HostSpeed::factor`]), rates
    /// (`1/s`) multiplied by it. The measured values are kept in a note.
    /// A run with too few kernel samples for a steady factor is invalid.
    pub fn at_reference_speed(&mut self, host: &HostSpeed) {
        if host.samples() < MIN_HOST_SAMPLES {
            self.problems.push(format!(
                "invalid run: {} host-speed samples (need {MIN_HOST_SAMPLES})",
                host.samples()
            ));
        }
        let factor = host.factor();
        let mut measured = Vec::new();
        for m in &mut self.metrics {
            let scaled = match m.unit {
                "ms" | "s" => m.value / factor,
                "1/s" => m.value * factor,
                _ => continue,
            };
            measured.push(format!("{} {:.4}", m.name, m.value));
            m.value = scaled;
        }
        self.notes.push(format!(
            "host factor {factor:.4} ({} kernel samples); as measured before scaling: {}",
            host.samples(),
            measured.join(", ")
        ));
    }

    /// Count one operation; `ok == false` counts it as failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        self.problems.push(why.into());
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Print the notes, the metrics named in `names` (in that order), and
    /// the final JSON line. Returns whether the run is correct.
    pub fn print(&mut self, names: &[&str]) -> bool {
        for note in &self.notes {
            println!("# {note}");
        }
        let mut json = String::from("{");
        let mut first = true;
        for name in names {
            let m = match self.metrics.iter().find(|m| m.name == *name) {
                Some(m) => m,
                None => {
                    self.problems
                        .push(format!("metric {name} was not measured"));
                    continue;
                }
            };
            let value = if m.value.is_finite() {
                m.value
            } else {
                self.problems.push(format!("metric {name} is not finite"));
                0.0
            };
            match m.samples {
                Some(n) => println!("{:<36} {value:>14.4} {:<6} (n={n})", m.name, m.unit),
                None => println!("{:<36} {value:>14.4} {}", m.name, m.unit),
            }
            if !first {
                json.push_str(", ");
            }
            first = false;
            // `{:?}` prints an f64 with every digit and always as a number.
            let _ = write!(
                json,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        json.push('}');
        println!(
            "{:<36} {:>14.4} ratio  ({} failed of {} attempted)",
            "error_rate",
            self.error_rate(),
            self.failed,
            self.attempted
        );
        if self.failed > 0 {
            self.problems.push(format!(
                "{} of {} operations failed",
                self.failed, self.attempted
            ));
        }
        for p in &self.problems {
            println!("! {p}");
        }
        let correct = self.problems.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {json}}}",
            self.attempted.max(1),
            self.failed
        );
        correct
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
