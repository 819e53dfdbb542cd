//! End-to-end benchmark of the cstore column store.
//!
//! ```text
//! perfbench --workload <olap_batch|olap_row|htap_tiered> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics through `Database::execute`
//! with no tracing. `--trace 1` is a separate run that records the
//! benchmark's own spans around calls into each layer and reports the
//! per-layer metrics. Either way the last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. See
//! README.md for the workloads and the metric map.

mod host;
mod htap;
mod kernels;
mod layers;
mod olap;
mod report;
mod sessions;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;

/// Seconds each set-up gap spends setting up, at the least.
const SETUP_GAP_S: f64 = 0.5;
/// At most this many set-ups in one gap, however short each is.
const SETUP_GAP_MAX: usize = 50;

/// Set-up times of one run. A workload sets up in a few gaps spread over
/// the run (before the timed loop and again later), so `setup_s`, their
/// median, sees the host over the whole run rather than during one
/// second of it: on a shared host the speed drifts over seconds, and a
/// set-up of tens of milliseconds repeated back to back only measures
/// the state the host happened to be in.
#[derive(Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// One gap: call `set_up` at least `min` times and until the gap has
    /// spent [`SETUP_GAP_S`] in it. Each call's result is dropped before
    /// the next call; the last one is returned.
    pub fn gap<T>(
        &mut self,
        min: usize,
        mut set_up: impl FnMut() -> cstore_common::Result<T>,
    ) -> cstore_common::Result<T> {
        let first = self.0.len();
        let mut last = None;
        loop {
            drop(last.take());
            let t = std::time::Instant::now();
            let ready = set_up()?;
            self.0.push(t.elapsed().as_secs_f64());
            last = Some(ready);
            let done = &self.0[first..];
            if done.len() >= SETUP_GAP_MAX
                || (done.len() >= min && done.iter().sum::<f64>() >= SETUP_GAP_S)
            {
                return Ok(last.expect("set up at least once"));
            }
        }
    }

    pub fn median(&self) -> f64 {
        report::median(&self.0)
    }

    /// `(set-ups, total seconds)`, for the run's notes.
    pub fn summary(&self) -> (usize, f64) {
        (self.0.len(), self.0.iter().sum())
    }
}

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: &[&str] = &[
    "setup_s",
    "queries_per_s",
    "query_p50_ms",
    "query_p90_ms",
    "write_p50_ms",
    "write_p99_ms",
    "read_p50_ms",
    "read_p90_ms",
    "reads_per_s",
    "stored_bytes_per_row",
    "peak_rss_mb",
];

/// Per-layer metrics, printed by every traced run (plus
/// [`kernels::METRICS`]), with the unit reported when a workload does
/// not exercise the layer call behind one.
const PER_LAYER: &[(&str, &str)] = &[
    ("sql.parse_ms", "ms"),
    ("sql.bind_ms", "ms"),
    ("sql.parse_insert_ms", "ms"),
    ("planner.optimize_ms", "ms"),
    ("planner.build_physical_ms", "ms"),
    ("exec.execute_ms.Q1", "ms"),
    ("exec.execute_ms.Q2", "ms"),
    ("exec.execute_ms.Q3", "ms"),
    ("exec.execute_ms.Q4", "ms"),
    ("exec.execute_ms.Q5", "ms"),
    ("exec.execute_ms.Q6", "ms"),
    ("exec.execute_ms.Q7", "ms"),
    ("exec.execute_ms.Q8", "ms"),
    ("exec.rows_scanned", "rows"),
    ("exec.join_build_rows", "rows"),
    ("exec.join_probe_rows", "rows"),
    ("exec.bitmap_drop_ratio", "ratio"),
    ("exec.row_ns_per_row", "ns"),
    ("common.mem_peak_mb", "MB"),
    ("storage.load_rows_per_s", "rows/s"),
    ("storage.archive_ms", "ms"),
    ("storage.groups_eliminated", "groups"),
    ("storage.groups_scanned", "groups"),
    ("storage.elimination_ratio", "ratio"),
    ("storage.archive_decode_ms", "ms"),
    ("storage.bytes_per_row", "B"),
    ("rowstore.scan_rows_per_s", "rows/s"),
    ("delta.rows_scanned_delta", "rows"),
    ("delta.closed_backlog_max", "stores"),
    ("delta.mover_stores_moved", "stores"),
    ("delta.mover_retries", "count"),
    ("wal.fsyncs_per_stmt", "ratio"),
    ("wal.bytes_per_row", "B"),
    ("wal.commit_wait_ms", "ms"),
    ("core.facade_ms", "ms"),
    ("core.dml_ms", "ms"),
    ("txn.commit_ms", "ms"),
    ("core.lock_wait_ms", "ms"),
    ("core.admission_wait_ms", "ms"),
    ("harness.generator_late_ms", "ms"),
    ("harness.trace_overhead_pct", "%"),
    ("harness.host_factor", "ratio"),
    ("error_rate", "ratio"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Cumulative wait time by class, from the engine's wait statistics (the
/// process-wide profile `sys.wait_stats` renders).
#[derive(Clone, Copy, Default)]
pub struct Waits {
    pub wal_commit_ms: f64,
    pub lock_ms: f64,
    pub admission_ms: f64,
}

impl Waits {
    pub fn since(self, before: &Waits) -> Waits {
        Waits {
            wal_commit_ms: self.wal_commit_ms - before.wal_commit_ms,
            lock_ms: self.lock_ms - before.lock_ms,
            admission_ms: self.admission_ms - before.admission_ms,
        }
    }
}

pub fn waits_ms() -> Waits {
    let mut w = Waits::default();
    for s in cstore_common::waits::global_snapshot() {
        let ms = s.total_ns as f64 / 1e6;
        match s.class.as_str() {
            "WAL_COMMIT" => w.wal_commit_ms += ms,
            "ADMISSION" => w.admission_ms += ms,
            c if c.starts_with("LOCK_") => w.lock_ms += ms,
            _ => {}
        }
    }
    w
}

/// Where build and run outputs go: Cargo's target directory.
pub fn output_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"))
}

/// Write the traced run's spans (Chrome trace-event JSON) and print the
/// self-time summary.
pub fn write_trace(args: &Args, workload: &str, trace: &trace::Trace, report: &mut Report) {
    let path = output_dir().join(format!("perfbench-trace-{workload}-{}.json", args.seed));
    match std::fs::write(&path, trace.to_chrome_json()) {
        Ok(()) => report.notes.push(format!(
            "{} spans written to {}",
            trace.spans.len(),
            path.display()
        )),
        Err(e) => report.fail(format!("writing {}: {e}", path.display())),
    }
    for (name, (n, total)) in trace.self_totals() {
        report
            .notes
            .push(format!("span {name:<28} n={n:<7} self total {total:.3} ms"));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <olap_batch|olap_row|htap_tiered> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "olap_batch" => olap::olap_batch,
        "olap_row" => olap::olap_row,
        "htap_tiered" => htap::htap_tiered,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let mut report = run(&args);
    let names: Vec<&str> = if args.trace {
        kernels::run(args.seed, &mut report);
        report.metric("error_rate", report.error_rate(), "ratio");
        let mut missing = Vec::new();
        for (name, unit) in PER_LAYER {
            if !report.has(name) {
                missing.push(*name);
                report.metric(*name, 0.0, unit);
            }
        }
        if !missing.is_empty() {
            report.notes.push(format!(
                "not exercised by {} (reported as 0): {}",
                args.workload,
                missing.join(", ")
            ));
        }
        PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .chain(kernels::METRICS.iter().copied())
            .collect()
    } else {
        END_TO_END.to_vec()
    };
    if report.print(&names) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
