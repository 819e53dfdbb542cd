//! Closed-loop query sessions shared by the workloads: each session runs
//! its rotation of queries back to back until the deadline and checks
//! every answer.

use std::collections::BTreeMap;
use std::time::Instant;

use cstore_common::{Result, Row};
use cstore_core::{Database, ExecMode};

use crate::layers::{
    add_counters, execute_select, fingerprint, ms_since, pipeline_select, Counters, Fingerprint,
};
use crate::report::Samples;
use crate::trace::Recorder;

/// What a query's answer is checked against.
pub enum Expect {
    /// The oracle's answer.
    Exact(Fingerprint),
    /// For reports whose answer races a concurrent writer: at least one
    /// row, and no zero or NULL in the first (each such report counts or
    /// sums rows that exist).
    NonEmpty,
}

/// One query of the set with its reference answer.
pub struct Query {
    /// Tags the query's spans; distinct for distinct queries.
    pub id: &'static str,
    /// The id plus what the query reads, for the per-query notes.
    pub label: String,
    pub sql: String,
    pub ordered: bool,
    pub expect: Expect,
}

/// What one closed-loop session measured.
#[derive(Default)]
pub struct SessionOut {
    pub latency: Samples,
    /// Latency by query label.
    pub by_label: BTreeMap<String, Samples>,
    pub counters: Counters,
    pub queries: u64,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Traced run only: `Database::execute`, the pipeline with the
    /// recorder off, and the pipeline with the recorder on.
    pub execute_ms: Samples,
    pub bare_ms: Samples,
    pub traced_ms: Samples,
    /// Counters of the traced pipeline runs.
    pub traced_counters: Counters,
}

impl SessionOut {
    /// Check one answer against its reference.
    pub fn check(&mut self, q: &Query, got: Result<(Vec<Row>, Counters)>) -> Option<Counters> {
        self.attempted += 1;
        match got {
            Ok((rows, counters)) => {
                let wrong = match q.expect {
                    Expect::Exact(want) => {
                        let fp = fingerprint(&rows, q.ordered);
                        (fp != want)
                            .then(|| format!("answer differs from the oracle: {fp:?} vs {want:?}"))
                    }
                    Expect::NonEmpty => match rows.first() {
                        None => Some("answer is empty".to_string()),
                        Some(r)
                            if r.values().iter().any(|v| {
                                v.is_null() || v.as_i64() == Some(0) || v.as_f64() == Some(0.0)
                            }) =>
                        {
                            Some(format!("answer has a zero or NULL: {r:?}"))
                        }
                        Some(_) => None,
                    },
                };
                match wrong {
                    Some(why) => {
                        self.failures.push(format!("{} {why}", q.label));
                        None
                    }
                    None => Some(counters),
                }
            }
            Err(e) => {
                self.failures.push(format!("{} failed: {e}", q.id));
                None
            }
        }
    }
}

/// One closed-loop client: its database session, its rotation of query
/// indices and where in the rotation it is.
pub struct Session {
    pub db: Database,
    pub rotation: Vec<usize>,
    pub next: usize,
    pub rec: Recorder,
}

/// Run the session's rotation until `deadline`, picking up where it left
/// off. The untraced run times `Database::execute`; the traced run also
/// drives each query through the layer pipeline, with the recorder off
/// and then on. Returns the results and the wall time in seconds.
pub fn run_session(
    s: &mut Session,
    mode: ExecMode,
    queries: &[Query],
    deadline: Instant,
) -> (SessionOut, f64) {
    let start = Instant::now();
    let mut out = SessionOut::default();
    let mut bare = Recorder::new(Instant::now(), 0, false);
    while Instant::now() < deadline {
        let q = &queries[s.rotation[s.next % s.rotation.len()]];
        s.next += 1;
        let t = Instant::now();
        let got = execute_select(&s.db, &q.sql);
        let ms = ms_since(t);
        if let Some(c) = out.check(q, got) {
            add_counters(&mut out.counters, &c);
            out.latency.push(ms);
            out.by_label.entry(q.label.clone()).or_default().push(ms);
            out.queries += 1;
        }
        if !s.rec.enabled() {
            continue;
        }
        out.execute_ms.push(ms);
        let t = Instant::now();
        let got = pipeline_select(&s.db, mode, &q.sql, &mut bare, "query");
        out.bare_ms.push(ms_since(t));
        out.check(q, got);
        s.rec.request(s.next as u64, q.id);
        let t = Instant::now();
        let got = pipeline_select(&s.db, mode, &q.sql, &mut s.rec, "query");
        out.traced_ms.push(ms_since(t));
        if let Some(c) = out.check(q, got) {
            add_counters(&mut out.traced_counters, &c);
        }
    }
    (out, start.elapsed().as_secs_f64())
}

/// Merge session results, moving their checks into `report`.
pub fn merge(outs: Vec<SessionOut>, report: &mut crate::report::Report) -> SessionOut {
    let mut m = SessionOut::default();
    for out in outs {
        report.attempted += out.attempted;
        report.failed += out.failures.len() as u64;
        for f in out.failures.into_iter().take(5) {
            report.fail(f);
        }
        m.latency.extend(out.latency);
        for (label, s) in out.by_label {
            m.by_label.entry(label).or_default().extend(s);
        }
        add_counters(&mut m.counters, &out.counters);
        m.queries += out.queries;
        m.execute_ms.extend(out.execute_ms);
        m.bare_ms.extend(out.bare_ms);
        m.traced_ms.extend(out.traced_ms);
        add_counters(&mut m.traced_counters, &out.traced_counters);
    }
    for (label, s) in &m.by_label {
        report.notes.push(format!(
            "{label:<12} p50 {:9.3} ms  p90 {:9.3} ms  (n={})",
            s.median(),
            s.percentile(0.9),
            s.len()
        ));
    }
    m
}

/// The per-layer metrics every workload's query sessions give: phase
/// self times from the traced pipeline over the queries `query_ids`,
/// `exec.execute_ms.<id>` for each of `execute_ids`, per-query counters
/// from `Database::execute`, the facade's share and the recorder's
/// overhead.
pub fn query_layer_metrics(
    report: &mut crate::report::Report,
    trace: &crate::trace::Trace,
    m: &SessionOut,
    query_ids: &[&'static str],
    execute_ids: &[&'static str],
) {
    use crate::layers::counter;
    use crate::report::median;
    let timed = |t: &str| query_ids.contains(&t);
    let phase = |name: &str| median(&trace.self_times(name, timed));
    report.metric("sql.parse_ms", phase("sql.parse"), "ms");
    report.metric("sql.bind_ms", phase("sql.bind"), "ms");
    report.metric("planner.optimize_ms", phase("planner.optimize"), "ms");
    report.metric(
        "planner.build_physical_ms",
        phase("planner.build_physical"),
        "ms",
    );
    for id in execute_ids {
        report.metric(
            format!("exec.execute_ms.{id}"),
            median(&trace.self_times("exec.collect_rows", |t| t == *id)),
            "ms",
        );
    }
    let c = &m.counters;
    let per_query = |name: &str| counter(c, name) as f64 / m.queries.max(1) as f64;
    report.metric("exec.rows_scanned", per_query("rows_scanned"), "rows");
    report.metric("exec.join_build_rows", per_query("join_build_rows"), "rows");
    report.metric("exec.join_probe_rows", per_query("join_probe_rows"), "rows");
    report.metric(
        "exec.bitmap_drop_ratio",
        counter(c, "rows_dropped_by_bitmap") as f64 / counter(c, "rows_scanned").max(1) as f64,
        "ratio",
    );
    let eliminated = per_query("groups_eliminated");
    let scanned = per_query("groups_scanned");
    report.metric("storage.groups_eliminated", eliminated, "groups");
    report.metric("storage.groups_scanned", scanned, "groups");
    report.metric(
        "storage.elimination_ratio",
        if eliminated + scanned > 0.0 {
            eliminated / (eliminated + scanned)
        } else {
            0.0
        },
        "ratio",
    );
    report.metric(
        "delta.rows_scanned_delta",
        per_query("rows_scanned_delta"),
        "rows",
    );
    report.metric(
        "core.facade_ms",
        m.execute_ms.median() - m.bare_ms.median(),
        "ms",
    );
    report.metric(
        "harness.trace_overhead_pct",
        100.0 * (m.traced_ms.median() - m.bare_ms.median()) / m.bare_ms.median(),
        "%",
    );
}

/// Row-mode execution time per scanned row: self time of the
/// `exec.collect_rows` spans tagged `tag` over the rows they scanned.
pub fn row_ns_per_row(
    trace: &crate::trace::Trace,
    tag: impl Fn(&str) -> bool,
    rows_scanned: u64,
) -> f64 {
    let ms: f64 = trace.self_times("exec.collect_rows", tag).iter().sum();
    ms * 1e6 / rows_scanned.max(1) as f64
}
