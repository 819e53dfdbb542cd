//! The `htap_tiered` workload: an open-loop trickle writer on a hot
//! columnstore (delta stores, background tuple mover, in-memory WAL
//! (`MemLogStore`, `wal_sync = group`)) next to a closed-loop reader that
//! alternates between the live table and an archived history table.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use cstore_common::testutil::Rng;
use cstore_common::{Error, Result, Row};
use cstore_core::{Database, ExecMode, QueryResult, TableEntry};
use cstore_delta::{TableConfig, TupleMover, WalOptions};
use cstore_sql::parse;
use cstore_storage::MemLogStore;

use crate::host::HostSpeed;
use crate::layers::{
    add_counters, columnstore_config, counter, execute_select, fingerprint, ms_since,
    pipeline_select, Counters, InsertGen, INSERT_ROWS,
};
use crate::olap::{stored_bytes, StarData};
use crate::report::{median, peak_rss_mb, Report, Samples};
use crate::sessions::{
    merge, query_layer_metrics, row_ns_per_row, run_session, Expect, Query, Session,
};
use crate::trace::{Recorder, Trace};
use crate::{waits_ms, Args, SetupTimes};

/// Rows of the archived history table (the older days of the data).
const HISTORY_ROWS: usize = 1_000_000;
/// Rows of the live table at the start of the run (the newest days). The
/// writer adds ~65k more; point DML scans every live row, so the live
/// table's size sets how busy the writer is (see README.md).
const LIVE_ROWS: usize = 5_000;
/// Delta-store capacity of the live table: the writer fills one every
/// few seconds, so the tuple mover closes and compresses several per run.
const DELTA_CAPACITY: usize = 8_192;
/// How often the background tuple mover looks for closed delta stores.
const MOVER_INTERVAL: Duration = Duration::from_millis(100);
/// The writer's fixed open-loop rate in units per second. Calibrated once
/// so the writer is at most about 30% busy on a 2-core machine; frozen so
/// every commit is measured at the same offered load.
const WRITE_RATE: f64 = 45.0;
/// A run whose writer sends its last tenth of units later than this (the
/// median lateness) is invalid: its backlog grew, so its latencies
/// describe an overload.
const MAX_TAIL_LATE_MS: f64 = 250.0;
/// The WAL flush policy, fixed and stated in the output. The WAL runs over
/// the in-memory log store: commits still wait for the group-commit
/// writer thread, but no file is synced, because on a shared host the
/// disk's fsync latency (1.4 to 4.4 ms at the p50, from one run to the
/// next) would set every acknowledged write's latency.
const WAL_SYNC: &str = "group";
/// The writer times the host-speed kernel (see `host.rs`) after every
/// fifth unit, when the next unit is due at least this far ahead, so the
/// kernel never delays a unit.
const HOST_SAMPLE_SLACK: Duration = Duration::from_millis(15);

/// The reader's reports: Q1/Q2/Q5/Q8-shaped queries, each against the
/// archived history (older days) and the live table (newest days), as
/// `(history id, history SQL, live id, live SQL)`. The live reports read
/// the live table's newest days up to `last_day` (`n_dates - 1`, the day
/// the writer inserts): Q2 the last eight days, Q5 `last_month` (the
/// month of `last_day`), Q8 every day.
fn reader_queries(
    last_day: i32,
    last_month: i32,
) -> Vec<(&'static str, String, &'static str, String)> {
    let q1 = |t: &str| format!("SELECT COUNT(*), SUM(quantity) FROM {t}");
    let q2 = |t: &str, lo: i32, hi: i32| {
        format!("SELECT COUNT(*) FROM {t} WHERE date_key BETWEEN {lo} AND {hi}")
    };
    let q5 = |t: &str, month: i32| {
        format!(
            "SELECT st.state, SUM(s.quantity) AS q FROM {t} s \
             JOIN store st ON s.store_key = st.store_key \
             JOIN date_dim d ON s.date_key = d.date_key \
             WHERE d.month = {month} AND st.state = 'WA' GROUP BY st.state"
        )
    };
    let q8 = |t: &str, before: i32| {
        format!(
            "SELECT c.segment, COUNT(*) AS n FROM {t} s \
             JOIN customer c ON s.cust_key = c.cust_key \
             WHERE s.discount IS NOT NULL AND s.date_key < {before} GROUP BY c.segment"
        )
    };
    vec![
        ("Q1", q1("sales_history"), "Q1 live", q1("sales")),
        (
            "Q2",
            q2("sales_history", 100, 130),
            "Q2 live",
            q2("sales", last_day - 7, last_day),
        ),
        (
            "Q5",
            q5("sales_history", 6),
            "Q5 live",
            q5("sales", last_month),
        ),
        (
            "Q8",
            q8("sales_history", 200),
            "Q8 live",
            q8("sales", last_day + 1),
        ),
    ]
}

/// Acknowledged writes to the live table: `sale_id -> quantity`, with the
/// ids in a vector for uniform random picks.
struct Shadow {
    ids: Vec<i64>,
    at: HashMap<i64, (usize, i64)>,
}

impl Shadow {
    fn new(rows: &[Row]) -> Shadow {
        let mut s = Shadow {
            ids: Vec::with_capacity(rows.len()),
            at: HashMap::with_capacity(rows.len()),
        };
        for r in rows {
            if let (Some(id), Some(qty)) = (r.get(0).as_i64(), r.get(5).as_i64()) {
                s.insert(id, qty);
            }
        }
        s
    }

    fn insert(&mut self, id: i64, qty: i64) {
        self.at.insert(id, (self.ids.len(), qty));
        self.ids.push(id);
    }

    fn pick(&self, rng: &mut Rng) -> i64 {
        self.ids[rng.range_usize(0, self.ids.len())]
    }

    fn bump(&mut self, id: i64) {
        if let Some(e) = self.at.get_mut(&id) {
            e.1 += 1;
        }
    }

    fn remove(&mut self, id: i64) {
        if let Some((pos, _)) = self.at.remove(&id) {
            self.ids.swap_remove(pos);
            if let Some(moved) = self.ids.get(pos) {
                if let Some(e) = self.at.get_mut(moved) {
                    e.0 = pos;
                }
            }
        }
    }

    /// `(COUNT(*), SUM(quantity), SUM(sale_id))` of the live table.
    fn totals(&self) -> (i64, i64, i64) {
        let qty = self.at.values().map(|(_, q)| q).sum();
        (self.ids.len() as i64, qty, self.ids.iter().sum())
    }
}

/// One writer unit; every tenth is a multi-statement transaction.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Unit {
    Insert,
    Update,
    Delete,
    Txn,
}

impl Unit {
    fn tag(self) -> &'static str {
        match self {
            Unit::Insert => "insert",
            Unit::Update => "update",
            Unit::Delete => "delete",
            Unit::Txn => "txn",
        }
    }
}

/// What the open-loop writer measured.
#[derive(Default)]
struct WriterOut {
    latency: Samples,
    by_unit: BTreeMap<&'static str, Samples>,
    /// How late each unit was sent, in schedule order.
    late_ms: Samples,
    /// Time spent executing units (from send to acknowledgement), ms.
    busy_ms: f64,
    statements: u64,
    rows_changed: u64,
    closed_backlog_max: usize,
    attempted: u64,
    failures: Vec<String>,
}

/// Run one statement; `Ok(affected)` for DML, `Ok(0)` otherwise. In the
/// traced run the statement is first parsed on its own (`parse_span`) so
/// the parse share of its `core.execute` span is known.
fn statement(
    db: &Database,
    sql: &str,
    rec: &mut Recorder,
    parse_span: Option<&'static str>,
    exec_span: &'static str,
) -> Result<usize> {
    if let (true, Some(name)) = (rec.enabled(), parse_span) {
        rec.span(name, |_| parse(sql))?;
    }
    match rec.span(exec_span, |_| db.execute(sql))? {
        QueryResult::Affected(n) => Ok(n),
        _ => Ok(0),
    }
}

/// Expect a DML statement to touch exactly `want` rows.
fn expect(got: Result<usize>, want: usize, what: &str) -> Result<()> {
    match got {
        Ok(n) if n == want => Ok(()),
        Ok(n) => Err(Error::Execution(format!(
            "{what}: {n} rows affected, expected {want}"
        ))),
        Err(e) => Err(Error::Execution(format!("{what}: {e}"))),
    }
}

/// The open-loop writer: unit `k` is due at `start + k / WRITE_RATE`;
/// its latency runs from that due time to its acknowledgement, so a stall
/// also delays the units queued behind it.
fn writer_loop(
    db: &Database,
    shadow: &mut Shadow,
    gen: &mut InsertGen,
    seed: u64,
    deadline: Instant,
    rec: &mut Recorder,
    host: &mut HostSpeed,
) -> WriterOut {
    let mut out = WriterOut::default();
    let mut rng = Rng::new(seed ^ 0x3717E);
    let live = match db.catalog().get("sales") {
        Some(TableEntry::ColumnStore(t)) => Some(t),
        _ => None,
    };
    let start = Instant::now();
    for k in 0u64.. {
        let due = start + Duration::from_secs_f64(k as f64 / WRITE_RATE);
        if due >= deadline {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        out.late_ms
            .push(sent.duration_since(due).as_secs_f64() * 1e3);
        let unit = if k % 10 == 9 {
            Unit::Txn
        } else {
            match rng.f64() {
                x if x < 0.9 => Unit::Insert,
                x if x < 0.95 => Unit::Update,
                _ => Unit::Delete,
            }
        };
        rec.request(k, unit.tag());
        let result = rec.span("write", |rec| {
            write_unit(db, unit, shadow, gen, &mut rng, rec, &mut out)
        });
        let latency = ms_since(due);
        out.latency.push(latency);
        out.by_unit.entry(unit.tag()).or_default().push(latency);
        out.busy_ms += ms_since(sent);
        out.attempted += 1;
        if let Err(e) = result {
            out.failures.push(e.to_string());
        }
        if let Some(t) = &live {
            out.closed_backlog_max = out.closed_backlog_max.max(t.stats().n_closed_deltas);
        }
        let next_due = start + Duration::from_secs_f64((k + 1) as f64 / WRITE_RATE);
        if k % 5 == 4 && next_due.saturating_duration_since(Instant::now()) >= HOST_SAMPLE_SLACK {
            host.sample();
        }
    }
    out
}

fn write_unit(
    db: &Database,
    unit: Unit,
    shadow: &mut Shadow,
    gen: &mut InsertGen,
    rng: &mut Rng,
    rec: &mut Recorder,
    out: &mut WriterOut,
) -> Result<()> {
    match unit {
        Unit::Insert => {
            let (sql, rows) = gen.insert("sales");
            out.statements += 1;
            let got = statement(db, &sql, rec, Some("sql.parse_insert"), "core.execute");
            expect(got, INSERT_ROWS, "INSERT")?;
            out.rows_changed += rows.len() as u64;
            rows.into_iter().for_each(|(id, q)| shadow.insert(id, q));
        }
        Unit::Update => {
            let id = shadow.pick(rng);
            let sql = format!("UPDATE sales SET quantity = quantity + 1 WHERE sale_id = {id}");
            out.statements += 1;
            let got = statement(db, &sql, rec, Some("sql.parse_dml"), "core.execute");
            expect(got, 1, "UPDATE")?;
            out.rows_changed += 1;
            shadow.bump(id);
        }
        Unit::Delete => {
            let id = shadow.pick(rng);
            let sql = format!("DELETE FROM sales WHERE sale_id = {id}");
            out.statements += 1;
            let got = statement(db, &sql, rec, Some("sql.parse_dml"), "core.execute");
            expect(got, 1, "DELETE")?;
            out.rows_changed += 1;
            shadow.remove(id);
        }
        Unit::Txn => {
            let (insert, rows) = gen.insert("sales");
            let id = shadow.pick(rng);
            let update = format!("UPDATE sales SET quantity = quantity + 1 WHERE sale_id = {id}");
            out.statements += 4;
            let body = (|| {
                statement(db, "BEGIN", rec, None, "txn.begin")?;
                let got = statement(db, &insert, rec, Some("sql.parse_insert"), "core.execute");
                expect(got, INSERT_ROWS, "INSERT in a transaction")?;
                let got = statement(db, &update, rec, Some("sql.parse_dml"), "core.execute");
                expect(got, 1, "UPDATE in a transaction")?;
                statement(db, "COMMIT", rec, None, "txn.commit").map(drop)
            })();
            if let Err(e) = body {
                if db.in_transaction() {
                    // The unit's own error is the one reported.
                    let _ = db.execute("ROLLBACK");
                }
                return Err(e);
            }
            out.rows_changed += rows.len() as u64 + 1;
            rows.into_iter().for_each(|(id, q)| shadow.insert(id, q));
            shadow.bump(id);
        }
    }
    Ok(())
}

/// A fresh database in the ready state: dimensions and both fact tables
/// bulk-loaded, history archived, WAL attached, tuple mover running.
/// Dropping it stops the mover and the WAL writer and joins their threads.
struct Ready {
    db: Database,
    mover: TupleMover,
    history_load_s: f64,
    archive_ms: f64,
}

fn set_up(data: &StarData, rec: &mut Recorder) -> Result<Ready> {
    let mut db = Database::new().with_exec_mode(ExecMode::Batch);
    let compressed = columnstore_config();
    let mut history_load_s = 0.0;
    let mut archive_ms = 0.0;
    for (name, schema, rows) in &data.tables {
        if *name != "sales" {
            db.catalog()
                .create_columnstore(name, schema.clone(), compressed.clone())?;
            rec.span("storage.bulk_load", |_| db.bulk_load(name, rows))?;
            continue;
        }
        let (history, live) = rows.split_at(HISTORY_ROWS);
        db.catalog()
            .create_columnstore("sales_history", schema.clone(), compressed.clone())?;
        let t = Instant::now();
        rec.span("storage.bulk_load", |_| {
            db.bulk_load("sales_history", history)
        })?;
        history_load_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        rec.span("storage.archive_table", |_| {
            db.archive_table("sales_history")
        })?;
        archive_ms = ms_since(t);
        db.catalog().create_columnstore(
            "sales",
            schema.clone(),
            TableConfig {
                delta_capacity: DELTA_CAPACITY,
                ..compressed.clone()
            },
        )?;
        rec.span("storage.bulk_load", |_| db.bulk_load("sales", live))?;
    }
    rec.span("delta.attach_wal", |_| {
        db.attach_wal_store(Box::new(MemLogStore::new()), WalOptions::default(), None)
    })?;
    db.execute(&format!("SET wal_sync = {WAL_SYNC}"))?;
    let mover = db.start_tuple_mover("sales", MOVER_INTERVAL)?;
    Ok(Ready {
        db,
        mover,
        history_load_s,
        archive_ms,
    })
}

pub fn htap_tiered(args: &Args) -> Report {
    let mut report = Report::default();
    if let Err(e) = run(args, &mut report) {
        report.fail(format!("htap_tiered aborted: {e}"));
    }
    report
}

fn run(args: &Args, report: &mut Report) -> Result<()> {
    let epoch = Instant::now();
    let mut main_rec = Recorder::new(epoch, 0, args.trace);
    let data = StarData::generate(HISTORY_ROWS + LIVE_ROWS, args.seed);
    let generated = epoch.elapsed();
    let live_rows = &data.tables[0].2[HISTORY_ROWS..];
    let mut shadow = Shadow::new(live_rows);
    report.notes.push(format!(
        "htap_tiered: {HISTORY_ROWS} archived history rows, {LIVE_ROWS} live rows \
         (delta_capacity {DELTA_CAPACITY}), open-loop writer at {WRITE_RATE} units/s, \
         1 closed-loop reader, in-memory WAL with wal_sync = {WAL_SYNC}, seed {}",
        args.seed
    ));

    // Set-up, in two gaps: here (the last database of this gap is the one
    // measured) and after the timed run, with throwaway databases.
    let mut setups = SetupTimes::default();
    let mut load_rows_per_s = Vec::new();
    let mut archive_ms = Vec::new();
    let mut set_up_once = |rec: &mut Recorder| -> Result<Ready> {
        let ready = set_up(&data, rec)?;
        load_rows_per_s.push(HISTORY_ROWS as f64 / ready.history_load_s);
        archive_ms.push(ready.archive_ms);
        Ok(ready)
    };
    let Ready { db, mover, .. } = setups.gap(2, || set_up_once(&mut main_rec))?;
    let db = &db;
    let stored = stored_bytes(db);
    let loaded_rows = data.loaded_rows();
    for t in ["sales_history", "sales"] {
        let s = db.table_stats(t)?;
        report.notes.push(format!(
            "{t}: {} compressed rows in {} groups, {} bytes encoded",
            s.compressed_rows, s.n_compressed_groups, s.compressed_bytes
        ));
    }

    let oracle_start = Instant::now();
    // The oracle for the history reports: each once in row mode. Live
    // reports race the writer, so they are checked for success, and the
    // live table is checked against the shadow model after the run.
    let oracle = db.new_session().with_exec_mode(ExecMode::Row);
    let mut oracle_counters = Counters::new();
    let last_day = data.star.n_dates as i32 - 1;
    let last_month = data.tables[1]
        .2
        .iter()
        .find(|d| d.get(0).as_i64() == Some(last_day.into()))
        .and_then(|d| d.get(2).as_i64())
        .ok_or_else(|| Error::Execution(format!("date_dim has no day {last_day}")))?
        as i32;
    let mut qs = Vec::new();
    let mut history_ids = Vec::new();
    for (n, (id, history, live_id, live)) in
        reader_queries(last_day, last_month).into_iter().enumerate()
    {
        main_rec.request(n as u64, "reference");
        history_ids.push(id);
        let (rows, c) = if args.trace {
            pipeline_select(&oracle, ExecMode::Row, &history, &mut main_rec, "reference")?
        } else {
            execute_select(&oracle, &history)?
        };
        add_counters(&mut oracle_counters, &c);
        qs.push(Query {
            id,
            label: format!("{id} history"),
            sql: history,
            ordered: false,
            expect: Expect::Exact(fingerprint(&rows, false)),
        });
        qs.push(Query {
            id: live_id,
            label: live_id.to_string(),
            sql: live,
            ordered: false,
            expect: Expect::NonEmpty,
        });
    }
    drop(oracle);
    let oracle_s = oracle_start.elapsed().as_secs_f64();
    let star = data.star.clone();

    // The timed run: the writer on this thread, the reader on another.
    let wal_before = db.wal_status().map(|s| s.counters);
    let waits_before = waits_ms();
    let mut gen = InsertGen::new(
        args.seed ^ 0x1A5E,
        (HISTORY_ROWS + LIVE_ROWS) as i64,
        star.n_dates as i32 - 1,
        &star,
    );
    // History and live alternate, then a second live Q2 ends the cycle:
    // nine slots, so the p50 falls inside one report's latency
    // distribution rather than in the gap between two (see olap.rs).
    let live_q2 = qs
        .iter()
        .position(|q| q.label == "Q2 live")
        .expect("Q2 live is in the set");
    let mut reader = Session {
        db: db.new_session(),
        rotation: (0..qs.len()).chain([live_q2]).collect(),
        next: 0,
        rec: Recorder::new(epoch, 1, args.trace),
    };
    let mut host = HostSpeed::new(args.seed);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (reads, writer, wall) = std::thread::scope(|s| {
        let reads = s.spawn(|| run_session(&mut reader, ExecMode::Batch, &qs, deadline));
        let writer = writer_loop(
            db,
            &mut shadow,
            &mut gen,
            args.seed,
            deadline,
            &mut main_rec,
            &mut host,
        );
        let (reads, wall) = reads.join().expect("reader thread panicked");
        (reads, writer, wall)
    });
    let waits = waits_ms().since(&waits_before);
    let wal_after = db.wal_status().map(|s| s.counters);
    let mover_status = mover.status();
    let m = merge(vec![reads], report);
    let reads_per_s = m.latency.len() as f64 / wall;

    report.attempted += writer.attempted;
    report.failed += writer.failures.len() as u64;
    for f in writer.failures.iter().take(5) {
        report.fail(format!("writer: {f}"));
    }
    let tail_late_ms = writer.late_ms.last(writer.late_ms.len() / 10).median();
    if tail_late_ms > MAX_TAIL_LATE_MS {
        report.fail(format!(
            "invalid run: the writer sent its last tenth of units {tail_late_ms:.1} ms late \
             (limit {MAX_TAIL_LATE_MS} ms), so its backlog grew"
        ));
    }

    // Quiesce the mover, then check the live table against the shadow.
    let moved = mover.stop()?;
    let (rows, _) = execute_select(
        db,
        "SELECT COUNT(*), SUM(quantity), SUM(sale_id) FROM sales",
    )?;
    let got = rows
        .first()
        .map(|r| (r.get(0).as_i64(), r.get(1).as_i64(), r.get(2).as_i64()));
    let (n, qty, ids) = shadow.totals();
    let ok = got == Some((Some(n), Some(qty), Some(ids)));
    report.op(ok);
    if !ok {
        report.fail(format!(
            "live table differs from the shadow model: got {got:?}, want ({n}, {qty}, {ids})"
        ));
    }
    report.notes.push(format!(
        "writer: {} units, {} statements, {} rows changed; tuple mover compressed {moved} \
         delta stores; writer busy {:.1}% of the run, last tenth sent {tail_late_ms:.2} ms late",
        writer.latency.len(),
        writer.statements,
        writer.rows_changed,
        100.0 * writer.busy_ms / (wall * 1e3),
    ));
    for (unit, s) in &writer.by_unit {
        report.notes.push(format!(
            "write {unit:<6} p50 {:9.3} ms  p99 {:9.3} ms  (n={})",
            s.median(),
            s.percentile(0.99),
            s.len()
        ));
    }
    // The second set-up gap, once the measured database is quiet.
    setups.gap(1, || set_up_once(&mut main_rec))?;
    drop(data);
    let (n_setups, setup_total) = setups.summary();
    report.notes.push(format!(
        "phases: generate {:.1} s, {n_setups} set-ups {setup_total:.1} s, \
         oracle {oracle_s:.1} s, timed {wall:.1} s",
        generated.as_secs_f64(),
    ));

    if !args.trace {
        report.metric("setup_s", setups.median(), "s");
        // Every query of this workload is one of the reader's reports.
        report.metric("queries_per_s", reads_per_s, "1/s");
        report.percentile("query_p50_ms", &m.latency, 0.5);
        report.percentile("query_p90_ms", &m.latency, 0.9);
        report.percentile("write_p50_ms", &writer.latency, 0.5);
        report.percentile("write_p99_ms", &writer.latency, 0.99);
        report.percentile("read_p50_ms", &m.latency, 0.5);
        report.percentile("read_p90_ms", &m.latency, 0.9);
        report.metric("reads_per_s", reads_per_s, "1/s");
        report.metric(
            "stored_bytes_per_row",
            stored as f64 / loaded_rows as f64,
            "B",
        );
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        report.at_reference_speed(&host);
        return Ok(());
    }

    // ---- traced run: per-layer metrics
    let mut decode_ms = Vec::new();
    if let Some(TableEntry::ColumnStore(t)) = db.catalog().get("sales_history") {
        let snap = t.snapshot();
        for g in snap.groups() {
            let t = Instant::now();
            main_rec.span("storage.open_segment", |_| -> Result<()> {
                for col in 0..g.n_columns() {
                    std::hint::black_box(g.open_segment(col)?);
                }
                Ok(())
            })?;
            decode_ms.push(ms_since(t));
        }
    }
    let all = vec![main_rec, reader.rec];
    let trace = Trace::new(all);
    crate::write_trace(args, "htap_tiered", &trace, report);
    // Phase self times over every report; `exec.execute_ms.Qn` from the
    // history reports only, so each comes from one query.
    let ids: Vec<&'static str> = qs.iter().map(|q| q.id).collect();
    query_layer_metrics(report, &trace, &m, &ids, &history_ids);
    let self_med = |name: &str, tag: &dyn Fn(&str) -> bool| median(&trace.self_times(name, tag));
    let dur_med = |name: &str, tag: &dyn Fn(&str) -> bool| median(&trace.durations(name, tag));
    report.metric(
        "sql.parse_insert_ms",
        self_med("sql.parse_insert", &|_| true),
        "ms",
    );
    let dml = |t: &str| t == "update" || t == "delete";
    report.metric(
        "core.dml_ms",
        dur_med("core.execute", &dml) - self_med("sql.parse_dml", &dml),
        "ms",
    );
    report.metric("txn.commit_ms", dur_med("txn.commit", &|_| true), "ms");
    report.metric(
        "exec.row_ns_per_row",
        row_ns_per_row(
            &trace,
            |t| t == "reference",
            counter(&oracle_counters, "scan_rows_out"),
        ),
        "ns",
    );
    report.metric(
        "common.mem_peak_mb",
        db.governor().snapshot().mem_peak_bytes as f64 / (1 << 20) as f64,
        "MB",
    );
    report.metric(
        "storage.load_rows_per_s",
        median(&load_rows_per_s),
        "rows/s",
    );
    report.metric("storage.archive_ms", median(&archive_ms), "ms");
    report.metric("storage.archive_decode_ms", median(&decode_ms), "ms");
    let history = db.table_stats("sales_history")?;
    report.metric(
        "storage.bytes_per_row",
        history.compressed_bytes as f64 / history.compressed_rows.max(1) as f64,
        "B",
    );
    report.metric(
        "delta.closed_backlog_max",
        writer.closed_backlog_max as f64,
        "stores",
    );
    report.metric(
        "delta.mover_stores_moved",
        mover_status.stores_moved as f64,
        "stores",
    );
    report.metric(
        "delta.mover_retries",
        mover_status.transient_retries as f64,
        "count",
    );
    let stmts = writer.statements.max(1) as f64;
    if let (Some(a), Some(b)) = (wal_before, wal_after) {
        report.metric(
            "wal.fsyncs_per_stmt",
            (b.fsyncs - a.fsyncs) as f64 / stmts,
            "ratio",
        );
        report.metric(
            "wal.bytes_per_row",
            (b.bytes_appended - a.bytes_appended) as f64 / writer.rows_changed.max(1) as f64,
            "B",
        );
    }
    report.metric("wal.commit_wait_ms", waits.wal_commit_ms / stmts, "ms");
    let ops = (m.queries + writer.statements).max(1) as f64;
    report.metric("core.lock_wait_ms", waits.lock_ms / ops, "ms");
    report.metric("core.admission_wait_ms", waits.admission_ms / ops, "ms");
    report.metric("harness.host_factor", host.factor(), "ratio");
    report.metric(
        "harness.generator_late_ms",
        writer.late_ms.percentile(0.99),
        "ms",
    );
    Ok(())
}
