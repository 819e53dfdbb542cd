//! The `olap_batch` and `olap_row` workloads: the star-join query set
//! Q1–Q8 from one closed-loop session, over compressed columnstores in
//! batch mode or over heap tables in row mode.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cstore_common::testutil::Rng;
use cstore_common::{Result, Row, Schema};
use cstore_core::{Database, ExecMode, TableEntry};
use cstore_sql::parse;
use cstore_workload::{queries, StarSchema};

use crate::host::HostSpeed;
use crate::layers::{
    add_counters, columnstore_config, counter, execute_select, fingerprint, ms_since,
    pipeline_select, Counters, InsertGen, INSERT_ROWS,
};
use crate::report::{median, peak_rss_mb, Report, Samples};
use crate::sessions::{
    merge, query_layer_metrics, row_ns_per_row, run_session, Expect, Query, Session, SessionOut,
};
use crate::trace::{Recorder, Trace};
use crate::{waits_ms, Args, SetupTimes};

/// Timed closed-loop INSERT statements into the staging table, over the
/// whole run: 12 samples beyond the p99.
const WRITE_STATEMENTS: usize = 1200;
/// Slices of the timed run, about one a second at `--seconds 25`. Each
/// ends with a burst of the writes, so the writes see the host over the
/// whole run as the queries do; a shared host's speed drifts within
/// seconds, and a few long bursts would each catch one state of it.
const SLICES: usize = 24;
/// Host-speed kernel runs after each slice's writes (see `host.rs`).
const HOST_SAMPLES_PER_SLICE: usize = 3;
/// INSERT statements per burst; one untimed burst warms the table up.
const BURST: usize = WRITE_STATEMENTS / SLICES;

/// How one olap workload is configured.
struct Config {
    name: &'static str,
    fact_rows: usize,
    /// Mode of the timed queries; the oracle runs the other one.
    mode: ExecMode,
    /// Heap tables (row store) instead of columnstores.
    heap: bool,
}

pub fn olap_batch(args: &Args) -> Report {
    run(
        args,
        &Config {
            name: "olap_batch",
            fact_rows: 1_000_000,
            mode: ExecMode::Batch,
            heap: false,
        },
    )
}

pub fn olap_row(args: &Args) -> Report {
    run(
        args,
        &Config {
            name: "olap_row",
            fact_rows: 200_000,
            mode: ExecMode::Row,
            heap: true,
        },
    )
}

/// The generated star schema (row generation is not part of set-up).
pub struct StarData {
    pub star: StarSchema,
    pub tables: Vec<(&'static str, Schema, Vec<Row>)>,
}

impl StarData {
    pub fn generate(n_sales: usize, seed: u64) -> StarData {
        let star = StarSchema::scale(n_sales).with_seed(seed);
        let tables = vec![
            ("sales", StarSchema::sales_schema(), star.sales()),
            ("date_dim", StarSchema::date_schema(), star.dates()),
            ("customer", StarSchema::customer_schema(), star.customers()),
            ("product", StarSchema::product_schema(), star.products()),
            ("store", StarSchema::store_schema(), star.stores()),
        ];
        StarData { star, tables }
    }

    pub fn loaded_rows(&self) -> usize {
        self.tables.iter().map(|(_, _, rows)| rows.len()).sum()
    }
}

/// Create and bulk-load the star tables; returns the fact table's
/// `bulk_load` seconds.
pub fn load_star(db: &Database, data: &StarData, heap: bool, rec: &mut Recorder) -> Result<f64> {
    let mut fact_s = 0.0;
    for (name, schema, rows) in &data.tables {
        if heap {
            db.catalog().create_heap(name, schema.clone())?;
        } else {
            db.catalog()
                .create_columnstore(name, schema.clone(), columnstore_config())?;
        }
        let t = Instant::now();
        rec.span("storage.bulk_load", |_| db.bulk_load(name, rows))?;
        if *name == "sales" {
            fact_s = t.elapsed().as_secs_f64();
        }
    }
    Ok(fact_s)
}

/// Bytes the engine stores for every table of `db`: encoded segments and
/// delta stores of columnstores, used page bytes of heaps.
pub fn stored_bytes(db: &Database) -> usize {
    db.catalog()
        .table_names()
        .iter()
        .map(|name| match db.catalog().get(name) {
            Some(TableEntry::ColumnStore(t)) => {
                let s = t.stats();
                s.compressed_bytes + s.delta_bytes
            }
            Some(TableEntry::Heap(h)) => h.used_bytes(),
            None => 0,
        })
        .sum()
}

fn run(args: &Args, cfg: &Config) -> Report {
    let mut report = Report::default();
    if let Err(e) = run_inner(args, cfg, &mut report) {
        report.fail(format!("{} aborted: {e}", cfg.name));
    }
    report
}

fn run_inner(args: &Args, cfg: &Config, report: &mut Report) -> Result<()> {
    let epoch = Instant::now();
    let mut main_rec = Recorder::new(epoch, 0, args.trace);
    let data = StarData::generate(cfg.fact_rows, args.seed);
    let generated = epoch.elapsed();
    report.notes.push(format!(
        "{}: {} fact rows ({}), one closed-loop session in {:?} mode, seed {}",
        cfg.name,
        cfg.fact_rows,
        if cfg.heap {
            "heap tables"
        } else {
            "compressed columnstores"
        },
        cfg.mode,
        args.seed
    ));

    // Set-up, in three gaps: here (the last database of this gap is the
    // one measured), after the second slice of the timed run and after
    // the last one. The later gaps set up throwaway databases.
    let mut setups = SetupTimes::default();
    let mut load_rows_per_s = Vec::new();
    let mut set_up = |rec: &mut Recorder| -> Result<Database> {
        let fresh = Database::new().with_exec_mode(cfg.mode);
        let fact_s = load_star(&fresh, &data, cfg.heap, rec)?;
        load_rows_per_s.push(cfg.fact_rows as f64 / fact_s);
        Ok(fresh)
    };
    let db = setups.gap(1, || set_up(&mut main_rec))?;
    let stored = stored_bytes(&db);
    let oracle_start = Instant::now();

    // The oracle: every query once in the other execution mode, on the
    // same generated rows. Row mode reads the columnstores directly; batch
    // mode needs columnstores, so the heap workload loads a copy.
    let (oracle_mode, oracle_db) = match cfg.mode {
        ExecMode::Row => {
            let copy = Database::new().with_exec_mode(ExecMode::Batch);
            load_star(&copy, &data, false, &mut Recorder::new(epoch, 0, false))?;
            (ExecMode::Batch, copy)
        }
        _ => (
            ExecMode::Row,
            db.new_session().with_exec_mode(ExecMode::Row),
        ),
    };
    let mut oracle_counters = Counters::new();
    let mut qs = Vec::new();
    for (n, q) in queries::all().into_iter().enumerate() {
        main_rec.request(n as u64, "reference");
        let (rows, c) = if args.trace {
            pipeline_select(&oracle_db, oracle_mode, q.sql, &mut main_rec, "reference")?
        } else {
            execute_select(&oracle_db, q.sql)?
        };
        add_counters(&mut oracle_counters, &c);
        let ordered = q.sql.contains("ORDER BY");
        qs.push(Query {
            id: q.id,
            label: q.id.to_string(),
            sql: q.sql.to_string(),
            ordered,
            expect: Expect::Exact(fingerprint(&rows, ordered)),
        });
    }
    drop(oracle_db);
    let loaded_rows = data.loaded_rows();
    let star = data.star.clone();

    let oracle_s = oracle_start.elapsed().as_secs_f64();

    // One checked, untimed warm-up pass, then the timed closed loop.
    let mut warm = SessionOut::default();
    for q in &qs {
        let got = execute_select(&db, &q.sql);
        warm.check(q, got);
    }
    // Eleven slots: Q1–Q8, two more Q2 (the short date-range report) and
    // a second Q4 (the heaviest join). With eleven equal shares the p50
    // lies in the middle of the sixth slot and the p90 near the middle of
    // the two Q4 slots, inside one latency distribution each. With eight
    // shares the p50 would fall in the gap between the fourth and fifth
    // fastest queries and jump between them from run to run.
    let slot = |id: &str| {
        qs.iter()
            .position(|q| q.id == id)
            .expect("query is in the set")
    };
    let extra = [slot("Q2"), slot("Q2"), slot("Q4")];
    let mut rng = Rng::new(args.seed ^ 0x0F1A);
    let mut rotation: Vec<usize> = (0..qs.len()).chain(extra).collect();
    rng.shuffle(&mut rotation);
    let mut session = Session {
        db: db.new_session(),
        rotation,
        next: 0,
        rec: Recorder::new(epoch, 1, args.trace),
    };

    // The timed run: SLICES slices of the closed query loop, each
    // followed by a burst of closed-loop trickle INSERTs into one staging
    // table of the workload's storage kind (a columnstore's delta store
    // on olap_batch, a heap on olap_row). The staging table starts as an
    // untimed copy of the fact table and keeps every row inserted, so the
    // writes pay what inserting into a table of the fact table's size
    // costs. The run adds 80,000 rows (40% of olap_row's fact table), so
    // when a write's cost grows with the table the slowest writes are not
    // just the last few. The bursts never overlap the queries.
    const STAGING: &str = "sales_staging";
    if cfg.heap {
        db.catalog()
            .create_heap(STAGING, StarSchema::sales_schema())?;
    } else {
        db.catalog().create_columnstore(
            STAGING,
            StarSchema::sales_schema(),
            columnstore_config(),
        )?;
    }
    db.bulk_load(STAGING, &data.tables[0].2)?;
    let mut gen = InsertGen::new(
        args.seed ^ 0x57A6,
        2 * cfg.fact_rows as i64,
        star.n_dates as i32 - 1,
        &star,
    );
    // One untimed, checked burst first: the first writes into the fresh
    // staging heap ran two to three times slower than the rest and made up
    // half of olap_row's p99 tail.
    for _ in 0..BURST {
        let sql = gen.insert(STAGING).0;
        report.op(db.execute(&sql).is_ok_and(|r| r.affected() == INSERT_ROWS));
    }
    let mut outs = vec![warm];
    let mut host = HostSpeed::new(args.seed);
    let mut wall = 0.0;
    let mut writes = Samples::default();
    let waits_before = waits_ms();
    let slice = Duration::from_secs_f64(args.seconds / SLICES as f64);
    for n in 0..SLICES {
        let (slice_out, slice_wall) =
            run_session(&mut session, cfg.mode, &qs, Instant::now() + slice);
        outs.push(slice_out);
        wall += slice_wall;
        let statements: Vec<String> = (0..BURST).map(|_| gen.insert(STAGING).0).collect();
        for sql in &statements {
            main_rec.request(writes.len() as u64, "insert");
            let t = Instant::now();
            let ok = main_rec.span("write", |rec| {
                if rec.enabled() && rec.span("sql.parse_insert", |_| parse(sql)).is_err() {
                    return false;
                }
                rec.span("core.execute", |_| db.execute(sql))
                    .is_ok_and(|r| r.affected() == INSERT_ROWS)
            });
            writes.push(ms_since(t));
            report.op(ok);
        }
        for _ in 0..HOST_SAMPLES_PER_SLICE {
            host.sample();
        }
        if n == SLICES / 2 - 1 || n == SLICES - 1 {
            setups.gap(1, || set_up(&mut main_rec))?;
        }
    }
    drop(data);
    let (rows, _) = execute_select(&db, &format!("SELECT COUNT(*) FROM {STAGING}"))?;
    let want = (cfg.fact_rows + BURST * (SLICES + 1) * INSERT_ROWS) as i64;
    report.op(rows.first().and_then(|r| r.get(0).as_i64()) == Some(want));
    let waits = waits_ms().since(&waits_before);
    let m = merge(outs, report);
    let queries_per_s = m.latency.len() as f64 / wall;
    let (n_setups, setup_total) = setups.summary();
    report.notes.push(format!(
        "phases: generate {:.1} s, {n_setups} set-ups {setup_total:.1} s, \
         oracle {oracle_s:.1} s, query loop {wall:.1} s, writes {:.1} s",
        generated.as_secs_f64(),
        writes.sum() / 1e3,
    ));

    if !args.trace {
        report.metric("setup_s", setups.median(), "s");
        report.metric("queries_per_s", queries_per_s, "1/s");
        report.percentile("query_p50_ms", &m.latency, 0.5);
        report.percentile("query_p90_ms", &m.latency, 0.9);
        // Every operation of the query loop is a read.
        report.percentile("read_p50_ms", &m.latency, 0.5);
        report.percentile("read_p90_ms", &m.latency, 0.9);
        report.metric("reads_per_s", queries_per_s, "1/s");
        report.percentile("write_p50_ms", &writes, 0.5);
        report.percentile("write_p99_ms", &writes, 0.99);
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
    let mut all = vec![main_rec];
    all.push(session.rec);
    let trace = Trace::new(all);
    crate::write_trace(args, cfg.name, &trace, report);
    let ids: Vec<&'static str> = qs.iter().map(|q| q.id).collect();
    query_layer_metrics(report, &trace, &m, &ids, &ids);
    report.metric(
        "sql.parse_insert_ms",
        median(&trace.self_times("sql.parse_insert", |_| true)),
        "ms",
    );
    // Row-mode time per scanned row: the timed queries on olap_row, the
    // oracle's row-mode pass on olap_batch.
    let row_ns = if cfg.mode == ExecMode::Row {
        row_ns_per_row(
            &trace,
            |t| ids.contains(&t),
            counter(&m.traced_counters, "scan_rows_out"),
        )
    } else {
        row_ns_per_row(
            &trace,
            |t| t == "reference",
            counter(&oracle_counters, "scan_rows_out"),
        )
    };
    report.metric("exec.row_ns_per_row", row_ns, "ns");
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
    match db.catalog().get("sales") {
        Some(TableEntry::ColumnStore(t)) => {
            let s = t.stats();
            report.metric(
                "storage.bytes_per_row",
                s.compressed_bytes as f64 / s.compressed_rows.max(1) as f64,
                "B",
            );
        }
        Some(TableEntry::Heap(h)) => {
            let mut rates = Vec::new();
            for _ in 0..3 {
                let t = Instant::now();
                let n = black_box(h.scan().count());
                rates.push(n as f64 / t.elapsed().as_secs_f64());
            }
            report.metric("rowstore.scan_rows_per_s", median(&rates), "rows/s");
        }
        None => report.fail("sales table missing after the run"),
    }
    report.metric("harness.host_factor", host.factor(), "ratio");
    let ops = m.queries.max(1) as f64;
    report.metric("core.lock_wait_ms", waits.lock_ms / ops, "ms");
    report.metric("core.admission_wait_ms", waits.admission_ms / ops, "ms");
    Ok(())
}
