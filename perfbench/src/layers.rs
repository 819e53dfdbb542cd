//! Calls into the engine's layers, shared by the workloads: the query
//! pipeline the traced run drives phase by phase, answer fingerprints
//! for the correctness oracle, and the generated trickle INSERTs.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use cstore_common::testutil::Rng;
use cstore_common::{Error, Result, Row};
use cstore_core::{Database, ExecMode, QueryResult, SysCatalog};
use cstore_delta::TableConfig;
use cstore_exec::ops::collect_rows;
use cstore_planner::physical::build_physical;
use cstore_planner::rules::optimize;
use cstore_sql::ast::Statement;
use cstore_sql::{bind_select, parse};

use crate::trace::Recorder;

/// Rows per trickle INSERT statement.
pub const INSERT_ROWS: usize = 64;

/// Table configuration for bulk-loaded columnstores: every load lands in
/// compressed row groups (a low direct-compress threshold), and groups
/// hold 131,072 rows, an eighth of the paper's ~1M, so a 1M-row fact
/// table has eight groups and date-range predicates can eliminate some.
pub fn columnstore_config() -> TableConfig {
    TableConfig {
        bulk_load_threshold: 1024,
        max_rowgroup_rows: 1 << 17,
        ..TableConfig::default()
    }
}

/// A query's answer, reduced to its row count and a hash that ignores
/// row order unless the query has ORDER BY.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub rows: usize,
    pub hash: u64,
}

pub fn fingerprint(rows: &[Row], ordered: bool) -> Fingerprint {
    let row_hash = |r: &Row, h: &mut DefaultHasher| r.values().iter().for_each(|v| v.hash(h));
    let hash = if ordered {
        let mut h = DefaultHasher::new();
        rows.iter().for_each(|r| row_hash(r, &mut h));
        h.finish()
    } else {
        rows.iter().fold(0u64, |acc, r| {
            let mut h = DefaultHasher::new();
            row_hash(r, &mut h);
            acc.wrapping_add(h.finish())
        })
    };
    Fingerprint {
        rows: rows.len(),
        hash,
    }
}

/// Execution counters of one query (see `cstore_exec::Metrics`).
pub type Counters = Vec<(&'static str, u64)>;

/// Sum `from` into `into`, by counter name.
pub fn add_counters(into: &mut Counters, from: &[(&'static str, u64)]) {
    for (name, v) in from {
        match into.iter_mut().find(|(n, _)| n == name) {
            Some((_, acc)) => *acc += v,
            None => into.push((name, *v)),
        }
    }
}

pub fn counter(c: &[(&'static str, u64)], name: &str) -> u64 {
    c.iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v)
}

/// A SELECT through `Database::execute`: its rows and counters.
pub fn execute_select(db: &Database, sql: &str) -> Result<(Vec<Row>, Counters)> {
    match db.execute(sql)? {
        QueryResult::Rows { rows, metrics, .. } => Ok((rows, metrics)),
        other => Err(Error::Execution(format!("expected rows, got {other:?}"))),
    }
}

/// A SELECT driven layer by layer: `sql` (parse, bind), `planner`
/// (optimize, build_physical) and `exec` (collect_rows), each in its own
/// span under a `root` span. This skips the `core` facade (admission,
/// query log, Query Store), which is what the traced run's
/// `core.facade_ms` measures by comparison with `Database::execute`.
pub fn pipeline_select(
    db: &Database,
    mode: ExecMode,
    sql: &str,
    rec: &mut Recorder,
    root: &'static str,
) -> Result<(Vec<Row>, Counters)> {
    rec.span(root, |rec| {
        let stmt = rec.span("sql.parse", |_| parse(sql))?;
        let Statement::Select(select) = stmt else {
            return Err(Error::Sql(format!("not a SELECT: {sql}")));
        };
        let catalog = SysCatalog::new(db.catalog(), db);
        let plan = rec.span("sql.bind", |_| bind_select(&select, &catalog))?;
        let plan = rec.span("planner.optimize", |_| optimize(plan, &catalog))?;
        let qctx = db.exec_context().for_query();
        let phys = rec.span("planner.build_physical", |_| {
            build_physical(&plan, &catalog, &qctx, mode)
        })?;
        let rows = rec.span("exec.collect_rows", |_| collect_rows(phys.root))?;
        let mut counters = qctx.metrics.snapshot();
        // Row-mode scans keep no `rows_scanned` counter; every scan
        // operator's output row count works in both modes.
        let scan_rows_out = qctx
            .stats
            .operators()
            .iter()
            .filter(|op| op.label.starts_with("Scan "))
            .map(|op| op.rows())
            .sum();
        counters.push(("scan_rows_out", scan_rows_out));
        Ok((rows, counters))
    })
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Generates fact rows for trickle INSERTs into a `sales`-shaped table.
pub struct InsertGen {
    rng: Rng,
    next_id: i64,
    date_key: i32,
    n_customers: i64,
    n_products: i64,
    n_stores: i64,
}

impl InsertGen {
    pub fn new(
        seed: u64,
        first_id: i64,
        date_key: i32,
        star: &cstore_workload::StarSchema,
    ) -> InsertGen {
        InsertGen {
            rng: Rng::new(seed),
            next_id: first_id,
            date_key,
            n_customers: star.n_customers as i64,
            n_products: star.n_products as i64,
            n_stores: star.n_stores as i64,
        }
    }

    /// One `INSERT INTO table VALUES ...` of [`INSERT_ROWS`] rows, and the
    /// `(sale_id, quantity)` of each row it inserts.
    pub fn insert(&mut self, table: &str) -> (String, Vec<(i64, i64)>) {
        let mut sql = format!("INSERT INTO {table} VALUES ");
        let mut rows = Vec::with_capacity(INSERT_ROWS);
        for i in 0..INSERT_ROWS {
            let id = self.next_id;
            self.next_id += 1;
            let qty = self.rng.range_i64(1, 11);
            let discount = if self.rng.gen_bool(0.8) {
                "NULL".to_string()
            } else {
                format!("{:.2}", self.rng.range_i64(1, 31) as f64 / 100.0)
            };
            if i > 0 {
                sql.push_str(", ");
            }
            sql.push_str(&format!(
                "({id}, {}, {}, {}, {}, {qty}, {}.{:02}, {discount})",
                self.date_key,
                self.rng.range_i64(0, self.n_customers),
                self.rng.range_i64(0, self.n_products),
                self.rng.range_i64(0, self.n_stores),
                self.rng.range_i64(0, 100),
                self.rng.range_i64(0, 100),
            ));
            rows.push((id, qty));
        }
        (sql, rows)
    }
}
