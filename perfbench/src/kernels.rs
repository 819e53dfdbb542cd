//! Kernel timings through the layers' public functions: segment encode,
//! decode and predicate-on-encoded, LZSS in both directions, Bloom and
//! exact bitmap-filter probes, and vectorized against row-at-a-time
//! filter and hash. Each kernel is warmed up once and reported as the
//! median of [`REPEATS`] timed repetitions.

use std::hint::black_box;
use std::time::Instant;

use cstore_common::testutil::Rng;
use cstore_common::{DataType, Row, Value};
use cstore_exec::{Batch, BitmapFilter, Expr};
use cstore_storage::archive::{compress, decompress};
use cstore_storage::builder::encode_column;
use cstore_storage::pred::{CmpOp, ColumnPred};

use crate::report::{median, Report};

const REPEATS: usize = 7;
/// Values per column kernel (one row group's worth is ~1M; 64k keeps the
/// whole suite near a second).
const N: usize = 64 * 1024;

/// Median wall time of `f` in nanoseconds, after one warm-up call.
fn time_ns(mut f: impl FnMut()) -> f64 {
    f();
    let runs: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&runs)
}

/// Column shapes that select each encoding.
fn column_datasets(rng: &mut Rng) -> Vec<(&'static str, DataType, Vec<Value>)> {
    let labels: Vec<String> = (0..200).map(|i| format!("label-{i:03}")).collect();
    vec![
        (
            "rle",
            DataType::Int64,
            (0..N).map(|i| Value::Int64((i / 1000) as i64)).collect(),
        ),
        (
            "bitpack",
            DataType::Int64,
            (0..N)
                .map(|_| Value::Int64(rng.range_i64(0, 997)))
                .collect(),
        ),
        (
            "dict_int",
            DataType::Int64,
            (0..N)
                .map(|_| Value::Int64([i64::MIN, 7, i64::MAX / 3][rng.range_usize(0, 3)]))
                .collect(),
        ),
        (
            "dict_str",
            DataType::Utf8,
            (0..N)
                .map(|_| Value::str(labels[rng.range_usize(0, labels.len())].as_str()))
                .collect(),
        ),
    ]
}

/// Byte streams for the archival codec.
fn byte_datasets(rng: &mut Rng) -> Vec<(&'static str, Vec<u8>)> {
    let text = "the quick brown fox jumps over the lazy dog. "
        .repeat(4000)
        .into_bytes();
    let random: Vec<u8> = (0..180_000).map(|_| rng.next_u32() as u8).collect();
    let segment: Vec<u8> = (0..180_000u32).map(|i| ((i / 64) % 200) as u8).collect();
    vec![("text", text), ("random", random), ("segment", segment)]
}

/// Run every kernel and add its metric to `report`.
pub fn run(seed: u64, report: &mut Report) {
    let mut rng = Rng::new(seed ^ 0x6B65_726E);
    for (name, ty, values) in column_datasets(&mut rng) {
        let Ok(seg) = encode_column(ty, &values, None) else {
            report.fail(format!("encode_column failed on {name}"));
            continue;
        };
        let n = values.len() as f64;
        let enc = time_ns(|| {
            black_box(encode_column(ty, black_box(&values), None).map(|s| s.encoded_bytes())).ok();
        });
        let dec = time_ns(|| {
            black_box(seg.decode());
        });
        let pred = match ty {
            DataType::Utf8 => ColumnPred::Cmp {
                op: CmpOp::Eq,
                value: Value::str("label-050"),
            },
            _ => ColumnPred::Cmp {
                op: CmpOp::Ge,
                value: Value::Int64(7),
            },
        };
        let on_encoded = time_ns(|| {
            black_box(seg.eval_pred(&pred)).ok();
        });
        report.metric(format!("storage.encode_ns_per_value.{name}"), enc / n, "ns");
        report.metric(format!("storage.decode_ns_per_value.{name}"), dec / n, "ns");
        report.metric(
            format!("storage.pred_ns_per_value.{name}"),
            on_encoded / n,
            "ns",
        );
    }

    for (name, data) in byte_datasets(&mut rng) {
        let packed = compress(&data);
        match decompress(&packed) {
            Ok(back) if back == data => {}
            _ => report.fail(format!("LZSS round trip changed the {name} bytes")),
        }
        let mb = data.len() as f64 / 1e6;
        let c = time_ns(|| {
            black_box(compress(black_box(&data)).len());
        });
        let d = time_ns(|| {
            black_box(decompress(black_box(&packed)).map(|v| v.len())).ok();
        });
        report.metric(
            format!("storage.lzss_compress_mb_s.{name}"),
            mb / (c / 1e9),
            "MB/s",
        );
        report.metric(
            format!("storage.lzss_decompress_mb_s.{name}"),
            mb / (d / 1e9),
            "MB/s",
        );
    }

    // Bitmap filters: a narrow key domain builds the exact form, a wide
    // one the Bloom form.
    let filters = [
        (
            "exact",
            (0..100_000i64).step_by(7).collect::<Vec<_>>(),
            true,
        ),
        (
            "bloom",
            (0..100_000i64).map(|i| i * 1_000_003).collect(),
            false,
        ),
    ];
    let probes: Vec<i64> = (0..N).map(|_| rng.range_i64(0, 1 << 40)).collect();
    for (name, keys, exact) in filters {
        match BitmapFilter::build(&keys) {
            Some(f) if f.is_exact() == exact => {
                let t = time_ns(|| {
                    black_box(probes.iter().filter(|k| f.maybe_contains(**k)).count());
                });
                report.metric(format!("exec.bloom_probe_ns.{name}"), t / N as f64, "ns");
            }
            _ => report.fail(format!("BitmapFilter::build did not give the {name} form")),
        }
    }

    // Vectorized against row-at-a-time filter and key hashing.
    let rows: Vec<Row> = (0..N)
        .map(|_| {
            Row::new(vec![
                Value::Int64(rng.range_i64(0, 1000)),
                Value::Float64(rng.range_i64(0, 97) as f64),
            ])
        })
        .collect();
    let Ok(batch) = Batch::from_rows(&[DataType::Int64, DataType::Float64], &rows) else {
        report.fail("Batch::from_rows failed");
        return;
    };
    let expr = Expr::and(
        Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::lit(100i64)),
        Expr::cmp(CmpOp::Lt, Expr::col(1), Expr::lit(50.0)),
    );
    let vec_filter = match expr.eval_pred(&batch) {
        Ok(b) => b.count_ones(),
        Err(e) => {
            report.fail(format!("vectorized filter failed: {e}"));
            return;
        }
    };
    let row_filter = rows
        .iter()
        .filter(|r| matches!(expr.eval_row(r), Ok(Value::Bool(true))))
        .count();
    if vec_filter != row_filter {
        report.fail(format!(
            "filter kernels disagree: vectorized {vec_filter}, row {row_filter}"
        ));
    }
    let batch_filter = time_ns(|| {
        black_box(expr.eval_pred(&batch)).ok();
    });
    let row_filter = time_ns(|| {
        black_box(
            rows.iter()
                .filter(|r| matches!(expr.eval_row(r), Ok(Value::Bool(true))))
                .count(),
        );
    });
    let mut out = vec![0u64; N];
    let batch_hash = time_ns(|| {
        out.iter_mut().for_each(|o| *o = 0);
        batch.column(0).hash_into(&mut out);
        black_box(&out);
    });
    let row_hash = time_ns(|| {
        black_box(rows.iter().fold(0u64, |acc, r| {
            acc ^ cstore_exec::vector::hash_values(std::iter::once(r.get(0)))
        }));
    });
    let n = N as f64;
    report.metric("exec.filter_ns_per_row.batch", batch_filter / n, "ns");
    report.metric("exec.filter_ns_per_row.row", row_filter / n, "ns");
    report.metric("exec.hash_ns_per_row.batch", batch_hash / n, "ns");
    report.metric("exec.hash_ns_per_row.row", row_hash / n, "ns");
}

/// The names [`run`] reports, for BENCHMARK.json and the metric check.
pub const METRICS: &[&str] = &[
    "storage.encode_ns_per_value.rle",
    "storage.decode_ns_per_value.rle",
    "storage.pred_ns_per_value.rle",
    "storage.encode_ns_per_value.bitpack",
    "storage.decode_ns_per_value.bitpack",
    "storage.pred_ns_per_value.bitpack",
    "storage.encode_ns_per_value.dict_int",
    "storage.decode_ns_per_value.dict_int",
    "storage.pred_ns_per_value.dict_int",
    "storage.encode_ns_per_value.dict_str",
    "storage.decode_ns_per_value.dict_str",
    "storage.pred_ns_per_value.dict_str",
    "storage.lzss_compress_mb_s.text",
    "storage.lzss_decompress_mb_s.text",
    "storage.lzss_compress_mb_s.random",
    "storage.lzss_decompress_mb_s.random",
    "storage.lzss_compress_mb_s.segment",
    "storage.lzss_decompress_mb_s.segment",
    "exec.bloom_probe_ns.exact",
    "exec.bloom_probe_ns.bloom",
    "exec.filter_ns_per_row.batch",
    "exec.filter_ns_per_row.row",
    "exec.hash_ns_per_row.batch",
    "exec.hash_ns_per_row.row",
];
