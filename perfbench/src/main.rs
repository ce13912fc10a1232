//! The pcube end-to-end benchmark.
//!
//! ```text
//! pcube-perfbench --workload <sql_selective|skyline_broad|durable_rw>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process, as one closed-loop client thread,
//! checks every answer against the benchmark's own oracles, and prints as
//! its last line one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of the traced
//! run (`--trace 1`). See `README.md` beside this crate.

mod cpu;
mod durable;
mod gen;
mod ledger;
mod oracle;
mod query;
mod read;
mod report;
mod trace;

use std::path::{Path, PathBuf};

use report::{peak_rss_mib, result_json, Metrics};
use trace::Tracer;

/// Every end-to-end metric with its unit, printed by every workload.
const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("query_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("blocks_per_query", "blocks"),
    ("commit_per_s", "1/s"),
    ("commit_p50_ms", "ms"),
    ("commit_p99_ms", "ms"),
    ("reopen_s", "s"),
    ("store_bytes_per_row", "bytes"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric of the traced run with its unit; a workload
/// that does not exercise a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 47] = [
    ("sql.parse_us", "us"),
    ("sql.exec_self_ms", "ms"),
    ("plan.catalog_ms", "ms"),
    ("plan.index_build_ms", "ms"),
    ("plan.choose_us", "us"),
    ("plan.chose_pcube", "count"),
    ("plan.chose_boolean_first", "count"),
    ("plan.chose_domination_first", "count"),
    ("plan.chose_index_merge", "count"),
    ("plan.est_over_actual", "ratio"),
    ("store.assemble_us", "us"),
    ("store.sig_pages_per_query", "pages"),
    ("store.dir_pages_per_query", "pages"),
    ("store.partials_per_query", "count"),
    ("rtree.blocks_per_query", "blocks"),
    ("rtree.nodes_expanded_per_query", "count"),
    ("storage.page_read_ms_per_query", "ms"),
    ("storage.crc32_ns_per_page", "ns"),
    ("storage.tuple_reads_per_query", "count"),
    ("kernel.pin_ms_per_query", "ms"),
    ("kernel.score_ms_per_query", "ms"),
    ("kernel.merge_ms_per_query", "ms"),
    ("kernel.heap_peak", "entries"),
    ("kernel.rows_per_query", "rows"),
    ("class.topk_p50_ms", "ms"),
    ("class.skyline_p50_ms", "ms"),
    ("class.dynamic_p50_ms", "ms"),
    ("class.hull_p50_ms", "ms"),
    ("class.pskyline_p50_ms", "ms"),
    ("class.subspace_p50_ms", "ms"),
    ("durable.apply_ms", "ms"),
    ("index.insert_ms", "ms"),
    ("index.delete_ms", "ms"),
    ("wal.bytes_per_txn", "bytes"),
    ("wal.syncs_per_txn", "count"),
    ("wal.sync_ms", "ms"),
    ("durable.publish_us", "us"),
    ("durable.checkpoint_ms", "ms"),
    ("durable.replay_ms_per_txn", "ms"),
    ("persist.restore_ms", "ms"),
    ("durable.bytes_written_per_user_byte", "ratio"),
    ("trace.traced_op_ms", "ms"),
    ("trace.untraced_op_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_ms_per_query", "ms"),
    ("trace.attributed_pct", "%"),
    ("trace.spans", "count"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload hands back: its counts, its metrics and its spans.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed operations whose answer was wrong (not just an error).
    pub mismatches: u64,
    pub metrics: Metrics,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn fail(&mut self, why: &str) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("FAILED: {why}");
        }
    }

    pub fn mismatch(&mut self, why: &str) {
        self.mismatches += 1;
        self.fail(why);
    }
}

/// Finishes the traced run's metrics: the per-layer self-time table (on
/// standard error), the unattributed remainder, and the tracing overhead.
/// `pairs` holds, for each traced operation, the seconds of the whole
/// traced operation (span bookkeeping and the layer calls made beside it
/// included) and of the same operation run untraced; the overhead is the
/// median of their ratios.
pub fn trace_summary(
    m: &mut Metrics,
    tr: &Tracer,
    rows: Vec<(&'static str, f64)>,
    pairs: &[(f64, f64)],
) {
    let ms = |pick: fn(&(f64, f64)) -> f64| {
        report::median(&pairs.iter().map(|p| pick(p) * 1e3).collect::<Vec<_>>())
    };
    let (traced, plain) = (ms(|p| p.0), ms(|p| p.1));
    let ratios: Vec<f64> = pairs.iter().map(|p| report::ratio(p.0, p.1)).collect();
    let layers_ms: f64 = rows.iter().map(|r| r.1).sum();
    let unattributed = rows
        .iter()
        .find(|r| r.0 == "unattributed")
        .map_or(0.0, |r| r.1);
    eprintln!("per-layer self time (ms per operation):");
    for (name, ms) in &rows {
        eprintln!("  {name:<52} {ms:>10.4}");
    }
    eprintln!("span self time (ms total, count):");
    let spans = tr.self_times();
    for (name, (count, _, self_s)) in &spans {
        eprintln!("  {name:<52} {:>10.2} {count:>8}", self_s * 1e3);
    }
    m.set("trace.traced_op_ms", traced, "ms");
    m.set("trace.untraced_op_ms", plain, "ms");
    m.set(
        "trace.overhead_pct",
        (report::median(&ratios) - 1.0) * 100.0,
        "%",
    );
    m.set("trace.unattributed_ms_per_query", unattributed, "ms");
    m.set(
        "trace.attributed_pct",
        report::ratio(layers_ms - unattributed, layers_ms) * 100.0,
        "%",
    );
    m.set("trace.spans", tr.span_count() as f64, "count");
}

/// Nanoseconds per CRC32 of one page-size buffer.
fn crc32_ns_per_page() -> f64 {
    let mut rng = gen::Rng::new(1, "crc");
    let page: Vec<u8> = (0..::pcube::storage::PAGE_SIZE)
        .map(|_| rng.next_u64() as u8)
        .collect();
    let reps = 20_000u32;
    let started = std::time::Instant::now();
    let mut acc = 0u32;
    for _ in 0..reps {
        acc = acc.wrapping_add(::pcube::storage::crc32(std::hint::black_box(&page)));
    }
    std::hint::black_box(acc);
    started.elapsed().as_secs_f64() * 1e9 / reps as f64
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".bench_run");
    let work = root.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).expect("create the run's work directory");
    let mut out = match args.workload.as_str() {
        "sql_selective" => read::run(&read::SQL_SELECTIVE, &args, &work),
        "skyline_broad" => read::run(&read::SKYLINE_BROAD, &args, &work),
        "durable_rw" => durable::run(&args, &work),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            let _ = std::fs::remove_dir_all(&work);
            std::process::exit(2);
        }
    };
    std::fs::remove_dir_all(&work).expect("remove the run's work directory");

    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if args.trace {
        out.metrics
            .set("storage.crc32_ns_per_page", crc32_ns_per_page(), "ns");
        if let Some(tr) = &out.tracer {
            let path = root.join(format!("trace-{}-{}.csv", args.workload, args.seed));
            tr.write_csv(Path::new(&path)).expect("write spans");
            eprintln!("spans written to {}", path.display());
        }
    } else {
        out.metrics.set("peak_rss_mb", peak_rss_mib(), "MiB");
    }
    let mut printed = Metrics::default();
    for (name, unit) in names {
        printed.set(name, out.metrics.get(name), unit);
    }
    println!(
        "{}",
        result_json(out.mismatches == 0, out.attempted, out.failed, &printed)
    );
}
