//! The two read workloads: `sql_selective` (SQL statements under selective
//! predicates on uniform data) and `skyline_broad` (every query class
//! through `PCubeDb::run` on anti-correlated data).
//!
//! A run: set up the database (build + save its image), answer every query
//! of the pool with the oracles, run the pool once (its length is
//! proportional to `--seconds`) with a fixed number of small write
//! transactions and four more set-ups spread among the queries, then reopen
//! the saved image nine times. Every run of a seed runs the same
//! operations.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Instant;

use ::pcube::baselines::BooleanIndexSet;
use ::pcube::core::{
    EngineKind, PCubeConfig, PCubeDb, PSkylineClass, Planner, PriorityGraph, QuerySpec, QueryStats,
    SubspaceSkylineClass,
};
use ::pcube::storage::IoSnapshot;

use crate::cpu::CpuInstant;
use crate::gen::{self, Rng, Row, Shape};
use crate::ledger::{total_reads, QueryLedger};
use crate::oracle;
use crate::query::{normalize, Class, Query, Term};
use crate::report::{mean, median, percentile, ratio};
use crate::trace::Tracer;
use crate::{Args, Outcome};

/// How a read workload hands its queries to the program.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// SQL text through `pcube::sql::execute`.
    Sql,
    /// Query-class values through `PCubeDb::run`.
    Direct,
}

pub struct ReadSpec {
    pub rows: usize,
    pub shape: Shape,
    pub front: Front,
    /// Pool queries per requested second, sized so the pool takes about
    /// `--seconds` to run.
    pub per_second: f64,
    pub pool: fn(&mut Rng, &[Row], usize) -> Vec<Query>,
}

pub const SQL_SELECTIVE: ReadSpec = ReadSpec {
    rows: 100_000,
    shape: Shape::Uniform,
    front: Front::Sql,
    per_second: 50.0,
    pool: sql_pool,
};
pub const SKYLINE_BROAD: ReadSpec = ReadSpec {
    rows: 100_000,
    shape: Shape::AntiCorrelated,
    front: Front::Direct,
    per_second: 50.0,
    pool: broad_pool,
};

/// Write transactions (three inserts and a delete each) spread among the
/// queries: enough that their p99 has ten samples beyond it.
const WRITE_TXNS: usize = 1000;
const INSERTS_PER_TXN: usize = 3;
const SETUPS: usize = 5;
const REOPENS: usize = 9;

fn ranking(rng: &mut Rng, squared: bool) -> Vec<Term> {
    (0..gen::N_PREF)
        .map(|dim| {
            let w = rng.decimal(10, 100);
            if squared {
                Term::Sq {
                    dim,
                    w,
                    target: rng.decimal(0, 100),
                }
            } else {
                Term::Linear { dim, w }
            }
        })
        .collect()
}

/// `n` statements (rounded up to whole blocks of 48). Each block holds
/// every combination of the four SQL classes, 1, 2 and 3 predicates and
/// four variants, one of the four `EXPLAIN`-prefixed; parameters are drawn
/// afresh for every statement.
fn sql_pool(rng: &mut Rng, rows: &[Row], n: usize) -> Vec<Query> {
    let mut pool = Vec::new();
    while pool.len() < n {
        for class in 0..4 {
            for n_preds in 1..=3 {
                for variant in 0..4 {
                    let class = match class {
                        0 => Class::TopK {
                            k: 10,
                            terms: ranking(rng, variant % 2 == 1),
                        },
                        1 => Class::Skyline {
                            dims: gen::pref_dims(rng, 3 - variant % 2),
                        },
                        2 => {
                            let dims = gen::pref_dims(rng, 3);
                            let mut edges = vec![(dims[0], dims[1])];
                            if variant % 2 == 1 {
                                edges.push((dims[1], dims[2]));
                            }
                            Class::PSkyline { dims, edges }
                        }
                        _ => Class::Subspace {
                            dims: gen::pref_dims(rng, 2),
                        },
                    };
                    let preds = gen::predicates(rng, rows, n_preds);
                    pool.push(Query {
                        class,
                        preds,
                        explain: variant == 3,
                    });
                }
            }
        }
    }
    rng.shuffle(&mut pool);
    pool
}

/// `n` queries (rounded up to whole blocks of 24). Each block holds each of
/// the six classes four times, once with no predicate and three times
/// with one. The hull's dimension pair, which sets its cost, cycles with
/// the block rather than being drawn, so every run holds the same mix of
/// hulls and the tail of the latencies does not move with the seed.
fn broad_pool(rng: &mut Rng, rows: &[Row], n: usize) -> Vec<Query> {
    const HULL_DIMS: [(usize, usize); 3] = [(0, 1), (0, 2), (1, 2)];
    let mut pool = Vec::new();
    let mut block = 0;
    while pool.len() < n {
        for class in 0..6 {
            for variant in 0..4 {
                let class = match class {
                    0 => Class::TopK {
                        k: 100,
                        terms: ranking(rng, variant % 2 == 1),
                    },
                    1 => Class::Skyline {
                        dims: vec![0, 1, 2],
                    },
                    2 => {
                        let point = [
                            rng.decimal(20, 80),
                            rng.decimal(20, 80),
                            rng.decimal(20, 80),
                        ];
                        Class::Dynamic {
                            point,
                            dims: vec![0, 1, 2],
                        }
                    }
                    3 => Class::Hull {
                        dims: HULL_DIMS[(block + variant) % HULL_DIMS.len()],
                    },
                    4 => {
                        let dims = gen::pref_dims(rng, 3);
                        Class::PSkyline {
                            edges: vec![(dims[0], dims[1])],
                            dims,
                        }
                    }
                    _ => Class::Subspace {
                        dims: gen::pref_dims(rng, 2),
                    },
                };
                let preds = gen::predicates(rng, rows, usize::from(variant > 0));
                pool.push(Query {
                    class,
                    preds,
                    explain: false,
                });
            }
        }
        block += 1;
    }
    rng.shuffle(&mut pool);
    pool
}

/// What one query call answered and cost.
struct Called {
    tids: Vec<u64>,
    stats: QueryStats,
    cpu_s: f64,
    /// The traced run splits the wall-clock time, the clock of the spans
    /// and of the engine's own stage times.
    wall_s: f64,
    /// The counted reads of the call.
    io: IoSnapshot,
}

/// One query as the workload's front end runs it.
fn call(db: &PCubeDb, front: Front, q: &Query, sql: &str) -> Result<Called, String> {
    let before = db.stats().snapshot();
    let wall = Instant::now();
    let cpu = CpuInstant::now();
    let (tids, stats) = match front {
        Front::Sql => {
            let out = ::pcube::sql::execute(db, sql).map_err(|e| e.to_string())?;
            (out.rows.iter().map(|r| r.tid).collect(), out.stats)
        }
        Front::Direct => q.run(db),
    };
    let cpu_s = cpu.elapsed();
    let wall_s = wall.elapsed().as_secs_f64();
    Ok(Called {
        tids,
        stats,
        cpu_s,
        wall_s,
        io: db.stats().snapshot().since(&before),
    })
}

/// The calls a statement makes into the SQL, planner and signature-store
/// layers, each timed on its own right after the statement ran.
fn trace_layers(
    tr: &mut Tracer,
    led: &mut QueryLedger,
    db: &PCubeDb,
    front: Front,
    q: &Query,
    sql: &str,
) {
    let sel = q.selection();
    if front == Front::Sql {
        led.statements += 1;
        let (parsed, s) = tr.span("sql.parse", || ::pcube::sql::parse_statement(sql));
        assert!(parsed.is_ok(), "statement parsed once already");
        led.parse_s += s;
        if q.explain {
            led.explains += 1;
            let (planner, s) = tr.span("plan.catalog", || Planner::new(db));
            led.catalog_s += s;
            // Top-k and skyline statements also build the baselines'
            // B+-tree indexes; the class-generic path does not.
            if matches!(q.class, Class::TopK { .. } | Class::Skyline { .. }) {
                let (_, s) = tr.span("plan.index_build", || {
                    BooleanIndexSet::build(db.relation(), 4096, db.stats().clone())
                });
                led.index_build_s += s;
                led.index_builds += 1;
            }
            let all = [
                EngineKind::PCube,
                EngineKind::BooleanFirst,
                EngineKind::DominationFirst,
                EngineKind::IndexMerge,
            ];
            let (_, s) = tr.span("plan.choose", || match &q.class {
                Class::TopK { k, .. } => planner.choose(&sel, &QuerySpec::TopK { k: *k }, &all),
                Class::Skyline { dims } => {
                    planner.choose(&sel, &QuerySpec::Skyline { pref_dims: dims }, &all[..3])
                }
                Class::PSkyline { dims, edges } => {
                    let graph = PriorityGraph::new(dims.clone(), edges).expect("generated DAG");
                    planner.choose_class(&sel, &PSkylineClass::new(graph), &all[..3])
                }
                Class::Subspace { dims } => {
                    planner.choose_class(&sel, &SubspaceSkylineClass::new(dims.clone()), &all[..3])
                }
                Class::Dynamic { .. } | Class::Hull { .. } => unreachable!("not a SQL class"),
            });
            led.choose_s += s;
        }
    }
    led.assembles += 1;
    let (_, s) = tr.span("store.assemble", || drop(db.pcube().probe(&sel, true)));
    led.assemble_s += s;
}

/// The write side of a read workload: small transactions (three inserts
/// and a delete of a live tuple, the shape `durable_rw` commits through the
/// WAL) applied in memory and timed by the CPU clock, as they never wait,
/// and the model of the live tuple ids. Every workload reports every
/// end-to-end metric, so the read workloads give the commit metrics of
/// their own table size and data shape.
struct Writer {
    db: PCubeDb,
    rng: Rng,
    shape: Shape,
    live: Vec<u64>,
    next_tid: u64,
    commit_ms: Vec<f64>,
    insert_ms: Vec<f64>,
    delete_ms: Vec<f64>,
}

impl Writer {
    fn txn(&mut self, tr: &mut Tracer, out: &mut Outcome) {
        out.attempted += 1;
        tr.next_op();
        let victim = self
            .live
            .swap_remove(self.rng.below(self.live.len() as u64) as usize);
        let inserts: Vec<Row> = (0..INSERTS_PER_TXN)
            .map(|_| gen::row(&mut self.rng, self.shape))
            .collect();
        let txn = tr.begin("commit");
        let cpu = CpuInstant::now();
        for r in &inserts {
            let (tid, secs) = tr.span("index.insert", || self.db.insert_coded(&r.codes, &r.coords));
            self.insert_ms.push(secs * 1e3);
            if tid != self.next_tid {
                out.mismatch(&format!(
                    "insert returned tuple {tid}, expected {}",
                    self.next_tid
                ));
            }
            self.live.push(self.next_tid);
            self.next_tid += 1;
        }
        let (hit, secs) = tr.span("index.delete", || self.db.delete(victim));
        self.delete_ms.push(secs * 1e3);
        self.commit_ms.push(cpu.elapsed() * 1e3);
        tr.end(txn);
        if !hit {
            out.mismatch(&format!("delete of live tuple {victim} found nothing"));
        }
    }
}

pub fn run(spec: &ReadSpec, args: &Args, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new();
    let mut rng = Rng::new(args.seed, "rows");
    let rows = gen::rows(&mut rng, spec.rows, spec.shape);

    // Set-up: build the database and save its image. The other set-ups
    // are spread over the run, so their median samples the host's speed
    // over the whole run rather than over its first seconds.
    let image = work.join("db.pcube");
    let spare_image = work.join("setup.pcube");
    let (db, secs) = set_up(&rows, &image);
    let mut setup_s = vec![secs];
    let image_bytes = std::fs::metadata(&image).expect("image written").len() as f64;

    let n_queries = ((args.seconds * spec.per_second).ceil() as usize).max(1);
    let pool = (spec.pool)(&mut Rng::new(args.seed, "queries"), &rows, n_queries);
    let sql: Vec<String> = pool
        .iter()
        .map(|q| {
            if spec.front == Front::Sql {
                q.sql()
            } else {
                String::new()
            }
        })
        .collect();
    // Expected answers. A query that recurs (the same class and parameters
    // without predicates, common in `skyline_broad`) is answered once: a
    // full-table oracle answer takes up to 0.3 s there.
    let started = Instant::now();
    let mut memo: HashMap<String, Vec<u64>> = HashMap::new();
    let expected: Vec<Vec<u64>> = pool
        .iter()
        .map(|q| {
            memo.entry(format!("{q:?}"))
                .or_insert_with(|| oracle::answer(q, &oracle::candidates(&rows, None, &q.preds)))
                .clone()
        })
        .collect();
    drop(memo);
    eprintln!(
        "oracle answers for {} queries in {:.2} s",
        pool.len(),
        started.elapsed().as_secs_f64()
    );

    // Writes go to a copy-on-write clone while the queries keep reading
    // the original, so the precomputed answers stay valid; one transaction
    // follows every `write_every`-th query, spreading the writes over the
    // whole run.
    let mut writer = Writer {
        db: db.clone_snapshot(),
        rng: Rng::new(args.seed, "writes"),
        shape: spec.shape,
        live: (0..rows.len() as u64).collect(),
        next_tid: rows.len() as u64,
        commit_ms: Vec::new(),
        insert_ms: Vec::new(),
        delete_ms: Vec::new(),
    };
    let write_every = (pool.len() / WRITE_TXNS).max(1);
    let setup_every = (pool.len() / SETUPS).max(1);

    // Queries: the pool once. The traced run traces every second query and
    // also runs it untraced, first or second in turn, to state its overhead.
    let mut lat_ms = Vec::new();
    let mut reads = 0u64;
    let mut led = QueryLedger::default();
    let mut pairs = Vec::new();
    let mut by_shape: BTreeMap<(&'static str, usize, bool), Vec<f64>> = BTreeMap::new();
    for (i, q) in pool.iter().enumerate() {
        let traced = args.trace && i % 2 == 1;
        let passes: &[bool] = match (traced, i % 4) {
            (false, _) => &[false],
            (true, 1) => &[false, true],
            (true, _) => &[true, false],
        };
        let mut pair = (0.0, 0.0);
        for &recording in passes {
            tr.set_recording(recording);
            tr.next_op();
            out.attempted += 1;
            let whole = Instant::now();
            let op = tr.begin("op");
            let (res, _) = tr.span(
                if spec.front == Front::Sql {
                    "sql.execute"
                } else {
                    "core.run"
                },
                || call(&db, spec.front, q, &sql[i]),
            );
            match res {
                Ok(Called {
                    tids,
                    stats,
                    cpu_s,
                    wall_s,
                    io,
                }) => {
                    if recording {
                        led.record(q.class.name(), wall_s, &io, &stats, tids.len());
                        trace_layers(&mut tr, &mut led, &db, spec.front, q, &sql[i]);
                    } else {
                        lat_ms.push(cpu_s * 1e3);
                        reads += total_reads(&io);
                    }
                    if recording == args.trace {
                        by_shape
                            .entry((q.class.name(), q.preds.len(), q.explain))
                            .or_default()
                            .push(if recording { wall_s } else { cpu_s } * 1e3);
                    }
                    if normalize(&q.class, tids) != expected[i] {
                        out.mismatch(&format!(
                            "{} answer differs from the oracle: {:?}",
                            q.class.name(),
                            q
                        ));
                    }
                }
                Err(e) => out.fail(&format!("query failed: {e}")),
            }
            tr.end(op);
            let whole_s = whole.elapsed().as_secs_f64();
            if recording {
                pair.0 = whole_s;
            } else {
                pair.1 = whole_s;
            }
        }
        if traced {
            pairs.push(pair);
        }
        if (i + 1) % write_every == 0 && writer.commit_ms.len() < WRITE_TXNS {
            tr.set_recording(args.trace);
            writer.txn(&mut tr, &mut out);
        }
        if (i + 1) % setup_every == 0 && setup_s.len() < SETUPS {
            setup_s.push(set_up(&rows, &spare_image).1);
        }
    }
    tr.set_recording(args.trace);
    while writer.commit_ms.len() < WRITE_TXNS {
        writer.txn(&mut tr, &mut out);
    }
    while setup_s.len() < SETUPS {
        setup_s.push(set_up(&rows, &spare_image).1);
    }
    eprintln!("set-up seconds: {setup_s:.3?}");
    let queries = lat_ms.len() as f64;
    let query_s: f64 = lat_ms.iter().sum::<f64>() / 1e3;

    out.attempted += 1;
    writer.live.sort_unstable();
    if live_tids(&writer.db) != writer.live {
        out.mismatch("live tuples after the writes differ from the model");
    }
    let Writer {
        db: written,
        commit_ms,
        insert_ms,
        delete_ms,
        ..
    } = writer;
    drop((db, written));

    // Reopen: the saved image back to a queryable database, nine times.
    let mut reopen_s = Vec::new();
    let mut restore_ms = Vec::new();
    for _ in 0..REOPENS {
        out.attempted += 1;
        tr.next_op();
        let (opened, secs) = tr.span("persist.open", || PCubeDb::open(&image));
        reopen_s.push(secs);
        match opened {
            Ok(db) => {
                if live_tids(&db) != (0..rows.len() as u64).collect::<Vec<_>>() {
                    out.mismatch("reopened database holds other tuples than were saved");
                }
                match call(&db, spec.front, &pool[0], &sql[0]) {
                    Ok(called) => {
                        if normalize(&pool[0].class, called.tids) != expected[0] {
                            out.mismatch("reopened database answers differently");
                        }
                    }
                    Err(e) => out.fail(&format!("query on the reopened database failed: {e}")),
                }
            }
            Err(e) => out.fail(&format!("reopen failed: {e}")),
        }
        if args.trace {
            let bytes = std::fs::read(&image).expect("image readable");
            let (_, secs) = tr.span("persist.restore", || PCubeDb::load_from_bytes(&bytes));
            restore_ms.push(secs * 1e3);
        }
    }

    let m = &mut out.metrics;
    if args.trace {
        led.metrics(m);
        m.set("index.insert_ms", mean(&insert_ms), "ms");
        m.set("index.delete_ms", mean(&delete_ms), "ms");
        m.set("persist.restore_ms", median(&restore_ms), "ms");
        crate::trace_summary(m, &tr, led.self_time_rows(), &pairs);
    } else {
        m.set("setup_s", median(&setup_s), "s");
        m.set("query_per_s", ratio(queries, query_s), "1/s");
        m.set("query_p50_ms", percentile(&lat_ms, 50.0), "ms");
        m.set("query_p99_ms", percentile(&lat_ms, 99.0), "ms");
        m.set("blocks_per_query", ratio(reads as f64, queries), "blocks");
        m.set(
            "commit_per_s",
            ratio(commit_ms.len() as f64, commit_ms.iter().sum::<f64>() / 1e3),
            "1/s",
        );
        m.set("commit_p50_ms", percentile(&commit_ms, 50.0), "ms");
        m.set("commit_p99_ms", percentile(&commit_ms, 99.0), "ms");
        m.set("reopen_s", median(&reopen_s), "s");
        m.set(
            "store_bytes_per_row",
            image_bytes / rows.len() as f64,
            "bytes",
        );
    }
    eprintln!("ms of measured queries by class, predicates and EXPLAIN (p50, p99, max):");
    for ((class, preds, explain), ms) in &by_shape {
        let tag = if *explain { " explain" } else { "" };
        eprintln!(
            "  {class:<9} {preds} pred{tag:<8} {:>9.3} {:>9.3} {:>9.3}  (n={})",
            median(ms),
            percentile(ms, 99.0),
            percentile(ms, 100.0),
            ms.len()
        );
    }
    eprintln!(
        "{} queries ({:.1} s inside calls), {} write transactions, {} reopens",
        lat_ms.len(),
        query_s,
        commit_ms.len(),
        reopen_s.len()
    );
    out.tracer = Some(tr);
    out
}

/// One set-up: builds the database from the rows and saves its image to
/// `image`; returns it with the wall-clock seconds both took.
fn set_up(rows: &[Row], image: &Path) -> (PCubeDb, f64) {
    let started = Instant::now();
    let db = PCubeDb::build(gen::relation(rows), &PCubeConfig::default());
    db.save(image).expect("save image");
    (db, started.elapsed().as_secs_f64())
}

/// Ids of every tuple the R-tree holds, ascending.
pub fn live_tids(db: &PCubeDb) -> Vec<u64> {
    let mut tids = Vec::with_capacity(db.relation().len());
    db.rtree().for_each_tuple(|tid, _, _| tids.push(tid));
    tids.sort_unstable();
    tids
}
