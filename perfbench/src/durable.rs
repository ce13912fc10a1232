//! `durable_rw`: a file-backed `DurableDb` with an fsync on every commit.
//!
//! A run: create the database (build + first checkpoint on disk), then a
//! fixed schedule of rounds, each 100 small transactions (three inserts and
//! a delete) with eight snapshot queries after every second commit and a
//! checkpoint at the round's end; every second round closes the database
//! and recovers it from its files before that checkpoint, replaying the
//! round. A last round without a checkpoint follows, and the database is
//! closed and recovered three more times, replaying it. Fourteen more
//! set-ups, into a spare directory, follow the first fourteen checkpoints.
//!
//! The schedule has a fixed length for a given `--seconds`, so every run
//! of a seed does the same writes and ends in the same state; its time
//! then measures speed, not how far a run got.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use ::pcube::core::{
    DurabilityOptions, DurableDb, DurableState, MaintenanceOp, PCubeConfig, PCubeDb,
};

use crate::cpu::CpuInstant;
use crate::gen::{self, Rng, Row, Shape};
use crate::ledger::{total_reads, QueryLedger};
use crate::oracle;
use crate::query::{normalize, Class, Query};
use crate::read::live_tids;
use crate::report::{mean, median, percentile, ratio};
use crate::trace::Tracer;
use crate::{Args, Outcome};

const BASE_ROWS: usize = 20_000;
const TXNS_PER_ROUND: usize = 100;
const SUFFIX_TXNS: usize = TXNS_PER_ROUND;
const INSERTS_PER_TXN: usize = 3;
const QUERY_EVERY: usize = 2;
const QUERIES_PER_BATCH: usize = 8;
/// Rounds per requested second; sized so a run takes about `--seconds`.
const ROUNDS_PER_SECOND: f64 = 0.7;
const SETUPS: usize = 15;
const REOPENS: usize = 3;
/// Bytes of one operation's payload as a user writes it: three codes and
/// three coordinates for an insert, the tuple id for a delete.
const INSERT_BYTES: u64 = 3 * 4 + 3 * 8;
const DELETE_BYTES: u64 = 8;

fn options() -> DurabilityOptions {
    DurabilityOptions {
        fsync_every: 1,
        checkpoint_every: 0,
        fsync_delay_us: 0,
    }
}

/// `n` one-predicate queries cycling through the four classes the write
/// path's readers ask. Every snapshot query of a run is a query of its own,
/// so the latency tail is a percentile of many queries' costs, not the cost
/// of the few heaviest queries a small pool happens to hold.
fn query_pool(rng: &mut Rng, rows: &[Row], n: usize) -> Vec<Query> {
    (0..n)
        .map(|i| {
            let class = match i % 4 {
                0 => Class::TopK {
                    k: 10,
                    terms: (0..gen::N_PREF)
                        .map(|dim| crate::query::Term::Linear {
                            dim,
                            w: rng.decimal(10, 100),
                        })
                        .collect(),
                },
                1 => Class::Skyline {
                    dims: vec![0, 1, 2],
                },
                2 => {
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
            Query {
                class,
                preds: gen::predicates(rng, rows, 1),
                explain: false,
            }
        })
        .collect()
}

/// The committed state as the benchmark tracks it: every row ever
/// inserted (tuple id = index) and which are live.
struct Model {
    rows: Vec<Row>,
    live: Vec<bool>,
    live_list: Vec<u64>,
}

impl Model {
    fn live_sorted(&self) -> Vec<u64> {
        let mut v = self.live_list.clone();
        v.sort_unstable();
        v
    }
}

/// The in-memory copies the traced run replays each transaction on, to
/// split a commit into index work, durable-layer work and the file sync.
struct Replicas {
    mem: DurableDb,
    index: PCubeDb,
}

#[derive(Default)]
struct WriteLedger {
    txns: u64,
    file_s: f64,
    mem_s: f64,
    index_s: f64,
    inserts: u64,
    insert_s: f64,
    deletes: u64,
    delete_s: f64,
}

fn dir_bytes(dir: &Path) -> u64 {
    ["checkpoint.pcube", "wal.pcube"]
        .iter()
        .map(|f| std::fs::metadata(dir.join(f)).map_or(0, |m| m.len()))
        .sum()
}

pub fn run(args: &Args, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new();
    let mut rng = Rng::new(args.seed, "rows");
    let base = gen::rows(&mut rng, BASE_ROWS, Shape::Uniform);

    // Set-up: create the database with its first checkpoint on disk. The
    // other set-ups follow the round's checkpoints, so their median samples
    // the host's speed over the whole run rather than over its first
    // seconds.
    let dir = work.join("db");
    let spare_dir = work.join("setup");
    let (mut db, secs) = set_up(&dir, &base);
    let mut setup_s = vec![secs];
    let mut bytes_written = dir_bytes(&dir);
    let mut replicas = args.trace.then(|| Replicas {
        mem: DurableDb::create(gen::relation(&base), &PCubeConfig::default(), options()),
        index: PCubeDb::build(gen::relation(&base), &PCubeConfig::default()),
    });

    let mut model = Model {
        live: vec![true; base.len()],
        live_list: (0..base.len() as u64).collect(),
        rows: base,
    };
    let mut wrng = Rng::new(args.seed, "writes");

    let rounds = ((args.seconds * ROUNDS_PER_SECOND).ceil() as usize).max(1);
    let total_txns = rounds * TXNS_PER_ROUND + SUFFIX_TXNS;
    let pool = query_pool(
        &mut Rng::new(args.seed, "queries"),
        &model.rows,
        total_txns / QUERY_EVERY * QUERIES_PER_BATCH,
    );
    let mut commit_ms = Vec::new();
    let mut query_ms = Vec::new();
    // Each round's commit and snapshot-query latencies, for the round-wise
    // rates and tail.
    let mut round_commit_ms: Vec<Vec<f64>> = vec![Vec::new(); total_txns / TXNS_PER_ROUND + 1];
    let mut round_query_ms = round_commit_ms.clone();
    let mut by_class: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut checkpoint_ms = Vec::new();
    let mut reads = 0u64;
    let mut user_bytes = 0u64;
    let mut qled = QueryLedger::default();
    let mut wled = WriteLedger::default();
    let mut pairs = Vec::new();
    // `(epochs published, ns publishing)`, summed over the instances the
    // restarts create.
    let mut published = (0u64, 0u64);
    let mut reopen_s = Vec::new();
    let mut wal_syncs = 0u64;
    let mut wal_bytes = 0u64;
    let mut next_query = 0usize;
    // Persisted bytes per live row after every checkpoint and at the end.
    let mut stored_per_row = Vec::new();

    for t in 0..total_txns {
        let traced = args.trace && t % 2 == 1;
        tr.set_recording(traced);

        // One transaction: three inserts and a delete of a live tuple.
        let victim_at = wrng.below(model.live_list.len() as u64) as usize;
        let victim = model.live_list[victim_at];
        let mut ops: Vec<MaintenanceOp> = (0..INSERTS_PER_TXN)
            .map(|_| {
                let r = gen::row(&mut wrng, Shape::Uniform);
                MaintenanceOp::Insert {
                    codes: r.codes.to_vec(),
                    coords: r.coords.to_vec(),
                }
            })
            .collect();
        ops.push(MaintenanceOp::Delete { tid: victim });
        tr.next_op();
        out.attempted += 1;
        let before = db.wal_stats();
        let (res, secs) = tr.span("durable.apply", || db.apply(&ops));
        let after = db.wal_stats();
        wal_syncs += after.syncs - before.syncs;
        wal_bytes += after.bytes_synced - before.bytes_synced;
        bytes_written += after.bytes_synced - before.bytes_synced;
        match res {
            Ok(_) => {
                commit_ms.push(secs * 1e3);
                round_commit_ms[t / TXNS_PER_ROUND].push(secs * 1e3);
                for op in &ops {
                    match op {
                        MaintenanceOp::Insert { codes, coords } => {
                            let tid = model.rows.len() as u64;
                            model.rows.push(Row {
                                codes: [codes[0], codes[1], codes[2]],
                                coords: [coords[0], coords[1], coords[2]],
                            });
                            model.live.push(true);
                            model.live_list.push(tid);
                            user_bytes += INSERT_BYTES;
                        }
                        MaintenanceOp::Delete { tid } => {
                            model.live[*tid as usize] = false;
                            user_bytes += DELETE_BYTES;
                        }
                    }
                }
                model.live_list.swap_remove(victim_at);
            }
            Err(e) => out.fail(&format!("commit failed: {e}")),
        }
        if let Some(rep) = replicas.as_mut() {
            replay(&mut tr, rep, &ops, traced, &mut wled, secs);
        }

        // Snapshot queries beside the writes. In a traced transaction each
        // query also runs untraced, first or second in turn, to state the
        // tracing overhead.
        if t % QUERY_EVERY == QUERY_EVERY - 1 {
            for _ in 0..QUERIES_PER_BATCH {
                let q = &pool[next_query % pool.len()];
                next_query += 1;
                let expected = oracle::answer(
                    q,
                    &oracle::candidates(&model.rows, Some(&model.live), &q.preds),
                );
                let passes: &[bool] = match (traced, next_query % 2) {
                    (false, _) => &[false],
                    (true, 0) => &[false, true],
                    (true, _) => &[true, false],
                };
                let mut pair = (0.0, 0.0);
                for &recording in passes {
                    tr.set_recording(recording);
                    tr.next_op();
                    out.attempted += 1;
                    let whole = Instant::now();
                    let op = tr.begin("snapshot.query");
                    // CPU time for the measured queries, wall-clock time
                    // (the clock of the spans and the engine's stages) for
                    // the traced ones.
                    let wall = Instant::now();
                    let cpu = CpuInstant::now();
                    let snap = db.snapshot();
                    let before = snap.db().stats().snapshot();
                    let (tids, stats) = q.run(snap.db());
                    let secs = cpu.elapsed();
                    let wall_s = wall.elapsed().as_secs_f64();
                    let io = snap.db().stats().snapshot().since(&before);
                    drop(snap);
                    if recording {
                        qled.record(q.class.name(), wall_s, &io, &stats, tids.len());
                        qled.assembles += 1;
                        let (_, s) = tr.span("store.assemble", || {
                            drop(db.db().pcube().probe(&q.selection(), true))
                        });
                        qled.assemble_s += s;
                    } else {
                        query_ms.push(secs * 1e3);
                        round_query_ms[t / TXNS_PER_ROUND].push(secs * 1e3);
                        by_class.entry(q.class.name()).or_default().push(secs * 1e3);
                        reads += total_reads(&io);
                    }
                    tr.end(op);
                    let whole_s = whole.elapsed().as_secs_f64();
                    if recording {
                        pair.0 = whole_s;
                    } else {
                        pair.1 = whole_s;
                    }
                    if normalize(&q.class, tids) != expected {
                        out.mismatch(&format!(
                            "snapshot {} answer differs from the model",
                            q.class.name()
                        ));
                    }
                }
                if traced {
                    pairs.push(pair);
                }
            }
            tr.set_recording(traced);
        }

        // Every second round ends in a restart: close, then recover from
        // the files, replaying the round's transactions. Recovery cost
        // depends on which transactions it replays, so a run samples
        // several rounds.
        let round_end = t < rounds * TXNS_PER_ROUND && (t + 1) % TXNS_PER_ROUND == 0;
        if round_end && (t / TXNS_PER_ROUND) % 2 == 1 {
            tr.set_recording(args.trace);
            let (n, ns) = db.publish_stats();
            published = (published.0 + n, published.1 + ns);
            drop(db);
            db = recover(&dir, &mut tr, &mut out, &model, &pool, &mut reopen_s)
                .expect("a cleanly closed database recovers");
        }

        // Checkpoint at the end of every round (none in the suffix).
        if round_end {
            tr.set_recording(args.trace);
            tr.next_op();
            out.attempted += 1;
            let (res, secs) = tr.span("durable.checkpoint", || db.checkpoint());
            match res {
                Ok(_) => checkpoint_ms.push(secs * 1e3),
                Err(e) => out.fail(&format!("checkpoint failed: {e}")),
            }
            let on_disk = dir_bytes(&dir);
            bytes_written += on_disk;
            stored_per_row.push(on_disk as f64 / model.live_list.len() as f64);
            if let Some(rep) = replicas.as_mut() {
                rep.mem.checkpoint().expect("in-memory checkpoint");
            }
            if setup_s.len() < SETUPS {
                setup_s.push(spare_set_up(&spare_dir, &model.rows[..BASE_ROWS]));
            }
        }
    }
    while setup_s.len() < SETUPS {
        setup_s.push(spare_set_up(&spare_dir, &model.rows[..BASE_ROWS]));
    }
    eprintln!("set-up seconds: {setup_s:.3?}");
    tr.set_recording(args.trace);
    let (n, ns) = db.publish_stats();
    published = (published.0 + n, published.1 + ns);
    drop(db);
    drop(replicas);
    stored_per_row.push(dir_bytes(&dir) as f64 / model.live_list.len() as f64);

    // Close and recover three more times, replaying the suffix each time.
    let mut restore_ms = Vec::new();
    let checkpoint_bytes = std::fs::read(dir.join("checkpoint.pcube")).expect("checkpoint file");
    for _ in 0..REOPENS {
        drop(recover(
            &dir,
            &mut tr,
            &mut out,
            &model,
            &pool,
            &mut reopen_s,
        ));
        if args.trace {
            let state = DurableState {
                checkpoint: checkpoint_bytes.clone(),
                wal: Vec::new(),
            };
            let (res, secs) = tr.span("persist.restore", || {
                DurableDb::open_or_recover_from_state(&state, options())
            });
            res.expect("checkpoint restores");
            restore_ms.push(secs * 1e3);
        }
    }

    let m = &mut out.metrics;
    let txns = commit_ms.len() as f64;
    if args.trace {
        qled.metrics(m);
        let per_txn = |s: f64| ratio(s, wled.txns as f64) * 1e3;
        let publish_us = ratio(published.1 as f64, published.0 as f64) / 1e3;
        m.set("durable.apply_ms", per_txn(wled.mem_s - wled.index_s), "ms");
        m.set(
            "index.insert_ms",
            ratio(wled.insert_s, wled.inserts as f64) * 1e3,
            "ms",
        );
        m.set(
            "index.delete_ms",
            ratio(wled.delete_s, wled.deletes as f64) * 1e3,
            "ms",
        );
        m.set("wal.bytes_per_txn", ratio(wal_bytes as f64, txns), "bytes");
        m.set("wal.syncs_per_txn", ratio(wal_syncs as f64, txns), "count");
        m.set("wal.sync_ms", per_txn(wled.file_s - wled.mem_s), "ms");
        m.set("durable.publish_us", publish_us, "us");
        m.set("durable.checkpoint_ms", mean(&checkpoint_ms), "ms");
        m.set(
            "durable.replay_ms_per_txn",
            (median(&reopen_s) * 1e3 - median(&restore_ms)) / SUFFIX_TXNS as f64,
            "ms",
        );
        m.set("persist.restore_ms", median(&restore_ms), "ms");
        m.set(
            "durable.bytes_written_per_user_byte",
            ratio(bytes_written as f64, user_bytes as f64),
            "ratio",
        );
        let mut rows = qled.self_time_rows();
        let ms = |s: f64| ratio(s, wled.txns as f64) * 1e3;
        rows.push(("commit: index insert/delete", ms(wled.index_s)));
        rows.push(("commit: durable.publish", publish_us / 1e3));
        rows.push((
            "commit: durable (validate, WAL encode, witnesses)",
            ms(wled.mem_s - wled.index_s) - publish_us / 1e3,
        ));
        rows.push((
            "commit: wal.sync (file write + fsync)",
            ms(wled.file_s - wled.mem_s),
        ));
        crate::trace_summary(m, &tr, rows, &pairs);
    } else {
        // A burst of noise (an fsync stall, the host's neighbours) slows
        // one stretch of the run, so the rates and the query tail are taken
        // per round (100 commits, 400 queries) and the median over rounds
        // reported.
        let per_round = |rounds: &[Vec<f64>], f: &dyn Fn(&[f64]) -> f64| -> Vec<f64> {
            rounds
                .iter()
                .filter(|v| !v.is_empty())
                .map(|v| f(v))
                .collect()
        };
        let per_s = |ms: &[f64]| ratio(ms.len() as f64, ms.iter().sum::<f64>() / 1e3);
        let round_p99 = per_round(&round_query_ms, &|v| percentile(v, 99.0));
        m.set("setup_s", median(&setup_s), "s");
        m.set(
            "query_per_s",
            median(&per_round(&round_query_ms, &per_s)),
            "1/s",
        );
        m.set("query_p50_ms", percentile(&query_ms, 50.0), "ms");
        m.set("query_p99_ms", median(&round_p99), "ms");
        eprintln!("p99 ms of the snapshot queries per round: {round_p99:.3?}");
        m.set(
            "blocks_per_query",
            ratio(reads as f64, query_ms.len() as f64),
            "blocks",
        );
        m.set(
            "commit_per_s",
            median(&per_round(&round_commit_ms, &per_s)),
            "1/s",
        );
        m.set("commit_p50_ms", percentile(&commit_ms, 50.0), "ms");
        m.set("commit_p99_ms", percentile(&commit_ms, 99.0), "ms");
        m.set("reopen_s", median(&reopen_s), "s");
        m.set("store_bytes_per_row", mean(&stored_per_row), "bytes");
    }
    eprintln!("ms of measured snapshot queries by class (p50, p99, max):");
    for (class, ms) in &by_class {
        eprintln!(
            "  {class:<9} {:>9.3} {:>9.3} {:>9.3}  (n={})",
            median(ms),
            percentile(ms, 99.0),
            percentile(ms, 100.0),
            ms.len()
        );
    }
    eprintln!(
        "{} commits ({} WAL syncs), {} snapshot queries, {} checkpoints, {} reopens",
        commit_ms.len(),
        wal_syncs,
        query_ms.len(),
        checkpoint_ms.len(),
        reopen_s.len()
    );
    out.tracer = Some(tr);
    out
}

/// One set-up: creates the durable database in `dir` from the rows, with
/// its first checkpoint on disk; returns it with the wall-clock seconds.
fn set_up(dir: &Path, rows: &[Row]) -> (DurableDb, f64) {
    let started = Instant::now();
    let db = DurableDb::create_at(dir, gen::relation(rows), &PCubeConfig::default(), options())
        .expect("create durable database");
    (db, started.elapsed().as_secs_f64())
}

/// A set-up into a spare directory, removed again; returns its seconds.
fn spare_set_up(dir: &Path, rows: &[Row]) -> f64 {
    let secs = set_up(dir, rows).1;
    std::fs::remove_dir_all(dir).expect("remove the spare set-up");
    secs
}

/// Recovers the database from its files, timed as one reopen, and checks
/// that recovery replayed one round of transactions and that the database
/// holds exactly the model's live tuples and answers.
fn recover(
    dir: &Path,
    tr: &mut Tracer,
    out: &mut Outcome,
    model: &Model,
    pool: &[Query],
    reopen_s: &mut Vec<f64>,
) -> Option<DurableDb> {
    tr.next_op();
    out.attempted += 1;
    let (res, secs) = tr.span("durable.open_or_recover", || {
        DurableDb::open_or_recover(dir, options())
    });
    reopen_s.push(secs);
    let (db, report) = match res {
        Ok(recovered) => recovered,
        Err(e) => {
            out.fail(&format!("recovery failed: {e}"));
            return None;
        }
    };
    if report.txns_replayed != SUFFIX_TXNS as u64 {
        out.mismatch(&format!(
            "recovery replayed {} transactions, expected {SUFFIX_TXNS}",
            report.txns_replayed
        ));
    }
    if live_tids(db.db()) != model.live_sorted() {
        out.mismatch("recovered tuples differ from the committed model");
    }
    for q in pool.iter().take(QUERIES_PER_BATCH) {
        let (tids, _) = q.run(db.db());
        let cands = oracle::candidates(&model.rows, Some(&model.live), &q.preds);
        if normalize(&q.class, tids) != oracle::answer(q, &cands) {
            out.mismatch(&format!(
                "recovered {} answer differs from the model",
                q.class.name()
            ));
        }
    }
    Some(db)
}

/// Replays one transaction on the in-memory copies, timing the in-memory
/// durable commit and each index operation.
fn replay(
    tr: &mut Tracer,
    rep: &mut Replicas,
    ops: &[MaintenanceOp],
    traced: bool,
    led: &mut WriteLedger,
    file_s: f64,
) {
    let (res, mem_s) = tr.span("durable.apply_in_memory", || rep.mem.apply(ops));
    res.expect("in-memory replica accepts what the file-backed database accepted");
    let (mut ins_s, mut del_s, mut ins, mut del) = (0.0, 0.0, 0u64, 0u64);
    for op in ops {
        match op {
            MaintenanceOp::Insert { codes, coords } => {
                let (_, s) = tr.span("index.insert", || {
                    rep.index.insert_coded_tracked(codes, coords)
                });
                ins_s += s;
                ins += 1;
            }
            MaintenanceOp::Delete { tid } => {
                let (hit, s) = tr.span("index.delete", || rep.index.delete_tracked(*tid));
                assert!(hit.is_some(), "replica deletes a live tuple");
                del_s += s;
                del += 1;
            }
        }
    }
    if traced {
        led.txns += 1;
        led.file_s += file_s;
        led.mem_s += mem_s;
        led.index_s += ins_s + del_s;
        led.inserts += ins;
        led.insert_s += ins_s;
        led.deletes += del;
        led.delete_s += del_s;
    }
}
