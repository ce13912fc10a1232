//! Per-layer accounting of the query path, filled from the spans around
//! each call and from the counters the library returns (`QueryStats`,
//! `IoStats` by category), and turned into the traced run's metrics.

use std::collections::BTreeMap;

use ::pcube::core::{EngineKind, QueryStats};
use ::pcube::storage::{IoCategory, IoSnapshot};

use crate::query::CLASS_NAMES;
use crate::report::{median, ratio, Metrics};

#[derive(Default)]
pub struct QueryLedger {
    pub queries: u64,
    /// Seconds inside the operation's call (`sql::execute` or `PCubeDb::run`).
    pub call_s: f64,
    pub reads: [u64; 5],
    pub nodes: u64,
    pub heap_peak: u64,
    pub partials: u64,
    pub rows: u64,
    /// Engine time as the engine reports it, and its stage split.
    pub engine_s: f64,
    pub pin_s: f64,
    pub page_read_s: f64,
    pub score_s: f64,
    pub merge_s: f64,
    /// SQL and planner calls, timed one by one beside the statement.
    pub statements: u64,
    pub parse_s: f64,
    pub explains: u64,
    pub catalog_s: f64,
    pub index_builds: u64,
    pub index_build_s: f64,
    pub choose_s: f64,
    pub chose: [u64; 4],
    pub est_blocks: f64,
    pub actual_blocks: f64,
    pub assembles: u64,
    pub assemble_s: f64,
    pub class_ms: BTreeMap<&'static str, Vec<f64>>,
}

pub const CATEGORIES: [IoCategory; 5] = [
    IoCategory::RtreeBlock,
    IoCategory::SignaturePage,
    IoCategory::BptreePage,
    IoCategory::TupleRandomAccess,
    IoCategory::HeapScan,
];

pub fn total_reads(io: &IoSnapshot) -> u64 {
    CATEGORIES.iter().map(|&c| io.reads(c)).sum()
}

impl QueryLedger {
    /// Records one completed query: `io` is the read delta around the call.
    pub fn record(
        &mut self,
        class: &'static str,
        call_s: f64,
        io: &IoSnapshot,
        stats: &QueryStats,
        rows: usize,
    ) {
        self.queries += 1;
        self.call_s += call_s;
        for (slot, &c) in self.reads.iter_mut().zip(CATEGORIES.iter()) {
            *slot += io.reads(c);
        }
        self.nodes += stats.nodes_expanded;
        self.heap_peak += stats.peak_heap as u64;
        self.partials += stats.partials_loaded;
        self.rows += rows as u64;
        self.engine_s += stats.cpu_seconds;
        self.pin_s += stats.stages.pin_seconds;
        self.page_read_s += stats.stages.page_read_seconds;
        self.score_s += stats.stages.score_seconds;
        self.merge_s += stats.stages.merge_seconds;
        if let Some(plan) = &stats.plan {
            let slot = match plan.chosen {
                EngineKind::PCube => 0,
                EngineKind::BooleanFirst => 1,
                EngineKind::DominationFirst => 2,
                EngineKind::IndexMerge => 3,
            };
            self.chose[slot] += 1;
            self.est_blocks += plan.chosen_estimate().blocks();
            self.actual_blocks += stats.io.total_reads() as f64;
        }
        self.class_ms.entry(class).or_default().push(call_s * 1e3);
    }

    /// The SQL layer's own time: the statement minus the parse and plan
    /// calls timed beside it and minus the engine's reported time.
    pub fn sql_self_s(&self) -> f64 {
        if self.statements == 0 {
            0.0
        } else {
            self.call_s
                - self.parse_s
                - self.catalog_s
                - self.index_build_s
                - self.choose_s
                - self.engine_s
        }
    }

    /// Engine time outside the four reported stages, plus (for direct
    /// calls) facade time outside the engine's own clock.
    pub fn unattributed_s(&self) -> f64 {
        let stages = self.pin_s + self.page_read_s + self.score_s + self.merge_s;
        if self.statements == 0 {
            self.call_s - stages
        } else {
            self.engine_s - stages
        }
    }

    /// Fills the query-path per-layer metrics. Plan-choice counts are over
    /// the traced queries of the run.
    pub fn metrics(&self, m: &mut Metrics) {
        let q = self.queries as f64;
        let per_q = |v: f64| ratio(v, q);
        let st = self.statements as f64;
        let ex = self.explains as f64;
        m.set("sql.parse_us", ratio(self.parse_s, st) * 1e6, "us");
        m.set("sql.exec_self_ms", ratio(self.sql_self_s(), st) * 1e3, "ms");
        m.set("plan.catalog_ms", ratio(self.catalog_s, ex) * 1e3, "ms");
        m.set(
            "plan.index_build_ms",
            ratio(self.index_build_s, self.index_builds as f64) * 1e3,
            "ms",
        );
        m.set("plan.choose_us", ratio(self.choose_s, ex) * 1e6, "us");
        m.set("plan.chose_pcube", self.chose[0] as f64, "count");
        m.set("plan.chose_boolean_first", self.chose[1] as f64, "count");
        m.set("plan.chose_domination_first", self.chose[2] as f64, "count");
        m.set("plan.chose_index_merge", self.chose[3] as f64, "count");
        m.set(
            "plan.est_over_actual",
            ratio(self.est_blocks, self.actual_blocks),
            "ratio",
        );
        m.set(
            "store.assemble_us",
            ratio(self.assemble_s, self.assembles as f64) * 1e6,
            "us",
        );
        m.set(
            "store.sig_pages_per_query",
            per_q(self.reads[1] as f64),
            "pages",
        );
        m.set(
            "store.dir_pages_per_query",
            per_q(self.reads[2] as f64),
            "pages",
        );
        m.set(
            "store.partials_per_query",
            per_q(self.partials as f64),
            "count",
        );
        m.set(
            "rtree.blocks_per_query",
            per_q(self.reads[0] as f64),
            "blocks",
        );
        m.set(
            "rtree.nodes_expanded_per_query",
            per_q(self.nodes as f64),
            "count",
        );
        m.set(
            "storage.page_read_ms_per_query",
            per_q(self.page_read_s) * 1e3,
            "ms",
        );
        m.set(
            "storage.tuple_reads_per_query",
            per_q(self.reads[3] as f64),
            "count",
        );
        m.set("kernel.pin_ms_per_query", per_q(self.pin_s) * 1e3, "ms");
        m.set("kernel.score_ms_per_query", per_q(self.score_s) * 1e3, "ms");
        m.set("kernel.merge_ms_per_query", per_q(self.merge_s) * 1e3, "ms");
        m.set("kernel.heap_peak", per_q(self.heap_peak as f64), "entries");
        m.set("kernel.rows_per_query", per_q(self.rows as f64), "rows");
        for name in CLASS_NAMES {
            let p50 = self.class_ms.get(name).map_or(0.0, |v| median(v));
            m.set(&format!("class.{name}_p50_ms"), p50, "ms");
        }
    }

    /// The per-layer self-time table of one query, in milliseconds:
    /// `(layer, ms per query)`, ending with the unattributed remainder.
    pub fn self_time_rows(&self) -> Vec<(&'static str, f64)> {
        let q = self.queries.max(1) as f64;
        let ms = |s: f64| s / q * 1e3;
        let mut rows = Vec::new();
        if self.statements > 0 {
            rows.push(("sql.parse", ms(self.parse_s)));
            rows.push(("sql.exec_self (bind + decode)", ms(self.sql_self_s())));
            rows.push(("plan.catalog", ms(self.catalog_s)));
            rows.push(("plan.index_build", ms(self.index_build_s)));
            rows.push(("plan.choose", ms(self.choose_s)));
        }
        rows.push(("kernel.pin", ms(self.pin_s)));
        rows.push(("storage.page_read", ms(self.page_read_s)));
        rows.push(("kernel.score", ms(self.score_s)));
        rows.push(("kernel.merge", ms(self.merge_s)));
        rows.push(("unattributed", ms(self.unattributed_s())));
        rows
    }
}
