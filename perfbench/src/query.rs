//! Query specifications: the benchmark's own description of one preference
//! query, rendered either as SQL text or as a query-class value for
//! `PCubeDb::run`.

use ::pcube::core::{
    DynamicSkylineClass, HullClass, PCubeDb, PSkylineClass, PriorityGraph, QueryStats,
    RankingFunction, SkylineClass, SubspaceSkylineClass, TopKClass,
};
use ::pcube::cube::{Predicate, Selection};
use ::pcube::rtree::Mbr;

use crate::gen::N_PREF;

/// One term of a ranking function (smaller scores rank first).
#[derive(Clone, Debug)]
pub enum Term {
    /// `w * N{dim}`
    Linear { dim: usize, w: f64 },
    /// `w * (N{dim} - target)^2`
    Sq { dim: usize, w: f64, target: f64 },
}

#[derive(Clone, Debug)]
pub enum Class {
    TopK {
        k: usize,
        terms: Vec<Term>,
    },
    Skyline {
        dims: Vec<usize>,
    },
    /// Prioritized skyline: `(a, b)` means `a` has priority over `b`.
    PSkyline {
        dims: Vec<usize>,
        edges: Vec<(usize, usize)>,
    },
    Subspace {
        dims: Vec<usize>,
    },
    Dynamic {
        point: [f64; N_PREF],
        dims: Vec<usize>,
    },
    Hull {
        dims: (usize, usize),
    },
}

/// The class names reported by the traced run, in report order.
pub const CLASS_NAMES: [&str; 6] = ["topk", "skyline", "dynamic", "hull", "pskyline", "subspace"];

impl Class {
    pub fn name(&self) -> &'static str {
        match self {
            Class::TopK { .. } => "topk",
            Class::Skyline { .. } => "skyline",
            Class::Dynamic { .. } => "dynamic",
            Class::Hull { .. } => "hull",
            Class::PSkyline { .. } => "pskyline",
            Class::Subspace { .. } => "subspace",
        }
    }

    /// `true` when the answer is an ordered list (top-k); the skyline
    /// family and the hull are compared as sets of tuple ids.
    pub fn ordered(&self) -> bool {
        matches!(self, Class::TopK { .. })
    }
}

#[derive(Clone, Debug)]
pub struct Query {
    pub class: Class,
    /// `(boolean dimension, code)` equality predicates.
    pub preds: Vec<(usize, u32)>,
    /// Route the SQL statement through the cost-based planner.
    pub explain: bool,
}

/// The benchmark's ranking function, handed to the program the way an
/// application would hand over its own.
pub struct Ranking<'a>(pub &'a [Term]);

impl RankingFunction for Ranking<'_> {
    fn score(&self, point: &[f64]) -> f64 {
        score(self.0, point)
    }

    fn lower_bound(&self, mbr: &Mbr) -> f64 {
        self.0
            .iter()
            .map(|t| match *t {
                Term::Linear { dim, w } => w * if w >= 0.0 { mbr.min[dim] } else { mbr.max[dim] },
                Term::Sq { dim, w, target } => {
                    let c = target.clamp(mbr.min[dim], mbr.max[dim]);
                    w * (c - target) * (c - target)
                }
            })
            .sum()
    }
}

/// The score a ranking assigns to one point.
pub fn score(terms: &[Term], p: &[f64]) -> f64 {
    terms
        .iter()
        .map(|t| match *t {
            Term::Linear { dim, w } => w * p[dim],
            Term::Sq { dim, w, target } => w * (p[dim] - target) * (p[dim] - target),
        })
        .sum()
}

fn dim_list(dims: &[usize]) -> String {
    dims.iter()
        .map(|d| format!("N{d}"))
        .collect::<Vec<_>>()
        .join(", ")
}

impl Query {
    pub fn selection(&self) -> Selection {
        self.preds
            .iter()
            .map(|&(dim, value)| Predicate { dim, value })
            .collect()
    }

    /// The statement in the SQL front end's notation.
    pub fn sql(&self) -> String {
        let mut s = String::from(if self.explain {
            "EXPLAIN SELECT "
        } else {
            "SELECT "
        });
        let filter = if self.preds.is_empty() {
            String::new()
        } else {
            let conj: Vec<String> = self
                .preds
                .iter()
                .map(|(d, v)| format!("A{d} = '{v}'"))
                .collect();
            format!(" WHERE {}", conj.join(" AND "))
        };
        match &self.class {
            Class::TopK { k, terms } => {
                let expr: Vec<String> = terms
                    .iter()
                    .map(|t| match *t {
                        Term::Linear { dim, w } => format!("{w} * N{dim}"),
                        Term::Sq { dim, w, target } => format!("{w} * (N{dim} - {target})^2"),
                    })
                    .collect();
                s += &format!("TOP {k} FROM r{filter} ORDER BY {}", expr.join(" + "));
            }
            Class::Skyline { dims } => {
                s += &format!("SKYLINE FROM r{filter} PREFERENCE BY {}", dim_list(dims));
            }
            Class::PSkyline { dims, edges } => {
                let pri: Vec<String> = edges
                    .iter()
                    .map(|(a, b)| format!("N{a} OVER N{b}"))
                    .collect();
                s += &format!(
                    "SKYLINE FROM r{filter} PREFERENCE BY {} PRIORITIZE {}",
                    dim_list(dims),
                    pri.join(" AND ")
                );
            }
            Class::Subspace { dims } => {
                s += &format!("SKYLINE IN SUBSPACE ({}) FROM r{filter}", dim_list(dims));
            }
            Class::Dynamic { .. } | Class::Hull { .. } => {
                unreachable!("the SQL front end has no syntax for this class")
            }
        }
        s
    }

    /// Runs the query through the generic `PCubeDb::run` with a class
    /// value (no SQL, no planner). Returns the answer's tuple ids in the
    /// class's order and the engine's statistics.
    pub fn run(&self, db: &PCubeDb) -> (Vec<u64>, QueryStats) {
        let sel = self.selection();
        match &self.class {
            Class::TopK { k, terms } => {
                let f = Ranking(terms);
                let out = db.run(&sel, &TopKClass::new(*k, &f));
                (out.rows.iter().map(|r| r.0).collect(), out.stats)
            }
            Class::Skyline { dims } => {
                let out = db.run(&sel, &SkylineClass::new(dims.clone()));
                (out.rows.iter().map(|r| r.0).collect(), out.stats)
            }
            Class::PSkyline { dims, edges } => {
                let graph = PriorityGraph::new(dims.clone(), edges).expect("generated DAG");
                let out = db.run(&sel, &PSkylineClass::new(graph));
                (out.rows.iter().map(|r| r.0).collect(), out.stats)
            }
            Class::Subspace { dims } => {
                let out = db.run(&sel, &SubspaceSkylineClass::new(dims.clone()));
                (out.rows.iter().map(|r| r.0).collect(), out.stats)
            }
            Class::Dynamic { point, dims } => {
                let out = db.run(&sel, &DynamicSkylineClass::new(point, dims.clone()));
                (out.rows.iter().map(|r| r.0).collect(), out.stats)
            }
            Class::Hull { dims } => {
                let out = db.run(&sel, &HullClass::new(*dims));
                (out.rows.iter().map(|r| r.0).collect(), out.stats)
            }
        }
    }
}

/// Puts an answer in comparison form: top-k keeps its rank order, every
/// other class is a set of tuple ids.
pub fn normalize(class: &Class, mut tids: Vec<u64>) -> Vec<u64> {
    if !class.ordered() {
        tids.sort_unstable();
    }
    tids
}
