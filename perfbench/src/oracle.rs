//! Brute-force answers for every query class, written from the classes'
//! definitions and independent of the library's own reference code.
//!
//! The skyline family uses sort-first filtering: candidates are visited in
//! an order in which every dominator comes before what it dominates, so a
//! candidate belongs to the answer exactly when no earlier answer point
//! dominates it (dominance is transitive). The sort keys below are chosen
//! so that this holds under floating-point sums as well.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use crate::gen::{Row, N_PREF};
use crate::query::{normalize, score, Class, Query};

/// `(tuple id, preference coordinates)` of one qualifying tuple.
pub type Cand = (u64, [f64; N_PREF]);

/// The live tuples of `rows` that satisfy every predicate. `live` is
/// `None` when every row is live.
pub fn candidates(rows: &[Row], live: Option<&[bool]>, preds: &[(usize, u32)]) -> Vec<Cand> {
    rows.iter()
        .enumerate()
        .filter(|(tid, r)| {
            live.is_none_or(|l| l[*tid]) && preds.iter().all(|&(d, v)| r.codes[d] == v)
        })
        .map(|(tid, r)| (tid as u64, r.coords))
        .collect()
}

/// The expected answer of `q` over its qualifying tuples, in comparison
/// form.
pub fn answer(q: &Query, cands: &[Cand]) -> Vec<u64> {
    let tids = match &q.class {
        Class::TopK { k, terms } => {
            // The k best (score, tid) pairs, kept in a max-heap of size k.
            let mut best: BinaryHeap<Scored> = BinaryHeap::with_capacity(k + 1);
            for (tid, c) in cands {
                best.push(Scored(score(terms, c), *tid));
                if best.len() > *k {
                    best.pop();
                }
            }
            best.into_sorted_vec().into_iter().map(|s| s.1).collect()
        }
        Class::Skyline { dims } => skyline(cands, dims),
        Class::PSkyline { dims, edges } => pskyline(cands, dims, edges),
        Class::Subspace { dims } => subspace(cands, dims),
        Class::Dynamic { point, dims } => {
            // Block-nested-loop skyline of the distances to the point: the
            // window only ever holds mutually non-dominated points.
            let mut window: Vec<Cand> = Vec::new();
            for (tid, c) in cands {
                let mut t = [0.0; N_PREF];
                for d in 0..N_PREF {
                    t[d] = (c[d] - point[d]).abs();
                }
                if !window.iter().any(|w| dominates(&w.1, &t, dims)) {
                    window.retain(|w| !dominates(&t, &w.1, dims));
                    window.push((*tid, t));
                }
            }
            window.iter().map(|w| w.0).collect()
        }
        Class::Hull { dims } => hull(cands, *dims),
    };
    normalize(&q.class, tids)
}

/// A top-k entry ordered by (score, tid), so the heap's maximum is the
/// current k-th best.
struct Scored(f64, u64);

impl PartialEq for Scored {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for Scored {}
impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scored {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

/// `a` dominates `b` on `dims`: no worse anywhere, strictly better somewhere.
fn dominates(a: &[f64], b: &[f64], dims: &[usize]) -> bool {
    dims.iter().all(|&d| a[d] <= b[d]) && dims.iter().any(|&d| a[d] < b[d])
}

fn lex(a: &[f64], b: &[f64], dims: &[usize]) -> Ordering {
    dims.iter()
        .map(|&d| a[d].total_cmp(&b[d]))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// Pareto skyline over `dims`. Visit order: coordinate sum, then the
/// coordinates lexicographically. A dominator is no worse on every
/// dimension, so its (same-order) sum is no larger and, on a tie, it is
/// lexicographically smaller.
pub fn skyline(cands: &[Cand], dims: &[usize]) -> Vec<u64> {
    let sum = |c: &[f64]| dims.iter().map(|&d| c[d]).sum::<f64>();
    let mut order: Vec<(f64, &Cand)> = cands.iter().map(|c| (sum(&c.1), c)).collect();
    order.sort_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then(lex(&a.1 .1, &b.1 .1, dims))
            .then(a.1 .0.cmp(&b.1 .0))
    });
    let mut window: Vec<&Cand> = Vec::new();
    for (_, c) in order {
        if !window.iter().any(|w| dominates(&w.1, &c.1, dims)) {
            window.push(c);
        }
    }
    window.iter().map(|c| c.0).collect()
}

/// Prioritized skyline. `(a, b)` in `edges` gives dimension `a` priority
/// over `b`; the relation is the transitive closure. `x` Γ-dominates `y`
/// when `x` is better somewhere and every dimension where `x` is worse has
/// a dimension with priority over it on which `x` is better.
pub fn pskyline(cands: &[Cand], dims: &[usize], edges: &[(usize, usize)]) -> Vec<u64> {
    let n = dims.len();
    let pos = |d: usize| {
        dims.iter()
            .position(|&x| x == d)
            .expect("edge on a listed dimension")
    };
    // over[i][j]: dims[i] has priority over dims[j] (closed transitively).
    let mut over = vec![vec![false; n]; n];
    for &(a, b) in edges {
        over[pos(a)][pos(b)] = true;
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                if over[i][k] && over[k][j] {
                    over[i][j] = true;
                }
            }
        }
    }
    assert!(
        (0..n).all(|i| !over[i][i]),
        "priority edges must not form a cycle"
    );
    let dom = |x: &[f64], y: &[f64]| {
        let better: Vec<bool> = dims.iter().map(|&d| x[d] < y[d]).collect();
        better.iter().any(|&b| b)
            && (0..n).all(|i| x[dims[i]] <= y[dims[i]] || (0..n).any(|j| over[j][i] && better[j]))
    };
    // Layer 0 holds the dimensions nothing has priority over; layer L the
    // ones whose superiors all sit in layers below L. A dominator is no
    // worse on layer 0 and, where it ties on every earlier layer, no worse
    // on the next, so it precedes under (layer sums, then coordinates in
    // layer order).
    let mut layer = vec![0usize; n];
    for _ in 0..n {
        for i in 0..n {
            for j in 0..n {
                if over[j][i] {
                    layer[i] = layer[i].max(layer[j] + 1);
                }
            }
        }
    }
    let depth = layer.iter().max().map_or(0, |m| m + 1);
    let mut by_layer: Vec<usize> = (0..n).collect();
    by_layer.sort_by_key(|&i| (layer[i], i));
    let ordered_dims: Vec<usize> = by_layer.iter().map(|&i| dims[i]).collect();
    let key = |c: &[f64]| -> Vec<f64> {
        (0..depth)
            .map(|l| {
                (0..n)
                    .filter(|&i| layer[i] == l)
                    .map(|i| c[dims[i]])
                    .sum::<f64>()
            })
            .collect()
    };
    let mut order: Vec<(Vec<f64>, &Cand)> = cands.iter().map(|c| (key(&c.1), c)).collect();
    order.sort_by(|a, b| {
        a.0.iter()
            .zip(&b.0)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
            .then(lex(&a.1 .1, &b.1 .1, &ordered_dims))
            .then(a.1 .0.cmp(&b.1 .0))
    });
    let mut window: Vec<&Cand> = Vec::new();
    for (_, c) in order {
        if !window.iter().any(|w| dom(&w.1, &c.1)) {
            window.push(c);
        }
    }
    window.iter().map(|c| c.0).collect()
}

/// Skyline of the projection onto `dims`, distinct values: tuples with the
/// same projection collapse to the one with the smallest id.
pub fn subspace(cands: &[Cand], dims: &[usize]) -> Vec<u64> {
    let mut sorted: Vec<&Cand> = cands.iter().collect();
    sorted.sort_by_key(|c| c.0);
    let mut seen: HashSet<Vec<u64>> = HashSet::new();
    let distinct: Vec<Cand> = sorted
        .into_iter()
        .filter(|c| seen.insert(dims.iter().map(|&d| c.1[d].to_bits()).collect()))
        .copied()
        .collect();
    skyline(&distinct, dims)
}

/// Vertices of the 2-D convex hull of the projection onto `dims` (Andrew's
/// monotone chain; collinear points are not vertices; equal points
/// collapse to the smallest id).
pub fn hull(cands: &[Cand], dims: (usize, usize)) -> Vec<u64> {
    let mut pts: Vec<(u64, f64, f64)> = cands
        .iter()
        .map(|(tid, c)| (*tid, c[dims.0], c[dims.1]))
        .collect();
    pts.sort_by(|a, b| {
        a.1.total_cmp(&b.1)
            .then(a.2.total_cmp(&b.2))
            .then(a.0.cmp(&b.0))
    });
    pts.dedup_by(|a, b| a.1 == b.1 && a.2 == b.2);
    if pts.len() < 3 {
        return pts.iter().map(|p| p.0).collect();
    }
    let cross = |o: &(u64, f64, f64), a: &(u64, f64, f64), b: &(u64, f64, f64)| {
        (a.1 - o.1) * (b.2 - o.2) - (a.2 - o.2) * (b.1 - o.1)
    };
    let chain = |it: &mut dyn Iterator<Item = &(u64, f64, f64)>| {
        let mut half: Vec<(u64, f64, f64)> = Vec::new();
        for p in it {
            while half.len() >= 2 && cross(&half[half.len() - 2], &half[half.len() - 1], p) <= 1e-12
            {
                half.pop();
            }
            half.push(*p);
        }
        half.pop();
        half
    };
    let mut out = chain(&mut pts.iter());
    out.extend(chain(&mut pts.iter().rev()));
    out.iter().map(|p| p.0).collect()
}
