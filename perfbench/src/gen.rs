//! Seeded input generation: rows and the query pools of each workload.
//!
//! The benchmark owns its generator (SplitMix64), so a change to the
//! library's own data crate never changes the benchmark's inputs. The
//! program under test only ever sees the generated rows, statements and
//! operations.

use ::pcube::cube::{Relation, Schema};

/// Boolean dimensions (`A0..A2`) and their cardinality: the paper's default.
pub const N_BOOL: usize = 3;
pub const CARDINALITY: u64 = 100;
/// Preference dimensions (`N0..N2`).
pub const N_PREF: usize = 3;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed, so adding draws to one
    /// stream never shifts another.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in stream.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut r = Rng(seed ^ h);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A value with two decimals in `[lo, hi]`, so the SQL text and the
    /// oracle hold the very same `f64`.
    pub fn decimal(&mut self, lo: u32, hi: u32) -> f64 {
        let cents = lo + self.below((hi - lo + 1) as u64) as u32;
        format!("{}.{:02}", cents / 100, cents % 100)
            .parse()
            .expect("a two-decimal literal parses")
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// One generated tuple.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row {
    pub codes: [u32; N_BOOL],
    pub coords: [f64; N_PREF],
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Each coordinate independently uniform (the paper's default).
    Uniform,
    /// Coordinates near the plane `Σx = d/2` (Börzsönyi et al.): large
    /// skylines.
    AntiCorrelated,
}

pub fn row(rng: &mut Rng, shape: Shape) -> Row {
    let mut codes = [0u32; N_BOOL];
    for c in codes.iter_mut() {
        *c = rng.below(CARDINALITY) as u32;
    }
    let mut coords = [0f64; N_PREF];
    match shape {
        Shape::Uniform => {
            for x in coords.iter_mut() {
                *x = rng.f64();
            }
        }
        Shape::AntiCorrelated => {
            let d = N_PREF as f64;
            let level = ((rng.f64() + rng.f64() + rng.f64()) / 3.0 - 0.5) * 0.25 + 0.5;
            let total = level * d;
            let mut w = [0f64; N_PREF];
            for x in w.iter_mut() {
                *x = -(1.0 - rng.f64()).ln();
            }
            let sum: f64 = w.iter().sum();
            for (x, wi) in coords.iter_mut().zip(w) {
                *x = (wi / sum * total).min(1.0 - f64::EPSILON);
            }
        }
    }
    Row { codes, coords }
}

pub fn rows(rng: &mut Rng, n: usize, shape: Shape) -> Vec<Row> {
    (0..n).map(|_| row(rng, shape)).collect()
}

/// The relation the program is built from: `A0..A2` as raw codes (no
/// dictionary, so SQL literals bind as codes), `N0..N2` as preferences.
pub fn relation(rows: &[Row]) -> Relation {
    let mut rel = Relation::new(Schema::new(&["A0", "A1", "A2"], &["N0", "N1", "N2"]));
    for r in rows {
        rel.push_coded(&r.codes, &r.coords);
    }
    rel
}

/// Up to `n` equality predicates on distinct boolean dimensions, with the
/// values of one existing row, so the selection is never empty.
pub fn predicates(rng: &mut Rng, rows: &[Row], n: usize) -> Vec<(usize, u32)> {
    let anchor = rows[rng.below(rows.len() as u64) as usize];
    let mut dims: Vec<usize> = (0..N_BOOL).collect();
    rng.shuffle(&mut dims);
    let mut preds: Vec<(usize, u32)> = dims[..n].iter().map(|&d| (d, anchor.codes[d])).collect();
    preds.sort_unstable();
    preds
}

/// `k` distinct preference dimensions in random order.
pub fn pref_dims(rng: &mut Rng, k: usize) -> Vec<usize> {
    let mut dims: Vec<usize> = (0..N_PREF).collect();
    rng.shuffle(&mut dims);
    dims.truncate(k);
    dims
}
