//! Twice-differentiable scalar functions of a vector argument.
//!
//! The [`Objective`] trait is the interface between a function and the
//! Newton minimizer ([`crate::newton`]): one call yields value, gradient
//! and Hessian in caller-owned buffers, the Hessian as a [`Hessian`] — a
//! symmetric matrix in envelope storage plus a few rank-one terms kept
//! apart, so that a program whose curvature is sparse but for a handful of
//! dense outer products never stores or factors an `n x n` matrix.
//! [`LogSumExp`] — the log-space image of a posynomial, with sparse
//! exponent rows — is what the barrier method ([`crate::barrier`]) and the
//! geometric-programming layer ([`crate::gp`]) are built from;
//! the tests also exercise the minimizer on a quadratic.

use crate::cholesky::Envelope;
use crate::error::{Result, SolverError};

/// A twice-differentiable scalar function `f: R^n -> R`.
///
/// Minimizers call [`value`](Objective::value) during line searches and
/// [`eval`](Objective::eval) once per iterate. `value` may return
/// `f64::INFINITY` to signal that a point is outside the function's domain
/// (used by barrier compositions); `eval` is only invoked at points with
/// finite value. The methods take `&mut self` so an implementation can keep
/// scratch space between calls instead of allocating per call.
pub(crate) trait Objective {
    /// Dimension `n` of the argument vector.
    fn dim(&self) -> usize;

    /// Function value at `x`, or `f64::INFINITY` outside the domain.
    fn value(&mut self, x: &[f64]) -> f64;

    /// A zero Hessian with the sparsity [`eval`](Objective::eval) fills:
    /// the buffer a minimizer allocates once and hands to every `eval`.
    /// Dense unless the implementation knows better.
    fn hessian(&self) -> Hessian {
        Hessian::dense(self.dim())
    }

    /// Value, gradient and Hessian at `x` in one pass (caller guarantees
    /// `value(x)` is finite). Overwrites `grad`; `hess` has the structure
    /// of [`hessian`](Objective::hessian) and arrives all zero, so an
    /// implementation adds its entries. Only the lower triangle exists.
    fn eval(&mut self, x: &[f64], grad: &mut [f64], hess: &mut Hessian) -> f64;
}

/// The Hessian of an [`Objective`] as `H = S + U diag(c) U^T`.
///
/// `S` is symmetric with its lower triangle in envelope storage
/// ([`Envelope`]); `U` has a few sparse columns whose outer products would
/// fill `S` if they were added into it, each with a coefficient `c_j` of
/// either sign. The Newton minimizer factors `S` alone and accounts for
/// the rest through a `k x k` system ([`crate::newton`]). The structure —
/// `S`'s profile, the rows of each column of `U` — is fixed at
/// construction; [`dense`](Hessian::dense) is the full profile and no
/// columns.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Hessian {
    s: Envelope,
    /// Column `j` of `U` has its non-zeros in rows
    /// `u_rows[u_starts[j]..u_starts[j + 1]]`, ascending, and their values
    /// at the same positions of `u_vals`.
    u_starts: Vec<usize>,
    u_rows: Vec<usize>,
    u_vals: Vec<f64>,
    c: Vec<f64>,
}

impl Hessian {
    /// The zero Hessian over `n` variables with every lower-triangle entry
    /// stored.
    pub(crate) fn dense(n: usize) -> Hessian {
        Hessian::new(vec![0; n], std::iter::empty())
    }

    /// The zero Hessian whose `S` has the given profile (see
    /// [`Envelope::zeros`]) and whose `U` has one column per item of
    /// `columns`, with non-zeros in those (ascending) rows.
    pub(crate) fn new<'a>(
        first: Vec<usize>,
        columns: impl IntoIterator<Item = &'a [usize]>,
    ) -> Hessian {
        let mut h = Hessian {
            s: Envelope::zeros(first),
            u_starts: vec![0],
            u_rows: Vec::new(),
            u_vals: Vec::new(),
            c: Vec::new(),
        };
        for rows in columns {
            h.u_rows.extend_from_slice(rows);
            h.u_starts.push(h.u_rows.len());
        }
        h.u_vals = vec![0.0; h.u_rows.len()];
        h.c = vec![0.0; h.u_starts.len() - 1];
        h
    }

    /// Dimension `n` of the argument vector.
    pub(crate) fn dim(&self) -> usize {
        self.s.dim()
    }

    /// Sets every entry of `S`, `U` and `c` to zero.
    pub(crate) fn clear(&mut self) {
        self.s.clear();
        self.u_vals.fill(0.0);
        self.c.fill(0.0);
    }

    /// Adds `v` to entry `(i, j)` of `S`, `i >= j`.
    ///
    /// # Panics
    ///
    /// Panics if the entry lies outside `S`'s profile.
    #[cfg(test)]
    pub(crate) fn add(&mut self, i: usize, j: usize, v: f64) {
        let first = self.s.first(i);
        self.s.row_mut(i)[j - first] += v;
    }

    /// Adds the lower triangle of `w v v^T` to `S`, for the sparse vector
    /// with entry `val(k)` in row `rows[k]` (rows ascending).
    pub(crate) fn add_outer(&mut self, w: f64, rows: &[usize], val: impl Fn(usize) -> f64) {
        for (i, &r) in rows.iter().enumerate() {
            let wv = w * val(i);
            let first = self.s.first(r);
            let row = self.s.row_mut(r);
            for (j, &c) in rows[..=i].iter().enumerate() {
                row[c - first] += wv * val(j);
            }
        }
    }

    /// Sets column `j` of `U` to the entries `val(k)`, `k` counting the
    /// column's rows, and its coefficient to `c`.
    pub(crate) fn set_column(&mut self, j: usize, c: f64, val: impl Fn(usize) -> f64) {
        self.c[j] = c;
        let vals = &mut self.u_vals[self.u_starts[j]..self.u_starts[j + 1]];
        for (k, v) in vals.iter_mut().enumerate() {
            *v = val(k);
        }
    }

    /// The envelope part `S`.
    pub(crate) fn s(&self) -> &Envelope {
        &self.s
    }

    /// Number of columns of `U`.
    pub(crate) fn rank(&self) -> usize {
        self.c.len()
    }

    /// Coefficient, rows and values of column `j` of `U`.
    pub(crate) fn column(&self, j: usize) -> (f64, &[usize], &[f64]) {
        let (lo, hi) = (self.u_starts[j], self.u_starts[j + 1]);
        (self.c[j], &self.u_rows[lo..hi], &self.u_vals[lo..hi])
    }

    /// `c_j u_j . x` for column `j` of `U`: entry `j` of `C U^T x`.
    pub(crate) fn column_dot(&self, j: usize, x: &[f64]) -> f64 {
        let (c, rows, vals) = self.column(j);
        c * rows.iter().zip(vals).map(|(&r, &u)| u * x[r]).sum::<f64>()
    }

    /// The lower triangle of `S + U diag(c) U^T` written out.
    #[cfg(test)]
    pub(crate) fn to_lower(&self) -> Vec<Vec<f64>> {
        let mut h = self.s.to_lower();
        for j in 0..self.rank() {
            let (c, rows, vals) = self.column(j);
            for (a, &i) in rows.iter().enumerate() {
                for (b, &k) in rows[..=a].iter().enumerate() {
                    h[i][k] += c * vals[a] * vals[b];
                }
            }
        }
        h
    }
}

/// Log-sum-exp of affine functions, `f(x) = log sum_k exp(a_k . x + b_k)`,
/// with each row `a_k` stored sparse.
///
/// This is the log-space image of a posynomial and the building block of
/// geometric programming ([`crate::gp`]). It is smooth and convex; with a
/// single term it is the affine function `a . x + b`. The REF mechanisms'
/// constraints touch a handful of the `N * R` variables each (a capacity
/// term one, a sharing-incentive row `R`, an envy row `2R`), so evaluation
/// and the derivative pass cost time in the non-zeros, not in `n` or `n^2`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LogSumExp {
    dim: usize,
    /// Term `k` owns entries `starts[k]..starts[k + 1]` of `cols`/`vals`,
    /// sorted by column with duplicates merged and zeros dropped.
    starts: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
    offsets: Vec<f64>,
    /// Sorted distinct columns over all terms: where the gradient can be
    /// non-zero.
    support: Vec<usize>,
}

impl LogSumExp {
    /// Creates `log sum_k exp(a_k . x + b_k)` over `dim` variables from
    /// `(a_k, b_k)` pairs, each `a_k` a list of `(column, coefficient)`
    /// entries in any order; entries naming the same column add up.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidArgument`] if there are no terms, a
    /// column is out of range, or a coefficient or offset is not finite.
    pub(crate) fn from_terms<'a, I>(dim: usize, terms: I) -> Result<LogSumExp>
    where
        I: IntoIterator<Item = (&'a [(usize, f64)], f64)>,
    {
        let mut f = LogSumExp {
            dim,
            starts: vec![0],
            cols: Vec::new(),
            vals: Vec::new(),
            offsets: Vec::new(),
            support: Vec::new(),
        };
        let mut row: Vec<(usize, f64)> = Vec::new();
        for (entries, offset) in terms {
            if !offset.is_finite() || entries.iter().any(|&(_, v)| !v.is_finite()) {
                return Err(SolverError::InvalidArgument(
                    "log-sum-exp coefficients and offsets must be finite".to_string(),
                ));
            }
            if let Some(&(c, _)) = entries.iter().find(|&&(c, _)| c >= dim) {
                return Err(SolverError::InvalidArgument(format!(
                    "column {c} out of range for {dim} variables"
                )));
            }
            // Sort by column, add entries naming the same column into the
            // first of them, and drop what is (or adds up to) exactly zero.
            row.clear();
            row.extend_from_slice(entries);
            row.sort_by_key(|&(c, _)| c);
            row.dedup_by(|later, first| {
                let same = later.0 == first.0;
                if same {
                    first.1 += later.1;
                }
                same
            });
            row.retain(|&(_, v)| v != 0.0);
            f.cols.extend(row.iter().map(|&(c, _)| c));
            f.vals.extend(row.iter().map(|&(_, v)| v));
            f.starts.push(f.cols.len());
            f.offsets.push(offset);
        }
        if f.offsets.is_empty() {
            return Err(SolverError::InvalidArgument(
                "log-sum-exp needs at least one term".to_string(),
            ));
        }
        f.support = f.cols.clone();
        f.support.sort_unstable();
        f.support.dedup();
        Ok(f)
    }

    /// The affine function `a . x + b` (a one-term log-sum-exp).
    ///
    /// # Errors
    ///
    /// As [`from_terms`](LogSumExp::from_terms).
    #[cfg(test)]
    pub(crate) fn affine(dim: usize, a: &[(usize, f64)], b: f64) -> Result<LogSumExp> {
        LogSumExp::from_terms(dim, [(a, b)])
    }

    /// Dimension `n` of the argument vector.
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// Number of exponential terms.
    pub(crate) fn terms(&self) -> usize {
        self.offsets.len()
    }

    /// Sorted distinct columns over all terms: where the gradient `g` can
    /// be non-zero, hence the rows and columns `g g^T` fills.
    pub(crate) fn support(&self) -> &[usize] {
        &self.support
    }

    /// Lowers `first[i]` to the first column of every term that names
    /// variable `i`: the profile `sum_k p_k a_k a_k^T` needs of a lower
    /// triangle (for a one-term function, that of `a a^T`).
    pub(crate) fn mark_terms(&self, first: &mut [usize]) {
        for k in 0..self.terms() {
            if let Some((&c0, rest)) = self.cols[self.starts[k]..self.starts[k + 1]].split_first() {
                for &c in rest {
                    first[c] = first[c].min(c0);
                }
            }
        }
    }

    /// Writes `exp(a_k . x + b_k - max)` into `p` and returns `(max, sum)`.
    fn shifted_terms(&self, x: &[f64], p: &mut Vec<f64>) -> (f64, f64) {
        p.clear();
        let mut max = f64::NEG_INFINITY;
        for k in 0..self.terms() {
            let (lo, hi) = (self.starts[k], self.starts[k + 1]);
            let mut e = self.offsets[k];
            for (&c, &v) in self.cols[lo..hi].iter().zip(&self.vals[lo..hi]) {
                e += v * x[c];
            }
            max = max.max(e);
            p.push(e);
        }
        let mut sum = 0.0;
        for e in p.iter_mut() {
            *e = (*e - max).exp();
            sum += *e;
        }
        (max, sum)
    }

    /// Function value at `x`. `p` is scratch (resized as needed).
    pub(crate) fn value(&self, x: &[f64], p: &mut Vec<f64>) -> f64 {
        let (max, sum) = self.shifted_terms(x, p);
        max + sum.ln()
    }

    /// Function value at `x`, leaving the softmax weight of each term in
    /// `p` for [`add_derivatives`](LogSumExp::add_derivatives).
    pub(crate) fn eval(&self, x: &[f64], p: &mut Vec<f64>) -> f64 {
        let (max, sum) = self.shifted_terms(x, p);
        let inv = 1.0 / sum;
        for w in p.iter_mut() {
            *w *= inv;
        }
        max + sum.ln()
    }

    /// Adds this function's share of a Newton system, given the softmax
    /// weights `p` that [`eval`](LogSumExp::eval) left:
    /// `grad += alpha * g` and
    /// `hess += beta * sum_k p_k a_k a_k^T + gamma * g g^T`, where
    /// `g = sum_k p_k a_k` is the gradient. (`beta = 1, gamma = -1` is the
    /// function's own Hessian.) The first piece goes to `S` of
    /// `hess = S + U diag(c) U^T`, entry by entry over the rows'
    /// non-zeros; the second — dense over the whole support — is added
    /// into `S` the same way when `column` is `None`, and otherwise
    /// becomes that column of `U` (whose rows must be the support) with
    /// `c = gamma`. `g` is scratch of length `dim`, all zero on entry and
    /// again on return.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn add_derivatives(
        &self,
        p: &[f64],
        alpha: f64,
        beta: f64,
        gamma: f64,
        grad: &mut [f64],
        hess: &mut Hessian,
        column: Option<usize>,
        g: &mut [f64],
    ) {
        for (k, &pk) in p.iter().enumerate() {
            let (lo, hi) = (self.starts[k], self.starts[k + 1]);
            for (&c, &v) in self.cols[lo..hi].iter().zip(&self.vals[lo..hi]) {
                g[c] += pk * v;
            }
        }
        // One term: sum_k p_k a_k a_k^T is g g^T, and an affine function
        // (beta = -gamma) contributes no curvature at all.
        let (beta, gamma) = if self.terms() == 1 {
            (0.0, beta + gamma)
        } else {
            (beta, gamma)
        };
        if beta != 0.0 {
            for (k, &pk) in p.iter().enumerate() {
                let (lo, hi) = (self.starts[k], self.starts[k + 1]);
                let vals = &self.vals[lo..hi];
                hess.add_outer(beta * pk, &self.cols[lo..hi], |i| vals[i]);
            }
        }
        for &c in &self.support {
            grad[c] += alpha * g[c];
        }
        if gamma != 0.0 {
            let on_support = |i: usize| g[self.support[i]];
            match column {
                None => hess.add_outer(gamma, &self.support, on_support),
                Some(j) => hess.set_column(j, gamma, on_support),
            }
        }
        for &c in &self.support {
            g[c] = 0.0;
        }
    }
}

/// The dense log-sum-exp and the value / gradient / Hessian-per-function
/// interface the solver assembled its Newton systems from before the fused
/// sparse pass, kept as the reference [`LogSumExp`] and the barrier's
/// assembly are tested against; and a quadratic test objective.
#[cfg(test)]
pub(crate) mod dense {
    use crate::matrix_ops::{axpy, matvec, matvec_transposed, rank_one_update, zeros};
    use crate::vec_ops;

    /// Convex quadratic `0.5 x^T Q x + c . x` with symmetric `Q`.
    ///
    /// Exercises the Newton minimizer: it converges on a quadratic in one
    /// step.
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) struct Quadratic {
        q: Vec<Vec<f64>>,
        c: Vec<f64>,
    }

    impl Quadratic {
        /// Creates `0.5 x^T Q x + c . x`.
        ///
        /// # Panics
        ///
        /// Panics if `q` is not `c.len() x c.len()`.
        pub(crate) fn new(q: Vec<Vec<f64>>, c: Vec<f64>) -> Quadratic {
            assert_eq!(q.len(), c.len(), "dimension mismatch");
            assert!(q.iter().all(|row| row.len() == c.len()), "not square");
            Quadratic { q, c }
        }
    }

    impl super::Objective for Quadratic {
        fn dim(&self) -> usize {
            self.c.len()
        }

        fn value(&mut self, x: &[f64]) -> f64 {
            let qx = matvec(&self.q, x).expect("dimension checked at construction");
            0.5 * vec_ops::dot(x, &qx) + vec_ops::dot(&self.c, x)
        }

        fn eval(&mut self, x: &[f64], grad: &mut [f64], hess: &mut super::Hessian) -> f64 {
            let qx = matvec(&self.q, x).expect("dimension checked at construction");
            for ((g, q), c) in grad.iter_mut().zip(&qx).zip(&self.c) {
                *g = q + c;
            }
            for i in 0..self.dim() {
                for (j, &q) in self.q[i][..=i].iter().enumerate() {
                    hess.add(i, j, q);
                }
            }
            0.5 * vec_ops::dot(x, &qx) + vec_ops::dot(&self.c, x)
        }
    }

    /// `(entries, offset)` per term, entries as `(column, coefficient)`.
    pub(crate) type Terms = Vec<(Vec<(usize, f64)>, f64)>;

    pub(crate) trait Objective {
        fn dim(&self) -> usize;
        fn value(&self, x: &[f64]) -> f64;
        fn gradient(&self, x: &[f64]) -> Vec<f64>;
        fn hessian(&self, x: &[f64]) -> Vec<Vec<f64>>;
    }

    /// `log sum_i exp(a_i . x + b_i)` where `a_i` is row `i` of `a`.
    pub(crate) struct LogSumExpAffine {
        pub(crate) a: Vec<Vec<f64>>,
        pub(crate) b: Vec<f64>,
    }

    impl LogSumExpAffine {
        fn exponents_at(&self, x: &[f64]) -> Vec<f64> {
            let mut e = matvec(&self.a, x).expect("dimension checked by caller");
            vec_ops::axpy(1.0, &self.b, &mut e);
            e
        }

        fn weights_at(&self, x: &[f64]) -> Vec<f64> {
            let e = self.exponents_at(x);
            let lse = vec_ops::log_sum_exp(&e);
            e.iter().map(|v| (v - lse).exp()).collect()
        }
    }

    impl Objective for LogSumExpAffine {
        fn dim(&self) -> usize {
            self.a[0].len()
        }

        fn value(&self, x: &[f64]) -> f64 {
            vec_ops::log_sum_exp(&self.exponents_at(x))
        }

        fn gradient(&self, x: &[f64]) -> Vec<f64> {
            let w = self.weights_at(x);
            matvec_transposed(&self.a, &w).expect("dimensions agree")
        }

        fn hessian(&self, x: &[f64]) -> Vec<Vec<f64>> {
            let w = self.weights_at(x);
            let n = self.dim();
            let mut h = zeros(n, n);
            for (row, &wi) in self.a.iter().zip(&w) {
                rank_one_update(&mut h, wi, row);
            }
            let g = matvec_transposed(&self.a, &w).expect("dimensions agree");
            rank_one_update(&mut h, -1.0, &g);
            h
        }
    }

    /// The barrier-augmented objective `t f0(x) - sum_i log(-f_i(x))`,
    /// assembled one dense gradient and Hessian per constraint.
    pub(crate) struct BarrierObjective<'a> {
        pub(crate) t: f64,
        pub(crate) f0: &'a dyn Objective,
        pub(crate) constraints: &'a [&'a dyn Objective],
    }

    impl Objective for BarrierObjective<'_> {
        fn dim(&self) -> usize {
            self.f0.dim()
        }

        fn value(&self, x: &[f64]) -> f64 {
            let mut v = self.t * self.f0.value(x);
            for c in self.constraints {
                let fi = c.value(x);
                if fi >= 0.0 || !fi.is_finite() {
                    return f64::INFINITY;
                }
                v -= (-fi).ln();
            }
            v
        }

        fn gradient(&self, x: &[f64]) -> Vec<f64> {
            let mut g: Vec<f64> = self.f0.gradient(x).iter().map(|v| v * self.t).collect();
            for c in self.constraints {
                let fi = c.value(x);
                let gi = c.gradient(x);
                let w = -1.0 / fi; // fi < 0 at feasible points
                for (gj, gij) in g.iter_mut().zip(&gi) {
                    *gj += w * gij;
                }
            }
            g
        }

        fn hessian(&self, x: &[f64]) -> Vec<Vec<f64>> {
            let mut h = self.f0.hessian(x);
            h.iter_mut().flatten().for_each(|v| *v *= self.t);
            for c in self.constraints {
                let fi = c.value(x);
                let gi = c.gradient(x);
                let hi = c.hessian(x);
                let w1 = 1.0 / (fi * fi);
                let w2 = -1.0 / fi;
                rank_one_update(&mut h, w1, &gi);
                axpy(&mut h, w2, &hi);
            }
            h
        }
    }

    /// A sparse function and its dense twin from the same `(entries,
    /// offset)` terms (entries naming a column twice add up in both).
    pub(crate) fn twins(
        dim: usize,
        terms: &[(Vec<(usize, f64)>, f64)],
    ) -> (super::LogSumExp, LogSumExpAffine) {
        let sparse =
            super::LogSumExp::from_terms(dim, terms.iter().map(|(e, b)| (e.as_slice(), *b)))
                .expect("valid terms");
        let mut a = zeros(terms.len(), dim);
        for (row, (entries, _)) in a.iter_mut().zip(terms) {
            for &(c, v) in entries {
                row[c] += v;
            }
        }
        let b = terms.iter().map(|(_, b)| *b).collect();
        (sparse, LogSumExpAffine { a, b })
    }

    /// Largest entry of the lower triangle of `got - want`, relative to the
    /// largest entry of `want` (at least 1).
    pub(crate) fn lower_triangle_gap(got: &[Vec<f64>], want: &[Vec<f64>]) -> f64 {
        let mut gap: f64 = 0.0;
        for (i, (got, want)) in got.iter().zip(want).enumerate() {
            for (g, w) in got[..=i].iter().zip(&want[..=i]) {
                gap = gap.max((g - w).abs());
            }
        }
        gap / crate::matrix_ops::max_abs(want).max(1.0)
    }

    /// A random log-sum-exp over 1 to 6 variables, as terms, and a point:
    /// rows that name every column, rows that name a few (some columns
    /// twice, some not at all), one-term functions.
    pub(crate) fn arb_case() -> impl proptest::strategy::Strategy<Value = (Terms, Vec<f64>)> {
        use proptest::prelude::*;
        const MAX_DIM: usize = 6;
        let term = (
            0u8..3,
            collection::vec(-2.0..2.0_f64, MAX_DIM),
            collection::vec((0usize..64, -2.0..2.0_f64), 0..7),
            -1.0..1.0_f64,
        );
        (
            1..=MAX_DIM,
            collection::vec(term, 1..6),
            collection::vec(-1.5..1.5_f64, MAX_DIM),
        )
            .prop_map(|(dim, raw, x)| {
                let terms = raw
                    .into_iter()
                    .map(|(kind, dense, sparse, offset)| {
                        let entries = if kind == 0 {
                            dense.into_iter().take(dim).enumerate().collect()
                        } else {
                            sparse.into_iter().map(|(c, v)| (c % dim, v)).collect()
                        };
                        (entries, offset)
                    })
                    .collect();
                (terms, x[..dim].to_vec())
            })
    }
}

#[cfg(test)]
mod tests {
    use super::dense::{self, Objective as _};
    use super::*;
    use crate::matrix_ops::{axpy, identity, max_abs, rank_one_update};
    use crate::vec_ops;
    use proptest::prelude::*;

    #[test]
    fn log_sum_exp_of_x_and_minus_x_is_log_2_at_zero() {
        // log(e^x + e^-x) is minimized at 0 with value log 2.
        let f =
            LogSumExp::from_terms(1, [(&[(0, 1.0)][..], 0.0), (&[(0, -1.0)][..], 0.0)]).unwrap();
        let mut weights = Vec::new();
        assert!((f.value(&[0.0], &mut weights) - 2.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn quadratic_value_and_derivatives() {
        let q = vec![vec![2.0, 0.0], vec![0.0, 4.0]];
        let mut f = dense::Quadratic::new(q, vec![-1.0, 0.0]);
        assert_eq!(f.value(&[1.0, 1.0]), 0.5 * (2.0 + 4.0) - 1.0);
        let mut g = vec![0.0; 2];
        let mut h = f.hessian();
        assert_eq!(f.eval(&[1.0, 1.0], &mut g, &mut h), 2.0);
        assert_eq!(g, vec![1.0, 4.0]);
        assert_eq!(h.to_lower()[1][1], 4.0);
    }

    #[test]
    fn construction_validates_and_normalizes() {
        let none: [(&[(usize, f64)], f64); 0] = [];
        assert!(LogSumExp::from_terms(2, none).is_err());
        assert!(LogSumExp::affine(2, &[(2, 1.0)], 0.0).is_err());
        assert!(LogSumExp::affine(2, &[(0, f64::NAN)], 0.0).is_err());
        assert!(LogSumExp::affine(2, &[(0, 1.0)], f64::INFINITY).is_err());
        // Unsorted input with a repeated column and a cancelling pair.
        let f = LogSumExp::affine(
            3,
            &[(2, 1.0), (0, 0.5), (2, 2.0), (1, 1.0), (1, -1.0)],
            0.25,
        )
        .unwrap();
        assert_eq!(
            f,
            LogSumExp::affine(3, &[(0, 0.5), (2, 3.0)], 0.25).unwrap()
        );
        assert_eq!((f.dim(), f.terms()), (3, 1));
        let mut p = Vec::new();
        assert_eq!(f.value(&[2.0, 100.0, 1.0], &mut p), 1.0 + 3.0 + 0.25);
    }

    #[test]
    fn single_term_is_affine_with_no_curvature() {
        let f = LogSumExp::affine(2, &[(0, 3.0), (1, -1.0)], 0.7).unwrap();
        let x = [0.3, 0.9];
        let mut p = Vec::new();
        assert_eq!(f.eval(&x, &mut p), 3.0 * 0.3 - 0.9 + 0.7);
        assert_eq!(p, vec![1.0]);
        let (mut g, mut h, mut scratch) = (vec![0.0; 2], Hessian::dense(2), vec![0.0; 2]);
        f.add_derivatives(&p, 1.0, 1.0, -1.0, &mut g, &mut h, None, &mut scratch);
        assert_eq!(g, vec![3.0, -1.0]);
        assert_eq!(max_abs(&h.to_lower()), 0.0);
        assert_eq!(scratch, vec![0.0; 2]);
    }

    #[test]
    fn stable_for_large_inputs() {
        let f = LogSumExp::from_terms(1, [(&[(0, 1.0)][..], 0.0), (&[(0, 1.0)][..], 0.0)]).unwrap();
        let mut p = Vec::new();
        let v = f.eval(&[800.0], &mut p);
        assert!((v - (800.0 + 2.0_f64.ln())).abs() < 1e-9);
        assert_eq!(p, vec![0.5, 0.5]);
    }

    /// Gradient and Hessian of `f` at `x` through the fused pass, the
    /// `g g^T` piece added into a dense `S` or kept as a column of `U`.
    fn derivatives_in(f: &LogSumExp, x: &[f64], split: bool) -> (f64, Vec<f64>, Vec<Vec<f64>>) {
        let n = f.dim();
        let (mut p, mut g, mut scratch) = (Vec::new(), vec![0.0; n], vec![0.0; n]);
        let mut h = if split {
            // The profile of the per-term piece alone, and one column.
            let mut first: Vec<usize> = (0..n).collect();
            f.mark_terms(&mut first);
            Hessian::new(first, [f.support()])
        } else {
            Hessian::dense(n)
        };
        let v = f.eval(x, &mut p);
        let column = split.then_some(0);
        f.add_derivatives(&p, 1.0, 1.0, -1.0, &mut g, &mut h, column, &mut scratch);
        assert!(scratch.iter().all(|&s| s == 0.0), "scratch left dirty");
        (v, g, h.to_lower())
    }

    fn derivatives(f: &LogSumExp, x: &[f64]) -> (f64, Vec<f64>, Vec<Vec<f64>>) {
        derivatives_in(f, x, false)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn fused_sparse_pass_matches_the_dense_reference(case in dense::arb_case()) {
            let (terms, x) = case;
            let (sparse, reference) = dense::twins(x.len(), &terms);
            let (v, g, h) = derivatives(&sparse, &x);
            let mut p = Vec::new();
            prop_assert_eq!(sparse.value(&x, &mut p), v);
            let want = reference.value(&x);
            prop_assert!((v - want).abs() <= 1e-12 * want.abs().max(1.0), "{v} vs {want}");
            let want = reference.gradient(&x);
            let scale = vec_ops::norm_inf(&want).max(1.0);
            for (a, b) in g.iter().zip(&want) {
                prop_assert!((a - b).abs() <= 1e-12 * scale, "{a} vs {b}");
            }
            let gap = dense::lower_triangle_gap(&h, &reference.hessian(&x));
            prop_assert!(gap <= 1e-12, "Hessian gap {gap:e}");
            // Keeping g g^T apart changes where it is stored, not what it is.
            let (_, g_split, h_split) = derivatives_in(&sparse, &x, true);
            prop_assert_eq!(g_split, g);
            let gap = dense::lower_triangle_gap(&h_split, &h);
            prop_assert!(gap <= 1e-14, "split gap {gap:e}");
        }

        #[test]
        fn derivatives_match_central_differences(case in dense::arb_case()) {
            let (terms, x) = case;
            let (f, _) = dense::twins(x.len(), &terms);
            let (_, g, h) = derivatives(&f, &x);
            let eps = 1e-5;
            let mut p = Vec::new();
            for j in 0..x.len() {
                let (mut up, mut down) = (x.clone(), x.clone());
                up[j] += eps;
                down[j] -= eps;
                let slope = (f.value(&up, &mut p) - f.value(&down, &mut p)) / (2.0 * eps);
                prop_assert!((g[j] - slope).abs() < 1e-7, "g[{j}] {} vs {slope}", g[j]);
                let (g_up, g_down) = (derivatives(&f, &up).1, derivatives(&f, &down).1);
                for i in j..x.len() {
                    let curve = (g_up[i] - g_down[i]) / (2.0 * eps);
                    prop_assert!((h[i][j] - curve).abs() < 1e-6, "H[{i}{j}]");
                }
            }
        }
    }

    #[test]
    fn weighted_accumulation_is_linear_in_its_weights() {
        // `add_derivatives` adds to what is there, scaled as asked.
        let terms = vec![
            (vec![(0, 1.0), (2, -1.0)], 0.0),
            (vec![(1, 2.0)], 0.5),
            (vec![(0, 0.5), (1, 0.5), (2, 0.5)], -0.5),
        ];
        let (f, reference) = dense::twins(3, &terms);
        let x = [0.2, -0.4, 0.6];
        let (alpha, beta, gamma) = (0.7, 1.3, 2.1);
        let (mut p, mut g, mut h, mut scratch) =
            (Vec::new(), vec![1.0; 3], Hessian::dense(3), vec![0.0; 3]);
        for i in 0..3 {
            h.add(i, i, 1.0);
        }
        f.eval(&x, &mut p);
        f.add_derivatives(&p, alpha, beta, gamma, &mut g, &mut h, None, &mut scratch);
        let grad = reference.gradient(&x);
        // beta sum p a a^T + gamma g g^T = beta H + (beta + gamma) g g^T.
        let mut want = reference.hessian(&x);
        want.iter_mut().flatten().for_each(|v| *v *= beta);
        rank_one_update(&mut want, beta + gamma, &grad);
        axpy(&mut want, 1.0, &identity(3));
        assert!(dense::lower_triangle_gap(&h.to_lower(), &want) < 1e-14);
        for (got, d) in g.iter().zip(&grad) {
            assert!((got - (1.0 + alpha * d)).abs() < 1e-14);
        }
    }
}
