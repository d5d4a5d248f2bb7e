//! `cholesky` — Cholesky factorisation (Table I: input 4000/40000 sparse in
//! the original; here a dense recursive blocked factorisation — see
//! DESIGN.md for the substitution rationale).
//!
//! `A = L·Lᵀ` on the lower triangle, recursively: factor the leading block,
//! right-solve the panel against `L11ᵀ`, symmetric-downdate the trailing
//! block, recurse. The panel solve and the downdate parallelise internally;
//! the heavy stack churn of the deep recursion is what stresses the stack
//! pool (§V-A's `cholesky` discussion).

use crate::dense::{syrk_lower_sub, trsm_right_lower_trans, Mat, MatMut};

/// In-place Cholesky of the lower triangle of the view.
fn cholesky_rec(a: MatMut<'_>, base: usize) {
    let mut a = a;
    let n = a.rows();
    debug_assert_eq!(n, a.cols());
    if n <= base {
        // Serial lower Cholesky.
        for j in 0..n {
            let mut d = a.at(j, j);
            for k in 0..j {
                d -= a.at(j, k) * a.at(j, k);
            }
            assert!(d > 0.0, "matrix not positive definite");
            let d = d.sqrt();
            *a.at_mut(j, j) = d;
            for i in j + 1..n {
                let mut s = a.at(i, j);
                for k in 0..j {
                    s -= a.at(i, k) * a.at(j, k);
                }
                *a.at_mut(i, j) = s / d;
            }
        }
        return;
    }
    let h = n / 2;
    let [mut a11, _a12, mut a21, a22] = a.split_quad(h, h);
    cholesky_rec(a11.rb_mut(), base);
    trsm_right_lower_trans(a11.as_ref(), a21.rb_mut(), base);
    let mut a22 = a22;
    syrk_lower_sub(a21.as_ref(), a22.rb_mut(), base);
    cholesky_rec(a22, base);
}

/// Factorises the SPD matrix `a` in place; afterwards the lower triangle
/// holds `L` (the strict upper triangle is left untouched).
pub fn cholesky(a: &mut Mat, base: usize) {
    assert_eq!(a.rows(), a.cols());
    cholesky_rec(a.as_mut(), base.max(4));
}

/// Serial reference factorisation.
pub fn cholesky_serial(a: &mut Mat) {
    let n = a.rows();
    for j in 0..n {
        let mut d = a.at(j, j);
        for k in 0..j {
            d -= a.at(j, k) * a.at(j, k);
        }
        assert!(d > 0.0, "matrix not positive definite");
        let d = d.sqrt();
        *a.at_mut(j, j) = d;
        for i in j + 1..n {
            let mut s = a.at(i, j);
            for k in 0..j {
                s -= a.at(i, k) * a.at(j, k);
            }
            *a.at_mut(i, j) = s / d;
        }
    }
}

/// A symmetric positive-definite pseudo-random matrix (`B·Bᵀ + n·I`).
///
/// Computes the lower triangle and mirrors it (`b(i,k)·b(j,k)` commutes
/// exactly), four entries of a row at a time with one accumulator each:
/// every entry keeps its own k-order, so the result is bit-identical to
/// the plain triple loop (`tests::naive_spd`) at about a fifth of its
/// time.
pub fn spd_matrix(n: usize, seed: u64) -> Mat {
    let mut x = seed | 1;
    let b: Vec<f64> = (0..n * n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ((x % 1000) as f64) / 1000.0 - 0.5
        })
        .collect();
    let row = |i: usize| &b[i * n..(i + 1) * n];
    let mut a = Mat::zeros(n, n);
    let mut set = |i: usize, j: usize, s: f64| {
        *a.at_mut(i, j) = s;
        *a.at_mut(j, i) = s;
    };
    for i in 0..n {
        let bi = row(i);
        let mut j = 0;
        while j + 4 <= i + 1 {
            let (r0, r1, r2, r3) = (row(j), row(j + 1), row(j + 2), row(j + 3));
            let mut s = [0.0f64; 4];
            for k in 0..n {
                let v = bi[k];
                s[0] += v * r0[k];
                s[1] += v * r1[k];
                s[2] += v * r2[k];
                s[3] += v * r3[k];
            }
            for (d, s) in s.into_iter().enumerate() {
                set(i, j + d, s);
            }
            j += 4;
        }
        for j in j..=i {
            let rj = row(j);
            let mut s = 0.0;
            for k in 0..n {
                s += bi[k] * rj[k];
            }
            set(i, j, s);
        }
    }
    for i in 0..n {
        *a.at_mut(i, i) += n as f64;
    }
    a
}

/// Max abs error of `L·Lᵀ − A` over the lower triangle (test helper).
pub fn residual(l_packed: &Mat, original: &Mat) -> f64 {
    let n = original.rows();
    let mut worst: f64 = 0.0;
    for i in 0..n {
        for j in 0..=i {
            let mut s = 0.0;
            for k in 0..=j {
                s += l_packed.at(i, k) * l_packed.at(j, k);
            }
            worst = worst.max((s - original.at(i, j)).abs());
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition `spd_matrix` must reproduce bit for bit.
    fn naive_spd(n: usize, seed: u64) -> Mat {
        let mut x = seed | 1;
        let b = Mat::from_fn(n, n, |_, _| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ((x % 1000) as f64) / 1000.0 - 0.5
        });
        let mut a = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += b.at(i, k) * b.at(j, k);
                }
                *a.at_mut(i, j) = s;
            }
            *a.at_mut(i, i) += n as f64;
        }
        a
    }

    #[test]
    fn spd_matrix_is_bit_identical_to_the_triple_loop() {
        for n in [1, 2, 5, 37, 64] {
            let (fast, naive) = (spd_matrix(n, 7), naive_spd(n, 7));
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(
                        fast.at(i, j).to_bits(),
                        naive.at(i, j).to_bits(),
                        "n = {n}, entry ({i}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let original = spd_matrix(40, 31);
        let mut par = original.clone();
        let mut ser = original.clone();
        cholesky(&mut par, 8);
        cholesky_serial(&mut ser);
        // Compare lower triangles.
        for i in 0..40 {
            for j in 0..=i {
                assert!((par.at(i, j) - ser.at(i, j)).abs() < 1e-9, "({i},{j})");
            }
        }
    }

    #[test]
    fn factor_reconstructs_input() {
        let original = spd_matrix(33, 32);
        let mut packed = original.clone();
        cholesky(&mut packed, 8);
        assert!(residual(&packed, &original) < 1e-8);
    }

    #[test]
    #[should_panic(expected = "positive definite")]
    fn indefinite_matrix_rejected() {
        let mut m = Mat::zeros(4, 4);
        *m.at_mut(0, 0) = -1.0;
        cholesky_serial(&mut m);
    }
}
