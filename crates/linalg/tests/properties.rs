//! Property-based tests of the numerical kernels.

use maps_linalg::dense::znorm;
use maps_linalg::{BandedMatrix, Complex64, CooMatrix, SymBandedMatrix};
use proptest::prelude::*;

fn complex_strategy() -> impl Strategy<Value = Complex64> {
    (-5.0..5.0f64, -5.0..5.0f64).prop_map(|(re, im)| Complex64::new(re, im))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any diagonally dominant banded system is solved to tiny residual.
    #[test]
    fn banded_solve_has_small_residual(
        n in 3usize..24,
        kl in 0usize..3,
        ku in 0usize..3,
        seed in 0u64..1000,
    ) {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut a = BandedMatrix::zeros(n, kl, ku);
        for i in 0..n {
            for j in i.saturating_sub(kl)..(i + ku + 1).min(n) {
                let v = if i == j {
                    Complex64::new(5.0 + next(), next())
                } else {
                    Complex64::new(next(), next())
                };
                a.set(i, j, v);
            }
        }
        let b: Vec<Complex64> = (0..n).map(|_| Complex64::new(next(), next())).collect();
        let lu = a.clone().factorize().unwrap();
        let mut x = b.clone();
        lu.solve(std::slice::from_mut(&mut x));
        let r: Vec<Complex64> = a.matvec(&x).iter().zip(&b).map(|(p, q)| *p - *q).collect();
        prop_assert!(znorm(&r) <= 1e-9 * (1.0 + znorm(&b)));
    }

    /// Any diagonally dominant complex symmetric band is solved by the
    /// pivot-free `L·Δ·Lᵀ` to a tiny residual.
    #[test]
    fn symmetric_band_solve_has_small_residual(
        n in 3usize..40,
        kd in 0usize..6,
        seed in 0u64..1000,
    ) {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(3);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut s = SymBandedMatrix::zeros(n, kd);
        for j in 0..n {
            s.set(j, j, Complex64::new(4.0 + next(), next()));
            for i in j + 1..(j + kd + 1).min(n) {
                s.set(i, j, Complex64::new(next(), next()));
            }
        }
        let b: Vec<Complex64> = (0..n).map(|_| Complex64::new(next(), next())).collect();
        let ldlt = s.clone().factorize().unwrap();
        let mut x = b.clone();
        ldlt.solve(std::slice::from_mut(&mut x));
        let r: Vec<Complex64> = s.matvec(&x).iter().zip(&b).map(|(p, q)| *p - *q).collect();
        prop_assert!(znorm(&r) <= 1e-12 * (1.0 + znorm(&b)));
    }

    /// Every lane of one K-block solve is bit-identical to solving its
    /// system alone (K=1) on random well-conditioned complex symmetric
    /// bands. K spans several `RHS_BLOCK` chunks and every tail width
    /// (8+8+8+8+1 at K=33).
    #[test]
    fn blocked_multi_rhs_matches_per_rhs_bitwise(
        n in 3usize..28,
        kd in 0usize..12,
        k in 1usize..34,
        seed in 0u64..1000,
    ) {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(7);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut s = SymBandedMatrix::zeros(n, kd);
        for j in 0..n {
            s.set(j, j, Complex64::new(5.0 + next(), next()));
            for i in j + 1..(j + kd + 1).min(n) {
                s.set(i, j, Complex64::new(next(), next()));
            }
        }
        // Mix dense and sparse right-hand sides so the zero-skip path runs.
        let rhs: Vec<Vec<Complex64>> = (0..k)
            .map(|r| {
                (0..n)
                    .map(|i| {
                        if r % 2 == 1 && (i + r) % 3 != 0 {
                            Complex64::ZERO
                        } else {
                            Complex64::new(next(), next())
                        }
                    })
                    .collect()
            })
            .collect();
        let ldlt = s.factorize().unwrap();
        let mut block = rhs.clone();
        ldlt.solve(&mut block);
        for (xs, b) in block.iter().zip(&rhs) {
            let mut x = b.clone();
            ldlt.solve(std::slice::from_mut(&mut x));
            for (p, q) in xs.iter().zip(&x) {
                prop_assert_eq!(p.re.to_bits(), q.re.to_bits());
                prop_assert_eq!(p.im.to_bits(), q.im.to_bits());
            }
        }
    }

    /// CSR matvec is linear: A(αx + βy) = αAx + βAy.
    #[test]
    fn csr_matvec_linearity(
        n in 2usize..16,
        alpha in -3.0..3.0f64,
        beta in -3.0..3.0f64,
        seed in 0u64..500,
    ) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            for j in 0..n {
                if (i + j) % 3 == 0 {
                    coo.push(i, j, Complex64::new(next(), next()));
                }
            }
        }
        let a = coo.to_csr();
        let x: Vec<Complex64> = (0..n).map(|_| Complex64::new(next(), next())).collect();
        let y: Vec<Complex64> = (0..n).map(|_| Complex64::new(next(), next())).collect();
        let combo: Vec<Complex64> = x.iter().zip(&y).map(|(a, b)| *a * alpha + *b * beta).collect();
        let lhs = a.matvec(&combo);
        let ax = a.matvec(&x);
        let ay = a.matvec(&y);
        let rhs: Vec<Complex64> = ax.iter().zip(&ay).map(|(p, q)| *p * alpha + *q * beta).collect();
        let d: Vec<Complex64> = lhs.iter().zip(&rhs).map(|(p, q)| *p - *q).collect();
        prop_assert!(znorm(&d) <= 1e-9 * (1.0 + znorm(&rhs)));
    }

    /// Complex field axioms: |z·w| = |z|·|w| and conj distributes.
    #[test]
    fn complex_axioms(z in complex_strategy(), w in complex_strategy()) {
        prop_assert!(((z * w).abs() - z.abs() * w.abs()).abs() < 1e-10 * (1.0 + z.abs() * w.abs()));
        let lhs = (z * w).conj();
        let rhs = z.conj() * w.conj();
        prop_assert!((lhs - rhs).abs() < 1e-12 * (1.0 + lhs.abs()));
        // Triangle inequality.
        prop_assert!((z + w).abs() <= z.abs() + w.abs() + 1e-12);
    }
}
