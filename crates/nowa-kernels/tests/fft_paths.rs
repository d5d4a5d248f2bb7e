//! The FFT's paths: the serial radix-2 leaf at every leaf size, the
//! octant-symmetric twiddle table, and the parallel deinterleave and
//! combine splits under a runtime.

use nowa_kernels::fft::{self, Cpx};

fn assert_close(got: &[Cpx], want: &[Cpx], tol: f64, what: &str) {
    for (k, (a, b)) in got.iter().zip(want).enumerate() {
        assert!(
            (a.re - b.re).abs() < tol && (a.im - b.im).abs() < tol,
            "{what}: bin {k}: {a:?} vs {b:?}"
        );
    }
}

/// `exp(-2πi·k/n)`, straight from `sin_cos`.
fn unit_root(k: usize, n: usize) -> Cpx {
    let angle = -2.0 * std::f64::consts::PI * (k % n) as f64 / n as f64;
    let (sin, cos) = angle.sin_cos();
    Cpx::new(cos, sin)
}

/// Every leaf size from 2 to 32 runs the serial radix-2 transform: at a
/// grain of at least `n` a root of up to 32 points is itself the leaf,
/// and at grain 1 the recursion forks down to two-point leaves.
#[test]
fn serial_leaf_matches_naive_dft_at_every_size() {
    for log_n in 1..=6 {
        let n = 1usize << log_n;
        let signal = fft::random_signal(n, 17 + log_n as u64);
        let expected = fft::dft_naive(&signal);
        for grain in [n, 1] {
            let mut buf = signal.clone();
            fft::fft(&mut buf, grain);
            assert_close(&buf, &expected, 1e-9, &format!("n {n}, grain {grain}"));
        }
    }
}

#[test]
fn twiddle_table_matches_sin_cos() {
    for log_n in 0..=12 {
        let n = 1usize << log_n;
        let direct: Vec<Cpx> = (0..n / 2).map(|k| unit_root(k, n)).collect();
        let table = fft::twiddles(n);
        assert_eq!(table.len(), direct.len());
        assert_close(&table, &direct, 1e-15, &format!("n {n}"));
    }
}

/// One bin of the DFT by definition.
fn dft_bin(signal: &[Cpx], k: usize) -> Cpx {
    let n = signal.len();
    signal
        .iter()
        .enumerate()
        .fold(Cpx::default(), |acc, (t, x)| {
            let w = unit_root(k * t, n);
            Cpx::new(
                acc.re + x.re * w.re - x.im * w.im,
                acc.im + x.re * w.im + x.im * w.re,
            )
        })
}

/// At 2^15 points and grain 256 both the deinterleave and the combine
/// split under `join2`. Running on two workers must not change a bit of
/// the output, and the spectrum passes the benchmark's own checks:
/// Parseval, and two bins computed directly.
#[test]
fn parallel_transform_is_bit_identical_and_correct() {
    let n = 1 << 15;
    let signal = fft::random_signal(n, 23);
    let mut serial = signal.clone();
    fft::fft(&mut serial, 256);
    let rt = nowa_runtime::Runtime::with_workers(2).unwrap();
    let parallel = rt.run(|| {
        let mut buf = signal.clone();
        fft::fft(&mut buf, 256);
        buf
    });
    let bits = |c: &Cpx| (c.re.to_bits(), c.im.to_bits());
    assert!(
        parallel.iter().map(bits).eq(serial.iter().map(bits)),
        "the transform on a runtime differs from the call made off it"
    );
    let time = fft::spectrum_energy(&signal);
    let freq = fft::spectrum_energy(&parallel) / n as f64;
    assert!(
        (time - freq).abs() <= 1e-9 * time,
        "Parseval: {time} vs {freq}"
    );
    for k in [1, n / 2 + 3] {
        assert_close(&parallel[k..=k], &[dft_bin(&signal, k)], 1e-6, "direct bin");
    }
}
