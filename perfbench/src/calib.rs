//! Host-speed calibration.
//!
//! The benchmark host is shared: the same 80×80 factorization takes 70 to
//! 150 ms inside one process, in phases lasting seconds to minutes, because
//! other tenants contend for the memory hierarchy (a pure FMA loop barely
//! moves; memory-bound loops slow by up to 2×). A raw wall-clock median
//! therefore says as much about the neighbours as about the program.
//!
//! The harness times a fixed kernel of its own — complex rank-1 updates
//! sliding down a band, the access pattern of a banded LU — next to the ops
//! (outside their timing windows) and reports time metrics at the reference
//! host speed: `wall × (REF_MS / kernel_ms)^ALPHA`. The kernel works on a
//! complex type of its own and depends on no MAPS crate, so no change to the
//! program moves it: the scaling cancels host phases and leaves the
//! program's own speed. Raw wall-clock figures are printed beside the scaled
//! ones.

use std::time::Instant;

/// Kernel time, ms, on the reference host (the 2-core Xeon the benchmark was
/// defined on) when its neighbours are quiet.
pub const REF_MS: f64 = 5.0;

/// How strongly MAPS op times follow the kernel. Between the reference
/// host's quiet and contended phases the kernel slowed 2.07× while an 80×80
/// design iteration slowed 1.77× (ln 1.77 / ln 2.07 = 0.79). Over three
/// windows of ten runs each, this exponent kept every workload's op-median
/// spread at or below 0.12, where exponent 1 reached 0.16 and no scaling
/// 0.28. The exponent holds only while an op's memory intensity does not
/// change; see README.md.
pub const ALPHA: f64 = 0.8;

/// Leading dimension, band half-width and column count of the kernel's band
/// (2.3 MB of complex doubles: larger than L2, streamed like a factor).
const LD: usize = 241;
const BAND: usize = 80;
const COLS: usize = 600;

/// A complex double laid out as `[re, im]`, with the two operations the
/// kernel needs.
#[derive(Clone, Copy)]
struct C {
    re: f64,
    im: f64,
}

impl C {
    #[inline(always)]
    fn mul(self, o: C) -> C {
        C {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }

    #[inline(always)]
    fn sub(self, o: C) -> C {
        C {
            re: self.re - o.re,
            im: self.im - o.im,
        }
    }
}

pub struct Calibrator {
    band: Vec<C>,
}

impl Calibrator {
    pub fn new() -> Self {
        Calibrator {
            band: (0..LD * (COLS + BAND + 1))
                .map(|i| C {
                    re: 1.0 + (i % 7) as f64 * 1e-3,
                    im: 0.5,
                })
                .collect(),
        }
    }

    /// Runs the kernel once and returns its wall time in ms.
    pub fn measure(&mut self) -> f64 {
        let t = Instant::now();
        sweep(&mut self.band);
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// One pass of the kernel over a band.
fn sweep(b: &mut [C]) {
    for k in 0..COLS {
        // A small pivot scale keeps the repeated updates bounded.
        let p = C { re: 1e-3, im: 0.0 }.mul(b[k * LD + 160]);
        for r in 1..=BAND {
            let l = b[(k + r) * LD + 160 - r].mul(p);
            for c in 0..BAND {
                let idx = (k + r) * LD + 161 - r + c;
                let u = b[k * LD + 161 + c];
                b[idx] = b[idx].sub(l.mul(u));
            }
        }
    }
    std::hint::black_box(&*b);
}

/// The kernel on `threads` threads at once, each on its own band, for ops
/// that keep every core busy: returns the wall time of the slowest, in ms.
pub struct ParallelCalibrator {
    bands: Vec<Vec<C>>,
}

impl ParallelCalibrator {
    pub fn new(threads: usize) -> Self {
        ParallelCalibrator {
            bands: (0..threads).map(|_| Calibrator::new().band).collect(),
        }
    }

    pub fn measure(&mut self) -> f64 {
        let t = Instant::now();
        std::thread::scope(|scope| {
            for band in &mut self.bands {
                scope.spawn(move || sweep(band));
            }
        });
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// A wall time scaled to the reference host speed.
pub fn scaled(wall: f64, kernel_ms: f64) -> f64 {
    wall * (REF_MS / kernel_ms).powf(ALPHA)
}
