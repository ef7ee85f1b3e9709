//! The machine-speed reading behind the timed end-to-end metrics.
//!
//! The box this runs on is shared: the same binary on the same frames runs
//! 15-25 % faster or slower from one minute to the next, for minutes at a
//! time, which is wider than any bound a regression gate could use. So the
//! benchmark times a fixed piece of arithmetic of its own, on every core at
//! once, next to everything it measures, and reports `setup_s`,
//! `frames_per_s`, `latency_p50_ms` and `cpu_s_per_frame` as they would read
//! on a machine on which that kernel takes [`REFERENCE_MS`]. On 2 cores the
//! kernel's time moved with the workloads' own to within 1-3 % while both
//! moved by 9-17 % (README, "Machine speed"). Everything else — limits,
//! deadlines, the per-layer ledger — is in wall-clock time as measured.
//!
//! The kernel is compiled with the same flags as the program; a change to
//! the build settings moves it too and has to be measured as its own change.

use crate::stats::median;
use crate::sys;
use std::sync::Barrier;
use std::time::Instant;

/// Passes of the kernel per reading: about 7.5 ms (unit tests take a
/// fiftieth, so that loops of a few cycles stay short in a debug build).
const PASSES: usize = if cfg!(test) { 20_000 } else { 1_000_000 };
/// What one reading takes on the reference machine (the 2-core Xeon 2.1 GHz
/// the reference run was recorded on, undisturbed).
pub const REFERENCE_MS: f64 = 7.5;

/// Multiply-adds over 1 KiB of `f32` state: throughput-bound on the vector
/// units like the GEMM kernels, with nothing to miss in cache.
#[inline(never)]
fn kernel(passes: usize) -> f32 {
    let a = [1.0001f32; 256];
    let mut acc = [0f32; 256];
    for p in 0..passes {
        let s = std::hint::black_box(p as f32 * 1e-9);
        for i in 0..256 {
            acc[i] = acc[i] * 0.999 + a[i] * s;
        }
    }
    acc.iter().sum()
}

/// One reading: the kernel on `nproc` threads started together; the slowest
/// thread's time in ms (a threaded frame waits for its slowest part too).
pub fn reading_ms() -> f64 {
    let threads = sys::nproc();
    let barrier = Barrier::new(threads);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    let t0 = Instant::now();
                    std::hint::black_box(kernel(std::hint::black_box(PASSES)));
                    t0.elapsed().as_secs_f64() * 1e3
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("calibration thread")).fold(0.0, f64::max)
    })
}

/// Speed of the machine over a stretch, from the readings taken in it: above
/// 1 when it ran faster than the reference. A time measured in the stretch
/// times this is the time at reference speed; a rate divides by it. 1 when
/// there are no readings.
pub fn speed(readings_ms: &[f64]) -> f64 {
    let m = median(readings_ms);
    if m > 0.0 {
        REFERENCE_MS / m
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_the_reference_over_the_median_reading() {
        assert_eq!(speed(&[7.5, 7.5, 30.0]), 1.0); // one disturbed reading does not move it
        assert_eq!(speed(&[15.0]), 0.5); // a machine half as fast
        assert_eq!(speed(&[]), 1.0);
    }

    #[test]
    fn a_reading_takes_time_and_the_kernel_scales_with_its_passes() {
        assert!(reading_ms() > 0.0);
        let time = |passes| {
            let t0 = Instant::now();
            std::hint::black_box(kernel(std::hint::black_box(passes)));
            t0.elapsed().as_secs_f64()
        };
        // Best of three each, so a stall in one does not decide it.
        let best = |passes| (0..3).map(|_| time(passes)).fold(f64::MAX, f64::min);
        assert!(best(400_000) > 2.0 * best(100_000), "the compiler removed the work");
    }
}
