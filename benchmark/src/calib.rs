//! Host-speed calibration.
//!
//! On a shared host the same work can take 1.0×, 1.3× or 1.6× as long
//! depending on what the neighbours of our cores are doing, in states that
//! last from seconds to minutes — longer than a run, so no amount of
//! repetition inside a run averages them out. The timings of the simulator
//! workloads (grid, btbsim) are therefore scaled to a reference speed: a
//! fixed kernel (a pseudo-random read-modify-write walk over 8 MiB, branchy
//! integer work with cache misses, like a trace-driven simulator) is timed
//! next to each measurement, and host time × `REFERENCE_MS / kernel ms` is
//! reported. The kernel is the benchmark's own code, so no change to the
//! programs under test can move it. (hintd's request path does not track
//! the kernel, so hintd timings stay raw.)

use std::hint::black_box;

use crate::clock;

/// The kernel's time on the reference host (a 2-vCPU Xeon guest at its
/// fastest state); a host twice as fast reads half the milliseconds after
/// scaling as before.
pub const REFERENCE_MS: f64 = 16.0;

const WALK_WORDS: usize = 1 << 20;
const WALK_STEPS: usize = 3_000_000;

/// Lanes the kernel runs on at once: the pool width of the grid workload,
/// so a sample reflects the state of both cores a 2-thread run uses.
const LANES: usize = 2;

/// Times the calibration kernel.
pub struct Calibrator {
    bufs: Vec<Vec<u64>>,
    last_ms: Option<f64>,
}

/// One lane of the kernel over `buf`; returns its wall milliseconds.
fn walk(buf: &mut [u64]) -> f64 {
    // Pull the buffer back into cache first: the process measured just
    // before may have evicted it, and a cold start would time that
    // process's footprint instead of the host.
    black_box(buf.iter().fold(0u64, |a, &v| a ^ v));
    let (acc, secs) = clock::timed(|| {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut acc = 0u64;
        for _ in 0..WALK_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x % WALK_WORDS as u64) as usize;
            let v = buf[i];
            if v & 1 == 0 {
                acc = acc.wrapping_add(v);
            } else {
                acc ^= v.rotate_left(7);
            }
            buf[i] = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(acc);
        }
        acc
    });
    black_box(acc);
    secs * 1e3
}

impl Calibrator {
    pub fn new() -> Self {
        Self {
            bufs: (0..LANES)
                .map(|_| (0..WALK_WORDS as u64).collect())
                .collect(),
            last_ms: None,
        }
    }

    /// Runs the kernel on every lane at once; returns the lanes' mean wall
    /// milliseconds.
    pub fn sample(&mut self) -> f64 {
        let lanes: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .bufs
                .iter_mut()
                .map(|buf| s.spawn(|| walk(buf)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("calibration lane does not panic"))
                .collect()
        });
        let ms = lanes.iter().sum::<f64>() / lanes.len() as f64;
        self.last_ms = Some(ms);
        ms
    }

    /// Runs `op` between two kernel samples (the first reused from the
    /// previous call when there is one) and returns its value with the
    /// factor that scales host time measured across it to reference time.
    pub fn bracket<R>(&mut self, op: impl FnOnce() -> R) -> (R, f64) {
        let before = match self.last_ms {
            Some(ms) => ms,
            None => self.sample(),
        };
        let value = op();
        let after = self.sample();
        (value, scale(0.5 * (before + after)))
    }
}

/// The factor that scales host time to reference time, given the kernel's
/// milliseconds on this host now.
pub fn scale(kernel_ms: f64) -> f64 {
    REFERENCE_MS / kernel_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brackets_reuse_the_previous_sample() {
        let mut cal = Calibrator::new();
        let (v, factor) = cal.bracket(|| 7);
        assert_eq!(v, 7);
        assert!(factor > 0.0 && factor.is_finite());
        let last = cal.last_ms.unwrap();
        let (_, second) = cal.bracket(|| ());
        let after = cal.last_ms.unwrap();
        assert!((second - scale(0.5 * (last + after))).abs() < 1e-12);
        assert_eq!(scale(REFERENCE_MS * 2.0), 0.5);
    }
}
