//! Every host-clock read of the benchmark goes through this module, so the
//! wall-clock boundary is one file: the programs under test stay
//! clock-free, and only the benchmark measures them.

// simlint: allow(D02) -- the benchmark's single wall-clock boundary
use std::time::{Duration, Instant};

/// A point on the monotonic host clock.
pub type Stamp = Instant;

/// Reads the monotonic host clock.
pub fn now() -> Stamp {
    Instant::now()
}

/// Seconds elapsed since `t`.
pub fn since(t: Stamp) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Seconds from `a` to `b` (0 when `b` precedes `a`).
pub fn between(a: Stamp, b: Stamp) -> f64 {
    b.saturating_duration_since(a).as_secs_f64()
}

/// `t` shifted `secs` seconds into the future.
pub fn after(t: Stamp, secs: f64) -> Stamp {
    t + Duration::from_secs_f64(secs.max(0.0))
}

/// Sleeps until `t`; returns at once when `t` has passed.
pub fn sleep_until(t: Stamp) {
    let wait = t.saturating_duration_since(Instant::now());
    if !wait.is_zero() {
        std::thread::sleep(wait);
    }
}

/// Sleeps for `ms` milliseconds.
pub fn sleep_ms(ms: u64) {
    std::thread::sleep(Duration::from_millis(ms));
}

/// Times `f`, returning its value and the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}
