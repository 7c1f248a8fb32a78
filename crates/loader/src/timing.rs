//! Wall-clock measurement helpers.
//!
//! Outside `parallel.rs` this is the one place in the loader crate
//! allowed to touch `std::time::Instant` (see the `clock-discipline` rule
//! in `pcr-analyze`). The decode pool times each image's decode
//! (`DecodeMode::Real`) through [`measure`], which keeps the sites
//! auditable.

/// Runs `f` and returns its result together with the elapsed wall-clock
/// seconds.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_value_and_nonnegative_time() {
        let (v, secs) = measure(|| 40 + 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
