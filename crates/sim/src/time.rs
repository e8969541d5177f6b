//! Virtual time units.
//!
//! All virtual time in the simulator is kept in nanoseconds as a `u64`. At
//! nanosecond resolution a `u64` covers ~584 years of virtual time, far more
//! than any run needs, and integer time keeps the event order exact (no
//! floating-point tie ambiguity).

/// Virtual time in nanoseconds.
pub type Time = u64;

/// One microsecond of virtual time.
pub const MICROS: Time = 1_000;

/// One millisecond of virtual time.
pub const MILLIS: Time = 1_000_000;

/// One second of virtual time.
pub const SECS: Time = 1_000_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_ratios() {
        assert_eq!(MILLIS / MICROS, 1_000);
        assert_eq!(SECS / MILLIS, 1_000);
    }
}
