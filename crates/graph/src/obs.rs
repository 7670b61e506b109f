//! Wall-clock observability: the workspace's one clock read
//! ([`Stopwatch`]) and its one per-stage timing shape ([`StageProfile`]).
//!
//! Wall time is the one input no seed determines, so it never reaches a
//! serialized report. Everything the library times — report totals,
//! template build stages, the solver's oracle share — reads the clock
//! through these two items, which keeps the read in one audited place.
//!
//! # Examples
//!
//! ```
//! use ssor_graph::obs::{StageProfile, Stopwatch};
//!
//! let clock = Stopwatch::start();
//! let mut profile = StageProfile::default();
//! for _ in 0..2 {
//!     profile.time("sum", || (0..1000u64).sum::<u64>());
//! }
//! profile.add_total(clock.elapsed());
//! assert_eq!(profile.stages().len(), 1, "a repeated stage accumulates");
//! assert!(profile.share("sum") <= 1.0);
//! assert_eq!(profile.share("absent"), 0.0);
//! ```

use std::time::{Duration, Instant};

/// A running wall clock.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts the clock.
    // The workspace's one wall-clock read (clippy.toml bans the rest).
    #[allow(clippy::disallowed_methods)]
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Wall time since [`start`](Self::start).
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }
}

/// Wall time split into named stages, plus the total they sit inside.
///
/// Timing a stage name again adds to it; stages keep the order in which
/// they were first seen. The total is recorded on its own because it also
/// covers untimed work between stages, so `sum(stages) <= total` whenever
/// the stages are disjoint intervals inside it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageProfile {
    stages: Vec<(&'static str, Duration)>,
    total: Duration,
}

impl StageProfile {
    /// Adds `wall` to `stage`.
    pub fn add(&mut self, stage: &'static str, wall: Duration) {
        match self.stages.iter_mut().find(|(name, _)| *name == stage) {
            Some((_, acc)) => *acc += wall,
            None => self.stages.push((stage, wall)),
        }
    }

    /// Runs `f`, adding its wall time to `stage`.
    pub fn time<T>(&mut self, stage: &'static str, f: impl FnOnce() -> T) -> T {
        let clock = Stopwatch::start();
        let out = f();
        self.add(stage, clock.elapsed());
        out
    }

    /// Adds `wall` to the total.
    pub fn add_total(&mut self, wall: Duration) {
        self.total += wall;
    }

    /// The stages, in first-seen order.
    pub fn stages(&self) -> &[(&'static str, Duration)] {
        &self.stages
    }

    /// The total wall time.
    pub fn total(&self) -> Duration {
        self.total
    }

    /// `stage`'s fraction of the total, at most 1; 0 when the total is 0
    /// or the stage never ran.
    pub fn share(&self, stage: &str) -> f64 {
        let total = self.total.as_secs_f64();
        match self.stages.iter().find(|(name, _)| *name == stage) {
            Some((_, wall)) if total > 0.0 => (wall.as_secs_f64() / total).min(1.0),
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn repeated_stages_accumulate_in_first_seen_order() {
        let mut p = StageProfile::default();
        p.add("tree", ms(2));
        p.add("metric", ms(3));
        p.add("tree", ms(4));
        p.add("load", ms(1));
        p.add("metric", ms(1));
        assert_eq!(
            p.stages(),
            [("tree", ms(6)), ("metric", ms(4)), ("load", ms(1))]
        );
    }

    #[test]
    fn share_is_zero_on_a_zero_total_and_at_most_one_otherwise() {
        let mut p = StageProfile::default();
        p.add("oracle", ms(5));
        assert_eq!(p.share("oracle"), 0.0, "no total recorded yet");
        p.add_total(ms(10));
        assert_eq!(p.share("oracle"), 0.5);
        assert_eq!(p.share("missing"), 0.0);
        p.add("oracle", ms(20));
        assert_eq!(p.share("oracle"), 1.0, "clamped when a stage overruns");
    }
}
