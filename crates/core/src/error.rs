//! Typed errors for the facility's degradable paths.
//!
//! The measurement/attribution pipeline runs against faulty hardware:
//! meters drop windows, counters glitch, alignment goes ambiguous, and
//! refits turn ill-conditioned. Every recoverable failure is a
//! [`FacilityError`]; the facility catches them, counts them in
//! [`crate::DegradeStats`], and falls back to the last known-good state
//! instead of panicking.

use analysis::linreg::SolveError;
use simkern::SimDuration;
use std::fmt;

/// A recoverable failure inside the power-container facility.
#[derive(Debug, Clone, PartialEq)]
pub enum FacilityError {
    /// The `Recalibrated` approach was requested without an offline
    /// calibration set.
    CalibrationMissing,
    /// The `Recalibrated` approach was requested without naming a meter.
    MeterMissing,
    /// A meter was named but the facility keeps no model history
    /// (`trace_capacity` is 0), so every alignment scan would run
    /// against an empty trace.
    MeterWithoutHistory {
        /// The meter named in the configuration.
        meter: &'static str,
    },
    /// The combined offline+online system cannot be solved.
    Solve(SolveError),
    /// The refit's normal equations were solvable but numerically
    /// near-degenerate.
    IllConditioned {
        /// Estimated condition (max/min pivot ratio).
        condition: f64,
        /// The policy limit that was exceeded.
        limit: f64,
    },
    /// Too many recent online samples disagree with the refit — the
    /// window is contaminated (e.g. by counter glitches or corrupted
    /// meter readings) and the fit cannot be trusted.
    OutlierContaminated {
        /// Samples flagged as outliers.
        outliers: usize,
        /// Samples screened.
        screened: usize,
    },
    /// Too few meter readings to attempt an alignment scan.
    InsufficientReadings {
        /// Readings available.
        have: usize,
        /// Readings required.
        need: usize,
    },
    /// The alignment scan's best correlation is too weak to act on.
    AlignmentLowScore {
        /// Best correlation found.
        score: f64,
        /// Minimum acceptable correlation.
        min: f64,
    },
    /// Two well-separated delays correlate almost equally well — the
    /// scan cannot distinguish them (typically because meter dropouts
    /// punched holes in the reading stream).
    AlignmentAmbiguous {
        /// The best-correlating delay.
        best: SimDuration,
        /// The competing delay.
        runner_up: SimDuration,
        /// Correlation margin between them.
        margin: f64,
    },
    /// A sampled counter delta was physically impossible (negative, or
    /// event rates beyond what the core can retire) — a glitch or wrap
    /// corrupted the interval.
    CounterAnomaly {
        /// The affected core index.
        core: usize,
    },
}

impl FacilityError {
    /// A stable machine-readable tag for this error variant, used as the
    /// `kind` field of degradation telemetry events (the trace schema
    /// golden file pins these strings).
    pub fn kind(&self) -> &'static str {
        match self {
            FacilityError::CalibrationMissing => "calibration_missing",
            FacilityError::MeterMissing => "meter_missing",
            FacilityError::MeterWithoutHistory { .. } => "meter_without_history",
            FacilityError::Solve(_) => "solve",
            FacilityError::IllConditioned { .. } => "ill_conditioned",
            FacilityError::OutlierContaminated { .. } => "outlier_contaminated",
            FacilityError::InsufficientReadings { .. } => "insufficient_readings",
            FacilityError::AlignmentLowScore { .. } => "alignment_low_score",
            FacilityError::AlignmentAmbiguous { .. } => "alignment_ambiguous",
            FacilityError::CounterAnomaly { .. } => "counter_anomaly",
        }
    }
}

impl fmt::Display for FacilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FacilityError::CalibrationMissing => {
                write!(f, "Recalibrated approach requires the offline calibration set")
            }
            FacilityError::MeterMissing => {
                write!(f, "Recalibrated approach requires a recalibration meter")
            }
            FacilityError::MeterWithoutHistory { meter } => write!(
                f,
                "meter {meter:?} needs a model history to align against, but trace_capacity is 0"
            ),
            FacilityError::Solve(e) => write!(f, "refit failed: {e}"),
            FacilityError::IllConditioned { condition, limit } => write!(
                f,
                "refit rejected: condition estimate {condition:.3e} exceeds {limit:.3e}"
            ),
            FacilityError::OutlierContaminated { outliers, screened } => write!(
                f,
                "refit rejected: {outliers}/{screened} recent samples are outliers"
            ),
            FacilityError::InsufficientReadings { have, need } => {
                write!(f, "alignment needs {need} readings, have {have}")
            }
            FacilityError::AlignmentLowScore { score, min } => {
                write!(f, "alignment rejected: best correlation {score:.3} below {min:.3}")
            }
            FacilityError::AlignmentAmbiguous { best, runner_up, margin } => write!(
                f,
                "alignment ambiguous: {best} vs {runner_up} within {margin:.3} correlation"
            ),
            FacilityError::CounterAnomaly { core } => {
                write!(f, "impossible counter delta on core {core}")
            }
        }
    }
}

impl std::error::Error for FacilityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FacilityError::Solve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SolveError> for FacilityError {
    fn from(e: SolveError) -> FacilityError {
        FacilityError::Solve(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let cases: Vec<(FacilityError, &str)> = vec![
            (FacilityError::CalibrationMissing, "calibration"),
            (FacilityError::MeterMissing, "meter"),
            (FacilityError::MeterWithoutHistory { meter: "on-chip" }, "trace_capacity"),
            (FacilityError::Solve(SolveError::Singular), "singular"),
            (FacilityError::IllConditioned { condition: 1e12, limit: 1e10 }, "condition"),
            (
                FacilityError::OutlierContaminated { outliers: 5, screened: 10 },
                "5/10",
            ),
            (FacilityError::InsufficientReadings { have: 1, need: 3 }, "readings"),
            (FacilityError::AlignmentLowScore { score: 0.1, min: 0.4 }, "correlation"),
            (
                FacilityError::AlignmentAmbiguous {
                    best: SimDuration::from_millis(1),
                    runner_up: SimDuration::from_millis(9),
                    margin: 0.01,
                },
                "ambiguous",
            ),
            (FacilityError::CounterAnomaly { core: 2 }, "core 2"),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle), "{e} missing {needle}");
            assert!(!e.kind().is_empty());
            assert!(e.kind().chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }

    #[test]
    fn solve_error_converts_and_chains() {
        let e: FacilityError = SolveError::Singular.into();
        assert_eq!(e, FacilityError::Solve(SolveError::Singular));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&FacilityError::MeterMissing).is_none());
    }
}
