//! Typed simulation errors.
//!
//! The engine used to enforce its input contract with `assert!`s and
//! `expect()`s, which abort the whole process — unacceptable inside a
//! multi-thousand-cell sweep where one malformed policy decision should
//! fail one cell, not the run. [`SimRunner::execute`] surfaces those
//! conditions as [`SimError`] instead.
//!
//! [`SimRunner::execute`]: crate::SimRunner::execute

use std::fmt;

use gaia_time::{Minutes, SimTime};
use gaia_workload::JobId;

/// A scheduling policy returned a decision the engine cannot execute.
///
/// These are contract violations by the policy, not runtime conditions:
/// a correct policy never produces them for any workload or trace.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyError {
    /// The decision's planned start precedes the job's arrival.
    StartBeforeArrival {
        /// The job the decision was for.
        job: JobId,
        /// The job's arrival instant.
        arrival: SimTime,
        /// The (invalid) planned start.
        planned: SimTime,
    },
    /// A suspend-resume plan's segment lengths do not sum to the job
    /// length (truncated or over-long plans both mis-account carbon).
    PlanLengthMismatch {
        /// The job the plan was for.
        job: JobId,
        /// Total planned execution time.
        planned: Minutes,
        /// The job's actual length.
        length: Minutes,
    },
    /// An elastic plan's serial-equivalent work does not cover the
    /// job's length (`Σ len × speedup(width) < length`): the job would
    /// end with work left undone.
    ElasticPlanShortfall {
        /// The job the plan was for.
        job: JobId,
        /// Total planned serial-equivalent work, in milli-minutes.
        work_milli: u64,
        /// Required serial-equivalent work (`length × 1000`).
        needed_milli: u64,
    },
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::StartBeforeArrival {
                job,
                arrival,
                planned,
            } => write!(
                f,
                "policy scheduled {job} at {planned}, before its arrival at {arrival}"
            ),
            PolicyError::PlanLengthMismatch {
                job,
                planned,
                length,
            } => write!(
                f,
                "segment plan for {job} covers {planned} but the job is {length} long"
            ),
            PolicyError::ElasticPlanShortfall {
                job,
                work_milli,
                needed_milli,
            } => write!(
                f,
                "elastic plan for {job} completes {work_milli} milli-minutes \
                 of work but the job needs {needed_milli}"
            ),
        }
    }
}

impl std::error::Error for PolicyError {}

/// An error produced while replaying a workload trace.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The policy violated the decision contract (see [`PolicyError`]).
    Policy(PolicyError),
    /// The engine's own bookkeeping broke an internal invariant — a
    /// simulator bug, reported instead of unwinding so a sweep can
    /// record which cell hit it.
    Internal(String),
    /// A fault schedule could not be applied to this run — e.g. a trace
    /// gap that falls outside the carbon trace, or covers it entirely.
    /// The fault plan itself was valid; it just does not fit this input.
    Fault(String),
}

impl SimError {
    /// An [`SimError::Internal`] with the given description.
    pub(crate) fn internal(message: impl Into<String>) -> SimError {
        SimError::Internal(message.into())
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Policy(error) => write!(f, "invalid policy decision: {error}"),
            SimError::Internal(message) => write!(f, "engine invariant broken: {message}"),
            SimError::Fault(message) => write!(f, "fault schedule rejected: {message}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Policy(error) => Some(error),
            SimError::Internal(_) | SimError::Fault(_) => None,
        }
    }
}

impl From<PolicyError> for SimError {
    fn from(error: PolicyError) -> SimError {
        SimError::Policy(error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_job_and_instants() {
        let e = PolicyError::StartBeforeArrival {
            job: JobId(7),
            arrival: SimTime::from_hours(2),
            planned: SimTime::from_hours(1),
        };
        let text = e.to_string();
        assert!(text.contains("before its arrival"), "{text}");

        let e = SimError::from(PolicyError::PlanLengthMismatch {
            job: JobId(3),
            planned: Minutes::new(30),
            length: Minutes::new(60),
        });
        let text = e.to_string();
        assert!(text.starts_with("invalid policy decision"), "{text}");
        assert!(text.contains("30"), "{text}");
    }

    #[test]
    fn internal_errors_carry_their_message() {
        let e = SimError::internal("no stored plan decision");
        assert_eq!(
            e.to_string(),
            "engine invariant broken: no stored plan decision"
        );
        use std::error::Error as _;
        assert!(e.source().is_none());
        let policy_err: SimError = PolicyError::StartBeforeArrival {
            job: JobId(0),
            arrival: SimTime::ORIGIN,
            planned: SimTime::ORIGIN,
        }
        .into();
        assert!(policy_err.source().is_some());
    }

    #[test]
    fn elastic_shortfall_names_both_amounts() {
        let e = PolicyError::ElasticPlanShortfall {
            job: JobId(4),
            work_milli: 1_500,
            needed_milli: 2_000,
        };
        let text = e.to_string();
        assert!(text.contains("1500 milli-minutes"), "{text}");
        assert!(text.ends_with("needs 2000"), "{text}");
    }

    #[test]
    fn fault_errors_name_the_rejection_and_have_no_source() {
        use std::error::Error as _;
        let e = SimError::Fault("gap covers the whole trace".into());
        assert_eq!(
            e.to_string(),
            "fault schedule rejected: gap covers the whole trace"
        );
        assert!(e.source().is_none());
        let policy = PolicyError::PlanLengthMismatch {
            job: JobId(1),
            planned: Minutes::new(5),
            length: Minutes::new(6),
        };
        let wrapped = SimError::from(policy.clone());
        assert_eq!(
            wrapped.source().map(|s| s.to_string()),
            Some(policy.to_string())
        );
    }
}
