//! The unified error type of the detection methodology.
//!
//! Every fallible public API in `htd-core` returns [`Error`]. Substrate
//! failures (netlist validation, placement, trojan insertion, statistics)
//! convert losslessly via `From`, so `?` threads them through campaign
//! code without boxing; methodology-level failures (degenerate
//! populations, undersized campaigns) get their own typed variants that
//! callers can match on.

use std::fmt;

use htd_fabric::FabricError;
use htd_netlist::NetlistError;
use htd_stats::StatsError;
use htd_trojan::TrojanError;

/// Errors reported by the detection pipelines.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// A metric population had no spread (or too few samples) to fit the
    /// Gaussian model of Eq. (5) — e.g. constant metrics from a campaign
    /// with zero measurement noise.
    DegeneratePopulation {
        /// Channel whose population failed to fit (`"EM"`, `"delay"`, …).
        channel: String,
        /// Samples in the degenerate population.
        samples: usize,
        /// The underlying fit failure.
        source: StatsError,
    },
    /// A population-level stage needs more dies than the plan provides.
    NotEnoughDies {
        /// Dies supplied.
        got: usize,
        /// Dies required.
        need: usize,
    },
    /// More pairs were requested than the golden campaign holds. Eq. (4)
    /// compares a DUT row against the golden row measured with the *same*
    /// pair, so an examination cannot exceed the characterised campaign.
    PairCountExceedsCampaign {
        /// Pairs requested for the examination.
        requested: usize,
        /// Pairs available in the golden campaign.
        available: usize,
    },
    /// A stage received an empty input it cannot reduce (e.g. a t-test
    /// over zero traces, a golden reference over zero acquisitions).
    EmptyPopulation {
        /// What was empty.
        what: &'static str,
    },
    /// A channel stage was fed an acquisition or reference of the wrong
    /// shape: another channel's (a trace where a matrix was expected, or
    /// vice versa), or a stored reference that does not match what the
    /// lab acquires.
    ChannelShapeMismatch {
        /// Channel reporting the mismatch.
        channel: String,
        /// What the stage expected.
        expected: &'static str,
    },
    /// Two traces that must be compared sample-by-sample have different
    /// lengths.
    TraceLengthMismatch {
        /// Samples in the reference trace.
        expected: usize,
        /// Samples in the offending trace.
        got: usize,
    },
    /// A probability parameter fell outside `(0, 1)`.
    ProbabilityOutOfRange {
        /// The offending value.
        value: f64,
    },
    /// A channel exhausted its acquisition retry budget on one die and
    /// the campaign's policy does not allow degraded results.
    AcquisitionExhausted {
        /// Channel whose acquisition kept failing.
        channel: String,
        /// Die index the acquisition failed on.
        die: usize,
        /// Attempts spent (first try plus retries).
        attempts: usize,
    },
    /// A channel's calibration failed to converge within the retry
    /// budget and the campaign's policy does not allow degraded results.
    CalibrationDiverged {
        /// Channel whose calibration diverged.
        channel: String,
        /// Attempts spent (first try plus retries).
        attempts: usize,
    },
    /// Degradation left a channel with too few dies to form a
    /// population.
    ChannelDegraded {
        /// The degraded channel.
        channel: String,
        /// Dies that survived acquisition.
        kept: usize,
        /// Minimum dies the stage needs.
        need: usize,
    },
    /// A generated (trojaned) netlist failed the structural lint gate
    /// that every zoo/campaign design must pass before characterization.
    LintFailed {
        /// Name of the design the lints ran on.
        design: String,
        /// Findings, each formatted as `pass: message`.
        lints: Vec<String>,
    },
    /// An underlying statistics operation failed.
    Stats(StatsError),
    /// An underlying netlist operation failed.
    Netlist(NetlistError),
    /// An underlying placement/fabric operation failed.
    Fabric(FabricError),
    /// An underlying trojan insertion failed.
    Trojan(TrojanError),
    /// An I/O failure on a named file (CSV export, artifact store).
    Io {
        /// Path of the file the operation failed on.
        path: String,
        /// The underlying I/O failure.
        source: std::io::Error,
    },
    /// A stored artifact failed strict parsing (bad syntax, version or
    /// checksum mismatch, truncated body).
    Format {
        /// Origin of the offending text (file path, or `"<memory>"`).
        path: String,
        /// 1-based line number of the first offending line (0 when the
        /// failure is not attributable to a single line).
        line: usize,
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::DegeneratePopulation {
                channel,
                samples,
                source,
            } => write!(
                f,
                "{channel} channel population of {samples} samples is degenerate: {source}"
            ),
            Error::NotEnoughDies { got, need } => {
                write!(f, "campaign needs at least {need} dies but got {got}")
            }
            Error::PairCountExceedsCampaign {
                requested,
                available,
            } => write!(
                f,
                "examination requested {requested} pairs but the golden campaign \
                 only characterised {available}"
            ),
            Error::EmptyPopulation { what } => write!(f, "empty population: {what}"),
            Error::ChannelShapeMismatch { channel, expected } => write!(
                f,
                "{channel} channel received data of the wrong shape (expected {expected})"
            ),
            Error::TraceLengthMismatch { expected, got } => write!(
                f,
                "trace of {got} samples cannot be compared against {expected}"
            ),
            Error::ProbabilityOutOfRange { value } => {
                write!(f, "probability {value} outside (0, 1)")
            }
            Error::AcquisitionExhausted {
                channel,
                die,
                attempts,
            } => write!(
                f,
                "{channel} channel acquisition on die {die} failed {attempts} \
                 attempt(s); re-run with a retry budget or allow degraded results"
            ),
            Error::CalibrationDiverged { channel, attempts } => write!(
                f,
                "{channel} channel calibration diverged after {attempts} attempt(s)"
            ),
            Error::ChannelDegraded {
                channel,
                kept,
                need,
            } => write!(
                f,
                "{channel} channel degraded to {kept} usable die(s); needs {need}"
            ),
            Error::LintFailed { design, lints } => {
                write!(
                    f,
                    "design `{design}` failed {} structural lint(s)",
                    lints.len()
                )?;
                if let Some(first) = lints.first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
            Error::Stats(e) => write!(f, "statistics error: {e}"),
            Error::Netlist(e) => write!(f, "netlist error: {e}"),
            Error::Fabric(e) => write!(f, "fabric error: {e}"),
            Error::Trojan(e) => write!(f, "trojan error: {e}"),
            Error::Io { path, source } => write!(f, "{path}: I/O error: {source}"),
            Error::Format { path, line, reason } => {
                if *line == 0 {
                    write!(f, "{path}: {reason}")
                } else {
                    write!(f, "{path}:{line}: {reason}")
                }
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::DegeneratePopulation { source, .. } => Some(source),
            Error::Stats(e) => Some(e),
            Error::Netlist(e) => Some(e),
            Error::Fabric(e) => Some(e),
            Error::Trojan(e) => Some(e),
            Error::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<StatsError> for Error {
    fn from(e: StatsError) -> Self {
        Error::Stats(e)
    }
}

impl From<NetlistError> for Error {
    fn from(e: NetlistError) -> Self {
        Error::Netlist(e)
    }
}

impl From<FabricError> for Error {
    fn from(e: FabricError) -> Self {
        Error::Fabric(e)
    }
}

impl From<TrojanError> for Error {
    fn from(e: TrojanError) -> Self {
        Error::Trojan(e)
    }
}

impl Error {
    /// Wraps an I/O failure with the path it occurred on.
    pub fn io(path: impl AsRef<std::path::Path>, source: std::io::Error) -> Self {
        Error::Io {
            path: path.as_ref().display().to_string(),
            source,
        }
    }

    /// A strict-parse failure at `line` (1-based; 0 for whole-file
    /// failures) of the artifact at `path`.
    pub fn format(path: impl Into<String>, line: usize, reason: impl Into<String>) -> Self {
        Error::Format {
            path: path.into(),
            line,
            reason: reason.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_both_counts() {
        let err = Error::PairCountExceedsCampaign {
            requested: 12,
            available: 4,
        };
        let msg = err.to_string();
        assert!(msg.contains("12") && msg.contains('4'), "{msg}");
        let err = Error::NotEnoughDies { got: 1, need: 2 };
        assert!(err.to_string().contains("at least 2"), "{err}");
    }

    #[test]
    fn io_and_format_variants_carry_file_context() {
        let e = Error::io(
            "/tmp/golden.htd",
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        assert!(e.to_string().contains("/tmp/golden.htd"), "{e}");
        assert!(std::error::Error::source(&e).is_some());

        let e = Error::format("golden.htd", 7, "checksum mismatch");
        assert_eq!(e.to_string(), "golden.htd:7: checksum mismatch");
        // Whole-file failures omit the line number.
        let e = Error::format("golden.htd", 0, "truncated artifact");
        assert_eq!(e.to_string(), "golden.htd: truncated artifact");
    }

    #[test]
    fn degradation_variants_name_the_channel_and_budget() {
        let e = Error::AcquisitionExhausted {
            channel: "EM".into(),
            die: 3,
            attempts: 4,
        };
        let msg = e.to_string();
        assert!(
            msg.contains("EM") && msg.contains("die 3") && msg.contains('4'),
            "{msg}"
        );
        let e = Error::CalibrationDiverged {
            channel: "delay".into(),
            attempts: 2,
        };
        assert!(e.to_string().contains("delay"), "{e}");
        let e = Error::ChannelDegraded {
            channel: "power".into(),
            kept: 1,
            need: 2,
        };
        let msg = e.to_string();
        assert!(
            msg.contains("power") && msg.contains('1') && msg.contains('2'),
            "{msg}"
        );
    }

    #[test]
    fn substrate_errors_convert_and_chain() {
        let e: Error = StatsError::NotEnoughSamples { got: 1, need: 2 }.into();
        assert!(matches!(e, Error::Stats(_)));
        assert!(std::error::Error::source(&e).is_some());
        let e = Error::DegeneratePopulation {
            channel: "EM".into(),
            samples: 3,
            source: StatsError::NonPositiveScale { value: 0.0 },
        };
        assert!(e.to_string().contains("EM"), "{e}");
        assert!(std::error::Error::source(&e).is_some());
    }
}
