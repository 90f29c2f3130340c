//! # htd-store — the durable artifact store
//!
//! A versioned, checksummed, line-oriented text format for every durable
//! value in the detection pipeline: campaign plans, calibrations,
//! acquisitions, golden references, per-channel Gaussian fits, scored
//! channel populations, rendered multi-channel reports, and the composite
//! golden or reference-free characterization that lets `htd score` run
//! against a population that was characterized once, possibly in another
//! process, on another day.
//!
//! Every artifact is framed the same way:
//!
//! ```text
//! htdstore 1 <kind>
//! <kind-specific body lines>
//! checksum fnv1a64 <16 hex digits>
//! ```
//!
//! The checksum covers every byte before the trailer line, so truncation,
//! bit flips and hand edits are all rejected before any body line is
//! interpreted. Floats are written with Rust's shortest round-trip
//! `Display`, so a load always reproduces bit-identical values — scoring
//! against a loaded golden artifact equals scoring in-memory, exactly.
//!
//! Parsers are strict and total: every malformed input yields an
//! [`Error::Format`] carrying the origin (path or `"<memory>"`) and the
//! 1-based offending line; the store never panics on bad input.
//!
//! ```
//! use htd_core::prelude::*;
//! let plan = CampaignPlan::traces(6, [0u8; 16], [1u8; 16], 42);
//! let text = htd_store::to_text(&plan);
//! let back: CampaignPlan = htd_store::from_text(&text).unwrap();
//! assert_eq!(back, plan);
//! ```

mod blocks;
mod checksum;
mod format;
mod kinds;

pub use checksum::fnv1a64;
pub use format::{
    frame, quote, unquote, verify_frame, FrameError, FORMAT_VERSION, IN_MEMORY, MAGIC,
};
pub use kinds::{
    Artifact, ChannelFit, CharacterizationArtifact, GoldenArtifact, ReferenceFreeArtifact,
    StoredCharacterization,
};

/// The `classifier` artifact: a trained logistic-regression model,
/// re-exported under its store-facing name so consumers (CLI, serve) can
/// speak about it without depending on `htd-stats` directly.
pub use htd_stats::logistic::LogisticModel as ClassifierModel;

use htd_core::channel::Channel;
use htd_core::fusion::Reference;
use htd_core::{CampaignPlan, Error};

use format::{unframe, BodyWriter};

/// The artifact kind declared on a store file's header line, if the
/// header is even shaped like one. This is a *sniff*, not a validation —
/// full framing and checksum checks happen at load; use it only to
/// decide which loader to dispatch to.
pub fn sniff_kind(text: &str) -> Option<&str> {
    let header = text.lines().next()?;
    let mut words = header.split(' ');
    (words.next() == Some(MAGIC))
        .then(|| words.nth(1))
        .flatten()
}

/// Either artifact kind `htd score` / `htd serve` can score a suspect
/// against: the golden characterization or its reference-free
/// counterpart. Dispatch is by the header's kind token, so one loader
/// serves both modes.
#[derive(Debug, Clone, PartialEq)]
pub enum ScorableArtifact {
    /// A `golden` artifact (golden-reference mode).
    Golden(GoldenArtifact),
    /// A `reffree` artifact (reference-free mode).
    ReferenceFree(ReferenceFreeArtifact),
}

impl ScorableArtifact {
    /// Parses whichever scorable kind `text` declares, labelling errors
    /// with `origin`. Unknown kinds fall through to the golden parser so
    /// its kind mismatch carries the diagnostic.
    ///
    /// # Errors
    ///
    /// [`Error::Format`] on any framing, checksum, grammar or value
    /// violation of the declared kind.
    pub fn from_text_at(text: &str, origin: &str) -> Result<Self, Error> {
        Ok(Self::parse(text, origin, false, &htd_obs::Obs::noop())?.artifact)
    }

    /// Reads whichever scorable kind the file at `path` declares, with
    /// the store-I/O observability of [`load_with`]. The file is read
    /// once; its kind is sniffed from the same text that is parsed. With
    /// `salvage`, a damaged body is recovered block by block as in
    /// [`from_text_salvage`], and a file that was not pristine counts in
    /// `store.read.salvaged`; otherwise the result is always pristine.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on filesystem failure; [`Error::Format`] on
    /// malformed content (or, under `salvage`, a damaged header).
    pub fn load_with(
        path: impl AsRef<std::path::Path>,
        obs: &htd_obs::Obs,
        salvage: bool,
    ) -> Result<Salvaged<Self>, Error> {
        read_with(path.as_ref(), obs, |text, origin| {
            Self::parse(text, origin, salvage, obs)
        })
    }

    /// Dispatches `text` to the parser of the kind its header declares.
    fn parse(
        text: &str,
        origin: &str,
        salvage: bool,
        obs: &htd_obs::Obs,
    ) -> Result<Salvaged<Self>, Error> {
        Ok(match sniff_kind(text) {
            Some(ReferenceFreeArtifact::KIND) => {
                parse_with(text, origin, salvage, obs)?.map(ScorableArtifact::ReferenceFree)
            }
            _ => parse_with(text, origin, salvage, obs)?.map(ScorableArtifact::Golden),
        })
    }

    /// Writes the artifact to `path` (see [`save_with`]).
    ///
    /// # Errors
    ///
    /// [`Error::Io`] carrying the path on any filesystem failure.
    pub fn save_with(
        &self,
        path: impl AsRef<std::path::Path>,
        obs: &htd_obs::Obs,
    ) -> Result<(), Error> {
        match self {
            ScorableArtifact::Golden(a) => save_with(path, a, obs),
            ScorableArtifact::ReferenceFree(a) => save_with(path, a, obs),
        }
    }

    /// The stored characterization, as the scoring pipeline consumes it.
    pub fn reference(&self) -> &dyn Reference {
        match self {
            ScorableArtifact::Golden(a) => a.characterization(),
            ScorableArtifact::ReferenceFree(a) => a.characterization(),
        }
    }

    /// The campaign plan behind either kind.
    pub fn plan(&self) -> &CampaignPlan {
        self.reference().plan()
    }

    /// Rebuilds the live channels the stored specs describe, in order.
    pub fn build_channels(&self) -> Vec<Box<dyn Channel>> {
        match self {
            ScorableArtifact::Golden(a) => a.build_channels(),
            ScorableArtifact::ReferenceFree(a) => a.build_channels(),
        }
    }
}

/// FNV-1a digest of a campaign plan's store text: the canonical identity
/// of a campaign across the pipeline. Run manifests stamp it, the serve
/// cache keys golden artifacts by it, and the shard router partitions
/// suspects with it (`plan_digest(plan) % shards`), so every consumer
/// shares this one implementation.
pub fn plan_digest(plan: &CampaignPlan) -> u64 {
    fnv1a64(to_text(plan).as_bytes())
}

/// [`plan_digest`] rendered in the form manifests and the serve protocol
/// print: `fnv1a64:<16 lowercase hex digits>`.
pub fn plan_digest_hex(plan: &CampaignPlan) -> String {
    format!("fnv1a64:{:016x}", plan_digest(plan))
}

/// Renders an artifact to its full framed text.
pub fn to_text<A: Artifact>(artifact: &A) -> String {
    let mut w = BodyWriter::new();
    artifact.write_body(&mut w);
    frame(MAGIC, FORMAT_VERSION, A::KIND, &w.finish())
}

/// Parses an artifact from framed text produced by [`to_text`], labelling
/// any error with the in-memory origin.
///
/// # Errors
///
/// [`Error::Format`] on any framing, checksum, version, kind, grammar or
/// value violation.
pub fn from_text<A: Artifact>(text: &str) -> Result<A, Error> {
    from_text_at(text, IN_MEMORY)
}

/// [`from_text`] with an explicit origin label for error messages.
///
/// # Errors
///
/// [`Error::Format`] on any framing, checksum, version, kind, grammar or
/// value violation.
pub fn from_text_at<A: Artifact>(text: &str, origin: &str) -> Result<A, Error> {
    let mut p = unframe(text, origin, A::KIND)?;
    let artifact = A::parse_body(&mut p)?;
    p.finish()?;
    Ok(artifact)
}

/// Writes an artifact to `path`.
///
/// # Errors
///
/// [`Error::Io`] carrying the path on any filesystem failure.
pub fn save<A: Artifact>(path: impl AsRef<std::path::Path>, artifact: &A) -> Result<(), Error> {
    save_with(path, artifact, &htd_obs::Obs::noop())
}

/// [`save`] with store-I/O observability: records a `store.write` span
/// plus `store.write.files` / `store.write.bytes` counters. The written
/// bytes are the artifact's deterministic store text, so the byte
/// counter is as reproducible as the artifact itself.
///
/// # Errors
///
/// [`Error::Io`] carrying the path on any filesystem failure.
pub fn save_with<A: Artifact>(
    path: impl AsRef<std::path::Path>,
    artifact: &A,
    obs: &htd_obs::Obs,
) -> Result<(), Error> {
    let _span = obs.span("store.write");
    let path = path.as_ref();
    let text = to_text(artifact);
    obs.incr("store.write.files");
    obs.add("store.write.bytes", text.len() as u64);
    std::fs::write(path, text).map_err(|e| Error::io(path, e))
}

/// Reads an artifact from `path`.
///
/// # Errors
///
/// [`Error::Io`] on filesystem failure; [`Error::Format`] (carrying the
/// path and line) on any malformed content.
pub fn load<A: Artifact>(path: impl AsRef<std::path::Path>) -> Result<A, Error> {
    load_with(path, &htd_obs::Obs::noop())
}

/// [`load`] with store-I/O observability: records a `store.read` span
/// plus `store.read.files` / `store.read.bytes` counters.
///
/// # Errors
///
/// [`Error::Io`] on filesystem failure; [`Error::Format`] (carrying the
/// path and line) on any malformed content.
pub fn load_with<A: Artifact>(
    path: impl AsRef<std::path::Path>,
    obs: &htd_obs::Obs,
) -> Result<A, Error> {
    read_with(path.as_ref(), obs, from_text_at)
}

/// Reads the file at `path` under a `store.read` span, counting it in
/// `store.read.files` / `store.read.bytes`, and parses the text with
/// `parse(text, origin)`, where the origin is the path.
fn read_with<T>(
    path: &std::path::Path,
    obs: &htd_obs::Obs,
    parse: impl FnOnce(&str, &str) -> Result<T, Error>,
) -> Result<T, Error> {
    let _span = obs.span("store.read");
    let text = std::fs::read_to_string(path).map_err(|e| Error::io(path, e))?;
    obs.incr("store.read.files");
    obs.add("store.read.bytes", text.len() as u64);
    parse(&text, &path.display().to_string())
}

/// Parses `text` strictly, or with `salvage` through the salvage reader,
/// counting a non-pristine salvage in `store.read.salvaged`.
fn parse_with<A: Artifact>(
    text: &str,
    origin: &str,
    salvage: bool,
    obs: &htd_obs::Obs,
) -> Result<Salvaged<A>, Error> {
    if !salvage {
        return Ok(Salvaged {
            artifact: from_text_at(text, origin)?,
            recovered: false,
            dropped_lines: 0,
        });
    }
    let salvaged = from_text_salvage_at(text, origin)?;
    if salvaged.recovered {
        obs.incr("store.read.salvaged");
    }
    Ok(salvaged)
}

/// An artifact read back by the salvage path, with its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Salvaged<A> {
    /// The recovered value.
    pub artifact: A,
    /// `false` only when **nothing** was dropped *and* the checksum
    /// trailer re-verified over exactly the kept lines — i.e. the file is
    /// pristine. Dropped lines, a missing or malformed trailer, and even
    /// a parseable bit-flip that stales the checksum all set this flag,
    /// so a salvaged artifact can never masquerade as a pristine one.
    pub recovered: bool,
    /// Number of body lines dropped to recover the value.
    pub dropped_lines: usize,
}

impl<A> Salvaged<A> {
    /// The same provenance around a transformed value.
    pub fn map<B>(self, f: impl FnOnce(A) -> B) -> Salvaged<B> {
        Salvaged {
            artifact: f(self.artifact),
            recovered: self.recovered,
            dropped_lines: self.dropped_lines,
        }
    }
}

/// Best-effort parse of a (possibly damaged) artifact: the header must
/// be intact, but a corrupt or truncated body is recovered block by
/// block where the kind supports it (see
/// [`Artifact::parse_body_salvage`]), and the checksum trailer is
/// re-verified over only the kept lines to decide pristine vs recovered.
///
/// # Errors
///
/// [`Error::Format`] when the header is damaged or not even a partial
/// value survives.
pub fn from_text_salvage<A: Artifact>(text: &str) -> Result<Salvaged<A>, Error> {
    from_text_salvage_at(text, IN_MEMORY)
}

/// [`from_text_salvage`] with an explicit origin label for errors.
///
/// # Errors
///
/// [`Error::Format`] when the header is damaged or not even a partial
/// value survives.
pub fn from_text_salvage_at<A: Artifact>(text: &str, origin: &str) -> Result<Salvaged<A>, Error> {
    let mut fr = format::unframe_salvage(text, origin, A::KIND)?;
    let (artifact, mut dropped) = A::parse_body_salvage(&mut fr.parser)?;
    // Whatever the kind's parser left unconsumed did not make it into
    // the value: it counts as dropped, and poisons the checksum below.
    while fr.parser.peek().is_some() {
        dropped.push(fr.parser.save());
        let _ = fr.parser.next_line();
    }
    dropped.sort_unstable();
    dropped.dedup();
    // Re-verify the trailer over exactly the lines that were kept. Only
    // a file with every line kept *and* a matching checksum is pristine;
    // in particular a bit-flip that still parses stales the checksum and
    // is reported as recovered.
    let recovered = match fr.declared {
        None => true,
        Some(declared) => {
            let mut covered = String::with_capacity(text.len());
            covered.push_str(fr.header);
            covered.push('\n');
            let mut next_dropped = dropped.iter().copied().peekable();
            for (i, line) in fr.parser.lines().iter().enumerate() {
                if next_dropped.peek() == Some(&i) {
                    next_dropped.next();
                    continue;
                }
                covered.push_str(line);
                covered.push('\n');
            }
            fnv1a64(covered.as_bytes()) != declared
        }
    };
    Ok(Salvaged {
        artifact,
        recovered,
        dropped_lines: dropped.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_core::campaign::CampaignPlan;
    use htd_core::channel::{Acquisition, Calibration, ChannelSpec, GoldenReference};
    use htd_core::delay_detect::DelayMatrix;
    use htd_core::em_detect::TraceMetric;
    use htd_core::fusion::{
        ChannelResult, ChannelState, GoldenCharacterization, MultiChannelReport, MultiChannelRow,
        ScoredChannel,
    };
    use htd_core::resilience::ChannelHealth;
    use htd_em::Trace;
    use htd_faults::FaultPlan;
    use htd_stats::Gaussian;
    use htd_timing::GlitchParams;

    fn sample_plan() -> CampaignPlan {
        CampaignPlan::with_random_pairs(6, 2, 3, [0x13; 16], [0x7f; 16], 42)
    }

    fn sample_glitch() -> GlitchParams {
        GlitchParams {
            start_period_ps: 5200.0,
            step_ps: 25.0,
            steps: 96,
            setup_ps: 180.0,
            noise_ps: 12.5,
        }
    }

    fn roundtrip<A: Artifact + PartialEq + std::fmt::Debug>(artifact: &A) {
        let text = to_text(artifact);
        let back: A = from_text(&text).unwrap();
        assert_eq!(&back, artifact, "round-trip of {}:\n{text}", A::KIND);
    }

    #[test]
    fn every_kind_roundtrips() {
        roundtrip(&sample_plan());
        roundtrip(&Calibration::None);
        roundtrip(&Calibration::Glitch(sample_glitch()));
        roundtrip(&Acquisition::Trace(Trace::new(
            vec![0.25, -1.5, 1.0 / 3.0, 0.0],
            125.0,
        )));
        roundtrip(&Acquisition::Matrix(DelayMatrix {
            mean_onset_steps: vec![vec![4.5, 6.0], vec![5.25, 7.125]],
        }));
        roundtrip(&GoldenReference::MeanTrace(Trace::new(
            vec![0.5; 17],
            125.0,
        )));
        roundtrip(&GoldenReference::MeanMatrix(DelayMatrix {
            mean_onset_steps: vec![vec![3.0; 4]; 2],
        }));
        roundtrip(&ChannelFit {
            channel: "EM".to_string(),
            fit: Gaussian::new(300261.7222222223, 1234.5).unwrap(),
        });
        roundtrip(&ScoredChannel {
            channel: "delay".to_string(),
            golden: (0..19).map(|i| f64::from(i) * 0.37).collect(),
            infected: vec![8.5, 9.25, 10.0],
        });
    }

    /// The plan digest is pinned to a literal value: the serve wire
    /// identity, shard assignment (`digest % shards`) and manifest
    /// provenance all depend on it never drifting across releases. A
    /// change here is a shard-invalidation event and must be deliberate.
    #[test]
    fn plan_digest_is_pinned() {
        let plan = CampaignPlan::with_random_pairs(6, 2, 3, [0x13; 16], [0x7f; 16], 42);
        let digest = plan_digest(&plan);
        assert_eq!(digest, fnv1a64(to_text(&plan).as_bytes()));
        assert_eq!(digest, 0x56beaff94e0d743d);
        assert_eq!(plan_digest_hex(&plan), "fnv1a64:56beaff94e0d743d");
    }

    #[test]
    fn report_roundtrips_including_quoting_edge_cases() {
        let result = |channel: &str| ChannelResult {
            channel: channel.to_string(),
            mu: 12.5,
            sigma: 1.0 / 3.0,
            analytic_fn_rate: 1e-9,
            empirical_fn_rate: 0.0,
            empirical_fp_rate: 0.125,
        };
        let report = MultiChannelReport {
            rows: vec![
                MultiChannelRow {
                    name: "ht with \"quotes\"\nand a newline".to_string(),
                    size_fraction: 0.0123,
                    channels: vec![result("EM"), result("delay")],
                    fused: Some(result("fused")),
                },
                MultiChannelRow {
                    name: "ht-seq".to_string(),
                    size_fraction: 0.5,
                    channels: vec![result("EM")],
                    fused: None,
                },
            ],
            n_dies: 20,
            channel_names: vec!["EM".to_string(), "delay".to_string()],
            health: vec![],
        };
        roundtrip(&report);

        // A degraded report carries its health section through the store.
        let mut health = ChannelHealth::pristine("EM \"scope\"", 20);
        health.retried = 3;
        health.dropped = 2;
        let mut lost = ChannelHealth::pristine("delay", 4);
        lost.lost = true;
        let degraded = MultiChannelReport {
            health: vec![health, lost],
            ..report
        };
        roundtrip(&degraded);
    }

    #[test]
    fn fault_plans_roundtrip_and_reject_bad_rates() {
        roundtrip(&FaultPlan::none());
        roundtrip(&FaultPlan {
            seed: u64::MAX,
            acquire_rate: 0.2,
            rep_rate: 1.0 / 3.0,
            calibrate_rate: 0.0,
            store_rate: 1.0,
        });
        let bad = frame(
            MAGIC,
            FORMAT_VERSION,
            "faultplan",
            "seed 0\nrates 0 1.5 0 0\n",
        );
        let err = from_text::<FaultPlan>(&bad).unwrap_err();
        assert!(err.to_string().contains("outside [0, 1]"), "{err}");
    }

    #[test]
    fn golden_artifact_roundtrips_and_rebuilds_channels() {
        let plan = sample_plan();
        let charac = GoldenCharacterization {
            plan: plan.clone(),
            states: vec![
                ChannelState::pristine(
                    "EM",
                    Calibration::None,
                    GoldenReference::MeanTrace(Trace::new(vec![0.25; 9], 125.0)),
                    (0..plan.n_dies).map(|i| i as f64 * 1.5).collect(),
                ),
                ChannelState::pristine(
                    "delay",
                    Calibration::Glitch(sample_glitch()),
                    GoldenReference::MeanMatrix(DelayMatrix {
                        mean_onset_steps: vec![vec![4.0; 3]; 2],
                    }),
                    (0..plan.n_dies).map(|i| 40.0 - i as f64).collect(),
                ),
            ],
            lost: vec![],
        };
        let artifact = GoldenArtifact::new(
            vec![
                ChannelSpec::Em(TraceMetric::SumOfLocalMaxima),
                ChannelSpec::Delay,
            ],
            charac,
        )
        .unwrap();
        roundtrip(&artifact);
        let channels = artifact.build_channels();
        assert_eq!(channels.len(), 2);
        assert_eq!(channels[0].name(), "EM");
        assert_eq!(channels[1].name(), "delay");
    }

    #[test]
    fn golden_artifact_rejects_mismatched_specs() {
        let plan = sample_plan();
        let state = ChannelState::pristine(
            "EM",
            Calibration::None,
            GoldenReference::MeanTrace(Trace::new(vec![0.0; 4], 125.0)),
            vec![0.0; plan.n_dies],
        );
        let charac = GoldenCharacterization {
            plan: plan.clone(),
            states: vec![state.clone()],
            lost: vec![],
        };
        // Wrong channel name for the spec.
        assert!(GoldenArtifact::new(vec![ChannelSpec::Delay], charac.clone()).is_err());
        // Wrong spec count.
        assert!(GoldenArtifact::new(
            vec![
                ChannelSpec::Em(TraceMetric::SumOfLocalMaxima),
                ChannelSpec::Delay
            ],
            charac,
        )
        .is_err());
        // Score count disagreeing with the kept-die count.
        let short = GoldenCharacterization {
            plan,
            states: vec![ChannelState {
                scores: vec![0.0; 2],
                ..state
            }],
            lost: vec![],
        };
        assert!(
            GoldenArtifact::new(vec![ChannelSpec::Em(TraceMetric::SumOfLocalMaxima)], short)
                .is_err()
        );
    }

    #[test]
    fn a_duplicate_channel_block_is_rejected() {
        let plan = sample_plan();
        let charac = GoldenCharacterization {
            plan: plan.clone(),
            states: vec![ChannelState::pristine(
                "EM",
                Calibration::None,
                GoldenReference::MeanTrace(Trace::new(vec![0.25; 9], 125.0)),
                (0..plan.n_dies).map(|i| i as f64).collect(),
            )],
            lost: vec![],
        };
        let spec = ChannelSpec::Em(TraceMetric::SumOfLocalMaxima);
        let artifact = GoldenArtifact::new(vec![spec], charac).unwrap();
        // Checksum-valid text storing the EM block twice.
        let text = to_text(&artifact);
        let body_start = text.find('\n').unwrap() + 1;
        let body_end = text.rfind("checksum ").unwrap();
        let body = &text[body_start..body_end];
        let block = &body[body.find("channel ").unwrap()..];
        let doubled = format!("{}{block}", body.replacen("channels 1", "channels 2", 1));
        let err = from_text::<GoldenArtifact>(&frame(
            MAGIC,
            FORMAT_VERSION,
            GoldenArtifact::KIND,
            &doubled,
        ))
        .unwrap_err();
        assert!(
            err.to_string().contains("expected distinct channel names"),
            "{err}"
        );
    }

    #[test]
    fn wrong_kind_and_tampering_are_rejected_with_context() {
        let plan = sample_plan();
        let text = to_text(&plan);
        // Parsing a plan as a calibration names the kind mismatch.
        let err = from_text::<Calibration>(&text).unwrap_err();
        assert!(err.to_string().contains("expected `calibration`"), "{err}");
        // A flipped digit fails the checksum before any body parsing.
        let tampered = text.replacen("dies 6", "dies 8", 1);
        let err = from_text::<CampaignPlan>(&tampered).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        // Errors carry the origin label.
        assert!(err.to_string().starts_with(IN_MEMORY), "{err}");
    }

    #[test]
    fn a_glitch_calibration_without_steps_is_unphysical() {
        // Checksum-valid text: only the strict value check can refuse it.
        let zero = Calibration::Glitch(GlitchParams {
            steps: 0,
            ..sample_glitch()
        });
        let err = from_text::<Calibration>(&to_text(&zero)).unwrap_err();
        assert!(
            err.to_string().contains("unphysical glitch calibration"),
            "{err}"
        );
        let one = Calibration::Glitch(GlitchParams {
            steps: 1,
            ..sample_glitch()
        });
        roundtrip(&one);
    }

    #[test]
    fn truncation_never_panics() {
        let plan = sample_plan();
        let text = to_text(&plan);
        for cut in 0..text.len() {
            assert!(
                from_text::<CampaignPlan>(&text[..cut]).is_err(),
                "prefix of {cut} bytes must not parse"
            );
        }
    }

    #[test]
    fn save_and_load_roundtrip_through_the_filesystem() {
        let dir = std::env::temp_dir().join("htd-store-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.htd");
        let plan = sample_plan();
        save(&path, &plan).unwrap();
        let back: CampaignPlan = load(&path).unwrap();
        assert_eq!(back, plan);
        // Loading a missing file is an Io error carrying the path.
        let missing = dir.join("does-not-exist.htd");
        let err = load::<CampaignPlan>(&missing).unwrap_err();
        assert!(matches!(err, Error::Io { .. }), "{err}");
        assert!(err.to_string().contains("does-not-exist.htd"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
