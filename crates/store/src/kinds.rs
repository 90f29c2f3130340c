//! The [`Artifact`] trait and its implementation for every storable
//! kind: campaign plans, calibrations, acquisitions, golden references,
//! per-channel Gaussian fits, scored channels, rendered reports, and the
//! composite golden characterization.

use htd_core::campaign::CampaignPlan;
use htd_core::channel::{Acquisition, Calibration, Channel, ChannelSpec, GoldenReference};
use htd_core::fusion::{
    ChannelResult, ChannelState, GoldenCharacterization, MultiChannelReport, MultiChannelRow,
    Reference, ScoredChannel,
};
use htd_core::reffree::{ReferenceFreeCharacterization, ReferenceFreeFit, ReferenceFreeState};
use htd_core::resilience::ChannelHealth;
use htd_core::Error;
use htd_faults::FaultPlan;
use htd_stats::logistic::LogisticModel;
use htd_stats::Gaussian;

use crate::blocks::{
    parse_calibration, parse_f64_list, parse_payload, parse_plan, write_calibration,
    write_f64_list, write_payload, write_plan,
};
use crate::format::{
    fmt_f64, parse_f64, parse_u64, parse_usize, quote, unquote, BodyWriter, Parser,
};

/// A value with a durable text representation in the artifact store.
///
/// `write_body` and `parse_body` are exact inverses over the body lines;
/// the framing (header, checksum trailer) is handled by the store's
/// [`to_text`](crate::to_text) / [`from_text`](crate::from_text).
pub trait Artifact: Sized {
    /// The kind token written into the artifact header.
    const KIND: &'static str;

    /// Appends this value's body lines.
    fn write_body(&self, w: &mut BodyWriter);

    /// Parses a body written by [`Artifact::write_body`]. The caller
    /// checks that the body is fully consumed.
    ///
    /// # Errors
    ///
    /// [`Error::Format`] on any grammar or value violation.
    fn parse_body(p: &mut Parser<'_>) -> Result<Self, Error>;

    /// Best-effort variant of [`Artifact::parse_body`] for the salvage
    /// reader: recovers what it can from a damaged body, returning the
    /// value plus the 0-based body-line indices it had to drop. The
    /// default is fully strict — any damage fails the parse and nothing
    /// is ever dropped; kinds with block-structured bodies override this
    /// to skip corrupt blocks.
    ///
    /// # Errors
    ///
    /// [`Error::Format`] when not even a partial value can be recovered.
    fn parse_body_salvage(p: &mut Parser<'_>) -> Result<(Self, Vec<usize>), Error> {
        Ok((Self::parse_body(p)?, Vec::new()))
    }
}

impl Artifact for FaultPlan {
    const KIND: &'static str = "faultplan";

    fn write_body(&self, w: &mut BodyWriter) {
        w.line(format!("seed {}", self.seed));
        w.line(format!(
            "rates {} {} {} {}",
            fmt_f64(self.acquire_rate),
            fmt_f64(self.rep_rate),
            fmt_f64(self.calibrate_rate),
            fmt_f64(self.store_rate),
        ));
    }

    fn parse_body(p: &mut Parser<'_>) -> Result<Self, Error> {
        let seed = parse_u64(p.keyword_line("seed")?.trim()).map_err(|e| p.error(e))?;
        let rest = p.keyword_line("rates")?;
        let mut rates = [0.0f64; 4];
        let mut words = rest.split_whitespace();
        for r in &mut rates {
            let token = words.next().ok_or_else(|| {
                p.error("rates needs acquire, rep, calibrate and store probabilities")
            })?;
            *r = parse_f64(token).map_err(|e| p.error(e))?;
            if !(0.0..=1.0).contains(r) {
                return Err(p.error(format!("rate {} outside [0, 1]", fmt_f64(*r))));
            }
        }
        if words.next().is_some() {
            return Err(p.error("trailing tokens after rates"));
        }
        let [acquire_rate, rep_rate, calibrate_rate, store_rate] = rates;
        Ok(FaultPlan {
            seed,
            acquire_rate,
            rep_rate,
            calibrate_rate,
            store_rate,
        })
    }
}

impl Artifact for CampaignPlan {
    const KIND: &'static str = "plan";

    fn write_body(&self, w: &mut BodyWriter) {
        write_plan(w, self);
    }

    fn parse_body(p: &mut Parser<'_>) -> Result<Self, Error> {
        parse_plan(p)
    }
}

impl Artifact for Calibration {
    const KIND: &'static str = "calibration";

    fn write_body(&self, w: &mut BodyWriter) {
        write_calibration(w, self);
    }

    fn parse_body(p: &mut Parser<'_>) -> Result<Self, Error> {
        parse_calibration(p)
    }
}

impl Artifact for Acquisition {
    const KIND: &'static str = "acquisition";

    fn write_body(&self, w: &mut BodyWriter) {
        write_payload(w, &self.clone().into());
    }

    fn parse_body(p: &mut Parser<'_>) -> Result<Self, Error> {
        Ok(parse_payload(p)?.into_acquisition())
    }
}

impl Artifact for GoldenReference {
    const KIND: &'static str = "reference";

    fn write_body(&self, w: &mut BodyWriter) {
        write_payload(w, &self.clone().into());
    }

    fn parse_body(p: &mut Parser<'_>) -> Result<Self, Error> {
        Ok(parse_payload(p)?.into_reference())
    }
}

/// One channel's golden-population Gaussian fit, labelled so fits from
/// several channels can live side by side on disk.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelFit {
    /// The channel's label.
    pub channel: String,
    /// The Gaussian fitted to the channel's golden scores.
    pub fit: Gaussian,
}

impl Artifact for ChannelFit {
    const KIND: &'static str = "fit";

    fn write_body(&self, w: &mut BodyWriter) {
        w.line(format!("channel {}", quote(&self.channel)));
        w.line(format!(
            "gaussian {} {}",
            fmt_f64(self.fit.mean()),
            fmt_f64(self.fit.std())
        ));
    }

    fn parse_body(p: &mut Parser<'_>) -> Result<Self, Error> {
        let channel = parse_channel_label(p)?;
        let rest = p.keyword_line("gaussian")?;
        let (mean_tok, std_tok) = rest
            .split_once(' ')
            .ok_or_else(|| p.error("gaussian needs mean and standard deviation"))?;
        let mean = parse_f64(mean_tok.trim()).map_err(|e| p.error(e))?;
        let std = parse_f64(std_tok.trim()).map_err(|e| p.error(e))?;
        let fit =
            Gaussian::new(mean, std).map_err(|e| p.error(format!("bad gaussian fit: {e}")))?;
        Ok(ChannelFit { channel, fit })
    }
}

impl Artifact for ScoredChannel {
    const KIND: &'static str = "scores";

    fn write_body(&self, w: &mut BodyWriter) {
        w.line(format!("channel {}", quote(&self.channel)));
        write_f64_list(w, "golden", &self.golden);
        write_f64_list(w, "infected", &self.infected);
    }

    fn parse_body(p: &mut Parser<'_>) -> Result<Self, Error> {
        let channel = parse_channel_label(p)?;
        let golden = parse_f64_list(p, "golden")?;
        let infected = parse_f64_list(p, "infected")?;
        Ok(ScoredChannel {
            channel,
            golden,
            infected,
        })
    }
}

impl Artifact for MultiChannelReport {
    const KIND: &'static str = "report";

    fn write_body(&self, w: &mut BodyWriter) {
        w.line(format!("dies {}", self.n_dies));
        w.line(format!("channels {}", self.channel_names.len()));
        for name in &self.channel_names {
            w.line(format!("channel {}", quote(name)));
        }
        w.line(format!("rows {}", self.rows.len()));
        for row in &self.rows {
            w.line(format!(
                "row {} {} {} {}",
                quote(&row.name),
                fmt_f64(row.size_fraction),
                row.channels.len(),
                usize::from(row.fused.is_some()),
            ));
            for r in &row.channels {
                write_result(w, "result", r);
            }
            if let Some(fused) = &row.fused {
                write_result(w, "fused", fused);
            }
        }
        // The health section only exists for degraded campaigns, so
        // pristine reports keep their historical byte layout.
        if !self.health.is_empty() {
            w.line(format!("health {}", self.health.len()));
            for h in &self.health {
                write_health(w, h);
            }
        }
    }

    fn parse_body(p: &mut Parser<'_>) -> Result<Self, Error> {
        let n_dies = parse_usize(p.keyword_line("dies")?.trim()).map_err(|e| p.error(e))?;
        let n_channels = parse_usize(p.keyword_line("channels")?.trim()).map_err(|e| p.error(e))?;
        if n_channels > p.remaining() {
            return Err(p.error(format!(
                "report declares {n_channels} channels but only {} lines remain",
                p.remaining()
            )));
        }
        let mut channel_names = Vec::with_capacity(n_channels);
        for _ in 0..n_channels {
            channel_names.push(parse_channel_label(p)?);
        }
        let n_rows = parse_usize(p.keyword_line("rows")?.trim()).map_err(|e| p.error(e))?;
        if n_rows > p.remaining() {
            return Err(p.error(format!(
                "report declares {n_rows} rows but only {} lines remain",
                p.remaining()
            )));
        }
        let mut rows = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            let rest = p.keyword_line("row")?;
            let (name, rest) =
                unquote(rest).ok_or_else(|| p.error("row needs a quoted trojan name"))?;
            let mut words = rest.split_whitespace();
            let size_fraction = parse_f64(
                words
                    .next()
                    .ok_or_else(|| p.error("row missing size fraction"))?,
            )
            .map_err(|e| p.error(e))?;
            let n_results = parse_usize(
                words
                    .next()
                    .ok_or_else(|| p.error("row missing result count"))?,
            )
            .map_err(|e| p.error(e))?;
            let fused_flag = match words.next() {
                Some("0") => false,
                Some("1") => true,
                _ => return Err(p.error("row fused flag must be 0 or 1")),
            };
            if words.next().is_some() {
                return Err(p.error("trailing tokens after row header"));
            }
            if n_results > p.remaining() {
                return Err(p.error(format!(
                    "row declares {n_results} results but only {} lines remain",
                    p.remaining()
                )));
            }
            let mut channels = Vec::with_capacity(n_results);
            for _ in 0..n_results {
                channels.push(parse_result(p, "result")?);
            }
            let fused = fused_flag.then(|| parse_result(p, "fused")).transpose()?;
            rows.push(MultiChannelRow {
                name,
                size_fraction,
                channels,
                fused,
            });
        }
        let mut health = Vec::new();
        if p.peek().is_some_and(|l| l.starts_with("health ")) {
            let n = parse_usize(p.keyword_line("health")?.trim()).map_err(|e| p.error(e))?;
            if n > p.remaining() {
                return Err(p.error(format!(
                    "health declares {n} channels but only {} lines remain",
                    p.remaining()
                )));
            }
            for _ in 0..n {
                health.push(parse_health(p)?);
            }
        }
        Ok(MultiChannelReport {
            rows,
            n_dies,
            channel_names,
            health,
        })
    }
}

/// Checks a spec list against the channels of a characterization it is
/// stored with: one spec per surviving channel in execution order, one
/// score per kept die, at least two kept dies strictly ascending within
/// the plan, and no surviving channel marked lost.
fn check_stored_channels(specs: &[ChannelSpec], reference: &dyn Reference) -> Result<(), Error> {
    let stored = reference.channels();
    if specs.len() != stored.len() {
        return Err(Error::ChannelShapeMismatch {
            channel: format!("{} spec(s)", specs.len()),
            expected: "one spec per characterized channel",
        });
    }
    let n_dies = reference.plan().n_dies;
    for (spec, channel) in specs.iter().zip(&stored) {
        let mismatch = |expected| {
            Err(Error::ChannelShapeMismatch {
                channel: channel.name.to_string(),
                expected,
            })
        };
        if spec.name() != channel.name {
            return mismatch("spec order matching channel execution order");
        }
        if channel.kept.len() != channel.scores.len() {
            return mismatch("one score per kept die");
        }
        if channel.kept.len() < 2 {
            return mismatch("at least two kept dies");
        }
        let ascending = channel.kept.windows(2).all(|w| w[0] < w[1]);
        let in_plan = channel.kept.last().is_none_or(|&k| k < n_dies);
        if !ascending || !in_plan {
            return mismatch("kept dies strictly ascending within the plan");
        }
        if channel.health.lost {
            return mismatch("surviving states only (lost channels go in `lost`)");
        }
    }
    Ok(())
}

/// The composite golden artifact: the channel construction recipes plus
/// the full [`GoldenCharacterization`]. Loading one is everything `htd
/// score` needs — no re-measurement, no out-of-band channel knowledge.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenArtifact {
    specs: Vec<ChannelSpec>,
    charac: GoldenCharacterization,
}

impl GoldenArtifact {
    /// Binds channel specs to a characterization they produced.
    ///
    /// # Errors
    ///
    /// [`Error::ChannelShapeMismatch`] when the spec list does not match
    /// the characterization's channel states (count or name order), when
    /// a state's golden-score count differs from its kept-die count,
    /// when the kept dies are not a strictly ascending subset of the
    /// plan's dies (at least two of them), or when a surviving state is
    /// marked lost.
    pub fn new(specs: Vec<ChannelSpec>, charac: GoldenCharacterization) -> Result<Self, Error> {
        check_stored_channels(&specs, &charac)?;
        Ok(GoldenArtifact { specs, charac })
    }

    /// The channel construction recipes, in execution order.
    pub fn specs(&self) -> &[ChannelSpec] {
        &self.specs
    }

    /// The stored characterization.
    pub fn characterization(&self) -> &GoldenCharacterization {
        &self.charac
    }

    /// Consumes the artifact into its characterization.
    pub fn into_characterization(self) -> GoldenCharacterization {
        self.charac
    }

    /// Rebuilds the live channels the stored specs describe, in order.
    pub fn build_channels(&self) -> Vec<Box<dyn Channel>> {
        self.specs.iter().map(ChannelSpec::build).collect()
    }
}

impl Artifact for GoldenArtifact {
    const KIND: &'static str = "golden";

    fn write_body(&self, w: &mut BodyWriter) {
        write_plan(w, &self.charac.plan);
        w.line(format!("channels {}", self.specs.len()));
        for (spec, state) in self.specs.iter().zip(&self.charac.states) {
            w.line(format!("channel {}", spec.token()));
            write_calibration(w, &state.calibration);
            write_payload(w, &state.reference.clone().into());
            write_f64_list(w, "scores", &state.scores);
            // Degradation markers are only written when present, keeping
            // pristine artifacts on their historical byte layout.
            if state.kept.iter().copied().ne(0..state.scores.len()) {
                let mut line = format!("kept {}", state.kept.len());
                for &k in &state.kept {
                    line.push_str(&format!(" {k}"));
                }
                w.line(line);
            }
            if !state.health.is_pristine(state.scores.len()) {
                write_health(w, &state.health);
            }
        }
        if !self.charac.lost.is_empty() {
            w.line(format!("lost {}", self.charac.lost.len()));
            for h in &self.charac.lost {
                write_health(w, h);
            }
        }
    }

    fn parse_body(p: &mut Parser<'_>) -> Result<Self, Error> {
        let plan = parse_plan(p)?;
        let n_channels = parse_usize(p.keyword_line("channels")?.trim()).map_err(|e| p.error(e))?;
        if n_channels > p.remaining() {
            return Err(p.error(format!(
                "golden artifact declares {n_channels} channels but only {} lines remain",
                p.remaining()
            )));
        }
        let mut specs = Vec::with_capacity(n_channels);
        let mut states = Vec::with_capacity(n_channels);
        for _ in 0..n_channels {
            let (spec, state) = parse_channel_block(p)?;
            states.push(state);
            specs.push(spec);
        }
        let lost = parse_lost_section(p)?;
        GoldenArtifact::new(specs, GoldenCharacterization { plan, states, lost })
            .map_err(|e| p.error(format!("inconsistent golden artifact: {e}")))
    }

    /// Golden bodies are block-structured (one block per channel), so a
    /// corrupt line costs only its own block: the reader rewinds to the
    /// block boundary, drops it, and resyncs at the next `channel ` line.
    fn parse_body_salvage(p: &mut Parser<'_>) -> Result<(Self, Vec<usize>), Error> {
        let mut dropped = Vec::new();
        let plan = parse_plan(p)?;
        let n_channels = parse_usize(p.keyword_line("channels")?.trim()).map_err(|e| p.error(e))?;
        let mut specs = Vec::new();
        let mut states = Vec::new();
        while specs.len() < n_channels {
            match p.peek() {
                None => break,
                Some(l) if l.starts_with("lost ") => break,
                Some(_) => {}
            }
            let mark = p.save();
            match parse_channel_block(p) {
                Ok((spec, state)) => {
                    specs.push(spec);
                    states.push(state);
                }
                Err(_) => {
                    p.restore(mark);
                    dropped.push(p.save());
                    let _ = p.next_line();
                    dropped.extend(p.skip_to_prefix("channel "));
                }
            }
        }
        let mark = p.save();
        let lost = match parse_lost_section(p) {
            Ok(lost) => lost,
            Err(_) => {
                p.restore(mark);
                while p.peek().is_some() {
                    dropped.push(p.save());
                    let _ = p.next_line();
                }
                Vec::new()
            }
        };
        if states.is_empty() {
            return Err(p.error("no channel block survived salvage"));
        }
        let artifact = GoldenArtifact::new(specs, GoldenCharacterization { plan, states, lost })
            .map_err(|e| p.error(format!("inconsistent golden artifact: {e}")))?;
        Ok((artifact, dropped))
    }
}

/// Parses one golden channel block: the spec token, calibration,
/// reference payload, scores, and the optional degradation markers
/// (`kept`, `channel-health`) whose absence reconstructs a pristine
/// state exactly.
fn parse_channel_block(p: &mut Parser<'_>) -> Result<(ChannelSpec, ChannelState), Error> {
    let token = p.keyword_line("channel")?;
    let spec = ChannelSpec::from_token(token)
        .ok_or_else(|| p.error(format!("unknown channel spec `{token}`")))?;
    let calibration = parse_calibration(p)?;
    let reference = parse_payload(p)?.into_reference();
    let scores = parse_f64_list(p, "scores")?;
    let kept = if p.peek().is_some_and(|l| l.starts_with("kept ")) {
        let rest = p.keyword_line("kept")?;
        let mut words = rest.split_whitespace();
        let n = parse_usize(words.next().ok_or_else(|| p.error("kept needs a count"))?)
            .map_err(|e| p.error(e))?;
        let kept: Vec<usize> = words
            .map(parse_usize)
            .collect::<Result<_, _>>()
            .map_err(|e| p.error(e))?;
        if kept.len() != n {
            return Err(p.error(format!("kept declares {n} dies but lists {}", kept.len())));
        }
        kept
    } else {
        (0..scores.len()).collect()
    };
    let health = if p.peek().is_some_and(|l| l.starts_with("channel-health ")) {
        parse_health(p)?
    } else {
        ChannelHealth::pristine(spec.name(), scores.len())
    };
    let state = ChannelState {
        channel: spec.name().to_string(),
        calibration,
        reference,
        scores,
        kept,
        health,
    };
    Ok((spec, state))
}

/// Parses the optional trailing `lost` section of a golden body.
fn parse_lost_section(p: &mut Parser<'_>) -> Result<Vec<ChannelHealth>, Error> {
    if !p.peek().is_some_and(|l| l.starts_with("lost ")) {
        return Ok(Vec::new());
    }
    let n = parse_usize(p.keyword_line("lost")?.trim()).map_err(|e| p.error(e))?;
    if n > p.remaining() {
        return Err(p.error(format!(
            "lost declares {n} channels but only {} lines remain",
            p.remaining()
        )));
    }
    (0..n).map(|_| parse_health(p)).collect()
}

/// Writes one [`ChannelHealth`] record as a `channel-health` line.
fn write_health(w: &mut BodyWriter, h: &ChannelHealth) {
    w.line(format!(
        "channel-health {} {} {} {} {} {} {}",
        quote(&h.channel),
        h.attempted,
        h.retried,
        h.dropped,
        h.reps_attempted,
        h.reps_dropped,
        usize::from(h.lost),
    ));
}

/// Parses a [`write_health`] line.
fn parse_health(p: &mut Parser<'_>) -> Result<ChannelHealth, Error> {
    let rest = p.keyword_line("channel-health")?;
    let (channel, rest) =
        unquote(rest).ok_or_else(|| p.error("channel-health needs a quoted channel label"))?;
    let mut values = [0usize; 5];
    let mut words = rest.split_whitespace();
    for v in &mut values {
        let token = words
            .next()
            .ok_or_else(|| p.error("channel-health needs five counters and a lost flag"))?;
        *v = parse_usize(token).map_err(|e| p.error(e))?;
    }
    let lost = match words.next() {
        Some("0") => false,
        Some("1") => true,
        _ => return Err(p.error("channel-health lost flag must be 0 or 1")),
    };
    if words.next().is_some() {
        return Err(p.error("trailing tokens after channel-health"));
    }
    let [attempted, retried, dropped, reps_attempted, reps_dropped] = values;
    Ok(ChannelHealth {
        channel,
        attempted,
        retried,
        dropped,
        reps_attempted,
        reps_dropped,
        lost,
    })
}

/// Writes one [`ChannelResult`] line under `keyword`.
fn write_result(w: &mut BodyWriter, keyword: &str, r: &ChannelResult) {
    w.line(format!(
        "{keyword} {} {} {} {} {} {}",
        quote(&r.channel),
        fmt_f64(r.mu),
        fmt_f64(r.sigma),
        fmt_f64(r.analytic_fn_rate),
        fmt_f64(r.empirical_fn_rate),
        fmt_f64(r.empirical_fp_rate),
    ));
}

/// Parses a [`write_result`] line.
fn parse_result(p: &mut Parser<'_>, keyword: &str) -> Result<ChannelResult, Error> {
    let rest = p.keyword_line(keyword)?;
    let (channel, rest) =
        unquote(rest).ok_or_else(|| p.error(format!("{keyword} needs a quoted channel label")))?;
    let mut values = [0.0f64; 5];
    let mut words = rest.split_whitespace();
    for v in &mut values {
        let token = words
            .next()
            .ok_or_else(|| p.error(format!("{keyword} needs five statistics")))?;
        *v = parse_f64(token).map_err(|e| p.error(e))?;
    }
    if words.next().is_some() {
        return Err(p.error(format!("trailing tokens after {keyword} statistics")));
    }
    let [mu, sigma, analytic_fn_rate, empirical_fn_rate, empirical_fp_rate] = values;
    Ok(ChannelResult {
        channel,
        mu,
        sigma,
        analytic_fn_rate,
        empirical_fn_rate,
        empirical_fp_rate,
    })
}

impl Artifact for LogisticModel {
    const KIND: &'static str = "classifier";

    fn write_body(&self, w: &mut BodyWriter) {
        w.line(format!("channels {}", self.features.len()));
        for (((name, weight), mean), std) in self
            .features
            .iter()
            .zip(&self.weights)
            .zip(&self.means)
            .zip(&self.stds)
        {
            w.line(format!(
                "channel {} {} {} {}",
                quote(name),
                fmt_f64(*weight),
                fmt_f64(*mean),
                fmt_f64(*std),
            ));
        }
        w.line(format!("bias {}", fmt_f64(self.bias)));
        w.line(format!(
            "trained {} {} {}",
            self.seed,
            self.iterations,
            fmt_f64(self.rate),
        ));
    }

    fn parse_body(p: &mut Parser<'_>) -> Result<Self, Error> {
        let n = parse_usize(p.keyword_line("channels")?.trim()).map_err(|e| p.error(e))?;
        if n == 0 {
            return Err(p.error("classifier needs at least one feature channel"));
        }
        if n > p.remaining() {
            return Err(p.error(format!(
                "classifier declares {n} channels but only {} lines remain",
                p.remaining()
            )));
        }
        let mut model = LogisticModel {
            features: Vec::with_capacity(n),
            bias: 0.0,
            weights: Vec::with_capacity(n),
            means: Vec::with_capacity(n),
            stds: Vec::with_capacity(n),
            seed: 0,
            iterations: 0,
            rate: 0.0,
        };
        for _ in 0..n {
            push_classifier_feature(p, &mut model)?;
        }
        parse_classifier_trailer(p, &mut model)?;
        Ok(model)
    }

    /// Classifier bodies are one line per feature, so a corrupt feature
    /// line costs only itself: the reader drops it and resyncs on the
    /// next line, then parses the `bias`/`trained` trailer strictly.
    fn parse_body_salvage(p: &mut Parser<'_>) -> Result<(Self, Vec<usize>), Error> {
        let mut dropped = Vec::new();
        let n = parse_usize(p.keyword_line("channels")?.trim()).map_err(|e| p.error(e))?;
        let mut model = LogisticModel {
            features: Vec::new(),
            bias: 0.0,
            weights: Vec::new(),
            means: Vec::new(),
            stds: Vec::new(),
            seed: 0,
            iterations: 0,
            rate: 0.0,
        };
        while model.features.len() < n {
            match p.peek() {
                None => break,
                Some(l) if l.starts_with("bias ") => break,
                Some(_) => {}
            }
            let mark = p.save();
            if push_classifier_feature(p, &mut model).is_err() {
                p.restore(mark);
                dropped.push(p.save());
                let _ = p.next_line();
            }
        }
        if model.features.is_empty() {
            return Err(p.error("no classifier feature survived salvage"));
        }
        parse_classifier_trailer(p, &mut model)?;
        Ok((model, dropped))
    }
}

/// Parses one `channel "<name>" <weight> <mean> <std>` classifier
/// feature line into `model`.
fn push_classifier_feature(p: &mut Parser<'_>, model: &mut LogisticModel) -> Result<(), Error> {
    let rest = p.keyword_line("channel")?;
    let (name, rest) =
        unquote(rest).ok_or_else(|| p.error("classifier channel needs a quoted name"))?;
    let mut values = [0.0f64; 3];
    let mut words = rest.split_whitespace();
    for v in &mut values {
        let token = words
            .next()
            .ok_or_else(|| p.error("classifier channel needs weight, mean and std"))?;
        *v = parse_f64(token).map_err(|e| p.error(e))?;
    }
    if words.next().is_some() {
        return Err(p.error("trailing tokens after classifier channel"));
    }
    let [weight, mean, std] = values;
    if std <= 0.0 {
        return Err(p.error(format!(
            "classifier std must be positive, got {}",
            fmt_f64(std)
        )));
    }
    model.features.push(name);
    model.weights.push(weight);
    model.means.push(mean);
    model.stds.push(std);
    Ok(())
}

/// Parses the strict `bias` + `trained` trailer of a classifier body.
fn parse_classifier_trailer(p: &mut Parser<'_>, model: &mut LogisticModel) -> Result<(), Error> {
    model.bias = parse_f64(p.keyword_line("bias")?.trim()).map_err(|e| p.error(e))?;
    let rest = p.keyword_line("trained")?;
    let mut words = rest.split_whitespace();
    model.seed = parse_u64(
        words
            .next()
            .ok_or_else(|| p.error("trained needs seed, iterations and rate"))?,
    )
    .map_err(|e| p.error(e))?;
    model.iterations = parse_usize(
        words
            .next()
            .ok_or_else(|| p.error("trained needs seed, iterations and rate"))?,
    )
    .map_err(|e| p.error(e))?;
    model.rate = parse_f64(
        words
            .next()
            .ok_or_else(|| p.error("trained needs seed, iterations and rate"))?,
    )
    .map_err(|e| p.error(e))?;
    if words.next().is_some() {
        return Err(p.error("trailing tokens after trained parameters"));
    }
    if model.rate <= 0.0 {
        return Err(p.error(format!(
            "training rate must be positive, got {}",
            fmt_f64(model.rate)
        )));
    }
    Ok(())
}

/// The composite reference-free artifact: the channel recipes plus the
/// full [`ReferenceFreeCharacterization`]. Loading one is everything
/// `htd score` needs to score a suspect lot without any golden
/// reference — per channel only the calibration, the baseline
/// self-scores and their fit travel; no reference payload exists.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceFreeArtifact {
    specs: Vec<ChannelSpec>,
    charac: ReferenceFreeCharacterization,
}

impl ReferenceFreeArtifact {
    /// Binds channel specs to a reference-free characterization they
    /// produced.
    ///
    /// # Errors
    ///
    /// [`Error::ChannelShapeMismatch`] when the spec list does not match
    /// the characterization's states (count or name order), when a
    /// state's self-score count differs from its kept-die count or its
    /// fit's die count, when the kept dies are not a strictly ascending
    /// subset of the plan's dies (at least two of them), when a fit's
    /// spread is not positive, or when a surviving state is marked lost.
    pub fn new(
        specs: Vec<ChannelSpec>,
        charac: ReferenceFreeCharacterization,
    ) -> Result<Self, Error> {
        check_stored_channels(&specs, &charac)?;
        for state in &charac.states {
            if state.fit.n_dies != state.self_scores.len() {
                return Err(Error::ChannelShapeMismatch {
                    channel: state.channel.clone(),
                    expected: "a baseline fit over every self-score",
                });
            }
            if !(state.fit.std > 0.0 && state.fit.std.is_finite() && state.fit.mean.is_finite()) {
                return Err(Error::ChannelShapeMismatch {
                    channel: state.channel.clone(),
                    expected: "a finite baseline fit with positive spread",
                });
            }
        }
        Ok(ReferenceFreeArtifact { specs, charac })
    }

    /// The channel construction recipes, in execution order.
    pub fn specs(&self) -> &[ChannelSpec] {
        &self.specs
    }

    /// The stored characterization.
    pub fn characterization(&self) -> &ReferenceFreeCharacterization {
        &self.charac
    }

    /// Consumes the artifact into its characterization.
    pub fn into_characterization(self) -> ReferenceFreeCharacterization {
        self.charac
    }

    /// Rebuilds the live channels the stored specs describe, in order.
    pub fn build_channels(&self) -> Vec<Box<dyn Channel>> {
        self.specs.iter().map(ChannelSpec::build).collect()
    }
}

impl Artifact for ReferenceFreeArtifact {
    const KIND: &'static str = "reffree";

    fn write_body(&self, w: &mut BodyWriter) {
        write_plan(w, &self.charac.plan);
        w.line(format!("channels {}", self.specs.len()));
        for (spec, state) in self.specs.iter().zip(&self.charac.states) {
            w.line(format!("channel {}", spec.token()));
            write_calibration(w, &state.calibration);
            w.line(format!(
                "reffree-fit {} {} {}",
                fmt_f64(state.fit.mean),
                fmt_f64(state.fit.std),
                state.fit.n_dies,
            ));
            write_f64_list(w, "scores", &state.self_scores);
            if state.kept.iter().copied().ne(0..state.self_scores.len()) {
                let mut line = format!("kept {}", state.kept.len());
                for &k in &state.kept {
                    line.push_str(&format!(" {k}"));
                }
                w.line(line);
            }
            if !state.health.is_pristine(state.self_scores.len()) {
                write_health(w, &state.health);
            }
        }
        if !self.charac.lost.is_empty() {
            w.line(format!("lost {}", self.charac.lost.len()));
            for h in &self.charac.lost {
                write_health(w, h);
            }
        }
    }

    fn parse_body(p: &mut Parser<'_>) -> Result<Self, Error> {
        let plan = parse_plan(p)?;
        let n_channels = parse_usize(p.keyword_line("channels")?.trim()).map_err(|e| p.error(e))?;
        if n_channels > p.remaining() {
            return Err(p.error(format!(
                "reference-free artifact declares {n_channels} channels but only {} lines remain",
                p.remaining()
            )));
        }
        let mut specs = Vec::with_capacity(n_channels);
        let mut states = Vec::with_capacity(n_channels);
        for _ in 0..n_channels {
            let (spec, state) = parse_reffree_block(p)?;
            states.push(state);
            specs.push(spec);
        }
        let lost = parse_lost_section(p)?;
        ReferenceFreeArtifact::new(specs, ReferenceFreeCharacterization { plan, states, lost })
            .map_err(|e| p.error(format!("inconsistent reference-free artifact: {e}")))
    }

    /// Reference-free bodies share the golden artifact's block structure
    /// (one block per channel), so salvage drops a corrupt block and
    /// resyncs at the next `channel ` line.
    fn parse_body_salvage(p: &mut Parser<'_>) -> Result<(Self, Vec<usize>), Error> {
        let mut dropped = Vec::new();
        let plan = parse_plan(p)?;
        let n_channels = parse_usize(p.keyword_line("channels")?.trim()).map_err(|e| p.error(e))?;
        let mut specs = Vec::new();
        let mut states = Vec::new();
        while specs.len() < n_channels {
            match p.peek() {
                None => break,
                Some(l) if l.starts_with("lost ") => break,
                Some(_) => {}
            }
            let mark = p.save();
            match parse_reffree_block(p) {
                Ok((spec, state)) => {
                    specs.push(spec);
                    states.push(state);
                }
                Err(_) => {
                    p.restore(mark);
                    dropped.push(p.save());
                    let _ = p.next_line();
                    dropped.extend(p.skip_to_prefix("channel "));
                }
            }
        }
        let mark = p.save();
        let lost = match parse_lost_section(p) {
            Ok(lost) => lost,
            Err(_) => {
                p.restore(mark);
                while p.peek().is_some() {
                    dropped.push(p.save());
                    let _ = p.next_line();
                }
                Vec::new()
            }
        };
        if states.is_empty() {
            return Err(p.error("no channel block survived salvage"));
        }
        let artifact =
            ReferenceFreeArtifact::new(specs, ReferenceFreeCharacterization { plan, states, lost })
                .map_err(|e| p.error(format!("inconsistent reference-free artifact: {e}")))?;
        Ok((artifact, dropped))
    }
}

/// Parses one reference-free channel block: the spec token, calibration,
/// baseline fit, self-scores, and the optional degradation markers.
fn parse_reffree_block(p: &mut Parser<'_>) -> Result<(ChannelSpec, ReferenceFreeState), Error> {
    let token = p.keyword_line("channel")?;
    let spec = ChannelSpec::from_token(token)
        .ok_or_else(|| p.error(format!("unknown channel spec `{token}`")))?;
    let calibration = parse_calibration(p)?;
    let rest = p.keyword_line("reffree-fit")?;
    let mut words = rest.split_whitespace();
    let mean = parse_f64(
        words
            .next()
            .ok_or_else(|| p.error("reffree-fit needs mean, std and die count"))?,
    )
    .map_err(|e| p.error(e))?;
    let std = parse_f64(
        words
            .next()
            .ok_or_else(|| p.error("reffree-fit needs mean, std and die count"))?,
    )
    .map_err(|e| p.error(e))?;
    let n_dies = parse_usize(
        words
            .next()
            .ok_or_else(|| p.error("reffree-fit needs mean, std and die count"))?,
    )
    .map_err(|e| p.error(e))?;
    if words.next().is_some() {
        return Err(p.error("trailing tokens after reffree-fit"));
    }
    let self_scores = parse_f64_list(p, "scores")?;
    let kept = if p.peek().is_some_and(|l| l.starts_with("kept ")) {
        let rest = p.keyword_line("kept")?;
        let mut words = rest.split_whitespace();
        let n = parse_usize(words.next().ok_or_else(|| p.error("kept needs a count"))?)
            .map_err(|e| p.error(e))?;
        let kept: Vec<usize> = words
            .map(parse_usize)
            .collect::<Result<_, _>>()
            .map_err(|e| p.error(e))?;
        if kept.len() != n {
            return Err(p.error(format!("kept declares {n} dies but lists {}", kept.len())));
        }
        kept
    } else {
        (0..self_scores.len()).collect()
    };
    let health = if p.peek().is_some_and(|l| l.starts_with("channel-health ")) {
        parse_health(p)?
    } else {
        ChannelHealth::pristine(spec.name(), self_scores.len())
    };
    let state = ReferenceFreeState {
        channel: spec.name().to_string(),
        calibration,
        self_scores,
        fit: ReferenceFreeFit { mean, std, n_dies },
        kept,
        health,
    };
    Ok((spec, state))
}

/// Parses a `channel "<label>"` line.
fn parse_channel_label(p: &mut Parser<'_>) -> Result<String, Error> {
    let rest = p.keyword_line("channel")?;
    let (label, tail) = unquote(rest).ok_or_else(|| p.error("channel needs a quoted label"))?;
    if !tail.trim().is_empty() {
        return Err(p.error("trailing tokens after channel label"));
    }
    Ok(label)
}
