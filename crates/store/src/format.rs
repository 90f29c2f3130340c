//! The line-oriented framing shared by every artifact kind: header,
//! body, checksum trailer, and the strict cursor the per-kind parsers
//! consume the body through.
//!
//! Every parse failure is an [`Error::Format`] carrying the artifact's
//! origin (file path or `"<memory>"`) and the 1-based offending line —
//! the store never panics on malformed input.

use std::fmt::Write as _;

use htd_core::Error;

use crate::checksum::fnv1a64;

/// Format version written and accepted by this build. Bump on any
/// incompatible grammar change; parsers reject every other version.
pub const FORMAT_VERSION: u32 = 1;

/// Leading token of every artifact's first line.
pub const MAGIC: &str = "htdstore";

/// Origin label used when parsing from an in-memory string.
pub const IN_MEMORY: &str = "<memory>";

/// Body accumulator used by artifact writers.
#[derive(Debug, Default)]
pub struct BodyWriter {
    buf: String,
}

impl BodyWriter {
    /// An empty body.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one body line (without trailing newline).
    pub fn line(&mut self, line: impl AsRef<str>) {
        self.buf.push_str(line.as_ref());
        self.buf.push('\n');
    }

    /// The accumulated body text.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// A framing violation [`verify_frame`] found: the 1-based offending
/// line (0 when the text as a whole is unusable) and what was wrong.
/// Each caller maps it into its own error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError {
    /// 1-based line of the violation, or 0.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl FrameError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        FrameError {
            line,
            message: message.into(),
        }
    }

    /// The violation as a store [`Error::Format`] of `origin`.
    fn at(self, origin: &str) -> Error {
        Error::format(origin, self.line, self.message)
    }
}

/// Frames a body under a `<magic> <version> <kind>` header: header line,
/// body, checksum trailer covering every byte before it. Store artifacts
/// and serve protocol frames share this framing.
pub fn frame(magic: &str, version: u32, kind: &str, body: &str) -> String {
    let mut text = String::with_capacity(magic.len() + kind.len() + body.len() + 48);
    // Writing into a `String` cannot fail.
    let _ = writeln!(text, "{magic} {version} {kind}");
    text.push_str(body);
    let sum = fnv1a64(text.as_bytes());
    let _ = writeln!(text, "checksum fnv1a64 {sum:016x}");
    text
}

/// Verifies the framing [`frame`] writes — trailing newline, checksum
/// trailer, header magic and version — and returns the header's kind
/// token and the body text (every body line newline-terminated). Borrows
/// from `text` and allocates nothing on success.
///
/// # Errors
///
/// [`FrameError`] on any framing violation: missing trailing newline or
/// trailer, malformed or mismatched checksum, missing header, wrong magic,
/// unsupported version, missing kind.
pub fn verify_frame<'a>(
    text: &'a str,
    magic: &str,
    version: u32,
) -> Result<(&'a str, &'a str), FrameError> {
    let content = text
        .strip_suffix('\n')
        .ok_or_else(|| FrameError::new(0, "truncated: missing trailing newline"))?;
    let trailer_start = content.rfind('\n').map_or(0, |i| i + 1);
    let trailer = &content[trailer_start..];
    // The trailer is the last line, so its number is the newline count;
    // counted only on the error paths.
    let trailer_line = || text.bytes().filter(|&b| b == b'\n').count();
    let declared = trailer
        .strip_prefix("checksum fnv1a64 ")
        .ok_or_else(|| FrameError::new(trailer_line(), "missing `checksum fnv1a64` trailer"))?;
    let declared = lowercase_hex64(declared).ok_or_else(|| {
        FrameError::new(trailer_line(), "checksum must be 16 lowercase hex digits")
    })?;
    let covered = &text[..trailer_start];
    let actual = fnv1a64(covered.as_bytes());
    if actual != declared {
        return Err(FrameError::new(
            trailer_line(),
            format!(
                "checksum mismatch: content hashes to {actual:016x}, trailer says {declared:016x}"
            ),
        ));
    }
    let (header, body) = covered
        .split_once('\n')
        .ok_or_else(|| FrameError::new(0, "no header line"))?;
    Ok((parse_header(header, magic, version)?, body))
}

/// Validates a `<magic> <version> <kind>` header line and returns the
/// kind token.
fn parse_header<'a>(header: &'a str, magic: &str, version: u32) -> Result<&'a str, FrameError> {
    let mut words = header.split(' ');
    if words.next() != Some(magic) {
        return Err(FrameError::new(1, format!("missing `{magic}` magic")));
    }
    match words.next().and_then(|v| v.parse::<u32>().ok()) {
        Some(v) if v == version => {}
        Some(other) => {
            return Err(FrameError::new(
                1,
                format!("unsupported version {other} (this build reads {version})"),
            ))
        }
        None => return Err(FrameError::new(1, "missing version")),
    }
    let kind = words
        .next()
        .ok_or_else(|| FrameError::new(1, "missing kind"))?;
    if words.next().is_some() {
        return Err(FrameError::new(1, "trailing tokens after the kind"));
    }
    Ok(kind)
}

/// Parses exactly 16 lowercase hex digits. Lowercase-only:
/// `from_str_radix` would accept `A`–`F`, letting a case flip in the
/// (uncovered) trailer line go unnoticed.
fn lowercase_hex64(hex: &str) -> Option<u64> {
    (hex.len() == 16 && hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')))
        .then(|| u64::from_str_radix(hex, 16).ok())
        .flatten()
}

/// Verifies a store artifact's framing ([`verify_frame`] under
/// [`MAGIC`] and [`FORMAT_VERSION`]) and its kind, and returns the body
/// lines (with their 1-based line numbers) as a strict [`Parser`].
///
/// # Errors
///
/// [`Error::Format`] on any framing violation: missing trailer,
/// checksum mismatch, unsupported version, or wrong artifact kind.
pub fn unframe<'a>(text: &'a str, origin: &'a str, kind: &str) -> Result<Parser<'a>, Error> {
    let (found, body) = verify_frame(text, MAGIC, FORMAT_VERSION).map_err(|e| e.at(origin))?;
    check_kind(found, origin, kind)?;
    Ok(Parser {
        origin,
        lines: body.split_terminator('\n').collect(),
        pos: 0,
    })
}

/// Rejects a header whose kind is not the expected artifact kind.
fn check_kind(found: &str, origin: &str, kind: &str) -> Result<(), Error> {
    if found != kind {
        return Err(Error::format(
            origin,
            1,
            format!("artifact is `{found}`, expected `{kind}`"),
        ));
    }
    Ok(())
}

/// Parses a trailer line's declared checksum, if the line is a
/// well-formed `checksum fnv1a64 <16 lowercase hex>` trailer.
fn trailer_checksum(line: &str) -> Option<u64> {
    lowercase_hex64(line.strip_prefix("checksum fnv1a64 ")?)
}

/// A best-effort unframing for the salvage path: the header, the body
/// lines as a [`Parser`], and the trailer's declared checksum when a
/// well-formed trailer is present.
#[derive(Debug)]
pub struct SalvageFrame<'a> {
    /// The (validated) header line.
    pub header: &'a str,
    /// Cursor over the body lines.
    pub parser: Parser<'a>,
    /// The checksum the trailer declared, if the trailer survived.
    pub declared: Option<u64>,
}

/// Unframes `text` for salvage: the header must be intact (there is
/// nothing to salvage without knowing the kind and version), but the
/// checksum trailer is *optional* — a corrupt or missing trailer, or a
/// truncated final line, demotes the artifact to "recovered" instead of
/// rejecting it. The checksum is **not** verified here; the caller
/// re-verifies it over the lines it actually keeps.
///
/// # Errors
///
/// [`Error::Format`] when the artifact is empty or the header line is
/// damaged.
pub fn unframe_salvage<'a>(
    text: &'a str,
    origin: &'a str,
    kind: &str,
) -> Result<SalvageFrame<'a>, Error> {
    // A missing trailing newline means the last line was cut mid-write;
    // drop the partial fragment and salvage the complete lines.
    let complete = match text.rfind('\n') {
        Some(end) => &text[..end],
        None if text.is_empty() => return Err(Error::format(origin, 0, "empty artifact")),
        None => return Err(Error::format(origin, 1, "artifact has no complete lines")),
    };
    let mut lines: Vec<&str> = complete.split('\n').collect();
    let header = lines.remove(0);
    let found = parse_header(header, MAGIC, FORMAT_VERSION).map_err(|e| e.at(origin))?;
    check_kind(found, origin, kind)?;
    let declared = match lines.last().copied().and_then(trailer_checksum) {
        Some(sum) => {
            lines.pop();
            Some(sum)
        }
        None => None,
    };
    Ok(SalvageFrame {
        header,
        parser: Parser {
            origin,
            lines,
            pos: 0,
        },
        declared,
    })
}

/// A strict cursor over an artifact's body lines. Body line `i` (0-based
/// in the body) is file line `i + 2` (after the header).
#[derive(Debug)]
pub struct Parser<'a> {
    origin: &'a str,
    lines: Vec<&'a str>,
    pos: usize,
}

impl<'a> Parser<'a> {
    /// The 1-based file line number of the *next* line to be consumed
    /// (or of the end of the body once exhausted).
    pub fn lineno(&self) -> usize {
        self.pos + 2
    }

    /// A format error at the current position.
    pub fn error(&self, reason: impl Into<String>) -> Error {
        Error::format(self.origin, self.lineno().saturating_sub(1), reason)
    }

    /// Remaining unconsumed body lines.
    pub fn remaining(&self) -> usize {
        self.lines.len() - self.pos
    }

    /// The next body line without consuming it.
    pub fn peek(&self) -> Option<&'a str> {
        self.lines.get(self.pos).copied()
    }

    /// Consumes and returns the next body line.
    ///
    /// # Errors
    ///
    /// [`Error::Format`] when the body is exhausted.
    pub fn next_line(&mut self) -> Result<&'a str, Error> {
        let line = self.lines.get(self.pos).copied().ok_or_else(|| {
            Error::format(
                self.origin,
                self.lineno(),
                "unexpected end of artifact body",
            )
        })?;
        self.pos += 1;
        Ok(line)
    }

    /// Consumes the next line and strips a required `keyword ` prefix,
    /// returning the rest.
    ///
    /// # Errors
    ///
    /// [`Error::Format`] when the body is exhausted or the keyword does
    /// not match.
    pub fn keyword_line(&mut self, keyword: &str) -> Result<&'a str, Error> {
        let line = self.next_line()?;
        line.strip_prefix(keyword)
            .and_then(|rest| rest.strip_prefix(' ').or(rest.is_empty().then_some("")))
            .ok_or_else(|| self.error(format!("expected `{keyword}` line, found `{line}`")))
    }

    /// All body lines (consumed or not), for checksum re-verification.
    pub fn lines(&self) -> &[&'a str] {
        &self.lines
    }

    /// The current cursor position (a 0-based body-line index), for
    /// [`Parser::restore`] after a failed speculative parse.
    pub fn save(&self) -> usize {
        self.pos
    }

    /// Rewinds the cursor to a position from [`Parser::save`].
    pub fn restore(&mut self, pos: usize) {
        self.pos = pos.min(self.lines.len());
    }

    /// Consumes lines until the next line starts with `prefix` (or the
    /// body ends), returning the 0-based indices of the skipped lines.
    pub fn skip_to_prefix(&mut self, prefix: &str) -> Vec<usize> {
        let mut skipped = Vec::new();
        while let Some(line) = self.peek() {
            if line.starts_with(prefix) {
                break;
            }
            skipped.push(self.pos);
            self.pos += 1;
        }
        skipped
    }

    /// Asserts the whole body was consumed.
    ///
    /// # Errors
    ///
    /// [`Error::Format`] when unparsed lines remain.
    pub fn finish(&self) -> Result<(), Error> {
        if self.pos != self.lines.len() {
            return Err(Error::format(
                self.origin,
                self.lineno(),
                "trailing lines after artifact body",
            ));
        }
        Ok(())
    }
}

/// Serializes a finite `f64` so that parsing recovers the identical bit
/// pattern (Rust's shortest round-trip `Display`).
pub fn fmt_f64(x: f64) -> String {
    format!("{x}")
}

/// Parses a finite `f64` token.
///
/// # Errors
///
/// `Err(reason)` on unparsable or non-finite values (the store holds no
/// infinities or NaNs).
pub fn parse_f64(token: &str) -> Result<f64, String> {
    let x: f64 = token.parse().map_err(|_| format!("bad float `{token}`"))?;
    if !x.is_finite() {
        return Err(format!("non-finite float `{token}`"));
    }
    Ok(x)
}

/// Parses an unsigned integer token.
///
/// # Errors
///
/// `Err(reason)` on unparsable values.
pub fn parse_usize(token: &str) -> Result<usize, String> {
    token.parse().map_err(|_| format!("bad count `{token}`"))
}

/// Parses a `u64` token.
///
/// # Errors
///
/// `Err(reason)` on unparsable values.
pub fn parse_u64(token: &str) -> Result<u64, String> {
    token.parse().map_err(|_| format!("bad integer `{token}`"))
}

/// Hex-encodes a 16-byte block (plaintext / key).
pub fn fmt_block(block: &[u8; 16]) -> String {
    let mut s = String::with_capacity(32);
    for b in block {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Parses a 32-hex-digit 16-byte block.
///
/// # Errors
///
/// `Err(reason)` on bad length or non-hex digits.
pub fn parse_block(token: &str) -> Result<[u8; 16], String> {
    if token.len() != 32 || !token.is_ascii() {
        return Err(format!("block `{token}` must be 32 hex digits"));
    }
    let mut block = [0u8; 16];
    for (i, out) in block.iter_mut().enumerate() {
        *out = u8::from_str_radix(&token[2 * i..2 * i + 2], 16)
            .map_err(|_| format!("block `{token}` must be 32 hex digits"))?;
    }
    Ok(block)
}

/// Quotes a string for single-line embedding (netlist-serde escaping
/// rules: `"`, `\` and newlines are escaped).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parses a quoted string at the start of `s`; returns `(content, rest)`.
pub fn unquote(s: &str) -> Option<(String, &str)> {
    let s = s.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '\\' => match chars.next() {
                Some((_, 'n')) => out.push('\n'),
                Some((_, e)) => out.push(e),
                None => return None,
            },
            '"' => return Some((out, &s[i + 1..])),
            c => out.push(c),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_roundtrip_bit_exactly() {
        for x in [
            0.0,
            -0.0,
            1.0,
            -1.5,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            135.20218460648155,
            1e-300,
        ] {
            let s = fmt_f64(x);
            let back = parse_f64(&s).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{s}");
        }
        assert!(parse_f64("inf").is_err());
        assert!(parse_f64("NaN").is_err());
        assert!(parse_f64("1.0x").is_err());
    }

    #[test]
    fn blocks_roundtrip() {
        let block: [u8; 16] = core::array::from_fn(|i| (i * 17) as u8);
        let s = fmt_block(&block);
        assert_eq!(parse_block(&s).unwrap(), block);
        assert!(parse_block("00").is_err());
        assert!(parse_block("zz112233445566778899aabbccddeeff").is_err());
    }

    #[test]
    fn quoting_roundtrips() {
        for s in ["plain", "with \"quotes\"", "back\\slash", "new\nline", ""] {
            let q = quote(s);
            let (back, rest) = unquote(&q).unwrap();
            assert_eq!(back, s);
            assert_eq!(rest, "");
        }
        assert!(unquote("no quote").is_none());
        assert!(unquote("\"unterminated").is_none());
    }

    #[test]
    fn framing_detects_tampering() {
        let text = frame(MAGIC, FORMAT_VERSION, "plan", "dies 6\n");
        assert!(unframe(&text, IN_MEMORY, "plan").is_ok());
        // Wrong kind.
        assert!(unframe(&text, IN_MEMORY, "report").is_err());
        // Flipped body byte.
        let tampered = text.replace("dies 6", "dies 7");
        assert!(matches!(
            unframe(&tampered, IN_MEMORY, "plan"),
            Err(Error::Format { .. })
        ));
        // Unsupported version.
        let v2 =
            frame(MAGIC, FORMAT_VERSION, "plan", "dies 6\n").replace("htdstore 1", "htdstore 2");
        assert!(unframe(&v2, IN_MEMORY, "plan").is_err());
        // Missing trailer.
        assert!(unframe("htdstore 1 plan\n", IN_MEMORY, "plan").is_err());
    }
}
