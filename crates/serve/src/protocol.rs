//! The line-oriented serve protocol: the htd-store framing discipline
//! (versioned header, strict never-panic parse, FNV-1a checksum trailer)
//! applied to requests and responses on a socket.
//!
//! Every frame looks like an artifact:
//!
//! ```text
//! htdserve 1 <verb>
//! <verb-specific body lines>
//! checksum fnv1a64 <16 lowercase hex digits>
//! ```
//!
//! Request verbs: `score` (body: `golden "<path>"`, `suspect <token>`,
//! then optional `model "<path>"` and `request "<id>"` lines in that
//! order), `ping`, `stats` and `shutdown` (empty bodies). Response
//! verbs: `ok` (empty for ping/shutdown; for a score, `plan
//! fnv1a64:<digest>`, `suspect <token>`, an optional echoed `request
//! "<id>"`, `report <n>` and then `n` embedded report lines), `stats`
//! (body: `uptime_ns <n>`, `queue <n>`, `manifest <n>` and then `n`
//! embedded lines of the live run-manifest JSON), `busy` (body: `depth
//! <n>` — the queue shed this request), and `error` (body: `reason
//! "<text>"` — this request failed, the server lives on).
//!
//! The optional lines follow the wire-compatibility discipline the
//! `model` line set: absent when unset, so a peer that predates them
//! emits and accepts byte-identical frames. In particular a response
//! carries a `request` line only when the *request* carried one — a
//! server-assigned id tags the server's own trace, it never surprises
//! an old client on the wire.
//!
//! Embedded report lines are prefixed with `|` so the frame reader's
//! trailer scan can never mistake the *report's* own checksum trailer
//! for the frame's. Stripped of that prefix, the embedded lines are
//! byte-for-byte the store text `htd score --report` writes, so a client
//! can save them to disk and feed them straight to `htd report`/`htd
//! diff`.
//!
//! Parsing is strict and total: every malformed frame yields a
//! [`ProtocolError`] carrying the 1-based offending line; the protocol
//! layer never panics on bad input. The checksum covers every byte
//! before the trailer line, exactly like the store format.

use std::io::{BufRead, Read};

use htd_store::{quote, unquote, verify_frame};

/// Leading token of every frame's first line.
pub const MAGIC: &str = "htdserve";

/// Protocol version written and accepted by this build. Bump on any
/// incompatible grammar change; peers reject every other version.
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on a single frame's size. A request is a handful of
/// lines and a response embeds at most one report, so anything past
/// this is a framing bug or abuse, not data.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Prefix shielding embedded report lines from the trailer scan.
const EMBED_PREFIX: char = '|';

/// A malformed frame: the 1-based offending line and what was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// 1-based line of the violation (0 when the frame as a whole is
    /// unusable, e.g. missing its trailing newline).
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl ProtocolError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ProtocolError {
            line,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ProtocolError {}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Score one suspect against the golden artifact at a server-side
    /// path. The suspect token vocabulary is
    /// [`htd_trojan::TrojanSpec::from_token`]'s.
    Score {
        /// Server-side path of the golden artifact.
        golden: String,
        /// Suspect token (`ht1`, `ht2`, `ht-seq`, …).
        suspect: String,
        /// Server-side path of an optional `classifier` artifact; when
        /// present the fused column is the trained logistic model's
        /// verdict, exactly as `htd score --model` computes offline.
        /// Absent on the wire when `None`, so pre-classifier clients
        /// and servers interoperate unchanged.
        model: Option<String>,
        /// Client-chosen request id, attached to every span the server
        /// opens for this request and echoed on the response. Absent on
        /// the wire when `None` (the pre-tracing format); the server
        /// then assigns its own id for its trace and echoes nothing.
        request: Option<String>,
    },
    /// Liveness probe; answered with an empty `ok`.
    Ping,
    /// Ask for the server's live introspection snapshot; answered with
    /// [`Response::Stats`] inline by the handler — it never touches the
    /// scoring queue.
    Stats,
    /// Ask the server to stop accepting and drain its queue.
    Shutdown,
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// A scored suspect: the plan digest (the serve wire/shard key),
    /// the echoed suspect token, and the embedded one-row report — the
    /// exact store text `htd score --report` writes for the same
    /// (artifact, suspect) pair.
    Score {
        /// `fnv1a64:<16 hex>` digest of the golden artifact's plan.
        plan: String,
        /// The request's suspect token, echoed.
        suspect: String,
        /// The request id, echoed — `Some` exactly when the request
        /// carried one, so pre-tracing peers see unchanged bytes.
        request: Option<String>,
        /// Full store text of the one-row report (trailing newline
        /// included).
        report: String,
    },
    /// Empty `ok` (answer to ping and shutdown).
    Done,
    /// The live introspection snapshot ([`Request::Stats`]).
    Stats {
        /// Nanoseconds this server has been up.
        uptime_ns: u64,
        /// Score requests waiting in the queue right now.
        queue: u64,
        /// The live [`htd_obs::RunManifest`] pretty JSON (trailing
        /// newline included) — counters, timings, cache hit rates,
        /// exactly what a `--manifest` snapshot would write.
        manifest: String,
    },
    /// The bounded queue was full; the request was shed, not queued.
    Busy {
        /// The server's configured queue depth.
        depth: u64,
    },
    /// This request failed (malformed frame, unknown suspect, unloadable
    /// artifact, degraded-beyond-repair acquisition, …). The connection
    /// and the server both live on.
    Error {
        /// Human-readable failure description.
        reason: String,
    },
}

/// Frames a body under a verb ([`htd_store::frame`] under [`MAGIC`] and
/// [`PROTOCOL_VERSION`]).
fn frame(verb: &str, body: &str) -> String {
    htd_store::frame(MAGIC, PROTOCOL_VERSION, verb, body)
}

/// Verifies framing ([`htd_store::verify_frame`]) and returns the verb
/// plus the body lines.
fn unframe(text: &str) -> Result<(&str, Vec<&str>), ProtocolError> {
    let (verb, body) = verify_frame(text, MAGIC, PROTOCOL_VERSION)
        .map_err(|e| ProtocolError::new(e.line, e.message))?;
    Ok((verb, body.split_terminator('\n').collect()))
}

/// A `key value-rest` body line split at the first space; errors when the
/// key does not match.
fn keyed<'a>(lines: &[&'a str], at: usize, key: &str) -> Result<&'a str, ProtocolError> {
    let lineno = at + 2; // header is line 1, body starts at line 2
    let line = lines
        .get(at)
        .ok_or_else(|| ProtocolError::new(lineno, format!("missing `{key}` line")))?;
    line.strip_prefix(key)
        .and_then(|rest| rest.strip_prefix(' '))
        .ok_or_else(|| ProtocolError::new(lineno, format!("expected `{key} <value>`")))
}

/// Parses a `request "<id>"` body line at `at`: a quoted, non-empty id
/// of at most 128 bytes (it rides into span tags and trace args, so an
/// unbounded id is abuse, not data).
fn parse_request_id(lines: &[&str], at: usize) -> Result<String, ProtocolError> {
    let lineno = at + 2;
    let value = keyed(lines, at, "request")?;
    let (request, rest) =
        unquote(value).ok_or_else(|| ProtocolError::new(lineno, "expected `request \"<id>\"`"))?;
    if !rest.is_empty() {
        return Err(ProtocolError::new(lineno, "trailing tokens after the id"));
    }
    if request.is_empty() || request.len() > 128 {
        return Err(ProtocolError::new(
            lineno,
            "request id must be 1..=128 bytes",
        ));
    }
    Ok(request)
}

/// Appends `text`'s lines to `body`, each shielded by [`EMBED_PREFIX`],
/// under a `<key> <line count>` header line.
fn embed(body: &mut String, key: &str, text: &str) {
    let lines: Vec<&str> = text.trim_end_matches('\n').split('\n').collect();
    body.push_str(&format!("{key} {}\n", lines.len()));
    for line in lines {
        body.push(EMBED_PREFIX);
        body.push_str(line);
        body.push('\n');
    }
}

/// Parses a `<key> <n>` header at `at` plus its `n` embedded lines,
/// returning the reassembled text (trailing newline included).
fn unembed(lines: &[&str], at: usize, key: &str) -> Result<String, ProtocolError> {
    let lineno = at + 2;
    let count: usize = keyed(lines, at, key)?
        .parse()
        .map_err(|_| ProtocolError::new(lineno, format!("expected `{key} <line count>`")))?;
    if lines.len() != at + 1 + count {
        return Err(ProtocolError::new(
            lineno,
            format!(
                "{key} declares {count} line(s) but the body carries {}",
                lines.len().saturating_sub(at + 1)
            ),
        ));
    }
    let mut text = String::new();
    for (i, line) in lines[at + 1..].iter().enumerate() {
        let line = line.strip_prefix(EMBED_PREFIX).ok_or_else(|| {
            ProtocolError::new(
                at + i + 3,
                format!("embedded {key} lines must start with `{EMBED_PREFIX}`"),
            )
        })?;
        text.push_str(line);
        text.push('\n');
    }
    Ok(text)
}

/// Rejects trailing body lines a verb does not define.
fn no_more(lines: &[&str], from: usize) -> Result<(), ProtocolError> {
    if lines.len() > from {
        return Err(ProtocolError::new(
            from + 2,
            format!("unexpected body line {:?}", lines[from]),
        ));
    }
    Ok(())
}

impl Request {
    /// Renders this request as a framed wire text.
    pub fn to_text(&self) -> String {
        match self {
            Request::Score {
                golden,
                suspect,
                model,
                request,
            } => {
                let mut body = format!("golden {}\nsuspect {suspect}\n", quote(golden));
                if let Some(model) = model {
                    body.push_str(&format!("model {}\n", quote(model)));
                }
                if let Some(request) = request {
                    body.push_str(&format!("request {}\n", quote(request)));
                }
                frame("score", &body)
            }
            Request::Ping => frame("ping", ""),
            Request::Stats => frame("stats", ""),
            Request::Shutdown => frame("shutdown", ""),
        }
    }

    /// Parses a framed request.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on any framing, checksum, version, verb or
    /// grammar violation.
    pub fn parse(text: &str) -> Result<Request, ProtocolError> {
        let (verb, body) = unframe(text)?;
        match verb {
            "score" => {
                let golden = keyed(&body, 0, "golden")?;
                let (golden, rest) = unquote(golden)
                    .ok_or_else(|| ProtocolError::new(2, "expected `golden \"<path>\"`"))?;
                if !rest.is_empty() {
                    return Err(ProtocolError::new(2, "trailing tokens after the path"));
                }
                let suspect = keyed(&body, 1, "suspect")?;
                if suspect.is_empty() || suspect.contains(' ') {
                    return Err(ProtocolError::new(3, "suspect must be a single token"));
                }
                // Optional `model "<path>"` then `request "<id>"` lines,
                // in that order: frames without them are exactly the
                // older wire formats.
                let mut at = 2;
                let model = match body.get(at) {
                    Some(line) if line.starts_with("model ") || *line == "model" => {
                        let model = keyed(&body, at, "model")?;
                        let (model, rest) = unquote(model).ok_or_else(|| {
                            ProtocolError::new(at + 2, "expected `model \"<path>\"`")
                        })?;
                        if !rest.is_empty() {
                            return Err(ProtocolError::new(
                                at + 2,
                                "trailing tokens after the path",
                            ));
                        }
                        at += 1;
                        Some(model)
                    }
                    _ => None,
                };
                let request = match body.get(at) {
                    Some(line) if line.starts_with("request ") || *line == "request" => {
                        let request = parse_request_id(&body, at)?;
                        at += 1;
                        Some(request)
                    }
                    _ => None,
                };
                no_more(&body, at)?;
                Ok(Request::Score {
                    golden,
                    suspect: suspect.to_string(),
                    model,
                    request,
                })
            }
            "ping" => {
                no_more(&body, 0)?;
                Ok(Request::Ping)
            }
            "stats" => {
                no_more(&body, 0)?;
                Ok(Request::Stats)
            }
            "shutdown" => {
                no_more(&body, 0)?;
                Ok(Request::Shutdown)
            }
            other => Err(ProtocolError::new(
                1,
                format!("unknown request verb `{other}` (score, ping, stats, shutdown)"),
            )),
        }
    }
}

impl Response {
    /// Renders this response as a framed wire text.
    pub fn to_text(&self) -> String {
        match self {
            Response::Score {
                plan,
                suspect,
                request,
                report,
            } => {
                let mut body = format!("plan {plan}\nsuspect {suspect}\n");
                if let Some(request) = request {
                    body.push_str(&format!("request {}\n", quote(request)));
                }
                embed(&mut body, "report", report);
                frame("ok", &body)
            }
            Response::Done => frame("ok", ""),
            Response::Stats {
                uptime_ns,
                queue,
                manifest,
            } => {
                let mut body = format!("uptime_ns {uptime_ns}\nqueue {queue}\n");
                embed(&mut body, "manifest", manifest);
                frame("stats", &body)
            }
            Response::Busy { depth } => frame("busy", &format!("depth {depth}\n")),
            Response::Error { reason } => frame("error", &format!("reason {}\n", quote(reason))),
        }
    }

    /// Parses a framed response.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on any framing, checksum, version, verb or
    /// grammar violation.
    pub fn parse(text: &str) -> Result<Response, ProtocolError> {
        let (verb, body) = unframe(text)?;
        match verb {
            "ok" if body.is_empty() => Ok(Response::Done),
            "ok" => {
                let plan = keyed(&body, 0, "plan")?;
                if plan.strip_prefix("fnv1a64:").is_none_or(|hex| {
                    hex.len() != 16 || !hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
                }) {
                    return Err(ProtocolError::new(2, "expected `plan fnv1a64:<16 hex>`"));
                }
                let suspect = keyed(&body, 1, "suspect")?;
                // Optional echoed `request "<id>"` line before the
                // report, present exactly when the request carried one.
                let mut at = 2;
                let request = match body.get(at) {
                    Some(line) if line.starts_with("request ") || *line == "request" => {
                        let request = parse_request_id(&body, at)?;
                        at += 1;
                        Some(request)
                    }
                    _ => None,
                };
                let report = unembed(&body, at, "report")?;
                Ok(Response::Score {
                    plan: plan.to_string(),
                    suspect: suspect.to_string(),
                    request,
                    report,
                })
            }
            "stats" => {
                let uptime_ns: u64 = keyed(&body, 0, "uptime_ns")?
                    .parse()
                    .map_err(|_| ProtocolError::new(2, "expected `uptime_ns <n>`"))?;
                let queue: u64 = keyed(&body, 1, "queue")?
                    .parse()
                    .map_err(|_| ProtocolError::new(3, "expected `queue <n>`"))?;
                let manifest = unembed(&body, 2, "manifest")?;
                Ok(Response::Stats {
                    uptime_ns,
                    queue,
                    manifest,
                })
            }
            "busy" => {
                let depth = keyed(&body, 0, "depth")?
                    .parse()
                    .map_err(|_| ProtocolError::new(2, "expected `depth <n>`"))?;
                no_more(&body, 1)?;
                Ok(Response::Busy { depth })
            }
            "error" => {
                let reason = keyed(&body, 0, "reason")?;
                let (reason, rest) = unquote(reason)
                    .ok_or_else(|| ProtocolError::new(2, "expected `reason \"<text>\"`"))?;
                if !rest.is_empty() {
                    return Err(ProtocolError::new(2, "trailing tokens after the reason"));
                }
                no_more(&body, 1)?;
                Ok(Response::Error { reason })
            }
            other => Err(ProtocolError::new(
                1,
                format!("unknown response verb `{other}` (ok, stats, busy, error)"),
            )),
        }
    }
}

/// Reads one frame off a buffered stream: lines up to and including the
/// first line that opens with `checksum ` (embedded report lines are
/// `|`-prefixed, so a report's own trailer never terminates the frame
/// early). Returns `Ok(None)` on a clean end-of-stream at a frame
/// boundary.
///
/// # Errors
///
/// I/O errors from the stream; `UnexpectedEof` when the stream ends
/// mid-frame; `InvalidData` when a frame exceeds [`MAX_FRAME_BYTES`].
pub fn read_frame<R: BufRead>(reader: &mut R) -> std::io::Result<Option<String>> {
    let mut text = String::new();
    let mut line = String::new();
    loop {
        line.clear();
        // Bound the read so a hostile peer cannot balloon one "line".
        let n = reader
            .by_ref()
            .take((MAX_FRAME_BYTES + 1) as u64)
            .read_line(&mut line)?;
        if n == 0 {
            return if text.is_empty() {
                Ok(None)
            } else {
                Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "stream ended mid-frame",
                ))
            };
        }
        text.push_str(&line);
        if text.len() > MAX_FRAME_BYTES {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "frame exceeds the protocol size bound",
            ));
        }
        if line.starts_with("checksum ") && line.ends_with('\n') {
            return Ok(Some(text));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(request: &Request) {
        let text = request.to_text();
        assert_eq!(&Request::parse(&text).unwrap(), request, "{text}");
    }

    fn roundtrip_response(response: &Response) {
        let text = response.to_text();
        assert_eq!(&Response::parse(&text).unwrap(), response, "{text}");
    }

    #[test]
    fn every_frame_roundtrips() {
        roundtrip_request(&Request::Score {
            golden: "goldens/aes with space.htd".into(),
            suspect: "ht2".into(),
            model: None,
            request: None,
        });
        roundtrip_request(&Request::Score {
            golden: "goldens/aes.htd".into(),
            suspect: "ht2".into(),
            model: Some("models/learned with space.htd".into()),
            request: None,
        });
        roundtrip_request(&Request::Score {
            golden: "goldens/aes.htd".into(),
            suspect: "ht2".into(),
            model: None,
            request: Some("req with \"quotes\"".into()),
        });
        roundtrip_request(&Request::Score {
            golden: "goldens/aes.htd".into(),
            suspect: "ht2".into(),
            model: Some("models/learned.htd".into()),
            request: Some("client-7".into()),
        });
        roundtrip_request(&Request::Ping);
        roundtrip_request(&Request::Stats);
        roundtrip_request(&Request::Shutdown);
        roundtrip_response(&Response::Done);
        roundtrip_response(&Response::Busy { depth: 64 });
        roundtrip_response(&Response::Error {
            reason: "quoted \"reason\"\nwith a newline".into(),
        });
        // The embedded report carries its own checksum trailer; the
        // `|` prefix keeps it from terminating the outer frame.
        roundtrip_response(&Response::Score {
            plan: "fnv1a64:56beaff94e0d743d".into(),
            suspect: "ht2".into(),
            request: None,
            report: "htdstore 1 report\nrows 0\nchecksum fnv1a64 0123456789abcdef\n".into(),
        });
        roundtrip_response(&Response::Score {
            plan: "fnv1a64:56beaff94e0d743d".into(),
            suspect: "ht2".into(),
            request: Some("client-7".into()),
            report: "htdstore 1 report\nrows 0\nchecksum fnv1a64 0123456789abcdef\n".into(),
        });
        // The embedded manifest is JSON with `"..."` lines; the same
        // prefix discipline shields it.
        roundtrip_response(&Response::Stats {
            uptime_ns: 123_456_789,
            queue: 3,
            manifest: "{\n  \"manifest_version\": 1\n}\n".into(),
        });
    }

    #[test]
    fn model_line_is_optional_on_the_wire() {
        // A model-less request is byte-identical to the pre-classifier
        // wire format: no `model` line at all.
        let plain = Request::Score {
            golden: "g.htd".into(),
            suspect: "ht1".into(),
            model: None,
            request: None,
        }
        .to_text();
        assert!(!plain.contains("\nmodel "), "{plain:?}");
        assert!(!plain.contains("\nrequest "), "{plain:?}");
        // A present-but-malformed model line is rejected with its line.
        let bad = frame("score", "golden \"g\"\nsuspect ht1\nmodel unquoted\n");
        let err = Request::parse(&bad).unwrap_err();
        assert_eq!(err.line, 4);
    }

    #[test]
    fn request_id_lines_are_optional_and_ordered() {
        // An id-less response is byte-identical to the pre-tracing wire
        // format: no `request` line at all.
        let plain = Response::Score {
            plan: "fnv1a64:0000000000000000".into(),
            suspect: "ht1".into(),
            request: None,
            report: "row\n".into(),
        }
        .to_text();
        assert!(!plain.contains("\nrequest "), "{plain:?}");

        // `request` must follow `model`, not precede it: the grammar
        // has one canonical rendering per request.
        let swapped = frame(
            "score",
            "golden \"g\"\nsuspect ht1\nrequest \"r-1\"\nmodel \"m\"\n",
        );
        assert!(Request::parse(&swapped).is_err());

        // Ill-formed ids are rejected with their line, never accepted.
        for body in [
            "golden \"g\"\nsuspect ht1\nrequest unquoted\n",
            "golden \"g\"\nsuspect ht1\nrequest \"\"\n",
            &format!(
                "golden \"g\"\nsuspect ht1\nrequest \"{}\"\n",
                "x".repeat(129)
            ),
        ] {
            let err = Request::parse(&frame("score", body)).unwrap_err();
            assert_eq!(err.line, 4, "{body:?}");
        }

        // Duplicated optional lines do not parse.
        let doubled = frame(
            "score",
            "golden \"g\"\nsuspect ht1\nrequest \"a\"\nrequest \"b\"\n",
        );
        assert!(Request::parse(&doubled).is_err());
    }

    #[test]
    fn stats_frames_are_strict() {
        // Body lines on the request are rejected.
        let bad = frame("stats", "surprise\n");
        assert!(Request::parse(&bad).is_err());
        // A stats response with a lying line count is rejected.
        let lying = frame("stats", "uptime_ns 1\nqueue 0\nmanifest 2\n|{}\n");
        assert!(Response::parse(&lying).is_err());
        // Embedded lines missing the shield prefix are rejected.
        let unshielded = frame("stats", "uptime_ns 1\nqueue 0\nmanifest 1\n{}\n");
        assert!(Response::parse(&unshielded).is_err());
    }

    #[test]
    fn embedded_report_does_not_break_frame_reading() {
        let response = Response::Score {
            plan: "fnv1a64:0000000000000000".into(),
            suspect: "ht1".into(),
            request: None,
            report: "htdstore 1 report\nchecksum fnv1a64 0123456789abcdef\n".into(),
        };
        let wire = response.to_text();
        let mut reader = std::io::BufReader::new(wire.as_bytes());
        let frame = read_frame(&mut reader).unwrap().expect("one frame");
        assert_eq!(frame, wire);
        assert!(read_frame(&mut reader).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn malformed_frames_error_without_panicking() {
        let valid = Request::Ping.to_text();
        for (case, text) in [
            ("no trailing newline", valid.trim_end().to_string()),
            ("empty", String::new()),
            ("no trailer", "htdserve 1 ping\n".to_string()),
            (
                "bad checksum",
                valid.replace(
                    &valid[valid.len() - 17..valid.len() - 1],
                    "0000000000000000",
                ),
            ),
            ("uppercase checksum", valid.to_ascii_uppercase()),
            ("wrong magic", valid.replace(MAGIC, "htdstore")),
            ("future version", valid.replace("htdserve 1", "htdserve 2")),
        ] {
            let err = Request::parse(&text);
            assert!(err.is_err(), "{case}: {text:?} parsed");
        }
        // An unknown verb and a bad body still carry a line number.
        let unknown = frame("install-malware", "");
        let err = Request::parse(&unknown).unwrap_err();
        assert_eq!(err.line, 1);
        let bad_body = frame("score", "golden unquoted\nsuspect ht2\n");
        let err = Request::parse(&bad_body).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let mut wire = String::from("htdserve 1 score\n");
        while wire.len() <= MAX_FRAME_BYTES {
            wire.push_str("golden \"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx\"\n");
        }
        let mut reader = std::io::BufReader::new(wire.as_bytes());
        let err = read_frame(&mut reader).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
