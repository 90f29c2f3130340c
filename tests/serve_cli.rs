//! End-to-end tests of `htd serve`: a real server on a real socket,
//! driven through the library client. The load-bearing claims: served
//! responses embed the byte-identical report the offline `htd score`
//! path writes — at 1, 2 and 8 workers, with the result cache disabled
//! so every request really scores — and every failure mode (malformed
//! frame, queue overflow, faulted acquisition) degrades exactly one
//! response while the server lives on.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use htd_obs::RunManifest;
use htd_serve::{Client, Request, Response};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("htd-serve-{}-{}", std::process::id(), tag));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn htd(args: &[&str]) -> std::process::Output {
    let out = Command::new(env!("CARGO_BIN_EXE_htd"))
        .args(args)
        .output()
        .expect("htd spawns");
    assert!(
        out.status.success(),
        "htd {args:?} failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    out
}

/// The small pinned campaign every serve test scores against (matching
/// the CI smoke in `ci.sh`).
fn characterize(dir: &Path) -> String {
    let golden = dir.join("golden.htd").display().to_string();
    htd(&[
        "characterize",
        "--out",
        &golden,
        "--dies",
        "3",
        "--pairs",
        "2",
        "--reps",
        "2",
        "--seed",
        "42",
        "--channels",
        "em,delay",
    ]);
    golden
}

/// A serve instance on an ephemeral port: spawns `htd serve <extra>`,
/// blocks until the startup line names the bound address.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn spawn(extra: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_htd"))
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("htd serve spawns");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("serve exited before binding")
                .expect("readable stdout");
            if let Some(addr) = line.strip_prefix("serving on ") {
                break addr.to_string();
            }
        };
        // Keep draining stdout in the background so the closing summary
        // cannot block the child on a full pipe.
        std::thread::spawn(move || for _ in lines {});
        Server { child, addr }
    }

    fn client(&self) -> Client {
        Client::connect(self.addr.as_str()).expect("client connects")
    }

    /// Sends `shutdown` and waits for a clean exit.
    fn shutdown(mut self) {
        let mut client = self.client();
        assert_eq!(
            client.call(&Request::Shutdown).expect("shutdown answered"),
            Response::Done
        );
        let status = self.child.wait().expect("serve exits");
        assert!(status.success(), "serve exited with {status}");
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Belt and braces for assertion failures mid-test: never leave
        // a server behind.
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

fn score(client: &mut Client, golden: &str, suspect: &str) -> Response {
    client
        .call(&Request::Score {
            golden: golden.to_string(),
            suspect: suspect.to_string(),
            model: None,
            request: None,
        })
        .expect("score answered")
}

#[test]
fn served_scores_are_bit_identical_to_offline_at_any_worker_count() {
    let dir = scratch("identity");
    let golden = characterize(&dir);

    // The offline truth: one report per suspect via `htd score`.
    let mut offline = Vec::new();
    for suspect in ["ht1", "ht-seq"] {
        let path = dir.join(format!("offline-{suspect}.htd"));
        htd(&[
            "score",
            "--golden",
            &golden,
            "--trojans",
            suspect,
            "--report",
            &path.display().to_string(),
        ]);
        offline.push((
            suspect,
            std::fs::read_to_string(&path).expect("offline report"),
        ));
    }

    for workers in ["1", "2", "8"] {
        // --result-cache 0: every request must really score, so worker
        // invariance is exercised, not memoized away.
        let server = Server::spawn(&["--workers", workers, "--result-cache", "0"]);
        let mut client = server.client();
        // Twice per suspect: rescoring the same request must also agree.
        for _round in 0..2 {
            for (suspect, expected) in &offline {
                let response = score(&mut client, &golden, suspect);
                let Response::Score {
                    report,
                    plan,
                    suspect: echoed,
                    request,
                } = response
                else {
                    panic!("expected a score at {workers} workers, got {response:?}");
                };
                assert_eq!(&echoed, suspect);
                assert_eq!(request, None, "id-less requests get id-less responses");
                assert!(plan.starts_with("fnv1a64:"), "bad plan digest {plan}");
                assert_eq!(
                    &report, expected,
                    "served {suspect} differs from offline at {workers} workers"
                );
            }
        }
        server.shutdown();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A reference-free golden serves exactly like it scores offline: the
/// server sniffs the artifact kind, runs the reference-free session,
/// and the embedded report is byte-identical to `htd score --report` —
/// at 1, 2 and 8 workers.
#[test]
fn served_reference_free_scores_are_bit_identical_to_offline() {
    let dir = scratch("reffree");
    let golden = dir.join("reffree.htd").display().to_string();
    htd(&[
        "characterize",
        "--out",
        &golden,
        "--mode",
        "reference-free",
        "--dies",
        "4",
        "--pairs",
        "2",
        "--reps",
        "2",
        "--seed",
        "42",
        "--channels",
        "em,delay",
    ]);

    let mut offline = Vec::new();
    for suspect in ["ht1", "ht2"] {
        let path = dir.join(format!("offline-{suspect}.htd"));
        htd(&[
            "score",
            "--golden",
            &golden,
            "--trojans",
            suspect,
            "--report",
            &path.display().to_string(),
        ]);
        offline.push((
            suspect,
            std::fs::read_to_string(&path).expect("offline report"),
        ));
    }

    for workers in ["1", "2", "8"] {
        let server = Server::spawn(&["--workers", workers, "--result-cache", "0"]);
        let mut client = server.client();
        for _round in 0..2 {
            for (suspect, expected) in &offline {
                let response = score(&mut client, &golden, suspect);
                let Response::Score { report, .. } = response else {
                    panic!("expected a score at {workers} workers, got {response:?}");
                };
                assert_eq!(
                    &report, expected,
                    "served reference-free {suspect} differs from offline at {workers} workers"
                );
            }
        }
        server.shutdown();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Learned-mode serving: a request carrying a `model` scores through
/// the classifier byte-identically to offline `htd score --model`, a
/// malformed or missing model file degrades exactly those responses
/// into `error` (never the connection), and model-less requests on the
/// same golden are unaffected.
#[test]
fn served_model_scores_match_offline_and_bad_models_degrade_gracefully() {
    let dir = scratch("model");
    let golden = characterize(&dir);
    let model = dir.join("model.htd").display().to_string();
    htd(&[
        "train",
        "--out",
        &model,
        "--sizes",
        "8",
        "--kinds",
        "comb",
        "--dies",
        "4",
        "--iterations",
        "50",
    ]);

    let offline_learned = dir.join("offline-learned.htd");
    htd(&[
        "score",
        "--golden",
        &golden,
        "--model",
        &model,
        "--trojans",
        "ht1",
        "--report",
        &offline_learned.display().to_string(),
    ]);
    let offline_learned = std::fs::read_to_string(&offline_learned).expect("offline report");
    let offline_plain = dir.join("offline-plain.htd");
    htd(&[
        "score",
        "--golden",
        &golden,
        "--trojans",
        "ht1",
        "--report",
        &offline_plain.display().to_string(),
    ]);
    let offline_plain = std::fs::read_to_string(&offline_plain).expect("offline report");

    // A well-framed store file that is *not* a classifier.
    let not_a_model = dir.join("not-a-model.htd").display().to_string();
    std::fs::copy(&golden, &not_a_model).expect("copy golden");

    let server = Server::spawn(&[]);
    let mut client = server.client();
    let score_with = |client: &mut Client, model: Option<String>| {
        client
            .call(&Request::Score {
                golden: golden.clone(),
                suspect: "ht1".to_string(),
                model,
                request: None,
            })
            .expect("score answered")
    };

    // Interleaved model/no-model rounds: the result cache must never
    // serve a learned report for a plain request or vice versa.
    for _round in 0..2 {
        let response = score_with(&mut client, Some(model.clone()));
        let Response::Score { report, .. } = response else {
            panic!("expected a learned score, got {response:?}");
        };
        assert_eq!(report, offline_learned, "served learned report differs");

        let response = score_with(&mut client, None);
        let Response::Score { report, .. } = response else {
            panic!("expected a plain score, got {response:?}");
        };
        assert_eq!(report, offline_plain, "served plain report differs");
    }

    // A nonexistent model path degrades the response, not the server.
    let response = score_with(
        &mut client,
        Some(dir.join("missing.htd").display().to_string()),
    );
    assert!(matches!(&response, Response::Error { .. }), "{response:?}");

    // A malformed classifier upload (valid store file, wrong kind) is
    // answered with `error` on a live connection — never a dropped
    // socket.
    let response = score_with(&mut client, Some(not_a_model));
    assert!(matches!(&response, Response::Error { .. }), "{response:?}");
    assert_eq!(client.call(&Request::Ping).expect("ping"), Response::Done);

    // And the connection still scores normally afterwards.
    let response = score_with(&mut client, Some(model));
    assert!(matches!(response, Response::Score { .. }), "{response:?}");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn same_plan_different_channels_never_share_a_cached_score() {
    let dir = scratch("collide");
    // Identical dies/pairs/reps/seed — identical campaign plan, hence
    // identical plan digest — but different channels, so the artifacts
    // are byte-distinct and score differently. A cache keyed by plan
    // digest alone would serve whichever loaded last for both paths.
    let mut goldens = Vec::new();
    for channels in ["em", "delay"] {
        let golden = dir
            .join(format!("golden-{channels}.htd"))
            .display()
            .to_string();
        htd(&[
            "characterize",
            "--out",
            &golden,
            "--dies",
            "3",
            "--pairs",
            "2",
            "--reps",
            "2",
            "--seed",
            "42",
            "--channels",
            channels,
        ]);
        let offline = dir.join(format!("offline-{channels}.htd"));
        htd(&[
            "score",
            "--golden",
            &golden,
            "--trojans",
            "ht1",
            "--report",
            &offline.display().to_string(),
        ]);
        goldens.push((
            golden,
            std::fs::read_to_string(&offline).expect("offline report"),
        ));
    }
    assert_ne!(
        goldens[0].1, goldens[1].1,
        "the two channels must produce different reports for the test to bite"
    );

    let server = Server::spawn(&[]);
    let mut client = server.client();
    // Interleave, twice: the second round is served from the caches
    // both goldens now occupy, and each path must still get its own
    // report — byte-identical to its own offline run.
    for _round in 0..2 {
        for (golden, expected) in &goldens {
            let response = score(&mut client, golden, "ht1");
            let Response::Score { report, .. } = response else {
                panic!("expected a score for {golden}, got {response:?}");
            };
            assert_eq!(
                &report, expected,
                "served report for {golden} differs from its own offline run"
            );
        }
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_fatal_manifest_error_stops_the_server_instead_of_stranding_clients() {
    let dir = scratch("fatal");
    let golden = characterize(&dir);
    // The manifest path's parent directory does not exist, and
    // --metrics-every 1 makes the very first scored batch try (and
    // fail) to write it: the scheduler exits with the error.
    let manifest = dir.join("missing-dir").join("manifest.json");
    let server = Server::spawn(&[
        "--metrics",
        &manifest.display().to_string(),
        "--metrics-every",
        "1",
    ]);
    let mut client = server.client();
    // The batch answers before the manifest write, so this request is
    // still served.
    let response = score(&mut client, &golden, "ht1");
    assert!(matches!(response, Response::Score { .. }), "{response:?}");

    // The scheduler's exit must unblock the accept loop and end the
    // process promptly — no shutdown request, no lingering clients.
    let mut server = server;
    let status = 'wait: {
        for _ in 0..100 {
            if let Some(status) = server.child.try_wait().expect("child pollable") {
                break 'wait status;
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        panic!("server still running 10s after the fatal manifest error");
    };
    assert_eq!(
        status.code(),
        Some(2),
        "a fatal serve error must exit with the CLI's error status"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_requests_get_error_responses_not_a_dead_server() {
    let server = Server::spawn(&[]);
    let mut client = server.client();
    for (case, raw) in [
        (
            "bad checksum",
            "htdserve 1 ping\nchecksum fnv1a64 0000000000000000\n".to_string(),
        ),
        ("unknown verb", frame_of("htdserve 1 explode\n")),
        (
            "bad score body",
            frame_of("htdserve 1 score\ngolden unquoted path\nsuspect ht2\n"),
        ),
        ("wrong magic", frame_of("htdstore 1 ping\n")),
        ("future version", frame_of("htdserve 99 ping\n")),
    ] {
        client.send_raw(raw.as_bytes()).expect("raw frame sent");
        let response = client.read_response().expect("server answered");
        assert!(
            matches!(&response, Response::Error { reason } if reason.contains("malformed")),
            "{case}: {response:?}"
        );
    }
    // An unknown suspect token fails at resolution, same connection.
    let response = score(&mut client, "/nonexistent.htd", "ht2");
    assert!(matches!(response, Response::Error { .. }), "{response:?}");
    // The server is still fully alive.
    assert_eq!(client.call(&Request::Ping).expect("ping"), Response::Done);
    server.shutdown();
}

/// Runs `f` on its own thread and returns its result, failing the test
/// instead of hanging it when no answer arrives within `secs`.
fn within<T: Send + 'static>(secs: u64, what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(f()).ok());
    rx.recv_timeout(std::time::Duration::from_secs(secs))
        .unwrap_or_else(|_| panic!("{what}: no answer within {secs} s"))
}

/// A checksum-valid golden whose stored reference does not match what
/// the lab acquires — the committed `tests/fixtures/golden.htd`, with a
/// 4-sample EM trace — costs its request an `error` response. The
/// scheduler lives on: a well-formed request from another client is
/// answered, and `shutdown` still ends the process promptly.
#[test]
fn a_mis_shaped_golden_degrades_one_response_not_the_scheduler() {
    let dir = scratch("mis-shaped");
    let golden = characterize(&dir);
    let mis_shaped = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/golden.htd")
        .display()
        .to_string();
    let mut server = Server::spawn(&[]);
    let addr = server.addr.clone();

    let response = within(30, "mis-shaped score", {
        let addr = addr.clone();
        move || {
            score(
                &mut Client::connect(addr.as_str()).unwrap(),
                &mis_shaped,
                "ht2",
            )
        }
    });
    assert!(
        matches!(&response, Response::Error { reason }
            if reason.contains("EM channel received data of the wrong shape")),
        "{response:?}"
    );

    let response = within(30, "well-formed score after it", {
        let addr = addr.clone();
        move || score(&mut Client::connect(addr.as_str()).unwrap(), &golden, "ht2")
    });
    assert!(matches!(response, Response::Score { .. }), "{response:?}");

    let response = within(30, "shutdown", move || {
        Client::connect(addr.as_str())
            .unwrap()
            .call(&Request::Shutdown)
            .expect("shutdown answered")
    });
    assert_eq!(response, Response::Done);
    let status = 'wait: {
        for _ in 0..100 {
            if let Some(status) = server.child.try_wait().expect("child pollable") {
                break 'wait status;
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        panic!("server still running 10 s after shutdown");
    };
    assert!(status.success(), "serve exited with {status}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Appends a valid checksum trailer to `body` so only the *content* is
/// malformed, never the framing (a bad trailer is its own test case).
fn frame_of(body: &str) -> String {
    format!(
        "{body}checksum fnv1a64 {:016x}\n",
        htd_store::fnv1a64(body.as_bytes())
    )
}

#[test]
fn overflowing_the_queue_sheds_busy_responses() {
    let dir = scratch("busy");
    let golden = characterize(&dir);
    let server = Server::spawn(&[
        "--queue-depth",
        "1",
        "--workers",
        "1",
        "--result-cache",
        "0",
    ]);

    // 12 clients race one queue slot while the scheduler is busy with a
    // cold (hundreds of ms) score: most must be shed with `busy`.
    let mut handles = Vec::new();
    for _ in 0..12 {
        let addr = server.addr.clone();
        let golden = golden.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr.as_str()).expect("client connects");
            score(&mut client, &golden, "ht1")
        }));
    }
    let (mut ok, mut busy) = (0, 0);
    for handle in handles {
        match handle.join().expect("client thread") {
            Response::Score { .. } => ok += 1,
            Response::Busy { depth } => {
                assert_eq!(depth, 1, "busy must echo the configured depth");
                busy += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(ok + busy, 12);
    assert!(ok >= 1, "at least one request must be served");
    assert!(busy >= 1, "a depth-1 queue under 12 clients must shed");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn faulted_acquisitions_degrade_one_response_not_the_process() {
    let dir = scratch("faults");
    let golden = characterize(&dir);
    // Every acquisition attempt fails: under the strict policy each
    // score request exhausts its budget and errors.
    let faults = htd_faults::FaultPlan {
        seed: 7,
        acquire_rate: 1.0,
        rep_rate: 0.0,
        calibrate_rate: 0.0,
        store_rate: 0.0,
    };
    let fault_path = dir.join("faults.htd").display().to_string();
    std::fs::write(&fault_path, htd_store::to_text(&faults)).expect("fault plan written");

    let server = Server::spawn(&["--faults", &fault_path, "--result-cache", "0"]);
    let mut client = server.client();
    for _ in 0..2 {
        let response = score(&mut client, &golden, "ht1");
        assert!(
            matches!(&response, Response::Error { .. }),
            "fully faulted acquisition must degrade the response: {response:?}"
        );
    }
    // The process survived two faulted campaigns.
    assert_eq!(client.call(&Request::Ping).expect("ping"), Response::Done);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_writes_a_final_manifest_with_the_serve_counters() {
    let dir = scratch("manifest");
    let golden = characterize(&dir);
    let manifest_path = dir.join("manifest.json");
    let server = Server::spawn(&[
        "--metrics",
        &manifest_path.display().to_string(),
        // Larger than the request count: only the shutdown write fires.
        "--metrics-every",
        "1000",
    ]);
    let mut client = server.client();
    for suspect in ["ht2", "ht2", "ht-seq"] {
        let response = score(&mut client, &golden, suspect);
        assert!(matches!(response, Response::Score { .. }), "{response:?}");
    }
    server.shutdown();

    let manifest =
        RunManifest::parse(&std::fs::read_to_string(&manifest_path).expect("manifest written"))
            .expect("manifest parses strictly");
    assert_eq!(manifest.command, "serve");
    assert!(
        manifest.plan_digest.starts_with("fnv1a64:"),
        "manifest carries the last plan digest: {}",
        manifest.plan_digest
    );
    let get = |name: &str| {
        manifest
            .counters
            .iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("missing counter {name:?}"))
            .1
    };
    assert_eq!(get("serve.requests"), 3);
    assert_eq!(get("serve.responses.ok"), 3);
    assert_eq!(get("serve.batches"), 3, "sequential requests batch alone");
    // One golden, requested three times: one store miss, two hits.
    assert_eq!(get("store.cache.miss"), 1);
    assert_eq!(get("store.cache.hit"), 2);
    // ht2 repeats, so the result cache converts the second request.
    assert_eq!(get("serve.cache.result.miss"), 2);
    assert_eq!(get("serve.cache.result.hit"), 1);
    assert_eq!(
        get("serve.manifest.writes"),
        1,
        "only the final write fired"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The tentpole claim end to end: a served request's exported trace
/// carries the full span chain — accept, queue wait, batch, the scored
/// request, respond — every piece tagged with the id the client put on
/// the wire, and the response echoes that id back.
#[test]
fn traced_serve_tags_the_whole_request_chain_with_the_wire_id() {
    let dir = scratch("trace");
    let golden = characterize(&dir);
    let trace = dir.join("trace.json").display().to_string();
    let server = Server::spawn(&["--trace", &trace]);

    let mut client = server.client();
    let response = client
        .call(&Request::Score {
            golden: golden.clone(),
            suspect: "ht2".to_string(),
            model: None,
            request: Some("req-e2e-7".to_string()),
        })
        .expect("score answered");
    let Response::Score { request, .. } = response else {
        panic!("expected a score, got {response:?}");
    };
    assert_eq!(
        request.as_deref(),
        Some("req-e2e-7"),
        "the wire id must be echoed on the response"
    );
    // An id-less request on the same connection stays id-less on the
    // wire even though the server tags its own trace spans.
    let response = score(&mut client, &golden, "ht1");
    let Response::Score { request, .. } = response else {
        panic!("expected a score, got {response:?}");
    };
    assert_eq!(request, None);
    server.shutdown();

    let text = std::fs::read_to_string(&trace).expect("trace written at shutdown");
    let doc = htd_obs::Json::parse(&text).expect("trace is valid JSON");
    let htd_obs::Json::Obj(top) = &doc else {
        panic!("trace top level must be an object")
    };
    let htd_obs::Json::Arr(events) = &top
        .iter()
        .find(|(n, _)| n == "traceEvents")
        .expect("traceEvents present")
        .1
    else {
        panic!("traceEvents must be an array")
    };
    // Collect (event name, request tag) for every event carrying one.
    let mut tagged = Vec::new();
    let mut names = Vec::new();
    for event in events {
        let htd_obs::Json::Obj(event) = event else {
            panic!("every trace event is an object")
        };
        let get = |name: &str| {
            event
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.clone())
        };
        let name = get("name")
            .expect("named event")
            .as_str("name")
            .unwrap()
            .to_string();
        names.push(name.clone());
        if let Some(htd_obs::Json::Obj(args)) = get("args") {
            if let Some((_, htd_obs::Json::Str(id))) = args.iter().find(|(n, _)| n == "request") {
                tagged.push((name, id.clone()));
            }
        }
    }
    for stage in [
        "serve.accept",
        "serve.queue",
        "serve.request",
        "serve.respond",
    ] {
        assert!(
            tagged
                .iter()
                .any(|(name, id)| name == stage && id == "req-e2e-7"),
            "stage {stage} is not tagged with the wire id in {tagged:?}"
        );
        // The id-less request got a server-assigned srv-N tag: the
        // server's own trace is complete either way.
        assert!(
            tagged
                .iter()
                .any(|(name, id)| name == stage && id.starts_with("srv-")),
            "stage {stage} has no server-assigned tag in {tagged:?}"
        );
    }
    assert!(
        names.iter().any(|n| n == "serve.batch"),
        "the batch span is missing from {names:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `htd top --plain` polls the live `stats` verb: each block carries
/// uptime, queue depth and the full counter section, and consecutive
/// polls see each other (the manifest is live, not a boot snapshot).
#[test]
fn top_polls_live_stats_in_plain_mode() {
    let dir = scratch("top");
    let metrics = dir.join("metrics.json").display().to_string();
    // --metrics turns the recorder on; a bare server would answer stats
    // with an empty (but well-formed) counter section.
    let server = Server::spawn(&["--metrics", &metrics]);
    let out = Command::new(env!("CARGO_BIN_EXE_htd"))
        .args([
            "top",
            "--addr",
            &server.addr,
            "--iterations",
            "2",
            "--interval-ms",
            "10",
            "--plain",
        ])
        .output()
        .expect("htd top runs");
    assert!(
        out.status.success(),
        "htd top failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(stdout.contains("uptime_ns "), "{stdout}");
    assert!(stdout.contains("queue 0"), "{stdout}");
    assert!(
        stdout.contains("serve.stats.requests 1") && stdout.contains("serve.stats.requests 2"),
        "two polls must observe each other in the live counters:\n{stdout}"
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The perf-regression gate: self-diff of a run manifest is clean (exit
/// 0), a single counter drift exits 4, and the bench-JSON flavour gates
/// the deterministic request mix the same way.
#[test]
fn bench_diff_exits_4_on_regression_and_0_on_self_diff() {
    let dir = scratch("bench-diff");
    let golden = characterize(&dir);
    let manifest = dir.join("manifest.json").display().to_string();
    htd(&[
        "score",
        "--golden",
        &golden,
        "--trojans",
        "ht2",
        "--metrics",
        &manifest,
    ]);

    let diff = |old: &str, new: &str| {
        Command::new(env!("CARGO_BIN_EXE_htd"))
            .args(["bench", "diff", old, new])
            .output()
            .expect("bench diff runs")
    };
    let out = diff(&manifest, &manifest);
    assert_eq!(out.status.code(), Some(0), "self-diff must be clean");

    // Inject a counter regression: the gate must name it and exit 4.
    let mut parsed =
        RunManifest::parse(&std::fs::read_to_string(&manifest).expect("manifest")).unwrap();
    let (name, value) = parsed.counters[0].clone();
    parsed.counters[0].1 = value + 1;
    let regressed = dir.join("regressed.json");
    std::fs::write(&regressed, parsed.to_pretty()).expect("regressed manifest");
    let out = diff(&manifest, &regressed.display().to_string());
    assert_eq!(out.status.code(), Some(4), "a counter drift must exit 4");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(&name),
        "the regression report must name the counter {name:?}:\n{stdout}"
    );

    // Bench-JSON flavour: identical measurements are clean, a changed
    // outcome count (one request turned error) is a regression even
    // though every latency field differs wildly.
    let bench_old = dir.join("bench-old.json");
    let bench_new = dir.join("bench-new.json");
    std::fs::write(
        &bench_old,
        r#"{"bench": "serve", "requests": 300, "clients": 4, "shards": 1,
            "ok": 300, "errors": 0, "busy_retries": 12,
            "elapsed_ms": 901.2, "scores_per_sec": 333.0,
            "p50_ms": 8.1, "p99_ms": 31.9}"#,
    )
    .unwrap();
    std::fs::write(
        &bench_new,
        r#"{"bench": "serve", "requests": 300, "clients": 4, "shards": 1,
            "ok": 299, "errors": 1, "busy_retries": 77,
            "elapsed_ms": 450.0, "scores_per_sec": 660.0,
            "p50_ms": 4.0, "p99_ms": 16.0}"#,
    )
    .unwrap();
    let (old, new) = (
        bench_old.display().to_string(),
        bench_new.display().to_string(),
    );
    assert_eq!(diff(&old, &old).status.code(), Some(0));
    assert_eq!(diff(&old, &new).status.code(), Some(4));
    // Mixing the two file kinds is a usage error, not a regression.
    assert_eq!(diff(&manifest, &old).status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}
