//! The serve workload: several small goldens behind one `htd serve`,
//! an open-loop mix of (golden, suspect) requests at a fixed rate, then
//! a short fixed-rate ladder.
//!
//! The result memo holds fewer entries than the (golden, suspect)
//! working set. The seed splits the working set into a hot half, drawn
//! uniformly by most requests, and a cold half that every twentieth
//! request walks round-robin. Hot pairs stay in the memo and cost
//! framing plus a lookup; each cold pair has been evicted by the time
//! it comes round again, so one request in twenty pays a cold scoring
//! campaign on the single scheduler thread, and hot requests arriving
//! meanwhile queue behind it. Fixing the cold share, rather than
//! leaving it to a random mix, keeps the median among the hot requests
//! and the tail among the cold ones on every seed.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Stdio};
use std::time::{Duration, Instant};

use htd_obs::RunManifest;
use htd_serve::client::Client;
use htd_serve::protocol::{Request, Response};

use crate::check::{fn_err_pp, fused_fn_rates};
use crate::loadgen::{poisson_dues, run_phase, Outcome, Planned};
use crate::percentile::{median, nearest_rank, sorted, tail};
use crate::proc::reap;
use crate::traced::{counter, layer_metrics, ratio, run_op, ScoreOp, ServeLayers};
use crate::{args, metric, Ctx, Report, SplitMix};

/// Goldens characterized in set-up.
const GOLDENS: usize = 4;
/// Dies per golden: the paper's lot size.
const DIES: usize = 8;
/// Suspects requested against every golden.
const SUSPECTS: [&str; 5] = ["ht1", "ht2", "ht3", "ht-seq", "ht-comb"];
/// Result memo entries: fewer than the 20 (golden, suspect) pairs, more
/// than the 10 hot ones.
const RESULT_CACHE: usize = 16;
/// Every this many requests, one walks the cold half.
const COLD_EVERY: usize = 20;
/// The fixed arrival rate, requests per second (Poisson arrivals): the
/// cold share keeps the scheduler 10–15 % busy on the reference
/// machine.
const RATE: f64 = 30.0;
/// Ladder rungs above the fixed rate, requests per second (evenly
/// spaced arrivals). The first keeps the scheduler about 30 % busy on
/// the reference machine, the second overloads it.
const LADDER: [f64; 2] = [60.0, 600.0];
/// Latency limit: about four cold scores of one 8-die suspect
/// (≈60–90 ms each on the reference machine).
const LIMIT: Duration = Duration::from_millis(400);
/// Campaign worker count of the offline scores.
const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Server {
    /// `None` once reaped.
    child: Option<Child>,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Drop for Server {
    /// A server still running here was abandoned by an error path:
    /// kill it and wait for it, so no process outlives the benchmark.
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            child.kill().ok();
            reap(child).ok();
        }
    }
}

fn start_server(ctx: &Ctx, extra: &[String]) -> Result<Server, String> {
    let mut cmd_args = args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"]);
    cmd_args.extend(["--result-cache".to_string(), RESULT_CACHE.to_string()]);
    cmd_args.extend_from_slice(extra);
    let mut child = ctx
        .htd
        .command(&cmd_args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("htd serve: {e}"))?;
    let mut stdout = BufReader::new(child.stdout.take().ok_or("no server stdout")?);
    let mut line = String::new();
    stdout.read_line(&mut line).map_err(|e| e.to_string())?;
    let Some(addr) = line.trim().strip_prefix("serving on ").map(str::to_string) else {
        reap(child).ok();
        return Err(format!("htd serve did not start: {line:?}"));
    };
    Ok(Server {
        child: Some(child),
        _stdout: stdout,
        addr,
    })
}

/// Shuts the server down and returns its peak RSS (KiB).
fn stop_server(mut server: Server) -> Result<u64, String> {
    let answered = Client::connect(server.addr.as_str())
        .and_then(|mut c| c.call(&Request::Shutdown))
        .is_ok();
    let child = server.child.take().ok_or("server already stopped")?;
    let exit = reap(child).map_err(|e| e.to_string())?;
    if !answered || !exit.success() {
        return Err(format!(
            "htd serve did not shut down cleanly ({:?})",
            exit.code
        ));
    }
    Ok(exit.peak_rss_kb)
}

/// One (golden, suspect) pair of the working set.
#[derive(Debug, Clone)]
struct Pair {
    golden: PathBuf,
    suspect: &'static str,
}

impl Pair {
    fn request(&self) -> Request {
        Request::Score {
            golden: self.golden.display().to_string(),
            suspect: self.suspect.to_string(),
            model: None,
            request: None,
        }
    }
}

/// The embedded report of a served reply frame, or why there is none.
fn served_report(reply: Option<&str>) -> Result<String, String> {
    let frame = reply.ok_or("no reply")?;
    report_of(Response::parse(frame).map_err(|e| e.to_string())?)
}

/// The embedded report of a reply, or why there is none.
fn report_of(reply: Response) -> Result<String, String> {
    match reply {
        Response::Score { report, .. } => Ok(report),
        Response::Busy { depth } => Err(format!("busy (depth {depth})")),
        Response::Error { reason } => Err(format!("error: {reason}")),
        other => Err(format!("unexpected reply {other:?}")),
    }
}

/// One open-loop phase: its rate, the outcome of each request, and the
/// working-set pair each request asked for.
struct Phase {
    rate: f64,
    outcomes: Vec<Outcome>,
    mix: Vec<usize>,
}

impl Phase {
    fn latencies_ms(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter_map(|o| o.latency())
            .map(|l| l.as_secs_f64() * 1e3)
            .collect()
    }

    /// Requests due by the last due time but not answered by then.
    fn backlog_at_end(&self) -> usize {
        let end = self.outcomes.last().map(|o| o.due).unwrap_or_default();
        self.outcomes
            .iter()
            .filter(|o| o.done.is_none_or(|d| d > end))
            .count()
    }

    /// Answered requests per second from the first due time to the last
    /// reply.
    fn achieved_rate(&self) -> f64 {
        let first = self.outcomes.first().map(|o| o.due).unwrap_or_default();
        let last = self.outcomes.iter().filter_map(|o| o.done).max();
        let answered = self.outcomes.iter().filter(|o| o.done.is_some()).count();
        match last {
            Some(last) if last > first => answered as f64 / (last - first).as_secs_f64(),
            _ => 0.0,
        }
    }
}

/// The seed's split of the working set: the pair indices requested
/// uniformly (hot) and those walked round-robin (cold).
struct Mix {
    hot: Vec<usize>,
    cold: Vec<usize>,
    next_cold: usize,
}

impl Mix {
    fn new(rng: &mut SplitMix, pairs: usize) -> Mix {
        let mut order: Vec<usize> = (0..pairs).collect();
        rng.shuffle(&mut order);
        let cold = order.split_off(pairs / 2);
        Mix {
            hot: order,
            cold,
            next_cold: 0,
        }
    }

    /// The pair of the `i`-th request of a phase.
    fn pick(&mut self, rng: &mut SplitMix, i: usize) -> usize {
        if i % COLD_EVERY == COLD_EVERY - 1 {
            let p = self.cold[self.next_cold % self.cold.len()];
            self.next_cold += 1;
            p
        } else {
            self.hot[rng.below(self.hot.len())]
        }
    }

    /// The pairs set-up primes the memo with: the hot half, which the
    /// memo then holds when the timed phases start.
    fn priming(&self) -> &[usize] {
        &self.hot
    }
}

/// Runs one open-loop phase at `rate` for `span`: Poisson arrivals, or
/// evenly spaced ones for a ladder rung.
fn run_open_loop(
    conns: &[TcpStream],
    pairs: &[Pair],
    mix: &mut Mix,
    rng: &mut SplitMix,
    (rate, poisson): (f64, bool),
    span: Duration,
) -> Result<Phase, String> {
    let n = ((rate * span.as_secs_f64()).round() as usize).max(1);
    let start = Duration::from_millis(5);
    let dues = if poisson {
        poisson_dues(rng, rate, start, n)
    } else {
        (0..n)
            .map(|i| start + Duration::from_secs_f64(i as f64 / rate))
            .collect()
    };
    let picks: Vec<usize> = (0..n).map(|i| mix.pick(rng, i)).collect();
    let plan: Vec<Planned> = dues
        .into_iter()
        .zip(&picks)
        .map(|(due, &p)| Planned {
            due,
            frame: pairs[p].request().to_text(),
        })
        .collect();
    let outcomes = run_phase(conns, &plan, Duration::from_secs(30)).map_err(|e| e.to_string())?;
    Ok(Phase {
        rate,
        outcomes,
        mix: picks,
    })
}

/// Judges every reply of `phase` against the offline reports.
fn judge(report: &mut Report, phase: &Phase, expected: &[Vec<u8>]) {
    for (o, &p) in phase.outcomes.iter().zip(&phase.mix) {
        match served_report(o.reply.as_deref()) {
            Ok(served) => {
                report
                    .ops
                    .judge("served report", Some(served.as_bytes()), &expected[p]);
            }
            Err(why) => {
                report
                    .ops
                    .record(false, || format!("request at {:?}: {why}", o.due));
            }
        }
    }
}

/// A rung passes when its tail meets the limit, every request was
/// answered, and the backlog left when the schedule ends fits in one
/// limit's worth of arrivals (Little's law: it is not growing).
fn passes(phase: &Phase) -> bool {
    let lat = phase.latencies_ms();
    let answered_all = lat.len() == phase.outcomes.len();
    let tail_ok = tail(&lat).is_some_and(|t| t.value <= LIMIT.as_secs_f64() * 1e3);
    let backlog_ok = phase.backlog_at_end() as f64 <= phase.rate * LIMIT.as_secs_f64();
    eprintln!(
        "rung {:>5.1}/s: achieved {:.1}/s, tail {:?} ms, backlog {}, answered all {answered_all}",
        phase.rate,
        phase.achieved_rate(),
        tail(&lat).map(|t| t.value),
        phase.backlog_at_end()
    );
    answered_all && tail_ok && backlog_ok
}

fn serve_layers(addr: &str, fixed: &Phase) -> Result<ServeLayers, String> {
    let reply = Client::connect(addr)
        .and_then(|mut c| c.call(&Request::Stats))
        .map_err(|e| e.to_string())?;
    let Response::Stats { manifest, .. } = reply else {
        return Err(format!("unexpected stats reply {reply:?}"));
    };
    let m = RunManifest::parse(&manifest).map_err(|e| e.to_string())?;
    let c = |name: &str| counter(&m, name);
    let depth = m
        .timings
        .iter()
        .find(|t| t.stage == "serve.queue.depth")
        .map(|t| t.max_ns as f64)
        .unwrap_or(0.0);
    Ok(ServeLayers {
        result_hit_ratio: ratio(c("serve.cache.result.hit"), c("serve.cache.result.miss")),
        batch_size: c("serve.requests") as f64 / c("serve.batches").max(1) as f64,
        busy: c("serve.responses.busy") as f64,
        queue_depth_max: depth,
        late_ms: fixed
            .outcomes
            .iter()
            .map(|o| o.late().as_secs_f64() * 1e3)
            .fold(0.0, f64::max),
    })
}

/// Scores every golden's lot offline again, judged against the first
/// pass; appends the wall times and returns the largest peak RSS (KiB).
fn offline_pass(
    ctx: &Ctx,
    report: &mut Report,
    lots: &[ScoreOp],
    walls: &mut Vec<f64>,
) -> Result<u64, String> {
    let mut peak_kb = 0;
    for op in lots {
        let (wall, kb) = run_op(ctx, report, op, WORKERS, &[])?;
        peak_kb = peak_kb.max(kb);
        walls.push(wall.as_secs_f64());
    }
    Ok(peak_kb)
}

/// Runs the serve workload: end-to-end metrics, or with `trace` the
/// serve-side layers plus the ledger over the cold scores.
pub fn run(ctx: &Ctx, trace: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let mut peak_kb = 0u64;
    let server_extra = if trace {
        vec![
            "--metrics".to_string(),
            ctx.path("serve-metrics.json").display().to_string(),
            "--trace".to_string(),
            ctx.path("serve-trace.json").display().to_string(),
        ]
    } else {
        Vec::new()
    };

    // Set-up, several times: characterize the goldens, start the
    // server, and prime its memo with the hot pairs. Only the last
    // server stays up.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut first_goldens: Vec<Vec<u8>> = Vec::new();
    let mut server = None;
    let mut golden_paths = Vec::new();
    let mut pairs = Vec::new();
    let mut primed: Vec<(usize, Result<String, String>)> = Vec::new();
    let mut rng = SplitMix::new(ctx.seed ^ 0x5E57_E0A1_0AD0_0001);
    let mut mix = Mix::new(&mut rng, GOLDENS * SUSPECTS.len());
    for k in 0..SETUPS {
        let start = Instant::now();
        let mut goldens = Vec::with_capacity(GOLDENS);
        for g in 0..GOLDENS {
            let out = ctx.path(&format!("golden-{k}-{g}.htd"));
            let seed = ctx.seed.wrapping_add(1000 * g as u64);
            let run = ctx
                .htd
                .run(
                    &[
                        args(["characterize", "--out"]),
                        vec![out.display().to_string()],
                        args(["--channels", "em,delay", "--pairs", "1", "--reps", "2"]),
                        vec![
                            "--dies".into(),
                            DIES.to_string(),
                            "--seed".into(),
                            seed.to_string(),
                            "--workers".into(),
                            WORKERS.to_string(),
                        ],
                    ]
                    .concat(),
                )
                .map_err(|e| format!("htd characterize: {e}"))?;
            if !run.exit.success() {
                return Err(format!("htd characterize failed: {}", run.stderr.trim()));
            }
            peak_kb = peak_kb.max(run.exit.peak_rss_kb);
            goldens.push(out);
        }
        let up = start_server(ctx, &server_extra)?;
        pairs = goldens
            .iter()
            .flat_map(|g| {
                SUSPECTS.iter().map(move |&suspect| Pair {
                    golden: g.clone(),
                    suspect,
                })
            })
            .collect();
        let mut client = Client::connect(up.addr.as_str()).map_err(|e| e.to_string())?;
        client.call(&Request::Ping).map_err(|e| e.to_string())?;
        primed = mix
            .priming()
            .iter()
            .map(|&i| {
                let reply = client
                    .call(&pairs[i].request())
                    .map_err(|e| e.to_string())
                    .and_then(report_of);
                (i, reply)
            })
            .collect();
        setups.push(start.elapsed().as_secs_f64());

        let bytes: Vec<Vec<u8>> = goldens
            .iter()
            .map(|g| std::fs::read(g).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        if k == 0 {
            first_goldens = bytes;
        } else if bytes != first_goldens {
            report.broken("repeated characterizations wrote different goldens");
        }
        if let Some(old) = server.replace(up) {
            peak_kb = peak_kb.max(stop_server(old)?);
        }
        golden_paths = goldens;
    }
    let server = server.ok_or("no server")?;

    // The bytes every served reply must match: an offline score of
    // each pair, untimed.
    let mut expected = Vec::with_capacity(pairs.len());
    for (i, pair) in pairs.iter().enumerate() {
        let op = ScoreOp {
            golden: pair.golden.clone(),
            suspects: vec![pair.suspect.to_string()],
            expected: Vec::new(),
        };
        let out = ctx.path(&format!("offline-{i}.htd"));
        let run = ctx
            .htd
            .run(&op.args(WORKERS, &out.display().to_string()))
            .map_err(|e| format!("htd score: {e}"))?;
        if !run.exit.success() {
            return Err(format!("offline score {i} failed: {}", run.stderr.trim()));
        }
        peak_kb = peak_kb.max(run.exit.peak_rss_kb);
        expected.push(std::fs::read(&out).map_err(|e| e.to_string())?);
    }
    for (i, served) in &primed {
        if served.as_ref().map(|s| s.as_bytes()) != Ok(expected[*i].as_slice()) {
            report.broken(format!("priming reply {i} differs from the offline report"));
        }
    }
    let rates: Vec<(String, f64)> = expected
        .iter()
        .flat_map(|e| fused_fn_rates(&String::from_utf8_lossy(e)))
        .collect();
    let fn_err = fn_err_pp(&rates).ok_or("no paper trojan rows in the offline reports")?;

    let conns = [0, 1]
        .iter()
        .map(|_| TcpStream::connect(server.addr.as_str()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    for c in &conns {
        c.set_nodelay(true).ok();
    }
    let fixed_span = ctx.seconds / 2;

    if trace {
        let fixed = run_open_loop(&conns, &pairs, &mut mix, &mut rng, (RATE, true), fixed_span)?;
        judge(&mut report, &fixed, &expected);
        let layers = serve_layers(&server.addr, &fixed)?;
        drop(conns);
        stop_server(server)?;
        // The ledger replays the cold scores the misses pay: golden 0
        // against every suspect.
        let ops: Vec<ScoreOp> = pairs
            .iter()
            .zip(&expected)
            .take(SUSPECTS.len())
            .map(|(p, e)| ScoreOp {
                golden: p.golden.clone(),
                suspects: vec![p.suspect.to_string()],
                expected: e.clone(),
            })
            .collect();
        report.metrics = layer_metrics(ctx, &mut report, &ops, WORKERS, ctx.seconds / 2, layers)?;
        return Ok(report);
    }

    // The timed score operations: each golden against every suspect in
    // one `htd score`, in three passes spread over the run (now, after
    // the fixed-rate phase, after the ladder). The first pass fixes the
    // bytes the later ones must reproduce.
    let mut lots: Vec<ScoreOp> = golden_paths
        .into_iter()
        .map(|golden| ScoreOp {
            golden,
            suspects: SUSPECTS.iter().map(|s| s.to_string()).collect(),
            expected: Vec::new(),
        })
        .collect();
    let mut walls = Vec::new();
    for (g, op) in lots.iter_mut().enumerate() {
        let out = ctx.path(&format!("lot-{g}.htd"));
        let run = ctx
            .htd
            .run(&op.args(WORKERS, &out.display().to_string()))
            .map_err(|e| format!("htd score: {e}"))?;
        peak_kb = peak_kb.max(run.exit.peak_rss_kb);
        if report.ops.record(run.exit.success(), || {
            format!("score of golden {g}: {}", run.stderr.trim())
        }) {
            op.expected = std::fs::read(&out).map_err(|e| e.to_string())?;
        }
        walls.push(run.wall.as_secs_f64());
    }
    let fixed = run_open_loop(&conns, &pairs, &mut mix, &mut rng, (RATE, true), fixed_span)?;
    judge(&mut report, &fixed, &expected);
    let mut max_rps = if passes(&fixed) {
        fixed.achieved_rate()
    } else {
        0.0
    };
    peak_kb = peak_kb.max(offline_pass(ctx, &mut report, &lots, &mut walls)?);
    let rung_span = ctx.seconds / 4;
    for rate in LADDER {
        let rung = run_open_loop(&conns, &pairs, &mut mix, &mut rng, (rate, false), rung_span)?;
        judge(&mut report, &rung, &expected);
        if passes(&rung) {
            max_rps = rung.achieved_rate();
        }
    }
    drop(conns);
    peak_kb = peak_kb.max(stop_server(server)?);
    peak_kb = peak_kb.max(offline_pass(ctx, &mut report, &lots, &mut walls)?);
    let lat = fixed.latencies_ms();
    let p50 = nearest_rank(&sorted(&lat), 0.5).unwrap_or(0.0);
    let tail = tail(&lat).ok_or("no replies")?;
    let limit_ms = LIMIT.as_secs_f64() * 1e3;
    let within = fixed
        .outcomes
        .iter()
        .zip(&fixed.mix)
        .filter(|(o, &p)| {
            o.latency()
                .is_some_and(|l| l.as_secs_f64() * 1e3 <= limit_ms)
                && served_report(o.reply.as_deref())
                    .is_ok_and(|r| r.as_bytes() == expected[p].as_slice())
        })
        .count();
    eprintln!(
        "fixed rate {RATE}/s: {} requests, p50 {p50:.3} ms, tail p{:.1} of n={} = {:.1} ms, limit {limit_ms} ms",
        fixed.outcomes.len(),
        100.0 * tail.q,
        tail.n,
        tail.value
    );
    report.metrics = vec![
        metric("setup_s", median(&setups).unwrap_or(0.0), "s"),
        metric(
            "score_dies_per_s",
            (DIES * SUSPECTS.len()) as f64 / median(&walls).unwrap_or(f64::INFINITY),
            "dies/s",
        ),
        metric("peak_rss_mb", peak_kb as f64 / 1024.0, "MiB"),
        metric("ops_ok_pct", report.ops.ok_pct(), "%"),
        metric("fn_err_pp", fn_err, "pp"),
        metric("p50_ms", p50, "ms"),
        metric("tail_ms", tail.value, "ms"),
        metric(
            "slo_pct",
            100.0 * within as f64 / fixed.outcomes.len() as f64,
            "%",
        ),
        metric("max_rps", max_rps, "1/s"),
    ];
    Ok(report)
}
