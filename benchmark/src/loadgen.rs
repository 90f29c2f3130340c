//! The open-loop load generator: one process, two threads, at most two
//! connections.
//!
//! A sender thread writes each request when it is due, whatever the
//! server is doing; the calling thread reads the replies. A request's
//! latency runs from when it was *due*, not from when it was sent or
//! when an earlier reply came back, so a server stall is charged to
//! every request queued behind it (no coordinated omission). How late
//! the sender itself ran is reported separately.
//!
//! The server answers each connection's requests in order, so the
//! reader matches each reply to the oldest unanswered request of its
//! connection.

use std::collections::VecDeque;
use std::io::{self, BufReader, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use htd_serve::protocol::read_frame;

/// One request of an open-loop schedule.
#[derive(Debug, Clone)]
pub struct Planned {
    /// When it is due, from the start of the phase.
    pub due: Duration,
    /// The encoded request frame.
    pub frame: String,
}

/// What became of one planned request.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// When it was due, from the start of the phase.
    pub due: Duration,
    /// When the sender actually wrote it.
    pub sent: Duration,
    /// When its reply had been read in full; `None` if none came.
    pub done: Option<Duration>,
    /// The reply frame.
    pub reply: Option<String>,
}

impl Outcome {
    /// Latency from the due time to the reply.
    pub fn latency(&self) -> Option<Duration> {
        self.done.map(|d| d.saturating_sub(self.due))
    }

    /// How late the sender wrote it.
    pub fn late(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// Draws an open-loop Poisson schedule of `n` arrivals at `rate` per
/// second from `rng`, starting at `start`.
pub fn poisson_dues(
    rng: &mut crate::SplitMix,
    rate: f64,
    start: Duration,
    n: usize,
) -> Vec<Duration> {
    let mut t = start.as_secs_f64();
    (0..n)
        .map(|_| {
            // Exponential gap by inversion; 1 − u is in (0, 1].
            t += -(1.0 - rng.next_f64()).ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
}

const POLLIN: i16 = 0x1;

/// Waits until one of the open `readers` has bytes to read (buffered or on the
/// socket) or `timeout` passes; returns the ready indices.
fn ready(
    readers: &[BufReader<TcpStream>],
    closed: &[bool],
    timeout: Duration,
) -> io::Result<Vec<usize>> {
    let buffered: Vec<usize> = (0..readers.len())
        .filter(|&i| !closed[i] && !readers[i].buffer().is_empty())
        .collect();
    if !buffered.is_empty() {
        return Ok(buffered);
    }
    let mut fds: Vec<PollFd> = readers
        .iter()
        .zip(closed)
        .map(|(r, &closed)| PollFd {
            // A negative descriptor is skipped by poll(2).
            fd: if closed { -1 } else { r.get_ref().as_raw_fd() },
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let millis = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
    // SAFETY: `fds` is a live, writable array of `fds.len()` pollfd
    // structs laid out as the kernel expects; the descriptors belong to
    // sockets `readers` keeps open for the duration of the call.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, millis) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        return if err.kind() == io::ErrorKind::Interrupted {
            Ok(Vec::new())
        } else {
            Err(err)
        };
    }
    Ok((0..fds.len()).filter(|&i| fds[i].revents != 0).collect())
}

/// Runs one open-loop phase of `plan` over `conns` (request `i` goes
/// to connection `i % conns.len()`). Replies are awaited until `grace`
/// after the last due time; requests still unanswered then count as
/// lost. Returns one outcome per planned request, in plan order.
pub fn run_phase(
    conns: &[TcpStream],
    plan: &[Planned],
    grace: Duration,
) -> io::Result<Vec<Outcome>> {
    if conns.is_empty() || conns.len() > 2 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "one or two connections",
        ));
    }
    let writers = conns
        .iter()
        .map(TcpStream::try_clone)
        .collect::<io::Result<Vec<_>>>()?;
    let mut readers = conns
        .iter()
        .map(|c| c.try_clone().map(BufReader::new))
        .collect::<io::Result<Vec<_>>>()?;
    let n_conns = conns.len();
    let mut outcomes: Vec<Outcome> = plan
        .iter()
        .map(|p| Outcome {
            due: p.due,
            sent: p.due,
            done: None,
            reply: None,
        })
        .collect();
    let last_due = plan.last().map(|p| p.due).unwrap_or_default();
    let (tx, rx) = mpsc::channel::<(usize, Duration)>();
    let start = Instant::now();

    std::thread::scope(|scope| -> io::Result<()> {
        let sender = scope.spawn(move || -> io::Result<()> {
            let mut writers = writers;
            for (i, p) in plan.iter().enumerate() {
                let now = start.elapsed();
                if p.due > now {
                    std::thread::sleep(p.due - now);
                }
                // Announce before writing, so the reader always knows
                // about a request before its reply can arrive.
                let sent = start.elapsed();
                if tx.send((i, sent)).is_err() {
                    break;
                }
                let w = &mut writers[i % n_conns];
                w.write_all(p.frame.as_bytes())?;
                w.flush()?;
            }
            Ok(())
        });

        let mut pending: Vec<VecDeque<usize>> = vec![VecDeque::new(); n_conns];
        let mut answered = 0usize;
        let mut absorb = |pending: &mut Vec<VecDeque<usize>>, (i, sent): (usize, Duration)| {
            outcomes[i].sent = sent;
            pending[i % n_conns].push_back(i);
        };
        let mut closed = vec![false; n_conns];
        let mut reply_slots: Vec<(usize, Duration, String)> = Vec::new();
        while answered < plan.len() {
            if start.elapsed() > last_due + grace || closed.iter().all(|&c| c) {
                break;
            }
            for i in ready(&readers, &closed, Duration::from_millis(20))? {
                let frame = match read_frame(&mut readers[i]) {
                    Ok(Some(frame)) => frame,
                    Ok(None) | Err(_) => {
                        closed[i] = true;
                        continue;
                    }
                };
                let done = start.elapsed();
                while pending[i].is_empty() {
                    match rx.recv() {
                        Ok(msg) => absorb(&mut pending, msg),
                        Err(_) => break,
                    }
                }
                while let Ok(msg) = rx.try_recv() {
                    absorb(&mut pending, msg);
                }
                if let Some(req) = pending[i].pop_front() {
                    reply_slots.push((req, done, frame));
                    answered += 1;
                }
            }
        }
        while let Ok(msg) = rx.try_recv() {
            absorb(&mut pending, msg);
        }
        for (req, done, frame) in reply_slots {
            outcomes[req].done = Some(done);
            outcomes[req].reply = Some(frame);
        }
        match sender.join() {
            Ok(result) => result,
            Err(_) => Err(io::Error::other("sender thread panicked")),
        }
    })?;
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_serve::protocol::{Request, Response};
    use std::net::TcpListener;

    /// A fake server on one connection: answers every request with an
    /// empty `ok`, but stalls for `stall` before answering request
    /// number `stall_at`.
    fn fake_server(stall_at: usize, stall: Duration) -> (TcpStream, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accepts");
            stream.set_nodelay(true).ok();
            let mut writer = stream.try_clone().expect("clones");
            let mut reader = BufReader::new(stream);
            let mut seen = 0usize;
            while let Ok(Some(frame)) = read_frame(&mut reader) {
                Request::parse(&frame).expect("a valid request");
                if seen == stall_at {
                    std::thread::sleep(stall);
                }
                seen += 1;
                if writer
                    .write_all(Response::Done.to_text().as_bytes())
                    .is_err()
                {
                    return;
                }
            }
        });
        let conn = TcpStream::connect(addr).expect("connects");
        conn.set_nodelay(true).ok();
        (conn, handle)
    }

    #[test]
    fn a_stall_is_charged_to_every_request_due_behind_it() {
        let stall = Duration::from_millis(300);
        let stall_at = 5;
        let (conn, server) = fake_server(stall_at, stall);
        // 40 requests every 10 ms: requests 6..=34 fall due inside the
        // stall window of request 5.
        let plan: Vec<Planned> = (0..40)
            .map(|i| Planned {
                due: Duration::from_millis(10 * i),
                frame: Request::Ping.to_text(),
            })
            .collect();
        let outcomes =
            run_phase(std::slice::from_ref(&conn), &plan, Duration::from_secs(5)).expect("runs");
        drop(conn);
        server.join().expect("fake server ends");

        assert!(
            outcomes.iter().all(|o| o.done.is_some()),
            "every request answered"
        );
        let stalled_due = outcomes[stall_at].due;
        for o in &outcomes[stall_at..] {
            let behind = (stalled_due + stall).saturating_sub(o.due);
            let latency = o.latency().expect("answered");
            assert!(
                latency >= behind,
                "due {:?}: latency {latency:?} hides the {behind:?} it waited behind the stall",
                o.due
            );
        }
        // The request due just after the stall began waited almost the
        // whole stall, measured from its due time.
        assert!(
            outcomes[stall_at + 1].latency().expect("answered")
                >= stall - Duration::from_millis(15)
        );
        // The generator itself kept to its schedule through the stall.
        let late = outcomes.iter().map(Outcome::late).max().expect("non-empty");
        assert!(
            late < Duration::from_millis(100),
            "generator slipped {late:?}"
        );
        // A closed-loop client would have sent request 6 only after the
        // stall; this one sent it on time.
        assert!(outcomes[stall_at + 1].sent < stalled_due + stall / 2);
    }

    #[test]
    fn poisson_dues_are_seeded_and_increasing() {
        let a = poisson_dues(&mut crate::SplitMix::new(7), 100.0, Duration::ZERO, 1000);
        let b = poisson_dues(&mut crate::SplitMix::new(7), 100.0, Duration::ZERO, 1000);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // 1000 arrivals at 100/s span about 10 s.
        let span = a.last().expect("non-empty").as_secs_f64();
        assert!((8.0..12.0).contains(&span), "{span}");
    }
}
