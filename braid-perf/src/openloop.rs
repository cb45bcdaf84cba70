//! An open-loop client: one thread, two non-blocking connections.
//!
//! Request `i` is due at `i / rate` seconds after the start, whether or
//! not earlier requests were answered, so a stall in the server delays
//! every later response instead of slowing the offered load. Latency
//! counts from the due time; how late the client itself sent is the lag.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

/// Connections the load is spread over, round robin.
pub const CONNECTIONS: usize = 2;
/// Longest the client sleeps between polls of its sockets.
const POLL: Duration = Duration::from_micros(200);

/// Timing of one request, as offsets from the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// When the request was due.
    pub due: Duration,
    /// When the client wrote it.
    pub sent: Duration,
    /// When its response arrived.
    pub done: Duration,
}

impl Sample {
    /// Response time counted from the due time, so waiting behind a stall
    /// counts even when the client sent late.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the client sent.
    pub fn lag(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// When request `i` is due at `rate` requests per second.
pub fn due(i: usize, rate: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate)
}

/// What an open-loop run observed, indexed like the request lines.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Timing of each answered request.
    pub samples: Vec<Option<Sample>>,
    /// Each response line.
    pub responses: Vec<Option<String>>,
    /// Most requests outstanding at once.
    pub inflight_max: usize,
}

/// Opens a client connection: `TCP_NODELAY` on (so the client never holds
/// a small request back waiting for an ACK) and non-blocking.
///
/// # Errors
///
/// Returns the connect or socket-option failure.
pub fn connect(addr: &str) -> io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_nonblocking(true)?;
    Ok(s)
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    /// Requests written or queued, oldest first; responses come back in
    /// this order.
    inflight: VecDeque<usize>,
    open: bool,
}

/// Sends `lines` to `addr` at `rate` requests per second and collects the
/// responses, waiting at most `grace` after the last due time.
///
/// # Errors
///
/// Returns a connect failure; a connection that fails later only leaves
/// its outstanding requests unanswered.
pub fn run(addr: &str, lines: &[String], rate: f64, grace: Duration) -> io::Result<Outcome> {
    let mut conns = Vec::new();
    for _ in 0..CONNECTIONS {
        let stream = connect(addr)?;
        conns.push(Conn {
            stream,
            out: Vec::new(),
            inbuf: Vec::new(),
            inflight: VecDeque::new(),
            open: true,
        });
    }
    let n = lines.len();
    let mut out = Outcome {
        samples: vec![None; n],
        responses: vec![None; n],
        inflight_max: 0,
    };
    let mut sent = vec![Duration::ZERO; n];
    let deadline = due(n.saturating_sub(1), rate) + grace;
    let t0 = Instant::now();
    let mut next = 0;
    let mut buf = [0u8; 64 * 1024];
    loop {
        let now = t0.elapsed();
        while next < n && due(next, rate) <= now {
            let c = &mut conns[next % CONNECTIONS];
            c.out.extend_from_slice(lines[next].as_bytes());
            c.out.push(b'\n');
            c.inflight.push_back(next);
            sent[next] = now;
            next += 1;
        }
        let mut progress = false;
        for c in conns.iter_mut().filter(|c| c.open) {
            while !c.out.is_empty() {
                match c.stream.write(&c.out) {
                    Ok(0) => c.open = false,
                    Ok(k) => {
                        c.out.drain(..k);
                        progress = true;
                        continue;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(_) => c.open = false,
                }
                break;
            }
            loop {
                match c.stream.read(&mut buf) {
                    Ok(0) => c.open = false,
                    Ok(k) => {
                        c.inbuf.extend_from_slice(&buf[..k]);
                        continue;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(_) => c.open = false,
                }
                break;
            }
            let done = t0.elapsed();
            while let Some(pos) = c.inbuf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = c.inbuf.drain(..=pos).collect();
                let Some(i) = c.inflight.pop_front() else {
                    break;
                };
                out.samples[i] = Some(Sample {
                    due: due(i, rate),
                    sent: sent[i],
                    done,
                });
                out.responses[i] = Some(String::from_utf8_lossy(&line[..pos]).into_owned());
                progress = true;
            }
        }
        let inflight: usize = conns.iter().map(|c| c.inflight.len()).sum();
        out.inflight_max = out.inflight_max.max(inflight);
        let idle = conns.iter().all(|c| c.inflight.is_empty() || !c.open);
        if (next == n && idle) || t0.elapsed() > deadline {
            break;
        }
        if !progress {
            let until_due = if next < n {
                due(next, rate).saturating_sub(t0.elapsed())
            } else {
                POLL
            };
            thread::sleep(until_due.min(POLL));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    #[test]
    fn latency_counts_from_the_due_time_and_lag_from_the_send() {
        let s = Sample {
            due: Duration::from_millis(10),
            sent: Duration::from_millis(13),
            done: Duration::from_millis(40),
        };
        assert_eq!(s.latency(), Duration::from_millis(30));
        assert_eq!(s.lag(), Duration::from_millis(3));
        assert_eq!(due(50, 100.0), Duration::from_millis(500));
    }

    #[test]
    fn client_sockets_set_tcp_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let s = connect(&addr).unwrap();
        assert!(s.nodelay().unwrap());
    }

    /// A server that answers every line in order on each connection, but
    /// stalls `stall` before its first answer on the first connection.
    fn stalling_echo(stall: Duration) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        thread::spawn(move || {
            for (k, stream) in listener.incoming().take(CONNECTIONS).enumerate() {
                let stream = stream.unwrap();
                thread::spawn(move || {
                    let mut w = stream.try_clone().unwrap();
                    for (j, line) in BufReader::new(stream).lines().enumerate() {
                        if k == 0 && j == 0 {
                            thread::sleep(stall);
                        }
                        writeln!(w, "{}", line.unwrap()).unwrap();
                    }
                });
            }
        });
        addr
    }

    #[test]
    fn a_stall_delays_later_requests_on_the_same_connection() {
        let addr = stalling_echo(Duration::from_millis(60));
        let lines: Vec<String> = (0..6).map(|i| format!("req{i}")).collect();
        // 100 req/s: request 2 is due at 20 ms on connection 0, behind the
        // 60 ms stall of request 0.
        let out = run(&addr, &lines, 100.0, Duration::from_secs(2)).unwrap();
        for (i, r) in out.responses.iter().enumerate() {
            assert_eq!(
                r.as_deref(),
                Some(lines[i].as_str()),
                "responses match requests in order"
            );
        }
        let s = |i: usize| out.samples[i].unwrap();
        assert!(s(0).latency() >= Duration::from_millis(60));
        assert!(s(2).latency() >= Duration::from_millis(35), "{:?}", s(2));
        // Connection 1 is not stalled, so the client kept sending on time.
        assert!(s(1).latency() < Duration::from_millis(30), "{:?}", s(1));
        assert!(out
            .samples
            .iter()
            .flatten()
            .all(|s| s.lag() < Duration::from_millis(15)));
        assert!(out.inflight_max >= 2);
    }
}
