//! Seeded request streams and the closed-loop client that drives
//! `serve_concurrent` in process.
//!
//! The client keeps at most [`WINDOW`] requests outstanding: it sends the
//! next line only when a reply has come back, so a slower server receives
//! less load (a closed loop, one client). Latency is timed from handing a
//! line to the pipeline's reader to the arrival of its reply line.

use std::collections::VecDeque;
use std::io::{self, BufRead, Read, Write};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use hbm_fleet::{serve_concurrent, FleetService, PipelineOptions, PipelineStats};

use crate::trace::Tracer;

/// Requests the client keeps outstanding.
pub const WINDOW: usize = 2;

/// Pipeline workers answering requests.
pub const SERVE_WORKERS: usize = 2;

/// Share of a rescan session's requests that repeat an already-touched
/// device (the rest are first touches).
pub const REPEAT_SHARE: f64 = 0.1;

/// Share of exact-path requests that ask for the population summary.
pub const SUMMARY_SHARE: f64 = 0.05;

/// Share of exact-path requests that are malformed lines.
pub const MALFORMED_SHARE: f64 = 0.03;

/// A reply that takes longer than this means the server is stuck.
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);

const TARGET_RATES: [f64; 4] = [1e-4, 1e-3, 1e-2, 5e-2];
const MIN_PCS: [u32; 5] = [1, 8, 16, 24, 32];

/// Lines that are not valid requests; each must come back as an in-band
/// `parse` error.
const MALFORMED: [&str; 4] = [
    "not json",
    r#"{"Recommend":{"device_id":1,"#,
    r#"{"Unknown":{}}"#,
    r#"{"Recommend":{"device_id":"seven","target_rate":0.01,"min_pcs":16}}"#,
];

/// SplitMix64: a small, fast, seedable generator for request streams.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label, so streams derived from
    /// one workload seed stay independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

/// One `Recommend` request line.
pub fn recommend_line(device_id: u32, target_rate: f64, min_pcs: u32) -> String {
    format!(
        "{{\"Recommend\":{{\"device_id\":{device_id},\"target_rate\":{target_rate},\"min_pcs\":{min_pcs}}}}}"
    )
}

/// Whether `line` is one of the deliberately malformed requests.
pub fn is_malformed(line: &str) -> bool {
    MALFORMED.contains(&line)
}

/// One rescan-bound session: every device of the fleet touched once, in a
/// seeded order, with about one request in ten repeating a device already
/// touched in the session.
pub fn rescan_session(seed: u64, session: u64, devices: u32) -> Vec<String> {
    let mut rng = Rng::new(seed, 0x5E55_0000 + session);
    let mut order: Vec<u32> = (0..devices).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut lines = Vec::new();
    let mut next = 0;
    while next < order.len() {
        let device = if next > 0 && rng.unit() < REPEAT_SHARE {
            order[rng.below(next as u64) as usize]
        } else {
            next += 1;
            order[next - 1]
        };
        lines.push(recommend_line(
            device,
            rng.pick(&TARGET_RATES[..3]),
            rng.pick(&MIN_PCS[1..4]),
        ));
    }
    lines
}

/// One exact-path session of `len` requests: about 5% `Summary`, 3%
/// malformed lines, the rest `Recommend` across devices, target rates and
/// minimum pseudo-channel counts.
pub fn exact_session(seed: u64, session: u64, devices: u32, len: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, 0xE8AC_0000 + session);
    (0..len)
        .map(|_| {
            let u = rng.unit();
            if u < SUMMARY_SHARE {
                "\"Summary\"".to_owned()
            } else if u < SUMMARY_SHARE + MALFORMED_SHARE {
                rng.pick(&MALFORMED).to_owned()
            } else {
                let device = rng.below(u64::from(devices)) as u32;
                recommend_line(device, rng.pick(&TARGET_RATES), rng.pick(&MIN_PCS))
            }
        })
        .collect()
}

/// What one closed-loop session saw.
#[derive(Debug, Default)]
pub struct LoopRun {
    /// Requests sent (a prefix of the session's lines).
    pub sent: usize,
    /// Replies, in send order.
    pub replies: Vec<String>,
    /// Per request, send and reply times in nanoseconds on the tracer's
    /// clock.
    pub times_ns: Vec<(u64, u64)>,
    /// Wall time from the client's start to the last reply.
    pub elapsed: Duration,
}

/// The closed-loop client: sends `requests` in order keeping at most
/// `window` outstanding, stops sending at `deadline`, and collects every
/// reply it is owed.
pub struct ClosedLoop<'a> {
    requests: &'a [String],
    window: usize,
    deadline: Instant,
    clock: &'a Tracer,
    started: Instant,
    /// Send times of the outstanding requests, oldest first.
    outstanding: VecDeque<u64>,
    run: LoopRun,
}

impl<'a> ClosedLoop<'a> {
    /// A client that has sent nothing yet.
    pub fn new(
        requests: &'a [String],
        window: usize,
        deadline: Instant,
        clock: &'a Tracer,
    ) -> Self {
        ClosedLoop {
            requests,
            window,
            deadline,
            clock,
            started: Instant::now(),
            outstanding: VecDeque::new(),
            run: LoopRun::default(),
        }
    }

    /// The next request to send, or `None` once nothing more will be sent
    /// and every reply has come back. While the window is full it blocks
    /// on `recv` for the oldest request's reply.
    ///
    /// # Errors
    ///
    /// Whatever `recv` returns, such as a reply that never comes.
    pub fn next_request(
        &mut self,
        recv: &mut dyn FnMut() -> io::Result<String>,
    ) -> io::Result<Option<&'a str>> {
        loop {
            if self.outstanding.len() < self.window
                && self.run.sent < self.requests.len()
                && Instant::now() < self.deadline
            {
                self.outstanding.push_back(self.clock.now_ns());
                self.run.sent += 1;
                return Ok(Some(&self.requests[self.run.sent - 1]));
            }
            let Some(sent_ns) = self.outstanding.pop_front() else {
                self.run.elapsed = self.started.elapsed();
                return Ok(None);
            };
            let reply = recv()?;
            self.run.times_ns.push((sent_ns, self.clock.now_ns()));
            self.run.replies.push(reply);
        }
    }

    /// What the session saw.
    pub fn finish(self) -> LoopRun {
        self.run
    }
}

/// The server's input, driven by the client on the pipeline's reader
/// thread: each read hands over the client's next request line, and
/// blocks on the reply channel while the client's window is full. End of
/// input once the client is done.
struct ClientInput<'a> {
    client: ClosedLoop<'a>,
    replies: Receiver<String>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for ClientInput<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(out.len());
        out[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for ClientInput<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            let replies = &self.replies;
            let mut recv = || {
                replies
                    .recv_timeout(REPLY_TIMEOUT)
                    .map_err(|err| match err {
                        RecvTimeoutError::Timeout => {
                            io::Error::new(io::ErrorKind::TimedOut, "no reply from server")
                        }
                        RecvTimeoutError::Disconnected => {
                            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed its output")
                        }
                    })
            };
            if let Some(line) = self.client.next_request(&mut recv)? {
                self.buf.extend_from_slice(line.as_bytes());
                self.buf.push(b'\n');
            }
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// The server's output: forwards each complete line to the client.
struct ChannelWriter {
    replies: Sender<String>,
    pending: Vec<u8>,
}

impl Write for ChannelWriter {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        for &b in bytes {
            if b == b'\n' {
                let line = String::from_utf8(std::mem::take(&mut self.pending))
                    .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err))?;
                self.replies
                    .send(line)
                    .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "client hung up"))?;
            } else {
                self.pending.push(b);
            }
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Serves `requests` through `serve_concurrent` with [`SERVE_WORKERS`]
/// workers to a closed-loop client with [`WINDOW`] outstanding requests,
/// until the requests run out or `deadline` passes. The client is the
/// one generator thread: it runs on the pipeline's reader thread, so it
/// adds no thread of its own.
///
/// # Errors
///
/// Transport errors on either side.
pub fn serve_session(
    service: &FleetService,
    requests: &[String],
    deadline: Instant,
    clock: &Tracer,
) -> io::Result<(LoopRun, PipelineStats)> {
    let (reply_tx, reply_rx) = mpsc::channel();
    let mut input = ClientInput {
        client: ClosedLoop::new(requests, WINDOW, deadline, clock),
        replies: reply_rx,
        buf: Vec::new(),
        pos: 0,
    };
    let output = ChannelWriter {
        replies: reply_tx,
        pending: Vec::new(),
    };
    let options = PipelineOptions {
        workers: SERVE_WORKERS,
        completion_jitter: None,
    };
    let stats = serve_concurrent(service, &mut input, output, &options)?;
    Ok((input.client.finish(), stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a client against a server that answers the oldest
    /// outstanding request on each receive, and returns the most requests
    /// ever outstanding with the client's record.
    fn drive(requests: &[String], deadline: Instant) -> (usize, LoopRun) {
        let clock = Tracer::new(false);
        let mut client = ClosedLoop::new(requests, WINDOW, deadline, &clock);
        let mut pending: VecDeque<String> = VecDeque::new();
        let mut peak = 0;
        loop {
            let next = {
                let mut recv = || {
                    let line = pending.pop_front().expect("recv with nothing outstanding");
                    Ok(format!("re:{line}"))
                };
                client.next_request(&mut recv).unwrap()
            };
            let Some(line) = next else { break };
            pending.push_back(line.to_owned());
            peak = peak.max(pending.len());
        }
        assert!(pending.is_empty(), "client finished with replies owed");
        (peak, client.finish())
    }

    #[test]
    fn closed_loop_keeps_at_most_two_outstanding() {
        let requests: Vec<String> = (0..50).map(|i| i.to_string()).collect();
        let (peak, run) = drive(&requests, Instant::now() + Duration::from_secs(3600));
        assert_eq!(peak, 2);
        assert_eq!(run.sent, 50);
        assert_eq!(run.replies[49], "re:49");
        assert_eq!(run.times_ns.len(), 50);
    }

    #[test]
    fn closed_loop_stops_sending_at_the_deadline() {
        let requests: Vec<String> = (0..50).map(|i| i.to_string()).collect();
        let (peak, run) = drive(&requests, Instant::now());
        assert_eq!((peak, run.sent), (0, 0));
        assert!(run.replies.is_empty());
    }

    #[test]
    fn request_streams_are_deterministic_per_seed() {
        assert_eq!(rescan_session(3, 0, 64), rescan_session(3, 0, 64));
        assert_ne!(rescan_session(3, 0, 64), rescan_session(4, 0, 64));
        assert_ne!(rescan_session(3, 0, 64), rescan_session(3, 1, 64));
        assert_eq!(exact_session(3, 2, 64, 500), exact_session(3, 2, 64, 500));
        assert_ne!(exact_session(3, 2, 64, 500), exact_session(5, 2, 64, 500));
    }

    #[test]
    fn rescan_session_touches_every_device_with_few_repeats() {
        let lines = rescan_session(11, 0, 200);
        let mut seen = std::collections::BTreeSet::new();
        for line in &lines {
            let id: u32 = line
                .split("\"device_id\":")
                .nth(1)
                .and_then(|rest| rest.split(',').next())
                .and_then(|id| id.parse().ok())
                .unwrap();
            seen.insert(id);
        }
        assert_eq!(seen.len(), 200);
        let repeats = lines.len() - 200;
        assert!((5..=45).contains(&repeats), "{repeats} repeats");
    }

    #[test]
    fn exact_session_mix_matches_its_shares() {
        let lines = exact_session(1, 0, 64, 20_000);
        let summaries = lines.iter().filter(|l| *l == "\"Summary\"").count();
        let malformed = lines.iter().filter(|l| is_malformed(l)).count();
        assert!((800..1200).contains(&summaries), "{summaries}");
        assert!((450..750).contains(&malformed), "{malformed}");
    }
}
