//! Load generators: an open loop that sends on a fixed schedule and a
//! closed loop that keeps a fixed number of requests in flight, both
//! speaking the wire protocol over loopback TCP from outside the server.
//! In-process replays of the same streams give the socket-free baseline.

use crate::stats::digest_f64;
use crate::world::SplitMix;
use cerl::math::Matrix;
use cerl::net::wire::{self, FrameReader, Request, Response};
use cerl::serve::{BatchScheduler, ResponseHandle, ShardRouter};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// Byte offset of the request id inside an encoded request frame: a
/// 4-byte length prefix, then magic, version, kind and flags bytes.
const ID_OFFSET: usize = 8;

/// The distinct requests a workload cycles through, pre-encoded so the
/// generator only patches the request id before each write.
pub struct Pool {
    pub frames: Vec<Vec<u8>>,
    pub matrices: Vec<Matrix>,
    pub tags: Vec<Vec<u64>>,
}

impl Pool {
    pub fn new(requests: Vec<(Vec<u64>, Matrix)>) -> Self {
        let mut frames = Vec::with_capacity(requests.len());
        let mut matrices = Vec::with_capacity(requests.len());
        let mut tags = Vec::with_capacity(requests.len());
        for (t, x) in requests {
            let mut frame = Vec::new();
            wire::encode_request(
                &Request {
                    request_id: 0,
                    deadline_ms: 0,
                    cols: x.cols() as u32,
                    tags: t.clone(),
                    covariates: x.as_slice().to_vec(),
                },
                &mut frame,
            );
            set_id(&mut frame, 7);
            let decoded = wire::decode_request(&frame[4..]).expect("pool frames decode");
            assert_eq!(decoded.request_id, 7, "request id sits at its wire offset");
            frames.push(frame);
            matrices.push(x);
            tags.push(t);
        }
        Self {
            frames,
            matrices,
            tags,
        }
    }

    pub fn len(&self) -> usize {
        self.frames.len()
    }

    pub fn rows(&self, k: usize) -> usize {
        self.matrices[k].rows()
    }
}

fn set_id(frame: &mut [u8], id: u64) {
    frame[ID_OFFSET..ID_OFFSET + 8].copy_from_slice(&id.to_le_bytes());
}

/// One request's outcome.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// Index into the [`Pool`].
    pub pool: usize,
    /// When the request was due (open loop) or sent (closed loop).
    pub issued: Instant,
    /// When its successful response arrived; `None` = failed or missing.
    pub done: Option<Instant>,
    /// Digest of the response's ITE bit patterns.
    pub digest: u64,
}

impl Record {
    /// Latency in ms; a failed request reads as infinitely late.
    pub fn latency_ms(&self) -> f64 {
        self.done.map_or(f64::INFINITY, |d| {
            d.saturating_duration_since(self.issued).as_secs_f64() * 1e3
        })
    }
}

/// Outcome of one load window.
#[derive(Debug, Default)]
pub struct LoadResult {
    pub records: Vec<Record>,
    /// Open loop: how late each request was written, in ms.
    pub lag_ms: Vec<f64>,
    /// Length of the window in seconds.
    pub window_s: f64,
    /// Rows answered by the end of the window.
    pub rows_in_window: u64,
}

impl LoadResult {
    /// Fold another window of the same traffic into this one.
    pub fn append(&mut self, other: LoadResult) {
        self.records.extend(other.records);
        self.lag_ms.extend(other.lag_ms);
        self.window_s += other.window_s;
        self.rows_in_window += other.rows_in_window;
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.records.iter().map(Record::latency_ms).collect()
    }

    pub fn failed(&self) -> u64 {
        self.records.iter().filter(|r| r.done.is_none()).count() as u64
    }
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// How long an open loop runs: at most `max`, or until `stop` is raised.
#[derive(Clone, Copy)]
pub struct Until<'a> {
    pub max: Duration,
    pub stop: Option<&'a AtomicBool>,
}

impl Until<'_> {
    pub fn after(max: Duration) -> Self {
        Self { max, stop: None }
    }

    fn stopped(&self) -> bool {
        // ordering: a lone flag; nothing is published through it.
        self.stop.is_some_and(|s| s.load(Ordering::Relaxed))
    }
}

/// Seeded Poisson arrivals at `rate` per second: the due offsets of
/// every request that falls inside `max`, plus the first one after it
/// (which marks the end of the window).
fn arrivals(rate: f64, max: Duration, seed: u64) -> Vec<Duration> {
    let mut rng = SplitMix::new(seed);
    let mut at = 0.0;
    let mut out = Vec::with_capacity((rate * max.as_secs_f64() * 1.1) as usize + 2);
    loop {
        out.push(Duration::from_secs_f64(at));
        if at >= max.as_secs_f64() {
            return out;
        }
        // Inverse-CDF exponential gap from a uniform in (0, 1].
        let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        at += -u.ln() / rate;
    }
}

/// Open loop: one connection, requests due on seeded Poisson arrivals
/// at `rate` per second, a writer thread and a reader thread. Latency
/// runs from each request's due time, so a stalled writer shows up in
/// it.
pub fn open_loop(
    addr: SocketAddr,
    pool: &Pool,
    rate: f64,
    until: Until<'_>,
    seed: u64,
) -> io::Result<LoadResult> {
    let offsets = arrivals(rate, until.max, seed);
    let max_n = offsets.len() - 1;
    let mut writer = connect(addr)?;
    let mut reader = writer.try_clone()?;
    reader.set_read_timeout(Some(Duration::from_millis(20)))?;
    let t0 = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| t0 + offsets[i];
    let pool_len = pool.len();
    let rows: Vec<usize> = (0..pool_len).map(|k| pool.rows(k)).collect();
    let mut frames = pool.frames.clone();
    let sent = AtomicUsize::new(0);
    let finished = AtomicBool::new(false);
    let (lag_ms, received) = thread::scope(|s| {
        let (sent, finished) = (&sent, &finished);
        let recv = s.spawn(move || -> io::Result<(Vec<Option<Instant>>, Vec<u64>)> {
            let mut done: Vec<Option<Instant>> = Vec::new();
            let mut digest: Vec<u64> = Vec::new();
            let mut frames_in = FrameReader::new();
            let mut buf = vec![0u8; 256 * 1024];
            let mut got = 0usize;
            let mut idle_since: Option<Instant> = None;
            loop {
                // ordering: Acquire pairs with the writer's Release store
                // of `finished`, so `sent` read after it is final.
                if finished.load(Ordering::Acquire) && got >= sent.load(Ordering::Relaxed) {
                    break;
                }
                let n = match reader.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => n,
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) =>
                    {
                        // ordering: as above.
                        if finished.load(Ordering::Acquire) {
                            let since = *idle_since.get_or_insert_with(Instant::now);
                            if since.elapsed() > Duration::from_secs(10) {
                                break; // the rest never answered
                            }
                        }
                        continue;
                    }
                    Err(e) => return Err(e),
                };
                idle_since = None;
                let now = Instant::now();
                frames_in.extend(&buf[..n]);
                while let Some(payload) = frames_in.next_frame().map_err(io::Error::other)? {
                    got += 1;
                    let response = wire::decode_response(&payload).map_err(io::Error::other)?;
                    if let Response::Ite { request_id, ite } = response {
                        let i = request_id.wrapping_sub(1) as usize;
                        if i >= max_n {
                            continue;
                        }
                        if i >= done.len() {
                            done.resize(i + 1, None);
                            digest.resize(i + 1, 0);
                        }
                        done[i] = Some(now);
                        digest[i] = digest_f64(&ite);
                    }
                }
            }
            Ok((done, digest))
        });
        let mut lag_ms = Vec::with_capacity(max_n);
        let mut send = || -> io::Result<()> {
            for i in 0..max_n {
                if until.stopped() {
                    break;
                }
                let due = due(i);
                let now = Instant::now();
                if due > now {
                    thread::sleep(due - now);
                }
                lag_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                let frame = &mut frames[i % pool_len];
                set_id(frame, i as u64 + 1);
                writer.write_all(frame)?;
                // ordering: the count is published by `finished` below.
                sent.store(i + 1, Ordering::Relaxed);
            }
            Ok(())
        };
        let outcome = send();
        // ordering: Release publishes the final `sent` to the reader.
        finished.store(true, Ordering::Release);
        let received = recv.join().expect("open-loop reader thread");
        outcome.map(|()| (lag_ms, received))
    })?;
    let (done, digest) = received?;
    let n = lag_ms.len();
    let end = due(n);
    let records: Vec<Record> = (0..n)
        .map(|i| Record {
            pool: i % pool_len,
            issued: due(i),
            done: done.get(i).copied().flatten(),
            digest: digest.get(i).copied().unwrap_or(0),
        })
        .collect();
    let rows_in_window = records
        .iter()
        .filter(|r| r.done.is_some_and(|d| d <= end))
        .map(|r| rows[r.pool] as u64)
        .sum();
    Ok(LoadResult {
        records,
        lag_ms,
        window_s: (end - t0).as_secs_f64(),
        rows_in_window,
    })
}

/// Closed loop: `conns` connections, one thread each, every connection
/// keeping `depth` requests in flight for `duration`.
pub fn closed_loop(
    addr: SocketAddr,
    pool: &Pool,
    conns: usize,
    depth: usize,
    duration: Duration,
) -> io::Result<LoadResult> {
    let start = Instant::now();
    let end = start + duration;
    let per_conn: Vec<io::Result<Vec<Record>>> = thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let mut frames: Vec<Vec<u8>> = pool.frames.clone();
                s.spawn(move || -> io::Result<Vec<Record>> {
                    let mut stream = connect(addr)?;
                    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
                    let mut records = Vec::new();
                    // Responses may overtake each other (a scatter
                    // completes when its slowest shard does): match by id.
                    let mut inflight: HashMap<u64, (usize, Instant)> = HashMap::new();
                    let mut next = 0usize;
                    let mut send = |stream: &mut TcpStream,
                                    inflight: &mut HashMap<u64, (usize, Instant)>|
                     -> io::Result<()> {
                        let k = (c + conns * next) % frames.len();
                        next += 1;
                        set_id(&mut frames[k], next as u64);
                        inflight.insert(next as u64, (k, Instant::now()));
                        stream.write_all(&frames[k])
                    };
                    for _ in 0..depth {
                        send(&mut stream, &mut inflight)?;
                    }
                    let mut reader = FrameReader::new();
                    let mut buf = vec![0u8; 256 * 1024];
                    while !inflight.is_empty() {
                        let n = stream.read(&mut buf)?;
                        if n == 0 {
                            break;
                        }
                        let now = Instant::now();
                        reader.extend(&buf[..n]);
                        while let Some(payload) = reader.next_frame().map_err(io::Error::other)? {
                            let response =
                                wire::decode_response(&payload).map_err(io::Error::other)?;
                            let Some((k, issued)) = inflight.remove(&response.request_id()) else {
                                return Err(io::Error::other("response to an unknown request id"));
                            };
                            let (done, digest) = match response {
                                Response::Ite { ite, .. } => (Some(now), digest_f64(&ite)),
                                Response::Error { .. } => (None, 0),
                            };
                            records.push(Record {
                                pool: k,
                                issued,
                                done,
                                digest,
                            });
                            if now < end {
                                send(&mut stream, &mut inflight)?;
                            }
                        }
                    }
                    // Whatever is still outstanding never answered.
                    records.extend(inflight.into_values().map(|(k, issued)| Record {
                        pool: k,
                        issued,
                        done: None,
                        digest: 0,
                    }));
                    Ok(records)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client thread"))
            .collect()
    });
    let mut records = Vec::new();
    for r in per_conn {
        records.extend(r?);
    }
    records.sort_by_key(|r| r.issued);
    let rows_in_window = records
        .iter()
        .filter(|r| r.done.is_some_and(|d| d <= end))
        .map(|r| pool.rows(r.pool) as u64)
        .sum();
    Ok(LoadResult {
        records,
        lag_ms: Vec::new(),
        window_s: duration.as_secs_f64(),
        rows_in_window,
    })
}

/// The open-loop schedule of [`open_loop`], submitted in-process to a
/// [`BatchScheduler`]: same rate, same requests, no socket. Returns
/// latencies in ms from each request's due time.
pub fn inproc_open_loop(
    scheduler: &BatchScheduler,
    pool: &Pool,
    rate: f64,
    until: Until<'_>,
    seed: u64,
) -> Vec<f64> {
    let offsets = arrivals(rate, until.max, seed);
    let n = offsets.len() - 1;
    let t0 = Instant::now() + Duration::from_millis(2);
    let (tx, rx) = mpsc::channel::<(Instant, Option<ResponseHandle>)>();
    thread::scope(|s| {
        let waiter = s.spawn(move || {
            rx.iter()
                .map(|(due, handle)| match handle.map(ResponseHandle::wait) {
                    Some(Ok(_)) => {
                        Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3
                    }
                    _ => f64::INFINITY,
                })
                .collect::<Vec<f64>>()
        });
        for (i, offset) in offsets[..n].iter().enumerate() {
            if until.stopped() {
                break;
            }
            let due = t0 + *offset;
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
            let x = pool.matrices[i % pool.len()].clone();
            let _ = tx.send((due, scheduler.submit(x).ok()));
        }
        drop(tx);
        waiter.join().expect("in-process waiter thread")
    })
}

/// The closed loop of [`closed_loop`] against an in-process router:
/// `conns` threads, `depth` scatter requests in flight each. Returns
/// latencies in ms from submission.
pub fn inproc_closed_loop(
    router: &ShardRouter,
    pool: &Pool,
    conns: usize,
    depth: usize,
    duration: Duration,
) -> Vec<f64> {
    let end = Instant::now() + duration;
    thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut inflight = VecDeque::new();
                    let mut next = 0usize;
                    let mut submit = |inflight: &mut VecDeque<_>| {
                        let k = (c + conns * next) % pool.len();
                        next += 1;
                        let handle = router.submit_scatter(&pool.tags[k], &pool.matrices[k]);
                        inflight.push_back((Instant::now(), handle));
                    };
                    for _ in 0..depth {
                        submit(&mut inflight);
                    }
                    while let Some((issued, handle)) = inflight.pop_front() {
                        let ok = handle.and_then(|h| h.wait()).is_ok();
                        let now = Instant::now();
                        out.push(if ok {
                            now.saturating_duration_since(issued).as_secs_f64() * 1e3
                        } else {
                            f64::INFINITY
                        });
                        if now < end {
                            submit(&mut inflight);
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("in-process client thread"))
            .collect()
    })
}
