//! Wire replay: push an access log at a running `stream-analyze
//! --listen` (or `stream-serve`) the way live senders would.
//!
//! ```text
//! replay FILE --addr HOST:PORT [--connections N] [--speed X]
//!        [--chunk BYTES] [--http] [--batch-lines N]
//!        [--base-epoch SECS] [--truncate-bytes N] [--quiet]
//! ```
//!
//! `FILE`'s lines are dealt round-robin across `--connections N`
//! (default 1) TCP line-protocol senders — a subsequence of a sorted
//! log is still sorted, so every connection is a valid watermark
//! source and the server's merge must reconstruct the original order.
//!
//! `--speed X` paces the replay against the log's own timestamps: `X`
//! seconds of log time pass per second of wall clock (`0`, the
//! default, streams flat out). Pacing needs timestamps, so it parses
//! each line with `--base-epoch`; unparsable lines are forwarded
//! unpaced — replay is a transport, deciding what is malformed is the
//! server's job.
//!
//! `--chunk BYTES` sends each connection's stream in fixed-size writes
//! instead of line-at-a-time, deliberately splitting CLF lines across
//! socket writes mid-record — the standard torture test for the
//! server's buffered reader (ignored under pacing, which is
//! inherently line-at-a-time).
//!
//! `--http` switches to `POST /ingest` batches of `--batch-lines`
//! lines (default 500), one request per connection as the server's
//! `Connection: close` contract demands. Note each POST registers as
//! its own source on the server, which matters for
//! `--exit-after-sources` arithmetic.
//!
//! `--truncate-bytes N` is the fault-drill helper: each connection
//! sends only its first `N` bytes — usually ending mid-line — then
//! disconnects abruptly, which the server must count as a torn line,
//! never crash on.
//!
//! `--storm` turns replay into the chaos drill (`--storm-seed N` keeps
//! the junk deterministic). One run stages the overload playbook from
//! the SLR's failure drivers against a single server:
//!
//! - **slow trickle** — two background connections dribble the head of
//!   the log a line every few milliseconds: legitimate slow sources
//!   that must survive the storm un-shed.
//! - **bot flood** — one connection declares `#priority low`, then
//!   blasts junk lines (which must trip its circuit breaker) followed
//!   by a valid tail (absorbed by the open breaker's drop window or
//!   its half-open probes).
//! - **flash crowd** — the whole file dealt across 8 connections at
//!   full speed: the ×50-style rate spike that drives queue and
//!   session pressure into the governor's Yellow/Red bands.
//! - **memory squeeze** — not a sender behavior: run the *server* with
//!   tight `--governor-*` budgets so the storm presses against them.
//!
//! The storm always prints a machine-readable accounting line to
//! stdout (`storm-sent valid=V junk=J total=T sources=S`) so a gate
//! can check the server's shed accounting is conservation-exact.

use std::fs::File;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// 2004-01-12 00:00:00 UTC, the paper's WVU log start (genlog default).
const DEFAULT_BASE_EPOCH: i64 = 1_073_865_600;

struct Args {
    file: String,
    addr: String,
    connections: usize,
    speed: f64,
    chunk: usize,
    http: bool,
    batch_lines: usize,
    base_epoch: i64,
    truncate_bytes: Option<u64>,
    storm: bool,
    storm_seed: u64,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: replay FILE --addr HOST:PORT [--connections N] [--speed X] \
         [--chunk BYTES] [--http] [--batch-lines N] [--base-epoch SECS] \
         [--truncate-bytes N] [--storm] [--storm-seed N] [--quiet]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut parsed = Args {
        file: String::new(),
        addr: String::new(),
        connections: 1,
        speed: 0.0,
        chunk: 0,
        http: false,
        batch_lines: 500,
        base_epoch: DEFAULT_BASE_EPOCH,
        truncate_bytes: None,
        storm: false,
        storm_seed: 42,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match a.as_str() {
            "--addr" => parsed.addr = value("--addr"),
            "--connections" => {
                let n: usize = value("--connections")
                    .parse()
                    .expect("--connections: integer");
                parsed.connections = n.max(1);
            }
            "--speed" => parsed.speed = value("--speed").parse().expect("--speed: factor"),
            "--chunk" => parsed.chunk = value("--chunk").parse().expect("--chunk: bytes"),
            "--http" => parsed.http = true,
            "--batch-lines" => {
                let n: usize = value("--batch-lines")
                    .parse()
                    .expect("--batch-lines: integer");
                parsed.batch_lines = n.max(1);
            }
            "--base-epoch" => {
                parsed.base_epoch = value("--base-epoch")
                    .parse()
                    .expect("--base-epoch: integer")
            }
            "--truncate-bytes" => {
                parsed.truncate_bytes = Some(
                    value("--truncate-bytes")
                        .parse()
                        .expect("--truncate-bytes: bytes"),
                )
            }
            "--storm" => parsed.storm = true,
            "--storm-seed" => {
                parsed.storm_seed = value("--storm-seed")
                    .parse()
                    .expect("--storm-seed: integer")
            }
            "--quiet" => parsed.quiet = true,
            other if !other.starts_with('-') => {
                if !parsed.file.is_empty() {
                    usage();
                }
                parsed.file = other.to_string();
            }
            _ => usage(),
        }
    }
    if parsed.file.is_empty() || parsed.addr.is_empty() {
        usage();
    }
    parsed
}

/// One connection's share of the log, in file order, lines still
/// newline-terminated.
struct Share {
    lines: Vec<String>,
    bytes: u64,
}

fn deal(path: &str, connections: usize) -> std::io::Result<Vec<Share>> {
    let mut shares: Vec<Share> = (0..connections)
        .map(|_| Share {
            lines: Vec::new(),
            bytes: 0,
        })
        .collect();
    let reader = BufReader::new(File::open(path)?);
    for (i, line) in reader.lines().enumerate() {
        let mut line = line?;
        line.push('\n');
        let share = &mut shares[i % connections];
        share.bytes += line.len() as u64;
        share.lines.push(line);
    }
    Ok(shares)
}

/// Flat-out or chunked send of one share over one line-protocol
/// connection, optionally truncated to `limit` bytes.
fn send_share(addr: &str, share: &Share, chunk: usize, limit: Option<u64>) -> std::io::Result<u64> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut sent = 0u64;
    let mut budget = limit.unwrap_or(u64::MAX);
    if chunk > 0 {
        let mut all = Vec::with_capacity(share.bytes as usize);
        for line in &share.lines {
            all.extend_from_slice(line.as_bytes());
        }
        for piece in all.chunks(chunk) {
            let take = (piece.len() as u64).min(budget) as usize;
            if take == 0 {
                break;
            }
            stream.write_all(&piece[..take])?;
            sent += take as u64;
            budget -= take as u64;
        }
    } else {
        for line in &share.lines {
            let bytes = line.as_bytes();
            let take = (bytes.len() as u64).min(budget) as usize;
            if take == 0 {
                break;
            }
            stream.write_all(&bytes[..take])?;
            sent += take as u64;
            budget -= take as u64;
        }
    }
    stream.flush()?;
    // An explicit truncation is an *abrupt* disconnect drill: no
    // half-close courtesy, just drop the socket.
    if limit.is_none() {
        let _ = stream.shutdown(std::net::Shutdown::Write);
        // Give the server the chance to finish reading before the
        // socket object (and with it the connection) goes away.
        let mut sink = [0u8; 256];
        while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
    }
    Ok(sent)
}

/// Paced send: sleep each line to `start + (t_line − t_first) / speed`.
fn send_share_paced(
    addr: &str,
    share: &Share,
    speed: f64,
    base_epoch: i64,
    t_first: f64,
    start: Instant,
) -> std::io::Result<u64> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut sent = 0u64;
    for line in &share.lines {
        if let Ok(rec) = webpuzzle_weblog::clf::parse_line(line.trim_end(), base_epoch) {
            let due = (rec.timestamp - t_first).max(0.0) / speed;
            let elapsed = start.elapsed().as_secs_f64();
            if due > elapsed {
                std::thread::sleep(Duration::from_secs_f64(due - elapsed));
            }
        }
        stream.write_all(line.as_bytes())?;
        sent += line.len() as u64;
    }
    stream.flush()?;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 256];
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
    Ok(sent)
}

/// POST one batch of lines at /ingest; returns bytes sent on the wire
/// (body only) after checking for a 200.
fn post_batch(addr: &str, batch: &[String]) -> std::io::Result<u64> {
    let mut body = Vec::new();
    for line in batch {
        body.extend_from_slice(line.as_bytes());
    }
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    write!(
        stream,
        "POST /ingest HTTP/1.1\r\nHost: replay\r\nContent-Type: text/plain\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(&body)?;
    stream.flush()?;
    let mut response = String::new();
    let mut reader = BufReader::new(stream);
    reader.read_line(&mut response)?;
    if !response.contains("200") {
        return Err(std::io::Error::other(format!(
            "server refused batch: {}",
            response.trim()
        )));
    }
    // Drain the rest so the server's write completes cleanly.
    let mut sink = Vec::new();
    let _ = reader.read_to_end(&mut sink);
    Ok(body.len() as u64)
}

/// The storm's fixed shape; a gate that launches the server with
/// `--exit-after-sources` needs the source count to be predictable.
const STORM_CROWD_CONNECTIONS: usize = 8;
const STORM_TRICKLE_CONNECTIONS: usize = 2;
const STORM_TRICKLE_LINES: usize = 150;
const STORM_TRICKLE_GAP: Duration = Duration::from_millis(5);
const STORM_JUNK_LINES: usize = 3000;
const STORM_FLOOD_VALID_TAIL: usize = 200;

/// xorshift64*: deterministic junk without pulling in an RNG.
fn junk_line(state: &mut u64) -> String {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    let word = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
    format!("botnet junk {word:016x} definitely not a CLF line\n")
}

/// Open a connection, send every line, then close with the half-close
/// courtesy so the server finishes reading before the socket dies.
fn send_lines(
    addr: &str,
    lines: impl Iterator<Item = String>,
    gap: Option<Duration>,
) -> std::io::Result<u64> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut sent = 0u64;
    for line in lines {
        stream.write_all(line.as_bytes())?;
        sent += 1;
        if let Some(gap) = gap {
            std::thread::sleep(gap);
        }
    }
    stream.flush()?;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 256];
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
    Ok(sent)
}

/// Run the chaos drill: trickle sources in the background, a
/// low-priority bot flood, then the flash crowd. Returns
/// (valid_lines, junk_lines) actually sent.
fn run_storm(args: &Args) -> std::io::Result<(u64, u64)> {
    let crowd = deal(&args.file, STORM_CROWD_CONNECTIONS)?;
    let head: Vec<String> = {
        let reader = BufReader::new(File::open(&args.file)?);
        reader
            .lines()
            .take(STORM_TRICKLE_CONNECTIONS * STORM_TRICKLE_LINES)
            .map(|l| {
                let mut l = l?;
                l.push('\n');
                Ok(l)
            })
            .collect::<std::io::Result<_>>()?
    };
    let seed = args.storm_seed;
    std::thread::scope(|scope| {
        // Slow trickle: contiguous slices of the head, so each source
        // is internally sorted, dribbled out slowly in the background.
        let trickles: Vec<_> = head
            .chunks(STORM_TRICKLE_LINES.max(1))
            .take(STORM_TRICKLE_CONNECTIONS)
            .map(|slice| {
                let addr = args.addr.clone();
                scope.spawn(move || {
                    send_lines(&addr, slice.iter().cloned(), Some(STORM_TRICKLE_GAP))
                })
            })
            .collect();
        // Bot flood: self-declared low priority, junk that must trip
        // the breaker, then a valid tail the open breaker absorbs.
        let flood = {
            let addr = args.addr.clone();
            let tail: Vec<String> = head.iter().take(STORM_FLOOD_VALID_TAIL).cloned().collect();
            scope.spawn(move || -> std::io::Result<(u64, u64)> {
                let mut stream = TcpStream::connect(&addr)?;
                stream.set_nodelay(true)?;
                stream.write_all(b"#priority low\n")?;
                let mut rng = seed | 1;
                for _ in 0..STORM_JUNK_LINES {
                    stream.write_all(junk_line(&mut rng).as_bytes())?;
                }
                for line in &tail {
                    stream.write_all(line.as_bytes())?;
                }
                stream.flush()?;
                let _ = stream.shutdown(std::net::Shutdown::Write);
                let mut sink = [0u8; 256];
                while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
                Ok((tail.len() as u64, STORM_JUNK_LINES as u64))
            })
        };
        // Give the trickle and the flood a head start so the spike
        // lands on a server already busy, then unleash the crowd.
        std::thread::sleep(Duration::from_millis(100));
        let crowd_handles: Vec<_> = crowd
            .iter()
            .map(|share| {
                let addr = args.addr.clone();
                scope.spawn(move || send_share(&addr, share, 0, None))
            })
            .collect();

        let mut valid = 0u64;
        for h in crowd_handles {
            h.join().expect("crowd sender")?;
        }
        for share in &crowd {
            valid += share.lines.len() as u64;
        }
        for h in trickles {
            valid += h.join().expect("trickle sender")?;
        }
        let (flood_valid, junk) = flood.join().expect("flood sender")?;
        valid += flood_valid;
        Ok((valid, junk))
    })
}

fn main() {
    let args = parse_args();
    if args.storm {
        let t0 = Instant::now();
        let (valid, junk) = run_storm(&args).unwrap_or_else(|e| {
            eprintln!("replay: storm failed: {e}");
            std::process::exit(1);
        });
        let sources = STORM_CROWD_CONNECTIONS + STORM_TRICKLE_CONNECTIONS + 1;
        // Stdout, always: the chaos gate parses this line.
        println!(
            "storm-sent valid={valid} junk={junk} total={} sources={sources}",
            valid + junk
        );
        if !args.quiet {
            eprintln!(
                "replay: storm complete in {:.1?} ({valid} valid + {junk} junk \
                 lines over {sources} sources)",
                t0.elapsed()
            );
        }
        return;
    }
    let shares = deal(&args.file, args.connections).unwrap_or_else(|e| {
        eprintln!("replay: cannot read {}: {e}", args.file);
        std::process::exit(1);
    });
    let total_lines: usize = shares.iter().map(|s| s.lines.len()).sum();
    let t0 = Instant::now();
    let sent: u64 = if args.http {
        // HTTP mode: batches in file order, one POST per batch.
        let all: Vec<&String> = {
            // Re-interleave the deal so batches preserve file order.
            let mut idx = vec![0usize; shares.len()];
            let mut out = Vec::with_capacity(total_lines);
            for i in 0..total_lines {
                let s = i % shares.len();
                out.push(&shares[s].lines[idx[s]]);
                idx[s] += 1;
            }
            out
        };
        let mut sent = 0u64;
        for batch in all.chunks(args.batch_lines) {
            let owned: Vec<String> = batch.iter().map(|l| (*l).clone()).collect();
            sent += post_batch(&args.addr, &owned).unwrap_or_else(|e| {
                eprintln!("replay: {e}");
                std::process::exit(1);
            });
        }
        sent
    } else if args.speed > 0.0 {
        let t_first = shares
            .iter()
            .flat_map(|s| s.lines.first())
            .filter_map(|l| webpuzzle_weblog::clf::parse_line(l.trim_end(), args.base_epoch).ok())
            .map(|r| r.timestamp)
            .fold(f64::INFINITY, f64::min);
        let start = Instant::now();
        std::thread::scope(|scope| {
            let handles: Vec<_> = shares
                .iter()
                .map(|share| {
                    let addr = args.addr.clone();
                    scope.spawn(move || {
                        send_share_paced(&addr, share, args.speed, args.base_epoch, t_first, start)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().expect("sender thread").unwrap_or_else(|e| {
                        eprintln!("replay: {e}");
                        std::process::exit(1);
                    })
                })
                .sum()
        })
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = shares
                .iter()
                .map(|share| {
                    let addr = args.addr.clone();
                    scope.spawn(move || send_share(&addr, share, args.chunk, args.truncate_bytes))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().expect("sender thread").unwrap_or_else(|e| {
                        eprintln!("replay: {e}");
                        std::process::exit(1);
                    })
                })
                .sum()
        })
    };
    let elapsed = t0.elapsed();
    if !args.quiet {
        eprintln!(
            "replay: {total_lines} line(s) / {:.1} MB over {} {} in {elapsed:.1?} ({:.0} lines/s)",
            sent as f64 / 1e6,
            if args.http {
                total_lines.div_ceil(args.batch_lines)
            } else {
                args.connections
            },
            if args.http {
                "HTTP batch(es)"
            } else {
                "connection(s)"
            },
            total_lines as f64 / elapsed.as_secs_f64().max(1e-9)
        );
    }
}
