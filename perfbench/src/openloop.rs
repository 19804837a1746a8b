//! The open-loop load generator: a seeded schedule of requests, each due
//! at a fixed time whether or not earlier ones were answered, sent over at
//! most `nproc` keep-alive connections.
//!
//! A connection carries one request at a time, so a request whose
//! connection is still busy goes out late; its latency is timed from when
//! it was due, which charges a stall to every request it delays. Requests
//! still unsent at the deadline are reported unanswered.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::http::Client;
use crate::stats::Rng;

/// Due times of a Poisson process at `rate` per second over `span`.
pub fn poisson(rng: &mut Rng, rate: f64, span: Duration) -> Vec<Duration> {
    let mut out = Vec::new();
    let mut t = rng.exp(rate);
    while t < span.as_secs_f64() {
        out.push(Duration::from_secs_f64(t));
        t += rng.exp(rate);
    }
    out
}

/// One answered request, times relative to the schedule's start.
pub struct Answer {
    pub sent: Duration,
    pub done: Duration,
    pub code: u16,
    pub body: String,
}

/// What happened to one scheduled request.
pub enum Fate {
    Answered(Answer),
    /// Transport error.
    Error(String),
    /// Still unsent at the deadline.
    Unanswered,
}

/// POST `plan` to `/v1/elect` (due time and body per request, in due
/// order) on `conns` connections. Nothing is sent after `deadline`.
pub fn drive(
    addr: SocketAddr,
    conns: usize,
    plan: &[(Duration, String)],
    deadline: Duration,
) -> Result<Vec<Fate>, String> {
    let mut clients = (0..conns)
        .map(|_| Client::connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let mut fates: Vec<(usize, Fate)> = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((due, body)) = plan.get(i) else {
                            break;
                        };
                        if let Some(wait) = due.checked_sub(t0.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        let sent = t0.elapsed();
                        if sent > deadline {
                            mine.push((i, Fate::Unanswered));
                            continue;
                        }
                        let fate = match client.request("POST", "/v1/elect", body) {
                            Ok((code, body)) => Fate::Answered(Answer {
                                sent,
                                done: t0.elapsed(),
                                code,
                                body,
                            }),
                            Err(e) => Fate::Error(e),
                        };
                        mine.push((i, fate));
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("load thread panicked"))
            .collect()
    });
    fates.sort_by_key(|(i, _)| *i);
    Ok(fates.into_iter().map(|(_, f)| f).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_has_the_asked_rate() {
        let a = poisson(&mut Rng::new(1), 1000.0, Duration::from_secs(5));
        let b = poisson(&mut Rng::new(1), 1000.0, Duration::from_secs(5));
        let c = poisson(&mut Rng::new(2), 1000.0, Duration::from_secs(5));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!((4700..5300).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().unwrap() < &Duration::from_secs(5));
    }
}
