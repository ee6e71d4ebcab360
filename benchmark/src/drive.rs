//! Load drivers shared by the fabric runs and the traced bare-gateway runs:
//! a closed loop of clients that submit and wait, and an open loop that
//! offers requests on a fixed schedule while one completion thread waits
//! on the tickets.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use vtm_core::registry::RequestFrame;
use vtm_fabric::{Fabric, FabricError, FabricTicket};
use vtm_gateway::{Gateway, GatewayError, QuoteTicket};
use vtm_serve::{Quote, QuoteRequest};

/// Something quotes can be submitted to: the fabric or a bare gateway.
pub trait Target: Sync {
    /// The completion handle a submission returns.
    type Ticket: Send;
    /// Submits one request.
    ///
    /// # Errors
    ///
    /// The admission error, as a gateway error.
    fn submit(&self, request: QuoteRequest) -> Result<Self::Ticket, GatewayError>;
    /// Blocks until the ticket resolves.
    ///
    /// # Errors
    ///
    /// The pipeline's typed error.
    fn wait(ticket: Self::Ticket) -> Result<Quote, GatewayError>;
}

impl Target for Fabric {
    type Ticket = FabricTicket;

    fn submit(&self, request: QuoteRequest) -> Result<FabricTicket, GatewayError> {
        Fabric::submit(self, request).map_err(|err| match err {
            FabricError::Gateway(err) => err,
            other => GatewayError::Service(other.to_string()),
        })
    }

    fn wait(ticket: FabricTicket) -> Result<Quote, GatewayError> {
        ticket.wait()
    }
}

impl Target for Gateway {
    type Ticket = QuoteTicket;

    fn submit(&self, request: QuoteRequest) -> Result<QuoteTicket, GatewayError> {
        Gateway::submit(self, request)
    }

    fn wait(ticket: QuoteTicket) -> Result<Quote, GatewayError> {
        ticket.wait()
    }
}

/// One request of a closed-loop client.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    /// Stream round the request's features came from.
    pub round: u32,
    /// Session id (also its index within a stream round).
    pub session: u32,
    /// The quoted price; `None` when the request failed.
    pub price: Option<f64>,
    /// When the client submitted.
    pub sent: Instant,
    /// When the client had its answer.
    pub received: Instant,
}

impl Served {
    /// Client-observed latency in µs; infinite for a failed request.
    pub fn latency_us(&self) -> f64 {
        match self.price {
            Some(_) => (self.received - self.sent).as_secs_f64() * 1e6,
            None => f64::INFINITY,
        }
    }
}

/// What a closed loop did.
#[derive(Debug, Clone)]
pub struct ClosedRun {
    /// Each client's requests, in the order it made them.
    pub clients: Vec<Vec<Served>>,
    /// Wall-clock seconds the clients ran.
    pub elapsed_s: f64,
}

impl ClosedRun {
    /// Every request of every client.
    pub fn all(&self) -> impl Iterator<Item = &Served> {
        self.clients.iter().flatten()
    }

    /// Requests that got a quote.
    pub fn completed(&self) -> u64 {
        self.all().filter(|s| s.price.is_some()).count() as u64
    }
}

/// Closed loop: `clients` threads each own the sessions whose index is
/// congruent to their own modulo `clients`, walk the stream round by round
/// (cycling), and submit-and-wait until `duration` has passed.
pub fn closed_loop<T: Target>(
    target: &T,
    stream: &[Vec<RequestFrame>],
    clients: usize,
    duration: Duration,
) -> ClosedRun {
    let start = Instant::now();
    let deadline = start + duration;
    let clients: Vec<Vec<Served>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let mut served = Vec::new();
                    for round in (0..stream.len()).cycle() {
                        for frame in stream[round].iter().skip(client).step_by(clients) {
                            let sent = Instant::now();
                            if sent >= deadline {
                                return served;
                            }
                            let request = QuoteRequest::new(frame.session, frame.features.clone());
                            let price = target
                                .submit(request)
                                .and_then(T::wait)
                                .ok()
                                .map(|q| q.price());
                            served.push(Served {
                                round: round as u32,
                                session: frame.session as u32,
                                price,
                                sent,
                                received: Instant::now(),
                            });
                        }
                    }
                    served
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    ClosedRun {
        clients,
        elapsed_s: start.elapsed().as_secs_f64(),
    }
}

/// When each request of an open loop is due, relative to the loop start,
/// and which frame it carries.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    /// Index into the frame list, per request.
    pub frames: Vec<u32>,
    /// Due time in ns after the loop start, per request (non-decreasing).
    pub due_ns: Vec<u64>,
}

impl Schedule {
    /// Requests at a fixed `rate_qps` for `duration`, carrying frames
    /// `first, first + 1, …` (modulo `frame_count`); only requests whose
    /// frame passes `keep` are offered, at the time they would be due in
    /// the full schedule.
    pub fn fixed_rate(
        frame_count: usize,
        first: usize,
        rate_qps: f64,
        duration: Duration,
        keep: impl Fn(usize) -> bool,
    ) -> Self {
        let total = (rate_qps * duration.as_secs_f64()).round() as u64;
        let mut schedule = Self::default();
        for i in 0..total {
            let frame = (first + i as usize) % frame_count;
            if keep(frame) {
                schedule.frames.push(frame as u32);
                schedule.due_ns.push((i as f64 * 1e9 / rate_qps) as u64);
            }
        }
        schedule
    }

    /// Requests in the schedule.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

/// How an open-loop request ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fate {
    /// Admission control refused it.
    Rejected,
    /// It was admitted (or refused for another reason) and failed.
    Failed,
    /// It was quoted at this price.
    Quoted(f64),
}

/// One open-loop request, times in ns after the loop start.
#[derive(Debug, Clone, Copy)]
pub struct Offer {
    /// When the generator submitted it.
    pub sent_ns: u64,
    /// When the completion thread had its answer (0 if never admitted).
    pub received_ns: u64,
    /// How it ended.
    pub fate: Fate,
}

/// What an open loop did.
#[derive(Debug, Clone)]
pub struct OpenRun {
    /// The schedule that was offered.
    pub schedule: Schedule,
    /// One entry per scheduled request, in schedule order.
    pub offers: Vec<Offer>,
    /// In-flight depth (admitted minus answered), sampled every
    /// millisecond while the generator ran.
    pub depths: Vec<u64>,
    /// The loop's start instant (the origin of every ns offset).
    pub start: Instant,
}

impl OpenRun {
    /// Latency of request `i` from its due time in µs; infinite for a
    /// refused or failed request.
    pub fn latency_from_due_us(&self, i: usize) -> f64 {
        match self.offers[i].fate {
            Fate::Quoted(_) => {
                self.offers[i]
                    .received_ns
                    .saturating_sub(self.schedule.due_ns[i]) as f64
                    / 1e3
            }
            _ => f64::INFINITY,
        }
    }

    /// How late the generator submitted request `i`, in µs.
    pub fn lag_us(&self, i: usize) -> f64 {
        self.offers[i]
            .sent_ns
            .saturating_sub(self.schedule.due_ns[i]) as f64
            / 1e3
    }

    /// Requests refused by admission control.
    pub fn rejected(&self) -> u64 {
        self.offers
            .iter()
            .filter(|o| o.fate == Fate::Rejected)
            .count() as u64
    }

    /// Requests that failed otherwise.
    pub fn failed(&self) -> u64 {
        self.offers
            .iter()
            .filter(|o| o.fate == Fate::Failed)
            .count() as u64
    }
}

/// Tickets the completion thread may fall behind by before the generator
/// waits for it (the wait shows as generator lag). Bounds the harness's
/// own memory when an overloaded rung starves the completion thread.
pub const COMPLETION_QUEUE: usize = 8192;

/// Open loop: one generator (the calling thread) submits each scheduled
/// request once it is due, without waiting for answers; one completion
/// thread waits on the tickets in submission order.
pub fn open_loop<T: Target>(target: &T, frames: &[RequestFrame], schedule: Schedule) -> OpenRun {
    let n = schedule.len();
    let answered = AtomicU64::new(0);
    let (tx, rx) = mpsc::sync_channel::<(usize, T::Ticket)>(COMPLETION_QUEUE);
    let start = Instant::now();
    let since = |t: Instant| (t - start).as_nanos() as u64;
    let mut offers = Vec::with_capacity(n);
    let mut depths = Vec::new();
    let answers: Vec<(usize, Option<f64>, u64)> = std::thread::scope(|scope| {
        let completion = {
            let answered = &answered;
            scope.spawn(move || {
                let mut answers = Vec::new();
                for (i, ticket) in rx {
                    let price = T::wait(ticket).ok().map(|q| q.price());
                    answers.push((i, price, since(Instant::now())));
                    answered.fetch_add(1, Ordering::Relaxed);
                }
                answers
            })
        };
        let mut admitted = 0u64;
        let mut next_sample_ns = 0u64;
        let mut i = 0;
        while i < n {
            let now_ns = since(Instant::now());
            while i < n && schedule.due_ns[i] <= now_ns {
                let frame = &frames[schedule.frames[i] as usize];
                let request = QuoteRequest::new(frame.session, frame.features.clone());
                let sent = Instant::now();
                let fate = match target.submit(request) {
                    Ok(ticket) => {
                        admitted += 1;
                        tx.send((i, ticket)).expect("completion thread is alive");
                        Fate::Failed
                    }
                    Err(GatewayError::Overloaded { .. }) => Fate::Rejected,
                    Err(_) => Fate::Failed,
                };
                offers.push(Offer {
                    sent_ns: since(sent),
                    received_ns: 0,
                    fate,
                });
                i += 1;
            }
            if now_ns >= next_sample_ns {
                depths.push(admitted - answered.load(Ordering::Relaxed).min(admitted));
                next_sample_ns = now_ns + 1_000_000;
            }
            if i < n {
                let wait = schedule.due_ns[i].saturating_sub(since(Instant::now()));
                if wait > 0 {
                    std::thread::sleep(Duration::from_nanos(wait));
                }
            }
        }
        drop(tx);
        completion.join().expect("completion thread panicked")
    });
    for (i, price, received_ns) in answers {
        offers[i].received_ns = received_ns;
        offers[i].fate = price.map_or(Fate::Failed, Fate::Quoted);
    }
    OpenRun {
        schedule,
        offers,
        depths,
        start,
    }
}
