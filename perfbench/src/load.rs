//! Closed-loop load: keep-alive HTTP connections for the wire
//! workloads, and in-process ticket waves for `remat-burst`. Every
//! answer is checked as it arrives; `learn-mix` classify answers are
//! recorded and checked afterwards against a replay of the learner.

use crate::stats::{median, quantile, Phase, Windows};
use crate::wire::{self, Conn};
use crate::workload::{Inputs, Reference, Workload, LEARN_EVERY, SNAPSHOT_EVERY, WAVE};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use uhd_serve::ModelRegistry;

/// Closed-loop client connections (`nproc` on the reference box).
pub const CONNECTIONS: usize = 2;
/// Closed loop before the measured phase: connections open, caches
/// fill, the first answers pay any lazy set-up.
pub const WARMUP: Duration = Duration::from_secs(1);
/// Width of one throughput window.
pub const WINDOW: Duration = Duration::from_millis(200);
/// A request not answered within this long counts as failed.
pub const TIMEOUT: Duration = Duration::from_secs(10);
/// The window of a latency sample outside the measured phase.
pub const OUTSIDE: usize = usize::MAX;
/// Errors quoted verbatim in the run log.
const QUOTED_ERRORS: usize = 5;

/// What a closed loop measured and checked.
#[derive(Debug, Default)]
pub struct Tally {
    pub sent: u64,
    pub succeeded: u64,
    pub failed: u64,
    /// `200` classify / learn responses over the whole run, warm-up
    /// included (what the server's counters must equal).
    pub classify_200: u64,
    pub learn_200: u64,
    /// `(window, µs)` of every answered request; the window is
    /// [`OUTSIDE`] for requests not sent in the measured phase.
    pub samples: Vec<(usize, f64)>,
    /// `learn-mix`: `(query, generation, class, score)` per classify.
    pub records: Vec<(usize, u64, usize, f64)>,
    pub errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < QUOTED_ERRORS {
            self.errors.push(error);
        }
    }

    fn merge(&mut self, other: Tally) {
        self.sent += other.sent;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
        self.classify_200 += other.classify_200;
        self.learn_200 += other.learn_200;
        self.samples.extend(other.samples);
        self.records.extend(other.records);
        for e in other.errors {
            if self.errors.len() < QUOTED_ERRORS {
                self.errors.push(e);
            }
        }
    }
}

/// The measured phase's outcome.
pub struct Measured {
    pub tally: Tally,
    pub figures: Figures,
    /// Answers completed inside the measured phase.
    pub completed: u64,
    /// Server CPU ticks spent inside the measured phase.
    pub cpu_ticks: Option<u64>,
}

/// The closed loop's headline figures, over the quiet windows.
#[derive(Debug, Clone, Copy, Default)]
pub struct Figures {
    pub rps: Option<f64>,
    pub p50_us: Option<f64>,
    pub p99_us: Option<f64>,
    /// Latency samples behind the quantiles.
    pub samples: usize,
    /// Median latency over every answered request, warm-up included:
    /// the population the server's own latency histogram covers.
    pub p50_all_us: Option<f64>,
    /// Quiet windows used, of all windows.
    pub quiet: usize,
    pub windows: usize,
    /// Ticks stolen from the machine over the whole measured phase.
    pub steal: u64,
}

impl Figures {
    pub fn of(phase: &Phase) -> Self {
        let mut latencies = phase.quiet_latencies();
        Figures {
            rps: phase.rps(),
            p50_us: median(&mut latencies),
            p99_us: quantile(&mut latencies, 0.99),
            samples: latencies.len(),
            p50_all_us: median(&mut phase.samples.iter().map(|&(_, l)| l).collect::<Vec<_>>()),
            quiet: phase.quiet().iter().filter(|&&q| q).count(),
            windows: phase.rates.len(),
            steal: phase.steal.iter().sum(),
        }
    }
}

struct Shared<'a> {
    inputs: &'a Inputs,
    reference: &'a Reference,
    addr: SocketAddr,
    classify: Vec<Vec<u8>>,
    learn: Vec<Vec<u8>>,
    /// Number of the next learn. Held across a learn's round trip, so
    /// the server applies learns in sequence order and the reference
    /// can replay them.
    next_learn: Mutex<u64>,
    measure_from: Instant,
    measure_to: Instant,
}

/// Drive `CONNECTIONS` keep-alive connections in a closed loop against
/// the server at `addr` (process `host_pid`) for the warm-up plus
/// `seconds`.
pub fn http(
    inputs: &Inputs,
    reference: &Reference,
    addr: SocketAddr,
    host_pid: u32,
    seconds: u64,
) -> Measured {
    let tenant_path = |t: usize, action: &str| format!("/v1/{}/{action}", inputs.tenants[t].name);
    let started = Instant::now();
    let measure_from = started + WARMUP;
    let shared = Shared {
        inputs,
        reference,
        addr,
        classify: inputs
            .queries
            .iter()
            .map(|q| wire::post(&tenant_path(q.tenant, "classify"), &q.input))
            .collect(),
        learn: inputs
            .learns
            .iter()
            .map(|(input, label)| {
                wire::post(&format!("{}?label={label}", tenant_path(0, "learn")), input)
            })
            .collect(),
        next_learn: Mutex::new(0),
        measure_from,
        measure_to: measure_from + Duration::from_secs(seconds),
    };
    let slots = (seconds * 1000).div_ceil(WINDOW.as_millis() as u64) as usize;
    let pid = host_pid.to_string();
    let (results, steal, cpu) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let shared = &shared;
                scope.spawn(move || connection(shared, c, slots))
            })
            .collect();
        sleep_until(shared.measure_from);
        let before = crate::procfs::cpu_ticks(&pid);
        let mut steal = Vec::with_capacity(slots);
        let mut last = crate::procfs::steal_ticks();
        for slot in 1..=slots {
            sleep_until(shared.measure_from + WINDOW * slot as u32);
            let now = crate::procfs::steal_ticks();
            steal.push(now.zip(last).map_or(0, |(n, l)| n.saturating_sub(l)));
            last = now;
        }
        let after = crate::procfs::cpu_ticks(&pid);
        let results: Vec<(Tally, Windows)> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (
            results,
            steal,
            before.zip(after).map(|(b, a)| a.saturating_sub(b)),
        )
    });
    let mut windows = Windows::new(measure_from, WINDOW, slots);
    let mut tally = Tally::default();
    for (t, w) in results {
        tally.merge(t);
        windows.merge(&w);
    }
    let phase = Phase {
        rates: windows.rates(),
        steal,
        samples: std::mem::take(&mut tally.samples),
    };
    Measured {
        figures: Figures::of(&phase),
        completed: windows.total(),
        tally,
        cpu_ticks: cpu,
    }
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// One client connection's closed loop.
fn connection(shared: &Shared<'_>, index: usize, slots: usize) -> (Tally, Windows) {
    let mut tally = Tally::default();
    let mut windows = Windows::new(shared.measure_from, WINDOW, slots);
    let mut conn = match Conn::connect(shared.addr, TIMEOUT) {
        Ok(conn) => conn,
        Err(e) => {
            tally.sent += 1;
            tally.fail(format!("connect: {e}"));
            return (tally, windows);
        }
    };
    let learn_mix = shared.inputs.workload == Workload::LearnMix;
    let pool = shared.classify.len();
    let mut query = index * pool / CONNECTIONS;
    let mut body = Vec::new();
    let mut last_generation = 0u64;
    for i in 0u64.. {
        if Instant::now() >= shared.measure_to {
            break;
        }
        let learn = learn_mix && i % LEARN_EVERY == LEARN_EVERY - 1;
        let guard = learn.then(|| shared.next_learn.lock().expect("learn sequence lock"));
        let number = guard.as_deref().copied();
        let request = match number {
            Some(n) => &shared.learn[n as usize % shared.learn.len()],
            None => &shared.classify[query],
        };
        tally.sent += 1;
        let sent_at = Instant::now();
        let status = conn.round_trip(request, &mut body);
        let done = Instant::now();
        if let Some(mut guard) = guard {
            *guard += 1;
        }
        let verdict = match status {
            Ok(200) => {
                if learn {
                    tally.learn_200 += 1;
                } else {
                    tally.classify_200 += 1;
                }
                check(
                    shared,
                    &body,
                    number,
                    query,
                    &mut last_generation,
                    &mut tally,
                )
            }
            Ok(status) => Err(format!(
                "status {status}: {}",
                String::from_utf8_lossy(&body)
            )),
            Err(e) => {
                let verdict = Err(format!("{e}"));
                match Conn::connect(shared.addr, TIMEOUT) {
                    Ok(fresh) => conn = fresh,
                    Err(_) => {
                        tally.fail(format!("{verdict:?}; reconnect failed"));
                        break;
                    }
                }
                verdict
            }
        };
        match verdict {
            Ok(()) => {
                tally.succeeded += 1;
                let window = windows
                    .record(done)
                    .filter(|_| sent_at >= shared.measure_from);
                tally.samples.push((
                    window.unwrap_or(OUTSIDE),
                    (done - sent_at).as_secs_f64() * 1e6,
                ));
            }
            Err(e) => tally.fail(e),
        }
        if !learn {
            query = (query + 1) % pool;
        }
    }
    (tally, windows)
}

/// Check one `200` body. Learns must report exactly the generation the
/// sequence implies; classifies must match the serial reference (or,
/// on `learn-mix`, are recorded for the replay check). Generations never
/// decrease on a connection.
fn check(
    shared: &Shared<'_>,
    body: &[u8],
    learn: Option<u64>,
    query: usize,
    last_generation: &mut u64,
    tally: &mut Tally,
) -> Result<(), String> {
    let shown = || String::from_utf8_lossy(body).into_owned();
    let generation = if let Some(n) = learn {
        let generation =
            wire::parse_generation(body).ok_or_else(|| format!("bad learn body {}", shown()))?;
        let want = (n + 1) / SNAPSHOT_EVERY as u64;
        if generation != want {
            return Err(format!(
                "learn #{n} answered generation {generation}, want {want}"
            ));
        }
        generation
    } else {
        let answer =
            wire::parse_answer(body).ok_or_else(|| format!("bad classify body {}", shown()))?;
        if shared.inputs.workload == Workload::LearnMix {
            tally
                .records
                .push((query, answer.generation, answer.class, answer.score));
        } else {
            let (class, score) = shared.reference.expected[query];
            if answer.generation != 0
                || answer.class != class
                || answer.score.to_bits() != score.to_bits()
            {
                return Err(format!(
                    "query {query}: served {answer:?}, serial reference ({class}, {score}) at generation 0"
                ));
            }
        }
        answer.generation
    };
    if generation < *last_generation {
        return Err(format!(
            "generation went back from {} to {generation} on one connection",
            *last_generation
        ));
    }
    *last_generation = generation;
    Ok(())
}

/// `learn-mix`: every recorded classify answer must equal the replayed
/// model of the generation it was tagged with; a mismatch counts as a
/// failed request.
pub fn replay_check(inputs: &Inputs, reference: &Reference, tally: &mut Tally) {
    let top = tally.records.iter().map(|r| r.1).max().unwrap_or(0);
    let models = reference.learned_models(inputs, top);
    let mut bad = 0;
    let mut quoted = String::new();
    for &(query, generation, class, score) in &tally.records {
        let (want_class, want_score) = models[generation as usize]
            .classify_encoded(&reference.query_hvs[query])
            .expect("replayed model classifies");
        if class != want_class || score.to_bits() != want_score.to_bits() {
            bad += 1;
            if quoted.is_empty() {
                let _ = write!(
                    quoted,
                    "query {query} at generation {generation}: served ({class}, {score}), replay ({want_class}, {want_score})"
                );
            }
        }
    }
    if bad > 0 {
        tally.succeeded -= bad;
        tally.failed += bad;
        tally.errors.push(quoted);
    }
}

/// `remat-burst`, run inside the host: waves of `WAVE` tickets from one
/// thread, each wave waited for in submission order. A ticket's latency
/// runs from its `submit` to the return of its `wait`. Each measured
/// wave is one window of the [`Phase`].
pub fn waves(
    registry: &ModelRegistry,
    inputs: &Inputs,
    expected: &[(usize, f64)],
    seconds: u64,
) -> Measured {
    let tenant = &inputs.tenants[0].name;
    let mut tally = Tally::default();
    // Fixed-size and touched up front: the sample buffer adds the same
    // pages to the host's peak RSS whatever the throughput.
    let mut samples = vec![(OUTSIDE, -1f64); 1 << 14];
    let mut recorded = 0usize;
    let mut phase = Phase::default();
    let mut query = 0usize;
    let mut completed = 0u64;
    let measure_from = Instant::now() + WARMUP;
    let mut measure_to = None;
    let mut cpu_before = None;
    loop {
        let wave_start = Instant::now();
        let measured = wave_start >= measure_from;
        if measured && measure_to.is_none() {
            measure_to = Some(wave_start + Duration::from_secs(seconds));
            cpu_before = crate::procfs::cpu_ticks("self");
        }
        if measure_to.is_some_and(|end| wave_start >= end) {
            break;
        }
        let steal_before = crate::procfs::steal_ticks();
        let window = if measured { phase.rates.len() } else { OUTSIDE };
        let mut tickets = Vec::with_capacity(WAVE);
        for _ in 0..WAVE {
            let input = inputs.queries[query].input.clone();
            tally.sent += 1;
            let at = Instant::now();
            match registry.submit(tenant, input) {
                Ok(ticket) => tickets.push((query, at, ticket)),
                Err(e) => tally.fail(format!("submit: {e}")),
            }
            query = (query + 1) % inputs.queries.len();
        }
        let mut answered = 0;
        for (q, at, ticket) in tickets {
            let outcome = ticket.wait();
            let done = Instant::now();
            let answer = match outcome {
                Ok(answer) => answer,
                Err(e) => {
                    tally.fail(format!("wait: {e}"));
                    continue;
                }
            };
            tally.classify_200 += 1;
            let (class, score) = expected[q];
            if answer.generation != 0
                || answer.class != class
                || answer.score.to_bits() != score.to_bits()
            {
                tally.fail(format!(
                    "query {q}: served ({}, {}), serial reference ({class}, {score})",
                    answer.class, answer.score
                ));
                continue;
            }
            tally.succeeded += 1;
            answered += 1;
            if recorded < samples.len() {
                samples[recorded] = (window, (done - at).as_secs_f64() * 1e6);
                recorded += 1;
            }
        }
        if measured {
            completed += answered;
            phase
                .rates
                .push(answered as f64 / wave_start.elapsed().as_secs_f64());
            let steal_after = crate::procfs::steal_ticks();
            phase.steal.push(
                steal_after
                    .zip(steal_before)
                    .map_or(0, |(a, b)| a.saturating_sub(b)),
            );
        }
    }
    let cpu_after = crate::procfs::cpu_ticks("self");
    samples.truncate(recorded);
    phase.samples = samples;
    Measured {
        figures: Figures::of(&phase),
        completed,
        tally,
        cpu_ticks: cpu_before.zip(cpu_after).map(|(b, a)| a.saturating_sub(b)),
    }
}
