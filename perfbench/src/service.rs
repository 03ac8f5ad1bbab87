//! The two service workloads: an in-process `uve-sweep` coordinator with a
//! durable cache, one in-process worker, and one client connection sending
//! a seeded request stream in a closed loop. A run makes its stream once
//! and sends it in every round.
//!
//! - `sweep-service` ([`Mix::Cold`]): each round starts a fresh service
//!   over an empty cache directory. The stream *introduces* every kernel of
//!   the small catalog with one request per flavor over all of its points
//!   (all misses: emulation, replay, `uve-smp` lockstep for cores=2, WAL
//!   appends), interleaved with *revisits*: overlapping sub-grids of
//!   kernels already introduced, which the result cache serves.
//! - `sweep-cached` ([`Mix::Warm`]): each round restarts the service over
//!   a cache directory that already holds the whole grid (recovered from
//!   its snapshot at start), and the stream is revisits only.

use std::collections::HashMap;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use uve_bench::Runner;
use uve_kernels::Flavor;
use uve_sweep::spec::{fnv1a_bytes, SHARED_PREFIX_LINES};
use uve_sweep::{
    catalog, job_key, read_msg, resolve, run_point, run_worker, write_msg, Coordinator,
    CoordinatorOptions, Msg, PointRow, PointSpec, SweepSpec, SweepStats, WorkerOptions,
    PROTOCOL_VERSION,
};

use crate::measure::{cpu_s, paper_err_pct, peak_rss_mb, reset_peak_rss, secs, Rng};
use crate::traced::{trace_bytes, SpanLog, Tracer};
use crate::Layers;

/// Requests per round: at least 1000, so that the stream has ten requests
/// beyond its p99; twice that, so that p99 depends less on the seed.
const REQUESTS_PER_ROUND: usize = 2000;
/// The seed of the content of every warm stream (see [`request_stream`]).
const WARM_CONTENT_SEED: u64 = 0x5eed_ca11_ed00_0001;
/// The pause before each service start.
const SETTLE: Duration = Duration::from_millis(10);
/// Every introduction starts among the first this many requests.
const INTRO_WINDOW: usize = 300;
const FLAVORS: [Flavor; 4] = [Flavor::Uve, Flavor::Sve, Flavor::Neon, Flavor::Scalar];
/// One `vec_prf`, the default: a second value would double the replay and
/// lockstep work of a round, and so halve the rounds a run can time.
const VEC_PRFS: [u32; 1] = [0];
const CORES: [u32; 2] = [1, 2];

/// Which service workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// `sweep-service`: a fresh, empty cache per round; misses, then hits.
    Cold,
    /// `sweep-cached`: a restart over the full cache per round; hits only.
    Warm,
}

impl Mix {
    /// The workload name.
    pub fn name(self) -> &'static str {
        match self {
            Mix::Cold => "sweep-service",
            Mix::Warm => "sweep-cached",
        }
    }
}

/// One request: a sub-grid of the small catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Request {
    kernels: Vec<String>,
    flavors: Vec<Flavor>,
    vec_prfs: Vec<u32>,
    cores: Vec<u32>,
}

impl Request {
    /// The request as a sweep spec.
    fn spec(&self) -> SweepSpec {
        SweepSpec {
            small: true,
            kernels: self.kernels.clone(),
            flavors: self.flavors.clone(),
            vec_prfs: self.vec_prfs.clone(),
            cores: self.cores.clone(),
            ..SweepSpec::default()
        }
    }
}

/// The elements of `axis` whose bits are set in `mask`.
fn subset<T: Copy>(mask: usize, axis: &[T]) -> Vec<T> {
    (0..axis.len())
        .filter(|i| mask >> i & 1 == 1)
        .map(|i| axis[i])
        .collect()
}

/// Every shape a revisit can take: how many kernels it names (1–3), and
/// the non-empty subsets of flavors, `vec_prf`s and core counts, as masks.
fn revisit_shapes() -> Vec<(usize, usize, usize, usize)> {
    let masks = |axis: usize| 1..1usize << axis;
    let mut shapes = Vec::new();
    for kernels in 1..=3 {
        for flavors in masks(FLAVORS.len()) {
            for vec_prfs in masks(VEC_PRFS.len()) {
                for cores in masks(CORES.len()) {
                    shapes.push((kernels, flavors, vec_prfs, cores));
                }
            }
        }
    }
    shapes
}

/// Deals up to `n` distinct kernels from the front of `deck`, which is
/// refilled with a shuffled copy of `introduced` whenever it runs short,
/// so that revisits name every introduced kernel about equally often.
fn deal<'a>(
    deck: &mut Vec<&'a str>,
    introduced: &[&'a str],
    n: usize,
    rng: &mut Rng,
) -> Vec<&'a str> {
    let n = n.min(introduced.len());
    let mut hand: Vec<&str> = Vec::with_capacity(n);
    while hand.len() < n {
        if deck.is_empty() {
            deck.extend_from_slice(introduced);
            rng.shuffle(deck);
        }
        let k = deck.remove(0);
        if !hand.contains(&k) {
            hand.push(k);
        }
    }
    hand
}

/// The request stream of a run under `seed`, over `kernels`; every round
/// of the run sends it. A cold stream introduces each kernel once, with
/// one request per flavor over all of that flavor's points, sent back to
/// back; a warm stream starts with every kernel introduced, so it is
/// revisits only.
fn request_stream(mix: Mix, seed: u64, kernels: &[&str]) -> Vec<Request> {
    let mut seeded = Rng::new(seed.wrapping_mul(0xa076_1d64_78bd_642f));
    // A warm stream is one fixed set of requests in seeded order, so its
    // latency tail does not hang on which revisits the seed pairs with the
    // few kernels whose rows cost most to key (`job_key`); a cold stream's
    // tail is its introductions, which every seed has.
    let mut rng = match mix {
        Mix::Cold => seeded.clone(),
        Mix::Warm => Rng::new(WARM_CONTENT_SEED),
    };
    let mut order: Vec<&str> = kernels.to_vec();
    rng.shuffle(&mut order);
    let mut slots: Vec<usize> = (1..INTRO_WINDOW).collect();
    rng.shuffle(&mut slots);
    let mut intro_at = slots[..order.len() - 1].to_vec();
    intro_at.push(0);
    intro_at.sort_unstable();

    let mut introduced: Vec<&str> = match mix {
        Mix::Cold => Vec::new(),
        Mix::Warm => order.clone(),
    };
    // The revisits take every shape equally often, in seeded order, so the
    // rows a stream asks for hardly depend on the seed; the seed picks the
    // order and the kernels.
    let revisits = match mix {
        Mix::Cold => REQUESTS_PER_ROUND - FLAVORS.len() * order.len(),
        Mix::Warm => REQUESTS_PER_ROUND,
    };
    let shapes = revisit_shapes();
    let mut plan: Vec<_> = (0..revisits).map(|j| shapes[j % shapes.len()]).collect();
    rng.shuffle(&mut plan);
    let mut plan = plan.into_iter();
    let mut deck = Vec::new();
    let mut stream = Vec::with_capacity(REQUESTS_PER_ROUND);
    while stream.len() < REQUESTS_PER_ROUND {
        let due = intro_at
            .get(introduced.len())
            .is_some_and(|&at| at <= stream.len());
        if mix == Mix::Cold && due {
            let kernel = order[introduced.len()];
            introduced.push(kernel);
            let mut flavors = FLAVORS;
            rng.shuffle(&mut flavors);
            stream.extend(flavors.into_iter().map(|flavor| Request {
                kernels: vec![kernel.to_string()],
                flavors: vec![flavor],
                vec_prfs: VEC_PRFS.to_vec(),
                cores: CORES.to_vec(),
            }));
            continue;
        }
        let (kernels, flavors, vec_prfs, cores) = plan.next().expect("one shape per revisit");
        let pick = deal(&mut deck, &introduced, kernels, &mut rng);
        stream.push(Request {
            kernels: pick.iter().map(|k| (*k).to_string()).collect(),
            flavors: subset(flavors, &FLAVORS),
            vec_prfs: subset(vec_prfs, &VEC_PRFS),
            cores: subset(cores, &CORES),
        });
    }
    if mix == Mix::Warm {
        seeded.shuffle(&mut stream);
    }
    stream
}

/// The full grid every round covers.
fn full_grid() -> SweepSpec {
    SweepSpec {
        small: true,
        flavors: FLAVORS.to_vec(),
        vec_prfs: VEC_PRFS.to_vec(),
        cores: CORES.to_vec(),
        ..SweepSpec::default()
    }
}

/// The names of the small catalog's kernels.
fn kernel_names() -> Vec<&'static str> {
    catalog(true).iter().map(|b| b.name()).collect()
}

/// The rows every reply must match, from `run_point` on a harness-local
/// serial `Runner`, plus the deterministic figures derived from them:
/// summed cycles, summed committed instructions and the paper error.
pub struct Reference {
    rows: HashMap<PointSpec, PointRow>,
    /// The grid's points, canonical order.
    pub points: Vec<PointSpec>,
    /// Simulated cycles summed over the grid.
    pub sim_cycles: u64,
    /// Committed instructions summed over the grid.
    pub committed: u64,
    /// Paper error of the grid's single-core default-PVR UVE/SVE pairs.
    pub paper_err_pct: f64,
    /// FNV-1a over the rows' statistics digests, in canonical order.
    pub output_digest: u64,
}

impl Reference {
    /// Computes every row of the full grid.
    pub fn compute() -> Result<Self, String> {
        let points = full_grid().points()?;
        let runner = Runner::serial().verbose(false);
        let mut rows = HashMap::new();
        for p in &points {
            rows.insert(p.clone(), run_point(&runner, p)?);
        }
        let cycles_of = |kernel: &str, flavor: Flavor| {
            points
                .iter()
                .find(|p| {
                    p.kernel == kernel && p.flavor == flavor && p.vec_prf == 0 && p.cores == 1
                })
                .map(|p| rows[p].cycles as f64)
        };
        let mut speedups = Vec::new();
        for bench in catalog(true) {
            if let (true, Some(uve), Some(sve)) = (
                bench.sve_vectorized(),
                cycles_of(bench.name(), Flavor::Uve),
                cycles_of(bench.name(), Flavor::Sve),
            ) {
                speedups.push(sve / uve);
            }
        }
        let digests: Vec<u8> = points
            .iter()
            .flat_map(|p| rows[p].digest.to_le_bytes())
            .collect();
        Ok(Self {
            output_digest: fnv1a_bytes(&digests),
            sim_cycles: rows.values().map(|r| r.cycles).sum(),
            committed: rows.values().map(|r| r.committed).sum(),
            paper_err_pct: paper_err_pct(&speedups),
            rows,
            points,
        })
    }
}

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// The calling thread's timer slack set to its least (1 ns) while this
/// lives; threads it starts meanwhile would inherit it.
struct TimerSlack(i32);

impl TimerSlack {
    const PR_SET_TIMERSLACK: i32 = 29;
    const PR_GET_TIMERSLACK: i32 = 30;

    fn least() -> Self {
        // SAFETY: reading and setting the calling thread's timer slack.
        unsafe {
            let was = prctl(Self::PR_GET_TIMERSLACK);
            prctl(Self::PR_SET_TIMERSLACK, 1u64);
            Self(was)
        }
    }
}

impl Drop for TimerSlack {
    fn drop(&mut self) {
        if self.0 > 0 {
            // SAFETY: restores the calling thread's timer slack.
            unsafe {
                prctl(Self::PR_SET_TIMERSLACK, self.0 as u64);
            }
        }
    }
}

/// A running service: coordinator, worker thread, client connection.
struct Service {
    coordinator: Coordinator,
    worker: JoinHandle<Result<(), String>>,
    client: TcpStream,
    dir: PathBuf,
}

impl Service {
    /// Starts a coordinator over a durable cache in `dir` (recovered if
    /// `dir` holds one, else created empty), one worker, and a client
    /// connection.
    fn start(dir: &Path) -> Result<Self, String> {
        let opts = CoordinatorOptions {
            cache_dir: Some(dir.to_path_buf()),
            ..CoordinatorOptions::default()
        };
        let coordinator =
            Coordinator::bind("127.0.0.1:0", opts).map_err(|e| format!("bind: {e}"))?;
        let addr = coordinator.local_addr().to_string();
        let worker_addr = addr.clone();
        let worker = std::thread::spawn(move || {
            let opts = WorkerOptions {
                name: "perfbench".to_string(),
                ..WorkerOptions::default()
            };
            run_worker(&worker_addr, &opts)
        });
        let deadline = Instant::now() + Duration::from_secs(30);
        // Sleeps, not a spin, which would take CPU time from the worker it
        // waits for; short and with no timer slack, so that the wait ends
        // within microseconds of the worker's arrival.
        let slack = TimerSlack::least();
        while coordinator.workers_connected() < 1 {
            if Instant::now() > deadline {
                return Err("worker did not connect within 30 s".to_string());
            }
            std::thread::sleep(Duration::from_micros(5));
        }
        drop(slack);
        let mut client = TcpStream::connect(&addr).map_err(|e| format!("connect: {e}"))?;
        client.set_nodelay(true).ok();
        write_msg(
            &mut client,
            &Msg::ClientHello {
                version: PROTOCOL_VERSION,
            },
        )
        .map_err(|e| format!("hello: {e}"))?;
        Ok(Self {
            coordinator,
            worker,
            client,
            dir: dir.to_path_buf(),
        })
    }

    /// One sweep request on the open connection.
    fn request(&mut self, spec: &SweepSpec) -> Result<(Vec<PointRow>, SweepStats), String> {
        write_msg(&mut self.client, &Msg::SweepRequest { spec: spec.clone() })
            .map_err(|e| format!("request: {e}"))?;
        loop {
            match read_msg(&mut self.client).map_err(|e| format!("read: {e}"))? {
                Some(Msg::Progress { .. }) => {}
                Some(Msg::SweepDone { rows, stats }) => return Ok((rows, stats)),
                other => return Err(format!("unexpected reply {other:?}")),
            }
        }
    }

    /// Bytes in the write-ahead log right now.
    fn wal_bytes(&self) -> u64 {
        std::fs::metadata(self.dir.join("wal.bin")).map_or(0, |m| m.len())
    }

    /// Closes the client, shuts the coordinator down (which checkpoints
    /// the cache) and joins the worker.
    fn stop(self) -> Result<(), String> {
        drop(self.client);
        self.coordinator.shutdown();
        self.worker
            .join()
            .map_err(|_| "worker thread panicked".to_string())?
    }
}

/// The run's request stream under `seed`, as sweep specs: the benchmark's
/// input, made once per run, outside every timed section.
pub fn stream(mix: Mix, seed: u64) -> Vec<SweepSpec> {
    request_stream(mix, seed, &kernel_names())
        .iter()
        .map(Request::spec)
        .collect()
}

/// The set-up of a round: starts the service in `dir`, over an empty
/// cache directory for a cold service. Returns it and the seconds the
/// start took.
fn set_up(mix: Mix, dir: &Path) -> Result<(Service, f64), String> {
    if mix == Mix::Cold {
        // The benchmark's own scratch space from an earlier round.
        let _ = std::fs::remove_dir_all(dir);
    }
    // Each start begins after a pause, as a service starts on a quiet
    // host, not right after the previous shutdown's work: back to back,
    // starts ran on whatever host caches and pending disk work that left,
    // and their median moved by 2x from run to run (see NOTES.md).
    std::thread::sleep(SETTLE);
    let t = Instant::now();
    let svc = Service::start(dir)?;
    Ok((svc, secs(t)))
}

/// One more set-up, torn down at once; returns its seconds (extra
/// `setup_s` samples).
pub fn set_up_only(mix: Mix, dir: &Path) -> Result<f64, String> {
    let (svc, s) = set_up(mix, dir)?;
    svc.stop()?;
    Ok(s)
}

/// Fills the durable cache in `dir` with every row of the full grid, as a
/// service that has already swept it leaves it: one full-grid request to
/// a fresh service, then a graceful shutdown, which writes the snapshot.
/// Untimed; `sweep-cached` rounds restart from it.
pub fn fill_cache(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut svc = Service::start(dir)?;
    let filled = svc.request(&full_grid());
    svc.stop()?;
    let (_, stats) = filled?;
    if u64::from(stats.executed) != full_grid().points()?.len() as u64 {
        return Err(format!("filling the cache executed {stats:?}"));
    }
    Ok(())
}

/// What one round measured and found.
#[derive(Debug, Default)]
pub struct Round {
    /// Seconds of the round's set-up: its request stream, coordinator,
    /// worker and client connection.
    pub setup_s: f64,
    /// Wall seconds from the first request to the last reply.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval (all threads).
    pub cpu_s: f64,
    /// Peak resident MiB from service start to the last reply.
    pub peak_rss_mb: f64,
    /// Client-observed latency of each request, ms.
    pub lat_ms: Vec<f64>,
    /// Process CPU time (all threads) over each request, ms.
    pub cpu_ms: Vec<f64>,
    /// Requests whose reply was missing or differed from the reference.
    pub failed: u64,
    /// Rows returned, and of those served from the cache.
    pub rows: u64,
    /// See `rows`.
    pub cached_rows: u64,
    /// Committed instructions of the simulations whose rows were returned.
    pub served_committed: u64,
    /// Rows executed by the worker.
    pub executed_rows: u64,
    /// Latency and rows of requests served entirely from the cache.
    pub hit_req_s: f64,
    /// See `hit_req_s`.
    pub hit_req_rows: u64,
    /// Write-ahead-log bytes at the end of the round.
    pub wal_bytes: u64,
    /// Coordinator retries and worker emulations over the round.
    pub retries: u64,
    /// See `retries`.
    pub emulations: u64,
    /// The points of every returned row (traced rounds only: a run keeps
    /// its rounds, and this would grow its resident set round by round).
    pub returned: Vec<PointSpec>,
}

/// Runs round `round`: sends `specs` to the service of `mix` in `dir`,
/// checking every reply against `reference` after the timed section. With
/// `spans`, records one span per request and keeps the returned points.
pub fn run_round(
    mix: Mix,
    specs: &[SweepSpec],
    round: u64,
    dir: &Path,
    reference: &Reference,
    mut spans: Option<&mut SpanLog>,
) -> Result<Round, String> {
    let traced = spans.is_some();
    reset_peak_rss();
    let (mut svc, setup_s) = set_up(mix, dir)?;
    let mut r = Round {
        setup_s,
        ..Round::default()
    };
    let mut replies = Vec::with_capacity(specs.len());
    let round_span = spans.as_deref_mut().map(|s| s.begin("round", 0, round + 1));
    let (c0, t0) = (cpu_s(), Instant::now());
    for (j, spec) in specs.iter().enumerate() {
        let c = cpu_s();
        let t = Instant::now();
        let reply = svc.request(spec);
        let done = Instant::now();
        r.cpu_ms.push((cpu_s() - c) * 1e3);
        if let (Some(s), Some(parent)) = (spans.as_deref_mut(), round_span) {
            s.record("request", parent, j as u64 + 1, t, done);
        }
        r.lat_ms.push((done - t).as_secs_f64() * 1e3);
        replies.push(reply);
    }
    r.wall_s = secs(t0);
    r.cpu_s = cpu_s() - c0;
    r.peak_rss_mb = peak_rss_mb();
    if let (Some(s), Some(id)) = (spans, round_span) {
        s.end(id, &[("requests", specs.len() as u64)]);
    }
    r.wal_bytes = svc.wal_bytes();
    r.retries = u64::from(svc.coordinator.retries());
    r.emulations = svc.coordinator.emulations();
    svc.stop()?;

    for ((spec, reply), lat) in specs.iter().zip(replies).zip(&r.lat_ms) {
        let Ok((rows, stats)) = reply else {
            r.failed += 1;
            continue;
        };
        let expected = spec.points().map_or(0, |p| p.len());
        let ok = rows.len() == expected
            && rows
                .iter()
                .all(|row| reference.rows.get(&row.point) == Some(row));
        if !ok {
            r.failed += 1;
            eprintln!("{}: reply to {spec:?} differs from run_point", mix.name());
        }
        r.rows += u64::from(stats.total);
        r.cached_rows += u64::from(stats.cached);
        r.executed_rows += u64::from(stats.executed);
        if stats.cached == stats.total {
            r.hit_req_s += lat / 1e3;
            r.hit_req_rows += u64::from(stats.total);
        }
        r.served_committed += rows.iter().map(|row| row.committed).sum::<u64>();
        if traced {
            r.returned.extend(rows.into_iter().map(|row| row.point));
        }
    }
    Ok(r)
}

/// Times `job_key`, the content address the service computes for every
/// row it looks up, over every row a round returned.
pub fn time_keys(returned: &[PointSpec], layers: &mut Layers) -> Result<(), String> {
    let t = Instant::now();
    for p in returned {
        std::hint::black_box(job_key(p)?);
    }
    layers.key_s = secs(t);
    layers.key_rows = returned.len() as u64;
    Ok(())
}

/// Host time of each layer under a cold service's executions, measured
/// from the harness: every grid point's emulation, single-core replay
/// (stepped by `tracer`) and cores=2 lockstep run, each checked against
/// the reference row. Returns the wall seconds of this work and the
/// number of mismatching points.
pub fn decompose(
    reference: &Reference,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<(f64, u64), String> {
    let runner = Runner::serial().verbose(false);
    let mut mismatches = 0;
    let t0 = Instant::now();
    for (n, p) in reference.points.iter().enumerate() {
        let id = n as u64 + 1;
        let span = tracer.spans.begin("job", 0, id);
        let bench = resolve(&p.kernel, true)?;
        let before = runner.emulations();
        let t = Instant::now();
        let cached = runner.trace_full(
            bench.as_ref(),
            p.flavor,
            p.level,
            p.packing,
            p.exec,
            p.fault_seed,
        );
        let done = Instant::now();
        layers.jobs += 1;
        if runner.emulations() > before {
            tracer.spans.record("emulate", span, id, t, done);
            layers.emu_calls += 1;
            layers.emu_s += (done - t).as_secs_f64();
            layers.emu_insts += cached.committed;
            layers.trace_ops += cached.trace.ops.len() as u64;
            layers.trace_bytes += trace_bytes(&cached.trace);
        } else {
            tracer.spans.record("trace_hit", span, id, t, done);
        }
        let cpu = p.cpu_config();
        let want = &reference.rows[p];
        let ok = if p.cores <= 1 {
            let stats = tracer.replay_warm(&cached.trace, &cpu, p.flavor == Flavor::Uve, span, id);
            fnv1a_bytes(format!("{stats:?}").as_bytes()) == want.digest
                && stats.cycles == want.cycles
        } else {
            let traces: Vec<_> = (0..p.cores as usize)
                .map(|c| uve_smp::shard_trace(&cached.trace, c, SHARED_PREFIX_LINES))
                .collect();
            let t = Instant::now();
            let run = uve_smp::run_lockstep(&cpu, &traces, 0)
                .map_err(|v| format!("{}: coherence violation {v:?}", p.label()))?;
            let done = Instant::now();
            tracer.spans.record("lockstep", span, id, t, done);
            layers.smp_points += 1;
            layers.smp_s += (done - t).as_secs_f64();
            run.makespan == want.cycles
        };
        if !ok {
            mismatches += 1;
            eprintln!("sweep-service: harness replay of {} differs", p.label());
        }
        tracer.spans.end(span, &[]);
    }
    layers.resident_trace_bytes = layers.trace_bytes;
    Ok((secs(t0), mismatches))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_changes_with_the_seed_and_repeats_under_it() {
        let names = kernel_names();
        for mix in [Mix::Cold, Mix::Warm] {
            let a = request_stream(mix, 1, &names);
            assert_eq!(a, request_stream(mix, 1, &names));
            assert_ne!(a, request_stream(mix, 2, &names));
        }
    }

    #[test]
    fn every_round_introduces_each_kernel_once_before_revisiting_it() {
        let names = kernel_names();
        let stream = request_stream(Mix::Cold, 7, &names);
        assert_eq!(stream.len(), REQUESTS_PER_ROUND);
        let mut introduced: Vec<&str> = Vec::new();
        for r in &stream {
            let new: Vec<&str> = r
                .kernels
                .iter()
                .map(String::as_str)
                .filter(|k| !introduced.contains(k))
                .collect();
            if !new.is_empty() {
                assert_eq!(
                    new.len(),
                    r.kernels.len(),
                    "an introduction names one kernel"
                );
                assert_eq!(r.kernels.len(), 1);
                assert_eq!(r.vec_prfs, VEC_PRFS);
                assert_eq!(r.cores, CORES);
                introduced.push(new[0]);
            }
        }
        // Each introduction is one request per flavor, back to back.
        for kernel in &introduced {
            let first = stream
                .iter()
                .position(|r| r.kernels.iter().any(|k| k == kernel))
                .unwrap();
            let intro = &stream[first..first + FLAVORS.len()];
            assert!(intro
                .iter()
                .all(|r| r.kernels == [*kernel] && r.flavors.len() == 1));
            let mut flavors: Vec<Flavor> = intro.iter().map(|r| r.flavors[0]).collect();
            flavors.sort_by_key(|f| FLAVORS.iter().position(|g| g == f));
            assert_eq!(flavors, FLAVORS);
        }
        introduced.sort_unstable();
        let mut all = names.clone();
        all.sort_unstable();
        assert_eq!(introduced, all);
    }

    #[test]
    fn a_warm_stream_asks_for_as_many_rows_under_every_seed() {
        let names = kernel_names();
        let rows = |seed| {
            request_stream(Mix::Warm, seed, &names)
                .iter()
                .map(|r| r.spec().points().unwrap().len())
                .sum::<usize>()
        };
        assert_eq!(rows(1), rows(2));
    }

    #[test]
    fn a_warm_stream_revisits_the_whole_catalog_from_the_start() {
        let names = kernel_names();
        let warm = request_stream(Mix::Warm, 7, &names);
        let cold = request_stream(Mix::Cold, 7, &names);
        assert_eq!(warm.len(), REQUESTS_PER_ROUND);
        assert_ne!(
            warm[0], cold[0],
            "the cold stream opens with an introduction"
        );
        let mut seen: Vec<&str> = warm
            .iter()
            .flat_map(|r| r.kernels.iter().map(String::as_str))
            .collect();
        seen.sort_unstable();
        seen.dedup();
        let mut all = names.clone();
        all.sort_unstable();
        assert_eq!(seen, all);
    }
}
