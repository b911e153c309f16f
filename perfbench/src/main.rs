//! Serving benchmark for the uHD registry and HTTP front end.
//!
//! `perfbench drive --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! generates the workload's inputs from the seed, computes the serial
//! reference answers, stands the serving stack up in fresh `host`
//! processes (timing set-up in each), drives the closed loop, checks
//! every answer and reconciles the server's own counters, and prints
//! one JSON object as its last line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics (from a fresh `layers` process
//! plus the timed run's scrape) with `--trace 1`.
//!
//! `perfbench/run.py` builds this package and runs `drive`.

mod layers;
mod load;
mod procfs;
mod stats;
mod wire;
mod workload;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use workload::{Inputs, Reference, Workload};

/// Fresh processes whose set-up is timed per run; `setup_s` is their
/// median. At least `SETUP_MIN`; cheap set-ups repeat up to `SETUP_MAX`
/// times while the set-ups so far took under `SETUP_BUDGET`, so a
/// millisecond-scale median rests on more than three samples.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 9;
const SETUP_BUDGET: std::time::Duration = std::time::Duration::from_secs(2);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("drive") => drive(&Args::parse(&args[1..])),
        Some("host") => host(&Args::parse(&args[1..])),
        Some("layers") => layers_main(&Args::parse(&args[1..])),
        _ => {
            eprintln!("usage: perfbench <drive|host|layers> --workload <name> --seed <n> ...");
            2
        }
    };
    std::process::exit(code);
}

/// `--key value` pairs plus bare `--flag`s.
struct Args {
    values: BTreeMap<String, String>,
}

impl Args {
    fn parse(raw: &[String]) -> Self {
        let mut values = BTreeMap::new();
        let mut i = 0;
        while i < raw.len() {
            let key = raw[i].trim_start_matches("--").to_string();
            match raw.get(i + 1).filter(|v| !v.starts_with("--")) {
                Some(v) => {
                    values.insert(key, v.clone());
                    i += 2;
                }
                None => {
                    values.insert(key, String::new());
                    i += 1;
                }
            }
        }
        Args { values }
    }

    fn get(&self, key: &str) -> Result<&str, String> {
        self.values
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num(&self, key: &str) -> Result<u64, String> {
        self.get(key)?
            .parse()
            .map_err(|_| format!("--{key} must be a whole number"))
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.get("workload")?;
        Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
    }

    fn flag(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }
}

fn fail(message: &str) -> i32 {
    eprintln!("perfbench: {message}");
    1
}

// ---------------------------------------------------------------------
// host: one fresh serving process.
// ---------------------------------------------------------------------

/// Stand the workload up, report `READY <port> <setup_s>`, then either
/// exit (`--setup-only`), serve HTTP until stdin closes, or (for
/// `remat-burst`) drive the ticket waves in-process and report them.
fn host(args: &Args) -> i32 {
    match host_inner(args) {
        Ok(()) => 0,
        Err(e) => fail(&e),
    }
}

fn host_inner(args: &Args) -> Result<(), String> {
    let workload = args.workload()?;
    let inputs = Inputs::generate(workload, args.num("seed")?);
    let snapshot = args.values.get("snapshot").map(PathBuf::from);
    let expected = match args.values.get("expect") {
        Some(path) => read_expected(Path::new(path))?,
        None => Vec::new(),
    };
    let stack = workload::setup(&inputs, snapshot.as_deref())?;
    let port = stack.server.as_ref().map_or(0, |s| s.local_addr().port());
    let mut out = std::io::stdout().lock();
    writeln!(out, "READY {port} {}", stack.setup_s).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    if args.flag("setup-only") {
        return Ok(());
    }
    if workload.http() {
        // Serve until the `drive` process closes our stdin.
        let _ = std::io::stdin().read_to_end(&mut Vec::new());
        drop(stack.server);
        stack.registry.shutdown();
        return Ok(());
    }
    let measured = load::waves(&stack.registry, &inputs, &expected, args.num("seconds")?);
    stack.registry.shutdown();
    let (t, f) = (&measured.tally, &measured.figures);
    let report = format!(
        "{{\"rps\": {}, \"p50_us\": {}, \"p99_us\": {}, \"samples\": {}, \"p50_all_us\": {}, \"quiet\": {}, \
         \"windows\": {}, \"steal\": {}, \"completed\": {}, \"cpu_ticks\": {}, \"sent\": {}, \
         \"succeeded\": {}, \"failed\": {}, \"classify_200\": {}, \"peak_rss_kib\": {}}}",
        f.rps.unwrap_or(-1.0),
        f.p50_us.unwrap_or(-1.0),
        f.p99_us.unwrap_or(-1.0),
        f.samples,
        f.p50_all_us.unwrap_or(-1.0),
        f.quiet,
        f.windows,
        f.steal,
        measured.completed,
        measured.cpu_ticks.map_or(-1.0, |c| c as f64),
        t.sent,
        t.succeeded,
        t.failed,
        t.classify_200,
        procfs::peak_rss_kib("self").unwrap_or(0),
    );
    writeln!(out, "REPORT {report}").map_err(|e| e.to_string())?;
    for e in &t.errors {
        writeln!(out, "ERROR {e}").map_err(|e| e.to_string())?;
    }
    writeln!(
        out,
        "METRICS {}",
        stack.registry.metrics_json().replace('\n', " ")
    )
    .map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())
}

fn write_expected(path: &Path, expected: &[(usize, f64)]) -> Result<(), String> {
    let text: String = expected
        .iter()
        .map(|(c, s)| format!("{c} {:016x}\n", s.to_bits()))
        .collect();
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn read_expected(path: &Path) -> Result<Vec<(usize, f64)>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            let (c, s) = line.split_once(' ').ok_or("malformed expected line")?;
            let class = c.parse().map_err(|_| "malformed class")?;
            let bits = u64::from_str_radix(s, 16).map_err(|_| "malformed score")?;
            Ok((class, f64::from_bits(bits)))
        })
        .collect()
}

/// A spawned `host`, killed and reaped however `drive` exits.
struct Host {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    port: u16,
    setup_s: f64,
}

impl Host {
    fn spawn(workload: Workload, seed: u64, extra: &[String]) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .args([
                "host",
                "--workload",
                workload.name(),
                "--seed",
                &seed.to_string(),
            ])
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning host: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped"));
        let mut host = Host {
            child,
            stdin,
            stdout,
            port: 0,
            setup_s: 0.0,
        };
        let line = host.line()?;
        let mut parts = line.split_whitespace();
        if parts.next() != Some("READY") {
            return Err(format!("host did not come up: {line:?}"));
        }
        host.port = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or("bad port")?;
        host.setup_s = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or("bad setup")?;
        Ok(host)
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("host exited early".to_string()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("reading host: {e}")),
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Close stdin (the stop signal) and wait for a clean exit.
    fn finish(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("host exited with {status}"))
        }
    }
}

impl Drop for Host {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

// ---------------------------------------------------------------------
// layers: the traced run, in a fresh process.
// ---------------------------------------------------------------------

fn layers_main(args: &Args) -> i32 {
    let run = || -> Result<(), String> {
        let inputs = Inputs::generate(args.workload()?, args.num("seed")?);
        let work_dir = PathBuf::from(args.get("work-dir")?);
        let figures = layers::run(&inputs, &work_dir)?;
        let body: Vec<String> = figures
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        println!("LAYERS {{{}}}", body.join(", "));
        Ok(())
    };
    match run() {
        Ok(()) => 0,
        Err(e) => fail(&e),
    }
}

// ---------------------------------------------------------------------
// drive: the benchmark entry point.
// ---------------------------------------------------------------------

/// Everything the run measured, before it is printed.
struct Run {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn drive(args: &Args) -> i32 {
    let parsed = (|| -> Result<_, String> {
        Ok((
            args.workload()?,
            args.num("seed")?,
            args.num("seconds")?,
            args.num("trace")? == 1,
            PathBuf::from(args.get("work-dir")?),
        ))
    })();
    let (workload, seed, seconds, trace, work_dir) = match parsed {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    if seconds == 0 {
        return fail("--seconds must be at least 1");
    }
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!(
        "machine: nproc={nproc} kernel={} workload={} seed={seed} seconds={seconds} trace={}",
        uhd_core::Kernel::active().name(),
        workload.name(),
        u8::from(trace)
    );
    let run = match measure(workload, seed, seconds, trace, &work_dir) {
        Ok(run) => run,
        Err(e) => return fail(&e),
    };
    for p in &run.problems {
        println!("FAILED CHECK: {p}");
    }
    let correct = run.problems.is_empty();
    let metrics: Vec<String> = run
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted.max(1),
        run.failed,
        metrics.join(", ")
    );
    0
}

fn measure(
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    work_dir: &Path,
) -> Result<Run, String> {
    std::fs::create_dir_all(work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    let inputs = Inputs::generate(workload, seed);
    let reference = Reference::build(&inputs);
    // How much the bit-identity check can see: a check against answers
    // that are all alike cannot tell a wrong answer from a right one.
    let mut distinct: Vec<(usize, u64)> = reference
        .expected
        .iter()
        .map(|&(class, score)| (class, score.to_bits()))
        .collect();
    distinct.sort_unstable();
    distinct.dedup();
    println!(
        "reference: {} serial answers, {} distinct (class, score) pairs",
        reference.expected.len(),
        distinct.len()
    );
    let mut host_args = Vec::new();
    let mut scratch_files = Vec::new();
    if workload == Workload::RematBurst {
        let tag = std::process::id();
        let snapshot = work_dir.join(format!("remat-{tag}.uhd"));
        let expect = work_dir.join(format!("remat-{tag}.expect"));
        uhd_core::snapshot::save_atomic(&reference.models[0], &snapshot)
            .map_err(|e| format!("writing snapshot: {e}"))?;
        write_expected(&expect, &reference.expected)?;
        host_args = vec![
            "--snapshot".to_string(),
            snapshot.display().to_string(),
            "--expect".to_string(),
            expect.display().to_string(),
            "--seconds".to_string(),
            seconds.to_string(),
        ];
        scratch_files = vec![snapshot, expect];
    }
    let result = measure_hosts(
        &inputs, &reference, seed, seconds, trace, work_dir, &host_args,
    );
    for f in scratch_files {
        let _ = std::fs::remove_file(f);
    }
    result
}

fn measure_hosts(
    inputs: &Inputs,
    reference: &Reference,
    seed: u64,
    seconds: u64,
    trace: bool,
    work_dir: &Path,
    host_args: &[String],
) -> Result<Run, String> {
    let workload = inputs.workload;
    let mut setups = Vec::with_capacity(SETUP_MAX);
    let mut setup_only = host_args.to_vec();
    setup_only.push("--setup-only".to_string());
    let started = std::time::Instant::now();
    // The last set-up is the host that serves the load.
    while setups.len() + 1 < SETUP_MIN
        || (setups.len() + 1 < SETUP_MAX && started.elapsed() < SETUP_BUDGET)
    {
        let host = Host::spawn(workload, seed, &setup_only)?;
        setups.push(host.setup_s);
        host.finish()?;
    }
    let mut host = Host::spawn(workload, seed, host_args)?;
    setups.push(host.setup_s);
    println!(
        "setup_s samples: {}",
        setups
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    let (measured, leaves, peak_kib) = if workload.http() {
        let addr = SocketAddr::from(([127, 0, 0, 1], host.port));
        let mut measured = load::http(inputs, reference, addr, host.pid(), seconds);
        if workload == Workload::LearnMix {
            load::replay_check(inputs, reference, &mut measured.tally);
        }
        let mut conn =
            wire::Conn::connect(addr, load::TIMEOUT).map_err(|e| format!("scrape: {e}"))?;
        let mut body = Vec::new();
        let status = conn
            .round_trip(&wire::get("/metrics.json"), &mut body)
            .map_err(|e| format!("scrape: {e}"))?;
        if status != 200 {
            return Err(format!("scrape answered {status}"));
        }
        drop(conn);
        let peak = procfs::peak_rss_kib(&host.pid().to_string()).ok_or("reading host VmHWM")?;
        host.finish()?;
        let leaves = wire::numeric_leaves(&String::from_utf8_lossy(&body));
        (measured, leaves, peak)
    } else {
        // The host drove the waves itself and reports them.
        let mut report = Vec::new();
        let mut errors = Vec::new();
        let metrics = loop {
            let line = host.line()?;
            if let Some(r) = line.strip_prefix("REPORT ") {
                report = wire::numeric_leaves(r);
            } else if let Some(e) = line.strip_prefix("ERROR ") {
                errors.push(e.to_string());
            } else if let Some(m) = line.strip_prefix("METRICS ") {
                break m.to_string();
            }
        };
        host.finish()?;
        let get = |k: &str| wire::leaf(&report, k).filter(|v| *v >= 0.0);
        let count = |k: &str| get(k).unwrap_or(0.0) as u64;
        let measured = load::Measured {
            figures: load::Figures {
                rps: get("rps"),
                p50_us: get("p50_us"),
                p99_us: get("p99_us"),
                samples: count("samples") as usize,
                p50_all_us: get("p50_all_us"),
                quiet: count("quiet") as usize,
                windows: count("windows") as usize,
                steal: count("steal"),
            },
            completed: count("completed"),
            cpu_ticks: get("cpu_ticks").map(|c| c as u64),
            tally: load::Tally {
                sent: count("sent"),
                succeeded: count("succeeded"),
                failed: count("failed"),
                classify_200: count("classify_200"),
                errors,
                ..load::Tally::default()
            },
        };
        let peak = count("peak_rss_kib");
        (measured, wire::numeric_leaves(&metrics), peak)
    };
    finish(
        inputs, &measured, &leaves, peak_kib, setups, trace, seed, work_dir,
    )
}

#[allow(clippy::too_many_arguments)]
fn finish(
    inputs: &Inputs,
    measured: &load::Measured,
    leaves: &[(String, f64)],
    peak_kib: u64,
    mut setups: Vec<f64>,
    trace: bool,
    seed: u64,
    work_dir: &Path,
) -> Result<Run, String> {
    let workload = inputs.workload;
    let (t, f) = (&measured.tally, &measured.figures);
    println!(
        "requests: sent={} succeeded={} failed={} measured_completed={}",
        t.sent, t.succeeded, t.failed, measured.completed
    );
    println!(
        "machine: {} ticks stolen by the hypervisor; {} of {} windows quiet",
        f.steal, f.quiet, f.windows
    );
    let mut problems: Vec<String> = t.errors.clone();
    if t.failed > 0 && problems.is_empty() {
        problems.push(format!("{} requests failed", t.failed));
    }

    // Reconcile the server's own counters with the client's.
    let series = |name: &str| wire::sum_series(leaves, &format!("counters/{name}"));
    let completed = series("uhd_tenant_completed_total") as u64;
    if completed != t.classify_200 {
        problems.push(format!(
            "server completed {completed} classifies, client received {} (warm-up included)",
            t.classify_200
        ));
    }
    let learned = series("uhd_tenant_learn_updates_total") as u64;
    if learned != t.learn_200 {
        problems.push(format!(
            "server applied {learned} learns, client received {}",
            t.learn_200
        ));
    }
    for counter in ["uhd_requests_shed_total", "uhd_worker_panics_total"] {
        let v = series(counter);
        if v != 0.0 {
            problems.push(format!("{counter} = {v}"));
        }
    }
    let server_p50_us =
        wire::leaf(leaves, "histograms/uhd_request_total_ns/p50").map(|ns| ns / 1000.0);
    let generation = wire::sum_series(leaves, "gauges/uhd_tenant_generation");
    if workload == Workload::LearnMix {
        let want = (t.learn_200 / workload::SNAPSHOT_EVERY as u64) as f64;
        if generation != want {
            problems.push(format!(
                "final generation {generation}, want learns / {} = {want}",
                workload::SNAPSHOT_EVERY
            ));
        }
    }
    let (Some(p50), Some(rps), Some(server_p50)) = (f.p50_us, f.rps, server_p50_us) else {
        problems.push("no answers measured".to_string());
        return Ok(Run {
            attempted: t.sent,
            failed: t.failed.max(1),
            problems,
            metrics: Vec::new(),
        });
    };
    // Same population on both sides: every answered request, warm-up
    // included, as the server's histogram records them.
    let client_p50 = f.p50_all_us.unwrap_or(0.0);
    if server_p50 > client_p50 {
        problems.push(format!(
            "server p50 {server_p50} µs exceeds the client's {client_p50} µs"
        ));
    }
    let setup_s = stats::median(&mut setups).expect("SETUP_MIN > 0");
    let metrics = if trace {
        let cpu_us = measured.cpu_ticks.map_or(-1.0, |c| {
            c as f64 * procfs::TICK_US / measured.completed.max(1) as f64
        });
        let mut m: Vec<(&'static str, f64, &'static str)> =
            layers_process(workload, seed, work_dir)?;
        m.extend([
            (
                "queue.depth_hw",
                wire::leaf(leaves, "gauges/uhd_queue_depth_hw").unwrap_or(-1.0),
                "count",
            ),
            ("registry.server_p50_us", server_p50, "us"),
            ("server.cpu_us_per_req", cpu_us, "us"),
            ("learn.publishes", generation, "count"),
            ("wire.rps", rps, "1/s"),
            ("wire.p99_us", f.p99_us.unwrap_or(p50), "us"),
            ("wire.p99_samples", f.samples as f64, "count"),
        ]);
        m
    } else {
        vec![
            ("p50_us", p50, "us"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", peak_kib as f64 / 1024.0, "MiB"),
        ]
    };
    println!(
        "latency: p50_us={p50:.2} over {} samples; rps={rps:.1}",
        f.samples
    );
    Ok(Run {
        attempted: t.sent,
        failed: t.failed,
        problems,
        metrics,
    })
}

fn layers_process(
    workload: Workload,
    seed: u64,
    work_dir: &Path,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "layers",
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
        ])
        .args(["--work-dir", &work_dir.display().to_string()])
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("layers: {e}"))?;
    if !out.status.success() {
        return Err(format!("layers process exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("LAYERS "))
        .ok_or("layers process printed no figures")?;
    let leaves = wire::numeric_leaves(line);
    layers::FIGURES
        .iter()
        .map(|&name| {
            let unit = if name.ends_with("_s") { "s" } else { "us" };
            wire::leaf(&leaves, name)
                .map(|v| (name, v, unit))
                .ok_or_else(|| format!("layers process omitted {name}"))
        })
        .collect()
}
