//! The ACSO benchmark: four workloads, each measured end to end, plus a
//! traced run that times the calls into every layer.
//!
//! ```text
//! acsobench --workload <train|table2|serve|dbn-fit> --seed N --seconds S --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; everything else goes to standard
//! error. See README.md in this directory for the workloads and metrics.

mod dbnfit;
mod serve;
mod stats;
mod table2;
mod trace;
mod train;

use std::sync::OnceLock;
use std::time::Instant;
use trace::Tracer;

/// How many times a workload sets itself up, unless it says otherwise;
/// `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["train", "table2", "serve", "dbn-fit"];

static PROCESS_START: OnceLock<Instant> = OnceLock::new();

/// Command-line arguments.
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Seed every input derives from.
    pub seed: u64,
    /// Length of the timed region; rounds that start inside it finish.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or("--seconds needs a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What an untraced run measured.
pub struct EndToEnd {
    /// Median of the set-up repetitions, in seconds.
    pub setup_s: f64,
    /// Peak resident set size of the process doing the work, in MiB.
    pub peak_rss_mib: f64,
    /// The timed region cut into consecutive windows of equal work; the
    /// throughputs are medians over windows, so a burst of host slowness
    /// inside a run moves them less than a total over the region would.
    pub windows: Vec<Window>,
    /// Latency samples in milliseconds (see README.md for what one sample
    /// covers in each workload).
    pub latencies_ms: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
}

/// Work completed in one window of the timed region.
pub struct Window {
    /// Operations completed.
    pub operations: u64,
    /// Simulated hours stepped.
    pub hours: u64,
    /// Wall time of the window.
    pub seconds: f64,
}

impl Window {
    /// A window that started at `start` and ends now.
    pub fn since(start: Instant, operations: u64, hours: u64) -> Self {
        Self {
            operations,
            hours,
            seconds: start.elapsed().as_secs_f64(),
        }
    }
}

/// Output checks: every failed expectation is kept with its message.
#[derive(Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records a failure with `message` unless `ok`.
    pub fn expect(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            let message = message();
            if self.failures.len() < 20 {
                eprintln!("check failed: {message}");
            }
            self.failures.push(message);
        }
    }

    /// Whether every expectation held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Seconds since the process started (the start of the first set-up).
pub fn since_process_start() -> f64 {
    PROCESS_START
        .get()
        .expect("set at the top of main")
        .elapsed()
        .as_secs_f64()
}

/// Runs a workload's set-up `repeats` times and returns the last result
/// with the median set-up time. The first repetition is timed from
/// process start; earlier results are dropped (and their processes stopped)
/// before the next repetition starts its clock.
pub fn repeat_setup<T>(
    repeats: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for i in 0..repeats {
        drop(last.take());
        let started = Instant::now();
        let value = setup()?;
        times.push(if i == 0 {
            since_process_start()
        } else {
            started.elapsed().as_secs_f64()
        });
        last = Some(value);
    }
    eprintln!("setup repetitions (s): {times:?}");
    Ok((
        last.expect("at least one repetition"),
        stats::median(&times),
    ))
}

fn render(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> (String, bool) {
    let mut all_finite = true;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                all_finite = false;
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = correct && all_finite && attempted > 0;
    (
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        ),
        correct,
    )
}

fn run(args: &Args) -> Result<(String, bool), String> {
    let mut checks = Checks::default();
    if args.trace {
        let mut tracer = Tracer::new();
        let (attempted, failed) = traced(&args.workload, args, &mut tracer, &mut checks, false)?;
        // Layers this workload does not call are timed by a short probe of
        // the workload that does, so every traced run reports every layer.
        for other in WORKLOADS.iter().filter(|w| **w != args.workload) {
            let mut probe = Tracer::new();
            traced(other, args, &mut probe, &mut checks, true)?;
            tracer.absorb_missing(probe);
        }
        let path = format!(".bench_trace/{}-seed{}.jsonl", args.workload, args.seed);
        tracer
            .write(std::path::Path::new(&path))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        for (name, count) in tracer.counts() {
            eprintln!("  {name}: {count} samples");
        }
        let metrics = tracer.metrics();
        for (name, value, unit) in &metrics {
            eprintln!("{name:34} {value:>14.4} {unit}");
        }
        return Ok(render(checks.passed(), attempted, failed, &metrics));
    }

    let e2e = match args.workload.as_str() {
        "train" => train::run(args, &mut checks)?,
        "table2" => table2::run(args, &mut checks)?,
        "serve" => serve::run(args, &mut checks)?,
        "dbn-fit" => dbnfit::run(args, &mut checks)?,
        other => unreachable!("workload `{other}` was validated"),
    };
    let rate = |f: fn(&Window) -> u64| -> f64 {
        let rates: Vec<f64> = e2e
            .windows
            .iter()
            .map(|w| f(w) as f64 / w.seconds)
            .collect();
        stats::median(&rates)
    };
    let hour_rates: Vec<String> = e2e
        .windows
        .iter()
        .map(|w| format!("{:.0}", w.hours as f64 / w.seconds))
        .collect();
    eprintln!("env steps/s per window: {}", hour_rates.join(" "));
    eprintln!(
        "{} windows, {} latency samples, {} attempted, {} failed",
        e2e.windows.len(),
        e2e.latencies_ms.len(),
        e2e.attempted,
        e2e.failed
    );
    let metrics = [
        ("setup_s", e2e.setup_s, "s"),
        ("peak_rss_mib", e2e.peak_rss_mib, "MiB"),
        ("env_steps_per_s", rate(|w| w.hours), "1/s"),
        ("requests_per_s", rate(|w| w.operations), "1/s"),
        (
            "latency_p50_ms",
            stats::quantile(&e2e.latencies_ms, 0.5),
            "ms",
        ),
        (
            "latency_p95_ms",
            stats::quantile(&e2e.latencies_ms, 0.95),
            "ms",
        ),
    ];
    for (name, value, unit) in &metrics {
        eprintln!("{name:16} {value:>14.4} {unit}");
    }
    Ok(render(checks.passed(), e2e.attempted, e2e.failed, &metrics))
}

/// Prints the traced run's own throughput over its timed region, which
/// README.md compares with the untraced run as the tracing overhead.
pub fn report_traced_rate(operations: u64, hours: u64, start: Instant) {
    let elapsed = start.elapsed().as_secs_f64();
    eprintln!(
        "traced timed region: {operations} operations, {hours} simulated hours in {elapsed:.3} s: \
         {:.4} operations/s, {:.2} env steps/s",
        operations as f64 / elapsed,
        hours as f64 / elapsed
    );
}

/// Runs one workload's traced variant; `probe` shrinks it to a few seconds
/// for the layers the selected workload does not call.
fn traced(
    workload: &str,
    args: &Args,
    tracer: &mut Tracer,
    checks: &mut Checks,
    probe: bool,
) -> Result<(u64, u64), String> {
    match workload {
        "train" => train::traced(args, tracer, checks, probe),
        "table2" => table2::traced(args, tracer, checks, probe),
        "serve" => serve::traced(args, tracer, checks, probe),
        "dbn-fit" => dbnfit::traced(args, tracer, checks, probe),
        other => unreachable!("workload `{other}` was validated"),
    }
}

fn main() {
    PROCESS_START.get_or_init(Instant::now);
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("acsobench: {message}");
            eprintln!(
                "usage: acsobench --workload <{}> --seed N --seconds S --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    eprintln!(
        "acsobench: workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        acso_runtime::detected_cores()
    );
    match run(&args) {
        Ok((line, correct)) => {
            println!("{line}");
            if !correct {
                std::process::exit(1);
            }
        }
        Err(message) => {
            eprintln!("acsobench: {message}");
            std::process::exit(1);
        }
    }
}

/// A scenario's simulator configuration from the built-in registry (the
/// catalog the daemon serves).
pub fn scenario_config(name: &str) -> ics_sim::SimConfig {
    acso_core::ScenarioRegistry::builtin()
        .get(name)
        .unwrap_or_else(|| panic!("scenario `{name}` is built in"))
        .config
        .clone()
}
