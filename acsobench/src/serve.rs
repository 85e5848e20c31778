//! `serve`: the `acso-serve` daemon over stdio, driven by four closed-loop
//! clients that share its one stdin stream.
//!
//! Set-up starts the daemon and loads two `acso` handles (the neural
//! policy): one on `paper-small`, where most requests go and coalesce, and
//! one on `tiny`, which a fixed share of requests use and which cannot
//! coalesce with the first. Each client works in rounds of eight requests:
//! six on `paper-small` with distinct seeds derived from the workload seed,
//! one on `tiny`, and one on `paper-small` with a seed above 2^53 taken from
//! a fixed sequence below the Mersenne prime 2^61 − 1. One operation is one
//! request; one latency sample is the time from writing a request line to
//! reading its response line.

use crate::stats;
use crate::trace::Tracer;
use crate::{repeat_setup, scenario_config, Args, Checks, EndToEnd, Window, SETUP_REPEATS};
use acso_core::agent::QNetwork;
use acso_core::eval::{evaluate_factory_detailed, EvalConfig};
use acso_core::experiments::{prepare, ExperimentScale};
use acso_core::rollout::{RolloutPlan, SyncBatchEngine};
use acso_core::train::TrainedAcso;
use acso_core::{DefenderPolicy, NodeFeatureEncoder};
use acso_serve::json::JsonValue;
use acso_serve::server;
use acso_serve::service::{EvalService, ServiceConfig};
use acso_serve::transport::Transport;
use dbn::DbnFilter;
use ics_sim::{DefenderAction, IcsEnvironment, SimConfig};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Closed-loop clients sharing the daemon's stdin.
const CLIENTS: usize = 4;
/// Requests per client round: [`SECONDARY_SLOT`] and [`WIDE_SLOT`] are the
/// odd ones out, the rest go to the primary handle.
const ROUND: usize = 8;
const SECONDARY_SLOT: usize = 3;
const WIDE_SLOT: usize = 7;
/// Episodes per request.
const EPISODES: u64 = 4;
/// Episode horizon per request, in simulated hours.
const HORIZON: u64 = 100;
/// Training budget of each `load_policy` (the daemon trains through
/// `experiments::prepare`): two episodes of [`TRAIN_HORIZON`] hours, enough
/// to pass the replay warm-up and run about twenty-five minibatch updates.
const TRAIN_EPISODES: usize = 2;
const TRAIN_HORIZON: u64 = 300;
const DBN_EPISODES: usize = 200;
/// After the first round, every this-many-th request is also replayed
/// through the offline evaluator.
const OFFLINE_CHECK_EVERY: usize = 32;

/// Where a request goes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Primary,
    Secondary,
    /// Primary handle, seed above 2^53.
    Wide,
}

/// The two handles the workload loads: scenario and training seed.
struct HandleSpec {
    scenario: &'static str,
    seed: u64,
}

fn handle_specs(seed: u64) -> [HandleSpec; 2] {
    let base = seed % (1 << 40);
    [
        HandleSpec {
            scenario: "paper-small",
            seed: base,
        },
        HandleSpec {
            scenario: "tiny",
            seed: base + 1,
        },
    ]
}

fn load_line(id: &str, spec: &HandleSpec) -> String {
    format!(
        "{{\"id\":\"{id}\",\"method\":\"load_policy\",\"params\":{{\"policy\":\"acso\",\"scenario\":\"{}\",\"max_time\":{TRAIN_HORIZON},\"train_episodes\":{TRAIN_EPISODES},\"dbn_episodes\":{DBN_EPISODES},\"seed\":{}}}}}",
        spec.scenario, spec.seed
    )
}

fn sim_for(spec: &HandleSpec) -> SimConfig {
    scenario_config(spec.scenario).with_max_time(HORIZON)
}

/// The agent a `load_policy` with `spec`'s parameters trains, built offline
/// through the same `prepare` call.
fn offline_agent(spec: &HandleSpec) -> TrainedAcso {
    let sim = scenario_config(spec.scenario).with_max_time(TRAIN_HORIZON);
    prepare(ExperimentScale {
        eval_sim: sim.clone(),
        train_sim: sim,
        eval_episodes: 0,
        train_episodes: TRAIN_EPISODES,
        dbn_episodes: DBN_EPISODES,
        seed: spec.seed,
    })
    .trained
}

/// One request the generator sent.
struct Sent {
    round: usize,
    kind: Kind,
    seed: u64,
    line: String,
    at: Instant,
}

/// The closed-loop request generator: four clients that move in waves, one
/// request per client per wave, and stop together at a round boundary.
struct Load {
    seconds: f64,
    start: Instant,
    seed_base: u64,
    handles: [String; 2],
    /// Waves completed so far.
    waves_done: usize,
    sent: Vec<Sent>,
    responses: Vec<Option<(String, Instant)>>,
    /// Every wave: when it was sent, when its last response arrived, and
    /// how many requests it carried.
    waves: Vec<(Instant, Instant, u64)>,
}

impl Load {
    fn new(seed: u64, handles: [String; 2], seconds: f64) -> Self {
        Self {
            seconds,
            start: Instant::now(),
            seed_base: acso_runtime::stream_seed(seed, 0, 0x5e12e) % (1 << 40),
            handles,
            waves_done: 0,
            sent: Vec::new(),
            responses: Vec::new(),
            waves: Vec::new(),
        }
    }

    /// Builds the client's request for the current wave; returns its id.
    fn next(&mut self, client: usize) -> usize {
        // Client c starts its rounds at slot 2c, so in every wave the four
        // clients sit at four different slots: a wave then mixes coalescing
        // primary requests with the odd ones.
        let wave = self.waves_done;
        let slot = (client * (ROUND / CLIENTS) + wave) % ROUND;
        let kind = match slot {
            SECONDARY_SLOT => Kind::Secondary,
            WIDE_SLOT => Kind::Wide,
            _ => Kind::Primary,
        };
        let seed = match kind {
            // A fixed sequence, independent of the workload seed: every one
            // of these lies above 2^53.
            Kind::Wide => acso_runtime::MERSENNE_61 - (wave * CLIENTS + client) as u64,
            _ => self.seed_base + ((client as u64) << 32) + wave as u64,
        };
        let (handle, scenario) = match kind {
            Kind::Secondary => (&self.handles[1], "tiny"),
            _ => (&self.handles[0], "paper-small"),
        };
        let id = self.sent.len();
        let line = format!(
            "{{\"id\":{id},\"method\":\"evaluate\",\"params\":{{\"handle\":\"{handle}\",\"scenario\":\"{scenario}\",\"episodes\":{EPISODES},\"seed\":{seed},\"max_time\":{HORIZON}}}}}"
        );
        self.sent.push(Sent {
            round: wave / ROUND,
            kind,
            seed,
            line,
            at: Instant::now(),
        });
        self.responses.push(None);
        id
    }

    /// Records a response to one of this wave's requests.
    fn complete(&mut self, line: String, at: Instant) -> Result<(), String> {
        let id =
            response_id(&line).ok_or_else(|| format!("response without a numeric id: {line}"))?;
        let slot = self
            .responses
            .get_mut(id)
            .ok_or_else(|| format!("response to an unknown id {id}"))?;
        if slot.is_some() {
            return Err(format!("second response to id {id}"));
        }
        *slot = Some((line, at));
        Ok(())
    }
}

/// The id of a response line, read from its `{"id":N,` prefix.
fn response_id(line: &str) -> Option<usize> {
    let rest = line.strip_prefix("{\"id\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// The literal integer after the first `"seed":` of a line, read exactly
/// (a JSON number parsed as `f64` cannot hold every `u64`).
fn echoed_seed(line: &str) -> Option<u64> {
    let rest = &line[line.find("\"seed\":")? + 7..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The daemon child process. A reader thread timestamps each response line
/// as it arrives. Dropping the daemon kills and reaps the process.
struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    responses: Receiver<(Instant, String)>,
    reader: Option<JoinHandle<()>>,
}

impl Daemon {
    fn spawn() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let path = exe.with_file_name("acso-serve");
        let mut child = Command::new(&path)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", path.display()))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let (tx, responses) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in stdout.lines() {
                let Ok(line) = line else { break };
                if tx.send((Instant::now(), line)).is_err() {
                    break;
                }
            }
        });
        Ok(Self {
            child,
            stdin: Some(stdin),
            responses,
            reader: Some(reader),
        })
    }

    fn write(&mut self, bytes: &[u8]) -> Result<(), String> {
        let stdin = self.stdin.as_mut().expect("stdin open until shutdown");
        stdin
            .write_all(bytes)
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("writing to acso-serve: {e}"))
    }

    /// Sends one request and waits for its response (outside the timed
    /// region, with nothing else in flight).
    fn call(&mut self, line: &str) -> Result<JsonValue, String> {
        self.write(format!("{line}\n").as_bytes())?;
        let (_, response) = self
            .responses
            .recv()
            .map_err(|_| "acso-serve closed its output".to_string())?;
        let value = JsonValue::parse(&response).map_err(|e| format!("bad response: {e}"))?;
        if value.get("ok") != Some(&JsonValue::Bool(true)) {
            return Err(format!("request {line} failed: {response}"));
        }
        Ok(value)
    }

    /// Loads both handles; returns their names.
    fn load(&mut self, specs: &[HandleSpec; 2]) -> Result<[String; 2], String> {
        let mut handles = [String::new(), String::new()];
        for (i, spec) in specs.iter().enumerate() {
            let result = self.call(&load_line(&format!("load{i}"), spec))?;
            handles[i] = handle_of(&result)?;
        }
        Ok(handles)
    }

    /// Asks the daemon to stop, closes its input and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        self.call("{\"id\":\"bye\",\"method\":\"shutdown\"}")?;
        drop(self.stdin.take());
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for acso-serve: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("acso-serve exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        drop(self.stdin.take());
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// The handle name in a `load_policy` response.
fn handle_of(response: &JsonValue) -> Result<String, String> {
    Ok(response
        .get("result")
        .and_then(|r| r.get("handle"))
        .and_then(JsonValue::as_str)
        .ok_or("load_policy returned no handle")?
        .to_string())
}

/// Drives the closed loop in waves: each wave sends one request per client
/// in a single write, and the next wave starts once every response of this
/// one has arrived. The clients stop together at the first round boundary
/// (every eighth wave) after `seconds`, so every run attempts whole rounds.
/// (Clients released one by one instead settle, run after run, into
/// different coalescing patterns depending on how the daemon's drain splits
/// the first waves; that moved `requests_per_s` by ±10% between identical
/// runs.) `send` delivers the lines, `responses` yields response lines with
/// their arrival times.
fn drive(
    load: &mut Load,
    responses: &Receiver<(Instant, String)>,
    mut send: impl FnMut(Vec<String>) -> Result<(), String>,
) -> Result<(), String> {
    loop {
        let now = Instant::now();
        let lines = (0..CLIENTS)
            .map(|client| {
                let id = load.next(client);
                load.sent[id].at = now;
                load.sent[id].line.clone()
            })
            .collect();
        send(lines)?;
        let mut end = now;
        for _ in 0..CLIENTS {
            let (at, line) = responses
                .recv()
                .map_err(|_| "the server closed its output".to_string())?;
            end = end.max(at);
            load.complete(line, at)?;
        }
        load.waves.push((now, end, CLIENTS as u64));
        load.waves_done += 1;
        if load.waves_done.is_multiple_of(ROUND)
            && load.start.elapsed().as_secs_f64() >= load.seconds
        {
            return Ok(());
        }
    }
}

/// Reads a `{mean, std_err}` pair out of a response summary.
fn summary_pair(summary: &JsonValue, key: &str) -> Option<(f64, f64)> {
    let pair = summary.get(key)?;
    Some((pair.get("mean")?.as_f64()?, pair.get("std_err")?.as_f64()?))
}

/// Checks every response; returns how many requests failed (each of them a
/// wide-seed request whose seed the daemon did not keep).
fn check_responses(load: &Load, specs: &[HandleSpec; 2], checks: &mut Checks) -> u64 {
    let agents = [offline_agent(&specs[0]), offline_agent(&specs[1])];
    let mut failed = 0;
    let mut wide_failures = 0;
    let mut group_sizes = std::collections::BTreeMap::new();
    for (id, sent) in load.sent.iter().enumerate() {
        let Some((line, _)) = &load.responses[id] else {
            checks.expect(false, || format!("serve: request {id} got no response"));
            continue;
        };
        let value = match JsonValue::parse(line) {
            Ok(v) => v,
            Err(e) => {
                checks.expect(false, || format!("serve: response {id} is not JSON: {e}"));
                continue;
            }
        };
        let ok = value.get("ok") == Some(&JsonValue::Bool(true));
        checks.expect(ok, || format!("serve: request {id} failed: {line}"));
        let Some(result) = value.get("result") else {
            continue;
        };
        let group = result
            .get("batch")
            .and_then(|b| b.get("coalesced_requests"))
            .and_then(JsonValue::as_f64);
        *group_sizes.entry(group.map(|g| g as u64)).or_insert(0u64) += 1;
        let spec = &specs[usize::from(sent.kind == Kind::Secondary)];
        checks.expect(
            result.get("scenario").and_then(JsonValue::as_str) == Some(spec.scenario)
                && result.get("episodes").and_then(JsonValue::as_f64) == Some(EPISODES as f64),
            || format!("serve: response {id} answers another request: {line}"),
        );
        if echoed_seed(line) != Some(sent.seed) {
            // Fault F4: integers above 2^53 are refused by the JSON layer and
            // `evaluate` silently runs seed 0 instead.
            failed += 1;
            if sent.kind == Kind::Wide {
                wide_failures += 1;
            } else {
                checks.expect(false, || {
                    format!("serve: request {id} sent seed {} but got {line}", sent.seed)
                });
            }
            continue;
        }
        if sent.round > 0 && id % OFFLINE_CHECK_EVERY != 0 {
            continue;
        }
        let agent = &agents[usize::from(sent.kind == Kind::Secondary)].agent;
        let config = EvalConfig {
            sim: sim_for(spec),
            episodes: EPISODES as usize,
            seed: sent.seed,
        };
        let offline = evaluate_factory_detailed(
            || Box::new(agent.eval_clone()) as Box<dyn DefenderPolicy>,
            &config,
        )
        .summary;
        let summary = result.get("summary");
        let matches = summary.is_some_and(|s| {
            [
                ("discounted_return", offline.discounted_return),
                ("final_plcs_offline", offline.final_plcs_offline),
                ("average_it_cost", offline.average_it_cost),
                (
                    "average_nodes_compromised",
                    offline.average_nodes_compromised,
                ),
            ]
            .iter()
            .all(|(key, m)| summary_pair(s, key) == Some((m.mean, m.std_err)))
        });
        checks.expect(matches, || {
            format!("serve: request {id} differs from the offline evaluator: {line}")
        });
    }
    eprintln!("serve: requests by coalesced group size {group_sizes:?}");
    if wide_failures > 0 {
        eprintln!(
            "serve: {wide_failures} requests with seeds above 2^53 were answered for another seed (fault F4)"
        );
    }
    failed
}

/// Checks the closing `metrics` counters against what the generator sent.
fn check_metrics(metrics: &JsonValue, evaluates: usize, checks: &mut Checks) {
    let Some(result) = metrics.get("result") else {
        checks.expect(false, || "serve: metrics returned no result".to_string());
        return;
    };
    let count = |key: &str| result.get(key).and_then(JsonValue::as_f64);
    // Two loads, the evaluates, and this metrics request itself.
    let requests = (evaluates + 3) as f64;
    let episodes = evaluates as f64 * EPISODES as f64;
    for (key, expected) in [
        ("requests_total", requests),
        ("errors_total", 0.0),
        ("episodes_total", episodes),
        ("steps_total", episodes * HORIZON as f64),
        ("policies_loaded", 2.0),
    ] {
        checks.expect(count(key) == Some(expected), || {
            format!(
                "serve: metrics {key} = {:?}, expected {expected}",
                count(key)
            )
        });
    }
}

/// The untraced run.
pub fn run(args: &Args, checks: &mut Checks) -> Result<EndToEnd, String> {
    let specs = handle_specs(args.seed);
    let config = ServiceConfig::from_env();
    eprintln!(
        "serve: daemon lanes {} threads {} (its defaults on this machine)",
        config.lanes, config.threads
    );
    let ((mut daemon, handles), setup_s) = repeat_setup(SETUP_REPEATS, || {
        let mut daemon = Daemon::spawn()?;
        let handles = daemon.load(&specs)?;
        Ok((daemon, handles))
    })?;
    let mut load = Load::new(args.seed, handles, args.seconds);
    let Daemon {
        stdin, responses, ..
    } = &mut daemon;
    let stdin = stdin.as_mut().expect("stdin open until shutdown");
    drive(&mut load, responses, |lines| {
        let bytes = lines.join("\n") + "\n";
        stdin
            .write_all(bytes.as_bytes())
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("writing to acso-serve: {e}"))
    })?;
    let metrics = daemon.call("{\"id\":\"metrics\",\"method\":\"metrics\"}")?;
    let peak_rss_mib = stats::peak_rss_mib(Some(daemon.child.id()));
    daemon.shutdown()?;

    let latencies: Vec<f64> = load
        .sent
        .iter()
        .zip(&load.responses)
        .filter_map(|(s, r)| r.as_ref().map(|(_, at)| stats::ms(at.duration_since(s.at))))
        .collect();
    check_metrics(&metrics, load.sent.len(), checks);
    let failed = check_responses(&load, &specs, checks);
    // One window per client round: eight waves, one of each kind of wave.
    let windows = load
        .waves
        .chunks(ROUND)
        .map(|waves| {
            let requests: u64 = waves.iter().map(|w| w.2).sum();
            Window {
                operations: requests,
                hours: requests * EPISODES * HORIZON,
                seconds: waves[waves.len() - 1]
                    .1
                    .duration_since(waves[0].0)
                    .as_secs_f64(),
            }
        })
        .collect();
    Ok(EndToEnd {
        setup_s,
        peak_rss_mib,
        windows,
        latencies_ms: latencies,
        attempted: load.sent.len() as u64,
        failed,
    })
}

/// An in-process transport that records when each line was sent and when
/// the serve loop took it, and times each batch from the end of its drain
/// (the `try_recv` that found the queue empty) to its first response, which
/// is the loop's `EvalService::handle_batch` call.
struct TimedTransport {
    incoming: Receiver<(Instant, String)>,
    outgoing: Sender<(Instant, String)>,
    waits: Vec<(Instant, u64)>,
    /// The request lines of every batch the loop drained.
    batches: Vec<Vec<String>>,
    /// When the current batch's drain ended, until its first response.
    drained: Option<Instant>,
    /// `handle_batch` durations.
    handles: Vec<(Instant, u64)>,
}

impl TimedTransport {
    fn take(&mut self, sent: Instant, line: String) -> String {
        self.waits.push((sent, sent.elapsed().as_nanos() as u64));
        line
    }
}

impl Transport for TimedTransport {
    fn recv(&mut self) -> Option<String> {
        let (sent, line) = self.incoming.recv().ok()?;
        let line = self.take(sent, line);
        self.batches.push(vec![line.clone()]);
        Some(line)
    }

    fn try_recv(&mut self) -> Option<String> {
        match self.incoming.try_recv() {
            Ok((sent, line)) => {
                let line = self.take(sent, line);
                if let Some(batch) = self.batches.last_mut() {
                    batch.push(line.clone());
                }
                Some(line)
            }
            Err(TryRecvError::Empty | TryRecvError::Disconnected) => {
                self.drained = Some(Instant::now());
                None
            }
        }
    }

    fn send(&mut self, line: &str) {
        let now = Instant::now();
        if let Some(drained) = self.drained.take() {
            self.handles
                .push((drained, now.duration_since(drained).as_nanos() as u64));
        }
        let _ = self.outgoing.send((now, line.to_string()));
    }
}

/// The traced run: the same clients and requests against an in-process
/// `EvalService` served by `server::serve` over a [`TimedTransport`].
pub fn traced(
    args: &Args,
    tracer: &mut Tracer,
    checks: &mut Checks,
    probe: bool,
) -> Result<(u64, u64), String> {
    let specs = handle_specs(args.seed);
    let config = ServiceConfig::from_env();
    let lanes = config.lanes;
    let threads = config.threads;
    let mut service = EvalService::new(config);
    let mut handles = [String::new(), String::new()];
    for (i, spec) in specs.iter().enumerate() {
        handles[i] = handle_of(&JsonValue::parse(
            &service.handle_line(&load_line("load", spec)),
        )?)?;
    }
    let (to_server, incoming) = mpsc::channel();
    let (outgoing, from_server) = mpsc::channel();
    let mut transport = TimedTransport {
        incoming,
        outgoing,
        waits: Vec::new(),
        batches: Vec::new(),
        drained: None,
        handles: Vec::new(),
    };
    let seconds = if probe { 0.0 } else { args.seconds };
    let seed = args.seed;
    let client = std::thread::spawn(move || -> Result<Load, String> {
        let mut load = Load::new(seed, handles, seconds);
        drive(&mut load, &from_server, |lines| {
            for line in lines {
                to_server
                    .send((Instant::now(), line))
                    .map_err(|_| "serve loop stopped")?;
            }
            Ok(())
        })?;
        Ok(load)
    });
    // The shipped serve loop, run until the client hangs up (its sender
    // drops when it returns).
    server::serve(&mut service, &mut transport);
    let load = client
        .join()
        .map_err(|_| "serve client thread panicked")??;
    for (at, ns) in &transport.waits {
        tracer.record("acso-serve.queue_wait_ms", *at, *ns);
    }
    for (at, ns) in &transport.handles {
        tracer.record("acso-serve.handle_ms", *at, *ns);
    }
    for batch in &transport.batches {
        tracer.value("acso-serve.batch_requests", batch.len() as f64);
    }
    tracer.value("acso-core.fill_ratio", service.metrics().batch_fill_ratio());
    if !probe {
        let n = load.sent.len() as u64;
        crate::report_traced_rate(n, n * EPISODES * HORIZON, load.start);
    }
    let failed = check_responses(&load, &specs, checks);

    for sent in &load.sent {
        let parsed = tracer.span("acso-serve.json_parse_us", |_| JsonValue::parse(&sent.line));
        checks.expect(parsed.is_ok(), || {
            format!("serve: request line does not parse: {}", sent.line)
        });
    }
    for (line, _) in load.responses.iter().flatten() {
        let value = JsonValue::parse(line)?;
        let mut out = String::with_capacity(line.len());
        tracer.span("acso-serve.json_render_us", |_| value.render(&mut out));
        checks.expect(out == *line, || {
            format!("serve: render(parse(line)) != line: {line}")
        });
    }

    // Replays the coalesced primary groups of the first batches through
    // the lockstep engine, then times batched inference at lane width.
    let primary = offline_agent(&specs[0]);
    let sim = sim_for(&specs[0]);
    let seeds: HashMap<&str, u64> = load
        .sent
        .iter()
        .filter(|s| s.kind == Kind::Primary)
        .map(|s| (s.line.as_str(), s.seed))
        .collect();
    let engine = SyncBatchEngine::new(lanes);
    let factory = || Box::new(primary.agent.eval_clone()) as Box<dyn DefenderPolicy>;
    for lines in transport.batches.iter().take(if probe { 2 } else { 30 }) {
        let plans: Vec<RolloutPlan> = lines
            .iter()
            .filter_map(|l| seeds.get(l.as_str()))
            .map(|seed| {
                RolloutPlan::new(sim.clone(), EPISODES as usize, *seed).with_threads(threads)
            })
            .collect();
        if !plans.is_empty() {
            black_box(tracer.span("acso-core.lockstep_ms", |_| {
                engine.rollout_many(&plans, &factory)
            }));
        }
    }
    time_lane_inference(&primary, &sim, lanes, tracer, if probe { 8 } else { 100 });
    Ok((load.sent.len() as u64, failed))
}

/// Times `q_values_batch` over `lanes` distinct states, reported per state.
fn time_lane_inference(
    trained: &TrainedAcso,
    sim: &SimConfig,
    lanes: usize,
    tracer: &mut Tracer,
    n: usize,
) {
    let mut env = IcsEnvironment::new(sim.clone());
    let encoder = NodeFeatureEncoder::new(env.topology());
    let mut filter = DbnFilter::new(trained.dbn_model.clone(), env.topology().node_count());
    let mut obs = env.reset();
    let mut states = Vec::with_capacity(lanes);
    for _ in 0..lanes {
        filter.update(&obs);
        states.push(encoder.encode(&obs, &filter));
        obs = env.step(&[DefenderAction::NoAction]).observation;
    }
    let refs: Vec<_> = states.iter().collect();
    let mut network = trained.agent.eval_clone().network_mut().clone();
    for _ in 0..n {
        let start = Instant::now();
        black_box(network.q_values_batch(&refs));
        let ns = start.elapsed().as_nanos() as u64;
        tracer.record("neural.q_forward_lanes_us", start, ns / lanes as u64);
    }
}
