//! `train`: the attention ACSO's augmented-DQN loop on `paper-small`.
//!
//! The untraced run trains through `acso_core::train::train_agent`, one
//! call per episode, with the paper's learner settings (`DqnConfig::paper`:
//! minibatch 64, an update every 8 steps, n = 8, prioritized replay).
//! Set-up fits the DBN from the paper's 1,000 random-defender episodes,
//! builds the agent, and runs the replay warm-up episodes through the same
//! call, so every timed episode trains at the steady update rate. One
//! operation and one latency sample is one training episode.
//!
//! The traced run drives the same public episode loop itself (select, step,
//! store, maybe-train) with a span around each call, and must end with the
//! weights and `TrainReport` of `train_attention_acso`.

use crate::stats;
use crate::trace::Tracer;
use crate::{repeat_setup, Args, Checks, EndToEnd, Window, SETUP_REPEATS};
use acso_core::agent::io::save_weights_to;
use acso_core::agent::{AcsoAgent, AttentionQNet, QNetwork, UpdateMode};
use acso_core::features::StateFeatures;
use acso_core::train::{train_agent, train_attention_acso, TrainConfig, TrainReport};
use acso_core::{ActionSpace, NodeFeatureEncoder};
use dbn::learn::{learn_model, LearnConfig};
use ics_sim::IcsEnvironment;
use neural::optim::Adam;
use neural::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Episode horizon in simulated hours: a multiple of the update period (8
/// steps), so every episode after the warm-up runs the same 3 minibatch
/// updates, and short enough for about 300 episodes, and so 300 latency
/// samples, per 22-second run: more than ten beyond the p95. The set-up's
/// DBN fit uses the same horizon, as `train_attention_acso` does.
const HORIZON: u64 = 24;
/// The paper's DBN data-collection budget (§4.3).
const DBN_EPISODES: usize = 1_000;
/// Minibatch updates replayed by the traced run to split one update into
/// its sample / forward / backward / optimizer stages.
const REPLAYED_UPDATES: usize = 30;

fn config(seed: u64, probe: bool) -> TrainConfig {
    let mut config = TrainConfig::paper_small(0).with_seed(seed);
    let (horizon, dbn_episodes) = if probe {
        (200, 50)
    } else {
        (HORIZON, DBN_EPISODES)
    };
    config.sim = config.sim.with_max_time(horizon);
    config.dbn_episodes = dbn_episodes;
    config
}

/// Episodes that fill the replay to its warm-up size before training starts.
fn warmup_episodes(config: &TrainConfig) -> usize {
    let horizon = config.sim.reward.max_time as usize;
    config.agent.dqn.warmup_transitions.div_ceil(horizon)
}

/// The agent exactly as `train_attention_acso` builds it.
fn build_agent(config: &TrainConfig, tracer: Option<&mut Tracer>) -> AcsoAgent<AttentionQNet> {
    let learn = LearnConfig {
        episodes: config.dbn_episodes,
        seed: config.seed,
        sim: config.sim.clone(),
    };
    let model = match tracer {
        Some(t) => t.span("dbn.learn_s", |_| learn_model(&learn)),
        None => learn_model(&learn),
    };
    let env = IcsEnvironment::new(config.sim.clone().with_seed(config.seed));
    let network = AttentionQNet::new(ActionSpace::new(env.topology()), config.seed);
    AcsoAgent::new(env.topology(), model, network, config.agent.clone())
}

/// Everything the loop produced, for the checks.
struct Progress {
    report: TrainReport,
    /// The benchmark's own iteration of ε ← max(ε_end, ε·decay).
    epsilon: f64,
    /// Every update's loss (traced run only).
    update_losses: Vec<f32>,
}

impl Progress {
    fn new(config: &TrainConfig) -> Self {
        Self {
            report: TrainReport::default(),
            epsilon: config.agent.dqn.epsilon_start,
            update_losses: Vec::new(),
        }
    }

    fn episodes(&self) -> usize {
        self.report.episode_returns.len()
    }

    /// Appends the episodes of one `train_agent` call.
    fn absorb(&mut self, report: TrainReport, config: &TrainConfig) {
        let dqn = &config.agent.dqn;
        for _ in &report.episode_returns {
            self.epsilon = (self.epsilon * dqn.epsilon_decay).max(dqn.epsilon_end);
        }
        self.report.episode_returns.extend(report.episode_returns);
        self.report.episode_losses.extend(report.episode_losses);
        self.report.env_steps = report.env_steps;
        self.report.updates = report.updates;
    }
}

/// Fills the replay to its warm-up size: the first episodes of
/// `train_attention_acso`, through one `train_agent` call.
fn warm_up(agent: &mut AcsoAgent<AttentionQNet>, config: &TrainConfig, progress: &mut Progress) {
    let report = train_agent(agent, &config.sim, warmup_episodes(config), config.seed);
    progress.absorb(report, config);
}

/// Trains one more episode through `train_agent`. A call seeded
/// `episode_seed(seed, e)` steps, as its episode 0, the environment that
/// `train_attention_acso` gives episode `e`.
fn train_episode(
    agent: &mut AcsoAgent<AttentionQNet>,
    config: &TrainConfig,
    progress: &mut Progress,
) {
    let seed = acso_runtime::episode_seed(config.seed, progress.episodes());
    let report = train_agent(agent, &config.sim, 1, seed);
    progress.absorb(report, config);
}

/// One training episode through the public loop, in the same call order as
/// `train_agent`, with spans around each layer call.
fn run_episode(
    agent: &mut AcsoAgent<AttentionQNet>,
    config: &TrainConfig,
    progress: &mut Progress,
    tracer: &mut Tracer,
    encoder: &NodeFeatureEncoder,
) {
    let sim = config
        .sim
        .clone()
        .with_seed(acso_runtime::episode_seed(config.seed, progress.episodes()));
    let mut env = tracer.span("ics-sim.env_new_us", |_| IcsEnvironment::new(sim));
    let gamma = env.gamma();
    agent.set_explore(true);
    agent.begin_episode();
    let obs = env.reset();
    let (mut action, mut state) = agent.select_action(&obs);
    let mut discounted_return = 0.0;
    let mut discount = 1.0;
    loop {
        let decoded = agent.action_space().decode(action);
        let step = tracer.span("ics-sim.step_us", |_| env.step(&[decoded]));
        let (next_action, next_state) = tracer.span("acso-core.select_action_us", |_| {
            agent.select_action(&step.observation)
        });
        black_box(tracer.span("acso-core.encode_us", |_| {
            encoder.encode(&step.observation, agent.filter())
        }));
        let reward = step.reward + step.shaping_reward;
        tracer.span("rl.store_us", |_| {
            agent.store_transition(state, action, reward, next_state, step.done)
        });
        let started = Instant::now();
        if let Some(loss) = agent.maybe_train() {
            tracer.record(
                "acso-core.update_ms",
                started,
                started.elapsed().as_nanos() as u64,
            );
            progress.update_losses.push(loss);
        }
        discounted_return += discount * step.reward;
        discount *= gamma;
        action = next_action;
        state = next_state;
        if step.done {
            break;
        }
    }
    progress.absorb(
        TrainReport {
            episode_returns: vec![discounted_return],
            episode_losses: vec![agent.recent_loss()],
            env_steps: agent.env_steps(),
            updates: agent.updates(),
        },
        config,
    );
    agent.end_episode();
}

fn weight_bytes(agent: &mut AcsoAgent<AttentionQNet>) -> Vec<u8> {
    let mut bytes = Vec::new();
    save_weights_to(agent.network_mut(), &mut bytes).expect("writing to a Vec cannot fail");
    bytes
}

fn check(
    agent: &AcsoAgent<AttentionQNet>,
    config: &TrainConfig,
    progress: &Progress,
    checks: &mut Checks,
) {
    // No episode steps past its horizon, so the total equals episodes x
    // horizon exactly when every episode ran its full horizon.
    let horizon = config.sim.reward.max_time;
    let episodes = progress.episodes() as u64;
    checks.expect(agent.env_steps() == episodes * horizon, || {
        format!(
            "train: env_steps {} != {episodes} episodes x {horizon} hours",
            agent.env_steps()
        )
    });
    let replay = agent.replay_buffered() as u64;
    let expected = agent
        .env_steps()
        .min(config.agent.dqn.buffer_capacity as u64);
    checks.expect(replay == expected, || {
        format!("train: replay holds {replay} transitions, expected {expected}")
    });
    let refs = agent.trainer().arena().total_refs();
    checks.expect(refs == 2 * replay, || {
        format!("train: arena holds {refs} refs for {replay} transitions")
    });
    checks.expect(agent.epsilon() == progress.epsilon, || {
        format!(
            "train: epsilon {} != {} after {episodes} episodes",
            agent.epsilon(),
            progress.epsilon
        )
    });
    checks.expect(
        progress.update_losses.iter().all(|l| l.is_finite())
            && progress.report.episode_losses.iter().all(|l| l.is_finite()),
        || "train: a loss is not finite".to_string(),
    );
    checks.expect(agent.updates() > 0, || "train: no update ran".to_string());

    // One further episode (three updates) on two clones of the trained
    // agent, one per update mode, must give byte-identical weights.
    let seed = acso_runtime::episode_seed(config.seed, progress.episodes());
    let [batched, serial] = [UpdateMode::Batched, UpdateMode::Serial].map(|mode| {
        let mut clone = agent.clone();
        clone.set_update_mode(mode);
        train_agent(&mut clone, &config.sim, 1, seed);
        weight_bytes(&mut clone)
    });
    checks.expect(batched == serial, || {
        "train: batched and serial updates gave different weights".to_string()
    });
}

/// The untraced run.
pub fn run(args: &Args, checks: &mut Checks) -> Result<EndToEnd, String> {
    let config = config(args.seed, false);
    let ((mut agent, mut progress), setup_s) = repeat_setup(SETUP_REPEATS, || {
        let mut agent = build_agent(&config, None);
        let mut progress = Progress::new(&config);
        warm_up(&mut agent, &config, &mut progress);
        Ok((agent, progress))
    })?;
    let warmup = progress.episodes();
    let mut latencies = Vec::new();
    let mut windows = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        let episode = Instant::now();
        train_episode(&mut agent, &config, &mut progress);
        let window = Window::since(episode, 1, config.sim.reward.max_time);
        latencies.push(window.seconds * 1e3);
        windows.push(window);
    }
    let peak_rss_mib = stats::peak_rss_mib(None);
    let episodes = (progress.episodes() - warmup) as u64;
    check(&agent, &config, &progress, checks);
    Ok(EndToEnd {
        setup_s,
        peak_rss_mib,
        windows,
        latencies_ms: latencies,
        attempted: episodes,
        failed: 0,
    })
}

/// Replays minibatch-64 updates on a clone of the trained network, reading
/// the agent's replay, to time each stage of one update on its own.
fn replay_updates(agent: &mut AcsoAgent<AttentionQNet>, tracer: &mut Tracer, seed: u64, n: usize) {
    let mut online = agent.network_mut().clone();
    let mut target = online.clone();
    let trainer = agent.trainer();
    let dqn = *trainer.config();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut adam = Adam::new(1e-4);
    for _ in 0..n {
        let picks = tracer.span("rl.sample_us", |_| {
            trainer
                .replay()
                .sample_indices(dqn.batch_size, dqn.priority_beta_start, &mut rng)
        });
        let next: Vec<&StateFeatures> = picks
            .iter()
            .map(|(i, _)| trainer.transition(*i))
            .filter(|t| !t.done)
            .map(|t| trainer.features(t.final_state))
            .collect();
        tracer.span("neural.bootstrap_forward_ms", |_| {
            black_box(online.q_values_batch(&next));
            black_box(target.q_values_batch(&next));
        });
        let states: Vec<&StateFeatures> = picks
            .iter()
            .map(|(i, _)| trainer.features(trainer.transition(*i).state))
            .collect();
        online.zero_grad();
        let q = tracer.span("neural.train_forward_ms", |_| {
            online.q_values_batch_train(&states)
        });
        let mut grad = Matrix::zeros(picks.len(), q[0].len());
        for (row, (i, weight)) in picks.iter().enumerate() {
            let t = trainer.transition(*i);
            let error = (f64::from(q[row][t.action]) - t.return_n).clamp(-1.0, 1.0);
            grad.row_mut(row)[t.action] = (error * weight / picks.len() as f64) as f32;
        }
        tracer.span("neural.backward_ms", |_| online.backward_batch(&grad));
        tracer.span("neural.adam_step_ms", |_| {
            adam.step(&mut online.params_mut())
        });
    }
}

/// The traced run. At full size it also retrains the same configuration
/// through `train_attention_acso` and requires the same weight bytes and
/// `TrainReport`.
pub fn traced(
    args: &Args,
    tracer: &mut Tracer,
    checks: &mut Checks,
    probe: bool,
) -> Result<(u64, u64), String> {
    let config = config(args.seed, probe);
    let mut agent = build_agent(&config, Some(tracer));
    let mut progress = Progress::new(&config);
    warm_up(&mut agent, &config, &mut progress);
    let warmup = progress.episodes();
    let env = IcsEnvironment::new(config.sim.clone().with_seed(config.seed));
    let encoder = NodeFeatureEncoder::new(env.topology());
    let seconds = if probe { 0.0 } else { args.seconds };
    let start = Instant::now();
    loop {
        run_episode(&mut agent, &config, &mut progress, tracer, &encoder);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let episodes = (progress.episodes() - warmup) as u64;
    if !probe {
        crate::report_traced_rate(episodes, episodes * config.sim.reward.max_time, start);
    }
    let updates = if probe { 5 } else { REPLAYED_UPDATES };
    replay_updates(&mut agent, tracer, args.seed, updates);
    check(&agent, &config, &progress, checks);
    if !probe {
        let mut reference_config = config.clone();
        reference_config.episodes = progress.episodes();
        let mut reference = train_attention_acso(&reference_config);
        checks.expect(reference.report == progress.report, || {
            "train: traced loop's TrainReport differs from train_attention_acso".to_string()
        });
        checks.expect(
            weight_bytes(&mut reference.agent) == weight_bytes(&mut agent),
            || "train: traced loop's weights differ from train_attention_acso".to_string(),
        );
    }
    Ok((episodes, 0))
}
