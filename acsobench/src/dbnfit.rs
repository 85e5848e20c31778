//! `dbn-fit`: the §4.3 reproduction on `paper-full`.
//!
//! Each round fits the DBN from the paper's 1,000 random-defender episodes
//! (`dbn::learn::learn_model`) and validates the filter on held-out
//! episodes (`dbn::validate::validate_filter`, one call per episode), the
//! two calls `experiments::dbn_validation` makes. One operation is one fit
//! or one validation episode; one latency sample is one validation episode.

use crate::stats;
use crate::trace::Tracer;
use crate::{repeat_setup, scenario_config, Args, Checks, EndToEnd, Window};
use dbn::learn::{learn_model, learn_model_with_threads, LearnConfig};
use dbn::validate::{validate_filter, ValidationReport};
use dbn::{ActionCategory, DbnFilter, DbnModel, MuBucket, ObsSymbol};
use ics_sim::{CompromiseClass, IcsEnvironment, SimConfig};
use std::time::Instant;

/// The paper's DBN data-collection budget.
const FIT_EPISODES: usize = 1_000;
/// Held-out validation episodes per round: with four or five rounds per
/// 22-second run, 200 or more latency samples, ten or more beyond the p95.
const VALIDATION_EPISODES: usize = 50;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Episodes of the fit that is repeated on 1 and on 2 worker threads.
const THREAD_CHECK_EPISODES: usize = 20;

const ACTIONS: [ActionCategory; ActionCategory::COUNT] = [
    ActionCategory::None,
    ActionCategory::Investigate,
    ActionCategory::Reboot,
    ActionCategory::ResetPassword,
    ActionCategory::Reimage,
    ActionCategory::Quarantine,
];

fn fit_config(sim: &SimConfig, seed: u64, round: usize, episodes: usize) -> LearnConfig {
    let seed = acso_runtime::stream_seed(seed, round, 0xdb7f17);
    LearnConfig {
        episodes,
        seed,
        sim: sim.clone().with_seed(seed),
    }
}

fn validation_seed(seed: u64, round: usize, episode: usize) -> u64 {
    acso_runtime::stream_seed(seed, round * VALIDATION_EPISODES + episode, 0x7a11d)
}

/// One round's outputs, kept for the checks after the timed region.
struct Round {
    episodes: usize,
    model: DbnModel,
    validations: Vec<ValidationReport>,
}

fn check_round(sim: &SimConfig, nodes: usize, round: &Round, checks: &mut Checks) {
    let expected = (round.episodes as u64 * sim.reward.max_time * nodes as u64) as f64;
    let model = &round.model;
    for (table, total) in [
        ("transition", model.transition.total_observations()),
        ("observation", model.observation.total_observations()),
    ] {
        checks.expect(total == expected, || {
            format!("dbn-fit: {table} table holds {total} observations, expected {expected}")
        });
    }
    let mu_buckets = [0.0, 1.0, 3.0, 6.0].map(MuBucket::from_count);
    for from in CompromiseClass::ALL {
        for action in ACTIONS {
            for mu in mu_buckets {
                let sum: f64 = model.transition.distribution(from, mu, action).iter().sum();
                checks.expect((sum - 1.0).abs() < 1e-9, || {
                    format!("dbn-fit: P(s' | {from:?}, {mu:?}, {action:?}) sums to {sum}")
                });
            }
            let sum: f64 = (0..ObsSymbol::COUNT)
                .map(|o| {
                    model
                        .observation
                        .prob(from, action, ObsSymbol::from_index(o))
                })
                .sum();
            checks.expect((sum - 1.0).abs() < 1e-9, || {
                format!("dbn-fit: P(o | {from:?}, {action:?}) sums to {sum}")
            });
        }
    }
    let samples = sim.reward.max_time * nodes as u64;
    for report in &round.validations {
        checks.expect(report.samples == samples, || {
            format!(
                "dbn-fit: validation saw {} samples, expected {samples}",
                report.samples
            )
        });
    }
}

/// A subset of the fit must give identical tables on 1 and on 2 threads.
fn check_thread_invariance(sim: &SimConfig, seed: u64, checks: &mut Checks) {
    let config = fit_config(sim, seed, usize::MAX, THREAD_CHECK_EPISODES);
    let one = learn_model_with_threads(&config, 1);
    let two = learn_model_with_threads(&config, 2);
    checks.expect(one == two, || {
        "dbn-fit: 1-thread and 2-thread fits differ".to_string()
    });
}

fn node_count(sim: &SimConfig) -> usize {
    IcsEnvironment::new(sim.clone()).topology().node_count()
}

/// The untraced run.
pub fn run(args: &Args, checks: &mut Checks) -> Result<EndToEnd, String> {
    // Set-up resolves the scenario and runs one full-size fit (seconds of
    // work, so host noise is a small share of it), which also leaves worker
    // threads and the allocator warm for the first timed fit. It repeats
    // fewer times than the other workloads' set-ups to bound the run time.
    let ((sim, nodes), setup_s) = repeat_setup(SETUP_REPEATS, || {
        let sim = scenario_config("paper-full");
        let nodes = node_count(&sim);
        let warmup = fit_config(&sim, args.seed, usize::MAX - 1, FIT_EPISODES);
        std::hint::black_box(learn_model(&warmup));
        Ok((sim, nodes))
    })?;
    let mut rounds = Vec::new();
    let mut latencies = Vec::new();
    let mut windows = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        let r = rounds.len();
        let round_start = Instant::now();
        let model = learn_model(&fit_config(&sim, args.seed, r, FIT_EPISODES));
        let validations = (0..VALIDATION_EPISODES)
            .map(|i| {
                let t = Instant::now();
                let report = validate_filter(&model, &sim, 1, validation_seed(args.seed, r, i));
                latencies.push(stats::ms(t.elapsed()));
                report
            })
            .collect();
        let hours = (FIT_EPISODES + VALIDATION_EPISODES) as u64 * sim.reward.max_time;
        windows.push(Window::since(
            round_start,
            1 + VALIDATION_EPISODES as u64,
            hours,
        ));
        rounds.push(Round {
            episodes: FIT_EPISODES,
            model,
            validations,
        });
    }
    let peak_rss_mib = stats::peak_rss_mib(None);
    for round in &rounds {
        check_round(&sim, nodes, round, checks);
    }
    check_thread_invariance(&sim, args.seed, checks);
    Ok(EndToEnd {
        setup_s,
        peak_rss_mib,
        windows,
        latencies_ms: latencies,
        attempted: rounds.len() as u64 * (1 + VALIDATION_EPISODES as u64),
        failed: 0,
    })
}

/// The traced run: the same rounds with spans around the fit and every
/// validation call, plus one validation-style episode per round driven by
/// the benchmark itself to time environment construction, the simulator
/// step and the filter update on their own.
pub fn traced(
    args: &Args,
    tracer: &mut Tracer,
    checks: &mut Checks,
    probe: bool,
) -> Result<(u64, u64), String> {
    let sim = scenario_config("paper-full");
    let nodes = node_count(&sim);
    let (fit_episodes, validation_episodes, seconds) = if probe {
        (50, 2, 0.0)
    } else {
        (FIT_EPISODES, VALIDATION_EPISODES, args.seconds)
    };
    let mut rounds = 0usize;
    let start = Instant::now();
    loop {
        let r = rounds;
        let config = fit_config(&sim, args.seed, r, fit_episodes);
        let model = tracer.span("dbn.learn_s", |_| learn_model(&config));
        let validations = (0..validation_episodes)
            .map(|i| {
                tracer.span("dbn.validate_s", |_| {
                    validate_filter(&model, &sim, 1, validation_seed(args.seed, r, i))
                })
            })
            .collect();
        filter_episode(
            &sim,
            &model,
            acso_runtime::stream_seed(args.seed, r, 0xf117e2),
            tracer,
        );
        check_round(
            &sim,
            nodes,
            &Round {
                episodes: fit_episodes,
                model,
                validations,
            },
            checks,
        );
        rounds += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let operations = (rounds * (1 + validation_episodes)) as u64;
    if !probe {
        // The extra instrumented episode per round counts as stepped hours.
        let episodes = rounds * (fit_episodes + validation_episodes + 1);
        crate::report_traced_rate(operations, episodes as u64 * sim.reward.max_time, start);
    }
    Ok((operations, 0))
}

/// One random-defender episode with the filter alongside, as
/// `validate_filter` runs it, with spans around each layer call.
fn filter_episode(sim: &SimConfig, model: &DbnModel, seed: u64, tracer: &mut Tracer) {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let config = sim.clone().with_seed(seed);
    let mut env = tracer.span("ics-sim.env_new_us", |_| IcsEnvironment::new(config));
    let _ = env.reset();
    let nodes = env.topology().node_count();
    let plcs = env.topology().plc_count();
    let mut filter = DbnFilter::new(model.clone(), nodes);
    loop {
        let action = dbn::learn::random_defender_action(nodes, plcs, &mut rng);
        let step = tracer.span("ics-sim.step_us", |_| env.step(&[action]));
        tracer.span("dbn.filter_update_us", |_| filter.update(&step.observation));
        if step.done {
            break;
        }
    }
}
