//! The traced driver must be a faithful copy of `run_simulation`'s loop, or
//! its layer table describes some other program.

use perfbench::driver::{run_traced, setup_only};
use perfbench::{counter_fingerprint, Workload};
use vanet_des::SimDuration;
use vanet_scenario::{run_simulation, Protocol, SimConfig};

/// `quick_demo` has a single L3 region, so every event lands on shard 0;
/// the 4 km map has several, so shard routing is exercised too.
fn configs() -> [SimConfig; 2] {
    let mut multi_l3 = SimConfig::paper_fig3_2(4000.0, 220, 5);
    multi_l3.duration = SimDuration::from_secs(120);
    multi_l3.warmup = SimDuration::from_secs(40);
    [SimConfig::quick_demo(7), multi_l3]
}

#[test]
fn traced_driver_reproduces_run_simulation_counters() {
    for base in configs() {
        for protocol in Protocol::ALL {
            for shards in [1, 2] {
                let cfg = SimConfig {
                    shards,
                    threads: shards,
                    ..base.clone()
                };
                let plain = run_simulation(&cfg, protocol);
                let (traced, spans) = run_traced(&cfg, protocol).expect("supported config");
                assert_eq!(
                    counter_fingerprint(&traced),
                    counter_fingerprint(&plain),
                    "{protocol:?} at {shards} shards on {} m",
                    plain.map_size
                );
                assert_eq!(spans.events, plain.events_processed);
                assert!(spans.attributed_ns() <= spans.loop_ns);
                assert!(spans.setup_ns() > 0);
            }
        }
    }
}

#[test]
fn setup_only_times_every_setup_layer() {
    let spans = setup_only(&SimConfig::quick_demo(3), Protocol::Hlsrg).expect("supported");
    assert!(spans.map_ns > 0 && spans.partition_ns > 0 && spans.protocol_setup_ns > 0);
    assert_eq!(
        spans.loop_ns, 0,
        "setup_only must stop before the first event"
    );
    assert!(
        spans.handler_calls >= 2,
        "on_start and on_join belong to setup"
    );
}

#[test]
fn unsupported_configs_are_refused_not_diverged() {
    let cfg = SimConfig {
        timeline_period: Some(SimDuration::from_secs(10)),
        ..SimConfig::quick_demo(1)
    };
    assert!(run_traced(&cfg, Protocol::Hlsrg).is_err());
}

#[test]
fn workload_jobs_follow_the_seed_argument() {
    for w in Workload::ALL {
        let a = w.jobs(1);
        let b = w.jobs(2);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.0.seed != y.0.seed), "{w:?}");
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
}
