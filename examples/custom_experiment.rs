//! Defining and registering your own experiment — no core changes required.
//!
//! The experiment layer is an open registry: anything implementing the
//! `Experiment` trait can be registered next to the paper's 22 built-ins and
//! run by name.  This example builds a *new* workload scenario (an MQTT
//! device keeping a session alive at its broker), composes two experiments
//! over it — one declaratively with `ExperimentSpec`, one as a hand-written
//! `Experiment` type — and runs both through a registry, exactly the way the
//! `repro` binary does.
//!
//! ```text
//! cargo run --example custom_experiment
//! ```

use signaling::registry::{Experiment, ExperimentSpec, Registry, SweepTarget};
use signaling::{
    ExperimentOptions, ExperimentOutput, Metric, Point, ProtocolSpec, Scenario, Series, SeriesSet,
    SingleHopModel, SingleHopParams, Sweep,
};

/// A brand-new scenario: an MQTT device keeps a session at its broker with
/// periodic PINGREQ keepalives; the broker drops the session after 1.5× the
/// keepalive interval (the MQTT convention).  Stale sessions queue messages
/// for a device that is gone.
fn mqtt_keepalive() -> Scenario {
    let mut p = SingleHopParams::kazaa_defaults();
    p.loss = 0.03; // flaky last-mile wireless
    p = p.with_delay_scaled_retrans(0.1);
    p = p
        .with_mean_lifetime(1800.0)
        .with_mean_update_interval(120.0);
    p.refresh_timer = 30.0; // PINGREQ interval
    p.timeout_timer = 45.0; // 1.5 × keepalive
    Scenario::new("MQTT broker keepalive", p).with_weight(8.0)
}

/// A hand-written experiment: how much inconsistency does each keepalive
/// interval buy, per protocol, at the MQTT scenario's flaky loss rate?
struct KeepaliveTuning;

impl Experiment for KeepaliveTuning {
    fn name(&self) -> &str {
        "mqtt-keepalive-tuning"
    }

    fn description(&self) -> &str {
        "MQTT: inconsistency and cost per keepalive interval (hand-written experiment)"
    }

    fn tags(&self) -> Vec<String> {
        vec!["example".into(), "mqtt".into()]
    }

    fn run(&self, _options: &ExperimentOptions) -> ExperimentOutput {
        let scenario = mqtt_keepalive();
        let sweep = Sweep::logarithmic("keepalive interval T (s)", 5.0, 120.0, 10);
        let mut set = SeriesSet::new(
            "MQTT keepalive tuning: integrated cost per protocol",
            sweep.parameter.clone(),
            "integrated cost",
        );
        for protocol in [ProtocolSpec::SS, ProtocolSpec::SS_ER, ProtocolSpec::HS] {
            let mut series = Series::new(protocol.label());
            for &t in &sweep.values {
                let params = scenario.params.with_refresh_timer_scaled_timeout(t);
                let s = SingleHopModel::new(protocol, params)
                    .expect("valid parameters")
                    .solve()
                    .expect("solvable chain");
                series.push(Point::new(
                    t,
                    s.integrated_cost(scenario.inconsistency_weight),
                ));
            }
            set.push(series);
        }
        ExperimentOutput::Figure(set)
    }
}

fn main() {
    let mut registry = Registry::with_builtins();

    // One line of registration for the hand-written experiment...
    registry.register(KeepaliveTuning).expect("name is free");

    // ...and ~10 lines of declarative composition for a sweep figure.
    registry
        .register(
            ExperimentSpec::new(
                "mqtt-loss-sensitivity",
                "MQTT: inconsistency vs loss rate of the keepalive channel",
            )
            .scenario(mqtt_keepalive())
            .protocols(&[ProtocolSpec::SS, ProtocolSpec::SS_RT, ProtocolSpec::HS])
            .sweep(Sweep::loss_rate(), SweepTarget::LossRate)
            .metric(Metric::Inconsistency)
            .tag("example")
            .tag("mqtt"),
        )
        .expect("name is free");

    println!(
        "registry holds {} experiments ({} tagged 'mqtt'):\n",
        registry.len(),
        registry.with_tag("mqtt").len()
    );

    let options = ExperimentOptions::quick();
    for name in ["mqtt-keepalive-tuning", "mqtt-loss-sensitivity"] {
        let exp = registry.get(name).expect("registered above");
        println!("== {} — {} ==", exp.name(), exp.description());
        println!("{}", exp.run(&options).to_text());
    }

    // The paper's figures still resolve by name right next to ours.
    let fig4a = registry
        .run("fig4a", &options)
        .expect("built-in experiment");
    println!(
        "(and fig4a still runs through the same registry: {} series)",
        fig4a.as_figure().expect("figure").series.len()
    );
}
