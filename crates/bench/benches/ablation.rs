//! Ablation study: which individual mechanism buys how much?
//!
//! The paper's conclusion is that *explicit removal* is the mechanism that
//! buys the most consistency for the least overhead, with reliable
//! triggers/removal closing the remaining gap to hard state.  This bench
//! makes that concrete by toggling one mechanism at a time along the
//! SS → SS+ER → SS+RTR spectrum and along SS → SS+RT, at the Kazaa defaults
//! and at a short-session / lossy operating point, and by sweeping the
//! timeout-to-refresh ratio the paper discusses around Figure 8(a).

use criterion::{black_box, Criterion};
use siganalytic::single_hop::transitions::{protocol_transitions, RateEntry, RateTable};
use siganalytic::single_hop::SingleHopState;
use signaling::{
    Campaign, ExecutionPolicy, ProtocolSpec, SessionConfig, SingleHopModel, SingleHopParams,
};
use signet::LossModel;

fn solve(protocol: ProtocolSpec, params: SingleHopParams) -> (f64, f64) {
    let s = SingleHopModel::new(protocol, params)
        .expect("valid params")
        .solve()
        .expect("solvable");
    (s.inconsistency, s.normalized_message_rate)
}

fn print_mechanism_ablation(label: &str, params: SingleHopParams) {
    println!("== Ablation: mechanism contributions ({label}) ==");
    println!(
        "{:<44} {:>14} {:>14}",
        "configuration", "inconsistency", "msg rate M"
    );
    let steps: [(&str, ProtocolSpec); 5] = [
        ("baseline: pure soft state (SS)", ProtocolSpec::SS),
        ("+ explicit removal (SS+ER)", ProtocolSpec::SS_ER),
        ("+ reliable triggers only (SS+RT)", ProtocolSpec::SS_RT),
        (
            "+ reliable trigger & removal (SS+RTR)",
            ProtocolSpec::SS_RTR,
        ),
        ("hard state, no refresh/timeout (HS)", ProtocolSpec::HS),
    ];
    let (base_i, base_m) = solve(ProtocolSpec::SS, params);
    for (name, protocol) in steps {
        let (i, m) = solve(protocol, params);
        println!(
            "{:<44} {:>14.6} {:>14.6}   (I x{:.2}, M x{:.2} vs SS)",
            name,
            i,
            m,
            i / base_i,
            m / base_m
        );
    }
    println!();
}

fn print_timeout_ratio_ablation() {
    println!("== Ablation: state-timeout / refresh-timer ratio (T = 5 s) ==");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12}",
        "tau/T", "SS", "SS+ER", "SS+RT", "SS+RTR"
    );
    for ratio in [1.0f64, 1.5, 2.0, 3.0, 5.0, 10.0] {
        let mut params = SingleHopParams::kazaa_defaults();
        params.timeout_timer = ratio * params.refresh_timer;
        let row: Vec<f64> = [
            ProtocolSpec::SS,
            ProtocolSpec::SS_ER,
            ProtocolSpec::SS_RT,
            ProtocolSpec::SS_RTR,
        ]
        .iter()
        .map(|p| solve(*p, params).0)
        .collect();
        println!(
            "{:<10} {:>12.6} {:>12.6} {:>12.6} {:>12.6}",
            ratio, row[0], row[1], row[2], row[3]
        );
    }
    println!();
}

fn print_burst_loss_ablation() {
    // Same 20% mean loss, delivered either independently or in Gilbert-
    // Elliott bursts (mean burst ≈ 6-7 packets at 80% in-burst loss).
    // Simulated with deterministic timers, 120 sessions per cell.
    println!("== Ablation: independent vs bursty loss (mean loss 20%) ==");
    println!(
        "{:<8} {:>16} {:>16} {:>10}",
        "protocol", "I (independent)", "I (bursty)", "ratio"
    );
    let mut params = SingleHopParams::kazaa_defaults().with_mean_lifetime(600.0);
    params.loss = 0.2;
    let bursty_model = LossModel::GilbertElliott {
        p_good: 0.0,
        p_bad: 0.8,
        p_g2b: 0.05,
        p_b2g: 0.15,
    };
    for protocol in ProtocolSpec::PAPER {
        let independent = Campaign::new(SessionConfig::deterministic(protocol, params), 120, 7)
            .execution(ExecutionPolicy::auto())
            .run()
            .inconsistency
            .mean;
        let bursty = Campaign::new(
            SessionConfig::deterministic(protocol, params).with_loss_model(bursty_model),
            120,
            7,
        )
        .execution(ExecutionPolicy::auto())
        .run()
        .inconsistency
        .mean;
        println!(
            "{:<8} {:>16.5} {:>16.5} {:>10.2}",
            protocol.label(),
            independent,
            bursty,
            bursty / independent.max(1e-12)
        );
    }
    println!();
}

/// The five paper protocols as a closed enum, the shape the protocol layer
/// had before mechanism composition; the spec-dispatch ablation races a
/// `match` on it against the [`ProtocolSpec`] path.
#[derive(Debug, Clone, Copy)]
enum PaperProtocol {
    Ss,
    SsEr,
    SsRt,
    SsRtr,
    Hs,
}

impl PaperProtocol {
    const ALL: [PaperProtocol; 5] = [
        PaperProtocol::Ss,
        PaperProtocol::SsEr,
        PaperProtocol::SsRt,
        PaperProtocol::SsRtr,
        PaperProtocol::Hs,
    ];

    fn spec(self) -> ProtocolSpec {
        match self {
            PaperProtocol::Ss => ProtocolSpec::SS,
            PaperProtocol::SsEr => ProtocolSpec::SS_ER,
            PaperProtocol::SsRt => ProtocolSpec::SS_RT,
            PaperProtocol::SsRtr => ProtocolSpec::SS_RTR,
            PaperProtocol::Hs => ProtocolSpec::HS,
        }
    }
}

/// The pre-redesign transition builder: one `match` arm per protocol,
/// transcribed from the closed-enum implementation this bench compares the
/// mechanism-driven dispatch against.  Kept here (not in the library) so the
/// spec-dispatch ablation has a faithful baseline to race and to
/// equality-check.
fn enum_match_transitions(protocol: PaperProtocol, p: &SingleHopParams) -> RateTable {
    use PaperProtocol::{Hs, Ss, SsEr, SsRt, SsRtr};
    use SingleHopState::*;
    let mut entries: Vec<RateEntry> = Vec::new();
    let mut push = |from: SingleHopState, to: SingleHopState, rate: f64| {
        if rate > 0.0 {
            entries.push(RateEntry { from, to, rate });
        }
    };

    let success = 1.0 - p.loss;
    let fast_delivery = success / p.delay;
    let fast_loss = p.loss / p.delay;
    let slow_repair = match protocol {
        Ss | SsEr => success / p.refresh_timer,
        SsRt | SsRtr => (1.0 / p.refresh_timer + 1.0 / p.retrans_timer) * success,
        Hs => success / p.retrans_timer,
    };
    let lambda_f = match protocol {
        Hs => p.false_signal_rate,
        _ => p.false_removal_rate(),
    };

    push(Setup1, Consistent, fast_delivery);
    push(Setup1, Setup2, fast_loss);
    push(Diff1, Consistent, fast_delivery);
    push(Diff1, Diff2, fast_loss);
    push(Setup2, Consistent, slow_repair);
    push(Diff2, Consistent, slow_repair);
    push(Consistent, Diff1, p.update_rate);
    push(Setup2, Setup1, p.update_rate);
    push(Diff2, Diff1, p.update_rate);
    push(Setup2, Absorbed, p.removal_rate);
    push(Consistent, Removing1, p.removal_rate);
    push(Diff2, Removing1, p.removal_rate);
    push(Consistent, Setup2, lambda_f);
    push(Diff2, Setup2, lambda_f);

    let removal_delivery = match protocol {
        SsEr | SsRtr | Hs => success / p.delay,
        Ss | SsRt => 1.0 / p.timeout_timer,
    };
    push(Removing1, Absorbed, removal_delivery);
    match protocol {
        Ss | SsRt => {}
        SsEr => {
            push(Removing1, Removing2, fast_loss);
            push(Removing2, Absorbed, 1.0 / p.timeout_timer);
        }
        SsRtr => {
            push(Removing1, Removing2, fast_loss);
            push(
                Removing2,
                Absorbed,
                1.0 / p.timeout_timer + success / p.retrans_timer,
            );
        }
        Hs => {
            push(Removing1, Removing2, fast_loss);
            push(Removing2, Absorbed, success / p.retrans_timer);
        }
    }

    RateTable {
        protocol: protocol.spec(),
        entries,
    }
}

fn print_spec_dispatch_ablation(params: &SingleHopParams) {
    println!("== Ablation: enum-match vs mechanism-derived transition dispatch ==");
    // The two dispatch styles must agree bit for bit on every preset before
    // their timing comparison means anything.
    for protocol in PaperProtocol::ALL {
        let via_enum = enum_match_transitions(protocol, params);
        let via_spec = protocol_transitions(protocol.spec(), params);
        assert_eq!(
            via_enum, via_spec,
            "{protocol:?}: spec-derived table diverged from the enum baseline"
        );
    }
    println!("   all 5 preset transition tables bit-identical across dispatch styles\n");
}

fn main() {
    print_mechanism_ablation(
        "Kazaa defaults, 1800 s sessions",
        SingleHopParams::kazaa_defaults(),
    );
    print_mechanism_ablation("short sessions (120 s), 10% loss", {
        let mut p = SingleHopParams::kazaa_defaults().with_mean_lifetime(120.0);
        p.loss = 0.10;
        p
    });
    print_timeout_ratio_ablation();
    print_burst_loss_ablation();
    let params = SingleHopParams::kazaa_defaults();
    print_spec_dispatch_ablation(&params);

    let mut c = Criterion::default().configure_from_args();
    c.bench_function("ablation/mechanism_table", |b| {
        b.iter(|| {
            for protocol in ProtocolSpec::PAPER {
                black_box(solve(protocol, black_box(params)));
            }
        })
    });
    // Spec-dispatch ablation: building all five presets' transition tables
    // through the closed-enum match vs. the mechanism-composition path, so
    // the BENCH_COMPARE_DIR gate catches regressions in protocol dispatch.
    c.bench_function("ablation/dispatch/enum_match", |b| {
        b.iter(|| {
            for protocol in PaperProtocol::ALL {
                black_box(enum_match_transitions(protocol, black_box(&params)));
            }
        })
    });
    c.bench_function("ablation/dispatch/mechanism_spec", |b| {
        b.iter(|| {
            for protocol in ProtocolSpec::PAPER {
                black_box(protocol_transitions(protocol, black_box(&params)));
            }
        })
    });
    c.final_summary();
}
