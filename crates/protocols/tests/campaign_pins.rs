//! Exact single-hop campaign outputs, pinned.
//!
//! Every paper protocol at two Fig 11/12 points, under deterministic and
//! exponential timers, 40 replications each at seed 2003.  Deterministic
//! timers re-arm at fixed delays and exponential ones at a fresh draw each
//! time, so between them the pins cover every way a session restarts its
//! timers.  Any change to the event order of a session — which event the
//! queue delivers first, or which RNG draw a handler sees — moves at least
//! one of these numbers.

use siganalytic::{ProtocolSpec, SingleHopParams};
use sigproto::{Campaign, CampaignResult, SessionConfig};

const REPLICATIONS: usize = 40;
const SEED: u64 = 2003;

/// What one campaign is pinned by: messages by kind (trigger, refresh,
/// removal, trigger ACK, refresh ACK, removal ACK, removal notice, external
/// signal), false removals, the regenerative inconsistency estimate and its
/// 95% half-width, and the mean and deviation of the per-session ratios.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pin {
    messages: [u64; 8],
    false_removals: u64,
    inconsistency: [f64; 2],
    per_session: [f64; 2],
}

impl Pin {
    fn of(result: &CampaignResult) -> Self {
        let m = result.messages;
        Pin {
            messages: [
                m.trigger,
                m.refresh,
                m.removal,
                m.trigger_ack,
                m.refresh_ack,
                m.removal_ack,
                m.removal_notice,
                m.external_signal,
            ],
            false_removals: result.false_removals,
            inconsistency: [
                result.inconsistency.mean,
                result.inconsistency.ci95_half_width,
            ],
            per_session: [
                result.per_session_inconsistency.mean,
                result.per_session_inconsistency.std_dev,
            ],
        }
    }
}

/// The two points: Fig 11's Kazaa peer with a 300 s mean lifetime, and
/// Fig 12's left end, the 600 s-lifetime Kazaa peer refreshing every 0.5 s
/// (timeout 1.5 s).
fn points() -> [(&'static str, SingleHopParams); 2] {
    [
        (
            "kazaa-300s",
            SingleHopParams::kazaa_defaults().with_mean_lifetime(300.0),
        ),
        (
            "kazaa-600s-T0.5",
            SingleHopParams::kazaa_defaults()
                .with_mean_lifetime(600.0)
                .with_refresh_timer_scaled_timeout(0.5),
        ),
    ]
}

/// `(label, pin)` of every campaign, in a fixed order.
fn observed() -> Vec<(String, Pin)> {
    let mut rows = Vec::new();
    for (point, params) in points() {
        for spec in ProtocolSpec::PAPER {
            for (mode, cfg) in [
                ("det", SessionConfig::deterministic(spec, params)),
                ("exp", SessionConfig::exponential(spec, params)),
            ] {
                let result = Campaign::new(cfg, REPLICATIONS, SEED).run();
                assert_eq!(result.replications, REPLICATIONS);
                rows.push((format!("{point}/{}/{mode}", spec.label()), Pin::of(&result)));
            }
        }
    }
    rows
}

/// Renders rows in the source form of [`PINNED`], so a deliberate change
/// to the session engine can re-pin by pasting the failure message.
fn render(rows: &[(String, Pin)]) -> String {
    rows.iter()
        .map(|(label, p)| {
            format!(
                "    (\"{label}\", Pin {{ messages: {:?}, false_removals: {}, \
                 inconsistency: [{:?}, {:?}], per_session: [{:?}, {:?}] }}),\n",
                p.messages,
                p.false_removals,
                p.inconsistency[0],
                p.inconsistency[1],
                p.per_session[0],
                p.per_session[1],
            )
        })
        .collect()
}

#[rustfmt::skip]
const PINNED: &[(&str, Pin)] = &[
    ("kazaa-300s/SS/det", Pin { messages: [538, 2731, 0, 0, 0, 0, 0, 0], false_removals: 2, inconsistency: [0.03515296988636131, 0.008305821249271386], per_session: [0.0714360709951654, 0.07102144046458965] }),
    ("kazaa-300s/SS/exp", Pin { messages: [328, 1853, 0, 0, 0, 0, 0, 0], false_removals: 522, inconsistency: [0.28389600759275196, 0.031986880455671524], per_session: [0.310985545171848, 0.15211211003161734] }),
    ("kazaa-300s/SS+ER/det", Pin { messages: [538, 2731, 40, 0, 0, 0, 0, 0], false_removals: 2, inconsistency: [0.006499273850545489, 0.003243525304064809], per_session: [0.005533478870757812, 0.008784124587841764] }),
    ("kazaa-300s/SS+ER/exp", Pin { messages: [328, 1853, 40, 0, 0, 0, 0, 0], false_removals: 522, inconsistency: [0.24765647281709927, 0.029045683627174163], per_session: [0.23623720117089836, 0.13886001144748958] }),
    ("kazaa-300s/SS+RT/det", Pin { messages: [569, 2760, 0, 557, 0, 0, 1, 0], false_removals: 1, inconsistency: [0.032969997988420895, 0.008302729122978261], per_session: [0.07104067233589191, 0.07569823860051562] }),
    ("kazaa-300s/SS+RT/exp", Pin { messages: [2734, 2559, 0, 2680, 0, 0, 845, 0], false_removals: 845, inconsistency: [0.04909193549283324, 0.015894817239660335], per_session: [0.09744318374294067, 0.11290900671247994] }),
    ("kazaa-300s/SS+RTR/det", Pin { messages: [569, 2760, 41, 557, 0, 40, 1, 0], false_removals: 1, inconsistency: [0.0012042246885186222, 0.00010557043546161057], per_session: [0.0015111146515566724, 0.0006973008655252766] }),
    ("kazaa-300s/SS+RTR/exp", Pin { messages: [2734, 2559, 62, 2680, 0, 37, 845, 0], false_removals: 845, inconsistency: [0.013601068267407406, 0.0051155940286716686], per_session: [0.011807123716530237, 0.011595914376207174] }),
    ("kazaa-300s/HS/det", Pin { messages: [602, 0, 41, 591, 0, 40, 2, 2], false_removals: 2, inconsistency: [0.0012850973495456218, 0.00011458409398157369], per_session: [0.001569148872315014, 0.000632566636352402] }),
    ("kazaa-300s/HS/exp", Pin { messages: [716, 0, 65, 700, 0, 40, 1, 1], false_removals: 1, inconsistency: [0.0012861484336177556, 0.00018540347183374756], per_session: [0.0023191835321263988, 0.003946278399778592] }),
    ("kazaa-600s-T0.5/SS/det", Pin { messages: [1046, 59631, 0, 0, 0, 0, 0, 0], false_removals: 23, inconsistency: [0.003170201185531813, 0.0005036864415596834], per_session: [0.0056755732717167105, 0.005281782803765439] }),
    ("kazaa-600s-T0.5/SS/exp", Pin { messages: [673, 38478, 0, 0, 0, 0, 0, 0], false_removals: 9499, inconsistency: [0.25481784223418164, 0.005252465364945291], per_session: [0.25337773934909896, 0.03190409622475629] }),
    ("kazaa-600s-T0.5/SS+ER/det", Pin { messages: [1046, 59631, 40, 0, 0, 0, 0, 0], false_removals: 23, inconsistency: [0.0015856031863897171, 0.00025655737703149525], per_session: [0.0016320836679215834, 0.0007394444902027772] }),
    ("kazaa-600s-T0.5/SS+ER/exp", Pin { messages: [673, 38478, 40, 0, 0, 0, 0, 0], false_removals: 9499, inconsistency: [0.2535386039413417, 0.005052188144735183], per_session: [0.24993296124227493, 0.031787330299996655] }),
    ("kazaa-600s-T0.5/SS+RT/det", Pin { messages: [1090, 59625, 0, 1071, 0, 0, 27, 0], false_removals: 27, inconsistency: [0.002717814493195485, 0.0004564226457241827], per_session: [0.005312126775652767, 0.005567956606533429] }),
    ("kazaa-600s-T0.5/SS+RT/exp", Pin { messages: [34442, 50716, 0, 33775, 0, 0, 16039, 0], false_removals: 16039, inconsistency: [0.0459934880736805, 0.0012764520305681172], per_session: [0.05043192733725394, 0.013153866048060112] }),
    ("kazaa-600s-T0.5/SS+RTR/det", Pin { messages: [1090, 59625, 40, 1071, 0, 40, 27, 0], false_removals: 27, inconsistency: [0.001091848615244452, 7.244477635501394e-5], per_session: [0.001204856926353873, 0.00030253436134727895] }),
    ("kazaa-600s-T0.5/SS+RTR/exp", Pin { messages: [34442, 50716, 58, 33775, 0, 38, 16039, 0], false_removals: 16039, inconsistency: [0.04313040280412522, 0.0010077329619789745], per_session: [0.04339918567730871, 0.004724536381414485] }),
    ("kazaa-600s-T0.5/HS/det", Pin { messages: [1152, 0, 41, 1132, 0, 40, 2, 2], false_removals: 2, inconsistency: [0.0011901056974391194, 7.274445551370139e-5], per_session: [0.0013093925371063006, 0.0002902831395407043] }),
    ("kazaa-600s-T0.5/HS/exp", Pin { messages: [1353, 0, 68, 1326, 0, 40, 2, 2], false_removals: 2, inconsistency: [0.0011870551196862492, 0.0001440218809880148], per_session: [0.0018701538375975033, 0.002724796049458267] }),
];

#[test]
fn campaign_outputs_are_pinned() {
    let rows = observed();
    let pinned: Vec<(String, Pin)> = PINNED
        .iter()
        .map(|&(label, pin)| (label.to_string(), pin))
        .collect();
    assert!(
        rows == pinned,
        "campaign outputs moved; observed:\n{}",
        render(&rows)
    );
}
