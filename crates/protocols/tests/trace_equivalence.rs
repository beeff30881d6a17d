//! Tracing is observation only: a traced session returns exactly the metrics
//! of an untraced one, and the rendered trace text is pinned byte for byte.

use siganalytic::{ProtocolSpec, SingleHopParams};
use sigproto::{SessionConfig, SingleHopSession};
use simcore::SimRng;

/// FNV-1a over the rendered trace; any change in one byte moves it.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn params() -> SingleHopParams {
    SingleHopParams::kazaa_defaults().with_mean_lifetime(300.0)
}

#[test]
fn traced_and_untraced_runs_return_equal_metrics_for_every_coherent_spec() {
    let specs: Vec<ProtocolSpec> = ProtocolSpec::enumerate_all("spec")
        .into_iter()
        .filter(|s| s.validate().is_ok())
        .collect();
    assert_eq!(specs.len(), 33);
    for spec in specs {
        for cfg in [
            SessionConfig::deterministic(spec, params()),
            SessionConfig::exponential(spec, params()),
        ] {
            for seed in [1, 2003] {
                let plain = SingleHopSession::run(&cfg, &mut SimRng::new(seed));
                // A small cap also exercises the dropped-entry path.
                for cap in [16, 100_000] {
                    let (traced, trace) =
                        SingleHopSession::run_traced(&cfg, &mut SimRng::new(seed), cap);
                    assert_eq!(plain, traced, "spec {spec:?} seed {seed} cap {cap}");
                    assert!(!trace.entries().is_empty());
                }
            }
        }
    }
}

#[test]
fn rendered_trace_text_is_pinned() {
    // Kazaa defaults at seed 7: 157 entries, among them sends, receives,
    // three drops and the sender's local removal.
    let cfg = SessionConfig::deterministic(ProtocolSpec::SS_ER, SingleHopParams::kazaa_defaults());
    let (_, trace) = SingleHopSession::run_traced(&cfg, &mut SimRng::new(7), 100_000);
    let text = trace.render();
    assert_eq!(trace.dropped(), 0);
    assert_eq!(
        (text.lines().count(), fnv1a(text.as_bytes())),
        (157, 0x008b_6db7_d2f1_45c2),
        "rendered trace:\n{text}"
    );
}
