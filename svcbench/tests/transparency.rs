//! The timing decorator must be invisible to the program: on a small
//! shape of each workload, a bare `SafetyService`, the untraced
//! decorator and the traced decorator produce byte-identical
//! `ServiceStats::render()` output (or fan summary), terminal-state
//! checksums, event counts and provider-side counts.

use hypersafe_core::SafetyService;
use hypersafe_simkit::service::{Injection, RoutingService};
use hypersafe_svcbench::digest::{self, Digest};
use hypersafe_svcbench::timed::SpanName;
use hypersafe_svcbench::workload::{self, service_config, Inputs, Kind, Shape};
use hypersafe_svcbench::{fan, probe, round};
use hypersafe_topology::FaultConfig;

/// Each workload shrunk to run in well under a second in debug builds.
fn small_shapes() -> Vec<Shape> {
    workload::WORKLOADS
        .iter()
        .map(|w| {
            let (n, requests) = match w.name {
                "route_n12" => (8, 3_000),
                "churn_n18" => (10, 300),
                _ => (8, 400),
            };
            Shape { n, requests, ..*w }
        })
        .collect()
}

fn bare(inputs: &Inputs) -> Digest {
    let (mut d, svc) = match inputs.shape.kind {
        Kind::Service => {
            let cfg = FaultConfig::fault_free(inputs.cube());
            let mut svc = RoutingService::new(SafetyService::new(cfg), service_config());
            svc.load(&inputs.body);
            let events = svc.run();
            let d = digest::service(&svc, events);
            let placeholder = SafetyService::new(FaultConfig::fault_free(inputs.cube()));
            (d, std::mem::replace(svc.provider_mut(), placeholder))
        }
        Kind::Fan => {
            let mut warm = Digest::default();
            let mut p = round::provider(inputs, &mut warm);
            let live = p.live_cfg().clone();
            let d = fan::run(&mut p, &live, &inputs.body, service_config().publish_lag);
            assert_eq!(warm.failed, 0, "{:?}", warm.failures);
            (d, p)
        }
    };
    d.record_provider(&svc);
    d
}

#[test]
fn decorator_and_tracing_leave_every_output_byte_identical() {
    for shape in small_shapes() {
        let inputs = workload::generate(shape, 7);
        let reference = bare(&inputs);
        assert!(reference.delivered > 0, "{}: nothing delivered", shape.name);
        for traced in [false, true] {
            let r = round::run(&inputs, traced);
            assert_eq!(
                r.digest.render, reference.render,
                "{} traced={traced}",
                shape.name
            );
            assert_eq!(r.digest.checksum, reference.checksum, "{}", shape.name);
            assert_eq!(r.digest.events, reference.events, "{}", shape.name);
            assert_eq!(r.digest, reference, "{} traced={traced}", shape.name);
        }
    }
}

#[test]
fn traced_round_passes_the_probe_gate_and_cross_foots() {
    for shape in small_shapes() {
        let inputs = workload::generate(shape, 11);
        let r = round::run(&inputs, true);
        let tr = r.provider.trace().expect("traced");
        let probes = probe::run(&r.provider);
        assert!(
            probes.failures.is_empty(),
            "{}: {:?}",
            shape.name,
            probes.failures
        );
        assert_eq!(
            probes.apply_ns.len(),
            tr.publications.len(),
            "one probe per publication"
        );
        let changed: u64 = probes.cells_changed;
        let warmup = match shape.kind {
            Kind::Service => 0,
            // The warm-up publications are not in the trace.
            Kind::Fan => {
                let mut warm = Digest::default();
                round::provider(&inputs, &mut warm).cells_changed()
            }
        };
        assert_eq!(
            changed + warmup,
            r.digest.provider[2],
            "{}: probes reproduce every delta",
            shape.name
        );
        // Spans, loop self time and tracing time tile the round.
        let calls: u64 = tr.spans[1..].iter().map(|s| s.ns()).sum();
        let attributed = tr.loop_self_ns + calls + tr.tracing_ns;
        let residue = tr.wall_ns.abs_diff(attributed) as f64 / tr.wall_ns as f64;
        assert!(residue < 0.01, "{}: residue {residue}", shape.name);
        assert_eq!(tr.spans[0].name, SpanName::Run);
        for s in &tr.spans[1..] {
            assert!(s.start <= s.end && s.end <= tr.wall_ns);
            assert!((s.parent as usize) < tr.spans.len());
        }
        let fans = tr.spans_named(SpanName::AttemptRedundant).count() as u64;
        let requests = match shape.kind {
            Kind::Service => 0,
            Kind::Fan => r.digest.submitted,
        };
        assert!(fans >= requests, "{}: a span per fan attempt", shape.name);
    }
}

#[test]
fn inputs_are_a_pure_function_of_the_seed() {
    for shape in small_shapes() {
        let a = workload::generate(shape, 3);
        let b = workload::generate(shape, 3);
        let c = workload::generate(shape, 4);
        assert_eq!(a.body, b.body, "{}", shape.name);
        assert_eq!(a.warmup, b.warmup, "{}", shape.name);
        assert_ne!(a.body, c.body, "{}", shape.name);
        let submits = a
            .body
            .iter()
            .filter(|i| matches!(i, Injection::Submit { .. }))
            .count() as u64;
        assert_eq!(submits, shape.requests, "{}", shape.name);
        if shape.kind == Kind::Fan {
            assert_eq!(
                a.warmup.len(),
                usize::from(shape.n - 1),
                "n - 1 live faults"
            );
        }
    }
}
