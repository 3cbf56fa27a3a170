//! One round: set the program up from the generated inputs, run the
//! timed phase once, and digest the outcome.

use crate::digest::{self, Digest};
use crate::fan;
use crate::timed::Timed;
use crate::workload::{service_config, Inputs, Kind};
use hypersafe_core::SafetyService;
use hypersafe_simkit::service::{RouteProvider, RoutingService};
use hypersafe_topology::{FaultConfig, Hypercube};
use std::time::Instant;

/// What one round measured.
pub struct Round {
    /// Set-up time (ns), see [`setup`].
    pub setup_ns: u64,
    /// Host time of the timed phase (ns).
    pub wall_ns: u64,
    /// The deterministic outcome.
    pub digest: Digest,
    /// The decorator, with its publication costs and trace.
    pub provider: Timed,
}

/// The program, set up and ready for its timed phase. One exists per
/// round, so the variants' size difference does not matter.
#[allow(clippy::large_enum_variant)]
pub enum Prepared {
    /// A loaded routing service.
    Service(RoutingService<Timed>),
    /// A warmed-up provider for the fan loop, with its live faults
    /// and the warm-up's failures.
    Fan(Timed, FaultConfig, Digest),
}

/// Builds the bare provider a round starts from: epoch 0 (the full
/// Definition-1 compute), then for the fan every warm-up churn event
/// applied, published and audited.
pub fn provider(inputs: &Inputs, warm: &mut Digest) -> SafetyService {
    let mut svc = SafetyService::new(FaultConfig::fault_free(inputs.cube()));
    for &(node, fault) in &inputs.warmup {
        svc.apply_churn(node, fault);
        svc.publish_next();
        if let Err(v) = svc.check_invariants() {
            warm.fail(format!("warm-up invariant violation: {v}"));
        }
    }
    svc
}

/// Sets the program up: [`provider`], then for the service workloads
/// `RoutingService::load`. Returns it with the set-up time in ns.
pub fn setup(inputs: &Inputs, traced: bool) -> (Prepared, u64) {
    let t = Instant::now();
    let mut warm = Digest::default();
    let inner = provider(inputs, &mut warm);
    let prepared = match inputs.shape.kind {
        Kind::Service => {
            let mut svc = RoutingService::new(Timed::new(inner, traced), service_config());
            svc.load(&inputs.body);
            Prepared::Service(svc)
        }
        Kind::Fan => {
            let live = inner.live_cfg().clone();
            Prepared::Fan(Timed::new(inner, traced), live, warm)
        }
    };
    (prepared, t.elapsed().as_nanos() as u64)
}

/// Sets up and runs one round; `traced` records spans.
pub fn run(inputs: &Inputs, traced: bool) -> Round {
    let (prepared, setup_ns) = setup(inputs, traced);
    let (wall_ns, mut digest, provider) = match prepared {
        Prepared::Service(mut svc) => {
            svc.provider_mut().begin();
            let t = Instant::now();
            let events = svc.run();
            let wall_ns = t.elapsed().as_nanos() as u64;
            svc.provider_mut().end();
            let digest = digest::service(&svc, events);
            (wall_ns, digest, into_provider(svc))
        }
        Prepared::Fan(mut p, live, warm) => {
            p.begin();
            let t = Instant::now();
            let mut digest = fan::run(&mut p, &live, &inputs.body, service_config().publish_lag);
            let wall_ns = t.elapsed().as_nanos() as u64;
            p.end();
            digest.failed += warm.failed;
            digest.failures.extend(warm.failures);
            (wall_ns, digest, p)
        }
    };
    digest.record_provider(provider.inner());
    Round {
        setup_ns,
        wall_ns,
        digest,
        provider,
    }
}

/// Moves the decorator out of a finished service. `RoutingService`
/// lends its provider only by reference, so a placeholder over a
/// one-dimensional cube takes its place.
fn into_provider(mut svc: RoutingService<Timed>) -> Timed {
    let placeholder = SafetyService::new(FaultConfig::fault_free(Hypercube::new(1)));
    std::mem::replace(svc.provider_mut(), Timed::new(placeholder, false))
}
