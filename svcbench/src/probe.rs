//! The probe pass: after a traced round, re-time the public sub-calls
//! behind each provider call on the exact inputs the round used (the
//! recorded keys and the archived snapshots), to split the provider
//! spans into layers. Also checks every traced fan's plan.

use crate::timed::{SpanName, Timed};
use hypersafe_core::{
    check_disjoint_delivery, route_disjoint, source_decision_tb, MultipathResult, TieBreak,
};
use hypersafe_topology::{FaultConfig, NodeId};
use std::hint::black_box;
use std::time::Instant;

/// Per-layer figures measured by re-timing.
#[derive(Clone, Debug, Default)]
pub struct Probes {
    /// Mean `SafetyService::snapshot` cost per provider request call.
    pub epoch_load_ns: f64,
    /// Mean `source_decision_tb` cost per attempt on its snapshot.
    pub source_decision_ns: f64,
    /// `SafetyState::clone` cost, one sample per publication.
    pub epoch_clone_ns: Vec<u64>,
    /// `apply_fault` / `apply_recover` cost, one per publication.
    pub apply_ns: Vec<u64>,
    /// `DeltaStats` summed over the round's publications.
    pub cells_touched: u64,
    /// Cells whose level changed, summed.
    pub cells_changed: u64,
    /// Propagation waves, summed.
    pub waves: u64,
    /// `route_disjoint` cost of fans that kept the classic fan.
    pub fan_only_ns: Vec<u64>,
    /// `route_disjoint` cost of fans that ran the max-flow reroute.
    pub rerouted_ns: Vec<u64>,
    /// Paths requested, summed over fans.
    pub requested: u64,
    /// Paths accepted straight from the fan, summed.
    pub fan_accepted: u64,
    /// Planned copies minus copies that survived live validation.
    pub copies_lost_live: u64,
    /// Probe-pass check failures.
    pub failures: Vec<String>,
}

/// Runs the probe pass over the traced round held by `p`.
pub fn run(p: &Timed) -> Probes {
    let tr = p.trace().expect("probes need a traced round");
    let mut out = Probes::default();

    // Request path: snapshot load, then the C1-C3 source decision.
    let requests: Vec<_> = tr
        .spans
        .iter()
        .filter(|s| matches!(s.name, SpanName::Attempt | SpanName::AttemptRedundant))
        .collect();
    if !requests.is_empty() {
        let t = Instant::now();
        for _ in &requests {
            black_box(p.inner().snapshot());
        }
        out.epoch_load_ns = t.elapsed().as_nanos() as f64 / requests.len() as f64;
    }
    let attempts: Vec<_> = requests
        .iter()
        .filter(|s| s.name == SpanName::Attempt)
        .map(|s| {
            (
                &tr.snapshot_at(s.epoch).map,
                NodeId::new(s.src),
                NodeId::new(s.dst),
            )
        })
        .collect();
    if !attempts.is_empty() {
        let t = Instant::now();
        for &(map, s, d) in &attempts {
            black_box(source_decision_tb(map, s, d, TieBreak::LowestDim));
        }
        out.source_decision_ns = t.elapsed().as_nanos() as f64 / attempts.len() as f64;
    }

    // Write path: clone the parent epoch, then fold the churn event in.
    for pubn in &tr.publications {
        let parent = tr.snapshot_at(pubn.epoch - 1);
        let t = Instant::now();
        let mut next = black_box(parent.clone());
        out.epoch_clone_ns.push(t.elapsed().as_nanos() as u64);
        if pubn.fault {
            next.cfg.node_faults_mut().insert(pubn.node);
        } else {
            next.cfg.node_faults_mut().remove(pubn.node);
        }
        let t = Instant::now();
        let stats = if pubn.fault {
            next.map.apply_fault(&next.cfg, pubn.node)
        } else {
            next.map.apply_recover(&next.cfg, pubn.node)
        };
        out.apply_ns.push(t.elapsed().as_nanos() as u64);
        out.cells_touched += stats.cells_touched;
        out.cells_changed += stats.cells_changed;
        out.waves += u64::from(stats.waves);
        if next.map.store() != tr.snapshot_at(pubn.epoch).map.store() {
            out.failures.push(format!(
                "probe of epoch {} does not reproduce the published map",
                pubn.epoch
            ));
        }
    }

    // Multi-path: re-plan every fan on its snapshot and check it.
    for s in tr.spans_named(SpanName::AttemptRedundant) {
        let snap = tr.snapshot_at(s.epoch);
        let (src, dst) = (NodeId::new(s.src), NodeId::new(s.dst));
        let n = snap.cfg.cube().dim();
        let t = Instant::now();
        let plan = black_box(route_disjoint(&snap.cfg, &snap.map, src, dst, n));
        let ns = t.elapsed().as_nanos() as u64;
        if plan.rerouted {
            out.rerouted_ns.push(ns);
        } else {
            out.fan_only_ns.push(ns);
        }
        out.requested += u64::from(plan.requested);
        out.fan_accepted += u64::from(plan.fan_accepted);
        check_fan(&snap.cfg, src, dst, s.req, s.aux, &plan, &mut out);
    }
    out
}

/// The traced-fan gate: the plan passes `check_disjoint_delivery`,
/// stays within `min(k, n)`, and live validation only ever drops copies.
fn check_fan(
    cfg: &FaultConfig,
    src: NodeId,
    dst: NodeId,
    req: u64,
    delivered: u32,
    plan: &MultipathResult,
    out: &mut Probes,
) {
    let n = usize::from(cfg.cube().dim());
    let planned = plan.delivered();
    if let Err(e) = check_disjoint_delivery(cfg, src, dst, plan) {
        out.failures.push(format!("fan {req}: {e}"));
    }
    if planned > usize::from(plan.requested).min(n) {
        out.failures
            .push(format!("fan {req}: {planned} paths exceed min(k, n)"));
    }
    match planned.checked_sub(delivered as usize) {
        Some(lost) => out.copies_lost_live += lost as u64,
        None => out.failures.push(format!(
            "fan {req}: {delivered} copies delivered but only {planned} planned"
        )),
    }
}
