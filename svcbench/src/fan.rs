//! The fan workload's replay loop: replays an injection list in arrival
//! order, turning each submit into one `attempt_redundant(s, d, k = n)`
//! and each churn event into `apply_churn`, then `publish_next` +
//! `check_invariants` once the publish lag has passed. Cancels are
//! ignored. Generic over the provider, so a bare `SafetyService` and
//! the timing decorator run the very same loop.
//!
//! `attempt_redundant` plans on the published snapshot, and a source
//! that recovered since that snapshot is still faulty there, so the
//! plan is empty. Like the service's `Stale` rung, such a request waits
//! for the pending epoch and is attempted again right after it is
//! published; its latency includes the wait.

use crate::digest::{fnv1a, Digest, FNV_BASIS};
use hypersafe_simkit::event::Time;
use hypersafe_simkit::service::{Injection, RedundantOutcome, RouteProvider};
use hypersafe_topology::{FaultConfig, NodeId};
use std::collections::VecDeque;

/// A fan request: its id, arrival tick and endpoints.
#[derive(Clone, Copy)]
struct Request {
    id: u64,
    at: Time,
    src: NodeId,
    dst: NodeId,
}

struct Replay<'a, P> {
    p: &'a mut P,
    n: u8,
    /// The live fault set, mirrored from the churn events applied.
    live: FaultConfig,
    /// Applied churn events awaiting publication: (due tick, node, fault).
    due: VecDeque<(Time, NodeId, bool)>,
    /// Requests refused by a stale snapshot, waiting for the next epoch.
    waiting: Vec<Request>,
    d: Digest,
    churn_applied: u64,
    churn_skipped: u64,
    epochs: u64,
    stale_retries: u64,
    zero_copy: u64,
    violations: u64,
}

impl<P: RouteProvider> Replay<'_, P> {
    /// Whether `a` recovered in the live set but the snapshot still has
    /// it faulty.
    fn recovery_pending(&self, a: NodeId) -> bool {
        self.due.iter().any(|&(_, node, fault)| node == a && !fault)
    }

    /// Attempts `r` at tick `now` and records its outcome.
    fn attempt(&mut self, r: Request, now: Time) {
        let out = self.p.attempt_redundant(r.src, r.dst, self.n);
        let healthy = !self.live.node_faulty(r.src) && !self.live.node_faulty(r.dst);
        if out.delivered_paths == 0
            && healthy
            && (self.recovery_pending(r.src) || self.recovery_pending(r.dst))
        {
            self.stale_retries += 1;
            self.waiting.push(r);
            return;
        }
        self.record(r, now, out, healthy);
    }

    fn record(&mut self, r: Request, now: Time, out: RedundantOutcome, healthy: bool) {
        let d = &mut self.d;
        d.terminals += 1;
        d.checksum = fnv1a(d.checksum, r.id << 8 | u64::from(out.delivered_paths));
        d.checksum = fnv1a(d.checksum, u64::from(out.best_hops) << 32 | out.epoch);
        d.checksum = fnv1a(d.checksum, u64::from(out.total_hops) << 32 | (now - r.at));
        if out.delivered_paths > u32::from(self.n) {
            d.fail(format!(
                "fan {}: {} copies exceed k = n = {}",
                r.id, out.delivered_paths, self.n
            ));
        }
        if out.delivered_paths > 0 {
            d.delivered += 1;
            d.copies += u64::from(out.delivered_paths);
            d.hops += u64::from(out.total_hops);
            d.lat_ticks.push(now - r.at + u64::from(out.best_hops));
        } else if healthy {
            self.zero_copy += 1;
            d.fail(format!(
                "fan {}: no copy between healthy {} and {}",
                r.id, r.src, r.dst
            ));
        }
    }

    /// Publishes every pending epoch due strictly before `t`, auditing
    /// each one and retrying the requests that waited for it.
    fn publish_due(&mut self, t: Time) {
        while let Some(&(at, _, _)) = self.due.front().filter(|&&(at, _, _)| at < t) {
            self.due.pop_front();
            self.d.events += 1;
            if let Some(epoch) = self.p.publish_next() {
                self.epochs += 1;
                if let Err(v) = self.p.check_invariants() {
                    self.violations += 1;
                    self.d
                        .fail(format!("invariant violation after epoch {epoch}: {v}"));
                }
            }
            for r in std::mem::take(&mut self.waiting) {
                self.attempt(r, at);
            }
        }
    }
}

/// Runs `body` against `p`, whose live fault set starts as `live`.
pub fn run<P: RouteProvider>(
    p: &mut P,
    live: &FaultConfig,
    body: &[Injection],
    publish_lag: Time,
) -> Digest {
    let mut drv = Replay {
        p,
        n: live.cube().dim(),
        live: live.clone(),
        due: VecDeque::new(),
        waiting: Vec::new(),
        d: Digest {
            checksum: FNV_BASIS,
            ..Digest::default()
        },
        churn_applied: 0,
        churn_skipped: 0,
        epochs: 0,
        stale_retries: 0,
        zero_copy: 0,
        violations: 0,
    };
    for inj in body {
        match *inj {
            Injection::Submit { at, src, dst, .. } => {
                drv.publish_due(at);
                drv.d.events += 1;
                let id = drv.d.submitted;
                drv.d.submitted += 1;
                drv.attempt(Request { id, at, src, dst }, at);
            }
            Injection::Churn { at, node, fault } => {
                drv.publish_due(at);
                drv.d.events += 1;
                if drv.p.apply_churn(node, fault) {
                    drv.churn_applied += 1;
                    if fault {
                        drv.live.node_faults_mut().insert(node);
                    } else {
                        drv.live.node_faults_mut().remove(node);
                    }
                    drv.due.push_back((at + publish_lag, node, fault));
                } else {
                    drv.churn_skipped += 1;
                }
            }
            Injection::Cancel { .. } => {}
        }
    }
    drv.publish_due(Time::MAX);
    for r in std::mem::take(&mut drv.waiting) {
        drv.d
            .fail(format!("fan {}: still waiting at end of run", r.id));
    }
    if let Err(v) = drv.p.check_invariants() {
        drv.violations += 1;
        drv.d
            .fail(format!("invariant violation at end of run: {v}"));
    }
    let mut d = drv.d;
    d.render = format!(
        "fans={} delivered={} copies={} hops={} zero_copy={} stale_retries={} \
         churn_applied={} churn_skipped={} epochs={} violations={}\n",
        d.submitted,
        d.delivered,
        d.copies,
        d.hops,
        drv.zero_copy,
        drv.stale_retries,
        drv.churn_applied,
        drv.churn_skipped,
        drv.epochs,
        drv.violations,
    );
    d
}
