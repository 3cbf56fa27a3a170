//! Deterministic outcome of one round: the bytes every repeat, every
//! traced round and every bare-provider run must reproduce exactly.

use hypersafe_core::SafetyService;
use hypersafe_simkit::service::{
    DegradeReason, RejectReason, ReqState, RouteProvider, RoutingService, Terminal,
};

/// The deterministic result of one round plus the figures the
/// end-to-end metrics are computed from.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    /// `ServiceStats::render()` (service) or the fan summary line.
    pub render: String,
    /// FNV-1a over every request's terminal state, in id order.
    pub checksum: u64,
    /// Events processed (`RoutingService::run`'s count, or the fan loop's).
    pub events: u64,
    /// Route requests submitted.
    pub submitted: u64,
    /// Requests that reached a terminal state.
    pub terminals: u64,
    /// Requests delivered (any rung; fan: at least one copy).
    pub delivered: u64,
    /// Delivered copies (one per delivered service request).
    pub copies: u64,
    /// Hops summed over delivered copies.
    pub hops: u64,
    /// Program-caused failures: `Unreachable`, time-outs, unterminated
    /// requests, deadline overruns, invariant violations, zero-copy
    /// fans between healthy endpoints and fans over the copy bound.
    pub failed: u64,
    /// Virtual ticks from submit until the first copy arrives (one
    /// tick per hop), one entry per delivered request.
    pub lat_ticks: Vec<u64>,
    /// First few failure details.
    pub failures: Vec<String>,
    /// Provider-side counts: attempts answered, detour reroutes and
    /// safety-map cells changed by publications.
    pub provider: [u64; 3],
}

impl Digest {
    /// Records a failure with its detail (the first 8 are kept).
    pub fn fail(&mut self, detail: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(detail);
        }
    }

    /// Copies the provider-side counts of `svc` in.
    pub fn record_provider(&mut self, svc: &SafetyService) {
        self.provider = [svc.attempts(), svc.detours(), svc.cells_changed()];
    }
}

/// FNV-1a step over one 64-bit word.
pub fn fnv1a(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x100_0000_01b3)
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

fn terminal_word(t: Terminal) -> u64 {
    match t {
        Terminal::Delivered { hops } => 0x01 << 32 | u64::from(hops),
        Terminal::Degraded { reason, hops } => {
            let r = match reason {
                DegradeReason::Suboptimal => 0x02u64,
                DegradeReason::Detour => 0x03,
                DegradeReason::StaleRetry { attempts } => 0x04 | u64::from(attempts) << 8,
            };
            r << 32 | u64::from(hops)
        }
        Terminal::Rejected { reason } => {
            let r = match reason {
                RejectReason::Overloaded => 1u64,
                RejectReason::Cancelled => 2,
                RejectReason::SourceFaulty => 3,
                RejectReason::DestinationFaulty => 4,
                RejectReason::Unreachable { attempts } => 5 | u64::from(attempts) << 8,
            };
            0x05 << 32 | r
        }
        Terminal::TimedOut => 0x06 << 32,
    }
}

/// Digest of a finished service run that processed `events` events.
pub fn service<P: RouteProvider>(svc: &RoutingService<P>, events: u64) -> Digest {
    let stats = svc.stats();
    let mut d = Digest {
        render: stats.render(),
        checksum: FNV_BASIS,
        events,
        submitted: svc.num_requests() as u64,
        terminals: stats.terminals(),
        ..Digest::default()
    };
    for (id, (state, submit, deadline, done_at, epoch)) in svc.request_records().enumerate() {
        let ReqState::Done(t) = state else {
            d.fail(format!("request {id} never reached a terminal state"));
            continue;
        };
        if done_at > deadline + 1 {
            d.fail(format!(
                "request {id} ended at {done_at}, past deadline {deadline} + 1"
            ));
        }
        d.checksum = fnv1a(d.checksum, terminal_word(t));
        d.checksum = fnv1a(d.checksum, done_at ^ epoch.rotate_left(32));
        match t {
            Terminal::Delivered { hops } | Terminal::Degraded { hops, .. } => {
                d.delivered += 1;
                d.copies += 1;
                d.hops += u64::from(hops);
                d.lat_ticks.push(done_at - submit + u64::from(hops));
            }
            Terminal::Rejected {
                reason: RejectReason::Unreachable { attempts },
            } => d.fail(format!(
                "request {id} unreachable after {attempts} attempts"
            )),
            Terminal::TimedOut => d.fail(format!("request {id} timed out")),
            Terminal::Rejected { .. } => {}
        }
    }
    if stats.invariant_violations > 0 {
        d.failed += stats.invariant_violations;
        for v in svc.violations() {
            if d.failures.len() < 8 {
                d.failures.push(format!("invariant violation: {v}"));
            }
        }
    }
    d
}
