//! One benchmark run: generate the inputs, repeat rounds for the
//! requested time, check every round, and reduce the rounds to the
//! end-to-end metrics (untraced) or the per-layer metrics (traced).

use crate::digest::Digest;
use crate::probe::{self, Probes};
use crate::round::{self, Round};
use crate::timed::{Span, SpanName, Trace};
use crate::workload::{self, Inputs, Shape};
use hypersafe_core::SafetyMap;
use hypersafe_topology::FaultConfig;
use std::hint::black_box;
use std::time::Instant;

/// One named metric value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// The workload.
    pub shape: Shape,
    /// Input seed.
    pub seed: u64,
    /// Seconds to keep repeating rounds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
}

/// The result of one run.
pub struct Outcome {
    /// Route requests attempted over all rounds.
    pub attempted: u64,
    /// Failed requests and failed checks over all rounds.
    pub failed: u64,
    /// The metrics this run reports.
    pub metrics: Vec<Metric>,
    /// First few failure details.
    pub failures: Vec<String>,
    /// The last traced round's spans, for writing out.
    pub spans: Vec<Span>,
}

/// Untraced rounds a run needs at least (medians over rounds).
const MIN_UNTRACED: usize = 2;
/// Traced rounds a traced run needs at least.
const MIN_TRACED: usize = 2;
/// Set-ups a run times at least; rounds short of it add set-ups alone.
const MIN_SETUPS: usize = 25;
/// Set-ups kept up per timed round while short of [`MIN_SETUPS`], so
/// the extra ones are spread over the run like the rounds.
const SETUPS_PER_ROUND: usize = 6;

/// Requests over host time, summed over rounds: a round-count-weighted
/// median would flip between the machine's fast and slow phases.
#[derive(Clone, Copy, Default)]
struct Throughput {
    rounds: usize,
    requests: u64,
    wall_ns: u64,
}

impl Throughput {
    fn add(&mut self, r: &Round) {
        self.rounds += 1;
        self.requests += r.digest.terminals;
        self.wall_ns += r.wall_ns;
    }

    /// Requests per second (0 before any round).
    fn per_s(self) -> f64 {
        ratio(self.requests, self.wall_ns) * 1e9
    }
}

/// Span figures pooled over a run's traced rounds.
#[derive(Default)]
struct Traced {
    rps: Throughput,
    loop_self_ns: Vec<f64>,
    unattributed: Vec<f64>,
    attempt_total_ns: Vec<f64>,
    attempt_ns: Vec<u64>,
    redundant_ns: Vec<u64>,
    publish_ns: Vec<u64>,
    audit_ns: Vec<u64>,
}

impl Traced {
    fn add(&mut self, r: &Round, tr: &Trace) {
        let wall = tr.wall_ns as f64;
        self.rps.add(r);
        self.loop_self_ns.push(tr.loop_self_ns as f64);
        let calls: u64 = tr.spans[1..].iter().map(Span::ns).sum();
        let attributed = (tr.loop_self_ns + calls + tr.tracing_ns) as f64;
        self.unattributed.push((wall - attributed) / wall);
        let mut attempt_total = 0;
        for s in &tr.spans[1..] {
            let bucket = match s.name {
                SpanName::Attempt => {
                    attempt_total += s.ns();
                    &mut self.attempt_ns
                }
                SpanName::AttemptRedundant => &mut self.redundant_ns,
                SpanName::PublishNext => &mut self.publish_ns,
                SpanName::CheckInvariants => &mut self.audit_ns,
                SpanName::Run | SpanName::ApplyChurn => continue,
            };
            bucket.push(s.ns());
        }
        self.attempt_total_ns.push(attempt_total as f64);
    }
}

/// Runs `cfg`.
pub fn run(cfg: Config) -> Outcome {
    let inputs = workload::generate(cfg.shape, cfg.seed);
    let start = Instant::now();
    let mut reference: Option<Digest> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut failures = Vec::new();
    let mut setup_ns = Vec::new();
    let mut rps = Throughput::default();
    let mut publish_ns = Vec::new();
    let mut traced = Traced::default();
    let mut last_traced: Option<Round> = None;
    let mut peak_mb: Option<f64> = None;
    for i in 0.. {
        // Round 0 warms caches up: checked, not timed.
        let traced_round = cfg.traced && i % 2 == 0 && i > 0;
        let r = round::run(&inputs, traced_round);
        attempted += r.digest.submitted;
        failed += r.digest.failed;
        failures.extend(r.digest.failures.iter().take(8).cloned());
        match &reference {
            None => reference = Some(r.digest.clone()),
            Some(first) if *first != r.digest => {
                failed += 1;
                failures.push(format!(
                    "round {i} (traced: {traced_round}) output differs from round 0"
                ));
            }
            Some(_) => {}
        }
        if i == 0 {
            continue;
        }
        setup_ns.push(r.setup_ns as f64);
        while setup_ns.len() < (SETUPS_PER_ROUND * i).min(MIN_SETUPS) {
            setup_ns.push(round::setup(&inputs, false).1 as f64);
        }
        if let Some(tr) = r.provider.trace() {
            traced.add(&r, tr);
            last_traced = Some(r);
        } else {
            rps.add(&r);
            publish_ns.extend_from_slice(&r.provider.publish_ns);
        }
        let enough = rps.rounds >= MIN_UNTRACED && (!cfg.traced || traced.rps.rounds >= MIN_TRACED);
        if peak_mb.is_none() && enough && setup_ns.len() >= MIN_SETUPS {
            peak_mb = Some(peak_rss_mb());
        }
        if enough && start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    while setup_ns.len() < MIN_SETUPS {
        setup_ns.push(round::setup(&inputs, false).1 as f64);
    }
    let peak_mb = peak_mb.unwrap_or_else(peak_rss_mb);
    let reference = reference.expect("at least one round ran");
    let mut out = Outcome {
        attempted,
        failed,
        metrics: Vec::new(),
        failures,
        spans: Vec::new(),
    };
    match last_traced {
        None => {
            out.metrics = end_to_end(&reference, rps, &mut publish_ns, &mut setup_ns, peak_mb);
        }
        Some(last) => {
            let compute_ns = time_compute(&inputs);
            let probes = probe::run(&last.provider);
            out.failed += probes.failures.len() as u64;
            out.failures.extend(probes.failures.iter().cloned());
            out.metrics = per_layer(&reference, &last, &probes, traced, rps, compute_ns);
            let tr = last.provider.trace().expect("traced round");
            out.spans = tr.spans.clone();
        }
    }
    out.failures.truncate(16);
    out
}

/// Times the epoch-0 `SafetyMap::compute` a few times, off the clock
/// of `setup_s`.
fn time_compute(inputs: &Inputs) -> Vec<f64> {
    let cfg = FaultConfig::fault_free(inputs.cube());
    (0..MIN_SETUPS)
        .map(|_| {
            let t = Instant::now();
            black_box(SafetyMap::compute(black_box(&cfg)));
            t.elapsed().as_nanos() as f64
        })
        .collect()
}

/// Median of `v` (0 when empty).
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of `v` (0 when empty).
pub fn quantile(v: &mut [u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1] as f64
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
///
/// A run reads it once, when its minimum rounds and set-ups are done,
/// not at its end: the run's own sample buffers keep growing with the
/// number of rounds the host fits into the time, and a buffer
/// reallocated late in the run raised the peak by 3 MiB in some runs
/// and not in others.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end(
    d: &Digest,
    rps: Throughput,
    publish_ns: &mut [u64],
    setup_ns: &mut [f64],
    peak_mb: f64,
) -> Vec<Metric> {
    let mut lat = d.lat_ticks.clone();
    vec![
        Metric {
            name: "requests_per_s",
            unit: "req/s",
            value: rps.per_s(),
        },
        Metric {
            name: "publish_ns_p50",
            unit: "ns",
            value: quantile(publish_ns, 0.5),
        },
        Metric {
            name: "publish_ns_p90",
            unit: "ns",
            value: quantile(publish_ns, 0.9),
        },
        Metric {
            name: "delivered_frac",
            unit: "ratio",
            value: ratio(d.delivered, d.submitted),
        },
        Metric {
            name: "lat_ticks_p99",
            unit: "ticks",
            value: quantile(&mut lat, 0.99),
        },
        Metric {
            name: "mean_hops",
            unit: "hops",
            value: ratio(d.hops, d.copies),
        },
        Metric {
            name: "copies_per_request",
            unit: "copies",
            value: ratio(d.copies, d.submitted),
        },
        Metric {
            name: "setup_s",
            unit: "s",
            value: median(setup_ns) * 1e-9,
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MiB",
            value: peak_mb,
        },
    ]
}

fn per_layer(
    d: &Digest,
    last: &Round,
    probes: &Probes,
    mut t: Traced,
    untraced_rps: Throughput,
    mut compute_ns: Vec<f64>,
) -> Vec<Metric> {
    let tr = last.provider.trace().expect("traced round");
    let svc = last.provider.inner();
    let attempts: Vec<&Span> = tr.spans_named(SpanName::Attempt).collect();
    let stale = attempts.iter().filter(|s| s.aux == 1).count() as u64;
    let fans = (probes.fan_only_ns.len() + probes.rerouted_ns.len()) as u64;
    let mut route_disjoint_ns: Vec<u64> = probes
        .fan_only_ns
        .iter()
        .chain(&probes.rerouted_ns)
        .copied()
        .collect();
    let publications = probes.apply_ns.len() as u64;
    let loop_self = median(&mut t.loop_self_ns);
    let untraced = untraced_rps.per_s();
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("simkit.service.events", "count", d.events as f64),
        m("simkit.service.loop_self_ns", "ns", loop_self),
        m(
            "simkit.service.loop_ns_per_event",
            "ns",
            loop_self / d.events.max(1) as f64,
        ),
        m("simkit.service.epoch_load_ns", "ns", probes.epoch_load_ns),
        m(
            "core.service.attempt_ns_p50",
            "ns",
            quantile(&mut t.attempt_ns, 0.5),
        ),
        m(
            "core.service.attempt_ns_p99",
            "ns",
            quantile(&mut t.attempt_ns, 0.99),
        ),
        m(
            "core.service.attempt_ns_total",
            "ns",
            median(&mut t.attempt_total_ns),
        ),
        m("core.service.attempts", "count", attempts.len() as f64),
        m(
            "core.service.stale_ratio",
            "ratio",
            ratio(stale, attempts.len() as u64),
        ),
        m("core.service.detours", "count", svc.detours() as f64),
        m(
            "core.unicast.source_decision_ns",
            "ns",
            probes.source_decision_ns,
        ),
        m(
            "core.service.publish_ns_p50",
            "ns",
            quantile(&mut t.publish_ns, 0.5),
        ),
        m(
            "core.service.publish_ns_p90",
            "ns",
            quantile(&mut t.publish_ns, 0.9),
        ),
        m(
            "core.service.epoch_clone_ns",
            "ns",
            quantile(&mut probes.epoch_clone_ns.clone(), 0.5),
        ),
        m(
            "core.safety_delta.apply_ns",
            "ns",
            quantile(&mut probes.apply_ns.clone(), 0.5),
        ),
        m(
            "core.safety_delta.cells_touched",
            "count",
            probes.cells_touched as f64,
        ),
        m(
            "core.safety_delta.cells_changed",
            "count",
            probes.cells_changed as f64,
        ),
        m(
            "core.safety_delta.waves",
            "waves",
            ratio(probes.waves, publications),
        ),
        m(
            "core.safety.audit_ns_p50",
            "ns",
            quantile(&mut t.audit_ns, 0.5),
        ),
        m(
            "core.safety.audit_ns_p90",
            "ns",
            quantile(&mut t.audit_ns, 0.9),
        ),
        m(
            "core.safety.audit_calls",
            "count",
            tr.spans_named(SpanName::CheckInvariants).count() as f64,
        ),
        m(
            "core.service.attempt_redundant_ns_p50",
            "ns",
            quantile(&mut t.redundant_ns, 0.5),
        ),
        m(
            "core.service.attempt_redundant_ns_p99",
            "ns",
            quantile(&mut t.redundant_ns, 0.99),
        ),
        m(
            "core.multipath.route_disjoint_ns",
            "ns",
            quantile(&mut route_disjoint_ns, 0.5),
        ),
        m(
            "core.multipath.route_disjoint_ns.fan_only",
            "ns",
            quantile(&mut probes.fan_only_ns.clone(), 0.5),
        ),
        m(
            "core.multipath.route_disjoint_ns.rerouted",
            "ns",
            quantile(&mut probes.rerouted_ns.clone(), 0.5),
        ),
        m(
            "core.multipath.rerouted_frac",
            "ratio",
            ratio(probes.rerouted_ns.len() as u64, fans),
        ),
        m(
            "core.multipath.fan_accept_ratio",
            "ratio",
            ratio(probes.fan_accepted, probes.requested),
        ),
        m(
            "core.multipath.copies_lost_live",
            "count",
            probes.copies_lost_live as f64,
        ),
        m("core.safety.compute_ns", "ns", median(&mut compute_ns)),
        m(
            "bench.trace_overhead_frac",
            "ratio",
            if untraced > 0.0 {
                1.0 - t.rps.per_s() / untraced
            } else {
                0.0
            },
        ),
        m(
            "bench.unattributed_frac",
            "ratio",
            median(&mut t.unattributed),
        ),
    ]
}
