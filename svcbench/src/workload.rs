//! The three workloads: names, shapes and seeded input generation.
//!
//! Every input is a pure function of `(shape, seed)`: the
//! `workloads::open_loop_mix` generator drawn from a seeded ChaCha
//! stream. The program only ever sees the generated list.

use hypersafe_simkit::service::{Injection, ServiceConfig};
use hypersafe_topology::{FaultConfig, Hypercube, NodeId};
use hypersafe_workloads::{open_loop_mix, OpenLoop};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// How a workload drives the provider.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Through `simkit::service::RoutingService` (`attempt` per try).
    Service,
    /// Through the benchmark's own arrival-order replay loop, one
    /// `attempt_redundant(s, d, k = n)` per submit.
    Fan,
}

/// One named workload shape.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Workload name, as passed to `--workload`.
    pub name: &'static str,
    /// Which loop runs it.
    pub kind: Kind,
    /// Cube dimension.
    pub n: u8,
    /// Route requests per round (for `Fan`, after the warm-up prefix).
    pub requests: u64,
    /// Probability of a churn event before each submit.
    pub churn_prob: f64,
}

/// The benchmark's workloads.
pub const WORKLOADS: [Shape; 3] = [
    Shape {
        name: "route_n12",
        kind: Kind::Service,
        n: 12,
        requests: 100_000,
        churn_prob: 0.001,
    },
    Shape {
        name: "churn_n18",
        kind: Kind::Service,
        n: 18,
        requests: 10_000,
        churn_prob: 0.02,
    },
    Shape {
        name: "fan_n12",
        kind: Kind::Fan,
        n: 12,
        requests: 50_000,
        churn_prob: 0.01,
    },
];

/// Looks a workload up by name.
pub fn shape(name: &str) -> Option<Shape> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

/// Lifecycle knobs shared by every workload: the default service with
/// an admission window of 48.
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        max_in_flight: 48,
        ..ServiceConfig::default()
    }
}

/// Submits generated ahead of a fan body so the live fault set can
/// climb to `n − 1` before timing starts.
const WARMUP_SUBMITS: u64 = 100_000;

/// Generated inputs of one run.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// The shape they were generated for.
    pub shape: Shape,
    /// Churn events (node, fault) published during set-up, before
    /// timing starts (`Fan` only): the `n − 1` faults live when the
    /// generator first reaches that many.
    pub warmup: Vec<(NodeId, bool)>,
    /// The injection list every round replays.
    pub body: Vec<Injection>,
}

impl Inputs {
    /// The cube the inputs live on.
    pub fn cube(&self) -> Hypercube {
        Hypercube::new(self.shape.n)
    }
}

/// Generates the inputs of `shape` from `seed`.
///
/// The body holds exactly `shape.requests` submits and exactly
/// `shape.requests × shape.churn_prob` churn events (see [`exact_mix`]),
/// so the work per round does not swing with the seed's churn draw.
///
/// Panics if the generator falls short of either count, or a fan
/// warm-up never reaches `n − 1` live faults; twice the requests make
/// both vanishingly unlikely.
pub fn generate(shape: Shape, seed: u64) -> Inputs {
    let cube = Hypercube::new(shape.n);
    let max_live_faults = usize::from(shape.n - 1);
    let extra = match shape.kind {
        Kind::Service => 0,
        Kind::Fan => WARMUP_SUBMITS,
    };
    let p = OpenLoop {
        requests: 2 * shape.requests + extra,
        churn_prob: shape.churn_prob,
        max_live_faults,
        ..OpenLoop::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (u64::from(shape.n) << 40));
    let list = open_loop_mix(cube, &p, &mut rng);
    let (warmup, cut) = match shape.kind {
        Kind::Service => (Vec::new(), 0),
        Kind::Fan => warmup_prefix(cube, max_live_faults, &list),
    };
    let first_id = list[..cut]
        .iter()
        .filter(|i| matches!(i, Injection::Submit { .. }))
        .count() as u64;
    let churns = (shape.requests as f64 * shape.churn_prob).round() as u64;
    Inputs {
        shape,
        warmup,
        body: exact_mix(&list[cut..], first_id, shape.requests, churns),
    }
}

/// The fan warm-up: the length of the list's prefix up to the first
/// churn event that brings the live fault set to `max_live_faults`, and
/// that fault set, to be published one fault at a time.
fn warmup_prefix(
    cube: Hypercube,
    max_live_faults: usize,
    list: &[Injection],
) -> (Vec<(NodeId, bool)>, usize) {
    let mut live = FaultConfig::fault_free(cube);
    let last = list
        .iter()
        .position(|inj| {
            if let Injection::Churn { node, fault, .. } = *inj {
                if fault {
                    live.node_faults_mut().insert(node);
                } else {
                    live.node_faults_mut().remove(node);
                }
            }
            live.node_faults().len() == max_live_faults
        })
        .expect("fan warm-up reaches n - 1 live faults");
    let warmup = live.node_faults().iter().map(|a| (a, true)).collect();
    (warmup, last + 1)
}

/// The first `requests` submits and the first `churns` churn events of
/// `list`, in list order, with the cancels of kept submits (renumbered
/// from `first_id`). Dropping only tail events keeps every kept churn
/// event valid; a submit kept past a dropped churn event may name a
/// node the live set disagrees on, which the service rejects as a
/// faulty endpoint, a correct outcome.
pub fn exact_mix(list: &[Injection], first_id: u64, requests: u64, churns: u64) -> Vec<Injection> {
    let (mut submits, mut churned) = (0, 0);
    let mut body = Vec::new();
    for inj in list {
        if submits == requests && churned == churns {
            break;
        }
        match *inj {
            Injection::Submit { .. } if submits < requests => {
                submits += 1;
                body.push(*inj);
            }
            Injection::Churn { .. } if churned < churns => {
                churned += 1;
                body.push(*inj);
            }
            Injection::Cancel { at, req } if (first_id..first_id + requests).contains(&req) => {
                body.push(Injection::Cancel {
                    at,
                    req: req - first_id,
                });
            }
            _ => {}
        }
    }
    assert_eq!(
        (submits, churned),
        (requests, churns),
        "generator fell short"
    );
    body
}
