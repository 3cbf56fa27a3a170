//! Service benchmark for the hypersafe routing stack.
//!
//! Three workloads run against the public API: the routing service's
//! common case (`route_n12`), a fault storm at large n (`churn_n18`)
//! and the k-disjoint fan (`fan_n12`). A timing decorator around
//! `SafetyService` measures from outside the program at the
//! `RouteProvider` seam; see `README.md` for the metrics.

pub mod bench;
pub mod digest;
pub mod fan;
pub mod probe;
pub mod round;
pub mod timed;
pub mod workload;
