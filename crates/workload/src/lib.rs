//! # `workload` — scenarios, runners and metrics for the Polyraptor
//! reproduction
//!
//! Everything the paper's §3 evaluation needs around the transports:
//!
//! * [`runner`] — the fabric, the two transports' options and the one
//!   run path: every scenario type's `build(&Fabric, Transport)` makes
//!   a [`Run`] (fabric, sessions, faults, notices, seeds,
//!   [`Transport`]), [`run`] executes it and returns a [`RunReport`] —
//!   per-flow results, fabric counters, transport counters and, when
//!   enabled, telemetry — for every scenario and both transports alike;
//! * [`scenario`] — seeded logical workload generation (Poisson arrivals
//!   with λ = 2560 s⁻¹, permutation traffic matrix, 20 % background
//!   sessions, replica placement outside the client's rack, synchronized
//!   Incast), shared bit-for-bit between protocol runs;
//! * [`fault`] — fabric-dynamics scenarios: the Figure-1-style storage
//!   workload with a deterministic mid-run core-switch failure,
//!   Polyraptor (reroute + coded repair) vs. the ECMP-pinned TCP
//!   baseline (timeout-driven tail inflation);
//! * [`churn`] — sustained Poisson fault churn (links, flaps, switches,
//!   **host failures**) over a fetch workload, with session re-target to
//!   surviving replicas and completion/recovery percentiles;
//! * [`hotspot`] — silent mid-fabric rate degradation, spraying vs.
//!   per-flow ECMP;
//! * [`stats`] — rank curves (Figures 1a/1b) and mean ± 95 % CI over
//!   seeded repetitions (Figure 1c's error bars);
//! * [`csv`] — plain CSV emission for the figure binaries;
//! * [`telemetry`] — opt-in run recording (fabric time-series buckets,
//!   event annotations, flow spans) with CSV and
//!   Perfetto-loadable Chrome-trace exporters.
//!
//! Three one-line wrappers over [`run`] remain — `run_storage_rq`,
//! `run_storage_tcp` and `run_churn_rq` — only because `bench_e2e`
//! calls them (ROADMAP item 12).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod churn;
pub mod csv;
pub mod fault;
pub mod hotspot;
pub mod runner;
pub mod scenario;
pub mod stats;
pub mod telemetry;

pub use churn::{run_churn_rq, ChurnScenario};
pub use fault::FaultScenario;
pub use hotspot::HotspotScenario;
pub use runner::{
    build_rq_specs, build_tcp_conns, foreground_goodputs, install_rq, op_results, run,
    run_storage_rq, run_storage_tcp, stripe, Fabric, RecoveryStats, RqRunOptions, Run, RunReport,
    TcpRunOptions, TransferResult, Transport,
};
pub use scenario::{IncastScenario, LogicalSession, Pattern, StorageScenario};
pub use stats::{mean, mean_ci95, std_dev, RankCurve};
pub use telemetry::{RunTelemetry, TelemetryOptions};
