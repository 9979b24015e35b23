//! `posetrl-serve`: the phase-ordering optimizer as a long-running
//! service.
//!
//! The paper treats phase ordering as a per-module decision procedure;
//! the ROADMAP north-star is that procedure *served* — a persistent
//! process that accepts `.pir` modules over a JSONL protocol, runs the
//! trained policy, and returns the optimized module with size/cycle
//! deltas and timing metadata. The crate splits into:
//!
//! - [`protocol`]: the strict line-oriented request/response format,
//! - [`config`]: `POSETRL_SERVE_*` env budgets (admission control),
//! - [`server`]: the worker pool (each worker runs the policy inline,
//!   requests route to a worker by module hash), response store, and
//!   stdio / Unix-socket transports,
//! - [`loadgen`]: the 1/8/64-client synthetic load schedule behind
//!   `repro -- servestats` and the nightly CI bench.
//!
//! Everything user-visible is deterministic in the request stream: the
//! bit-identical contract extends through worker routing and caching
//! (see DESIGN.md §12).

pub mod config;
pub mod loadgen;
pub mod protocol;
pub mod server;

pub use config::ServeConfig;
pub use loadgen::{
    corpus, quick_model, run_load, servestats, LoadReport, PhaseSpec, DEFAULT_PHASES,
};
pub use protocol::{
    parse_request, parse_response, ErrResponse, ErrorKind, OkResponse, ProtocolError, Request,
    Response,
};
pub use server::{run_stdio, BatchStats, Pending, Server, ServerStats, StdioSummary};
