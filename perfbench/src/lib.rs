//! # perfbench — the HYMV benchmark
//!
//! Four workloads, each run on two rank threads in one process, each
//! reporting end-to-end metrics with tracing off and a per-layer
//! breakdown with tracing on. See `perfbench/README.md` for the workloads,
//! every metric's definition, and how to run it.

pub mod adaptive;
pub mod common;
pub mod host;
pub mod report;
pub mod serve;
pub mod solve;
pub mod stats;
pub mod tracer;

use common::RunCfg;
use report::Report;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "elast-hex20-solve",
    "poisson-hex8-solve",
    "serve-open-w8",
    "adaptive-damage-hex8",
];

/// Run one workload by name; `None` for an unknown name.
pub fn run(workload: &str, cfg: &RunCfg) -> Option<Report> {
    Some(match workload {
        "elast-hex20-solve" => solve::run(workload, &solve::ELAST_HEX20, cfg),
        "poisson-hex8-solve" => solve::run(workload, &solve::POISSON_HEX8, cfg),
        "serve-open-w8" => serve::run(workload, &serve::SERVE_OPEN_W8, cfg),
        "adaptive-damage-hex8" => adaptive::run(workload, &adaptive::ADAPTIVE_HEX8, cfg),
        _ => return None,
    })
}

/// `HYMV_*` variables the benchmark pins, and the value it pins each to:
/// element batch width and multivector width at their defaults, tracing,
/// the flight recorder and the protocol auditor off.
pub const PINNED_ENV: [(&str, &str); 5] = [
    ("HYMV_EMV_BATCH", "8"),
    ("HYMV_EMV_NVEC", "8"),
    ("HYMV_TRACE", "0"),
    ("HYMV_FLIGHT", "0"),
    ("HYMV_AUDIT", "0"),
];

/// `HYMV_*` variables set in `vars` that the benchmark does not pin. Any
/// of them would change what the library does (fault injection, live
/// telemetry, retry budgets, ...), and a misspelt one would be silently
/// ignored, so the benchmark refuses to run with them.
pub fn unpinned_env(vars: impl Iterator<Item = (String, String)>) -> Vec<String> {
    let mut out: Vec<String> = vars
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("HYMV_") && !PINNED_ENV.iter().any(|(p, _)| p == k))
        .collect();
    out.sort();
    out
}
