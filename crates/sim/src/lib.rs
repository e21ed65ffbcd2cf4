//! Workloads, attack simulations and experiment drivers reproducing the
//! paper's evaluation (§V) and threat discussion (§V-B).
//!
//! * [`login`] — the Fig. 6–8 login-audit scenario (ALPHA/BRAVO/CHARLIE).
//! * [`token`] — account tokens: cohesion-guarded history, lost-coin
//!   recovery (§V-A "Recovery").
//! * [`supply`] — Industry-4.0 product lifecycle with best-before TTL.
//! * [`growth`] — experiment E1: bounded growth vs the baseline chain.
//! * [`latency`] — experiment E2: delayed-deletion latency distributions.
//! * [`attacks`] — Fig. 9's 51 % race ± anchoring, eclipse quantification.
//! * [`crash`] — experiment E7: crash/restart of the durable `FileStore`
//!   backend against a never-closed `MemStore` oracle.
//! * [`tenants`] — the multi-tenant workload (Zipf-skewed authors, mixed
//!   insert/delete/query) behind the sharded query & intake subsystem's
//!   fairness and equivalence tests.
//! * [`metrics`] — the nearest-rank percentile for the harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
pub mod crash;
pub mod growth;
pub mod latency;
pub mod login;
pub mod metrics;
pub mod supply;
pub mod tenants;
pub mod token;

pub use attacks::{
    analytic_catch_up, compare_anchoring, eclipse_success_rate, simulate_race, EclipseConfig,
    RaceConfig, RaceResult,
};
pub use crash::{
    crash_chain_config, run_crash_matrix, run_crash_restart, run_tamper_payload, CrashConfig,
    CrashPoint, CrashReport, TamperDetection, TamperReport,
};
pub use growth::{run_growth, run_growth_in, sweep_l_max, GrowthConfig, GrowthSample};
pub use latency::{mean_latency_blocks, run_latency, LatencyConfig, LatencySample};
pub use login::{LoginAudit, LOGIN_SCHEMA_YAML, USERS};
pub use metrics::percentile;
pub use supply::{SupplyChain, PRODUCT_SCHEMA_YAML};
pub use tenants::{
    drive_multi_tenant, run_multi_tenant, run_multi_tenant_in, tenant_chain_config, TenantConfig,
    TenantReport, ZipfSampler,
};
pub use token::{TokenError, TokenLedger, TOKEN_SCHEMA_YAML};
