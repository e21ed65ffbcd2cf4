//! Experiment E13 — the deletion policy engine under the multi-tenant
//! workload: dry-run plan latency, bulk apply cost, and the end-to-end
//! bulk-deletion latency (the E2 figure, but for a policy sweep instead
//! of a single request).
//!
//! Builds one Zipf-skewed multi-tenant chain, then for each policy in
//! the sweep measures (a) the dry-run `plan_policy` latency over the hot
//! cache, (b) the one-shot `apply_policy` cost (plan + enqueue of every
//! matched deletion), and (c) the blocks and wall time from apply until
//! every matched record is physically erased — marks applied at the
//! summary merge, retired sequences pruned. Results land in
//! `BENCH_policy.json`.
//!
//! Run with `cargo run -p seldel-bench --bin exp_policy --release`.
//! Pass `--baseline <path>` to compare bulk-erasure throughput against a
//! previously committed `BENCH_policy.json` first: a regression of more
//! than 20% on any policy row prints a GitHub `::warning::` annotation
//! and exits non-zero, which is how CI tracks the trajectory.

use std::time::Instant;

use seldel_bench::report::{render_json_report, row_field_f64, row_field_str, JsonField, JsonRow};
use seldel_codec::render::TextTable;
use seldel_core::{CompiledPolicy, Role, RoleTable, SelectiveLedger, Selector};
use seldel_crypto::SigningKey;
use seldel_sim::{drive_multi_tenant, tenant_chain_config, TenantConfig};

use seldel_chain::Timestamp;

/// The E13 workload: enough skewed tenants and summarised history that a
/// sweep touches both normal and Σ blocks, small enough for a CI smoke
/// run. `l_max` bounds the erasure horizon (E2: deletions execute at the
/// merge), so it also bounds the blocks-to-erasure series below.
fn workload() -> TenantConfig {
    TenantConfig {
        authors: 64,
        zipf_s: 1.05,
        blocks: 600,
        entries_per_block: 6,
        sequence_length: 5,
        l_max: 120,
        delete_every: 17,
        query_batch: 0,
        max_block_entries: None,
        ..Default::default()
    }
}

/// The workload's deterministic tenant keys (rank ↦ seed).
fn tenant_key(rank: usize) -> SigningKey {
    let mut seed = [0u8; 32];
    seed[..8].copy_from_slice(&(rank as u64 + 1).to_le_bytes());
    seed[31] = 0xA7;
    SigningKey::from_seed(seed)
}

/// The compliance officer driving the sweep.
fn admin_key() -> SigningKey {
    SigningKey::from_seed([0xAD; 32])
}

/// The policy sweep: every selector leaf appears at least once, and the
/// matched-set sizes span an order of magnitude.
fn sweep() -> Vec<CompiledPolicy> {
    let mid = Timestamp(300 * 10);
    let early = Timestamp(150 * 10);
    vec![
        Selector::And(vec![
            Selector::AuthorIs(tenant_key(0).verifying_key()),
            Selector::OlderThan(mid),
        ])
        .compile("hot-tenant-aged")
        .expect("well-formed"),
        Selector::AuthorIn((5..13).map(|r| tenant_key(r).verifying_key()).collect())
            .compile("tail-cohort")
            .expect("well-formed"),
        Selector::And(vec![
            Selector::SchemaIs("tenant".to_string()),
            Selector::OlderThan(early),
        ])
        .compile("schema-aged")
        .expect("well-formed"),
        Selector::And(vec![
            Selector::Ttl(seldel_core::TtlClass::Permanent),
            Selector::Or(vec![
                Selector::AuthorIs(tenant_key(1).verifying_key()),
                Selector::AuthorIs(tenant_key(2).verifying_key()),
            ]),
            Selector::OlderThan(mid),
        ])
        .compile("permanent-pair-aged")
        .expect("well-formed"),
    ]
}

struct PolicyRow {
    policy: String,
    scanned: usize,
    matched: usize,
    matched_kib: f64,
    blocked: usize,
    tenants: usize,
    plan_ms: f64,
    apply_ms: f64,
    erase_blocks: u64,
    erase_ms: f64,
    erase_per_s: f64,
}

/// Runs `op` in `chunks` timed chunks of `reps` iterations each and
/// returns the **fastest** chunk's nanoseconds per iteration — robust
/// against transient load on shared runners.
fn min_over_chunks(reps: u32, chunks: u32, mut op: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..chunks {
        let start = Instant::now();
        for _ in 0..reps {
            op();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / f64::from(reps));
    }
    best
}

fn measure_policy(base: &SelectiveLedger, policy: &CompiledPolicy, last_ts: u64) -> PolicyRow {
    let admin = admin_key();

    // (a) Dry-run latency: a pure hot-cache read, so min-over-chunks on
    // the shared ledger is sound.
    std::hint::black_box(base.plan_policy(&admin.verifying_key(), policy)); // warm-up
    let plan_ms = min_over_chunks(3, 5, || {
        std::hint::black_box(
            base.plan_policy(&admin.verifying_key(), std::hint::black_box(policy)),
        );
    }) / 1e6;

    // (b) + (c) Apply and drive to physical erasure on a detached clone,
    // so each policy in the sweep starts from the same chain.
    let mut ledger = base.clone();
    let started = Instant::now();
    let plan = ledger
        .apply_policy(&admin, policy)
        .expect("admin bulk erasure is authorised");
    let apply_ms = started.elapsed().as_nanos() as f64 / 1e6;
    assert!(!plan.is_empty(), "policy {:?} matched nothing", plan.policy);

    let erase_started = Instant::now();
    let mut now = last_ts;
    let mut erase_blocks = 0u64;
    while !ledger.audit_live(plan.matched()).iter().all(|live| !live) {
        now += 10;
        ledger.seal_block(Timestamp(now)).expect("monotone time");
        erase_blocks += 1;
        assert!(
            erase_blocks <= 4 * workload().l_max,
            "erasure failed to converge for {:?}",
            plan.policy
        );
    }
    let erase_ms = erase_started.elapsed().as_nanos() as f64 / 1e6;

    PolicyRow {
        policy: plan.policy.clone(),
        scanned: plan.scanned,
        matched: plan.len(),
        matched_kib: plan.matched_bytes as f64 / 1024.0,
        blocked: plan.blocked.len(),
        tenants: plan.per_tenant.len(),
        plan_ms,
        apply_ms,
        erase_blocks,
        erase_ms,
        erase_per_s: plan.len() as f64 / ((apply_ms + erase_ms) / 1e3),
    }
}

fn to_json(rows: &[PolicyRow]) -> String {
    let json_rows: Vec<JsonRow> = rows
        .iter()
        .map(|r| {
            JsonRow::new()
                .field("policy", r.policy.as_str())
                .field("scanned", r.scanned)
                .field("matched", r.matched)
                .field("matched_kib", JsonField::f1(r.matched_kib))
                .field("blocked", r.blocked)
                .field("tenants", r.tenants)
                .field(
                    "plan_ms",
                    JsonField::F64 {
                        value: r.plan_ms,
                        decimals: 3,
                    },
                )
                .field(
                    "apply_ms",
                    JsonField::F64 {
                        value: r.apply_ms,
                        decimals: 3,
                    },
                )
                .field("erase_blocks", r.erase_blocks)
                .field(
                    "erase_ms",
                    JsonField::F64 {
                        value: r.erase_ms,
                        decimals: 1,
                    },
                )
                .field("erase_per_s", JsonField::f0(r.erase_per_s))
        })
        .collect();
    render_json_report("policy", &[], &[("policy", json_rows)])
}

/// Reads the `policy → erase_per_s` rows out of a committed
/// `BENCH_policy.json` (our own line-per-row format; no JSON parser).
fn baseline_erase_rates(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter_map(|line| {
            Some((
                row_field_str(line, "policy")?.to_string(),
                row_field_f64(line, "erase_per_s")?,
            ))
        })
        .collect()
}

/// Compares current bulk-erasure throughput to the committed baseline;
/// returns the regressed rows as human-readable complaints.
fn regressions(baseline: &str, rows: &[PolicyRow]) -> Vec<String> {
    let mut out = Vec::new();
    for (policy, base_rate) in baseline_erase_rates(baseline) {
        let Some(current) = rows.iter().find(|r| r.policy == policy) else {
            continue;
        };
        if current.erase_per_s < 0.8 * base_rate {
            out.push(format!(
                "{policy}: {:.0} erased ids/s vs baseline {:.0} ({}% of baseline)",
                current.erase_per_s,
                base_rate,
                (100.0 * current.erase_per_s / base_rate) as u64,
            ));
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let baseline_path = args
        .iter()
        .position(|a| a == "--baseline")
        .and_then(|i| args.get(i + 1))
        .cloned();
    // Read the baseline up front: this run overwrites BENCH_policy.json.
    let baseline = baseline_path
        .as_ref()
        .map(|p| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("read baseline {p}: {e}")));

    let cfg = workload();
    println!(
        "E13: deletion policy engine — {} Zipf(s={}) tenants, {} blocks x {} entries,\n\
         dry-run plan latency, bulk apply cost and end-to-end erasure per policy.",
        cfg.authors, cfg.zipf_s, cfg.blocks, cfg.entries_per_block
    );

    let ledger = SelectiveLedger::builder(tenant_chain_config(&cfg))
        .roles(RoleTable::new().with(admin_key().verifying_key(), Role::Admin))
        .build();
    let (base, report) = drive_multi_tenant(ledger, &cfg);
    println!(
        "workload: {} sealed blocks, {} live records, hottest tenant wrote {}/{} entries",
        report.sealed_blocks,
        report.live_records,
        report.hottest_author_entries,
        report.total_entries
    );

    let rows: Vec<PolicyRow> = sweep()
        .iter()
        .map(|policy| measure_policy(&base, policy, cfg.blocks * 10))
        .collect();

    let mut table = TextTable::new([
        "policy",
        "matched",
        "blocked",
        "tenants",
        "plan",
        "apply",
        "erasure",
        "throughput",
    ]);
    for r in &rows {
        table.row([
            r.policy.clone(),
            r.matched.to_string(),
            r.blocked.to_string(),
            r.tenants.to_string(),
            format!("{:.2} ms", r.plan_ms),
            format!("{:.2} ms", r.apply_ms),
            format!("{} blk / {:.0} ms", r.erase_blocks, r.erase_ms),
            format!("{:.0} ids/s", r.erase_per_s),
        ]);
    }
    println!("{}", table.render());

    std::fs::write("BENCH_policy.json", to_json(&rows)).expect("write BENCH_policy.json");
    println!("wrote BENCH_policy.json");

    if let Some(baseline) = baseline {
        let complaints = regressions(&baseline, &rows);
        if complaints.is_empty() {
            println!("baseline check: bulk-erasure throughput within 20% of the committed run");
        } else {
            for c in &complaints {
                // The GitHub annotation format; harmless noise elsewhere.
                println!("::warning title=exp_policy erasure regression::{c}");
            }
            eprintln!(
                "bulk-erasure throughput regressed >20% vs the committed baseline on {} row(s)",
                complaints.len()
            );
            std::process::exit(1);
        }
    }
}
