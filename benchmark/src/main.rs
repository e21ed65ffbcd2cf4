//! The cost-ledger benchmark: one command, four workloads, end-to-end
//! metrics that decompose by layer. See `benchmark/README.md`.
//!
//! ```text
//! cost-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run; the last stdout line is the result object the driver reads
//! cost-ledger [--seed <n>] [--seconds <s>] [--repeat <n>] [--quick]
//!     every workload, untraced then traced, as a table
//! cost-ledger --emit-manifest
//!     prints BENCHMARK.json from the tables in spec.rs
//! ```

mod gen;
mod layers;
mod lifecycle;
mod spec;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;

use spec::{Workload, END_TO_END, WORKLOADS};
use trace::Meter;

/// Environment knobs that would change the measured configuration.
const REFUSED_ENV: [&str; 3] = [
    seldel_chain::fstore::HOT_CACHE_ENV,
    seldel_chain::FSYNC_POLICY_ENV,
    seldel_telemetry::TELEMETRY_ENV,
];

const RUN_SECONDS: u64 = 20;

#[derive(Debug)]
struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    emit_manifest: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        repeat: 1,
        emit_manifest: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(spec::workload(name).ok_or(format!(
                    "unknown workload {name}; one of {}",
                    WORKLOADS.map(|w| w.name).join(", ")
                ))?);
            }
            "--seed" => {
                let v = value()?;
                let parsed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                };
                args.seed = parsed.map_err(|e| format!("--seed {v}: {e}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(format!("--seconds {v}: must be in (0, 60]"));
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: 0 or 1")),
                };
            }
            "--repeat" => {
                let v = value()?;
                args.repeat = v.parse().map_err(|e| format!("--repeat {v}: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat 0: nothing to run".into());
                }
            }
            "--quick" => args.seconds = RUN_SECONDS as f64 / 20.0,
            "--emit-manifest" => args.emit_manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Renders `BENCHMARK.json` — exactly the keys the contract names.
fn manifest() -> String {
    let mut out = String::from("{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in layers::PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < layers::PER_LAYER.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The result object: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(tally: &lifecycle::Tally, metrics: &[(&'static str, f64, &'static str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.correct(),
        tally.attempted.max(1),
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        assert!(value.is_finite(), "{name} is not a number: {value}");
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// Pairs measured values with the units of the table they follow.
fn with_units(
    values: Vec<(&'static str, f64)>,
    table: impl ExactSizeIterator<Item = (&'static str, &'static str)>,
) -> Vec<(&'static str, f64, &'static str)> {
    assert_eq!(values.len(), table.len(), "one value per declared metric");
    values
        .into_iter()
        .zip(table)
        .map(|((name, value), (declared, unit))| {
            assert_eq!(name, declared, "values follow the table's order");
            (name, value, unit)
        })
        .collect()
}

fn e2e_units() -> impl ExactSizeIterator<Item = (&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit))
}

fn layer_units() -> impl ExactSizeIterator<Item = (&'static str, &'static str)> {
    layers::PER_LAYER.iter().map(|m| (m.name, m.unit))
}

fn print_metrics(title: &str, metrics: &[(&'static str, f64, &'static str)]) {
    println!("{title}");
    for (name, value, unit) in metrics {
        println!("  {name:40} {value:>16.4} {unit}");
    }
}

/// What the run was made of: phase busy times, counts, chain shape.
fn print_sizes(o: &lifecycle::Outcome, a: &lifecycle::Artefacts) {
    println!(
        "busy: write {:.2} s ({} timed blocks + {} drain cycles, {} erasures), read {:.2} s ({} slots), recover {:.2} s ({} rounds, {} blocks lost to the cut)",
        o.write.busy_ns as f64 / 1e9,
        o.write.timed_cycles,
        o.write.cycle_ns.len() - o.write.timed_cycles,
        o.write.erase_ns.len(),
        o.read.busy_ns as f64 / 1e9,
        o.sizes.read_slots,
        o.recover.busy_ns as f64 / 1e9,
        o.sizes.recover_rounds,
        o.recover.lost_blocks,
    );
    println!(
        "chain: {} live blocks, {} live records, marker {}; read cache {} blocks; inputs sha256 {}",
        o.read.live_blocks,
        o.write.stats.live_records,
        o.write.stats.marker,
        o.read.cache_blocks,
        a.gen.digest().short(),
    );
}

/// Prints `failed_ops_share` — always 0 on a correct run, so it is the
/// result object's `attempted` / `failed` and no gated metric — and every
/// output check that did not hold.
fn report_failures(tally: &lifecycle::Tally) {
    println!(
        "  {:40} {:>16.4} ratio ({} of {} operations)",
        "failed_ops_share",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    for error in &tally.errors {
        eprintln!("check failed: {error}");
    }
    if !tally.correct() {
        eprintln!(
            "output checks failed ({} of {} operations failed)",
            tally.failed, tally.attempted
        );
    }
}

/// One run as the driver asks for it.
fn run_one(w: &Workload, args: &Args) -> bool {
    let (tally, metrics) = if args.trace {
        let traced = layers::run(w, args.seed, args.seconds);
        println!("trace written to {}", traced.trace_path);
        (traced.tally, with_units(traced.metrics, layer_units()))
    } else {
        let (outcome, artefacts) =
            lifecycle::run(w, args.seed, args.seconds, &mut Meter::new(false));
        let metrics = with_units(lifecycle::end_to_end(&outcome), e2e_units());
        print_sizes(&outcome, &artefacts);
        (outcome.tally, metrics)
    };
    print_metrics(
        &format!(
            "{} seed {:#x} seconds {} trace {}",
            w.name,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
        &metrics,
    );
    report_failures(&tally);
    println!("{}", result_line(&tally, &metrics));
    tally.correct()
}

/// Every workload: `repeat` untraced sets, then one traced run each.
fn run_all(args: &Args) -> bool {
    println!(
        "cost-ledger: seed {:#x}, {} s a run, {} set(s); nproc {}, fs {}, {}, commit {}",
        args.seed,
        args.seconds,
        args.repeat,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        std::env::var("BENCH_FS").unwrap_or_else(|_| "unknown".into()),
        std::env::var("BENCH_RUSTC").unwrap_or_else(|_| "rustc unknown".into()),
        std::env::var("BENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
    );
    println!(
        "seldel-consensus is on no measured path (the anchor pins the leader): no number for it."
    );
    let mut ok = true;
    for w in &WORKLOADS {
        let mut sets: Vec<Vec<(&'static str, f64)>> = Vec::new();
        for _ in 0..args.repeat {
            let (outcome, artefacts) =
                lifecycle::run(w, args.seed, args.seconds, &mut Meter::new(false));
            if sets.is_empty() {
                println!("\n== {} — {}", w.name, w.why);
                print_sizes(&outcome, &artefacts);
            }
            report_failures(&outcome.tally);
            ok &= outcome.tally.correct();
            sets.push(lifecycle::end_to_end(&outcome));
        }
        // With four sets or more the spread is the contract's: quartile
        // distance over median; with fewer, the whole range.
        println!(
            "  {:24} {:>8} {:>14} {:>14} {:>14}  {:>7} {:>6}",
            "end-to-end", "unit", "min", "median", "max", "spread", "bound"
        );
        for (i, m) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = sets.iter().map(|s| s[i].1).collect();
            let (min, max) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let mid = stats::median(&values);
            let spread = if values.len() >= 4 {
                stats::spread(&values)
            } else {
                (max - min) / mid
            };
            let verdict = match (args.repeat, spread <= m.bound) {
                (1, _) => "",
                (_, true) => "inside",
                (_, false) => "OUTSIDE",
            };
            println!(
                "  {:24} {:>8} {min:>14.4} {mid:>14.4} {max:>14.4}  {:>6.2}% {:>5.0}% {verdict}",
                m.name,
                m.unit,
                spread * 100.0,
                m.bound * 100.0
            );
        }
        let traced = layers::run(w, args.seed, args.seconds);
        report_failures(&traced.tally);
        ok &= traced.tally.correct();
        print_metrics(
            &format!(
                "  per layer (traced run, {}x length; {}):",
                layers::TRACE_SHARE,
                traced.trace_path
            ),
            &with_units(traced.metrics, layer_units()),
        );
    }
    println!(
        "\n{}",
        if ok {
            "all output checks passed"
        } else {
            "OUTPUT CHECKS FAILED"
        }
    );
    ok
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("cost-ledger: {message}");
            return ExitCode::from(2);
        }
    };
    if args.emit_manifest {
        print!("{}", manifest());
        return ExitCode::SUCCESS;
    }
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "cost-ledger: {var} is set; the benchmark measures the stated defaults only — unset it and run again"
        );
        return ExitCode::from(2);
    }
    let ok = match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Better;
    use seldel_telemetry::json_is_well_formed;

    #[test]
    fn names_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(layers::PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(spec::name_is_valid(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound >= 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    #[test]
    fn readme_tables_name_every_workload_and_metric() {
        let readme = include_str!("../README.md");
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(layers::PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(readme.contains(&format!("| `{name}` |")), "{name}");
        }
    }

    #[test]
    fn emitted_json_is_well_formed_and_matches_the_committed_manifest() {
        let manifest = manifest();
        assert!(json_is_well_formed(&manifest), "{manifest}");
        let committed =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repo root");
        assert_eq!(
            committed, manifest,
            "regenerate with `benchmark/run.sh --emit-manifest > BENCHMARK.json`"
        );

        let mut tally = lifecycle::Tally::default();
        tally.op(true, String::new);
        let line = result_line(
            &tally,
            &[("setup_s", 0.8127, "s"), ("space_amp", 1.5, "ratio")],
        );
        assert!(json_is_well_formed(&line), "{line}");
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let argv: Vec<String> = "--workload churn --seed 7 --seconds 15 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let args = parse_args(&argv).expect("driver arguments parse");
        assert_eq!(args.workload.map(|w| w.name), Some("churn"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 15.0, true));
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
    }
}
