//! End-to-end benchmark of the MORE-Stress pipeline.
//!
//! ```text
//! e2ebench --workload <campaign_sweep|placement_moves|cold_accuracy>
//!          --seed <n> --seconds <s> --trace <0|1>
//! e2ebench gen-reference     # full-FEM reference of cold_accuracy (~1 min, ~2 GB)
//! e2ebench record-goldens    # golden campaign_sweep job results
//! ```
//!
//! A run prints its stamped record and every metric with its unit, then,
//! as the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. It exits non-zero
//! without a result line when it cannot run at all.

mod data;
mod gen;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "usage: e2ebench --workload <campaign_sweep|placement_moves|cold_accuracy> \
                     --seed <n> --seconds <s> --trace <0|1>\n       \
                     e2ebench gen-reference | record-goldens";

fn parse_run(args: &[String]) -> Result<(String, workloads::Ctx), String> {
    let mut workload = None;
    let mut ctx = workloads::Ctx {
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => ctx.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                ctx.seconds = value.parse().map_err(|e| bad(&e))?;
                if ctx.seconds.is_nan() || ctx.seconds <= 0.0 {
                    return Err(bad(&"must be positive"));
                }
            }
            "--trace" => {
                ctx.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok((workload, ctx))
}

fn write_data(file: &str, text: &str) -> Result<(), String> {
    let path = data::data_path(file);
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("gen-reference") => {
            let reference = workloads::generate_reference()?;
            println!(
                "full FEM: {} free DoFs, {:.1} s, peak RSS {:.0} MB",
                reference.fem_dofs, reference.fem_wall_s, reference.fem_peak_rss_mb
            );
            write_data(data::REFERENCE_FILE, &reference.to_text())
        }
        Some("record-goldens") => {
            let goldens = workloads::record_goldens()?;
            write_data(data::GOLDENS_FILE, &data::goldens_to_text(&goldens))
        }
        _ => {
            let (workload, ctx) = parse_run(args)?;
            let outcome = workloads::run(&workload, &ctx)?;
            let mut problems = outcome.problems;
            problems.extend(report::check_metrics(&outcome.metrics));
            for line in &outcome.lines {
                println!("{line}");
            }
            for m in &outcome.metrics {
                println!("{} = {} {}", m.name, m.value, m.unit);
            }
            for problem in &problems {
                println!("CHECK FAILED: {problem}");
            }
            println!(
                "{}",
                report::result_line(
                    problems.is_empty(),
                    outcome.attempted.max(1),
                    outcome.failed,
                    &outcome.metrics
                )
            );
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
