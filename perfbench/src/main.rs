//! `perfbench --workload NAME --seed N --seconds S --trace 0|1
//! [--spans-dir DIR]`: run one workload and print its metrics; the last
//! line of standard output is the result as one JSON object.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::common::RunCfg;

const USAGE: &str =
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans-dir DIR]";

fn parse(args: &[String]) -> Result<(String, RunCfg), String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut spans_dir) =
        (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                })
            }
            "--spans-dir" => spans_dir = Some(PathBuf::from(value)),
            f => return Err(format!("unknown flag {f}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !perfbench::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            perfbench::WORKLOADS.join(", ")
        ));
    }
    Ok((
        workload,
        RunCfg {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            spans_dir,
        },
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let stray = perfbench::unpinned_env(std::env::vars());
    if !stray.is_empty() {
        eprintln!(
            "perfbench: refusing to run with unpinned HYMV_* variables set: {}",
            stray.join(", ")
        );
        return ExitCode::from(2);
    }
    // Still single-threaded here: no rank thread has started yet.
    for (k, v) in perfbench::PINNED_ENV {
        std::env::set_var(k, v);
        println!("env {k}={v}");
    }
    println!(
        "host nproc={} cpu=\"{}\" caches=\"{}\"",
        perfbench::host::nproc(),
        perfbench::host::cpu_model(),
        perfbench::host::caches()
    );
    println!(
        "run workload={workload} seed={} seconds={} trace={} ranks={}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        perfbench::common::RANKS
    );
    let report = perfbench::run(&workload, &cfg).expect("workload name checked above");
    for line in report.lines(cfg.trace) {
        println!("{line}");
    }
    println!("{}", report.json_line(cfg.trace));
    ExitCode::SUCCESS
}
