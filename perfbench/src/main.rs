//! `perfbench` — the measuring child of `perfbench/run.py`.
//!
//! ```sh
//! perfbench solve --workload conus_v1 --seed 1 --scenario 0 --dir D
//! perfbench setup --workload conus_v1 --seed 1 --reps 8
//! perfbench trace --workload conus_v1 --seed 1 --scenarios 1 --dir D
//! perfbench probe
//! ```
//!
//! A run covers the workload's scenarios (see
//! [`workload::scenario_seeds`]). `solve` runs one untraced solution of
//! one scenario, so that each solution starts in a fresh process, as a
//! `miniwrf` run does, and its peak memory is its own; `setup` times
//! set-up alone `--reps` times per scenario; `trace` runs the first
//! `--scenarios` scenarios (default all) once each, traced; `probe`
//! measures the host. Each prints one JSON line.

mod digest;
mod probe;
mod report;
mod solve;
mod trace;
mod workload;

use report::{num, string, strs};
use std::path::PathBuf;
use workload::Workload;

struct Args {
    cmd: String,
    workload: Workload,
    seed: u64,
    steps: usize,
    scenario: usize,
    scenarios: usize,
    reps: usize,
    dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let cmd = it
        .next()
        .ok_or("missing command (solve, setup, trace, probe)")?;
    let mut args = Args {
        cmd,
        workload: Workload::ConusV1,
        seed: 0,
        steps: 0,
        scenario: 0,
        scenarios: workload::SCENARIOS,
        reps: 1,
        dir: PathBuf::from("."),
    };
    let mut named = false;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::from_name(&value)
                    .ok_or_else(|| format!("unknown workload {value}"))?;
                named = true;
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--steps" => args.steps = value.parse().map_err(|e| bad(&e))?,
            "--scenario" => args.scenario = value.parse().map_err(|e| bad(&e))?,
            "--scenarios" => args.scenarios = value.parse().map_err(|e| bad(&e))?,
            "--reps" => args.reps = value.parse().map_err(|e| bad(&e))?,
            "--dir" => args.dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.cmd != "probe" && !named {
        return Err("--workload is required".into());
    }
    if args.scenario >= workload::SCENARIOS || args.scenarios > workload::SCENARIOS {
        return Err(format!("a run has {} scenarios", workload::SCENARIOS));
    }
    if args.steps == 0 {
        args.steps = args.workload.steps();
    }
    Ok(args)
}

fn hexes(ds: &[u64]) -> String {
    strs(&ds.iter().map(|&d| digest::hex(d)).collect::<Vec<_>>())
}

fn run(a: &Args) -> Result<(), String> {
    let (w, steps) = (a.workload, a.steps);
    let seeds = workload::scenario_seeds(a.seed);
    match a.cmd.as_str() {
        "probe" => println!("{{\"host\": {}}}", probe::probe().to_json()),
        "solve" => {
            std::fs::create_dir_all(&a.dir).map_err(|e| e.to_string())?;
            let s = a.scenario;
            println!(
                "{}",
                match solve::solve(w, seeds[s], steps, &a.dir) {
                    Ok(sol) => format!(
                        "{{\"scenario\": {s}, \"steps\": {steps}, \"total_s\": {}, \
                         \"integrate_s\": {}, \"digests\": {}}}",
                        num(sol.total_s),
                        num(sol.integrate_s),
                        hexes(&sol.digests)
                    ),
                    Err(e) => format!("{{\"scenario\": {s}, \"error\": {}}}", string(&e)),
                }
            );
        }
        "setup" => {
            let mut setups = Vec::new();
            for i in 0..a.reps * seeds.len() {
                let s = i % seeds.len();
                setups.push(format!("[{s}, {}]", num(solve::setup(w, seeds[s], steps)?)));
            }
            println!("{{\"setups\": [{}]}}", setups.join(", "));
        }
        "trace" => {
            std::fs::create_dir_all(&a.dir).map_err(|e| e.to_string())?;
            let mut runs = Vec::new();
            let mut digests = Vec::new();
            let mut errors = Vec::new();
            for &s in seeds.iter().take(a.scenarios) {
                match trace::run(w, s, steps, &a.dir) {
                    Ok(run) => {
                        digests.push(hexes(&run.digests));
                        runs.push(run);
                    }
                    Err(e) => {
                        digests.push("[]".to_string());
                        errors.push(string(&e));
                    }
                }
            }
            println!(
                "{{\"steps\": {steps}, \"digests\": [{}], \"errors\": [{}], \"metrics\": {}}}",
                digests.join(", "),
                errors.join(", "),
                trace::metrics(&runs, steps).to_json()
            );
        }
        other => return Err(format!("unknown command {other}")),
    }
    Ok(())
}

fn main() {
    let result = parse_args().and_then(|a| run(&a));
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}
