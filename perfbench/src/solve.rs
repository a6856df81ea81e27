//! The untraced run: what a user of `miniwrf` waits for, from namelist
//! text to the final history written, through the program's own entry
//! points.

use crate::digest::state_digest;
use crate::workload::{config, Workload};
use miniwrf::{run_parallel_restartable, Model, RestartConfig};
use std::path::Path;
use std::time::Instant;
use wrf_cases::wrfout::save_state;
use wrf_grid::two_d_decomposition;

/// Wall times of one solution and the end-state digest of every rank.
pub struct Solution {
    /// The `steps` steps (several ranks: `run_parallel_restartable`,
    /// which also builds the rank models).
    pub integrate_s: f64,
    /// All of it.
    pub total_s: f64,
    /// End-state digest per rank.
    pub digests: Vec<u64>,
}

/// One solution of workload `w`; history and restart files go to `dir`.
pub fn solve(w: Workload, seed: u64, steps: usize, dir: &Path) -> Result<Solution, String> {
    let text = w.namelist(seed, steps);
    let t0 = Instant::now();
    let cfg = config(&text)?;
    let (integrate_s, states) = if cfg.ranks == 1 {
        let mut model = Model::single_rank(cfg);
        let t = Instant::now();
        for _ in 0..steps {
            model.step();
        }
        (t.elapsed().as_secs_f64(), vec![model.state])
    } else {
        let rcfg = RestartConfig::new(dir.join("restart"), cfg.restart_interval);
        let t = Instant::now();
        let (run, stats) = run_parallel_restartable(cfg, steps, &rcfg, None)?;
        let integrate_s = t.elapsed().as_secs_f64();
        let expected = ((steps - 1) / cfg.restart_interval * cfg.ranks) as u64;
        if stats.attempts != 1 || stats.checkpoint_writes != expected {
            return Err(format!(
                "supervisor took {} attempts and wrote {} restart files (expected 1 and {expected})",
                stats.attempts, stats.checkpoint_writes
            ));
        }
        (integrate_s, run.states)
    };
    for (rank, state) in states.iter().enumerate() {
        let path = dir.join(format!("wrfout_d01_r{rank:04}.bin"));
        save_state(&path, state).map_err(|e| format!("save_state {}: {e}", path.display()))?;
    }
    let total_s = t0.elapsed().as_secs_f64();
    for rank in 0..states.len() {
        let _ = std::fs::remove_file(dir.join(format!("wrfout_d01_r{rank:04}.bin")));
    }
    let digests = states.iter().map(state_digest).collect();
    let _ = std::fs::remove_dir_all(dir.join("restart"));
    Ok(Solution {
        integrate_s,
        total_s,
        digests,
    })
}

/// Set-up alone: namelist text to every rank's model ready to step
/// (`config_from_namelist`, then `ConusCase` init and `FastSbm::new` per
/// rank, ranks built one after another).
pub fn setup(w: Workload, seed: u64, steps: usize) -> Result<f64, String> {
    let text = w.namelist(seed, steps);
    let t = Instant::now();
    let cfg = config(&text)?;
    let dd = two_d_decomposition(cfg.case.domain(), cfg.ranks, cfg.halo);
    for patch in dd.patches {
        std::hint::black_box(Model::for_patch(cfg, patch));
    }
    Ok(t.elapsed().as_secs_f64())
}
