//! The benchmark's workloads: namelist text generated from a seed, and
//! the knobs the namelist cannot express.

use miniwrf::{config_from_namelist, ModelConfig};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The committed `namelist.input`: 43×30×20, `fsbm_lookup`,
    /// point-AoS, one rank. Dynamics dominates the step.
    ConusV1,
    /// `&case name='supercell'`, `fsbm_collapse3` + panel-SoA, two ranks,
    /// one device worker each, restart files every 2 steps.
    SupercellV3TwoRank,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 2] = [Workload::ConusV1, Workload::SupercellV3TwoRank];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ConusV1 => "conus_v1",
            Workload::SupercellV3TwoRank => "supercell_v3_2rank",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Steps one solution integrates.
    pub fn steps(self) -> usize {
        match self {
            Workload::ConusV1 => 3,
            Workload::SupercellV3TwoRank => 4,
        }
    }

    /// Steps between restart files (0 = no checkpoints).
    pub fn restart_interval(self) -> usize {
        match self {
            Workload::SupercellV3TwoRank => 2,
            _ => 0,
        }
    }

    /// Namelist text of this workload for `seed` over `steps` steps.
    pub fn namelist(self, seed: u64, steps: usize) -> String {
        let minutes = steps as f64 * 5.0 / 60.0;
        let domains = format!(
            "&domains\n  e_we = 43, e_sn = 30, e_vert = 20,\n  \
             dx = 12000.0, dz = 400.0, dt = 5.0,\n  run_minutes = {minutes:?},\n/\n"
        );
        let rest = match self {
            Workload::ConusV1 => format!(
                "&physics\n  mp_physics = 'fsbm_lookup',\n/\n\
                 &scenario\n  n_storms = 3, seed = {seed},\n/\n\
                 &parallel\n  nproc = 1, numtiles = 1,\n/\n"
            ),
            Workload::SupercellV3TwoRank => format!(
                "&time_control\n  restart_interval = {},\n/\n\
                 &physics\n  mp_physics = 'fsbm_collapse3', host_layout = 'panel_soa',\n/\n\
                 &case\n  name = 'supercell',\n/\n\
                 &scenario\n  seed = {seed},\n/\n\
                 &parallel\n  nproc = 2, numtiles = 1,\n/\n",
                self.restart_interval()
            ),
        };
        domains + &rest
    }
}

/// Scenarios one run solves. Storm placement follows the seed: on
/// `conus_v1` one seed's microphysics costs up to three times another's
/// (collision flops over seeds 1–8: 0.42–1.36 G), so a run that solves
/// several and reports the mean across them varies less from seed to
/// seed.
pub const SCENARIOS: usize = 5;

/// The `&scenario seed` of each of a run's scenarios: the run's seed
/// first, so the run at the committed seed solves the committed case.
pub fn scenario_seeds(seed: u64) -> [u64; SCENARIOS] {
    std::array::from_fn(|i| seed.wrapping_add(i as u64 * 1_000_003))
}

/// Namelist text to configuration: the public parser, then the one knob
/// the namelist has no key for (one emulated-device worker per rank).
pub fn config(text: &str) -> Result<ModelConfig, String> {
    let mut cfg = config_from_namelist(text).map_err(|e| e.to_string())?;
    cfg.device_workers = Some(1);
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namelists_parse_to_the_stated_configurations() {
        for w in Workload::ALL {
            let cfg = config(&w.namelist(20240917, w.steps())).unwrap();
            assert_eq!((cfg.case.nx, cfg.case.ny, cfg.case.nz), (43, 30, 20));
            assert_eq!(cfg.steps(), w.steps(), "{}", w.name());
            assert_eq!(cfg.case.seed, 20240917);
            assert_eq!(cfg.restart_interval, w.restart_interval());
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        let cfg = config(&Workload::SupercellV3TwoRank.namelist(7, 5)).unwrap();
        assert_eq!(cfg.ranks, 2);
        assert_eq!(cfg.case.seed, 7);
        assert_eq!(cfg.case_kind, wrf_cases::CaseKind::Supercell);
    }

    #[test]
    fn scenario_seeds_start_at_the_run_seed_and_differ() {
        let s = scenario_seeds(20240917);
        assert_eq!(s[0], 20240917);
        for i in 1..SCENARIOS {
            assert!(!s[..i].contains(&s[i]));
        }
    }
}
