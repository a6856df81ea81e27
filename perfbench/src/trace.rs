//! The traced run: the step sequence of `Model::step_inner`, replayed
//! from the crates' public functions with a timer around each call into
//! a layer. Its end state must equal the untraced program's bitwise; if
//! it does not, the layer timings describe a step the program no longer
//! takes and are reported stale.

use crate::digest::state_digest;
use crate::report::Metrics;
use crate::workload::{config, Workload};
use fsbm_core::meter::{PointWork, WorkBreakdown};
use fsbm_core::scheme::{FastSbm, SbmConfig, SbmStepStats};
use fsbm_core::types::{NKR, NTYPES};
use miniwrf::model::{periodic_refresh, KAPPA};
use miniwrf::{Model, ModelConfig};
use mpi_sim::{run_ranks, Rank};
use std::path::Path;
use std::time::Instant;
use wrf_cases::wrfout::{load_restart, save_restart, save_state};
use wrf_cases::ConusCase;
use wrf_dycore::diffusion::horizontal_diffusion;
use wrf_dycore::rk3::{rk3_advect_scalar, Rk3Work};
use wrf_dycore::wind::{storm_wind, StormWind};
use wrf_grid::{
    pack_halo, two_d_decomposition, unpack_halo, DomainDecomp, Field3, HaloSide, PatchSpec,
};

/// Self times (s) and counts of one rank's traced run.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// `ConusCase::new` + `init_state`.
    pub init_s: f64,
    /// `FastSbm::new` (static kernel tables).
    pub tables_s: f64,
    /// `Model::occupied_masks`.
    pub masks_s: f64,
    /// `storm_wind`.
    pub wind_s: f64,
    /// T→θ and θ→T conversion.
    pub theta_s: f64,
    /// `rk3_advect_scalar`, excluding its halo refreshes.
    pub rk3_s: f64,
    /// Halo fill and pack/unpack (the grid layer).
    pub grid_halo_s: f64,
    /// Halo sends and receives (the mpi layer).
    pub mpi_halo_s: f64,
    /// The occupied-mask max all-reduce.
    pub mask_allreduce_s: f64,
    /// `horizontal_diffusion`.
    pub diffusion_s: f64,
    /// Bin gather before and scatter after each bin's advection.
    pub bin_copy_s: f64,
    /// `FastSbm::step`.
    pub sbm_s: f64,
    /// `save_restart`.
    pub restart_write_s: f64,
    /// `load_restart` of each file just written (checksum-verified).
    pub restart_read_s: f64,
    /// `save_state` of the final state.
    pub history_s: f64,
    /// Wall of the step loop (restart read-back excluded).
    pub step_wall_s: f64,
    /// Scalars advected.
    pub scalars: u64,
    /// Halo refreshes issued.
    pub refreshes: u64,
    /// Advection work (tendency + update).
    pub rk3: Rk3Work,
    /// Microphysics work per process.
    pub sbm_work: WorkBreakdown,
    /// Points passing the temperature guard, summed over steps.
    pub active_points: u64,
    /// Points whose collision predicate fired, summed over steps.
    pub coal_points: u64,
    /// Collision-kernel entries evaluated.
    pub coal_entries: u64,
    /// `SbmStepStats::coal_wall`, summed (collision launch wall).
    pub coal_launch_s: f64,
    /// Executor jobs dispatched.
    pub epochs: u64,
    /// Executor chunks run.
    pub chunks: u64,
    /// Halo messages sent.
    pub msgs: u64,
    /// Halo bytes sent.
    pub bytes: u64,
    /// Restart bytes written.
    pub restart_bytes: u64,
    /// Restart files written.
    pub restart_files: u64,
}

impl Layers {
    /// Σ of the self times inside the step loop.
    fn self_sum(&self) -> f64 {
        self.masks_s
            + self.wind_s
            + self.theta_s
            + self.rk3_s
            + self.grid_halo_s
            + self.mpi_halo_s
            + self.mask_allreduce_s
            + self.diffusion_s
            + self.bin_copy_s
            + self.sbm_s
            + self.restart_write_s
    }
}

/// A halo refresh that keeps its own busy time.
trait Halo {
    fn refresh(&mut self, f: &mut Field3<f32>, l: &mut Layers);
}

/// The single-patch doubly-periodic fill (`periodic_refresh`).
struct Periodic<F: FnMut(&mut Field3<f32>)>(F);

impl<F: FnMut(&mut Field3<f32>)> Halo for Periodic<F> {
    fn refresh(&mut self, f: &mut Field3<f32>, l: &mut Layers) {
        let t = Instant::now();
        (self.0)(f);
        l.grid_halo_s += t.elapsed().as_secs_f64();
        l.refreshes += 1;
    }
}

/// The blocking four-side exchange of `miniwrf::parallel`: W/E, then
/// S/N carrying the corners, each packed, sent, received and unpacked.
struct Exchange<'a> {
    rank: &'a mut Rank,
    dd: &'a DomainDecomp,
    me: usize,
    patch: PatchSpec,
    tag: u64,
    buf: Vec<f32>,
}

impl Halo for Exchange<'_> {
    fn refresh(&mut self, f: &mut Field3<f32>, l: &mut Layers) {
        for (phase, sides) in [
            [HaloSide::West, HaloSide::East],
            [HaloSide::South, HaloSide::North],
        ]
        .iter()
        .enumerate()
        {
            for (s_idx, &side) in sides.iter().enumerate() {
                let (di, dj) = side.offset();
                let peer = self.dd.neighbor_periodic(self.me, di, dj);
                let t = Instant::now();
                self.buf.clear();
                pack_halo(f, &self.patch, side, &mut self.buf);
                let t1 = Instant::now();
                self.rank.send_f32(
                    peer,
                    self.tag * 16 + phase as u64 * 4 + s_idx as u64,
                    &self.buf,
                );
                l.grid_halo_s += (t1 - t).as_secs_f64();
                l.mpi_halo_s += t1.elapsed().as_secs_f64();
                l.msgs += 1;
                l.bytes += (self.buf.len() * 4) as u64;
            }
            for (s_idx, &side) in sides.iter().enumerate() {
                let (di, dj) = side.offset();
                let peer = self.dd.neighbor_periodic(self.me, di, dj);
                let t = Instant::now();
                let data = self
                    .rank
                    .recv_f32(peer, self.tag * 16 + phase as u64 * 4 + (1 - s_idx) as u64);
                let t1 = Instant::now();
                unpack_halo(f, &self.patch, side, &data);
                l.mpi_halo_s += (t1 - t).as_secs_f64();
                l.grid_halo_s += t1.elapsed().as_secs_f64();
            }
        }
        self.tag += 1;
        l.refreshes += 1;
    }
}

/// One rank's model, stepped by the traced replay of `step_inner`. The
/// `Model` supplies the public state, wind, clock and masks; the replay
/// owns the scheme and the work fields the model keeps private.
struct Traced {
    model: Model,
    sbm: FastSbm,
    scratch: Field3<f32>,
    scratch2: Field3<f32>,
    tend: Field3<f32>,
    last: Option<SbmStepStats>,
    l: Layers,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

impl Traced {
    fn new(cfg: ModelConfig, patch: PatchSpec) -> Traced {
        let mut l = Layers::default();
        let t = Instant::now();
        let case = ConusCase::new(cfg.case);
        let state = case.init_state(&patch);
        l.init_s = secs(t);

        let mut sc = SbmConfig::new(cfg.version);
        sc.dt = cfg.case.dt;
        sc.dz = cfg.case.dz;
        sc.workers = cfg.device_workers;
        sc.tiles = cfg.tiles.max(1);
        sc.sched = cfg.sched;
        sc.cached_kernels = cfg.cached_kernels;
        sc.profile_coal = cfg.profile_coal;
        sc.layout = cfg.layout;
        let t = Instant::now();
        let sbm = FastSbm::new(sc);
        l.tables_s = secs(t);

        let mut model = Model::for_patch_with_case(cfg, patch, case);
        model.state = state;
        Traced {
            model,
            sbm,
            scratch: Field3::for_patch(&patch),
            scratch2: Field3::for_patch(&patch),
            tend: Field3::for_patch(&patch),
            last: None,
            l,
        }
    }

    /// `Model::occupied_masks`, timed.
    fn masks(&mut self) -> [[bool; NKR]; NTYPES] {
        let t = Instant::now();
        let m = self.model.occupied_masks();
        self.l.masks_s += secs(t);
        m
    }

    /// One RK3 advance of the scalar in `scratch2` (θ or a bin) or of
    /// vapor; its halo time is the refresh's, not the stencil's.
    fn advect(&mut self, halo: &mut dyn Halo, in_scratch: bool, positive: bool) {
        let m = &mut self.model;
        let (dx, dz, dt) = (m.cfg.case.dx, m.cfg.case.dz, m.cfg.case.dt);
        let scalar = if in_scratch {
            &mut self.scratch2
        } else {
            &mut m.state.qv
        };
        let mut inner = Layers::default();
        let t = Instant::now();
        let w = rk3_advect_scalar(
            scalar,
            &m.wind,
            &m.patch,
            dx,
            dx,
            dz,
            dt,
            positive,
            &mut self.scratch,
            &mut self.tend,
            &mut |f| halo.refresh(f, &mut inner),
        );
        let l = &mut self.l;
        l.rk3_s += secs(t) - (inner.grid_halo_s + inner.mpi_halo_s);
        l.grid_halo_s += inner.grid_halo_s;
        l.mpi_halo_s += inner.mpi_halo_s;
        l.refreshes += inner.refreshes;
        l.msgs += inner.msgs;
        l.bytes += inner.bytes;
        l.rk3 += w;
        l.scalars += 1;
    }

    /// The body of `Model::step_inner` with blocking refreshes.
    fn step(&mut self, masks: &[[bool; NKR]; NTYPES], halo: &mut dyn Halo) {
        let cw = self.model.cfg.case.wind;
        let sp = StormWind {
            w_max: cw.w_max,
            u_surface: cw.u_surface,
            u_shear: cw.u_shear,
            cell_wavelength: cw.cell_wavelength,
            nz: self.model.cfg.case.nz as f32,
            x_offset: cw.x_offset,
            j_offset: cw.j_offset,
            j_period: cw.j_period,
        };
        let (dx, dz, dt) = {
            let c = &self.model.cfg.case;
            (c.dx, c.dz, c.dt)
        };
        let patch = self.model.patch;
        let t = Instant::now();
        storm_wind(&mut self.model.wind, &patch, &sp, self.model.time, dx, dz);
        self.l.wind_s += secs(t);

        let t = Instant::now();
        for j in patch.jm.iter() {
            for k in patch.km.iter() {
                for i in patch.im.iter() {
                    let tk = self.model.state.tt.get(i, k, j);
                    let p = self.model.state.p.get(i, k, j);
                    self.scratch2.set(i, k, j, tk * (100_000.0 / p).powf(KAPPA));
                }
            }
        }
        self.l.theta_s += secs(t);
        self.advect(halo, true, false);
        let t = Instant::now();
        for j in patch.jm.iter() {
            for k in patch.km.iter() {
                for i in patch.im.iter() {
                    let th = self.scratch2.get(i, k, j);
                    let p = self.model.state.p.get(i, k, j);
                    self.model
                        .state
                        .tt
                        .set(i, k, j, th * (p / 100_000.0).powf(KAPPA));
                }
            }
        }
        self.l.theta_s += secs(t);

        self.advect(halo, false, true);
        halo.refresh(&mut self.model.state.qv, &mut self.l);
        let t = Instant::now();
        let mut diff_work = PointWork::ZERO;
        horizontal_diffusion(
            &mut self.model.state.qv,
            &patch,
            1.0e4,
            dx,
            dt,
            &mut diff_work,
        );
        self.l.diffusion_s += secs(t);

        for (c, mask) in masks.iter().enumerate() {
            for (b, &occ) in mask.iter().enumerate() {
                if !occ {
                    continue;
                }
                let t = Instant::now();
                let ff = &self.model.state.ff[c];
                for j in patch.jm.iter() {
                    for k in patch.km.iter() {
                        for i in patch.im.iter() {
                            self.scratch2.set(i, k, j, ff.bin_slice(i, k, j)[b]);
                        }
                    }
                }
                self.l.bin_copy_s += secs(t);
                self.advect(halo, true, true);
                let t = Instant::now();
                let ff = &mut self.model.state.ff[c];
                for j in patch.jm.iter() {
                    for k in patch.km.iter() {
                        for i in patch.im.iter() {
                            ff.bin_slice_mut(i, k, j)[b] = self.scratch2.get(i, k, j);
                        }
                    }
                }
                self.l.bin_copy_s += secs(t);
            }
        }

        let t = Instant::now();
        let s = self.sbm.step(&mut self.model.state);
        self.l.sbm_s += secs(t);
        self.l.active_points += s.active_points as u64;
        self.l.coal_points += s.coal_points as u64;
        self.l.coal_entries += s.coal_entries;
        self.l.sbm_work += s.work;
        self.l.coal_launch_s += s.coal_wall;
        self.last = Some(s);
        self.model.time += dt;
    }

    /// The supervisor's checkpoint after `done` steps.
    fn checkpoint(&mut self, dir: &Path, rank: usize, done: u64) -> Result<(), String> {
        let path = dir.join(format!("restart_r{rank:04}_s{done:08}.bin"));
        let t = Instant::now();
        save_restart(&path, done, self.model.time, &self.model.state)
            .map_err(|e| format!("save_restart {}: {e}", path.display()))?;
        self.l.restart_write_s += secs(t);
        self.l.restart_files += 1;
        self.l.restart_bytes += std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        Ok(())
    }

    /// Reads the checkpoint back: it must return the same step, clock and
    /// state, and the run goes on from what was read.
    fn read_back(&mut self, dir: &Path, rank: usize, done: u64) -> Result<(), String> {
        let path = dir.join(format!("restart_r{rank:04}_s{done:08}.bin"));
        let t = Instant::now();
        let (step, time, state) =
            load_restart(&path).map_err(|e| format!("load_restart {}: {e}", path.display()))?;
        self.l.restart_read_s += secs(t);
        if step != done
            || time.to_bits() != self.model.time.to_bits()
            || state_digest(&state) != state_digest(&self.model.state)
        {
            return Err(format!("restart {} does not round-trip", path.display()));
        }
        self.model.state = state;
        self.model.time = time;
        Ok(())
    }

    /// Writes the final history, then returns the end-state digest and
    /// the layers.
    fn finish(mut self, dir: &Path, rank: usize) -> Result<(u64, Layers), String> {
        let path = dir.join(format!("wrfout_d01_r{rank:04}.bin"));
        let t = Instant::now();
        save_state(&path, &self.model.state)
            .map_err(|e| format!("save_state {}: {e}", path.display()))?;
        self.l.history_s += secs(t);
        let _ = std::fs::remove_file(&path);
        if let Some(last) = &self.last {
            let ex = self.sbm.exec_summary(last);
            self.l.epochs = ex.epochs;
            self.l.chunks = ex.chunks;
        }
        Ok((state_digest(&self.model.state), self.l))
    }
}

/// Result of one traced run: end-state digest per rank and each rank's
/// layers.
pub struct TraceRun {
    pub digests: Vec<u64>,
    pub ranks: Vec<Layers>,
}

fn checkpoint_due(interval: usize, done: usize, steps: usize) -> bool {
    interval > 0 && done.is_multiple_of(interval) && done < steps
}

/// Runs workload `w` traced at scenario `seed` for `steps` steps;
/// restart files go to `dir`.
pub fn run(w: Workload, seed: u64, steps: usize, dir: &Path) -> Result<TraceRun, String> {
    let cfg = config(&w.namelist(seed, steps))?;
    let interval = cfg.restart_interval;
    let dd = two_d_decomposition(cfg.case.domain(), cfg.ranks, cfg.halo);
    let per_rank: Vec<Result<(u64, Layers), String>> = if cfg.ranks == 1 {
        let mut tm = Traced::new(cfg, dd.patches[0]);
        let mut halo = Periodic(periodic_refresh(dd.patches[0]));
        for done in 1..=steps {
            let t = Instant::now();
            let masks = tm.masks();
            tm.step(&masks, &mut halo);
            let due = checkpoint_due(interval, done, steps);
            if due {
                tm.checkpoint(dir, 0, done as u64)?;
            }
            tm.l.step_wall_s += secs(t);
            if due {
                tm.read_back(dir, 0, done as u64)?;
            }
        }
        vec![tm.finish(dir, 0)]
    } else {
        let dd = &dd;
        run_ranks(cfg.ranks, move |mut rank| {
            let me = rank.rank();
            let mut tm = Traced::new(cfg, dd.patches[me]);
            let mut tag = 0u64;
            for done in 1..=steps {
                let t = Instant::now();
                rank.begin_step(done as u64 - 1)
                    .map_err(|e| e.to_string())?;
                let local = tm.masks();
                let ta = Instant::now();
                let mut masks = local;
                for (c, row) in masks.iter_mut().enumerate() {
                    for (b, slot) in row.iter_mut().enumerate() {
                        let v = if local[c][b] { 1.0 } else { 0.0 };
                        *slot = rank.allreduce_max(v) > 0.5;
                    }
                }
                tm.l.mask_allreduce_s += secs(ta);
                let mut halo = Exchange {
                    rank: &mut rank,
                    dd,
                    me,
                    patch: dd.patches[me],
                    tag,
                    buf: Vec::new(),
                };
                tm.step(&masks, &mut halo);
                tag = halo.tag;
                let due = checkpoint_due(interval, done, steps);
                if due {
                    tm.checkpoint(dir, me, done as u64)?;
                }
                tm.l.step_wall_s += secs(t);
                if due {
                    tm.read_back(dir, me, done as u64)?;
                }
            }
            tm.finish(dir, me)
        })
    };
    let mut out = TraceRun {
        digests: Vec::new(),
        ranks: Vec::new(),
    };
    for r in per_rank {
        let (d, l) = r?;
        out.digests.push(d);
        out.ranks.push(l);
    }
    Ok(out)
}

type TimeOf = fn(&Layers) -> f64;
type CountOf = fn(&Layers) -> u64;

/// The per-layer metrics of a set of traced runs: self times are summed
/// over runs and averaged over ranks, counts are totals.
pub fn metrics(runs: &[TraceRun], steps: usize) -> Metrics {
    let n = runs.first().map_or(1, |r| r.ranks.len()) as f64;
    let all = || runs.iter().flat_map(|r| &r.ranks);
    let mean = |f: &dyn Fn(&Layers) -> f64| all().map(f).sum::<f64>() / n;
    let total = |f: &dyn Fn(&Layers) -> u64| all().map(f).sum::<u64>();
    let mut m = Metrics::default();
    let times: [(&str, TimeOf); 17] = [
        ("cases.init_s", |l| l.init_s),
        ("core.tables_s", |l| l.tables_s),
        ("model.masks_s", |l| l.masks_s),
        ("dycore.wind_s", |l| l.wind_s),
        ("model.theta_s", |l| l.theta_s),
        ("dycore.rk3_s", |l| l.rk3_s),
        ("grid.halo_s", |l| l.grid_halo_s),
        ("mpi.halo_s", |l| l.mpi_halo_s),
        ("mpi.mask_allreduce_s", |l| l.mask_allreduce_s),
        ("dycore.diffusion_s", |l| l.diffusion_s),
        ("model.bin_copy_s", |l| l.bin_copy_s),
        ("core.sbm_s", |l| l.sbm_s),
        ("core.coal_launch_s", |l| l.coal_launch_s),
        ("cases.restart_write_s", |l| l.restart_write_s),
        ("cases.restart_read_s", |l| l.restart_read_s),
        ("cases.history_write_s", |l| l.history_s),
        ("trace.step_wall_s", |l| l.step_wall_s),
    ];
    for (name, f) in times {
        m.measured(name, mean(&f), "s");
    }
    let counts: [(&str, CountOf); 19] = [
        ("dycore.scalars_advected", |l| l.scalars),
        ("dycore.halo_refreshes", |l| l.refreshes),
        ("dycore.rk3_flops", |l| {
            l.rk3.tend.flops + l.rk3.update.flops
        }),
        ("core.active_points", |l| l.active_points),
        ("core.coal_points", |l| l.coal_points),
        ("core.coal_entries", |l| l.coal_entries),
        ("core.flops.kernals", |l| l.sbm_work.kernals.flops),
        ("core.flops.coal", |l| l.sbm_work.coal.flops),
        ("core.flops.cond", |l| l.sbm_work.cond.flops),
        ("core.flops.nucl", |l| l.sbm_work.nucl.flops),
        ("core.flops.sed", |l| l.sbm_work.sed.flops),
        ("core.flops.freeze", |l| l.sbm_work.freeze.flops),
        ("core.flops.breakup", |l| l.sbm_work.breakup.flops),
        ("exec.epochs", |l| l.epochs),
        ("exec.chunks", |l| l.chunks),
        ("mpi.msgs", |l| l.msgs),
        ("mpi.bytes", |l| l.bytes),
        ("cases.restart_bytes", |l| l.restart_bytes),
        ("cases.restart_files", |l| l.restart_files),
    ];
    for (name, f) in counts {
        let unit = if name.ends_with("bytes") {
            "B"
        } else {
            "count"
        };
        m.measured(name, total(&f) as f64, unit);
    }
    // Bytes from metered 4-byte operands; rates over the measured self
    // time of the same layer.
    let rk3_bytes = 4 * total(&|l| l.rk3.tend.mem_ops + l.rk3.update.mem_ops);
    let sbm_bytes = 4 * total(&|l| l.sbm_work.total().mem_ops);
    m.computed("dycore.rk3_bytes", rk3_bytes as f64, "B");
    m.computed("core.bytes", sbm_bytes as f64, "B");
    let rk3_flops = total(&|l| l.rk3.tend.flops + l.rk3.update.flops) as f64;
    let sbm_flops = total(&|l| l.sbm_work.total().flops) as f64;
    m.computed(
        "dycore.rk3_gflops",
        rk3_flops / (n * mean(&|l| l.rk3_s)) / 1e9,
        "GF/s",
    );
    m.computed(
        "core.sbm_gflops",
        sbm_flops / (n * mean(&|l| l.sbm_s)) / 1e9,
        "GF/s",
    );
    m.computed(
        "trace.coverage",
        mean(&|l| l.self_sum()) / mean(&|l| l.step_wall_s),
        "ratio",
    );
    m.measured("trace.steps", (steps * runs.len()) as f64, "count");
    m
}
