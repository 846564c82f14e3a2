//! The three workloads, the closed loop that drives them, the traced
//! layer replay and the metric assembly.
//!
//! Each workload is set up once (its `SimulatorBuilder::build`, timed
//! repeatedly for `setup_s`), then driven by one client in a closed loop
//! for the run's seconds on the shared `WorkPool` at its default cap. A
//! traced run drives the loop untraced, traced and under a one-thread
//! `WorkPool` (for the parallel speedup), and replays the workload's model
//! serially through `MoreStressSimulator` to split the global stage.

use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

use morestress_bench::{format_bench_sections, git_commit_number, peak_rss_bytes};
use morestress_campaign::{results::campaign_sections, CampaignRunner, CampaignSpec, JobOutcome};
use morestress_core::{
    GlobalBc, GlobalSolution, GlobalStats, InterpolationGrid, LocalStage, LocalStageOptions,
    MoreStressSimulator, RomError, RomSolver, SimulatorBuilder,
};
use morestress_fem::{normalized_mae, MaterialSet, ScalarField2d};
use morestress_linalg::WorkPool;
use morestress_mesh::{BlockKind, BlockLayout, BlockResolution, TsvGeometry};

use crate::data::{self, Golden, Reference};
use crate::gen::{self, SolverBlock};
use crate::report::Metric;
use crate::stats;
use crate::trace::{self, Counters, Span, Tracer};

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["campaign_sweep", "placement_moves", "cold_accuracy"];

/// Setup builds per run: at least this many, and more until
/// [`SETUP_MIN_S`] of building has been measured; `setup_s` is their
/// median.
const SETUP_BUILDS: usize = 3;
/// Least total build time (s) `setup_s` is the median over.
const SETUP_MIN_S: f64 = 1.5;

/// Repetitions of each warm call in the layer replay (median taken).
const REPLAY_REPEATS: usize = 5;

/// Mid-plane samples per block edge in `placement_moves` (the campaign
/// runner's density).
const MOVE_SAMPLES: usize = 4;

/// The paper's accuracy bound on the normalized MAE.
pub const NMAE_BOUND: f64 = 0.01;

/// The `cold_accuracy` problem: edge of the clamped TSV array, load and
/// sampling density (the paper's 10² points per block).
pub const COLD_EDGE: usize = 4;
/// Thermal load of the `cold_accuracy` problem (°C).
pub const COLD_DELTA_T: f64 = -250.0;
/// Mid-plane samples per block edge of the `cold_accuracy` problem.
pub const COLD_SAMPLES: usize = 10;

/// Run parameters from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Seconds one closed loop measures.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// What a run prints.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Human-readable lines (metrics with units, stamps).
    pub lines: Vec<String>,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Output-check failures (empty = correct).
    pub problems: Vec<String>,
    /// (array, load) solutions attempted.
    pub attempted: usize,
    /// Typed failures plus caught panics, in solutions.
    pub failed: usize,
}

/// One completed unit of work.
struct Unit {
    latency: Duration,
    solves: usize,
    failed: usize,
}

/// The one-time setup of a workload.
struct Setup {
    /// Wall time of each `SimulatorBuilder::build` (s).
    build_s: Vec<f64>,
    /// Element DoFs `n` of the TSV ROM.
    rom_dofs: usize,
    /// Unit-block solves one build performs: `n + 1` per ROM.
    unit_solves: usize,
}

/// What the layer replay runs on.
struct ReplayPlan {
    /// A simulator with an empty factor cache.
    sim: MoreStressSimulator,
    layout: BlockLayout,
    /// [`gen::REPLAY_LOADS`] loads, for the per-load split.
    loads: Vec<f64>,
    /// Corner of the 2×2 keep-out the move swaps to dummy.
    patch: (usize, usize),
    samples: usize,
}

trait Workload {
    /// (array, load) solutions one unit attempts.
    fn solves_per_unit(&self) -> usize;
    /// One unit of work; output checks that cost nothing ride along.
    fn unit(&mut self, tracer: &Tracer) -> Result<Unit, String>;
    /// Cumulative factor-cache (hits, misses) of the workload's solves.
    fn cache_counts(&self) -> (usize, usize);
    /// Spec texts to send once through the campaign front door in a
    /// traced run (the workload's base problem), unless its units already
    /// go through it.
    fn front_door_specs(&self) -> Option<Vec<String>>;
    /// The model the layer replay runs on.
    fn replay_plan(&self, tracer: &Tracer) -> Result<ReplayPlan, String>;
    /// Output checks outside the timed region; returns the problems.
    fn check(&mut self) -> Vec<String>;
    /// Normalized MAE of the `cold_accuracy` field against the reference.
    fn rom_nmae(&mut self, reference: &Reference) -> Result<f64, String> {
        let (field, _) = cold_pass(&Tracer::new(false))?;
        nmae(&field, reference)
    }
}

fn geometry() -> TsvGeometry {
    TsvGeometry::paper_defaults(gen::PITCH)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Times repeated builds (see [`SETUP_BUILDS`]) and keeps the last
/// simulator.
fn timed_builds(
    build: impl Fn() -> Result<MoreStressSimulator, RomError>,
) -> Result<(MoreStressSimulator, Setup), String> {
    let mut build_s: Vec<f64> = Vec::new();
    let sim = loop {
        let t0 = Instant::now();
        let built = build().map_err(err)?;
        build_s.push(t0.elapsed().as_secs_f64());
        if build_s.len() >= SETUP_BUILDS && build_s.iter().sum::<f64>() >= SETUP_MIN_S {
            break built;
        }
    };
    let rom_dofs = sim.tsv_model().num_dofs();
    let models = 1 + usize::from(sim.dummy_model().is_some());
    Ok((
        sim,
        Setup {
            build_s,
            rom_dofs,
            unit_solves: models * (rom_dofs + 1),
        },
    ))
}

/// A simulator around the same ROMs with an empty factor cache.
fn fresh(
    sim: &MoreStressSimulator,
    configure: impl FnOnce(SimulatorBuilder) -> SimulatorBuilder,
) -> Result<MoreStressSimulator, String> {
    configure(SimulatorBuilder::from_models(
        sim.tsv_model().clone(),
        sim.dummy_model().cloned(),
    ))
    .build()
    .map_err(err)
}

fn stats_counters(s: &GlobalStats) -> Counters {
    let plan = s.plan_stats.as_ref();
    vec![
        ("free_dofs", s.free_dofs as f64),
        ("nnz", s.nnz as f64),
        ("iterations", s.iterations as f64),
        ("workers", s.workers as f64),
        ("factor_workers", s.factor_workers as f64),
        ("shards", s.shards as f64),
        ("interface_dofs", s.interface_dofs as f64),
        ("shard_factor_bytes", s.shard_factor_bytes as f64),
        ("shards_refactored", s.shards_refactored as f64),
        ("shards_reused", s.shards_reused as f64),
        ("balance_ratio", plan.map_or(1.0, |p| p.balance_ratio)),
    ]
}

fn solve_counters(r: &Result<GlobalSolution, RomError>) -> Counters {
    r.as_ref()
        .map(|s| stats_counters(&s.stats))
        .unwrap_or_default()
}

fn many_counters(r: &Result<Vec<GlobalSolution>, RomError>) -> Counters {
    match r {
        Ok(solutions) if !solutions.is_empty() => stats_counters(&solutions[0].stats),
        _ => Vec::new(),
    }
}

fn field_counters(r: &Result<ScalarField2d, RomError>) -> Counters {
    r.as_ref()
        .map(|f| vec![("points", f.values.len() as f64)])
        .unwrap_or_default()
}

fn field_bits(field: &ScalarField2d) -> Vec<u64> {
    field.values.iter().map(|v| v.to_bits()).collect()
}

fn solution_bits(solution: &GlobalSolution) -> Vec<u64> {
    solution
        .nodal_displacement()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// Normalized MAE of a ROM field against the kept reference.
fn nmae(field: &ScalarField2d, reference: &Reference) -> Result<f64, String> {
    if field.grid.samples != reference.samples {
        return Err(format!(
            "ROM field is {:?} samples, reference {:?}",
            field.grid.samples, reference.samples
        ));
    }
    let reference = ScalarField2d {
        grid: field.grid,
        values: reference.values.clone(),
    };
    Ok(normalized_mae(field, &reference))
}

/// The `cold_accuracy` simulator: medium resolution, interp [5,5,5], the
/// builder's default solver (the paper's GMRES).
fn cold_builder() -> SimulatorBuilder {
    MoreStressSimulator::builder(&geometry())
        .resolution(BlockResolution::medium())
        .interpolation([5, 5, 5])
}

fn cold_layout() -> BlockLayout {
    BlockLayout::uniform(COLD_EDGE, COLD_EDGE, BlockKind::Tsv)
}

/// One cold pass: fresh simulator, one solve, the paper's 10² samples per
/// block. Returns the field and the pass's factor-cache (hits, misses).
fn cold_pass(tracer: &Tracer) -> Result<(ScalarField2d, (usize, usize)), String> {
    let layout = cold_layout();
    let sim = tracer
        .span("local.build", || cold_builder().build())
        .map_err(err)?;
    let solution = tracer
        .span_counted(
            "global.solve",
            || sim.solve_array(&layout, COLD_DELTA_T, &GlobalBc::ClampedTopBottom),
            solve_counters,
        )
        .map_err(err)?;
    let field = tracer
        .span_counted(
            "reconstruct.sample",
            || sim.sample_midplane(&layout, &solution, COLD_DELTA_T, COLD_SAMPLES),
            field_counters,
        )
        .map_err(err)?;
    let cache = sim.factor_cache();
    Ok((field, (cache.hits(), cache.misses())))
}

// ---------------------------------------------------------------------------
// campaign_sweep

struct CampaignSweep {
    texts: Vec<String>,
    /// (lattice edge, loads) of each campaign.
    campaigns: Vec<(usize, Vec<f64>)>,
    goldens: Vec<Golden>,
    /// First-seen checksum of each (campaign, load index).
    seen: Vec<Vec<Option<u64>>>,
    problems: Vec<String>,
    hits: usize,
    misses: usize,
    setup_sim: MoreStressSimulator,
}

impl CampaignSweep {
    fn new(ctx: &Ctx) -> Result<(Self, Setup), String> {
        let texts = gen::campaign_specs(ctx.seed);
        let specs = parse_all(&texts)?;
        if specs[0].model_key() != specs[1].model_key() {
            return Err("campaign_sweep specs must share one model key".to_string());
        }
        let (setup_sim, setup) = timed_builds(|| specs[0].simulator_builder().build())?;
        let campaigns = specs
            .iter()
            .map(|s| (s.arrays[0].layout().nx(), s.loads.clone()))
            .collect::<Vec<_>>();
        let seen = campaigns.iter().map(|(_, l)| vec![None; l.len()]).collect();
        Ok((
            Self {
                texts,
                campaigns,
                goldens: data::load_goldens()?,
                seen,
                problems: Vec::new(),
                hits: 0,
                misses: 0,
                setup_sim,
            },
            setup,
        ))
    }

    /// Checks one solved job against its golden and its earlier results.
    fn observe(&mut self, ci: usize, li: usize, checksum: u64, disp: f64, vm: f64) {
        let (lattice, ref loads) = self.campaigns[ci];
        let load = loads[li];
        let label = format!("campaign {ci} ({lattice}x{lattice}) load {load}");
        match self.seen[ci][li] {
            Some(first) if first != checksum => self.problems.push(format!(
                "{label}: checksum {checksum:016x} differs from the first repetition's {first:016x}"
            )),
            Some(_) => {}
            None => self.seen[ci][li] = Some(checksum),
        }
        match self
            .goldens
            .iter()
            .find(|g| g.lattice == lattice && g.load == load)
        {
            None => self.problems.push(format!("{label}: no golden value")),
            Some(g) => {
                if g.checksum != checksum {
                    self.problems.push(format!(
                        "{label}: checksum {checksum:016x} != golden {:016x}",
                        g.checksum
                    ));
                }
                if g.peak_displacement.to_bits() != disp.to_bits()
                    || g.peak_von_mises.to_bits() != vm.to_bits()
                {
                    self.problems.push(format!(
                        "{label}: peaks ({disp}, {vm}) != golden ({}, {})",
                        g.peak_displacement, g.peak_von_mises
                    ));
                }
            }
        }
    }
}

fn parse_all(texts: &[String]) -> Result<Vec<CampaignSpec>, String> {
    texts
        .iter()
        .map(|t| CampaignSpec::parse(t).map_err(err))
        .collect()
}

/// Parse → run → results through the campaign front door, traced.
fn front_door(
    tracer: &Tracer,
    texts: &[String],
) -> Result<(Vec<morestress_campaign::CampaignReport>, Duration), String> {
    let specs = tracer.span("campaign.parse", || parse_all(texts))?;
    let t0 = Instant::now();
    let reports = tracer
        .span_counted(
            "campaign.run",
            || CampaignRunner::new().run(&specs),
            |r| match r {
                Ok(reports) => vec![
                    (
                        "jobs",
                        reports.iter().map(|r| r.jobs.len()).sum::<usize>() as f64,
                    ),
                    (
                        "jobs_failed",
                        reports.iter().map(|r| r.failed()).sum::<usize>() as f64,
                    ),
                    // Same-model campaigns share one cache: the largest
                    // tally is the group's.
                    (
                        "cache_hits",
                        reports.iter().map(|r| r.cache_hits).max().unwrap_or(0) as f64,
                    ),
                    (
                        "cache_misses",
                        reports.iter().map(|r| r.cache_misses).max().unwrap_or(0) as f64,
                    ),
                ],
                Err(_) => Vec::new(),
            },
        )
        .map_err(err)?;
    let latency = t0.elapsed();
    tracer.span("campaign.results", || {
        format_bench_sections(&campaign_sections(&reports)).len()
    });
    Ok((reports, latency))
}

impl Workload for CampaignSweep {
    fn solves_per_unit(&self) -> usize {
        self.campaigns.iter().map(|(_, l)| l.len()).sum()
    }

    fn unit(&mut self, tracer: &Tracer) -> Result<Unit, String> {
        let (reports, latency) = front_door(tracer, &self.texts)?;
        let mut solves = 0;
        let mut failed = 0;
        // Both campaigns share one simulator, hence one cache tally.
        self.hits += reports[0].cache_hits;
        self.misses += reports[0].cache_misses;
        for (ci, report) in reports.iter().enumerate() {
            for job in &report.jobs {
                match &job.outcome {
                    JobOutcome::Solved {
                        checksum,
                        peak_displacement,
                        peak_von_mises,
                        ..
                    } => {
                        solves += 1;
                        self.observe(
                            ci,
                            job.load_index,
                            *checksum,
                            *peak_displacement,
                            *peak_von_mises,
                        );
                    }
                    JobOutcome::Failed { error } => {
                        failed += 1;
                        self.problems
                            .push(format!("campaign {ci} load {}: {error}", job.load));
                    }
                }
            }
        }
        Ok(Unit {
            latency,
            solves,
            failed,
        })
    }

    fn cache_counts(&self) -> (usize, usize) {
        (self.hits, self.misses)
    }

    fn front_door_specs(&self) -> Option<Vec<String>> {
        None
    }

    fn replay_plan(&self, _tracer: &Tracer) -> Result<ReplayPlan, String> {
        let spec = CampaignSpec::parse(&self.texts[0]).map_err(err)?;
        let sim = fresh(&self.setup_sim, |b| {
            b.solver(RomSolver::DirectCholesky)
                .shards(spec.solver.shards)
        })?;
        Ok(ReplayPlan {
            sim,
            layout: spec.arrays[0].layout(),
            loads: gen::replay_loads(&spec.loads),
            patch: (4, 4),
            samples: MOVE_SAMPLES,
        })
    }

    fn check(&mut self) -> Vec<String> {
        let mut problems = std::mem::take(&mut self.problems);
        for (ci, seen) in self.seen.iter().enumerate() {
            if seen.iter().any(Option::is_none) {
                problems.push(format!("campaign {ci}: some loads never solved"));
            }
        }
        problems
    }
}

// ---------------------------------------------------------------------------
// placement_moves

/// Solutions and sampled fields of one move, kept for the from-scratch
/// comparison.
struct MoveSnapshot {
    corner: (usize, usize),
    solutions: Vec<GlobalSolution>,
    fields: Vec<ScalarField2d>,
}

struct PlacementMoves {
    sim: MoreStressSimulator,
    base: BlockLayout,
    loads: Vec<f64>,
    moves: Vec<(usize, usize)>,
    next: usize,
    first: Option<MoveSnapshot>,
    last: Option<MoveSnapshot>,
    problems: Vec<String>,
}

const PLACEMENT_SHARDS: usize = 4;

fn placement_builder() -> SimulatorBuilder {
    MoreStressSimulator::builder(&geometry())
        .interpolation([4, 4, 4])
        .shards(PLACEMENT_SHARDS)
        .build_dummy(true)
}

impl PlacementMoves {
    fn new(ctx: &Ctx) -> Result<(Self, Setup), String> {
        let (loads, moves) = gen::placement_inputs(ctx.seed);
        let (sim, setup) = timed_builds(|| placement_builder().build())?;
        let base = BlockLayout::uniform(gen::PLACEMENT_EDGE, gen::PLACEMENT_EDGE, BlockKind::Tsv);
        // The loop starts from a prepared lattice: solve the full array
        // once, untimed, so the first move already takes the incremental
        // route like every later one.
        sim.solve_array_many(&base, &loads, &GlobalBc::ClampedTopBottom)
            .map_err(err)?;
        Ok((
            Self {
                sim,
                base,
                loads,
                moves,
                next: 0,
                first: None,
                last: None,
                problems: Vec::new(),
            },
            setup,
        ))
    }

    fn front_door_text(&self) -> String {
        let solver = SolverBlock {
            interp: 4,
            resolution: "coarse",
            global_solver: "direct",
            shards: PLACEMENT_SHARDS,
            tolerance: 1e-10,
        };
        gen::spec_yaml(
            "placement-base",
            &self.loads,
            gen::PLACEMENT_EDGE,
            0,
            &solver,
        )
    }

    /// Compares a kept move bitwise with a from-scratch solve on a fresh
    /// simulator.
    fn compare_from_scratch(&self, snap: &MoveSnapshot) -> Result<(), String> {
        let scratch = fresh(&self.sim, |b| b.shards(PLACEMENT_SHARDS))?;
        let layout = gen::keep_out(&self.base, snap.corner);
        let solutions = scratch
            .solve_array_many(&layout, &self.loads, &GlobalBc::ClampedTopBottom)
            .map_err(err)?;
        for (k, (&load, solution)) in self.loads.iter().zip(&solutions).enumerate() {
            let field = scratch
                .sample_midplane(&layout, solution, load, MOVE_SAMPLES)
                .map_err(err)?;
            if solution_bits(solution) != solution_bits(&snap.solutions[k])
                || field_bits(&field) != field_bits(&snap.fields[k])
            {
                return Err(format!(
                    "move {:?} load {load}: incremental result differs from a from-scratch solve",
                    snap.corner
                ));
            }
        }
        Ok(())
    }
}

impl Workload for PlacementMoves {
    fn solves_per_unit(&self) -> usize {
        self.loads.len()
    }

    fn unit(&mut self, tracer: &Tracer) -> Result<Unit, String> {
        let corner = self.moves[self.next % self.moves.len()];
        self.next += 1;
        let layout = gen::keep_out(&self.base, corner);
        let t0 = Instant::now();
        let solutions = tracer
            .span_counted(
                "global.solve_many",
                || {
                    self.sim
                        .solve_array_many(&layout, &self.loads, &GlobalBc::ClampedTopBottom)
                },
                many_counters,
            )
            .map_err(err)?;
        let mut fields = Vec::with_capacity(solutions.len());
        for (solution, &load) in solutions.iter().zip(&self.loads) {
            fields.push(
                tracer
                    .span_counted(
                        "reconstruct.sample",
                        || {
                            self.sim
                                .sample_midplane(&layout, solution, load, MOVE_SAMPLES)
                        },
                        field_counters,
                    )
                    .map_err(err)?,
            );
        }
        let latency = t0.elapsed();
        for s in solutions.iter().map(|s| &s.stats) {
            if s.shards_refactored + s.shards_reused != s.shards {
                self.problems.push(format!(
                    "move {corner:?}: {} refactored + {} reused != {} shards",
                    s.shards_refactored, s.shards_reused, s.shards
                ));
            }
        }
        let snapshot = MoveSnapshot {
            corner,
            solutions,
            fields,
        };
        if self.first.is_none() {
            self.first = Some(snapshot);
        } else {
            self.last = Some(snapshot);
        }
        Ok(Unit {
            latency,
            solves: self.loads.len(),
            failed: 0,
        })
    }

    fn cache_counts(&self) -> (usize, usize) {
        let cache = self.sim.factor_cache();
        (cache.hits(), cache.misses())
    }

    fn front_door_specs(&self) -> Option<Vec<String>> {
        Some(vec![self.front_door_text()])
    }

    fn replay_plan(&self, _tracer: &Tracer) -> Result<ReplayPlan, String> {
        Ok(ReplayPlan {
            sim: fresh(&self.sim, |b| b.shards(PLACEMENT_SHARDS))?,
            layout: self.base.clone(),
            loads: gen::replay_loads(&self.loads),
            patch: (5, 5),
            samples: MOVE_SAMPLES,
        })
    }

    fn check(&mut self) -> Vec<String> {
        let mut problems = std::mem::take(&mut self.problems);
        for snap in [&self.first, &self.last].into_iter().flatten() {
            if let Err(e) = self.compare_from_scratch(snap) {
                problems.push(e);
            }
        }
        if self.first.is_none() {
            problems.push("no move completed".to_string());
        }
        problems
    }
}

// ---------------------------------------------------------------------------
// cold_accuracy

struct ColdAccuracy {
    setup_sim: MoreStressSimulator,
    first: Option<ScalarField2d>,
    problems: Vec<String>,
    /// Factor-cache (hits, misses) summed over the passes.
    cache: (usize, usize),
}

impl ColdAccuracy {
    fn new(_ctx: &Ctx) -> Result<(Self, Setup), String> {
        let (setup_sim, setup) = timed_builds(|| cold_builder().build())?;
        Ok((
            Self {
                setup_sim,
                first: None,
                problems: Vec::new(),
                cache: (0, 0),
            },
            setup,
        ))
    }
}

impl Workload for ColdAccuracy {
    fn solves_per_unit(&self) -> usize {
        1
    }

    fn unit(&mut self, tracer: &Tracer) -> Result<Unit, String> {
        let t0 = Instant::now();
        let (field, (hits, misses)) = cold_pass(tracer)?;
        let latency = t0.elapsed();
        self.cache.0 += hits;
        self.cache.1 += misses;
        match &self.first {
            None => self.first = Some(field),
            Some(first) if field_bits(first) != field_bits(&field) => self
                .problems
                .push("cold pass field differs from the first pass".to_string()),
            Some(_) => {}
        }
        Ok(Unit {
            latency,
            solves: 1,
            failed: 0,
        })
    }

    fn cache_counts(&self) -> (usize, usize) {
        self.cache
    }

    fn front_door_specs(&self) -> Option<Vec<String>> {
        let solver = SolverBlock {
            interp: 5,
            resolution: "medium",
            global_solver: "gmres",
            shards: 0,
            tolerance: 1e-9,
        };
        Some(vec![gen::spec_yaml(
            "cold-pass",
            &[COLD_DELTA_T],
            COLD_EDGE,
            0,
            &solver,
        )])
    }

    fn replay_plan(&self, tracer: &Tracer) -> Result<ReplayPlan, String> {
        // The cold model has no dummy ROM; the replay's keep-out move
        // needs one.
        let dummy = tracer
            .span("local.build_dummy", || {
                LocalStage::new(
                    &geometry(),
                    &BlockResolution::medium(),
                    InterpolationGrid::new([5, 5, 5]),
                    &MaterialSet::tsv_defaults(),
                    BlockKind::Dummy,
                )
                .build(&LocalStageOptions::default())
            })
            .map_err(err)?;
        let sim = SimulatorBuilder::from_models(self.setup_sim.tsv_model().clone(), Some(dummy))
            .build()
            .map_err(err)?;
        Ok(ReplayPlan {
            sim,
            layout: cold_layout(),
            loads: gen::replay_loads(&[COLD_DELTA_T]),
            patch: (1, 1),
            samples: COLD_SAMPLES,
        })
    }

    fn check(&mut self) -> Vec<String> {
        let mut problems = std::mem::take(&mut self.problems);
        if self.first.is_none() {
            problems.push("no cold pass completed".to_string());
        }
        problems
    }

    fn rom_nmae(&mut self, reference: &Reference) -> Result<f64, String> {
        let field = self.first.as_ref().ok_or("no cold pass completed")?;
        nmae(field, reference)
    }
}

// ---------------------------------------------------------------------------
// Driving loop, replay and metrics

#[derive(Debug, Default)]
struct LoopStats {
    latencies_ms: Vec<f64>,
    wall: Duration,
    solves: usize,
    attempted: usize,
    failed: usize,
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic".to_string())
}

/// One client in a closed loop: units back to back until `seconds` have
/// passed (at least one unit).
fn closed_loop(
    w: &mut dyn Workload,
    tracer: &Tracer,
    seconds: f64,
    problems: &mut Vec<String>,
) -> LoopStats {
    let mut stats = LoopStats::default();
    let start = Instant::now();
    loop {
        let per_unit = w.solves_per_unit();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            tracer.span("bench.unit", || w.unit(tracer))
        }));
        stats.attempted += per_unit;
        match outcome {
            Ok(Ok(unit)) => {
                stats.latencies_ms.push(ms(unit.latency));
                stats.solves += unit.solves;
                stats.failed += unit.failed;
            }
            Ok(Err(e)) => {
                stats.failed += per_unit;
                problems.push(e);
            }
            Err(payload) => {
                stats.failed += per_unit;
                problems.push(format!("panic: {}", panic_text(&*payload)));
            }
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    stats.wall = start.elapsed();
    stats
}

/// Serial replay of the workload's model through `MoreStressSimulator`:
/// cold, warm (1 and k loads), sampling, a keep-out move and a warm
/// re-solve of the moved layout.
fn replay(plan: &ReplayPlan, tracer: &Tracer) -> Result<(), String> {
    let bc = GlobalBc::ClampedTopBottom;
    let sim = &plan.sim;
    let load = plan.loads[0];
    let one = |name: &'static str, layout: &BlockLayout| {
        tracer
            .span_counted(name, || sim.solve_array(layout, load, &bc), solve_counters)
            .map_err(err)
    };
    let cold = one("global.cold", &plan.layout)?;
    for _ in 0..REPLAY_REPEATS {
        one("global.warm", &plan.layout)?;
    }
    for _ in 0..REPLAY_REPEATS {
        tracer
            .span_counted(
                "global.warm_many",
                || sim.solve_array_many(&plan.layout, &plan.loads, &bc),
                many_counters,
            )
            .map_err(err)?;
    }
    for _ in 0..REPLAY_REPEATS {
        tracer
            .span_counted(
                "reconstruct.sample",
                || sim.sample_midplane(&plan.layout, &cold, load, plan.samples),
                field_counters,
            )
            .map_err(err)?;
    }
    let moved = gen::keep_out(&plan.layout, plan.patch);
    one("global.move", &moved)?;
    for _ in 0..REPLAY_REPEATS {
        one("global.warm_moved", &moved)?;
    }
    Ok(())
}

fn median_ms_of(spans: &[Span], name: &str) -> f64 {
    stats::median(&trace::durations_ms(spans, name))
}

fn counter_of(spans: &[Span], name: &str, counter: &str) -> f64 {
    spans
        .iter()
        .find(|s| s.name == name)
        .and_then(|s| s.counter(counter))
        .unwrap_or(0.0)
}

fn sum_counter(spans: &[Span], names: &[&str], counter: &str) -> f64 {
    spans
        .iter()
        .filter(|s| names.contains(&s.name))
        .filter_map(|s| s.counter(counter))
        .sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Everything the per-layer metrics are computed from.
struct TraceInputs<'a> {
    setup: &'a Setup,
    untraced: &'a LoopStats,
    traced: &'a LoopStats,
    cap1: &'a LoopStats,
    /// Spans of the traced loop.
    loop_spans: &'a [Span],
    /// Spans of the front-door run and the layer replay.
    replay_spans: &'a [Span],
    /// Factor-cache (hits, misses) over the traced loop.
    cache: (usize, usize),
    loads: usize,
    pool_cap: usize,
}

fn layer_metrics(t: &TraceInputs) -> Vec<Metric> {
    let all: Vec<Span> = t.loop_spans.iter().chain(t.replay_spans).cloned().collect();
    let r = t.replay_spans;
    let runs: Vec<&Span> = all.iter().filter(|s| s.name == "campaign.run").collect();
    let run_sum = |c: &str| runs.iter().filter_map(|s| s.counter(c)).sum::<f64>();
    let hits = run_sum("cache_hits");

    let cold = median_ms_of(r, "global.cold");
    let warm = median_ms_of(r, "global.warm");
    let warm_many = median_ms_of(r, "global.warm_many");
    let per_load = (warm_many - warm) / (t.loads - 1) as f64;
    let moved = median_ms_of(r, "global.move");
    let warm_moved = median_ms_of(r, "global.warm_moved");

    let prepares = ["global.cold", "global.move", "global.solve_many"];
    let refactored = sum_counter(&all, &prepares, "shards_refactored");
    let reused = sum_counter(&all, &prepares, "shards_reused");

    let times = trace::self_times(t.loop_spans);
    let attributed: Duration = t
        .loop_spans
        .iter()
        .zip(&times)
        .filter(|(s, _)| s.layer() != "bench")
        .map(|(_, d)| *d)
        .sum();
    let untraced_p50 = stats::median(&t.untraced.latencies_ms);

    let m = Metric::new;
    vec![
        m("campaign.run_ms", "ms", median_ms_of(&all, "campaign.run")),
        m(
            "campaign.cache_hit_ratio",
            "ratio",
            ratio(hits, hits + run_sum("cache_misses")),
        ),
        m(
            "campaign.parse_ms",
            "ms",
            median_ms_of(&all, "campaign.parse"),
        ),
        m(
            "campaign.results_ms",
            "ms",
            median_ms_of(&all, "campaign.results"),
        ),
        m(
            "campaign.jobs",
            "count",
            stats::median(
                &runs
                    .iter()
                    .filter_map(|s| s.counter("jobs"))
                    .collect::<Vec<_>>(),
            ),
        ),
        m("campaign.jobs_failed", "count", run_sum("jobs_failed")),
        m(
            "local.build_ms",
            "ms",
            1e3 * stats::median(&t.setup.build_s),
        ),
        m("local.rom_dofs", "count", t.setup.rom_dofs as f64),
        m("local.unit_solves", "count", t.setup.unit_solves as f64),
        m("global.cold_ms", "ms", cold),
        m("global.warm_ms", "ms", warm),
        m("global.move_ms", "ms", moved),
        m("global.per_load_ms", "ms", per_load),
        m("global.assemble_reduce_ms", "ms", warm - per_load),
        m(
            "global.free_dofs",
            "count",
            counter_of(r, "global.cold", "free_dofs"),
        ),
        m("global.nnz", "count", counter_of(r, "global.cold", "nnz")),
        m("linalg.prepare_ms", "ms", cold - warm),
        m("linalg.incremental_prepare_ms", "ms", moved - warm_moved),
        m("linalg.cache_hits", "count", t.cache.0 as f64),
        m("linalg.cache_misses", "count", t.cache.1 as f64),
        m(
            "linalg.shard_reuse_ratio",
            "ratio",
            ratio(reused, refactored + reused),
        ),
        m(
            "linalg.shard_factor_bytes",
            "bytes",
            counter_of(r, "global.cold", "shard_factor_bytes"),
        ),
        m(
            "linalg.interface_dofs",
            "count",
            counter_of(r, "global.cold", "interface_dofs"),
        ),
        m(
            "linalg.balance_ratio",
            "ratio",
            counter_of(r, "global.cold", "balance_ratio"),
        ),
        m(
            "linalg.gmres_iterations",
            "count",
            counter_of(r, "global.warm", "iterations"),
        ),
        m(
            "linalg.workers",
            "count",
            counter_of(r, "global.warm_many", "workers"),
        ),
        m(
            "linalg.factor_workers",
            "count",
            counter_of(r, "global.cold", "factor_workers"),
        ),
        m(
            "reconstruct.sample_ms",
            "ms",
            median_ms_of(&all, "reconstruct.sample"),
        ),
        m(
            "reconstruct.points",
            "count",
            counter_of(&all, "reconstruct.sample", "points"),
        ),
        m(
            "trace.unattributed_ms",
            "ms",
            ms(t.traced.wall.saturating_sub(attributed)),
        ),
        m(
            "trace.overhead_pct",
            "%",
            100.0 * (stats::median(&t.traced.latencies_ms) / untraced_p50 - 1.0),
        ),
        m(
            "pool.parallel_speedup",
            "ratio",
            stats::median(&t.cap1.latencies_ms) / untraced_p50,
        ),
        m("pool.cap", "count", t.pool_cap as f64),
    ]
}

fn end_to_end_metrics(
    setup: &Setup,
    untraced: &LoopStats,
    peak_rss_mb: f64,
    rom_nmae: f64,
) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", "s", stats::median(&setup.build_s)),
        Metric::new(
            "solves_per_s",
            "1/s",
            untraced.solves as f64 / untraced.wall.as_secs_f64(),
        ),
        Metric::new(
            "latency_p50_ms",
            "ms",
            stats::median(&untraced.latencies_ms),
        ),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb),
        Metric::new("rom_nmae", "ratio", rom_nmae),
    ]
}

fn peak_rss_mb() -> f64 {
    peak_rss_bytes().map_or(0.0, |b| b as f64 / (1u64 << 20) as f64)
}

/// Runs one workload and assembles what the run prints.
pub fn run(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    let reference = Reference::load()?;
    let (mut workload, setup): (Box<dyn Workload>, Setup) = match name {
        "campaign_sweep" => CampaignSweep::new(ctx).map(|(w, s)| (Box::new(w) as _, s))?,
        "placement_moves" => PlacementMoves::new(ctx).map(|(w, s)| (Box::new(w) as _, s))?,
        "cold_accuracy" => ColdAccuracy::new(ctx).map(|(w, s)| (Box::new(w) as _, s))?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    let w = workload.as_mut();
    let pool_cap = WorkPool::current().cap();
    let mut out = Outcome::default();

    // A traced run splits its seconds over three loops (untraced, traced,
    // one-thread pool), so it costs about as much as an untraced run.
    let seconds = if ctx.trace {
        ctx.seconds / 3.0
    } else {
        ctx.seconds
    };
    let untraced = closed_loop(w, &Tracer::new(false), seconds, &mut out.problems);
    let peak_rss = peak_rss_mb();
    out.attempted += untraced.attempted;
    out.failed += untraced.failed;

    let mut layer = Vec::new();
    let mut trace_lines = Vec::new();
    if ctx.trace {
        let tracer = Tracer::new(true);
        let cache_before = w.cache_counts();
        let traced = closed_loop(w, &tracer, seconds, &mut out.problems);
        let cache_after = w.cache_counts();
        let loop_spans = tracer.take();
        if let Some(texts) = w.front_door_specs() {
            if let Err(e) = front_door(&tracer, &texts) {
                out.problems.push(format!("front-door run: {e}"));
            }
        }
        let plan = w.replay_plan(&tracer)?;
        replay(&plan, &tracer)?;
        let replay_spans = tracer.take();
        let cap1 = WorkPool::new(1)
            .install(|| closed_loop(w, &Tracer::new(false), seconds, &mut out.problems));
        out.attempted += traced.attempted + cap1.attempted;
        out.failed += traced.failed + cap1.failed;
        for (label, spans) in [("traced loop", &loop_spans), ("replay", &replay_spans)] {
            let shares: Vec<String> = trace::self_ms_by_layer(spans)
                .iter()
                .map(|(layer, ms)| format!("{layer}={ms:.1}"))
                .collect();
            trace_lines.push(format!("self_ms by layer, {label}: {}", shares.join(" ")));
        }
        layer = layer_metrics(&TraceInputs {
            setup: &setup,
            untraced: &untraced,
            traced: &traced,
            cap1: &cap1,
            loop_spans: &loop_spans,
            replay_spans: &replay_spans,
            cache: (
                cache_after.0 - cache_before.0,
                cache_after.1 - cache_before.1,
            ),
            loads: plan.loads.len(),
            pool_cap,
        });
    }

    out.problems.extend(w.check());
    let rom_nmae = match w.rom_nmae(&reference) {
        Ok(v) => {
            if v > NMAE_BOUND {
                out.problems.push(format!(
                    "rom_nmae {v} exceeds the paper's bound {NMAE_BOUND}"
                ));
            }
            v
        }
        Err(e) => {
            out.problems.push(format!("accuracy pass: {e}"));
            f64::NAN
        }
    };

    let latencies = &untraced.latencies_ms;
    let n = latencies.len();
    out.metrics = if ctx.trace {
        layer
    } else {
        end_to_end_metrics(&setup, &untraced, peak_rss, rom_nmae)
    };

    let tail = match stats::tail_percentile(n) {
        Some(p) if p >= 90 => format!(
            "latency_p90_ms = {:.3} ms",
            stats::percentile(latencies, 90)
        ),
        Some(p) => format!(
            "latency_p90_ms not reported: {n} samples leave fewer than 10 beyond p90; \
             highest qualifying tail latency_p{p}_ms = {:.3} ms",
            stats::percentile(latencies, p)
        ),
        None => {
            format!("latency_p90_ms not reported: {n} samples, no tail percentile has 10 beyond it")
        }
    };
    let commit = git_commit_number() as u64;
    out.lines = vec![
        format!(
            "record workload={name} seed={} seconds={} trace={} hardware_threads={} pool_cap={pool_cap} \
             git_commit={} latency_samples={n} setup_samples={} solves={} attempted={} failed={}",
            ctx.seed,
            ctx.seconds,
            u8::from(ctx.trace),
            morestress_bench::hardware_threads(),
            if commit == 0 { "unknown".to_string() } else { format!("{commit:012x}") },
            setup.build_s.len(),
            untraced.solves,
            out.attempted,
            out.failed,
        ),
        format!(
            "latency_ms n={n} min={:.3} p50={:.3} max={:.3}",
            stats::percentile(latencies, 0),
            stats::median(latencies),
            stats::percentile(latencies, 100)
        ),
        tail,
        format!(
            "fail_rate = {} ({} of {} solutions)",
            ratio(out.failed as f64, out.attempted as f64),
            out.failed,
            out.attempted
        ),
        format!("rom_nmae = {rom_nmae} (bound {NMAE_BOUND})"),
        format!(
            "full-FEM reference of the cold_accuracy problem: {:.1} s, peak RSS {:.0} MB, \
             {} free DoFs ({} hardware threads)",
            reference.fem_wall_s,
            reference.fem_peak_rss_mb,
            reference.fem_dofs,
            reference.hardware_threads
        ),
    ];
    if name == "cold_accuracy" && !ctx.trace {
        out.lines.push(format!(
            "FEM / ROM cold pass: {:.1}x wall time, {:.1}x peak RSS",
            1e3 * reference.fem_wall_s / stats::median(latencies),
            reference.fem_peak_rss_mb / peak_rss
        ));
    }
    out.lines.extend(trace_lines);
    Ok(out)
}

/// `record-goldens`: solves every (lattice, load) job of the pool once
/// through the campaign front door and returns the goldens.
pub fn record_goldens() -> Result<Vec<Golden>, String> {
    let solver = gen::campaign_solver();
    let texts: Vec<String> = gen::CAMPAIGN_ARRAYS
        .iter()
        .zip(["sweep-a", "sweep-b"])
        .map(|(&(core, rings), name)| gen::spec_yaml(name, &gen::LOAD_POOL, core, rings, &solver))
        .collect();
    let specs = parse_all(&texts)?;
    let reports = CampaignRunner::new().run(&specs).map_err(err)?;
    let mut goldens = Vec::new();
    for (spec, report) in specs.iter().zip(&reports) {
        let lattice = spec.arrays[0].layout().nx();
        for job in &report.jobs {
            match &job.outcome {
                JobOutcome::Solved {
                    checksum,
                    peak_displacement,
                    peak_von_mises,
                    ..
                } => goldens.push(Golden {
                    lattice,
                    load: job.load,
                    checksum: *checksum,
                    peak_displacement: *peak_displacement,
                    peak_von_mises: *peak_von_mises,
                }),
                JobOutcome::Failed { error } => return Err(format!("job failed: {error}")),
            }
        }
    }
    Ok(goldens)
}

/// `gen-reference`: the full-FEM reference of the `cold_accuracy` problem.
pub fn generate_reference() -> Result<Reference, String> {
    let t0 = Instant::now();
    let (field, stats) = morestress_superpos::reference_midplane_field(
        &geometry(),
        &BlockResolution::medium(),
        &MaterialSet::tsv_defaults(),
        &cold_layout(),
        COLD_DELTA_T,
        COLD_SAMPLES,
        morestress_fem::LinearSolver::Auto,
    )
    .map_err(err)?;
    let fem_wall_s = t0.elapsed().as_secs_f64();
    Ok(Reference {
        samples: field.grid.samples,
        values: field.values,
        fem_dofs: stats.free_dofs,
        fem_wall_s,
        fem_peak_rss_mb: peak_rss_mb(),
        hardware_threads: morestress_bench::hardware_threads() as usize,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{valid_name, valid_unit};

    /// (name, unit) of every metric `BENCHMARK.json` declares in `section`
    /// (one metric object per line).
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let field = |line: &str, key: &str| -> String {
            let start = line.find(&format!("\"{key}\": \"")).expect(key) + key.len() + 5;
            line[start..].split('"').next().unwrap().to_string()
        };
        let body = text.split(&format!("\"{section}\"")).nth(1).expect(section);
        body.split(']')
            .next()
            .unwrap()
            .lines()
            .filter(|l| l.contains("\"name\""))
            .map(|l| (field(l, "name"), field(l, "unit")))
            .collect()
    }

    fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
        for m in metrics {
            assert!(valid_name(&m.name), "bad name {}", m.name);
            assert!(valid_unit(m.unit), "{} has bad unit {}", m.name, m.unit);
        }
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn emitted_metrics_match_the_declaration() {
        let setup = Setup {
            build_s: vec![0.5],
            rom_dofs: 168,
            unit_solves: 338,
        };
        let stats = LoopStats {
            latencies_ms: vec![2.0],
            wall: Duration::from_secs(1),
            solves: 2,
            attempted: 2,
            failed: 0,
        };
        let e2e = end_to_end_metrics(&setup, &stats, 100.0, 0.005);
        assert_eq!(emitted(&e2e), declared("end_to_end"));
        assert!(crate::report::check_metrics(&e2e).is_empty());

        let layer = layer_metrics(&TraceInputs {
            setup: &setup,
            untraced: &stats,
            traced: &stats,
            cap1: &stats,
            loop_spans: &[],
            replay_spans: &[],
            cache: (0, 1),
            loads: gen::REPLAY_LOADS,
            pool_cap: 2,
        });
        assert_eq!(emitted(&layer), declared("per_layer"));
    }
}
