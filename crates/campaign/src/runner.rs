//! `CampaignRunner`: the concurrent job scheduler that admits many
//! campaigns against one shared simulator stack.
//!
//! Every (campaign, array) pair becomes one *job*: the assembled global
//! operator does not depend on the thermal load, so the job solves all
//! of the array's finite loads as one batch
//! ([`MoreStressSimulator::solve_array_many`]: one assembly, one
//! boundary-condition reduction, one prepare), then samples and
//! checksums each load. Reports stay one per (array, load). Campaigns
//! whose [`model_key`](CampaignSpec::model_key) agree share one
//! [`MoreStressSimulator`] — and therefore one
//! [`FactorCache`](morestress_linalg::FactorCache), so two campaigns over
//! the same lattice pay one factorization between them. Jobs run on the
//! process-wide [`WorkPool`] under bounded admission, and each job is
//! isolated: a panic or a typed solver failure becomes a
//! [`JobOutcome::Failed`] without sinking the campaign. A non-finite load
//! is filtered out before the batch and fails alone; a typed error or a
//! panic inside the batch fails every finite load of that array.
//!
//! **Determinism**: job *results* are a pure function of the specs. The
//! report order is canonical (campaign-major, array-major, load-minor)
//! regardless of admission order or completion interleaving, and every
//! solved load's checksum is bitwise identical across pool caps — only
//! wall times and cache hit/miss tallies may vary with scheduling.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use morestress_core::{GlobalBc, GlobalStats, MoreStressSimulator, RomError};
use morestress_linalg::WorkPool;

use crate::spec::CampaignSpec;

/// The order jobs are fed to the pool when several campaigns are
/// admitted together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionOrder {
    /// FIFO with fairness: one array job from each campaign in turn, so
    /// a large campaign cannot starve a small one (the default).
    #[default]
    RoundRobin,
    /// Strict FIFO: all of campaign 0, then all of campaign 1, …
    Sequential,
}

/// How one job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// The load solved.
    Solved {
        /// FNV-1a over the displacement and midplane-stress bits —
        /// the value the determinism suite compares across pool caps.
        checksum: u64,
        /// Peak absolute nodal displacement component (µm).
        peak_displacement: f64,
        /// Peak midplane von Mises stress (MPa).
        peak_von_mises: f64,
        /// Cost accounting of the global-stage batch that solved all of
        /// the array's finite loads together — an aggregate shared by
        /// those loads, not a per-load cost (boxed: it is an order of
        /// magnitude larger than the `Failed` variant).
        stats: Box<GlobalStats>,
    },
    /// The load failed — a non-finite load, or a typed solver error or
    /// caught panic in its array's batch. The campaign keeps running.
    Failed {
        /// Human-readable failure description.
        error: String,
    },
}

impl JobOutcome {
    /// True for [`JobOutcome::Solved`].
    pub fn is_solved(&self) -> bool {
        matches!(self, JobOutcome::Solved { .. })
    }
}

/// The report of one (array, load) pair, in canonical order within its
/// campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Name of the campaign the job belongs to.
    pub campaign: String,
    /// Index into the campaign's `tsv_array` list.
    pub array_index: usize,
    /// Index into the campaign's `loads` list.
    pub load_index: usize,
    /// The thermal load ΔT (°C) the job solved.
    pub load: f64,
    /// How it ended.
    pub outcome: JobOutcome,
}

/// The aggregated result of one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Campaign name (from the spec).
    pub name: String,
    /// One report per (array, load) pair, campaign-canonical order:
    /// array-major, load-minor — independent of scheduling.
    pub jobs: Vec<JobReport>,
    /// Hits on the shared [`FactorCache`](morestress_linalg::FactorCache)
    /// of this campaign's simulator group after the run. The cache sees
    /// one prepare per array job (not per load), so a lone campaign over
    /// distinct arrays tallies no hits. Campaigns with equal model keys
    /// share the counter; under concurrent admission the tally may differ
    /// from the serial value.
    pub cache_hits: usize,
    /// Misses on the shared cache after the run (= distinct operators
    /// factored, when admission is serial).
    pub cache_misses: usize,
}

impl CampaignReport {
    /// Number of solved jobs.
    pub fn solved(&self) -> usize {
        self.jobs.iter().filter(|j| j.outcome.is_solved()).count()
    }

    /// Number of failed jobs.
    pub fn failed(&self) -> usize {
        self.jobs.len() - self.solved()
    }
}

/// The concurrent campaign scheduler. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct CampaignRunner {
    max_in_flight: usize,
    admission: AdmissionOrder,
}

/// One admitted job — every load of one array — resolved to indices.
#[derive(Clone, Copy)]
struct Job {
    /// Position in the canonical job order (campaign-major).
    slot: usize,
    campaign: usize,
    array: usize,
}

impl CampaignRunner {
    /// A runner with unbounded admission (the pool cap is the only
    /// limit) and round-robin fairness.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bounds how many array jobs may be in flight at once (clamped to
    /// the [`WorkPool`] cap; 0 = up to the cap).
    pub fn max_in_flight(mut self, jobs: usize) -> Self {
        self.max_in_flight = jobs;
        self
    }

    /// Sets the admission order across campaigns.
    pub fn admission(mut self, order: AdmissionOrder) -> Self {
        self.admission = order;
        self
    }

    /// Runs every campaign to completion and returns one report per
    /// campaign, in input order.
    ///
    /// Simulators are built up-front, one per distinct
    /// [`model_key`](CampaignSpec::model_key); jobs then drain through
    /// the shared [`WorkPool`]. Individual job failures are contained in
    /// their [`JobReport`]s — this method only fails when a *model*
    /// cannot be built at all.
    ///
    /// # Errors
    ///
    /// [`RomError`] from the one-shot local stage of a simulator group.
    pub fn run(&self, specs: &[CampaignSpec]) -> Result<Vec<CampaignReport>, RomError> {
        // One simulator per distinct model key; campaigns map onto groups.
        let mut groups: Vec<(Vec<u64>, MoreStressSimulator)> = Vec::new();
        let mut group_of = Vec::with_capacity(specs.len());
        for spec in specs {
            let key = spec.model_key();
            let gi = match groups.iter().position(|(k, _)| *k == key) {
                Some(gi) => gi,
                None => {
                    groups.push((key, spec.simulator_builder().build()?));
                    groups.len() - 1
                }
            };
            group_of.push(gi);
        }

        // Canonical slots: campaign-major, array-minor.
        let mut per_campaign: Vec<Vec<Job>> = Vec::with_capacity(specs.len());
        let mut slot = 0;
        for (ci, spec) in specs.iter().enumerate() {
            let jobs = (0..spec.arrays.len())
                .map(|ai| Job {
                    slot: slot + ai,
                    campaign: ci,
                    array: ai,
                })
                .collect();
            slot += spec.arrays.len();
            per_campaign.push(jobs);
        }
        let total = slot;

        // Admission queue: the order jobs are *offered* to workers.
        let queue: Vec<Job> = match self.admission {
            AdmissionOrder::Sequential => per_campaign.iter().flatten().copied().collect(),
            AdmissionOrder::RoundRobin => {
                let rounds = per_campaign.iter().map(Vec::len).max().unwrap_or(0);
                let mut q = Vec::with_capacity(total);
                for round in 0..rounds {
                    for jobs in &per_campaign {
                        if let Some(job) = jobs.get(round) {
                            q.push(*job);
                        }
                    }
                }
                q
            }
        };

        let pool = WorkPool::current();
        let bound = if self.max_in_flight == 0 {
            pool.cap()
        } else {
            self.max_in_flight
        };
        let workers = bound.min(total.max(1));

        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<Vec<JobReport>>>> = Mutex::new(vec![None; total]);
        pool.scope_workers(workers, |_worker| loop {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            let Some(job) = queue.get(idx) else { break };
            let spec = &specs[job.campaign];
            let sim = &groups[group_of[job.campaign]].1;
            let reports = run_job(spec, sim, job.array);
            results.lock().expect("results lock")[job.slot] = Some(reports);
        });

        let mut slots = results.into_inner().expect("results lock").into_iter();
        let mut reports = Vec::with_capacity(specs.len());
        for (ci, spec) in specs.iter().enumerate() {
            let jobs: Vec<JobReport> = per_campaign[ci]
                .iter()
                .flat_map(|_| slots.next().flatten().expect("every slot filled"))
                .collect();
            let cache = groups[group_of[ci]].1.factor_cache();
            reports.push(CampaignReport {
                name: spec.name.clone(),
                jobs,
                cache_hits: cache.hits(),
                cache_misses: cache.misses(),
            });
        }
        Ok(reports)
    }
}

/// Solves every load of one array with full fault containment and
/// returns one report per load, in load order. Non-finite loads fail
/// alone; the finite ones are solved as one batch, and a typed error or a
/// panic in that batch fails each of them.
fn run_job(spec: &CampaignSpec, sim: &MoreStressSimulator, array: usize) -> Vec<JobReport> {
    let finite: Vec<f64> = spec
        .loads
        .iter()
        .copied()
        .filter(|l| l.is_finite())
        .collect();
    let batch = if finite.is_empty() {
        Ok(Vec::new())
    } else {
        match panic::catch_unwind(AssertUnwindSafe(|| solve_batch(spec, sim, array, &finite))) {
            Ok(result) => result.map_err(|e| e.to_string()),
            // `&*payload`, not `&payload`: coercing `&Box<dyn Any>` would
            // make the *box* the `Any` and every downcast miss.
            Err(payload) => Err(format!("panic: {}", panic_message(&*payload))),
        }
    };
    let mut outcomes = match batch {
        Ok(outcomes) => outcomes.into_iter(),
        Err(error) => vec![JobOutcome::Failed { error }; finite.len()].into_iter(),
    };
    spec.loads
        .iter()
        .enumerate()
        .map(|(load_index, &load)| {
            let outcome = if load.is_finite() {
                outcomes.next().expect("one outcome per finite load")
            } else {
                JobOutcome::Failed {
                    error: format!("load {load} is not finite"),
                }
            };
            JobReport {
                campaign: spec.name.clone(),
                array_index: array,
                load_index,
                load,
                outcome,
            }
        })
        .collect()
}

fn solve_batch(
    spec: &CampaignSpec,
    sim: &MoreStressSimulator,
    array: usize,
    loads: &[f64],
) -> Result<Vec<JobOutcome>, RomError> {
    let layout = spec.arrays[array].layout();
    let solutions = sim.solve_array_many(&layout, loads, &GlobalBc::ClampedTopBottom)?;
    solutions
        .into_iter()
        .zip(loads)
        .map(|(solution, &load)| {
            let field = sim.sample_midplane(&layout, &solution, load, 4)?;
            let mut checksum = Fnv1a::new();
            let mut peak_displacement = 0.0f64;
            for &u in solution.nodal_displacement() {
                checksum.write_f64(u);
                peak_displacement = peak_displacement.max(u.abs());
            }
            for &v in &field.values {
                checksum.write_f64(v);
            }
            Ok(JobOutcome::Solved {
                checksum: checksum.finish(),
                peak_displacement,
                peak_von_mises: field.max(),
                stats: Box::new(solution.stats),
            })
        })
        .collect()
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "opaque payload"
    }
}

/// FNV-1a over raw f64 bits: order-sensitive, bitwise-exact, stable
/// across platforms — exactly what the cross-cap determinism contract
/// needs (`std` hashers are seeded per-process).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write_f64(&mut self, v: f64) {
        for byte in v.to_bits().to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
