//! Seeded input generation. Every workload input — campaign spec texts,
//! thermal loads, keep-out move sequences — is a pure function of the
//! `--seed` argument; the program under test only ever sees the generated
//! specs and layouts.

use morestress_mesh::{BlockKind, BlockLayout};

/// The TSV pitch (µm) of every workload: the paper's 15 µm test structure.
pub const PITCH: f64 = 15.0;

/// The thermal loads ΔT (°C) seeded inputs draw from. A finite pool keeps
/// the campaign's golden checksums enumerable: one per (lattice, load).
pub const LOAD_POOL: [f64; 16] = [
    -300.0, -275.0, -250.0, -225.0, -200.0, -175.0, -150.0, -125.0, -100.0, -75.0, -50.0, 25.0,
    50.0, 75.0, 100.0, 125.0,
];

/// Loads per campaign in `campaign_sweep`.
pub const CAMPAIGN_LOADS: usize = 8;

/// `campaign_sweep`: (TSV core edge, dummy rings) of campaigns A and B.
/// Both carry a dummy ring, so both need the dummy ROM and the two
/// campaigns share one model key (one simulator, one factor cache).
pub const CAMPAIGN_ARRAYS: [(usize, usize); 2] = [(10, 1), (8, 1)];

/// `placement_moves`: edge of the fixed TSV lattice the keep-out moves on.
pub const PLACEMENT_EDGE: usize = 12;

/// `placement_moves`: thermal loads solved per move.
pub const PLACEMENT_LOADS: usize = 2;

/// Loads of the traced layer replay's batched solve.
pub const REPLAY_LOADS: usize = 8;

/// splitmix64: tiny, seedable and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `count` distinct loads from [`LOAD_POOL`], in seeded order.
    pub fn loads(&mut self, count: usize) -> Vec<f64> {
        let mut pool = LOAD_POOL.to_vec();
        self.shuffle(&mut pool);
        pool.truncate(count);
        pool
    }
}

/// The solver block of a generated spec.
pub struct SolverBlock {
    /// Interpolation nodes per axis.
    pub interp: usize,
    /// `coarse` | `medium` | `fine`.
    pub resolution: &'static str,
    /// `direct` | `gmres` | `cg` | `auto`.
    pub global_solver: &'static str,
    /// Interior shards (0 = monolithic).
    pub shards: usize,
    /// Iterative / verification tolerance.
    pub tolerance: f64,
}

/// One campaign spec in the YAML subset `CampaignSpec::parse` reads: the
/// paper's TSV geometry at [`PITCH`], default materials, one array of a
/// `core × core` TSV block wrapped in `rings` dummy rings.
pub fn spec_yaml(
    name: &str,
    loads: &[f64],
    core: usize,
    rings: usize,
    solver: &SolverBlock,
) -> String {
    let mut out = format!(
        "name: {name}\n\
         geometry:\n  height: 50\n  pitch: {PITCH}\n  diameter: 5\n  thickness: 0.5\n\
         loads:\n"
    );
    for load in loads {
        out.push_str(&format!("  - {load}\n"));
    }
    out.push_str(&format!(
        "tsv_array:\n  - tsv_num_x: {core}\n    tsv_num_y: {core}\n    \
         dummy_tsv_num_x: {rings}\n    dummy_tsv_num_y: {rings}\n"
    ));
    let n = solver.interp;
    out.push_str(&format!(
        "solver:\n  interp_num_x: {n}\n  interp_num_y: {n}\n  interp_num_z: {n}\n  \
         resolution: {}\n  global_solver: {}\n  shards: {}\n  tolerance: {}\n",
        solver.resolution, solver.global_solver, solver.shards, solver.tolerance
    ));
    out
}

/// The solver block of both `campaign_sweep` campaigns.
pub fn campaign_solver() -> SolverBlock {
    SolverBlock {
        interp: 5,
        resolution: "coarse",
        global_solver: "direct",
        shards: 4,
        tolerance: 1e-10,
    }
}

/// `campaign_sweep` inputs: the spec texts of campaigns A and B, each
/// with [`CAMPAIGN_LOADS`] seeded loads.
pub fn campaign_specs(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed);
    let solver = campaign_solver();
    CAMPAIGN_ARRAYS
        .iter()
        .zip(["sweep-a", "sweep-b"])
        .map(|(&(core, rings), name)| {
            spec_yaml(name, &rng.loads(CAMPAIGN_LOADS), core, rings, &solver)
        })
        .collect()
}

/// `placement_moves` inputs: the loads every move solves and the move
/// sequence — lower-left corners of the 2×2 keep-out patch.
///
/// The sequence is one fixed permutation of every patch position, seen
/// through one of the lattice's eight symmetries chosen by the seed. A
/// move's cost depends on how many shards the old and new patches touch,
/// and the geometric shard plan is symmetric, so every seed yields the
/// same cost mix in a run of any length while the layouts still differ.
/// Positions do not repeat before all are used, so every move misses the
/// factor cache.
pub fn placement_inputs(seed: u64) -> (Vec<f64>, Vec<(usize, usize)>) {
    let mut rng = Rng::new(seed ^ 0x706c_6163_656d_656e);
    let loads = rng.loads(PLACEMENT_LOADS);
    let symmetry = rng.below(8);
    let last = PLACEMENT_EDGE - 2;
    let mut moves: Vec<(usize, usize)> = (0..(last + 1) * (last + 1))
        .map(|k| (k % (last + 1), k / (last + 1)))
        .collect();
    Rng::new(0x6d6f_7665_7331).shuffle(&mut moves);
    for (i, j) in &mut moves {
        if symmetry & 1 != 0 {
            *i = last - *i;
        }
        if symmetry & 2 != 0 {
            *j = last - *j;
        }
        if symmetry & 4 != 0 {
            std::mem::swap(i, j);
        }
    }
    (loads, moves)
}

/// `first` extended with loads from [`LOAD_POOL`] to [`REPLAY_LOADS`].
pub fn replay_loads(first: &[f64]) -> Vec<f64> {
    let mut loads = first.to_vec();
    for load in LOAD_POOL {
        if loads.len() >= REPLAY_LOADS {
            break;
        }
        if !loads.contains(&load) {
            loads.push(load);
        }
    }
    loads
}

/// `layout` with the 2×2 patch at `corner` turned into dummy silicon.
pub fn keep_out(layout: &BlockLayout, corner: (usize, usize)) -> BlockLayout {
    let mut moved = layout.clone();
    for dj in 0..2 {
        for di in 0..2 {
            moved.set_kind(corner.0 + di, corner.1 + dj, BlockKind::Dummy);
        }
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use morestress_campaign::CampaignSpec;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(campaign_specs(7), campaign_specs(7));
        assert_eq!(placement_inputs(7), placement_inputs(7));
        assert_ne!(campaign_specs(7), campaign_specs(8));
        let distinct: std::collections::HashSet<_> =
            (0..32).map(|seed| placement_inputs(seed).1).collect();
        assert_eq!(distinct.len(), 8, "the seed picks one of eight symmetries");
    }

    #[test]
    fn generated_specs_parse_and_share_one_model() {
        let specs: Vec<CampaignSpec> = campaign_specs(3)
            .iter()
            .map(|text| CampaignSpec::parse(text).expect("generated spec parses"))
            .collect();
        assert_eq!(specs[0].model_key(), specs[1].model_key());
        for spec in &specs {
            assert_eq!(spec.loads.len(), CAMPAIGN_LOADS);
            assert!(spec.loads.iter().all(|l| LOAD_POOL.contains(l)));
        }
        assert_eq!(specs[0].arrays[0].layout().nx(), 12);
        assert_eq!(specs[1].arrays[0].layout().nx(), 10);
    }

    #[test]
    fn replay_loads_are_distinct_and_keep_the_workload_loads() {
        let loads = replay_loads(&[-250.0, 7.0]);
        assert_eq!(loads.len(), REPLAY_LOADS);
        assert_eq!(&loads[..2], &[-250.0, 7.0]);
        let mut sorted = loads.clone();
        sorted.sort_by(f64::total_cmp);
        sorted.dedup();
        assert_eq!(sorted.len(), REPLAY_LOADS);
    }

    #[test]
    fn moves_cover_every_position_once() {
        let (loads, moves) = placement_inputs(11);
        assert_eq!(loads.len(), PLACEMENT_LOADS);
        assert_ne!(loads[0], loads[1]);
        let mut sorted = moves.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), (PLACEMENT_EDGE - 1) * (PLACEMENT_EDGE - 1));
        assert!(moves
            .iter()
            .all(|&(i, j)| i + 1 < PLACEMENT_EDGE && j + 1 < PLACEMENT_EDGE));
    }
}
