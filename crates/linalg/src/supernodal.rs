//! Supernodal blocked sparse Cholesky factorization `A = L Lᵀ`.
//!
//! The scalar kernel in [`crate::cholesky`] touches one nonzero at a time:
//! every floating-point operation pays an index load, and every right-hand
//! side re-streams the whole factor. This module rebuilds the factorization
//! around **supernodes** — runs of adjacent columns whose below-diagonal
//! sparsity patterns coincide (exactly, or nearly, under *relaxed
//! amalgamation*). Each supernode is stored as one dense column panel, so
//! both the factorization and the triangular solves run as dense rank-k
//! updates over contiguous `f64` slices (`dsyrk`/`dgemm`-shaped loops the
//! compiler autovectorizes), with the sparse indices consulted once per
//! panel instead of once per entry.
//!
//! # Why this matters for MORE-Stress
//!
//! The paper's whole cost model (§4.2) is *factor once, solve many*: the
//! local stage reuses one decomposition for all n+1 local problems, and the
//! batched global stage re-solves one cached factor for every thermal load.
//! Both stages are therefore bounded by exactly the two things supernodes
//! accelerate: the one-time factorization (dense rank-k updates instead of
//! scalar scatter) and the per-right-hand-side triangular sweeps
//! ([`SupernodalCholesky::solve_panel`] streams each panel once for a whole
//! block of right-hand sides). The scalar kernel stays available as the
//! reference oracle — `CholeskyKernel::Scalar` in the backend layer — and
//! differential tests pin agreement between the two to ≤1e-12.
//!
//! One factorization runs serially on the calling thread. The parallelism
//! of the pipeline sits around it: independent shards factor concurrently,
//! and load panels, local solves and campaign jobs run as pool tasks.
//!
//! # Algorithm
//!
//! 1. **Symbolic** ([`Symbolic::analyze`]): the elimination tree is
//!    computed **once** and reused everywhere — the `ereach` column-count
//!    sweep, the amalgamation test and the update schedule. Columns are
//!    grouped greedily left-to-right: column `j` joins the supernode ending
//!    at `j-1` when `parent[j-1] == j` and either the patterns match exactly
//!    (a *fundamental* supernode) or the padding introduced by storing the
//!    union pattern stays under the relaxation budget. The phase also
//!    precomputes the **update schedule**: for every supernode, the exact
//!    ordered list of descendant contributions the left-looking sweep
//!    applies, and how that list is partitioned (see *Determinism* below).
//! 2. **Numeric**: one left-looking sweep over the supernodes in order.
//!    For each panel it assembles the panel from `A` and applies its
//!    descendant updates `C = G·G₁ᵀ` (contiguous axpy loops scattered
//!    through precomputed relative indices), then factors the panel in
//!    place by a dense blocked column Cholesky. A panel whose whole update
//!    load fits the work budget streams the updates straight into the
//!    panel. A heavier panel slices them into work-bounded **chunks**:
//!    each chunk accumulates into its own panel-shaped buffer, the buffers
//!    are folded pairwise by a stride-doubling tree into the first one, and
//!    the panel subtracts that root once.
//! 3. **Solve**: forward/backward substitution walks supernodes; per
//!    supernode the diagonal block is a dense triangular solve and the
//!    below-diagonal block a dense mat-vec into a contiguous gather/scatter
//!    buffer. [`SupernodalCholesky::solve_panel`] keeps the per-column
//!    operation order identical to the single-RHS path, so panel solves are
//!    bitwise equal to looped solves.
//!
//! # Determinism contract
//!
//! The factor's bits are a function of the operator, the permutation and
//! the [`SupernodalOptions`] alone — never of the pool cap or the thread
//! that runs it. Floating-point addition is not associative, so the update
//! partition is part of that contract: which descendants are streamed, how
//! the rest are cut into chunks by `chunk_work` and the adaptive budget,
//! and the order of the chunk-combine tree are all structural, and they fix
//! the factor's low-order bits. `crates/core/tests/thread_invariance.rs`
//! pins them by checksum.
//!
//! On a non-SPD operator the error is as deterministic: the sweep stops at
//! the first failing panel in schedule order (ascending permuted column)
//! and reports its failing row and pivot.

#![forbid(unsafe_code)]

use crate::cholesky::{ereach, etree};
use crate::kernel::{DenseKernel, KernelChoice};
use crate::ordering::{FillOrdering, Permutation};
use crate::{CsrMatrix, LinalgError, MemoryFootprint};

const NONE: usize = usize::MAX;

/// Tuning knobs of the supernode detection and factorization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupernodalOptions {
    /// Hard cap on supernode width (columns per panel). Wider panels give
    /// longer dense inner loops but cubically growing dense work on the
    /// trailing (dense-ish) supernodes; 32 is a good CPU default.
    pub max_width: usize,
    /// Relaxed-amalgamation budget: a merge is accepted while the padding
    /// (stored zeros) of the merged panel stays below this fraction of its
    /// true nonzeros. `0.0` yields exactly the fundamental supernodes.
    pub relax: f64,
    /// Small supernodes are merged more aggressively: below this width the
    /// padding budget is doubled (panel overhead dominates true flops
    /// there).
    pub small_width: usize,
    /// Minimum estimated-flop budget per update chunk (see the module docs;
    /// the effective budget also scales with the factorization size so
    /// chunk-accumulator overhead stays bounded). Changing it changes how
    /// descendant updates are grouped — and therefore the factor's
    /// low-order bits — so like `max_width` it is part of the structural
    /// configuration. Mostly for tests, which shrink it to force chunking
    /// on small operators.
    pub chunk_work: u64,
    /// Which [`DenseKernel`] runs the flop-bearing loops (rank-k updates,
    /// panel Cholesky, triangular sweeps). Each kernel is deterministic,
    /// but different kernels associate sums differently, so like
    /// `chunk_work` the choice is part of the structural configuration and
    /// of the cache fingerprint.
    pub kernel: KernelChoice,
}

impl Default for SupernodalOptions {
    fn default() -> Self {
        Self {
            max_width: 32,
            relax: 0.2,
            small_width: 8,
            chunk_work: CHUNK_WORK_BUDGET,
            kernel: KernelChoice::default(),
        }
    }
}

/// Shape statistics of a supernodal factor (reported through
/// [`SolveReport`](crate::SolveReport) and the ablation benches).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupernodeStats {
    /// Number of supernodes (column panels).
    pub supernodes: usize,
    /// Widest panel (columns).
    pub max_width: usize,
    /// Stored factor entries including relaxation padding.
    pub stored_nnz: usize,
    /// True factor nonzeros (what the scalar kernel would store).
    pub true_nnz: usize,
    /// Name of the [`DenseKernel`] that ran the numeric phase (`"scalar"`
    /// or `"blocked"`).
    pub kernel: &'static str,
}

/// The symbolic analysis of one factorization: supernode partition, row
/// structure, panel layout, and the deterministic update schedule of the
/// numeric sweep.
struct Symbolic {
    /// Supernode `s` covers permuted columns `sn_ptr[s]..sn_ptr[s+1]`.
    sn_ptr: Vec<usize>,
    /// Row lists: supernode `s` owns `rows[row_ptr[s]..row_ptr[s+1]]`,
    /// sorted ascending; the first `width(s)` entries are the diagonal
    /// block columns themselves.
    row_ptr: Vec<usize>,
    rows: Vec<usize>,
    /// Dense panel layout: supernode `s` owns
    /// `values[val_ptr[s]..val_ptr[s+1]]`.
    val_ptr: Vec<usize>,
    true_nnz: usize,
    max_width: usize,
    /// Update schedule in CSR form: factoring supernode `s` applies the
    /// descendant contributions `upd[upd_ptr[s]..upd_ptr[s+1]]` — pairs of
    /// (descendant, row cursor) — in exactly this order, the order the
    /// left-looking sweep's pending queues produce.
    upd_ptr: Vec<usize>,
    upd: Vec<(usize, usize)>,
    /// The prefix `upd[upd_ptr[s]..stream_hi[s]]` is streamed directly into
    /// panel `s`; the rest is sliced into update chunks.
    stream_hi: Vec<usize>,
    /// Update chunks, grouped per panel: panel `s` owns chunks
    /// `chk_ptr[s]..chk_ptr[s+1]`; chunk `t` covers updates
    /// `upd[chunk_lo[t]..chunk_hi[t]]` and accumulates into its own
    /// panel-shaped buffer.
    chk_ptr: Vec<usize>,
    chunk_lo: Vec<usize>,
    chunk_hi: Vec<usize>,
    /// Chunk-accumulator reduction trees, grouped per panel: panel `s`
    /// owns combines `cmb_ptr[s]..cmb_ptr[s+1]`; combine `u` folds
    /// accumulator `cmb_src[u]` into `cmb_dst[u]` element-wise (both are
    /// chunk indices local to the panel, so `cmb_dst[u] < cmb_src[u]`).
    /// Within a panel the combines form a fixed stride-doubling pairwise
    /// tree rooted at the panel's first chunk, listed in stride order.
    cmb_ptr: Vec<usize>,
    cmb_dst: Vec<usize>,
    cmb_src: Vec<usize>,
}

/// Minimum estimated-flop budget per update chunk. The effective budget
/// grows with the factorization (see [`Symbolic::analyze`]) so the chunk
/// count — and with it the accumulator traffic — stays bounded on huge
/// operators. Part of the structural configuration: it fixes the factor's
/// low-order bits.
const CHUNK_WORK_BUDGET: u64 = 1 << 18;

/// Cap on the number of update chunks the adaptive budget aims for.
const CHUNK_COUNT_TARGET: u64 = 256;

impl Symbolic {
    fn num_sn(&self) -> usize {
        self.sn_ptr.len() - 1
    }

    /// Runs the full symbolic phase on the permuted operator. The
    /// elimination tree is computed once, up front, and reused by the
    /// column-count sweep, the amalgamation test, the row-structure sweep,
    /// and the update schedule.
    fn analyze(ap: &CsrMatrix, opts: &SupernodalOptions) -> Self {
        let n = ap.nrows();

        // --- Column counts of L via the etree row sweep -------------------
        let parent = etree(ap);
        let mut counts = vec![1usize; n]; // diagonal entries
        {
            let mut w = vec![NONE; n];
            let mut stack = vec![0usize; n];
            for k in 0..n {
                let top = ereach(ap, k, &parent, &mut w, &mut stack);
                for &i in &stack[top..n] {
                    counts[i] += 1;
                }
            }
        }
        let true_nnz: usize = counts.iter().sum();

        // --- Supernode detection with relaxed amalgamation ----------------
        // Greedy left-to-right: extend the current supernode [c0..j) with
        // column j iff the etree links j-1 → j (which guarantees the merged
        // row structure is {c0..j} ∪ pattern(j) \ {j}) and the padding
        // stays within budget. For a supernode [c0..c) the row structure
        // is {c0..c-1} ∪ (pattern(c-1) \ {c-1}), so the panel height is
        // (c - c0) + counts[c-1] - 1 in closed form.
        let max_width_cap = opts.max_width.max(1);
        let mut sn_ptr: Vec<usize> = vec![0];
        if n > 0 {
            let mut c0 = 0usize;
            let mut true_in_sn = counts[0];
            for j in 1..n {
                let w = j - c0;
                let mut accept = false;
                if parent[j - 1] == j && w < max_width_cap {
                    if counts[j - 1] == counts[j] + 1 {
                        // Fundamental: identical below-diagonal patterns,
                        // zero padding added.
                        accept = true;
                    } else {
                        // Relaxed: accept while padding stays in budget.
                        let m = (w + 1) + counts[j] - 1;
                        let stored = (w + 1) * m - w * (w + 1) / 2;
                        let true_new = true_in_sn + counts[j];
                        let budget = if w < opts.small_width {
                            2.0 * opts.relax
                        } else {
                            opts.relax
                        };
                        accept = (stored - true_new) as f64 <= budget * true_new as f64;
                    }
                }
                if accept {
                    true_in_sn += counts[j];
                } else {
                    sn_ptr.push(j);
                    c0 = j;
                    true_in_sn = counts[j];
                }
            }
            sn_ptr.push(n);
        }
        let num_sn = sn_ptr.len() - 1;
        let mut col_to_sn = vec![0usize; n];
        for s in 0..num_sn {
            for c in sn_ptr[s]..sn_ptr[s + 1] {
                col_to_sn[c] = s;
            }
        }
        let max_width = (0..num_sn)
            .map(|s| sn_ptr[s + 1] - sn_ptr[s])
            .max()
            .unwrap_or(0);

        // --- Row lists: diagonal block plus pattern of the last column ----
        // pattern(last col) \ {last col} is collected with a second ereach
        // sweep over the same etree: row k of L has an entry in column i
        // iff i ∈ ereach(k).
        let mut row_ptr = vec![0usize; num_sn + 1];
        for s in 0..num_sn {
            let last = sn_ptr[s + 1] - 1;
            let w = sn_ptr[s + 1] - sn_ptr[s];
            row_ptr[s + 1] = row_ptr[s] + w + counts[last] - 1;
        }
        let mut rows = vec![0usize; row_ptr[num_sn]];
        {
            // Diagonal block rows first.
            for s in 0..num_sn {
                for (i, c) in (sn_ptr[s]..sn_ptr[s + 1]).enumerate() {
                    rows[row_ptr[s] + i] = c;
                }
            }
            // Below rows in ascending order (k increases monotonically).
            let mut next: Vec<usize> = (0..num_sn)
                .map(|s| row_ptr[s] + (sn_ptr[s + 1] - sn_ptr[s]))
                .collect();
            let mut w = vec![NONE; n];
            let mut stack = vec![0usize; n];
            for k in 0..n {
                let top = ereach(ap, k, &parent, &mut w, &mut stack);
                for &i in &stack[top..n] {
                    let s = col_to_sn[i];
                    if i == sn_ptr[s + 1] - 1 {
                        rows[next[s]] = k;
                        next[s] += 1;
                    }
                }
            }
            debug_assert!((0..num_sn).all(|s| next[s] == row_ptr[s + 1]));
        }

        // --- Panel storage layout -----------------------------------------
        let mut val_ptr = vec![0usize; num_sn + 1];
        for s in 0..num_sn {
            let w = sn_ptr[s + 1] - sn_ptr[s];
            let m = row_ptr[s + 1] - row_ptr[s];
            val_ptr[s + 1] = val_ptr[s] + w * m;
        }

        // --- Deterministic update schedule --------------------------------
        // Replays the left-looking sweep's pending queues symbolically:
        // after supernode s is factored it is queued on the supernode
        // owning its next unconsumed row, so every supernode sees its
        // descendants in a fixed order, frozen here per supernode.
        let mut upd_ptr = vec![0usize; num_sn + 1];
        let mut upd: Vec<(usize, usize)> = Vec::new();
        let mut upd_work: Vec<u64> = Vec::new();
        {
            let mut pending: Vec<Vec<usize>> = vec![Vec::new(); num_sn];
            let mut cursor = vec![0usize; num_sn];
            for s in 0..num_sn {
                let c1 = sn_ptr[s + 1];
                for d in std::mem::take(&mut pending[s]) {
                    let rows_d = &rows[row_ptr[d]..row_ptr[d + 1]];
                    let wd = sn_ptr[d + 1] - sn_ptr[d];
                    let md = rows_d.len();
                    let p = cursor[d];
                    let p2 = p + rows_d[p..].partition_point(|&r| r < c1);
                    upd.push((d, p));
                    upd_work.push((wd * (md - p) * (p2 - p)) as u64);
                    if p2 < md {
                        cursor[d] = p2;
                        pending[col_to_sn[rows_d[p2]]].push(d);
                    }
                }
                upd_ptr[s + 1] = upd.len();
                let w = sn_ptr[s + 1] - sn_ptr[s];
                let m = row_ptr[s + 1] - row_ptr[s];
                if m > w {
                    cursor[s] = w;
                    pending[col_to_sn[rows[row_ptr[s] + w]]].push(s);
                }
            }
        }

        // --- Update partition: streamed or work-bounded chunks ------------
        // A panel whose whole update load fits the budget streams it
        // directly (no accumulator overhead where panels are small); a
        // heavier panel streams *nothing* and slices everything into
        // accumulator chunks.
        let mut stream_hi = vec![0usize; num_sn];
        let mut chk_ptr = vec![0usize; num_sn + 1];
        let mut chunk_lo: Vec<usize> = Vec::new();
        let mut chunk_hi: Vec<usize> = Vec::new();
        let mut cmb_ptr = vec![0usize; num_sn + 1];
        let mut cmb_dst: Vec<usize> = Vec::new();
        let mut cmb_src: Vec<usize> = Vec::new();
        // Structure-only adaptive budget: at least the configured floor,
        // and at most ~CHUNK_COUNT_TARGET chunks across the whole
        // factorization.
        let budget = opts
            .chunk_work
            .max(1)
            .max(upd_work.iter().sum::<u64>() / CHUNK_COUNT_TARGET);
        for s in 0..num_sn {
            let hi = upd_ptr[s + 1];
            let mut i = upd_ptr[s];
            if upd_work[i..hi].iter().sum::<u64>() < budget {
                i = hi;
            }
            stream_hi[s] = i;
            while i < hi {
                let lo = i;
                let mut work = 0u64;
                while i < hi && work < budget {
                    work += upd_work[i];
                    i += 1;
                }
                chunk_lo.push(lo);
                chunk_hi.push(i);
            }
            chk_ptr[s + 1] = chunk_lo.len();
            // Fixed stride-doubling pairwise reduction tree over this
            // panel's chunks, rooted at the first chunk: the panel then
            // subtracts the root accumulator only.
            let q = chk_ptr[s + 1] - chk_ptr[s];
            let mut stride = 1usize;
            while stride < q {
                let mut i = 0;
                while i + stride < q {
                    cmb_dst.push(i);
                    cmb_src.push(i + stride);
                    i += 2 * stride;
                }
                stride *= 2;
            }
            cmb_ptr[s + 1] = cmb_dst.len();
        }

        Self {
            sn_ptr,
            row_ptr,
            rows,
            val_ptr,
            true_nnz,
            max_width,
            upd_ptr,
            upd,
            stream_hi,
            chk_ptr,
            chunk_lo,
            chunk_hi,
            cmb_ptr,
            cmb_dst,
            cmb_src,
        }
    }
}

/// Dense scratch of one descendant update, reused across updates.
struct UpdateScratch {
    /// Maps a permuted row to its local index in the current panel.
    relmap: Vec<usize>,
    relrows: Vec<usize>,
    update: Vec<f64>,
}

/// Dense scratch of the numeric sweep, reused across supernodes.
struct PanelScratch {
    update: UpdateScratch,
    /// Chunk accumulators of the current panel, one panel-shaped slice per
    /// chunk.
    acc: Vec<f64>,
}

impl PanelScratch {
    fn new(n: usize) -> Self {
        Self {
            update: UpdateScratch {
                relmap: vec![0usize; n],
                relrows: Vec::new(),
                update: Vec::new(),
            },
            acc: Vec::new(),
        }
    }
}

/// Computes one descendant contribution `C = G·G₁ᵀ` and scatters it into
/// `dst` — the panel itself (subtracting, the streamed path) or a chunk
/// accumulator (adding; the panel later subtracts the whole accumulator).
/// `factored` holds every panel before the current one; descendant `d` is
/// among them. `scratch.relmap` must already map the current panel's rows
/// to local indices.
#[allow(clippy::too_many_arguments)] // internal kernel, call sites are two
fn apply_update(
    sym: &Symbolic,
    kern: &dyn DenseKernel,
    factored: &[f64],
    (d, p): (usize, usize),
    c0: usize,
    c1: usize,
    m: usize,
    dst: &mut [f64],
    scratch: &mut UpdateScratch,
    subtract: bool,
) {
    let UpdateScratch {
        relmap,
        relrows,
        update,
    } = scratch;
    let rows_d = &sym.rows[sym.row_ptr[d]..sym.row_ptr[d + 1]];
    let md = rows_d.len();
    let p2 = p + rows_d[p..].partition_point(|&r| r < c1);
    let wj = p2 - p;
    let mu = md - p;
    debug_assert!(wj >= 1);
    let panel_d = &factored[sym.val_ptr[d]..sym.val_ptr[d + 1]];

    // Accumulated as wd rank-1 updates over contiguous columns.
    update.clear();
    update.resize(mu * wj, 0.0);
    kern.rank_update(
        update,
        panel_d,
        md,
        p,
        wj,
        sym.sn_ptr[d + 1] - sym.sn_ptr[d],
    );

    // Scatter through relative indices (the rows of a descendant's tail
    // are a subset of this panel's rows).
    relrows.clear();
    relrows.extend(rows_d[p..].iter().map(|&r| relmap[r]));
    for jj in 0..wj {
        let lc = rows_d[p + jj] - c0;
        let dstcol = &mut dst[lc * m..(lc + 1) * m];
        let src = &update[jj * mu..(jj + 1) * mu];
        // Skip rows above the target column (upper triangle of the
        // symmetric update block).
        if subtract {
            for i in jj..mu {
                dstcol[relrows[i]] -= src[i];
            }
        } else {
            for i in jj..mu {
                dstcol[relrows[i]] += src[i];
            }
        }
    }
}

/// Assembles, updates and factors panel `s` in place. `factored` holds
/// every panel before `s` (all of `s`'s descendants), `panel` is `s`'s own
/// storage.
///
/// On a non-positive pivot, returns `Err((row, pivot))` in permuted
/// coordinates.
fn factor_supernode(
    sym: &Symbolic,
    kern: &dyn DenseKernel,
    ap: &CsrMatrix,
    factored: &[f64],
    panel: &mut [f64],
    s: usize,
    scratch: &mut PanelScratch,
) -> Result<(), (usize, f64)> {
    let PanelScratch { update, acc } = scratch;
    let c0 = sym.sn_ptr[s];
    let c1 = sym.sn_ptr[s + 1];
    let rows_s = &sym.rows[sym.row_ptr[s]..sym.row_ptr[s + 1]];
    let m = rows_s.len();
    let wm = panel.len();
    for (i, &r) in rows_s.iter().enumerate() {
        update.relmap[r] = i;
    }

    // Update chunks, each into its own zeroed accumulator, then the
    // panel's fixed pairwise combine tree folds them into the first one.
    // The folds are `dst += 1.0 · src`, which every kernel computes
    // exactly (a fused multiply-add by 1.0 rounds like a plain add).
    let chunks = sym.chk_ptr[s]..sym.chk_ptr[s + 1];
    acc.clear();
    acc.resize(chunks.len() * wm, 0.0);
    for (accbuf, t) in acc.chunks_exact_mut(wm).zip(chunks) {
        for &upd in &sym.upd[sym.chunk_lo[t]..sym.chunk_hi[t]] {
            apply_update(sym, kern, factored, upd, c0, c1, m, accbuf, update, false);
        }
    }
    for u in sym.cmb_ptr[s]..sym.cmb_ptr[s + 1] {
        let (lo, hi) = acc.split_at_mut(sym.cmb_src[u] * wm);
        let dst = sym.cmb_dst[u] * wm;
        kern.axpy(1.0, &hi[..wm], &mut lo[dst..dst + wm]);
    }

    // Scatter A's columns (read row c of the permuted matrix: by symmetry
    // its tail ≥ c is column c of the lower triangle).
    for (lc, c) in (c0..c1).enumerate() {
        let (cols, vals) = ap.row(c);
        let start = cols.partition_point(|&j| j < c);
        for (&j, &v) in cols[start..].iter().zip(&vals[start..]) {
            panel[lc * m + update.relmap[j]] = v;
        }
    }

    // Streamed descendant updates, in schedule order.
    for &upd in &sym.upd[sym.upd_ptr[s]..sym.stream_hi[s]] {
        apply_update(sym, kern, factored, upd, c0, c1, m, panel, update, true);
    }

    // Subtract the combine tree's root once (`-1.0 · acc` is exact under
    // every kernel, like the folds).
    if !acc.is_empty() {
        kern.axpy(-1.0, &acc[..wm], panel);
    }

    // Dense in-panel column Cholesky (left-looking within the panel).
    kern.factor_panel(panel, m, c1 - c0)
        .map_err(|(j, pivot)| (c0 + j, pivot))
}

/// A supernodal Cholesky factorization of a symmetric positive definite
/// matrix, stored as dense column panels.
///
/// # Example
///
/// ```
/// use morestress_linalg::{CooMatrix, SupernodalCholesky};
///
/// # fn main() -> Result<(), morestress_linalg::LinalgError> {
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 0, 4.0); coo.push(0, 1, 1.0);
/// coo.push(1, 0, 1.0); coo.push(1, 1, 3.0);
/// let a = coo.to_csr();
/// let chol = SupernodalCholesky::factor(&a)?;
/// let x = chol.solve(&[1.0, 2.0]);
/// assert!(a.residual(&x, &[1.0, 2.0]) < 1e-14);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SupernodalCholesky {
    n: usize,
    perm: Permutation,
    /// Supernode `s` covers permuted columns `sn_ptr[s]..sn_ptr[s+1]`.
    sn_ptr: Vec<usize>,
    /// Row lists: supernode `s` owns `rows[row_ptr[s]..row_ptr[s+1]]`,
    /// sorted ascending; the first `width(s)` entries are the diagonal
    /// block columns themselves.
    row_ptr: Vec<usize>,
    rows: Vec<usize>,
    /// Dense panels, column-major with leading dimension = panel rows;
    /// supernode `s` owns `values[val_ptr[s]..val_ptr[s+1]]`.
    val_ptr: Vec<usize>,
    values: Vec<f64>,
    true_nnz: usize,
    max_width: usize,
    /// The microkernel the numeric phase ran on; the solve sweeps reuse
    /// it so factor and solve share one choice.
    kernel: KernelChoice,
}

impl SupernodalCholesky {
    /// Factors a symmetric positive definite matrix with RCM ordering and
    /// default supernode relaxation.
    ///
    /// Only the lower triangle of `a` is read (the upper triangle is
    /// assumed to mirror it), exactly like the scalar kernel.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotPositiveDefinite`] if a non-positive pivot
    /// appears; [`LinalgError::DimensionMismatch`] if `a` is not square.
    pub fn factor(a: &CsrMatrix) -> Result<Self, LinalgError> {
        Self::factor_with_permutation(
            a,
            FillOrdering::Rcm.permutation(a),
            &SupernodalOptions::default(),
        )
    }

    /// Factors with a caller-supplied fill-reducing permutation and
    /// supernode options.
    ///
    /// # Errors
    ///
    /// Same as [`SupernodalCholesky::factor`].
    pub fn factor_with_permutation(
        a: &CsrMatrix,
        perm: Permutation,
        opts: &SupernodalOptions,
    ) -> Result<Self, LinalgError> {
        if a.nrows() != a.ncols() {
            return Err(LinalgError::DimensionMismatch {
                context: "supernodal Cholesky (matrix must be square)",
                expected: a.nrows(),
                found: a.ncols(),
            });
        }
        let n = a.nrows();
        if n == 0 {
            return Ok(Self {
                n,
                perm,
                sn_ptr: vec![0],
                row_ptr: vec![0],
                rows: Vec::new(),
                val_ptr: vec![0],
                values: Vec::new(),
                true_nnz: 0,
                max_width: 0,
                kernel: opts.kernel,
            });
        }
        let ap = a.permuted_symmetric(&perm);
        let sym = Symbolic::analyze(&ap, opts);
        let mut values = vec![0.0f64; sym.val_ptr[sym.num_sn()]];
        let kern = opts.kernel.kernel();
        let mut scratch = PanelScratch::new(n);
        for s in 0..sym.num_sn() {
            // Descendants precede `s` in panel order, so the split hands
            // out every panel `s` reads (read-only) next to its own.
            let (factored, rest) = values.split_at_mut(sym.val_ptr[s]);
            let panel = &mut rest[..sym.val_ptr[s + 1] - sym.val_ptr[s]];
            factor_supernode(&sym, kern, &ap, factored, panel, s, &mut scratch)
                .map_err(|(row, pivot)| LinalgError::NotPositiveDefinite { row, pivot })?;
        }

        Ok(Self {
            n,
            perm,
            sn_ptr: sym.sn_ptr,
            row_ptr: sym.row_ptr,
            rows: sym.rows,
            val_ptr: sym.val_ptr,
            values,
            true_nnz: sym.true_nnz,
            max_width: sym.max_width,
            kernel: opts.kernel,
        })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored factor entries including relaxation padding (the panel
    /// memory actually allocated).
    pub fn factor_nnz(&self) -> usize {
        self.values.len()
    }

    /// The raw panel storage, exposed for differential tests (the
    /// bit-pinning and pool-cap invariance tests compare it directly).
    pub fn factor_values(&self) -> &[f64] {
        &self.values
    }

    /// Name of the microkernel the factorization and solve sweeps run on
    /// (`"scalar"` or `"blocked"`).
    pub fn kernel_name(&self) -> &'static str {
        self.kernel.resolved_name()
    }

    /// Shape statistics of the factor.
    pub fn stats(&self) -> SupernodeStats {
        SupernodeStats {
            supernodes: self.sn_ptr.len() - 1,
            max_width: self.max_width,
            stored_nnz: self.values.len(),
            true_nnz: self.true_nnz,
            kernel: self.kernel_name(),
        }
    }

    /// Length of the scratch slice [`solve_panel_with`] needs: one
    /// permutation buffer plus one gather buffer for the tallest panel.
    ///
    /// [`solve_panel_with`]: SupernodalCholesky::solve_panel_with
    pub fn scratch_len(&self) -> usize {
        let tallest = (0..self.sn_ptr.len() - 1)
            .map(|s| self.row_ptr[s + 1] - self.row_ptr[s])
            .max()
            .unwrap_or(0);
        self.n + tallest
    }

    /// Solves `A x = b` by two blocked triangular sweeps.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_panel(&mut x, 1);
        x
    }

    /// Solves `A X = B` for a whole panel of right-hand sides in place.
    ///
    /// `rhs` is an `n × nrhs` column-major matrix. One pass over the
    /// supernode panels serves every column; per column the operation
    /// order is identical to [`SupernodalCholesky::solve`], so panel
    /// solutions are bitwise equal to looped single solves.
    ///
    /// # Panics
    ///
    /// Panics if `rhs.len() != self.dim() * nrhs`.
    pub fn solve_panel(&self, rhs: &mut [f64], nrhs: usize) {
        let mut scratch = vec![0.0; self.scratch_len()];
        self.solve_panel_with(rhs, nrhs, &mut scratch);
    }

    /// Allocation-free variant of [`SupernodalCholesky::solve_panel`] with
    /// a caller-provided scratch of at least
    /// [`scratch_len`](SupernodalCholesky::scratch_len) entries.
    ///
    /// # Panics
    ///
    /// Panics if `rhs.len() != self.dim() * nrhs` or the scratch is too
    /// short.
    pub fn solve_panel_with(&self, rhs: &mut [f64], nrhs: usize, scratch: &mut [f64]) {
        let n = self.n;
        assert_eq!(rhs.len(), n * nrhs, "supernodal panel solve: rhs size");
        assert!(
            scratch.len() >= self.scratch_len(),
            "supernodal panel solve: scratch too short"
        );
        if n == 0 {
            return;
        }
        let (permbuf, gather) = scratch.split_at_mut(n);
        let num_sn = self.sn_ptr.len() - 1;
        let kern = self.kernel.kernel();

        // Into the factor basis.
        for r in 0..nrhs {
            let col = &mut rhs[r * n..(r + 1) * n];
            self.perm.apply_into(col, permbuf);
            col.copy_from_slice(permbuf);
        }

        // Forward: L Y = B.
        for s in 0..num_sn {
            let c0 = self.sn_ptr[s];
            let w = self.sn_ptr[s + 1] - c0;
            let rows_s = &self.rows[self.row_ptr[s]..self.row_ptr[s + 1]];
            let m = rows_s.len();
            let panel = &self.values[self.val_ptr[s]..self.val_ptr[s + 1]];
            let below = &rows_s[w..];
            for r in 0..nrhs {
                let x = &mut rhs[r * n..(r + 1) * n];
                // Dense lower-triangular solve on the diagonal block.
                kern.solve_lower(panel, m, w, &mut x[c0..c0 + w]);
                if below.is_empty() {
                    continue;
                }
                // Below block: accumulate L₂₁ y into a contiguous buffer,
                // then scatter.
                let acc = &mut gather[..m - w];
                kern.below_accumulate(panel, m, w, &x[c0..c0 + w], acc);
                for (i, &row) in below.iter().enumerate() {
                    x[row] -= acc[i];
                }
            }
        }

        // Backward: Lᵀ X = Y.
        for s in (0..num_sn).rev() {
            let c0 = self.sn_ptr[s];
            let w = self.sn_ptr[s + 1] - c0;
            let rows_s = &self.rows[self.row_ptr[s]..self.row_ptr[s + 1]];
            let m = rows_s.len();
            let panel = &self.values[self.val_ptr[s]..self.val_ptr[s + 1]];
            let below = &rows_s[w..];
            for r in 0..nrhs {
                let x = &mut rhs[r * n..(r + 1) * n];
                // Gather the below entries once, contract them against
                // L₂₁ᵀ and finish with the dense transposed diag solve.
                let xb = &mut gather[..m - w];
                for (i, &row) in below.iter().enumerate() {
                    xb[i] = x[row];
                }
                kern.solve_lower_transpose(panel, m, w, &mut x[c0..c0 + w], xb);
            }
        }

        // Back to the natural basis.
        for r in 0..nrhs {
            let col = &mut rhs[r * n..(r + 1) * n];
            self.perm.apply_inverse_into(col, permbuf);
            col.copy_from_slice(permbuf);
        }
    }
}

impl MemoryFootprint for SupernodalCholesky {
    fn heap_bytes(&self) -> usize {
        self.sn_ptr.heap_bytes()
            + self.row_ptr.heap_bytes()
            + self.rows.heap_bytes()
            + self.val_ptr.heap_bytes()
            + self.values.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_operators::laplacian_2d;
    use crate::{CooMatrix, SparseCholesky};

    #[test]
    fn agrees_with_scalar_kernel_on_laplacian() {
        let a = laplacian_2d(9, 7);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 13) % 11) as f64 - 5.0).collect();
        let x_scalar = SparseCholesky::factor(&a).unwrap().solve(&b);
        let x_super = SupernodalCholesky::factor(&a).unwrap().solve(&b);
        let scale = x_scalar.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (p, q) in x_scalar.iter().zip(&x_super) {
            assert!((p - q).abs() <= 1e-12 * scale.max(1.0), "{p} vs {q}");
        }
        assert!(a.residual(&x_super, &b) < 1e-12);
    }

    #[test]
    fn kernels_agree_within_tolerance() {
        // Every kernel must reproduce the scalar oracle's solution to
        // ≤1e-12 (they associate sums differently, so bitwise equality is
        // *not* expected — that's why the kernel is in the cache
        // fingerprint).
        let a = laplacian_2d(13, 9);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 17) % 23) as f64 - 11.0).collect();
        let perm = FillOrdering::NestedDissection.permutation(&a);
        let reference = SupernodalCholesky::factor_with_permutation(
            &a,
            perm.clone(),
            &SupernodalOptions {
                kernel: KernelChoice::Scalar,
                ..SupernodalOptions::default()
            },
        )
        .unwrap()
        .solve(&b);
        let scale = reference.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for &kernel in KernelChoice::available() {
            let chol = SupernodalCholesky::factor_with_permutation(
                &a,
                perm.clone(),
                &SupernodalOptions {
                    kernel,
                    ..SupernodalOptions::default()
                },
            )
            .unwrap();
            assert_eq!(chol.kernel_name(), kernel.resolved_name());
            assert_eq!(chol.stats().kernel, kernel.resolved_name());
            let x = chol.solve(&b);
            for (p, q) in reference.iter().zip(&x) {
                assert!(
                    (p - q).abs() <= 1e-12 * scale,
                    "{}: {p} vs {q}",
                    kernel.resolved_name()
                );
            }
        }
    }

    #[test]
    fn panel_solve_is_bitwise_equal_to_looped_solves() {
        let a = laplacian_2d(8, 8);
        let n = a.nrows();
        let chol = SupernodalCholesky::factor(&a).unwrap();
        let nrhs = 5;
        let mut panel = vec![0.0; n * nrhs];
        for r in 0..nrhs {
            for i in 0..n {
                panel[r * n + i] = ((i * 7 + r * 3) % 13) as f64 - 6.0;
            }
        }
        let singles: Vec<Vec<f64>> = (0..nrhs)
            .map(|r| chol.solve(&panel[r * n..(r + 1) * n]))
            .collect();
        chol.solve_panel(&mut panel, nrhs);
        for r in 0..nrhs {
            for i in 0..n {
                assert_eq!(
                    panel[r * n + i].to_bits(),
                    singles[r][i].to_bits(),
                    "rhs {r} entry {i}"
                );
            }
        }
    }

    #[test]
    fn nested_dissection_and_all_orderings_agree() {
        let a = laplacian_2d(12, 12);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).cos()).collect();
        let reference = SparseCholesky::factor(&a).unwrap().solve(&b);
        for ordering in [
            FillOrdering::Rcm,
            FillOrdering::NestedDissection,
            FillOrdering::Natural,
            FillOrdering::Auto,
        ] {
            let chol = SupernodalCholesky::factor_with_permutation(
                &a,
                ordering.permutation(&a),
                &SupernodalOptions::default(),
            )
            .unwrap();
            let x = chol.solve(&b);
            let scale = reference.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for (p, q) in reference.iter().zip(&x) {
                assert!(
                    (p - q).abs() <= 1e-11 * scale.max(1.0),
                    "{ordering:?}: {p} vs {q}"
                );
            }
        }
    }

    #[test]
    fn supernodes_amalgamate_on_banded_operators() {
        let a = laplacian_2d(20, 20);
        let chol = SupernodalCholesky::factor(&a).unwrap();
        let stats = chol.stats();
        assert!(
            stats.supernodes < a.nrows() / 2,
            "expected real amalgamation, got {} supernodes for {} columns",
            stats.supernodes,
            a.nrows()
        );
        assert!(stats.max_width > 1);
        assert!(stats.stored_nnz >= stats.true_nnz);
        // The padding budget must actually bound the padding.
        assert!(
            (stats.stored_nnz - stats.true_nnz) as f64 <= 0.5 * stats.true_nnz as f64,
            "padding {} vs true {}",
            stats.stored_nnz - stats.true_nnz,
            stats.true_nnz
        );
    }

    #[test]
    fn indefinite_matrix_is_rejected() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 3.0);
        coo.push(1, 0, 3.0);
        coo.push(1, 1, 1.0);
        let a = coo.to_csr();
        let result = SupernodalCholesky::factor_with_permutation(
            &a,
            FillOrdering::Natural.permutation(&a),
            &SupernodalOptions::default(),
        );
        assert!(matches!(
            result,
            Err(LinalgError::NotPositiveDefinite { row: 1, .. })
        ));
    }

    #[test]
    fn dense_spd_is_one_supernode() {
        // A fully dense SPD matrix collapses to a single panel (up to the
        // width cap).
        let n = 12;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut v = 0.0;
                for k in 0..n {
                    let mik = ((i * 7 + k * 3) % 5) as f64 - 2.0;
                    let mjk = ((j * 7 + k * 3) % 5) as f64 - 2.0;
                    v += mik * mjk;
                }
                if i == j {
                    v += n as f64;
                }
                coo.push(i, j, v);
            }
        }
        let a = coo.to_csr();
        let chol = SupernodalCholesky::factor(&a).unwrap();
        assert_eq!(chol.stats().supernodes, 1);
        let b: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        let x = chol.solve(&b);
        assert!(a.residual(&x, &b) < 1e-12);
    }

    #[test]
    fn empty_and_single_entry_matrices() {
        let empty = CooMatrix::new(0, 0).to_csr();
        let chol = SupernodalCholesky::factor(&empty).unwrap();
        assert_eq!(chol.solve(&[]), Vec::<f64>::new());

        let mut coo = CooMatrix::new(1, 1);
        coo.push(0, 0, 4.0);
        let one = coo.to_csr();
        let chol = SupernodalCholesky::factor(&one).unwrap();
        assert_eq!(chol.solve(&[8.0]), vec![2.0]);
    }
}
