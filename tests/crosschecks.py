"""Independent reference forms that the tests compare the package against.

Each one computes a quantity the package computes in closed or block form,
but by its defining sum, so agreement checks the faster form. The frontiers
those comparisons run on are listed here too, and so are the forms of the
paper that only these checks use: the Dirichlet kernel, the dyadic
decomposition i = 2^(q-1) + p and the Haar function built from it as a
step (the reference for `haar_eval`), the Haar coefficients of a frontier,
the d_n = 1 histogram, the oracle-shifted estimate, the `gaussian`
experiment's statistic under the oracle shift and under centering beside
the minima-mean shift it reports, the error metrics of a
step, the sup distance on a grid, step-by-step arithmetic and the report
CSV reader. `check_cell_record` checks every invariant of a cell record,
the reference for what `cell_stats` establishes. The constant, affine and
two-level frontiers are kept as their own per-family closures, the
reference for the piecewise-linear form that builds them in the package.
"""

import csv
import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from haarfrontier.estimators import haar_ev_estimate, minima_mean
from haarfrontier.frontiers import FrontierSpec, parse_frontier
from haarfrontier.haar import haar_eval, haar_transform, truncated_expansion
from haarfrontier.kernels import ReplicateTask, l2_error_sq, sup_error
from haarfrontier.oracles import _gap_quadrature
from haarfrontier.process import (
    _SAMPLE_HEADER, PartitionConfig, PointSample, _require_rate, cell_stats, simulate,
)
from haarfrontier.report import _COLUMNS, ReportRow
from haarfrontier.runner import derive_seed, run_task
from haarfrontier.stepfun import StepFunction, is_power_of_two, uniform_cell_index

# each shipped family; the sine with both signs of b, and a second two-level
# frontier with lo > hi and its split off the dyadic grid
SHIPPED_LABELS = (
    "constant:a=1.3",
    "affine:a=1.0,b=0.5",
    "sine:a=1.0,b=0.25",
    "sine:a=1.0,b=-0.25",
    "two_level:lo=0.8,hi=1.2,split=0.5",
    "two_level:lo=1.2,hi=0.8,split=0.3",
)


def frontier(label):
    """A shipped frontier by label, or "custom-cos": 1 + cos(3x)/4, built by hand with closed forms.

    The cosine is decreasing on [0, 1] (3x stays within [0, pi]), so its
    range is (f(hi), f(lo)) and the area above a level u is the integral of
    f - u from lo up to the level's crossing t, where cos(3t) = 4(u - 1).
    """
    if label != "custom-cos":
        return parse_frontier(label)

    def f(x):
        return 1.0 + 0.25 * np.cos(3.0 * np.asarray(x, dtype=float))

    def integ(lo, hi):
        return (hi - lo) + (np.sin(3.0 * hi) - np.sin(3.0 * lo)) / 12.0

    def integ_sq(lo, hi):
        # f^2 = 1 + cos(3x)/2 + (1 + cos(6x))/32
        sin3 = (np.sin(3.0 * hi) - np.sin(3.0 * lo)) / 6.0
        sin6 = (np.sin(6.0 * hi) - np.sin(6.0 * lo)) / 192.0
        return (1.0 + 1.0 / 32.0) * (hi - lo) + sin3 + sin6

    def above(lo, hi, u):
        # the builtin min and max keep NaN for a NaN level, so the area is NaN
        t = math.acos(min(max(4.0 * (u - 1.0), -1.0), 1.0)) / 3.0
        end = min(hi, t)
        if not end > lo:
            return 0.0
        return (1.0 - u) * (end - lo) + (math.sin(3.0 * end) - math.sin(3.0 * lo)) / 12.0

    return FrontierSpec(
        f=f,
        m=0.7,
        M=1.25,
        alpha=1.0,
        lip=0.75,
        label=label,
        exact_integral=integ,
        exact_integral_sq=integ_sq,
        exact_range=lambda lo, hi: (f(hi), f(lo)),
        exact_area_above=above,
    )


def cell_centers(cfg):
    """Midpoints of the k_n cells of the partition."""
    k = cfg.k_n
    return (2.0 * np.arange(1, k + 1) - 1.0) / (2.0 * k)


def dirichlet_kernel(h_n: int, x, y):
    """The paper's Dirichlet kernel in closed form: (h_n + 1) when x and y share a level block, else 0."""
    blocks = h_n + 1
    if not is_power_of_two(blocks):
        raise ValueError("h_n + 1 must be a power of two")
    out = np.where(uniform_cell_index(x, blocks) == uniform_cell_index(y, blocks), float(blocks), 0.0)
    if np.ndim(out) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class DyadicIndex:
    i: int
    p: int
    q: int


def dyadic_index(i: int) -> DyadicIndex:
    """Unique decomposition i = 2^(q-1) + p with 0 <= p < 2^(q-1)."""
    if i < 1:
        raise ValueError("dyadic decomposition is defined for i >= 1")
    q = int(i).bit_length()
    return DyadicIndex(i=int(i), p=int(i) - 2 ** (q - 1), q=q)


def haar_step(i: int) -> StepFunction:
    """The i-th Haar function as an exact StepFunction (for exact integration)."""
    if i < 0:
        raise ValueError("Haar index must be nonnegative")
    if i == 0:
        return StepFunction(np.ones(1))
    idx = dyadic_index(i)
    cells = 2**idx.q
    amp = 2.0 ** (0.5 * (idx.q - 1))
    values = np.zeros(cells)
    values[2 * idx.p] = amp
    values[2 * idx.p + 1] = -amp
    return StepFunction(values)


def haar_coefficient(f: FrontierSpec, i: int) -> float:
    """Coefficient of f against the i-th Haar function: the transform of its 2^q block means."""
    if i < 0:
        raise ValueError("Haar index must be nonnegative")
    blocks = 2 ** int(i).bit_length()
    return float(haar_transform(truncated_expansion(f, blocks - 1).values)[i])


def geffroy_estimate(stats, cfg) -> StepFunction:
    """The d_n = 1 special case of the block-mean estimator: the cellwise-maximum histogram."""
    if cfg.d_n != 1:
        raise ValueError("the cellwise-maximum histogram requires d_n = 1")
    return haar_ev_estimate(stats, cfg)


def oracle_corrected_estimate(stats, cfg, c: float) -> StepFunction:
    """The block-mean estimate shifted by the true k_n/(n c); usable only when c is known."""
    return haar_ev_estimate(stats, cfg) + cfg.k_n / (cfg.n * _require_rate(c))


def gaussian_normalized_errors(cfg) -> dict:
    """The `gaussian` experiment's normalized local error v at x, under each of three centerings.

    The replicates are the experiment's own at its first schedule entry:
    the `fhat_zn_at` kernel at cfg.xs, seeded by derive_seed(cfg.base_seed, 0).
    "z_corrected" adds the minima mean z_n, as the experiment does;
    "oracle_corrected" adds the true k_n/(n c), the shift of
    `oracle_corrected_estimate`, known only in a simulation; "centered"
    subtracts the replicates' grand mean of the estimate.
    """
    n, h_prime, d_n = cfg.schedule[0]
    pc = PartitionConfig(n, h_prime, d_n)
    task = ReplicateTask("fhat_zn_at", cfg.frontier, n, h_prime, d_n, cfg.c, cfg.xs)
    data = run_task(task, cfg.replicates, derive_seed(cfg.base_seed, 0))
    fhat, zn = data[:, 0], data[:, 1]
    f_true = parse_frontier(cfg.frontier)(cfg.xs[0])
    nc = pc.n * cfg.c
    sigma = pc.k_n / (nc * math.sqrt(pc.d_n))
    return {
        "z_corrected": (fhat + zn - f_true) / sigma,
        "oracle_corrected": (fhat + pc.k_n / nc - f_true) / sigma,
        "centered": (fhat - fhat.mean()) / sigma,
    }


def haar_ev_estimate_at(stats, cfg, x):
    """Kernel-sum form of the block-mean estimator, evaluated at x."""
    assert stats.cfg == cfg, "statistics were not produced under this partition"
    centers = cell_centers(cfg)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty(len(x_arr))
    for j, xv in enumerate(x_arr):
        weights = dirichlet_kernel(cfg.h_n, centers, xv)
        out[j] = float(np.dot(weights, stats.x_star)) / cfg.k_n
    if np.ndim(x) == 0:
        return float(out[0])
    return out


def block_means_by_mean(stats, cfg):
    """The block means of the cell maxima as `ndarray.mean` gives them."""
    return stats.x_star.reshape(cfg.h_n + 1, cfg.d_n).mean(axis=1)


def minima_mean_by_mean(stats):
    """The mean of the cell minima as `ndarray.mean` gives it."""
    return float(stats.z_star.mean())


def std_normal_loop(u):
    """Per-value form of the standard normal CDF, 0.5 * erfc(-v / sqrt(2)) one value at a time."""
    flat = np.ravel(np.asarray(u, dtype=float))
    out = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in flat])
    return out.reshape(np.shape(u))


def replicate_reference(task, seed):
    """One kernel replicate of `task`, its evaluation points located on the replicate itself.

    Built from the public point-to-cell rule and the estimate called at x;
    covers the kernels that read the estimate at points, fhat_zn_at and weibull.
    """
    f, cfg = parse_frontier(task.frontier), task.partition()
    stats = cell_stats(simulate(f, cfg.n, task.c, seed), cfg, f)
    est = haar_ev_estimate(stats, cfg)
    if task.kind == "fhat_zn_at":
        return np.array([est(x) for x in task.xs] + [minima_mean(stats)])
    assert task.kind == "weibull"
    x = task.xs[0]
    r = int(uniform_cell_index(x, cfg.k_n))
    center = cfg.k_n * stats.cell_areas[r]
    rate = cfg.n * task.c / cfg.k_n
    return np.array([rate * (est(x) - center), rate * (stats.x_star[r] - center)])


def coefficient_estimates_riemann(stats, cfg):
    """Riemann-sum estimates of the first h_n + 1 Haar coefficients, one Haar function at a time."""
    assert stats.cfg == cfg, "statistics were not produced under this partition"
    centers = cell_centers(cfg)
    coeffs = np.empty(cfg.h_n + 1)
    for i in range(cfg.h_n + 1):
        coeffs[i] = float(np.dot(haar_eval(i, centers), stats.x_star)) / cfg.k_n
    return coeffs


def dirichlet_kernel_sum(h_n: int, x: float, y: float) -> float:
    """Summed form of the Dirichlet kernel: sum of haar_eval(i, x) haar_eval(i, y), i <= h_n."""
    return float(sum(haar_eval(i, x) * haar_eval(i, y) for i in range(h_n + 1)))


def cell_geometry_loop(f, k_n):
    """Per-cell form of the partition geometry: one integral and one range call per cell."""
    lam = np.empty(k_n)
    f_min = np.empty(k_n)
    f_max = np.empty(k_n)
    for r in range(k_n):
        lo, hi = r / k_n, (r + 1) / k_n
        lam[r] = f.integral(lo, hi)
        f_min[r], f_max[r] = f.range_on(lo, hi)
    return lam, f_min, f_max


_CELL_ARRAYS = ("counts", "x_star", "z_star", "cell_areas", "f_max")


def check_cell_record(stats, f) -> None:
    """Raise ValueError unless the cell record `stats` holds every invariant under frontier f.

    Each array has one entry per cell and is read-only; f_max is f's maximum
    over each cell, and k_n times each cell area lies within f's range there,
    up to 1e-8, both from the per-cell loop; an occupied cell has 0 <= z_star
    <= x_star, and its maximum lies at most 1e-9 * max(1, max f_max) above
    f_max. These are the checks of a record built field by field, each made
    on its own, where `cell_stats` makes them once, where they arise.
    """
    k = stats.cfg.k_n
    for name in _CELL_ARRAYS:
        arr = getattr(stats, name)
        if np.shape(arr) != (k,):
            raise ValueError(f"{name} must have one entry per cell")
        if arr.flags.writeable:
            raise ValueError(f"{name} must be read-only")
    _, f_min, f_max = cell_geometry_loop(f, k)
    if not np.array_equal(stats.f_max, f_max):
        raise ValueError("f_max is not the frontier's maximum over each cell")
    occ = stats.counts > 0
    if np.any(stats.z_star[occ] < 0) or np.any(stats.z_star[occ] > stats.x_star[occ]):
        raise ValueError("cell minima must satisfy 0 <= z_star <= x_star")
    slack = 1e-9 * max(1.0, float(np.max(f_max, initial=1.0)))
    if np.any(stats.x_star[occ] > f_max[occ] + slack):
        raise ValueError("cell maxima escape the frontier enclosure")
    scaled = k * stats.cell_areas
    if np.any(scaled < f_min - 1e-8) or np.any(scaled > f_max + 1e-8):
        raise ValueError("cell areas inconsistent with frontier bounds")


def block_integrals_loop(f, h_n):
    """Per-block integrals of f and f^2 on the h_n + 1 dyadic blocks, one call per block."""
    blocks = h_n + 1
    integ = np.array([f.integral(b / blocks, (b + 1) / blocks) for b in range(blocks)])
    integ_sq = np.array([f.integral_sq(b / blocks, (b + 1) / blocks) for b in range(blocks)])
    return integ, integ_sq


def searchsorted_cell_index(x, n_cells):
    """Search form of the point-to-cell rule: how many edges j / n_cells, 0 < j < n_cells, are <= x."""
    edges = np.arange(n_cells + 1) / n_cells
    idx = np.searchsorted(edges, np.asarray(x, dtype=float), side="right") - 1
    return np.minimum(idx, n_cells - 1)


def simulate_fresh_philox(f, n, c, seed):
    """Reference form of `process.simulate`: a new Philox(key=seed) per call, every batch gathered.

    Returns the sample, built through the public copying constructor, and
    the number of candidate batches the rejection loop drew.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    total_area = f.integral(0.0, 1.0)
    count = int(rng.poisson(n * c * total_area))
    xs, ys = [np.empty(0)], [np.empty(0)]
    have = 0
    while have < count:
        batch = int((count - have) / (total_area / f.M) * 1.2) + 16
        cand_x = rng.random(batch)
        cand_y = rng.random(batch) * f.M
        keep = cand_y <= f(cand_x)
        xs.append(cand_x[keep][: count - have])
        ys.append(cand_y[keep][: count - have])
        have += len(xs[-1])
    sample = PointSample(
        np.concatenate(xs), np.concatenate(ys), n=n, c=float(c), seed=seed, frontier_label=f.label
    )
    return sample, len(xs) - 1


def sample_to_csv_per_row(sample, path):
    """Per-row form of `PointSample.to_csv`: one f-string per row, over the x-ordered copies.

    The file must be byte-identical to the blocked writer's.
    """
    meta = {key: getattr(sample, attr) for key, attr, _ in _SAMPLE_HEADER}
    header = ",".join(f"{k}={v!r}" if isinstance(v, float) else f"{k}={v}" for k, v in meta.items())
    order = np.argsort(sample.xs)
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{header}\nx,y\n")
        fh.writelines(f"{float(x)!r},{float(y)!r}\n" for x, y in zip(sample.xs[order], sample.ys[order]))


def sample_from_csv_through_handle(path):
    """Handle-fed form of `PointSample.from_csv`: np.loadtxt reads the rows through the open handle.

    Its samples and error messages are what the package's reader must give.
    """
    keys = [key for key, _, _ in _SAMPLE_HEADER]
    with open(path) as fh:
        header = fh.readline().strip()
        items = [item.partition("=") for item in header.split(",", len(keys) - 1)]
        if [key for key, _, _ in items] != keys:
            raise ValueError(f"malformed sample header {header!r}; expected keys {keys}")
        meta = {attr: parse(text) for (_, attr, parse), (_, _, text) in zip(_SAMPLE_HEADER, items)}
        if fh.readline().strip() != "x,y":
            raise ValueError("malformed sample file: expected 'x,y' column header")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            try:
                rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            except ValueError as err:
                raise ValueError(f"malformed sample row: {err}; expected x,y") from None
    if len(rows) and rows.shape[1] != 2:
        raise ValueError(f"malformed sample row: {rows.shape[1]} fields; expected x,y")
    xs, ys = rows.reshape(-1, 2).T
    return PointSample(xs=xs, ys=ys, **meta)


def sine_area_above_three_periods(a, b, lo, hi, u):
    """Area of the sine frontier a + b sin(2 pi x) above level u on [lo, hi], three periods wide.

    The form that scans the periods k = -1, 0, 1 of the window where f > u,
    with the builtin min and max.
    """
    w = 2.0 * math.pi
    if b == 0.0:
        return max(a - u, 0.0) * (hi - lo)
    # f > u on (t, 1/2 - t) + shift, mod 1, where sin(2*pi*t) = (u - a)/|b|
    t = math.asin(min(max((u - a) / abs(b), -1.0), 1.0)) / w
    shift = 0.5 if b < 0.0 else 0.0
    area = 0.0
    for k in (-1.0, 0.0, 1.0):
        s0, s1 = max(lo, t + shift + k), min(hi, 0.5 - t + shift + k)
        if s0 < s1:
            area += (a - u) * (s1 - s0) - b * (math.cos(w * s1) - math.cos(w * s0)) / w
    return max(area, 0.0)


def constant_frontier_per_family(a: float = 1.0) -> FrontierSpec:
    """The constant family, f(x) = a, as its own closures."""
    a = float(a)
    return FrontierSpec(
        f=lambda x: np.full_like(np.asarray(x, dtype=float), a),
        m=a,
        M=a,
        alpha=1.0,
        lip=0.0,
        label=f"constant:a={a!r}",
        exact_integral=lambda lo, hi: a * (hi - lo),
        exact_integral_sq=lambda lo, hi: a * a * (hi - lo),
        exact_range=lambda lo, hi: (np.full(np.shape(hi - lo), a), np.full(np.shape(hi - lo), a)),
        exact_area_above=lambda lo, hi, u: max(a - u, 0.0) * (hi - lo),
    )


def affine_frontier_per_family(a: float = 1.0, b: float = 0.5) -> FrontierSpec:
    """The affine family, f(x) = a + b*x, as its own closures."""
    a, b = float(a), float(b)

    def integ(lo, hi):
        return a * (hi - lo) + 0.5 * b * (hi * hi - lo * lo)

    def integ_sq(lo, hi):
        if b == 0.0:
            return a * a * (hi - lo)
        # float_power is libm's pow, as for Python floats, on arrays too
        return (np.float_power(a + b * hi, 3) - np.float_power(a + b * lo, 3)) / (3.0 * b)

    def rng(lo, hi) -> tuple:
        va, vb = a + b * lo, a + b * hi
        return (np.minimum(va, vb), np.maximum(va, vb))

    def above(lo: float, hi: float, u: float) -> float:
        if b == 0.0:
            return max(a - u, 0.0) * (hi - lo)
        fl, fh = a + b * lo - u, a + b * hi - u
        if fl <= 0.0 and fh <= 0.0:
            return 0.0
        if fl >= 0.0 and fh >= 0.0:
            return 0.5 * (fl + fh) * (hi - lo)
        v = max(fl, fh)
        return 0.5 * v * v / abs(b)

    return FrontierSpec(
        f=lambda x: a + b * np.asarray(x, dtype=float),
        m=min(a, a + b),
        M=max(a, a + b),
        alpha=1.0,
        lip=abs(b),
        label=f"affine:a={a!r},b={b!r}",
        exact_integral=integ,
        exact_integral_sq=integ_sq,
        exact_range=rng,
        exact_area_above=above,
    )


def two_level_frontier_per_family(lo: float = 0.8, hi: float = 1.2, split: float = 0.5) -> FrontierSpec:
    """The two-level family, lo on [0, split) and hi on [split, 1], as its own closures.

    Not Lipschitz (the declared constant is infinite); cell extrema and
    integrals are exact, so everything downstream still works.
    """
    lo_val, hi_val, split = float(lo), float(hi), float(split)
    if not 0.0 < split < 1.0:
        raise ValueError("split must be interior to (0, 1)")

    def piece_overlap(seg_lo, seg_hi, a, b):
        return np.maximum(np.minimum(b, seg_hi) - np.maximum(a, seg_lo), 0.0)

    def integ(a, b):
        return lo_val * piece_overlap(0.0, split, a, b) + hi_val * piece_overlap(split, 1.0, a, b)

    def integ_sq(a, b):
        lo_sq, hi_sq = lo_val * lo_val, hi_val * hi_val
        return lo_sq * piece_overlap(0.0, split, a, b) + hi_sq * piece_overlap(split, 1.0, a, b)

    def rng(a, b) -> tuple:
        one = np.where(a < split, lo_val, hi_val)
        other = np.where((b > split) | (b == 1.0) | (a >= split), hi_val, lo_val)
        return (np.minimum(one, other), np.maximum(one, other))

    def above(a: float, b: float, u: float) -> float:
        return max(lo_val - u, 0.0) * piece_overlap(0.0, split, a, b) + max(
            hi_val - u, 0.0
        ) * piece_overlap(split, 1.0, a, b)

    return FrontierSpec(
        f=lambda x: np.where(np.asarray(x, dtype=float) < split, lo_val, hi_val),
        m=min(lo_val, hi_val),
        M=max(lo_val, hi_val),
        alpha=1.0,
        lip=math.inf,
        label=f"two_level:lo={lo_val!r},hi={hi_val!r},split={split!r}",
        exact_integral=integ,
        exact_integral_sq=integ_sq,
        exact_range=rng,
        exact_area_above=above,
    )


def _simpson(fa, fm, fb, width):
    return width * (fa + 4.0 * fm + fb) / 6.0


def adaptive_simpson_with_helper(f, a, b, tol):
    """Adaptive Simpson with Simpson's rule behind a helper call, uncapped.

    The form `quadrature.adaptive_simpson` is compared against: the same
    nodes, in the same order, through the same floating-point operations.
    """
    if b == a:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    stack = [(a, fa, m, fm, b, fb, _simpson(fa, fm, fb, b - a), tol)]
    total = 0.0
    while stack:
        xa, ya, xm, ym, xb, yb, coarse, loc_tol = stack.pop()
        lm = 0.5 * (xa + xm)
        rm = 0.5 * (xm + xb)
        ylm, yrm = f(lm), f(rm)
        left = _simpson(ya, ylm, ym, xm - xa)
        right = _simpson(ym, yrm, yb, xb - xm)
        delta = left + right - coarse
        if abs(delta) <= 15.0 * loc_tol:
            total += left + right + delta / 15.0
            continue
        half = 0.5 * loc_tol
        stack.append((xa, ya, lm, ylm, xm, ym, left, half))
        stack.append((xm, ym, rm, yrm, xb, yb, right, half))
    return total


def cell_max_cdf_per_node(f, cfg, r, c):
    """v -> exp(-n c * f.area_above(cell, v)): the cell-maximum CDF through the spec's method."""
    lo, hi = cfg.cell_bounds(r)
    nc = cfg.n * c
    return lambda v: math.exp(-nc * f.area_above(lo, hi, v))


def cell_cdf_per_node(f, cfg, r, c, u):
    """`oracles.cell_cdf` over numpy scalars, each level through `cell_max_cdf_per_node`."""
    cdf = cell_max_cdf_per_node(f, cfg, r, c)
    out = np.array([0.0 if v < 0.0 else cdf(v) for v in np.ravel(np.asarray(u, dtype=float))])
    return out.reshape(np.shape(u))


def cell_max_moments_per_node(f, cfg, r, c):
    """(mean, variance) of the cell-r maximum, every node through the per-node reference path.

    The dyadic seeds of `oracles._gap_quadrature`, `adaptive_simpson_with_helper`
    over each gap, the gaps summed in order, and two passes that each compute
    the CDF at every node they meet.
    """
    lo, hi = cfg.cell_bounds(r)
    _, top = f.range_on(lo, hi)
    cdf = cell_max_cdf_per_node(f, cfg, r, c)
    layer = 1.0 / (cfg.n * c * (hi - lo))
    seeds = [0.0, top]
    depth = layer
    while top - depth > 0.0 and len(seeds) < 64:
        seeds.append(top - depth)
        depth *= 2.0
    seeds = sorted(set(seeds))
    tol = 1e-10 / len(seeds)

    def integrate(g):
        total = 0.0
        for a, b in zip(seeds, seeds[1:]):
            total += adaptive_simpson_with_helper(g, a, b, tol)
        return total

    g0 = integrate(cdf)
    g1 = 2.0 * integrate(lambda v: (top - v) * cdf(v))
    return top - g0, g1 - g0 * g0


def cell_max_variance_two_pass(f, cfg, r, c):
    """The cell-maximum variance with each pass computing the CDF at every node it meets."""
    top, cdf, integrate = _gap_quadrature(f, cfg, r, c)
    g0 = integrate(cdf)
    g1 = 2.0 * integrate(lambda v: (top - v) * cdf(v))
    return g1 - g0 * g0


def sorted_run_cell_extremes(xs, ys, k_n):
    """Count, max and min of ys per cell by cutting the x-sorted sample into runs.

    The sort-then-cut form of the binning in `cell_stats`: each cell's points
    are one run of the sorted sample, and a reduceat over the run starts gives
    its max and min; empty cells get 0.
    """
    order = np.argsort(xs)
    xs, ys = np.asarray(xs)[order], np.asarray(ys)[order]
    total = len(xs)
    edges = np.arange(1, k_n) / k_n
    cuts = np.searchsorted(xs, edges, side="left")
    offsets = np.concatenate(([0], cuts, [total]))
    counts = np.diff(offsets)
    x_star = np.zeros(k_n)
    z_star = np.zeros(k_n)
    if total:
        # sentinel keeps every reduceat start index valid; empty segments
        # (start == end) yield garbage that the occupancy mask discards
        starts = offsets[:-1]
        maxs = np.maximum.reduceat(np.append(ys, -np.inf), starts)
        mins = np.minimum.reduceat(np.append(ys, np.inf), starts)
        occupied = counts > 0
        x_star[occupied] = maxs[occupied]
        z_star[occupied] = mins[occupied]
    return counts, x_star, z_star


class BreakpointStep:
    """A step on arbitrary breakpoints, the general form that StepFunction is compared against.

    Pieces are left-closed/right-open except the last, which is closed. Sums
    and differences evaluate both steps at the midpoints of the union of the
    two breakpoint grids, and `inner` integrates the product there.
    """

    def __init__(self, breakpoints, values):
        self.breakpoints = np.asarray(breakpoints, dtype=float)
        self.values = np.asarray(values, dtype=float)

    @classmethod
    def of(cls, step):
        """The reference form of a StepFunction: its values on the breakpoints k / 2^j."""
        m = len(step.values)
        return cls(np.arange(m + 1) / m, step.values)

    def __call__(self, x):
        x_arr = np.asarray(x, dtype=float)
        if np.any(x_arr < 0.0) or np.any(x_arr > 1.0):
            raise ValueError("x must lie in [0, 1]")
        idx = np.searchsorted(self.breakpoints, x_arr, side="right") - 1
        out = self.values[np.minimum(idx, len(self.values) - 1)]
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(out)
        return out

    def refine_with(self, other):
        """Union of the two breakpoint grids."""
        return np.union1d(self.breakpoints, other.breakpoints)

    def _binary(self, other, op):
        grid = self.refine_with(other)
        mids = 0.5 * (grid[:-1] + grid[1:])
        return BreakpointStep(grid, op(self(mids), other(mids)))

    def __add__(self, other):
        return self._binary(other, lambda u, v: u + v)

    def __sub__(self, other):
        return self._binary(other, lambda u, v: u - v)

    def inner(self, other):
        """Exact integral of the pointwise product of two step functions."""
        grid = self.refine_with(other)
        mids = 0.5 * (grid[:-1] + grid[1:])
        return float(np.dot(self(mids) * other(mids), np.diff(grid)))


def step_on_finer_grid(a: StepFunction, b: StepFunction) -> tuple:
    """Both value arrays on the finer of the two dyadic grids."""
    m = max(len(a.values), len(b.values))
    return np.repeat(a.values, m // len(a.values)), np.repeat(b.values, m // len(b.values))


def block_integral(vals) -> float:
    """Integral over [0, 1] of the step with these values on equal blocks."""
    return float(np.dot(vals, np.full(len(vals), 1.0 / len(vals))))


def step_integral(s: StepFunction) -> float:
    return block_integral(s.values)


def step_l2_norm_sq(s: StepFunction) -> float:
    return block_integral(s.values**2)


def step_sup_norm(s: StepFunction) -> float:
    return float(np.max(np.abs(s.values)))


def step_inner(a: StepFunction, b: StepFunction) -> float:
    """Exact integral of the pointwise product of two steps, on the finer grid."""
    u, v = step_on_finer_grid(a, b)
    return block_integral(u * v)


def step_add(a: StepFunction, b: StepFunction) -> StepFunction:
    return StepFunction(np.add(*step_on_finer_grid(a, b)))


def step_sub(a: StepFunction, b: StepFunction) -> StepFunction:
    return StepFunction(np.subtract(*step_on_finer_grid(a, b)))


def step_scale(s: StepFunction, factor: float) -> StepFunction:
    return StepFunction(s.values * float(factor))


@dataclass(frozen=True)
class ErrorMetrics:
    l2: float
    sup: float
    at_points: tuple


def error_metrics(estimate: StepFunction, f: FrontierSpec, xs=()) -> ErrorMetrics:
    """L2, sup, and pointwise distances between a step estimate and the frontier.

    The L2 and sup distances come from the package's error layer in
    `kernels`, both exact; `sup_on_grid` is the sup's reference form.
    """
    at_points = tuple(abs(estimate(x) - f(x)) for x in xs)
    l2 = math.sqrt(max(l2_error_sq(estimate, f), 0.0))
    return ErrorMetrics(l2=l2, sup=sup_error(estimate, f), at_points=at_points)


def sup_on_grid(step: StepFunction, f: FrontierSpec, grid_step: float, knots=()) -> tuple:
    """(grid max, pad): the largest |step - f| on a uniform grid plus f's knots, and L * grid_step^alpha.

    For a step on blocks no finer than grid_step, every point of a block lies
    within grid_step of a grid point in that block, so the exact sup distance
    lies in [grid max, grid max + pad]. A jump of f needs its knot on the grid.
    """
    assert len(step.values) * grid_step <= 1.0, "the grid must resolve the step's blocks"
    base = np.arange(int(round(1.0 / grid_step)) + 1) * grid_step
    grid = np.union1d(base, np.asarray(knots, dtype=float))
    pad = f.lip * grid_step**f.alpha if math.isfinite(f.lip) else 0.0
    return float(np.max(np.abs(step(grid) - f(grid)))), pad


# text of a report CSV cell -> field value, by the field's annotation
_REPORT_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "Optional[float]": lambda text: float(text) if text else None,
    "bool": lambda text: text == "true",
}


def read_report_csv(path) -> list:
    """The report rows of a CSV that `write_report_csv` wrote, each cell parsed by its field's type."""
    parsers = {f.name: _REPORT_PARSERS[f.type] for f in fields(ReportRow)}
    with open(path, newline="") as fh:
        return [
            ReportRow(**{name: parsers[name](rec[column]) for name, column in _COLUMNS})
            for rec in csv.DictReader(fh)
        ]
