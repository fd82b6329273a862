"""Scores of whole estimator grids on one training fold, from shared sums.

Scoring a fit ``f`` against a target ``(T, eta)`` means computing
``sum_jl eta_jl * (T_jl - f_jl)**2``.  The targets are the validation
covariance with the fold's scaling and, in simulation, the true
covariance with the oracle scaling.  Each family scored here is one map
of the training covariance ``S``, entrywise or per diagonal, with
breakpoints at its grid values, so the value of a candidate is

    base + delta,  base = sum eta * (T - S)**2,
                   delta = sum eta * [(T - f)**2 - (T - S)**2],

where ``delta`` runs over the entries ``f`` changes.  It is assembled
from sums over bins of ``|S|`` (thresholding), over diagonals (banding
and tapering) or over bins of ``|S - L|`` (POET), so the whole grid
costs a few passes over ``S`` instead of one ``J x J`` estimate per
candidate.

Every value of a fold adds its ``delta`` to the same ``base``, summed as
:func:`~covsel.matrix_core.scaled_frobenius_sq` sums.  Where an entry is
zeroed, or set to another entry of ``S`` or of POET's parts, its term of
``delta`` is the rounded square the direct path sums minus that of
``base``.  A candidate that changes nothing gets ``base`` itself, and two
that change the same entries alike add the same prefix or suffix sums,
so equal estimates get equal values.  The bins use the kernels'
breakpoints, built with the same float expressions, and
``searchsorted(..., side="left")`` puts an entry equal to a breakpoint
below it, as ``>`` and ``<=`` do in the kernels.

Sums are taken over row blocks of at most :data:`_BLOCK_ENTRIES` entries,
so a fold holds no ``J x J`` temporary besides the cached covariance (and
POET's low-rank part; its remainder is formed block by block).  The
targets and weights must be exactly symmetric, as ``S`` and POET's
low-rank part are by construction: a block holds only its upper-triangle
entries and counts each off-diagonal one twice.  Each block is sorted by
bin and each bin summed pairwise (``np.add.reduceat``), so a sum's
rounding error does not grow with its bin.  The direct path, a fit scored
with :func:`~covsel.matrix_core.scaled_frobenius_sq`, is the reference;
the values agree with it to rounding.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import EstimationError
from .matrix_core import _nonnegative_scale

#: Entries per row block of the passes over ``S``.
_BLOCK_ENTRIES = 16_384


class Layout:
    """The row blocks of a ``dim x dim`` matrix's upper triangle, shared by the folds of one pass.

    They depend on ``dim`` alone, and are built when a scorer first asks.
    """

    def __init__(self, dim: int) -> None:
        self.dim = dim

    @cached_property
    def blocks(self) -> list[_Block]:
        """The :class:`_Block` of each run of rows with at most :data:`_BLOCK_ENTRIES` entries.

        The blocks are views of two arrays over the whole triangle: two
        allocations, which fragment the heap less than two per block.
        """
        dim = self.dim
        step = max(1, _BLOCK_ENTRIES // dim)
        col = np.arange(dim)
        take = np.empty(dim * (dim + 1) // 2, dtype=np.intp)
        distance = np.empty(take.size, dtype=np.min_scalar_type(dim))
        blocks, at = [], 0
        for start in range(0, dim, step):
            stop = min(start + step, dim)
            offset = col - np.arange(start, stop)[:, None]
            upper = offset >= 0
            end = at + int(np.count_nonzero(upper))
            take[at:end] = np.flatnonzero(upper)
            distance[at:end] = offset[upper]
            blocks.append(_Block(start, stop, take[at:end], distance[at:end]))
            at = end
        return blocks


class Fold:
    """One training fold's fitting context and the targets its candidates are scored against.

    ``targets`` holds ``(T, eta)`` pairs, ``eta`` a nonnegative scalar or
    a matrix of nonnegative weights.  ``layout``, a :class:`Layout` of
    the fold's dimension, may be shared with other folds; by default the
    fold builds its own.
    """

    def __init__(self, ctx, targets, layout: Layout | None = None) -> None:
        self.ctx = ctx
        self.targets = [(target, _nonnegative_scale(eta, np.shape(target))) for target, eta in targets]
        self.layout = layout if layout is not None else Layout(ctx.data.shape[1])
        # A scalar eta multiplies the finished sum, as scaled_frobenius_sq does.
        self._scale = np.array([1.0 if isinstance(eta, np.ndarray) else eta for _, eta in self.targets])

    @property
    def cov(self) -> np.ndarray:
        return self.ctx.cov

    def rows(self, block: _Block, order):
        """Per target, lazily, the block's ``(T, eta)`` entries in ``order``; ``eta`` is None when scalar."""
        return (
            (block.pick(target, order), block.pick(eta, order) if isinstance(eta, np.ndarray) else None)
            for target, eta in self.targets
        )

    @cached_property
    def bases(self) -> np.ndarray:
        """``sum eta * (T - S)**2`` per target, without a scalar ``eta``."""
        sums = []
        for target, eta in self.targets:
            d = target - self.cov
            sums.append(float(np.sum(eta * d * d)) if isinstance(eta, np.ndarray) else float(np.sum(d * d)))
        return np.array(sums)

    def value(self, delta) -> np.ndarray:
        """The candidate's value per target from its ``delta`` per target."""
        return self._scale * (self.bases + delta)


class _Block:
    """The upper-triangle entries of rows ``start:stop``, as flat positions in those rows.

    Every entry off the diagonal stands for its mirror image too.
    ``distance`` is ``|j - l|`` of each entry, in the smallest unsigned
    type that holds ``dim``.
    """

    def __init__(self, start: int, stop: int, take: np.ndarray, distance: np.ndarray) -> None:
        self.rows = slice(start, stop)
        self.take = take
        self.distance = distance

    @property
    def diagonal(self) -> np.ndarray:
        """Whether each entry is on the diagonal."""
        return self.distance == 0

    @cached_property
    def diagonal_at(self) -> np.ndarray:
        """Indices of the diagonal entries among the block's entries."""
        return np.flatnonzero(self.diagonal)

    def entries(self, matrix: np.ndarray) -> np.ndarray:
        return matrix[self.rows].ravel()[self.take]

    def pick(self, matrix: np.ndarray, order) -> np.ndarray:
        """The block's entries of ``matrix`` in ``order``, an index array or a slice."""
        return matrix[self.rows].ravel()[self.take[order]]


class _Bins:
    """One block's entries sorted by bin, with sums per bin.

    ``order`` sorts the block's entries by bin (``idx``), the diagonal
    ones of a bin after the others; every array passed to the methods is
    in that order.  Entries off the diagonal count twice in the sums.
    """

    def __init__(self, idx: np.ndarray, n_bins: int, diagonal: np.ndarray) -> None:
        keys, n_keys = 2 * idx.astype(np.intp, copy=False) + diagonal, 2 * n_bins
        small = np.uint8 if n_keys <= 1 << 8 else np.uint16 if n_keys <= 1 << 16 else np.intp
        self.order = np.argsort(keys.astype(small, copy=False), kind="stable")
        counts = np.bincount(keys, minlength=n_keys)
        self.filled = np.flatnonzero(counts)  # the keys that hold entries, ascending
        self.counts = counts[self.filled]
        self.starts = np.cumsum(self.counts) - self.counts
        self.bins = self.filled >> 1
        self.times = np.where(self.filled & 1, 1.0, 2.0)

    def above(self, j: int) -> int:
        """Position of the first entry in a bin after ``j``."""
        return int(self.counts[: np.searchsorted(self.filled, 2 * j + 1, side="right")].sum())

    def add(self, acc: np.ndarray, values, weights=None, first: int = 0) -> None:
        """``acc[b] +=`` the sum of ``values * weights`` over bin ``b``.

        ``values=None`` sums the weights alone (or counts the entries).
        With ``first`` from :meth:`above`, ``values`` and ``weights`` hold
        only the entries from that position on.
        """
        if weights is not None:
            values = weights if values is None else values * weights
        k = int(np.searchsorted(self.starts, first))  # the first bin from position ``first`` on
        if k == self.starts.size:
            return
        if values is None:
            sums = self.counts[k:].astype(float)
        else:
            sums = np.add.reduceat(values, self.starts[k:] - first)
        sums *= self.times[k:]
        acc += np.bincount(self.bins[k:], weights=sums, minlength=acc.size)


def _square(values: np.ndarray, eta, own: bool = False) -> np.ndarray:
    """``eta * values**2``, rounded as :func:`~covsel.matrix_core.scaled_frobenius_sq` rounds it; ``own``: in place."""
    if eta is None:
        return np.multiply(values, values, out=values if own else None)
    out = eta * values
    out *= values
    return out


def _suffix(sums: np.ndarray) -> np.ndarray:
    """``out[..., b]`` is the sum over bins ``b..``, with a zero column appended."""
    pad = np.zeros(sums.shape[:-1] + (1,))
    return np.cumsum(np.concatenate([sums, pad], axis=-1)[..., ::-1], axis=-1)[..., ::-1]


def score_identity(fold: Fold, specs) -> list:
    """The sample covariance changes nothing: every value is the base."""
    return [fold.value(0.0) for _ in specs]


# ---------------------------------------------------------------------------
# Hard, SCAD and adaptive-LASSO thresholding: bins of |S|
# ---------------------------------------------------------------------------


def score_thresholds(fold: Fold, specs) -> list:
    """Hard, SCAD and adaptive-LASSO candidates from one binning of ``|S|``.

    With ``d = T - S``, an entry a candidate zeroes adds
    ``eta * (T**2 - d**2)``, a prefix over the bins.
    SCAD's soft and middle pieces are ``alpha S + beta sign(S)`` and add
    quadratics in the bin sums of ``eta d S``, ``eta d sign(S)``,
    ``eta S**2``, ``eta |S|`` and ``eta``.  Adaptive-LASSO keeps
    ``S - c sign(S) |S|**-e`` with ``c = u**(e + 1)`` and adds
    ``2 c * eta d sign(S) |S|**-e + c**2 * eta |S|**-2e``, summed per
    exponent over the entries above the smallest threshold.  Every
    kernel zeroes exactly the entries with ``|s| <= u``, so each
    candidate's support is a suffix of the bins.
    """
    cuts: set[float] = set()
    floor = None
    for spec in specs:
        u = spec.params["threshold"]
        if spec.family == "scad_threshold":
            cuts.update((u, 2.0 * u, spec.params["shape"] * u))
        else:
            cuts.add(u)
            if spec.family == "adaptive_lasso":
                floor = u if floor is None else min(floor, u)
    cuts = np.array(sorted(cuts))
    pos = {float(c): i for i, c in enumerate(cuts)}
    n_bins = cuts.size + 1
    n_targets = len(fold.targets)
    exponents = sorted({s.params["exponent"] for s in specs if s.family == "adaptive_lasso"})

    # Per target and bin: eta d S, eta d sign(S), eta S**2, eta |S|, eta,
    # and eta (T**2 - d**2).
    sums = np.zeros((6, n_targets, n_bins))
    # Per exponent, target and bin: eta d sign(S) |S|**-e and eta |S|**-2e.
    lasso = np.zeros((len(exponents), 2, n_targets, n_bins))
    for block in fold.layout.blocks:
        s = block.entries(fold.cov)
        bins = _Bins(np.searchsorted(cuts, np.abs(s)), n_bins, block.diagonal)
        s = s[bins.order]
        mag = np.abs(s)
        sign = np.sign(s)
        if floor is not None:
            # The entries some adaptive-LASSO candidate keeps.
            first = bins.above(pos[floor])
            powers = [mag[first:] ** -e for e in exponents]
        for t, (target, eta) in enumerate(fold.rows(block, bins.order)):
            d = target - s
            dg = d * sign
            for k, values in enumerate((d * s, dg, s * s, mag, None)):
                bins.add(sums[k, t], values, eta)
            bins.add(sums[5, t], _square(target, eta) - _square(d, eta, own=True))
            if floor is not None:
                dg, eta = dg[first:], None if eta is None else eta[first:]
                for k, p in enumerate(powers):
                    bins.add(lasso[k, 0, t], dg * p, eta, first)
                    bins.add(lasso[k, 1, t], p * p, eta, first)

    cum = np.cumsum(sums, axis=-1)
    zeroed = cum[5]
    lasso_kept = _suffix(lasso)

    def between(lo: int, hi: int) -> np.ndarray:
        """The first five sums over bins ``lo+1..hi``, per target."""
        return cum[:5, :, hi] - cum[:5, :, lo]

    out = []
    for spec in specs:
        u = spec.params["threshold"]
        if spec.family == "hard_threshold":
            delta = zeroed[:, pos[u]]
        elif spec.family == "scad_threshold":
            a = spec.params["shape"]
            j0, j1, j2 = pos[u], pos[2.0 * u], pos[a * u]
            _, soft_dg, _, _, soft_n = between(j0, j1)
            soft = 2.0 * u * soft_dg + u * u * soft_n
            mid_ds, mid_dg, mid_ss, mid_sa, mid_n = between(j1, j2)
            au, k = a * u, a - 2.0
            middle = 2.0 / k * (au * mid_dg - mid_ds) + (au * au * mid_n - 2.0 * au * mid_sa + mid_ss) / (k * k)
            delta = zeroed[:, j0] + soft + middle
        else:
            e = spec.params["exponent"]
            c = u ** (e + 1.0)
            j = pos[u]
            k = exponents.index(e)
            delta = zeroed[:, j] + (2.0 * c * lasso_kept[k, 0, :, j + 1] + c * c * lasso_kept[k, 1, :, j + 1])
        out.append(fold.value(delta))
    return out


# ---------------------------------------------------------------------------
# Banding and tapering: sums per diagonal
# ---------------------------------------------------------------------------


def score_bands(fold: Fold, specs) -> list:
    """Banding and tapering candidates from sums per diagonal ``k = |j - l|``.

    Diagonals past the widest band share one bin.  A zeroed diagonal adds
    ``eta * (T**2 - d**2)`` summed along it; a tapered one, kept at weight
    ``0 < w < 1``, adds ``2 (1 - w) eta d S + (1 - w)**2 eta S**2``.
    Tapering zeroes from diagonal ``bands`` on and reuses banding's
    suffix sums, so ``tapering(2)`` and ``banding(1)`` get equal values.
    """
    widest = max(spec.params["bands"] for spec in specs)
    n_bins = widest + 2
    dim = fold.cov.shape[0]
    n_targets = len(fold.targets)
    ds = np.zeros((n_targets, n_bins))
    ss = np.zeros((n_targets, n_bins))
    zs = np.zeros((n_targets, n_bins))
    for block in fold.layout.blocks:
        # No distance reaches dim, so capping there keeps the cap in the distance's type.
        bins = _Bins(np.minimum(block.distance, min(widest + 1, dim)), n_bins, block.diagonal)
        s = block.pick(fold.cov, bins.order)
        for t, (target, eta) in enumerate(fold.rows(block, bins.order)):
            d = target - s
            bins.add(ds[t], d * s, eta)
            bins.add(ss[t], s * s, eta)
            bins.add(zs[t], _square(target, eta) - _square(d, eta))

    zeroed = _suffix(zs)
    out = []
    for spec in specs:
        bands = spec.params["bands"]
        if spec.family == "banding":
            delta = zeroed[:, bands + 1]
        else:
            tapered = 0.0
            for k in range(bands // 2 + 1, bands):
                w = 2.0 - 2.0 * float(k) / bands
                tapered = tapered + (2.0 * (1.0 - w) * ds[:, k] + (1.0 - w) ** 2 * ss[:, k])
            delta = tapered + zeroed[:, bands]
        out.append(fold.value(delta))
    return out


# ---------------------------------------------------------------------------
# POET: bins of the remainder's magnitude, per factor count
# ---------------------------------------------------------------------------


def score_poet(fold: Fold, specs) -> list:
    """POET candidates, one pass per factor count over ``L`` and ``R = S - L``.

    Off the diagonal POET keeps ``L + R`` where ``|R| > u`` and ``L``
    elsewhere; its diagonal is ``diag(S)``, which changes nothing and is
    left out.  A zeroed entry adds ``eta * [(T - L)**2 - (T - S)**2]``, a
    prefix over bins of ``|R|``, and a kept one adds
    ``eta * [(T - (L + R))**2 - (T - S)**2]``, a suffix.  Every candidate
    zeroes the entries in bin 0, at or below the smallest threshold, so
    each block sorts into bins only its entries above it and sums the
    rest at once.  ``R`` is formed as ``S - L``, the expression the direct
    path's remainder is built with.  Factor counts the context cannot
    decompose are left to the direct path, which reports the failure.
    """
    out: list = [None] * len(specs)
    by_factors: dict[int, list[int]] = {}
    for i, spec in enumerate(specs):
        by_factors.setdefault(spec.params["factors"], []).append(i)
    dim = fold.cov.shape[0]
    for factors, members in by_factors.items():
        if factors > dim:
            continue
        try:
            low_rank = fold.ctx.poet_low_rank(factors)
        except (EstimationError, FloatingPointError, ValueError, np.linalg.LinAlgError):
            continue  # the direct path refits and reports the failure
        cuts = np.array(sorted({specs[i].params["threshold"] for i in members}))
        zeroed, kept = _poet_sums(fold, low_rank, cuts)
        del low_rank  # freed with the context's copy when the next count builds its part
        zeroed_upto = np.cumsum(zeroed, axis=-1)
        kept_from = _suffix(kept)
        for i in members:
            j = int(np.searchsorted(cuts, specs[i].params["threshold"]))
            out[i] = fold.value(zeroed_upto[:, j] + kept_from[:, j + 1])
    return out


def _poet_sums(fold: Fold, low_rank: np.ndarray, cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per target and bin of ``|R|``, the sums of zeroing ``R`` and of keeping it; its arrays die with the call."""
    n_bins = cuts.size + 1
    zeroed = np.zeros((len(fold.targets), n_bins))
    kept = np.zeros((len(fold.targets), n_bins))
    for block in fold.layout.blocks:
        s = block.entries(fold.cov)
        low = block.entries(low_rank)
        mag = np.abs(s - low)
        mag[block.diagonal_at] = 0.0  # POET keeps diag(S): no bin, no change
        above = np.flatnonzero(mag > cuts[0])
        bins = _Bins(np.searchsorted(cuts, mag[above]), n_bins, False)
        del mag
        at = above[bins.order]
        s_at, low_at = s[at], low[at]
        both = low_at + (s_at - low_at)
        for t, (target, eta) in enumerate(fold.rows(block, slice(None))):
            changed = _square(target - low, eta, own=True)
            changed -= _square(target - s, eta, own=True)
            target_at, eta_at = target[at], None if eta is None else eta[at]
            d2 = _square(target_at - s_at, eta_at)
            bins.add(zeroed[t], _square(target_at - low_at, eta_at) - d2)
            bins.add(kept[t], _square(target_at - both, eta_at) - d2)
            # What is left is bin 0 off the diagonal, zeroed by every candidate.
            changed[above] = 0.0
            changed[block.diagonal_at] = 0.0
            zeroed[t, 0] += 2.0 * float(np.sum(changed))
    return zeroed, kept
