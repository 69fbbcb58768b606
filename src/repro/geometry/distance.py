"""Vectorized distance computations used by the SDH engines.

Two families of helpers live here:

* min/max distance *bounds* between many cell pairs at once — the
  vectorized counterpart of :meth:`repro.geometry.bounds.AABB.min_distance`
  (the paper's Fig. 3 "three scenarios" computation, line 1 of
  ``RESOLVETWOCELLS``), used by the grid engine where cells are identified
  by integer grid indices instead of explicit boxes;
* exact pairwise point distances in chunks, used by the brute-force
  baseline and by the leaf-level fallback of DM-SDH (Fig. 2 lines 7–11).

Everything here is pure ``numpy``; no Python-level loops over pairs.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = [
    "grid_pair_bounds",
    "periodic_grid_pair_bounds",
    "box_pair_bounds",
    "minimum_image",
    "pairwise_distances",
    "cross_distances",
    "iter_self_distance_chunks",
    "iter_cross_distance_chunks",
    "PANEL_ROWS",
]

#: Rows per panel of every dense pairwise sweep (these iterators, the
#: brute-force baseline and the numpy kernel tier).  One panel pair holds
#: at most ``PANEL_ROWS**2`` = 262144 pair deltas -- about 6 MB of float64
#: in 3D -- so a sweep's temporaries stay near cache size whatever N is.
PANEL_ROWS = 512


def grid_pair_bounds(
    idx1: np.ndarray,
    idx2: np.ndarray,
    cell_side: float | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Distance bounds between grid cells given their integer indices.

    Parameters
    ----------
    idx1, idx2:
        Integer arrays of shape ``(n, d)``: per-axis grid indices of the
        two cells of each pair.  A cell with index ``i`` on an axis spans
        ``[i * cell_side, (i + 1) * cell_side)``.
    cell_side:
        Side length ``delta`` of the cells — a scalar for square/cubic
        cells or a ``(d,)`` array for rectangular ones (non-cubic
        simulation boxes).

    Returns
    -------
    (u, v):
        Arrays of shape ``(n,)`` with the minimum and maximum possible
        point-to-point distance of each cell pair.  Every realized
        distance D between particles of the two cells satisfies
        ``u <= D <= v``.
    """
    sides = np.asarray(cell_side, dtype=np.float64)
    diff = np.abs(idx1.astype(np.int64) - idx2.astype(np.int64))
    gap = np.maximum(diff - 1, 0).astype(np.float64) * sides
    span = (diff + 1).astype(np.float64) * sides
    u = np.sqrt(np.einsum("ij,ij->i", gap, gap))
    v = np.sqrt(np.einsum("ij,ij->i", span, span))
    return u, v


def minimum_image(delta: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Wrap coordinate differences to the nearest periodic image.

    ``delta`` is ``(n, d)``; ``lengths`` the per-axis box lengths.  The
    result satisfies ``|delta[k]| <= lengths[k] / 2`` per axis — the
    minimum-image convention of molecular simulation.
    """
    lengths = np.asarray(lengths, dtype=np.float64)
    return delta - lengths * np.round(delta / lengths)


def periodic_interval_minmax(
    a: np.ndarray, b: np.ndarray, length: float
) -> tuple[np.ndarray, np.ndarray]:
    """Range of ``min(x, L - x)`` for ``x`` in ``[a, b] subseteq [0, L]``.

    The per-axis building block of periodic cell-distance bounds:
    ``g(x) = min(x, L - x)`` is the minimum-image transform of an
    absolute coordinate difference, and on an interval its extrema sit
    at the endpoints (minimum) or at ``L/2`` when straddled (maximum).
    """
    g_min = np.minimum(a, length - b)
    g_max = np.where(
        b <= length / 2,
        b,
        np.where(a >= length / 2, length - a, length / 2),
    )
    return g_min, g_max


def periodic_grid_pair_bounds(
    idx1: np.ndarray,
    idx2: np.ndarray,
    grid: int,
    cell_side: float | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-image distance bounds between cells of a periodic grid.

    Like :func:`grid_pair_bounds`, but distances are measured under the
    minimum-image convention on the torus of ``grid`` cells per axis.
    Every realized min-image distance D between particles of the two
    cells satisfies ``u <= D <= v``.
    """
    sides = np.broadcast_to(
        np.asarray(cell_side, dtype=np.float64), (idx1.shape[1],)
    )
    diff = np.abs(idx1.astype(np.int64) - idx2.astype(np.int64))
    u_sq = np.zeros(idx1.shape[0])
    v_sq = np.zeros(idx1.shape[0])
    for axis in range(idx1.shape[1]):
        length = grid * sides[axis]
        a = np.maximum(diff[:, axis] - 1, 0) * sides[axis]
        b = np.minimum(diff[:, axis] + 1, grid) * sides[axis]
        g_min, g_max = periodic_interval_minmax(a, b, length)
        u_sq += g_min * g_min
        v_sq += g_max * g_max
    return np.sqrt(u_sq), np.sqrt(v_sq)


def box_pair_bounds(
    lo1: np.ndarray,
    hi1: np.ndarray,
    lo2: np.ndarray,
    hi2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Distance bounds between explicit boxes, vectorized over pairs.

    All inputs are ``(n, d)`` float arrays of per-pair box corners.  This
    variant serves the MBR optimization (Sec. III-C.3): node MBRs are not
    grid-aligned, so bounds must be computed from actual coordinates.
    """
    gap = np.maximum(np.maximum(lo2 - hi1, lo1 - hi2), 0.0)
    span = np.maximum(hi2 - lo1, hi1 - lo2)
    u = np.sqrt(np.einsum("ij,ij->i", gap, gap))
    v = np.sqrt(np.einsum("ij,ij->i", span, span))
    return u, v


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """All ``n(n-1)/2`` distances within one coordinate array.

    Returns a flat float array ordered like
    ``[(0,1), (0,2), ..., (0,n-1), (1,2), ...]``.  Intended for modest
    ``n`` (leaf cells, tests); the benchmarks use the chunked iterators
    below for large inputs.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if n < 2:
        return np.empty(0, dtype=float)
    iu, ju = np.triu_indices(n, k=1)
    delta = points[iu] - points[ju]
    return np.sqrt(np.einsum("ij,ij->i", delta, delta))


def cross_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All ``len(a) * len(b)`` distances between two coordinate arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.empty(0, dtype=float)
    delta = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", delta, delta)).ravel()


def iter_self_distance_chunks(
    points: np.ndarray,
    chunk: int = PANEL_ROWS,
    box_lengths: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """Yield all intra-set distances without materializing the full set.

    The computation is blocked into ``chunk``-row panels so peak memory
    stays near ``chunk * n`` floats; this is the workhorse behind the
    brute-force baseline ("Dist" in Figs. 8–9) at large N.  With
    ``box_lengths`` set, distances use the minimum-image convention
    (periodic boundaries).
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    dim = points.shape[1] if points.ndim == 2 else 0
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        block = points[start:stop]
        # distances within the block
        if block.shape[0] >= 2:
            iu, ju = np.triu_indices(block.shape[0], k=1)
            delta = _wrap(block[iu] - block[ju], box_lengths)
            yield np.sqrt(np.einsum("ij,ij->i", delta, delta))
        # distances from the block to everything after it
        rest = points[stop:]
        if rest.shape[0] == 0:
            continue
        for rstart in range(0, rest.shape[0], chunk):
            rblock = rest[rstart : rstart + chunk]
            delta = _wrap(
                (block[:, None, :] - rblock[None, :, :]).reshape(-1, dim),
                box_lengths,
            )
            yield np.sqrt(np.einsum("ij,ij->i", delta, delta))


def iter_cross_distance_chunks(
    a: np.ndarray,
    b: np.ndarray,
    chunk: int = PANEL_ROWS,
    box_lengths: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """Yield all cross-set distances in memory-bounded blocks.

    With ``box_lengths`` set, distances use the minimum-image
    convention (periodic boundaries).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    for astart in range(0, a.shape[0], chunk):
        ablock = a[astart : astart + chunk]
        for bstart in range(0, b.shape[0], chunk):
            bblock = b[bstart : bstart + chunk]
            delta = _wrap(
                (ablock[:, None, :] - bblock[None, :, :]).reshape(
                    -1, a.shape[1]
                ),
                box_lengths,
            )
            yield np.sqrt(np.einsum("ij,ij->i", delta, delta))


def _wrap(delta: np.ndarray, box_lengths: np.ndarray | None) -> np.ndarray:
    """Minimum-image wrap when periodic, identity otherwise."""
    if box_lengths is None:
        return delta
    return minimum_image(delta, box_lengths)
