"""Exact fixed-point accumulation for weighted histograms.

Weighted SDH buckets hold sums of pair-weight products ``w_i * w_j``.
Accumulating them in float64 would make the result depend on summation
order — and every engine (brute, tree, grid, parallel shards) visits
pairs in a different order, so bit-identical differential verification
would be impossible.  Worse, the density-map engines never touch most
pairs at all: a resolved cell pair contributes the *product of two cell
weight sums*, which only equals the sum of its pairwise products in
exact arithmetic.

This module therefore represents every weight exactly as a scaled
integer and keeps all intermediate sums exact:

* a float64 weight ``w = m * 2**(e-53)`` (``m`` the 53-bit signed
  mantissa) becomes the integer ``m << (e - 53 + WEIGHT_BIAS)`` — exact
  for every finite double, including subnormals, at scale
  ``2**-WEIGHT_BIAS``;
* pair products, cell-sum products and squared weights are integer
  products at scale ``2**-PRODUCT_BIAS``;
* per-bucket accumulators are either arbitrary-precision Python ints
  (engine-level cell resolution) or fixed-width little-endian *limb
  arrays* of int64 (every per-pair product: vectorizable in numpy,
  loopable in numba, mergeable by plain integer addition);
* :func:`finalize` divides the exact integer totals by
  ``2**PRODUCT_BIAS`` with Python's correctly-rounded int/int division.

The result of a weighted query is therefore the **correctly-rounded
double of the exact real sum** — independent of engine decomposition,
kernel tier, chunk size, thread count and merge order.  That is what
lets ``repro-sdh verify`` demand bit-identical weighted histograms from
every engine x kernel-tier combination.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "WEIGHT_BIAS",
    "PRODUCT_BIAS",
    "LIMB_BITS",
    "NLIMBS",
    "decompose",
    "weight_ints",
    "zero_ints",
    "new_limbs",
    "scatter_products",
    "normalize_limbs",
    "limbs_to_ints",
    "finalize",
    "exact_weighted_total",
]

#: Scale exponent of single weights: ``w * 2**WEIGHT_BIAS`` is an exact
#: integer for every finite double (the smallest subnormal is
#: ``2**-1074``; frexp yields exponents >= -1073 and mantissa shift 53).
WEIGHT_BIAS = 1126

#: Scale exponent of pair products (two weights multiplied).
PRODUCT_BIAS = 2 * WEIGHT_BIAS

#: Bits per limb of the fixed-width kernel accumulators.  Limbs are
#: stored in int64 so ~2**30 carries can pile up before overflow;
#: :func:`normalize_limbs` restores canonical [0, 2**32) digits.
LIMB_BITS = 32

#: Limbs needed to cover any pair product: the largest product mantissa
#: top bit sits at ``2 * 1024 + PRODUCT_BIAS`` ~ 4300 bits.
NLIMBS = 136

_MASK = (1 << LIMB_BITS) - 1


def decompose(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact ``(mantissa, shift)`` integer form of float64 values.

    Each value equals ``mantissa * 2**(shift - WEIGHT_BIAS)`` exactly,
    with ``|mantissa| <= 2**53`` and ``shift >= 0``.  Zeros decompose to
    mantissa 0.  Values must be finite (``ParticleSet`` validates).
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    frac, exp = np.frexp(values)
    mant = (frac * 9007199254740992.0).astype(np.int64)  # * 2**53, exact
    shift = exp.astype(np.int64) - 53 + WEIGHT_BIAS
    return mant, shift


def weight_ints(values: np.ndarray) -> np.ndarray:
    """Exact integers at scale ``2**-WEIGHT_BIAS``, as an object array.

    Python ints carry arbitrary precision, so cell weight sums and
    sum-products computed from these are exact; numpy object arrays let
    the engines keep their vectorized indexing/pooling idioms.
    """
    mant, shift = decompose(values)
    out = np.empty(mant.shape[0], dtype=object)
    for i in range(mant.shape[0]):
        out[i] = int(mant[i]) << int(shift[i])
    return out


def zero_ints(nbins: int) -> np.ndarray:
    """A fresh object-int bucket accumulator (all buckets zero)."""
    out = np.empty(int(nbins), dtype=object)
    out[:] = 0
    return out


def new_limbs(nbins: int) -> np.ndarray:
    """A fresh ``(nbins, NLIMBS)`` int64 limb accumulator."""
    return np.zeros((int(nbins), NLIMBS), dtype=np.int64)


#: Pairs per :func:`scatter_products` sub-batch: small enough that the
#: ~20 int64 temporaries of a batch stay in the CPU caches, which a
#: whole 512 x 512 panel's do not.
SCATTER_BATCH = 8192


def scatter_products(
    limbs: np.ndarray,
    bins: np.ndarray,
    mant_a: np.ndarray,
    shift_a: np.ndarray,
    mant_b: np.ndarray,
    shift_b: np.ndarray,
) -> None:
    """Add exact pair products ``a * b`` into per-bucket limb rows.

    The 106-bit product mantissa is built from four 27x27-bit partial
    products; each partial is split into three 32-bit pieces aligned to
    its limb offset, so every arithmetic step stays inside int64 and is
    exact.  Pure integer work — order cannot perturb the result.  Pairs
    go in sub-batches of ``SCATTER_BATCH``, whose int64 temporaries stay
    in cache.
    """
    for begin in range(0, bins.shape[0], SCATTER_BATCH):
        part = slice(begin, begin + SCATTER_BATCH)
        _scatter_batch(
            limbs, bins[part], mant_a[part], shift_a[part],
            mant_b[part], shift_b[part],
        )


def _scatter_batch(limbs, bins, mant_a, shift_a, mant_b, shift_b) -> None:
    sign = np.where((mant_a < 0) != (mant_b < 0), np.int64(-1), np.int64(1))
    sign[(mant_a == 0) | (mant_b == 0)] = 0
    abs_a = np.abs(mant_a)
    abs_b = np.abs(mant_b)
    hi_a, lo_a = abs_a >> 27, abs_a & ((1 << 27) - 1)
    hi_b, lo_b = abs_b >> 27, abs_b & ((1 << 27) - 1)
    base = shift_a + shift_b
    for partial, rel in (
        (lo_a * lo_b, 0),
        (lo_a * hi_b, 27),
        (hi_a * lo_b, 27),
        (hi_a * hi_b, 54),
    ):
        total_shift = base + rel
        limb = total_shift >> 5
        off = total_shift & 31
        keep = 32 - off  # in [1, 32], so every shift below is < 64
        low = (partial & ((np.int64(1) << keep) - 1)) << off
        rest = partial >> keep
        mid = rest & _MASK
        high = rest >> LIMB_BITS
        np.add.at(limbs, (bins, limb), sign * low)
        np.add.at(limbs, (bins, limb + 1), sign * mid)
        np.add.at(limbs, (bins, limb + 2), sign * high)


#: Pairs one limb array can absorb between normalizations without any
#: risk of int64 overflow (4 partials x pieces < 2**32 each per pair).
SCATTER_LIMIT = 1 << 28


def normalize_limbs(limbs: np.ndarray) -> None:
    """Carry-propagate so every limb is a canonical [0, 2**32) digit.

    (The top limb keeps the sign; conversion handles it.)  Needed only
    to bound int64 growth between scatter batches — conversions via
    :func:`limbs_to_ints` are exact for any limb values.
    """
    for k in range(limbs.shape[1] - 1):
        carry = limbs[:, k] >> LIMB_BITS
        limbs[:, k] -= carry << LIMB_BITS
        limbs[:, k + 1] += carry


def limbs_to_ints(limbs: np.ndarray) -> np.ndarray:
    """Exact Python-int value of each limb row (object array)."""
    out = np.empty(limbs.shape[0], dtype=object)
    for b in range(limbs.shape[0]):
        total = 0
        row = limbs[b]
        for k in range(limbs.shape[1] - 1, -1, -1):
            total = (total << LIMB_BITS) + int(row[k])
        out[b] = total
    return out


_PRODUCT_DEN = 1 << PRODUCT_BIAS


def finalize(bucket_ints: np.ndarray) -> np.ndarray:
    """Correctly-rounded float64 bucket values of exact integer sums."""
    out = np.empty(bucket_ints.shape[0], dtype=np.float64)
    for b in range(bucket_ints.shape[0]):
        try:
            out[b] = bucket_ints[b] / _PRODUCT_DEN
        except OverflowError:  # |sum| beyond the double range
            out[b] = np.inf if bucket_ints[b] > 0 else -np.inf
    return out


def exact_weighted_total(
    weights_a: np.ndarray, weights_b: np.ndarray | None = None
) -> float:
    """Correctly-rounded total weighted pair mass.

    Self mass ``((sum w)**2 - sum w**2) / 2`` for one set, or the full
    cross mass ``(sum wa) * (sum wb)`` for two — computed through the
    same exact integer path as the engines, so a conserving engine's
    histogram total matches this value bit-for-bit.
    """
    wa = weight_ints(weights_a)
    total_a = sum(wa.tolist(), 0)
    if weights_b is None:
        square = sum((w * w for w in wa.tolist()), 0)
        mass = (total_a * total_a - square) >> 1
    else:
        wb = weight_ints(weights_b)
        mass = total_a * sum(wb.tolist(), 0)
    try:
        return mass / _PRODUCT_DEN
    except OverflowError:  # pragma: no cover - astronomically large
        return float("inf") if mass > 0 else float("-inf")
