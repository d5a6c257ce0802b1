"""Symbolic permutation verifier for the decomposition's index algebra.

The decomposition's correctness is *statically decidable*: every pass is a
closed-form modular map over ``(m, n)`` (Eq. 23-26, 31-36), so bijectivity,
gather/scatter inversion, the Eq. 32-33 rotation/static-permutation split,
and the composed-plan-equals-transposition identity can all be proven from
the shape alone — no matrix data is ever touched.  This module turns each of
the paper's theorems into an executable certificate:

=========================  =====================================================
check                      what it proves
=========================  =====================================================
``decomposition``          ``m = a*c``, ``n = b*c``, ``gcd(a, b) == 1``
``mmi-certificates``       ``a * mmi(a,b) ≡ 1 (mod b)`` and symmetrically
``prerotate-bijective``    each column rotation (Eq. 23) permutes ``[0, m)``
``rowshuffle-bijective``   Theorem 3: ``d'_i`` permutes ``[0, n)`` per row
``colshuffle-bijective``   Theorem 5: ``s'_j`` permutes ``[0, m)`` per column
``permute-q-bijective``    Eq. 33's static row permutation is a bijection
``copy-rows-*``            the row maps of the streamed band copies
                           (rotation by one row, ``q``) are bijections
``rotation-split``         Eq. 32-33: ``s'_j(i) == q(p_j(i))`` (gather form)
``dprime-inversion``       Eq. 31 gather exactly inverts the Eq. 24 scatter
``q-inversion``            Eq. 34 gather exactly inverts Eq. 33
``prerotate-inversion``    Eq. 36 inverts Eq. 23
``sprime-inversion``       the fused inverse column shuffle inverts Eq. 26
``composition-c2r/r2c``    the composed passes equal the transposition
``plan-object-*``          a built :class:`TransposePlan` realizes the same map
``fastdiv-*``              magic-number div/mod agrees with ``//``/``%`` over
                           the full operand range the shape can generate
=========================  =====================================================

Each verification runs in ``O(m*n)`` index arithmetic (the bijectivity and
inversion certificates are per-row/per-column sorts and compositions of the
vectorized equation forms), which for the CI shape lattice is a few
microseconds per shape.  A failure pinpoints the check name and the first
offending indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from time import perf_counter

import numpy as np

from ..core import equations as eq
from ..core.indexing import Decomposition
from ..core.numbertheory import mmi
from ..strength.magic import compute_magic
from ..strength.reduced import ReducedEquations

__all__ = [
    "Check",
    "ShapeReport",
    "LatticeReport",
    "transposition_source_map",
    "composed_source_map",
    "copy_row_map_check",
    "verify_shape",
    "verify_lattice",
]


@dataclass
class Check:
    """One named certificate: what was proven, whether it held, and detail."""

    name: str
    ok: bool
    detail: str = ""

    def as_dict(self) -> dict:
        d: dict = {"name": self.name, "ok": self.ok}
        if self.detail:
            d["detail"] = self.detail
        return d


@dataclass
class ShapeReport:
    """Every certificate for one ``(m, n)`` shape."""

    m: int
    n: int
    checks: list[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "ok": self.ok,
            "checks": len(self.checks),
            "failures": [c.as_dict() for c in self.failures],
        }


@dataclass
class LatticeReport:
    """Aggregate of a full shape-lattice sweep."""

    m_max: int
    n_max: int
    shapes: int = 0
    checks: int = 0
    seconds: float = 0.0
    failures: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "m_max": self.m_max,
            "n_max": self.n_max,
            "shapes": self.shapes,
            "checks": self.checks,
            "seconds": self.seconds,
            "ok": self.ok,
            "failures": self.failures,
        }


# ---------------------------------------------------------------------------
# Reference permutations
# ---------------------------------------------------------------------------

def transposition_source_map(m: int, n: int) -> np.ndarray:
    """The flat gather map of transposition on a row-major ``m x n`` buffer.

    ``final[l'] = initial[sigma(l')]`` with ``sigma(l') = (l' mod m) * n +
    l' div m`` — exactly the C2R source pair of Eq. 7-8 linearized row-major
    into the transposed ``n x m`` frame.
    """
    l = np.arange(m * n, dtype=np.int64)
    return (l % m) * n + l // m


def composed_source_map(m: int, n: int, algorithm: str) -> np.ndarray:
    """Compose the plan's passes symbolically into one flat gather map.

    The composition runs on an identity index array, so the result *is* the
    algebraic product of the pass permutations — no matrix data involved.
    Both algorithms must yield :func:`transposition_source_map`.
    """
    if algorithm == "c2r":
        dec = Decomposition.of(m, n)
        V = np.arange(m * n, dtype=np.int64).reshape(m, n)
        if dec.c > 1:
            for g in range(dec.c):
                k = g % dec.m
                if k:
                    cols = slice(g * dec.b, (g + 1) * dec.b)
                    V[:, cols] = np.roll(V[:, cols], -k, axis=0)
        V = np.take_along_axis(V, eq.dprime_inverse_matrix(dec), axis=1)
        V = np.take_along_axis(V, eq.sprime_matrix(dec), axis=0)
    elif algorithm == "r2c":
        # Theorem 2: R2C transposes a row-major buffer viewed with swapped
        # dimensions, i.e. the passes run on the (n, m) view.
        dec = Decomposition.of(n, m)
        V = np.arange(m * n, dtype=np.int64).reshape(n, m)
        V = np.take_along_axis(V, eq.sprime_inverse_matrix(dec), axis=0)
        V = np.take_along_axis(V, eq.dprime_matrix(dec), axis=1)
        if dec.c > 1:
            for g in range(dec.c):
                k = g % dec.m
                if k:
                    cols = slice(g * dec.b, (g + 1) * dec.b)
                    V[:, cols] = np.roll(V[:, cols], k, axis=0)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return V.ravel()


# ---------------------------------------------------------------------------
# Individual certificates
# ---------------------------------------------------------------------------

def _first_bad(mask: np.ndarray) -> str:
    """Human-readable location of the first failing entry of a bool mask."""
    idx = np.argwhere(~mask)
    return f"first failure at index {tuple(int(v) for v in idx[0])}" if idx.size else ""


def _perm_rows(mat: np.ndarray, hi: int) -> np.ndarray:
    """Per-row permutation mask: row ``i`` is a permutation of ``[0, hi)``."""
    return (np.sort(mat, axis=1) == np.arange(hi, dtype=np.int64)).all(axis=1)


def _perm_cols(mat: np.ndarray, hi: int) -> np.ndarray:
    """Per-column permutation mask: col ``j`` permutes ``[0, hi)``."""
    return (np.sort(mat, axis=0) == np.arange(hi, dtype=np.int64)[:, None]).all(axis=0)


def _check_decomposition(dec: Decomposition) -> list[Check]:
    ok = (
        dec.c == math.gcd(dec.m, dec.n)
        and dec.m == dec.a * dec.c
        and dec.n == dec.b * dec.c
        and math.gcd(dec.a, dec.b) == 1
    )
    checks = [
        Check(
            "decomposition",
            ok,
            "" if ok else f"c={dec.c}, a={dec.a}, b={dec.b} inconsistent",
        )
    ]
    a_inv = mmi(dec.a, dec.b)
    b_inv = mmi(dec.b, dec.a)
    checks.append(
        Check(
            "mmi-certificates",
            (dec.a * a_inv) % dec.b == 1 % dec.b
            and (dec.b * b_inv) % dec.a == 1 % dec.a,
            f"mmi(a,b)={a_inv}, mmi(b,a)={b_inv}",
        )
    )
    return checks


def _check_bijectivity(dec: Decomposition, grids: dict[str, np.ndarray]) -> list[Check]:
    m, n = dec.m, dec.n
    checks = []

    # Pre-rotation (Eq. 23): each column group rotates by a constant; verify
    # every distinct shift is a permutation of [0, m).  O(m) per shift.
    shifts = {g % m for g in range(dec.c)}
    rot_ok = all(
        np.array_equal(
            np.sort((np.arange(m, dtype=np.int64) + k) % m), np.arange(m)
        )
        for k in shifts
    )
    checks.append(Check("prerotate-bijective", rot_ok, f"{len(shifts)} distinct shifts"))

    row_mask = _perm_rows(grids["dprime"], n)
    checks.append(
        Check("rowshuffle-bijective", bool(row_mask.all()),
              "" if row_mask.all() else f"row {int(np.argmin(row_mask))} not a permutation")
    )

    col_mask = _perm_cols(grids["sprime"], m)
    checks.append(
        Check("colshuffle-bijective", bool(col_mask.all()),
              "" if col_mask.all() else f"column {int(np.argmin(col_mask))} not a permutation")
    )

    q = eq.permute_q_v(dec, np.arange(m, dtype=np.int64))
    checks.append(
        Check("permute-q-bijective", bool(np.array_equal(np.sort(q), np.arange(m))))
    )

    # Eq. 32-33 split: the column shuffle factors into the static
    # permutation q followed by the rotation p_j: s'_j(i) == p_j(q(i))
    # (as scatter maps; the gather composition order reverses).
    i, j = grids["i"], grids["j"]
    split = eq.rotate_p_v(dec, eq.permute_q_v(dec, i), j)
    split_ok = np.array_equal(split, grids["sprime"])
    checks.append(
        Check("rotation-split", split_ok,
              "" if split_ok else _first_bad(split == grids["sprime"]))
    )
    return checks


def _check_inversion(dec: Decomposition, grids: dict[str, np.ndarray]) -> list[Check]:
    m, n = dec.m, dec.n
    i, j = grids["i"], grids["j"]
    checks = []

    # Eq. 24 composed with Eq. 31 == identity, per row.  Theorem 3 plus a
    # one-sided identity proves full two-sided inversion.
    comp = eq.dprime_v(dec, i, grids["dprime_inv"])
    ok = np.array_equal(comp, np.broadcast_to(j, comp.shape))
    checks.append(
        Check("dprime-inversion", ok, "" if ok else _first_bad(comp == j))
    )

    iv = np.arange(m, dtype=np.int64)
    q_comp = eq.permute_q_v(dec, eq.permute_q_inverse_v(dec, iv))
    checks.append(Check("q-inversion", bool(np.array_equal(q_comp, iv))))

    rot = eq.rotate_r_inverse_v(dec, eq.rotate_r_v(dec, i, j), j)
    checks.append(
        Check("prerotate-inversion", bool(np.array_equal(rot, np.broadcast_to(i, rot.shape))))
    )

    # Fused inverse column shuffle (R2C pass 1): s'_j(s'^{-1}_j(i)) == i.
    sinv = eq.sprime_inverse_v(dec, i, j)
    s_comp = eq.sprime_v(dec, sinv, j)
    ok = np.array_equal(s_comp, np.broadcast_to(i, s_comp.shape))
    checks.append(
        Check("sprime-inversion", ok, "" if ok else _first_bad(s_comp == i))
    )
    return checks


def _check_composition(dec: Decomposition) -> list[Check]:
    m, n = dec.m, dec.n
    expected = transposition_source_map(m, n)
    checks = []
    for algorithm in ("c2r", "r2c"):
        got = composed_source_map(m, n, algorithm)
        ok = np.array_equal(got, expected)
        detail = ""
        if not ok:
            bad = int(np.argmin(got == expected))
            detail = f"flat index {bad}: got source {int(got[bad])}, want {int(expected[bad])}"
        checks.append(Check(f"composition-{algorithm}", ok, detail))
    return checks


def _check_plan_objects(m: int, n: int) -> list[Check]:
    """Cross-check that built :class:`TransposePlan` objects realize the
    verified permutation (catches plan-construction drift, not just equation
    drift)."""
    from ..core.plan import TransposePlan

    checks = []
    l = np.arange(m * n, dtype=np.int64)
    expected = {
        "C": transposition_source_map(m, n),
        # Column-major m x n is byte-identical to row-major n x m.
        "F": (l // n) + (l % n) * m,
    }
    for order in ("C", "F"):
        for algorithm in ("c2r", "r2c"):
            buf = np.arange(m * n, dtype=np.int64)
            TransposePlan(m, n, order, algorithm).execute(buf)
            ok = np.array_equal(buf, expected[order])
            checks.append(
                Check(
                    f"plan-object-{order}-{algorithm}",
                    ok,
                    "" if ok else "executed plan deviates from verified permutation",
                )
            )
    return checks


def _check_fastdiv(dec: Decomposition) -> list[Check]:
    """Magic-number division agrees with exact ``//``/``%`` everywhere the
    plan's equations can reach, and at the 31-bit exactness boundary."""
    m, n = dec.m, dec.n
    checks = []
    try:
        red = ReducedEquations(dec)
    except ValueError as exc:
        return [Check("fastdiv-range", True, f"skipped: {exc}")]

    # Exact agreement of the reduced evaluators with the reference equations
    # over the whole index grid.
    i = np.arange(m, dtype=np.int64)[:, None]
    j = np.arange(n, dtype=np.int64)[None, :]
    pairs = [
        ("fastdiv-dprime-inverse", red.dprime_inverse(i, j), eq.dprime_inverse_v(dec, i, j)),
        ("fastdiv-sprime", red.sprime(i, j), eq.sprime_v(dec, i, j)),
        ("fastdiv-dprime", red.dprime(i, j), eq.dprime_v(dec, i, j)),
        ("fastdiv-rotate-r", red.rotate_r(i, j), eq.rotate_r_v(dec, i, j)),
        ("fastdiv-permute-q", red.permute_q(i[:, 0]), eq.permute_q_v(dec, i[:, 0])),
    ]
    for name, got, want in pairs:
        ok = np.array_equal(got, want)
        checks.append(Check(name, ok, "" if ok else _first_bad(got == want)))

    # Exhaustive operand-range check: every div/mod operand the reduced
    # equations generate for this shape lies in [0, m*n + m), so checking
    # each divider over that full range covers every reachable input.
    hi = m * n + m
    x = np.arange(hi, dtype=np.int64)
    dividers = {"m": red._dm, "n": red._dn, "a": red._da, "b": red._db, "c": red._dc}
    for label, fd in dividers.items():
        d = fd.divisor
        ok = bool(
            np.array_equal(fd.div(x), x // d) and np.array_equal(fd.mod(x), x % d)
        )
        checks.append(
            Check(f"fastdiv-exhaustive-{label}", ok,
                  "" if ok else f"divisor {d} disagrees with exact //,% below {hi}")
        )

    # Boundary probe at the top of the 31-bit guarantee: adversarial points
    # (multiples of d and their neighbours near 2**31 - 1) through the scalar
    # magic-number path.
    xmax = 2**31 - 1
    bad = []
    for d in sorted({m, n, dec.a, dec.b, dec.c}):
        magic = compute_magic(d)
        qtop = xmax // d
        probes = {0, 1, d - 1, d, d + 1, xmax, xmax - 1,
                  qtop * d, qtop * d - 1, min(qtop * d + d - 1, xmax)}
        for xv in probes:
            if 0 <= xv <= xmax and magic.divide(xv) != xv // d:
                bad.append((d, xv))
    checks.append(
        Check("fastdiv-boundary", not bad,
              "" if not bad else f"divisor/operand failures: {bad[:3]}")
    )
    return checks


@lru_cache(maxsize=256)
def copy_row_map_check(dec: Decomposition, row_map: str) -> Check:
    """Certify the per-column row map a band copy addresses the band
    buffer through (``repro.analysis.racecheck.COPY_ROW_MAPS``) as a
    bijection of ``[0, m)``, for the race proof of the streamed copies.

    ``rotate`` and ``skew`` move column group ``g`` (column ``j``) by ``g
    mod m`` (``j mod m``) rows: every such map is a power of the rotation
    by one row, so that rotation being a bijection certifies them all.
    ``q`` is Eq. 33's static row permutation (a load scattering by ``q``
    gathers by ``q^{-1}``, Eq. 34)."""
    m = dec.m
    i = np.arange(m, dtype=np.int64)
    if row_map == "identity":
        image = i
    elif row_map in ("rotate", "skew"):
        image = (i + 1) % m
    elif row_map == "q":
        image = eq.permute_q_v(dec, i)
    else:
        return Check(f"copy-rows-{row_map}", False, f"unknown row map {row_map!r}")
    ok = bool(np.array_equal(np.sort(image), i))
    return Check(
        f"copy-rows-{row_map}", ok,
        "" if ok else f"the {row_map} row map does not permute [0, {m})",
    )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def verify_shape(m: int, n: int, *, fastdiv: bool = True, plan_objects: bool = True) -> ShapeReport:
    """Run every certificate for one shape.  Pure index arithmetic."""
    dec = Decomposition.of(m, n)
    i = np.arange(m, dtype=np.int64)[:, None]
    j = np.arange(n, dtype=np.int64)[None, :]
    grids = {
        "i": i,
        "j": j,
        "dprime": eq.dprime_v(dec, i, j),
        "dprime_inv": eq.dprime_inverse_v(dec, i, j),
        "sprime": eq.sprime_v(dec, i, j),
    }
    report = ShapeReport(m=m, n=n)
    report.checks += _check_decomposition(dec)
    report.checks += _check_bijectivity(dec, grids)
    report.checks += _check_inversion(dec, grids)
    report.checks += _check_composition(dec)
    if plan_objects:
        report.checks += _check_plan_objects(m, n)
    if fastdiv:
        report.checks += _check_fastdiv(dec)
    return report


def verify_lattice(
    m_max: int,
    n_max: int,
    *,
    fastdiv: bool = True,
    plan_objects: bool = False,
    progress=None,
    max_failures: int = 25,
) -> LatticeReport:
    """Sweep every shape in ``[1, m_max] x [1, n_max]`` through the verifier.

    ``plan_objects`` is off by default for the sweep (it builds four plans
    per shape; the raw-equation composition check proves the same identity).
    ``progress`` is an optional callable taking ``(done, total)``.
    """
    t0 = perf_counter()
    report = LatticeReport(m_max=m_max, n_max=n_max)
    total = m_max * n_max
    for m in range(1, m_max + 1):
        for n in range(1, n_max + 1):
            shape = verify_shape(m, n, fastdiv=fastdiv, plan_objects=plan_objects)
            report.shapes += 1
            report.checks += len(shape.checks)
            if not shape.ok and len(report.failures) < max_failures:
                report.failures.append(shape.as_dict())
        if progress is not None:
            progress(report.shapes, total)
    report.seconds = perf_counter() - t0
    return report
