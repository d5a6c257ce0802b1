"""The ``repro analyze`` driver: shape-lattice verification + lint, as JSON.

Assembles the analysis layers into one machine-readable report:

* :mod:`repro.analysis.algebra` over every shape in the lattice
  (bijectivity, inversion, composition, fastdiv agreement),
* :mod:`repro.analysis.racecheck` static schedules for each shape at a
  sweep of thread and band counts (partition tiling, write disjointness,
  coverage) — one banded proof, whose one-band case is the in-RAM
  schedule,
* :mod:`repro.analysis.lint` over the package source,
* optionally :mod:`repro.analysis.kernelcheck` — abstract interpretation of
  the generated native kernels (``native=True``) — and the codegen
  mutation-testing harness (``mutation=True``).

The report's top-level ``ok`` is the CI gate: any verifier failure or lint
violation flips it to ``false``.
"""

from __future__ import annotations

from time import perf_counter

from . import algebra, lint, racecheck

__all__ = ["DEFAULT_THREAD_COUNTS", "DEFAULT_BAND_COUNTS", "analyze"]

DEFAULT_THREAD_COUNTS = (1, 2, 4, 8)

#: band counts of the race sweep: 1 is the in-RAM schedule, 2 and 3 the
#: out-of-core resident-window shapes worth proving per shape
DEFAULT_BAND_COUNTS = (1, 2, 3)


def _racecheck_sweep(
    m_max: int,
    n_max: int,
    thread_counts,
    band_counts=DEFAULT_BAND_COUNTS,
    max_failures: int = 25,
) -> dict:
    t0 = perf_counter()
    schedules = 0
    failures: list[dict] = []

    def _tally(report) -> None:
        nonlocal schedules
        schedules += 1
        if not report.ok and len(failures) < max_failures:
            failures.append(report.as_dict())

    for m in range(1, m_max + 1):
        for n in range(1, n_max + 1):
            for threads in thread_counts:
                # "auto" runs C2R, but an explicit r2c request runs the other
                # pass structure on any shape, so both must be race-free.
                for algorithm in ("c2r", "r2c"):
                    for bands in band_counts:
                        _tally(
                            racecheck.check_banded_schedule(
                                m, n, bands, threads, algorithm
                            )
                        )
    return {
        "m_max": m_max,
        "n_max": n_max,
        "thread_counts": list(thread_counts),
        "band_counts": list(band_counts),
        "schedules": schedules,
        "seconds": perf_counter() - t0,
        "ok": not failures,
        "failures": failures,
    }


def analyze(
    m_max: int = 64,
    n_max: int = 64,
    *,
    thread_counts=DEFAULT_THREAD_COUNTS,
    band_counts=DEFAULT_BAND_COUNTS,
    run_lint: bool = True,
    lint_root=None,
    fastdiv: bool = True,
    plan_objects: bool = False,
    native: bool = False,
    native_configs=None,
    mutation: bool = False,
    progress=None,
    message=None,
) -> dict:
    """Run the full static-analysis suite; returns a JSON-able report.

    ``m_max=0`` (with ``n_max=0``) skips the lattice and race sweep
    entirely — the kernelcheck-only invocation the native CI legs use.
    ``native=True`` abstractly interprets the generated C kernels for the
    CI config sweep (source-level: no compiler needed); ``mutation=True``
    additionally runs the codegen mutation-testing harness.  ``message``
    is an optional ``str -> None`` progress sink for the native sections.
    """
    t0 = perf_counter()
    lattice = algebra.verify_lattice(
        m_max, n_max, fastdiv=fastdiv, plan_objects=plan_objects, progress=progress
    )
    races = _racecheck_sweep(m_max, n_max, thread_counts, band_counts)
    report = {
        "lattice": lattice.as_dict(),
        "racecheck": races,
    }
    if run_lint:
        violations = lint.run_lint(lint_root)
        report["lint"] = {
            "violations": [v.as_dict() for v in violations],
            "ok": not violations,
        }
    if native:
        from . import kernelcheck

        report["kernelcheck"] = kernelcheck.verify_native(
            native_configs, progress=message
        ).as_dict()
    if mutation:
        from . import mutate

        report["mutation"] = mutate.run_mutation_harness(
            progress=message
        ).as_dict()
    report["sanitizer"] = racecheck.sanitizer.stats()
    report["seconds"] = perf_counter() - t0
    report["ok"] = all(
        section.get("ok", True)
        for section in (
            report["lattice"],
            report["racecheck"],
            report.get("lint", {}),
            report.get("kernelcheck", {}),
            report.get("mutation", {}),
        )
    )
    return report
