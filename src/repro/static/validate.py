"""Cross-validation harness: static estimation vs dynamic measurement.

The static engine (:mod:`repro.static.profile`) predicts reuse-distance
histograms without executing the program; this module quantifies how
close those predictions come to the ground truth a dynamic engine run
measures, and is what backs the ``repro validate`` CLI command and the
static-vs-dynamic test suite.

Comparison metric
-----------------
Raw per-bin comparison is too strict to be meaningful: a predicted
distance of 63 against a measured 65 is a perfect prediction for every
cache question anyone asks of the histograms, yet lands in a different
log-scale bin.  What the miss models consume is the *mass on each side
of each capacity*, so histograms are aggregated into capacity bands —
distance ranges bounded by the block capacities of the machine levels
(64 and 512 blocks for line-granularity data, 16 for pages, matching
:meth:`MachineConfig.scaled_itanium2` level sizes) plus the cold-miss
band — and each band's relative error is reported.

A validation *passes* when every band holding at least ``min_share``
of the dynamic mass agrees within ``tolerance`` (default 10%).  Bands
below the share floor are reported but not gated: a band with 0.3% of
the mass can show a large relative error while being irrelevant to any
prediction made from the histogram.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.histogram import bin_range
from repro.lang.ast import Program

#: distance-band edges, in blocks, per granularity name.  Bands are
#: ``[0, e0) [e0, e1) ... [e_last, inf)`` plus a trailing cold band.
BAND_EDGES: Dict[str, Sequence[int]] = {"line": (64, 512), "page": (16,)}
#: edges for granularities without an entry in :data:`BAND_EDGES`
DEFAULT_EDGES: Sequence[int] = (16,)
#: bands carrying less dynamic mass than this are reported, not gated
MIN_SHARE = 0.02
#: largest gated per-band relative error that still passes
TOLERANCE = 0.10

#: the workload/size grid ``repro validate`` and CI exercise: two
#: small-to-medium sizes per paper application, chosen so the dynamic
#: reference finishes in seconds
VALIDATION_MATRIX: Tuple[Tuple[str, Dict[str, int]], ...] = (
    ("triad", {"n": 64, "steps": 2}),
    ("sweep3d", {"mesh": 6}),
    ("sweep3d", {"mesh": 8}),
    ("cg", {"grid": 12}),
    ("cg", {"grid": 18}),
    ("gtc", {"micell": 2, "mpsi": 8, "mtheta": 12, "mzeta": 4}),
    # the mid-size band excluded before PR 9: passes once the profiler
    # models cross-reference freshness and co-traversal alignment
    ("gtc", {"micell": 3, "mpsi": 8, "mtheta": 12, "mzeta": 4}),
    ("gtc", {"micell": 3, "mpsi": 10, "mtheta": 14, "mzeta": 5}),
)


@dataclass
class BandReport:
    """One capacity band of one granularity, both engines side by side."""

    granularity: str
    #: human-readable distance range, e.g. ``"64-511"`` or ``"cold"``
    band: str
    dynamic: float
    static: float
    #: fraction of this granularity's dynamic mass in the band
    share: float
    rel_err: float
    #: counted toward pass/fail (share >= the gating floor)
    gated: bool


@dataclass
class ValidationReport:
    """Static-vs-dynamic comparison for one workload at one size."""

    workload: str
    params: Dict[str, int]
    accesses: int
    dynamic_s: float
    static_s: float
    tolerance: float
    bands: List[BandReport] = field(default_factory=list)
    #: closed-form state byte-identical to the enumerated static state;
    #: None when the closed-form path was not exercised
    closed_form_identical: Optional[bool] = None
    #: references the closed-form evaluation served by enumeration (all
    #: of them when the derivation was refused; 0 when it closed)
    closed_form_fallbacks: int = 0
    #: wall seconds of the closed-form evaluation (0 when not exercised)
    closedform_s: float = 0.0

    @property
    def max_gated_err(self) -> float:
        return max((b.rel_err for b in self.bands if b.gated), default=0.0)

    @property
    def passed(self) -> bool:
        return (all(b.rel_err <= self.tolerance
                    for b in self.bands if b.gated)
                and self.closed_form_identical is not False)

    @property
    def speedup(self) -> float:
        return self.dynamic_s / self.static_s if self.static_s > 0 else 0.0

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        args = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        lines = [f"{self.workload}({args}): {status}  "
                 f"worst gated error {self.max_gated_err:.3f}  "
                 f"[{self.accesses} accesses; dynamic {self.dynamic_s:.2f}s,"
                 f" static {self.static_s * 1e3:.1f}ms,"
                 f" {self.speedup:.0f}x]"]
        if self.closed_form_identical is not None:
            verdict = ("byte-identical" if self.closed_form_identical
                       else "STATE MISMATCH")
            lines.append(
                f"  closed-form: {verdict}, "
                f"{self.closed_form_fallbacks} fallback ref(s), "
                f"eval {self.closedform_s * 1e3:.2f}ms")
        for b in self.bands:
            flag = " " if b.rel_err <= self.tolerance or not b.gated else "*"
            gate = "gated" if b.gated else "     "
            lines.append(
                f"  {flag}[{b.granularity:>4}] {b.band:>8}  "
                f"dyn {b.dynamic:12.0f}  static {b.static:12.0f}  "
                f"share {b.share:6.3f}  rel {b.rel_err:6.3f}  {gate}")
        return "\n".join(lines)


def _band_labels(edges: Sequence[int]) -> List[str]:
    labels = [f"<{edges[0]}"]
    for lo, hi in zip(edges, edges[1:]):
        labels.append(f"{lo}-{hi - 1}")
    labels.append(f">={edges[-1]}")
    labels.append("cold")
    return labels


def _band_masses(gran_state: Dict, edges: Sequence[int]) -> List[float]:
    """Histogram mass per capacity band (+ cold) for one granularity.

    Bins are assigned to bands by their midpoint distance, so a bin
    straddling an edge lands on the side holding most of its range —
    the same resolution limit both engines share.
    """
    masses = [0.0] * (len(edges) + 2)
    for bins in gran_state["raw"].values():
        for b, count in bins.items():
            lo, hi = bin_range(b)
            mid = (lo + hi) / 2.0
            band = sum(mid >= e for e in edges)
            masses[band] += count
    masses[-1] = float(sum(gran_state["cold"].values()))
    return masses


def compare_states(dynamic_state: Dict, static_state: Dict,
                   tolerance: float = TOLERANCE,
                   min_share: float = MIN_SHARE) -> List[BandReport]:
    """Band-by-band comparison of two analyzer state dicts."""
    reports: List[BandReport] = []
    static_grans = {g["name"]: g for g in static_state["grans"]}
    for gd in dynamic_state["grans"]:
        gs = static_grans[gd["name"]]
        edges = BAND_EDGES.get(gd["name"], DEFAULT_EDGES)
        dyn = _band_masses(gd, edges)
        sta = _band_masses(gs, edges)
        total = sum(dyn) or 1.0
        for label, d, s in zip(_band_labels(edges), dyn, sta):
            share = d / total
            rel = abs(s - d) / max(d, 1.0)
            reports.append(BandReport(
                granularity=gd["name"], band=label, dynamic=d, static=s,
                share=share, rel_err=rel, gated=share >= min_share))
    return reports


def validate_program(program: Program,
                     granularities: Optional[Dict[str, int]] = None,
                     params: Optional[Dict[str, int]] = None,
                     engine: str = "numpy",
                     tolerance: float = TOLERANCE,
                     min_share: float = MIN_SHARE,
                     closed_form_spec: Optional[Dict] = None
                     ) -> ValidationReport:
    """Run both engines on ``program`` and compare their histograms.

    The dynamic side executes the program under a reference engine
    (``numpy`` by default — byte-identical to fenwick and much faster);
    the static side predicts without executing.  Timings for both land
    in the report, so it doubles as the speedup measurement.

    ``closed_form_spec`` (``{"workload": name, "params": {...}}``)
    additionally evaluates the closed-form derivation at these bounds
    and records whether its state is byte-identical to the enumerated
    one — a mismatch fails the report regardless of band errors.
    """
    from repro.core.analyzer import ReuseAnalyzer
    from repro.lang.batch import BatchExecutor
    from repro.model.config import MachineConfig
    from repro.static.profile import static_profile

    if granularities is None:
        granularities = MachineConfig.scaled_itanium2().granularities()
    params = dict(params or {})

    analyzer = ReuseAnalyzer(granularities, engine=engine)
    t0 = time.perf_counter()
    BatchExecutor(program, analyzer).run(**params)
    dynamic_s = time.perf_counter() - t0
    dynamic_state = analyzer.dump_state()

    t0 = time.perf_counter()
    static_state, stats = static_profile(program, granularities,
                                         params=params or None)
    static_s = time.perf_counter() - t0

    report = ValidationReport(
        workload=program.name, params=params,
        accesses=stats.accesses, dynamic_s=dynamic_s, static_s=static_s,
        tolerance=tolerance,
        bands=compare_states(dynamic_state, static_state,
                             tolerance=tolerance, min_share=min_share))
    if closed_form_spec:
        from repro.apps.registry import workload_params
        from repro.static.closedform import get_derivation
        deriv = get_derivation(closed_form_spec["workload"],
                               dict(closed_form_spec.get("params") or {}),
                               granularities=granularities)
        wl_params = dict(closed_form_spec.get("params") or {})
        value = int(wl_params.get(
            deriv.free,
            workload_params(closed_form_spec["workload"])[deriv.free]))
        t0 = time.perf_counter()
        cf_state, _cf_stats, fallbacks = deriv.evaluate(value)
        report.closedform_s = time.perf_counter() - t0
        report.closed_form_identical = cf_state == static_state
        report.closed_form_fallbacks = fallbacks
    return report


def validate_workload(name: str, params: Optional[Dict[str, int]] = None,
                      engine: str = "numpy",
                      tolerance: float = TOLERANCE,
                      min_share: float = MIN_SHARE,
                      closed_form: bool = False) -> ValidationReport:
    """Build a registry workload and cross-validate it."""
    from repro.apps.registry import build_workload
    program = build_workload(name, **(params or {}))
    report = validate_program(
        program, engine=engine, tolerance=tolerance, min_share=min_share,
        closed_form_spec=({"workload": name, "params": dict(params or {})}
                          if closed_form else None))
    report.workload = name
    report.params = dict(params or {})
    return report


def run_matrix(matrix: Optional[Sequence[Tuple[str, Dict[str, int]]]] = None,
               engine: str = "numpy",
               tolerance: float = TOLERANCE,
               min_share: float = MIN_SHARE,
               closed_form: bool = False) -> List[ValidationReport]:
    """Validate every (workload, params) pair; defaults to the CI grid."""
    reports = []
    for name, params in (matrix if matrix is not None
                         else VALIDATION_MATRIX):
        reports.append(validate_workload(
            name, params, engine=engine, tolerance=tolerance,
            min_share=min_share, closed_form=closed_form))
    return reports


def render(reports: Sequence[ValidationReport]) -> str:
    lines = [r.render() for r in reports]
    failed = sum(1 for r in reports if not r.passed)
    lines.append(f"\n{len(reports) - failed}/{len(reports)} validation "
                 f"size(s) within tolerance"
                 + (f"; {failed} FAILED" if failed else ""))
    return "\n".join(lines)
