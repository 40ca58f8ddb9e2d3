"""Closed-form symbolic scaling: derive once, evaluate anywhere.

The contract under test (mod:`repro.static.closedform`): a Derivation
is fitted ONCE per kernel shape from a small lattice of enumerated
static profiles, and then evaluating it at ANY bounds must synthesize a
state byte-identical (``pickle.dumps`` equality — dict order included)
to ``static_profile`` at those bounds.  A derivation is all-or-nothing:
either every cell verified (``closed``) and evaluation substitutes into
the fitted polynomials, or it was refused and evaluation enumerates.
That must hold on both paths — they may differ in cost, never in
bytes.
"""

import pickle
import random
from fractions import Fraction

import pytest

from repro.apps.registry import build_workload
from repro.model import MachineConfig
from repro.obs import metrics as _obs
from repro.static.closedform import (
    ClosedFormUnsupported, Derivation, _eval_poly, _fit_poly, _int_eval,
    _int_poly, clear_memo, default_samples, derivation_key, derive,
    get_derivation,
)
from repro.static.profile import static_profile

CFG = MachineConfig.scaled_itanium2()
GRANS = CFG.granularities()


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


def _reference(workload, **params):
    """Enumerated ground truth: (pickled state, stats)."""
    state, stats = static_profile(build_workload(workload, **params),
                                  GRANS)
    return pickle.dumps(state), stats


class TestPolyCore:
    def test_fit_recovers_exact_polynomial(self):
        rng = random.Random(7)
        for _ in range(20):
            deg = rng.randrange(0, 4)
            coeffs = [Fraction(rng.randrange(-50, 50),
                               rng.choice((1, 2, 4)))
                      for _ in range(deg + 1)]
            xs = sorted(rng.sample(range(1, 200), 6))
            ys = [sum(c * x ** k for k, c in enumerate(coeffs))
                  for x in xs]
            poly = _fit_poly(xs, ys)
            # trailing zeros trimmed: degree never exceeds the truth
            assert len(poly) <= deg + 1
            for x in (0, 1, 17, 1000, 10 ** 7):
                assert _eval_poly(poly, x) == sum(
                    c * x ** k for k, c in enumerate(coeffs))

    def test_int_poly_matches_fraction_eval(self):
        rng = random.Random(11)
        for _ in range(20):
            poly = tuple(Fraction(rng.randrange(-9, 9),
                                  rng.randrange(1, 9))
                         for _ in range(rng.randrange(1, 5)))
            den, coeffs = _int_poly(poly)
            for x in (0, 3, 64, 10 ** 6):
                assert Fraction(_int_eval(coeffs, x), den) \
                    == _eval_poly(poly, x)


class TestDefaultSamples:
    def test_targets_are_lattice_members(self):
        xs = default_samples("triad", "n", [4096])
        assert 4096 in xs and len(xs) >= 7
        assert all(x >= 8 for x in xs)

    def test_single_target_stride_is_power_of_two(self):
        # branch points of the blocks quasi-polynomial follow
        # bound mod cache-block; a power-of-two stride stays on
        # one residue class so the fit never straddles a piece
        xs = default_samples("triad", "n", [2_000_000])
        steps = {b - a for a, b in zip(xs, xs[1:])}
        assert len(steps) == 1
        step = steps.pop()
        assert step & (step - 1) == 0

    def test_multi_target_uses_gcd_stride(self):
        xs = default_samples("sweep3d", "mesh", [4, 8, 12])
        assert {4, 8, 12} <= set(xs)
        assert all((b - a) % 4 == 0 for a, b in zip(xs, xs[1:]))

    def test_empty_targets_rejected(self):
        with pytest.raises(ClosedFormUnsupported):
            default_samples("triad", "n", [])


class TestTriadPureClosedForm:
    """Triad is exactly polynomial in n: no fallback anywhere."""

    def test_derivation_is_total(self):
        d = derive("triad", {"n": 256, "steps": 2})
        assert d.closed
        assert d.atom_tables and d.stats_polys
        assert d.free == "n" and d.fixed["steps"] == 2

    def test_byte_identity_across_lattice(self):
        d = derive("triad", {"n": 512, "steps": 2})
        for n in d.xs:
            ref, ref_stats = _reference("triad", n=n, steps=2)
            state, stats, n_fb = d.evaluate(n)
            assert pickle.dumps(state) == ref
            assert vars(stats) == vars(ref_stats)
            assert n_fb == 0

    def test_byte_identity_at_randomized_bounds(self):
        """Any in-hull bound — on-lattice or off — must match the
        enumerated profile byte-for-byte; off-lattice values may
        enumerate (counted) but never change the answer."""
        d = derive("triad", {"n": 512, "steps": 2})
        rng = random.Random(3)
        lo, hi = d.domain
        for n in sorted(rng.sample(range(lo, hi + 1), 8)):
            ref, ref_stats = _reference("triad", n=n, steps=2)
            state, stats, _n_fb = d.evaluate(n)
            assert pickle.dumps(state) == ref
            assert vars(stats) == vars(ref_stats)

    def test_out_of_hull_requires_extrapolate(self):
        d = derive("triad", {"n": 256, "steps": 2})
        beyond = d.xs[-1] * 2
        ref, _ = _reference("triad", n=beyond, steps=2)
        # without extrapolate: enumerates every reference, still identical
        state, _stats, n_fb = d.evaluate(beyond)
        assert pickle.dumps(state) == ref
        assert n_fb == len(build_workload("triad", n=beyond, steps=2).refs)
        # with extrapolate: triad's polynomials are globally exact
        state, _stats, n_fb = d.evaluate(beyond, extrapolate=True)
        assert pickle.dumps(state) == ref and n_fb == 0


@pytest.mark.parametrize("workload,free,params,samples,values", [
    ("sweep3d", "mesh", {}, range(2, 9), (4, 7)),
    ("cg", "grid", {}, range(4, 18, 2), (8, 14)),
    ("gtc", "micell", {}, range(1, 8), (3, 6)),
], ids=["sweep3d", "cg", "gtc"])
class TestWorkloadEquivalence:
    """Irregular workloads do not close (their atom structure genuinely
    varies with the bound): the derivation is refused, every reference
    of every evaluation is counted as a fallback, and the bytes still
    must not move."""

    def test_byte_identity_with_counted_fallback(self, workload, free,
                                                 params, samples, values,
                                                 obs_on):
        d = derive(workload, dict(params), free=free,
                   samples=list(samples))
        assert not d.closed
        assert not (d.atom_tables or d.cold_tables or d.blocks_polys
                    or d.stats_polys or d.stats_dict_polys)
        for v in values:
            ref, ref_stats = _reference(workload,
                                        **{**params, free: v})
            before = _obs.counter("static.closedform_fallbacks").value
            state, stats, n_fb = d.evaluate(v)
            after = _obs.counter("static.closedform_fallbacks").value
            assert pickle.dumps(state) == ref
            assert vars(stats) == vars(ref_stats)
            program = build_workload(workload, **{**params, free: v})
            assert n_fb == len(program.refs)
            assert after - before == n_fb


class TestDerivationCache:
    def test_key_is_bounds_free(self):
        # two requests differing only in the requested bound share a
        # lattice — and therefore a derivation — when the bound sits
        # on the same default lattice
        k1 = derivation_key("triad", {"n": 512}, None,
                            samples=[64, 128, 192, 256, 320])
        k2 = derivation_key("triad", {"n": 4096}, None,
                            samples=[64, 128, 192, 256, 320])
        assert k1 == k2

    def test_memo_and_disk_roundtrip(self, tmp_path, obs_on):
        from repro.tools.cache import AnalysisCache
        cache = AnalysisCache(str(tmp_path))
        spec = dict(params={"n": 256, "steps": 2})
        d1 = get_derivation("triad", spec["params"], cache=cache)
        derives = _obs.counter("static.closedform_derives").value
        assert derives == 1
        # second lookup: in-process memo
        d2 = get_derivation("triad", spec["params"], cache=cache)
        assert d2 is d1
        assert _obs.counter("static.closedform_cache_hits").value == 1
        # service restart: memo gone, disk cache survives
        clear_memo()
        d3 = get_derivation("triad", spec["params"], cache=cache)
        assert _obs.counter("static.closedform_derives").value == derives
        assert _obs.counter("static.closedform_cache_hits").value == 2
        assert d3.shape_key == d1.shape_key
        # the unpickled derivation still evaluates byte-identically
        n = d3.xs[1]
        ref, _ = _reference("triad", n=n, steps=2)
        state, _stats, n_fb = d3.evaluate(n)
        assert pickle.dumps(state) == ref and n_fb == 0

    def test_refused_derivation_caches_like_any_other(self, tmp_path,
                                                      obs_on):
        from repro.tools.cache import AnalysisCache
        cache = AnalysisCache(str(tmp_path))
        d1 = get_derivation("fig1", {}, cache=cache)
        assert not d1.closed
        clear_memo()
        d2 = get_derivation("fig1", {}, cache=cache)
        assert _obs.counter("static.closedform_derives").value == 1
        assert not d2.closed and d2.shape_key == d1.shape_key
        ref, _ = _reference("fig1", n=d2.xs[1])
        state, _stats, n_fb = d2.evaluate(d2.xs[1])
        assert pickle.dumps(state) == ref and n_fb > 0

    def test_pickle_roundtrip_preserves_evaluation(self):
        d = derive("triad", {"n": 256, "steps": 2})
        d.evaluate(d.xs[0])  # compile the fast tables pre-pickle
        clone = pickle.loads(pickle.dumps(d))
        assert isinstance(clone, Derivation)
        for n in clone.xs:
            ref, _ = _reference("triad", n=n, steps=2)
            state, _stats, _ = clone.evaluate(n)
            assert pickle.dumps(state) == ref


class TestSessionAndSweep:
    @pytest.mark.parametrize("workload,params,closed", [
        ("triad", {"n": 128, "steps": 2}, True),
        ("sweep3d", {"mesh": 4}, False),
    ], ids=["triad", "sweep3d"])
    def test_session_closed_form_state_matches_static(self, workload,
                                                      params, closed):
        """The session records the path that actually ran: the
        closed-form phase only when the closed form served, the static
        estimate (and every reference as a fallback) when the refused
        derivation left it to enumerate."""
        from repro.obs.manifest import RunManifest
        from repro.tools import AnalysisSession
        plain = AnalysisSession(build_workload(workload, **params),
                                config=CFG, engine="static").run()
        program = build_workload(workload, **params)
        cf = AnalysisSession(
            program, config=CFG, engine="static", closed_form=True,
            closed_form_spec={"workload": workload,
                              "params": dict(params)}).run()
        assert pickle.dumps(cf.analyzer.dump_state()) \
            == pickle.dumps(plain.analyzer.dump_state())
        assert cf.totals() == plain.totals()
        assert cf.derivation.closed is closed
        phases = cf.manifest.phases
        if closed:
            assert "closedform_evaluate" in phases
            assert "static_estimate" not in phases
            assert cf.manifest.closedform_fallbacks == 0
            assert "closed form: served" in cf.manifest.render()
        else:
            assert "static_estimate" in phases
            assert "closedform_evaluate" not in phases
            assert cf.manifest.closedform_fallbacks == len(program.refs)
        restored = RunManifest.from_dict(cf.manifest.to_dict())
        assert restored.closedform_fallbacks \
            == cf.manifest.closedform_fallbacks

    def test_session_closed_form_requires_static_engine(self):
        from repro.apps.kernels import stream_triad
        from repro.tools import AnalysisSession
        with pytest.raises(ValueError):
            AnalysisSession(stream_triad(64, 2), config=CFG,
                            closed_form=True,
                            closed_form_spec={"workload": "triad",
                                              "params": {"n": 64}})

    def test_sweep_shares_one_derivation(self, obs_on):
        """run_sweep derives once in the parent and every unit's state
        is byte-identical to its enumerated static counterpart."""
        from repro.apps.kernels import stream_triad
        from repro.tools import SweepTask, run_sweep
        sizes = (64, 128, 192)
        tasks = [SweepTask(key=n, builder=stream_triad, args=(n, 2),
                           engine="static",
                           closed_form={"workload": "triad",
                                        "params": {"n": n, "steps": 2}})
                 for n in sizes]
        outcomes = run_sweep(tasks, jobs=2)
        assert _obs.counter("static.closedform_derives").value == 1
        for out, n in zip(outcomes, sizes):
            assert out.error is None
            ref, _ = _reference("triad", n=n, steps=2)
            assert pickle.dumps(out.state) == ref

        # Sweep3D refuses: the parent still derives once and ships the
        # refused verdict; units enumerate without re-deriving (worker
        # counters merge back, so a unit-side derive would show here)
        meshes = (4, 6)
        tasks = [SweepTask(key=m, builder=build_workload,
                           args=("sweep3d",), kwargs={"mesh": m},
                           engine="static",
                           closed_form={"workload": "sweep3d",
                                        "params": {"mesh": m}})
                 for m in meshes]
        derives = _obs.counter("static.closedform_derives").value
        outcomes = run_sweep(tasks, jobs=2)
        assert _obs.counter("static.closedform_derives").value \
            == derives + 1
        for out, m in zip(outcomes, meshes):
            assert out.error is None
            ref, _ = _reference("sweep3d", mesh=m)
            assert pickle.dumps(out.state) == ref
        # the parent's derivation — the one it shipped — from the memo
        shipped = get_derivation(
            "sweep3d", {"mesh": 6},
            samples=default_samples("sweep3d", "mesh", meshes))
        assert _obs.counter("static.closedform_derives").value \
            == derives + 1
        assert not shipped.closed
        assert not (shipped.atom_tables or shipped.cold_tables
                    or shipped.blocks_polys or shipped.stats_polys
                    or shipped.stats_dict_polys)

    def test_sweep_task_rejects_closed_form_off_static(self):
        from repro.apps.kernels import stream_triad
        from repro.tools import SweepTask
        with pytest.raises(ValueError):
            SweepTask(key=1, builder=stream_triad, args=(64, 2),
                      closed_form={"workload": "triad",
                                   "params": {"n": 64}})


class TestScalingSeed:
    def test_fit_closed_form_matches_enumerated_fit(self):
        from repro.core.analyzer import ReuseAnalyzer
        from repro.model.scaling import ScalingModel
        d = derive("triad", {"n": 512, "steps": 2})
        sizes = list(d.xs[-4:])
        cf_model = ScalingModel.fit_closed_form(d, sizes)
        dbs = []
        for n in sizes:
            state, _stats = static_profile(
                build_workload("triad", n=n, steps=2), GRANS)
            dbs.append(ReuseAnalyzer.from_state(state).db("line"))
        ref_model = ScalingModel.fit([float(s) for s in sizes], dbs)
        level = CFG.level("L2")
        for probe in (300, 700, 1500):
            assert cf_model.predict_misses(probe, level) \
                == pytest.approx(ref_model.predict_misses(probe, level))


@pytest.mark.slow
class TestFullBoundsMatrix:
    """Nightly (--runslow): byte-identity over a randomized bounds
    matrix across all four paper workloads — every in-hull bound, on-
    or off-lattice, closed or refused, must reproduce the enumerated
    static profile byte-for-byte."""

    MATRIX = [
        ("triad", "n", {"steps": 2}, None, 4096, 12),
        ("sweep3d", "mesh", {}, range(2, 11), None, 6),
        ("cg", "grid", {}, range(4, 22, 2), None, 6),
        ("gtc", "micell", {}, range(1, 9), None, 5),
    ]

    @pytest.mark.parametrize("workload,free,params,samples,target,probes",
                             MATRIX, ids=[m[0] for m in MATRIX])
    def test_randomized_bounds(self, workload, free, params, samples,
                               target, probes):
        req = dict(params)
        if target is not None:
            req[free] = target
        d = derive(workload, req, free=free,
                   samples=list(samples) if samples else None)
        lo, hi = d.domain
        rng = random.Random(hash((workload, lo, hi)) & 0xFFFF)
        values = set(d.xs[:2]) | set(d.xs[-2:])
        while len(values) < min(probes + 4, hi - lo + 1):
            values.add(rng.randrange(lo, hi + 1))
        for v in sorted(values):
            ref, ref_stats = _reference(workload, **{**params, free: v})
            state, stats, _n_fb = d.evaluate(v)
            assert pickle.dumps(state) == ref, (workload, v)
            assert vars(stats) == vars(ref_stats), (workload, v)


class TestValidateAndJobs:
    def test_validate_reports_closed_form_identity(self):
        from repro.static.validate import validate_workload
        report = validate_workload("triad", {"n": 96}, closed_form=True)
        assert report.closed_form_identical is True
        assert report.closed_form_fallbacks == 0
        assert report.passed
        assert "closed-form: byte-identical" in report.render()

    def test_jobspec_gates_closed_form_on_static(self):
        from repro.service.jobs import JobSpec, SpecError
        spec = JobSpec.from_dict({"workload": "triad",
                                  "engine": "static",
                                  "closed_form": True})
        assert spec.closed_form
        with pytest.raises(SpecError):
            JobSpec.from_dict({"workload": "triad",
                               "engine": "fenwick",
                               "closed_form": True})
