"""Seeded generation of each workload's operations.

The program only ever sees what these functions generate: ``repro
analyze`` and ``repro sweep`` command lines, and the job specs of the
traced run's service leg.  The same seed always yields the same
operations, and a run's op list never depends on how fast the program
is.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

ENGINES = ("fenwick", "numpy", "static")


@dataclass(frozen=True)
class Spec:
    """One analysis: a registry workload, its sizes and an engine."""

    workload: str
    params: Tuple[Tuple[str, int], ...] = ()
    engine: str = "fenwick"
    closed_form: bool = False

    @property
    def ref_engine(self) -> str:
        """Engine of the oracle: enumerated static for static and
        closed-form runs, the fenwick reference for every other."""
        return "static" if self.engine == "static" else "fenwick"

    @property
    def ref_key(self) -> str:
        sizes = "".join(f"-{k}{v}" for k, v in self.params)
        return f"{self.workload}{sizes}-{self.ref_engine}"

    @property
    def label(self) -> str:
        sizes = "".join(f"-{k}{v}" for k, v in self.params)
        mode = "closedform" if self.closed_form else self.engine
        return f"{self.workload}{sizes}-{mode}"

    def pdict(self) -> Dict[str, int]:
        return dict(self.params)


@dataclass
class Op:
    """One end-to-end operation: a process, or a service job."""

    id: int
    kind: str                      # "analyze" | "sweep" | "job"
    specs: Tuple[Spec, ...]
    #: id of an earlier op with the same specs (a cache hit when the
    #: cache is on), None for a first occurrence
    repeat_of: Optional[int] = None
    #: service jobs: periods after the first submission when it is due
    due: float = 0.0

    def argv(self, outdir: str) -> List[str]:
        spec = self.specs[0]
        if self.kind == "analyze":
            args = ["analyze", spec.workload]
            for name, value in spec.params:
                args += [f"--{name}", str(value)]
            return args + ["--engine", spec.engine,
                           "--xml", f"{outdir}/op{self.id}.xml",
                           "--html", f"{outdir}/op{self.id}.html"]
        if self.kind == "sweep":
            (name, _), = spec.params
            args = ["sweep", spec.workload, f"--{name}",
                    *(str(s.pdict()[name]) for s in self.specs),
                    "--engine", spec.engine]
            if spec.closed_form:
                args.append("--closed-form")
            return args + ["--jobs", "2"]
        raise ValueError(f"op kind {self.kind!r} has no command line")

    def job_body(self) -> Dict:
        spec = self.specs[0]
        return {"workload": spec.workload, "params": spec.pdict(),
                "engine": spec.engine,
                "artifacts": ["patterns", "manifest"]}


# -- cli-interactive ------------------------------------------------------

#: app -> (size flag, sizes); None = the registry default size
CLI_APPS = {
    "fig1": None, "fig2": None, "triad": None, "gather": None, "cg": None,
    "sweep3d": ("mesh", (6, 8, 10)),
    "gtc": ("micell", (2, 3, 4)),
}
TINY_CLI_APPS = {"fig1": None, "triad": None,
                 "sweep3d": ("mesh", (4, 5))}
#: repeats inserted into each block of distinct commands (~a third)
CLI_REPEATS = 3


def cli_ops(seed: int, tiny: bool = False) -> List[Op]:
    """One cycle of ``len(ENGINES)`` blocks: the run's fixed op list.
    A block issues every app once, in seeded order, then
    ``CLI_REPEATS`` repeats of earlier commands of the cycle placed
    after their originals.  Over the cycle each app runs under every
    engine once (a seeded rotation, spread evenly within each block) and
    every size once.  A size goes with its engine (fenwick the smallest,
    static the largest), so the seed sets the order and the repeats but
    barely the cost of the list, and every run issues the GTC command that
    sets the run's peak memory."""
    rng = random.Random(seed)
    apps = TINY_CLI_APPS if tiny else CLI_APPS
    names = sorted(apps)
    offsets = [i % len(ENGINES) for i in range(len(names))]
    rng.shuffle(offsets)
    seen: Dict[Spec, int] = {}
    issued: List[Spec] = []
    for k in range(len(ENGINES)):
        block: List[Spec] = []
        for name, off in zip(names, offsets):
            e = (k + off) % len(ENGINES)
            sizes = apps[name]
            params = ()
            if sizes is not None:
                flag, values = sizes
                value = values[e % len(values)]
                params = ((flag, value),)
            block.append(Spec(name, params, ENGINES[e]))
        rng.shuffle(block)
        for _ in range(1 if tiny else CLI_REPEATS):
            orig = rng.choice(issued + block)
            lo = block.index(orig) + 1 if orig in block else 0
            block.insert(rng.randint(lo, len(block)), orig)
        issued += block
    ops = []
    for spec in issued:
        ops.append(Op(len(ops), "analyze", (spec,),
                      repeat_of=seen.get(spec)))
        seen.setdefault(spec, ops[-1].id)
    return ops


# -- sweep-paper ------------------------------------------------------------

SWEEP_MESHES = (16, 18, 20)
SWEEP_MICELLS = (2, 4, 6)


def sweep_cycle(tiny: bool = False) -> List[Tuple[Spec, ...]]:
    """The fixed sweeps every cycle runs: Sweep3D under numpy, static
    and closed-form on the same meshes, GTC under numpy."""
    meshes = (4, 6) if tiny else SWEEP_MESHES
    micells = (2,) if tiny else SWEEP_MICELLS

    def sweep3d(engine: str, cf: bool = False) -> Tuple[Spec, ...]:
        return tuple(Spec("sweep3d", (("mesh", m),), engine, cf)
                     for m in meshes)

    gtc = tuple(Spec("gtc", (("micell", m),), "numpy") for m in micells)
    return [sweep3d("numpy"), sweep3d("static"),
            sweep3d("static", True), gtc]


def sweep_ops(seed: int, tiny: bool = False) -> List[Op]:
    """The fixed sweeps in seeded order: the run's fixed op list."""
    cycle = sweep_cycle(tiny)
    random.Random(seed).shuffle(cycle)
    return [Op(i, "sweep", specs) for i, specs in enumerate(cycle)]
