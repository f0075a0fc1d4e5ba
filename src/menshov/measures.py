"""CDF-backed finite positive Borel measures on a closed interval.

A measure is stored as a continuous CDF part (a vectorized monotone
function vanishing at the left endpoint) plus an explicit finite list of
atoms.  Closed-interval masses are computed as cdf(b) - cdf(a-), so atoms
sitting on interval endpoints are always included.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cache
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, MeasureSpecError

__all__ = [
    "MeasureSpec",
    "Measure",
    "build_measure",
    "normalize",
    "atomic_part",
    "cantor_cdf",
    "load_spec",
]

ATOM_TOL_FACTOR = 1e-9  # default jump-detection tolerance, relative to total mass
_CDF_CHUNK = 1 << 16  # CDF points per chunk; keeps each chunk's temporaries in cache
_WORKER_CHUNKS = 8  # a CDF call gets one worker thread per this many chunks, up to the cores


# ---------------------------------------------------------------------------
# Specs

_KINDS = ("lebesgue", "atomic", "cantor", "cdf_table", "mixture")


@dataclass(frozen=True)
class MeasureSpec:
    """Declarative description of a measure; see `build_measure`."""

    kind: str
    domain: tuple[float, float]
    scale: float = 1.0
    atoms: tuple[tuple[float, float], ...] = ()
    levels: int = 0
    total: float = 1.0
    table: tuple[tuple[float, float], ...] = ()
    components: tuple[tuple[float, "MeasureSpec"], ...] = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise MeasureSpecError(f"unknown measure kind {self.kind!r}")
        u, v = self.domain
        if not (np.isfinite(u) and np.isfinite(v) and u < v):
            raise MeasureSpecError(f"invalid domain [{u}, {v}]")

    # -- constructors -------------------------------------------------

    @staticmethod
    def lebesgue(domain=(0.0, 1.0), scale=1.0) -> "MeasureSpec":
        if scale <= 0:
            raise MeasureSpecError("lebesgue scale must be positive")
        return MeasureSpec("lebesgue", tuple(map(float, domain)), scale=float(scale))

    @staticmethod
    def atomic(atoms: Sequence[tuple[float, float]], domain=(0.0, 1.0)) -> "MeasureSpec":
        atoms = tuple((float(p), float(m)) for p, m in atoms)
        if not atoms:
            raise MeasureSpecError("atomic spec needs at least one atom")
        u, v = domain
        for p, m in atoms:
            if m <= 0:
                raise MeasureSpecError(f"atom mass {m} must be positive")
            if not (u <= p <= v):
                raise MeasureSpecError(f"atom position {p} outside domain [{u}, {v}]")
        return MeasureSpec("atomic", tuple(map(float, domain)), atoms=atoms)

    @staticmethod
    def cantor(levels: int, total=1.0, domain=(0.0, 1.0)) -> "MeasureSpec":
        if levels < 1 or int(levels) != levels:
            raise MeasureSpecError("cantor levels must be a positive integer")
        if total <= 0:
            raise MeasureSpecError("cantor total mass must be positive")
        return MeasureSpec("cantor", tuple(map(float, domain)),
                           levels=int(levels), total=float(total))

    @staticmethod
    def cdf_table(table: Sequence[tuple[float, float]]) -> "MeasureSpec":
        table = tuple((float(x), float(F)) for x, F in table)
        if len(table) < 2:
            raise MeasureSpecError("cdf_table needs at least two rows")
        xs = np.array([x for x, _ in table])
        Fs = np.array([F for _, F in table])
        if np.any(np.diff(xs) < 0):
            raise MeasureSpecError("cdf_table x values must be nondecreasing")
        if np.any(np.diff(Fs) < 0):
            raise MeasureSpecError("cdf_table F values must be nondecreasing")
        dup = np.diff(xs) == 0
        if np.any(dup & (np.diff(Fs) == 0)):
            raise MeasureSpecError("duplicate cdf_table x with equal F")
        # strictly increasing except for explicit jump rows (duplicate x)
        return MeasureSpec("cdf_table", (float(xs[0]), float(xs[-1])), table=table)

    @staticmethod
    def mixture(components: Sequence[tuple[float, "MeasureSpec"]]) -> "MeasureSpec":
        components = tuple((float(w), s) for w, s in components)
        if not components:
            raise MeasureSpecError("mixture needs at least one component")
        doms = {s.domain for _, s in components}
        if len(doms) != 1:
            raise MeasureSpecError("mixture components must share one domain")
        for w, _ in components:
            if w <= 0:
                raise MeasureSpecError("mixture weights must be positive")
        return MeasureSpec("mixture", components[0][1].domain, components=components)

    # -- JSON round trip ----------------------------------------------

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind, "domain": list(self.domain)}
        if self.kind == "lebesgue":
            d["scale"] = self.scale
        elif self.kind == "atomic":
            d["atoms"] = [list(a) for a in self.atoms]
        elif self.kind == "cantor":
            d["levels"] = self.levels
            d["total"] = self.total
        elif self.kind == "cdf_table":
            d["table"] = [list(r) for r in self.table]
        elif self.kind == "mixture":
            d["components"] = [
                {"weight": w, "spec": s.to_dict()} for w, s in self.components
            ]
        return d

    @staticmethod
    def from_dict(d: dict) -> "MeasureSpec":
        kind = d.get("kind")
        dom = tuple(d.get("domain", (0.0, 1.0)))
        if kind == "lebesgue":
            return MeasureSpec.lebesgue(dom, d.get("scale", 1.0))
        if kind == "atomic":
            return MeasureSpec.atomic([tuple(a) for a in d["atoms"]], dom)
        if kind == "cantor":
            return MeasureSpec.cantor(d["levels"], d.get("total", 1.0), dom)
        if kind == "cdf_table":
            return MeasureSpec.cdf_table([tuple(r) for r in d["table"]])
        if kind == "mixture":
            return MeasureSpec.mixture(
                [(c["weight"], MeasureSpec.from_dict(c["spec"]))
                 for c in d["components"]]
            )
        raise MeasureSpecError(f"unknown measure kind {kind!r}")


def load_spec(path) -> MeasureSpec:
    """Read a measure-spec JSON file."""
    with open(path) as fh:
        return MeasureSpec.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Chunked evaluation

def _cores():
    """Number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # Linux: honours the CPU affinity
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@cache
def _pool():
    """One worker per core, made by the first call that fans out."""
    # imported here: concurrent.futures imports logging, which would add
    # to the start-up time and memory of every process importing menshov
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(max_workers=_cores())


def _chunked(fill, x):
    """Evaluate x in _CDF_CHUNK-point pieces; fill(piece, out) writes out.

    For an elementwise fill the result is bitwise that of one pass over
    all of x, while every temporary stays chunk-sized.  A call of n chunks
    runs on min(cores, n // _WORKER_CHUNKS) workers of _pool(), each taking
    every workers-th chunk; numpy releases the GIL in the ufuncs and
    indexing they use.  A running worker holds one chunk's temporaries, so
    those in flight are at most 1/_WORKER_CHUNKS of what one unchunked
    pass would hold, on any number of cores.  Below two workers' worth the call runs inline, and
    so does every nested call inside fill (one chunk): no worker waits on
    the pool.  The shape is kept, and 0-d input gives a numpy scalar.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)

    def run(starts):
        for start in starts:
            stop = start + _CDF_CHUNK
            fill(flat_x[start:stop], flat_out[start:stop])

    starts = range(0, flat_x.size, _CDF_CHUNK)
    workers = min(_cores(), len(starts) // _WORKER_CHUNKS)
    if workers < 2:
        run(starts)
    else:
        shares = [starts[i::workers] for i in range(workers)]
        for _ in _pool().map(run, shares):  # re-raises a worker's exception
            pass
    return out[()]


# ---------------------------------------------------------------------------
# Cantor CDF (devil's staircase), finite-level approximation

def cantor_cdf(x, levels: int):
    """Level-`levels` self-similar approximation of the Cantor CDF on [0,1].

    Exact on the removed (plateau) intervals of every level <= levels;
    linear inside the level-`levels` construction intervals.  Runs over
    chunks (see _chunked); at each level only the points not yet on a
    plateau (a fraction (2/3)^l after level l) are updated, each by the
    same float operations as a full pass over all levels.
    """
    def fill(x, out):
        t = np.clip(x, 0.0, 1.0)
        y = np.zeros_like(t)
        pos = np.arange(t.size, dtype=np.int32)  # index of each point in out
        f = 0.5
        for _ in range(levels):
            t *= 3.0
            d = np.minimum(np.floor(t), 2.0)
            np.add(y, f, out=y, where=d > 0.0)
            t -= d
            hit = d == 1.0  # landed on a plateau: value is final
            del d  # one chunk-sized array fewer while compacting
            out[pos[hit]] = y[hit]
            live = ~hit
            t, y, pos = t[live], y[live], pos[live]
            f *= 0.5
        out[pos] = y + 2.0 * f * t

    return _chunked(fill, x)


# ---------------------------------------------------------------------------
# Measure

class Measure:
    """A finite positive Borel measure on [u, v]: continuous CDF part + atoms.

    Immutable after construction; all operations are pure.
    """

    def __init__(self, domain, cont_cdf: Callable, cont_total: float,
                 atom_positions=(), atom_masses=()):
        u, v = float(domain[0]), float(domain[1])
        pos = np.asarray(atom_positions, dtype=float).reshape(-1)
        mas = np.asarray(atom_masses, dtype=float).reshape(-1)
        order = np.argsort(pos, kind="stable")
        pos, mas = pos[order], mas[order]
        if pos.size and (pos[0] < u or pos[-1] > v):
            raise MeasureSpecError("atom outside measure domain")
        if np.any(mas <= 0):
            raise MeasureSpecError("atom masses must be positive")
        self.domain = (u, v)
        self._cont_cdf = cont_cdf
        self.cont_total = float(cont_total)
        self.atom_positions = pos
        self.atom_masses = mas
        self._atom_cum = np.concatenate([[0.0], np.cumsum(mas)])
        self.total_mass = self.cont_total + float(self._atom_cum[-1])
        if not (self.total_mass > 0):
            raise MeasureSpecError("total mass must be strictly positive")

    # -- CDF evaluation -----------------------------------------------

    def cont(self, x):
        """Continuous CDF part, clamped to the domain.

        Clamp and CDF run chunk by chunk (see _chunked), bitwise equal to
        one pass of _cont_cdf(np.clip(x, u, v)) over all of x.
        """
        u, v = self.domain

        def fill(x, out):
            out[...] = self._cont_cdf(np.clip(x, u, v))

        return _chunked(fill, x)

    def _with_atoms(self, x, side: str):
        c = self.cont(x)
        if self.atom_positions.size == 0:  # no atom term to add
            return c
        return c + self._atom_cum[np.searchsorted(self.atom_positions, x,
                                                  side=side)]

    def cdf(self, x):
        """Right-continuous CDF: mass of [u, x]."""
        return self._with_atoms(x, "right")

    def cdf_left(self, x):
        """Left limit of the CDF at x: mass of [u, x)."""
        return self._with_atoms(x, "left")

    def interval_mass(self, a, b):
        """Mass of the closed interval [a, b], endpoint atoms included."""
        u, v = self.domain
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        # negated comparisons, so non-finite (NaN) endpoints are refused too
        if not (np.all(a >= u - 1e-12) and np.all(b <= v + 1e-12)
                and np.all(a <= b)):
            raise DomainError(f"interval outside domain [{u}, {v}], reversed "
                              "or non-finite endpoints")
        out = self.cdf(b) - self.cdf_left(a)
        return np.maximum(out, 0.0)


def build_measure(spec: MeasureSpec) -> Measure:
    """Realize a MeasureSpec as a Measure."""
    u, v = spec.domain
    if spec.kind == "lebesgue":
        s = spec.scale
        if s <= 0:
            raise MeasureSpecError("lebesgue scale must be positive")
        return Measure(spec.domain, lambda x, u=u, s=s: s * (x - u), s * (v - u))

    if spec.kind == "atomic":
        pos = [p for p, _ in spec.atoms]
        mas = [m for _, m in spec.atoms]
        return Measure(spec.domain, lambda x: np.zeros_like(np.asarray(x, float)),
                       0.0, pos, mas)

    if spec.kind == "cantor":
        L, tot = spec.levels, spec.total
        width = v - u

        def cdf(x, u=u, width=width, L=L, tot=tot):
            return tot * cantor_cdf((np.asarray(x, float) - u) / width, L)

        return Measure(spec.domain, cdf, tot)

    if spec.kind == "cdf_table":
        xs = np.array([x for x, _ in spec.table])
        Fs = np.array([F for _, F in spec.table])
        if Fs[0] != 0.0:
            Fs = Fs - Fs[0]
        # duplicate x rows encode jumps; peel them off into atoms
        jump_at = np.flatnonzero(np.diff(xs) == 0)
        apos = xs[jump_at]
        amas = Fs[jump_at + 1] - Fs[jump_at]
        cont_F = Fs - np.concatenate(
            [[0.0], np.cumsum(np.where(np.diff(xs) == 0, np.diff(Fs), 0.0))])
        keep = np.concatenate([[True], np.diff(xs) > 0])
        cxs, cFs = xs[keep], cont_F[keep]

        def cdf(x, cxs=cxs, cFs=cFs):
            return np.interp(np.asarray(x, float), cxs, cFs)

        return Measure((xs[0], xs[-1]), cdf, float(cFs[-1]), apos, amas)

    if spec.kind == "mixture":
        parts = [(w, build_measure(s)) for w, s in spec.components]
        cont_total = sum(w * m.cont_total for w, m in parts)

        def cdf(x, parts=parts):
            x = np.asarray(x, float)
            acc = np.zeros(np.shape(x))
            for w, m in parts:
                acc = acc + w * m.cont(x)
            return acc

        # merge atoms, adding masses at coinciding positions
        pos_all = np.concatenate(
            [np.empty(0)] + [m.atom_positions for _, m in parts])
        mas_all = np.concatenate(
            [np.empty(0)] + [w * m.atom_masses for w, m in parts])
        upos, inv = np.unique(pos_all, return_inverse=True)
        return Measure(spec.domain, cdf, cont_total, upos,
                       np.bincount(inv, weights=mas_all))

    raise MeasureSpecError(f"unknown measure kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# Module-level operations

def normalize(m: Measure, interval) -> Measure:
    """Probability measure on [0,1]: mass of E is m(affine(E) ∩ I) / m(I)."""
    a, b = float(interval[0]), float(interval[1])
    u, v = m.domain
    if not (u - 1e-12 <= a < b <= v + 1e-12):
        raise DomainError(f"normalization interval [{a}, {b}] not inside [{u}, {v}]")
    M = float(m.interval_mass(a, b))
    if M <= 0:
        raise MeasureSpecError("degenerate normalization: interval has zero mass")
    base = float(m.cont(a))
    ctot = (float(m.cont(b)) - base) / M

    def cdf(t, m=m, a=a, b=b, base=base, M=M):
        return (m.cont(a + np.asarray(t, float) * (b - a)) - base) / M

    inside = (m.atom_positions >= a) & (m.atom_positions <= b)
    apos = (m.atom_positions[inside] - a) / (b - a)
    amas = m.atom_masses[inside] / M
    return Measure((0.0, 1.0), cdf, ctot, apos, amas)


def atomic_part(m: Measure):
    """Atoms of m whose mass exceeds ATOM_TOL_FACTOR * total mass."""
    keep = m.atom_masses > ATOM_TOL_FACTOR * m.total_mass
    return list(zip(m.atom_positions[keep].tolist(),
                    m.atom_masses[keep].tolist()))
