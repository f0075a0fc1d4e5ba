"""CDF-backed finite positive Borel measures on a closed interval.

A measure is stored as a continuous CDF part (a vectorized monotone
function vanishing at the left endpoint) plus an explicit finite list of
atoms.  Closed-interval masses are computed as cdf(b) - cdf(a-), so atoms
sitting on interval endpoints are always included.  Each continuous part
is an elementwise kernel on one chunk (`Measure._kernel`); `_chunked` is
the single chunking point, run once per `Measure.cont` or `cantor_cdf` call.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from functools import cache
from numbers import Real
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
]

ATOM_TOL_FACTOR = 1e-9  # default jump-detection tolerance, relative to total mass
_CDF_CHUNK = 1 << 16  # CDF points per chunk; keeps each chunk's temporaries in cache
_WORKER_CHUNKS = 8  # a CDF call gets one worker thread per this many chunks, up to the cores
# A point off every plateau takes every level; past 53 levels the level
# steps 2^-levels fall below a double's resolution at 1.
MAX_CANTOR_LEVELS = 53


# ---------------------------------------------------------------------------
# Specs

def _real(x) -> bool:
    """A number a double can hold: not a JSON true, nor an int past 1.8e308."""
    return (isinstance(x, Real) and not isinstance(x, bool)
            and not (isinstance(x, int) and abs(x) > sys.float_info.max))


def _positive(x, field: str):
    if not (_real(x) and 0.0 < x < np.inf):  # negated: NaN fails too
        raise MeasureSpecError(f"{field} must be a positive finite number, got {x!r}")


# the field whose value scales each kind's total mass
_MASS_FIELD = {"lebesgue": "lebesgue scale", "atomic": "atom mass",
               "cantor": "cantor total", "cdf_table": "cdf_table F",
               "mixture": "mixture weight"}


def _mass(spec: "MeasureSpec") -> float:
    """Total mass of a valid spec in Python floats, which overflow to inf
    without a warning."""
    u, v = spec.domain
    if spec.kind == "lebesgue":
        return float(spec.scale) * (float(v) - float(u))
    if spec.kind == "atomic":
        return sum(float(m) for _, m in spec.atoms)
    if spec.kind == "cantor":
        return float(spec.total)
    if spec.kind == "cdf_table":
        return float(spec.table[-1][1]) - float(spec.table[0][1])
    return sum(float(w) * _mass(s) for w, s in spec.components)


@dataclass(frozen=True)
class MeasureSpec:
    """Declarative description of a measure (see `build_measure`), valid
    however it is built: __post_init__ checks every invariant."""

    kind: str
    domain: tuple[float, float]
    scale: float = 1.0
    atoms: tuple[tuple[float, float], ...] = ()
    levels: int = 0
    total: float = 1.0
    table: tuple[tuple[float, float], ...] = ()
    components: tuple[tuple[float, "MeasureSpec"], ...] = ()

    def __post_init__(self):
        u, v = self.domain
        if not (_real(u) and _real(v) and -np.inf < u < v < np.inf):
            raise MeasureSpecError(f"invalid {self.kind} domain [{u!r}, {v!r}]")
        if not float(v) - float(u) < np.inf:
            raise MeasureSpecError(f"{self.kind} domain [{u!r}, {v!r}] "
                                   "overflows: its width is inf")
        if self.kind == "lebesgue":
            _positive(self.scale, "lebesgue scale")
        elif self.kind == "atomic":
            if not self.atoms:
                raise MeasureSpecError("atomic spec needs at least one atom")
            for p, m in self.atoms:
                _positive(m, "atom mass")
                if not (_real(p) and u <= p <= v):
                    raise MeasureSpecError(f"atom position {p!r} outside [{u}, {v}]")
        elif self.kind == "cantor":
            if not (_real(self.levels)
                    and 1 <= self.levels <= MAX_CANTOR_LEVELS
                    and float(self.levels).is_integer()):  # JSON may write 40.0
                raise MeasureSpecError(
                    f"cantor levels must be an integer in [1, {MAX_CANTOR_LEVELS}]"
                    f", got {self.levels!r}")
            _positive(self.total, "cantor total")
        elif self.kind == "cdf_table":
            if len(self.table) < 2 or not all(_real(e) and abs(e) < np.inf
                                              for row in self.table for e in row):
                raise MeasureSpecError("cdf_table needs two or more finite rows")
            rows = np.array(self.table, dtype=float)
            with np.errstate(over="ignore"):  # an overflowed difference keeps its sign
                dx, dF = np.diff(rows, axis=0).T
            if np.any(dx < 0) or np.any(dF < 0):
                raise MeasureSpecError("cdf_table x and F must be nondecreasing")
            # strictly increasing except for explicit jump rows (duplicate x)
            if np.any((dx == 0) & (dF == 0)):
                raise MeasureSpecError("duplicate cdf_table x with equal F")
            if not rows[-1, 1] > rows[0, 1]:
                raise MeasureSpecError("cdf_table F must rise")
        elif self.kind == "mixture":
            if not self.components:
                raise MeasureSpecError("mixture needs at least one component")
            for w, s in self.components:
                _positive(w, "mixture weight")
                if not (isinstance(s, MeasureSpec) and s.domain == self.domain):
                    raise MeasureSpecError("mixture components must share one domain")
        else:
            raise MeasureSpecError(f"unknown measure kind {self.kind!r}")
        if not _mass(self) < np.inf:
            raise MeasureSpecError(f"{_MASS_FIELD[self.kind]} overflows: the "
                                   f"{self.kind} mass is inf")

    # -- constructors: type conversion only ---------------------------

    @staticmethod
    def lebesgue(domain=(0.0, 1.0), scale=1.0) -> "MeasureSpec":
        return MeasureSpec("lebesgue", tuple(domain), scale=scale)

    @staticmethod
    def atomic(atoms: Sequence[tuple[float, float]], domain=(0.0, 1.0)) -> "MeasureSpec":
        atoms = tuple((p, m) for p, m in atoms)
        return MeasureSpec("atomic", tuple(domain), atoms=atoms)

    @staticmethod
    def cantor(levels: int, total=1.0, domain=(0.0, 1.0)) -> "MeasureSpec":
        return MeasureSpec("cantor", tuple(domain), levels=levels, total=total)

    @staticmethod
    def cdf_table(table: Sequence[tuple[float, float]]) -> "MeasureSpec":
        table = tuple((x, F) for x, F in table)
        domain = (table[0][0], table[-1][0]) if len(table) > 1 else (0.0, 1.0)
        return MeasureSpec("cdf_table", domain, table=table)

    @staticmethod
    def mixture(components: Sequence[tuple[float, "MeasureSpec"]]) -> "MeasureSpec":
        components = tuple((w, s) for w, s in components)
        domain = components[0][1].domain if components else (0.0, 1.0)
        return MeasureSpec("mixture", domain, components=components)

    @staticmethod
    def from_dict(d: dict) -> "MeasureSpec":
        """Spec from its JSON object; a value of a wrong JSON type is refused."""
        if not isinstance(d, dict):
            raise MeasureSpecError(f"a measure spec must be an object, got {d!r}")
        kind, dom = d.get("kind"), d.get("domain", (0.0, 1.0))
        try:
            if kind == "lebesgue":
                return MeasureSpec.lebesgue(dom, d.get("scale", 1.0))
            if kind == "atomic":
                return MeasureSpec.atomic(d["atoms"], dom)
            if kind == "cantor":
                return MeasureSpec.cantor(d["levels"], d.get("total", 1.0), dom)
            if kind == "cdf_table":
                return MeasureSpec.cdf_table(d["table"])
            if kind == "mixture":
                return MeasureSpec.mixture(
                    [(c["weight"], MeasureSpec.from_dict(c["spec"]))
                     for c in d["components"]])
        except (TypeError, ValueError) as exc:  # e.g. a list where a number belongs
            raise MeasureSpecError(f"{kind} spec: {exc}") from exc
        raise MeasureSpecError(f"unknown measure kind {kind!r}")


# ---------------------------------------------------------------------------
# Chunked CDF evaluation

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


def _chunked(kernel, x):
    """kernel over x in _CDF_CHUNK-point pieces: the single chunking point.

    Only Measure.cont and cantor_cdf call this, and no kernel calls either,
    so chunks never nest.  An elementwise kernel gives bitwise the values of
    one pass over all of x, with chunk-sized temporaries.  A call of n chunks
    runs on min(cores, n // _WORKER_CHUNKS) workers of _pool() (inline below
    two), each taking every workers-th chunk (numpy releases the GIL), so at
    most 1/_WORKER_CHUNKS of one pass's temporaries are in flight on any
    number of cores.  The shape is kept; 0-d input gives a numpy scalar.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)

    def run(starts):
        for start in starts:
            piece = slice(start, start + _CDF_CHUNK)
            flat_out[piece] = kernel(flat_x[piece])

    starts = range(0, flat_x.size, _CDF_CHUNK)
    workers = min(_cores(), len(starts) // _WORKER_CHUNKS)
    if workers < 2:
        run(starts)
    else:
        shares = [starts[i::workers] for i in range(workers)]
        for _ in _pool().map(run, shares):  # re-raises a worker's exception
            pass
    return out[()]


def cantor_cdf(x, levels: int):
    """Level-`levels` self-similar approximation of the Cantor CDF on [0,1].

    Exact on the removed (plateau) intervals of every level <= levels;
    linear inside the level-`levels` construction intervals.  Chunk by
    chunk (see _chunked), only the points not yet on a plateau (a fraction
    (2/3)^l after level l) are updated at each level, each by the same float
    operations as a full pass over all levels.
    """
    return _chunked(lambda piece: _cantor_kernel(piece, levels), x)


def _cantor_kernel(x, levels: int):
    """cantor_cdf on one 1-d chunk: the active-set loop."""
    t = np.clip(x, 0.0, 1.0)
    y = np.zeros_like(t)
    out = np.empty_like(t)
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
    return out


# ---------------------------------------------------------------------------
# Measures

class Measure:
    """A finite positive Borel measure on [u, v]: continuous CDF part + atoms.

    Immutable after construction; all operations are pure.  cont_cdf is
    elementwise on 1-d arrays of points in [u, v].
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

    def _kernel(self, x):
        """Continuous CDF part on one 1-d chunk: clamp, then the CDF."""
        u, v = self.domain
        return self._cont_cdf(np.clip(x, u, v))

    def cont(self, x):
        """Continuous CDF part, clamped to the domain: _kernel over chunks
        (see _chunked), bitwise equal to one pass of _kernel over all of x."""
        return _chunked(self._kernel, x)

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
    """Realize a MeasureSpec (valid by construction) as a Measure."""
    u, v = spec.domain
    if spec.kind == "lebesgue":
        s = spec.scale
        return Measure(spec.domain, lambda x: s * (x - u), s * (v - u))

    if spec.kind == "atomic":
        pos, mas = zip(*spec.atoms)
        return Measure(spec.domain, np.zeros_like, 0.0, pos, mas)

    if spec.kind == "cantor":
        L, tot, width = int(spec.levels), spec.total, v - u
        return Measure(spec.domain,
                       lambda x: tot * _cantor_kernel((x - u) / width, L), tot)

    if spec.kind == "cdf_table":
        xs, Fs = np.array(spec.table, dtype=float).T
        if Fs[0] != 0.0:
            Fs = Fs - Fs[0]
        # duplicate x rows encode jumps; peel them off into atoms
        jump = np.diff(xs) == 0
        dF = np.diff(Fs)
        cont_F = Fs - np.concatenate([[0.0], np.cumsum(np.where(jump, dF, 0.0))])
        keep = np.concatenate([[True], ~jump])
        cxs, cFs = xs[keep], cont_F[keep]
        return Measure((xs[0], xs[-1]), lambda x: np.interp(x, cxs, cFs),
                       float(cFs[-1]), xs[:-1][jump], dF[jump])

    # a mixture: its kernel sums its components' kernels
    parts = [(w, build_measure(s)) for w, s in spec.components]

    def cdf(x):
        acc = np.zeros(np.shape(x))
        for w, m in parts:
            acc = acc + w * m._kernel(x)
        return acc

    # merge atoms, adding masses at coinciding positions
    pos_all = np.concatenate(
        [np.empty(0)] + [m.atom_positions for _, m in parts])
    mas_all = np.concatenate(
        [np.empty(0)] + [w * m.atom_masses for w, m in parts])
    upos, inv = np.unique(pos_all, return_inverse=True)
    return Measure(spec.domain, cdf, sum(w * m.cont_total for w, m in parts),
                   upos, np.bincount(inv, weights=mas_all))


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

    def cdf(t):  # composes m's kernel: no second chunking pass
        return (m._kernel(a + t * (b - a)) - base) / M

    inside = (m.atom_positions >= a) & (m.atom_positions <= b)
    apos = (m.atom_positions[inside] - a) / (b - a)
    amas = m.atom_masses[inside] / M
    return Measure((0.0, 1.0), cdf, ctot, apos, amas)


def atomic_part(m: Measure):
    """Atoms of m whose mass exceeds ATOM_TOL_FACTOR * total mass."""
    keep = m.atom_masses > ATOM_TOL_FACTOR * m.total_mass
    return list(zip(m.atom_positions[keep].tolist(),
                    m.atom_masses[keep].tolist()))
