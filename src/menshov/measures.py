"""CDF-backed finite positive Borel measures on a closed interval.

A measure is stored as a continuous CDF part (a vectorized monotone
function vanishing at the left endpoint) plus an explicit finite list of
atoms.  It answers two queries: `Measure.cont(x)`, the continuous CDF part,
and `Measure.interval_mass(a, b)`, the mass of the closed interval [a, b]
with atoms on either end included.  Each continuous part is an elementwise
kernel on one chunk (`Measure._kernel`), which `cont` runs chunk by chunk
in the calling thread.  menshov runs no threads: a CDF call gains from
them only at 2^20 points or more, which no benchmark workload makes, and
`msets.mset_masses` runs its groups one after another too.
"""

from __future__ import annotations

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
]

_CDF_CHUNK = 1 << 16  # CDF points per chunk; keeps each chunk's temporaries in cache
MASS_ROUNDING = 1e-12  # a mass down to -this * total mass is rounding and reads 0
# Past 53 levels the level steps 2^-levels fall below a double's resolution
# at 1; a point off every plateau takes one kernel step per _CANTOR_DIGITS
# levels.
MAX_CANTOR_LEVELS = 53
_CANTOR_DIGITS = 8  # ternary digits per step of the Cantor kernel
_ONE_WORD = 2.0**-10  # x * 2^63 is an integer for every double x >= this
_LOW32, _S32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_U = np.finfo(float).eps / 2  # unit roundoff: |fl(x) - x| <= _U |x|


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
# The Cantor kernel

@cache
def _cantor_tables(b: int):
    """(hit, val) over the 3^b blocks D of b ternary digits, most significant
    first: hit[D] if a digit is 1 (a plateau), and val[D] the binary value of
    the digits up to the first 1, a digit 1 or 2 counting as a binary 1.
    Read-only; built by the first Cantor call that takes a block of b digits."""
    D = np.arange(3**b)
    hit = np.zeros(3**b, dtype=bool)
    val = np.zeros(3**b)
    for i in range(b):
        d = D // 3**(b - 1 - i) % 3
        val[~hit & (d > 0)] += 0.5**(i + 1)
        hit |= d == 1
    hit.setflags(write=False)
    val.setflags(write=False)
    return hit, val


def _times(words, p):
    """Multiply in place the fraction held in uint64 words, most significant
    first (word i weighs 2^-64(i+1)), by p < 2^32 and return its integer
    part: floor(w * p / 2^64) from 32-bit halves, w * p by wrapping."""
    carry = None
    for w in reversed(words):
        lo = w & _LOW32
        lo *= p
        if carry is not None:
            lo += carry
        lo >>= _S32
        hi = w >> _S32
        hi *= p
        hi += lo
        hi >>= _S32
        w *= p
        if carry is not None:
            w += carry
        carry = hi
    return carry


def _cantor_digits(words, levels: int):
    """Level-`levels` Cantor CDF of the fractions held in uint64 words (see
    _times), exact up to the rounding of the last step.  Each step takes
    _CANTOR_DIGITS ternary digits and keeps only the points not yet on a
    plateau; the first step runs on all of them."""
    out = pos = y = None
    done = 0
    while done < levels:
        b = min(_CANTOR_DIGITS, levels - done)
        hit_t, val_t = _cantor_tables(b)
        d = _times(words, np.uint64(3**b)).view(np.int64)  # the block, < 3^b
        val, hit = val_t.take(d), hit_t.take(d)
        del d
        if out is None:  # the first step: every point
            out = y = val
        else:
            val *= 0.5**done
            y += val
            out[pos[hit]] = y[hit]
        done += b
        live = np.flatnonzero(~hit)
        pos = live if pos is None else pos[live]
        if not pos.size:  # every point is on a plateau
            return out
        y = y[live]
        words = [w[live] for w in words]
    rest = words[0].astype(float)
    for i, w in enumerate(words[1:], 1):
        rest += 0.5**(64 * i) * w.astype(float)
    out[pos] = y + 0.5**(done + 64) * rest
    return out


def _cantor_outside(t, levels: int):
    """_cantor_kernel at points t in [0, 1] or NaN outside [_ONE_WORD, 1).
    Below 3^-levels the CDF is linear; above it t >= 3^-53 > 2^-139, so
    t * 2^192 is an integer and three words hold t exactly."""
    out = 0.0 + t * 1.5**levels  # 0.0 at +-0.0; NaN stays NaN
    out[t == 1.0] = 1.0
    deep = np.flatnonzero((t >= 3.0**-levels) & (t < 1.0))
    s, words = t[deep], []
    for _ in range(3):
        s *= 2.0**64
        w = np.floor(s)
        s -= w
        words.append(w.astype(np.uint64))
    out[deep] = _cantor_digits(words, levels)
    return out


def _cantor_kernel(x, levels: int):
    """Level-`levels` Cantor CDF on one 1-d chunk of [0, 1]: exact on the
    plateaus of every level <= levels, linear inside the level-`levels`
    intervals.  A point t in [_ONE_WORD, 1) is the exact uint64 fraction
    (t * 2^64) / 2^64, so its ternary digits are exact and its value is within
    one ulp of the level-`levels` CDF at t; _cantor_outside takes the rest."""
    outside = np.flatnonzero(~((x >= _ONE_WORD) & (x < 1.0)))  # NaN too
    t_out = np.clip(x[outside], 0.0, 1.0)
    t = x * 2.0**63  # numpy casts to int64 about 9x faster than to uint64
    t[outside] = 2.0**62  # 1/2, on the level-1 plateau: leaves after one step
    n = t.astype(np.int64).view(np.uint64)
    del t
    n <<= np.uint64(1)
    out = _cantor_digits([n], levels)
    if outside.size:
        out[outside] = _cantor_outside(t_out, levels)
    return out


# ---------------------------------------------------------------------------
# Measures

class Measure:
    """A finite positive Borel measure on [u, v]: continuous CDF part + atoms.

    Immutable after construction; all operations are pure.  cont_cdf is
    elementwise on 1-d arrays of points in [u, v].  `cdf_rounding` is an
    a-priori bound on the rounding of its values: |cont(x) - F(x')| <=
    cdf_rounding, F the exact continuous CDF and x' the double that the
    kernel's affine input maps make of x.  Those maps round nothing on
    [0, 1] and under `normalize` over (0, 1) of such a measure; elsewhere
    their rounding is not counted.  `build_measure` and `normalize` derive
    it per kind; a hand-built measure states its own, finite and >= 0:
    there is no default that would count no rounding.
    """

    def __init__(self, domain, cont_cdf: Callable, cont_total: float,
                 atom_positions=(), atom_masses=(), *, cdf_rounding: float):
        u, v = float(domain[0]), float(domain[1])
        pos = np.asarray(atom_positions, dtype=float).reshape(-1)
        mas = np.asarray(atom_masses, dtype=float).reshape(-1)
        order = np.argsort(pos, kind="stable")
        pos, mas = pos[order], mas[order]
        if pos.size and (pos[0] < u or pos[-1] > v):
            raise MeasureSpecError("atom outside measure domain")
        if np.any(mas <= 0):
            raise MeasureSpecError("atom masses must be positive")
        if not 0 <= cdf_rounding < np.inf:  # refuses NaN too
            raise MeasureSpecError("cdf_rounding must be finite and >= 0, "
                                   f"got {cdf_rounding!r}")
        self.domain = (u, v)
        self._cont_cdf = cont_cdf
        self.cont_total = float(cont_total)
        self.cdf_rounding = float(cdf_rounding)
        self.atom_positions = pos
        self.atom_masses = mas
        self._atom_cum = np.concatenate([[0.0], np.cumsum(mas)])
        for owned in (pos, mas, self._atom_cum):  # this measure's own copies
            owned.setflags(write=False)
        self.total_mass = self.cont_total + float(self._atom_cum[-1])
        if not (self.total_mass > 0):
            raise MeasureSpecError("total mass must be strictly positive")

    # -- CDF evaluation -----------------------------------------------

    def _kernel(self, x):
        """Continuous CDF part on one 1-d chunk: clamp, then the CDF."""
        u, v = self.domain
        return self._cont_cdf(np.clip(x, u, v))

    def cont(self, x):
        """Continuous CDF part, clamped to the domain: _kernel on chunks of
        _CDF_CHUNK points, bitwise one pass over all of x.  Shape kept; 0-d
        input gives a scalar."""
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        flat_x, flat_out = x.reshape(-1), out.reshape(-1)
        for start in range(0, flat_x.size, _CDF_CHUNK):
            piece = slice(start, start + _CDF_CHUNK)
            flat_out[piece] = self._kernel(flat_x[piece])
        return out[()]

    def interval_mass(self, a, b):
        """Mass of the closed interval [a, b]: F(b) - F(a-) of the
        right-continuous CDF F, so atoms on either end are included."""
        u, v = self.domain
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        # negated comparisons, so non-finite (NaN) endpoints are refused too
        if not (np.all(a >= u) and np.all(b <= v) and np.all(a <= b)):
            raise DomainError(f"interval outside domain [{u}, {v}], reversed "
                              "or non-finite endpoints")
        hi, lo = self.cont(b), self.cont(a)
        if self.atom_positions.size:  # atoms in [u, b] and in [u, a)
            pos, cum = self.atom_positions, self._atom_cum
            hi = hi + cum[np.searchsorted(pos, b, side="right")]
            lo = lo + cum[np.searchsorted(pos, a, side="left")]
        out = hi - lo
        if np.any(out < -MASS_ROUNDING * self.total_mass):
            raise DomainError(f"negative mass {np.min(out):.17g}: CDF not monotone")
        return np.maximum(out, 0.0)


def build_measure(spec: MeasureSpec) -> Measure:
    """Realize a MeasureSpec (valid by construction) as a Measure.

    Each kind's `cdf_rounding` (see `Measure`) counts its kernel's
    roundings, each at most _U times a value of at most C, the continuous
    total, rounded up to whole units of _U * C:
    - lebesgue: s * (x - u), two roundings, x - u's included: 3 _U C;
    - cantor: the kernel is within one ulp, at most _U, of the level-L CDF
      at the double it is given, and the product with the total adds one
      more rounding: 3 _U C;
    - cdf_table: F - F[0], the cumulative sum of the n rows' jumps and its
      difference from F round by at most (n + 5) _U T, T the table's rise,
      and np.interp's slope, product and sum by 6 _U T: (n + 12) _U T;
    - mixture: each weight times its part's bound, plus one rounding per
      product and per sum of the parts' values: + (2 parts + 2) _U C.
    """
    u, v = spec.domain
    if spec.kind == "lebesgue":
        s = spec.scale
        total = s * (v - u)
        return Measure(spec.domain, lambda x: s * (x - u), total,
                       cdf_rounding=3 * _U * total)

    if spec.kind == "atomic":
        pos, mas = zip(*spec.atoms)
        # np.zeros_like is exact: the continuous part rounds nothing
        return Measure(spec.domain, np.zeros_like, 0.0, pos, mas,
                       cdf_rounding=0.0)

    if spec.kind == "cantor":
        L, tot, width = int(spec.levels), spec.total, v - u
        return Measure(spec.domain,
                       lambda x: tot * _cantor_kernel((x - u) / width, L), tot,
                       cdf_rounding=3 * _U * tot)

    if spec.kind == "cdf_table":
        xs, Fs = np.array(spec.table, dtype=float).T
        if Fs[0] != 0.0:
            Fs = Fs - Fs[0]
        # duplicate x rows encode jumps; peel them off into atoms
        jump = np.diff(xs) == 0
        dF = np.diff(Fs)
        cont_F = Fs - np.concatenate([[0.0], np.cumsum(np.where(jump, dF, 0.0))])
        cont_F = np.maximum.accumulate(cont_F)  # may dip by rounding after a jump
        keep = np.concatenate([[True], ~jump])
        cxs, cFs = xs[keep], cont_F[keep]
        return Measure((xs[0], xs[-1]), lambda x: np.interp(x, cxs, cFs),
                       float(cFs[-1]), xs[:-1][jump], dF[jump],
                       cdf_rounding=(xs.size + 12) * _U * float(Fs[-1]))

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
    total = sum(w * m.cont_total for w, m in parts)
    rounding = (sum(w * m.cdf_rounding for w, m in parts)
                + (2 * len(parts) + 2) * _U * total)
    return Measure(spec.domain, cdf, total, upos,
                   np.bincount(inv, weights=mas_all), cdf_rounding=rounding)


def normalize(m: Measure, interval) -> Measure:
    """Probability measure on [0,1]: mass of E is m(affine(E) ∩ I) / m(I).

    Its CDF (K(x) - K(a)) / M reads m's kernel K twice, each within
    d = m.cdf_rounding, and M = m(I), whose continuous part c reads K twice
    more and whose k atoms in I are summed with k roundings.  The
    difference and the quotient round once each, and M's own error moves
    every value, at most c / M, by at most (c / M) |M - m(I)| / M.  So the
    bound is (2 d + 2 _U c) / M + (c / M) (2 d + (k + 2) _U M) / M, at most
    5 d / M + (k + 6) _U c / M, the spare d and _U covering the products
    of two roundings.
    """
    a, b = float(interval[0]), float(interval[1])
    u, v = m.domain
    if not (u <= a < b <= v):
        raise DomainError(f"normalization interval [{a}, {b}] not inside [{u}, {v}]")
    base = float(m.cont(a))
    cmass = float(m.cont(b)) - base
    # I's atoms summed on their own, in the order of m's prefix sums: a
    # difference of prefix sums cancels when atoms left of I outweigh I
    inside = (m.atom_positions >= a) & (m.atom_positions <= b)
    M = cmass + float(np.cumsum(np.append(0.0, m.atom_masses[inside]))[-1])
    if M <= 0:
        raise MeasureSpecError("degenerate normalization: interval has zero mass")
    ctot = cmass / M

    def cdf(t):  # composes m's kernel: no second chunking pass
        return (m._kernel(a + t * (b - a)) - base) / M

    apos = (m.atom_positions[inside] - a) / (b - a)
    amas = m.atom_masses[inside] / M
    rounding = 5 * m.cdf_rounding / M + (amas.size + 6) * _U * ctot
    return Measure((0.0, 1.0), cdf, ctot, apos, amas, cdf_rounding=rounding)
