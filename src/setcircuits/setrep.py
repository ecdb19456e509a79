"""Set representations and the operations on them.

Three layers:

* exact finite sets (plain frozensets of naturals, or of vectors/INF for the
  vector domain) with exact_apply;
* NatSetRep, a clamped bitmap over [0, n]: bit z for z < n is literal
  membership, bit n stands for every z >= n. Valid whenever membership is
  constant from n on (a cutoff for the set);
* VecSetRep, the per-coordinate generalization: a table over the closed grid
  [0, n]^m where index n in a coordinate means "that coordinate >= n", plus a
  separate flag for the adjoined point inf. Membership of x reads the cell at
  componentwise min(x, n).

NatSetRep and VecSetRep are tuples. Their constructors check the fields
(cutoff >= 1, no mask bit past the cutoff; dim >= 1, every cell inside the
grid), as the guard for reps built by a caller. The kernels below build their
results through _new, the bare tuple constructor, without those checks: a
kernel result is in range by construction (its mask is cut at the result
cutoff, its cells are drawn from the result grid), and a check per gate would
cost more than most of the operations it guards. A kernel's result depends
only on its arguments, and reps are hashable, so the clamped evaluators
(eval_clamped_scalar, eval_clamped_vector) run each distinct natrep_apply or
vecrep_apply (kind, operand reps, cutoff) once per evaluation and the gates
that repeat it share its result; they check every gate's vecrep_work first.

The clamped operations are exact under the clamped reading provided the
caller certifies the result cutoff (see the bounds module). Division and
subtraction need finite witness searches; the enumeration bounds below are
exact by a clamping argument: any witness outside the searched box can be
clamped into it without changing either membership test.

A one-axis VecSetRep stores its table as the NatSetRep mask (cell (x,) is bit
x), so natrep_apply and a one-axis vecrep_apply run the same bitmap kernels
(_mask_apply) on (cutoff, mask) pairs: union, inter and comp are |, & and ^
against the box mask, and add is the shift-OR _add_bits; each keeps its own
budget check. Dims >= 2 keep a frozenset of cells; union, inter, comp and add
visit every grid point. At every dim the inf flag of a result is set by one
rule (_inf).

sub is one shift kernel at every dim: p is in A - B iff p + y is in A for
some y in B. A is constant past its cutoff k along each axis, so B's
witnesses are folded at k (coordinate k stands for every y_i >= k), A is
unfolded to [0, n + k]^dim, and both are packed row-major at stride n + k + 1
(at dim 1 that is the mask itself). With no more witnesses than points of the
box [0, n]^dim, A is shifted right by each witness and cut to the box;
otherwise A is shifted right by each point p of the box, and p is kept when
that meets B. A coordinate that goes below 0 borrows from the next axis and
lands past n (past k), where the box (B) has no bit. Dims >= 2 unpack the
result to cells.
"""
from __future__ import annotations

import itertools
from collections import namedtuple
from itertools import compress, filterfalse
from operator import mul

from .circuit import INF, GateKind, _is_nat
from .errors import BudgetExceeded

# the *_apply functions run once per gate, and Enum attribute reads are slow
_UNION, _INTER, _COMP, _ADD, _MUL, _DIV, _SUB = (
    GateKind.UNION, GateKind.INTER, GateKind.COMP, GateKind.ADD, GateKind.MUL, GateKind.DIV,
    GateKind.SUB,
)
_new = tuple.__new__  # the unchecked constructor of kernel results


# ---------------------------------------------------------------------------
# exact finite sets

def exact_apply(kind: GateKind, a: frozenset, b: frozenset | None = None) -> frozenset:
    """Apply one set operation to exact finite operands.

    Scalar elements are naturals; vector elements are tuples (plus INF).
    comp is refused: complements of finite sets are not finite.
    """
    if kind is _UNION:
        return a | b
    if kind is _INTER:
        return a & b
    if kind is _ADD:
        return _exact_add(a, b)
    if kind is _MUL:
        if len(b) == 1:  # one factor: the loop over a runs in C
            (y,) = b
            return frozenset(map(y.__mul__, a))
        return frozenset(x * y for x in a for y in b)
    if kind is _DIV:
        if len(b) == 1:
            (y,) = b
            return frozenset(map(y.__rfloordiv__, filterfalse(y.__rmod__, a)) if y else ())
        return frozenset(x // y for x in a for y in b if y != 0 and x % y == 0)
    if kind is _SUB:
        return _exact_sub(a, b)
    raise ValueError(f"exact_apply cannot apply {kind}")


def _exact_add(a, b):
    out = set()
    for x in a:
        for y in b:
            if x is INF or y is INF:
                out.add(INF)
            elif isinstance(x, tuple):
                out.add(tuple(p + q for p, q in zip(x, y)))
            else:
                out.add(x + y)
    return frozenset(out)


def _exact_sub(a, b):
    # x - y over N^m extended by inf: inf - v = inf for finite v;
    # v - inf and inf - inf are undefined and contribute nothing.
    out = set()
    for x in a:
        for y in b:
            if y is INF:
                continue
            if x is INF:
                out.add(INF)
                continue
            d = tuple(p - q for p, q in zip(x, y))
            if all(v >= 0 for v in d):
                out.add(d)
    return frozenset(out)


# ---------------------------------------------------------------------------
# scalar clamped bitmaps

class NatSetRep(namedtuple("NatSetRep", "cutoff mask")):
    """Bitmap over [0, cutoff]; bit cutoff folds the constant tail.

    The tuple (cutoff, mask), bit z of mask set <=> min(z, cutoff) in the set.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, cutoff: int, mask: int):
        if not _is_nat(cutoff) or cutoff < 1:
            raise ValueError(f"cutoff must be an int >= 1, got {cutoff!r}")
        if not _is_nat(mask) or mask >> (cutoff + 1):
            raise ValueError(f"mask must be an int with no bit past the cutoff, got {mask!r}")
        return _new(cls, (cutoff, mask))

    @property
    def tail(self) -> bool:
        """Whether every z >= cutoff is in the set."""
        return bool(self.mask >> self.cutoff & 1)

    def member(self, z: int) -> bool:
        return bool(self.mask >> min(z, self.cutoff) & 1)

    def elements_upto(self, n: int) -> list[int]:
        return [z for z in range(n + 1) if self.member(z)]

    @classmethod
    def from_elements(cls, elems, cutoff: int, tail: bool = False):
        if cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {cutoff}")
        mask = (1 << cutoff) if tail else 0
        for z in elems:
            if z >= cutoff:
                raise ValueError(f"element {z} not below cutoff {cutoff}")
            mask |= 1 << z
        return _new(cls, (cutoff, mask))


def natrep_apply(
    kind: GateKind,
    a: NatSetRep,
    b: NatSetRep | None,
    result_cutoff: int,
    max_grid_cells: int = 10**7,
) -> NatSetRep:
    """Apply one scalar operation, producing a rep at result_cutoff.

    The caller certifies that result_cutoff is a valid cutoff for the result
    set; every cell is then computed exactly from clamped operand lookups.
    mul is never applied to clamped scalar reps (value growth defeats any
    cutoff argument); use the vector transforms for fragments with mul.
    """
    n = result_cutoff
    if n < 1:
        raise ValueError(f"result_cutoff must be >= 1, got {n}")
    if n + 1 > max_grid_cells:
        raise BudgetExceeded("grid", f"scalar bitmap of {n + 1} cells")
    if kind is _DIV:
        return _natrep_div(a, b, n)
    ka, ma = a
    kb, mb = a if b is None else b  # comp reads no second operand
    # each shift of an add counts n + 1 bits against the grid budget
    return _new(NatSetRep, (n, _mask_apply(kind, ka, ma, kb, mb, n, max_grid_cells // (n + 1))))


def _mask_apply(kind, ka: int, ma: int, kb: int, mb: int, n: int, max_shifts: int) -> int:
    """comp, union, inter or add on the bitmaps ma at cutoff ka and mb at kb
    (unread by comp), as a mask at cutoff n; add shifts at most max_shifts times."""
    x = _extend(ka, ma, n)
    if kind is _COMP:
        return ((1 << (n + 1)) - 1) ^ x
    y = _extend(kb, mb, n)
    if kind is _UNION:
        return x | y
    if kind is _INTER:
        return x & y
    if kind is _ADD:
        return _add_bits(x, y, n, max_shifts)
    raise ValueError(f"natrep_apply cannot apply {kind}")


def _add_bits(x: int, y: int, n: int, max_shifts: int) -> int:
    """Bits over [0, n] of {u + v : bit u of x, bit v of y}, by shift-OR.

    Shifts the denser operand by each set bit of the sparser one, lowest
    first, and stops once every bit of [0, n] is set. An add that needs more
    than max_shifts shifts is refused, so an add at a huge cutoff cannot run
    one shift per set bit of a dense operand.
    """
    if x.bit_count() > y.bit_count():
        x, y = y, x
    full = (1 << (n + 1)) - 1
    acc = shifts = 0
    while x:
        if shifts == max_shifts:
            raise BudgetExceeded("grid", f"add of {n + 1}-bit operands needs over {max_shifts} shifts")
        shifts += 1
        low = x & -x
        acc |= y << (low.bit_length() - 1)
        if acc & full == full:
            break
        x ^= low
    return acc & full


def _sub_bits(x: int, y: int, box: int) -> int:
    """Bits in box of {u - v >= 0 : bit u of x, bit v of y}, by shift-OR.

    Shifts x right by each set bit of y. A difference below 0 drops out at
    dim 1; on a packed grid it lands outside the box, which cuts it.
    """
    acc = 0
    while y:
        low = y & -y
        acc |= x >> (low.bit_length() - 1)
        y ^= low
    return acc & box


def _extend(k: int, mask: int, n: int) -> int:
    """Literal membership bits over [0, n] of the bitmap mask at cutoff k
    (unfolding the tail)."""
    if n == k:
        return mask
    if n < k:
        return mask & ((1 << (n + 1)) - 1)  # bits 0..n are all literal
    if mask >> k:  # the tail: every z in (k, n] is in the set
        mask |= ((1 << (n - k)) - 1) << (k + 1)
    return mask


def _natrep_div(a: NatSetRep, b: NatSetRep, n: int) -> NatSetRep:
    # c in A div B  <=>  exists w >= 1: w in B and c*w in A.
    # A witness w > n_A sees c*w >= w > n_A for every c >= 1, so it gives
    # 0 when 0 is in A and every c >= 1 when A has the tail: all such w act
    # as n_A + 1, so only the witnesses in B up to n_A are visited one by one.
    na, amask = a
    nb, bmask = b
    full = (1 << (n + 1)) - 1
    mask = 0
    if (bmask >> (na + 1)) if nb > na else (bmask >> nb):  # B holds some w > n_A
        mask = (amask & 1) | (full ^ 1 if amask >> na else 0)
    ws = _extend(nb, bmask, na) >> 1  # bit w - 1 set <=> w in B, for 1 <= w <= n_A
    w = 0
    while ws and mask != full:
        skip = (ws & -ws).bit_length()
        ws >>= skip
        w += skip
        lit = na // w  # beyond this, c*w clamps to a's tail
        for c in range(min(n, lit) + 1):
            if amask >> (c * w) & 1:
                mask |= 1 << c
        if lit < n and amask >> na:
            mask |= full ^ ((1 << (lit + 1)) - 1)
    return _new(NatSetRep, (n, mask))


# ---------------------------------------------------------------------------
# vector clamped grids

class VecSetRep(namedtuple("VecSetRep", "dim cutoff cells inf")):
    """Clamped table over the closed grid [0, cutoff]^dim plus an inf flag.

    The tuple (dim, cutoff, cells, inf). A cell with some coordinates equal to
    cutoff stands for the whole class of vectors with those coordinates >=
    cutoff (and the others as given); the representation is valid when true
    membership is constant on each such class. The constructor takes cells as
    a frozenset of dim-tuples in [0, cutoff]^dim and keeps it at dim >= 2; at
    dim 1 it stores the NatSetRep mask (bit x is cell (x,)) in an _AxisRep.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, dim: int, cutoff: int, cells: frozenset, inf: bool = False):
        if not _is_nat(dim) or dim < 1:
            raise ValueError(f"dim must be an int >= 1, got {dim!r}")
        if not _is_nat(cutoff) or cutoff < 1:
            raise ValueError(f"cutoff must be an int >= 1, got {cutoff!r}")
        _check_inf(inf)
        for p in cells:
            nat = isinstance(p, tuple) and len(p) == dim and all(map(_is_nat, p))
            if not nat or max(p) > cutoff:
                raise ValueError(f"cell {p!r} is not a point of the grid [0,{cutoff}]^{dim}")
        if dim == 1:
            return _new(_AxisRep, (1, cutoff, sum({1 << x for (x,) in cells}), inf))
        return _new(cls, (dim, cutoff, cells, inf))

    def member(self, x) -> bool:
        if x is INF:
            return self.inf
        return tuple(min(v, self.cutoff) for v in x) in self.cells

    @property
    def sat(self) -> bool:
        """Membership of the all-coordinates-large class."""
        return self.member((self.cutoff,) * self.dim)

    @property
    def below(self) -> frozenset:
        """Cells strictly below the cutoff in every coordinate (literal points)."""
        return frozenset(p for p in _grid(self.cutoff - 1, self.dim) if self.member(p))

    def finite_nonempty(self) -> bool:
        return bool(self.cells)


class _AxisRep(VecSetRep):
    """A one-axis VecSetRep, its cells the NatSetRep mask at its cutoff."""

    __slots__ = ()

    def __new__(cls, dim: int, cutoff: int, cells: int, inf: bool = False):  # for _replace
        if dim != 1:
            raise ValueError(f"a one-axis rep has dim 1, got {dim!r}")
        _check_inf(inf)
        return _new(cls, (1, *NatSetRep(cutoff, cells), inf))  # NatSetRep checks cutoff and mask

    def member(self, x) -> bool:
        return self.inf if x is INF else self.cells >> min(x[0], self.cutoff) & 1 == 1


def _check_inf(inf) -> None:
    if inf is not True and inf is not False:
        raise ValueError(f"inf must be a bool, got {inf!r}")


def _grid(n: int, dim: int):
    return itertools.product(range(n + 1), repeat=dim)


_FLAGS = bytes.maketrans(b"\0\1", b"01")


def _pack(rep: VecSetRep, m: int, s: int) -> int:
    """Membership bits of rep over [0, m]^dim, packed row-major at stride s > m.

    Point p is bit sum(p[i] * s**(dim - 1 - i)). For m >= the rep's cutoff k
    every bit is literal: past k the rep is constant along each axis, so each
    axis's slab at coordinate k is copied over k + 1 .. m, one axis after
    another, by doubling the copied block: about log2(m - k) shifts an axis.
    For m < k the rep is folded: coordinate m stands for every value >= m,
    and its bit is set when some point of that class is in rep.
    """
    dim, k, cells, _ = rep
    if dim == 1:
        return _extend(k, cells, m) if m >= k else cells & ((1 << m) - 1) | (cells >> m != 0) << m
    steps = [s**e for e in range(dim - 1, -1, -1)]
    flags = bytearray(min(k, m) * sum(steps) + 1)  # one pass, up to the corner's bit
    if m >= k:
        for p in cells:
            flags[sum(map(mul, p, steps))] = 1
    else:
        for p in cells:
            flags[sum(min(v, m) * t for v, t in zip(p, steps))] = 1
    x = int(flags[::-1].translate(_FLAGS), 2)
    if m > k:
        size = s**dim
        for t in steps:
            slab = ((1 << t) - 1) << (k * t)  # coordinate k of this axis, in one period
            period = s * t
            while period < size:
                slab |= slab << period
                period *= 2
            block, width = slab & x, 1  # block holds coordinates k .. k + width - 1
            while width <= m - k:  # a shift of at most width never passes coordinate m
                shift = min(width, m - k + 1 - width)
                block |= block << (shift * t)
                width += shift
            x |= block
    return x


def _sub_packed(a: VecSetRep, b: VecSetRep, n: int) -> tuple:
    """A - B over [0, n]^dim, packed row-major at stride s, and s.

    At most min(|B folded at k|, (n + 1)^dim) shifts of s^dim bits, s = n + k + 1.
    That is under 2^dim bits for each pair of the sub search: with n >= k,
    s < 2(n + 1) and B folded has at most (k + 1)^dim <= (w + 1)^dim cells;
    with n < k, s < 2(k + 1) <= 2(w + 1).
    """
    dim, k = a.dim, a.cutoff
    s = n + k + 1
    x, y = _pack(a, n + k, s), _pack(b, k, s)
    if y.bit_count() <= (n + 1) ** dim:
        return _sub_bits(x, y, _box(n, dim, s)), s
    steps = [s**e for e in range(dim - 1, -1, -1)]
    return _sub_points(x, y, [sum(map(mul, p, steps)) for p in _grid(n, dim)]), s


def _sub_points(x: int, y: int, points: list) -> int:
    """The bits p of points at which x shifted right by p meets y."""
    return sum(1 << p for p in points if x >> p & y)


def _box(n: int, dim: int, s: int) -> int:
    """The bits of [0, n]^dim, packed row-major at stride s > n."""
    box = (1 << (n + 1)) - 1
    t = 1
    for _ in range(dim - 1):
        t *= s
        box = sum(box << (j * t) for j in range(n + 1))  # disjoint copies: + is |
    return box


_BITS = bytes.maketrans(b"01", b"\0\1")  # the inverse of _FLAGS


def _unpack(x: int, n: int, dim: int, s: int) -> frozenset:
    """The points of [0, n]^dim whose bits are set in x, packed at stride s."""
    bits = format(x, f"0{s**dim}b")[::-1]  # bits[i] is bit i
    rows = [0]  # the first bit of each row of [0, n]^dim, in _grid order
    for e in range(dim - 1, 0, -1):
        t = s**e
        rows = [r + j * t for r in rows for j in range(n + 1)]
    flags = "".join([bits[r:r + n + 1] for r in rows]).encode().translate(_BITS)
    return frozenset(compress(_grid(n, dim), flags))


def vecrep_apply(
    kind: GateKind,
    a: VecSetRep,
    b: VecSetRep | None,
    result_cutoff: int,
    max_grid_cells: int = 10**7,
) -> VecSetRep:
    """Apply one vector operation, producing a rep at result_cutoff.

    As with natrep_apply, the caller certifies the result cutoff. Every cell
    of the result is the true membership of that cell taken as a literal
    point, which equals the class membership under the certification.
    """
    n = result_cutoff
    if n < 1:
        raise ValueError(f"result_cutoff must be >= 1, got {n}")
    dim = a.dim
    if b is not None and b.dim != dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if (n + 1) ** dim > max_grid_cells:
        raise BudgetExceeded("grid", f"({n + 1})^{dim} cells")
    inf = _inf(kind, a, b)
    if kind is _ADD or kind is _SUB:
        vecrep_work(kind, n, max(a.cutoff, b.cutoff), dim, max_grid_cells)
    if kind is _SUB:
        bits, s = _sub_packed(a, b, n)
        if dim == 1:
            return _new(_AxisRep, (1, n, bits, inf))
        return _new(VecSetRep, (dim, n, _unpack(bits, n, dim, s), inf))
    if dim == 1:
        _, ka, ma, _ = a
        _, kb, mb, _ = a if b is None else b
        # an add makes n + 1 shifts at most, so the estimate checked covers it
        return _new(_AxisRep, (1, n, _mask_apply(kind, ka, ma, kb, mb, n, n + 1), inf))
    if kind is _COMP:
        cells = frozenset(p for p in _grid(n, dim) if not a.member(p))
    elif kind is _UNION:
        cells = frozenset(p for p in _grid(n, dim) if a.member(p) or b.member(p))
    elif kind is _INTER:
        cells = frozenset(p for p in _grid(n, dim) if a.member(p) and b.member(p))
    else:  # ADD
        cells = frozenset(p for p in _grid(n, dim) if _point_in_add(a, b, p))
    return _new(VecSetRep, (dim, n, cells, inf))


def vecrep_work(kind: GateKind, n: int, w: int, dim: int, max_grid_cells: int) -> None:
    """Refuse an add or sub at cutoff n, on operands of cutoffs <= w, past max_grid_cells."""
    if kind is _ADD:
        work = (((n + 1) * (n + 2)) // 2) ** dim  # decompositions: prod over axes of 1+...+(n+1)
        if work > max_grid_cells:
            raise BudgetExceeded("grid", f"add decomposition, ~{work} pairs")
    elif kind is _SUB and (n + 1) ** dim * (w + 1) ** dim > max_grid_cells:
        raise BudgetExceeded("grid", f"sub search ({n + 1})^{dim} x ({w + 1})^{dim}")


def _inf(kind, a: VecSetRep, b: VecSetRep | None) -> bool:
    """Whether inf is in the result of kind on a and b: inf + x = inf for
    every x, inf included, and inf - y = inf for finite y only."""
    if kind is _COMP:
        return not a.inf
    if kind is _UNION:
        return a.inf or b.inf
    if kind is _INTER:
        return a.inf and b.inf
    if kind is _ADD:
        return a.inf and (b.inf or b.finite_nonempty()) or b.inf and a.finite_nonempty()
    if kind is _SUB:
        return a.inf and b.finite_nonempty()
    raise ValueError(f"vecrep_apply cannot apply {kind}")


def _point_in_add(a: VecSetRep, b: VecSetRep, p) -> bool:
    # finite p = x + y forces x, y <= p componentwise; each lookup of a
    # specific vector through .member is exact, so this decomposition is.
    for y in itertools.product(*(range(v + 1) for v in p)):
        if b.member(y) and a.member(tuple(u - w for u, w in zip(p, y))):
            return True
    return False


def vecrep_from_label(value, dim: int, cutoff: int) -> VecSetRep:
    """Rep of a singleton input label ({v} or {inf}) at the given cutoff."""
    inf = value is INF
    if not inf and (len(value) != dim or not all(0 <= v < cutoff for v in value)):
        raise ValueError(f"label {value} not a {dim}-vector strictly below cutoff {cutoff}")
    if dim == 1:
        return _new(_AxisRep, (1, cutoff, 0 if inf else 1 << value[0], inf))
    return _new(VecSetRep, (dim, cutoff, frozenset() if inf else frozenset({tuple(value)}), inf))
