"""The three MUB-based equiangular-line constructions.

1. Single-entry scaling of the union of d RDS-derived MUBs (with exhaustive
   permutation/phase search).
2. The one-parameter family of 64 lines in C^8 built from the dimension-4
   MUBs, containing the Hoggar set at a=0.
3. Concatenated L-block pairs in C^(2d), including the dimension-4 extension
   to 64 lines certified in exact Gaussian-integer arithmetic.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math

import numpy as np

from .abelian import RelativeDifferenceSet, _phase_weights, builtin_rds, rds_verify
from .framecore import (
    _PART_BOUND,
    _SPREAD_TOLS,
    DEFAULT_TOL,
    GramReport,
    LineSet,
    _check_bases,
    _cmul,
    _complex,
    _float_reports,
    _floats,
    _gram_stack,
    _refuse_zero,
    _roots,
    _self_grams,
    _tile,
    verify_mubs,
)
from .scalars import (
    _C1_BUDGET,
    Scalar,
    _check_dimension,
    _check_tol,
    _columns,
    _gauss_if_integral,
    _indices,
    _is_odd_prime,
    _real,
    _Record,
    root_of_unity,
)


class InvalidRds(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    pass


class MubFamily(_Record):
    """dim bases (LineSets) of C^dim, built from source_rds."""

    _FIELDS = ("dim", "bases", "source_rds")
    __slots__ = (*_FIELDS, "__dict__")  # the cached properties live in __dict__

    def _check(self):
        """A family in C^dim is dim bases of dim vectors in C^dim; every
        construction indexes it by that shape."""
        if len(self.bases) != self.dim:
            raise ValueError(f"a family in C^{self.dim} must have exactly {self.dim} bases")
        _check_bases(self.bases, self.dim)

    @functools.cached_property
    def _theorem46_table(self) -> np.ndarray | ValueError:
        """ok[p, j, q, k]: every inner product of basis j with column p zeroed
        and basis k with column q zeroed has magnitude sqrt(2); one Gram of
        the d L-blocks L((p, ..., p), 0), which hold every zeroed basis once,
        as _l_blocks zeroes them: a product with 0, which keeps a non-finite
        entry non-finite, in float as soon as one basis is.  Where that Gram
        raises, the table is its error, which theorem46_predicate raises
        anew on every read."""
        d = self.dim
        parts = _l_blocks(self, [[p] * d for p in range(d)], [Scalar.gauss(0)] * d)
        try:
            (mag,), _ = _self_grams(_gram_stack(parts.reshape(2, 1, -1, d)))
        except ValueError as exc:  # ZeroVectorError, or a non-finite entry;
            return exc.with_traceback(None)  # its frames would keep the Gram's arrays
        # exact blocks hold squared magnitudes, float blocks magnitudes
        ok = mag == 2 if parts.dtype != float else np.abs(mag ** 2 - 2) <= DEFAULT_TOL
        return ok.reshape((d, d, d) * 2).all(axis=(2, 5))

    @functools.cached_property
    def _union(self) -> np.ndarray:
        """The parts (2, d * d, d) of the union of the bases, read-only, in
        the dtype they hold: _l_blocks copies from them, and c1_search and
        construction2_family read them by _complex."""
        parts = np.concatenate([b.parts for b in self.bases], axis=1)
        parts.flags.writeable = False
        return parts


class ScalingSpec(_Record):
    """Permutation perm, pi as 1-based images, and scaling constant v, a
    Scalar."""

    __slots__ = _FIELDS = ("perm", "v")


class BlockPairSpec(_Record):
    """Permutation perm, the real numbers a and b, read by scalars._real,
    and variant, "default" or "i-twist"."""

    __slots__ = _FIELDS = ("perm", "a", "b", "variant")
    _DEFAULTS = ("default",)

    def _check(self):
        object.__setattr__(self, "a", _real(self.a))
        object.__setattr__(self, "b", _real(self.b))


def mubs_from_rds(rds: RelativeDifferenceSet) -> MubFamily:
    """_godsil_roy's family of rds, once verify_mubs at DEFAULT_TOL says
    "yes" to it; InvalidRds otherwise."""
    family = _godsil_roy(rds)
    if not verify_mubs(list(family.bases)):
        raise InvalidRds("constructed bases failed the MUB check")
    return family


def _godsil_roy(rds: RelativeDifferenceSet) -> MubFamily:
    """Godsil-Roy, unverified: rows (chi(r_1), ..., chi(r_d)) over all
    characters, in d bases by each character's restriction to N.  When the
    lcm L of the factor orders is an odd prime, every basis keeps its phases
    (LineSet._of_phases), so verify_mubs of the family is exact.  A group of
    order other than d^2 is refused (InvalidRds) before rds_verify runs."""
    d = len(rds.elements)
    if rds.group.order != d * d:
        raise InvalidRds(f"need a group of order d^2 = {d * d} for d = {d} elements, "
                         f"got order {rds.group.order}")
    try:
        m, n, k, lam = rds_verify(rds)
    except ValueError as exc:
        raise InvalidRds(str(exc)) from exc
    if not (m == n == k and lam == 1):
        raise InvalidRds(f"need a (d,d,d,1)-RDS, got {(m, n, k, lam)}")

    # character j, j running over the exponent tuples in the lexicographic
    # order of characters(), is chi_j(g) = e^(2*pi*i*t/L) with
    # t = sum_i j_i * g_i * L / n_i mod L, so the restrictions to N and the
    # rows are two integer matrix products, their entries below
    # rank * |G|^2, far inside int64.  Two characters agree on N iff they
    # agree on its generators, and a (d,d,d,1)-RDS gives each restriction
    # to |G| / |N| = d characters
    orders = rds.group.orders
    modulus, weights = _phase_weights(rds.group)
    chars = np.indices(orders).reshape(len(orders), -1).T * weights
    signatures = chars @ np.array([g.exponents for g in rds.forbidden]).T % modulus
    rows = chars @ np.array([g.exponents for g in rds.elements]).T % modulus

    # the characters of one signature are a run of one stable sort, keyed by
    # the signature's integer columns (no combined code to overflow), each
    # run in index order; sorting the runs by their first index keeps the
    # first-seen order, by lexicographically smallest member.  np.unique
    # would load numpy.ma
    order = np.lexsort(signatures.T[::-1])
    ranked = signatures[order]
    cuts = [0, *(np.flatnonzero((ranked[1:] != ranked[:-1]).any(axis=1)) + 1).tolist(), len(order)]
    groups = sorted((order[a:b] for a, b in zip(cuts, cuts[1:])), key=lambda run: int(run[0]))

    # for an odd prime L every basis carries its phases, which verify_mubs
    # certifies in integers.  Otherwise the bases read the L-th roots of
    # unity; root_of_unity reduces t / L, so phase 0 stays the exact
    # Gaussian 1.  A basis is exact iff every root it uses is; it takes its
    # parts, 0 and +-1, from the int64 table, whose other columns (the float
    # roots, truncated) no basis reads
    phased = _is_odd_prime(modulus)
    if not phased:
        exact = np.array([root_of_unity(t, modulus).exact for t in range(modulus)])
        floats = _roots(modulus)
        ints = floats.astype(np.int64)
    bases = []
    for j, members in enumerate(groups, start=1):
        ts = rows[members]
        provenance = {"construction": "rds-mub", "basis": j, "rds": rds.label or "custom"}
        bases.append(LineSet._of_phases(ts, modulus, provenance) if phased else
                     LineSet.from_parts((ints if exact[ts].all() else floats)[:, ts], provenance))
    return MubFamily(d, tuple(bases), rds)


def l_block(family: MubFamily, spec: ScalingSpec) -> LineSet:
    """L-block: in basis j, multiply entry pi(j) of each vector by v; the
    one-spec case of _l_blocks."""
    cols = _columns(spec.perm, family.dim)
    v = Scalar.coerce(spec.v)
    return LineSet.from_parts(_l_blocks(family, [cols], [v])[:, 0],
                              {"construction": "c1-lblock", "perm": [c + 1 for c in cols],
                               "rds": family.source_rds.label or "custom",
                               "v": [v.re, v.im]})


def _l_blocks(family: MubFamily, cols, vs: list[Scalar]) -> np.ndarray:
    """The parts (2, S, d * d, d) of S L-blocks: block s is the union of the
    bases with entry cols[s][j] of each vector of basis j multiplied by vs[s]
    (cols 0-based, as _columns gives them).  The stack is exact iff every
    basis and every v is: one float basis or v floats all, by _floats, and
    only then is the family's union floated.  An exact stack
    is int64 while every product of a part M and a v, |M| (|re v| + |im v|),
    stays below framecore._PART_BOUND, so that no part can wrap or leave
    the bound a set holds in int64, and Python ints otherwise."""
    d = family.dim
    held = family._union
    if not (all(v.exact for v in vs) and all(b.exact for b in family.bases)):
        held = _floats(held)
    elif held.dtype != object:
        big = max(int(held.max()), -int(held.min()), 1)
        if big * max((abs(v.re) + abs(v.im) for v in vs), default=0) >= _PART_BOUND:
            held = held.astype(object)
    parts = np.repeat(held[:, None], len(vs), axis=1)
    re, im = np.array([[v.re for v in vs], [v.im for v in vs]], dtype=parts.dtype)[:, :, None]
    entries = (slice(None), np.arange(len(vs))[:, None], np.arange(d * d),
               np.array(cols).repeat(d, axis=1))
    parts[entries] = _cmul(parts[entries], re, im)
    return parts


def c1_magnitudes(d: int) -> list[float]:
    """Admissible |v| values sqrt(2 +- sqrt(d+1)); the minus branch exists
    only while 2 - sqrt(d+1) >= 0 (d <= 3)."""
    _check_dimension(d)
    root = math.sqrt(d + 1)
    mags = [math.sqrt(2 + root)]
    if 2 - root >= 0:
        mags.append(math.sqrt(2 - root))
    return mags


def c1_search(
    family: MubFamily,
    phase_roots: int = 4,
    budget: int = _C1_BUDGET,
    tol: float = DEFAULT_TOL,
) -> list[tuple[ScalingSpec, GramReport]]:
    """Exhaustive Construction-1 search over all permutations and all
    v = zeta * |v| on the grid of phase_roots phases, an integer >= 1 by
    _indices (ValueError otherwise); returns the equiangular hits in
    lexicographic (perm, magnitude-desc, phase) order.

    Block (j, k) of an L-block depends on pi only through (pi(j), pi(k)),
    and framecore._report says "no" to a float set whose values spread more
    than _SPREAD_TOLS * tol.  So the column pairs whose cross block spreads
    more rule out every permutation through them, and backtracking generates
    only the rest.  The masks of every basis pair (j, k), j < k, come from
    one _level_masks call, by its own expansion of the block, when the
    backtracking first reaches basis k; the candidate values are one array,
    and each has one Scalar, shared by every survivor's ScalingSpec.  The
    self blocks are left to the certifier: in an orthogonal basis of
    unimodular vectors each value is ||v|^2 - 1| over equal norms, so they
    have no spread of their own, and leaving them out can only let more
    survivors through.  The survivors are generated first, then certified in
    tiles of _tile(d^4) survivors (a survivor's Gram has d^4 entries) by
    _l_blocks and _float_reports, which alone decide the hits and their
    reports: the masks can skip work, never say "yes".  The certifier's
    input checks come first, in its order, on the squared norms the masks
    read: a non-finite entry, or a norm that overflows, raises ValueError,
    and then a zero vector ZeroVectorError.
    """
    _check_tol(tol)
    roots = _indices([phase_roots])  # a bool or a float is no count of roots
    if roots is None:
        raise ValueError(f"phase_roots must be an integer >= 1, got {phase_roots!r}")
    (phase_roots,) = roots
    if phase_roots < 1:
        raise ValueError("phase_roots must be at least 1")
    d = family.dim
    mags = c1_magnitudes(d)
    space = math.factorial(d) * phase_roots * len(mags)
    if space > budget:
        raise BudgetExceeded(
            f"search space {space} exceeds budget {budget}; raise the budget "
            "to proceed"
        )
    values = np.array([cmath.exp(2j * cmath.pi * p / phase_roots) * mag
                       for mag in mags for p in range(phase_roots) if mag != 0.0 or p == 0])
    scalars = [Scalar.from_complex(v) for v in values.tolist()]
    # mats[j, a, l]: entry l of vector a of basis j; norm2[j, a]: its squared norm
    mats = _complex(family._union).reshape(d, d, d)
    with np.errstate(over="ignore", invalid="ignore"):  # checked next
        norm2 = (np.abs(mats) ** 2).sum(axis=2)
    if not np.isfinite(norm2).all():
        raise ValueError("line set has a non-finite entry")
    _refuse_zero(norm2)
    bound = _SPREAD_TOLS * tol + _C1_SLACK
    levels: dict[int, list[list[list[int]]]] = {0: []}  # levels[k][j]: the masks of pair (j, k)
    perm: list[int] = []  # 0-based columns pi(1), ..., pi(len(perm))

    def survivors(alive: int):
        k = len(perm)
        if k == d:
            images = tuple(p + 1 for p in perm)
            yield from (ScalingSpec(images, v) for i, v in enumerate(scalars) if alive >> i & 1)
            return
        if k not in levels:
            levels[k] = _level_masks(mats[:k], mats[k], norm2[:k], norm2[k], values, bound)
        level = levels[k]
        for q in range(d):
            if q in perm:
                continue
            mask = alive
            for pair, p in zip(level, perm):
                mask &= pair[p][q]
                if not mask:
                    break
            if mask:
                perm.append(q)
                yield from survivors(mask)
                perm.pop()

    found, hits = survivors((1 << len(values)) - 1), []
    while tile := list(itertools.islice(found, _tile(d**4))):
        parts = _l_blocks(family, [[p - 1 for p in spec.perm] for spec in tile],
                          [spec.v for spec in tile])
        hits += [(spec, report) for spec, report in zip(tile, _float_reports(parts, tol))
                 if report.equiangular]
    return hits


#: the masks' values and gram_analyze's differ by rounding, a few d * eps on
#: magnitudes normalized to at most 1; this keeps the masks on the safe side
_C1_SLACK = 1e-12


def _level_masks(xs, y, nxs, ny, values, bound: float) -> list[list[list[int]]]:
    """masks[j][p][q] of the bases xs[j], y (x[a, l]: entry l of vector a)
    with squared norms nxs[j], ny: a bit mask over the candidates, bit i
    clear iff scaling column p of xs[j] and column q of y by values[i]
    spreads the normalized magnitudes of their cross block by more than
    bound (a NaN spread keeps its bit).  Entries p = q are filled, never
    read.  The candidates of every pair form one axis c = (j, i), and the
    block's entries lead: the tensor is indexed (a, b, c, p, q), so each
    spread is a max minus a min over its first axis.  It is evaluated in
    tiles of candidates c (d^4 entries each) by tiles of columns p (d^3
    each), both by framecore._tile, so memory grows neither with the
    candidates nor with the pairs.  Each mask is read from little-endian
    64-bit words, one tolist() for all of them."""
    pairs, d = len(xs), len(y)
    count = len(values)
    w = np.abs(values) ** 2 - 1  # |v|^2 - 1
    yc, y2 = y.conj(), np.abs(y) ** 2  # (b, q): conj(y[b, q]) and |y[b, q]|^2
    g = (xs @ yc.T).transpose(1, 2, 0)  # (a, b, j)
    ok = np.empty((pairs * count, d, d), dtype=bool)
    step_c, step_p = _tile(d ** 4), _tile(d ** 3)
    with np.errstate(divide="ignore", invalid="ignore"):  # zero norms read NaN
        for c in range(0, pairs * count, step_c):
            j, i = np.divmod(np.arange(c, min(c + step_c, pairs * count)), count)
            x = xs[j].transpose(1, 0, 2)  # (a, c, l)
            vm1, wc = values[i] - 1, w[i]
            # t[a, b, c, l] = x[a, l] conj(y[b, l]); then
            # <x', y'> = G + (v - 1) x_p conj(y_p) + (conj v - 1) x_q conj(y_q)
            t = x[:, None] * yc[None, :, None]
            tq = (vm1.conj()[:, None] * t)[:, :, :, None]
            # (a, c, p) and (b, c, q): the norms with column p or q scaled by v
            xn = np.sqrt(nxs[j].T[:, :, None] + wc[:, None] * np.abs(x) ** 2)
            yn = np.sqrt(ny[:, None, None] + wc[:, None] * y2[:, None])
            for p in range(0, d, step_p):
                ps = slice(p, p + step_p)
                inner = (g[:, :, j, None] + vm1[:, None] * t[..., ps])[..., None] + tq
                cos = np.abs(inner)
                cos /= xn[:, None, :, ps, None] * yn[None, :, :, None, :]
                cos = cos.reshape(d * d, *cos.shape[2:])
                ok[c:c + len(j), ps] = ~(cos.max(axis=0) - cos.min(axis=0) > bound)
    # bit i of word k of a mask is candidate 64 k + i
    words = np.zeros((pairs, d * d, -(-count // 64) * 8), dtype=np.uint8)
    words[..., :-(-count // 8)] = np.packbits(
        ok.reshape(pairs, count, d * d).transpose(0, 2, 1), axis=2, bitorder="little")
    words = words.view("<u8")
    masks = words[..., 0]
    if words.shape[2] > 1:
        masks = masks.astype(object)
        for k in range(1, words.shape[2]):
            masks |= words[..., k].astype(object) << 64 * k
    return masks.reshape(pairs, d, d).tolist()


def theorem46_predicate(family: MubFamily, perm: tuple[int, ...]) -> bool:
    """d=4 criterion: every cross-basis inner product of L(pi, 0) has
    magnitude sqrt(2); exactly (squared magnitude 2) on the Gaussian table,
    within DEFAULT_TOL of squared magnitude 2 on a float family.  Same-basis
    pairs carry no information about pi: their magnitude is always 1.

    Block (j, k) of L(pi, 0) depends on pi only through the columns pi(j),
    pi(k) it zeroes, so one Gram of the 4 x 4 zeroed bases (64 lines)
    tabulates every block once per family, and pi reads its six blocks j < k
    there.  Where that Gram raises (a zero line or a non-finite entry in a
    zeroed basis), every pi raises an error of its class and message, and
    the Gram is not taken again."""
    if family.dim != 4:
        raise ValueError("the criterion applies only in dimension 4")
    cols = _columns(perm, 4)
    ok = family._theorem46_table
    if isinstance(ok, ValueError):
        raise type(ok)(*ok.args)
    return all(ok[cols[j], j, cols[k], k] for j, k in _PAIRS)


#: the basis pairs j < k of theorem46_predicate
_PAIRS = [(j, k) for j in range(4) for k in range(j + 1, 4)]


# --- Construction 2 (dimension 8) -------------------------------------------


@functools.cache
def _family4() -> MubFamily:
    """The builtin d = 4 family, built and verified once per process.
    construction2_family and construction3_d4_extension read it and return
    sets of their own, so no caller can reach it."""
    return mubs_from_rds(builtin_rds(4))


def construction2_family(a: float) -> LineSet:
    """64 lines in C^8 from the dimension-4 MUBs and the one-parameter
    column blocks C_j(a), D_j(a), a read by scalars._real; equals the
    (twisted) Hoggar set at a=0.  Basis j of the family's union gives four
    blocks of four lines in turn: [B_j | c e_j], [B_j | -c e_j],
    [d e_j | B_j] and [-d e_j | B_j]."""
    a = _real(a)
    # past |a| ~ 1.3e154, 1 + a * a overflows; |a| is then the rounded root
    root = math.sqrt(1 + a * a)
    root = root if math.isfinite(root) else abs(a)
    c = (a - 1 + 1j * (a + 1)) / root
    dval = (a + 1 + 1j * (a - 1)) / root
    # [j, kind, vector, entry]: the vectors of basis j once for the kinds
    # 0, 1 and once for 2, 3, and each kind's column (c e_j, -c e_j, d e_j,
    # -d e_j) once per vector
    bases = np.broadcast_to(_complex(_family4()._union).reshape(4, 1, 4, 4), (4, 2, 4, 4))
    cols = np.multiply.outer(np.eye(4, dtype=complex), [c, -c, dval, -dval]).transpose(0, 2, 1)
    cols = np.broadcast_to(cols[:, :, None], (4, 4, 4, 4))
    mat = np.concatenate((np.concatenate((bases, cols[:, :2]), axis=3),
                          np.concatenate((cols[:, 2:], bases), axis=3)), axis=1).reshape(64, 8)
    return LineSet.from_parts(np.stack([mat.real, mat.imag]), {"construction": "c2", "a": a})


_HOGGAR_SEED = np.array(
    [
        0,
        0,
        (1 + 1j) / math.sqrt(2),
        (1 - 1j) / math.sqrt(2),
        (1 + 1j) / math.sqrt(2),
        -(1 + 1j) / math.sqrt(2),
        0,
        math.sqrt(2),
    ],
    dtype=complex,
)


def hoggar_tensor_orbit() -> LineSet:
    """Hoggar's 64 lines: the Weyl-Heisenberg orbit over Z_2^3 of the seed,
    in the published order of the 3-fold tensor powers of I, Z, X and ZX."""
    from .weylheisenberg import _orbit  # here, so that no other builder loads it

    # rows (j1, j2, j3, k1, k2, k3) to (k1, j1, k2, j2, k3, j3): Z^j X^k is
    # the (2k + j)-th of I, Z, X, ZX
    mat = _orbit(_HOGGAR_SEED, (2, 2, 2)).reshape(2, 2, 2, 2, 2, 2, 8)
    mat = mat.transpose(3, 0, 4, 1, 5, 2, 6).reshape(64, 8)
    return LineSet.from_parts(np.stack([mat.real, mat.imag]), {"construction": "hoggar-orbit"})


# --- Construction 3 (block pairs in C^(2d)) ---------------------------------


def construction3_pair(family: MubFamily, spec: BlockPairSpec) -> LineSet:
    """[L(pi, v)  L(pi, v')] with v = a+ib and v' = 2-a-ib, in C^(2d).

    The "i-twist" variant builds [L(pi, i*v)  -L(pi, i*v')], the only other
    block pattern appearing in the dimension-4 extension.  The one-spec case
    of _block_pairs.
    """
    return LineSet.from_parts(
        _block_pairs(family, [spec])[:, 0],
        {
            "construction": "c3-pair",
            "rds": family.source_rds.label or "custom",
            "perm": [c + 1 for c in _columns(spec.perm, family.dim)],
            "a": spec.a,
            "b": spec.b,
            "variant": spec.variant,
        },
    )


def _block_pairs(family: MubFamily, specs: list[BlockPairSpec]) -> np.ndarray:
    """The parts (2, S, d * d, 2d) of S block pairs, pair s construction3_pair
    of specs[s]: both halves of every pair are L-blocks of one _l_blocks
    stack, so they are exact iff every constant and every basis is.  A
    constant is exact when both its parts are integral."""
    cols, lefts, rights, twisted = [], [], [], []
    for s, spec in enumerate(specs):
        v = complex(spec.a, spec.b)
        vp = 2 - v
        if spec.variant == "i-twist":
            v, vp = 1j * v, 1j * vp
            twisted.append(s)
        elif spec.variant != "default":
            raise ValueError(f"unknown variant {spec.variant!r}")
        cols.append(_columns(spec.perm, family.dim))
        lefts.append(_gauss_if_integral(v))
        rights.append(_gauss_if_integral(vp))
    parts = _l_blocks(family, cols * 2, lefts + rights)
    left, right = parts[:, :len(specs)], parts[:, len(specs):]
    if twisted:
        right[:, twisted] = _cmul(right[:, twisted], -1, 0)
    return np.concatenate((left, right), axis=3)


def construction3_solve(d: int) -> list[tuple[float, float]]:
    """Two parameter pairs on the circle b^2 + (a-1)^2 = sqrt(d), where both
    magnitude classes of the block pair coincide at 2*sqrt(d)."""
    _check_dimension(d)
    radius = d ** 0.25
    return [(1.0, radius), (1.0 - radius, 0.0)]


def construction3_d4_extension() -> LineSet:
    """The exact 64-line set in C^8: four 16-vector block pairs over the
    dimension-4 MUBs with pi = [1,3,4,2] and Gaussian-integer constants.

    Block order follows the published table: [L(2+i) L(-i)], [L(-1+2i) -L(1)],
    [L(-i) L(2+i)], [L(1) -L(-1+2i)], which are construction3_pair at
    (a, b) = (2, 1) and (0, -1), each in the default and the i-twist variant.
    """
    family = _family4()
    perm = (1, 3, 4, 2)
    specs = [BlockPairSpec(perm, a, b, variant)
             for a, b in ((2, 1), (0, -1)) for variant in ("default", "i-twist")]
    return LineSet.from_parts(_block_pairs(family, specs).reshape(2, -1, 8), {
        "construction": "c3-d4-extension", "rds": "builtin:4", "perm": list(perm)})
