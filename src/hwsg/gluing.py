"""Gluing of numerical semigroups and the machinery built on it: ideal
extension, the nine extension identities, the Apery product structure,
free / complete-intersection detection and constructive sequence witnesses.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

from .errors import (
    AmbientMismatch,
    CaseExhausted,
    HypothesisViolated,
    InternalInconsistency,
    MembershipViolated,
    NotCoprimeMultipliers,
)
from .ideals import RelativeIdeal
from .semigroup import AperySet, NumericalSemigroup, delta_set
from .sequences import (
    ArithmeticSequence,
    in_sequence_semigroup,
    is_irreducible,
    shift_apery_witness,
)

FREE = "free"
COMPLETE_INTERSECTION = "complete-intersection"


@dataclass(frozen=True)
class Gluing:
    gamma1: NumericalSemigroup
    a1: int
    gamma2: NumericalSemigroup
    a2: int
    glued: NumericalSemigroup


def glue(
    gamma1: NumericalSemigroup, a1: int, gamma2: NumericalSemigroup, a2: int
) -> Gluing:
    if a1 <= 0 or not gamma2.contains(a1):
        raise MembershipViolated(f"a1={a1} must be a positive member of the right factor")
    if a2 <= 0 or not gamma1.contains(a2):
        raise MembershipViolated(f"a2={a2} must be a positive member of the left factor")
    if math.gcd(a1, a2) != 1:
        raise NotCoprimeMultipliers(f"gcd({a1},{a2}) != 1")
    glued = NumericalSemigroup.from_generators(
        [a1 * g for g in gamma1.minimal_generators]
        + [a2 * g for g in gamma2.minimal_generators]
    )
    return Gluing(gamma1, a1, gamma2, a2, glued)


def extend_ideal(
    gluing: Gluing, left: RelativeIdeal, right: RelativeIdeal
) -> RelativeIdeal:
    """The extension a1*A1 + a2*A2 as a relative ideal of the glued semigroup."""
    if left.ambient != gluing.gamma1 or right.ambient != gluing.gamma2:
        raise AmbientMismatch("ideal ambients do not match the gluing factors")
    return RelativeIdeal.from_generators(
        gluing.glued,
        (
            gluing.a1 * x + gluing.a2 * z
            for x in left.minimal_generators
            for z in right.minimal_generators
        ),
    )


def _extension_member(
    gluing: Gluing, left: RelativeIdeal, right_values: list[int], x: int
) -> bool:
    # brute membership of a1*left + a2*V for a finite or windowed V
    a1, a2 = gluing.a1, gluing.a2
    for v in right_values:
        rem = x - a2 * v
        if rem % a1 == 0 and left.contains(rem // a1):
            return True
    return False


def verify_gluing_identities(
    gluing: Gluing,
    a: RelativeIdeal,
    b: RelativeIdeal,
    c: RelativeIdeal,
    d: RelativeIdeal,
) -> list[bool]:
    """Evaluate the nine extension identities; each verdict is computed by
    constructing both sides independently.  All must come back True on a
    correct implementation."""
    a1, a2 = gluing.a1, gluing.a2
    g2_ideal = RelativeIdeal.of(gluing.gamma2)

    ext = functools.partial(extend_ideal, gluing)
    eac, ebc = ext(a, c), ext(b, c)

    # windows reach past max generator + F + 1, a bound on the conductor
    eac_top = max(eac.minimal_generators) + eac.ambient.frobenius + 1
    c_top = max(c.minimal_generators) + c.ambient.frobenius + 1
    window_hi = eac_top + a1 * max(abs(gluing.gamma1.frobenius), 1) + a1 * a2
    window_lo = eac.min_element
    window = range(window_lo, window_hi + 1)

    # (1) the extension is generated by the pairwise generator sums: compare
    # against raw setwise membership of a1*A + a2*C
    c_values = c.members_in(c.min_element, (window_hi - a1 * a.min_element) // a2 + 1)
    ok1 = all(
        eac.contains(x) == _extension_member(gluing, a, c_values, x) for x in window
    )

    # (2) replacing C by its Apery set w.r.t. a1 does not change the extension
    ap_c = sorted(c.apery(a1).elements)
    ok2 = all(
        eac.contains(x) == _extension_member(gluing, a, ap_c, x) for x in window
    )

    # (3) union distributes through extension
    ok3 = ext(a | b, c).equals(eac | ebc)

    # (4) sums mix with the plain extension of the second summand
    ok4 = ext(a + b, c).equals(eac + ext(b, g2_ideal))

    # (5) slicing by a1*Z picks out the least a1-multiple of C
    min_mult = next(
        v for v in c.members_in(c.min_element, c_top + a1) if v % a1 == 0
    )
    lhs5 = [x for x in window if x % a1 == 0 and eac.contains(x)]
    rhs5 = [
        x
        for x in window
        if x % a1 == 0 and (x - a2 * min_mult) % a1 == 0
        and a.contains((x - a2 * min_mult) // a1)
    ]
    ok5 = lhs5 == rhs5

    # (6) extension is injective in the first argument
    ok6 = eac.equals(ebc) == a.equals(b)

    # (7) intersection distributes through extension
    ok7 = ext(a & b, c).equals(eac & ebc)

    # (8) quotients extend componentwise
    ok8 = (ext(a, c) - ext(b, d)).equals(ext(a - b, c - d))

    # (9) duals extend componentwise
    ok9 = ext(a, c).dual().equals(ext(a.dual(), c.dual()))

    return [ok1, ok2, ok3, ok4, ok5, ok6, ok7, ok8, ok9]


def apery_product(gluing: Gluing) -> AperySet:
    """Apery set of the glued semigroup w.r.t. a1*a2, which must equal the
    setwise sum of the scaled factor Apery sets."""
    a1, a2 = gluing.a1, gluing.a2
    ap = gluing.glued.apery(a1 * a2)
    expected = frozenset(
        a1 * u + a2 * v
        for u in gluing.gamma1.apery(a2).elements
        for v in gluing.gamma2.apery(a1).elements
    )
    if ap.elements != expected:
        raise InternalInconsistency("Apery product structure failed")
    return ap


# -- decomposition trees -------------------------------------------------


@dataclass(frozen=True)
class DecompositionTree:
    classification: str
    a1: Optional[int] = None
    left: Optional["DecompositionTree"] = None
    a2: Optional[int] = None
    right: Optional["DecompositionTree"] = None

    @property
    def is_leaf(self) -> bool:
        return self.a1 is None

    def replay(self) -> NumericalSemigroup:
        """Rebuild the semigroup this tree decomposes."""
        if self.is_leaf:
            return NumericalSemigroup.from_generators([1])
        assert self.left is not None and self.right is not None
        return glue(self.left.replay(), self.a1, self.right.replay(), self.a2).glued

    def to_json(self) -> dict:
        if self.is_leaf:
            return {"kind": "leaf", "classification": self.classification}
        return {
            "kind": "glue",
            "classification": self.classification,
            "a1": self.a1,
            "left": self.left.to_json(),
            "a2": self.a2,
            "right": self.right.to_json(),
        }


def detect_free(gamma: NumericalSemigroup) -> Optional[DecompositionTree]:
    """Chain decomposition as iterated gluings with N, when one exists."""
    if gamma.is_nat():
        return DecompositionTree(FREE)
    gens = gamma.minimal_generators
    for m in gens:
        rest = tuple(g for g in gens if g != m)
        a1 = math.gcd(*rest)
        if a1 <= 1 or math.gcd(a1, m) != 1:
            continue
        gamma1 = NumericalSemigroup.from_generators([g // a1 for g in rest])
        if not gamma1.contains(m):
            continue
        sub = detect_free(gamma1)
        if sub is not None:
            return DecompositionTree(FREE, a1, sub, m, DecompositionTree(FREE))
    return None


@functools.lru_cache(maxsize=None)
def _ci_tree(gens: tuple[int, ...]) -> Optional[DecompositionTree]:
    if gens == (1,):
        return DecompositionTree(COMPLETE_INTERSECTION)
    # bipartitions of the minimal generators; the first generator is pinned
    # to the left block to halve the search
    rest = gens[1:]
    n = len(rest)
    for mask in range(2**n - 1):
        left_gens = [gens[0]] + [rest[i] for i in range(n) if mask >> i & 1]
        right_gens = [rest[i] for i in range(n) if not mask >> i & 1]
        d1 = math.gcd(*left_gens)
        d2 = math.gcd(*right_gens)
        if math.gcd(d1, d2) != 1:
            continue
        gamma1 = NumericalSemigroup.from_generators([g // d1 for g in left_gens])
        gamma2 = NumericalSemigroup.from_generators([g // d2 for g in right_gens])
        if not (gamma1.contains(d2) and gamma2.contains(d1)):
            continue
        t1 = _ci_tree(gamma1.minimal_generators)
        if t1 is None:
            continue
        t2 = _ci_tree(gamma2.minimal_generators)
        if t2 is None:
            continue
        return DecompositionTree(COMPLETE_INTERSECTION, d1, t1, d2, t2)
    return None


def detect_complete_intersection(
    gamma: NumericalSemigroup,
) -> Optional[DecompositionTree]:
    """Delorme-style recursive bipartition search, memoized on the canonical
    generator tuple."""
    return _ci_tree(gamma.minimal_generators)


# -- constructive witness for gluings ------------------------------------


def _decompose_in_product(
    x: int, a1: int, ap1: list[int], a2: int, ap2: frozenset[int]
) -> tuple[int, int]:
    for x1 in ap1:
        rem = x - a1 * x1
        if rem >= 0 and rem % a2 == 0 and rem // a2 in ap2:
            return x1, rem // a2
    raise InternalInconsistency(f"{x} has no Apery product decomposition")


def _tail_start(
    gA: NumericalSemigroup,
    aA: int,
    mA: int,
    sA: int,
    wA: int,
    fA: int,
    gB: NumericalSemigroup,
    aB: int,
    mB: int,
    sB: int,
    wB: int,
    fB: int,
    s: int,
) -> int:
    # handles the residual case wA - sA not in GammaA and wB + 2 sB not in
    # GammaB; h walks both Apery ladders until one side re-enters
    h = 1
    while not (gA.contains(wA - sA + h * mA) or gB.contains(wB + 2 * sB + h * mB)):
        h += 1
    if gA.contains(wA - sA + h * mA):
        return aA * (wA - sA + h * mA) + aB * (fB - wB - 2 * sB - (h - 1) * mB)
    # the other ladder re-entered first: the mirrored construction produces
    # the same three terms traversed downward, so shift back by two steps
    start_rev = aB * (wB + 2 * sB + h * mB) + aA * (fA - wA + sA - (h - 1) * mA)
    return start_rev - 2 * s


def propglue_witness(gluing: Gluing, s: int) -> ArithmeticSequence:
    """Irreducible (x; s; 2) in a gluing of symmetric factors, for a gap s
    that is a multiple of neither multiplier.  Follows the minimal-pair case
    analysis; the result is always re-validated."""
    gamma = gluing.glued
    g1, g2 = gluing.gamma1, gluing.gamma2
    a1, a2 = gluing.a1, gluing.a2
    if not (g1.is_symmetric() and g2.is_symmetric()):
        raise HypothesisViolated("both factors must be symmetric")
    if gamma.contains(s):
        raise HypothesisViolated(f"{s} must be a gap of the glued semigroup")
    if s % a1 == 0 or s % a2 == 0:
        raise HypothesisViolated(f"{s} must avoid {a1}N and {a2}N")

    ap = apery_product(gluing).elements
    if s not in delta_set(ap):
        seq = shift_apery_witness(gamma, a1 * a2, s)
        assert seq is not None
        return seq

    ap1 = sorted(g1.apery(a2).elements)
    ap1set = frozenset(ap1)
    ap2 = sorted(g2.apery(a1).elements)
    ap2set = frozenset(ap2)

    u = min(x for x in ap if (x - s) in ap)
    v = u - s
    u1, u2 = _decompose_in_product(u, a1, ap1, a2, ap2set)
    v1, v2 = _decompose_in_product(v, a1, ap1, a2, ap2set)
    s1, s2 = u1 - v1, u2 - v2

    w1 = min(w for w in ap1 if (w + s1) in ap1set)
    w2 = min(w for w in ap2 if (w + s2) in ap2set)
    f1, f2 = g1.frobenius, g2.frobenius

    p = g1.contains(w1 - s1)
    q = g1.contains(w1 + 2 * s1)
    r = g2.contains(w2 - s2)
    t = g2.contains(w2 + 2 * s2)

    if q and t:
        start = a1 * w1 + a2 * w2
    elif p and r:
        start = a1 * w1 + a2 * w2 - s
    elif p and q:
        start = a1 * w1 + a2 * (f2 - w2 - s2 + a1)
    elif r and t:
        start = a1 * (f1 - w1 - s1 + a2) + a2 * w2
    elif not p and not t:
        start = _tail_start(g1, a1, a2, s1, w1, f1, g2, a2, a1, s2, w2, f2, s)
    elif not r and not q:
        start = _tail_start(g2, a2, a1, s2, w2, f2, g1, a1, a2, s1, w1, f1, s)
    else:
        raise CaseExhausted("no construction case applies")

    seq = ArithmeticSequence(start, s, 2)
    if not in_sequence_semigroup(gamma, seq) or not is_irreducible(gamma, seq):
        raise CaseExhausted(
            f"constructed sequence {seq.terms} failed validation for s={s}"
        )
    return seq
