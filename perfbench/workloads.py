"""The four benchmark workloads: fixed input corpora, entry points, checks.

Every corpus is generated here, from its own fixed corpus seed, with the
benchmark's own arithmetic; the library only ever receives coefficient
lists or invariant tuples.  The corpora are fixed (not drawn from the run's
``--seed``) so that each item's answer can be recorded once and compared on
every run; the run seed only chooses the order in which a pass visits the
items (see ``pass_order``).

Library functions are always called through their module attribute
(``invariants.classify``, not a name imported from it), so the spans that
``spans.py`` installs on those attributes see every call.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import hyperinv.curve as curve
import hyperinv.invariants as invariants
import hyperinv.moduli as moduli
import hyperinv.oracle as oracle
from hyperinv.errors import ExcludedLocusPoint

ANSWERS_DIR = Path(__file__).resolve().parent / "answers"
ORACLE_TOL = 1e-9


# --- exact helpers of the benchmark's own (independent of hyperinv) ---

def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_rem(p, q):
    p = [Fraction(c) for c in p]
    while len(p) >= len(q):
        f = p[-1] / q[-1]
        shift = len(p) - len(q)
        for i, c in enumerate(q):
            p[shift + i] -= f * c
        p = _trim(p)
    return p


def square_free(coeffs) -> bool:
    """True when the ascending coefficient list has no repeated root."""
    a = _trim(list(coeffs))
    b = _trim([i * c for i, c in enumerate(a)][1:])
    while b:
        a, b = b, _poly_rem(a, b)
    return len(a) == 1


def pullback(coeffs, a, b, c, d, n):
    """(cX+d)^n * F((aX+b)/(cX+d)) for ascending F of degree <= n."""
    out = [0] * (n + 1)
    num_pow = [1]
    for i, f in enumerate(coeffs):
        if f:
            den_pow = [1]
            for _ in range(n - i):
                den_pow = _poly_mul(den_pow, [d, c])
            for k, v in enumerate(_poly_mul(num_pow, den_pow)):
                out[k] += f * v
        num_pow = _poly_mul(num_pow, [b, a])
    return _trim(out)


def normalized_map(a, b, c, d):
    """Map entries divided by the first nonzero one, as MoebiusMap stores them."""
    lead = next(v for v in (a, b, c, d) if v)
    return tuple(Fraction(v, 1) / lead for v in (a, b, c, d))


def normal_form_invariants(a):
    """u_i = a_1^(g-i+1) a_i + a_g^(g-i+1) a_(g-i+1) for a = (a_1..a_g)."""
    g = len(a)
    return tuple(a[0] ** (g - i + 1) * a[i - 1] + a[-1] ** (g - i + 1) * a[g - i]
                 for i in range(1, g + 1))


def _text(values):
    return [str(v) for v in values]


# --- answers ---

def recorded_answers(name):
    """{item key: answer} as recorded for a workload, in corpus order."""
    with (ANSWERS_DIR / f"{name}.json").open() as fh:
        return {e["key"]: e["answer"] for e in json.load(fh)}


def classification_answer(res):
    """The recorded form of a Classification: u, locus, label and flags."""
    label = res.label
    return {
        "u": None if res.invariants is None else _text(res.invariants.u),
        "locus": None if res.locus is None else _text(res.locus),
        "label": label.name,
        "order": label.reduced_order,
        "lift": label.lift_flag,
        "flags": list(res.flags),
    }


class Workload:
    """A fixed corpus plus its entry point and the checks on its answers.

    ``items`` are dicts with an ``input`` (what the library receives), a
    ``key`` (its text form, used to match recorded answers) and a
    ``stratum`` (the cost class that ``pass_order`` spreads evenly).
    """

    name = ""
    corpus_seed = 0

    def __init__(self):
        self.items = self.make_items()

    def make_items(self):
        raise NotImplementedError

    def run(self, item):
        """One item: the workload's entry point on one input."""
        raise NotImplementedError

    def check(self, item, answer):
        """Problems with an answer beyond the recorded one (empty if none)."""
        return []

    def exact_order(self, answer):
        """Reduced order the exact pipeline names, or None where it names none."""
        return answer["order"]

    def oracle_order(self, item, answer):
        """Reduced order the numeric oracle reports; run outside timing."""
        grp = oracle.reduced_group(curve.new_curve(item["input"]), ORACLE_TOL)
        return grp.order

    def recorded(self):
        return recorded_answers(self.name)


class Recip40(Workload):
    """Odd-degree reciprocal curves [1] + mid + mid[::-1] + [1], genus 2-4.

    The 40-draw corpus of benchmarks/bench_backends.py (seed 3).  X -> 1/X
    moves the branch point at infinity to 0, so it is no symmetry and nearly
    every draw ends "no-involution-found" after the full elimination.
    """

    name = "recip40"
    corpus_seed = 3

    def make_items(self):
        rng = random.Random(self.corpus_seed)
        items = []
        for _ in range(40):
            g = rng.randint(2, 4)
            mid = [rng.randint(-6, 6) for _ in range(g)]
            coeffs = [1] + mid + mid[::-1] + [1]
            if square_free(coeffs):  # one singular draw is invalid input
                items.append({"input": coeffs, "key": ",".join(map(str, coeffs)),
                              "stratum": g})
        return items

    def run(self, item):
        return classification_answer(
            invariants.classify(curve.new_curve(item["input"])))


# hand-written values of acceptance criteria 01, 02 and 12 and the README
_FIXTURES = {
    "sextic_plus_one": ([1, 0, 0, 0, 0, 0, 1], ["0", "0"], "Z3⋊D8", 12),
    "slice_15": ([1, 0, 15, 0, 15, 0, 1], ["6750", "450"], "Z3⋊D8", 12),
    "slice_minus_5": ([1, 0, -5, 0, -5, 0, 1], ["-250", "50"], "GL2(3)", 24),
    "quintic": ([0, -1, 0, 0, 0, 1], ["-250", "50"], "GL2(3)", 24),
    "cubic_middle": ([1, 0, 0, 4, 0, 0, 1], ["3006", "-126"], "D12", 6),
}


class CoordChange(Workload):
    """The coordinate-change corpus of acceptance criterion 06 (seed 4040).

    Five fixtures, 25 moved copies each.  The even fixtures move by the
    even-preserving maps X -> tX and X -> t/X; the quintic and the D12
    sextic move by random integer maps, so their involutions appear over
    Q(sqrt d) and the search, root certification and ranking all run.
    """

    name = "coordchange"
    corpus_seed = 4040
    per_fixture = 25

    def make_items(self):
        rng = random.Random(self.corpus_seed)

        def even_preserving():
            num = rng.choice([x for x in range(-6, 7) if x])
            den = rng.choice([1, 2, 3])
            if rng.random() < 0.5:
                return (num, 0, 0, den)
            return (0, num, den, 0)

        def random_map():
            while True:
                a, b, c, d = (rng.randint(-5, 5) for _ in range(4))
                if a * d - b * c:
                    return (a, b, c, d)

        plans = [("sextic_plus_one", even_preserving), ("slice_15", even_preserving),
                 ("slice_minus_5", even_preserving), ("quintic", random_map),
                 ("cubic_middle", random_map)]
        items = []
        for name, draw in plans:
            coeffs = _FIXTURES[name][0]
            for j in range(self.per_fixture):
                moved = pullback(coeffs, *normalized_map(*draw()), 6)
                items.append({"input": moved, "fixture": name,
                              "key": f"{name}#{j}:" + ",".join(map(str, moved)),
                              "stratum": name})
        return items

    def run(self, item):
        return classification_answer(
            invariants.classify(curve.new_curve(item["input"])))

    def check(self, item, answer):
        _, u, label, order = _FIXTURES[item["fixture"]]
        if (answer["u"], answer["label"], answer["order"]) != (u, label, order):
            return [f"expected u={u} {label}/{order} as for {item['fixture']}"]
        return []


class BigCoeff(Workload):
    """Y^2 = X^6 + 5X^3 + P^3 along the coefficient bit size of P.

    Three P per odd decade from 10^3 to 10^10, and a tail of three P from
    [10^12, 10^13): a fifth of the items, so the 90th percentile falls
    inside the tail, where certificate ranking's trial division (about
    sqrt P steps) outweighs everything else.  Substituting X = sqrt(P) x
    gives x^6 + a x^3 + 1 with a = 5 P^(-3/2) != 0, so every curve is D12
    (reduced order 6) whatever P is.
    """

    name = "bigcoeff"
    corpus_seed = 14
    decades = (3, 5, 7, 9, 12)  # three P from each [10^k, 10^(k+1))

    def make_items(self):
        rng = random.Random(self.corpus_seed)
        items = []
        for k in self.decades:
            for _ in range(3):
                P = rng.randint(10 ** k, 10 ** (k + 1) - 1)
                items.append({"input": [P ** 3, 0, 0, 5, 0, 0, 1], "key": str(P),
                              "stratum": k})
        return items

    def run(self, item):
        return classification_answer(
            invariants.classify(curve.new_curve(item["input"])))

    def check(self, item, answer):
        problems = []
        if (answer["label"], answer["order"]) != ("D12", 6):
            problems.append("expected D12 of reduced order 6")
        # D12's reduced group S3 has no Klein four-subgroup: neither locus
        # factor may vanish
        if answer["locus"] is None or "0" in answer["locus"]:
            problems.append("expected two nonzero locus factors")
        return problems


class Descent(Workload):
    """Locus points on the minus branch, 30 per genus 2-6 (seed 31).

    The first 30 of the 100 points per genus that acceptance criterion 07
    draws.  Each item reconstructs a rational model, checks the round trip
    and recovers the group with the numeric oracle; the involution search
    never runs.
    """

    name = "descent"
    corpus_seed = 31
    per_genus = 30

    def make_items(self):
        rng = random.Random(self.corpus_seed)

        def draw():
            return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

        items = []
        for g in (2, 3, 4, 5, 6):
            done = 0
            while done < 100:
                a = [draw() for _ in range(g)]
                a[-1] = a[0]
                if a[0] == 0:
                    continue
                u = normal_form_invariants(a)
                # the model is G(X^2), G = 2 + u_g t + ... + u_1 t^g + u_1 t^(g+1)
                even = [2] + [u[g - i] for i in range(1, g + 1)] + [u[0]]
                if not square_free(even):  # singular output: acceptance 07 skips it
                    continue
                done += 1
                if done <= self.per_genus:
                    items.append({"input": u, "key": ",".join(map(str, u)),
                                  "stratum": g})
        return items

    def run(self, item):
        u = item["input"]
        res = moduli.rational_model(u)
        trip = moduli.round_trip_check(u)
        grp = oracle.reduced_group(res.curve, ORACLE_TOL)
        answer = {
            "model": _text(res.curve.F.coeffs),
            "branch": res.branch,
            "verified": res.verified,
            "round_trip": trip,
            "oracle_order": grp.order,
            "klein": oracle.has_klein_subgroup(grp),
            "oracle_label": None,
            "label": None,
            "order": None,
        }
        if len(u) == 2:
            answer["oracle_label"] = oracle.label_from_signature(2, grp).name
            try:
                label = invariants.classify_genus2(u)
            except ExcludedLocusPoint:  # a point with no smooth classification
                answer["label"] = "excluded"
            else:
                answer["label"], answer["order"] = label.name, label.reduced_order
        return answer

    def check(self, item, answer):
        problems = []
        if not (answer["verified"] and answer["round_trip"]):
            problems.append("model not verified or round trip failed")
        if answer["branch"] != "minus" or not answer["klein"]:
            problems.append("expected a minus-branch point with a Klein subgroup")
        if answer["order"] is not None and answer["oracle_label"] != answer["label"]:
            problems.append("oracle label differs from classify_genus2")
        return problems

    def oracle_order(self, item, answer):
        return answer["oracle_order"]


WORKLOADS = {w.name: w for w in (Recip40, CoordChange, BigCoeff, Descent)}


def pass_order(items, seed, pass_index):
    """Indices of one pass, each stratum spread evenly through the pass.

    Within a stratum the order is a seeded shuffle; item k of a stratum of
    size n sits at the pass position (k + jitter) / n.  Any prefix of a pass
    then holds each cost class in its corpus share, so a timed window that
    ends mid-pass still sees the corpus mix.
    """
    rng = random.Random(f"{seed}:{pass_index}")
    strata = {}
    for i, item in enumerate(items):
        strata.setdefault(item["stratum"], []).append(i)
    keyed = []
    for members in strata.values():
        rng.shuffle(members)
        n = len(members)
        keyed.extend(((k + rng.random()) / n, i) for k, i in enumerate(members))
    keyed.sort()
    return [i for _, i in keyed]
