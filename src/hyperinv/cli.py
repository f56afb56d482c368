"""Command-line front end with machine-readable JSON run reports.

Every invocation prints a single JSON object::

    {"command": ..., "version": ..., "input_digest": ..., "result": ...,
     "flags": [...]}

where version is hyperinv.__version__, and exits 0 on success, 1 on
invalid input, 2 when a search or numeric procedure was inconclusive
(errors.Inconclusive), and 3 when the invariants land on a locus point
whose group is deliberately left unclassified.  Scalars are serialized
as strings (rationals) or {"a","b","d"} objects (quadratic extension
elements), never as floats, so output can be piped back in without
losing exactness.
"""

import argparse
import hashlib
import json
import re
import sys

from . import __version__
from .curve import new_curve, to_even_degree
from .errors import (
    ExcludedLocusPoint,
    HyperinvError,
    Inconclusive,
    SearchInconclusive,
    UnknownSignature,
)
from .exact import QuadExt, rat
from .invariants import classify, igusa_clebsch, invariants_of
from .moduli import rational_model
from .moebius import MoebiusMap, is_automorphism
from .oracle import label_from_signature, reduced_group
from .symmetry import candidate_orders

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INCONCLUSIVE = 2
EXIT_EXCLUDED = 3


def _kebab(name: str) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "-", name).lower()


def _human(name: str) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", " ", name).lower()


def scalar_to_json(x):
    if isinstance(x, QuadExt):
        return {"a": str(x.a), "b": str(x.b), "d": str(x.d)}
    return str(x)


def _rational_from_json(v):
    # a JSON true or false arrives as a bool, which is an int
    if isinstance(v, (str, int)) and not isinstance(v, bool):
        return rat(v)
    raise ValueError(f"cannot parse scalar from {v!r}")


def scalar_from_json(v):
    if isinstance(v, dict):
        return QuadExt(*[_rational_from_json(v[k]) for k in "abd"])
    return _rational_from_json(v)


def curve_to_json(curve):
    n = curve.F.degree()
    return {"coefficients": [scalar_to_json(curve.F.coeff(i)) for i in range(n + 1)]}


def curve_from_json(obj):
    """Extract a curve from an input document or a piped run report."""
    node = obj
    if "curve" not in node and "result" in node:
        node = node["result"]
    if "curve" not in node or not isinstance(node["curve"], dict):
        raise ValueError("input JSON has no curve object")
    coeffs = node["curve"].get("coefficients")
    if not isinstance(coeffs, list) or not coeffs:
        raise ValueError("curve object needs a nonempty coefficients list")
    return new_curve([scalar_from_json(c) for c in coeffs])


def map_to_json(m: MoebiusMap):
    return {
        "a": scalar_to_json(m.a),
        "b": scalar_to_json(m.b),
        "c": scalar_to_json(m.c),
        "d": scalar_to_json(m.d),
    }


def _u_to_json(u):
    if u is None:
        return None
    return [scalar_to_json(x) for x in u]


def _locus_to_json(locus):
    if locus is None:
        return None
    return {"minus": scalar_to_json(locus[0]), "plus": scalar_to_json(locus[1])}


def _parse_scalar_list(text: str, what: str):
    parts = [p.strip() for p in text.split(",")]
    if any(not p for p in parts):
        raise ValueError(f"malformed {what} list: {text!r}")
    return tuple(rat(p) for p in parts)


def _read_curve(path, ctx):
    if path == "-":
        raw = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            raw = fh.read()
    ctx["digest"] = hashlib.sha256(raw).hexdigest()
    obj = json.loads(raw.decode("utf-8"))
    return curve_from_json(obj)


def _args_digest(ctx, **kwargs):
    blob = json.dumps(kwargs, sort_keys=True).encode("utf-8")
    ctx["digest"] = hashlib.sha256(blob).hexdigest()


def cmd_classify(args, ctx):
    curve = _read_curve(args.file, ctx)
    res = classify(curve)
    flags = list(res.flags)
    result = {
        "genus": curve.genus,
        "u": _u_to_json(res.invariants),
        "locus": _locus_to_json(res.locus),
        "group": res.label.name,
        "reduced_order": res.label.reduced_order,
        "lift_flag": res.label.lift_flag,
        "flags": flags,
    }
    if res.candidate_orders:
        result["candidate_orders"] = list(res.candidate_orders)
    if curve.genus == 2:
        result["igusa_clebsch"] = [str(v) for v in igusa_clebsch(curve)]
    return result, flags


def cmd_invariants(args, ctx):
    curve = _read_curve(args.file, ctx)
    res = invariants_of(curve)
    result = {
        "genus": curve.genus,
        "u": _u_to_json(res.invariants),
        "locus": _locus_to_json(res.locus),
    }
    return result, list(res.flags)


def cmd_normal_form(args, ctx):
    curve = _read_curve(args.file, ctx)
    _, degree_map = to_even_degree(curve)
    res = invariants_of(curve)
    if res.model_coeffs is None:
        raise SearchInconclusive(
            "normal form: curve has no usable reduced involution "
            f"(genus {curve.genus}, {len(res.certificates)} certificates)")
    total_map = res.model_map.compose(degree_map.inverse())
    radicands = sorted(
        {str(x.d) for x in (*res.model_coeffs, *total_map.entries())
         if isinstance(x, QuadExt)}
    )
    radicand = radicands[0] if len(radicands) == 1 else (radicands or None)
    result = {
        "genus": curve.genus,
        "b": [scalar_to_json(x) for x in res.model_coeffs],
        "map": map_to_json(total_map),
        "radicand": radicand,
    }
    return result, list(res.flags)


def cmd_rational_model(args, ctx):
    _args_digest(ctx, genus=args.genus, u=args.u)
    u = _parse_scalar_list(args.u, "u")
    if args.genus is not None and args.genus != len(u):
        raise ValueError(
            f"--genus {args.genus} does not match {len(u)} invariant components"
        )
    res = rational_model(u)
    result = {
        "genus": len(u),
        "curve": curve_to_json(res.curve),
        "branch": res.branch,
        "verified": res.verified,
    }
    return result, []


def cmd_check_map(args, ctx):
    curve = _read_curve(args.file, ctx)
    entries = _parse_scalar_list(args.map, "map")
    if len(entries) != 4:
        raise ValueError("--map needs exactly four entries a,b,c,d")
    m = MoebiusMap(*entries)
    lam = is_automorphism(curve.F, m, 2 * curve.genus + 2)
    result = {
        "is_automorphism": lam is not None,
        "lambda": scalar_to_json(lam) if lam is not None else None,
        "order": m.order(64),
    }
    return result, []


def cmd_oracle(args, ctx):
    curve = _read_curve(args.file, ctx)
    grp = reduced_group(curve, args.tol)
    flags = []
    try:
        label = label_from_signature(curve.genus, grp).name
    except UnknownSignature:
        flags.append("unknown-signature")
        label = "flagged-other"
    result = {
        "reduced_order": grp.order,
        "element_orders": list(grp.element_orders),
        "label": label,
    }
    return result, flags


def cmd_candidates(args, ctx):
    _args_digest(ctx, genus=args.genus)
    co = candidate_orders(args.genus)
    return {"genus": co.genus, "orders": list(co.orders)}, []


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hyperinv",
        description="Exact dihedral invariants and symmetry groups of "
        "hyperelliptic curves Y^2 = F(X).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, needs_file=True):
        p = sub.add_parser(name, help=help_text)
        if needs_file:
            p.add_argument("file", help="curve JSON file, or - for stdin")
        p.set_defaults(handler=handler)
        return p

    add("classify", cmd_classify,
        "invariants, locus factors, and the symmetry group label")
    add("invariants", cmd_invariants,
        "dihedral invariants and locus factors only")
    add("normal-form", cmd_normal_form,
        "even model coefficients, the coordinate map, and its field")

    p = add("rational-model", cmd_rational_model,
            "reconstruct a curve from a locus point", needs_file=False)
    p.add_argument("--u", required=True,
                   help="comma-separated invariants, e.g. 16,8")
    p.add_argument("--genus", type=int, default=None,
                   help="expected genus (validated against --u)")

    p = add("check-map", cmd_check_map,
            "test whether a fractional linear map is a reduced symmetry")
    p.add_argument("--map", required=True,
                   help="comma-separated map entries a,b,c,d")

    p = add("oracle", cmd_oracle,
            "numeric branch-permutation group and its label")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="matching tolerance in (0, 1e-4] (default 1e-9)")

    p = add("candidates", cmd_candidates,
            "possible orders of larger cyclic reduced symmetries",
            needs_file=False)
    p.add_argument("--genus", type=int, required=True)

    return parser


def _emit(command, digest, result, flags, code):
    report = {
        "command": command,
        "version": __version__,
        "input_digest": digest,
        "result": result,
        "flags": sorted(set(flags)),
    }
    json.dump(report, sys.stdout, ensure_ascii=False)
    sys.stdout.write("\n")
    return code


def _emit_error(command, ctx, exc, code):
    name = type(exc).__name__
    return _emit(command, ctx["digest"],
                 {"error": _human(name), "detail": str(exc)},
                 [_kebab(name)], code)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    ctx = {"digest": None}
    command = args.command
    try:
        result, flags = args.handler(args, ctx)
    except ExcludedLocusPoint as exc:
        return _emit_error(command, ctx, exc, EXIT_EXCLUDED)
    except Inconclusive as exc:
        return _emit_error(command, ctx, exc, EXIT_INCONCLUSIVE)
    except json.JSONDecodeError as exc:
        return _emit(command, ctx["digest"],
                     {"error": "malformed JSON", "detail": str(exc)},
                     ["malformed-json"], EXIT_INVALID)
    except OSError as exc:
        return _emit(command, ctx["digest"],
                     {"error": "unreadable input", "detail": str(exc)},
                     ["unreadable-input"], EXIT_INVALID)
    except (HyperinvError, ValueError, KeyError, TypeError) as exc:
        return _emit_error(command, ctx, exc, EXIT_INVALID)
    return _emit(command, ctx["digest"], result, flags, EXIT_OK)


if __name__ == "__main__":
    sys.exit(main())
