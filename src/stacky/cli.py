"""Command-line entry point.

Exit codes: 0 success, 1 domain or file error (e.g. exact mode for n = 5,
or an input file that cannot be read), 2 usage error.  Exact rationals are
printed as "p/q" strings in JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from . import census as census_mod
from .arith import cyclotomic_image, parse_field
from .heights import (
    a_eszb_closed,
    a_eszb_witness,
    abc_invariants,
    darda_global,
    eszb_height,
    index_raising_function,
    raising_height,
    sectors,
)
from .kummer import canonical, discriminant, is_irreducible
from .malle import _PRESET_RE, PRESETS, group_preset, malle_invariants, signature_for_field
from .permgrp import closure, parse_group_spec


def _rat(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _parse_group(spec: str):
    """A preset (named with or without "preset:") or cycle notation.  A spec
    led by a preset name is a preset, so that its own errors reach the user."""
    name = spec.removeprefix("preset:")
    lead = _PRESET_RE.match(spec)  # the preset grammar's leading word
    preset = name != spec or bool(lead) and lead[1] in PRESETS
    return closure(group_preset(name) if preset else parse_group_spec(spec))


def _parse_field(text: str, exponent: int):
    """The base field of ``--field``: Q and Q(zeta_d) as ``arith.parse_field``
    reads them, or units:m:g1,g2, where m must be the group exponent, the
    modulus the generators are read in."""
    text = text.strip()
    try:
        if not text.startswith("units:"):
            return parse_field(text)
        _, m, gens = text.split(":")
        m, gens = int(m), [int(g) for g in gens.split(",") if g]
    except ValueError:  # a bad number, or not three fields
        raise ValueError(f"cannot parse field {text!r} (Q, Q(zeta_d) or units:m:g1,g2)") from None
    if m != exponent:
        raise ValueError(f"field {text!r}: units must be mod the group exponent {exponent}")
    return gens


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload))
    else:
        for k, v in payload.items():
            print(f"{k}: {v}")


def _cmd_malle(args) -> int:
    G = _parse_group(args.group)
    if args.which == "a":
        inv = malle_invariants(G, signature_for_field(G, "Q"))
        if args.json:
            _emit({"a": _rat(inv.a), "min_index": inv.min_index}, True)
        else:
            print(_rat(inv.a) if inv.a.denominator > 1 else str(inv.a.numerator))
        return 0
    field = _parse_field(args.field, G.exponent)
    sig = cyclotomic_image(G.exponent, field)
    inv = malle_invariants(G, sig)
    payload = {
        "a": _rat(inv.a),
        "min_index": inv.min_index,
        "b": inv.b,
        "minimal_classes": list(inv.minimal_classes),
        "orbits": [list(o) for o in inv.orbits],
    }
    if args.json:
        _emit(payload, True)
    else:
        print(inv.b)
    return 0


def _cmd_kummer(args) -> int:
    cls = canonical(args.a, args.n)
    if args.which == "disc":
        res = discriminant(cls, args.mode)
        payload = {"n": args.n, "a": cls.a.value, **res.to_json()}
        _emit(payload, args.json)
    else:
        ok = is_irreducible(cls)
        _emit({"n": args.n, "a": cls.a.value, "irreducible": ok}, args.json)
    return 0


def _scale(x: float, log10: bool) -> float:
    return x / math.log(10) if log10 else x


def _cmd_height(args) -> int:
    cls = canonical(args.a, args.n)
    if args.kind == "eszb":
        h = eszb_height(cls, args.mode)
    elif args.kind == "darda":
        h = darda_global(cls, args.mode)
    else:
        h = raising_height(cls, args.mode)
    if isinstance(h, tuple):
        payload = {
            "log_value_interval": [_scale(h[0].log_value, args.log10),
                                   _scale(h[1].log_value, args.log10)],
        }
    else:
        payload = h.to_json()
        payload["log_value"] = _scale(payload["log_value"], args.log10)
    _emit(payload, args.json)
    return 0


def _cmd_sectors(args) -> int:
    tab = sectors(args.n)
    a_c, b_c = abc_invariants(index_raising_function(args.n))
    payload = {
        "n": args.n,
        "sectors": {str(j): c for j, c in tab.entries},
        "min_index": tab.min_value(),
        "a_c": _rat(a_c),
        "b_c": b_c,
    }
    _emit(payload, args.json)
    return 0


def _cmd_eszb_a(args) -> int:
    a = a_eszb_closed(args.n)
    payload = {"n": args.n, "a": _rat(a)}
    if args.witness:
        a_prime, k = float(args.witness[0]), int(args.witness[1])
        payload["witness"] = {
            "a_prime": a_prime,
            "k": k,
            "D": a_eszb_witness(args.n, a_prime, k),
        }
    _emit(payload, args.json)
    return 0


_ORDER_MAP = {"exact": "disc_exact", "tame": "disc_tame", "darda": "darda"}


def _cmd_census(args) -> int:
    kind, _, n = args.target.partition(":")
    if kind not in ("mu", "cyclic") or not n.isdigit():
        raise ValueError(f"bad target {args.target!r} (want mu:N or cyclic:N)")
    b0, bmax = float(args.B0), float(args.Bmax)
    if not 0 < b0 <= bmax < math.inf:
        raise ValueError(f"need 0 < B0 <= Bmax < inf, got B0={args.B0}, Bmax={args.Bmax}")
    doublings = round(math.log2(bmax / b0))
    spec = census_mod.LadderSpec(
        target=(kind, int(n)),
        counter=args.counter,
        ordering=_ORDER_MAP[args.order],
        b0=b0,
        doublings=doublings,
    )
    ladder = census_mod.count(spec)
    if args.out:
        ladder.to_csv(args.out)
    else:
        print("B,count")
        for b, c in ladder.points:
            print(f"{b!r},{c}")
    return 0


def _cmd_fit(args) -> int:
    ladder = census_mod.CountLadder.from_csv(args.infile)
    res = census_mod.fit(ladder)
    _emit(res.to_json(), args.json)
    return 0


def _config_flags(path: str) -> list[str]:
    """A key = value config file as flags: key = true/false toggles a
    store_true flag."""
    flags = []
    with open(path) as fh:
        for line in fh:
            key, _, val = (part.strip() for part in line.partition("="))
            if not key or key.startswith("#") or val == "false":
                continue
            flags.append(f"--{key}" if val == "true" else f"--{key}={val}")
    return flags


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stacky")
    parser.add_argument("--config", help="key=value config file; flags override")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("malle", help="counting invariants of a permutation group")
    p.add_argument("which", choices=["a", "b"])
    p.add_argument("--group", required=True)
    p.add_argument("--field", default="Q")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_malle)

    p = sub.add_parser("kummer", help="Kummer class discriminants and irreducibility")
    p.add_argument("which", choices=["disc", "irred"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--mode", choices=["exact", "tame", "interval"], default="exact")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_kummer)

    p = sub.add_parser("height", help="height of a Kummer class")
    p.add_argument("kind", choices=["eszb", "darda", "raising"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--mode", choices=["exact", "tame", "interval"], default="exact")
    p.add_argument("--log10", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_height)

    p = sub.add_parser("sectors", help="twisted sector table of Bmu_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_sectors)

    p = sub.add_parser("eszb-a", help="closed-form height growth exponent")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--witness", nargs=2, metavar=("APRIME", "K"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_eszb_a)

    p = sub.add_parser("census", help="count ladder for a census target")
    p.add_argument("--target", required=True, help="mu:N or cyclic:N")
    p.add_argument("--counter", choices=["T", "M"], default="T")
    p.add_argument("--Bmax", default="2.62144e8")
    p.add_argument("--B0", default="1e3")
    p.add_argument("--order", choices=["exact", "tame", "darda"], default="exact")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("fit", help="fit B^alpha (log B)^beta to a ladder CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_fit)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on the first ``main`` call and kept: the
    parser reads nothing from the environment."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config flags go right after the subcommand, so the explicit
            # flags that follow override them; keys the subcommand lacks
            # come back unparsed and are ignored
            i = 0
            while argv[i].startswith("-"):  # --config PATH or --config=PATH
                i += 1 if "=" in argv[i] else 2
            args, _ = parser.parse_known_args(
                argv[:i + 1] + _config_flags(args.config) + argv[i + 1:])
        return args.func(args)
    except (ValueError, OSError) as exc:  # OSError: a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
