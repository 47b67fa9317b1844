"""Command-line front end: enumeration, transforms, convolutions, experiments.

Every subcommand is deterministic given its flags and input files: JSON is
emitted with sorted keys, the randomized verification suites take an explicit
seed with a fixed default, and no payload carries a timestamp.  Errors of any
kind — unknown flags, malformed JSON, domain violations — leave the message
on stderr and exit with status 2.
"""
from __future__ import annotations

import argparse
import cmath
import csv
import json
import re
import sys

from .errors import ArgumentError
from .measures import (
    CircleMeasure,
    IdGenerator,
    MeasurePair,
    _pick_mode,
    boolean_convolve,
    cfree_multiplicative_convolve,
    free_multiplicative_convolve,
    idiv_boolean_measure,
    idiv_free_measure,
    limit_experiment,
    semigroup_pair,
)
from .partitions import (
    count_nc,
    count_nc_s,
    enumerate_nc_0,
    enumerate_nc_s,
    enumerate_ncl,
    iter_nc,
    ncl_classify,
)
from .series import TruncatedSeries, _json_float, _json_fraction, _json_pair
from .transforms import b_series, ct_transform, eta, sigma_series, t_transform
from .transforms import cfree_cumulants_from_moments, free_cumulants_from_moments


def _print_json(payload):
    print(json.dumps(payload, sort_keys=True))


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _is_pair(data):
    return isinstance(data, dict) and "mu" in data and "nu" in data


def _load_measure(path, probability=True):
    data = _load_json(path)
    if _is_pair(data):
        raise ArgumentError(f"{path} holds a measure pair; a single measure is needed here")
    return CircleMeasure.from_json(data, probability=probability)


def _load_pair(path):
    data = _load_json(path)
    if not _is_pair(data):
        raise ArgumentError(f"{path} must hold an object with 'mu' and 'nu' measures")
    return MeasurePair(
        CircleMeasure.from_json(data["mu"]), CircleMeasure.from_json(data["nu"])
    )


def _pair_json(pair):
    return {"mu": pair.mu.to_json(), "nu": pair.nu.to_json()}


def _parse_complex(text):
    """The ``--gamma`` value: 'RE,IM' or a Python complex literal such as 0.8+0.6j.

    Text that does not parse, or a part beyond a double (1e400), is refused
    by the flag's name; a NaN part reaches ``IdGenerator``, which refuses it
    as off the unit circle.
    """
    parts = text.split(",")
    try:
        value = complex(*map(float, parts)) if len(parts) == 2 else complex(text.replace(" ", ""))
    except ValueError:
        value = None
    if value is None or cmath.isinf(value):
        raise ArgumentError(f"--gamma must be 'RE,IM' or a complex literal with finite parts, not {text!r}")
    return value


_INTEGER = re.compile(r"\s*-?[0-9]+\s*", re.ASCII)


def _integer(text):
    """An integer flag's value: ASCII digits after an optional '-', blanks around them allowed.

    ``int`` alone would also take '_' between digits, a '+' sign and the
    decimal digits of every script.
    """
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _jsonable(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_nc(args):
    # NC and NC_s are counted in closed form; NC_0 is built from NC(n/2) and
    # counted as built.  NC is listed as generated.
    if args.count_only:
        count = {"nc": count_nc, "nc_s": count_nc_s}.get(args.cls, lambda n: len(enumerate_nc_0(n)))
        print(count(args.n))
        return 0
    for p in {"nc": iter_nc, "nc_s": enumerate_nc_s, "nc_0": enumerate_nc_0}[args.cls](args.n):
        _print_json(p.to_json())
    return 0


def _cmd_ncl(args):
    for g in enumerate_ncl(args.n):
        payload = g.to_json()
        if args.classify:
            exterior, interior, singly, doubly = ncl_classify(g)
            payload["exterior"] = [list(b) for b in exterior]
            payload["interior"] = [list(b) for b in interior]
            payload["singly_covered"] = sorted(singly)
            payload["doubly_covered"] = sorted(doubly)
        _print_json(payload)
    return 0


_ONE_STATE_TRANSFORMS = {
    "r": free_cumulants_from_moments,
    "t": t_transform,
    "eta": eta,
    "b": b_series,
}

_TWO_STATE_TRANSFORMS = {
    "cr": cfree_cumulants_from_moments,
    "ct": ct_transform,
    "sigma": sigma_series,
}


def _cmd_transform(args):
    if args.what in _TWO_STATE_TRANSFORMS:
        pair = _load_pair(args.infile)
        mode = _pick_mode(None, pair.mu, pair.nu)
        out = _TWO_STATE_TRANSFORMS[args.what](
            pair.mu.moment_series(args.order, mode), pair.nu.moment_series(args.order, mode)
        )
    else:
        out = _ONE_STATE_TRANSFORMS[args.what](_load_measure(args.infile).moment_series(args.order))
    _print_json(out.to_json())
    return 0


def _cmd_convolve(args):
    if args.kind == "cfree":
        out = cfree_multiplicative_convolve(
            _load_pair(args.a), _load_pair(args.b), args.order
        )
        _print_json(_pair_json(out))
    else:
        convolve = boolean_convolve if args.kind == "boolean" else free_multiplicative_convolve
        out = convolve(_load_measure(args.a), _load_measure(args.b), args.order)
        _print_json(out.to_json())
    return 0


def _cmd_idiv(args):
    sigma = _load_measure(args.sigma, probability=False) if args.sigma else None
    generator = IdGenerator(_parse_complex(args.gamma), sigma)
    build = idiv_boolean_measure if args.kind == "boolean" else idiv_free_measure
    _print_json(build(generator, args.order).to_json())
    return 0


def _cmd_semigroup(args):
    data = _load_json(args.gen)
    if not isinstance(data, dict) or "gamma" not in data:
        raise ArgumentError(f"{args.gen} must hold a generator object with a 'gamma' entry")
    what = f"gamma in {args.gen}"
    gamma = complex(*(_json_float(x, what) for x in _json_pair(data["gamma"], what)))
    sigma = None
    if data.get("sigma") is not None:
        sigma = CircleMeasure.from_json(data["sigma"], probability=False)
    generator = IdGenerator(gamma, sigma)
    target = TruncatedSeries.from_json(_load_json(args.sigma_target))
    pair = semigroup_pair(generator, target, _json_fraction(args.t, "--t"), args.order)
    _print_json(_pair_json(pair))
    return 0


def _cmd_limit(args):
    try:
        n_list = tuple(_integer(chunk) for chunk in args.n_list.split(",") if chunk.strip())
    except argparse.ArgumentTypeError:
        raise ArgumentError(f"--n-list must be comma-separated integers, not {args.n_list!r}") from None
    if not n_list:
        raise ArgumentError("--n-list must name at least one size")
    report = limit_experiment(
        _json_fraction(args.s, "--s"), _json_fraction(args.omega, "--omega"), n_list, args.order
    )
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "j", "gap"])
        for row in report["rows"]:
            writer.writerow([row["n"], row["j"], repr(row["gap"])])
    _print_json(_jsonable(report["summary"]))
    return 0


def _cmd_verify(args):
    from . import verify  # only this subcommand loads the check registry

    order = verify.DEFAULT_ORDER if args.order is None else args.order
    seed = verify.DEFAULT_SEED if args.seed is None else args.seed
    rows = verify.run(args.suite, order, seed)
    width = max(len(name) for name, _, _ in rows)
    failed = [name for name, ok, _ in rows if not ok]
    for name, ok, detail in rows:
        print(f"{'ok  ' if ok else 'FAIL'} {name:<{width}}  {detail}")
    print(f"{len(rows) - len(failed)}/{len(rows)} checks passed")
    return 0 if not failed else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Suites:
    """The choices of ``verify --suite``: the registry's suites and 'all'.

    The registry loads when argparse first reads them, to check a --suite
    value or to print help, so that no other subcommand imports it.
    """

    def __iter__(self):
        from .verify import SUITES

        return iter(SUITES + ("all",))

    def __contains__(self, name):
        return name in tuple(self)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cfreeconv",
        description="Partition enumeration, moment transforms, and "
        "multiplicative convolutions on the unit circle.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("nc", help="enumerate noncrossing partitions")
    p.add_argument("--n", type=_integer, required=True, help="number of points")
    p.add_argument(
        "--class",
        dest="cls",
        choices=("nc", "nc_s", "nc_0"),
        default="nc",
        help="all noncrossing, printed as they are generated; parity-constant; or parity-alternating with even exteriors",
    )
    p.add_argument(
        "--count-only",
        action="store_true",
        help="print the count instead of the partitions; nc and nc_s are counted in closed form, without enumerating",
    )
    p.set_defaults(handler=_cmd_nc)

    p = sub.add_parser("ncl", help="enumerate noncrossing linked partitions")
    p.add_argument("--n", type=_integer, required=True, help="number of points")
    p.add_argument(
        "--classify",
        action="store_true",
        help="annotate each partition with exterior/interior blocks and cover classes",
    )
    p.set_defaults(handler=_cmd_ncl)

    p = sub.add_parser("transform", help="compute a transform of a law from moment data")
    p.add_argument("--in", dest="infile", required=True, metavar="MOMENTS.JSON",
                   help="measure JSON; a {'mu':…, 'nu':…} pair for cr/ct/sigma")
    p.add_argument("--what", required=True, choices=("r", "cr", "t", "ct", "eta", "b", "sigma"))
    p.add_argument("--order", type=_integer, default=8, help="truncation order (default 8)")
    p.set_defaults(handler=_cmd_transform)

    p = sub.add_parser("convolve", help="convolve two laws (or two pairs of laws)")
    p.add_argument("--kind", required=True, choices=("boolean", "free", "cfree"))
    p.add_argument("--a", required=True, metavar="A.JSON")
    p.add_argument("--b", required=True, metavar="B.JSON")
    p.add_argument("--order", type=_integer, default=8, help="truncation order (default 8)")
    p.set_defaults(handler=_cmd_convolve)

    p = sub.add_parser("idiv", help="build an infinitely divisible law from a generator")
    p.add_argument("--gamma", required=True, help="unit-modulus scalar: 'RE,IM' or a complex literal")
    p.add_argument("--sigma", metavar="SIGMA.JSON",
                   help="finite (not necessarily normalized) atomic measure JSON; omitted = zero")
    p.add_argument("--kind", required=True, choices=("boolean", "free"))
    p.add_argument("--order", type=_integer, default=8, help="truncation order (default 8)")
    p.set_defaults(handler=_cmd_idiv)

    p = sub.add_parser("semigroup", help="evolve a pair of laws along its convolution semigroup")
    p.add_argument("--gen", required=True, metavar="GEN.JSON",
                   help="generator JSON: {'gamma': [re, im], 'sigma': <measure JSON>}")
    p.add_argument("--sigma-target", required=True, metavar="S.JSON",
                   help="series JSON for the time-one two-state transform")
    p.add_argument("--t", required=True, help="time, a nonnegative rational such as 1/2 or 0.25")
    p.add_argument("--order", type=_integer, default=8, help="truncation order (default 8)")
    p.set_defaults(handler=_cmd_semigroup)

    p = sub.add_parser("limit", help="compare n-fold pair convolutions with n-fold boolean ones")
    p.add_argument("--s", required=True, help="off-atom mass, a rational in [0, 1]")
    p.add_argument("--omega", required=True, help="off-atom position in turns, a rational")
    p.add_argument("--n-list", default="4,8,16,32", help="comma-separated fold counts")
    p.add_argument("--order", type=_integer, default=4, help="highest compared coefficient (default 4)")
    p.add_argument("--out", required=True, metavar="REPORT.CSV", help="per-(n, j) gap table")
    p.set_defaults(handler=_cmd_limit)

    p = sub.add_parser("verify", help="run the self-check suites")
    # Set after add_argument, which would list the choices at once.
    p.add_argument("--suite", default="all").choices = _Suites()
    p.add_argument("--order", type=_integer)
    p.add_argument("--seed", type=_integer)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, KeyError, TypeError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
