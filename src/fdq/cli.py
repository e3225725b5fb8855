"""Command-line front door: single-shot computations, batch property suites,
and machine-readable reports.

Exit codes: 0 success, 1 suite failures, 2 usage error, 3 core error (the
message names the error class).  All numeric output is exact canonical text
or JSON; identical argv + config + seed produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .errors import ConfigError, FdqError, SchemaError
from .exprio import (deserialize, observable_text, operator_text, parse,
                     parse_series, serialize, series_text)
from .functionals import deform_delta, delta, evaluate
from .matrices import MatrixStarAlgebra, SeriesMatrix
from .modules import (MoritaClassData, PreHilbertModule, fedosov_project,
                      morita_class_check, rieffel_tensor)
from .observables import involution
from .reps import (MatrixFunctional, fock_inner, gns_build, schroedinger_rep,
                   wickrep)
from .star import (builtin_spec, check_star_axioms, commutator,
                   star_exponential_beta, star_multiply)
from .suites import property_suite, suite_names

_DEFAULTS = {"K": 6, "n": 1, "product": "weyl", "output": "text", "seed": 0}


class RunConfig:
    """Validated run configuration; identical config and seed give identical
    output bytes."""

    __slots__ = ("K", "n", "product", "seed", "output")

    def __init__(self, K=6, n=1, product="weyl", seed=0, output="text"):
        if K < 1:
            raise ConfigError("K must be >= 1")
        if n < 1:
            raise ConfigError("n must be >= 1")
        if output not in ("text", "json"):
            raise ConfigError(f"output must be text or json, got {output!r}")
        if not (product in ("weyl", "wick", "std")
                or product.startswith("custom:")):
            raise ConfigError(f"unknown product {product!r}")
        self.K = K
        self.n = n
        self.product = product
        self.seed = seed
        self.output = output


def _parse_config_file(path):
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip().strip('"')
        if key in ("K", "n", "seed"):
            try:
                values[key] = int(raw)
            except ValueError:
                raise ConfigError(f"config key {key} needs an integer, "
                                  f"got {raw!r}")
        elif key in ("product", "output"):
            values[key] = raw
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return values


def config_load(args):
    """Merge defaults, config file (FDQ_CONFIG or --config), and flags."""
    values = dict(_DEFAULTS)
    path = getattr(args, "config", None) or os.environ.get("FDQ_CONFIG")
    if path:
        values.update(_parse_config_file(path))
    for key in ("K", "n", "product", "seed"):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if getattr(args, "json", False):
        values["output"] = "json"
    return RunConfig(**values)


def _read_json_file(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}")


def _resolve_spec(config):
    if config.product.startswith("custom:"):
        path = config.product.split(":", 1)[1]
        payload = _read_json_file(path, "product")
        if isinstance(payload, dict) and payload.get("type") != "star_product":
            raise SchemaError(f"product file {path} holds no star_product",
                              "/type")
        return deserialize(payload)
    return builtin_spec(config.product, config.n, config.K)


def _emit(config, text_value, json_value):
    if config.output == "json":
        return json.dumps(json_value, sort_keys=True)
    return text_value


def _parse_point(text, width):
    if text.strip() == "0":
        coords = ["0"] * width
    else:
        coords = [c.strip() for c in text.split(",")]
    if len(coords) != width:
        raise ConfigError(
            f"point needs {width} comma-separated rationals, got {len(coords)}")
    out = []
    for c in coords:
        series = parse_series(c, 1)
        out.append(series.classical_limit())
    return out


def _matrix_from_arg(text, order):
    message = "matrix argument must be JSON rows of series strings"
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{message}: {exc}")
    if not (isinstance(rows, list) and all(
            isinstance(row, list) and all(isinstance(e, str) for e in row)
            for row in rows)):
        raise ConfigError(message)
    return SeriesMatrix([[parse_series(e, order) for e in row]
                         for row in rows], order)


# -- subcommand implementations ----------------------------------------------------


def _cmd_binary(args, config, out, err):
    """``star`` and ``commutator``: ``args.operation`` on two observables."""
    spec = _resolve_spec(config)
    chart = spec.signature.chart
    f = parse(args.f, config.n, config.K, chart)
    g = parse(args.g, config.n, config.K, chart)
    result = args.operation(spec, f, g)
    out.write(_emit(config, observable_text(result), serialize(result)) + "\n")
    return 0


def _cmd_starexp(args, config, out, err):
    if args.order < 0:
        raise ConfigError("--order must be >= 0")
    spec = _resolve_spec(config)
    h = parse(args.h, config.n, config.K, spec.signature.chart)
    coeffs = star_exponential_beta(spec, h, args.order)
    if config.output == "json":
        out.write(json.dumps([serialize(c) for c in coeffs], sort_keys=True)
                  + "\n")
    else:
        for k, c in enumerate(coeffs):
            out.write(f"e{k} = {observable_text(c)}\n")
    return 0


def _cmd_functional(args, config, out, err):
    spec = _resolve_spec(config)
    sig = spec.signature
    point = _parse_point(args.delta, sig.width)
    if args.deform:
        w = deform_delta(sig, point, config.K)
    else:
        w = delta(sig, point)
    f = parse(args.f, config.n, config.K, sig.chart)
    if args.square:
        f_val = star_multiply(spec, involution(f), f)
    else:
        f_val = f
    value = evaluate(w, f_val)
    out.write(_emit(config, series_text(value), serialize(value)) + "\n")
    return 0


def _write_operator(config, out, op):
    text = operator_text(op)
    payload = {"schema_version": 1, "type": "diff_operator", "text": text}
    out.write(_emit(config, text, payload) + "\n")


def _cmd_fock(args, config, out, err):
    if args.inner:
        phi = parse(args.inner[0], config.n, config.K, "fock")
        psi = parse(args.inner[1], config.n, config.K, "fock")
        value = fock_inner(phi, psi)
        out.write(_emit(config, series_text(value), serialize(value)) + "\n")
    else:
        _write_operator(config, out,
                        wickrep(parse(args.rep, config.n, config.K, "holo")))
    return 0


def _cmd_schroedinger(args, config, out, err):
    f = parse(args.f, config.n, config.K, "real")
    _write_operator(config, out, schroedinger_rep(args.kind, f))
    return 0


def _cmd_gns(args, config, out, err):
    weights = _matrix_from_arg(args.omega, config.K)
    deform = _matrix_from_arg(args.deform, config.K) if args.deform else None
    algebra = MatrixStarAlgebra(weights.nrows, config.K, deform=deform)
    result = gns_build(algebra, MatrixFunctional(weights))
    if config.output == "json":
        out.write(json.dumps(result.to_json(), sort_keys=True) + "\n")
    else:
        out.write(f"dimension {result.dimension}; basis "
                  f"{' '.join(result.basis_labels())}\n")
        for i, row in enumerate(result.gram.rows):
            out.write("gram[%d] = %s\n"
                      % (i, ", ".join(series_text(e) for e in row)))
    return 0


def _cmd_project(args, config, out, err):
    p0 = _matrix_from_arg(args.p0, config.K)
    deform = _matrix_from_arg(args.deform, config.K) if args.deform else None
    algebra = MatrixStarAlgebra(p0.nrows, config.K, deform=deform)
    p = fedosov_project(p0, algebra)
    if config.output == "json":
        out.write(json.dumps(p.to_json(), sort_keys=True) + "\n")
    else:
        for i, row in enumerate(p.rows):
            out.write("P[%d] = %s\n"
                      % (i, ", ".join(series_text(e) for e in row)))
    return 0


def _load_module_json(path, order):
    payload = _read_json_file(path, "module")
    if not isinstance(payload, dict) or "rank" not in payload \
            or "gram" not in payload:
        raise SchemaError("module JSON needs rank and gram", "/")
    base = payload.get("base", {})
    m = base.get("m", 1) if isinstance(base, dict) else 1
    if not isinstance(m, int) or m < 1:
        raise SchemaError("base m must be a positive integer", "/base/m")
    rank = payload["rank"]
    if not isinstance(rank, int) or rank < 0:
        raise SchemaError("rank must be a nonnegative integer", "/rank")
    if not (isinstance(payload["gram"], list)
            and all(isinstance(row, list) for row in payload["gram"])):
        raise SchemaError("gram must be a list of rows", "/gram")
    algebra = MatrixStarAlgebra(m, order)
    gram = []
    for i, row in enumerate(payload["gram"]):
        grow = []
        for j, entry in enumerate(row):
            if isinstance(entry, str):
                grow.append(SeriesMatrix([[parse_series(entry, order)]],
                                         order))
            else:
                from .matrices import matrix_from_json
                grow.append(matrix_from_json(entry, f"/gram/{i}/{j}")
                            .reduce_order(order))
        gram.append(grow)
    return PreHilbertModule(algebra, rank, gram)


def _cmd_rieffel(args, config, out, err):
    f_mod = _load_module_json(args.f_module, config.K)
    e_mod = _load_module_json(args.e_module, config.K)
    # The CLI wires the canonical left actions: B = scalars acts by
    # multiplication; B = M_r acts on a rank-r scalar module as columns.
    b = f_mod.base
    if b.m == 1 and e_mod.base.m == 1:
        e_mod.left_algebra = b
        e_mod.left_action = lambda s, d=e_mod.rank: [
            [s if r == q else SeriesMatrix.zero(1, 1, config.K)
             for q in range(d)] for r in range(d)]
    elif e_mod.base.m == 1 and e_mod.rank == b.m:
        e_mod.left_algebra = b
        e_mod.left_action = lambda mat, d=e_mod.rank: [
            [SeriesMatrix([[mat.rows[r][q]]], config.K) for q in range(d)]
            for r in range(d)]
    else:
        raise ConfigError("CLI induction supports scalar modules with the "
                          "canonical left action only")
    induced = rieffel_tensor(f_mod, e_mod)
    if config.output == "json":
        out.write(json.dumps(induced.to_json(), sort_keys=True) + "\n")
    else:
        out.write(f"rank {induced.rank} over {induced.base.name}\n")
        for i in range(induced.rank):
            row = ", ".join(series_text(induced.gram[i][j].rows[0][0])
                            if induced.base.m == 1 else "<matrix>"
                            for j in range(induced.rank))
            out.write(f"gram[{i}] = {row}\n")
    return 0


def _cmd_morita(args, config, out, err):
    m = args.m
    if args.diff is not None:
        coords = [parse_series(t.strip(), config.K)
                  for t in args.diff.split(",")]
        c1 = MoritaClassData(m, [s - s for s in coords])
        c2 = MoritaClassData(m, coords)
    else:
        if not (args.c1 and args.c2):
            raise ConfigError("morita needs either --diff or both --c1/--c2")
        c1 = MoritaClassData(m, [parse_series(t.strip(), config.K)
                                 for t in args.c1.split(",")])
        c2 = MoritaClassData(m, [parse_series(t.strip(), config.K)
                                 for t in args.c2.split(",")])
    verdict = morita_class_check(c1, c2)
    payload = {"schema_version": 1, "type": "morita_verdict",
               "verdict": verdict.value}
    out.write(_emit(config, verdict.value, payload) + "\n")
    return 0


def _cmd_axioms(args, config, out, err):
    if args.degree < 0:
        raise ConfigError("--degree must be >= 0")
    spec = _resolve_spec(config)
    report = check_star_axioms(spec, args.degree)
    if config.output == "json":
        out.write(json.dumps(report.to_json(), sort_keys=True) + "\n")
    else:
        for name, (ok, witness) in report.checks.items():
            line = f"{name}: {'pass' if ok else 'FAIL'}"
            if witness:
                line += f" witness {witness}"
            out.write(line + "\n")
    return 0


def _cmd_suite(args, config, out, err):
    reports = property_suite(args.name, config)
    failures = 0
    if config.output == "json":
        out.write(json.dumps([r.to_json() for r in reports], sort_keys=True)
                  + "\n")
    else:
        for r in reports:
            out.write(r.text() + "\n")
    for r in reports:
        failures += len(r.failures)
        err.write(f"[{r.name}] {r.elapsed:.2f}s\n")
    return 1 if failures else 0


def _common_options():
    """Global flags, attachable before or after the subcommand."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--K", type=int, default=argparse.SUPPRESS,
                        help="truncation order (default 6)")
    common.add_argument("--n", type=int, default=argparse.SUPPRESS,
                        help="degrees of freedom (default 1)")
    common.add_argument("--product", default=argparse.SUPPRESS,
                        help="weyl|wick|std|custom:<file>")
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS,
                        help="emit JSON instead of canonical text")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for sampled suites")
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="key=value config file (or FDQ_CONFIG)")
    return common


def _build_parser():
    common = _common_options()
    parser = argparse.ArgumentParser(
        prog="fdq",
        parents=[common],
        description="Exact workbench for star products, states, and modules "
                    "over truncated formal series.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    for name, operation, text in (
            ("star", star_multiply, "star-multiply two observables"),
            ("commutator", commutator, "star commutator of two observables")):
        p = add_parser(name, help=text)
        p.add_argument("f")
        p.add_argument("g")
        p.set_defaults(func=_cmd_binary, operation=operation)

    p = add_parser("starexp", help="beta-coefficients of the star "
                                       "exponential")
    p.add_argument("--order", type=int, default=4)
    p.add_argument("h")
    p.set_defaults(func=_cmd_starexp)

    p = add_parser("functional", help="evaluate a point functional")
    p.add_argument("--delta", default="0",
                   help="base point (comma-separated rationals, or 0)")
    p.add_argument("--deform", action="store_true",
                   help="compose with exp(l Delta) (positive deformation)")
    p.add_argument("--square", action="store_true",
                   help="evaluate omega(conj(f) * f) instead of omega(f)")
    p.add_argument("f")
    p.set_defaults(func=_cmd_functional)

    p = add_parser("fock", help="Bargmann-Fock operators and inner "
                                    "products")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--inner", nargs=2, metavar=("PHI", "PSI"))
    group.add_argument("--rep", metavar="F")
    p.set_defaults(func=_cmd_fock)

    p = add_parser("schroedinger", help="wave-function operator of an "
                                            "observable")
    p.add_argument("--kind", choices=("weyl", "std"), default="weyl")
    p.add_argument("f")
    p.set_defaults(func=_cmd_schroedinger)

    p = add_parser("gns", help="GNS data of a matrix functional")
    p.add_argument("--omega", required=True,
                   help='weights as JSON rows of series strings, e.g. '
                        '[["1","0"],["0","l"]]')
    p.add_argument("--deform", default=None,
                   help="deformation matrix E (same JSON form)")
    p.set_defaults(func=_cmd_gns)

    p = add_parser("project", help="deform a classical idempotent")
    p.add_argument("--p0", required=True, help="matrix JSON rows")
    p.add_argument("--deform", default=None, help="deformation matrix E")
    p.set_defaults(func=_cmd_project)

    p = add_parser("rieffel", help="internal tensor product of modules")
    p.add_argument("f_module", help="module JSON file (left factor)")
    p.add_argument("e_module", help="module JSON file (right factor)")
    p.set_defaults(func=_cmd_rieffel)

    p = add_parser("morita", help="characteristic-class equivalence "
                                      "decision")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--diff", default=None,
                   help="difference class, comma-separated series")
    p.add_argument("--c1", default=None)
    p.add_argument("--c2", default=None)
    p.set_defaults(func=_cmd_morita)

    p = add_parser("axioms", help="check the star-product axioms")
    p.add_argument("--degree", type=int, default=3)
    p.set_defaults(func=_cmd_axioms)

    p = add_parser("suite", help="run a property suite")
    p.add_argument("name", choices=suite_names())
    p.set_defaults(func=_cmd_suite)

    return parser


# The parser of this process and the suite names it was built for: those
# names are the only input of _build_parser that can change at run time.
_parser_cache = (None, None)


def _parser():
    global _parser_cache
    key = tuple(suite_names())
    if _parser_cache[0] != key:
        _parser_cache = (key, _build_parser())
    return _parser_cache[1]


def run_command(argv, out=None, err=None):
    """Execute one CLI invocation; returns the exit status.

    ``out`` and ``err`` default to the process streams; tests pass buffers.
    Help (exit 0) goes to ``out`` and usage errors (exit 2) to ``err``.
    """
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        # argparse writes to sys.stdout/sys.stderr as it finds them.
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = config_load(args)
        return args.func(args, config, out, err)
    except FdqError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=err)
        return 3


def main(argv=None):
    sys.exit(run_command(argv if argv is not None else sys.argv[1:]))


if __name__ == "__main__":
    main()
