"""Command-line driver: reproducible experiments with JSON/CSV reports.

Subcommands: wigner-verify, invariant-state, crossed, entropy, bundle.
Each takes --config and --out plus one flag per setting it reads (SETTINGS).
A setting comes from its flag if given, else from its key in the --config
JSON object (null counts as absent), else from its default.  Every setting
is checked before the run starts (_FLAGS): an integer setting takes an
integer (bools are not integers), and count, dim, generators, max_n and
ambient_cap are at least 1, tensor_factors at least 2; tol is a finite
number above 0; a string setting takes a string, one of its choices if it
has any.  A config key other than schema_version that names no setting of
the subcommand is an error, and so is a flag the subcommand does not read.
The resolved settings are the run's one config object.  Every JSON report,
error reports included, embeds it whole as report["config"]; passed back
as --config it replays the run.
Exit codes: 0 success, 1 usage/config error, 2 verified-contract violation.
Timestamps live in a separate "meta" field so the "report" subtree is
byte-identical for identical (config, seed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from numbers import Real
from pathlib import Path

from . import __version__
from . import groups as G
from .bundle import FieldAssignmentError, assign_invariant_field, bundle_spec_from_json
from .crossed import CrossedProductModel, covariance_check, crossed_dimension, tensor_iso_check
from .entropy import PartitionWeights, partition_entropy
from .matrixcore import int_from_json
from .states import (
    DensityState,
    haar_average,
    invariance_residual,
    is_separating,
    random_density,
)
from .wigner import NoConvergence, WignerProblem, standard_problem_batch, verify_wigner_identity

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CONTRACT = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the documented contract wants 1
    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


# The settings of each subcommand with their defaults.  Each is a flag
# --<key> (dashes for underscores) and a config key <key>, except "points",
# which only a config file gives.
SETTINGS = {
    "wigner-verify": {"count": 200, "seed": 2026, "tol": 1e-10, "group": None, "dim": None},
    "invariant-state": {"seed": 0, "tol": 1e-7, "group": "su2", "dim": None, "method": "auto",
                        "generators": 3, "count": 4096, "state": None},
    "crossed": {"group": "zn:2", "dim": 2, "action": "rep", "tensor_factors": None,
                "ambient_cap": 64},
    "entropy": {"max_n": 8, "format": "csv"},
    "bundle": {"seed": 0, "points": [{"label": "x0", "rep": {"kind": "su2", "dim": 2}}]},
}

# argparse keywords of each flag, plus "min", the least value of an integer
# setting; a setting without a "type" is a string
_FLAGS = {
    "count": {"type": int, "min": 1, "help": "number of problems, or of Monte Carlo samples"},
    "seed": {"type": int, "help": "RNG seed"},
    "tol": {"type": float, "help": "tolerance, finite and > 0"},
    "group": {"help": "group: su2, su3, u1, q8, zn:<n>, file:<path>"},
    "dim": {"type": int, "min": 1, "help": "representation dimension"},
    "method": {"choices": ("auto", "quadrature", "montecarlo", "finite_exact", "cesaro")},
    "generators": {"type": int, "min": 1, "help": "Cesaro Haar samples (Lie groups only)"},
    "state": {"help": "seed state JSON file"},
    "action": {"choices": ("rep", "trivial"), "help": "act through the group's rep or trivially"},
    "tensor_factors": {"type": int, "min": 2,
                       "help": "also run the tensor-product dimension check with n copies"},
    "ambient_cap": {"type": int, "min": 1},
    "max_n": {"type": int, "min": 1, "help": "sweep n = 1..N (default 8)"},
    "format": {"choices": ("json", "csv"), "help": "output format"},
}


def _check(key: str, value):
    """value as setting key takes it (_FLAGS), else ValueError.  "points",
    which has no flag, is left to ``bundle_spec_from_json``."""
    if key not in _FLAGS:
        return value
    spec, name = _FLAGS[key], f"setting {key!r}"
    kind = spec.get("type", str)
    if kind is int:
        value, low = int_from_json(value, name), spec.get("min")
        if low is not None and value < low:
            raise ValueError(f"{name} must be at least {low}, got {value}")
    elif kind is float:
        if isinstance(value, bool) or not isinstance(value, Real):
            raise ValueError(f"{name} must be a number, got {type(value).__name__}")
        value = float(value)
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and above 0, got {value}")
    elif not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {type(value).__name__}")
    elif value not in spec.get("choices", (value,)):
        raise ValueError(f"{name} must be one of {', '.join(spec['choices'])}, got {value!r}")
    return value


def _resolve(args) -> dict:
    """The run's config object: schema_version 1 and each setting of
    args.command from its flag if given, else its config key (a JSON null
    counts as absent), else its default.  A config key that names no setting
    of the subcommand raises ValueError, and so does a given value that
    ``_check`` rejects."""
    defaults, config = SETTINGS[args.command], {}
    if args.config:
        try:
            config = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise ValueError("config must be a JSON object")
        version = int_from_json(config.get("schema_version", 1), "schema_version")
        if version != 1:
            raise ValueError(f"unsupported schema_version {version!r}")
    unknown = sorted(set(config) - set(defaults) - {"schema_version"})
    if unknown:
        raise ValueError(
            f"unknown config key {', '.join(map(repr, unknown))} for {args.command} "
            f"(it reads schema_version, {', '.join(sorted(defaults))})"
        )
    resolved = {"schema_version": 1}
    for key, default in defaults.items():
        value = getattr(args, key, None)
        if value is None:
            value = config.get(key)
        resolved[key] = default if value is None else _check(key, value)
    return resolved


def resolve_rep(group: str, dim: int | None) -> G.UnitaryRep:
    """Map a --group string to a representation through ``groups.rep_from_config``.

    Accepts su2, su3, u1, q8, zn:<n>, file:<path to Cayley-table JSON>.  A
    dim of None takes the group's default; a file's rep must have dim.
    """
    if group.startswith("file:"):
        path = group[5:]
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read group file {path}: {exc}") from exc
        rep = G.rep_from_config({"kind": "finite", "group": doc})
        if dim is not None and dim != rep.dim:
            raise ValueError(f"dim {dim} differs from the dim {rep.dim} of the rep in {path}")
        return rep
    if group in ("su2", "su3", "q8"):
        return G.rep_from_config({"kind": group} if dim is None else {"kind": group, "dim": dim})
    if group == "u1":
        return G.rep_from_config({"kind": "u1", "weights": list(range(2 if dim is None else dim))})
    if group.startswith("zn:"):
        # int() would also take "1_0", " 5" and "+5"; a minus sign gets the range message
        if not ((digits := group[3:].removeprefix("-")).isascii() and digits.isdigit()):
            raise ValueError(f"group {group!r}: n must be written in ASCII digits")
        try:
            n = int(group[3:])
            return G.rep_from_config({"kind": "zn", "n": n, "dim": n if dim is None else dim})
        except ValueError as exc:
            raise ValueError(f"group {group!r}: {exc}") from exc
    raise ValueError(f"unknown group {group!r} (expected su2, su3, u1, q8, zn:<n>, file:<path>)")


def _emit(config: dict, body: dict | str, out: str | None) -> None:
    """Write the text body, or a JSON report envelope of the dict body with
    the config object as report["config"], to out or stdout."""
    if isinstance(body, dict):
        doc = {
            "report": {"config": config, **body},
            "meta": {
                "generated_at": datetime.now(timezone.utc).isoformat(),
                "tool": "wignerlab",
                "version": __version__,
            },
        }
        body = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(body)
    else:
        sys.stdout.write(body)


# ---------------------------------------------------------------------------
# subcommands: each takes the run's config object and returns (exit code,
# report without its "config", or the text to write)


def cmd_wigner_verify(config: dict) -> tuple[int, dict]:
    count, seed, group, dim = config["count"], config["seed"], config["group"], config["dim"]
    if group is not None:
        rep = resolve_rep(group, dim)
        problems = [
            WignerProblem(rep, G.haar_sample(rep, seed + i, 1 + i % 4))
            for i in range(count)
        ]
    else:
        dims = (dim,) if dim is not None else (2, 3, 4, 5, 6)
        problems = standard_problem_batch(count=count, base_seed=seed, dims=dims)

    reports = [verify_wigner_identity(p, config["tol"]) for p in problems]
    failures = sum(not r.verdict for r in reports)
    return EXIT_OK if not failures else EXIT_CONTRACT, {
        "problems": [{"seed": seed + i, **r.to_json()} for i, r in enumerate(reports)],
        "summary": {"count": len(reports), "failures": failures},
        "all_verdicts_true": not failures,
    }


def _record_method(config: dict, method: str, kind: str) -> None:
    """Record the resolved method, and as null the sample counts it did not
    read: ``count`` unless Monte Carlo, ``generators`` unless Cesaro over
    Haar samples (a finite group's Cesaro runs over its generating set)."""
    config["method"] = method
    if method != "montecarlo":
        config["count"] = None
    if method != "cesaro" or kind == "finite":
        config["generators"] = None


def cmd_invariant_state(config: dict) -> tuple[int, dict]:
    seed, state_path = config["seed"], config["state"]
    rep = resolve_rep(config["group"], config["dim"])
    config["dim"] = rep.dim
    if state_path is not None:
        seed_state = DensityState.from_json(json.loads(Path(state_path).read_text()))
        if seed_state.d != rep.dim:
            raise ValueError(f"seed state dim {seed_state.d} != representation dim {rep.dim}")
    else:
        seed_state = random_density(rep.dim, G.philox_stream(seed, 17))

    try:
        result = haar_average(rep, seed_state, method=config["method"], seed=seed,
                              count=config["count"], generators=config["generators"])
    except NoConvergence as exc:
        # only Cesaro iterates to a stop
        _record_method(config, "cesaro", rep.group.kind)
        return EXIT_CONTRACT, {"error": str(exc), "residual": exc.residual}
    _record_method(config, result.method, rep.group.kind)

    residual = invariance_residual(rep, result.state, probes=50, seed=seed + 1)
    sep = is_separating(result.state)
    return EXIT_OK if residual <= config["tol"] else EXIT_CONTRACT, {
        "state": result.state.to_json(),
        "invariance_residual": residual,
        "separating": {"separating": sep.separating, "min_eigenvalue": sep.min_eigenvalue},
    }


def cmd_crossed(config: dict) -> tuple[int, dict]:
    dim, factors, cap = config["dim"], config["tensor_factors"], config["ambient_cap"]
    if config["action"] == "trivial":
        # dim is the trivial rep's, so the group's own rep keeps its default dim
        rep = G.trivial_rep(resolve_rep(config["group"], None).group, dim)
    else:
        rep = resolve_rep(config["group"], dim)
    model = CrossedProductModel(rep)
    if model.ambient_dim > cap:
        raise ValueError(f"ambient dimension {model.ambient_dim} exceeds cap {cap}")

    residual = covariance_check(model)
    dim_value = crossed_dimension(model)
    tensor = None
    if factors is not None:
        tensor = tensor_iso_check([model] * factors, ambient_cap=cap).to_json()

    ok = residual <= 1e-12 and (tensor is None or tensor["equal"])
    return EXIT_OK if ok else EXIT_CONTRACT, {
        "ambient_dim": model.ambient_dim,
        "covariance_residual": residual,
        "crossed_dimension": dim_value,
        "tensor_check": tensor,
    }


def cmd_entropy(config: dict) -> tuple[int, dict | str]:
    rows = [(n, partition_entropy(PartitionWeights.uniform(n)))
            for n in range(1, config["max_n"] + 1)]
    violation = max(abs(h - math.log(n)) for n, h in rows)
    code = EXIT_OK if violation <= 1e-12 else EXIT_CONTRACT
    if config["format"] == "csv":
        return code, "n,entropy\n" + "".join(f"{n},{h:.17g}\n" for n, h in rows)
    return code, {"rows": [[n, h] for n, h in rows]}


def cmd_bundle(config: dict) -> tuple[int, dict]:
    seed = config["seed"]
    spec = bundle_spec_from_json({"points": config["points"]})

    try:
        field = assign_invariant_field(spec, seed=seed)
    except FieldAssignmentError as exc:
        return EXIT_CONTRACT, {"error": str(exc), "label": exc.label}

    # assign_invariant_field raises unless every fibre is separating
    return EXIT_OK, {
        "field": field.to_json(),
        "invariance_residuals": field.residuals,
        "separating": dict.fromkeys(spec.points, True),
    }


# ---------------------------------------------------------------------------
# parser plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wignerlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"wignerlab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, fn, summary in (
        ("wigner-verify", cmd_wigner_verify, "verify the fixed-set intersection identity"),
        ("invariant-state", cmd_invariant_state, "group-average a state to an invariant one"),
        ("crossed", cmd_crossed, "crossed-product covariance and dimension report"),
        ("entropy", cmd_entropy, "uniform-partition entropy sweep"),
        ("bundle", cmd_bundle, "assign an invariant separating field state"),
    ):
        p = subs.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON config file; flags override config keys")
        p.add_argument("--out", help="output path (default: stdout)")
        for key in SETTINGS[name]:
            if key in _FLAGS:
                kwargs = {k: v for k, v in _FLAGS[key].items() if k != "min"}
                p.add_argument("--" + key.replace("_", "-"), **kwargs)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else EXIT_CONFIG
    try:
        config = _resolve(args)
        code, body = args.fn(config)
        _emit(config, body, args.out)
        return code
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"wignerlab: {exc}\n")
        return EXIT_CONFIG
    except (NoConvergence, RuntimeError) as exc:
        sys.stderr.write(f"wignerlab: contract violation: {exc}\n")
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
