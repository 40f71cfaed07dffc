"""Command-line driver: reproducible experiments with JSON/CSV reports.

Subcommands: wigner-verify, invariant-state, crossed, entropy, bundle.
Each takes --config and --out plus one flag per setting it reads (SETTINGS).
A setting comes from its flag if given, else from its key in the --config
JSON object (null counts as absent), else from its default.  A config key
other than schema_version that names no setting of the subcommand is an
error, and so is a flag the subcommand does not read or a config value of
the wrong JSON type (an integer setting takes an integer, a float setting a
number; bools and strings are neither).
Exit codes: 0 success, 1 usage/config error, 2 verified-contract violation.
Reports embed the resolved config; timestamps live in a separate "meta"
field so the "report" subtree is byte-identical for identical (config, seed).
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

_FLAGS = {
    "count": {"type": int, "help": "number of problems, or of Monte Carlo samples"},
    "seed": {"type": int, "help": "RNG seed"},
    "tol": {"type": float, "help": "tolerance"},
    "group": {"help": "group: su2, su3, u1, q8, zn:<n>, file:<path>"},
    "dim": {"type": int, "help": "representation dimension"},
    "method": {"choices": ("auto", "quadrature", "montecarlo", "finite_exact", "cesaro")},
    "generators": {"type": int, "help": "Cesaro generator count"},
    "state": {"help": "seed state JSON file"},
    "action": {"choices": ("rep", "trivial"), "help": "act through the group's rep or trivially"},
    "tensor_factors": {"type": int,
                       "help": "also run the tensor-product dimension check with n copies"},
    "ambient_cap": {"type": int},
    "max_n": {"type": int, "help": "sweep n = 1..N (default 8)"},
    "format": {"choices": ("json", "csv"), "help": "output format"},
}


def _resolve(args) -> None:
    """Set each setting of args.command on args: its flag if given, else its
    config key (a JSON null counts as absent), else its default.  A config
    key that names no setting of the subcommand raises ValueError, and so
    does a config value that is not a JSON integer for an int setting or a
    JSON number for a float one."""
    defaults, config = SETTINGS[args.command], {}
    if args.config:
        try:
            config = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise ValueError("config must be a JSON object")
        version = config.get("schema_version", 1)
        if version != 1:
            raise ValueError(f"unsupported schema_version {version}")
    unknown = sorted(set(config) - set(defaults) - {"schema_version"})
    if unknown:
        raise ValueError(
            f"unknown config key {', '.join(map(repr, unknown))} for {args.command} "
            f"(it reads schema_version, {', '.join(sorted(defaults))})"
        )
    for key, default in defaults.items():
        if getattr(args, key, None) is None:
            value, kind = config.get(key), _FLAGS.get(key, {}).get("type")
            if value is None:
                value = default
            elif kind is int:
                value = int_from_json(value, f"config key {key!r}")
            elif kind is float and (isinstance(value, bool) or not isinstance(value, Real)):
                raise ValueError(f"config key {key!r} must be a number, got {type(value).__name__}")
            setattr(args, key, value)


def resolve_rep(group: str, dim: int | None) -> G.UnitaryRep:
    """Map a --group string to a representation through ``groups.rep_from_config``.

    Accepts su2, su3, u1, q8, zn:<n>, file:<path to Cayley-table JSON>.
    """
    if group.startswith("file:"):
        path = group[5:]
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read group file {path}: {exc}") from exc
        return G.rep_from_config({"kind": "finite", "group": doc})
    if group in ("su2", "su3", "q8"):
        return G.rep_from_config({"kind": group, "dim": dim} if dim else {"kind": group})
    if group == "u1":
        return G.rep_from_config({"kind": "u1", "weights": list(range(dim or 2))})
    if group.startswith("zn:"):
        n = int(group[3:])
        return G.rep_from_config({"kind": "zn", "n": n, "dim": dim or n})
    raise ValueError(f"unknown group {group!r} (expected su2, su3, u1, q8, zn:<n>, file:<path>)")


def _emit(report: dict, out: str | None, text: str | None = None) -> None:
    """Write a JSON report envelope (or raw text when given) to out/stdout."""
    if text is None:
        doc = {
            "report": report,
            "meta": {
                "generated_at": datetime.now(timezone.utc).isoformat(),
                "tool": "wignerlab",
                "version": __version__,
            },
        }
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_wigner_verify(args) -> int:
    count, seed, tol = int(args.count), int(args.seed), float(args.tol)
    group, dim = args.group, args.dim

    if group is not None:
        rep = resolve_rep(group, dim)
        problems = [
            WignerProblem(rep, tuple(G.haar_sample(rep, seed + i, 1 + i % 4)))
            for i in range(count)
        ]
    else:
        dims = (int(dim),) if dim is not None else (2, 3, 4, 5, 6)
        problems = standard_problem_batch(count=count, base_seed=seed, dims=dims)

    reports = [verify_wigner_identity(p, tol) for p in problems]

    failures = [r for r in reports if not r.verdict]
    resolved = {
        "schema_version": 1,
        "count": count,
        "seed": seed,
        "tol": tol,
        "group": group,
        "dim": dim,
    }
    report = {
        "config": resolved,
        "problems": [{"seed": seed + i, **r.to_json()} for i, r in enumerate(reports)],
        "summary": {"count": len(reports), "failures": len(failures)},
        "all_verdicts_true": not failures,
    }
    _emit(report, args.out)
    return EXIT_OK if not failures else EXIT_CONTRACT


def cmd_invariant_state(args) -> int:
    seed, tol, group, state_path = int(args.seed), float(args.tol), args.group, args.state
    count, generators = int(args.count), int(args.generators)

    rep = resolve_rep(group, args.dim)
    if state_path:
        seed_state = DensityState.from_json(json.loads(Path(state_path).read_text()))
        if seed_state.d != rep.dim:
            raise ValueError(f"seed state dim {seed_state.d} != representation dim {rep.dim}")
    else:
        seed_state = random_density(rep.dim, G.philox_stream(seed, 17))

    try:
        result = haar_average(rep, seed_state, method=args.method, seed=seed, count=count,
                              generators=generators, probes=50, probe_seed=seed + 1)
    except NoConvergence as exc:
        _emit({"error": str(exc), "residual": exc.residual}, args.out)
        return EXIT_CONTRACT

    state = result.state
    residual = result.residual
    sep = is_separating(state)
    resolved = {
        "schema_version": 1,
        "seed": seed,
        "tol": tol,
        "group": group,
        "dim": rep.dim,
        "method": result.method,
        "state": state_path,
    }
    report = {
        "config": resolved,
        "state": state.to_json(),
        "invariance_residual": residual,
        "separating": {"separating": sep.separating, "min_eigenvalue": sep.min_eigenvalue},
    }
    _emit(report, args.out)
    return EXIT_OK if residual <= tol else EXIT_CONTRACT


def cmd_crossed(args) -> int:
    group, dim, action, factors = args.group, args.dim, args.action, args.tensor_factors
    cap = int(args.ambient_cap)

    rep = resolve_rep(group, int(dim) if dim else None)
    if action == "trivial":
        rep = G.trivial_rep(rep.group, int(dim) if dim else rep.dim)
    elif action != "rep":
        raise ValueError(f"unknown action {action!r} (expected rep or trivial)")
    model = CrossedProductModel(rep)
    if model.ambient_dim > cap:
        raise ValueError(f"ambient dimension {model.ambient_dim} exceeds cap {cap}")

    residual = covariance_check(model)
    dim_value = crossed_dimension(model)
    tensor = None
    if factors:
        tensor = tensor_iso_check([model] * int(factors), ambient_cap=cap).to_json()

    resolved = {
        "schema_version": 1,
        "group": group,
        "dim": int(dim) if dim else rep.dim,
        "action": action,
        "tensor_factors": factors,
        "ambient_cap": cap,
    }
    report = {
        "config": resolved,
        "ambient_dim": model.ambient_dim,
        "covariance_residual": residual,
        "crossed_dimension": dim_value,
        "tensor_check": tensor,
    }
    _emit(report, args.out)
    ok = residual <= 1e-12 and (tensor is None or tensor["equal"])
    return EXIT_OK if ok else EXIT_CONTRACT


def cmd_entropy(args) -> int:
    max_n, fmt = int(args.max_n), args.format
    if max_n < 1:
        raise ValueError("--max-n must be >= 1")

    rows = [(n, partition_entropy(PartitionWeights.uniform(n))) for n in range(1, max_n + 1)]
    violation = max(abs(h - math.log(n)) for n, h in rows)

    if fmt == "csv":
        text = "n,entropy\n" + "".join(f"{n},{h:.17g}\n" for n, h in rows)
        _emit({}, args.out, text=text)
    elif fmt == "json":
        report = {
            "config": {"schema_version": 1, "max_n": max_n},
            "rows": [[n, h] for n, h in rows],
        }
        _emit(report, args.out)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return EXIT_OK if violation <= 1e-12 else EXIT_CONTRACT


def cmd_bundle(args) -> int:
    seed = int(args.seed)
    spec_doc = {"points": args.points}
    spec = bundle_spec_from_json(spec_doc)

    try:
        field = assign_invariant_field(spec, seed=seed)
    except FieldAssignmentError as exc:
        _emit({"error": str(exc), "label": exc.label}, args.out)
        return EXIT_CONTRACT

    residuals = {}
    separating = {}
    for idx, label in enumerate(spec.points):
        rep = spec.reps[label]
        residuals[label] = invariance_residual(rep, field.states[label], probes=50, seed=seed + idx)
        separating[label] = is_separating(field.states[label]).separating

    report = {
        "config": {"schema_version": 1, "seed": seed, **spec_doc},
        "field": field.to_json(),
        "invariance_residuals": residuals,
        "separating": separating,
    }
    _emit(report, args.out)
    return EXIT_OK


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
                p.add_argument("--" + key.replace("_", "-"), **_FLAGS[key])
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else EXIT_CONFIG
    try:
        _resolve(args)
        return args.fn(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"wignerlab: {exc}\n")
        return EXIT_CONFIG
    except (NoConvergence, RuntimeError) as exc:
        sys.stderr.write(f"wignerlab: contract violation: {exc}\n")
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
