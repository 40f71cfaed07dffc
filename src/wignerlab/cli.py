"""Command-line driver: reproducible experiments with JSON/CSV reports.

Subcommands: wigner-verify, invariant-state, crossed, entropy, bundle.
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
from pathlib import Path

from . import __version__
from . import groups as G
from .bundle import FieldAssignmentError, assign_invariant_field, bundle_spec_from_json
from .crossed import CrossedProductModel, covariance_check, crossed_dimension, tensor_iso_check
from .entropy import PartitionWeights, partition_entropy
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


def _fmt17(x: float) -> str:
    return f"{x:.17g}"


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    version = doc.get("schema_version", 1)
    if version != 1:
        raise ValueError(f"unsupported schema_version {version}")
    return doc


def _setting(args_value, config: dict, key: str, default):
    if args_value is not None:
        return args_value
    if key in config and config[key] is not None:
        return config[key]
    return default


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
    config = _load_config(args.config)
    count = int(_setting(args.count, config, "count", 200))
    seed = int(_setting(args.seed, config, "seed", 2026))
    tol = float(_setting(args.tol, config, "tol", 1e-10))
    group = _setting(args.group, config, "group", None)
    dim = _setting(args.dim, config, "dim", None)

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
    config = _load_config(args.config)
    seed = int(_setting(args.seed, config, "seed", 0))
    tol = float(_setting(args.tol, config, "tol", 1e-7))
    group = _setting(args.group, config, "group", "su2")
    dim = _setting(args.dim, config, "dim", None)
    method = _setting(args.method, config, "method", "auto")
    generators = int(_setting(args.generators, config, "generators", 3))
    count = int(_setting(args.count, config, "count", 4096))
    state_path = _setting(args.state, config, "state", None)

    rep = resolve_rep(group, dim)
    if state_path:
        seed_state = DensityState.from_json(json.loads(Path(state_path).read_text()))
        if seed_state.d != rep.dim:
            raise ValueError(f"seed state dim {seed_state.d} != representation dim {rep.dim}")
    else:
        seed_state = random_density(rep.dim, G.philox_stream(seed, 17))

    try:
        result = haar_average(rep, seed_state, method=method, seed=seed, count=count,
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
    config = _load_config(args.config)
    group = _setting(args.group, config, "group", "zn:2")
    dim = _setting(args.dim, config, "dim", 2)
    action = _setting(args.action, config, "action", "rep")
    factors = _setting(args.tensor_factors, config, "tensor_factors", None)
    cap = int(_setting(args.ambient_cap, config, "ambient_cap", 64))

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
    config = _load_config(args.config)
    max_n = int(_setting(args.max_n, config, "max_n", 8))
    fmt = _setting(args.format, config, "format", "csv")
    if max_n < 1:
        raise ValueError("--max-n must be >= 1")

    rows = [(n, partition_entropy(PartitionWeights.uniform(n))) for n in range(1, max_n + 1)]
    violation = max(abs(h - math.log(n)) for n, h in rows)

    if fmt == "csv":
        text = "n,entropy\n" + "".join(f"{n},{_fmt17(h)}\n" for n, h in rows)
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
    config = _load_config(args.config)
    seed = int(_setting(args.seed, config, "seed", 0))
    if "points" in config:
        spec = bundle_spec_from_json(config)
        spec_doc = {"points": config["points"]}
    else:
        spec_doc = {"points": [{"label": "x0", "rep": {"kind": "su2", "dim": 2}}]}
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


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override config keys")
    sub.add_argument("--seed", type=int, default=None, help="RNG seed")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")
    sub.add_argument("--format", choices=("json", "csv"), default=None, help="output format")
    sub.add_argument("--tol", type=float, default=None, help="tolerance")
    sub.add_argument("--dim", type=int, default=None, help="representation dimension")
    sub.add_argument(
        "--group", default=None, help="group: su2, su3, u1, q8, zn:<n>, file:<path>"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wignerlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"wignerlab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("wigner-verify", help="verify the fixed-set intersection identity")
    _add_common(p)
    p.add_argument("--count", type=int, default=None, help="number of problems (default 200)")
    p.set_defaults(fn=cmd_wigner_verify)

    p = subs.add_parser("invariant-state", help="group-average a state to an invariant one")
    _add_common(p)
    p.add_argument("--method", default=None,
                   choices=("auto", "quadrature", "montecarlo", "finite_exact", "cesaro"))
    p.add_argument("--state", default=None, help="seed state JSON file")
    p.add_argument("--count", type=int, default=None, help="Monte Carlo sample count")
    p.add_argument("--generators", type=int, default=None, help="Cesaro generator count")
    p.set_defaults(fn=cmd_invariant_state)

    p = subs.add_parser("crossed", help="crossed-product covariance and dimension report")
    _add_common(p)
    p.add_argument("--action", default=None, choices=("rep", "trivial"),
                   help="act through the group's rep or trivially")
    p.add_argument("--tensor-factors", type=int, default=None,
                   help="also run the tensor-product dimension check with n copies")
    p.add_argument("--ambient-cap", type=int, default=None)
    p.set_defaults(fn=cmd_crossed)

    p = subs.add_parser("entropy", help="uniform-partition entropy sweep")
    _add_common(p)
    p.add_argument("--max-n", type=int, default=None, help="sweep n = 1..N (default 8)")
    p.set_defaults(fn=cmd_entropy)

    p = subs.add_parser("bundle", help="assign an invariant separating field state")
    _add_common(p)
    p.set_defaults(fn=cmd_bundle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else EXIT_CONFIG
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"wignerlab: {exc}\n")
        return EXIT_CONFIG
    except (NoConvergence, RuntimeError) as exc:
        sys.stderr.write(f"wignerlab: contract violation: {exc}\n")
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
