"""Command-line front end: infer / verify / bench / list-functions.

stdout carries exactly one machine-readable document per invocation; all
logging goes to stderr with level prefixes.  Identical argv plus seed
produce byte-identical stdout (bench wall times are redacted unless
--timings is passed).  Exit codes: 0 success (infer: at least one
property; verify: pass), 2 for a clean negative (no properties / fail),
1 for hard errors.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from dataclasses import replace

from .bench import emit_report, registry, registry_entry, run_bench, select_entries
from .discovery import InferConfig, infer
from .errors import ParseError, RSRError
from .parser import format_expr, parse
from .queries import queries_by_name
from .sampling import oracle_from_expr, taylor_program
from .verification import VerifyConfig, symbolic_verify

def _log(level: str, message: str):
    print(f"{level}: {message}", file=sys.stderr)


def _env_seed() -> int:
    raw = os.environ.get("RSRFORGE_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise RSRError(f"RSRFORGE_SEED must be an integer, got {raw!r}") from None


def _load_config(path) -> dict:
    """Flat key = value sections: [infer], [verify], [bench]."""
    if path is None:
        return {}
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise RSRError(f"config file {path!r} not found or unreadable")
    out = {}
    for section in cp.sections():
        for key, value in cp.items(section):
            out[f"{section}.{key}"] = value
    return out


def _settings(args, cfg_file: dict, section: str, keys) -> dict:
    """{config field: value} for each (field, key, cast) that the flag
    ``key`` or, failing that, ``key`` in the config file's section sets;
    the config dataclass or function supplies every other default.  A
    section key that no ``key`` reads, or a value ``cast`` rejects, is
    an error."""
    read = {
        f"{section}.{k}" for _, key, _ in keys for k in (key, key.replace("_", "-"))
    }
    for item in cfg_file:
        if item.startswith(f"{section}.") and item not in read:
            name = item.partition(".")[2]
            raise RSRError(f"unknown key {name!r} in config section [{section}]")
    out = {}
    for name, key, cast in keys:
        value = getattr(args, key)
        if value is None:
            text = cfg_file.get(f"{section}.{key.replace('_', '-')}")
            if text is None:
                text = cfg_file.get(f"{section}.{key}")
            if text is not None:
                try:
                    value = cast(text)
                except ValueError:
                    raise RSRError(
                        f"config key [{section}] {key} expects {cast.__name__}, "
                        f"got {text!r}"
                    ) from None
        if value is not None:
            out[name] = value
    return out


def _build_oracle(args):
    if args.arity is not None and args.arity < 1:
        raise RSRError(f"--arity must be at least 1, got {args.arity}")
    if args.function:
        entry = registry_entry(args.function)
        oracle = entry.oracle()
    elif args.program:
        entry = None
        parts = args.program.split(":")
        if len(parts) != 3 or parts[0] != "taylor":
            raise RSRError(
                f"--program expects taylor:<name>:<terms>, got {args.program!r}"
            )
        try:
            oracle = taylor_program(parts[1], int(parts[2]))
        except ValueError as exc:
            raise RSRError(f"--program {args.program!r}: {exc}") from None
    elif args.expr:
        entry = None
        arity = 1 if args.arity is None else args.arity
        oracle = oracle_from_expr("expr", parse(args.expr), arity)
    else:
        raise RSRError("one of --function, --program, or --expr is required")
    if args.arity is not None and args.arity != oracle.arity:
        raise RSRError(
            f"--arity {args.arity} differs from the oracle's arity {oracle.arity}"
        )
    if args.box:
        try:
            box = tuple(float(t) for t in args.box.split(","))
        except ValueError:
            raise RSRError(f"--box expects lo,hi numbers, got {args.box!r}") from None
        oracle = replace(oracle, box=box)
    return oracle, entry


def cmd_infer(args, cfg_file: dict) -> int:
    oracle, entry = _build_oracle(args)

    settings = _settings(
        args,
        cfg_file,
        "infer",
        (
            ("max_degree", "max_degree", int),
            ("m", "samples", int),
            ("epsilon", "epsilon", float),
            ("max_denominator", "max_denominator", int),
        ),
    )
    if entry is not None:
        settings.setdefault("max_degree", entry.degree_setting)
    if args.queries is not None:
        names = [name.strip() for name in args.queries.split(",")]
        if not all(names):
            raise RSRError(
                f"--queries expects a comma list of queries, got {args.queries!r}"
            )
        try:
            settings["queries"] = tuple(queries_by_name(names, oracle.arity))
        except ParseError as exc:
            raise RSRError(f"--queries {args.queries!r}: {exc}") from None
    if args.include_raw_vars:
        settings["include_raw_vars"] = True
    seed = args.seed
    try:
        cfg = InferConfig(**settings, seed=seed)
    except ValueError as exc:
        raise RSRError(str(exc)) from None
    _log(
        "info",
        f"infer: oracle={oracle.name} degree={cfg.max_degree} m={cfg.m} seed={seed}",
    )
    props, mean_errors, complexities, error = infer(oracle, cfg)

    document = {
        "properties": {pid: p.to_json_dict() for pid, p in props.items()},
        "mean_errors": mean_errors,
        "sample_complexities": complexities,
        "error": error,
        "config": {
            "oracle": oracle.name,
            "box": list(oracle.box) if oracle.box else None,
            **cfg.snapshot(),
        },
    }
    print(json.dumps(document, indent=1))
    return 0 if props else 2


def cmd_verify(args, cfg_file: dict) -> int:
    if args.expr:
        text = args.expr
    elif args.property_file:
        path = args.property_file
        try:
            with open(path) as fh:
                record = json.load(fh)
        except OSError:
            raise RSRError(f"property file {path!r} not found or unreadable") from None
        except ValueError as exc:
            raise RSRError(f"property file {path!r} is not JSON: {exc}") from None
        if not isinstance(record, dict) or not isinstance(record.get("identity"), str):
            raise RSRError(
                f"property file {path!r} is not one property record: "
                "it needs an 'identity' string"
            )
        text = record["identity"]
        if text.endswith("= 0"):
            text = text[: text.rfind("=")]
    else:
        raise RSRError("one of --expr or --property-file is required")
    if not args.function:
        raise RSRError("--function is required to pick the closed form")

    seed = args.seed
    if seed < 0:
        raise RSRError("seed must be non-negative")
    entry = registry_entry(args.function)
    settings = _settings(
        args,
        cfg_file,
        "verify",
        (("hp_points", "hp_points", int), ("hp_precision_bits", "hp_bits", int)),
    )
    try:
        cfg = VerifyConfig(**settings)
    except ValueError as exc:
        raise RSRError(str(exc)) from None
    _log("info", f"verify: function={entry.name} seed={seed}")
    outcome = symbolic_verify(
        text,
        entry.closed_form,
        cfg,
        box=entry.box,
        seed=seed,
        arity=entry.arity,
    )
    document = {
        **outcome.to_json_dict(),
        "config": {
            "function": entry.name,
            "expr": text.strip(),
            "seed": seed,
            "hp_points": cfg.hp_points,
            "hp_precision_bits": cfg.hp_precision_bits,
        },
    }
    print(json.dumps(document, indent=1))
    return 0 if outcome.passed else 2


def cmd_bench(args, cfg_file: dict) -> int:
    names = None
    if args.names is not None:
        names = [name.strip() for name in args.names.split(",")]
        if not all(names):
            raise RSRError(
                f"--names expects a comma list of benchmark names, got {args.names!r}"
            )
    category = None
    if args.filter is not None:
        key, _, value = args.filter.partition("=")
        if key.strip() != "category" or not value:
            raise RSRError(f"--filter expects category=<name>, got {args.filter!r}")
        category = value.strip()

    seed = args.seed
    overrides = _settings(
        args,
        cfg_file,
        "bench",
        (("repetitions", "repetitions", int), ("m", "samples", int)),
    )
    run_kwargs = {}
    if "repetitions" in overrides:
        run_kwargs["repetitions"] = overrides.pop("repetitions")
    fmt = args.format or "table"
    if args.max_degree is not None:
        overrides["max_degree"] = args.max_degree
    if args.epsilon is not None:
        overrides["epsilon"] = args.epsilon

    selection = select_entries(names, category)  # validates before running
    _log("info", f"bench: {len(selection)} entries, seed={seed}")
    try:
        report = run_bench(
            names=names,
            category=category,
            cfg_overrides=overrides,
            seed=seed,
            workers=args.workers,
            **run_kwargs,
        )
    except ValueError as exc:  # a shared setting rejected before any entry runs
        raise RSRError(str(exc)) from None
    sys.stdout.write(emit_report(report, fmt, timings=args.timings))
    for row in report.rows:
        if row.error:
            _log("warn", f"{row.name}: {row.error}")
        _log("info", f"{row.name}: {row.wall_time_seconds:.2f}s median")
    return 0


def cmd_list_functions(args, _cfg_file: dict) -> int:
    entries = registry()
    if args.format == "json":
        print(
            json.dumps(
                [
                    {
                        "name": e.name,
                        "closed_form": format_expr(e.closed_form),
                        "arity": e.arity,
                        "category": e.category,
                        "degree": e.degree_setting,
                        "box": list(e.box),
                        "ground_truths": len(e.ground_truth),
                    }
                    for e in entries
                ],
                indent=1,
            )
        )
        return 0
    width = max(len(e.name) for e in entries)
    print(f"{'name':<{width}}  arity  degree  category          closed form")
    for e in entries:
        print(
            f"{e.name:<{width}}  {e.arity:^5}  {e.degree_setting:^6}  "
            f"{e.category:<16}  {format_expr(e.closed_form)}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rsrforge",
        description="Learn and verify randomized self-reductions of numeric functions.",
    )
    top.add_argument("--config", default=None, help="flat key=value config file")
    sub = top.add_subparsers(dest="command", required=True)

    p_inf = sub.add_parser("infer", help="discover identities from a black-box oracle")
    p_inf.add_argument("--function", help="benchmark function name")
    p_inf.add_argument("--program", help="approximate program, e.g. taylor:sigmoid:30")
    p_inf.add_argument("--expr", help="closed-form expression for an ad-hoc oracle")
    p_inf.add_argument("--arity", type=int, default=None)
    p_inf.add_argument(
        "--max-degree", "--degree", dest="max_degree", type=int, default=None
    )
    p_inf.add_argument("--samples", "-n", dest="samples", type=int, default=None)
    p_inf.add_argument("--epsilon", type=float, default=None)
    p_inf.add_argument("--max-denominator", type=int, default=None)
    p_inf.add_argument("--queries", help='comma list, e.g. "x+r,x-r,r,x"')
    p_inf.add_argument("--box", help="sampling box lo,hi")
    p_inf.add_argument("--include-raw-vars", action="store_true")
    p_inf.add_argument("--seed", type=int, default=None)
    p_inf.set_defaults(func=cmd_infer)

    p_ver = sub.add_parser("verify", help="verify an identity against a closed form")
    p_ver.add_argument("--expr", help="identity text; Eq(lhs, rhs) or residual")
    p_ver.add_argument("--property-file", help="property JSON file from infer")
    p_ver.add_argument("--function", help="benchmark function supplying the closed form")
    p_ver.add_argument("--hp-points", dest="hp_points", type=int, default=None)
    p_ver.add_argument("--hp-bits", dest="hp_bits", type=int, default=None)
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_b = sub.add_parser("bench", help="run the RSR-Bench harness")
    p_b.add_argument("--names", help="comma list of benchmark names")
    p_b.add_argument("--filter", help="category=<name> selector")
    p_b.add_argument("--format", choices=("table", "csv", "json"), default=None)
    p_b.add_argument("--repetitions", type=int, default=None)
    p_b.add_argument("--samples", type=int, default=None)
    p_b.add_argument("--max-degree", dest="max_degree", type=int, default=None)
    p_b.add_argument("--epsilon", type=float, default=None)
    p_b.add_argument("--workers", type=int, default=None)
    p_b.add_argument("--timings", action="store_true",
                     help="include wall times in stdout (breaks byte determinism)")
    p_b.add_argument("--seed", type=int, default=None)
    p_b.set_defaults(func=cmd_bench)

    p_ls = sub.add_parser("list-functions", help="print the benchmark registry")
    p_ls.add_argument("--format", choices=("table", "json"), default="table")
    p_ls.set_defaults(func=cmd_list_functions)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg_file = _load_config(args.config)
        if getattr(args, "seed", 0) is None:  # list-functions takes no seed
            args.seed = _env_seed()
        return args.func(args, cfg_file)
    except RSRError as exc:
        _log("error", str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
