"""Batch front end: protocol campaigns, audits, oracle checks, region sweeps.

Every subcommand resolves a seed (flag, then OTBEC_SEED, then a fixed
constant), validates parameters before running anything, and writes a
canonical JSON report atomically, so identical invocations produce identical
bytes. Exit codes: 0 success, 2 validation failure, 3 enumeration budget
failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
from collections import Counter
from fractions import Fraction

import numpy as np

from . import __version__
from ._fanout import fan_out
from ._stats import clopper_pearson
from .adversary_audit import (
    _CHUNK,
    condition_suite,
    generate_runs,
    guess_choice_bit,
    guess_unchosen_message,
)
from .exact_oracle import (
    BudgetError,
    TinyParams,
    enumerate_protocol,
    exact_mi,
    exact_mi_given_success,
    oracle_vs_montecarlo,
)
from .protocol_colluding import VisibilityModel
from .protocol_core import OtCode, ParamError, snap_params
from .rates import REGIONS, ChannelSpec, containment_note, general_upper_bounds, vertices

__all__ = ["DEFAULT_SEED", "SCHEMA_VERSION", "parse_prob", "main"]

DEFAULT_SEED = 101
SCHEMA_VERSION = "1"

_VARIANTS = {"p1": "noncolluding", "p2": "colluding"}

_ORACLE_SPECS = {
    "choice-vs-sets": ("noncolluding", "z1", "announced-sets-1"),
    "choice-pair-vs-sets": ("noncolluding", "z-pair", "announced-sets-both"),
    "unchosen-vs-own": ("noncolluding", "m1-unchosen", "own-receiver-1"),
    "unchosen-vs-pooled": ("noncolluding", "m1-unchosen", "pooled-receivers-1"),
    "phase2-unchosen-vs-pooled": ("colluding", "m2-unchosen", "pooled-receivers-2-phase2"),
    "phase1-cross-knowledge": ("colluding", "x-sprime", "first-receiver-phase1"),
}

_ATTACKER_MAP = {
    "single": ("single-receiver", "alice"),
    "pooled": ("pooled-receivers", "alice-plus-other-receiver"),
    "wiretapper": ("wiretapper", "wiretapper"),
}


class _ProbabilityError(ValueError, argparse.ArgumentTypeError):
    """A refused probability; argparse prints its reason instead of a generic one."""


def parse_prob(text):
    """Probability in [0, 1] from a number, a decimal or an exact fraction string like '3/10'.

    A fraction string stays an exact Fraction; a decimal becomes a float.
    """
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        value = float(text)
    else:
        text = str(text).strip()
        try:
            value = Fraction(text) if "/" in text else float(text)
        except ZeroDivisionError:
            raise _ProbabilityError(f"probability {text} has a zero denominator") from None
    if not 0 <= value <= 1:
        raise _ProbabilityError(f"probability {text} not in [0, 1]")
    return value


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    return value


def _canonical(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _write_atomic(path: str, text: str) -> None:
    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".otbec-tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _resolve_seed(args) -> int:
    if args.seed is not None:
        seed, source = int(args.seed), "--seed"
    else:
        env = os.environ.get("OTBEC_SEED")
        if env is None:
            return DEFAULT_SEED
        try:
            seed, source = int(env), "OTBEC_SEED"
        except ValueError as exc:
            raise ValueError(f"OTBEC_SEED must be an integer, got {env!r}") from exc
    if seed < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _report_shell(command: str, config: dict, seed: int) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "artifact_version": __version__,
        "command": command,
        "config": _jsonable(config),
        "seed": seed,
    }


def _emit(args, report: dict, seed: int) -> None:
    path = args.out
    _write_atomic(path, _canonical(report))
    print(f"seed: {seed}")
    print(f"report: {path}")


# --- simulate -----------------------------------------------------------------


def _build_params(args):
    variant = _VARIANTS[args.variant]
    return snap_params(
        args.n, args.p1, args.p2, args.r1, args.r2, args.lam, args.lam_prime,
        s1=args.s1, s2=args.s2, variant=variant, order=args.order,
    )


def _visibility(args) -> VisibilityModel | None:
    if _VARIANTS[args.variant] != "colluding":
        return None
    return VisibilityModel(args.visibility_phase1, args.visibility_phase2)


def _config_payload(args, params, adjustments, extra: dict | None = None) -> dict:
    payload = {
        "variant": args.variant,
        "params": dataclasses.asdict(params),
        "adjustments": adjustments,
        "trials": args.trials,
        "out": args.out,
    }
    if _VARIANTS[args.variant] == "colluding":
        payload["visibility"] = {
            "phase1": args.visibility_phase1,
            "phase2": args.visibility_phase2,
        }
    if extra:
        payload.update(extra)
    return payload


def _rate_ci(successes: int, trials: int) -> dict:
    lo, hi = clopper_pearson(successes, trials)
    return {
        "estimate": successes / trials if trials else 0.0,
        "ci": [lo, hi],
        "trials": trials,
    }


def _abort_key(params, link: int, code: OtCode) -> str:
    """abort_reasons key of one link that never published: the phase that lost it."""
    if params.variant == "noncolluding":
        return "single-phase"
    if code is OtCode.NO_SECOND_PHASE:
        return "no-second-phase"
    if link == params.order or code is OtCode.UPSTREAM_ABORT:
        return "phase-1"
    return "phase-2"


def _simulate_counts(runs) -> Counter:
    """The campaign's integer tallies over the runs; the tallies of disjoint runs add up."""
    tally = Counter(trials=len(runs))
    for run in runs:
        # a link the parameters never run (no-second-phase) did not abort
        if any(out.status == "aborted" for out in run.outcomes):
            tally["any-abort"] += 1
        for link, out in zip((1, 2), run.outcomes):
            tally[link, out.status] += 1
            # receive_link compared the decoded message with the chosen one
            if out.status == "completed" and out.diagnostics["correct"]:
                tally[link, "match"] += 1
            elif out.status in ("aborted", "no-second-phase"):
                tally["reason", _abort_key(run.params, link, out.code)] += 1
    return tally


def _simulate_stats(tally: Counter) -> dict:
    """The results block of a campaign from its summed tallies."""
    trials = tally["trials"]
    statuses = ("completed", "aborted", "decode-error", "no-second-phase")
    counts = {i: {status: tally[i, status] for status in statuses} for i in (1, 2)}
    matches = {i: tally[i, "match"] for i in (1, 2)}
    decided = {i: counts[i]["completed"] + counts[i]["decode-error"] for i in (1, 2)}
    all_decided = decided[1] + decided[2]
    return {
        "trials": trials,
        "correctness_rate": (matches[1] + matches[2]) / all_decided if all_decided else None,
        "abort_rate": _rate_ci(tally["any-abort"], trials),
        "abort_reasons": {key[1]: n for key, n in tally.items()
                          if isinstance(key, tuple) and key[0] == "reason"},
        "per_link": {
            str(i): {
                "counts": counts[i],
                "correctness_rate": matches[i] / decided[i] if decided[i] else None,
                "abort": _rate_ci(counts[i]["aborted"], trials),
            }
            for i in (1, 2)
        },
    }


def cmd_simulate(args) -> int:
    seed = _resolve_seed(args)
    params, adjustments = _build_params(args)
    visibility = _visibility(args)

    def chunk(start: int) -> Counter:
        size = min(_CHUNK, args.trials - start)
        return _simulate_counts(generate_runs(params, size, seed, visibility, start=start))

    # the campaign streams through chunks of trials, so memory does not grow
    # with the trial count; generate_runs refuses a count below one, so a
    # campaign of none still runs its one chunk to say so
    tally = Counter()
    for part in fan_out(chunk, range(0, args.trials, _CHUNK) or [0]):
        tally.update(part)
    report = _report_shell("simulate", _config_payload(args, params, adjustments), seed)
    report["results"] = _simulate_stats(tally)
    _emit(args, report, seed)
    return 0


# --- audit --------------------------------------------------------------------


def cmd_audit(args) -> int:
    seed = _resolve_seed(args)
    params, adjustments = _build_params(args)
    visibility = _visibility(args)
    runs = generate_runs(params, args.trials, seed, visibility)
    message_attacker, choice_attacker = _ATTACKER_MAP[args.attacker]
    attack_rng = np.random.default_rng(seed)
    attacks = []
    if message_attacker:
        attacks.append(guess_unchosen_message(
            runs, attacker=message_attacker, link=args.link, rng=attack_rng))
    attacks.append(guess_choice_bit(
        runs, attacker=choice_attacker, link=args.link, rng=attack_rng))
    rows = condition_suite(runs)
    extra = {"attacker": args.attacker, "link": args.link}
    report = _report_shell("audit", _config_payload(args, params, adjustments, extra), seed)
    report["results"] = {
        "attacks": attacks,
        "conditions": rows,
        "summary": {
            "conditions_clean": all(
                row.verdict in ("no detected leakage", "holds", "informational")
                for row in rows
            ),
        },
    }
    _emit(args, report, seed)
    return 0


# --- oracle -------------------------------------------------------------------


def _oracle_row(name: str, tiny: TinyParams, compare_mc: int, seed: int) -> dict:
    """One spec's row of the oracle report."""
    variant, secret, view = _ORACLE_SPECS[name]
    joint = enumerate_protocol(variant, tiny, view, secret)
    mi = exact_mi(joint)
    mi_success = exact_mi_given_success(joint)
    row = {
        "spec": name,
        "variant": variant,
        "secret": secret,
        "view": view,
        "mi": float(mi),
        "mi_exact": str(mi) if isinstance(mi, int) else None,
        "mi_given_success": float(mi_success),
        "mi_given_success_exact": str(mi_success) if isinstance(mi_success, int) else None,
        "arithmetic": "rational",
        "abort_mass": float(joint.abort_mass),
        "abort_mass_exact": str(joint.abort_mass),
        "states": joint.states,
        "description": joint.description,
    }
    if compare_mc:
        row["mc"] = oracle_vs_montecarlo(joint, trials=compare_mc, master_seed=seed)
    return row


def cmd_oracle(args) -> int:
    seed = _resolve_seed(args)
    tiny = TinyParams(
        n=args.n, p1=args.p1, p2=args.p2,
        set_size=args.set_size, key_bits=args.key_bits,
        phase1_size=args.phase1_size, sprime_size=args.sprime_size,
    )
    names = args.spec or ["choice-vs-sets", "choice-pair-vs-sets"]
    # every spec's row is worked out on its own, its Monte Carlo check from the master seed
    rows = fan_out(lambda name: _oracle_row(name, tiny, args.compare_mc, seed), names)
    config = {
        "tiny": dataclasses.asdict(tiny),
        "specs": names,
        "compare_mc": args.compare_mc,
        "out": args.out,
    }
    report = _report_shell("oracle", config, seed)
    report["results"] = rows
    _emit(args, report, seed)
    return 0


# --- region -------------------------------------------------------------------


def _load_channel(path: str) -> ChannelSpec:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or "rows" not in payload or "outputs" not in payload:
        raise ValueError(f"channel file {path} must contain 'outputs' and 'rows'")
    return ChannelSpec.from_json(payload)


def _region_csv(regions) -> str:
    lines = ["region_label,R1,R2"]
    for region in regions:
        for x, y in vertices(region):
            lines.append(f"{region.label},{x:.12g},{y:.12g}")
    return "\n".join(lines) + "\n"


def cmd_region(args) -> int:
    seed = _resolve_seed(args)
    config = {
        "p1": args.p1, "p2": args.p2, "regions": args.region,
        "channel": args.channel, "theorem": args.theorem,
        "grid": args.grid, "check_containment": args.check_containment,
        "out": args.out,
    }
    regions = []
    channel_payload = None
    if args.channel:
        spec = _load_channel(args.channel)
        channel_payload = spec.to_json()
        regions.append(general_upper_bounds(spec, theorem=args.theorem, grid=args.grid))
    if args.p1 is not None or args.p2 is not None or not args.channel:
        if args.p1 is None or args.p2 is None:
            raise ValueError("region needs both --p1 and --p2 (or a --channel file)")
        regions.extend(REGIONS[name](float(args.p1), float(args.p2))
                       for name in args.region or REGIONS)
    report = _report_shell("region", config, seed)
    report["results"] = {"regions": [r.as_json() for r in regions]}
    if channel_payload is not None:
        report["results"]["channel"] = channel_payload
    if args.check_containment:
        if args.p1 is None or args.p2 is None:
            raise ValueError("--check-containment needs --p1 and --p2")
        p1f, p2f = float(args.p1), float(args.p2)
        checks = []
        for outer_name, inner_name in (
            ("noncolluding-outer", "noncolluding-capacity"),
            ("colluding-outer", "colluding-inner"),
            ("noncolluding-outer", "colluding-outer"),
        ):
            outer, inner = REGIONS[outer_name](p1f, p2f), REGIONS[inner_name](p1f, p2f)
            note = containment_note(outer, inner)
            checks.append({
                "outer": outer.label,
                "inner": inner.label,
                "contained": note is None,
                "note": note,
            })
        report["results"]["containment"] = checks
    _write_atomic(args.out, _canonical(report))
    csv_path = os.path.splitext(args.out)[0] + ".csv"
    _write_atomic(csv_path, _region_csv(regions))
    print(f"seed: {seed}")
    print(f"report: {args.out}")
    print(f"csv: {csv_path}")
    return 0


# --- parser plumbing ------------------------------------------------------------


def _add_common(sub) -> None:
    sub.add_argument("--config", help="JSON file with defaults mirroring the flags")
    sub.add_argument("--seed", type=int, default=None,
                     help=f"master seed (default: OTBEC_SEED or {DEFAULT_SEED})")


def _add_protocol_flags(sub, default_out: str, n: int = 256, rate=0.15,
                        lam_prime=0.05, trials: int = 1000) -> None:
    sub.add_argument("--variant", choices=("p1", "p2"), default="p1",
                     help="p1 = single-phase, p2 = two-phase collusion-resistant")
    sub.add_argument("--n", type=int, default=n)
    sub.add_argument("--p1", type=parse_prob, default=0.5)
    sub.add_argument("--p2", type=parse_prob, default=0.5)
    sub.add_argument("--r1", type=parse_prob, default=rate)
    sub.add_argument("--r2", type=parse_prob, default=rate)
    sub.add_argument("--lambda", dest="lam", type=parse_prob, default=0.05)
    sub.add_argument("--lambda-prime", dest="lam_prime", type=parse_prob, default=lam_prime)
    sub.add_argument("--s1", type=parse_prob, default=None)
    sub.add_argument("--s2", type=parse_prob, default=None)
    sub.add_argument("--order", type=int, choices=(1, 2), default=1)
    sub.add_argument("--trials", type=int, default=trials)
    sub.add_argument("--visibility-phase1", choices=("point-to-point", "broadcast-both"),
                     default="point-to-point")
    sub.add_argument("--visibility-phase2", choices=("point-to-point", "broadcast-both"),
                     default="point-to-point")
    sub.add_argument("--out", default=default_out)


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="otbec",
        description="Simulation and analysis batch tool for erasure-broadcast oblivious transfer",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    registry = {}

    sim = subs.add_parser("simulate", help="run a protocol campaign")
    _add_common(sim)
    _add_protocol_flags(sim, "otbec-simulate.json")
    sim.set_defaults(func=cmd_simulate)
    registry["simulate"] = sim

    # audit defaults use short keys so reconstruction attacks resolve at
    # moderate trial counts; simulate defaults stay at production block sizes
    aud = subs.add_parser("audit", help="run adversary attacks and the condition suite")
    _add_common(aud)
    _add_protocol_flags(aud, "otbec-audit.json", n=64, rate=Fraction(1, 8),
                        lam_prime=Fraction(1, 16), trials=20000)
    aud.add_argument("--attacker", choices=tuple(_ATTACKER_MAP), default="pooled")
    aud.add_argument("--link", type=int, choices=(1, 2), default=1)
    aud.set_defaults(func=cmd_audit)
    registry["audit"] = aud

    orc = subs.add_parser("oracle", help="exact small-instance enumeration checks")
    _add_common(orc)
    orc.add_argument("--n", type=int, default=4)
    orc.add_argument("--p1", type=parse_prob, default=Fraction(1, 2))
    orc.add_argument("--p2", type=parse_prob, default=Fraction(1, 2))
    orc.add_argument("--set-size", type=int, default=1)
    orc.add_argument("--key-bits", type=int, default=1)
    orc.add_argument("--phase1-size", type=int, default=1)
    orc.add_argument("--sprime-size", type=int, default=2)
    orc.add_argument("--spec", action="append", choices=tuple(_ORACLE_SPECS),
                     help="repeatable; default: choice-vs-sets and choice-pair-vs-sets")
    orc.add_argument("--compare-mc", type=int, default=0,
                     help="also sample this many Monte Carlo trials per spec")
    orc.add_argument("--out", default="otbec-oracle.json")
    orc.set_defaults(func=cmd_oracle)
    registry["oracle"] = orc

    reg = subs.add_parser("region", help="emit rate regions as JSON and CSV")
    _add_common(reg)
    reg.add_argument("--p1", type=parse_prob, default=None)
    reg.add_argument("--p2", type=parse_prob, default=None)
    reg.add_argument("--region", action="append", choices=tuple(REGIONS),
                     help="repeatable; default: all closed-form regions")
    reg.add_argument("--channel", help="JSON file with an explicit channel law")
    reg.add_argument("--theorem", choices=("1", "2"), default="1")
    reg.add_argument("--grid", type=int, default=201)
    reg.add_argument("--check-containment", action="store_true")
    reg.add_argument("--out", default="otbec-region.json")
    reg.set_defaults(func=cmd_region)
    registry["region"] = reg

    return parser, registry


# the JSON values besides strings that each flag type takes, and what to call
# them; every value then goes through the flag's type
_CONFIG_TYPES = {
    int: ((int,), "an integer"),
    parse_prob: ((int, float), "a probability"),
    None: ((), "a string"),
}


def _config_value(action: argparse.Action, raw_key: str, value):
    """A config value checked and converted as its flag would be.

    A refusal names the key, and then the flag type's reason when its conversion failed.
    """
    def refused(wanted: str) -> ValueError:
        return ValueError(f"config key {raw_key!r} must be {wanted}, got {json.dumps(value)}")

    if value is None and action.default is None:
        return None
    if action.nargs == 0:  # a switch such as --check-containment
        if not isinstance(value, bool):
            raise refused("true or false")
        return value
    repeatable = isinstance(action, argparse._AppendAction)
    if repeatable and not isinstance(value, list):
        raise refused("a list")
    kinds, name = _CONFIG_TYPES[action.type]
    items = []
    for item in value if repeatable else [value]:
        if isinstance(item, bool) or not isinstance(item, (str, *kinds)):
            raise refused(name)
        if action.type is not None:
            try:
                item = action.type(item)
            except ValueError as exc:
                raise ValueError(f"{refused(name)}: {exc}") from exc
        if action.choices is not None and item not in action.choices:
            raise refused("one of " + ", ".join(map(str, action.choices)))
        items.append(item)
    return items if repeatable else items[0]


def _config_overrides(path: str, sub: argparse.ArgumentParser) -> dict:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    # a key names a flag without its dashes (lambda-prime) or the flag's dest (lam_prime)
    by_flag = {option[2:]: action for action in sub._actions
               for option in action.option_strings if option.startswith("--")}
    by_dest = {action.dest: action for action in sub._actions}
    overrides = {}
    for raw_key, value in payload.items():
        action = by_flag.get(raw_key) or by_dest.get(raw_key.replace("-", "_"))
        if action is None:
            raise ValueError(f"unknown config key {raw_key!r}")
        overrides[action.dest] = _config_value(action, raw_key, value)
    return overrides


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, registry = build_parser()
    try:
        subcommand = argv[0] if argv and not argv[0].startswith("-") else None
        if subcommand in registry:
            pre = argparse.ArgumentParser(add_help=False)
            pre.add_argument("--config")
            known, _ = pre.parse_known_args(argv[1:])
            if known.config:
                registry[subcommand].set_defaults(**_config_overrides(known.config, registry[subcommand]))
        args = parser.parse_args(argv)
        return args.func(args)
    except BudgetError as exc:
        print(f"error: enumeration budget exceeded: {exc}", file=sys.stderr)
        return 3
    except ParamError as exc:
        print(f"error: {exc.constraint} violated: {exc.message}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: i/o failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
