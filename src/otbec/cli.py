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
from contextlib import closing
from fractions import Fraction

import numpy as np

from . import __version__
from ._fanout import fan_out
from ._stats import clopper_pearson
from .adversary_audit import (
    ChoiceAttackFold,
    ConditionSuiteFold,
    MessageAttackFold,
    RunBlock,
    generate_runs,
    outcome_counts,
)
from .exact_oracle import (
    SPECS,
    BudgetError,
    check_budget,
    compare_cells,
    enumerate_protocol,
    exact_mi,
    exact_mi_given_success,
    sample_cells,
    tiny_plan,
)
from .protocol_colluding import VisibilityModel
from .protocol_core import OtCode, ParamError, Plan, snap_params
from .rates import REGIONS, ChannelSpec, containment_note, general_upper_bounds, vertices

__all__ = ["DEFAULT_SEED", "SCHEMA_VERSION", "parse_prob", "main"]

DEFAULT_SEED = 101
SCHEMA_VERSION = "1"

_VARIANTS = {"p1": "noncolluding", "p2": "colluding"}

# A campaign runs, and folds, its trials in chunks of this many: numpy then
# works on whole blocks, while a block's runs stay a small share of memory.
_CHUNK = 256

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
    # the mode open(path, "w") gives a new file, where mkstemp's is 0o600
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".otbec-tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.chmod(tmp, 0o666 & ~umask)
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


def _simulate_stats(tally: Counter) -> dict:
    """The results block of a campaign from its summed tallies."""
    trials = tally["trials"]
    statuses = dict.fromkeys(code.status for code in OtCode)
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


def _campaign(args, params, seed: int, fold):
    """Stream fold(runs) of each _CHUNK-trial chunk of the campaign, in chunk order, from fan_out.

    runs is `generate_runs`' iterator, so a fold that reads each run once
    (`outcome_counts`) holds one run at a time, and one that needs them all
    (`RunBlock`) holds one chunk's. A folded chunk is dropped once the
    consumer moves on, so memory does not grow with the trial count. The
    consumer closes the stream (contextlib.closing), which reaps the
    workers even when it stops early.
    """
    visibility = (VisibilityModel(args.visibility_phase1, args.visibility_phase2)
                  if _VARIANTS[args.variant] == "colluding" else None)

    def chunk(start: int):
        size = min(_CHUNK, args.trials - start)
        return fold(generate_runs(params, size, seed, visibility, start=start))

    return fan_out(chunk, range(0, args.trials, _CHUNK))


def cmd_simulate(args) -> int:
    seed = _resolve_seed(args)
    params, adjustments = _build_params(args)
    with closing(_campaign(args, params, seed, outcome_counts)) as tallies:
        tally = sum(tallies, Counter())
    report = _report_shell("simulate", _config_payload(args, params, adjustments), seed)
    report["results"] = _simulate_stats(tally)
    _emit(args, report, seed)
    return 0


# --- audit --------------------------------------------------------------------


def cmd_audit(args) -> int:
    seed = _resolve_seed(args)
    params, adjustments = _build_params(args)
    if params.variant == "colluding" and args.link != params.order and not params.plan().sprime:
        # every run would end the link no-second-phase, leaving nothing to attack
        raise ParamError("second phase", (
            f"link {args.link} never runs: receiver {params.order}'s phase-1 erasures leave "
            f"no leftover set at p{params.order} = {params.plan().p(params.order)} "
            "(no-second-phase)"))
    message_attacker, choice_attacker = _ATTACKER_MAP[args.attacker]
    # one generator: the message attack's fills block by block as the blocks
    # arrive, then the choice attack's tie coins after the last block
    attack_rng = np.random.default_rng(seed)
    message = MessageAttackFold(message_attacker, args.link, attack_rng)
    choice = ChoiceAttackFold(choice_attacker, args.link, attack_rng)
    conditions = ConditionSuiteFold()
    # each chunk comes back as the arrays the analyses read, without its
    # runs, and is dropped once every fold has read it, before the next
    # chunk is made
    with closing(_campaign(args, params, seed, RunBlock)) as blocks:
        for block in blocks:
            for fold in (message, choice, conditions):
                fold.add(block)
            del block
    attacks = [message.result(), choice.result()]
    rows = conditions.result()
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


def _oracle_row(joint) -> dict:
    """One spec's row of the oracle report, without its mc block."""
    spec = SPECS[joint.spec]
    mi = exact_mi(joint)
    # a joint that always aborts has nothing to condition on
    mi_success = None if joint.abort_mass == 1 else exact_mi_given_success(joint)
    return {
        "spec": joint.spec,
        "variant": spec.variant,
        "secret": spec.secret,
        "view": spec.view,
        "mi": float(mi),
        "mi_exact": str(mi) if isinstance(mi, int) else None,
        "mi_given_success": None if mi_success is None else float(mi_success),
        "mi_given_success_exact": str(mi_success) if isinstance(mi_success, int) else None,
        "arithmetic": "rational",
        "abort_mass": float(joint.abort_mass),
        "abort_mass_exact": str(joint.abort_mass),
        "states": joint.states,
        "description": joint.description,
    }


def _oracle_rows(group: list, plan: Plan, compare_mc: int, seed: int) -> list:
    """The rows of a group of specs that share one Monte Carlo pass, one spec at a time.

    Each spec is enumerated, its row worked out and its joint dropped before
    the next one is enumerated. The group is sampled once (`sample_cells`),
    after its first spec is enumerated, so a task's first work is still an
    enumeration.
    """
    rows, tallies = [], None
    for name in group:
        joint = enumerate_protocol(name, plan)
        row = _oracle_row(joint)
        if compare_mc:
            if tallies is None:
                tallies = sample_cells(group, plan, compare_mc, seed)
            row["mc"] = compare_cells(joint, tallies.pop(name))
        rows.append(row)
        del joint
    return rows


def cmd_oracle(args) -> int:
    """Enumerate each requested spec once, cross-check it when asked, and report in spec order.

    With --compare-mc, the specs of one variant form one task and share one
    Monte Carlo pass, through the deepest step any of them reads; without it
    each spec is a task of its own. Tasks fan out over the workers, each
    sending back its rows, never a joint, and every trial draws from the
    master seed, so the report is the same for any worker count. Every spec's
    budget is checked, in the requested order, before any task starts.
    """
    seed = _resolve_seed(args)
    counts = {"n": args.n, "set_size": args.set_size, "key_bits": args.key_bits,
              "phase1_size": args.phase1_size, "sprime_size": args.sprime_size}
    plan = tiny_plan(p1=args.p1, p2=args.p2, **counts)
    names = args.spec or ["choice-vs-sets", "choice-pair-vs-sets"]
    groups: dict = {}
    for name in names:
        check_budget(plan, SPECS[name])
        groups.setdefault(SPECS[name].variant if args.compare_mc else name, []).append(name)
    rows = {row["spec"]: row
            for group_rows in fan_out(
                lambda group: _oracle_rows(group, plan, args.compare_mc, seed), groups.values())
            for row in group_rows}
    config = {
        "tiny": {**counts, "p1": plan.p1, "p2": plan.p2},
        "specs": names,
        "compare_mc": args.compare_mc,
        "out": args.out,
    }
    report = _report_shell("oracle", config, seed)
    report["results"] = [rows[name] for name in names]
    _emit(args, report, seed)
    return 0


# --- region -------------------------------------------------------------------


def _load_channel(path: str) -> ChannelSpec:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    try:
        return ChannelSpec.from_json(payload)
    except ValueError as exc:
        raise ValueError(f"channel file {path}: {exc}") from None


def _region_csv_path(out: str) -> str:
    """Where region writes its CSV: the report path with a .csv extension."""
    return os.path.splitext(out)[0] + ".csv"


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
    if args.p1 is not None:  # main refuses one of --p1 and --p2 without the other
        regions.extend(REGIONS[name](float(args.p1), float(args.p2))
                       for name in args.region or REGIONS)
    report = _report_shell("region", config, seed)
    report["results"] = {"regions": [r.as_json() for r in regions]}
    if channel_payload is not None:
        report["results"]["channel"] = channel_payload
    if args.check_containment:
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
    _emit(args, report, seed)
    csv_path = _region_csv_path(args.out)
    _write_atomic(csv_path, _region_csv(regions))
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
    orc.add_argument("--spec", action="append", choices=tuple(SPECS),
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
        # refused before the run, not after it: the report is written last
        for flag, dest, least in (("--trials", "trials", 1), ("--compare-mc", "compare_mc", 0),
                                  ("--grid", "grid", 101)):
            if getattr(args, dest, least) < least:
                raise ValueError(f"{flag} must be at least {least}, got {getattr(args, dest)}")
        # a spec's row is enumerated, sampled and reported once
        specs = getattr(args, "spec", None) or []
        for index, name in enumerate(specs):
            if name in specs[:index]:
                raise ValueError(f"--spec {name} is given more than once")
        out_dir = os.path.dirname(os.path.abspath(args.out))
        if not os.path.isdir(out_dir):
            raise FileNotFoundError(f"report directory {out_dir} does not exist")
        if os.path.isdir(args.out):
            raise IsADirectoryError(f"report path {args.out} is a directory")
        if args.subcommand == "region":
            csv_path = _region_csv_path(args.out)
            if csv_path == args.out:
                raise ValueError(f"the region CSV {csv_path} would overwrite the report --out {args.out}")
            if os.path.isdir(csv_path):
                raise IsADirectoryError(f"region CSV path {csv_path} is a directory")
            if args.p1 is None or args.p2 is None:
                if args.p1 is not None or args.p2 is not None or not args.channel:
                    raise ValueError("region needs both --p1 and --p2 (or a --channel file)")
                if args.check_containment:
                    raise ValueError("--check-containment needs --p1 and --p2")
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
