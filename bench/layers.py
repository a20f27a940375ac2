"""The otbec functions the traced run wraps, and the per-layer metrics made from their spans.

Each layer is a module of the package; the traced functions are its public
entry points. Every traced function reports `<module>.<function>.calls` and
`.self_s`; the counters below add the work each layer did and the work it
wasted (aborts, decode errors, attack runs skipped).
"""

from __future__ import annotations

# (module, function) in the order the metrics are printed
TRACED = (
    ("channel", "transmit_bec"),
    ("channel", "erasure_partition"),
    ("channel", "restrict"),
    ("channel", "as_bits"),
    ("channel", "trial_rng"),
    ("hashing", "sample_linear_hash"),
    ("hashing", "apply"),
    ("protocol_core", "validate_params"),
    ("protocol_core", "select_subsets"),
    ("protocol_core", "sample_subset"),
    ("protocol_core", "encrypt"),
    ("protocol_core", "decode_chosen"),
    ("protocol_noncolluding", "run_protocol1"),
    ("protocol_colluding", "run_protocol2"),
    ("adversary_audit", "generate_runs"),
    ("adversary_audit", "guess_unchosen_message"),
    ("adversary_audit", "guess_choice_bit"),
    ("adversary_audit", "condition_suite"),
    ("entropy", "mutual_information"),
    ("exact_oracle", "enumerate_protocol"),
    ("exact_oracle", "exact_mi"),
    ("exact_oracle", "exact_mi_given_success"),
    ("exact_oracle", "oracle_vs_montecarlo"),
    ("cli", "main"),
)

ATTACKS = ("guess_unchosen_message", "guess_choice_bit")

# name, unit, better; the harness adds cli.report_bytes and the trace.* entries
COUNTERS = (
    ("channel.transmit_bec.symbols", "count", "lower"),
    ("hashing.sample_linear_hash.bits_drawn", "bit", "lower"),
    ("hashing.apply.bit_ops", "count", "lower"),
    ("protocol_core.select_subsets.aborts", "count", "lower"),
    ("protocol_core.decode_chosen.decode_errors", "count", "lower"),
    *((f"adversary_audit.{attack}.used_ratio", "fraction", "higher") for attack in ATTACKS),
    ("exact_oracle.states", "count", "lower"),
    ("exact_oracle.enumerate_protocol.states_per_s", "states/s", "higher"),
)

HARNESS_METRICS = (
    ("cli.report_bytes", "B", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in print order."""
    out = []
    for module, function in TRACED:
        out.append((f"{module}.{function}.calls", "count", "lower"))
        out.append((f"{module}.{function}.self_s", "s", "lower"))
    return out + list(COUNTERS) + list(HARNESS_METRICS)


def install(tracer, otbec_modules: dict) -> None:
    """Wrap every TRACED function, with the counters of its layer."""
    core = otbec_modules["protocol_core"]
    hooks = {
        ("channel", "transmit_bec"): {
            "on_return": lambda t, a, k, y: t.add("channel.transmit_bec.symbols", y.size)},
        ("hashing", "sample_linear_hash"): {
            "on_return": lambda t, a, k, h: t.add("hashing.sample_linear_hash.bits_drawn",
                                                  h.matrix.size)},
        ("hashing", "apply"): {
            "on_return": lambda t, a, k, out: t.add("hashing.apply.bit_ops",
                                                    (a[0] if a else k["h"]).matrix.size)},
        ("protocol_core", "select_subsets"): {
            "on_raise": {core.AbortSignal: "protocol_core.select_subsets.aborts"}},
        ("protocol_core", "decode_chosen"): {
            "on_raise": {core.DecodeError: "protocol_core.decode_chosen.decode_errors"}},
        ("exact_oracle", "enumerate_protocol"): {
            "on_return": lambda t, a, k, joint: t.add("exact_oracle.states", joint.states)},
    }
    for attack in ATTACKS:
        hooks[("adversary_audit", attack)] = {"on_return": _attack_counter(attack)}
    for module, function in TRACED:
        tracer.install("otbec", otbec_modules[module], function, **hooks.get((module, function), {}))


def _attack_counter(attack: str):
    def count(tracer, args, kwargs, report):
        runs = args[0] if args else kwargs["runs"]
        tracer.add(f"adversary_audit.{attack}.used", report.trials)
        tracer.add(f"adversary_audit.{attack}.attempted", len(runs))
    return count


def metrics(tracer) -> dict:
    """Per-layer metric values of one traced invocation (harness metrics excluded)."""
    spans = tracer.summary()
    counters = tracer.counters
    out = {}
    for module, function in TRACED:
        row = spans.get(f"{module}.{function}", {"calls": 0, "self_s": 0.0})
        out[f"{module}.{function}.calls"] = row["calls"]
        out[f"{module}.{function}.self_s"] = row["self_s"]
    for name, _, _ in COUNTERS:
        out[name] = counters.get(name, 0)
    for attack in ATTACKS:
        attempted = counters.get(f"adversary_audit.{attack}.attempted", 0)
        used = counters.get(f"adversary_audit.{attack}.used", 0)
        out[f"adversary_audit.{attack}.used_ratio"] = used / attempted if attempted else 0.0
    enum_s = spans.get("exact_oracle.enumerate_protocol", {}).get("inclusive_s", 0.0)
    out["exact_oracle.enumerate_protocol.states_per_s"] = (
        counters.get("exact_oracle.states", 0) / enum_s if enum_s else 0.0)
    out["trace.wall_s"] = spans.get("cli.main", {}).get("inclusive_s", 0.0)
    return out
