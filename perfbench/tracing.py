"""Per-layer timing of `wehrl`, from outside the package.

Wrappers replace a module's public functions in every `wehrl` module that
holds a binding of them (`verify` and `cli` import most functions by name),
and methods on their classes. Modules are reached through `sys.modules`:
`import wehrl.minimize` yields the function `minimize`, because the package
attribute hides the submodule.

A timed wrapper adds its call's self time (its duration minus that of
nested timed calls) and a call count; a counted wrapper only counts, which
keeps the cost of tracing small for scalar functions called millions of
times.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Restarts whose entropy stays above this have not reached the minimum.
STALL_ENTROPY = 1e-6
# Calls made directly inside the named caller are charged to the caller's
# self time: the subgroup lattice is all closures, and its cost belongs to
# set-up, apart from the closures that parse a --subgroup argument.
CHARGED_TO_CALLER = {"groups.subgroup_closure": "groups.all_subgroups"}
# Fixed group shapes: a timed call whose first argument is such a group, or
# has one as its `.group`, is also added under "<key>.<shape>".
SHAPES = {(64,): "Z64", (8, 8): "Z8xZ8", (2,) * 6: "Z2x6"}


def _shape_of(args) -> str | None:
    if not args:
        return None
    orders = getattr(args[0], "orders", None) or getattr(getattr(args[0], "group", None), "orders", None)
    return SHAPES.get(orders) if isinstance(orders, tuple) else None


VERIFY_CHECKS = (
    "check_group_laws",
    "check_character_values",
    "check_character_multiplicativity",
    "check_annihilator_duality",
    "check_double_annihilator",
    "check_compact_maximality",
    "check_cocycle_trivial_on_K",
    "check_cocycle_bilinearity",
    "check_ccr",
    "check_weyl_unitarity",
    "check_weyl_dense_vs_apply",
    "check_vacuum_invariance",
    "check_vacuum_uniqueness",
    "check_vacuum_nullspace_match",
    "check_resolution_vacuum",
    "check_resolution_random",
    "check_overlap_dichotomy",
    "check_overlap_coset_match",
    "check_offcoset_vanishing",
    "check_offcoset_witness",
    "check_coset_basis",
    "check_husimi_mass_and_range",
    "check_coset_constancy",
    "check_coset_formula",
    "check_fast_vs_dense",
    "check_wehrl_bounds",
    "check_wehrl_vs_von_neumann",
    "check_channel",
    "check_gradient_oracle",
    "check_product_structure",
)

# (module, attribute or Class.method, how): "timed" gives .s and .calls,
# "counted" gives .calls only.
TARGETS = (
    [
        ("groups", "all_subgroups", "timed"),
        ("groups", "subgroup_closure", "timed"),
        ("groups", "maximal_compact", "timed"),
        ("groups", "coset_representatives", "timed"),
        ("groups", "Character.phase", "counted"),
        ("weyl", "verify_ccr", "timed"),
        ("weyl", "cocycle_phase", "counted"),
        ("weyl", "weyl_apply", "timed"),
        ("weyl", "weyl_matrix", "timed"),
        ("states", "check_density_matrix", "timed"),
        ("states", "check_state_vector", "timed"),
        ("frames", "CoherentFrame.state_matrix", "timed"),
        ("frames", "CoherentFrame.cosets", "timed"),
        ("frames", "resolution_residual", "timed"),
        ("frames", "invariant_subspace_dim", "timed"),
        ("frames", "overlap_matrix", "timed"),
        ("entropy", "pure_amplitudes", "timed"),
        ("entropy", "pure_state_entropy", "counted"),
        ("entropy", "husimi", "timed"),
        ("entropy", "husimi_fast", "timed"),
        ("entropy", "entropy_report", "timed"),
        ("entropy", "measurement_channel", "timed"),
        ("entropy", "von_neumann_entropy", "timed"),
        ("entropy", "wehrl_entropy_coset", "timed"),
        ("minimize", "minimize", "counted"),
        ("minimize", "descend", "timed"),
        ("minimize", "entropy_gradient", "timed"),
        ("minimize", "nearest_coherent", "timed"),
        ("verify", "run_checks", "timed"),
    ]
    + [("verify", name, "timed") for name in VERIFY_CHECKS]
    + [
        ("io", "husimi_to_csv", "timed"),
        ("io", "density_matrix_to_json", "timed"),
        ("io", "load_state_file", "timed"),
        ("io", "entropy_report_to_json", "timed"),
        ("cli", "main", "timed"),
        ("cli", "build_parser", "timed"),
    ]
)

# Every per-layer metric, in report order, with its unit.
LAYER_METRICS: dict[str, str] = {
    "groups.all_subgroups.s": "s",
    "groups.subgroup_closure.s": "s",
    "groups.maximal_compact.s": "s",
    "groups.coset_representatives.s": "s",
    "groups.Character.phase.calls": "count",
    "weyl.verify_ccr.s": "s",
    "weyl.cocycle_phase.calls": "count",
    "weyl.weyl_apply.calls": "count",
    "weyl.weyl_apply.s": "s",
    "weyl.weyl_matrix.s": "s",
    "states.check_density_matrix.s": "s",
    "states.check_state_vector.s": "s",
    "frames.CoherentFrame.state_matrix.s": "s",
    "frames.CoherentFrame.cosets.s": "s",
    "frames.resolution_residual.s": "s",
    "frames.invariant_subspace_dim.s": "s",
    "frames.overlap_matrix.s": "s",
    "entropy.pure_amplitudes.calls": "count",
    "entropy.pure_amplitudes.s": "s",
    "entropy.pure_amplitudes.Z64.calls": "count",
    "entropy.pure_amplitudes.Z64.s": "s",
    "entropy.pure_amplitudes.Z2x6.calls": "count",
    "entropy.pure_amplitudes.Z2x6.s": "s",
    "entropy.pure_state_entropy.calls": "count",
    "entropy.husimi.s": "s",
    "entropy.husimi_fast.s": "s",
    "entropy.entropy_report.s": "s",
    "entropy.measurement_channel.s": "s",
    "entropy.von_neumann_entropy.s": "s",
    "entropy.wehrl_entropy_coset.s": "s",
    "minimize.descend.calls": "count",
    "minimize.descend.s": "s",
    "minimize.entropy_gradient.calls": "count",
    "minimize.entropy_gradient.s": "s",
    "minimize.nearest_coherent.s": "s",
    "minimize.iterations": "count",
    "minimize.stalled_restarts": "count",
    "minimize.useful_restart_ratio": "ratio",
    "verify.run_checks.s": "s",
    **{f"verify.{name}.s": "s" for name in VERIFY_CHECKS},
    "io.husimi_to_csv.s": "s",
    "io.density_matrix_to_json.s": "s",
    "io.load_state_file.s": "s",
    "io.entropy_report_to_json.s": "s",
    "cli.main.s": "s",
    "cli.build_parser.s": "s",
    "cli.commands.s": "s",
    "host.ref_s": "s",
}


class Tracer:
    """Self time and call counts per layer key; install() patches `wehrl`."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._child_s = [0.0]  # time of nested timed calls, one slot per open call
        self._open: list[str] = []  # keys of the open timed calls, innermost last
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _timed(self, key: str, fn, observe=None):
        self_s, counts, child_s, open_keys = self.self_s, self.counts, self._child_s, self._open
        caller = CHARGED_TO_CALLER.get(key)

        def wrapper(*args, **kwargs):
            if caller is not None and open_keys and open_keys[-1] == caller:
                return fn(*args, **kwargs)
            child_s.append(0.0)
            open_keys.append(key)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                open_keys.pop()
                own = elapsed - child_s.pop()
                child_s[-1] += elapsed
                self_s[key] += own
                counts[key] += 1
                shape = _shape_of(args)
                if shape is not None:
                    self_s[f"{key}.{shape}"] += own
                    counts[f"{key}.{shape}"] += 1
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _counted(self, key: str, fn, observe=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _observe_minimize(self, result) -> None:
        self.counts["minimize.iterations"] += int(result.iterations)

    def _observe_descend(self, result) -> None:
        self.counts["minimize.restarts"] += 1
        if result[1] > STALL_ENTROPY:
            self.counts["minimize.stalled_restarts"] += 1

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for module_name in {module_name for module_name, _, _ in TARGETS}:
            importlib.import_module(f"wehrl.{module_name}")
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "wehrl"]
        for module_name, attr, how in TARGETS:
            module = sys.modules[f"wehrl.{module_name}"]
            key = f"{module_name}.{attr}"
            observe = {
                "minimize.minimize": self._observe_minimize,
                "minimize.descend": self._observe_descend,
            }.get(key)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
            else:
                original = module.__dict__[attr]
            if how == "timed":
                wrapped = self._timed(key, original, observe=observe)
            else:
                wrapped = self._counted(key, original, observe=observe)
            if "." in attr:
                self._replace(owner, meth, original, wrapped)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._replace(m, name, original, wrapped)
        # argparse dispatch holds the command functions in a table of its own
        cli = sys.modules["wehrl.cli"]
        for name, (func, help_text) in list(cli._COMMANDS.items()):
            wrapped = self._timed("cli.commands", func)
            cli._COMMANDS[name] = (wrapped, help_text)
            self._patched.append((cli._COMMANDS, name, (func, help_text)))

    def _replace(self, owner, name: str, original, wrapped) -> None:
        setattr(owner, name, wrapped)
        self._patched.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patched.clear()

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> tuple[dict[str, float], dict[str, int]]:
        return dict(self.self_s), dict(self.counts)


def per_setup_and_round(
    setup: tuple[dict, dict], total: tuple[dict, dict], setups: int, rounds: int
) -> tuple[dict[str, float], dict[str, float]]:
    """(self seconds, calls) per key for one setup plus one round of operations.

    Every setup repetition and every round repeat the same calls, so
    counts come out as whole numbers.
    """
    out = []
    for before, after in zip(setup, total):
        out.append({
            key: before.get(key, 0) / setups + (after[key] - before.get(key, 0)) / rounds
            for key in after
        })
    return out[0], out[1]


def layer_values(self_s: dict[str, float], calls: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics, from per_setup_and_round's figures."""
    values: dict[str, float] = {}
    for name in LAYER_METRICS:
        if name.endswith(".s") and name != "host.ref_s":
            values[name] = self_s.get(name[: -len(".s")], 0.0)
        elif name.endswith(".calls"):
            values[name] = calls.get(name[: -len(".calls")], 0.0)
    values["minimize.iterations"] = calls.get("minimize.iterations", 0.0)
    stalled = values["minimize.stalled_restarts"] = calls.get("minimize.stalled_restarts", 0.0)
    restarts = calls.get("minimize.restarts", 0.0)
    values["minimize.useful_restart_ratio"] = (restarts - stalled) / restarts if restarts else 0.0
    return values
