"""The benchmark's workloads: program-side setup, operations, output checks.

Each workload is a closed loop with one client. Its operations are built
once from the seed and replayed unchanged in every round, so every round
does the same work. Program functions are looked up on their modules at
call time, so that wrappers installed by `tracing` see every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

from perfbench import oracle

SUITE_SPECS = ("Z2", "Z3", "Z4", "Z6", "Z8", "Z2xZ2", "Z4xZ2", "Z3xZ3", "Z9", "Z2xZ2xZ2")
SUITE_PAIR_COUNT = 53
# H = G frames added to the minimize workload: one cyclic, one square, one
# cube and one elementary 2-group of order 64, on both sides of the
# fftn / character-table crossover.
MINIMIZE_EXTRA = ("Z64", "Z8xZ8", "Z4xZ4xZ4", "Z2xZ2xZ2xZ2xZ2xZ2")
CLI_GROUPS = ("Z64", "Z4xZ8", "Z6xZ6")
CLI_COMMANDS = ("entropy", "husimi", "channel")
CLI_SOURCES = ("random", "maximally_mixed", "coherent", "vector-json", "vector-csv", "density-json")
CHECK_NAMES_FILE = Path(__file__).with_name("check_names.json")

# minimiser gates (Tier-1 criterion 10)
MIN_ENTROPY_GATE = 1e-6
MIN_OVERLAP_GATE = 1 - 1e-4


def _mod(name: str):
    return importlib.import_module(f"wehrl.{name}")


class CheckFailed(Exception):
    """An output of the program is wrong."""


class OperationFailed(Exception):
    """The program did not complete an operation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]  # raises CheckFailed
    fingerprint: Callable[[object], str]


def _digest(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


def _coords(subgroup) -> frozenset:
    return frozenset(e.coords for e in subgroup.elements)


def _check_suite_lattice(pairs) -> None:
    """The program's suite pairs are the brute-force subgroup lattices."""
    require(len(pairs) == SUITE_PAIR_COUNT, f"{len(pairs)} suite pairs, expected 53")
    require(
        tuple(dict.fromkeys(str(g) for g, _ in pairs)) == SUITE_SPECS,
        "suite groups differ from the standard suite",
    )
    expected = {
        (spec, H) for spec in SUITE_SPECS
        for H in oracle.brute_force_subgroups(oracle.parse_orders(spec))
    }
    require(len(expected) == SUITE_PAIR_COUNT, "brute-force lattice count is not 53")
    require({(str(g), _coords(H)) for g, H in pairs} == expected,
            "suite subgroups differ from the brute-force lattices")


class SuiteVerify:
    """run_checks over the 53 standard-suite pairs; one operation per pair."""

    name = "suite-verify"
    setup_repeats = 15
    nominal_round_s = 36.0

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed

    def make_inputs(self) -> None:
        self.expected_names = json.loads(CHECK_NAMES_FILE.read_text())

    def setup(self) -> None:
        self.pairs = _mod("verify").suite_pairs()

    def check_setup(self) -> None:
        _check_suite_lattice(self.pairs)

    def operations(self) -> list[Op]:
        ops = []
        for g, H in self.pairs:
            orders = oracle.parse_orders(str(g))
            ann = oracle.annihilator_order(orders, _coords(H))
            ops.append(Op(
                f"{g}|{H}",
                lambda g=g, H=H: _mod("verify").run_checks(g, H, seed=self.seed, rho_samples=200),
                lambda results, g=g, H=H, ann=ann: self._check(g, H, ann, results),
                lambda results: _digest(repr([(r.name, r.residual, r.passed) for r in results])),
            ))
        order = np.random.default_rng(self.seed).permutation(len(ops))
        return [ops[i] for i in order]

    def _check(self, g, H, ann_order: int, results) -> None:
        names = [r.name for r in results]
        require(names == self.expected_names[str(g)],
                f"{g} | {H}: check names differ from check_names.json: {names}")
        failed = [r.name for r in results if not r.passed]
        require(not failed, f"{g} | {H}: checks failed: {failed}")
        require(ann_order * H.order == g.order, f"{g} | {H}: |A(H)| |H| != |G|")
        duality = results[names.index("annihilator-duality")]
        require(duality.note == f"|A| = {ann_order}",
                f"{g} | {H}: annihilator order {duality.note!r}, brute force {ann_order}")


class Minimize:
    """minimize() with the default config on every suite vacuum frame and four H = G frames."""

    name = "minimize"
    setup_repeats = 15
    nominal_round_s = 15.0

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed

    def make_inputs(self) -> None:
        pass

    def setup(self) -> None:
        groups, frames = _mod("groups"), _mod("frames")
        subgroups = [H for _, H in _mod("verify").suite_pairs()]
        subgroups += [groups.Subgroup.whole(groups.parse_group(s)) for s in MINIMIZE_EXTRA]
        self.frames = [frames.CoherentFrame.vacuum(H) for H in subgroups]

    def check_setup(self) -> None:
        require(len(self.frames) == SUITE_PAIR_COUNT + len(MINIMIZE_EXTRA), "frame count")

    def operations(self) -> list[Op]:
        ops = []
        for frame in self.frames:
            ops.append(Op(
                f"{frame.group}|{frame.subgroup}",
                lambda frame=frame: _mod("minimize").minimize(frame),
                lambda result, frame=frame: self._check(frame, result),
                lambda r: _digest(repr((r.best_entropy, r.nearest_overlap, r.iterations,
                                        r.best_state.tobytes()))),
            ))
        order = np.random.default_rng(self.seed).permutation(len(ops))
        return [ops[i] for i in order]

    @staticmethod
    def _check(frame, result) -> None:
        where = f"{frame.group} | {frame.subgroup}"
        s = result.best_entropy
        require(-1e-12 <= s <= MIN_ENTROPY_GATE, f"{where}: best_entropy {s!r} outside the gate")
        require(result.nearest_overlap >= MIN_OVERLAP_GATE,
                f"{where}: nearest_overlap {result.nearest_overlap!r}")
        orders = oracle.parse_orders(str(frame.group))
        q = oracle.husimi_vector(orders, _coords(frame.subgroup), result.best_state)
        own = oracle.wehrl(q, frame.group.order)
        require(abs(own - s) <= 1e-9, f"{where}: S^W {s!r}, recomputed {own!r}")


def _cli_call(argv: list[str]) -> tuple[str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _mod("cli").main(argv)
    if code != 0:
        raise OperationFailed(f"wehrl {' '.join(argv)}: exit {code}: {err.getvalue().strip()}")
    return out.getvalue(), err.getvalue()


def _fmt(coords) -> str:
    return ",".join(str(int(c)) for c in coords)


@lru_cache(maxsize=None)
def _lex_labels(orders: tuple[int, ...]) -> list[tuple[str, str]]:
    """(g, lambda) columns of a Husimi CSV table, in lex order."""
    els = oracle.elements(orders)
    return [(_fmt(g), _fmt(a)) for g in els for a in els]


def _random_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    rho = 0.5 * (rho + rho.conj().T)  # exactly Hermitian
    return rho / np.trace(rho).real


class CliSession:
    """In-process `wehrl` calls: group-info at setup, then entropy/husimi/channel."""

    name = "cli-session"
    setup_repeats = 2
    nominal_round_s = 16.0

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.work_dir = work_dir
        self.rng = np.random.default_rng(seed)
        self.setup_outputs: list[list[str]] = []

    def make_inputs(self) -> None:
        """State files for each group: vector JSON, vector CSV, density JSON."""
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.files: dict[tuple[str, str], tuple[str, np.ndarray]] = {}
        for spec in CLI_GROUPS:
            d = math.prod(oracle.parse_orders(spec))
            vec = _random_vector(d, self.rng)
            path = self.work_dir / f"{spec}-vector.json"
            path.write_text(json.dumps([[float(v.real), float(v.imag)] for v in vec]))
            self.files[spec, "vector-json"] = (str(path), vec)
            vec = _random_vector(d, self.rng)
            path = self.work_dir / f"{spec}-vector.csv"
            rows = [f"{i},{float(v.real)!r},{float(v.imag)!r}" for i, v in enumerate(vec)]
            path.write_text("index,re,im\n" + "\n".join(rows) + "\n")
            self.files[spec, "vector-csv"] = (str(path), vec)
            rho = _random_density(d, self.rng)
            path = self.work_dir / f"{spec}-density.json"
            entries = [[float(v.real), float(v.imag)] for v in rho.reshape(-1)]
            path.write_text(json.dumps({"dim": d, "entries": entries}))
            self.files[spec, "density-json"] = (str(path), rho)

    def setup(self) -> None:
        self.setup_outputs.append(
            [_cli_call(["group-info", "--group", spec])[0] for spec in CLI_GROUPS]
        )

    def check_setup(self) -> None:
        first = self.setup_outputs[0]
        require(all(out == first for out in self.setup_outputs), "group-info output varies")
        self.subgroups: dict[str, list[tuple[str, frozenset]]] = {}
        for spec, text in zip(CLI_GROUPS, first):
            orders = oracle.parse_orders(spec)
            d = math.prod(orders)
            info = json.loads(text)
            require(info["order"] == d and tuple(info["factors"]) == orders, f"{spec}: order")
            rows = info["subgroups"]
            lattice = oracle.brute_force_subgroups(orders)
            require(info["subgroup_count"] == len(rows) == len(lattice),
                    f"{spec}: {info['subgroup_count']} subgroups, brute force {len(lattice)}")
            listed = []
            for row in rows:
                H = frozenset(oracle.parse_coord_list(row["elements"]))
                require(len(H) == row["order"], f"{spec} {row['elements']}: order")
                require(oracle.is_closed(orders, H), f"{spec} {row['elements']}: not closed")
                require(row["annihilator_order"] * row["order"] == d,
                        f"{spec} {row['elements']}: annihilator order")
                require(row["annihilator_order"] == oracle.annihilator_order(orders, H),
                        f"{spec} {row['elements']}: annihilator order differs from brute force")
                require(row["corwin"] == oracle.doubling_is_onto(orders, H),
                        f"{spec} {row['elements']}: corwin flag")
                listed.append((row["elements"], H))
            require({H for _, H in listed} == lattice, f"{spec}: lattice differs")
            self.subgroups[spec] = listed

    def operations(self) -> list[Op]:
        ops = []
        for spec in CLI_GROUPS:
            orders = oracle.parse_orders(spec)
            for text, H in self.subgroups[spec]:
                for command in CLI_COMMANDS:
                    for source in CLI_SOURCES:
                        arg, kind, state = self._state(spec, orders, H, source)
                        argv = [command, "--group", spec, "--subgroup", text, "--state", arg]
                        ops.append(Op(
                            f"{command}|{spec}|{source}",
                            lambda argv=argv: _cli_call(argv),
                            lambda out, c=command, o=orders, H=H, s=source, k=kind, st=state:
                                self._check(c, o, H, s, k, st, out),
                            lambda out: _digest(out[0]) + _digest(out[1]),
                        ))
        order = self.rng.permutation(len(ops))
        return [ops[i] for i in order]

    def _state(self, spec, orders, H, source):
        """(--state argument, "vector" | "density", the state as an array)."""
        d = math.prod(orders)
        if source == "random":
            k = int(self.rng.integers(0, 2**31))
            return f"random:{k}", "vector", _random_vector(d, np.random.default_rng(k))
        if source == "maximally_mixed":
            return "maximally_mixed", "density", np.eye(d) / d
        if source == "coherent":
            g = tuple(int(self.rng.integers(0, n)) for n in orders)
            a = tuple(int(self.rng.integers(0, n)) for n in orders)
            return f"coherent:{_fmt(g)};{_fmt(a)}", "vector", oracle.coherent_vector(orders, H, g, a)
        path, state = self.files[spec, source]
        return path, ("density" if state.ndim == 2 else "vector"), state

    def _check(self, command, orders, H, source, kind, state, out) -> None:
        stdout, stderr = out
        where = f"{command} {'x'.join(f'Z{n}' for n in orders)} H={sorted(H)} {source}"
        require(stderr == "", f"{where}: stderr {stderr!r}")
        d = math.prod(orders)
        rho = np.outer(state, state.conj()) if kind == "vector" else state
        if kind == "vector":
            q = oracle.husimi_vector(orders, H, state)
        else:
            q = oracle.husimi_density(orders, H, state)
        if command == "entropy":
            rep = json.loads(stdout)
            w, vn = rep["wehrl"], rep["von_neumann"]
            require(vn - 1e-9 <= w <= math.log(d) + 1e-9, f"{where}: bounds {rep}")
            require(abs(w - oracle.wehrl(q, d)) <= 1e-10, f"{where}: wehrl {w!r}")
            require(abs(vn - oracle.von_neumann(rho)) <= 1e-10, f"{where}: von Neumann {vn!r}")
            if source == "maximally_mixed":
                require(abs(w - math.log(d)) <= 1e-10, f"{where}: wehrl {w!r} != log|G|")
            if source == "coherent":
                require(w <= 1e-12, f"{where}: coherent wehrl {w!r}")
        elif command == "husimi":
            rows = list(csv.reader(io.StringIO(stdout)))
            require(rows[0] == ["g", "lambda", "Q"], f"{where}: header")
            body = rows[1:]
            require(len(body) == d * d, f"{where}: {len(body)} rows")
            require([(r[0], r[1]) for r in body] == _lex_labels(orders),
                    f"{where}: rows not in lex order")
            got = np.array([float(r[2]) for r in body])
            require(got.min() >= -1e-12 and got.max() <= 1 + 1e-12, f"{where}: Q out of [0, 1]")
            require(abs(got.sum() / d - 1) <= 1e-10, f"{where}: mass {got.sum() / d!r}")
            require(np.abs(got - q).max() <= 1e-10, f"{where}: Q differs by {np.abs(got - q).max()}")
            if source == "coherent":
                ones = got > 0.5
                require(int(ones.sum()) == d, f"{where}: {int(ones.sum())} ones, expected {d}")
                require(np.abs(got[ones] - 1).max() <= 1e-12 and np.abs(got[~ones]).max() <= 1e-12,
                        f"{where}: coherent Q is not 0/1")
        else:
            payload = json.loads(stdout)
            require(payload["dim"] == d, f"{where}: dim")
            m = np.array([complex(re, im) for re, im in payload["entries"]]).reshape(d, d)
            require(np.abs(m - m.conj().T).max() <= 1e-12, f"{where}: not Hermitian")
            require(np.linalg.eigvalsh(m).min() >= -1e-10, f"{where}: not PSD")
            require(abs(np.trace(m) - 1) <= 1e-10, f"{where}: trace {np.trace(m)!r}")
            own = oracle.channel(orders, H, rho)
            require(np.abs(m - own).max() <= 1e-10, f"{where}: channel differs")
            if source in ("maximally_mixed", "coherent"):
                require(np.abs(m - rho).max() <= 1e-11, f"{where}: not a fixed point")


WORKLOADS = {w.name: w for w in (SuiteVerify, Minimize, CliSession)}
