import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wehrl import (
    CoherentFrame,
    MinimizerConfig,
    minimize,
    parse_group,
    pure_state_entropy,
    random_state_vector,
)
from wehrl.cli import _subgroup_from_args, build_parser, main
from wehrl.io import density_matrix_from_json, density_matrix_to_json
from wehrl.states import check_density_matrix, maximally_mixed

from state_helpers import state_vector_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# happy paths


def test_verify_subcommand(capsys):
    code, out, _ = run_cli(capsys, "verify", "--group", "Z4", "--subgroup", "2")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out
    assert "ccr-commutation" in out


def test_entropy_maximally_mixed(capsys):
    code, out, _ = run_cli(
        capsys, "entropy", "--group", "Z2", "--subgroup", "1",
        "--state", "maximally_mixed",
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"wehrl", "von_neumann", "gap", "log_base"}
    assert data["wehrl"] == pytest.approx(math.log(2), abs=1e-10)
    assert data["von_neumann"] == pytest.approx(math.log(2), abs=1e-10)
    assert data["log_base"] == "e"


def test_entropy_csv_and_log_base(capsys):
    code, out, _ = run_cli(
        capsys, "entropy", "--group", "Z2", "--subgroup", "1",
        "--state", "maximally_mixed", "--log-base", "2", "--output", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "wehrl,von_neumann,gap,log_base"
    row = lines[1].split(",")
    assert float(row[0]) == pytest.approx(1.0, abs=1e-10)
    assert row[3] == "2"


def test_minimize_spec_example(capsys):
    code, out, _ = run_cli(
        capsys, "minimize", "--group", "Z4", "--subgroup", "2", "--seed", "7"
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {
        "group", "subgroup", "fiducial_kind", "best_entropy", "overlap",
        "iterations", "seed",
    }
    assert data["group"] == "Z4"
    assert data["fiducial_kind"] == "vacuum"
    assert data["seed"] == 7
    assert data["best_entropy"] <= 1e-6
    assert data["overlap"] >= 1 - 1e-4


def test_husimi_csv(capsys):
    code, out, _ = run_cli(
        capsys, "husimi", "--group", "Z4", "--subgroup", "2",
        "--state", "coherent:1;1",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "g,lambda,Q"
    assert len(lines) == 1 + 16
    values = np.array([float(line.rsplit(",", 1)[1]) for line in lines[1:]])
    assert np.count_nonzero(values > 0.5) == 4  # one K-coset of |K| = |G|
    assert values.sum() == pytest.approx(4.0, abs=1e-10)


def test_husimi_density_input(capsys, tmp_path):
    path = tmp_path / "rho.json"
    path.write_text(density_matrix_to_json(maximally_mixed(4)))
    code, out, _ = run_cli(
        capsys, "husimi", "--group", "Z4", "--subgroup", "2", "--state", str(path)
    )
    assert code == 0
    values = [float(line.rsplit(",", 1)[1]) for line in out.splitlines()[1:]]
    assert values == pytest.approx([0.25] * 16, abs=1e-12)


def test_channel_output_is_density(capsys):
    code, out, _ = run_cli(
        capsys, "channel", "--group", "Z4", "--subgroup", "2",
        "--state", "random:3",
    )
    assert code == 0
    rho = density_matrix_from_json(out)
    assert rho.shape == (4, 4)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.eigvalsh(rho).min() > -1e-10


def test_group_info_json(capsys):
    code, out, _ = run_cli(capsys, "group-info", "--group", "Z4")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 4
    assert data["factors"] == [4]
    assert data["subgroup_count"] == 3
    orders = [row["order"] for row in data["subgroups"]]
    assert orders == [1, 2, 4]
    ann = [row["annihilator_order"] for row in data["subgroups"]]
    assert ann == [4, 2, 1]
    assert [row["corwin"] for row in data["subgroups"]] == [True, False, False]


def test_group_info_csv(capsys):
    code, out, _ = run_cli(capsys, "group-info", "--group", "Z2xZ2", "--output", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "elements,order,annihilator_order,corwin"
    assert len(lines) == 1 + 5


def test_scan_subcommand(capsys):
    code, out, _ = run_cli(capsys, "scan", "--group", "Z2", "--subgroup", "1")
    assert code == 0
    data = json.loads(out)
    assert data["group"] == "Z2"
    assert len(data["rows"]) == data["trials"] + 1
    assert data["rows"][0]["fiducial_kind"] == "vacuum"


def test_vector_state_file(capsys, tmp_path):
    vec = random_state_vector(4, np.random.default_rng(5))
    path = tmp_path / "psi.json"
    path.write_text(state_vector_to_json(vec))
    code, out, _ = run_cli(
        capsys, "entropy", "--group", "Z4", "--subgroup", "2", "--state", str(path)
    )
    assert code == 0
    assert json.loads(out)["von_neumann"] == pytest.approx(0.0, abs=1e-9)


# the walk used to stop on its plateau rule at 1.34e-6 here, above the gate
def test_minimize_passes_the_gate_where_the_plateau_rule_stalled(capsys):
    code, out, _ = run_cli(
        capsys, "minimize", "--group", "Z4xZ8", "--subgroup", "0,2;2,0", "--seed", "1"
    )
    assert code == 0
    assert json.loads(out)["best_entropy"] <= 1e-8


@pytest.mark.parametrize("argv", [
    ("--group", "Z4", "--subgroup", "2", "--seed", "7"),
    ("--group", "Z1"),
    ("--group", "Z8xZ8", "--seed", "3"),
])
def test_minimize_trace_lines_and_unchanged_stdout(capsys, argv):
    code, plain, plain_err = run_cli(capsys, "minimize", *argv)
    assert code == 0 and plain_err == ""
    code, out, err = run_cli(capsys, "minimize", *argv, "--trace")
    assert code == 0 and out == plain
    lines = [json.loads(line) for line in err.splitlines()]
    assert [line["restart"] for line in lines] == list(range(16))
    for line in lines:
        assert set(line) == {"restart", "iterations", "halvings", "entropy",
                             "gate_margin_log10", "grad_norm", "overlap", "converged"}
        if line["entropy"] > 0:
            assert line["gate_margin_log10"] == pytest.approx(math.log10(1e-6 / line["entropy"]))
        else:
            assert line["gate_margin_log10"] is None
    # the trace keeps each walk's energy; best_entropy is S^W of the best
    # restart's state, recomputed by the group transform
    args = build_parser().parse_args(["minimize", *argv])
    group = parse_group(args.group)
    frame = CoherentFrame.vacuum(_subgroup_from_args(group, args.subgroup))
    result = minimize(frame, MinimizerConfig(seed=args.seed))
    energies = [line["entropy"] for line in lines]
    assert energies == result.restart_entropies.tolist()
    assert energies.index(min(energies)) == result.restart_index
    assert [line["overlap"] for line in lines] == result.restart_overlaps.tolist()
    assert json.loads(out)["best_entropy"] == pure_state_entropy(frame, result.best_state)
    assert sum(line["iterations"] for line in lines) == json.loads(out)["iterations"]


# ---------------------------------------------------------------------------
# options and the size guard

# the options each subcommand reads besides --group, written out here rather
# than read from the parser; each is the namespace attribute it sets
READS = {
    "group-info": {"output"},
    "verify": {"subgroup", "seed"},
    "entropy": {"subgroup", "state", "log_base", "output"},
    "husimi": {"subgroup", "state"},
    "channel": {"subgroup", "state"},
    "minimize": {"subgroup", "seed", "trace"},
    "scan": {"subgroup", "seed"},
}
OPTION_ARGS = {
    "subgroup": ("--subgroup", "1"),
    "state": ("--state", "random:1"),
    "log_base": ("--log-base", "2"),
    "output": ("--output", "json"),
    "seed": ("--seed", "3"),
    "trace": ("--trace",),
}


def _required(command):
    return ["--state", "random:1"] if "state" in READS[command] else []


@pytest.mark.parametrize("command", sorted(READS))
def test_namespace_holds_exactly_the_options_a_subcommand_reads(command):
    args = build_parser().parse_args([command, "--group", "Z2", *_required(command)])
    assert set(vars(args)) == {"subcommand", "group"} | READS[command]


# abbreviations of declared options, which argparse accepts unless told not to
PREFIX_ARGS = {"se": ("--se", "3"), "o": ("--o", "csv"), "s": ("--s", "3")}


@pytest.mark.parametrize("command, option", [
    (command, option) for command in sorted(READS) for option in OPTION_ARGS
    if option not in READS[command]
] + [("verify", "se"), ("group-info", "o"), ("minimize", "s")])
def test_undeclared_option_exits_2_and_names_it(capsys, command, option):
    flag = {**OPTION_ARGS, **PREFIX_ARGS}[option]
    code, out, err = run_cli(capsys, command, "--group", "Z2", *_required(command), *flag)
    assert (code, out) == (2, "")
    assert "unrecognized arguments: " + " ".join(flag) in err


# unguarded, Z1000000 runs for minutes in the closure table of Subgroup.whole,
# or raises MemoryError in group-info's lattice; the guard refuses it first
@pytest.mark.parametrize("command", sorted(READS))
def test_order_above_the_dense_limit_is_refused_by_every_subcommand(capsys, monkeypatch, command):
    monkeypatch.delenv("WEHRL_DENSE_LIMIT", raising=False)
    code, out, err = run_cli(capsys, command, "--group", "Z1000000", *_required(command))
    assert (code, out) == (2, "")
    assert err == "error: |G| = 1000000 exceeds the dense-matrix limit 256\n"


# ---------------------------------------------------------------------------
# determinism


def test_cli_byte_identical_in_process(capsys):
    results = [
        run_cli(capsys, "minimize", "--group", "Z4", "--subgroup", "2", "--seed", "9")
        for _ in range(2)
    ]
    assert results[0] == results[1]
    verifies = [
        run_cli(capsys, "verify", "--group", "Z3", "--seed", "2") for _ in range(2)
    ]
    assert verifies[0] == verifies[1]


def test_cli_byte_identical_subprocess():
    cmd = [
        sys.executable, "-m", "wehrl",
        "minimize", "--group", "Z2", "--subgroup", "1", "--seed", "4",
    ]
    a = subprocess.run(cmd, capture_output=True, check=True)
    b = subprocess.run(cmd, capture_output=True, check=True)
    assert a.stdout == b.stdout
    assert a.stdout.startswith(b'{"best_entropy"')


# group-info never imports numpy.ma, which np.unique without indices loads
# lazily (numpy 2.4); in a fresh process that import costs about 11 ms
def test_group_info_does_not_import_numpy_ma():
    script = (
        "import contextlib, io, sys\n"
        "from wehrl import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['group-info', '--group', 'Z4xZ2'])\n"
        "sys.exit(code or ('numpy.ma' in sys.modules))\n"
    )
    assert subprocess.run([sys.executable, "-c", script]).returncode == 0


REPEATED_CALLS = [
    ("group-info", "--group", "Z2xZ2", "--output", "csv"),
    ("husimi", "--group", "Z4xZ2", "--subgroup", "2,0;0,1", "--state", "random:3"),
    ("entropy", "--group", "Z4", "--output", "xml"),  # parse error, exit 2
    ("--help",),
    ("channel", "--group", "Z4", "--subgroup", "2", "--state", "coherent:1;3"),
    ("husimi", "--help"),
    ("entropy", "--group", "Z2xZ3", "--state", "maximally_mixed", "--log-base", "2"),
    ("husimi", "--group", "Z4", "--state", "coherent:1"),  # input error, exit 2
]


def test_repeated_main_matches_fresh_processes(capsys, monkeypatch):
    """One process serving many calls prints what a fresh process per call prints."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    fresh = [
        subprocess.run([sys.executable, "-m", "wehrl", *argv], capture_output=True, text=True)
        for argv in REPEATED_CALLS
    ]
    for _ in range(2):
        for argv, proc in zip(REPEATED_CALLS, fresh):
            assert run_cli(capsys, *argv) == (proc.returncode, proc.stdout, proc.stderr)
    assert [proc.returncode for proc in fresh] == [0, 0, 2, 0, 0, 0, 0, 2]


# ---------------------------------------------------------------------------
# error handling


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--group", "Zfoo"),
        ("verify", "--group", "Z4", "--subgroup", "1,0"),  # wrong arity
        ("entropy", "--group", "Z4"),  # --state missing
        ("entropy", "--group", "Z4", "--state", "no/such/file.json"),
        ("entropy", "--group", "Z4", "--state", "random:notanint"),
        ("husimi", "--group", "Z4", "--state", "coherent:1"),  # malformed point
        ("entropy", "--group", "Z1", "--state=maximally_mixed", "--subgroup=--"),
        ("minimize", "--group=--"),
        ("minimize", "--group", "Z2", "--seed=--"),
        ("nosuchcommand",),
        (),
    ],
)
def test_bad_inputs_exit_2(capsys, argv):
    code = main(list(argv))
    capsys.readouterr()
    assert code == 2


FUZZ_GROUPS = ("Z1", "Z2", "Z5", "Z6", "Z2xZ2", "Z8", "Z3xZ3", "Z4xZ2", "Z16", "Z4xZ4", "Z2xZ2xZ2xZ2")
# digits, separators and junk, as typed or mistyped on a command line
FUZZ_TEXT = st.text(alphabet="0123456789,;-+ x.e", max_size=12)
FUZZ_STATES = st.one_of(
    st.just("maximally_mixed"),
    st.builds("random:{}".format, st.one_of(st.integers(-(10**20), 10**20), FUZZ_TEXT)),
    st.builds("coherent:{}".format, FUZZ_TEXT),
)
# negative seeds are input errors; zero and seeds beyond 2^64 are valid
FUZZ_SEEDS = st.one_of(
    st.none(),
    st.integers(-(2**70), -1),
    st.just(0),
    st.integers(2**64, 2**70),
)


# every input is a success or an input error (exit 2 with a message), never a crash
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(("entropy", "husimi", "channel", "minimize", "verify", "scan")),
    group=st.sampled_from(FUZZ_GROUPS),
    subgroup=st.one_of(st.none(), FUZZ_TEXT),
    state=FUZZ_STATES,
    seed=FUZZ_SEEDS,
)
def test_fuzzed_inputs_exit_0_or_2(capsys, command, group, subgroup, state, seed):
    argv = [command, "--group", group]
    if "state" in READS[command]:
        argv.append(f"--state={state}")
    if "seed" in READS[command] and seed is not None:
        argv.append(f"--seed={seed}")
    if subgroup is not None:
        argv.append(f"--subgroup={subgroup}")
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2)
    if code == 2:
        assert err.startswith(("error:", "usage:"))


def test_non_unit_state_file_rejected(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(state_vector_to_json(np.array([1.0, 1.0, 0.0, 0.0])))
    code, _, err = run_cli(
        capsys, "entropy", "--group", "Z4", "--subgroup", "2", "--state", str(path)
    )
    assert code == 2
    assert "error" in err


# a vector file is held to check_state_vector's norm tolerance, 1e-12,
# by the parser and by every command alike
@pytest.mark.parametrize("command", ["entropy", "husimi", "channel"])
def test_vector_file_off_unit_norm_is_rejected_by_every_command(capsys, tmp_path, command):
    vec = np.array([1.0, 0.0, 0.0, 0.0]) * (1.0 + 5e-9)
    path = tmp_path / "psi.json"
    path.write_text(state_vector_to_json(vec))
    code, out, err = run_cli(capsys, command, "--group", "Z4", "--state", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: state vector norm ") and "is not 1 within 1e-12" in err


_HUGE = "1" + "0" * 400  # an integer no float holds


@pytest.mark.parametrize(
    "content",
    [
        "[1,2]",
        '[[1.0, 0.0], [0.0]]',
        '{"dim": 2, "entries": [1, 0, 0, 1]}',
        pytest.param(f"[[{_HUGE}, 0], [0, 0]]", id="huge-vector-entry"),
        pytest.param(
            f'{{"dim": 2, "entries": [[{_HUGE}, 0], [0, 0], [0, 0], [0, 0]]}}',
            id="huge-density-entry",
        ),
    ],
)
def test_malformed_state_file_exits_2(capsys, tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    code, _, err = run_cli(capsys, "entropy", "--group", "Z2", "--state", str(path))
    assert code == 2
    assert "[re, im] pairs" in err


@pytest.mark.parametrize(
    "content, message",
    [
        ("index,re,im\n0,1.0,0.0\n1,0.0,0.0\n\n", "row 4 has 0 fields"),
        ("index,re,im\n0,1\n1,0.0,0.0\n", "row 2 has 2 fields"),
        ("index,re,im\n0,1.0,0.0\n0,0.0,0.0\n", "row 3: index 0 repeated"),
        ("index,re,im\n0,1.0,0.0\n1,0.0,0.0,7\n", "row 3 has 4 fields"),
        ('{"dim": 1e400, "entries": [[1, 0]]}', "'dim' must be an integer"),
        ('{"dim": 2.5, "entries": [[1, 0], [0, 0], [0, 0], [0, 0]]}', "'dim' must be an integer >= 1"),
        ('{"dim": -2, "entries": [[1, 0], [0, 0], [0, 0], [0, 0]]}', "'dim' must be an integer >= 1"),
        # integers past what d * d can be formatted as (4300 digits)
        ('{"dim": 1%s, "entries": [[1, 0]]}' % ("0" * 400), "entries (1) are not 'dim' squared"),
        ('{"dim": 1%s, "entries": [[1, 0]]}' % ("0" * 2200), "entries (1) are not 'dim' squared"),
    ],
    ids=["trailing-blank-line", "two-fields", "repeated-index", "four-fields", "huge-dim",
         "fractional-dim", "negative-dim", "integer-dim-10^400", "integer-dim-10^2200"],
)
def test_malformed_state_csv_or_dim_exits_2(capsys, tmp_path, content, message):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    code, out, err = run_cli(capsys, "entropy", "--group", "Z2", "--state", str(path))
    assert (code, out) == (2, "")
    assert message in err
    assert len(err) < 100


# nesting past the JSON parser's recursion limit is an input error, and the
# message does not echo the file
@pytest.mark.parametrize(
    "content",
    ["[" * 5000 + "]" * 5000, '{"dim": 1, "entries": ' + "[" * 5000 + "]" * 5000 + "}"],
    ids=["deep-vector", "deep-density"],
)
def test_deeply_nested_state_file_exits_2(capsys, tmp_path, content):
    path = tmp_path / "deep.json"
    path.write_text(content)
    code, out, err = run_cli(capsys, "entropy", "--group", "Z1", "--state", str(path))
    assert (code, out, err) == (2, "", "error: state JSON is nested too deeply\n")


# JSON of any shape, numbers no float holds among them, and rows of text
_FUZZ_JSON = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(10**400), 10**400),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=4),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.fixed_dictionaries({"dim": children, "entries": children}),
        st.dictionaries(st.sampled_from(["dim", "entries", "x"]), children, max_size=3),
    ),
    max_leaves=20,
)
_FUZZ_ROWS = st.lists(
    st.lists(st.text(alphabet="0123456789.-+eE naif", max_size=6), max_size=4).map(",".join),
    max_size=6,
).map(lambda rows: "index,re,im\n" + "\n".join(rows))
_FUZZ_FILES = st.one_of(_FUZZ_JSON.map(json.dumps), _FUZZ_ROWS, st.text(max_size=30))


# every state file is read or refused with a message (exit 2), never a crash
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(("entropy", "husimi", "channel")),
    group=st.sampled_from(("Z1", "Z2", "Z4")),
    content=_FUZZ_FILES,
)
def test_fuzzed_state_files_exit_0_or_2(capsys, tmp_path, command, group, content):
    path = tmp_path / "state.txt"
    path.write_text(content)
    code, _, err = run_cli(capsys, command, "--group", group, "--state", str(path))
    assert code in (0, 2)
    if code == 2:
        assert err.startswith("error:")


_BAD_DENSITIES = {
    "non-hermitian": np.array([[0.5, 0.1], [0.0, 0.5]]),
    "non-psd": np.array([[1.5, 0.0], [0.0, -0.5]]),
    "wrong-trace": np.array([[0.7, 0.0], [0.0, 0.7]]),
    "wrong-dimension": np.eye(3) / 3,
    "nan": np.array([[np.nan, 0.0], [0.0, 0.5]]),
}


@pytest.mark.parametrize("command", ["entropy", "husimi", "channel"])
@pytest.mark.parametrize("name", sorted(_BAD_DENSITIES))
def test_bad_density_file_message(capsys, tmp_path, command, name):
    # the command's own validation gives check_density_matrix's message
    rho = _BAD_DENSITIES[name]
    path = tmp_path / "rho.json"
    path.write_text(density_matrix_to_json(rho))
    with pytest.raises(ValueError) as exc:
        check_density_matrix(rho, dim=2)
    code, out, err = run_cli(capsys, command, "--group", "Z2", "--state", str(path))
    assert (code, out, err) == (2, "", f"error: {exc.value}\n")


@pytest.mark.parametrize("command, eigvalsh_calls", [("entropy", 1), ("husimi", 0), ("channel", 0)])
def test_density_file_diagonalised_once_per_use(capsys, tmp_path, monkeypatch, command, eigvalsh_calls):
    # each density is validated once: by the eigvalsh of the von Neumann
    # entropy where that is needed, else by one Cholesky
    path = tmp_path / "rho.json"
    path.write_text(density_matrix_to_json(maximally_mixed(4)))
    seen = {"eigvalsh": [], "cholesky": []}
    for name, shapes in seen.items():
        real = getattr(np.linalg, name)

        def counting(a, *args, _real=real, _shapes=shapes, **kwargs):
            _shapes.append(np.shape(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    code, _, _ = run_cli(capsys, command, "--group", "Z4", "--subgroup", "2", "--state", str(path))
    assert code == 0
    assert seen == {"eigvalsh": [(4, 4)] * eigvalsh_calls, "cholesky": [(4, 4)] * (1 - eigvalsh_calls)}


@pytest.mark.parametrize(
    "content", ["[[NaN, 0], [0, 0]]", '{"dim": 2, "entries": [[NaN, 0], [0, 0], [0, 0], [1, 0]]}']
)
def test_non_finite_state_file_exits_2(capsys, tmp_path, content):
    path = tmp_path / "nan.json"
    path.write_text(content)
    code, out, err = run_cli(capsys, "entropy", "--group", "Z2", "--state", str(path))
    assert code == 2
    assert out == ""
    assert "non-finite" in err


# |F| = 16384 is over the state-matrix cap; the Husimi route never builds
# that matrix, and the dense-matrix limit still bounds |G|
def test_entropy_of_the_flat_state_above_the_state_matrix_cap(capsys):
    code, out, err = run_cli(capsys, "entropy", "--group", "Z128", "--state", "maximally_mixed")
    assert code == 0 and err == ""
    assert abs(json.loads(out)["wehrl"] - math.log(128)) <= 1e-12


# the dense-matrix limit (default 256) bounds |G| wherever the CLI builds a
# (|G|, |G|) density, before it allocates one
@pytest.mark.parametrize("command, state", [
    ("entropy", "maximally_mixed"), ("husimi", "maximally_mixed"), ("channel", "random:3"),
])
def test_density_above_the_dense_limit_is_an_input_error(capsys, command, state):
    code, out, err = run_cli(capsys, command, "--group", "Z300", "--state", state)
    assert (code, out) == (2, "")
    assert err == "error: |G| = 300 exceeds the dense-matrix limit 256\n"


def test_dense_limit_env_gives_input_error(capsys, monkeypatch):
    monkeypatch.setenv("WEHRL_DENSE_LIMIT", "2")
    code, _, err = run_cli(capsys, "verify", "--group", "Z4", "--subgroup", "2")
    assert code == 2
    assert "dense" in err


# Z2^7 has 29,212 subgroups: group-info stops at the lattice cap with an
# input error instead of enumerating them all
def test_group_info_refuses_a_lattice_over_the_cap(capsys):
    code, out, err = run_cli(capsys, "group-info", "--group", "Z2xZ2xZ2xZ2xZ2xZ2xZ2")
    assert code == 2 and out == ""
    assert err == (
        "error: Z2xZ2xZ2xZ2xZ2xZ2xZ2 has more than 4096 subgroups (the subgroup-lattice cap)\n"
    )
