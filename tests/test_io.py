import csv
import io
import json

import numpy as np
import pytest

from wehrl import (
    CoherentFrame,
    entropy_report,
    husimi,
    maximally_mixed,
    measurement_channel,
    parse_group,
    pure_density,
    random_density_matrix,
    random_state_vector,
    subgroup_closure,
)
from wehrl.cli import main
from wehrl.entropy import HusimiTable
from wehrl.groups import format_coords, parse_generators
from wehrl.verify import suite_pairs
from wehrl.io import (
    density_matrix_from_json,
    density_matrix_to_json,
    entropy_report_to_json,
    husimi_to_csv,
    load_state_file,
    load_state_text,
    state_vector_from_csv,
    state_vector_from_json,
)

from phase_oracle import point
from state_helpers import state_vector_to_csv, state_vector_to_json


def test_state_vector_json_round_trip_is_byte_exact(rng):
    vec = random_state_vector(6, rng)
    text = state_vector_to_json(vec)
    back = state_vector_from_json(text)
    assert np.array_equal(back, vec)
    assert state_vector_to_json(back) == text


def test_state_vector_csv_round_trip_is_byte_exact(rng):
    vec = random_state_vector(5, rng)
    text = state_vector_to_csv(vec)
    assert text.splitlines()[0] == "index,re,im"
    back = state_vector_from_csv(text)
    assert np.array_equal(back, vec)
    assert state_vector_to_csv(back) == text


def test_density_matrix_json_round_trip(rng):
    rho = random_density_matrix(4, rng)
    text = density_matrix_to_json(rho)
    back = density_matrix_from_json(text)
    assert np.array_equal(back, rho)
    assert density_matrix_to_json(back) == text


def test_load_state_text_detects_kind(rng):
    vec = random_state_vector(3, rng)
    kind, arr = load_state_text(state_vector_to_json(vec))
    assert kind == "vector" and arr.shape == (3,)
    kind, arr = load_state_text(state_vector_to_csv(vec))
    assert kind == "vector" and np.array_equal(arr, vec)
    kind, arr = load_state_text(density_matrix_to_json(maximally_mixed(3)))
    assert kind == "density" and arr.shape == (3, 3)


def test_load_state_file(tmp_path, rng):
    vec = random_state_vector(4, rng)
    path = tmp_path / "state.json"
    path.write_text(state_vector_to_json(vec))
    kind, arr = load_state_file(path)
    assert kind == "vector"
    assert np.array_equal(arr, vec)


# 'dim' is a JSON integer >= 1: no float, string, bool or non-positive
# value is read as a dimension
@pytest.mark.parametrize("dim", ["2.5", '"2"', "true", "-2", "0"])
def test_density_dim_must_be_a_positive_json_integer(dim):
    text = f'{{"dim": {dim}, "entries": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]}}'
    with pytest.raises(ValueError, match=r"^density matrix 'dim' must be an integer >= 1$"):
        density_matrix_from_json(text)


# JSON true and false are no numbers, though complex() reads them as 1 and
# 0: on Z1 each file would otherwise name the state |0>
BOOL_STATE_FILES = {
    "vector.json": "[[true, false]]",
    "density.json": '{"dim": 1, "entries": [[true, false]]}',
}


@pytest.mark.parametrize("name", sorted(BOOL_STATE_FILES))
def test_bool_entries_are_refused(name, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(BOOL_STATE_FILES[name])
    with pytest.raises(ValueError, match=r"^entries must be \[re, im\] pairs of numbers$"):
        load_state_file(path)
    assert main(["entropy", "--group", "Z1", "--state", str(path)]) == 2
    assert "[re, im] pairs" in capsys.readouterr().err


def test_malformed_inputs_raise():
    with pytest.raises(ValueError):
        state_vector_from_csv("wrong,header\n0,1,2\n")
    with pytest.raises(ValueError):
        density_matrix_from_json('{"dim": 2, "entries": [[1.0, 0.0]]}')
    with pytest.raises(ValueError):
        state_vector_from_json('{"not": "a list"}')
    for entries in ("[1, 2]", '[[1.0, 0.0, 0.0]]', '[["a", "b"]]', "[[1.0, null]]"):
        with pytest.raises(ValueError, match=r"\[re, im\] pairs"):
            state_vector_from_json(entries)
    with pytest.raises(ValueError, match=r"\[re, im\] pairs"):
        density_matrix_from_json('{"dim": 1, "entries": [1]}')
    with pytest.raises(ValueError, match="'dim' must be an integer"):
        density_matrix_from_json('{"dim": null, "entries": []}')
    with pytest.raises(ValueError):
        state_vector_from_csv("index,re,im\n9,1.0,0.0\n")  # index out of range
    with pytest.raises(ValueError, match="'dim' must be an integer"):
        density_matrix_from_json('{"dim": 1e400, "entries": []}')
    huge = "1" + "0" * 400
    for text in (f"[[{huge}, 0]]", f'{{"dim": 1, "entries": [[0, {huge}]]}}'):
        with pytest.raises(ValueError, match=r"\[re, im\] pairs"):
            load_state_text(text)
    for csv_text, row in MALFORMED_VECTOR_CSV:
        with pytest.raises(ValueError, match=f"row {row}"):
            state_vector_from_csv(csv_text)


# vector CSVs that name no state, each with the line its error names
MALFORMED_VECTOR_CSV = [
    ("index,re,im\n0,1.0,0.0\n1,0.0,0.0\n\n", 4),  # trailing blank line
    ("index,re,im\n0,1\n1,0.0,0.0\n", 2),  # two fields
    ("index,re,im\n0,1.0,0.0\n1,0.0,0.0,7\n", 3),  # four fields
    ("index,re,im\n0,1.0,0.0\n0,0.0,0.0\n", 3),  # index 0 twice, 1 missing
]


def test_husimi_csv_golden():
    g = parse_group("Z2")
    frame = CoherentFrame.vacuum(subgroup_closure(g, (1,)))
    table = husimi(frame, pure_density(frame.fiducial))
    lines = husimi_to_csv(table).splitlines()
    assert lines[0] == "g,lambda,Q"
    assert len(lines) == 1 + 4  # header + |F|
    # vacuum projector: Q = 1 on K = G x {trivial}, 0 elsewhere
    values = {tuple(line.split(",")[:2]): float(line.split(",")[2]) for line in lines[1:]}
    assert values[("0", "0")] == pytest.approx(1.0, abs=1e-12)
    assert values[("1", "0")] == pytest.approx(1.0, abs=1e-12)
    assert values[("0", "1")] == pytest.approx(0.0, abs=1e-12)
    assert values[("1", "1")] == pytest.approx(0.0, abs=1e-12)


def test_husimi_csv_quotes_multi_coordinate_labels():
    g = parse_group("Z2xZ2")
    frame = CoherentFrame.vacuum(subgroup_closure(g, ()))
    table = husimi(frame, maximally_mixed(4))
    lines = husimi_to_csv(table).splitlines()
    assert lines[1].startswith('"0,0","0,0",')
    assert len(lines) == 1 + 16


def _husimi_csv_oracle(table):
    """One `csv.writer` row per phase-space point, labels from its coordinates."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["g", "lambda", "Q"])
    for z, q in enumerate(table.values):
        g, chi = point(table.frame.group, z)
        writer.writerow([format_coords(g), format_coords(chi), repr(float(q))])
    return buf.getvalue()


def _pairs_oracle(values):
    return [[float(v.real), float(v.imag)] for v in values]


def _vector_csv_oracle(vec):
    """One `csv.writer` row index, repr(re), repr(im) per entry."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "re", "im"])
    for i, v in enumerate(vec):
        writer.writerow([i, repr(float(v.real)), repr(float(v.imag))])
    return buf.getvalue()


def _density_json_oracle(rho):
    return json.dumps(
        {"dim": rho.shape[0], "entries": _pairs_oracle(rho.reshape(-1))}, sort_keys=True
    )


# a few frames with Z1 factors or non-cyclic subgroups, the 53 suite vacuum
# frames, and Z64 H = <8>, whose |G|^2 Husimi rows hold about |G| distinct values
WRITER_FRAMES = [
    ("Z1", None),
    ("Z4", "2"),
    ("Z2xZ2", "1,0"),
    ("Z1xZ3", None),
    ("Z4xZ8", "0,2;2,0"),
    ("Z6xZ6", "2,3"),
    *((str(g), str(H)) for g, H in suite_pairs()),
    ("Z64", "8"),
]


def _frame(spec, gens):
    g = parse_group(spec)
    return CoherentFrame.vacuum(subgroup_closure(g, parse_generators(g, gens)))


@pytest.mark.parametrize("spec,gens", WRITER_FRAMES)
def test_writers_match_per_entry_oracles(spec, gens, rng):
    frame = _frame(spec, gens)
    d = frame.group.order
    vec = random_state_vector(d, rng)
    rho = random_density_matrix(d, rng)
    for table in (husimi(frame, pure_density(vec)), husimi(frame, rho)):
        assert husimi_to_csv(table) == _husimi_csv_oracle(table)
    assert state_vector_to_json(vec) == json.dumps(_pairs_oracle(vec))
    assert state_vector_to_csv(vec) == _vector_csv_oracle(vec)
    for matrix in (pure_density(vec), rho, measurement_channel(frame, rho)):
        assert density_matrix_to_json(matrix) == _density_json_oracle(matrix)


def test_writers_keep_signed_zero_and_extreme_floats():
    rho = np.array(
        [
            [complex(-0.0, 5e-324), complex(1e-300, -0.0)],
            [complex(-5e-324, 1e-300), complex(1.0, -1e-300)],
        ]
    )
    assert density_matrix_to_json(rho) == _density_json_oracle(rho)
    text = state_vector_to_json(rho.reshape(-1))
    assert text == json.dumps(_pairs_oracle(rho.reshape(-1)))
    assert "-0.0" in text and "5e-324" in text and "1e-300" in text
    # real and integer input are written as floats, as the per-entry loop did
    assert state_vector_to_json(np.array([1, -0.0])) == "[[1.0, 0.0], [-0.0, 0.0]]"
    assert state_vector_to_json(np.array([1, 0])) == "[[1.0, 0.0], [0.0, 0.0]]"


def test_husimi_csv_keeps_extreme_floats():
    odd = HusimiTable(_frame("Z1xZ2", None), np.array([-0.0, 5e-324, 1e-300, 1.0 - 1e-16]))
    assert husimi_to_csv(odd) == _husimi_csv_oracle(odd)
    assert husimi_to_csv(odd).splitlines()[1:3] == ['"0,0","0,0",-0.0', '"0,0","0,1",5e-324']


def test_writers_tell_signed_zeros_apart_among_repeats():
    # equal values with different bits: a writer that merged entries by value
    # would print one spelling of zero for both
    values = np.array([0.0, -0.0, 0.25, -0.0, 0.25, 0.0, 0.5, 0.25] * 2)
    table = HusimiTable(_frame("Z2xZ2", None), values)
    text = husimi_to_csv(table)
    assert text == _husimi_csv_oracle(table)
    assert [line.rsplit(",", 1)[1] for line in text.splitlines()[1:5]] == [
        "0.0", "-0.0", "0.25", "-0.0"
    ]
    rho = np.array(
        [[complex(0.0, -0.0), complex(-0.0, 0.25)], [complex(0.25, 0.0), complex(-0.0, -0.0)]]
    )
    assert density_matrix_to_json(rho) == _density_json_oracle(rho)
    assert density_matrix_to_json(rho) == (
        '{"dim": 2, "entries": [[0.0, -0.0], [-0.0, 0.25], [0.25, 0.0], [-0.0, -0.0]]}'
    )
    flat = rho.reshape(-1)
    assert state_vector_to_json(flat) == json.dumps(_pairs_oracle(flat))
    assert state_vector_to_csv(flat) == _vector_csv_oracle(flat)


def test_writers_spell_non_finite_floats_as_json_and_repr_do():
    inf, nan = float("inf"), float("nan")
    rho = np.array(
        [[complex(nan, inf), complex(-inf, nan)], [complex(inf, -inf), complex(0.5, nan)]]
    )
    text = density_matrix_to_json(rho)
    assert text == _density_json_oracle(rho)
    assert "NaN" in text and "-Infinity" in text
    flat = rho.reshape(-1)
    assert state_vector_to_json(flat) == json.dumps(_pairs_oracle(flat))
    assert state_vector_to_csv(flat) == _vector_csv_oracle(flat)
    assert state_vector_to_csv(flat).splitlines()[1] == "0,nan,inf"
    table = HusimiTable(_frame("Z1xZ2", None), np.array([nan, inf, -inf, nan]))
    assert husimi_to_csv(table) == _husimi_csv_oracle(table)


def test_writers_on_empty_and_one_row_inputs():
    # the reader takes only dim >= 1, so the writer refuses what it could not read
    for shape in ((0, 0), (2, 3), (4,)):
        with pytest.raises(ValueError, match=r"^density matrix must be square with dim >= 1"):
            density_matrix_to_json(np.zeros(shape))
    assert state_vector_to_json(np.zeros(0)) == "[]"
    assert state_vector_to_csv(np.zeros(0)) == "index,re,im\n"
    table = HusimiTable(_frame("Z1", None), np.array([1.0]))
    assert husimi_to_csv(table) == _husimi_csv_oracle(table) == "g,lambda,Q\n0,0,1.0\n"


def test_entropy_report_json_keys(rng):
    g = parse_group("Z4")
    frame = CoherentFrame.vacuum(subgroup_closure(g, (2,)))
    report = entropy_report(frame, random_density_matrix(4, rng), log_base="2")
    text = entropy_report_to_json(report)
    import json

    data = json.loads(text)
    assert set(data) == {"wehrl", "von_neumann", "gap", "log_base"}
    assert data["log_base"] == "2"
    assert data["gap"] == pytest.approx(data["wehrl"] - data["von_neumann"])
