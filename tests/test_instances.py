"""Synthetic generation determinism and instance file round-trips."""

import json

import numpy as np
import pytest

from meanrisk.instances import (
    RNG_ALGORITHM,
    dumps_instance,
    generate_instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    loads_instance,
    save_instance,
)


# ------------------------------------------------------------- generation


def test_generation_is_deterministic_and_byte_identical():
    a = generate_instance(12, integer_fraction=0.5, budget_multiplier=2.0, seed=5)
    b = generate_instance(12, integer_fraction=0.5, budget_multiplier=2.0, seed=5)
    assert dumps_instance(a, seed=5) == dumps_instance(b, seed=5)
    c = generate_instance(12, integer_fraction=0.5, budget_multiplier=2.0, seed=6)
    assert dumps_instance(a) != dumps_instance(c)


def test_generation_single_variable():
    inst = generate_instance(1, seed=3)
    assert inst.n == 1
    assert inst.M.shape == (1, 1) and inst.M[0, 0] > 0.0
    assert inst.integer_set == ()  # floor(0.5 * 1) = 0 integer variables


def test_generation_respects_requested_shape():
    inst = generate_instance(10, integer_fraction=0.7, budget_multiplier=3.0, seed=1)
    assert inst.integer_set == tuple(range(7))
    assert inst.b == pytest.approx(3.0 * float(inst.a.sum()), rel=1e-15)
    assert np.all((inst.r >= 0.001) & (inst.r <= 0.01))
    assert np.all((inst.a >= 1.0) & (inst.a <= 100.0))
    assert inst.name == "synth-n10-seed1"


def test_generated_instances_pass_validation():
    # construction re-validates everything, including the PD factorization
    for seed in range(100):
        n = 1 + seed % 30
        inst = generate_instance(n, integer_fraction=(seed % 5) / 4.0, seed=seed)
        assert inst.n == n
        np.linalg.cholesky(inst.M)  # PD by construction
        assert np.allclose(inst.M, inst.M.T, atol=0)


def test_generation_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate_instance(0)
    with pytest.raises(ValueError):
        generate_instance(3, integer_fraction=1.5)
    with pytest.raises(ValueError):
        generate_instance(3, budget_multiplier=0.0)


# ------------------------------------------------------------ round trips


def test_dict_round_trip_is_bit_exact():
    inst = generate_instance(9, integer_fraction=0.4, seed=11)
    doc = instance_to_dict(inst, seed=11)
    assert doc["rng"] == RNG_ALGORITHM
    back = instance_from_dict(doc)
    np.testing.assert_array_equal(back.r, inst.r)
    np.testing.assert_array_equal(back.a, inst.a)
    np.testing.assert_array_equal(back.M, inst.M)
    assert back.b == inst.b
    assert back.integer_set == inst.integer_set
    assert back.name == inst.name


def test_emit_parse_emit_is_byte_identical():
    inst = generate_instance(7, seed=4)
    text = dumps_instance(inst, seed=4)
    assert dumps_instance(loads_instance(text), seed=4) == text


def test_file_round_trip(tmp_path):
    inst = generate_instance(5, seed=8)
    path = tmp_path / "instance.json"
    save_instance(inst, path, seed=8)
    back = load_instance(path)
    np.testing.assert_array_equal(back.M, inst.M)
    assert back.integer_set == inst.integer_set


def test_integer_indices_are_one_based_on_disk():
    inst = generate_instance(4, integer_fraction=1.0, seed=0)
    doc = instance_to_dict(inst)
    assert doc["integer_indices"] == [1, 2, 3, 4]
    assert instance_from_dict(doc).integer_set == (0, 1, 2, 3)


# ---------------------------------------------------------- factor matrices


def test_factor_form_reconstructs_the_covariance():
    rng = np.random.default_rng(2)
    factor = np.tril(rng.standard_normal((4, 4))) + 2.0 * np.eye(4)
    doc = {
        "n": 4,
        "r": [0.01] * 4,
        "a": [1.0] * 4,
        "b": 2.0,
        "M_factor": factor.tolist(),
        "integer_indices": [1, 2],
    }
    inst = instance_from_dict(doc)
    np.testing.assert_allclose(inst.M, factor @ factor.T, rtol=0, atol=0)


def test_factor_must_be_lower_triangular():
    doc = {
        "n": 2,
        "r": [0.01, 0.01],
        "a": [1.0, 1.0],
        "b": 1.0,
        "M_factor": [[1.0, 0.5], [0.0, 1.0]],
        "integer_indices": [],
    }
    with pytest.raises(ValueError, match="lower-triangular"):
        instance_from_dict(doc)


def test_exactly_one_covariance_form_required():
    base = {"n": 1, "r": [0.01], "a": [1.0], "b": 1.0, "integer_indices": []}
    with pytest.raises(ValueError, match="exactly one"):
        instance_from_dict(base)
    both = dict(base, M=[[1.0]], M_factor=[[1.0]])
    with pytest.raises(ValueError, match="exactly one"):
        instance_from_dict(both)


# ------------------------------------------------------------- bad inputs


def test_unknown_keys_rejected():
    doc = json.loads(dumps_instance(generate_instance(2, seed=0)))
    doc["volatility"] = 1.0
    with pytest.raises(ValueError, match="unknown"):
        instance_from_dict(doc)


@pytest.mark.parametrize("missing", ["n", "r", "a", "b", "integer_indices"])
def test_missing_keys_rejected(missing):
    doc = json.loads(dumps_instance(generate_instance(2, seed=0)))
    del doc[missing]
    with pytest.raises(ValueError, match=missing):
        instance_from_dict(doc)


@pytest.mark.parametrize("bad", [[0], [3], [-1]])
def test_out_of_range_indices_rejected(bad):
    doc = json.loads(dumps_instance(generate_instance(2, seed=0)))
    doc["integer_indices"] = bad
    with pytest.raises(ValueError, match="1-based"):
        instance_from_dict(doc)


@pytest.mark.parametrize(
    "key, value",
    [
        ("n", [4]),
        ("b", None),
        ("r", [{}, 0.1, 0.2]),
        ("integer_indices", [None]),
        ("M", [[{}] * 3] * 3),
        ("n", 3.7),
        ("n", 3.0),
        ("n", True),
        ("integer_indices", [1.9, 2.5]),
        ("integer_indices", [True]),
    ],
)
def test_malformed_values_name_their_key(key, value):
    doc = json.loads(dumps_instance(generate_instance(3, seed=0)))
    doc[key] = value
    with pytest.raises(ValueError, match=f"instance key '{key}' must be"):
        instance_from_dict(doc)


def test_length_mismatches_rejected():
    doc = json.loads(dumps_instance(generate_instance(3, seed=0)))
    short = dict(doc, r=doc["r"][:2])
    with pytest.raises(ValueError, match="length"):
        instance_from_dict(short)
    ragged = dict(doc, M=[row[:2] for row in doc["M"]])
    with pytest.raises(ValueError, match="n-by-n"):
        instance_from_dict(ragged)


def test_non_object_document_rejected():
    with pytest.raises(ValueError, match="JSON object"):
        instance_from_dict([1, 2, 3])
