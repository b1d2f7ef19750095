"""Fitness shapes and the nearest-prototype estimator against brute-force oracles."""

import math

import numpy as np
import pytest

from coevo_curriculum.fitness import (FitnessParams, PrototypeSet, knn_estimate,
                                      linear_fitness, sigmoid_fitness)

SIGMOID = FitnessParams()


def _knn_oracle(query, vectors, fitnesses, k):
    # independent path: squared distances in plain python, full sort, sequential mean
    dists = []
    for idx, vec in enumerate(vectors):
        d2 = 0.0
        for a, b in zip(vec, query):
            d2 += (float(a) - float(b)) ** 2
        dists.append((d2, idx))
    dists.sort()
    total = 0.0
    for _, idx in dists[:k]:
        total += float(fitnesses[idx])
    return total / k


def test_sigmoid_peak_is_exactly_half():
    assert sigmoid_fitness(0.5, SIGMOID) == 0.5


def test_sigmoid_extremes():
    expected = 1.0 / (1.0 + math.exp(2.0 * 0.5))
    assert sigmoid_fitness(0.0, SIGMOID) == pytest.approx(expected, rel=1e-15)
    assert sigmoid_fitness(1.0, SIGMOID) == pytest.approx(expected, rel=1e-15)


def test_sigmoid_symmetry_about_half():
    rng = np.random.default_rng(21)
    for r in rng.random(500):
        assert abs(sigmoid_fitness(float(r), SIGMOID) - sigmoid_fitness(1.0 - float(r), SIGMOID)) < 1e-12


def test_sigmoid_strictly_decreasing_above_half():
    rates = sorted(set([0.5, 1.0] + list(np.random.default_rng(22).uniform(0.5, 1.0, 200))))
    values = [sigmoid_fitness(r, SIGMOID) for r in rates]
    for lo, hi in zip(values[1:], values[:-1]):
        assert lo < hi


def test_sigmoid_range():
    rng = np.random.default_rng(23)
    for r in rng.random(500):
        value = sigmoid_fitness(float(r), SIGMOID)
        assert 0.0 < value <= 0.5


def test_rate_domain_errors():
    for bad in (-0.01, 1.01, 2.0, -5.0):
        with pytest.raises(ValueError):
            sigmoid_fitness(bad, SIGMOID)
        with pytest.raises(ValueError):
            linear_fitness(bad)


def test_linear_values_and_symmetry():
    assert linear_fitness(0.5) == 0.0
    assert linear_fitness(1.0) == -0.5
    assert linear_fitness(0.0) == -0.5
    rng = np.random.default_rng(24)
    for r in rng.random(200):
        assert linear_fitness(float(r)) == pytest.approx(linear_fitness(1.0 - float(r)), abs=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        FitnessParams(gain=0.0)
    with pytest.raises(ValueError):
        FitnessParams(mode="cubic")


def test_evaluate_dispatches_on_mode():
    assert FitnessParams(mode="linear").evaluate(0.75) == pytest.approx(-0.25)
    assert FitnessParams(mode="sigmoid").evaluate(0.5) == 0.5


def test_knn_single_coincident_prototype():
    protos = PrototypeSet(vectors=np.array([[0.2, 0.2, 0.5, 0.5]]), fitnesses=np.array([0.37]))
    assert knn_estimate([0.2, 0.2, 0.5, 0.5], protos, 1) == 0.37


def test_knn_equidistant_pair_averages():
    protos = PrototypeSet(vectors=np.array([[1.0, 0.0], [0.0, 1.0]]),
                          fitnesses=np.array([0.3, 0.5]))
    assert knn_estimate([0.0, 0.0], protos, 2) == pytest.approx(0.4, abs=1e-15)


def test_knn_tie_breaks_toward_lowest_index():
    # two prototypes at identical distance; k = 1 must pick index 0
    protos = PrototypeSet(vectors=np.array([[1.0, 0.0], [0.0, 1.0]]),
                          fitnesses=np.array([0.3, 0.5]))
    assert knn_estimate([0.0, 0.0], protos, 1) == 0.3
    # duplicated rows: still the earliest index wins
    protos = PrototypeSet(vectors=np.array([[0.5, 0.5], [0.5, 0.5], [0.9, 0.9]]),
                          fitnesses=np.array([0.1, 0.9, 0.4]))
    assert knn_estimate([0.5, 0.5], protos, 1) == 0.1


def test_knn_k_equals_m_is_the_plain_mean():
    rng = np.random.default_rng(25)
    vectors = rng.random((7, 4))
    fitnesses = rng.random(7)
    got = knn_estimate(rng.random(4), PrototypeSet(vectors=vectors, fitnesses=fitnesses), 7)
    total = 0.0
    for value in fitnesses:
        total += float(value)
    assert got == total / 7


def test_knn_matches_bruteforce_oracle():
    rng = np.random.default_rng(26)
    for _ in range(300):
        m = int(rng.integers(1, 40))
        dim = int(rng.integers(1, 9))
        k = int(rng.integers(1, m + 1))
        vectors = rng.random((m, dim))
        if m > 2 and rng.random() < 0.3:
            vectors[m // 2] = vectors[0]  # inject an exact tie
        fitnesses = rng.random(m)
        query = rng.random(dim)
        protos = PrototypeSet(vectors=vectors, fitnesses=fitnesses)
        assert knn_estimate(query, protos, k) == _knn_oracle(query, vectors, fitnesses, k)


def test_stacked_knn_matches_bruteforce_oracle_row_by_row():
    # every k from 1 to the prototype count (k >= 8 sums past numpy's pairwise threshold),
    # genome widths of 1 to 4 agents, duplicated prototypes with unequal fitness so that
    # distance ties decide, and queries placed exactly on a prototype
    rng = np.random.default_rng(28)
    for n_agents in range(1, 5):
        dim = 4 * n_agents
        for m in (1, 2, 9, 16, 23):
            vectors = rng.random((m, dim))
            if m > 2:
                vectors[m - 1] = vectors[m // 2] = vectors[0]
            fitnesses = rng.random(m)
            queries = rng.random((7, dim))
            queries[0] = vectors[0]
            queries[1] = vectors[m - 1]
            queries[2] = queries[3]
            protos = PrototypeSet(vectors=vectors, fitnesses=fitnesses)
            for k in range(1, m + 1):
                got = knn_estimate(queries, protos, k)
                assert got.shape == (len(queries),)
                assert got.tolist() == [_knn_oracle(query, vectors, fitnesses, k)
                                        for query in queries]
                assert got.tolist() == [knn_estimate(query, protos, k) for query in queries]


def test_stacked_knn_takes_the_stable_argsorts_first_k_among_ties():
    # Integer coordinates give integer squared distances, so nearly every row is full of
    # ties; huge ones overflow to inf, which ties too. Each estimate must sum the fitnesses
    # of a stable argsort's first k, in its order, left to right from 0.0.
    rng = np.random.default_rng(29)
    for scale in (1.0, 1e200):
        for _ in range(40):
            m, dim = int(rng.integers(1, 30)), int(rng.integers(1, 9))
            vectors = scale * rng.integers(-2, 3, (m, dim)).astype(float)
            queries = scale * rng.integers(-2, 3, (11, dim)).astype(float)
            fitnesses = rng.random(m)
            with np.errstate(over="ignore"):
                squared = ((vectors - queries[:, None, :]) ** 2).sum(axis=-1)
            order = np.argsort(squared, axis=-1, kind="stable")
            protos = PrototypeSet(vectors=vectors, fitnesses=fitnesses)
            for k in range(1, m + 1):
                expected = []
                for row in order:
                    total = 0.0
                    for index in row[:k]:
                        total += float(fitnesses[index])
                    expected.append(total / k)
                with np.errstate(over="ignore"):
                    assert knn_estimate(queries, protos, k).tolist() == expected


def test_stacked_knn_accepts_an_empty_stack_and_checks_its_width():
    protos = PrototypeSet(vectors=np.zeros((3, 4)), fitnesses=np.zeros(3))
    assert knn_estimate(np.zeros((0, 4)), protos, 2).shape == (0,)
    with pytest.raises(ValueError):
        knn_estimate(np.zeros((2, 8)), protos, 2)


def test_knn_result_lies_within_prototype_fitness_range():
    rng = np.random.default_rng(27)
    for _ in range(100):
        m = int(rng.integers(2, 30))
        protos = PrototypeSet(vectors=rng.random((m, 6)), fitnesses=rng.random(m))
        value = knn_estimate(rng.random(6), protos, int(rng.integers(1, m + 1)))
        assert protos.fitnesses.min() - 1e-12 <= value <= protos.fitnesses.max() + 1e-12


def test_knn_configuration_errors():
    protos = PrototypeSet(vectors=np.zeros((3, 2)), fitnesses=np.zeros(3))
    with pytest.raises(ValueError):
        knn_estimate([0.0, 0.0], protos, 4)
    with pytest.raises(ValueError):
        knn_estimate([0.0, 0.0], protos, 0)
    empty = PrototypeSet(vectors=np.zeros((0, 2)), fitnesses=np.zeros(0))
    with pytest.raises(ValueError):
        knn_estimate([0.0, 0.0], empty, 1)
    with pytest.raises(ValueError):
        knn_estimate([0.0, 0.0, 0.0], protos, 1)


def test_prototype_set_validation():
    with pytest.raises(ValueError):
        PrototypeSet(vectors=np.zeros((3, 2)), fitnesses=np.zeros(2))
    with pytest.raises(ValueError):
        PrototypeSet(vectors=np.zeros(3), fitnesses=np.zeros(3))
    with pytest.raises(ValueError):
        PrototypeSet(vectors=np.array([[np.inf, 0.0]]), fitnesses=np.zeros(1))
