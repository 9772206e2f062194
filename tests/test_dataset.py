"""Design/response containers, sampling, normalization, splitting, CSV I/O."""

import re

import numpy as np
import pytest

from discflex.dataset import (
    CSV_HEADER,
    DESIGN_HIGH,
    DESIGN_LOW,
    DUPLICATE_TOL_MM,
    Dataset,
    DesignTag,
    NormalizationStats,
    latin_hypercube,
    lattice,
    read_csv,
    split,
    write_csv,
    write_rows,
)


def _toy_dataset(n=12, seed=0):
    designs = latin_hypercube(n, seed=seed)
    responses = np.column_stack(
        [designs.sum(axis=1), designs.prod(axis=1), designs[:, 0] * 10.0]
    )
    return Dataset(designs, responses, DesignTag.A)


def test_design_box_is_read_only():
    assert DESIGN_LOW.tolist() == [24.0, 3.0, 0.3]
    assert DESIGN_HIGH.tolist() == [40.0, 9.0, 0.9]
    with pytest.raises(ValueError):
        DESIGN_LOW[0] = 0.0
    with pytest.raises(ValueError):
        DESIGN_HIGH[0] = 0.0


def test_grid_sampling_with_two_levels_gives_corners():
    pts = lattice(2)
    corners = {
        (l, b, t)
        for l in (24.0, 40.0)
        for b in (3.0, 9.0)
        for t in (0.3, 0.9)
    }
    assert {tuple(p) for p in pts} == corners


def test_lattice_rejects_fewer_than_two_levels():
    for levels in (1, 0):
        with pytest.raises(ValueError, match=f"at least 2 levels per axis, got {levels}"):
            lattice(levels)


def test_latin_hypercube_stratification():
    n = 127
    pts = latin_hypercube(n, seed=42)
    assert pts.shape == (n, 3)
    low, high = DESIGN_LOW, DESIGN_HIGH
    assert np.all(pts >= low) and np.all(pts <= high)
    # one sample per bin on every axis
    for j in range(3):
        bins = np.floor((pts[:, j] - low[j]) / (high[j] - low[j]) * n).astype(int)
        bins = np.clip(bins, 0, n - 1)
        assert sorted(bins) == list(range(n))


def test_sampling_determinism():
    a = latin_hypercube(50, seed=9)
    b = latin_hypercube(50, seed=9)
    c = latin_hypercube(50, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        latin_hypercube(0, seed=0)


def test_dataset_rejects_duplicates_within_tolerance():
    designs = np.array([[30.0, 6.0, 0.5], [30.0, 6.0, 0.5 + 1e-12]])
    responses = np.ones((2, 3))
    with pytest.raises(ValueError, match="duplicate"):
        Dataset(designs, responses, DesignTag.A)


def _brute_force_duplicate(designs):
    """True when some pair of rows is within the tolerance in every coordinate."""
    gap = np.abs(designs[:, None, :] - designs[None, :, :]).max(axis=2)
    np.fill_diagonal(gap, np.inf)
    return bool((gap <= DUPLICATE_TOL_MM).any())


def _duplicate_check_agrees(designs):
    designs = np.asarray(designs, dtype=float)
    responses = np.ones_like(designs)
    expected = _brute_force_duplicate(designs)
    if not expected:
        Dataset(designs, responses, DesignTag.A)
        return
    with pytest.raises(ValueError, match="duplicate") as err:
        Dataset(designs, responses, DesignTag.A)
    i, j = (int(v) for v in re.search(r"rows (\d+) and (\d+)", str(err.value)).groups())
    assert i < j
    assert np.abs(designs[i] - designs[j]).max() <= DUPLICATE_TOL_MM


def test_duplicate_check_finds_pairs_that_are_not_length_neighbours():
    # sorted by length, rows 0 and 2 are duplicates with row 1 between them
    designs = [[30.0, 6.0, 0.5], [30.0 + 5e-10, 3.0, 0.5], [30.0 + 6e-10, 6.0, 0.5]]
    _duplicate_check_agrees(designs)
    assert _brute_force_duplicate(np.array(designs))


def test_duplicate_check_accepts_pair_just_outside_tolerance():
    for axis in range(3):
        designs = np.array([[30.0, 6.0, 0.5], [30.0, 6.0, 0.5]])
        designs[1, axis] += 2 * DUPLICATE_TOL_MM
        assert not _brute_force_duplicate(designs)
        Dataset(designs, np.ones((2, 3)), DesignTag.A)


def test_duplicate_check_counts_a_gap_of_exactly_the_tolerance():
    # 2e-9 - 1e-9 is exactly 1e-9 in binary floating point
    for axis in range(3):
        designs = np.array([[30.0, 6.0, 0.5], [30.0, 6.0, 0.5]])
        designs[:, axis] = [1e-9, 2e-9]
        assert designs[1, axis] - designs[0, axis] == DUPLICATE_TOL_MM
        assert _brute_force_duplicate(designs)
        _duplicate_check_agrees(designs)


def test_duplicate_check_matches_brute_force_on_random_inputs():
    rng = np.random.default_rng(17)
    for trial in range(200):
        n = int(rng.integers(1, 40))
        designs = latin_hypercube(n, seed=trial)
        if trial % 2:
            # plant near-duplicates: copies jittered up to twice the tolerance
            k = int(rng.integers(1, n + 1))
            src = rng.integers(0, n, size=k)
            jitter = rng.uniform(-2, 2, size=(k, 3)) * DUPLICATE_TOL_MM
            designs = np.vstack([designs, designs[src] + jitter])
            designs = designs[rng.permutation(len(designs))]
        _duplicate_check_agrees(designs)


def test_duplicate_check_matches_brute_force_on_grids():
    # grids share each length across many rows, so the sweep must look far
    grid = lattice(5)
    _duplicate_check_agrees(grid)
    rng = np.random.default_rng(3)
    for _ in range(20):
        row = int(rng.integers(0, len(grid)))
        shift = rng.uniform(-1.5, 1.5, size=3) * DUPLICATE_TOL_MM
        _duplicate_check_agrees(np.vstack([grid, grid[row] + shift]))


def test_normalize_hand_example():
    # stats use the divide-by-n convention: std of [1,2,3] is sqrt(2/3)
    responses = np.array([[1.0, 10.0, 5.0], [2.0, 20.0, 6.0], [3.0, 30.0, 7.0]])
    stats = NormalizationStats.from_columns(responses)
    normed = stats.apply(responses)
    expected = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0 / 3.0)
    assert np.allclose(normed[:, 0], expected, atol=1e-12)
    assert stats.mean[0] == pytest.approx(2.0)
    assert stats.std[0] == pytest.approx(np.sqrt(2.0 / 3.0))
    assert np.all(np.abs(normed.mean(axis=0)) < 1e-12)
    assert np.all(np.abs(normed.std(axis=0) - 1.0) < 1e-12)


def test_normalize_is_idempotent_on_normalized_input():
    responses = _toy_dataset(20, seed=3).responses
    normed = NormalizationStats.from_columns(responses).apply(responses)
    stats2 = NormalizationStats.from_columns(normed)
    assert np.allclose(stats2.apply(normed), normed, atol=1e-12)
    assert np.allclose(stats2.mean, 0.0, atol=1e-12)
    assert np.allclose(stats2.std, 1.0, atol=1e-12)


def test_normalize_rejects_zero_variance_column():
    responses = np.array([[1.0, 5.0, 2.0], [2.0, 5.0, 3.0], [3.0, 5.0, 4.0]])
    with pytest.raises(ValueError, match="column 1 has std 0.0, not > 0"):
        NormalizationStats.from_columns(responses)


@pytest.mark.parametrize("mean, std", [
    ([0.0, 0.0, 0.0], [np.inf, 1.0, 1.0]),
    ([0.0, np.inf, 0.0], [1.0, 1.0, 1.0]),
    ([np.nan, 0.0, 0.0], [1.0, 1.0, 1.0]),
])
def test_normalize_rejects_non_finite_stats(mean, std):
    with pytest.raises(ValueError, match="must be finite"):
        NormalizationStats(np.array(mean), np.array(std))


def test_denormalize_hand_values():
    stats = NormalizationStats(np.array([2.0]), np.array([1.0]))
    assert stats.invert(np.array([[0.0]]))[0, 0] == pytest.approx(2.0)
    stats = NormalizationStats(np.array([2.0]), np.array([3.0]))
    assert stats.invert(np.array([[1.0]]))[0, 0] == pytest.approx(5.0)


def test_normalize_round_trip_identity():
    rng = np.random.default_rng(5)
    responses = rng.uniform(0.5, 400.0, size=(100, 3))
    stats = NormalizationStats.from_columns(responses)
    back = stats.invert(stats.apply(responses))
    assert np.allclose(back, responses, rtol=1e-10)


def test_split_sizes_and_partition():
    data = _toy_dataset(127, seed=1)
    train, test = split(data, 100, seed=4)
    assert len(train) == 100 and len(test) == 27
    merged = np.vstack([train.designs, test.designs])
    assert {tuple(r) for r in merged} == {tuple(r) for r in data.designs}

    data_b = _toy_dataset(128, seed=2)
    train_b, test_b = split(data_b, 100, seed=4)
    assert len(train_b) == 100 and len(test_b) == 28


def test_split_determinism_and_range_checks():
    data = _toy_dataset(10, seed=6)
    t1, _ = split(data, 7, seed=1)
    t2, _ = split(data, 7, seed=1)
    t3, _ = split(data, 7, seed=2)
    assert np.array_equal(t1.designs, t2.designs)
    assert not np.array_equal(t1.designs, t3.designs)
    for train_count in (10, 0):
        with pytest.raises(ValueError, match=f"train_count {train_count} must be at least 1 "
                                             "and below the 10 rows"):
            split(data, train_count, seed=0)


def test_csv_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(12)
    designs = latin_hypercube(40, seed=13)
    responses = rng.standard_normal((40, 3)) * np.array([0.1, 300.0, 1500.0])
    responses[0] = [-0.0, 5e-324, 1.7976931348623157e308]
    responses[1, 0] = 0.1
    data = Dataset(designs, responses, DesignTag.B)
    path = tmp_path / "round.csv"
    write_csv(data, path)
    back = read_csv(path, design_tag=DesignTag.B)
    # bytes, not values: -0.0 == 0.0
    assert back.designs.tobytes() == data.designs.tobytes()
    assert back.responses.tobytes() == data.responses.tobytes()
    assert back.design_tag is DesignTag.B

    rows = tmp_path / "rows.csv"
    write_rows(rows, ["label,count,value,other"],
               [("a", 3, np.float64(0.1), -0.0), ("b", -2, 1e22, 2)])
    assert rows.read_bytes() == b"label,count,value,other\na,3,0.1,-0.0\nb,-2,1e+22,2\n"


def test_csv_errors_carry_line_numbers(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("# design: A\na,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="line 2"):
        read_csv(bad_header, design_tag=DesignTag.A)

    bad_arity = tmp_path / "a.csv"
    bad_arity.write_text("# design: A\n" + CSV_HEADER + "\n30.0,6.0,0.5,0.1,200.0\n")
    with pytest.raises(ValueError, match="line 3"):
        read_csv(bad_arity, design_tag=DesignTag.A)

    bad_cell = tmp_path / "c.csv"
    bad_cell.write_text("# design: A\n" + CSV_HEADER + "\n30.0,6.0,0.5,0.1,200.0,oops\n")
    with pytest.raises(ValueError, match="line 3.*oops"):
        read_csv(bad_cell, design_tag=DesignTag.A)

    two_bad_cells = tmp_path / "d.csv"
    two_bad_cells.write_text("# design: A\n" + CSV_HEADER + "\n30.0,6.0,0.5,0.1,200.0,150.0\n"
                             "31.0,first,0.5,second,200.0,150.0\n")
    with pytest.raises(ValueError, match="line 4: non-numeric cell 'first'$"):
        read_csv(two_bad_cells, design_tag=DesignTag.A)


def test_csv_records_its_design(tmp_path):
    path = tmp_path / "tagged.csv"
    write_csv(Dataset(latin_hypercube(5, seed=1), np.ones((5, 3)), DesignTag.A), path)
    assert path.read_text().splitlines()[0] == "# design: A"
    with pytest.raises(ValueError, match=r"line 1: expected design line '# design: B', "
                                         r"got '# design: A'"):
        read_csv(path, design_tag=DesignTag.B)

    # a CSV without the design line, as written before it existed
    untagged = tmp_path / "untagged.csv"
    untagged.write_text("\n".join(path.read_text().splitlines()[1:]) + "\n")
    with pytest.raises(ValueError, match=f"line 1: expected design line '# design: A', "
                                         f"got '{CSV_HEADER}'"):
        read_csv(untagged, design_tag=DesignTag.A)

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="line 1: expected design line"):
        read_csv(empty, design_tag=DesignTag.A)
