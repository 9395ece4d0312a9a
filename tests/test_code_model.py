"""Code model: adjacency, syndrome, systematic form, alist round trips."""

import numpy as np
import pytest

from streamdec import (
    AlistFormatError,
    DegenerateCodeError,
    ParityCheckCode,
    emit_alist,
    from_dense,
    parse_alist,
    random_regular_code,
    syndrome,
    systematic_form,
)

from oracles import H_EXAMPLE, enumerate_codewords, gf2_rank, naive_syndrome


@pytest.fixture(scope="module")
def code10():
    return from_dense(H_EXAMPLE)


def test_example_adjacency(code10):
    assert (code10.n, code10.m) == (10, 5)
    assert code10.row_adj[0] == (0, 1, 2, 3)
    assert code10.col_adj[0] == (0, 1)
    assert code10.edge_count == 20
    assert all(d == 4 for d in code10.row_degrees)
    assert all(d == 2 for d in code10.col_degrees)


def test_single_entry_matrix():
    c = from_dense([[1]])
    assert (c.n, c.m, c.edge_count) == (1, 1, 1)
    assert c.row_adj == ((0,),)


def test_from_dense_rejects_bad_input():
    with pytest.raises(ValueError):
        from_dense([[1, 0], [1]])  # ragged
    with pytest.raises(ValueError):
        from_dense([[0, 2], [1, 1]])  # non-binary
    with pytest.raises(DegenerateCodeError):
        from_dense([[1, 1], [0, 0]])  # zero row
    with pytest.raises(DegenerateCodeError):
        from_dense([[1, 0], [1, 0]])  # zero column
    with pytest.raises(ValueError):
        from_dense(np.ones((0, 3), dtype=np.uint8))


def test_constructor_rejects_duplicates_and_range():
    with pytest.raises(ValueError):
        ParityCheckCode([[0, 0, 1]], 2)
    with pytest.raises(ValueError):
        ParityCheckCode([[0, 5]], 3)
    with pytest.raises(DegenerateCodeError):
        ParityCheckCode([[0], []], 1)


def test_transpose_consistency(code10):
    for i, checks in enumerate(code10.col_adj):
        for j in checks:
            assert i in code10.row_adj[j]
    for j, vs in enumerate(code10.row_adj):
        for i in vs:
            assert j in code10.col_adj[i]


def test_levels_follow_row_dependencies(code10):
    # level = 1 + the largest level of any earlier row sharing a variable,
    # so rows within a level share none and every level is ascending
    irregular = ParityCheckCode([[3], [0, 1, 2], [2, 3], [4, 5], [1, 4], [0, 5]], 6)
    for code in (code10, irregular, random_regular_code(96, 48, 6, seed=1)):
        level = {}
        for lvl, rows in enumerate(code.levels):
            assert not rows.flags.writeable
            assert rows.tolist() == sorted(rows.tolist())
            level.update((int(j), lvl) for j in rows)
        assert sorted(level) == list(range(code.m))
        for j, vs in enumerate(code.row_adj):
            deps = [level[k] for k in range(j) if set(code.row_adj[k]) & set(vs)]
            assert level[j] == 1 + max(deps, default=-1)


def test_check_plans_cover_edges(code10):
    # the plans list their rows' edges slot-major: slot 0 of every row,
    # then slot 1, skipping slots past a row's degree; the level plans hold
    # every edge once, with no variable twice in a level; padding and
    # degree-1 positions are None exactly when the plan has none
    irregular = ParityCheckCode([[3], [0, 1, 2], [2, 3], [4, 5], [1, 4], [0, 5]], 6)
    codes = (code10, irregular, random_regular_code(96, 48, 6, seed=1),
             ParityCheckCode([[0], [1], [0]], 2))
    for code in codes:
        assert len(code.level_plans) == len(code.levels)
        edges = []
        for rows, plan in [(range(code.m), code.row_plan),
                           *zip(code.levels, code.level_plans)]:
            rows = [int(j) for j in rows]
            degs = code.row_degrees[rows]
            want = [int(code.row_ptr[j]) + t for t in range(code.max_row_degree)
                    for j in rows if t < code.row_degrees[j]]
            assert plan.edge.tolist() == want
            assert plan.var.tolist() == code.edge_var[want].tolist()
            if (degs == code.max_row_degree).all():
                assert plan.real is None
            else:
                assert plan.real.tolist() == [[t < d for d in degs]
                                              for t in range(code.max_row_degree)]
            if (degs == 1).any():
                assert plan.deg1.tolist() == np.flatnonzero(degs == 1).tolist()
                assert all(code.row_degrees[rows[i]] == 1 for i in plan.deg1)
            else:
                assert plan.deg1 is None
            # index arrays are numpy's native index type, so the kernels'
            # take and fancy indexing never cast them
            for a in (plan.edge, plan.var, plan.deg1):
                assert a is None or a.dtype == np.intp
            assert plan.real is None or plan.real.dtype == bool
            for a in plan:
                assert a is None or not a.flags.writeable
            if plan is not code.row_plan:
                edges += want
                assert len(set(plan.var.tolist())) == plan.var.size
        assert sorted(edges) == list(range(code.edge_count))


def test_column_table_pads_with_sentinel(code10):
    # each column lists where its messages sit in row_plan order, in
    # column-position order; padding slots hold edge_count, the flooding
    # kernel's -0.0 sentinel row
    irregular = ParityCheckCode([[3], [0, 1, 2], [2, 3], [4, 5], [1, 4], [0, 5]], 6)
    codes = (code10, irregular, random_regular_code(96, 48, 6, seed=1),
             ParityCheckCode([[0], [1], [0]], 2))
    for code in codes:
        table = code.col_pad_pos
        assert table.shape == (code.n, code.max_col_degree)
        assert table.dtype == np.intp and not table.flags.writeable
        for i in range(code.n):
            d = int(code.col_degrees[i])
            lo, hi = int(code.col_ptr[i]), int(code.col_ptr[i + 1])
            assert code.row_plan.edge[table[i, :d]].tolist() == code.col_edge[lo:hi].tolist()
            assert (table[i, d:] == code.edge_count).all()


@pytest.mark.parametrize("flips,expected", [
    ((), [0, 0, 0, 0, 0]),
    ((0,), [1, 1, 0, 0, 0]),
    ((0, 1), [0, 1, 1, 0, 0]),
])
def test_syndrome_examples(code10, flips, expected):
    bits = np.zeros(10, dtype=np.uint8)
    for f in flips:
        bits[f] ^= 1
    got = syndrome(code10, bits)
    assert got.tolist() == expected
    assert got.tolist() == naive_syndrome(H_EXAMPLE, bits).tolist()


def test_syndrome_random_against_oracle(code10):
    rng = np.random.default_rng(7)
    for _ in range(50):
        bits = rng.integers(0, 2, size=10).astype(np.uint8)
        assert syndrome(code10, bits).tolist() == naive_syndrome(H_EXAMPLE, bits).tolist()


def test_syndrome_validates(code10):
    with pytest.raises(ValueError):
        syndrome(code10, np.zeros(9, dtype=np.uint8))
    with pytest.raises(ValueError):
        syndrome(code10, np.full(10, 2, dtype=np.uint8))


def test_example_code_rank_and_codebook(code10):
    # every column has weight 2, so the rows XOR to zero: rank 4, k = 6
    assert gf2_rank(H_EXAMPLE) == 4
    words = enumerate_codewords(H_EXAMPLE)
    assert len(words) == 64
    assert len(set(words)) == 64
    assert tuple([1] * 10) in words  # even row degrees admit the all-ones word
    for w in words:
        assert not syndrome(code10, np.array(w, dtype=np.uint8)).any()


def test_systematic_form_matches_enumeration(code10):
    gen = systematic_form(code10)
    assert gen.k == 6
    assert sorted(gen.column_permutation.tolist()) == list(range(10))
    encoded = set()
    for msg in range(2 ** gen.k):
        u = np.array([(msg >> b) & 1 for b in range(gen.k)], dtype=np.uint8)
        cw = gen.encode(u)
        assert not syndrome(code10, cw).any()
        assert cw[gen.message_columns].tolist() == u.tolist()
        encoded.add(tuple(int(b) for b in cw))
    assert encoded == set(enumerate_codewords(H_EXAMPLE))
    # a (F, k) block encodes each row exactly as the per-frame call does
    block = (np.arange(2 ** gen.k)[:, None] >> np.arange(gen.k)) & 1
    words = gen.encode(block)
    assert words.shape == (2 ** gen.k, 10) and words.dtype == np.uint8
    assert np.array_equal(words, np.stack([gen.encode(u) for u in block]))


def test_encode_zero_message_is_zero(code10):
    gen = systematic_form(code10)
    assert not gen.encode(np.zeros(gen.k, dtype=np.uint8)).any()
    assert not gen.encode(np.zeros((3, gen.k), dtype=np.uint8)).any()
    for bad in (np.zeros(gen.k + 1), np.zeros((3, gen.k + 1)), np.uint8(0),
                np.full((2, gen.k), 2)):
        with pytest.raises(ValueError):
            gen.encode(bad)


def test_rank_deficient_triangle():
    h = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]  # rows sum to zero: rank 2
    code = from_dense(h)
    gen = systematic_form(code)
    assert gen.k == 3 - gf2_rank(h) == 1
    words = {tuple(gen.encode(np.array([b], dtype=np.uint8))) for b in (0, 1)}
    assert words == {(0, 0, 0), (1, 1, 1)}


def test_systematic_form_generated_codes():
    rng = np.random.default_rng(11)
    for seed in (1, 2, 3):
        code = random_regular_code(48, 24, 6, seed)
        gen = systematic_form(code)
        assert gen.k == code.n - gf2_rank(code.to_dense())
        for _ in range(5):
            u = rng.integers(0, 2, size=gen.k).astype(np.uint8)
            assert not syndrome(code, gen.encode(u)).any()


def test_block_encode_matches_integer_product():
    # the encoder's float32 product against an int64 one, on the 576x288
    # code and on a rank-deficient code with odd k; all-ones messages give
    # the largest partial sums
    rng = np.random.default_rng(23)
    h = rng.integers(0, 2, size=(21, 41), dtype=np.uint8)
    h[20] = h[0] ^ h[1]  # a dependent row
    deficient = from_dense(h)
    for code in (random_regular_code(576, 288, 6, seed=1), deficient):
        gen = systematic_form(code)
        if code is deficient:
            assert gf2_rank(h) < code.m and gen.k % 2 == 1
        u = rng.integers(0, 2, size=(40, gen.k), dtype=np.uint8)
        u[0] = 1
        want = np.zeros((len(u), code.n), dtype=np.uint8)
        want[:, gen.message_columns] = u
        want[:, gen.parity_columns] = (u.astype(np.int64)
                                       @ gen.parity_rows.T.astype(np.int64)) % 2
        words = gen.encode(u)
        assert words.dtype == np.uint8 and np.array_equal(words, want)
        for w in words:
            assert not syndrome(code, w).any()


def test_systematic_form_computed_once_per_code():
    code = random_regular_code(48, 24, 6, seed=4)
    gen = systematic_form(code)
    assert systematic_form(code) is gen
    for a in (gen.column_permutation, gen.parity_rows):
        assert not a.flags.writeable
    twin = random_regular_code(48, 24, 6, seed=4)
    assert twin == code
    other = systematic_form(twin)
    assert other is not gen and other.k == gen.k
    assert np.array_equal(other.column_permutation, gen.column_permutation)
    assert np.array_equal(other.parity_rows, gen.parity_rows)


def test_emit_alist_headers(code10):
    lines = emit_alist(code10).splitlines()
    assert lines[0] == "10 5"
    assert lines[1] == "2 4"
    assert emit_alist(from_dense([[1]])).splitlines()[0] == "1 1"


def test_alist_round_trip_example(code10):
    assert parse_alist(emit_alist(code10)) == code10


def test_alist_round_trip_generated():
    for seed in (5, 6):
        code = random_regular_code(60, 30, 4, seed)
        again = parse_alist(emit_alist(code))
        assert again == code
        assert emit_alist(again) == emit_alist(code)


def test_alist_accepts_zero_padding(code10):
    # zero-padded entries are ignored even with extra trailing blanks
    text = emit_alist(code10) + "\n\n"
    assert parse_alist(text) == code10


def test_alist_out_of_range_index():
    text = emit_alist(from_dense(H_EXAMPLE))
    bad = text.replace("1 2", "1 6", 1)  # column 0 adjacency claims check 6 of 5
    with pytest.raises(AlistFormatError, match="line 5"):
        parse_alist(bad)


def test_alist_truncated():
    text = emit_alist(from_dense(H_EXAMPLE))
    cut = "\n".join(text.splitlines()[:8])
    with pytest.raises(AlistFormatError, match="truncated"):
        parse_alist(cut)


def test_alist_degree_mismatch():
    lines = emit_alist(from_dense(H_EXAMPLE)).splitlines()
    lines[2] = "1 " + " ".join(lines[2].split()[1:])  # column 0 degree lie
    with pytest.raises(AlistFormatError, match="column 0"):
        parse_alist("\n".join(lines))


def test_alist_declared_degree_exceeds_max():
    lines = emit_alist(from_dense(H_EXAMPLE)).splitlines()
    lines[2] = "3 " + " ".join(lines[2].split()[1:])
    with pytest.raises(AlistFormatError, match="maximum"):
        parse_alist("\n".join(lines))


def test_alist_header_mismatch():
    # header promises three columns but the degree line carries two
    with pytest.raises(AlistFormatError, match="line 3"):
        parse_alist("3 2\n1 1\n1 1\n1 1\n1\n2\n1\n2")


def test_alist_trailing_garbage():
    text = emit_alist(from_dense(H_EXAMPLE)) + "stray\n"
    with pytest.raises(AlistFormatError, match="unexpected content"):
        parse_alist(text)


def test_random_regular_code_structure():
    code = random_regular_code(576, 288, 6, seed=42)
    assert (code.n, code.m) == (576, 288)
    assert all(d == 6 for d in code.row_degrees)
    assert all(d == 3 for d in code.col_degrees)


def test_random_regular_code_deterministic():
    a = random_regular_code(120, 60, 5, seed=9)
    b = random_regular_code(120, 60, 5, seed=9)
    c = random_regular_code(120, 60, 5, seed=10)
    assert a == b
    assert emit_alist(a) == emit_alist(b)
    assert a != c


def test_random_regular_code_infeasible():
    with pytest.raises(DegenerateCodeError):
        random_regular_code(10, 2, 3, seed=1)  # 6 edges cannot cover 10 columns
    with pytest.raises(DegenerateCodeError):
        random_regular_code(4, 2, 5, seed=1)  # degree exceeds n
    with pytest.raises(ValueError):
        random_regular_code(4, 0, 2, seed=1)
