"""Property tests for the bit-packed GF(2) kernel.

The packed uint64 implementations (:func:`pack_rows_u64`,
:func:`gf2_rank_packed`, :func:`gf2_solve_packed`,
:class:`PackedGF2Basis`) must agree exactly with the pure-python
references (:func:`gf2_rank`, :func:`gf2_solve`) on every input:
pack/unpack round-trips, rank, solvability, solution values, and
inconsistency detection.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.gf2 import (
    PackedGF2Basis,
    gf2_rank,
    gf2_rank_dense,
    gf2_rank_packed,
    gf2_solve,
    gf2_solve_packed,
    pack_int_u64,
    pack_rows,
    pack_rows_u64,
    unpack_int_u64,
    unpack_rows_u64,
    words_for,
)

COMMON = settings(max_examples=60, deadline=None)


def _dense(rows, width):
    """Int masks -> uint8 matrix, bit j of row i at [i, j]."""
    out = np.zeros((len(rows), width), dtype=np.uint8)
    for i, r in enumerate(rows):
        for j in range(width):
            out[i, j] = (r >> j) & 1
    return out


@st.composite
def int_matrix(draw, max_rows=10, max_width=150, min_width=1):
    width = draw(st.integers(min_width, max_width))
    n = draw(st.integers(0, max_rows))
    rows = draw(
        st.lists(
            st.integers(0, (1 << width) - 1), min_size=n, max_size=n
        )
    )
    return width, rows


# ----------------------------------------------------------------------
# Packing round-trips
# ----------------------------------------------------------------------


@COMMON
@given(int_matrix())
def test_pack_unpack_round_trip(matrix):
    width, rows = matrix
    dense = _dense(rows, width)
    packed = pack_rows_u64(dense)
    assert packed.shape == (len(rows), words_for(width))
    assert packed.dtype == np.uint64
    np.testing.assert_array_equal(unpack_rows_u64(packed, width), dense)
    # and the int view agrees with the word view
    assert pack_rows(dense) == rows


@COMMON
@given(st.integers(0, (1 << 256) - 1), st.integers(4, 6))
def test_pack_int_round_trip(value, n_words):
    words = pack_int_u64(value, n_words)
    assert words.shape == (n_words,)
    assert unpack_int_u64(words) == value


def test_words_for():
    assert [words_for(w) for w in (1, 63, 64, 65, 128, 129)] == [
        1, 1, 1, 2, 2, 3,
    ]


# ----------------------------------------------------------------------
# Rank
# ----------------------------------------------------------------------


@COMMON
@given(int_matrix())
def test_rank_packed_matches_references(matrix):
    width, rows = matrix
    dense = _dense(rows, width)
    expected = gf2_rank(rows)
    assert gf2_rank_packed(pack_rows_u64(dense), width) == expected
    assert gf2_rank_dense(dense) == expected


# ----------------------------------------------------------------------
# Solve
# ----------------------------------------------------------------------


@st.composite
def linear_system(draw, max_width=80, payload_bits=200):
    """A consistent system: payloads are true XOR combinations."""
    width = draw(st.integers(1, max_width))
    n = draw(st.integers(0, width + 3))
    rows = draw(
        st.lists(
            st.integers(0, (1 << width) - 1), min_size=n, max_size=n
        )
    )
    truth = draw(
        st.lists(
            st.integers(0, (1 << payload_bits) - 1),
            min_size=width,
            max_size=width,
        )
    )
    payloads = []
    for r in rows:
        acc = 0
        for j in range(width):
            if (r >> j) & 1:
                acc ^= truth[j]
        payloads.append(acc)
    return width, rows, payloads, truth


def _packed_system(width, rows, payloads):
    dense = _dense(rows, width)
    pay_words = max(1, words_for(max(payloads).bit_length() if payloads else 1))
    packed_pay = (
        np.stack([pack_int_u64(p, pay_words) for p in payloads])
        if payloads
        else np.zeros((0, pay_words), dtype=np.uint64)
    )
    return pack_rows_u64(dense), packed_pay


@COMMON
@given(linear_system())
def test_solve_packed_matches_reference(system):
    width, rows, payloads, truth = system
    expected = gf2_solve(rows, payloads, width)
    packed_rows, packed_pay = _packed_system(width, rows, payloads)
    got = gf2_solve_packed(packed_rows, packed_pay, width)
    if expected is None:
        assert got is None
    else:
        assert expected == truth  # consistent full-rank system
        assert got is not None
        decoded = [unpack_int_u64(got[j]) for j in range(width)]
        assert decoded == expected


@COMMON
@given(linear_system())
def test_solve_packed_detects_inconsistency(system):
    width, rows, payloads, _ = system
    if not rows or all(r == 0 for r in rows):
        return
    # Re-add the first non-zero equation with its payload flipped: the
    # system now contains "same combination, different value".
    i = next(i for i, r in enumerate(rows) if r != 0)
    bad_rows = rows + [rows[i]]
    bad_payloads = payloads + [payloads[i] ^ 1]
    with pytest.raises(ValueError, match="inconsistent"):
        gf2_solve(bad_rows, bad_payloads, width)
    packed_rows, packed_pay = _packed_system(width, bad_rows, bad_payloads)
    with pytest.raises(ValueError, match="inconsistent"):
        gf2_solve_packed(packed_rows, packed_pay, width)


def test_solve_packed_rejects_overwide_rows():
    rows = np.array([[np.uint64(1 << 5)]], dtype=np.uint64)
    pay = np.zeros((1, 1), dtype=np.uint64)
    with pytest.raises(ValueError, match="width"):
        gf2_solve_packed(rows, pay, 3)


# ----------------------------------------------------------------------
# PackedGF2Basis vs an incremental pure-python oracle
# ----------------------------------------------------------------------


def _oracle_absorb(basis, row, payload):
    """Reference incremental RREF step (mirrors gf2_solve's loop)."""
    for b_row, b_pay in basis:
        pivot = b_row & -b_row
        if row & pivot:
            row ^= b_row
            payload ^= b_pay
    if row == 0:
        return (-1 if payload else 0), basis
    pivot = row & -row
    basis = [
        (br ^ row, bp ^ payload) if br & pivot else (br, bp)
        for br, bp in basis
    ]
    basis.append((row, payload))
    return 1, basis


@st.composite
def absorb_stream(draw, payload_bits):
    width = draw(st.integers(1, 64))
    n = draw(st.integers(0, 2 * width))
    stream = draw(
        st.lists(
            st.tuples(
                st.integers(0, (1 << width) - 1),
                st.integers(0, (1 << payload_bits) - 1),
            ),
            min_size=n,
            max_size=n,
        )
    )
    return width, stream


def _check_basis_against_oracle(width, stream):
    basis = PackedGF2Basis(width)
    oracle = []
    for coeff, payload in stream:
        status, oracle = _oracle_absorb(oracle, coeff, payload)
        assert basis.absorb(coeff, payload) == status
        assert basis.rank == len(oracle)
        assert basis.is_complete == (len(oracle) == width)
    solution = basis.solve_ints()
    if len(oracle) < width:
        assert solution is None
    else:
        expected = [0] * width
        for b_row, b_pay in oracle:
            col = (b_row & -b_row).bit_length() - 1
            expected[col] = b_pay
        assert solution == expected


@COMMON
@given(absorb_stream(payload_bits=60))
def test_basis_matches_oracle_single_word_payloads(case):
    _check_basis_against_oracle(*case)


@COMMON
@given(absorb_stream(payload_bits=300))
def test_basis_matches_oracle_multi_word_payloads(case):
    # >64-bit payloads force the vectorized numpy path (_grow_payload)
    _check_basis_against_oracle(*case)


def test_basis_rejects_bad_width():
    with pytest.raises(ValueError):
        PackedGF2Basis(0)
    with pytest.raises(ValueError):
        PackedGF2Basis(65)


# ----------------------------------------------------------------------
# PackedGF2Basis.absorb_block vs sequential absorb on a twin basis
# ----------------------------------------------------------------------


@st.composite
def block_case(draw):
    """A starting stream and blocks over a hidden solution.

    Rows are consistent with the solution unless flagged inconsistent.
    A block may carry every unit vector in random order, so the basis
    completes mid-block and the rows after it form a full-rank tail;
    payloads are single-word or wider than 64 bits.
    """
    width = draw(st.integers(1, 12))
    pay_bits = draw(st.sampled_from((8, 64, 100)))
    solution = [draw(st.integers(0, (1 << pay_bits) - 1))
                for _ in range(width)]

    def value(coeff):
        return _subset_xor(solution, coeff)

    def row():
        coeff = draw(st.integers(0, (1 << width) - 1))
        payload = value(coeff)
        if draw(st.integers(0, 3)) == 0:
            payload ^= draw(st.integers(1, (1 << pay_bits) - 1))
        return coeff, payload

    start = [row() for _ in range(draw(st.integers(0, width)))]
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        block = [row() for _ in range(draw(st.integers(0, 4)))]
        if draw(st.booleans()):
            order = draw(st.permutations(range(width)))
            block += [(1 << c, value(1 << c)) for c in order]
        block += [row() for _ in range(draw(st.integers(0, 8)))]
        blocks.append(block)
    return width, start, blocks


def _subset_xor(payloads, mask):
    out = 0
    for c, pay in enumerate(payloads):
        if mask >> c & 1:
            out ^= pay
    return out


def _basis_state(basis):
    pay = None if basis._pay is None else basis._pay.tolist()
    return (basis.rank, basis._pivot_mask, list(basis._coeff),
            basis._pay_int, pay, basis.payload_words)


@settings(max_examples=150, deadline=None)
@given(block_case())
def test_absorb_block_matches_sequential_absorb(case):
    width, start, blocks = case
    blocked = PackedGF2Basis(width)
    sequential = PackedGF2Basis(width)
    for coeff, payload in start:
        assert blocked.absorb(coeff, payload) == sequential.absorb(
            coeff, payload)
    for block in blocks:
        rows = [c for c, _ in block]
        payloads = [p for _, p in block]
        expected = [sequential.absorb(c, p) for c, p in block]
        assert blocked.absorb_block(rows, payloads) == expected
        assert _basis_state(blocked) == _basis_state(sequential)


def test_absorb_block_full_rank_tail_flags_inconsistent_rows():
    """Rows after the basis completes are settled against the solution:
    consistent ones are redundant, a flipped payload is inconsistent."""
    solution = [0b101, 0b011, 0b110]
    rows = [0b001, 0b011, 0b111, 0b110, 0b101, 0b010]
    payloads = [_subset_xor(solution, r) for r in rows]
    payloads[4] ^= 1
    basis = PackedGF2Basis(3)
    statuses = basis.absorb_block(rows, payloads)
    assert statuses == [1, 1, 1, 0, -1, 0]
    assert basis.solve_ints() == solution
