import pytest
from hypothesis import given, settings, strategies as st

from agrip.errors import (
    CompositeCharacteristic,
    DivisionByZero,
    FieldTooLarge,
    ReducibleModulus,
)
from agrip.fields import (
    extension_with_embedding,
    is_prime,
    make_field,
    parse_descriptor,
)


def all_fields_up_to(bound):
    for p in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127]:
        s = 1
        while p ** s <= bound:
            yield make_field(p, s)
            s += 1


def test_f5_theta_is_smallest_primitive_element():
    f = make_field(5)
    assert f.theta == 2  # orders: 2 -> 4, checked exhaustively below
    for cand in [3, 4]:
        powers = {f.pow(cand, e) for e in range(1, 5)}
        if cand == 3:
            assert len(powers) == 4
        if cand == 4:
            assert len(powers) == 2  # 4 has order 2, not primitive


def test_f9_with_explicit_modulus_x2_plus_1():
    f = make_field(3, 2, [1, 0, 1])
    x = f.encode([0, 1])
    assert f.mul(x, x) == f.neg(1) == 2  # x^2 = -1
    assert f._mul_raw(x, x) == 2


def test_composite_characteristic_rejected():
    with pytest.raises(CompositeCharacteristic):
        make_field(4)


def test_reducible_modulus_rejected():
    with pytest.raises(ReducibleModulus):
        make_field(3, 2, [0, 0, 1])  # x^2 is reducible


def test_field_order_cap():
    # p and s are compared with the cap first, so a composite p above it
    # is refused as too large, not as composite
    for p, s in [(2, 21), (2, 22), ((1 << 21) + 1, 1)]:
        with pytest.raises(FieldTooLarge):
            make_field(p, s)


def test_arithmetic_examples():
    f9 = make_field(3, 2, [1, 0, 1])
    x = f9.encode([0, 1])
    assert f9.mul(x, x) == 2
    assert f9.inv(x) == f9.neg(x)  # x^-1 = -x because x^2 = -1
    f7 = make_field(7)
    assert f7.inv(3) == 5
    assert f7.add(4, 0) == 4
    with pytest.raises(DivisionByZero):
        f7.inv(0)
    with pytest.raises(DivisionByZero):
        f9.inv(0)


def test_trace_examples():
    for p, s in [(3, 2), (2, 3), (5, 2)]:
        f = make_field(p, s)
        assert f.trace(1) == s % p
    f9 = make_field(3, 2, [1, 0, 1])
    assert f9.trace(f9.encode([0, 1])) == 0  # x + x^3 = x - x = 0
    f5 = make_field(5)
    assert f5.trace(3) == 3


def _check_log_tables(f, indices):
    """exp[i + 1] = exp[i] theta by the polynomial product at the given
    indices, log inverts exp, and the padding follows the documented layout."""
    import numpy as np

    n = f.q - 1
    exp, log, _, _ = f._log_tables()
    assert exp.shape == (4 * n + 1,) and log.shape == (f.q,)
    assert exp[0] == 1
    for i in indices:
        assert exp[i + 1] == f._mul_raw(int(exp[i]), f.theta), (f.q, i)
    assert (log[exp[:n]] == np.arange(n)).all()
    assert log[0] == 2 * n
    assert (exp[n:2 * n] == exp[:n]).all() and not exp[2 * n:].any()


def test_log_tables_follow_theta_on_every_extension_field_up_to_2_10():
    for f in all_fields_up_to(1 << 10):
        if f.s > 1:
            _check_log_tables(f, range(f.q - 1))


# both are above 2^16; F_449^2 (q - 1 = 201 600) is the smallest p^2 whose
# last doubling spans two digit blocks of 2^16 rows
@pytest.mark.parametrize("p,s", [(2, 17), (449, 2)])
def test_log_tables_follow_theta_above_2_16(p, s):
    import numpy as np

    f = make_field(p, s)
    n = f.q - 1
    # every doubling and block boundary, the wrap to theta^0, and a sample
    edges = [i for k in range(n.bit_length()) for j in (1, 3)
             for i in ((j << k) - 1, j << k) if i < n]
    sample = np.random.default_rng(0).integers(0, n, 500).tolist()
    _check_log_tables(f, sorted(set(edges + sample + [n - 1])))


def test_lagrange_exhaustive_up_to_128():
    for f in all_fields_up_to(128):
        for code in range(1, f.q):
            assert f.pow(code, f.q - 1) == 1, (f.q, code)


def test_trace_linearity_exhaustive_up_to_81():
    for f in all_fields_up_to(81):
        for a in range(f.q):
            for b in range(f.q):
                assert f.trace(f.add(a, b)) == (f.trace(a) + f.trace(b)) % f.p
        for c in range(f.p):
            for a in range(f.q):
                assert f.trace(f.mul(c, a)) == (c * f.trace(a)) % f.p


def test_theta_powers_enumerate_nonzero_elements():
    for f in all_fields_up_to(128):
        seen = set()
        acc = 1
        for _ in range(f.q - 1):
            seen.add(acc)
            acc = f.mul(acc, f.theta)
        assert seen == set(range(1, f.q))
        assert acc == 1


def test_descriptor_round_trip():
    f = make_field(3, 2, [1, 0, 1])
    assert f.descriptor == "3^2/1,0,1"
    g = parse_descriptor(f.descriptor)
    assert g == f
    assert parse_descriptor("5").q == 5
    assert parse_descriptor("2^4").q == 16


def test_extension_embedding_is_a_homomorphism():
    base = make_field(3, 2)
    ext, emb = extension_with_embedding(base, 2)
    assert ext.q == 81
    for a in range(base.q):
        for b in range(base.q):
            assert emb[base.add(a, b)] == ext.add(emb[a], emb[b])
            assert emb[base.mul(a, b)] == ext.mul(emb[a], emb[b])
    assert emb[0] == 0 and emb[1] == 1


def test_np_helpers_match_scalar_ops():
    import numpy as np

    for f in [make_field(7), make_field(2, 3), make_field(3, 2)]:
        xs = np.arange(f.q, dtype=np.int64)
        ys = np.roll(xs, 1)
        add = f.np_add(xs, ys)
        mul = f.np_mul(xs, ys)
        for i in range(f.q):
            assert add[i] == f.add(int(xs[i]), int(ys[i]))
            assert mul[i] == f._mul_raw(int(xs[i]), int(ys[i]))
        for e in [0, 1, 2, 5, 2 ** 64 + 3]:  # e past int64 is reduced first
            pw = f.np_pow(xs, e)
            for i in range(f.q):
                assert pw[i] == f._pow_raw(int(xs[i]), e) == f.pow(int(xs[i]), e)


def test_np_mul_matches_scalar_mul_on_every_pair_up_to_81():
    import numpy as np

    for f in all_fields_up_to(81):
        # the polynomial product on extension fields, whose scalar mul reads
        # the same table as np_mul; (a b) mod p on prime fields
        mul = f._mul_raw if f.s > 1 else f.mul
        xs, ys = np.meshgrid(np.arange(f.q), np.arange(f.q), indexing="ij")
        assert f.np_mul(xs, ys).tolist() == [
            [mul(x, y) for y in range(f.q)] for x in range(f.q)]


def test_np_mul_matches_scalar_mul_on_a_broadcast_block_of_f256():
    import numpy as np

    f = make_field(2, 8)
    rng = np.random.default_rng(0)
    xs, ys = rng.integers(0, f.q, (40, 1)), rng.integers(0, f.q, (1, 300))
    xs[:3], ys[0, :3] = 0, 0  # zero rows and columns
    assert f.np_mul(xs, ys).tolist() == [
        [f._mul_raw(int(x), int(y)) for y in ys[0]] for x in xs[:, 0]]


@pytest.mark.parametrize("p,s", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3)])
def test_np_add_neg_trace_match_scalar_ops_on_every_element(p, s):
    import numpy as np

    f = make_field(p, s)
    xs, ys = (a.ravel() for a in np.meshgrid(np.arange(f.q), np.arange(f.q)))
    add = f.np_add(xs, ys)
    assert add.tolist() == [f.add(int(x), int(y)) for x, y in zip(xs, ys)]
    codes = np.arange(f.q, dtype=np.int64)
    assert f.np_neg(codes).tolist() == [f.neg(a) for a in range(f.q)]
    assert f.np_trace(codes).tolist() == [f.trace(a) for a in range(f.q)]
    assert f.np_trace(codes.reshape(-1, 1)).shape == (f.q, 1)


@pytest.mark.parametrize("p,s", [(2, 1), (7, 1), (2, 3), (3, 2)])
def test_np_sub_matches_scalar_sub_on_every_pair(p, s):
    import numpy as np

    f = make_field(p, s)
    xs, ys = (a.ravel() for a in np.meshgrid(np.arange(f.q), np.arange(f.q)))
    assert f.np_sub(xs, ys).tolist() == [f.sub(int(x), int(y))
                                         for x, y in zip(xs, ys)]


# F_9, F_25, F_27 and F_49 add by table lookup; F_3^7 (q > 2^10) by digits
_ODD_EXTENSIONS = [make_field(3, 2), make_field(5, 2), make_field(3, 3),
                   make_field(7, 2), make_field(3, 7)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_ODD_EXTENSIONS), st.data())
def test_np_add_and_neg_match_digitwise_arithmetic(f, data):
    import numpy as np

    pairs = data.draw(st.lists(st.tuples(st.integers(0, f.q - 1),
                                         st.integers(0, f.q - 1)), min_size=1))
    xs, ys = np.array(pairs).T
    digits = [f.decode(int(x)) for x in xs], [f.decode(int(y)) for y in ys]
    assert f.np_add(xs, ys).tolist() == [
        f.encode([(a + b) % f.p for a, b in zip(dx, dy)]) for dx, dy in zip(*digits)]
    assert f.np_neg(xs).tolist() == [
        f.encode([-a % f.p for a in dx]) for dx in digits[0]]
    assert f.np_add(xs[:, None], ys).shape == (xs.size, ys.size)


@pytest.mark.parametrize("p,s", [(2, 2), (2, 4), (3, 2), (5, 2), (3, 3)])
def test_scalar_add_and_neg_match_digitwise_arithmetic(p, s):
    """XOR for p = 2, the digit loop for odd p; every pair."""
    f = make_field(p, s)
    codes = range(f.q)

    def digitwise(a, b):
        return f.encode([(x + y) % p for x, y in zip(f.decode(a), f.decode(b))])

    for a in codes:
        assert f.neg(a) == f.encode([-x % p for x in f.decode(a)])
        for b in codes:
            assert f.add(a, b) == digitwise(a, b)
            assert type(f.add(a, b)) is int


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


# -- field axioms on random elements -----------------------------------------

_FIELDS = [make_field(2), make_field(7), make_field(2, 4), make_field(3, 3),
           make_field(5, 2)]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, len(_FIELDS) - 1), st.data())
def test_field_axioms(index, data):
    f = _FIELDS[index]
    code = st.integers(0, f.q - 1)
    a, b, c = (data.draw(code) for _ in range(3))
    assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
    assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == 0
    assert f.mul(a, 1) == a
    if a:
        assert f.mul(a, f.inv(a)) == 1
    assert f.sub(a, b) == f.add(a, f.neg(b))
    # Frobenius is additive
    assert f.pow(f.add(a, b), f.p) == f.add(f.pow(a, f.p), f.pow(b, f.p))
