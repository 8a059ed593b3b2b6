import math
import random

import numpy as np
import pytest

from lamvar import DomainError, InvalidInputError, LambdaSequence, ResourceError
from lamvar.lambda_seq import PREFIX_BUDGET


def test_constant_terms():
    seq = LambdaSequence.constant(2.0)
    assert [seq.term(n) for n in range(1, 5)] == [2.0, 2.0, 2.0, 2.0]
    assert not seq.proper


def test_linear_terms():
    seq = LambdaSequence.linear(1.0, 0.0)
    assert [seq.term(n) for n in range(1, 5)] == [1.0, 2.0, 3.0, 4.0]
    assert seq.proper


def test_power_terms():
    seq = LambdaSequence.power(0.5)
    assert seq.term(4) == 2.0
    assert seq.term(9) == 3.0
    assert seq.proper


def test_nlog_terms():
    seq = LambdaSequence.nlog()
    assert seq.term(1) == pytest.approx(math.log(2.0), abs=1e-15)
    assert seq.term(3) == pytest.approx(3.0 * math.log(4.0), abs=1e-15)


def test_explicit_prefix_then_tail():
    seq = LambdaSequence.explicit([1.0, 1.5, 4.0], 2.0, 0.0)
    assert [seq.term(n) for n in range(1, 6)] == [1.0, 1.5, 4.0, 8.0, 10.0]
    assert seq.proper
    flat = LambdaSequence.explicit([3.0], 0.0)
    assert flat.term(1) == 3.0
    assert flat.term(100) == 3.0
    assert not flat.proper


def test_terms_positive_nondecreasing_seeded():
    rng = random.Random(11)
    seqs = [
        LambdaSequence.constant(3.0),
        LambdaSequence.linear(0.5, 1.0),
        LambdaSequence.power(0.7),
        LambdaSequence.nlog(),
        LambdaSequence.explicit([2.0, 2.0, 5.0], 1.0, 2.0),
    ]
    for seq in seqs:
        for _ in range(60):
            n = rng.randint(1, 500)
            assert seq.term(n) > 0.0
            assert seq.term(n + 1) >= seq.term(n)


def test_tail_shifts_accumulate():
    seq = LambdaSequence.linear(1.0, 0.0)
    t2 = seq.tail(2)
    assert t2.term(1) == 3.0
    assert t2.shift == 2
    assert t2.tail(1).term(1) == 4.0
    assert seq.tail(0).term(1) == 1.0
    with pytest.raises(DomainError):
        seq.tail(-1)
    with pytest.raises(DomainError):
        seq.tail(1.5)


def test_term_index_domain():
    seq = LambdaSequence.constant(1.0)
    with pytest.raises(DomainError):
        seq.term(0)
    with pytest.raises(DomainError):
        seq.term(-3)
    with pytest.raises(DomainError):
        seq.term(2.0)


def test_reciprocal_sum_harmonic():
    seq = LambdaSequence.linear(1.0, 0.0)
    target = sum(1.0 / k for k in range(1, 101))
    assert seq.reciprocal_sum(100) == pytest.approx(target, abs=1e-12)
    assert seq.reciprocal_sum(3) == pytest.approx(1.0 + 0.5 + 1.0 / 3.0, abs=1e-15)


def test_reciprocal_sum_respects_shift():
    seq = LambdaSequence.linear(1.0, 0.0).tail(2)
    assert seq.reciprocal_sum(2) == pytest.approx(1.0 / 3.0 + 1.0 / 4.0, abs=1e-15)


def test_reciprocal_sum_strictly_increasing():
    seq = LambdaSequence.power(0.5)
    prev = 0.0
    for n in range(1, 60):
        cur = seq.reciprocal_sum(n)
        assert cur > prev
        prev = cur


def test_shao_sablin_constant_is_two():
    seq = LambdaSequence.constant(4.0)
    for n in (1, 7, 100, 5000):
        assert seq.shao_sablin_ratio(n) == 2.0


def test_shao_sablin_linear_value():
    seq = LambdaSequence.linear(1.0, 0.0)
    h = lambda k: sum(1.0 / j for j in range(1, k + 1))
    assert seq.shao_sablin_ratio(1000) == pytest.approx(h(2000) / h(1000), rel=1e-12)


@pytest.mark.parametrize("shift", [0, 7])
def test_reciprocal_sum_is_left_to_right_loop_over_term(shift):
    # one formula per family: the sum adds 1.0 / term(k) in index order
    families = [
        LambdaSequence.constant(3.0),
        LambdaSequence.linear(2.0, 1.0),
        LambdaSequence.power(0.7),
        LambdaSequence.nlog(),
        LambdaSequence.explicit([1.0, 2.0, 2.0, 5.0], 0.5, 3.0),
    ]
    for seq in families:
        seq = seq.tail(shift)
        total = 0.0
        for n in range(1, 4097):
            total += 1.0 / seq.term(n)
            if n <= 512 or n == 4096:
                assert seq.reciprocal_sum(n) == total, (seq, n)


def test_linear_terms_that_overflow_are_refused():
    # the linear family and the explicit family's tail: a term of inf would
    # make its weight 1/term 0, so term and reciprocal_sum both refuse it
    for seq in (LambdaSequence.linear(1e308, 0.0), LambdaSequence.explicit([1.0], 1e308, 0.0)):
        assert seq.term(1) == (1.0 if seq.family == "explicit" else 1e308)
        with pytest.raises(InvalidInputError, match=r"^lambda: base term 2 \(index plus shift\)"):
            seq.term(2)
        with pytest.raises(InvalidInputError, match="base term 3 "):
            seq.tail(2).reciprocal_sum(1)


def test_budget_guard():
    seq = LambdaSequence.linear(1.0, 0.0)
    with pytest.raises(ResourceError):
        seq.reciprocal_sum(PREFIX_BUDGET + 1)
    with pytest.raises(ResourceError, match=r"prefix of 4194300 terms \(shift 5\)"):
        seq.tail(5).reciprocal_sum(PREFIX_BUDGET - 4)
    with pytest.raises(ResourceError, match=r"exceeds the budget of 4194304 weights$"):
        seq.reciprocal_sum(PREFIX_BUDGET + 1)


def test_count_and_ratio_guards():
    # an empty prefix is outside the domain
    with pytest.raises(DomainError, match="count must be >= 1, got 0"):
        LambdaSequence.linear().reciprocal_sum(0)
    for count in (2.5, True):
        with pytest.raises(DomainError, match="count must be an integer"):
            LambdaSequence.linear().reciprocal_sum(count)
    for n in (0, True):
        with pytest.raises(DomainError, match="n must be a positive integer"):
            LambdaSequence.linear().shao_sablin_ratio(n)
    # numpy integers are refused like any other non-int
    with pytest.raises(DomainError, match="index must be an integer"):
        LambdaSequence.linear().term(np.int64(2))
    with pytest.raises(DomainError, match="n must be a positive integer"):
        LambdaSequence.linear().shao_sablin_ratio(np.int64(3))


def test_validation_field_paths():
    with pytest.raises(InvalidInputError, match="params.c"):
        LambdaSequence.constant(0.0)
    with pytest.raises(InvalidInputError, match="params.a"):
        LambdaSequence.linear(-1.0, 5.0)
    with pytest.raises(InvalidInputError, match="params.b"):
        LambdaSequence.linear(0.0, 0.0)
    with pytest.raises(InvalidInputError, match="params.p"):
        LambdaSequence.power(1.5)
    with pytest.raises(InvalidInputError, match="params.p"):
        LambdaSequence.power(0.0)
    with pytest.raises(InvalidInputError, match=r"params.prefix\[1\]"):
        LambdaSequence.explicit([1.0, 0.5], 1.0, 0.0)
    with pytest.raises(InvalidInputError, match="params.tail"):
        LambdaSequence.explicit([5.0], 1.0, 0.0)
    with pytest.raises(InvalidInputError, match="family"):
        LambdaSequence("cubic", {})
    with pytest.raises(InvalidInputError, match="params.c: expected a number, got '1'"):
        LambdaSequence("constant", {"c": "1"})
    with pytest.raises(InvalidInputError, match="params.c: expected a number"):
        LambdaSequence("constant", {"c": True})
    with pytest.raises(InvalidInputError, match="params.a: must be finite"):
        LambdaSequence("linear", {"a": math.inf})
    with pytest.raises(InvalidInputError, match="params: expected an object"):
        LambdaSequence("constant", [1.0])
    with pytest.raises(InvalidInputError, match="params.p: missing exponent"):
        LambdaSequence("power", {})
    for prefix in ([], None):
        with pytest.raises(InvalidInputError, match="params.prefix: expected a nonempty array"):
            LambdaSequence("explicit", {"prefix": prefix, "tail": {}})
    with pytest.raises(InvalidInputError, match=r"params.prefix\[1\]: must be positive"):
        LambdaSequence("explicit", {"prefix": [1.0, 0.0], "tail": {}})
    with pytest.raises(InvalidInputError, match=r"params.tail: expected an object \{a, b\}"):
        LambdaSequence("explicit", {"prefix": [1.0], "tail": [0.0, 1.0]})
    with pytest.raises(InvalidInputError, match="params.tail.a: tail slope must be nonnegative"):
        LambdaSequence("explicit", {"prefix": [1.0], "tail": {"a": -1.0, "b": 5.0}})


def test_json_roundtrip():
    seqs = [
        LambdaSequence.constant(1.5),
        LambdaSequence.linear(2.0, 1.0).tail(3),
        LambdaSequence.power(0.25),
        LambdaSequence.nlog(),
        LambdaSequence.explicit([1.0, 2.0, 2.0], 0.5, 1.0),
    ]
    for seq in seqs:
        blob = seq.to_json()
        again = LambdaSequence.from_json(blob)
        assert again.to_json() == blob
        assert again.family == blob["family"]
        for n in (1, 2, 5, 17):
            assert again.term(n) == seq.term(n)


def test_from_json_rejects_bad_schema():
    with pytest.raises(InvalidInputError, match="lambda: weight-sequence description must be a JSON object"):
        LambdaSequence.from_json(["linear"])
    with pytest.raises(InvalidInputError, match="family"):
        LambdaSequence.from_json({"params": {}})
    with pytest.raises(InvalidInputError, match="shift"):
        LambdaSequence.from_json({"family": "constant", "params": {"c": 1}, "shift": -1})


def test_describe_is_stable():
    seq = LambdaSequence.linear(1.0, 0.0).tail(2)
    assert repr(seq) == repr(LambdaSequence.from_json(seq.to_json()))
    assert "linear" in repr(seq)
