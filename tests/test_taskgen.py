"""Synthetic multi-intent benchmark: fixed token map, transform oracles,
composition order, relevance labels, determinism, and serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atmoe.taskgen import (
    BOS,
    DOMAIN_RANGE,
    DOMAIN_TASKS,
    EOS,
    FUNCTION_TASKS,
    HIGH_RANGE,
    LOW_RANGE,
    PAYLOAD_BASE,
    PAYLOAD_SIZE,
    SEP,
    STYLE_TASKS,
    Sample,
    TASK_TOKENS,
    TaskCatalog,
    apply_function,
    batch_arrays,
    generate,
    make_sample,
    make_target,
    per_task_split,
    read_jsonl,
    terminator,
    write_jsonl,
)

payloads = st.lists(st.integers(PAYLOAD_BASE, PAYLOAD_BASE + PAYLOAD_SIZE - 1),
                    min_size=1, max_size=8)


def test_token_map_is_pinned():
    assert (BOS, SEP, EOS) == (0, 1, 2)
    assert TASK_TOKENS == {"identity": 3, "reverse": 4, "increment": 5,
                           "plain_end": 6, "echo_first": 7}
    assert PAYLOAD_BASE == 8 and PAYLOAD_SIZE == 32
    assert LOW_RANGE == (8, 24) and HIGH_RANGE == (24, 40)
    assert FUNCTION_TASKS == ("identity", "reverse", "increment")
    assert DOMAIN_TASKS == ("low_range", "high_range")
    assert STYLE_TASKS == ("plain_end", "echo_first")
    assert DOMAIN_RANGE == {"low_range": LOW_RANGE, "high_range": HIGH_RANGE}


@given(payloads)
def test_identity_is_noop(p):
    assert apply_function("identity", p) == p


@given(payloads)
def test_reverse_reverses_and_involutes(p):
    assert apply_function("reverse", p) == p[::-1]
    assert apply_function("reverse", apply_function("reverse", p)) == p


@given(payloads)
def test_increment_shifts_within_alphabet(p):
    out = apply_function("increment", p)
    for before, after in zip(p, out):
        assert after == PAYLOAD_BASE + ((before - PAYLOAD_BASE + 1)
                                        % PAYLOAD_SIZE)
        assert PAYLOAD_BASE <= after < PAYLOAD_BASE + PAYLOAD_SIZE


def test_increment_wraps_at_alphabet_top():
    top = PAYLOAD_BASE + PAYLOAD_SIZE - 1
    assert apply_function("increment", [top]) == [PAYLOAD_BASE]


def test_apply_function_rejects_unknown():
    with pytest.raises(ValueError):
        apply_function("nope", [8, 9])


def test_terminators():
    assert terminator("plain_end", [10, 11]) == [EOS]
    assert terminator("echo_first", [10, 11]) == [10, EOS]


def test_make_target_applies_functions_in_order():
    p = [8, 9, 10]
    t1 = make_target(["reverse", "increment"], "plain_end", p)
    assert t1 == apply_function("increment", apply_function("reverse", p)) + [EOS]
    # elementwise increment commutes with reverse; instruction order still
    # means left-to-right application
    assert t1 == make_target(["increment", "reverse"], "plain_end", p)
    # the echo style repeats the first token of the *original* payload
    inner = apply_function("increment", apply_function("reverse", p))
    assert make_target(["reverse", "increment"], "echo_first", p) == (
        inner + [p[0], EOS])


def test_make_sample_structure_and_relevance():
    s = make_sample(["reverse"], "low_range", "echo_first", [9, 12, 8])
    assert s.instruction_tokens == [BOS, TASK_TOKENS["reverse"],
                                    TASK_TOKENS["echo_first"]]
    assert s.input_tokens == [9, 12, 8]
    assert s.target_tokens == [8, 12, 9, 9, EOS]  # echo repeats payload[0]
    assert s.relevant_experts == {"function": ["reverse"],
                                  "domain": ["low_range"],
                                  "style": ["echo_first"]}
    full = s.tokens()
    assert full == s.instruction_tokens + s.input_tokens + [SEP] + s.target_tokens
    sep_at = full.index(SEP)
    assert list(s.scored_positions()) == list(range(sep_at,
                                                    sep_at + len(s.target_tokens)))
    # next-token view: position sep predicts target[0], last predicts EOS
    assert full[s.scored_positions()[-1] + 1] == EOS


def test_make_sample_multi_intent_relevance():
    s = make_sample(["reverse", "increment"], "high_range", "plain_end",
                    [25, 30])
    assert s.relevant_experts["function"] == ["reverse", "increment"]
    assert s.instruction_tokens == [BOS, TASK_TOKENS["reverse"],
                                    TASK_TOKENS["increment"],
                                    TASK_TOKENS["plain_end"]]


def test_make_sample_enforces_domain_range():
    with pytest.raises(ValueError):
        make_sample(["identity"], "low_range", "plain_end", [30])
    with pytest.raises(ValueError):
        make_sample(["identity"], "high_range", "plain_end", [9])
    with pytest.raises(ValueError, match="unknown domain"):
        make_sample(["identity"], "bogus", "plain_end", [30, 31])


def test_generate_deterministic_and_sized():
    cat = TaskCatalog()
    a = generate(cat, 50, seed=77, multi_intent_fraction=0.4)
    b = generate(cat, 50, seed=77, multi_intent_fraction=0.4)
    c = generate(cat, 50, seed=78, multi_intent_fraction=0.4)
    assert len(a) == 50
    assert [s.tokens() for s in a] == [s.tokens() for s in b]
    assert [s.tokens() for s in a] != [s.tokens() for s in c]


def test_generate_fraction_endpoints():
    cat = TaskCatalog()
    singles = generate(cat, 40, seed=5, multi_intent_fraction=0.0)
    assert all(len(s.relevant_experts["function"]) == 1 for s in singles)
    multis = generate(cat, 40, seed=5, multi_intent_fraction=1.0)
    for s in multis:
        fns = s.relevant_experts["function"]
        assert len(fns) == 2 and len(set(fns)) == 2


def test_generate_respects_domain_payload_ranges():
    cat = TaskCatalog()
    for s in generate(cat, 120, seed=6, multi_intent_fraction=0.3):
        lo, hi = DOMAIN_RANGE[s.relevant_experts["domain"][0]]
        assert all(lo <= t < hi for t in s.input_tokens)
        assert cat.payload_min_len <= len(s.input_tokens) <= cat.payload_max_len


def test_generate_validates_arguments():
    cat = TaskCatalog()
    with pytest.raises(ValueError):
        generate(cat, 0, seed=1, multi_intent_fraction=0.3)
    with pytest.raises(ValueError):
        generate(cat, 5, seed=1, multi_intent_fraction=1.5)


def test_per_task_split_buckets_by_relevance():
    cat = TaskCatalog()
    samples = generate(cat, 200, seed=9, multi_intent_fraction=0.5)
    split = per_task_split(samples)
    group_of = {**dict.fromkeys(FUNCTION_TASKS, "function"),
                **dict.fromkeys(DOMAIN_TASKS, "domain"), **dict.fromkeys(STYLE_TASKS, "style")}
    assert set(split) <= set(group_of)
    for task, bucket in split.items():
        group = group_of[task]
        for s in bucket:
            assert task in s.relevant_experts[group]
    # every sample lands in each of its relevant buckets
    n_by_count = sum(len(b) for b in split.values())
    expected = sum(sum(len(v) for v in s.relevant_experts.values())
                   for s in samples)
    assert n_by_count == expected


def test_batch_arrays_shapes_and_masking():
    cat = TaskCatalog()
    samples = generate(cat, 16, seed=10, multi_intent_fraction=0.3)
    max_len = max(len(s.tokens()) for s in samples)
    tokens, targets, weights = batch_arrays(samples, max_len)
    assert tokens.shape == targets.shape == weights.shape == (16, max_len)
    for i, s in enumerate(samples):
        seq = s.tokens()
        np.testing.assert_array_equal(tokens[i, :len(seq)], seq)
        scored = np.zeros(max_len)
        for p in s.scored_positions():
            scored[p] = 1.0
            assert targets[i, p] == seq[p + 1] if p + 1 < len(seq) else True
        np.testing.assert_array_equal(weights[i], scored)
        # positions at/after the final token are never scored
        assert weights[i, len(seq) - 1:].sum() == 0.0


def test_batch_arrays_rejects_overflow():
    cat = TaskCatalog()
    samples = generate(cat, 8, seed=11, multi_intent_fraction=0.0)
    with pytest.raises(ValueError):
        batch_arrays(samples, 3)


def test_jsonl_roundtrip(tmp_path):
    cat = TaskCatalog()
    samples = generate(cat, 12, seed=13, multi_intent_fraction=0.5)
    path = tmp_path / "data.jsonl"
    write_jsonl(path, samples)
    back = read_jsonl(path)
    assert len(back) == len(samples)
    for s, b in zip(samples, back):
        assert s == b
    # files written before the field was dropped carry "intent_count", a copy
    # of the function-task count; readers ignore it
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert all("intent_count" not in r for r in records)
    path.write_text("".join(json.dumps(dict(r, intent_count=len(r["relevant_experts"]["function"])))
                            + "\n" for r in records))
    assert read_jsonl(path) == samples


@pytest.mark.parametrize("payload_len", [1, 4, 8])
def test_max_sequence_len_is_the_longest_generated_sample(payload_len):
    catalog = TaskCatalog(payload_min_len=payload_len, payload_max_len=payload_len)
    samples = generate(catalog, 64, seed=5, multi_intent_fraction=0.5)
    assert max(len(s.tokens()) for s in samples) == catalog.max_sequence_len()
