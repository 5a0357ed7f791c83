"""Synthetic multi-intent benchmark: fixed token map, transform oracles,
composition order, relevance labels, determinism, and serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atmoe.taskgen import (
    BOS,
    EOS,
    GROUPS,
    PAYLOAD_IDS,
    SEP,
    Sample,
    TASKS,
    TaskCatalog,
    batch_arrays,
    generate,
    make_sample,
    make_target,
    per_task_split,
    read_jsonl,
    write_jsonl,
)

payloads = st.lists(st.integers(PAYLOAD_IDS.start, PAYLOAD_IDS.stop - 1), min_size=1, max_size=8)


def _fn(task, payload):
    return TASKS[task].transform(payload)


def test_token_map_is_pinned():
    # these values fix the bytes of the generated data
    assert (BOS, SEP, EOS) == (0, 1, 2)
    assert {n: t.token for n, t in TASKS.items() if t.token is not None} == {
        "identity": 3, "reverse": 4, "increment": 5, "plain_end": 6, "echo_first": 7}
    assert {n: t.payload for n, t in TASKS.items() if t.payload is not None} == {
        "low_range": range(8, 24), "high_range": range(24, 40)}
    assert PAYLOAD_IDS == range(8, 40)
    assert GROUPS == {"function": ("identity", "reverse", "increment"),
                      "domain": ("low_range", "high_range"),
                      "style": ("plain_end", "echo_first")}


@given(payloads)
def test_identity_is_noop(p):
    assert _fn("identity", p) == p


@given(payloads)
def test_reverse_reverses_and_involutes(p):
    assert _fn("reverse", p) == p[::-1]
    assert _fn("reverse", _fn("reverse", p)) == p


@given(payloads)
def test_increment_shifts_within_alphabet(p):
    out = _fn("increment", p)
    for before, after in zip(p, out):
        assert after == PAYLOAD_IDS.start + (before - PAYLOAD_IDS.start + 1) % len(PAYLOAD_IDS)
        assert after in PAYLOAD_IDS


def test_increment_wraps_at_alphabet_top():
    assert _fn("increment", [PAYLOAD_IDS.stop - 1]) == [PAYLOAD_IDS.start]


def test_make_target_rejects_unknown_task():
    # a name outside the table, or one from another group
    for functions, style in ((["nope"], "plain_end"), (["plain_end"], "plain_end"),
                             (["identity"], "reverse"), (["identity"], "low_range")):
        with pytest.raises(ValueError, match="unknown (function|style) task"):
            make_target(functions, style, [8, 9])


def test_terminators():
    assert _fn("plain_end", [10, 11]) == [EOS]
    assert _fn("echo_first", [10, 11]) == [10, EOS]


def test_make_target_applies_functions_in_order():
    p = [8, 9, 10]
    t1 = make_target(["reverse", "increment"], "plain_end", p)
    assert t1 == _fn("increment", _fn("reverse", p)) + [EOS]
    # elementwise increment commutes with reverse; instruction order still
    # means left-to-right application
    assert t1 == make_target(["increment", "reverse"], "plain_end", p)
    # the echo style repeats the first token of the *original* payload
    inner = _fn("increment", _fn("reverse", p))
    assert make_target(["reverse", "increment"], "echo_first", p) == (
        inner + [p[0], EOS])


def test_make_sample_structure_and_relevance():
    s = make_sample(["reverse"], "low_range", "echo_first", [9, 12, 8])
    assert s.instruction_tokens == [BOS, TASKS["reverse"].token, TASKS["echo_first"].token]
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
    assert s.instruction_tokens == [BOS, TASKS["reverse"].token, TASKS["increment"].token,
                                    TASKS["plain_end"].token]


def test_make_sample_enforces_domain_range():
    with pytest.raises(ValueError):
        make_sample(["identity"], "low_range", "plain_end", [30])
    with pytest.raises(ValueError):
        make_sample(["identity"], "high_range", "plain_end", [9])
    with pytest.raises(ValueError, match="unknown domain"):
        make_sample(["identity"], "bogus", "plain_end", [30, 31])


def test_generate_deterministic_and_sized(catalog):
    a = generate(catalog, 50, seed=77, multi_intent_fraction=0.4)
    b = generate(catalog, 50, seed=77, multi_intent_fraction=0.4)
    c = generate(catalog, 50, seed=78, multi_intent_fraction=0.4)
    assert len(a) == 50
    assert [s.tokens() for s in a] == [s.tokens() for s in b]
    assert [s.tokens() for s in a] != [s.tokens() for s in c]


def test_generate_fraction_endpoints(catalog):
    singles = generate(catalog, 40, seed=5, multi_intent_fraction=0.0)
    assert all(len(s.relevant_experts["function"]) == 1 for s in singles)
    multis = generate(catalog, 40, seed=5, multi_intent_fraction=1.0)
    for s in multis:
        fns = s.relevant_experts["function"]
        assert len(fns) == 2 and len(set(fns)) == 2


def test_generate_respects_domain_payload_ranges(catalog):
    for s in generate(catalog, 120, seed=6, multi_intent_fraction=0.3):
        ids = TASKS[s.relevant_experts["domain"][0]].payload
        assert all(t in ids for t in s.input_tokens)
        assert catalog.payload_min_len <= len(s.input_tokens) <= catalog.payload_max_len


def test_generate_validates_arguments(catalog):
    with pytest.raises(ValueError):
        generate(catalog, 0, seed=1, multi_intent_fraction=0.3)
    with pytest.raises(ValueError):
        generate(catalog, 5, seed=1, multi_intent_fraction=1.5)


def test_per_task_split_buckets_by_relevance(catalog):
    samples = generate(catalog, 200, seed=9, multi_intent_fraction=0.5)
    split = per_task_split(samples, list(TASKS))
    assert list(split) == list(TASKS)
    for task, bucket in split.items():
        for s in bucket:
            assert task in s.relevant_experts[TASKS[task].group]
    # every sample lands in each of its relevant buckets
    n_by_count = sum(len(b) for b in split.values())
    expected = sum(sum(len(v) for v in s.relevant_experts.values())
                   for s in samples)
    assert n_by_count == expected
    # only the ids asked for, in the order asked
    assert list(per_task_split(samples, ["reverse", "identity"])) == ["reverse", "identity"]


def test_per_task_split_names_every_empty_bucket():
    samples = [make_sample(["reverse"], "low_range", "plain_end", [9, 10])]
    with pytest.raises(ValueError, match=r"empty data bucket for task\(s\) "
                                         r"\['identity', 'high_range'\]"):
        per_task_split(samples, ["identity", "reverse", "low_range", "high_range"])
    with pytest.raises(ValueError, match=r"\['reverse'\]"):
        per_task_split([], ["reverse"])


def test_batch_arrays_shapes_and_masking(catalog):
    samples = generate(catalog, 16, seed=10, multi_intent_fraction=0.3)
    T = max(len(s.tokens()) for s in samples)
    tokens, rows, targets = batch_arrays(samples)
    assert tokens.shape == (16, T)
    assert rows.dtype == targets.dtype == np.int64
    assert list(rows) == sorted(rows)
    want = [b * T + p for b, s in enumerate(samples) for p in s.scored_positions()]
    assert list(rows) == want
    for i, s in enumerate(samples):
        seq = s.tokens()
        np.testing.assert_array_equal(tokens[i, :len(seq)], seq)
        np.testing.assert_array_equal(tokens[i, len(seq):], BOS)
        mine = (rows // T == i)
        positions = rows[mine] % T
        # positions at/after the final token are never scored
        assert positions.max() < len(seq) - 1
        np.testing.assert_array_equal(targets[mine], [seq[p + 1] for p in positions])


def test_jsonl_roundtrip(tmp_path, catalog):
    samples = generate(catalog, 12, seed=13, multi_intent_fraction=0.5)
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
