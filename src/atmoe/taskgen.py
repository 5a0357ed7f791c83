"""Deterministic synthetic corpus with ground-truth expert relevance.

Each sample composes one task per category: a sequence transform (function
group), a payload token range (domain group), and a terminator convention
(style group). Because relevance labels are known by construction, routing
behavior can be scored exactly instead of eyeballed.

Token map: BOS=0, SEP=1, EOS=2; instruction tokens 3..7 name the function and
style tasks (the domain is implied by the payload range); payload ids 8..23
are the low range and 24..39 the high range; remaining vocabulary is unused.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import write_text
from .numerics import derive_rng

BOS, SEP, EOS = 0, 1, 2
PAYLOAD_BASE = 8
PAYLOAD_SIZE = 32
LOW_RANGE = (8, 24)  # half-open
HIGH_RANGE = (24, 40)
DOMAIN_RANGE = {"low_range": LOW_RANGE, "high_range": HIGH_RANGE}  # payload ids per domain

FUNCTION_TASKS = ("identity", "reverse", "increment")
DOMAIN_TASKS = tuple(DOMAIN_RANGE)
STYLE_TASKS = ("plain_end", "echo_first")

TASK_TOKENS = {
    "identity": 3,
    "reverse": 4,
    "increment": 5,
    "plain_end": 6,
    "echo_first": 7,
}

@dataclass
class TaskCatalog:
    """Payload length bounds of the generated samples."""

    payload_min_len: int = 3
    payload_max_len: int = 8

    def max_sequence_len(self) -> int:
        """Longest sample ``generate`` can produce: BOS, two function tokens and
        a style token, the payload, SEP, the transformed payload and a
        two-token terminator."""
        return 2 * self.payload_max_len + 7


@dataclass
class Sample:
    instruction_tokens: list[int]
    input_tokens: list[int]
    target_tokens: list[int]
    relevant_experts: dict[str, list[str]] = field(default_factory=dict)

    def tokens(self) -> list[int]:
        """Full model sequence: instruction, payload, SEP, then the target."""
        return self.instruction_tokens + self.input_tokens + [SEP] + self.target_tokens

    def scored_positions(self) -> range:
        """Positions whose next-token prediction is loss-scored (SEP onward)."""
        sep = len(self.instruction_tokens) + len(self.input_tokens)
        return range(sep, sep + len(self.target_tokens))


def apply_function(task: str, payload: list[int]) -> list[int]:
    if task == "identity":
        return list(payload)
    if task == "reverse":
        return list(reversed(payload))
    if task == "increment":
        return [PAYLOAD_BASE + ((t - PAYLOAD_BASE + 1) % PAYLOAD_SIZE) for t in payload]
    raise ValueError(f"unknown function task {task!r}")


def terminator(style: str, payload: list[int]) -> list[int]:
    if style == "plain_end":
        return [EOS]
    if style == "echo_first":
        return [payload[0], EOS]
    raise ValueError(f"unknown style task {style!r}")


def make_target(function_tasks: list[str], style: str, payload: list[int]) -> list[int]:
    out = list(payload)
    for task in function_tasks:
        out = apply_function(task, out)
    return out + terminator(style, payload)


def make_sample(function_tasks: list[str], domain: str, style: str,
                payload: list[int]) -> Sample:
    if domain not in DOMAIN_RANGE:
        raise ValueError(f"unknown domain task {domain!r}")
    lo, hi = DOMAIN_RANGE[domain]
    if any(not lo <= t < hi for t in payload):
        raise ValueError(f"payload leaves the {domain} range")
    instruction = [BOS] + [TASK_TOKENS[t] for t in function_tasks] + [TASK_TOKENS[style]]
    return Sample(
        instruction_tokens=instruction,
        input_tokens=list(payload),
        target_tokens=make_target(function_tasks, style, payload),
        relevant_experts={
            "function": list(function_tasks),
            "domain": [domain],
            "style": [style],
        },
    )


def generate(catalog: TaskCatalog, n: int, seed: int,
             multi_intent_fraction: float) -> list[Sample]:
    """Deterministic sample stream for (seed, n, fraction)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0.0 <= multi_intent_fraction <= 1.0:
        raise ValueError(f"multi_intent_fraction must lie in [0, 1], got {multi_intent_fraction}")
    rng = derive_rng(seed, "taskgen")
    samples = []
    for _ in range(n):
        multi = bool(rng.random() < multi_intent_fraction)
        picks = rng.permutation(len(FUNCTION_TASKS))[: 2 if multi else 1]
        fn_tasks = [FUNCTION_TASKS[i] for i in picks]
        domain = DOMAIN_TASKS[int(rng.integers(len(DOMAIN_TASKS)))]
        style = STYLE_TASKS[int(rng.integers(len(STYLE_TASKS)))]
        length = int(rng.integers(catalog.payload_min_len, catalog.payload_max_len + 1))
        lo, hi = DOMAIN_RANGE[domain]
        payload = [int(t) for t in rng.integers(lo, hi, size=length)]
        samples.append(make_sample(fn_tasks, domain, style, payload))
    return samples


def per_task_split(samples: list[Sample]) -> dict[str, list[Sample]]:
    """Bucket samples under every task relevant to them."""
    if not samples:
        raise ValueError("cannot split an empty dataset")
    buckets: dict[str, list[Sample]] = {}
    for s in samples:
        for ids in s.relevant_experts.values():
            for task in ids:
                buckets.setdefault(task, []).append(s)
    return buckets


def sample_to_dict(s: Sample) -> dict:
    return {
        "instruction": list(s.instruction_tokens),
        "input": list(s.input_tokens),
        "target": list(s.target_tokens),
        "relevant_experts": {k: list(v) for k, v in s.relevant_experts.items()},
    }


def _list_of(doc: dict, key: str, kind: type) -> list:
    value = doc.get(key)
    if not isinstance(value, list) or any(type(v) is not kind for v in value):
        raise ValueError(f"{key!r} must be a list of {kind.__name__}")
    return value


def sample_from_dict(doc: dict) -> Sample:
    """The sample of one JSONL record; a missing key or a value of the wrong
    JSON type is a ValueError."""
    rel = doc.get("relevant_experts") if isinstance(doc, dict) else None
    if not isinstance(rel, dict):
        raise ValueError("a sample must be a JSON object with an object 'relevant_experts'")
    return Sample(
        instruction_tokens=_list_of(doc, "instruction", int),
        input_tokens=_list_of(doc, "input", int),
        target_tokens=_list_of(doc, "target", int),
        relevant_experts={k: _list_of(rel, k, str) for k in rel},
    )


def write_jsonl(path: str | Path, samples: list[Sample]) -> None:
    write_text(path, "".join(json.dumps(sample_to_dict(s), separators=(",", ":")) + "\n"
                             for s in samples))


def read_jsonl(path: str | Path) -> list[Sample]:
    """The samples of a JSONL file; a line that is not a sample is a ValueError
    naming the file and the line."""
    samples = []
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            if line.strip():
                try:
                    samples.append(sample_from_dict(json.loads(line)))
                except ValueError as exc:
                    raise ValueError(f"{path}: line {n}: {exc}") from None
    return samples


def batch_arrays(samples: list[Sample], max_seq_len: int):
    """Right-padded token/target/weight arrays for a batch of samples.

    Returns (tokens [B, T], targets [B, T], weights [B, T]) where weights mark
    the positions whose next-token prediction is scored. Padding reuses BOS;
    causal masking keeps it invisible to scored positions.
    """
    lens = [len(s.tokens()) for s in samples]
    T = max(lens)
    if T > max_seq_len:
        raise ValueError(f"sequence length {T} exceeds max_seq_len {max_seq_len}")
    B = len(samples)
    tokens = np.full((B, T), BOS, dtype=np.int64)
    targets = np.zeros((B, T), dtype=np.int64)
    weights = np.zeros((B, T), dtype=np.float64)
    for b, s in enumerate(samples):
        seq = s.tokens()
        tokens[b, : len(seq)] = seq
        for p in s.scored_positions():
            targets[b, p] = seq[p + 1]
            weights[b, p] = 1.0
    return tokens, targets, weights
