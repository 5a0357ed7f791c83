"""Deterministic synthetic corpus with ground-truth expert relevance.

Each sample composes one task per group: a sequence transform (function
group), a payload token range (domain group), and a terminator convention
(style group). Because relevance labels are known by construction, routing
behavior can be scored exactly instead of eyeballed.

Token map: BOS=0, SEP=1, EOS=2; the function and style tasks' instruction
tokens and the domain tasks' payload ranges are those of ``TASKS``; the
remaining vocabulary is unused.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .numerics import derive_rng, write_text

BOS, SEP, EOS = 0, 1, 2
MAX_INSTRUCTION_LEN = 4  # BOS, two function tokens and a style token


class Task(NamedTuple):
    group: str
    token: int | None = None  # instruction token; a domain task has none
    payload: range | None = None  # payload ids of a domain task
    transform: Callable[[list[int]], list[int]] | None = None


# The one statement of the benchmark's task taxonomy. A function task's
# transform maps the payload to the target body, a style task's maps the
# original payload to the terminator. A domain task has no instruction token:
# the payload itself is the evidence. Within a group, ``generate`` draws in
# table order.
TASKS = {
    "identity": Task("function", token=3, transform=list),
    "reverse": Task("function", token=4, transform=lambda p: p[::-1]),
    "increment": Task("function", token=5, transform=lambda p: [
        PAYLOAD_IDS.start + (t - PAYLOAD_IDS.start + 1) % len(PAYLOAD_IDS) for t in p]),
    "low_range": Task("domain", payload=range(8, 24)),
    "high_range": Task("domain", payload=range(24, 40)),
    "plain_end": Task("style", token=6, transform=lambda p: [EOS]),
    "echo_first": Task("style", token=7, transform=lambda p: [p[0], EOS]),
}
GROUPS = {g: tuple(n for n, t in TASKS.items() if t.group == g)
          for g in dict.fromkeys(t.group for t in TASKS.values())}
PAYLOAD_IDS = range(min(TASKS[d].payload.start for d in GROUPS["domain"]),
                    max(TASKS[d].payload.stop for d in GROUPS["domain"]))


def check_groups(groups) -> None:
    """Every configured group must be a group of ``TASKS`` and hold only its
    tasks: the generator labels relevance by those names."""
    for g in groups:
        if g.name not in GROUPS:
            raise ValueError(f"group {g.name!r} is not a task group; the groups are {list(GROUPS)}")
        for e in g.experts:
            _task(e, g.name)


def _task(name: str, group: str) -> Task:
    task = TASKS.get(name)
    if task is None or task.group != group:
        raise ValueError(f"unknown {group} task {name!r}; the {group} tasks are "
                         f"{list(GROUPS[group])}")
    return task


@dataclass
class TaskCatalog:
    """Payload length bounds of the generated samples (``taskgen.payload_*``)."""

    payload_min_len: int
    payload_max_len: int

    def max_sequence_len(self) -> int:
        """Longest sample ``generate`` can produce: the longest instruction,
        the payload, SEP, the transformed payload and a two-token terminator."""
        return MAX_INSTRUCTION_LEN + 2 * self.payload_max_len + 3


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


def make_target(function_tasks: list[str], style: str, payload: list[int]) -> list[int]:
    out = list(payload)
    for name in function_tasks:
        out = _task(name, "function").transform(out)
    return out + _task(style, "style").transform(payload)


def make_sample(function_tasks: list[str], domain: str, style: str,
                payload: list[int]) -> Sample:
    ids = _task(domain, "domain").payload
    if any(t not in ids for t in payload):
        raise ValueError(f"payload leaves the {domain} range")
    target = make_target(function_tasks, style, payload)
    picked = [*function_tasks, domain, style]
    return Sample(
        instruction_tokens=[BOS] + [TASKS[n].token for n in picked if TASKS[n].token is not None],
        input_tokens=list(payload),
        target_tokens=target,
        relevant_experts={g: [n for n in picked if TASKS[n].group == g] for g in GROUPS},
    )


def generate(catalog: TaskCatalog, n: int, seed: int,
             multi_intent_fraction: float) -> list[Sample]:
    """Deterministic sample stream for (seed, n, fraction)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0.0 <= multi_intent_fraction <= 1.0:
        raise ValueError(f"multi_intent_fraction must lie in [0, 1], got {multi_intent_fraction}")
    rng = derive_rng(seed, "taskgen")
    functions, domains, styles = GROUPS["function"], GROUPS["domain"], GROUPS["style"]
    samples = []
    for _ in range(n):
        multi = bool(rng.random() < multi_intent_fraction)
        picks = rng.permutation(len(functions))[: 2 if multi else 1]
        fn_tasks = [functions[i] for i in picks]
        domain = domains[int(rng.integers(len(domains)))]
        style = styles[int(rng.integers(len(styles)))]
        length = int(rng.integers(catalog.payload_min_len, catalog.payload_max_len + 1))
        ids = TASKS[domain].payload
        payload = [int(t) for t in rng.integers(ids.start, ids.stop, size=length)]
        samples.append(make_sample(fn_tasks, domain, style, payload))
    return samples


def per_task_split(samples: list[Sample], expert_ids) -> dict[str, list[Sample]]:
    """The samples relevant to each of ``expert_ids``, in that order; any empty
    bucket is a ValueError naming every empty one."""
    buckets: dict[str, list[Sample]] = {e: [] for e in expert_ids}
    for s in samples:
        for ids in s.relevant_experts.values():
            for task in ids:
                if task in buckets:
                    buckets[task].append(s)
    empty = [e for e, bucket in buckets.items() if not bucket]
    if empty:
        raise ValueError(f"empty data bucket for task(s) {empty}")
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
    """The sample of one JSONL record; a missing key, a value of the wrong
    JSON type or a relevance label outside ``TASKS`` is a ValueError. Each
    group of ``TASKS`` must be labelled with at least one of its tasks."""
    rel = doc.get("relevant_experts") if isinstance(doc, dict) else None
    if not isinstance(rel, dict):
        raise ValueError("a sample must be a JSON object with an object 'relevant_experts'")
    if set(rel) != set(GROUPS):
        raise ValueError(f"'relevant_experts' must label the groups {list(GROUPS)}, "
                         f"got {list(rel)}")
    for group in GROUPS:
        if not _list_of(rel, group, str):
            raise ValueError(f"'relevant_experts' names no {group} task")
        for name in rel[group]:
            _task(name, group)
    return Sample(
        instruction_tokens=_list_of(doc, "instruction", int),
        input_tokens=_list_of(doc, "input", int),
        target_tokens=_list_of(doc, "target", int),
        relevant_experts=rel,
    )


def write_jsonl(path: str | Path, samples: list[Sample]) -> None:
    write_text(path, "".join(json.dumps(sample_to_dict(s), separators=(",", ":")) + "\n"
                             for s in samples))


def read_jsonl(path: str | Path) -> list[Sample]:
    """The samples of a JSONL file (see ``parse_jsonl``)."""
    return parse_jsonl(Path(path).read_bytes(), path)


def parse_jsonl(raw: bytes, source: str | Path) -> list[Sample]:
    """The samples of JSONL bytes; a line that is not a UTF-8 sample is a
    ValueError naming ``source`` and the line."""
    samples = []
    for n, line in enumerate(raw.split(b"\n"), 1):
        if line.strip():
            try:
                samples.append(sample_from_dict(json.loads(line.decode("utf-8"))))
            except ValueError as exc:
                raise ValueError(f"{source}: line {n}: {exc}") from None
    return samples


def batch_arrays(samples: list[Sample]):
    """The one batch layout: (tokens [B, T], rows, targets).

    ``tokens`` are the right-padded sequences; padding reuses BOS, and causal
    masking keeps it invisible to scored positions. ``rows`` are the sorted
    flat indices ``b*T + p`` of every sample's ``scored_positions``, and
    ``targets`` the next token at each, ``tokens.reshape(-1)[rows + 1]``.
    """
    seqs = [s.tokens() for s in samples]
    T = max(map(len, seqs))
    tokens = np.full((len(seqs), T), BOS, dtype=np.int64)
    for b, seq in enumerate(seqs):
        tokens[b, : len(seq)] = seq
    rows = np.array([b * T + p for b, s in enumerate(samples) for p in s.scored_positions()],
                    dtype=np.int64)
    return tokens, rows, tokens.reshape(-1)[rows + 1]
