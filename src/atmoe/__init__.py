"""Task-adapter mixture with layer-wise grouped routing on a tiny frozen
transformer, plus its three-stage training pipeline and synthetic benchmark."""

from .checkpoint import (CheckpointError, LoadedCheckpoint, load_checkpoint,
                         save_checkpoint)
from .config import Config, ConfigError, load_config, save_config
from .model import ToyTransformer
from .router import GroupSpec, build_groups, routing, slot_mask
from .taskgen import Sample, TaskCatalog, generate, per_task_split, read_jsonl, write_jsonl
from .training import (Adam, EvalReport, StageOrderError, TrainReport, evaluate,
                       grad_check, train_expert, train_premerged, train_router)

__version__ = "0.1.0"

__all__ = [
    "Adam", "CheckpointError", "Config", "ConfigError", "EvalReport", "GroupSpec",
    "LoadedCheckpoint", "Sample", "StageOrderError", "TaskCatalog", "ToyTransformer",
    "TrainReport", "build_groups", "evaluate", "generate", "grad_check", "load_checkpoint",
    "load_config", "per_task_split", "read_jsonl", "routing", "save_checkpoint",
    "save_config", "slot_mask", "train_expert", "train_premerged", "train_router",
    "write_jsonl",
]
