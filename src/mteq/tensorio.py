"""File formats: JSON tensors with 1-based sparse entries, plain-text vectors,
and the metadata sidecar written next to generated instances."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .problems import ProblemInstance
from .tensor_core import SparseTensor, Tensor, cheaper_storage


def write_tensor(path, T: Tensor) -> None:
    """Write the stored entries of a COO tensor, or the nonzeros of a dense one."""
    if isinstance(T, SparseTensor):
        idx, vals = T.idx, T.vals
    else:
        nonzero = T.array != 0.0
        idx, vals = np.argwhere(nonzero), T.array[nonzero]
    # One tuple per entry, built column-wise (json writes tuples as arrays).
    entries = list(zip(*(idx + 1).T.tolist(), vals.tolist()))
    doc = {"order": T.order, "dim": T.dim, "entries": entries}
    Path(path).write_text(json.dumps(doc))


def read_tensor(path) -> Tensor:
    """Read a tensor file into COO storage when its listed entries are few
    enough for that to be the cheaper storage to contract, dense otherwise."""
    doc = json.loads(Path(path).read_text())
    coo = SparseTensor.from_entries(int(doc["order"]), int(doc["dim"]), doc["entries"])
    return cheaper_storage(coo)


def write_vector(path, v) -> None:
    Path(path).write_text("".join(f"{x:.17g}\n" for x in np.asarray(v, dtype=np.float64)))


def read_vector(path) -> np.ndarray:
    tokens = Path(path).read_text().split()
    return np.array([float(t) for t in tokens])


def instance_paths(prefix) -> dict[str, Path]:
    prefix = Path(prefix)
    return {
        "tensor": prefix.with_name(prefix.name + ".tensor.json"),
        "rhs": prefix.with_name(prefix.name + ".rhs.txt"),
        "meta": prefix.with_name(prefix.name + ".meta.json"),
    }


def write_instance(prefix, inst: ProblemInstance, scale: float | None = None) -> dict[str, Path]:
    paths = instance_paths(prefix)
    write_tensor(paths["tensor"], inst.tensor)
    write_vector(paths["rhs"], inst.rhs)
    meta = {
        "problem": inst.problem,
        "n": inst.n,
        "seed": inst.seed,
        "scale": scale,
    }
    if inst.known_solutions:
        meta["known_solutions"] = [list(map(float, s)) for s in inst.known_solutions]
    paths["meta"].write_text(json.dumps(meta, indent=2))
    return paths
