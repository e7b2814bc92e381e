"""File formats: JSON tensors with 1-based sparse entries, plain-text vectors,
and the metadata sidecar written next to generated instances."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .problems import ProblemInstance
from .tensor_core import SparseTensor, Tensor, cheaper_storage, entries


def write_tensor(path, T: Tensor) -> None:
    """Write T as JSON: its order, dim and `entries` records."""
    doc = {"order": T.order, "dim": T.dim, "entries": entries(T)}
    Path(path).write_text(json.dumps(doc))


def read_tensor(path) -> Tensor:
    """Read a tensor file through `SparseTensor.from_entries`, which checks
    it, into the storage `cheaper_storage` picks, as a generator does.  The
    parsed records are popped from the document and handed over, so they
    are freed as soon as from_entries has their float table.  Too deep a
    document, or an integer too large for a float, is malformed too."""
    try:
        doc = json.loads(Path(path).read_text())
        return cheaper_storage(SparseTensor.from_entries(doc["order"], doc["dim"], doc.pop("entries")))
    except KeyError as exc:
        raise ValueError(f"malformed tensor file: missing key {exc.args[0]!r}") from None
    except (TypeError, OverflowError, RecursionError) as exc:  # TypeError: not an object, or a non-number field
        raise ValueError(f"malformed tensor file: {exc}") from None


def write_vector(path, v) -> None:
    Path(path).write_text("".join(f"{x:.17g}\n" for x in np.asarray(v, dtype=np.float64)))


def read_vector(path) -> np.ndarray:
    tokens = Path(path).read_text().split()
    return np.array([float(t) for t in tokens])


def write_instance(prefix, inst: ProblemInstance) -> dict[str, Path]:
    prefix = Path(prefix)
    paths = {
        "tensor": prefix.with_name(prefix.name + ".tensor.json"),
        "rhs": prefix.with_name(prefix.name + ".rhs.txt"),
        "meta": prefix.with_name(prefix.name + ".meta.json"),
    }
    write_tensor(paths["tensor"], inst.tensor)
    write_vector(paths["rhs"], inst.rhs)
    meta = {
        "problem": inst.problem,
        "n": inst.n,
        "seed": inst.seed,
    }
    if inst.known_solutions:
        meta["known_solutions"] = [list(map(float, s)) for s in inst.known_solutions]
    paths["meta"].write_text(json.dumps(meta, indent=2))
    return paths
