"""Epoch-partitioned checkpointing: resumable output + lineage + metrics.

Layout under ``<root>/``:

    epoch=00000/
        frontier/    parquet — the budgeted frontier (selected + deferred)
        parsed/      parquet — documents ⊕ manifest rows (record_kind col)
        manifest/    parquet — manifest after the download stage
        lineage.json           config hash, input counts, code version
        metrics.json           pages fetched, errors, dedup hits, bytes, per-seed counts
        _SUCCESS               written LAST — epoch is complete iff present

Resume = find the latest ``_SUCCESS`` epoch, rebuild the URL-seen
shards from every complete epoch's fetched URLs, and continue from that
epoch's deferred frontier rows ∪ the links it discovered (read back
from ``frontier/selected=false`` and ``parsed/record_kind=link``). Blob
writes stay idempotent via deterministic ``out_name`` + skip-if-exists,
mirroring the reference's only resume mechanism
(downloader.go:267-273).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, is_dataclass

from ray.data import Dataset


class CheckpointManager:
    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def epoch_dir(self, epoch: int) -> str:
        return os.path.join(self.root, f"epoch={epoch:05d}")

    def path(self, epoch: int, part: str) -> str:
        return os.path.join(self.epoch_dir(epoch), part)

    def is_complete(self, epoch: int) -> bool:
        return os.path.exists(os.path.join(self.epoch_dir(epoch), "_SUCCESS"))

    def latest_complete(self) -> int | None:
        latest = None
        if not os.path.isdir(self.root):
            return None
        for name in os.listdir(self.root):
            if name.startswith("epoch=") and self.is_complete(int(name.split("=")[1])):
                e = int(name.split("=")[1])
                latest = e if latest is None else max(latest, e)
        return latest

    def write_part(self, epoch: int, part: str, ds: Dataset, **write_kwargs) -> str:
        """Write one epoch part atomically-enough: stale files from a
        previous (killed) attempt are cleared first so a re-run never
        mixes generations in one directory."""
        import shutil

        out = self.path(epoch, part)
        if os.path.isdir(out):
            shutil.rmtree(out)
        marker = os.path.join(self.epoch_dir(epoch), "_SUCCESS")
        if os.path.exists(marker):
            os.remove(marker)  # epoch is being rewritten → no longer complete
        os.makedirs(out, exist_ok=True)
        ds.write_parquet(out, **write_kwargs)
        return out

    def clear(self) -> None:
        """Remove every epoch dir (fresh, non-resume run)."""
        import shutil

        for name in os.listdir(self.root):
            if name.startswith("epoch="):
                shutil.rmtree(os.path.join(self.root, name))

    def write_json(self, epoch: int, name: str, payload: dict) -> None:
        os.makedirs(self.epoch_dir(epoch), exist_ok=True)
        with open(os.path.join(self.epoch_dir(epoch), name), "w") as f:
            json.dump(payload, f, indent=2, default=str)

    def read_json(self, epoch: int, name: str) -> dict:
        with open(os.path.join(self.epoch_dir(epoch), name)) as f:
            return json.load(f)

    def mark_complete(self, epoch: int) -> None:
        with open(os.path.join(self.epoch_dir(epoch), "_SUCCESS"), "w") as f:
            f.write("ok\n")


def config_hash(cfg) -> str:
    """Stable hash of the crawl config for lineage records."""
    if is_dataclass(cfg):
        payload = asdict(cfg)
    else:
        payload = dict(cfg.__dict__) if hasattr(cfg, "__dict__") else dict(cfg)
    payload.pop("pages", None)  # mapping-transport bodies aren't lineage
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
