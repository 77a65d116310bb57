"""Shared test fixtures. Ray is initialised ONCE per pytest session."""

from __future__ import annotations

import os
import sys

import pytest

# this checkout's root, importable regardless of cwd
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    yield ray
    ray.shutdown()


@pytest.fixture(scope="session")
def smoke_table():
    from multimedia_indexing_ray.fixtures import generate_transcripts

    return generate_transcripts("smoke")


@pytest.fixture(scope="session")
def smoke_dir(tmp_path_factory):
    from multimedia_indexing_ray.fixtures import write_transcripts

    d = tmp_path_factory.mktemp("transcripts_smoke")
    write_transcripts(str(d), "smoke")
    return str(d)
