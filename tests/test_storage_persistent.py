"""Durability battery for the persistent mmap storage tier.

The storage tier's contract is *bit-identity under restart*: a database
booted from disk must be indistinguishable — same ranked ids, bit-identical
scores and column arrays — from the in-RAM database that saved it, across
every serving layer (serial, sharded, rpc, cluster).  On top of that the
suite pins the failure modes durability introduces: a torn write (flipped
byte, truncated file) is a typed :class:`~repro.errors.StorageError` and a
clean re-save recovers the directory; a catalog whose versions disagree
with the snapshot files on disk is refused as version skew; read-only mmap
views survive concurrent ingest because saves copy-on-bump into fresh
generation files; and a shard node restarted over a warm local catalog
hydrates itself without a single ``OP_HYDRATE`` frame on the wire.

Set ``REPRO_STORAGE_DIR`` to relocate the scratch directories (the CI
matrix points it at tmpfs and at real disk).
"""

from __future__ import annotations

import hashlib
import os
import sqlite3
import tempfile

import numpy as np
import pytest

from repro.core.database import SubjectiveDatabase
from repro.core.markers import MarkerSummary
from repro.errors import CatalogError, StorageError
from repro.core import SubjectiveQueryProcessor
from repro.serving import ClusterQueryEngine, SubjectiveQueryEngine
from repro.storage import (
    PersistentColumnarStore,
    StoreReader,
    derive_attribute_columns,
    generate_synthetic_store,
)
from repro.storage.catalog import CATALOG_FILENAME
from repro.storage.synthetic import SYNTHETIC_ATTRIBUTE
from repro.testing import build_synthetic_columnar_database, corrupt_frame

QUERIES = [
    'select * from Entities where "word001 word003" limit 5',
    'select * from Entities where city = \'london\' and "word017 word018" limit 6',
    'select * from Entities where not "word002" or "word019" limit 4',
]

COLUMN_ARRAYS = (
    "marker_sentiments",
    "fractions",
    "average_sentiments",
    "totals",
    "unmatched",
    "overall_sentiments",
    "centroids_unit",
    "name_units",
)


@pytest.fixture()
def storage_dir(tmp_path):
    """A scratch storage directory, relocatable via ``REPRO_STORAGE_DIR``."""
    base = os.environ.get("REPRO_STORAGE_DIR")
    if base:
        os.makedirs(base, exist_ok=True)
        return tempfile.mkdtemp(prefix="repro-storage-", dir=base)
    return str(tmp_path / "store")


@pytest.fixture(scope="module")
def small_database():
    return build_synthetic_columnar_database(
        num_entities=72, markers_per_attribute=20, dimension=16, seed=11
    )


def saved_copy(database: SubjectiveDatabase, directory: str) -> SubjectiveDatabase:
    database.save(directory)
    return SubjectiveDatabase.open(directory)


def assert_same_result(expected, actual, context: str = "") -> None:
    """Exact equality of two query results: ids, scores, degrees."""
    assert expected.entity_ids == actual.entity_ids, context
    for left, right in zip(expected.entities, actual.entities):
        assert left.score == right.score, context
        assert left.predicate_degrees == right.predicate_degrees, context
        assert left.row == right.row, context


def tree_digest(directory: str) -> dict[str, str]:
    """sha256 of every column/model file, keyed by relative path."""
    digests: dict[str, str] = {}
    for subdir in ("columns", "models"):
        root = os.path.join(directory, subdir)
        if not os.path.isdir(root):
            continue
        for name in sorted(os.listdir(root)):
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                digests[f"{subdir}/{name}"] = hashlib.sha256(handle.read()).hexdigest()
    return digests


# --------------------------------------------------------------------------
# Differential bit-identity across serving layers
# --------------------------------------------------------------------------

class TestDiskBootBitIdentity:
    def test_column_arrays_bit_identical(self, small_database, storage_dir):
        booted = saved_copy(small_database, storage_dir)
        ram_store = small_database.columnar_store()
        disk_store = booted.columnar_store()
        assert isinstance(disk_store, PersistentColumnarStore)
        for attribute in ("quality", "service"):
            ram = ram_store.columns(attribute)
            disk = disk_store.columns(attribute)
            assert disk is not None
            assert ram.entity_ids == disk.entity_ids
            assert ram.row_of == disk.row_of
            for name in COLUMN_ARRAYS:
                np.testing.assert_array_equal(
                    getattr(ram, name), getattr(disk, name), err_msg=f"{attribute}.{name}"
                )
        assert disk_store.mmap_serves == 2

    def test_serial_engine_equivalence(self, small_database, storage_dir):
        booted = saved_copy(small_database, storage_dir)
        baseline = SubjectiveQueryProcessor(small_database)
        engine = SubjectiveQueryEngine(database=booted)
        for sql in QUERIES:
            assert_same_result(baseline.execute(sql), engine.execute(sql), context=sql)

    def test_unpruned_engine_equivalence(self, small_database, storage_dir):
        booted = saved_copy(small_database, storage_dir)
        baseline = SubjectiveQueryProcessor(small_database)
        engine = SubjectiveQueryEngine(database=booted, prune_topk=False)
        for sql in QUERIES:
            assert_same_result(baseline.execute(sql), engine.execute(sql), context=sql)

    def test_cluster_engine_more_slices_equivalence(self, small_database, storage_dir):
        booted = saved_copy(small_database, storage_dir)
        baseline = SubjectiveQueryProcessor(small_database)
        with ClusterQueryEngine(database=booted, num_nodes=2, num_shards=5) as engine:
            for sql in QUERIES:
                assert_same_result(baseline.execute(sql), engine.execute(sql), context=sql)

    def test_cluster_engine_equivalence(self, small_database, storage_dir):
        booted = saved_copy(small_database, storage_dir)
        baseline = SubjectiveQueryEngine(database=small_database)
        engine = ClusterQueryEngine(database=booted, num_nodes=2)
        try:
            for sql in QUERIES:
                assert_same_result(baseline.execute(sql), engine.execute(sql), context=sql)
        finally:
            engine.close()

    def test_lazy_summaries_match_eager(self, small_database, storage_dir):
        booted = saved_copy(small_database, storage_dir)
        for entity_id in ("e00000", "e00035", "e00071"):
            for attribute in ("quality", "service"):
                original = small_database.marker_summary(entity_id, attribute)
                restored = booted.marker_summary(entity_id, attribute)
                assert restored is not None
                assert restored._counts == original._counts
                assert restored._sentiment_sums == pytest.approx(original._sentiment_sums)
                assert restored.num_reviews == original.num_reviews


# --------------------------------------------------------------------------
# Warm node restart: no OP_HYDRATE frames on the wire
# --------------------------------------------------------------------------

class TestWarmNodeRestart:
    def test_cluster_boot_from_local_store_ships_no_hydrate_frames(
        self, small_database, storage_dir
    ):
        booted = saved_copy(small_database, storage_dir)
        baseline = SubjectiveQueryEngine(database=small_database)
        engine = ClusterQueryEngine(database=booted, num_nodes=2, data_dir=storage_dir)
        try:
            for sql in QUERIES:
                assert_same_result(baseline.execute(sql), engine.execute(sql), context=sql)
            store = engine.sharded_store
            # The frame count: zero hydrate frames shipped, every slice
            # satisfied by the nodes' own mapped column files.
            assert store.hydrations == 0
            assert store.local_hydrations > 0
            for stats in store.node_stats():
                assert stats["hydrations"] == 0
                assert stats["local_store"] is True
                assert stats["local_hydrations"] > 0
        finally:
            engine.close()

    def test_hello_ack_advertises_warm_store(self, small_database, storage_dir):
        from repro.serving.cluster import ShardNodeServer
        from repro.serving.protocol import (
            PROTOCOL_VERSION,
            encode_hello,
            read_hello_ack,
        )

        booted = saved_copy(small_database, storage_dir)
        node = ShardNodeServer(data_dir=storage_dir)
        response, accepted = node._handle_hello(
            encode_hello(PROTOCOL_VERSION, booted.data_version)
        )
        assert accepted
        _, data_version, _, local_store = read_hello_ack(response)
        assert local_store is True
        assert data_version == booted.data_version

    def test_stale_local_store_downgrades_to_wire_hydration(
        self, small_database, storage_dir
    ):
        from repro.serving.cluster import ShardNodeServer

        saved_copy(small_database, storage_dir)
        node = ShardNodeServer(data_dir=storage_dir)
        assert node._local_store_fresh
        node.data_version += 1  # an invalidate moved the node past the catalog
        assert not node._local_store_fresh
        assert node._local_slice("quality", 0, 0, 10) is None

    def test_missing_data_dir_is_a_cold_start_not_a_refusal(self, storage_dir):
        from repro.serving.cluster import ShardNodeServer

        node = ShardNodeServer(data_dir=os.path.join(storage_dir, "nowhere"))
        assert node.data_version == 0
        assert not node._local_store_fresh


# --------------------------------------------------------------------------
# Torn writes and version skew
# --------------------------------------------------------------------------

class TestTornWriteRecovery:
    def _column_file(self, directory: str) -> str:
        names = sorted(os.listdir(os.path.join(directory, "columns")))
        assert names
        return os.path.join(directory, "columns", names[0])

    def test_flipped_byte_is_a_typed_error_and_resave_recovers(
        self, small_database, storage_dir
    ):
        small_database.save(storage_dir)
        path = self._column_file(storage_dir)
        with open(path, "rb") as handle:
            payload = handle.read()
        # Flip one byte mid-body — past the header, inside the section data.
        with open(path, "wb") as handle:
            handle.write(corrupt_frame(payload, len(payload) // 2))
        with pytest.raises(StorageError):
            StoreReader(storage_dir).verify()
        with pytest.raises(StorageError):
            SubjectiveDatabase.open(storage_dir)
        # Clean rebuild: re-saving from the live database restores the
        # directory (the corrupt generation is simply rewritten).
        small_database.save(storage_dir)
        booted = SubjectiveDatabase.open(storage_dir)
        assert booted.data_version == small_database.data_version

    def test_truncated_column_file_is_a_typed_error(self, small_database, storage_dir):
        small_database.save(storage_dir)
        path = self._column_file(storage_dir)
        size = os.path.getsize(path)
        with open(path, "rb+") as handle:
            handle.truncate(size // 2)
        with pytest.raises(StorageError):
            StoreReader(storage_dir).verify()

    def test_corrupt_catalog_is_a_typed_error(self, small_database, storage_dir):
        small_database.save(storage_dir)
        path = os.path.join(storage_dir, CATALOG_FILENAME)
        with open(path, "rb") as handle:
            payload = handle.read()
        with open(path, "wb") as handle:
            # Break the SQLite header magic: the catalog is unreadable.
            handle.write(corrupt_frame(payload, 0, flip=0xFF))
        with pytest.raises(StorageError):
            SubjectiveDatabase.open(storage_dir)

    def test_stale_catalog_version_skew_is_detected(self, small_database, storage_dir):
        small_database.save(storage_dir)
        connection = sqlite3.connect(os.path.join(storage_dir, CATALOG_FILENAME))
        try:
            connection.execute("UPDATE attributes SET version = version + 1")
            connection.commit()
        finally:
            connection.close()
        with pytest.raises(CatalogError, match="version"):
            StoreReader(storage_dir).verify()


# --------------------------------------------------------------------------
# Copy-on-bump: mmap views survive concurrent ingest
# --------------------------------------------------------------------------

class TestCopyOnBump:
    def test_open_views_survive_ingest_and_resave(self, storage_dir):
        database = build_synthetic_columnar_database(
            num_entities=40, markers_per_attribute=8, dimension=8, seed=5
        )
        booted = saved_copy(database, storage_dir)
        before_files = set(os.listdir(os.path.join(storage_dir, "columns")))
        columns = booted.columnar_store().columns("quality")
        frozen = columns.fractions.copy()

        # Concurrent ingest on the booted database: a replaced summary
        # bumps the data version, and the next save must write a *new*
        # generation file rather than touching the one we hold mapped.
        summary = MarkerSummary("quality", list(booted.schema.subjective("quality").markers))
        summary.add_phrase("word000", sentiment=1.0)
        booted.store_summary("e00000", summary)
        booted.save(storage_dir)

        after_files = set(os.listdir(os.path.join(storage_dir, "columns")))
        assert before_files < after_files  # old generation left in place
        np.testing.assert_array_equal(columns.fractions, frozen)

        reopened = SubjectiveDatabase.open(storage_dir)
        refreshed = reopened.marker_summary("e00000", "quality")
        assert refreshed._counts == summary._counts

    def test_stale_reader_falls_back_to_in_ram_build(self, storage_dir):
        database = build_synthetic_columnar_database(
            num_entities=30, markers_per_attribute=8, dimension=8, seed=6
        )
        booted = saved_copy(database, storage_dir)
        store = booted.columnar_store()
        assert store.columns("quality") is not None
        assert store.mmap_serves == 1
        summary = MarkerSummary("quality", list(booted.schema.subjective("quality").markers))
        summary.add_phrase("word001", sentiment=-0.5)
        booted.store_summary("e00001", summary)  # version bump → reader is stale
        fresh_store = booted.columnar_store()
        columns = fresh_store.columns("quality")
        assert columns is not None
        assert fresh_store.mmap_serves == 0  # served by the in-RAM rebuild
        row = columns.row_of["e00001"]
        assert columns.totals[row] == 1.0


# --------------------------------------------------------------------------
# Byte stability, irregular summaries, the synthetic generator
# --------------------------------------------------------------------------

class TestSaveStability:
    def test_save_open_save_is_byte_stable(self, small_database, storage_dir):
        booted = saved_copy(small_database, storage_dir)
        before = tree_digest(storage_dir)
        booted.save(storage_dir)
        assert tree_digest(storage_dir) == before

    def test_irregular_summary_round_trips_through_blob(self, storage_dir):
        database = build_synthetic_columnar_database(
            num_entities=24, markers_per_attribute=6, dimension=8, seed=9
        )
        markers = list(database.schema.subjective("quality").markers)
        odd = MarkerSummary("quality", markers, embedding_dimension=3)  # != store's 8
        odd.add_phrase("word000", sentiment=0.25, vector=np.ones(3))
        database.store_summary("e00002", odd)
        booted = saved_copy(database, storage_dir)
        restored = booted.marker_summary("e00002", "quality")
        assert restored._dimension == 3
        assert restored._counts == odd._counts
        restored_vector = restored._vector_sums["word000"]
        np.testing.assert_array_equal(restored_vector, np.ones(3))


class TestSyntheticStore:
    def test_generated_store_boots_and_rederives(self, storage_dir):
        generate_synthetic_store(storage_dir, num_entities=300, num_markers=6, dimension=4)
        reader = StoreReader(storage_dir).verify()
        raw = reader.raw(SYNTHETIC_ATTRIBUTE)
        derived = derive_attribute_columns(raw)
        columns = reader.columns(SYNTHETIC_ATTRIBUTE)
        np.testing.assert_array_equal(columns.fractions, derived["fractions"])
        np.testing.assert_array_equal(
            columns.overall_sentiments, derived["overall_sentiments"]
        )
        database = SubjectiveDatabase.open(storage_dir)
        assert len(database.entities()) == 300
        summary = database.marker_summary("e0000007", SYNTHETIC_ATTRIBUTE)
        assert summary is not None
        assert summary.num_phrases == raw.num_phrases[7]
