"""Tests for the video catalog."""

import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdn.catalog import (
    DEFAULT_NUM_SHARDS,
    VIDEO_ID_LENGTH,
    Resolution,
    Video,
    VideoCatalog,
    encode_video_id,
    hostname_for_video,
    shard_hostname,
    shard_of,
)
from repro.sim.scenarios import PAPER_SCENARIOS, build_world

_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"
_ID_SPACE = 64 ** VIDEO_ID_LENGTH


def reference_video_id(index):
    """The digit-by-digit encoder the base64 one must match."""
    scrambled = (index * 6364136223846793005 + 1442695040888963407) % _ID_SPACE
    chars = []
    for _ in range(VIDEO_ID_LENGTH):
        scrambled, digit = divmod(scrambled, 64)
        chars.append(_ALPHABET[digit])
    return "".join(chars)


class EagerCatalog:
    """Reference catalog: every video built up front, same RNG draws."""

    def __init__(self, size, zipf_alpha=1.0, seed=0, num_featured_days=7,
                 featured_share=0.05):
        rng = np.random.default_rng(seed)
        shift = max(4.0, size / 100.0)
        weights = (np.arange(1, size + 1, dtype=np.float64) + shift) ** (-zipf_alpha)
        self.cumulative = np.cumsum(weights)
        durations = np.clip(
            rng.lognormal(mean=math.log(120.0), sigma=0.7, size=size), 20.0, 2700.0
        )
        self.videos = [
            Video(reference_video_id(i), i, float(durations[i]), float(weights[i]))
            for i in range(size)
        ]
        band_lo, band_hi = size // 3, max(size // 3 + num_featured_days, size // 2)
        picks = rng.choice(np.arange(band_lo, band_hi), size=num_featured_days,
                           replace=False)
        self.featured = {day: self.videos[int(i)] for day, i in enumerate(sorted(picks))}
        self.featured_share = featured_share

    def sample(self, u, t_s=None):
        if t_s is not None:
            featured = self.featured.get(int(t_s // 86400.0))
            if featured is not None:
                if u < self.featured_share:
                    return featured
                u = (u - self.featured_share) / (1.0 - self.featured_share)
        target = u * float(self.cumulative[-1])
        index = int(np.searchsorted(self.cumulative, target, side="right"))
        return self.videos[min(index, len(self.videos) - 1)]


@pytest.fixture(scope="module")
def catalog():
    return VideoCatalog(size=5000, seed=3, featured_share=0.1)


class TestVideoIds:
    @given(st.integers(min_value=0, max_value=10_000_000))
    @settings(max_examples=200)
    def test_id_shape(self, index):
        vid = encode_video_id(index)
        assert len(vid) == 11

    def test_ids_unique_over_large_range(self):
        ids = {encode_video_id(i) for i in range(50_000)}
        assert len(ids) == 50_000

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_video_id(-1)

    def test_shard_stable_and_in_range(self):
        vid = encode_video_id(12345)
        s1 = shard_of(vid)
        s2 = shard_of(vid)
        assert s1 == s2
        assert 0 <= s1 < DEFAULT_NUM_SHARDS

    def test_hostname_embeds_shard(self):
        vid = encode_video_id(77)
        host = hostname_for_video(vid)
        assert host.startswith(f"v{shard_of(vid)}.")
        assert host == shard_hostname(shard_of(vid))

    @given(st.integers(min_value=0, max_value=_ID_SPACE - 1))
    @settings(max_examples=500)
    def test_matches_reference_encoder(self, index):
        assert encode_video_id(index) == reference_video_id(index)

    @pytest.mark.parametrize(
        "index", [0, 1, 63, 64, 2**32, 2**63, _ID_SPACE - 2, _ID_SPACE - 1,
                  _ID_SPACE, 3 * _ID_SPACE + 5, 10**30],
    )
    def test_matches_reference_encoder_at_edges(self, index):
        assert encode_video_id(index) == reference_video_id(index)

    def test_matches_reference_encoder_on_catalog_range(self):
        for index in range(20_000):
            assert encode_video_id(index) == reference_video_id(index)


class TestResolutions:
    def test_bitrates_monotone(self):
        rates = [r.bitrate_kbps for r in
                 (Resolution.R240, Resolution.R360, Resolution.R480, Resolution.R720)]
        assert rates == sorted(rates)

    def test_labels(self):
        assert Resolution.R360.label == "360p"

    def test_size_scales_with_resolution(self, catalog):
        video = catalog.by_rank(0)
        assert video.size_bytes(Resolution.R720) > video.size_bytes(Resolution.R240)

    def test_size_formula(self):
        video = Video(video_id="x" * 11, rank=0, duration_s=100.0, weight=1.0)
        assert video.size_bytes(Resolution.R240) == int(100 * 300 * 1000 / 8)


class TestCatalog:
    def test_size_and_lookup(self, catalog):
        assert len(catalog) == 5000
        video = catalog.by_rank(17)
        assert catalog.get(video.video_id) is video

    def test_unknown_id_raises(self, catalog):
        with pytest.raises(KeyError):
            catalog.get("nonexistent!")

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            VideoCatalog(size=5)

    def test_durations_clipped(self, catalog):
        for video in catalog:
            assert 20.0 <= video.duration_s <= 2700.0

    def test_weights_decrease_with_rank(self, catalog):
        weights = [catalog.by_rank(r).weight for r in (0, 10, 100, 1000)]
        assert weights == sorted(weights, reverse=True)

    def test_sampling_respects_popularity(self, catalog):
        rng = random.Random(0)
        head_hits = sum(
            1 for _ in range(4000) if catalog.sample(rng.random()).rank < 500
        )
        tail_hits = sum(
            1 for _ in range(4000) if catalog.sample(rng.random()).rank >= 4500
        )
        assert head_hits > tail_hits * 3

    def test_head_not_dominated_by_single_video(self, catalog):
        """Zipf-Mandelbrot: no single video hogs the catalogue."""
        rng = random.Random(1)
        top = sum(1 for _ in range(5000) if catalog.sample(rng.random()).rank == 0)
        assert top / 5000 < 0.02

    def test_sample_u_validated(self, catalog):
        with pytest.raises(ValueError):
            catalog.sample(1.0)
        with pytest.raises(ValueError):
            catalog.sample(-0.1)

    def test_deterministic_across_instances(self):
        a = VideoCatalog(size=100, seed=9)
        b = VideoCatalog(size=100, seed=9)
        assert [v.video_id for v in a] == [v.video_id for v in b]
        assert [v.duration_s for v in a] == [v.duration_s for v in b]


class TestLazyCatalog:
    """The built-on-touch catalog against an eagerly built reference."""

    SIZE = 3000
    KW = dict(zipf_alpha=0.9, seed=11, num_featured_days=5, featured_share=0.2)

    @pytest.fixture()
    def pair(self):
        return VideoCatalog(size=self.SIZE, **self.KW), EagerCatalog(self.SIZE, **self.KW)

    def test_by_rank_matches(self, pair):
        lazy, eager = pair
        for rank in (0, 1, 17, self.SIZE // 2, self.SIZE - 1, -1, -self.SIZE):
            assert lazy.by_rank(rank) == eager.videos[rank]
        with pytest.raises(IndexError):
            lazy.by_rank(self.SIZE)

    def test_by_rank_is_cached(self, pair):
        lazy, _ = pair
        assert lazy.by_rank(42) is lazy.by_rank(42)
        assert lazy.by_rank(-1) is lazy.by_rank(self.SIZE - 1)

    @pytest.fixture(scope="class")
    def shared_pair(self):
        return VideoCatalog(size=self.SIZE, **self.KW), EagerCatalog(self.SIZE, **self.KW)

    @given(u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
           t_s=st.one_of(st.none(), st.floats(min_value=0.0, max_value=8 * 86400.0)))
    @settings(max_examples=300)
    def test_sample_matches(self, shared_pair, u, t_s):
        lazy, eager = shared_pair
        assert lazy.sample(u, t_s) == eager.sample(u, t_s)

    def test_featured_iteration_and_get_match(self, pair):
        lazy, eager = pair
        assert lazy.featured_videos == [eager.featured[d] for d in sorted(eager.featured)]
        assert list(lazy) == eager.videos
        for video in eager.videos[::97]:
            assert lazy.get(video.video_id) is lazy.by_rank(video.rank)
        with pytest.raises(KeyError):
            lazy.get("nonexistent!")

    def test_partly_built_catalog_pickles(self, pair):
        lazy, eager = pair
        rng = random.Random(5)
        touched = [lazy.sample(rng.random(), t_s=rng.uniform(0, 86400.0)) for _ in range(50)]
        copy = pickle.loads(pickle.dumps(lazy))
        assert [copy.by_rank(v.rank) for v in touched] == touched
        draws = [(rng.random(), rng.uniform(0, 6 * 86400.0)) for _ in range(200)]
        assert [copy.sample(u, t) for u, t in draws] == [lazy.sample(u, t) for u, t in draws]
        assert list(copy) == eager.videos
        assert copy.get(touched[0].video_id) is copy.by_rank(touched[0].rank)

    def test_build_world_builds_only_featured_videos(self):
        world = build_world(PAPER_SCENARIOS["EU1-ADSL"], scale=0.01, seed=7,
                            duration_s=86400.0)
        catalog = world.system.catalog
        built = sorted(v.rank for v in catalog._videos if v is not None)
        assert built == sorted(v.rank for v in catalog.featured_videos)
        assert len(built) < len(catalog)


class TestSamplerOracle:
    """The bisected list against ``np.searchsorted`` over the cumulative array.

    :class:`EagerCatalog` keeps the ndarray and searches it with numpy, so
    every case here compares the catalog with that reference.
    """

    SIZE = 3000
    KW = dict(zipf_alpha=0.9, seed=11, num_featured_days=5, featured_share=0.2)

    @pytest.fixture(scope="class")
    def pair(self):
        return VideoCatalog(size=self.SIZE, **self.KW), EagerCatalog(self.SIZE, **self.KW)

    @given(k=st.integers(min_value=0, max_value=SIZE - 1),
           t_s=st.sampled_from([None, 100.0, 3 * 86400.0 + 5.0, 30 * 86400.0]))
    @settings(max_examples=300)
    def test_targets_on_cumulative_entries(self, pair, k, t_s):
        lazy, eager = pair
        entry = float(eager.cumulative[k])
        u = entry / float(eager.cumulative[-1])
        if u < 1.0:
            assert lazy.sample(u, t_s) == eager.sample(u, t_s)

    def test_exact_ties_are_exercised(self, pair):
        # Most entries survive the u round trip exactly, so the property
        # above really compares ties (target == a cumulative entry).
        _, eager = pair
        total = float(eager.cumulative[-1])
        exact = sum((c / total) * total == c for c in eager.cumulative.tolist())
        assert exact > self.SIZE // 2

    @pytest.mark.parametrize("u", [0.0, 5e-324, math.nextafter(1.0, 0.0)])
    @pytest.mark.parametrize("t_s", [None, 100.0])
    def test_edges(self, pair, u, t_s):
        lazy, eager = pair
        assert lazy.sample(u, t_s) == eager.sample(u, t_s)

    @given(fraction=st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    @settings(max_examples=300)
    def test_cutoff_matches(self, pair, fraction):
        lazy, eager = pair
        target = fraction * float(eager.cumulative[-1])
        expected = int(np.searchsorted(eager.cumulative, target, side="left")) + 1
        assert lazy.popularity_cutoff_rank(fraction) == expected

    def test_cutoff_matches_on_cumulative_entries(self, pair):
        lazy, eager = pair
        total = float(eager.cumulative[-1])
        for entry in eager.cumulative.tolist():
            fraction = entry / total
            target = fraction * total
            expected = int(np.searchsorted(eager.cumulative, target, side="left")) + 1
            assert lazy.popularity_cutoff_rank(fraction) == expected


class TestFeatured:
    def test_one_feature_per_day(self, catalog):
        for day in range(7):
            assert catalog.featured_on_day(day) is not None
        assert catalog.featured_on_day(100) is None

    def test_features_from_tail(self, catalog):
        for video in catalog.featured_videos:
            assert video.rank >= len(catalog) // 3

    def test_feature_absorbs_share(self, catalog):
        featured = catalog.featured_on_day(0)
        rng = random.Random(2)
        in_window = sum(
            1 for _ in range(4000)
            if catalog.sample(rng.random(), t_s=100.0) is featured
        )
        assert 0.06 < in_window / 4000 < 0.15  # featured_share = 0.1

    def test_feature_silent_outside_window(self, catalog):
        featured = catalog.featured_on_day(0)
        rng = random.Random(3)
        out_window = sum(
            1 for _ in range(4000)
            if catalog.sample(rng.random(), t_s=3 * 86400.0) is featured
        )
        assert out_window / 4000 < 0.01

    def test_no_time_means_no_feature_boost(self, catalog):
        featured = catalog.featured_on_day(0)
        rng = random.Random(4)
        hits = sum(
            1 for _ in range(4000) if catalog.sample(rng.random()) is featured
        )
        assert hits / 4000 < 0.01


class TestCutoff:
    def test_cutoff_monotone(self, catalog):
        assert (
            catalog.popularity_cutoff_rank(0.3)
            <= catalog.popularity_cutoff_rank(0.6)
            <= catalog.popularity_cutoff_rank(0.9)
        )

    def test_cutoff_bounds(self, catalog):
        assert catalog.popularity_cutoff_rank(1.0) <= len(catalog) + 1
        assert catalog.popularity_cutoff_rank(0.01) >= 1
        with pytest.raises(ValueError):
            catalog.popularity_cutoff_rank(0.0)
