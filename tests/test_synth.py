import hashlib
import io
import json
import re
from math import prod

import numpy as np
import pytest

from ntdkit import cones, synth
from ntdkit.cones import check_separable, check_ssc
from ntdkit.errors import (GenerationError, InputError, PartitionError,
                           ShapeError, UsageError)
from ntdkit.evaluate import (_ROWS, _Core, _core_status, _full_slice_status,
                             validate_assumptions)
from ntdkit.solvers import numerical_rank, spa_separable_nmf
from ntdkit.synth import (_draw_core, _structured_deficient_core,
                          gen_anchor_factor, gen_instance,
                          gen_separable_factor, gen_ssc_factor,
                          load_instance, save_instance)
from ntdkit.tensor import (DenseTensor, _mode_groups, mode_slice,
                           read_tensor, unfold)
from tests.conftest import slice_ranks, two_nonzero, two_nonzero_ssc


class TestGenSscFactor:
    def test_certified_ssc(self, rng):
        h = gen_ssc_factor(20, 4, rng)
        assert check_ssc(h).ssc
        assert np.abs(h.sum(axis=0) - 1).max() <= 1e-12
        assert ((h > 0).sum(axis=1) == 2).all()

    def test_anchor_rows_when_nnz_one(self, rng):
        h = gen_ssc_factor(4, 4, rng, nnz_per_row=1)
        # permutation-scaled identity: separable hence SSC
        assert check_separable(h)[0]
        assert ((h > 0).sum(axis=1) == 1).all()

    def test_refuses_above_certification_cap(self, rng):
        with pytest.raises(GenerationError):
            gen_ssc_factor(30, 7, rng)

    def test_refuses_past_the_enumeration_cap_before_drawing(self):
        # check_ssc past cones.ENUM_CAP_N rows can accept no draw
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        n = cones.ENUM_CAP_N + 1
        with pytest.raises(GenerationError,
                           match=f"{n}x4 .*ENUM_CAP_N={cones.ENUM_CAP_N}"):
            gen_ssc_factor(n, 4, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("n,r,nnz", [(10.5, 4, 2), (10, 3.0, 2),
                                         (10, 4, 1.5), (10, "4", 2)],
                             ids=["n", "r", "nnz", "text"])
    def test_non_integer_arguments_refused_before_drawing(self, n, r, nnz):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ShapeError, match="must be integers"):
            gen_ssc_factor(n, r, rng, nnz_per_row=nnz)
        assert rng.bit_generator.state == state

    def test_integer_like_arguments_accepted(self):
        h = gen_ssc_factor(np.int64(20), np.int64(4), np.random.default_rng(3),
                           nnz_per_row=np.int64(2))
        assert np.array_equal(h, gen_ssc_factor(20, 4,
                                                np.random.default_rng(3)))

    def test_acceptance_rate_near_reported(self):
        # two-nonzero 20x4 draws: a clear majority band, not all-or-nothing
        hits = 0
        for seed in range(30):
            h = two_nonzero(20, 4, np.random.default_rng(seed))
            hits += bool(check_ssc(h).ssc)
        assert 0.40 <= hits / 30 <= 0.95

    def test_two_nonzero_ssc_gives_up(self):
        # every row of a two-nonzero 2-column factor is positive: no draw
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="16x2"):
            two_nonzero_ssc(16, 2, rng)
        assert rng.bit_generator.state == state  # raised before drawing
        with pytest.raises(ValueError, match="20x4 factor in 0 draws"):
            two_nonzero_ssc(20, 4, rng, max_tries=0)


def _per_row_draws(rng, n, r, k):
    """The reference: one ``choice`` and one ``random`` call per row."""
    cols, vals = np.empty((n, k), dtype=np.intp), np.empty((n, k))
    for i in range(n):
        cols[i] = rng.choice(r, size=k, replace=False)
        vals[i] = rng.random(k)
    return cols, vals


def _with_half_word(bit_generator, half):
    """``bit_generator`` with ``half`` waiting as its buffered 32 bits."""
    state = bit_generator.state
    state["has_uint32"], state["uinteger"] = 1, half
    bit_generator.state = state
    return bit_generator


class TestRowDraws:
    """``_row_draws`` reads the stream as the per-row calls read it."""

    @staticmethod
    def assert_same_stream(make, n, r, k):
        a, b = np.random.Generator(make()), np.random.Generator(make())
        cols, vals = synth._row_draws(a, n, r, k)
        ref_cols, ref_vals = _per_row_draws(b, n, r, k)
        assert np.array_equal(cols, ref_cols), (n, r, k)
        assert np.array_equal(vals, ref_vals), (n, r, k)
        assert repr(a.bit_generator.state) == repr(b.bit_generator.state)
        assert a.random() == b.random()

    @pytest.mark.parametrize("bit_generator", [
        np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64,
        np.random.Philox])
    def test_matches_per_row_calls(self, bit_generator):
        for r in range(2, 9):
            for k in sorted({1, 2, r}):
                for n in (1, 2, 7, 60, 400):
                    for buffered in (False, True):
                        seed = 1000 * r + 10 * n + k

                        def make():
                            g = bit_generator(seed)
                            return _with_half_word(g, seed) if buffered \
                                else g
                        self.assert_same_stream(make, n, r, k)

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64,
                                               np.random.Philox])
    def test_rejected_draw(self, bit_generator):
        # The first draw has bound 2: 2**32 % 3 = 1 rejects a leftover 0,
        # which the buffered half word 0 gives.
        self.assert_same_stream(
            lambda: _with_half_word(bit_generator(5), 0), 3, 4, 2)

    def test_mt19937_takes_the_per_row_calls(self):
        for r, k, n in ((4, 2, 30), (2, 1, 5), (5, 5, 9)):
            self.assert_same_stream(lambda: np.random.MT19937(r), n, r, k)


class TestGenSeparableFactor:
    def test_square_is_diagonal(self, rng):
        h = gen_separable_factor(4, 4, rng)
        assert np.count_nonzero(h - np.diag(np.diag(h))) == 0

    def test_anchors_in_identity_block(self, rng):
        h = gen_separable_factor(30, 4, rng)
        flag, anchors = check_separable(h)
        assert flag and all(a < 4 for a in anchors)

    def test_spa_roundtrip(self, rng):
        h = gen_separable_factor(25, 4, rng)
        w = rng.standard_normal((18, 4))
        anchors, _, _ = spa_separable_nmf(w @ h.T, 4)
        assert sorted(anchors) == list(range(4))

    def test_too_small(self, rng):
        with pytest.raises(ShapeError):
            gen_separable_factor(3, 4, rng)


class TestGenAnchorFactor:
    def test_one_sparse_rows_cover_columns(self, rng):
        h = gen_anchor_factor(10, 3, rng)
        assert ((h > 0).sum(axis=1) == 1).all()
        assert (h.sum(axis=0) > 0).all()
        assert check_separable(h)[0]


class TestGenCore:
    """The core draw: Gaussian cores redrawn until each ``_Core`` condition
    passes ``_core_status``."""

    def test_generic_rank(self, rng):
        core = _draw_core((4, 4, 3), [_Core("unfold", (2,), 3)], rng)
        assert numerical_rank(unfold(core, (2,))) == 3

    def test_deficient_slices_with_full_span(self, rng):
        core = _draw_core((4, 4, 2), [_Core("span", 2, 4),
                                      _Core("deficient", 2)], rng)
        for j in range(2):
            assert numerical_rank(mode_slice(core, 2, j)) < 4
        combo = sum(rng.standard_normal() * mode_slice(core, 2, j)
                    for j in range(2))
        assert numerical_rank(combo) == 4

    def test_infeasible_combination(self, rng):
        with pytest.raises(ShapeError):
            _draw_core((3, 3, 0), [], rng)
        with pytest.raises(GenerationError,
                           match=f"{synth._CORE_TRIES} tries"):
            # rank-4 unfolding is impossible for a 3x3x1 core
            _draw_core((3, 3, 1), [_Core("unfold", (2,), 4)], rng)


class TestGenInstance:
    def test_valid_and_reconstructs(self):
        inst = gen_instance("A4.2", (14, 14, 10), (3, 3, 2), seed=11)
        assert inst.meta["validation"]["overall"] == "pass"
        recon = inst.truth.reconstruct()
        assert np.array_equal(recon.data, inst.tensor.data)
        for u in inst.truth.factors:
            assert np.abs(u.sum(axis=0) - 1).max() <= 1e-12

    def test_determinism_bytes(self, tmp_path):
        a = gen_instance("A4.2", (10, 10, 8), (3, 3, 2), seed=12)
        b = gen_instance("A4.2", (10, 10, 8), (3, 3, 2), seed=12)
        save_instance(a, tmp_path / "a")
        save_instance(b, tmp_path / "b")
        for name in ("tensor.json", "tensor.bin", "truth.json", "meta.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_binary_twin_bit_equal(self, tmp_path):
        inst = gen_instance("A-sep", (12, 10, 8), (3, 3, 2), seed=14)
        save_instance(inst, tmp_path)
        a = read_tensor(tmp_path / "tensor.bin")
        b = read_tensor(tmp_path / "tensor.json")
        assert a.dims == b.dims == inst.tensor.dims
        assert a.data.tobytes() == b.data.tobytes() == \
            inst.tensor.data.tobytes()

    def test_json_files_match_json_dump(self, tmp_path):
        inst = gen_instance("A4.2", (10, 10, 8), (3, 3, 2), seed=12)
        save_instance(inst, tmp_path)
        docs = {"tensor.json": {"dims": list(inst.tensor.dims),
                                "layout": "col-major",
                                "data": inst.tensor.data.tolist()},
                "truth.json": inst.truth.to_json(),
                "meta.json": {"assumption_id": inst.assumption_id,
                              "seed": inst.seed, "meta": inst.meta}}
        for name, doc in docs.items():
            buf = io.StringIO()
            json.dump(doc, buf)
            assert (tmp_path / name).read_text() == buf.getvalue() + "\n"

    def test_roundtrip(self, tmp_path):
        inst = gen_instance("A4.4", (10, 10, 6), (3, 3, 2), seed=13)
        save_instance(inst, tmp_path / "inst")
        back = load_instance(tmp_path / "inst")
        assert back.assumption_id == "A4.4"
        assert np.array_equal(back.tensor.data, inst.tensor.data)
        assert np.array_equal(back.truth.core.data, inst.truth.core.data)

    @pytest.mark.parametrize("seed", ["x", [1], None, 1e400],
                             ids=["text", "list", "null", "inf"])
    def test_non_integer_seed_unread(self, seed, tmp_path):
        inst = gen_instance("A4.4", (10, 10, 6), (3, 3, 2), seed=13)
        save_instance(inst, tmp_path)
        meta = json.loads((tmp_path / "meta.json").read_text())
        (tmp_path / "meta.json").write_text(
            json.dumps({**meta, "seed": seed}))
        with pytest.raises(InputError):
            load_instance(tmp_path)

    def test_negative_seed_refused(self, tmp_path):
        with pytest.raises(UsageError):
            gen_instance("A4.2", (10, 10, 8), (3, 3, 2), seed=-1)
        save_instance(gen_instance("A4.4", (10, 10, 6), (3, 3, 2), seed=13),
                      tmp_path)
        meta = json.loads((tmp_path / "meta.json").read_text())
        (tmp_path / "meta.json").write_text(json.dumps({**meta, "seed": -1}))
        with pytest.raises(InputError):
            load_instance(tmp_path)

    @pytest.mark.parametrize("seed", [1.5, "4"], ids=["float", "text"])
    def test_non_integer_seed_refused(self, seed, monkeypatch):
        # refused before any draw, also on the tags whose validator seeds
        # its span test from the instance seed
        drawn = []
        monkeypatch.setattr(synth, "_draw_factor",
                            lambda *args: drawn.append(args))
        with pytest.raises(UsageError, match="seed must be an integer"):
            gen_instance("A4.3", (12, 12, 8), (3, 3, 2), seed=seed)
        assert drawn == []

    def test_integer_like_seed_stored_as_int(self, tmp_path):
        a = gen_instance("A4.3", (12, 12, 8), (3, 3, 2), seed=np.int64(3))
        b = gen_instance("A4.3", (12, 12, 8), (3, 3, 2), seed=3)
        assert type(a.seed) is int and a.seed == 3
        save_instance(a, tmp_path / "a")
        save_instance(b, tmp_path / "b")
        for name in ("tensor.json", "tensor.bin", "truth.json", "meta.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_dims_smaller_than_ranks(self):
        with pytest.raises(ShapeError):
            gen_instance("A4.2", (2, 10, 8), (3, 3, 2), seed=1)

    def test_unknown_assumption(self):
        with pytest.raises(ShapeError):
            gen_instance("A7.7", (5, 5, 5), (2, 2, 2), seed=1)

    @pytest.mark.parametrize("tag,kwargs", [
        ("A5.2", {"axes": (9,)}), ("A5.2", {"axes": (2, 2)}),
        ("A5.2", {"axes": (0, 1, 2, 3)}), ("A5.2", {"axes": ()}),
        ("A5.4", {"partition": {"rows": [0], "fixed": [1]}}),
        ("A5.4", {"partition": {"rows": [0], "fixed": [1], "cols": [9]}}),
        ("A5.4", {"partition": {"rows": [0, 1], "fixed": [1],
                                "cols": [2, 3]}}),
    ])
    def test_modes_checked_against_order(self, tag, kwargs):
        with pytest.raises(PartitionError):
            gen_instance(tag, (6, 5, 6, 5), (2, 2, 2, 2), **kwargs)

    @pytest.mark.parametrize("tag,dims,ranks,kwargs,words", [
        ("A5.4", (10, 10, 8, 8), (3, 2, 2, 2),
         {"partition": {"rows": [0], "fixed": [2, 3], "cols": [1]}},
         "rank products, got 3 vs 2"),
        ("A5.4", (10, 10, 8, 8), (2, 2, 5, 1),
         {"partition": {"rows": [0], "fixed": [2, 3], "cols": [1]}},
         "at most r^2=4, got 5"),
        ("A5.3", (10, 10), (3, 3), {}, "order d >= 3, got order 2"),
    ], ids=["A5.4-rank-product", "A5.4-fixed-rank-bound", "A5.3-order-2"])
    def test_shape_rules_refused_before_drawing(self, tag, dims, ranks,
                                                kwargs, words, monkeypatch):
        # A shape no draw can pass is refused at once, as a ShapeError
        # naming the rule, with no factor drawn.
        drawn = []
        monkeypatch.setattr(synth, "_draw_factor",
                            lambda *args: drawn.append(args))
        with pytest.raises(ShapeError, match=re.escape(words)):
            gen_instance(tag, dims, ranks, seed=1, **kwargs)
        assert drawn == []


# One seeded instance per assumption tag: (tag, dims, ranks, keywords).
EVERY_TAG = [
    ("A4.1", (5, 4, 3), (2, 2, 2), {}),
    ("A4.x-unfold", (6, 5, 20), (2, 2, 4), {}),
    ("A4.2", (10, 10, 8), (3, 3, 2), {}),
    ("A4.3", (12, 12, 8), (3, 3, 2), {}),
    ("A4.4", (10, 10, 6), (3, 3, 2), {}),
    ("A4.5", (12, 12, 6), (3, 3, 2), {}),
    ("A5.1", (5, 4, 3, 3), (2, 2, 2, 2), {}),
    ("A5.2", (6, 5, 4, 7), (2, 2, 2, 2), {"axes": (2, 3)}),
    ("A5.3", (10, 10, 8, 8), (3, 3, 2, 2), {}),
    ("A5.4", (5, 4, 14, 6), (2, 2, 4, 2),
     {"partition": {"rows": [0, 1], "fixed": [3], "cols": [2]}}),
    ("A-sep", (12, 10, 8), (3, 3, 2), {}),
]


class TestTagTable:
    """One table row per tag, read by the generator and the validator."""

    def test_every_row_has_a_seeded_case(self):
        assert set(_ROWS) == {case[0] for case in EVERY_TAG}

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("tag,dims,ranks,order_d,kwargs,names", [
        ("A4.2", (20, 20, 15), (4, 4, 3), "A5.3", {},
         {"exists-full-[0,1]-slice": "exists-full-mode3-slice",
          "exists-full-[0,2]-slice": "exists-full-mode2-slice"}),
        ("A4.x-unfold", (6, 5, 40), (2, 2, 4), "A5.2", {"axes": (2,)},
         {"ssc-kron-group-rest": "ssc-kron-group-0x1",
          "ssc-kron-group-axes": "ssc-factor-2"}),
    ], ids=["A4.2", "A4.x-unfold"])
    def test_order3_tags_are_order_d_rows(self, tag, dims, ranks, order_d,
                                          kwargs, names, seed):
        a = gen_instance(tag, dims, ranks, seed=seed)
        b = gen_instance(order_d, dims, ranks, seed=seed, **kwargs)
        assert a.tensor.data.tobytes() == b.tensor.data.tobytes()
        for ua, ub in zip(a.truth.factors, b.truth.factors):
            assert ua.tobytes() == ub.tobytes()
        assert a.truth.core.data.tobytes() == b.truth.core.data.tobytes()
        relabelled = [{**c, "name": names.get(c["name"], c["name"])}
                      for c in b.meta["validation"]["checks"]]
        assert relabelled == a.meta["validation"]["checks"]


# SHA-256 over seeds 0-2 of each EVERY_TAG case's truth factors, core and
# meta JSON: a generator change that moves one moves seeded bundles.
# Tensor bytes are left out: their last bits depend on the BLAS.
SEEDED_DIGESTS = {
    "A4.1": "fa7a9b8ea452eed114432013cc94759c529c9a26c750afdc32c349b3f1906874",
    "A4.x-unfold":
        "9bd93aed800943b78d3964b0b9aa655d58dfde86798d088d5dc7f7b99431b3d8",
    "A4.2": "e19657d84cc79e6ec6c7ea5f09a327ef06b35080e04992227e02e818841518e4",
    "A4.3": "b3042adecc21d3756a898e4ecf96ec58d8217c785eabd5e8910e00a52e93a3d9",
    "A4.4": "f3999fed40744adc669154754895455926d4dd9a37365b17bf2123ebcd685c89",
    "A4.5": "c1393a7567363f3667fbd8128840c27eee16d9fd6dd9ea99282865cf637ebc61",
    "A5.1": "5b18aca7c283116f862d28478908a86889ae8e01bcc58d17b3acd31a07a15be2",
    "A5.2": "94b3f4df1be25cc488be2dd75866489b0fbc291f623fcd49664d296abe3cd4fa",
    "A5.3": "96bbc02108a1949c96e0459e940e0c6cbb78af3273bbe5e9a0216346555052e6",
    "A5.4": "d3bfd924a3a0044a991380fbd2895a658882c039e76dfb051e2e6f7be6a85cbf",
    "A-sep":
        "3c785b4292bac22efb7e3949cc30b35d635289a42cfca8b1b4e421469bd32a08",
}


class TestSeededBytes:
    """A change to the generator keeps every seeded draw bit for bit."""

    @pytest.mark.parametrize("tag,dims,ranks,kwargs", EVERY_TAG,
                             ids=[case[0] for case in EVERY_TAG])
    def test_truth_and_meta_digest(self, tag, dims, ranks, kwargs):
        h = hashlib.sha256()
        for seed in range(3):
            inst = gen_instance(tag, dims, ranks, seed=seed, **kwargs)
            for u in inst.truth.factors:
                h.update(u.tobytes())
            h.update(inst.truth.core.data.tobytes())
            h.update(json.dumps(inst.meta).encode())
        assert h.hexdigest() == SEEDED_DIGESTS[tag]


class TestCertifyOnce:
    """SSC reports are shared within one ``gen_instance`` call only."""

    @pytest.mark.parametrize("tag,dims,ranks,kwargs", EVERY_TAG,
                             ids=[case[0] for case in EVERY_TAG])
    def test_each_matrix_enumerated_once(self, tag, dims, ranks, kwargs,
                                         monkeypatch):
        seen = []
        enumerate_dual_vertices = cones.enumerate_dual_vertices

        def spy(h, *args, **kw):
            assert cones._SSC_REPORTS.get() is not None
            seen.append(np.asarray(h, dtype=float).tobytes())
            return enumerate_dual_vertices(h, *args, **kw)

        monkeypatch.setattr(cones, "enumerate_dual_vertices", spy)
        inst = gen_instance(tag, dims, ranks, seed=3, **kwargs)
        monkeypatch.undo()
        assert cones._SSC_REPORTS.get() is None
        assert len(seen) == len(set(seen))
        # without the memo the same validation is computed afresh
        assert validate_assumptions(inst).to_json() == inst.meta["validation"]

    def test_no_memo_after_generation_error(self):
        with pytest.raises(GenerationError):
            gen_instance("A4.2", (10, 10, 8), (7, 7, 2), seed=1)
        assert cones._SSC_REPORTS.get() is None


def deficient_leading_slices(arr, mode, k, rng):
    """``arr`` with its first ``k`` slices along ``mode`` (all of them when
    ``k`` is None) overwritten by matrices one rank short of full."""
    view = np.moveaxis(arr.copy(), mode, -1)
    rows, _, cols = _mode_groups(mode, arr.ndim)
    shape = (prod(arr.shape[m] for m in rows), arr.shape[cols[0]])
    full = min(shape)
    for j in range(view.shape[-1] if k is None else min(k, view.shape[-1])):
        low = rng.standard_normal((shape[0], full - 1)) \
            @ rng.standard_normal((full - 1, shape[1]))
        view[..., j] = low.reshape(view.shape[:-1], order="F")
    return DenseTensor.from_array(np.moveaxis(view, -1, mode)), full


class TestFullSliceScan:
    """The first-witness scan gives the verdict of the maximum slice rank,
    in the validators and in the core generator."""

    @pytest.mark.parametrize("dims", [(4, 4, 3), (5, 3, 4), (3, 2, 4, 3)])
    @pytest.mark.parametrize("k", [0, 1, 3, None])
    def test_matches_max_slice_rank_rule(self, dims, k):
        verdicts = set()
        for seed in range(4):
            rng = np.random.default_rng(seed)
            arr = rng.standard_normal(dims)
            for mode in range(len(dims)):
                t, full = deficient_leading_slices(arr, mode, k, rng)
                expected = max(slice_ranks(t, mode)) == full
                groups = _mode_groups(mode, len(dims))
                status, _ = _full_slice_status(t, groups, full)
                assert (status == "pass") == expected
                status, _ = _core_status(_Core("slice", groups, full), t)
                assert (status == "pass") == expected
                verdicts.add(expected)
        # k = 3 overwrites every slice of the modes of size 3
        assert verdicts == {None: {False}, 3: {True, False}}.get(k, {True})

    @pytest.mark.parametrize("dims", [(4, 4, 3), (5, 3, 4), (3, 3, 2)])
    def test_deficient_slice_rule_matches_per_slice_ranks(self, dims):
        # the condition holds iff no slice along its mode has full rank,
        # by one SVD per slice
        verdicts = set()
        for seed in range(4):
            rng = np.random.default_rng(seed)
            arr = rng.standard_normal(dims)
            for mode in range(3):
                cores = [deficient_leading_slices(arr, mode, k, rng)[0]
                         for k in (0, 1, dims[mode] - 1, None)]
                if mode == 2 and dims[0] == dims[1]:
                    cores.append(_structured_deficient_core(dims, 2, rng))
                full = min(n for m, n in enumerate(dims) if m != mode)
                for core in cores:
                    expected = max(slice_ranks(core, mode)) < full
                    status, _ = _core_status(_Core("deficient", mode), core)
                    assert (status == "pass") == expected
                    verdicts.add(expected)
        assert verdicts == {True, False}
