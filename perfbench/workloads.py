"""The three benchmark workloads: inputs, ops and correctness gates.

Every workload is a closed loop with one client: op ``k`` starts when op
``k - 1`` has returned.  Inputs come from the workload seed alone; ntdkit
receives only the generated inputs (tensors, factor matrices, files), and
the ground truth stays with the benchmark for the correctness gate.

Op callables look ntdkit functions up by module attribute at call time, so
a tracer patched into the package sees the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import zlib

import numpy as np

from ntdkit import cli, cones, evaluate, procedures, synth
from ntdkit.procedures import ModePartition
from ntdkit.solvers import SolverConfig

# Largest number of (r-1)-row subsets, C(n, r-1), that one certification
# input may enumerate.  n=60, r=6 would be 5.5M subsets and ~1.5 GB.
ENUM_BUDGET = 100_000

D3_PARTITION = {"rows": [0], "fixed": [2, 3], "cols": [1]}
TRUTH_TOL = 1e-6      # essential_match tolerance
REFUTE_TOL = 1e-9     # slack on h @ y >= 0, relative to the largest |h|


def sub_seed(seed, *tags) -> int:
    """Stable 32-bit seed from the workload seed and string/int tags."""
    entropy = [int(seed) & 0xFFFFFFFF]
    entropy += [zlib.crc32(str(t).encode()) for t in tags]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def two_nonzero_factor(n, r, rng):
    """Column-stochastic n x r matrix with two random nonzeros per row."""
    h = np.zeros((n, r))
    for i in range(n):
        h[i, rng.choice(r, size=2, replace=False)] = rng.random(2)
    return h / h.sum(axis=0)


# -- enumeration-size guard ----------------------------------------------

def enum_combos(n, r) -> int:
    """Subsets one exact SSC check of an n x r matrix enumerates; zero when
    the shape is over ntdkit's cap and the check only searches."""
    if n > cones.ENUM_CAP_N or r > cones.ENUM_CAP_R or r < 2:
        return 0
    return math.comb(n, r - 1)


def gen_cert_shapes(tag, dims, ranks, axes=None, partition=None):
    """(n, r) of every matrix that ``gen_instance`` may SSC-certify: each
    single factor and each Kronecker group product of the tag."""
    if tag == "A-sep":
        return []  # separability only
    d = len(dims)
    groups = [(k,) for k in range(d)]
    if tag == "A4.x-unfold":
        groups.append((0, 1))
    elif tag == "A5.2":
        ax = tuple(axes or (d - 1,))
        groups += [tuple(k for k in range(d) if k not in ax), ax]
    elif tag == "A5.4":
        groups += [tuple(partition[g]) for g in ("rows", "fixed", "cols")]
    return [(math.prod(dims[k] for k in g), math.prod(ranks[k] for k in g))
            for g in groups]


def check_budget(shapes, budget=ENUM_BUDGET):
    """Refuse a workload definition whose certification inputs would
    enumerate more than ``budget`` subsets each."""
    for n, r in shapes:
        combos = enum_combos(n, r)
        if combos > budget:
            raise ValueError(
                f"certifying a {n} x {r} matrix enumerates C({n},{r - 1}) = "
                f"{combos} subsets, over the budget of {budget} "
                f"({combos * r * r * 8 / 2**20:.0f} MiB batched)")


# -- checks shared by certify and stored ----------------------------------

def refutation_ok(h, y):
    """``y`` proves SSC1 fails for ``h``: h y >= 0, sum(y) = 1, |y| > 1."""
    y = np.asarray(y, dtype=float)
    scale = max(1.0, float(np.abs(h).max()))
    return bool((h @ y).min() >= -REFUTE_TOL * scale
                and abs(y.sum() - 1.0) <= 1e-7
                and np.linalg.norm(y) > 1.0)


def ssc_report_ok(h, doc):
    """Gate for a ``check_ssc`` report given as its JSON document."""
    if doc.get("refutation") is not None \
            and not refutation_ok(h, doc["refutation"]):
        return False
    if doc.get("ssc1") is False and doc.get("refutation") is None \
            and not doc.get("unbounded"):
        return False
    verts = doc.get("dual_vertices")
    if verts:
        v = np.asarray(verts, dtype=float)
        scale = max(1.0, float(np.abs(h).max()))
        if (h @ v.T).min() < -REFUTE_TOL * scale \
                or np.abs(v.sum(axis=1) - 1.0).max() > 1e-7:
            return False
    return True


def recon_error(model, tensor):
    arr = model.core.data.reshape(model.core.dims, order="F")
    for k, u in enumerate(model.factors):
        arr = np.moveaxis(np.tensordot(u, arr, axes=(1, k)), 0, k)
    ref = np.linalg.norm(tensor.data)
    return float(np.linalg.norm(arr.ravel(order="F") - tensor.data)
                 / max(ref, 1e-300))


def run_cli(argv):
    """``ntdkit.cli.main`` in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class Workload:
    """One workload: ``setup`` makes the inputs, ``op(k)`` returns the
    callable for op ``k``, ``check`` gates its output, ``digest`` gives a
    string that identical outputs share."""

    name = ""
    warmup_op = 0     # op index run once inside set-up
    trace_ops = 0     # ops in the traced run: a fixed prefix of the schedule

    def shapes(self):
        return []

    def setup(self, seed, workdir):
        raise NotImplementedError

    def op(self, state, k, outdir):
        raise NotImplementedError

    def failed(self, out):
        """An output that reports failure without raising."""
        return False

    def check(self, state, k, out):
        raise NotImplementedError

    def digest(self, state, k, out):
        raise NotImplementedError


class Recover(Workload):
    """Identification on the volume-solver pipelines, criterion-7 shapes."""

    name = "recover"
    # (procedure, assumption, dims, ranks, pool size).  A5.4 instances take
    # ~15 ms to draw and procedure d3 sets the slow tail, so its pool gives
    # each d3 op of a run its own instance: the 90th percentile then
    # depends less on the seed.  The other instances take 50-330 ms, and
    # set-up runs three times, so their pools stay small.
    PIPELINES = (
        ("procedure0", "A4.x-unfold", (6, 5, 40), (2, 2, 4), 3),
        ("procedure1", "A4.2", (20, 20, 15), (4, 4, 3), 3),
        ("procedure2", "A4.3", (16, 16, 10), (4, 4, 2), 3),
        ("procedure3", "A4.4", (18, 18, 20), (3, 3, 5), 3),
        ("procedure4", "A4.5", (16, 16, 10), (4, 4, 2), 3),
        ("procedure_d1", "A5.3", (15, 15, 12, 12), (3, 3, 2, 2), 3),
        ("procedure_d3", "A5.4", (10, 10, 8, 8), (2, 2, 2, 2), 15),
    )
    trace_ops = 3 * len(PIPELINES)

    def _gen_kwargs(self, tag):
        return {"partition": D3_PARTITION} if tag == "A5.4" else {}

    def shapes(self):
        return [s for _, tag, dims, ranks, _ in self.PIPELINES
                for s in gen_cert_shapes(tag, dims, ranks,
                                         **self._gen_kwargs(tag))]

    def setup(self, seed, workdir):
        pool = []
        for proc, tag, dims, ranks, size in self.PIPELINES:
            pool.append([synth.gen_instance(
                tag, dims, ranks, seed=sub_seed(seed, "recover", proc, i),
                **self._gen_kwargs(tag)) for i in range(size)])
        return {"seed": seed, "pool": pool}

    def _case(self, state, k):
        p = k % len(self.PIPELINES)
        insts = state["pool"][p]
        inst = insts[(k // len(self.PIPELINES)) % len(insts)]
        cfg = SolverConfig(seed=sub_seed(state["seed"], "solver", k))
        return self.PIPELINES[p], inst, cfg

    def op(self, state, k, outdir):
        (proc, _, _, ranks, _), inst, cfg = self._case(state, k)

        def run():
            fn = getattr(procedures, proc)
            if proc == "procedure_d3":
                part = ModePartition(*(tuple(D3_PARTITION[g])
                                       for g in ("rows", "fixed", "cols")))
                model = fn(inst.tensor, ranks, part, cfg)
            else:
                model = fn(inst.tensor, ranks, cfg)
            return model, evaluate.essential_match(model, inst.truth,
                                                   tol=TRUTH_TOL)
        return run

    def check(self, state, k, out):
        _, inst, cfg = self._case(state, k)
        model, match = out
        return bool(match.matched) and \
            recon_error(model, inst.tensor) <= cfg.feas_tol

    def digest(self, state, k, out):
        model, match = out
        return json.dumps([model.to_json(), match.to_json()], sort_keys=True)


class Certify(Workload):
    """Instance generation and exact certification within the cap."""

    name = "certify"
    # (assumption, dims, ranks, extra gen_instance arguments)
    GENS = (
        ("A4.x-unfold", (6, 5, 40), (2, 2, 4), {}),
        ("A4.2", (20, 20, 15), (4, 4, 3), {}),
        ("A4.4", (18, 18, 20), (3, 3, 5), {}),
        ("A5.2", (6, 5, 6, 5), (2, 2, 2, 2), {"axes": (2, 3)}),
        ("A5.4", (10, 10, 8, 8), (2, 2, 2, 2), {"partition": D3_PARTITION}),
    )
    # (function, n, r) on a factor with two nonzeros per row
    CHECKS = (
        ("check_ssc", 24, 5),
        ("check_pssc", 24, 5),
        ("estimate_min_p", 24, 5),
        ("check_ssc", 30, 5),
        ("check_pssc", 30, 5),
    )
    PSSC_P = 1.8
    FACTORS = 12      # factors drawn per check slot
    ROUND = len(GENS) + len(CHECKS)
    trace_ops = ROUND

    def shapes(self):
        out = [(n, r) for _, n, r in self.CHECKS]
        for tag, dims, ranks, kw in self.GENS:
            out += gen_cert_shapes(tag, dims, ranks, **kw)
        return out

    def setup(self, seed, workdir):
        factors = []
        for slot, (_, n, r) in enumerate(self.CHECKS):
            rng = np.random.default_rng(sub_seed(seed, "certify", slot))
            factors.append([two_nonzero_factor(n, r, rng)
                            for _ in range(self.FACTORS)])
        return {"seed": seed, "factors": factors}

    def _case(self, state, k):
        slot, rnd = k % self.ROUND, k // self.ROUND
        if slot < len(self.GENS):
            return "gen", self.GENS[slot], sub_seed(state["seed"], "gen", k)
        slot -= len(self.GENS)
        h = state["factors"][slot][rnd % self.FACTORS]
        return "check", self.CHECKS[slot], h

    def op(self, state, k, outdir):
        kind, spec, arg = self._case(state, k)
        if kind == "gen":
            tag, dims, ranks, kw = spec
            return lambda: synth.gen_instance(tag, dims, ranks, seed=arg,
                                              **kw)
        fn_name, h = spec[0], arg
        if fn_name == "check_pssc":
            return lambda: cones.check_pssc(h, self.PSSC_P)
        return lambda: getattr(cones, fn_name)(h)

    def check(self, state, k, out):
        kind, spec, h = self._case(state, k)
        if kind == "gen":
            return out.meta["validation"]["overall"] == "pass"
        if spec[0] == "check_ssc":
            return ssc_report_ok(h, out.to_json())
        if spec[0] == "check_pssc":
            return isinstance(out, bool)
        r = h.shape[1]
        return out == math.inf or 1.0 <= out <= math.sqrt(r - 1) + 1e-9

    def digest(self, state, k, out):
        kind, spec, _ = self._case(state, k)
        if kind == "gen":
            return json.dumps([out.tensor.data.tolist(), out.meta],
                              sort_keys=True)
        if spec[0] == "check_ssc":
            return json.dumps(out.to_json(), sort_keys=True)
        return repr(out)


class Stored(Workload):
    """The file-based path through ``ntdkit.cli.main`` in-process."""

    name = "stored"
    BUNDLES = 2
    # Refutation LP cost varies with the factor (250-450 ms at n=80) and
    # sets the 90th percentile, so a run cycles through many files, about
    # one per check, and its figures depend less on which factors the seed
    # drew.
    FACTOR_FILES = 36
    DIMS, RANKS = (60, 50, 40), (5, 5, 4)
    CHECK_N = (80, 150)
    CHECK_R = 4
    # One round: (kind, argument); "dec" writes a model, "eval" reads the
    # model of the op before it.
    ROUND = (("dec", 0), ("eval", 0), ("check", 80), ("check", 150),
             ("check", 80), ("dec", 1), ("eval", 1), ("check", 80))
    warmup_op = 3     # the HiGHS-sized check
    trace_ops = len(ROUND)

    def shapes(self):
        return gen_cert_shapes("A-sep", self.DIMS, self.RANKS) + \
            [(n, self.CHECK_R) for n in self.CHECK_N]

    def setup(self, seed, workdir):
        bundles = []
        for i in range(self.BUNDLES):
            inst = synth.gen_instance("A-sep", self.DIMS, self.RANKS,
                                      seed=sub_seed(seed, "stored", i))
            path = os.path.join(workdir, f"bundle{i}")
            synth.save_instance(inst, path)
            bundles.append(path)
        files = {}
        for n in self.CHECK_N:
            rng = np.random.default_rng(sub_seed(seed, "stored-check", n))
            files[n] = []
            for j in range(self.FACTOR_FILES):
                h = two_nonzero_factor(n, self.CHECK_R, rng)
                path = os.path.join(workdir, f"h{n}_{j}.json")
                with open(path, "w") as fh:
                    json.dump(h.tolist(), fh)
                files[n].append((path, h))
        return {"bundles": bundles, "files": files}

    def _case(self, state, k):
        rnd, slot = divmod(k, len(self.ROUND))
        kind, arg = self.ROUND[slot]
        if kind == "check":
            # the j-th check on n-row factors takes file j, cyclically
            same = [i for i, c in enumerate(self.ROUND) if c == (kind, arg)]
            j = rnd * len(same) + same.index(slot)
            return kind, state["files"][arg][j % self.FACTOR_FILES]
        bundle = state["bundles"][arg]
        dec_k = k if kind == "dec" else k - 1
        return kind, (bundle, dec_k)

    def op(self, state, k, outdir):
        kind, arg = self._case(state, k)
        if kind == "check":
            return lambda: run_cli(["check", "ssc", arg[0]])
        bundle, dec_k = arg
        model = os.path.join(outdir, f"model{dec_k}.json")
        if kind == "dec":
            argv = ["decompose", "--procedure", "sep-d", "--input", bundle,
                    "--ranks", ",".join(map(str, self.RANKS)),
                    "--out", model, "--no-timing"]
        else:
            argv = ["eval", "--model", model,
                    "--truth", os.path.join(bundle, "truth.json")]
        return lambda: run_cli(argv) + (model,)

    def failed(self, out):
        return out[0] != 0

    def check(self, state, k, out):
        kind, arg = self._case(state, k)
        doc = json.loads(out[1])
        if kind == "check":
            return ssc_report_ok(arg[1], doc)
        return doc.get("matched") is True

    def digest(self, state, k, out):
        kind, _ = self._case(state, k)
        doc = json.loads(out[1]) if out[0] == 0 else out[1]
        if kind == "dec" and out[0] == 0:
            doc.pop("out")  # the model path differs between passes
            with open(out[2]) as fh:
                doc["model"] = fh.read()
        return json.dumps([out[0], doc], sort_keys=True)


WORKLOADS = {w.name: w for w in (Recover(), Certify(), Stored())}
