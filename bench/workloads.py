"""The four benchmark workloads.

Each workload makes its inputs from the run seed in :meth:`setup`, runs
an untimed :meth:`warmup`, then repeats whole rounds of
:meth:`run_round` while the caller times them.  A round returns the work
it completed (pairs, or pairs x epochs for training) and appends one
record per pair it attempted; a pair that raises is recorded as failed
with its reason and the run goes on.  :meth:`check` then tests the
outputs against :mod:`oracle` and against properties the method must
have, and :meth:`quality` summarizes them.

softalign is always called through its module attributes
(``fit.fit_direct``, never a name imported from it), so a
:class:`layertrace.LayerTracer` sees every call.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys

import numpy as np

import oracle
from softalign import evalkit, features, fit, matching, weaktrain

REL_TOL = 1e-9
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _seeds(seed: int, stream: int, n: int) -> list[tuple[int, int, int]]:
    """``n`` independent (image, warp, keypoint) seed triples."""
    state = np.random.SeedSequence([seed, stream]).generate_state(3 * n)
    return [tuple(int(v) for v in state[3 * k : 3 * k + 3]) for k in range(n)]


def _failure(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class Pair:
    """Descriptor grids, ground truth and keypoints of one synthetic pair."""

    def __init__(self, pid, image_seed, warp_seed, kp_seed, size, grid, magnitude, **ranges):
        img = features.synthetic_image(image_seed, size, size)
        p = features.synth_pair(img, "affine", magnitude, grid, grid, warp_seed, **ranges)
        self.id = pid
        self.source, self.target, self.gt = p.source, p.target, p.gt
        self.keypoints = evalkit.keypoints_from_transform(p.gt, 20, kp_seed).coords


class Workload:
    name = ""
    #: rounds a traced run makes, so that its call counts repeat exactly
    trace_rounds = 1

    def __init__(self, seed: int, workdir: str, trace: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.trace = trace
        self.records: list[dict] = []
        #: layer-trace files written by traced child processes
        self.traces: list[str] = []

    def setup(self) -> None: ...

    def warmup(self) -> None: ...

    def run_round(self, r: int) -> float:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def quality(self) -> dict:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    def ok_records(self) -> list[dict]:
        return [r for r in self.records if r["ok"]]

    def first_records(self) -> list[dict]:
        """One successful record per distinct pair, in first-seen order."""
        seen, out = set(), []
        for r in self.ok_records():
            if r["id"] not in seen:
                seen.add(r["id"])
                out.append(r)
        return out

    def repeat_problems(self, keys) -> list[str]:
        """Pairs processed more than once must give identical outputs."""
        first = {r["id"]: r for r in self.first_records()}
        return [
            f"{r['id']}: repeated run gave a different {k}"
            for r in self.ok_records()
            for k in keys
            if r[k] != first[r["id"]][k]
        ]


# ---------------------------------------------------------------------------


class DirectAffine(Workload):
    """``fit.fit_direct`` on criterion-5-style affine pairs."""

    name = "direct-affine"
    trace_rounds = 4
    POOL = 24
    GRID, SIZE = 16, 64
    ITERATIONS = 40
    RANGES = dict(rotation_max_deg=30.0, scale_range=(0.8, 1.25), translation_max=0.25)
    PCK_MARGIN = 0.25

    def setup(self):
        self.t = self.GRID / 30.0
        self.cfg = fit.FitConfig(seed=self.seed, tol=1e-4, restarts=4, iterations=self.ITERATIONS)
        self.pool = [
            Pair(f"pair{k:02d}", *s, self.SIZE, self.GRID, 1.0, **self.RANGES)
            for k, s in enumerate(_seeds(self.seed, 1, self.POOL))
        ]

    def warmup(self):
        p = self.pool[0]
        fit.fit_direct(p.source, p.target, fit.FitConfig(
            seed=self.seed, tol=1e-4, restarts=1, iterations=self.ITERATIONS))

    def run_round(self, r):
        p = self.pool[r % self.POOL]
        try:
            res = fit.fit_direct(p.source, p.target, self.cfg)
        except Exception as exc:  # recorded as a failed pair; the run goes on
            self.records.append({"id": p.id, "ok": False, "reason": _failure(exc)})
            return 0
        self.records.append({
            "id": p.id, "ok": True, "c": res.c, "trace": list(res.trace),
            "transform": res.transform.to_dict(),
        })
        return 1

    def check(self):
        pool = {p.id: p for p in self.pool}

        def inputs(pid):
            p = pool[pid]
            return oracle.correlation(p.source.data, p.target.data), p.gt, p.keypoints

        problems = self.repeat_problems(("c", "transform"))
        problems += _check_fits(self.first_records(), inputs, self.t, self.PCK_MARGIN)
        problems += [f"{r['id']}: the ascent trace decreases"
                     for r in self.first_records() if np.any(np.diff(r["trace"]) < 0)]
        return problems

    def quality(self):
        return _fit_quality(self.first_records())


def _check_fits(done: list[dict], inputs, t: float, pck_margin: float) -> list[str]:
    """Checks shared by the two ascent workloads, one record per distinct pair.

    ``inputs(id)`` gives the pair's correlation, ground truth and keypoints.
    Records the oracle's counts and PCK on each record.  A record that
    already holds a reported ``pck`` must agree with the oracle's.
    """
    problems = []
    for r in done:
        s, gt, keypoints = inputs(r["id"])
        r["c_oracle"] = oracle.soft_count(s, r["transform"], t)
        r["c_identity"] = oracle.soft_count(s, oracle.IDENTITY_AFFINE, t)
        r["c_truth"] = oracle.soft_count(s, gt, t)
        r["pck_identity"] = oracle.pck(keypoints, oracle.IDENTITY_AFFINE)
        pck = oracle.pck(keypoints, r["transform"])
        if "pck" in r and (r["pck"] is None or abs(r["pck"] - pck) > 1e-12):
            problems.append(f"{r['id']}: reported PCK {r['pck']} != recomputed {pck}")
        r["pck"] = pck
        if not _close(r["c"], r["c_oracle"]):
            problems.append(f"{r['id']}: c {r['c']!r} != oracle {r['c_oracle']!r}")
        # restart 0 starts at the identity and the ascent never lowers c
        if r["c"] < r["c_identity"] - REL_TOL * max(1.0, r["c_identity"]):
            problems.append(f"{r['id']}: c {r['c']} below the identity's {r['c_identity']}")
    if done:
        pck = np.mean([r["pck"] for r in done])
        base = np.mean([r["pck_identity"] for r in done])
        if pck < base + pck_margin:
            problems.append(f"mean PCK {pck:.3f} not {pck_margin} above identity {base:.3f}")
    return problems


def _fit_quality(done: list[dict]) -> dict:
    if not done:
        return {}
    return {
        "c_vs_truth": sum(r["c"] for r in done) / sum(r["c_truth"] for r in done),
        "mean_c": float(np.mean([r["c"] for r in done])),
        "pck": float(np.mean([r["pck"] for r in done])),
        "pck_identity": float(np.mean([r["pck_identity"] for r in done])),
        "distinct_pairs": len(done),
    }


# ---------------------------------------------------------------------------


class TrainWeak(Workload):
    """``weaktrain.train`` on criterion-6-style 8x8 pairs, then ``predict``
    on held-out pairs."""

    name = "train-weak"
    trace_rounds = 2
    N_TRAIN, N_HELD = 200, 50
    GRID, SIZE = 8, 48
    RANGES = dict(rotation_max_deg=10.0, scale_range=(0.9, 1.1), translation_max=0.3)
    EPOCHS = 5
    PCK_MARGIN = 0.05
    MAX_LOSS_RISE = 1e-3

    def setup(self):
        self.t = self.GRID / 30.0
        self.cfg = weaktrain.TrainConfig(epochs=self.EPOCHS, seed=self.seed, step=2e-4, batch_size=8)
        seeds = _seeds(self.seed, 2, self.N_TRAIN + self.N_HELD)
        self.train_pairs = [
            Pair(f"train{k:03d}", *s, self.SIZE, self.GRID, 0.6, **self.RANGES)
            for k, s in enumerate(seeds[: self.N_TRAIN])
        ]
        self.held_pairs = [
            Pair(f"held{k:02d}", *s, self.SIZE, self.GRID, 0.6, **self.RANGES)
            for k, s in enumerate(seeds[self.N_TRAIN :])
        ]
        self.dataset = [(p.source, p.target) for p in self.train_pairs]

    def warmup(self):
        cfg = weaktrain.TrainConfig(epochs=1, seed=self.seed, step=2e-4, batch_size=8)
        weaktrain.train(self.dataset[:64], cfg)

    def run_round(self, r):
        try:
            model, trace = weaktrain.train(self.dataset, self.cfg)
        except Exception as exc:  # recorded as failed pairs; the run goes on
            reason = _failure(exc)
            self.records.append({"id": "train", "ok": False, "pairs": self.N_TRAIN, "reason": reason})
            self.records += [{"id": p.id, "ok": False, "reason": reason} for p in self.held_pairs]
            return 0
        rec = {"id": "train", "ok": True, "pairs": self.N_TRAIN, "trace": list(trace)}
        if not self._trained():
            rec["model"] = model  # later rounds must repeat its loss trace exactly
        self.records.append(rec)
        for p in self.held_pairs:
            try:
                T = weaktrain.predict(model, matching.correlate(p.source, p.target))
                self.records.append({"id": p.id, "ok": True, "transform": T.to_dict()})
            except Exception as exc:  # recorded as a failed pair; the run goes on
                self.records.append({"id": p.id, "ok": False, "reason": _failure(exc)})
        return self.N_TRAIN * self.EPOCHS

    def _trained(self):
        return [r for r in self.ok_records() if r["id"] == "train"]

    def check(self):
        problems = []
        runs = self._trained()
        if not runs:
            return problems
        first = runs[0]
        for other in runs[1:]:
            if other["trace"] != first["trace"]:
                problems.append("repeated training gave a different loss trace")
        rise = float(np.diff(first["trace"]).max())
        if rise > self.MAX_LOSS_RISE:
            problems.append(f"epoch loss rose by {rise:.2e} > {self.MAX_LOSS_RISE}")

        model = first["model"]
        counts, truths = [], []
        for p in self.train_pairs:
            s = oracle.correlation(p.source.data, p.target.data)
            counts.append(oracle.soft_count(s, _regress(model, s), self.t))
            truths.append(oracle.soft_count(s, p.gt, self.t))
        self.mean_count, self.mean_truth = float(np.mean(counts)), float(np.mean(truths))
        if not _close(-first["trace"][-1], self.mean_count):
            problems.append(
                f"final loss {first['trace'][-1]!r} != -oracle mean count {self.mean_count!r}"
            )

        held = {p.id: p for p in self.held_pairs}
        trained, untrained = [], []
        for r in self.first_records():
            if r["id"] in held:
                p = held[r["id"]]
                s = oracle.correlation(p.source.data, p.target.data)
                expect = _regress(model, s)["params"]
                if not np.allclose(r["transform"]["params"], expect, rtol=0, atol=1e-9):
                    problems.append(f"{p.id}: predict disagrees with the regressor's forward pass")
                trained.append(oracle.pck(p.keypoints, r["transform"]))
                # an untrained model predicts the identity: zero output weights,
                # identity output bias
                untrained.append(oracle.pck(p.keypoints, oracle.IDENTITY_AFFINE))
        self.pck, self.pck_identity = float(np.mean(trained)), float(np.mean(untrained))
        if self.pck < self.pck_identity + self.PCK_MARGIN:
            problems.append(
                f"held-out PCK {self.pck:.3f} not {self.PCK_MARGIN} above untrained "
                f"{self.pck_identity:.3f}"
            )
        return problems

    def quality(self):
        if not self._trained():
            return {}
        return {
            "c_vs_truth": self.mean_count / self.mean_truth,
            "mean_c": self.mean_count,
            "pck": self.pck,
            "pck_identity": self.pck_identity,
            "final_loss": self._trained()[0]["trace"][-1],
        }


def _regress(model, s: np.ndarray) -> dict:
    """The regressor's affine output, from its weights: relu MLP on vec(s)."""
    hidden = np.maximum(model.W1 @ s.ravel() + model.b1, 0.0)
    return {"family": "affine", "params": list(model.W2 @ hidden + model.b2)}


# ---------------------------------------------------------------------------


class CliEvalTps(Workload):
    """``softalign synth --family tps`` then ``softalign eval --family tps``,
    each a separate process, as a user runs them."""

    name = "cli-eval-tps"
    trace_rounds = 2
    N_PAIRS, CHUNK = 24, 4
    GRID, SIZE = 12, 48
    T = 1.5
    ITERATIONS = 40
    PCK_MARGIN = 0.05

    def __init__(self, seed, workdir, trace=False):
        super().__init__(seed, workdir, trace)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.reports: list[dict] = []

    def _softalign(self, args: list[str], trace_out: str | None):
        if trace_out is None:
            cmd = [sys.executable, "-m", "softalign", *args]
        else:
            cmd = [sys.executable, os.path.join(ROOT, "bench", "child.py"), trace_out, *args]
            self.traces.append(trace_out)
        return subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                              text=True, timeout=150)

    def _trace_path(self, tag):
        return os.path.join(self.workdir, f"trace-{tag}.json") if self.trace else None

    def setup(self):
        res = self._softalign(
            ["synth", "--outdir", self.workdir, "--n", str(self.N_PAIRS), "--seed", str(self.seed),
             "--family", "tps", "--grid", str(self.GRID), "--image-size", str(self.SIZE),
             "--keypoints", "20", "--magnitude", "1.0", "--out", os.path.join(self.workdir, "synth.json")],
            self._trace_path("synth"),
        )
        if res.returncode != 0:
            raise RuntimeError(f"softalign synth exited {res.returncode}: {res.stderr.strip()}")
        with open(os.path.join(self.workdir, "eval.jsonl"), encoding="ascii") as fh:
            lines = fh.read().splitlines()
        with open(os.path.join(self.workdir, "pairs.jsonl"), encoding="ascii") as fh:
            self.gt = [json.loads(line)["gt_transform"] for line in fh.read().splitlines()]
        self.chunks = []
        for c in range(0, len(lines), self.CHUNK):
            path = os.path.join(self.workdir, f"chunk{c // self.CHUNK:02d}.jsonl")
            with open(path, "w", encoding="ascii") as fh:
                fh.write("\n".join(lines[c : c + self.CHUNK]) + "\n")
            self.chunks.append((path, [json.loads(x)["id"] for x in lines[c : c + self.CHUNK]]))

    def run_round(self, r):
        manifest, ids = self.chunks[r % len(self.chunks)]
        out = os.path.join(self.workdir, f"report-{r:03d}.json")
        res = self._softalign(
            ["eval", manifest, "--family", "tps", "--t", str(self.T), "--grid", str(self.GRID),
             "--seed", str(self.seed), "--iterations", str(self.ITERATIONS), "--out", out],
            self._trace_path(f"{r:03d}"),
        )
        if res.returncode != 0:
            reason = f"softalign eval exited {res.returncode}: {res.stderr.strip()[-300:]}"
            self.records += [{"id": i, "ok": False, "reason": reason} for i in ids]
            return 0
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        self.reports.append(report)
        for rec in report["pairs"]:
            if rec["status"] == "ok":
                self.records.append({"id": rec["id"], "ok": True, "c": rec["c"],
                                     "pck": rec.get("pck"), "transform": rec["transform"]})
            else:
                self.records.append({"id": rec["id"], "ok": False, "reason": rec.get("error", "")})
        return sum(rec["status"] == "ok" for rec in report["pairs"])

    def check(self):
        import minischema
        from softalign import cli

        def inputs(pid):
            stem = os.path.join(self.workdir, pid)
            s = oracle.correlation(oracle.read_fgrid_text(stem + "_src.fgrid"),
                                   oracle.read_fgrid_text(stem + "_tgt.fgrid"))
            return s, self.gt[int(pid[len("pair"):])], oracle.read_keypoint_csv(stem + "_kp.csv")

        problems = self.repeat_problems(("c", "transform"))
        schema = cli.report_schema()
        for k, report in enumerate(self.reports):
            problems += [f"report {k}: {e}" for e in minischema.errors(report, schema)]
        return problems + _check_fits(self.first_records(), inputs, self.T, self.PCK_MARGIN)

    def quality(self):
        return _fit_quality(self.first_records())

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6


# ---------------------------------------------------------------------------


class RansacAffine(Workload):
    """``matching.correlate`` plus ``fit.fit_ransac`` on many 16x16 pairs.

    A round is :attr:`ROUND_PAIRS` pairs of the seeded pool and then the
    fixed :attr:`DEGENERATE` pair, on which ``fit_ransac`` fails today: one
    of every ``ROUND_PAIRS + 1`` pairs attempted fails, whatever the seed
    and the run length.
    """

    name = "ransac-affine"
    trace_rounds = 12
    POOL, ROUND_PAIRS = 160, 8
    GRID, SIZE = 16, 64
    RANGES = DirectAffine.RANGES
    #: (image, warp, keypoint) seeds of a generated pair whose candidate
    #: matches lie on two source cells, so that every 3-match affine sample
    #: is degenerate; fit_ransac (RANSAC seed 0) raises on it
    DEGENERATE = (817577294, 4036522511, 2368671669)

    def setup(self):
        self.t = self.GRID / 30.0
        self.degenerate = Pair("degenerate", *self.DEGENERATE, self.SIZE, self.GRID, 1.0,
                               **self.RANGES)
        # A seeded pair like DEGENERATE would fail on some seeds only, so the
        # pool leaves such pairs out; DEGENERATE keeps the fault in every round.
        self.pool, self.skipped = [], []
        for k, s in enumerate(_seeds(self.seed, 4, 2 * self.POOL)):
            p = Pair(f"pair{k:03d}", *s, self.SIZE, self.GRID, 1.0, **self.RANGES)
            matches = oracle.argmax_matches(oracle.correlation(p.source.data, p.target.data))
            src = np.array([m[0] for m in matches], dtype=np.float64)
            if len(matches) < 3 or np.linalg.matrix_rank(src - src.mean(axis=0)) < 2:
                self.skipped.append(p.id)
                continue
            self.pool.append(p)
            if len(self.pool) == self.POOL:
                return
        raise RuntimeError(f"only {len(self.pool)} usable pairs in {2 * self.POOL}")

    def warmup(self):
        for p in self.pool[:4]:
            fit.fit_ransac(matching.correlate(p.source, p.target), "affine", seed=self.seed)

    def run_round(self, r):
        start = r * self.ROUND_PAIRS % self.POOL
        pairs = self.pool[start : start + self.ROUND_PAIRS] + [self.degenerate]
        return sum(self._fit(p) for p in pairs)

    def _fit(self, p):
        seed = 0 if p is self.degenerate else self.seed
        try:
            res = fit.fit_ransac(matching.correlate(p.source, p.target), "affine", seed=seed)
        except Exception as exc:  # recorded as a failed pair; the run goes on
            self.records.append({"id": p.id, "ok": False, "reason": _failure(exc)})
            return 0
        self.records.append({"id": p.id, "ok": True, "c": res.c,
                             "inlier_count": res.inlier_count,
                             "transform": res.transform.to_dict()})
        return 1

    def check(self):
        problems = self.repeat_problems(("c", "inlier_count", "transform"))
        pool = {p.id: p for p in self.pool + [self.degenerate]}
        for r in self.first_records():
            p = pool[r["id"]]
            lib = matching.correlate(p.source, p.target).data
            s = oracle.correlation(p.source.data, p.target.data)
            norms = np.sqrt((lib**2).sum(axis=(0, 1)))
            if lib.min() < 0 or not np.all((np.abs(norms - 1) < 1e-9) | (norms == 0)):
                problems.append(f"{p.id}: correlation columns not non-negative unit/zero norm")
            if not np.allclose(lib, s, rtol=0, atol=1e-12):
                problems.append(f"{p.id}: correlation differs from the oracle's")
            recount = oracle.hard_count(oracle.argmax_matches(s), r["transform"], self.t,
                                        self.GRID, self.GRID)
            if recount != r["inlier_count"]:
                problems.append(f"{p.id}: inlier_count {r['inlier_count']} != recount {recount}")
            r["c_oracle"] = oracle.soft_count(s, r["transform"], self.t)
            r["c_truth"] = oracle.soft_count(s, p.gt, self.t)
            r["pck"] = oracle.pck(p.keypoints, r["transform"])
            r["pck_identity"] = oracle.pck(p.keypoints, oracle.IDENTITY_AFFINE)
            if not _close(r["c"], r["c_oracle"]):
                problems.append(f"{p.id}: c {r['c']!r} != oracle {r['c_oracle']!r}")
        return problems

    def quality(self):
        return _fit_quality(self.first_records()) | {"skipped_pairs": self.skipped}


WORKLOADS = {w.name: w for w in (DirectAffine, TrainWeak, CliEvalTps, RansacAffine)}
