"""The benchmark's workloads.

Each workload makes one op's inputs (``make``, untimed), runs the op
(``run``, the only timed call) and checks its output (``check``, untimed).
Op shapes come from a slot number through a golden-ratio sequence offset by
the seed, so every run covers the same spread of sizes and its median does
not hinge on a few lucky draws; embeddings, graphs and noise come from the
seeded generator.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import gen
from checks import CheckFailed

TEMPERATURE = 0.1
PERCENTILE = 30.0


@dataclass
class Outcome:
    clips: int  # clips grounded by the op (times epochs on train)
    accuracy: float


def _dense(proc: gen.Proc) -> dict[int, int]:
    return {e: v for v, e in enumerate(proc.ext)}


def _gradient_mass_check(fg, rng: np.random.Generator) -> None:
    proc = gen.chains((3, 3, 3))
    meta = fg.build_tsort_forward(fg.normalize(fg.parse_flow_graph(proc.document())))
    vid = gen.video(rng, proc, 150, noise=0.6)
    costs = gen.costs(vid.steps, vid.clips, TEMPERATURE)
    checks.gradient_mass(fg, meta, costs, checks.drop_costs(costs, PERCENTILE))


class Workload:
    def __init__(self, fg, seed: int, work: Path):
        self.fg = fg
        self.seed = seed
        self.work = work
        self.offset = float(np.random.default_rng([seed, 0]).random())
        self.oracle_checks = 0  # outputs also compared with brute_force_ground
        self.seen: set = set()  # graphs the program has had before in this run
        self.shapes: list[tuple[int, int, int, bool]] = []  # per grounding: S, E, N, reused
        self.csv_ops = self.ops = 0

    def rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *key])

    def prepare(self) -> None:
        """Program-side one-off preparation, timed as part of set-up."""

    def note(self, groundings, csv: bool) -> None:
        """Record an op's input shape: (graph, clips) per grounding, and whether it reads CSV."""
        for proc, n_clips in groundings:
            key = (proc.n_steps, proc.edges)
            self.shapes.append((proc.n_states, proc.n_edges, n_clips, key in self.seen))
            self.seen.add(key)
        self.ops += 1
        self.csv_ops += csv

    def input_profile(self) -> dict:
        s, e, n, reused = zip(*self.shapes)
        return {
            "reused_graph_share": sum(reused) / len(reused), "csv_share": self.csv_ops / self.ops,
            "states": [min(s), max(s)], "edges": [min(e), max(e)], "clips": [min(n), max(n)],
        }

    def finish(self) -> None:
        """Run-level checks after the timed loop; raise CheckFailed."""
        _gradient_mass_check(self.fg, self.rng(9))


# -- ground-reuse --------------------------------------------------------------


@dataclass(eq=False)
class LibraryOp:
    proc: gen.Proc
    video: gen.Video


class GroundReuse(Workload):
    """Library grounding of many videos over six prebuilt meta-graphs."""

    name = "ground-reuse"
    clips_range = (300, 2000)
    noise = 0.7

    def __init__(self, fg, seed, work):
        super().__init__(fg, seed, work)
        rng = self.rng(1)
        self.procs = [
            gen.chains((3, 3, 3)),
            gen.chains((15,)),
            gen.random_dag(rng, "dag-a", (10, 14), (280, 320)),
            gen.chains((5, 5, 5)),
            gen.random_dag(rng, "dag-b", (10, 14), (280, 320)),
            gen.chains((4, 4, 4, 4)),
        ]
        self.graphs: dict[str, object] = {}
        self.metas: dict[str, object] = {}
        self.seen = {(p.n_steps, p.edges) for p in self.procs}  # built in set-up

    def prepare(self) -> None:
        fg = self.fg
        for proc in self.procs:
            g = fg.normalize(fg.parse_flow_graph(proc.document()))
            self.graphs[proc.name] = g
            self.metas[proc.name] = fg.build_tsort_forward(g)

    def warmup(self) -> LibraryOp:
        """The largest op (S=2002, N=2000), so peak memory does not depend on the draw."""
        return LibraryOp(self.procs[-1], gen.video(self.rng(2), self.procs[-1], 2000, self.noise))

    def make(self, slot: int, index: int) -> LibraryOp:
        proc = self.procs[slot % len(self.procs)]
        lo, hi = self.clips_range
        n_clips = lo + int(gen.stratified(slot, self.offset) * (hi - lo + 1))
        self.note([(proc, n_clips)], csv=False)
        return LibraryOp(proc, gen.video(self.rng(3, index), proc, n_clips, self.noise))

    def run(self, op: LibraryOp):
        fg = self.fg
        steps = fg.EmbeddingSequence(op.video.steps, kind="step")
        clips = fg.EmbeddingSequence(op.video.clips, kind="clip")
        c = fg.compute_cost_matrix(steps, clips, TEMPERATURE)
        d = fg.compute_drop_costs(c, PERCENTILE)
        return fg.graph_drop_dtw(self.metas[op.proc.name], c, d)

    def check(self, op: LibraryOp, result) -> Outcome:
        costs = gen.costs(op.video.steps, op.video.clips, TEMPERATURE)
        drops = checks.drop_costs(costs, PERCENTILE)
        args = (op.proc, costs, drops, result.cost, result.tau_star, result.labels)
        checks.grounding(*args)
        if checks.oracle_applies(op.proc, len(drops)):
            self.oracle_checks += 1
            checks.oracle(self.fg, self.graphs[op.proc.name], *args)
        return Outcome(len(drops), checks.frame_accuracy(result.labels, op.video.labels))


# -- cli-ground ----------------------------------------------------------------


@dataclass(eq=False)
class CliOp:
    proc: gen.Proc
    video: gen.Video
    costs: np.ndarray
    form: str
    argv: list[str]
    out: Path


class CliGround(Workload):
    """One-shot ``flowground ground`` calls, a fresh graph every time."""

    name = "cli-ground"
    clips_range = (200, 1500)
    max_states = 600
    noise = 0.7
    forms = ("costs-csv", "costs-binary", "embeddings-csv")

    def __init__(self, fg, seed, work):
        super().__init__(fg, seed, work)
        import flowground.cli

        self.cli = flowground.cli
        self.first: dict[str, tuple[CliOp, bytes]] = {}  # first op of each form, re-run at the end

    def warmup(self) -> CliOp:
        """Near the largest op, so peak memory does not depend on the draw."""
        rng = self.rng(2)
        while True:
            proc = gen.cross_chains(rng, self.max_states)
            if proc.n_states >= 0.97 * self.max_states:
                return self._make(0, rng, self.clips_range[1], "warmup", proc)

    def make(self, slot: int, index: int) -> CliOp:
        lo, hi = self.clips_range
        n_clips = lo + int(gen.stratified(slot, self.offset) * (hi - lo + 1))
        op = self._make(slot, self.rng(3, index), n_clips, f"op{index}")
        self.note([(op.proc, n_clips)], csv=op.form != "costs-binary")
        return op

    def _make(self, slot: int, rng, n_clips: int, tag: str, proc=None) -> CliOp:
        proc = proc or gen.cross_chains(rng, self.max_states)
        vid = gen.video(rng, proc, n_clips, self.noise)
        costs = gen.costs(vid.steps, vid.clips, TEMPERATURE)
        form = self.forms[slot % len(self.forms)]
        d = self.work / tag
        d.mkdir()
        gen.write_json(d / "graph.json", proc.document())
        argv = ["ground", "--graph", str(d / "graph.json")]
        if form == "costs-csv":
            gen.write_csv(d / "costs.csv", costs)
            argv += ["--costs", str(d / "costs.csv")]
        elif form == "costs-binary":
            gen.write_binary(d / "costs.bin", costs)
            argv += ["--costs", str(d / "costs.bin")]
        else:
            gen.write_csv(d / "steps.csv", vid.steps)
            gen.write_csv(d / "clips.csv", vid.clips)
            argv += ["--steps", str(d / "steps.csv"), "--clips", str(d / "clips.csv")]
        argv += [
            "--temperature", repr(TEMPERATURE), "--drop-percentile", repr(PERCENTILE),
            "--emit-labels", "--out", str(d / "out.json"),
        ]
        return CliOp(proc, vid, costs, form, argv, d / "out.json")

    def run(self, op: CliOp):
        return self.cli.main(op.argv)

    def check(self, op: CliOp, code) -> Outcome:
        if code != 0:
            raise CheckFailed(f"exit code {code} for {' '.join(op.argv)}")
        raw = op.out.read_bytes()
        doc = json.loads(raw)
        dense = _dense(op.proc)
        tau = [dense[v] for v in doc["tau_star"]]
        labels = [lab if lab < 0 else dense[lab] for lab in doc["labels"]]
        drops = checks.drop_costs(op.costs, PERCENTILE)
        checks.grounding(op.proc, op.costs, drops, doc["cost"], tau, labels)
        if checks.oracle_applies(op.proc, len(drops)):
            self.oracle_checks += 1
            graph = self.fg.normalize(self.fg.parse_flow_graph(op.proc.document()))
            checks.oracle(self.fg, graph, op.proc, op.costs, drops, doc["cost"], tau, labels)
        if op.form not in self.first and op.out.parent.name != "warmup":
            self.first[op.form] = (op, raw)
        else:
            shutil.rmtree(op.out.parent)
        return Outcome(len(drops), checks.frame_accuracy(labels, op.video.labels))

    def finish(self) -> None:
        super().finish()
        for op, raw in self.first.values():
            code = self.cli.main(op.argv)
            if code != 0 or op.out.read_bytes() != raw:
                raise CheckFailed(f"repeating {' '.join(op.argv)} changed the output")


# -- train ---------------------------------------------------------------------


@dataclass(eq=False)
class TrainOp:
    argv: list[str]
    directory: Path
    groundings: list[tuple[gen.Proc, int]]  # (procedure, clips) per instance


class Train(Workload):
    """``flowground train`` on a fresh 20-instance dataset of two procedures."""

    name = "train"
    instances = 20
    clips_range = (100, 250)
    epochs = 2  # the least that shows the loss falling after one step
    lr = 1e-7  # small enough to stay in the linear regime: a correct gradient lowers the loss
    noise = 0.7

    def __init__(self, fg, seed, work):
        super().__init__(fg, seed, work)
        import flowground.cli

        self.cli = flowground.cli
        self.procs = [gen.chains((3, 3, 3)), gen.chains((2, 2, 2, 2))]

    def warmup(self) -> TrainOp:
        """A two-instance call: it loads what training touches first, at a tenth of an op's cost."""
        return self._make(0, self.rng(2), "warmup", instances=2)

    def make(self, slot: int, index: int) -> TrainOp:
        op = self._make(slot, self.rng(3, index), f"op{index}")
        self.note(op.groundings, csv=True)
        return op

    def _make(self, slot: int, rng, tag: str, instances: int = instances) -> TrainOp:
        d = self.work / tag
        lo, hi = self.clips_range
        groundings = []
        for i in range(instances):
            n_clips = lo + int(gen.stratified(self.instances * slot + i, self.offset) * (hi - lo + 1))
            proc = self.procs[i % len(self.procs)]
            gen.write_instance(d / f"instance_{i:03d}", proc, gen.video(rng, proc, n_clips, self.noise))
            groundings.append((proc, n_clips))
        argv = [
            "train", "--data", str(d), "--epochs", str(self.epochs),
            "--lr", repr(self.lr), "--temperature", repr(TEMPERATURE),
            "--trace", str(d / "trace.csv"),
        ]
        return TrainOp(argv, d, groundings)

    def run(self, op: TrainOp):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(op.argv)
        return code, out.getvalue()

    def check(self, op: TrainOp, result) -> Outcome:
        code, stdout = result
        if code != 0:
            raise CheckFailed(f"exit code {code} for {' '.join(op.argv)}")
        doc = json.loads(stdout)
        rows = (op.directory / "trace.csv").read_text().split()[1:]
        values = [float(x) for row in rows for x in row.split(",")[1:]]
        if len(rows) != self.epochs or not all(math.isfinite(x) for x in values):
            raise CheckFailed(f"trace has {len(rows)} rows for {self.epochs} epochs or is not finite")
        if not doc["final_loss"] < doc["initial_loss"]:
            raise CheckFailed(f"loss went from {doc['initial_loss']} to {doc['final_loss']}")
        accuracy = doc["final_accuracy"]
        if not 0.0 <= accuracy <= 1.0:
            raise CheckFailed(f"final_accuracy {accuracy} outside [0, 1]")
        shutil.rmtree(op.directory)
        return Outcome(sum(n for _, n in op.groundings) * self.epochs, accuracy)


WORKLOADS = {w.name: w for w in (GroundReuse, CliGround, Train)}
