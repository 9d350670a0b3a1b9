"""One cold solve of a workload in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload unitary --seed 1

Set-up builds the tori, engines and character lists of every part of the
workload; the timed solve then runs the parts in order, and its outputs are
checked outside the timed part.  `--trace 1` wraps the library (see
tracer.py) for set-up and solve and restores it before the checks.  The
library is imported from `src/` of the checkout this file sits in.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


class Run:
    """The state of one part of a workload run: instances, failures, outputs."""

    def __init__(self, part, seed):
        self.seed = seed
        self.w = part
        self.instances = []  # dicts: cls, label, torus, chars, picks (character indices), values
        self.failures = {}  # (label, exc type, stage) -> [message, failed values]
        self.setup_failures = {}  # label -> failure key
        self.attempted = 0
        self.failed = 0

    def label(self, cls):
        return wl.instance_label(self.w.group, cls.parts)

    def picks(self, size):
        return wl.character_indices(size, self.w.characters)

    def fail(self, label, stage, exc):
        key = (label, type(exc).__name__, stage)
        where = traceback.extract_tb(exc.__traceback__)[-1]
        self.failures.setdefault(key, [f"{exc} ({os.path.basename(where.filename)}:{where.lineno} in {where.name})", 0])
        return key

    def charge(self, key, values):
        self.failures[key][1] += values
        self.failed += values

    def count_attempts(self, values_per_character):
        """Attempted values per torus class come from the torus class data, so
        a torus that failed to build still counts."""
        for cls in self.classes:
            values = len(self.picks(math.prod(cls.cyclic_orders(self.w.q)))) * values_per_character
            self.attempted += values
            if self.label(cls) in self.setup_failures:
                self.charge(self.setup_failures[self.label(cls)], values)

    def setup(self):
        from dlperiods import dlchar, groups, tori

        self.spec = groups.GroupSpec(self.w.family, self.w.n, self.w.q)
        self.classes = tori.torus_classes(self.w.family, self.w.n)
        for cls in self.classes:
            label = self.label(cls)
            stage = "tori.instantiate"
            try:
                T = tori.instantiate(cls, self.spec)
                stage = "dlchar.engine"
                dlchar.engine(T, 1)
                stage = "tori.characters"
                chars = tori.characters(T)
            except Exception as exc:  # recorded per instance, the run goes on
                self.setup_failures[label] = self.fail(label, stage, exc)
                continue
            self.instances.append({"cls": cls, "label": label, "torus": T, "chars": chars, "picks": self.picks(len(chars)), "values": {}})

    def solve(self, clock):
        """Durations of the solve's steps in order, and how many of them make
        the first result."""
        if self.w.kind == "sweep":
            return self.solve_sweep(clock), 4  # the class stages and the first table
        steps = self.solve_values(clock, self.sample())
        return steps, sum(len(inst["picks"]) for inst in self.instances)  # the identity's row

    def check(self):
        return self.check_sweep() if self.w.kind == "sweep" else self.check_values()

    # -- sweeps ---------------------------------------------------------------
    def solve_sweep(self, clock):
        """Enumeration, generators and classes, then one DL table per step.

        dl_table would start the class computation itself; calling its three
        cached stages first only times them as steps of their own."""
        from dlperiods import dlchar, groups

        G = groups.group(self.spec)
        steps = []
        t = clock()
        for stage in (G.elements, G.generators, G.conjugacy_classes):
            stage()
            now = clock()
            steps.append(now - t)
            t = now
        for inst in self.instances:
            for c in wl.visiting_order(self.seed, inst["picks"]):
                try:
                    inst["values"][c] = dlchar.dl_table(inst["torus"], inst["chars"][c])
                except Exception as exc:  # recorded per instance, the run goes on
                    inst["values"][c] = self.fail(inst["label"], "dlchar.dl_table", exc)
                now = clock()
                steps.append(now - t)
                t = now
        n_classes = len(G.conjugacy_classes())
        self.count_attempts(n_classes)
        for inst in self.instances:
            for table in inst["values"].values():
                if isinstance(table, tuple):
                    self.charge(table, n_classes)
        return steps

    def check_sweep(self):
        from dlperiods import cyclotomic, green, groups, intpoly

        checks = {}
        G = groups.group(self.spec)
        classes = G.conjugacy_classes()
        order = groups.group_order(self.spec)
        total = sum(size for _, size in classes)
        checks[f"{self.w.group} class sizes sum to |G|"] = (total == order, f"{total} vs {order}")
        ident = G.key(G.identity)
        id_index = next(i for i, (rep, _) in enumerate(classes) if G.key(rep) == ident)
        digests = {}
        for inst in self.instances:
            label = inst["label"]
            tables = [inst["values"][c] for c in inst["picks"]]
            if any(isinstance(t, tuple) for t in tables):
                continue
            degree = intpoly.evaluate(green.degree_poly(self.w.family, self.w.n, inst["cls"].parts), self.w.q)
            bad_degree = [i for i, t in enumerate(tables) if t[id_index][2] != degree]
            checks[f"{label} degree law"] = (not bad_degree, f"{len(bad_degree)} characters off")
            M = inst["chars"][0].conductor
            bad_norm = []
            for i, t in enumerate(tables):
                vec = wl.weighted_norm_vector([(size, v) for _, size, v in t], M)
                if vec is None:
                    bad_norm.append((i, "not integral"))
                    continue
                acc = cyclotomic.RootOfUnitySum(M)
                for k, w in enumerate(vec):
                    if w:
                        acc.add_root(k, w)
                s = acc.value()
                if not s.is_rational_integer() or s.integer_value() % order or s.integer_value() <= 0:
                    bad_norm.append((i, repr(s)))
            checks[f"{label} <R,R> positive integer"] = (not bad_norm, str(bad_norm[:3]))
            rows = [(size, [wl.canonical(t[k][2], M) for t in tables]) for k, (_, size) in enumerate(classes)]
            digests[label] = wl.table_digest(rows)
        return checks, digests

    # -- sampled values --------------------------------------------------------
    def sample(self):
        """The sampled elements: fixed inputs, made without the library."""
        if self.w.family == "GL":  # q is prime on the GL values workloads
            return wl.gl_sample(self.w.n, self.w.q, self.w.sample)
        return wl.U3F3_SAMPLE

    def solve_values(self, clock, sample):
        """Rows of values at the identity, then at the sample in the seeded
        order, one value per step; values are keyed by (index in the sample,
        character), and the identity's index is -1."""
        from dlperiods import dlchar

        # The identity comes first: its row is the cold first result, and
        # its values are checked against the degree law.
        identity = tuple(tuple(int(i == j) for j in range(self.w.n)) for i in range(self.w.n))
        elements = [(-1, identity)] + wl.visiting_order(self.seed, enumerate(sample))
        steps = []
        t = clock()
        for i, g in elements:
            for inst in self.instances:
                for c in inst["picks"]:
                    try:
                        inst["values"][i, c] = dlchar.dl_value(inst["torus"], inst["chars"][c], g)
                    except Exception as exc:  # recorded per instance, the run goes on
                        self.charge(self.fail(inst["label"], "dlchar.dl_value", exc), 1)
                    now = clock()
                    steps.append(now - t)
                    t = now
        self.count_attempts(len(elements))
        return steps

    def check_values(self):
        from dlperiods import green, intpoly

        checks = {}
        bad_degree, non_integral = [], 0
        digests = {}
        for inst in self.instances:
            values = inst["values"]
            degree = intpoly.evaluate(green.degree_poly(self.w.family, self.w.n, inst["cls"].parts), self.w.q)
            if any(values.get((-1, c)) != degree for c in inst["picks"]):
                bad_degree.append(inst["label"])
            non_integral += sum(1 for v in values.values() if wl.integer_coeffs(v) is None)
            if len(values) == len(inst["picks"]) * (self.w.sample + 1):
                M = inst["chars"][0].conductor
                digests[inst["label"]] = wl.text_digest(f"{i}:{c}:{wl.canonical(values[i, c], M)}" for i, c in sorted(values))
        checks[f"{self.w.group} degree law at the identity"] = (not bad_degree, str(bad_degree))
        checks[f"{self.w.group} values are cyclotomic integers"] = (non_integral == 0, f"{non_integral} not integral")
        return checks, digests


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    clock = time.perf_counter
    runs = [Run(part, args.seed) for part in wl.WORKLOADS[args.workload]]
    tracer = tr.Tracer(clock) if args.trace else None
    if tracer is not None:
        tr.install(tracer)
    for run in runs:
        run.setup()
    out = {"setup_s": clock() - START}
    steps, first_steps = [], None
    for run in runs:
        part_steps, part_first = run.solve(clock)
        if first_steps is None:
            first_steps = part_first
        steps += part_steps
    out.update(steps=steps, first_steps=first_steps, first_result_s=sum(steps[:first_steps]), solve_s=sum(steps))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.restore()
        out["layers"] = tr.layer_metrics(tracer)
        out["trace"] = tracer.dump()
    out["checks"], out["digests"], out["failures"] = {}, {}, []
    for run in runs:
        checks, digests = run.check()
        out["checks"].update((k, list(v)) for k, v in checks.items())
        out["digests"].update(digests)
        out["failures"] += [
            {"instance": k[0], "error": k[1], "stage": k[2], "message": v[0], "values": v[1]} for k, v in run.failures.items()
        ]
    out["attempted"] = sum(run.attempted for run in runs)
    out["failed"] = sum(run.failed for run in runs)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
