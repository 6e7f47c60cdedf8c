"""The three workloads: their seeded inputs, their jobs and their checks.

A workload yields its jobs one cycle at a time; `cycle(i)` depends only on
the seed and `i`, so every run with the same seed sees the same inputs.
`run(job)` makes the timed calls into `cdga_config` and returns what the
check needs; `check(job, result)` compares it with `reference`, which owes
nothing to the package, and raises `JobFailed` on any disagreement.

Every call into the package goes through a module attribute
(`cio.load_algebra_data`, not a name imported from it), so the wrappers a
traced run installs see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import tempfile
from fractions import Fraction
from pathlib import Path

from cdga_config import algebra, cli, cone, poincare, presets, products, sullivan, twisted
from cdga_config import io as cio

import reference as ref

HERE = Path(__file__).resolve().parent


class JobFailed(Exception):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise JobFailed(what)


def rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-50, 50), rng.randint(1, 12))


def nonzero_rational(rng: random.Random) -> Fraction:
    while True:
        value = rational(rng)
        if value:
            return value


def by_label(elem) -> dict[str, Fraction]:
    labels = elem.parent.basis.labels
    return {labels[i]: c for i, c in elem.coeffs.items()}


def from_labels(space, pairs: dict[str, Fraction]):
    return space.from_label_coeffs({k: v for k, v in pairs.items() if v})


def forget_presets() -> None:
    """Empty the package's per-process preset cache, so an in-process CLI
    call pays what a fresh `cdga-config` process pays. Fails loudly if the
    cache moves, rather than let CLI jobs share presets unnoticed."""
    presets._cache.clear()


# --- ladder-fm2 ------------------------------------------------------------


class Ladder:
    """Each job is the whole F(C (x) B, 2) study of one pair of factors,
    rebuilt from the factors' documents so that no job reuses a cone or a
    truncation cached on an earlier job's algebras."""

    name = "ladder-fm2"
    cycle_seconds = 18.0   # one cycle of the five pairs on a quiet 2-CPU host
    # a factor named "a*b" is the product of two presets
    PAIRS = (("s2xs3", "s2"), ("cp2", "cp2"), ("s2xs3", "cp2"),
             ("s2xs3", "s3xs4"), ("s2*s2", "s2*s3"))

    def __init__(self, seed: int):
        self.seed = seed
        self.docs: dict[str, dict] = {}

    def cycle(self, index: int) -> list[tuple[str, str]]:
        pairs = list(self.PAIRS)
        random.Random(f"{self.name}:{self.seed}:{index}").shuffle(pairs)
        return pairs

    def warmup_jobs(self) -> list[tuple[str, str]]:
        return [self.PAIRS[0]]

    def kind(self, job) -> str:
        return "⊗".join(job)

    def setup(self) -> None:
        for pair in self.PAIRS:
            for factor in pair:
                if factor in self.docs:
                    continue
                parts = [presets.preset_pd(p) for p in factor.split("*")]
                pd = parts[0] if len(parts) == 1 else products.product_pd(*parts)
                self.docs[factor] = cio.dump_pd(pd)

    def teardown(self) -> None:
        pass

    def _load(self, factor: str):
        algebra_, n, epsilon, _ = cio.load_algebra_data(self.docs[factor], factor)
        return poincare.check_pd(algebra_, n, epsilon)

    def run(self, job):
        c = self._load(job[0])
        b = self._load(job[1])
        pd = products.product_pd(c, b)
        corr = products.diagonal_correspondence(c, b)
        mc = cone.cone_model(pd)
        top = mc.algebra.basis.max_degree()
        if pd.n % 2 == 0:
            parity = cone.even_model(pd).betti(top)
        else:
            twisted.truncate_cone(mc)
            parity = twisted.build_cxi(pd, pd.square.zero()).betti(top)
        quotient = twisted.quotient_by_diagonal(pd).betti(top)
        cone_betti = algebra.cohomology(mc.algebra).betti_vector(top)
        return {"n": pd.n, "cone_dim": mc.algebra.dim(), "corr": corr, "parity": parity,
                "quotient": quotient, "cone": cone_betti}

    def check(self, job, result) -> None:
        n, poly = ref.kunneth(*job[0].split("*"), *job[1].split("*"))
        want = ref.fm2_betti(n, poly)
        corr = result["corr"]
        require(result["n"] == n, f"formal dimension {result['n']} != {n}")
        require(result["cone_dim"] == ref.cone_dim(poly), "cone dimension")
        require(corr.sign in (1, -1), f"shuffle sign {corr.sign} is not +-1")
        require(corr.shuffle_multiplicative, "shuffle not multiplicative")
        for key in ("cone", "quotient", "parity"):
            require(ref.same_betti(result[key], want), f"{key} betti {result[key]} != {want}")
        for key in ("quotient_betti_factors", "quotient_betti_product"):
            got = getattr(corr, key)
            require(ref.same_betti(got, want), f"{key} {got} != {want}")


# --- twist-family ----------------------------------------------------------


class Twist:
    """Each job classifies six fresh rational twists over s2xs3, decides
    one equivalent and one inequivalent pair of twists, builds C(x) and
    checks one generator table. Fresh values per job keep any result cache
    from posing as a speed-up; the s2xs3 preset (and the cone cached on it)
    is shared, filled by the warm-up, as a library user's process shares it."""

    name = "twist-family"
    cycle_seconds = 0.3

    def __init__(self, seed: int):
        self.seed = seed

    def _job(self, rng: random.Random) -> dict:
        qs: list[Fraction] = []
        while len(qs) < 6:
            q = rational(rng)
            if q not in qs:
                qs.append(q)
        while True:
            a, b = rational(rng), rational(rng)
            if a + b:
                break
        return {"qs": tuple(qs), "a": a, "b": b, "t": nonzero_rational(rng)}

    def cycle(self, index: int) -> list[dict]:
        return [self._job(random.Random(f"{self.name}:{self.seed}:{index}"))]

    def warmup_jobs(self) -> list[dict]:
        return [self._job(random.Random(f"{self.name}:{self.seed}:warmup"))]

    def kind(self, job) -> str:
        return "job"

    def setup(self) -> None:
        pass

    def teardown(self) -> None:
        pass

    def run(self, job):
        pd = presets.preset_pd("s2xs3")
        square = pd.square
        qs, t = job["qs"], job["t"]
        matrix = sullivan.classify_example(qs)
        xi = from_labels(square, {"y⊗xy": qs[0], "xy⊗y": qs[1]})
        w_diag = ref.w_times_diagonal(job["a"], job["b"])
        xi_eq = from_labels(square, {"y⊗xy": qs[0] + w_diag["y⊗xy"],
                                     "xy⊗y": qs[1] + w_diag["xy⊗y"]})
        xi_ne = from_labels(square, {"y⊗xy": qs[0] + t, "xy⊗y": qs[1]})
        equivalent = twisted.decide_xi_equivalence(pd, xi, xi_eq)
        different = twisted.decide_xi_equivalence(pd, xi, xi_ne)
        model = twisted.c_of_x(pd, from_labels(pd.algebra, {"y": t}))
        table = sullivan.check_table(sullivan.s2xs3_table(qs[2], 0))
        return {"matrix": [[r.verdict for r in row] for row in matrix],
                "equivalent": equivalent, "different": different,
                "s1_square": by_label(model.s1_square()),
                "betti": model.betti(model.algebra.basis.max_degree()),
                "table_ok": table.all_pass}

    def check(self, job, result) -> None:
        k = len(job["qs"])
        want = [["exists" if i == j else "obstructed" for j in range(k)] for i in range(k)]
        require(result["matrix"] == want, f"verdicts {result['matrix']}")
        eq = result["equivalent"]
        require(isinstance(eq, twisted.EquivalentWitness), f"equivalent pair gave {eq!r}")
        # xi - xi' = -(w.diag), and w.diag = (w_(y(x)1) + w_(1(x)y))(y(x)xy + xy(x)y)
        w = by_label(eq.w)
        require(set(w) <= {"y⊗1", "1⊗y"}, f"witness w = {w}")
        require(sum(w.values()) == -(job["a"] + job["b"]), f"witness w = {w}")
        require(eq.difference_in_ideal and eq.quotients_isomorphic, "equivalence certificate")
        require(isinstance(result["different"], twisted.NotDecidedHere),
                f"inequivalent pair gave {result['different']!r}")
        require(result["s1_square"] == {"y⊗xy": job["t"]}, f"(S1)^2 = {result['s1_square']}")
        n, poly = ref.PRESETS["s2xs3"]
        require(ref.same_betti(result["betti"], ref.fm2_betti(n, poly)), "C(x) betti")
        require(result["table_ok"], "generator table check failed")


# --- cli-presets -----------------------------------------------------------

BAD_DUALITY = HERE / "data" / "bad_duality.json"
MISSING = HERE / "data" / "missing.json"
ODD_CXI = (("s3", "--xi", "0"), ("s5", "--x", "0"), ("s3xs4", "--xi", "0"))

# status each call must exit with; `cycle` must produce exactly these keys
EXPECTED_STATUS = {
    **{f"check:{p}": 0 for p in ref.PRESETS},
    **{f"diagonal:{p}": 0 for p in ref.PRESETS if p != "point"},
    **{f"betti-fm2:{p}": 0 for p in ref.PRESETS if p != "point"},
    **{f"cxi{flag}:{p}": 0 for p, flag, _ in ODD_CXI},
    "cxi--xi:s2xs3": 0,
    "cxi--x:s2xs3": 0,
    "classify-example": 0,
    "product:point,s2xs3": 0,
    "product:s2,s3": 0,
    "reject:malformed-expression": 1,
    "reject:missing-file": 1,
    "reject:bad-duality": 2,
    "reject:nonzero-xi-even": 3,
    "reject:wrong-degree-x": 3,
}


def term(c: Fraction, label: str) -> str:
    """`c*label` as the package prints a one-term element."""
    body = label if abs(c) == 1 else f"{abs(c)}*{label}"
    return body if c > 0 else f"-{body}"


class Cli:
    """Each job is one in-process `cli.main([..., "--json"])` call with its
    output captured, on the shipped presets. The preset cache is emptied
    before each call, as each real invocation starts a fresh process."""

    name = "cli-presets"
    cycle_seconds = 0.37

    def __init__(self, seed: int):
        self.seed = seed
        self.out_dir = HERE / "out" / "products"

    def _calls(self, rng: random.Random) -> list[tuple[str, list[str], dict]]:
        calls = []
        for p in ref.PRESETS:
            calls.append((f"check:{p}", ["check", p], {"preset": p}))
            if p != "point":
                calls.append((f"diagonal:{p}", ["diagonal", p], {"preset": p}))
                calls.append((f"betti-fm2:{p}", ["betti-fm2", p], {"preset": p}))
        for p, flag, expr in ODD_CXI:
            calls.append((f"cxi{flag}:{p}", ["cxi", p, f"{flag}={expr}"],
                          {"preset": p, "s1_square": "0"}))
        c = nonzero_rational(rng)
        calls.append(("cxi--xi:s2xs3", ["cxi", "s2xs3", f"--xi={c}*(y(x)xy)"],
                      {"preset": "s2xs3", "s1_square": term(c, "y⊗xy")}))
        c = nonzero_rational(rng)
        calls.append(("cxi--x:s2xs3", ["cxi", "s2xs3", f"--x={c}*y"],
                      {"preset": "s2xs3", "s1_square": term(c, "y⊗xy")}))
        q = nonzero_rational(rng)
        r = q + nonzero_rational(rng)
        calls.append(("classify-example", ["classify-example", f"--q={q},{r}"],
                      {"q_values": [str(q), str(r)]}))
        for a, b in (("point", "s2xs3"), ("s2", "s3")):
            out = str(self.out_dir / f"product_{a}_{b}.json")
            calls.append((f"product:{a},{b}", ["product", a, b, "--out", out],
                          {"factors": (a, b), "out": out}))
        calls += [
            ("reject:malformed-expression", ["cxi", "s2xs3", "--xi=1*(y(x)xy"], {}),
            ("reject:missing-file", ["check", str(MISSING)], {}),
            ("reject:bad-duality", ["check", str(BAD_DUALITY)], {}),
            ("reject:nonzero-xi-even", ["cxi", "s2", "--xi=(x(x)x)"], {}),
            ("reject:wrong-degree-x", ["cxi", "s2xs3", "--x=x"], {}),
        ]
        rng.shuffle(calls)
        return [(key, argv + ["--json"], facts) for key, argv, facts in calls]

    def cycle(self, index: int):
        return self._calls(random.Random(f"{self.name}:{self.seed}:{index}"))

    def warmup_jobs(self):
        return self._calls(random.Random(f"{self.name}:{self.seed}:warmup"))

    def kind(self, job) -> str:
        return job[0]

    def setup(self) -> None:
        (HERE / "out").mkdir(exist_ok=True)
        self.out_dir = Path(tempfile.mkdtemp(prefix="products-", dir=HERE / "out"))

    def teardown(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run(self, job):
        forget_presets()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(job[1])
        return status, out.getvalue(), err.getvalue()

    def check(self, job, result) -> None:
        key, argv, facts = job
        status, out, err = result
        want = EXPECTED_STATUS[key]
        require(status == want, f"{key}: exit {status}, expected {want}: {err.strip()}")
        if key.startswith("reject:"):
            prefix = {1: "parse error", 3: "precondition violated"}.get(want)
            require(prefix is None or err.startswith(prefix), f"{key}: stderr {err!r}")
            if want == 2:
                require(json.loads(out)["ok"] is False, f"{key}: report not marked failed")
            return
        report = json.loads(out)
        require(report["ok"] is True, f"{key}: report not ok")
        command = argv[0]
        if "preset" in facts:
            n, poly = ref.PRESETS[facts["preset"]]
            require(report["formal_dimension"] == n, f"{key}: formal dimension")
            require(all(a["ok"] for a in report["axioms"]), f"{key}: axioms")
        if command == "diagonal":
            require(len(report["dual_basis"]) == sum(poly), f"{key}: dual basis size")
            require(len(report["delta_table"]) == sum(poly), f"{key}: delta table size")
        elif command == "betti-fm2":
            want_betti = ref.fm2_betti(n, poly)
            for column in ("quotient", "cone"):
                got = [row[column] for row in report["betti"]]
                require(ref.same_betti(got, want_betti), f"{key}: {column} {got}")
        elif command == "cxi":
            require(report["dimension"] == ref.truncated_cone_dim(n, poly), f"{key}: dimension")
            require(ref.same_betti(report["betti"], ref.fm2_betti(n, poly)), f"{key}: betti")
            require(report["s1_square"] == facts["s1_square"], f"{key}: (S1)^2")
        elif command == "classify-example":
            require(report["q_values"] == facts["q_values"], f"{key}: q values")
            require(report["matrix"] == [["exists", "obstructed"], ["obstructed", "exists"]],
                    f"{key}: verdicts {report['matrix']}")
        elif command == "product":
            n, poly = ref.kunneth(*facts["factors"])
            require(report["formal_dimension"] == n, f"{key}: formal dimension")
            require(report["shuffle_sign"] in ("1", "-1"), f"{key}: shuffle sign")
            require(report["shuffle_multiplicative"], f"{key}: shuffle not multiplicative")
            require(ref.same_betti(report["quotient_betti_product"], ref.fm2_betti(n, poly)),
                    f"{key}: quotient betti")
            written = json.loads(Path(facts["out"]).read_text(encoding="utf-8"))
            degrees = [item["degree"] for item in written["basis"]]
            require([degrees.count(k) for k in range(n + 1)] == poly, f"{key}: written basis")


WORKLOADS = {w.name: w for w in (Ladder, Twist, Cli)}
