"""The three benchmark workloads and their oracles.

Every workload is built from a ``Package`` (freshly imported modules) and
the benchmark seed.  It yields ``(round, item)`` pairs, where an item is
plain data (cheap to make and safe to replay) and the items of one round
together cost about the same in every round; it runs one item in ``run``
(the timed part) and checks the result in ``check`` (untimed), which
returns an error text or None.
``fingerprint`` reduces a result to the value that traced and untraced
runs of the same item must agree on.

* ``mhs_suite``: random mixed Hodge structures through every invariant
  (the c03 and c06 acceptance traffic).
* ``cli_docs``: a seeded document corpus written in set-up, one in-process
  ``cli.main`` call per item (the command line user's path).
* ``lambda_grid``: stratify passes over the worked lambda grids (the c10
  traffic).
"""

from __future__ import annotations

import contextlib
import copy
import csv
import hashlib
import io
import itertools
import json
import os
import random
from fractions import Fraction

MAX_DIM = 8


# -- helpers shared by the workloads ------------------------------------

def second_difference(table: dict) -> dict:
    """Nonzero second mixed differences of an f-table (independent oracle
    for the bigraded dimensions)."""
    out = {}
    for (p, q), v in table.items():
        d = (v - table.get((p + 1, q), 0) - table.get((p, q + 1), 0)
             + table.get((p + 1, q + 1), 0))
        if d:
            out[(p, q)] = d
    return out


def frac_json(a: Fraction):
    return int(a) if a.denominator == 1 else [a.numerator, a.denominator]


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in JSON output")


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def stratified_mhs_keys(pkg, tag: str):
    """Endless (round, dimension, seed key) stream for ``random_mhs(max_dim=8)``.

    Draw costs grow steeply with the dimension (a dimension-8 draw costs
    about 1000 times a dimension-1 draw), and the sampler alone gives an
    uneven mix: about 16% of its structures have dimension 1 and 8% have
    dimension 8 (868 draws, see README.md).  So that the mix does not
    dominate the spread between runs, each round of eight covers every
    dimension 1..8 once, in a seeded order.  A key is taken for a target
    dimension when the draw on that key will come out at that size, which
    ``_proposed_dim`` tells from the sampler's cheap proposal stage alone.
    The draw itself, rejected proposals included, is an ordinary
    ``random_mhs`` call.
    """
    for rnd in itertools.count():
        order = list(range(1, MAX_DIM + 1))
        random.Random(f"{tag}:round:{rnd}").shuffle(order)
        for dim in order:
            for j in itertools.count():
                key = f"{tag}:{rnd}:{dim}:{j}"
                if _proposed_dim(pkg, random.Random(key)) == dim:
                    yield rnd, dim, key
                    break


def _proposed_dim(pkg, rng: random.Random) -> int:
    """Size of the first proposal that ``random_mhs`` keeps for realising.

    This follows the sampler's documented loop: a diamond is drawn, and
    half of the time (the generic-flag branch) it is dropped unless
    generic position can realise it.  Realisation itself, which could
    still reject a degenerate draw, is not run here; if the sampler's loop
    changes, the rounds only get less even.
    """
    sampling = pkg.sampling
    while True:
        h = sampling.random_hodge_diamond(rng, MAX_DIM)
        if rng.random() < 0.5 and not sampling.generically_realizable(h):
            continue
        return sum(h.values())


def draw_mhs(pkg, key: str):
    return pkg.sampling.random_mhs(random.Random(key), max_dim=MAX_DIM)


class Workload:
    """Defaults for the hooks a workload may leave out."""

    setup_repeats = 15
    rss_rounds = 8  # complete rounds before the peak memory is read

    def __init__(self, pkg, seed: int, workdir: str, pause=None) -> None:
        self.pkg = pkg
        self.seed = seed
        # a long set-up calls this between its steps (untimed calibration)
        self.pause = pause or (lambda: None)

    def before(self, item) -> None:
        """Untimed preparation of one item."""

    def raised(self, item, exc: BaseException) -> None:
        """Called instead of ``check`` when ``run`` raised."""

    def digest(self) -> str | None:
        """Digest of every output of one pass over a fixed corpus."""
        return None

    def digest_error(self) -> str | None:
        return None

    def known_defects(self) -> dict:
        """Untimed probes of known program defects: name -> outcome."""
        return {}

    def notes(self) -> dict:
        """Workload facts for the result stamp."""
        return {}


# -- mhs_suite ----------------------------------------------------------

class MhsSuite(Workload):
    """A seeded stream of ``random_mhs(max_dim=8)`` draws; each draw goes
    through h, s, f, both alpha routes, the Deligne splitting and the
    R-split test.  Caches persist for the run: one long-lived process, like
    the c03 and c06 acceptance tests."""

    name = "mhs_suite"

    def __init__(self, pkg, seed: int, workdir: str, pause=None) -> None:
        super().__init__(pkg, seed, workdir, pause)
        self.off_target = 0

    def items(self):
        for rnd, dim, key in stratified_mhs_keys(self.pkg, f"mhs_suite:{self.seed}"):
            yield rnd, (dim, key)

    def run(self, item):
        _dim, key = item
        mf, inv, mhs = self.pkg.multifilt, self.pkg.invariants, self.pkg.mhs
        m = draw_mhs(self.pkg, key)
        t = m.triple()
        pieces = mhs.deligne_splitting(m)
        return {
            "n": m.ambient_dim,
            "h": mf.hodge_numbers(t),
            "s": mf.bigraded_dims(t),
            "f": mf.f_table(t),
            "alpha": inv.alpha(t),
            "alpha_f": inv.alpha_via_f_expansion(t),
            "pieces": {pq: v.dim for pq, v in pieces.items()},
            "r_split": mhs.is_r_split(m),
        }

    def check(self, item, out) -> str | None:
        # a draw off its round's dimension makes rounds uneven, not wrong
        self.off_target += out["n"] != item[0]
        if out["alpha"] != out["alpha_f"]:
            return f"alpha routes disagree: {out['alpha']} vs {out['alpha_f']}"
        if out["alpha"] < 0:
            return f"negative alpha {out['alpha']}"
        if second_difference(out["f"]) != out["s"]:
            return "second difference of f differs from the bigraded dims"
        if out["pieces"] != out["h"]:
            return "Deligne piece dimensions differ from the Hodge numbers"
        if sum(out["h"].values()) != out["n"]:
            return "Hodge numbers do not add up to the dimension"
        if (out["alpha"] == 0) != out["r_split"]:
            return f"alpha {out['alpha']} but r_split {out['r_split']}"
        return None

    def fingerprint(self, out):
        return (out["n"], str(out["alpha"]), out["r_split"],
                tuple(sorted(out["h"].items())))

    def notes(self) -> dict:
        return {"off_target_items": self.off_target}


# -- lambda_grid ----------------------------------------------------------

class LambdaGrid(Workload):
    """Stratify passes: build a worked grid family, then ``alpha_map``, the
    hypothesis H audit and the semicontinuity report."""

    name = "lambda_grid"

    FAMILIES = ("conjugate", "kappa")
    RADII = (2, 3, 4)

    def items(self):
        # every (family, radius) pair once per round, so the grid sizes
        # (25, 49 and 81 fibers) stay balanced; the step 1/den is free
        combos = [(f, r) for f in self.FAMILIES for r in self.RADII]
        for rnd in itertools.count():
            rng = random.Random(f"lambda_grid:{self.seed}:{rnd}")
            order = combos[:]
            rng.shuffle(order)
            for family, radius in order:
                yield rnd, (family, radius, rng.randint(2, 12))

    def before(self, item) -> None:
        self.pkg.clear_caches()  # each pass stands for one script run

    def run(self, item):
        family, radius, den = item
        fams = self.pkg.families
        build = (fams.lambda_conjugate_grid if family == "conjugate"
                 else fams.lambda_kappa_grid)
        fam = build(radius, Fraction(1, den))
        report = fams.alpha_map(fam)
        audit = fams.hypothesis_H_audit(fam, report)
        sem = fams.semicontinuity_report(fam, report)
        return {
            "npoints": len(fam.parameters),
            "alphas": report.alphas,
            "deviating": {i for _, off in audit.deviations for i in off},
            "suspects": sem.suspects,
        }

    def check(self, item, out) -> str | None:
        family, radius, _den = item
        side = 2 * radius + 1
        if out["npoints"] != side * side:
            return f"{out['npoints']} points on a {side}x{side} grid"
        # point (ia, ib) sits at index ia * side + ib; the defect vanishes
        # on the real axis (ib at the centre) or on the diagonal ia == ib
        if family == "conjugate":
            zero = {ia * side + radius for ia in range(side)}
        else:
            zero = {i * side + i for i in range(side)}
        got_zero = {i for i, a in enumerate(out["alphas"]) if a == 0}
        if got_zero != zero:
            return "defect-0 locus is off the expected line"
        if any(a not in (0, 1) for a in out["alphas"]):
            return "defect outside {0, 1}"
        if out["suspects"]:
            return f"semicontinuity suspects {out['suspects']}"
        if family == "conjugate" and out["deviating"] != zero:
            return "audit deviations differ from the defect-0 locus"
        return None

    def fingerprint(self, out):
        return tuple(str(a) for a in out["alphas"])


# -- cli_docs -------------------------------------------------------------

# (subcommand, input shape) of the structure documents
MHS_SHAPES = (("invariants", "triple"), ("check-mhs", "mhs"), ("deligne-split", "mhs"),
              ("alpha", "triple"), ("alpha", "mhs"))
MHS_ROUNDS = 10  # each (dimension, subcommand, shape) triple twice: 80 structures
# cheap documents outnumber the structure documents, so the median latency
# sits among them (parsing, dumping, curves) and p90 among the structures
GENUS0_DOCS = 50
GENUS1_DOCS = 30
NON_OPPOSED_DOCS = 3
NON_REAL_WEIGHT_DOCS = 3
COINCIDENT_DOCS = 2
MUTATIONS = ("drop_key", "wrong_type", "truncate")


def _mutate(kind: str, doc: dict, shape: str, wrong="5") -> str:
    """Fixed malformed-document recipe; returns the file text.  The
    ``wrong_type`` mutation puts ``wrong`` where an array belongs."""
    if kind == "truncate":
        text = json.dumps(doc)
        return text[: len(text) // 2]
    bad = copy.deepcopy(doc)
    if kind == "drop_key":
        del bad[{"triple": "W", "mhs": "W", "curve": "genus", "family": "fibers"}[shape]]
    elif shape in ("triple", "mhs"):
        bad["W"]["levels"][0]["vectors"] = wrong
    else:
        bad[{"curve": "pairs", "family": "edges"}[shape]] = wrong
    return json.dumps(bad)


class CliDocs(Workload):
    """In-process ``cli.main`` calls over a corpus written in set-up; a
    round is one full pass over the corpus, so all rounds do the same
    work."""

    name = "cli_docs"
    # set-up draws the corpus structures (about 12 s on a 2-core box); two
    # repeats keep a run inside its time budget
    setup_repeats = 2
    rss_rounds = 1

    def __init__(self, pkg, seed: int, workdir: str, pause=None) -> None:
        super().__init__(pkg, seed, workdir, pause)
        self.workdir = workdir
        self.out_path = os.path.join(workdir, "out.txt")
        self.docs: list[dict] = []
        self.defect_docs: list[dict] = []
        self._cycle: list[str] = []
        self.cycle_digests: list[str] = []
        self._build_corpus()

    # corpus -------------------------------------------------------------

    def _add(self, argv: list[str], expect: int, text: str | None = None, **check) -> None:
        idx = len(self.docs)
        if text is not None:
            path = os.path.join(self.workdir, f"doc{idx:03d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            argv = [argv[0], "--in", path, *argv[1:]]
        self.docs.append({"id": idx, "argv": [*argv, "--out", self.out_path],
                          "expect": expect, **check})

    def _build_corpus(self) -> None:
        pkg = self.pkg
        inv, mf, filt, fams, linalg = (pkg.invariants, pkg.multifilt,
                                       pkg.filtration, pkg.families, pkg.linalg)
        ex = pkg.exactfield
        rng = random.Random(f"cli_docs:{self.seed}:corpus")
        keys = stratified_mhs_keys(pkg, f"cli_docs:{self.seed}")
        # one structure per document and every (dimension, subcommand and
        # shape) triple equally often: structure costs grow steeply with the
        # dimension and differ by subcommand, so this keeps the corpus cost
        # from swinging with the seed
        structs = []
        for _ in range(MHS_ROUNDS * MAX_DIM):
            rnd, dim, key = next(keys)
            m = draw_mhs(pkg, key)
            self.pause()
            # expected defect on the in-memory object, no JSON round trip
            a = inv.alpha_via_f_expansion(m.triple())
            self.pause()
            structs.append((m, a))
            command, shape = MHS_SHAPES[(rnd + dim) % len(MHS_SHAPES)]
            doc = m.triple().to_json() if shape == "triple" else m.to_json()
            checks = {}
            if command != "deligne-split":
                checks["alpha"] = frac_json(a)
            if command in ("invariants", "deligne-split"):
                checks["rank"] = m.ambient_dim
            if command in ("check-mhs", "deligne-split"):
                checks["r_split"] = a == 0
            self._add([command], 0, json.dumps(doc), **checks)

        def point(z):
            return "inf" if z is None else [z.real, z.imag]

        genus0 = []
        for k in range(GENUS0_DOCS):
            m, n = rng.randint(2, 4), rng.randint(1, 3)
            pts: list = []
            while len(pts) < m + 2 * n:
                z = complex(rng.randint(-40, 40) / 4, rng.randint(-40, 40) / 4)
                if z not in pts:
                    pts.append(z)
            if k % 2:
                pts[m] = None  # first pair starts at infinity
            cfg = {"genus": 0, "punctures": [point(z) for z in pts[:m]],
                   "pairs": [[point(pts[m + 2 * j]), point(pts[m + 2 * j + 1])]
                             for j in range(n)]}
            genus0.append(cfg)
            self._add(["curve-alpha"], 0, json.dumps(cfg), curve_rows=m - 1)
        for _ in range(GENUS1_DOCS):
            tau = complex(rng.randint(-4, 4) / 8, rng.randint(8, 16) / 10)
            m, n = rng.randint(2, 3), rng.randint(1, 2)
            grid = [(a, b) for a in range(10) for b in range(10)]
            chosen = rng.sample(grid, m + 2 * n)
            pts = [a / 10 + b / 10 * tau for a, b in chosen]
            cfg = {"genus": 1, "tau": [tau.real, tau.imag],
                   "punctures": [point(z) for z in pts[:m]],
                   "pairs": [[point(pts[m + 2 * j]), point(pts[m + 2 * j + 1])]
                             for j in range(n)]}
            self._add(["curve-alpha"], 0, json.dumps(cfg), curve_rows=m - 1)

        families = []
        for build in (fams.lambda_conjugate_grid, fams.lambda_kappa_grid):
            fam = build(1, Fraction(1, rng.randint(2, 12)))
            families.append(fams.family_to_json(fam))
            text = json.dumps(families[-1])
            self._add(["stratify"], 0, text, grid_side=3)
            self._add(["stratify", "--format", "csv"], 0, text, grid_side=3)
        self._add(["selftest", "--seed", str(self.seed % 1000)], 0, selftest=True)

        # domain-invalid documents: parse fine, rejected by the mathematics
        for m, _a in structs[:NON_OPPOSED_DOCS]:
            t = m.triple()
            bad = mf.TrifilteredSpace(t.ambient_dim, W=t.W, F=t.F,
                                      G=filt.shift(t.G, 1))
            self._add(["alpha"], 1, json.dumps(bad.to_json()))
        big = [m for m, _a in structs if m.ambient_dim >= 2]
        for m in big[:NON_REAL_WEIGHT_DOCS]:
            n = m.ambient_dim
            v = [ex.gauss(1, 1), ex.gauss(1)] + [ex.gauss(rng.randint(-3, 3))
                                                 for _ in range(n - 2)]
            w = filt.filtered_space(n, {0: linalg.span([v], n),
                                        1: linalg.zero_subspace(n)})
            doc = {"ambient_dim": n, "W": w.to_json(), "F": m.F.to_json()}
            self._add(["check-mhs"], 1, json.dumps(doc))
        for cfg in genus0[:COINCIDENT_DOCS]:
            bad = copy.deepcopy(cfg)
            bad["punctures"][1] = bad["punctures"][0]
            self._add(["curve-alpha"], 1, json.dumps(bad))

        # malformed documents: a fixed mutation of one valid base per command
        m0 = structs[len(structs) // 2][0]
        bases = (
            ("invariants", m0.triple().to_json(), "triple"),
            ("check-mhs", m0.to_json(), "mhs"),
            ("deligne-split", m0.to_json(), "mhs"),
            ("alpha", m0.triple().to_json(), "triple"),
            ("curve-alpha", genus0[0], "curve"),
            ("stratify", families[0], "family"),
        )
        for command, base, shape in bases:
            for kind in MUTATIONS:
                self._add([command], 2, _mutate(kind, base, shape))

        random.Random(f"cli_docs:{self.seed}:order").shuffle(self.docs)

        # a number where an array belongs: today a level's vectors and a
        # curve's pairs let a TypeError escape cli.main (ROADMAP item 4).
        # No timed item may fail, so these run once, untimed, after the
        # timed loop, and the stamp reports what each one did.
        for command, base, shape in bases:
            path = os.path.join(self.workdir, f"defect-{command}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_mutate("wrong_type", base, shape, wrong=5))
            self.defect_docs.append(
                {"id": f"{command} number for an array",
                 "argv": [command, "--in", path, "--out", self.out_path]})

    # items ----------------------------------------------------------------

    def items(self):
        for cycle in itertools.count():
            for doc in self.docs:
                yield cycle, doc

    def before(self, doc) -> None:
        self.pkg.clear_caches()  # each call stands for one fresh CLI process
        if os.path.exists(self.out_path):
            os.remove(self.out_path)

    def run(self, doc):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = self.pkg.cli.main(doc["argv"])
        return {"code": code, "err": err.getvalue()}

    def check(self, doc, out) -> str | None:
        """Reads the ``--out`` file into ``out["out"]``, then checks."""
        out["out"] = None
        if os.path.exists(self.out_path):
            with open(self.out_path, encoding="utf-8") as fh:
                out["out"] = fh.read()
        try:
            return self._check(doc, out)
        finally:
            self._record(doc, self.fingerprint(out))

    def _check(self, doc, out) -> str | None:
        code, text, err = out["code"], out["out"], out["err"]
        if code not in (0, 1, 2):
            return f"exit code {code!r}"
        if code != doc["expect"]:
            return f"exit {code}, expected {doc['expect']}"
        if code:
            try:
                obj = strict_json(err)
            except ValueError:
                return "stderr is not JSON"
            if not isinstance(obj, dict) or set(obj) != {"error"}:
                return "stderr is not an {error} object"
            return None
        if err:
            return "stderr written on success"
        if text is None:
            return "no output written"
        if doc.get("selftest"):
            return None if text.splitlines()[-1] == "4/4 passed" else "selftest failed"
        if "--format" in doc["argv"]:
            rows = list(csv.reader(io.StringIO(text)))
            side = doc["grid_side"]
            if len(rows) != side * side + 1 or rows[0][0] != "label":
                return "csv shape"
            col = rows[0].index("alpha")
            zeros = sum(1 for r in rows[1:] if r[col] == "0")
            return None if zeros == side else "csv defect-0 count"
        try:
            rep = strict_json(text)
        except ValueError as exc:
            return f"output is not strict JSON: {exc}"
        if "alpha" in doc and rep.get("alpha") != doc["alpha"]:
            return f"alpha {rep.get('alpha')!r}, expected {doc['alpha']!r}"
        if "r_split" in doc and rep.get("r_split") is not doc["r_split"]:
            return "r_split disagrees with alpha"
        if "rank" in doc:
            rank = rep.get("rank")
            if rank is None:
                rank = sum(len(pc["vectors"]) for pc in rep["pieces"])
            if rank != doc["rank"]:
                return f"rank {rank}, expected {doc['rank']}"
        if "curve_rows" in doc:
            rows = rep.get("rows", [])
            if len(rows) != doc["curve_rows"]:
                return "curve report row count"
            if "moduli" in (rows[0] if rows else {}):
                off = sum(1 for r in rows if any(abs(x - 1.0) > 1e-9 for x in r["moduli"]))
                if rep["alpha"] != off:
                    return "genus 0 alpha disagrees with the reported moduli"
            elif not 0 <= rep["alpha"] <= doc["curve_rows"]:
                return "genus 1 alpha out of range"
        if "grid_side" in doc:
            side = doc["grid_side"]
            zeros = sum(1 for p in rep["points"] if p["alpha"] == 0)
            if len(rep["points"]) != side * side or zeros != side:
                return "strata report shape"
        return None

    def fingerprint(self, out):
        # error texts name the input file; its temporary directory differs
        # from run to run, the rest of the output must not
        text = json.dumps([out["code"], out["out"], out["err"]])
        return hashlib.sha256(text.replace(self.workdir, "DIR").encode()).hexdigest()

    def raised(self, doc, exc: BaseException) -> None:
        self._record(doc, f"raised {type(exc).__name__}")

    def known_defects(self) -> dict:
        """Run each known-defect document once; returns what it did, an
        exit code with its error text or the exception that escaped."""
        outcomes = {}
        for doc in self.defect_docs:
            self.before(doc)
            try:
                out = self.run(doc)
            except Exception as exc:  # the defect: an exception escapes the CLI
                outcomes[doc["id"]] = f"raised {type(exc).__name__}: {exc}"
            else:
                err = " ".join(out["err"].replace(self.workdir, "DIR").split())
                outcomes[doc["id"]] = f"exit {out['code']} {err}"
        return outcomes

    def _record(self, doc, fp: str) -> None:
        """Fold each full pass over the corpus into one digest."""
        self._cycle.append(f"{doc['id']}:{fp}")
        if len(self._cycle) == len(self.docs):
            self.cycle_digests.append(
                hashlib.sha256("\n".join(self._cycle).encode()).hexdigest())
            self._cycle = []

    def digest(self) -> str | None:
        return self.cycle_digests[0] if self.cycle_digests else None

    def digest_error(self) -> str | None:
        if len(set(self.cycle_digests)) > 1:
            return "corpus output digest changed between passes"
        return None


WORKLOADS = {w.name: w for w in (MhsSuite, CliDocs, LambdaGrid)}
