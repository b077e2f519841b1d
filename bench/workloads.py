"""Seeded inputs for the three workloads, with answers known by construction.

Every op is one CLI command.  Each op that reads a presentation gets its own
freshly generated ``.dalg`` file, so no op can reuse another op's engine
cache.  The answers an op is checked against come from how its input was
built (the template row it instantiates, the paper's smoothness criteria,
the golden files), never from running diffalg.

A workload is a list of rounds.  A round has a fixed mix of op shapes; the
seed picks the coefficients (and which template rows come first), while the
shapes, and for ``reduce`` the words, are the same for every seed, so runs
of different seeds do about the same work.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import reference

WORKLOADS = ("verify", "reduce", "classify")

# Rows of generate_templates(n, "full") whose verdict is Smooth by the paper's
# criteria, with the theorem case each one proves.  A verify round has one
# op per case for every size in VERIFY_SIZES, and one op at n = 5 (about
# five times the cost of an n = 4 op) whose case cycles with the round.
SMOOTH_CASES = ("i", "ii", "iii", "iv")
VERIFY_SIZES = (3, 4)
VERIFY_LARGE = 5

# The fixtures and the case the criteria give them: p1 is A_I with T empty,
# p3 is C on one two-sided component with one shared coupling, p4 has no
# interacting index and every pair two-sided, b1 is B with one bystander.
VERIFY_FIXTURES = {"p1": "i", "p3": "ii", "p4": "iv", "b1": "iii"}

# Known row counts of generate_templates(n, "full").
FULL_ROW_COUNTS = {3: 19, 4: 79, 5: 364, 6: 1820, 7: 9776}
GOLDEN_TABLES = {3: "tables_n3_paper.txt", 4: "tables_n4_paper.txt"}

# Deep words D1^k D2^k on homogeneous quantum planes.  The engine reduces
# them recursively, one stack frame per rewrite, and k*k rewrites are needed:
# k <= 30 stays under the default recursion limit and k >= 33 does not.
# Each run makes DEEP_OK_PER_ROUND ops of the first kind in every round and
# DEEP_FAIL_PER_RUN of the second in its first round only, so the failures
# stay fewer than the ten ops beyond the tail percentile.
DEEP_OK_K = (24, 30)
DEEP_FAIL_K = (33, 40)
DEEP_OK_PER_ROUND = 2
DEEP_FAIL_PER_RUN = 4


class Op:
    """One CLI command and what its output must show."""

    __slots__ = ("op_id", "argv", "kind", "expect")

    def __init__(self, op_id: str, argv: list, kind: str, expect: dict):
        self.op_id = op_id
        self.argv = argv
        self.kind = kind
        self.expect = expect

    def to_json(self) -> dict:
        return {"id": self.op_id, "argv": self.argv}


def _value(rng: random.Random) -> Fraction:
    """A small nonzero rational: mostly integers, sometimes halves or thirds."""
    num = rng.choice((1, 2, 3, 4, 5)) * rng.choice((1, -1))
    den = rng.choice((1, 1, 1, 2, 3))
    return Fraction(num, den)


def _fmt_indices(indices) -> str:
    return " ".join(map(str, indices)) if indices else "-"


def _fmt_components(comps) -> str:
    return " ".join("{" + ",".join(map(str, c)) + "}" for c in comps) if comps else "-"


def _smooth_case(skel):
    """Theorem case the paper's criteria give a row instantiated by ``_instantiate``.

    Returns None for rows the criteria do not call Smooth.  ``_instantiate``
    draws every free coefficient nonzero, so every pair inside one component
    is two-sided, and it gives the couplings of cases ii and iii one shared
    value.
    """
    if skel.T_circ or skel.T_bullet:
        return None
    if skel.family == "A_I":
        return "i"
    if skel.family == "C" and len(skel.R_components) == 1:
        return "ii"
    if skel.family == "B":
        return "iii"
    if skel.family == "D" and len(skel.R_components) == 1:
        return "iv"
    return None


def _shared_names(skel) -> list:
    """Parameters that must share one value for the row's Smooth case."""
    case = _smooth_case(skel)
    if case == "ii":
        return [f"g{r}" for r in skel.R_components[0]]
    if case == "iii":
        return [f"g{s}" for s in skel.S]
    return []


def _instantiate(skel, rng: random.Random):
    """Seeded admissible values for every parameter of ``skel``."""
    from diffalg.templates import TemplateError, instantiate_template

    shared = _shared_names(skel)
    for _ in range(1000):
        values = {name: _value(rng) for name in skel.params}
        if shared:
            common = _value(rng)
            for name in shared:
                values[name] = common
        try:
            return instantiate_template(skel, values)
        except TemplateError:
            continue
    raise RuntimeError(f"no admissible values found for a {skel.family} row")


class _Writer:
    """Writes each op's input file into the work directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0
        self.seen: set = set()

    def next_id(self, prefix: str) -> str:
        self.count += 1
        return f"{prefix}-{self.count:05d}"

    def dalg(self, op_id: str, draw) -> tuple:
        """Write the first text ``draw()`` gives that no earlier op of the run has.

        ``draw`` returns (canonical .dalg text, anything); equal texts are
        equal presentations, which would share one engine cache.  Returns the
        file's path and the second item of the draw that was written.
        """
        for _ in range(1000):
            text, payload = draw()
            if text not in self.seen:
                break
        else:
            raise RuntimeError(f"no new presentation found for op {op_id}")
        self.seen.add(text)
        path = self.workdir / f"{op_id}.dalg"
        path.write_text(text, encoding="utf-8")
        return str(path), payload


def _rescaled(table: reference.Table, factor: Fraction) -> str:
    """``.dalg`` text of the same algebra with every relation multiplied by ``factor``.

    The relations generate the same ideal and every coefficient pattern is
    kept, so every answer is unchanged, but the presentation is a new one.
    """
    return reference.Table(
        table.n, {k: v * factor for k, v in table.g.items() if v},
        {k: v * factor for k, v in table.x.items() if v}).render()


def _table(P) -> reference.Table:
    """The coefficients of a diffalg presentation as a reference table."""
    pairs = [(i, j) for i in range(1, P.n + 1) for j in range(1, P.n + 1) if i != j]
    return reference.Table(P.n, {(i, j): P.g(i, j) for i, j in pairs},
                           {i: P.x(i) for i in range(1, P.n + 1)})


class VerifyWorkload:
    """``smooth FILE`` on tables that are Smooth by construction."""

    def __init__(self, root: Path, rng: random.Random, writer: _Writer):
        from diffalg.templates import generate_templates

        self.rng = rng
        self.writer = writer
        self.rows = {}
        for n in VERIFY_SIZES + (VERIFY_LARGE,):
            by_case = {case: [] for case in SMOOTH_CASES}
            for skel in generate_templates(n, "full"):
                case = _smooth_case(skel)
                if case is not None:
                    by_case[case].append(skel)
            self.rows[n] = by_case
        # rows are taken in turn from a seeded starting point, so every run
        # covers the rows of each case about evenly
        self.offset = rng.randrange(1000)
        fixtures = root / "tests" / "fixtures"
        self.fixtures = {
            name: reference.parse_table((fixtures / f"{name}.dalg").read_text(encoding="utf-8"))
            for name in VERIFY_FIXTURES}

    def round(self, index: int) -> list:
        shapes = [(n, case) for n in VERIFY_SIZES for case in SMOOTH_CASES]
        shapes.append((VERIFY_LARGE, SMOOTH_CASES[index % len(SMOOTH_CASES)]))
        ops = []
        for n, case in shapes:
            rows = self.rows[n][case]
            skel = rows[(self.offset + index) % len(rows)]
            op_id = self.writer.next_id("verify")
            path, _ = self.writer.dalg(op_id, lambda: (_instantiate(skel, self.rng).render(), None))
            listed = _expected_classification(skel)
            ops.append(Op(op_id, ["smooth", path], "smooth", {
                "case": case, "family": skel.family, "I": listed["I"],
                "S": listed["S"], "T": "-"}))
        for name, case in VERIFY_FIXTURES.items():
            op_id = self.writer.next_id("verify")
            table = self.fixtures[name]
            path, _ = self.writer.dalg(
                op_id, lambda: (_rescaled(table, _value(self.rng)), None))
            ops.append(Op(op_id, ["smooth", path], "smooth", {"case": case}))
        return ops


def _uniform_table(n: int, rng: random.Random) -> reference.Table:
    """Every generator interacting, one coefficient on every pair (family A_I)."""
    g = _value(rng)
    return reference.Table(
        n, {(i, j): g for i in range(1, n + 1) for j in range(1, n + 1) if i != j},
        {i: _value(rng) for i in range(1, n + 1)})


def _plane(rng: random.Random, homogeneous: bool) -> reference.Table:
    x = {} if homogeneous else {1: _value(rng), 2: _value(rng)}
    return reference.Table(2, {(1, 2): _value(rng), (2, 1): _value(rng)}, x)


def _word_text(word) -> str:
    return " ".join(f"D{a}" for a in word)


def _shuffled_word(rng: random.Random, letters) -> tuple:
    letters = list(letters)
    rng.shuffle(letters)
    return tuple(letters)


# Words of the uniform-table and plane ops come from fixed pools, the same
# for every seed, so runs of different seeds do the same rewriting; round r
# uses word r % WORD_POOL of each pool.  The seed draws the coefficients.
WORD_POOL = 12


def _word_pool(shape: str, letters) -> list:
    rng = random.Random(f"reduce-words:{shape}")
    return [_shuffled_word(rng, letters) for _ in range(WORD_POOL)]


class ReduceWorkload:
    """``reduce FILE EXPR`` on words over seeded tables."""

    # (generators, occurrences of each generator) of the uniform-table words.
    # The short words are repeated so that more than half of a round's ops are
    # short queries: the median then sits inside that cluster.
    UNIFORM_SHAPES = ((3, 2), (3, 2), (3, 2), (3, 3), (3, 4), (3, 5), (4, 2), (4, 2), (4, 3))
    # degrees of the words on inhomogeneous quantum planes
    PLANE_DEGREES = (8, 8, 8, 12, 16, 20)

    def __init__(self, root: Path, rng: random.Random, writer: _Writer):
        self.rng = rng
        self.writer = writer
        self.uniform_words = [
            (n, _word_pool(f"uniform-{i}-{n}-{k}", [a for a in range(1, n + 1) for _ in range(k)]))
            for i, (n, k) in enumerate(self.UNIFORM_SHAPES)]
        self.plane_words = [
            _word_pool(f"plane-{i}-{d}", [1] * (d // 2) + [2] * (d - d // 2))
            for i, d in enumerate(self.PLANE_DEGREES)]

    def _op(self, make_table, expr: str, extra: dict | None = None) -> Op:
        op_id = self.writer.next_id("reduce")

        def draw():
            table = make_table(self.rng)
            return table.render(), table

        path, table = self.writer.dalg(op_id, draw)
        expect = {"table": table, "expr": expr}
        expect.update(extra or {})
        return Op(op_id, ["reduce", path, expr], "reduce", expect)

    def round(self, index: int) -> list:
        rng = self.rng
        pick = index % WORD_POOL
        ops = []
        for n, words in self.uniform_words:
            ops.append(self._op(lambda r, n=n: _uniform_table(n, r), _word_text(words[pick])))
        # the cyclic word (D1 D2 D3)^5 minus a seeded multiple of D3 D2 D1
        ops.append(self._op(lambda r: _uniform_table(3, r),
                            f"{_word_text((1, 2, 3) * 5)} - {abs(_value(rng))} D3 D2 D1"))
        for words in self.plane_words:
            ops.append(self._op(lambda r: _plane(r, False), _word_text(words[pick])))
        for _ in range(DEEP_OK_PER_ROUND):
            ops.append(self._deep(rng.randint(*DEEP_OK_K)))
        if index == 0:
            for _ in range(DEEP_FAIL_PER_RUN):
                ops.append(self._deep(rng.randint(*DEEP_FAIL_K)))
        return ops

    def _deep(self, k: int) -> Op:
        return self._op(lambda r: _plane(r, True), f"D1^{k} D2^{k}", {"deep_k": k})


class ClassifyWorkload:
    """``check-pbw`` and ``classify`` on template rows, and ``tables``.

    The rows of generate_templates(n, "full") for n = 5 and 6 (364 + 1820)
    are taken in a seeded order, ROWS_PER_ROUND per round and starting over
    when all are used.  Each row is instantiated at seeded values, and its
    check-pbw and classify ops each get that instantiation rescaled by their
    own seeded factor: rows come round again within a run and some have no
    parameter at all, so only the rescaling keeps every op's presentation
    new.  The ``tables`` ops run once, in the first round.
    """

    ROW_SIZES = (5, 6)
    ROWS_PER_ROUND = 546
    FULL_SIZES = (3, 4, 5, 6, 7)

    def __init__(self, root: Path, rng: random.Random, writer: _Writer):
        from diffalg.templates import generate_templates

        self.rng = rng
        self.writer = writer
        rows = [skel for n in self.ROW_SIZES for skel in generate_templates(n, "full")]
        self.rows = rng.sample(rows, len(rows))
        golden = root / "tests" / "golden"
        self.golden = {n: (golden / name).read_text(encoding="utf-8")
                       for n, name in GOLDEN_TABLES.items()}

    def round(self, index: int) -> list:
        ops = []
        if index == 0:
            for n, text in self.golden.items():
                ops.append(Op(self.writer.next_id("classify"),
                              ["tables", str(n), "--mode", "paper"], "tables-paper",
                              {"text": text}))
            for n in self.FULL_SIZES:
                ops.append(Op(self.writer.next_id("classify"),
                              ["tables", str(n), "--mode", "full"], "tables-full",
                              {"n": n, "count": FULL_ROW_COUNTS[n]}))
        start = (index * self.ROWS_PER_ROUND) % len(self.rows)
        for skel in self.rows[start:start + self.ROWS_PER_ROUND]:
            table = _table(_instantiate(skel, self.rng))
            for command, kind, expect in (
                    ("check-pbw", "check-pbw", {"pbw": "true"}),
                    ("classify", "classify", _expected_classification(skel))):
                op_id = self.writer.next_id("classify")
                path, _ = self.writer.dalg(
                    op_id, lambda: (_rescaled(table, _value(self.rng)), None))
                ops.append(Op(op_id, [command, path], kind, expect))
        return ops


def _expected_classification(skel) -> dict:
    """The lines ``classify`` must print for an instantiation of ``skel``."""
    n = skel.n
    R = tuple(a for a in range(1, n + 1) if a not in skel.I)
    if len(skel.I) >= 2:
        comps = ((skel.S,) if skel.S else ()) + skel.T_circ + skel.T_bullet
        S = skel.S
    else:
        comps = skel.R_components
        S = R
    return {
        "n": str(n),
        "I": _fmt_indices(skel.I),
        "R": _fmt_indices(R),
        "components": _fmt_components(tuple(sorted(comps, key=min))),
        "S": _fmt_indices(S),
        "Tcirc": _fmt_components(skel.T_circ),
        "Tbullet": _fmt_components(skel.T_bullet),
        "family": skel.family,
    }


_CLASSES = {"verify": VerifyWorkload, "reduce": ReduceWorkload,
            "classify": ClassifyWorkload}


def build(name: str, root: Path, seed: int, workdir: Path, rounds: int) -> list:
    """``rounds`` rounds of ops for workload ``name``, files written to ``workdir``."""
    rng = random.Random(f"{name}:{seed}")
    workload = _CLASSES[name](root, rng, _Writer(workdir))
    return [workload.round(index) for index in range(rounds)]
