"""Formula model: parsing, evaluation, histograms, incidence graphs."""

import random
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from satmeter.biased import bias_profile, flipped_formula
from satmeter.metering import meter_scope
from satmeter import formula as fm
from satmeter.twosat import to_two_satisfiable
from satmeter.formula import (
    Formula,
    FormulaError,
    _byte_tokens,
    bfs_tree,
    clause_histogram,
    components,
    eval_assignment,
    incidence_graph,
    pack_clauses,
    parse_dimacs,
    serialize_assignment,
    serialize_dimacs,
)

import numpy as np

from conftest import (
    VertexIds,
    as_dict,
    clause_tuples,
    formulas_with_duplicates,
    random_formula,
)


def parse_assignment(text: str) -> dict[int, int]:
    """Read the ``v`` lines of a DIMACS assignment, `serialize_assignment`'s inverse."""
    phi = {}
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("v"):
            continue
        for tok in line.split()[1:]:
            lit = int(tok)
            if lit == 0:
                continue
            phi[abs(lit)] = 1 if lit > 0 else 0
    return phi


def test_parse_basic():
    f = parse_dimacs("p cnf 2 2\n1 2 0\n-1 0\n")
    assert f.n == 2
    assert f.r == 2
    assert clause_tuples(f) == ((1, 2), (-1,))


def test_parse_tautology_rejected():
    with pytest.raises(FormulaError):
        parse_dimacs("p cnf 1 1\n1 -1 0\n")


def test_parse_duplicate_literal_collapsed():
    f = parse_dimacs("p cnf 2 1\n1 1 2 0\n")
    assert clause_tuples(f) == ((1, 2),)


def test_parse_multiline_clause_and_comments():
    f = parse_dimacs("c hi\np cnf 3 1\n1\n2 -3 0\n")
    assert clause_tuples(f) == ((1, 2, -3),)


def test_parse_count_mismatch_warns():
    with pytest.warns(UserWarning):
        parse_dimacs("p cnf 2 5\n1 0\n")


def test_parse_errors():
    for text in ["", "1 0\n", "p cnf x y\n", "p dnf 1 1\n1 0\n"]:
        with pytest.raises(FormulaError):
            parse_dimacs(text)


def test_formula_literal_out_of_range():
    with pytest.raises(FormulaError):
        Formula(n=2, clauses=((3,),))


def test_formula_pinned_r_enforced():
    with pytest.raises(FormulaError):
        Formula(n=3, clauses=((1, 2, 3),), r=2)


def test_eval_examples():
    f = Formula(n=2, clauses=((1, 2), (-1,), (2,)))
    assert eval_assignment(f, [0, 1]) == 3
    assert eval_assignment(f, np.array([False, True])) == 3
    pair = Formula(n=1, clauses=((1,), (-1,)))
    assert eval_assignment(pair, [0]) == 1
    assert eval_assignment(pair, [1]) == 1
    empty = Formula(n=2, clauses=())
    assert eval_assignment(empty, np.ones(2, dtype=bool)) == 0


def test_eval_partial_assignment_rejected():
    """One value per variable: a shorter, longer or 2-D vector is rejected."""
    f = Formula(n=2, clauses=((1, 2),))
    for phi in ([1], [1, 0, 1], [[1, 0]], np.ones((2, 2), dtype=bool)):
        with pytest.raises(FormulaError, match="shape"):
            eval_assignment(f, phi)


def test_variable_cap():
    """n up to MAX_VARS parses; above it, header or constructor, is rejected."""
    assert parse_dimacs(f"p cnf {fm.MAX_VARS} 0\n").n == fm.MAX_VARS == 2**24
    for n in (fm.MAX_VARS + 1, 99999999999999999999):
        with pytest.raises(FormulaError, match="variable cap"):
            parse_dimacs(f"p cnf {n} 1\n1 0\n")
    with pytest.raises(FormulaError, match="variable cap"):
        Formula(n=fm.MAX_VARS + 1, clauses=((1,),))


def test_histogram_examples():
    f = Formula(n=2, clauses=((1, 2), (-1,), (2,)))
    assert clause_histogram(f) == {1: 2, 2: 1}
    assert clause_histogram(Formula(n=2, clauses=())) == {}
    assert clause_histogram(Formula(n=3, clauses=((1, 2, 3),))) == {3: 1}


def test_incidence_graph_example():
    # int ids: clause j is j - 1 and x_i is m + i, here x1 = 4 and x2 = 5
    f = Formula(n=2, clauses=((2, 1), (-1,), (2,)))
    assert incidence_graph(f) == {
        4: [0, 1],
        5: [0, 2],
        0: [5, 4],  # literal order
        1: [4],
        2: [5],
    }


def test_incidence_graph_trivial_cases():
    # a declared variable that occurs in no clause is not a vertex
    assert incidence_graph(Formula(n=2, clauses=())) == {}
    assert VertexIds(1).spelled(incidence_graph(Formula(n=1, clauses=((1,),)))) == {
        ("x", 1): [("C", 1)],
        ("C", 1): [("x", 1)],
    }
    graph = VertexIds(2).spelled(incidence_graph(Formula(n=5, clauses=((4, -2), (2,)))))
    assert list(graph.items()) == [  # the used variables ascending, then the clauses
        (("x", 2), [("C", 1), ("C", 2)]),
        (("x", 4), [("C", 1)]),
        (("C", 1), [("x", 4), ("x", 2)]),
        (("C", 2), [("x", 2)]),
    ]


def _reference_components(starts, graph, allowed):
    """The seen-set loop each caller of ``components`` used to write."""
    trees, seen = [], set()
    for start in starts:
        if start in seen or (allowed is not None and start not in allowed):
            continue
        tree = bfs_tree(start, graph, allowed)
        seen.update(tree)
        trees.append(tree)
    return trees


@given(st.integers(1, 12), st.data())
def test_components_match_seen_set_loop(size, data):
    edges = data.draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))))
    graph = {v: [] for v in range(size)}
    for a, b in edges:
        graph[a].append(b)
        graph[b].append(a)
    starts = data.draw(st.permutations(range(size)))
    starts = starts[: data.draw(st.integers(0, size))]
    allowed = data.draw(st.none() | st.sets(st.integers(0, size - 1)))
    got = [list(t.items()) for t in components(starts, graph, allowed)]
    want = [list(t.items()) for t in _reference_components(starts, graph, allowed)]
    assert got == want


def test_assignment_roundtrip():
    phi = np.array([True, False, True])
    assert serialize_assignment(phi) == "v 1 -2 3 0"
    assert parse_assignment("v 1 -2 3 0") == as_dict(phi)
    assert serialize_assignment(np.zeros(0, dtype=bool)) == "v  0"


@given(st.integers(1, 8), st.integers(0, 20), st.integers(0, 2**30))
def test_dimacs_roundtrip(n, m, seed):
    f = random_formula(random.Random(seed), n, m, min(3, n))
    parsed = parse_dimacs(serialize_dimacs(f))
    # r is re-inferred from the clauses on parse, so compare the structure
    assert (parsed.n, clause_tuples(parsed)) == (f.n, clause_tuples(f))


@given(st.integers(1, 8), st.integers(1, 20), st.integers(0, 2**30))
def test_pack_clauses_matches_eval(n, m, seed):
    rng = random.Random(seed)
    f = random_formula(rng, n, m, min(3, n))
    packed = pack_clauses(f)
    rows = np.array(
        [[rng.randint(0, 1) for _ in range(n)] for _ in range(5)],
        dtype=np.int64,
    )
    counts = packed.count_satisfied(rows)
    for row, count in zip(rows, counts):
        assert eval_assignment(f, row) == count


# --- the array core against the tuple code it replaced ---------------------


def _reference_clauses(n, clauses, r=0):
    """``Formula`` validation as it was, clause by clause over tuples:
    (clauses, r), or the FormulaError it raised."""
    clean = []
    for idx, clause in enumerate(clauses, start=1):
        seen = {}
        lits = []
        for lit in clause:
            var = abs(lit)
            if var < 1 or var > n:
                raise FormulaError(f"clause {idx}: literal {lit} out of range [1, {n}]")
            if var in seen:
                if seen[var] != lit:
                    raise FormulaError(f"tautological clause {idx}")
                continue
            seen[var] = lit
            lits.append(lit)
        if not lits:
            raise FormulaError(f"clause {idx} is empty")
        clean.append(tuple(lits))
    max_width = max((len(c) for c in clean), default=0)
    if r and max_width > r:
        raise FormulaError(f"clause width {max_width} exceeds pinned r={r}")
    return tuple(clean), r or max_width


def _reference_parse(text):
    """``parse_dimacs`` as it was, line by line: (n, clauses, r)."""
    n = declared_m = None
    clauses, current = [], []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise FormulaError(f"malformed header: {line!r}")
            try:
                n, declared_m = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise FormulaError(f"malformed header: {line!r}") from exc
            if n < 0 or declared_m < 0:
                raise FormulaError(f"malformed header: {line!r}")
            continue
        if n is None:
            raise FormulaError("clause data before 'p cnf' header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError as exc:
                raise FormulaError(f"bad token {tok!r}") from exc
            if lit == 0:
                if current:
                    clauses.append(tuple(current))
                    current = []
            else:
                current.append(lit)
    if current:
        clauses.append(tuple(current))
    if n is None:
        raise FormulaError("missing 'p cnf' header")
    return (n, *_reference_clauses(n, clauses))


def _outcome(fn, *args):
    """The value of ``fn(*args)``, or the text of the FormulaError it raised."""
    try:
        return fn(*args)
    except FormulaError as exc:
        return f"error: {exc}"


def _array_parse(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        f = parse_dimacs(text)
    return f.n, clause_tuples(f), f.r


# tokens the byte reader refuses or reads with care: signs, leading zeros,
# 19 digits (its limit is 18), and separators only the line reader splits at
ODD_TOKENS = ["x", "1.5", "+2", "1_0", "--1", "99999999999999999999999",
              "-99999999999999999999999", str(2**63), str(-(2**63)), str(2**63 - 1),
              "-0", "007", "-", "1-", "1000000000000000000", "-1000000000000000001",
              "0000000000000000002", "\x0b", "\x0c", "\xa0"]
ODD_HEADERS = ["p cnf x 2", "p dnf 2 1", "p cnf -1 1", "p cnf 2", "pcnf 2 1"]
COMMENTS = ["c a comment", "%", "  c 1 2 0", "", " \t ", "c", "%  0", "c non-ASCII: ∀x ¬x é"]


@st.composite
def dimacs_texts(draw):
    """DIMACS text: comments and '%' lines anywhere, clauses spread over
    lines, duplicate literals, tautologies, out-of-range literals, runs of
    terminators, a final clause without its 0, and now and then an odd
    token, a malformed header or clause data before the header."""
    n = draw(st.integers(0, 6))
    tokens = []
    lits = st.integers(-n - 1, n + 1).filter(bool)
    for clause in draw(st.lists(st.lists(lits, max_size=4), max_size=7)):
        tokens += [str(lit) for lit in clause] + ["0"] * draw(st.integers(0, 2))
    if tokens and draw(st.integers(0, 5)) == 0:
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(ODD_TOKENS)))
    lines, start = [], 0
    while start < len(tokens):
        stop = start + draw(st.integers(1, 5))
        lines.append(draw(st.sampled_from([" ", "  ", "\t"])).join(tokens[start:stop]))
        start = stop
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(COMMENTS)))
    header = f"p cnf {n} {draw(st.integers(0, 8))}"
    if draw(st.integers(0, 7)) == 0:
        header = draw(st.sampled_from(ODD_HEADERS))
    at = 0 if draw(st.integers(0, 7)) else draw(st.integers(0, len(lines)))
    lines.insert(at, header)
    if draw(st.integers(0, 3)) == 0:
        lines.insert(0, draw(st.sampled_from(COMMENTS)))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=400, deadline=None)
@given(dimacs_texts())
def test_parse_matches_tuple_reference(text):
    want = _outcome(_reference_parse, text)
    assert _outcome(_array_parse, text) == want
    assert _outcome(_array_parse, text.encode()) == want
    with mock.patch.object(fm, "_byte_tokens", lambda raw, cut: None):  # lines alone
        assert _outcome(_array_parse, text.encode()) == want


def _read_by_bytes(text: str) -> bool:
    """Whether ``parse_dimacs`` takes the byte tokenizer's literals."""
    got = []
    with mock.patch.object(fm, "_byte_tokens", lambda *a: got.append(_byte_tokens(*a)) or got[-1]):
        _outcome(_array_parse, text)
    return bool(got) and got[0] is not None


@pytest.mark.parametrize(
    "text, by_bytes",
    [
        ("p cnf 2 2\n1 -2 0\n2 0\n", True),
        ("p cnf 2 2\n1 -2 0\n2", True),  # no final 0 or line end
        ("c non-ASCII: ∀x\n%\np cnf 2 2\r\n1 -2 0\r\n\t2 0\r\n", True),
        ("p cnf 2 2\nc before any clause line\n1 -2 0\n2 0\n", True),
        ("p cnf 2 2\n-0 007 -2 0 2 0\n", True),
        ("p cnf 2 2\n1 -2 0\nc after a clause line\n2 0\n", False),
        ("p cnf 2 2\r1 -2 0\r2 0\r", False),  # the head runs to the first '\n'
        ("p cnf 2 2\r\n1 -2 0\r2 0\r", True),
        ("p cnf 2 2\n1 -2 0\n2 0\n%\n0\n", True),  # the SATLIB ending
        ("p cnf 2 2\n1 -2 0\nc after a clause line\n2 0\n%\n0\n", False),
        ("p cnf 2 2\n1 -2 0\n2 0\n%\x0c0\n", False),  # '\x0c' splits the line
        ("p cnf 2 2\n1\x0b-2 0\n2 0\n", False),
        ("p cnf 2 2\n1\xa0-2 0\n2 0\n", False),
        ("p cnf 2 2\n+1 -2 0\n2 0\n", False),
        ("p cnf 2 2\n1 -2 0\n2- 0\n", False),
        ("p cnf 2 2\n1 -2 0\n- 2 0\n", False),
        ("p cnf 2 2\n1 -2 0\n0000000000000000002 0\n", False),
        ("p cnf 2 1\np cnf 2 2\n1 -2 0\n2 0\n", True),
        ("1 -2 0\n", False),
        ("", False),
    ],
)
def test_byte_reader_takes_plain_clause_sections(text, by_bytes):
    """The byte reader reads what follows the last line holding a byte other
    than digits, '-' and ASCII blanks, when no clause line precedes it."""
    assert _read_by_bytes(text) == _read_by_bytes(text.encode()) == by_bytes
    assert _outcome(_array_parse, text) == _outcome(_reference_parse, text)


SATLIB_ENDINGS = [
    "p cnf 2 2\n1 -2 0\n2 0\n%\n0\n",
    "c SATLIB\r\np cnf 2 2\r\n1 -2 0\r\n2 0\r\n%\r\n0\r\n",
    "p cnf 3 2\n1 -2\n  %  ∀ a clause spans the trailer\n3 0\n",
    "p cnf 2 2\n1 -2 0\n2 0\n%",
    "p cnf 2 2\n%\n1 -2 0 2 0\n",
    "p cnf 2 2\n1 -2 0\n2 0\n%\n0\n0\n-1 2",
    "p cnf 2 2\n1 -2 0\n2 0\n%\n0\n\n",
]


@pytest.mark.parametrize("text", SATLIB_ENDINGS)
def test_satlib_ending_reads_by_bytes_as_by_lines(text):
    """When the last line holding a byte the byte reader does not take is
    a '%' line, the byte reader reads the clauses on both sides of it, and
    the formula is the line reader's."""
    assert _read_by_bytes(text) and _read_by_bytes(text.encode())
    with mock.patch.object(fm, "_byte_tokens", lambda raw, cut: None):  # lines alone
        by_lines = _array_parse(text.encode())
    assert _array_parse(text) == _array_parse(text.encode()) == by_lines
    assert by_lines == _reference_parse(text)


def test_parse_text_outside_utf8():
    """A lone surrogate in a str comment reads as before; undecodable bytes
    are reported where the whole input's decoding fails."""
    text = "c \ud800\np cnf 1 1\n1 0\n"
    assert _read_by_bytes(text) and _array_parse(text) == _reference_parse(text)
    for raw in [b"c \xff\np cnf 1 1\n1 0\n", b"p cnf 1 1\n1 0\n1 \xc3\n0\n", b"p cnf 1 1\n1 0 \xe2\x88",
                b"p cnf 1 1\n1 0\n% \xff\n0\n"]:
        with pytest.raises(UnicodeDecodeError) as exc:
            raw.decode("utf-8")
        with pytest.raises(FormulaError, match=f"^input is not UTF-8: {exc.value}$"):
            parse_dimacs(raw)


BOUNDARY_TOKENS = ["0", "-0", "007", "-007", "1", "-1", "9" * 18, "-" + "9" * 18,
                   "0" * 18, "-" + "0" * 18, "1" + "0" * 17, "-1" + "0" * 17, "0" * 17 + "1"]
BEYOND_TOKENS = ["1" + "0" * 18, "-1" + "0" * 18, "0" * 19, "0" * 18 + "1", "9" * 19,
                 str(2**63 - 1), str(-(2**63)), str(2**63), "9" * 30]


def test_byte_tokens_match_int_at_int64_boundary():
    """Tokens of up to 18 digits read as ``int`` reads them, also at the end
    of the input; a 19th digit sends the input to the line reader."""
    for end in ("\n", ""):
        raw = ("\n" + " \t".join(BOUNDARY_TOKENS) + end).encode()
        assert _byte_tokens(raw, 1).tolist() == [int(t) for t in BOUNDARY_TOKENS]
    for tok in BEYOND_TOKENS:
        assert _byte_tokens(f"\n1 {tok} 0\n".encode(), 1) is None
        text = f"p cnf 1 1\n1 {tok} 0\n"
        assert _outcome(_array_parse, text) == _outcome(_reference_parse, text)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 6),
    st.lists(st.lists(st.integers(-7, 7), max_size=4), max_size=6),
    st.sampled_from([0, 0, 2, 3, 70]),
)
def test_formula_validation_matches_tuple_reference(n, clauses, r):
    def array_core(n, clauses, r):
        f = Formula(n=n, clauses=clauses, r=r)
        return clause_tuples(f), f.r

    assert _outcome(array_core, n, clauses, r) == _outcome(
        _reference_clauses, n, clauses, r
    )


def _reference_serialize(f):
    lines = [f"p cnf {f.n} {f.m}"]
    lines += [" ".join(str(lit) for lit in clause) + " 0" for clause in clause_tuples(f)]
    return "\n".join(lines) + "\n"


def _reference_eval(f, phi):
    true_lits = {var if value else -var for var, value in phi.items()}
    return sum(not true_lits.isdisjoint(clause) for clause in clause_tuples(f))


def _reference_pack(f):
    """Each clause padded to the max width by repeating its last literal."""
    width = max((len(c) for c in clause_tuples(f)), default=1)
    var_idx = np.zeros((f.m, width), dtype=np.int64)
    negated = np.zeros((f.m, width), dtype=bool)
    for j, clause in enumerate(clause_tuples(f)):
        for s in range(width):
            lit = clause[min(s, len(clause) - 1)]
            var_idx[j, s], negated[j, s] = abs(lit) - 1, lit < 0
    return var_idx, negated


def _reference_bias(f):
    r = max(f.r, 1)
    scale = 1 << r
    per_var = {i: 0 for i in range(1, f.n + 1)}
    hist = {}
    for clause in clause_tuples(f):
        hist[len(clause)] = hist.get(len(clause), 0) + 1
        for lit in clause:
            per_var[abs(lit)] += (scale >> len(clause)) * (1 if lit > 0 else -1)
    b_star = 4 * sum(c * (scale - (w + 1) * (scale >> w)) for w, c in hist.items())
    neg_vars = frozenset(i for i, v in per_var.items() if v < 0)
    return r, scale, per_var, sum(map(abs, per_var.values())), b_star, hist, neg_vars


def _reference_two_sat(f):
    """The 2-satisfiable transform clause by clause: clauses (the flipped
    variables' units last) and flips.  A variable with p positive and q
    negative units is flipped iff q > p and keeps |p - q| copies of its
    majority unit, plus one when it has units of both signs."""
    units = [c[0] for c in clause_tuples(f) if len(c) == 1]
    pos = {v: units.count(v) for v in range(1, f.n + 1)}
    neg = {v: units.count(-v) for v in range(1, f.n + 1)}
    flip = {v for v in pos if neg[v] > pos[v]}
    copies = {v: abs(pos[v] - neg[v]) + (min(pos[v], neg[v]) >= 1) for v in pos}
    clauses = [
        tuple(-lit if abs(lit) in flip else lit for lit in c)
        for c in clause_tuples(f) if len(c) >= 2
    ]
    clauses += [(v,) for v in pos if v not in flip for _ in range(copies[v])]
    clauses += [(v,) for v in pos if v in flip for _ in range(copies[v])]
    return clauses, frozenset(flip)


def _passes(fn):
    with meter_scope("probe") as sc:
        out = fn()
    return out, sc.report.pass_counts


@settings(max_examples=300, deadline=None)
@given(formulas_with_duplicates(), st.integers(0, 2**30))
def test_readers_match_tuple_reference(f, seed):
    rng = random.Random(seed)
    assert serialize_dimacs(f) == _reference_serialize(f)
    phi = np.array([rng.randint(0, 1) for _ in range(f.n)], dtype=bool)
    values = as_dict(phi)
    assert eval_assignment(f, phi) == _reference_eval(f, values)
    text = "v " + " ".join(str(v if values[v] else -v) for v in sorted(values)) + " 0"
    assert serialize_assignment(phi) == text
    packed = pack_clauses(f)
    ref = _reference_pack(f)
    for got, want in zip((packed.var_idx, packed.negated), ref, strict=True):
        assert np.array_equal(got, want)
    rows = np.array([[rng.randint(0, 1) for _ in range(f.n)] for _ in range(4)], dtype=np.int64)
    want = [_reference_eval(f, {i + 1: int(v) for i, v in enumerate(row)}) for row in rows]
    assert packed.count_satisfied(rows).tolist() == want
    p = bias_profile(f)
    per_var = dict(enumerate(p.per_var.tolist()[1:], start=1))
    neg_vars = frozenset(np.flatnonzero(p.neg).tolist())
    assert (p.r, p.scale, per_var, p.b_f, p.b_star, p.histogram, neg_vars) == _reference_bias(f)


@settings(max_examples=300, deadline=None)
@given(formulas_with_duplicates(), st.integers(0, 2**30))
def test_transforms_match_tuple_reference(f, seed):
    clauses, flip = _reference_two_sat(f)
    ts, passes = _passes(lambda: to_two_satisfiable(f))
    fprime = ts.formula
    assert (clause_tuples(fprime), passes) == (tuple(clauses), {"twosat": 1, "input": 2})
    assert fprime.r == max(map(len, clauses), default=0)
    mask, passes = _passes(ts.flipped_vars)
    assert (frozenset(np.flatnonzero(mask).tolist()), passes) == (flip, {"twosat": 1, "input": 2})
    assert ts.clauses() == clauses
    neg_vars = frozenset(random.Random(seed).sample(range(1, f.n + 1), f.n // 2))
    flipped = [tuple(-lit if abs(lit) in neg_vars else lit for lit in c) for c in clause_tuples(f)]
    neg = np.isin(np.arange(f.n + 1), sorted(neg_vars))
    fp, passes = _passes(lambda: flipped_formula(f, neg))
    assert (fp.n, clause_tuples(fp), fp.r, passes) == (
        f.n, tuple(flipped), f.r, {"posbias": 1, "input": 1})
