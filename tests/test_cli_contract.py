"""The CLI exit-code contract over arbitrary input files and argv.

Every run goes through ``main(argv)`` in process.  No exception escapes
it except argparse's ``SystemExit(2)``, the code is one of 0-3, and code
1 comes only from ``audit`` or ``manipulate`` with findings.  No
``extern:`` rule is drawn, so no process is spawned.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import given, settings

from intervalagg import endpoint_rule_phantoms
from intervalagg.cli import main

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=12,
)

bounds = st.one_of(
    st.integers(-5, 5),
    st.floats(),
    st.sampled_from(["inf", "-inf", "Infinity", "wide", True, None, 10**400]),
)

valid_items = st.one_of(
    st.builds(
        lambda lo, width: {"lo": lo, "hi": lo + width},
        st.integers(-5, 5),
        st.integers(1, 4),
    ),
    st.sampled_from([{"lo": -1e308, "hi": 1e308}, {"lo": 0, "hi": 5e-324}]),
)

interval_items = st.one_of(
    valid_items, st.fixed_dictionaries({"lo": bounds, "hi": bounds}), json_values
)


def _phantom_items(lower_quota, upper_quota, n_agents):
    def spell(value):
        return value if abs(value) != float("inf") else str(value)

    vector = endpoint_rule_phantoms(lower_quota, upper_quota, n_agents)
    return [{"lo": spell(ph.lo), "hi": spell(ph.hi)} for ph in vector]


# Valid phantom vectors for n = 1..4, so phantom rules also get evaluated.
phantom_lists = st.one_of(
    st.sampled_from(
        [
            _phantom_items(p, q, n)
            for n in range(1, 5)
            for p in range(1, n + 1)
            for q in range(1, n + 2 - p)
        ]
    ),
    st.lists(interval_items, max_size=6),
)


def _encoded(documents):
    return documents.map(lambda doc: json.dumps(doc).encode("utf-8"))


# One document serves as both the profile and the phantom file.
valid_documents = _encoded(
    st.fixed_dictionaries(
        {
            "agents": st.lists(valid_items, min_size=1, max_size=5),
            "phantoms": phantom_lists,
        }
    )
)

messy_documents = _encoded(
    st.fixed_dictionaries(
        {
            "agents": st.lists(interval_items, max_size=5),
            "phantoms": phantom_lists,
        },
        optional={"labels": json_values},
    )
    | json_values
)

DEEP = 200000
special_files = st.sampled_from(
    [
        b"[" * DEEP + b"]" * DEEP,
        b'{"agents": [{"lo": 0, "hi": ' + b"[" * DEEP + b"]" * DEEP + b"}]}",
        b'{"agents": [{"lo": ' + b"[" * 500 + b"]" * 500 + b', "hi": 1}]}',
        b'{"agents": [{"lo": 0, "hi": 1' + b"0" * 4999 + b"}]}",
        b'{"agents": [{"lo": NaN, "hi": Infinity}]}',
        b'\xff{"agents": [{"lo": 0, "hi": 1}]}',
        b"",
    ]
)

# Mostly valid profiles, so that rules get evaluated.
file_contents = st.one_of(
    valid_documents, valid_documents, valid_documents, messy_documents, special_files
)


def _numbers(*values):
    return st.sampled_from([str(value) for value in values] + ["x"])


rules = st.one_of(
    st.sampled_from(
        ["median", "maximal", "averaging", "averaging", "PHANTOMS", "mystery"]
    ),
    st.builds(
        lambda p, q: f"endpoint:{p},{q}", st.integers(-1, 5), st.integers(-1, 5)
    ),
)

axioms = st.one_of(
    st.none(),
    st.sampled_from(
        ["Unanimity,Anonymity", "Manipulation", "StrongNeutrality", "NoSuch", ""]
    ),
)

prefs = st.sampled_from(
    [
        "weighted:1,1",
        "weighted:0,2",
        "weighted",
        "penalty:-2,9",
        "penalty:0,1",
        "weighted:nan,1",
        "penalty:1,0",
        "bogus",
    ]
)

timeouts = st.sampled_from(["5", "0.5", "nan", "inf", "-1", "1e9", "x"])
seeds = _numbers(0, 1, 7, -3, 10**30)


@st.composite
def invocations(draw, profile_path, out_path):
    command = draw(
        st.sampled_from(["aggregate", "audit", "identify", "manipulate", "sweep"])
    )
    rule = draw(rules)
    if rule == "PHANTOMS":
        rule = f"phantoms:{profile_path}"
    argv = [command]
    if command != "sweep":
        argv += ["--rule", rule, "--timeout", draw(timeouts)]
    if command in ("aggregate", "manipulate", "sweep"):
        argv += ["--profile", str(profile_path)]
    if command in ("audit", "identify"):
        argv += ["--n", draw(_numbers(*range(-1, 7)))]
        argv += ["--samples", draw(_numbers(*range(-1, 5)))]
    if command in ("audit", "identify", "manipulate"):
        argv += ["--seed", draw(seeds)]
    if command == "audit":
        chosen = draw(axioms)
        if chosen is not None:
            argv += ["--axioms", chosen]
    if command == "manipulate":
        argv += ["--agent", draw(_numbers(1, 1, 2, 3, 0, 6)), "--pref", draw(prefs)]
    if command in ("audit", "sweep"):
        argv += ["--out", str(out_path)]
    return argv


@settings(max_examples=150, deadline=None)
@given(content=file_contents, data=st.data())
def test_exit_code_contract(content, data):
    with tempfile.TemporaryDirectory() as tmp:
        profile_path = Path(tmp) / "input.json"
        profile_path.write_bytes(content)
        out_path = Path(tmp) / "out"
        argv = data.draw(invocations(profile_path, out_path), label="argv")
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(
                stderr
            ):
                code = main(argv)
        except SystemExit as exit:
            assert exit.code == 2
            return
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in stderr.getvalue()
        command = argv[0]
        if command == "audit" and code in (0, 1):
            report = json.loads(out_path.read_text())
            findings = any(r["failures"] for r in report["results"].values())
            assert (code == 1) == findings
        elif command == "manipulate" and code in (0, 1):
            assert (code == 1) == ("found manipulation" in stdout.getvalue())
        else:
            assert code != 1
