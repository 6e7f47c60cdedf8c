"""Fuzzing of the input boundary: whatever coefficient, expression or
document structure a user supplies, `cli.main` ends with one of the
documented exit statuses (0 success, 1 parse error, 2 failed check,
3 precondition) and never lets an exception escape. Calls run in-process;
no subprocess per example."""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from cdga_config.cli import main
from cdga_config.presets import PRESET_NAMES, preset_path

STATUSES = {0, 1, 2, 3}


def run_quietly(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


# --- coefficients in preset documents ------------------------------------------

DOCUMENTS = {name: json.loads(preset_path(name).read_text(encoding="utf-8"))
             for name in PRESET_NAMES}

# hand-picked troublemakers, plus arbitrary text and arbitrary JSON scalars
coefficients = st.one_of(
    st.sampled_from(["1/0", "-3/0", "0/0", "0.5", "1e3", "−1", "−1/2", "", " ", "+2",
                     "2/4", "1/-2", "--1", "1//2", "٣", "q", "-q", "3*q", "1_000"]),
    st.text(alphabet="0123456789/-+−*.e qx ", max_size=8),
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=True),
    st.lists(st.integers(), max_size=2),
)


def coefficient_slots(doc):
    """Setters for every coefficient of a document: product terms, the
    differential and the orientation."""
    slots = []
    for entry in doc.get("products", []):
        for term in entry["result"]:
            slots.append(lambda value, term=term: term.update(coeff=value))
    for entry in doc.get("differential", []):
        slots.append(lambda value, entry=entry: entry.update(coeff=value))
    for label in doc["orientation"]:
        slots.append(lambda value, label=label: doc["orientation"].update({label: value}))
    return slots


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(PRESET_NAMES), data=st.data())
def test_mutated_coefficients_end_in_a_documented_status(workdir, name, data):
    doc = json.loads(json.dumps(DOCUMENTS[name]))
    slots = coefficient_slots(doc)
    for index in data.draw(st.lists(st.integers(0, len(slots) - 1), min_size=1, max_size=3)):
        slots[index](data.draw(coefficients))
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    assert run_quietly(["check", str(path)]) in STATUSES


# --- --xi, --x and --q strings ---------------------------------------------------

pieces = st.sampled_from([
    "0", "1", "2", "-", "+", "*", "/", "/0", "1/0", "3/4", "−", "(", ")", " ", ",",
    "y", "x", "xy", "1", "(y(x)xy)", "(xy(x)y)", "y⊗xy", "(x)", "e3", ".5", "q", "⊗",
])
expressions = st.lists(pieces, max_size=8).map("".join)


@settings(max_examples=100, deadline=None)
@given(flag=st.sampled_from(["--xi", "--x", "--q"]), text=expressions)
@example(flag="--xi", text="--")  # argparse turns this value into an empty list
def test_flag_expressions_end_in_a_documented_status(flag, text):
    if flag == "--q":
        argv = ["classify-example", f"--q={text}"]
    else:
        argv = ["cxi", "s2xs3", f"{flag}={text}"]
    assert run_quietly(argv) in STATUSES


# --- the structure of algebra documents ------------------------------------------

# the shipped presets have no differential entry, so this one carries both a
# product and a differential entry
WITH_DIFFERENTIAL = {
    "name": "l3",
    "formal_dimension": 3,
    "basis": [{"label": "1", "degree": 0}, {"label": "a", "degree": 1},
              {"label": "b", "degree": 2}, {"label": "ab", "degree": 3}],
    "unit": "1",
    "products": [{"left": "a", "right": "b", "result": [{"label": "ab", "coeff": "1"}]}],
    "differential": [{"from": "a", "to": "b", "coeff": "1"}],
    "orientation": {"ab": "1"},
    "flags": {"simply_connected": False},
}
STRUCTURED = {"s2xs3": DOCUMENTS["s2xs3"], "l3": WITH_DIFFERENTIAL}

# (owner, field): a top-level field, or a field of the first product or
# differential entry
FIELDS = ([(None, key) for key in WITH_DIFFERENTIAL]
          + [("products", key) for key in ("left", "right", "result")]
          + [("differential", key) for key in ("from", "to", "coeff")])
DROP = object()
replacements = st.one_of(
    st.just(DROP), st.none(), st.booleans(), st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=3),
    st.lists(st.one_of(st.integers(-2, 2), st.text(max_size=2)), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
)


# stands for the mutated object in the document text until it is written out
PLACEHOLDER = "\x00mutated object"


def with_repeated_field(doc, owner, key, value) -> str:
    """The document as JSON text, where the object that holds the field
    writes it a second time, with `value`, after all its fields."""
    target = doc if owner is None else doc[owner][0]
    pairs = [*target.items(), (key, value)]
    text = "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v, ensure_ascii=False)}"
                           for k, v in pairs) + "}"
    if owner is None:
        return text
    doc[owner][0] = PLACEHOLDER
    return json.dumps(doc, ensure_ascii=False).replace(json.dumps(PLACEHOLDER), text)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(sorted(STRUCTURED)), field=st.sampled_from(FIELDS),
       value=replacements, repeat=st.booleans())
@example(name="s2xs3", field=(None, "products"), value=5, repeat=False)
@example(name="l3", field=(None, "differential"), value=None, repeat=False)
@example(name="l3", field=("products", "result"), value=7, repeat=False)
@example(name="l3", field=(None, "formal_dimension"), value=4, repeat=True)
@example(name="s2xs3", field=("products", "left"), value="x", repeat=True)
def test_mutated_structure_ends_in_a_documented_status(workdir, name, field, value, repeat):
    """The field is replaced, dropped, or, with `repeat`, written a second
    time after the original: a repeated key is always a parse error."""
    doc = json.loads(json.dumps(STRUCTURED[name]))
    owner, key = field
    if owner is not None:
        assume(doc[owner])
        target = doc[owner][0]
    else:
        target = doc
    path = workdir / f"structure-{name}.json"
    if repeat:
        assume(value is not DROP and key in target)
        path.write_text(with_repeated_field(doc, owner, key, value), encoding="utf-8")
        assert run_quietly(["check", str(path)]) == 1
        return
    if value is DROP:
        target.pop(key, None)
    else:
        target[key] = value
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    assert run_quietly(["check", str(path)]) in STATUSES
