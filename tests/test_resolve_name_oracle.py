"""Name lookup through the catalog's one canonical index against plain scans:
the same record, or a KeyError with the same message, for any bare or
qualified name."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from labelkit.catalog import LabelCatalog, LabelRecord, canonicalize


# ---------------------------------------------------------------------------
# Oracles: the bare-name scan verbatim, and the qualified lookup as a scan for
# the lowest id whose qualified name is exactly the text, else the lowest id
# with the stripped category and that canonical form.


def oracle_find(self: LabelCatalog, category: str, name: str) -> LabelRecord | None:
    canonical = canonicalize(name)
    for r in self.records:
        if r.category == category and r.canonical == canonical:
            return r
    return None


def oracle_resolve_name(self: LabelCatalog, text: str) -> LabelRecord:
    """Resolve a human-written label reference to a record.

    Accepts the qualified "category::name" form, or a bare name which must
    be unambiguous.
    """
    if "::" in text:
        for r in self.records:
            if r.qualified_name == text:
                return r
        cat, _, bare = text.partition("::")
        record = oracle_find(self, cat.strip(), bare)
        if record is None:
            raise KeyError(f"unknown label {text!r}")
        return record
    canonical = canonicalize(text)
    matches = [r for r in self.records if r.canonical == canonical]
    if not matches:
        raise KeyError(f"unknown label {text!r}")
    if len(matches) > 1:
        cats = ", ".join(sorted(r.category for r in matches))
        raise KeyError(f"ambiguous label {text!r} (categories: {cats}); qualify it")
    return matches[0]


# ---------------------------------------------------------------------------
# Comparison

CATEGORIES = ["country", "culture", "tags", "medium"]
NAMES = [
    "turkey", "Turkey ", "tur  key", "tur key", "caf\u00e9", "cafe\u0301", "ink, color", "", "x"
]


def outcome(resolve, catalog, text):
    try:
        return ("ok", resolve(catalog, text))
    except KeyError as exc:
        return ("error", exc.args[0])


@settings(max_examples=400, deadline=None)
@given(
    records=st.lists(
        st.tuples(st.sampled_from(CATEGORIES + [" tags "]), st.sampled_from(NAMES)), max_size=12
    ),
    order=st.randoms(use_true_random=False),
    text=st.one_of(
        st.sampled_from(NAMES),
        st.tuples(
            st.sampled_from(CATEGORIES + [" tags ", "Tags", ""]), st.sampled_from(NAMES)
        ).map("::".join),
    ),
)
@example(
    records=[("tags", "turkey"), ("country", "Turkey"), ("tags", "turkey ")],
    order=None,
    text="turkey",
)
@example(
    # Canonical-equal duplicates: each exact spelling names its own record.
    records=[("medium", "Silk"), ("medium", "silk")],
    order=None,
    text="medium::silk",
)
@example(
    # A category kept with its outer spaces resolves from its exact spelling.
    records=[(" tags ", "turkey"), ("tags", "turkey")],
    order=None,
    text=" tags ::turkey",
)
def test_bare_name_index_matches_scan(records, order, text):
    rows = [LabelRecord(i, cat, name) for i, (cat, name) in enumerate(records)]
    if order is not None:
        order.shuffle(rows)  # the catalog sorts by id whatever order it is given
    catalog = LabelCatalog(rows)
    got = outcome(LabelCatalog.resolve_name, catalog, text)
    assert got == outcome(oracle_resolve_name, catalog, text)
