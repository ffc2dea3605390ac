"""Property tests: markup round trip and injection-mode option filtering."""

from hypothesis import given, settings
from hypothesis import strategies as st

from termforge.align import PhraseOption, PhraseTable
from termforge.corpus import Candidate, contains_contiguous
from termforge.smt import (
    CONSTRAINT,
    EXCLUSIVE,
    MODES,
    AnnotatedInput,
    Span,
    _span_option,
    build_options,
    format_markup,
    parse_markup,
)

# fixed example sequence, so the suite stays deterministic
PROPERTY = settings(derandomize=True, deadline=None, database=None)

WORDS = st.text("abcdefgh", min_size=1, max_size=4)
SOURCE_WORDS = st.sampled_from(("a", "b", "c", "d"))
TARGET_WORDS = st.sampled_from(("x", "y", "z"))


def phrases(words, max_len=2):
    return st.lists(words, min_size=1, max_size=max_len).map(tuple)


@st.composite
def annotated_inputs(draw, words, candidate_words, modes, probs):
    """Plain tokens interleaved with non-overlapping spans."""
    tokens: list[str] = []
    spans: list[Span] = []
    for _ in range(draw(st.integers(0, 4))):
        tokens += draw(st.lists(words, max_size=2))
        if draw(st.booleans()):
            start = len(tokens)
            tokens += draw(phrases(words, 3))
            candidates = draw(
                st.lists(
                    st.builds(Candidate, phrases(candidate_words), probs),
                    min_size=1,
                    max_size=3,
                )
            )
            spans.append(Span(start, len(tokens), candidates, draw(modes)))
    return AnnotatedInput(tuple(tokens), spans)


@st.composite
def tables(draw):
    entries = draw(
        st.dictionaries(
            phrases(SOURCE_WORDS),
            st.lists(
                st.builds(
                    PhraseOption,
                    phrases(TARGET_WORDS),
                    st.tuples(*[st.floats(0.01, 1.0)] * 4),
                ),
                min_size=1,
                max_size=3,
            ),
            max_size=12,
        )
    )
    return PhraseTable(entries)


@PROPERTY
@given(
    st.sampled_from(MODES).flatmap(
        lambda mode: annotated_inputs(
            WORDS,
            WORDS,
            st.just(mode),
            st.floats(0.0, 1.0),
        )
    )
)
def test_markup_round_trip(annotated):
    mode = annotated.spans[0].mode if annotated.spans else EXCLUSIVE
    assert parse_markup(format_markup(annotated), mode=mode) == annotated


@PROPERTY
@given(
    annotated_inputs(
        SOURCE_WORDS, TARGET_WORDS, st.sampled_from(MODES), st.floats(0.01, 1.0)
    ),
    tables(),
)
def test_build_options_respects_injection_modes(annotated, table):
    options = build_options(annotated, table)
    for span in annotated.spans:
        injected = {_span_option(span, cand) for cand in span.candidates}
        assert injected <= set(options)
        for opt in options:
            overlaps = opt.start < span.end and span.start < opt.end
            if not overlaps or opt in injected:
                continue
            # a surviving table option
            assert span.mode != EXCLUSIVE, opt
            if span.mode == CONSTRAINT:
                assert opt.start <= span.start and opt.end >= span.end, opt
                assert any(
                    contains_contiguous(opt.target, c.tokens) for c in span.candidates
                ), opt
    covered = {pos for opt in options for pos in range(opt.start, opt.end)}
    assert covered == set(range(len(annotated.tokens)))
